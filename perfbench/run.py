"""The Cinder simulator benchmark: one workload per invocation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload staggered_fleet --seed 7 \
        --seconds 20 --trace 0

It builds the workload from ``--seed``, repeats build + timed run for
``--seconds`` (at least :data:`MIN_REPS` times), checks every
simulated device, and prints a human-readable report followed, as the
last line, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics from untraced reps, each
scaled to a reference host speed measured right before and after it
(see ``calibrate.py``).
``--trace 1`` alternates untraced and traced reps and reports the
per-layer metrics of the traced ones (see ``tracer.py``); the
end-to-end numbers never come from a traced rep.  See README.md for
what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(ROOT, ".perfbench", f"spans-{os.getpid()}")

#: Fewest reps a run takes, however short ``--seconds`` is.
MIN_REPS = 3
#: Traced root spans must equal the summed self times this closely.
SELF_SUM_TOLERANCE = 0.01

#: ``(name, unit, better)`` of every per-layer metric, in report order.
LAYER_METRICS = [
    ("world.self_s", "s", "lower"),
    ("world.rounds", "count", "lower"),
    ("world.cohort_span_frac", "frac", "higher"),
    ("world.cohort_fallbacks", "count", "lower"),
    ("events.poll_calls", "count", "lower"),
    ("events.poll_s", "s", "lower"),
    ("events.poll_skip_frac", "frac", "higher"),
    ("events.replay_calls", "count", "lower"),
    ("events.replay_s", "s", "lower"),
    ("engine.run_self_s", "s", "lower"),
    ("engine.step_calls", "count", "lower"),
    ("engine.step_self_s", "s", "lower"),
    ("engine.ff_tick_frac", "frac", "higher"),
    ("engine.span_refusals", "count", "lower"),
    ("graph.step_calls", "count", "lower"),
    ("graph.step_s", "s", "lower"),
    ("graph.tick_batch_calls", "count", "lower"),
    ("graph.tick_batch_s", "s", "lower"),
    ("graph.conservation_error_j", "J", "lower"),
    ("spansolver.batch_calls", "count", "lower"),
    ("spansolver.batch_rows", "count", "higher"),
    ("spansolver.batch_s", "s", "lower"),
    ("spansolver.scalar_calls", "count", "lower"),
    ("spansolver.scalar_s", "s", "lower"),
    ("spansolver.segments", "count", "lower"),
    ("spansolver.switches", "count", "lower"),
    ("spansolver.locate_s", "s", "lower"),
    ("spansolver.integrate_s", "s", "lower"),
    ("meter.feed_calls", "count", "lower"),
    ("meter.feed_s", "s", "lower"),
    ("meter.cohort_calls", "count", "lower"),
    ("meter.cohort_s", "s", "lower"),
    ("trace.record_calls", "count", "lower"),
    ("trace.probe_calls", "count", "lower"),
    ("trace.s", "s", "lower"),
    ("net.step_calls", "count", "lower"),
    ("net.step_s", "s", "lower"),
    ("shards.self_s", "s", "lower"),
    ("shards.wait_s", "s", "lower"),
    ("shards.worker_run_s", "s", "lower"),
    ("shards.straggler_s", "s", "lower"),
    ("shards.recoveries", "count", "lower"),
    ("transport.msgs", "count", "lower"),
    ("transport.bytes", "B", "lower"),
    ("transport.send_s", "s", "lower"),
    ("hostd.spawn_s", "s", "lower"),
    ("hostd.ping_calls", "count", "lower"),
    ("hostd.ping_s", "s", "lower"),
    ("checkpoint.capture_calls", "count", "lower"),
    ("checkpoint.capture_s", "s", "lower"),
    ("bench.traced_root_s", "s", "lower"),
    ("bench.self_sum_err_frac", "frac", "lower"),
    ("bench.trace_overhead_frac", "frac", "lower"),
]
UNITS = {name: unit for name, unit, _ in LAYER_METRICS}
#: BENCHMARK.json's ``per_layer`` is LAYER_METRICS minus this set.
#: Layers that only the workloads left out of BENCHMARK.json run: the
#: single-device loop, switch location, and the shard tiers.  They are
#: printed for every workload but kept out of the JSON result, where
#: they would read 0 on every run of the listed workloads.
UNLISTED_LAYER_METRICS = {
    "engine.run_self_s", "spansolver.locate_s", "spansolver.integrate_s",
    "shards.self_s", "shards.wait_s", "shards.worker_run_s",
    "shards.straggler_s", "shards.recoveries", "transport.msgs",
    "transport.bytes", "transport.send_s", "hostd.spawn_s",
    "hostd.ping_calls", "hostd.ping_s", "checkpoint.capture_calls",
    "checkpoint.capture_s"}
#: Counts driven by the wall clock, not by the simulation: heartbeat
#: pings fire every ``heartbeat_s`` of waiting.  Reported, not required
#: to repeat.
WALL_DRIVEN_COUNTS = {"hostd.ping_calls"}

END_TO_END = [("us_per_device_s", "us"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]


def env_stamp() -> Dict[str, object]:
    import numpy
    from repro.core import segkernel
    source = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                source.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    source.update(handle.read())
    commit = "unavailable"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "segkernel_backend": segkernel.BACKEND,
            "git_commit": commit,
            "source_sha256": source.hexdigest()}


# -- per-layer metrics --------------------------------------------------------


def _frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(rep, totals: Dict[str, list], root_s: float,
                  parent_self_s: float, worker_lines: List[dict]
                  ) -> Dict[str, float]:
    """Per-layer metrics of one traced rep.

    ``totals`` maps each wrapped function to ``[calls, self_s,
    extra]`` summed over this process and the hostd workers;
    ``root_s`` and ``parent_self_s`` are this process's root spans and
    the self times inside them.
    """
    def t(name: str) -> list:
        return totals.get(name, [0, 0.0, 0.0])

    counts = dict(rep.counts)
    worker_runs = [line for line in worker_lines
                   if line["root"] == "World.run"]
    if worker_runs:
        # Scheduler counters are cumulative per world: keep each
        # world's last report.
        last = {}
        for line in worker_runs:
            last[(line["pid"], line["world"])] = line["counters"]
        for key in ("horizon_cache_hits", "horizon_polls"):
            counts[key] = sum(c[key] for c in last.values())
    by_barrier: Dict[float, List[float]] = {}
    for line in worker_runs:
        by_barrier.setdefault(line["start_now"], []).append(line["dur"])

    cohort = counts.get("cohort_spans", 0) + counts.get(
        "independent_cohort_spans", 0)
    spans = (cohort + counts.get("independent_scalar_spans", 0)
             + counts.get("cohort_fallbacks", 0))
    hits = counts.get("horizon_cache_hits", 0)
    m = {
        "world.self_s": t("World.run")[1],
        "world.rounds": (counts.get("barrier_rounds", 0)
                         + counts.get("macro_steps", 0)
                         + counts.get("tick_steps", 0)),
        "world.cohort_span_frac": _frac(cohort, spans),
        "world.cohort_fallbacks": counts.get("cohort_fallbacks", 0),
        "events.poll_calls": t("Horizon.poll")[0],
        "events.poll_s": t("Horizon.poll")[1],
        "events.poll_skip_frac": _frac(
            hits, hits + counts.get("horizon_polls", 0)),
        "events.replay_calls": t("Horizon.advance_span")[0],
        "events.replay_s": t("Horizon.advance_span")[1],
        "engine.run_self_s": t("DeviceRuntime.run")[1],
        "engine.step_calls": t("DeviceRuntime.step")[0],
        "engine.step_self_s": t("DeviceRuntime.step")[1],
        "engine.ff_tick_frac": _frac(counts["fast_forwarded_ticks"],
                                     counts["ticks"]),
        "engine.span_refusals": counts["span_refusals"],
        "graph.step_calls": t("ResourceGraph.step")[0],
        "graph.step_s": t("ResourceGraph.step")[1],
        "graph.tick_batch_calls": t("execute_tick_batch")[0],
        "graph.tick_batch_s": t("execute_tick_batch")[1],
        "graph.conservation_error_j": max(
            abs(d.conservation_j) for d in rep.devices),
        "spansolver.batch_calls": t("execute_span_batch")[0],
        "spansolver.batch_rows": int(t("execute_span_batch")[2]),
        "spansolver.batch_s": t("execute_span_batch")[1],
        "spansolver.scalar_calls": t("FlowPlan.execute_span")[0],
        "spansolver.scalar_s": t("FlowPlan.execute_span")[1],
        "spansolver.segments": counts["span_segments"],
        "spansolver.switches": counts["span_switches"],
        "spansolver.locate_s": rep.values.get("span_locate_s", 0.0),
        "spansolver.integrate_s": rep.values.get("span_integrate_s", 0.0),
        "meter.feed_calls": t("PowerMeter.feed")[0],
        "meter.feed_s": t("PowerMeter.feed")[1],
        "meter.cohort_calls": t("PowerMeter.feed_cohort")[0],
        "meter.cohort_s": t("PowerMeter.feed_cohort")[1],
        "trace.record_calls": t("TraceRecorder.record")[0],
        "trace.probe_calls": t("TraceRecorder.sample_probes")[0],
        "trace.s": (t("TraceRecorder.record")[1]
                    + t("TraceRecorder.sample_probes")[1]),
        "net.step_calls": (t("NetworkDaemon.step")[0]
                           + t("RadioDevice.tick")[0]),
        "net.step_s": t("NetworkDaemon.step")[1] + t("RadioDevice.tick")[1],
        "shards.self_s": t("ShardedWorld.run")[1],
        "shards.wait_s": t("SlotClient.collect")[1],
        "shards.worker_run_s": sum(line["dur"] for line in worker_runs),
        "shards.straggler_s": sum(max(d) - min(d)
                                  for d in by_barrier.values()),
        "shards.recoveries": counts.get("recoveries", 0),
        # Each heartbeat ping sends one frame; the rest are verbs.
        "transport.msgs": t("send_msg")[0] - t("HostHandle.ping")[0],
        "transport.bytes": int(t("send_msg")[2]),
        "transport.send_s": t("send_msg")[1],
        "hostd.spawn_s": t("HostHandle.spawn")[1],
        "hostd.ping_calls": t("HostHandle.ping")[0],
        "hostd.ping_s": t("HostHandle.ping")[1],
        "checkpoint.capture_calls": t("capture")[0],
        "checkpoint.capture_s": t("capture")[1],
        "bench.traced_root_s": root_s,
        "bench.self_sum_err_frac": _frac(abs(parent_self_s - root_s),
                                         root_s),
    }
    return m


# -- measuring ----------------------------------------------------------------


class Run:
    """Reps of one workload and seed, and the checks over all of them."""

    def __init__(self, workload, seed: int) -> None:
        from workloads import load_expected
        self.workload = workload
        self.seed = seed
        self.expected = load_expected()
        self.untraced = []
        #: Per untraced rep: ``REFERENCE_S`` over the mean kernel time
        #: just before and after it; a rep's wall times this reads at
        #: reference speed.
        self.speed: List[float] = []
        #: The kernel time taken right after the previous untraced rep,
        #: which doubles as the "before" of the next one.
        self._kernel_s: Optional[float] = None
        self.traced = []
        self.layers: List[Dict[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: Observations that are not failures (wall-driven counts).
        self.notes: List[str] = []

    def one(self, tracer=None) -> None:
        from calibrate import REFERENCE_S, kernel_s
        from workloads import check_devices
        gc.collect()
        if tracer is None:
            before = self._kernel_s or kernel_s()
        else:
            self._kernel_s = None
            shutil.rmtree(SPANS_DIR, ignore_errors=True)
            os.makedirs(SPANS_DIR)
            tracer.reset()
            tracer.install()
        try:
            rep = self.workload.rep(self.seed)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is None:
            # Free the rep's world (it holds reference cycles) first, so
            # that the kernel allocates into an emptied heap and never
            # adds to the peak RSS.
            gc.collect()
            self._kernel_s = kernel_s()
            self.speed.append(2 * REFERENCE_S / (before + self._kernel_s))
        failures = check_devices(self.workload, self.seed, rep,
                                 self.expected)
        missing = max(0, self.workload.devices - len(rep.devices))
        failed_devices = sum(f.startswith("device ") for f in failures)
        self.attempted += self.workload.devices + rep.barriers
        self.failed += failed_devices + missing + rep.failed_barriers
        self.problems.extend(failures + rep.failures)
        if tracer is None:
            self.untraced.append(rep)
        else:
            self.traced.append(rep)
            self.layers.append(self._layers(rep, tracer))

    def _layers(self, rep, tracer) -> Dict[str, float]:
        from tracer import read_worker_spans
        parent = {name: [t.calls, t.self_s, t.extra]
                  for name, t in tracer.totals.items()}
        parent_self = sum(v[1] for v in parent.values())
        totals = {name: list(v) for name, v in parent.items()}
        lines = read_worker_spans(SPANS_DIR)
        for line in lines:
            for name, (calls, self_s, extra) in line["totals"].items():
                acc = totals.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += self_s
                acc[2] += extra
        return layer_metrics(rep, totals, tracer.root_s, parent_self, lines)

    def check_repeats(self) -> bool:
        """Flag every count that varied between reps of this seed."""
        ok = True
        reps = self.untraced + self.traced
        for key in sorted(reps[0].counts):
            values = {r.counts[key] for r in reps}
            if len(values) > 1:
                self.problems.append(f"count {key} varied: {sorted(values)}")
                ok = False
        if len({r.digest for r in reps}) > 1:
            self.problems.append("device outcome digest varied between reps")
            ok = False
        for name, unit, _ in LAYER_METRICS:
            if unit != "count" or not self.layers:
                continue
            values = {layer[name] for layer in self.layers}
            if len(values) <= 1:
                continue
            message = f"traced count {name} varied: {sorted(values)}"
            if name in WALL_DRIVEN_COUNTS:
                self.notes.append(message + " (wall-clock driven)")
            else:
                self.problems.append(message)
                ok = False
        return ok


def measure(workload, seed: int, seconds: float, traced: bool) -> Run:
    run = Run(workload, seed)
    tracer = None
    if traced:
        from tracer import Tracer
        from workloads import world_counters
        tracer = Tracer(SPANS_DIR, world_counters)
    start = time.perf_counter()
    while True:
        run.one()
        if tracer is not None:
            run.one(tracer)
        done = max(len(run.untraced), len(run.traced))
        if done >= MIN_REPS and time.perf_counter() - start >= seconds:
            return run


def end_to_end(run: Run) -> Dict[str, float]:
    workload = run.workload
    reps = run.untraced
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "us_per_device_s": statistics.median(
            [r.run_s * k for r, k in zip(reps, run.speed)])
        / workload.device_seconds * 1e6,
        "setup_s": statistics.median(
            [r.setup_s * k for r, k in zip(reps, run.speed)]),
        "peak_rss_mb": peak_kib / 1024.0
        + max(r.daemon_rss_mb for r in reps),
    }


def per_layer(run: Run) -> Dict[str, float]:
    metrics = {name: statistics.median([layer[name] for layer in run.layers])
               for name, _, _ in LAYER_METRICS
               if name != "bench.trace_overhead_frac"}
    traced = statistics.median([r.run_s for r in run.traced])
    untraced = statistics.median([r.run_s for r in run.untraced])
    metrics["bench.trace_overhead_frac"] = traced / untraced - 1.0
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no simulator source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from calibrate import REFERENCE_S
    from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed

    stamp = env_stamp()
    stamp.update(workload=workload.name, seed=seed,
                 default_seed=DEFAULT_SEED, held_out_seed=HELD_OUT_SEED,
                 seconds=args.seconds, trace=args.trace)
    print("env " + json.dumps(stamp))
    try:
        run = measure(workload, seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(os.path.dirname(SPANS_DIR), ignore_errors=True)
    repeats_ok = run.check_repeats()

    e2e = end_to_end(run)
    rows = [(name, e2e[name], unit) for name, unit in END_TO_END]
    rows.append(("failed_frac", run.failed / run.attempted, "frac"))
    if args.trace:
        layers = per_layer(run)
        rows += [(name, layers[name], UNITS[name])
                 for name, _, _ in LAYER_METRICS]
        self_sum_ok = all(layer["bench.self_sum_err_frac"]
                          <= SELF_SUM_TOLERANCE for layer in run.layers)
        if not self_sum_ok:
            run.problems.append("traced self times do not sum to the root "
                                f"span within {SELF_SUM_TOLERANCE:.0%}")
    else:
        self_sum_ok = True
    walls = [r.run_s for r in run.untraced]
    print(f"{workload.name}: {workload.devices} device(s) x "
          f"{workload.sim_s:g} simulated s, seed {seed}, "
          f"{len(run.untraced)} untraced / {len(run.traced)} traced reps; "
          f"run wall median {statistics.median(walls):.4f} s "
          f"(min {min(walls):.4f}, max {max(walls):.4f})")
    print(f"  host speed (reference kernel {REFERENCE_S:g} s over measured): "
          f"median {statistics.median(run.speed):.4f} "
          f"(min {min(run.speed):.4f}, max {max(run.speed):.4f}); "
          f"unscaled us_per_device_s "
          f"{statistics.median(walls) / workload.device_seconds * 1e6:.6g}")
    print("  untraced rep walls (s): "
          + " ".join(f"{w:.4f}" for w in walls))
    for name, value, unit in rows:
        print(f"  {name:<28} {value:>16.6g} {unit}")
    for note in run.notes:
        print(f"  note: {note}")
    problems = {}
    for problem in run.problems:
        problems[problem] = problems.get(problem, 0) + 1
    for problem, times in list(problems.items())[:20]:
        print(f"  FAILED CHECK ({times}x): {problem}")
    if len(problems) > 20:
        print(f"  ... {len(problems) - 20} more distinct failed checks")

    if args.trace:
        metrics = {name: {"value": layers[name], "unit": UNITS[name]}
                   for name, _, _ in LAYER_METRICS
                   if name not in UNLISTED_LAYER_METRICS}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({
        "correct": run.failed == 0 and repeats_ok and self_sum_ok,
        "attempted": run.attempted, "failed": run.failed,
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
