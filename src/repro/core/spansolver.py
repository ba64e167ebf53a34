"""The span tier: closed-form integration of event-free spans.

:class:`~repro.core.flowplan.FlowPlan` owns the *tick kernel* — one
vectorized batch round, exactly equivalent to sequential per-object
firing.  This module owns the other execution mode: integrating the
continuous dynamics of a whole event-free span in one shot (the
engine's idle fast-forward).  The two tiers share the compiled
topology snapshot but solve different problems, so they live in
different files.

Per reserve the continuous dynamics are linear::

    L' = A @ L + b

where ``b`` collects the constant taps (``const_in - const_out``) and
``A`` collects everything proportional: each proportional tap of rate
``f`` from reserve ``s`` to ``k`` contributes ``-f`` to ``A[s, s]``
and ``+f`` to ``A[k, s]``, and the global decay contributes ``-lam``
to every non-exempt diagonal with ``+lam`` routed to the root's row.

Two solvers, picked per call:

* **diagonal** — when no proportional tap feeds a reserve that itself
  drains proportionally (``A`` is effectively diagonal after dropping
  rows that only *receive*), each reserve solves independently:
  ``L(t) = steady + (L0 - steady) * exp(-F t)``.  This is the scalar
  closed form from PR 1, kept verbatim as the fast tier — it is a few
  numpy vector ops with no linear algebra.
* **coupled** — chained topologies (the paper's subdivision trees,
  ``clone_reserve`` backpressure, netd/GPS reserve trees) make ``A``
  genuinely triangular-or-worse.  The system is integrated with a
  matrix exponential: an eigendecomposition of ``A`` when it is
  well-conditioned (one factorization per topology epoch, then each
  span is a couple of matrix-vector products), falling back to
  scaling-and-squaring Padé on the augmented matrix when ``A`` is
  defective (equal-rate chains produce Jordan blocks) or its
  eigenbasis is ill-conditioned.  Per-reserve *time integrals*
  ``J = ∫ L dt`` come out of the same solve (phi-functions on the
  eigenvalue path, state augmentation on the Padé path) and give every
  proportional tap's exact integrated flow ``rate * J[src]`` — levels
  are then committed by **mass balance** from those flows, so
  conservation is exact by construction no matter what the linear
  algebra rounded.

The dynamics are only *piecewise* linear in time: a constant drain
clamping on an empty reserve, a finite capacity binding, and a debt
level crossing zero (the ``max(L, 0)`` nonlinearity) each switch the
system to a different linear regime at one discrete instant.  Those
used to be refusals — the whole span fell back to tick-by-tick.  The
**segmented engine** now handles them: when the single-regime bounds
fail, the solver locates the earliest switching instant inside the
span (sampling the closed-form trajectory, then bisecting on the
propagator — the eigendecomposition when the regime's ``A`` is
healthy, the Padé exponential when it is defective), integrates
exactly to it, rewrites the regime — pin an emptied reserve at zero
and pass its constant inflow through to its drains in creation order,
freeze a capped reserve and reject its inflow, flip a debt row to
inflow-only repayment — and continues segment by segment until the
span is consumed.  Per-segment flows are staged and the whole chain
commits by mass balance in one shot (or nothing commits at all), so
conservation stays exact and a refusal still mutates nothing.

Two further regimes have exact rewrites.  An empty reserve fed by a
**live proportional tap** pins at zero and forwards its time-varying
inflow to its constant drains in creation order: the fully-fed prefix
runs at nominal rate, one *marginal* drain carries the affine
remainder ``c + Σ fⱼ·Lⱼ(t) - R`` (its row in ``A``/``b`` receives the
forwarded terms), and a **saturation monitor** on the inflow
functional ends the segment if the allocation pattern would change.
A reserve **hovering at its capacity** (drains and/or decay while
inflow exceeds outflow) pins at its level: outflows run at full rate
served from inflow, and the surplus is rejected at the deposit taps —
per-tap acceptance follows the steady per-tick cycle (headroom opened
by drains, consumed by deposits in creation order, decay last).

Residual refusals are the regimes with no supported rewrite:
time-varying (proportional or forwarded) inflow into a binding
capacity, pinned-to-pinned pass-through cascades, a non-normal root,
unlocatable or sub-resolution switch instants, and chains longer than
:data:`MAX_SEGMENTS`.  Tick-by-tick is always correct, so the
segmented engine never guesses.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from . import segkernel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .flowplan import FlowPlan

#: Test hook: force the scaling-and-squaring path even when the
#: eigendecomposition is healthy, so both expm code paths stay covered.
FORCE_DENSE_EXPM = False

#: Eigenbasis condition number above which eigendecomposition results
#: are not trusted (defective or nearly-defective ``A``).
EIG_COND_LIMIT = 1e8

#: Span-end negativity beyond float noise aborts the solve (the sound
#: bounds should make this unreachable; refuse rather than guess).
NEGATIVE_LEVEL_SLACK = 1e-6

#: Hard ceiling on regime switches inside one span; a span that keeps
#: switching beyond this is refused (tick-by-tick is always correct).
MAX_SEGMENTS = 64

#: Trajectory samples per segment when scanning for the earliest
#: switching instant (crossings between samples are then bisected).
EVENT_SAMPLES = 96

#: Relative float-noise tolerance on levels: a clamp fires below
#: ``-ltol``, a debt clears above it, and located crossings leave up
#: to ``4 * ltol`` of dust that the battery absorbs.
LEVEL_RTOL = 1e-11


def _level_tolerance(lvl: np.ndarray, root: int) -> np.ndarray:
    """Per-device ``ltol`` for ``(..., n)`` levels: ``LEVEL_RTOL``
    times the largest *non-root* magnitude (at least 1 J).

    The battery is left out of the scale.  It typically holds 10^4 J,
    which would make ``ltol`` ~1e-7 J: a reserve running dry mid-span
    would be located that far past empty, its sink would receive the
    overshoot, and dust absorption would bill it to the battery — a
    flow the tick engine never makes.  The battery's own level needs
    no such slack: a battery leaving the normal regime has no rewrite
    (the span is refused), and its level rounds at its own ulp, far
    below ``ltol`` near zero.
    """
    rest = np.delete(lvl, root, axis=-1)
    return LEVEL_RTOL * np.maximum(1.0, np.abs(rest).max(axis=-1,
                                                          initial=0.0))


# per-reserve regime modes inside one segment
_NORMAL, _DEBT, _EMPTY, _FULL, _HOVER = 0, 1, 2, 3, 4

#: Relative slack on a saturation monitor's flow-rate boundaries (the
#: pass-through functional sits exactly on a boundary at derivation
#: time; the monitor must not re-fire on that float noise).
SAT_RTOL = 1e-9


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential: scaling-and-squaring with a [13/13] Padé.

    The classic Higham recipe, simplified to the highest-order
    approximant only (these matrices are small — a reserve graph's
    live topology — so the sub-order early exits are not worth their
    bookkeeping).  numpy-only by construction: scipy is not a
    dependency of this package.
    """
    n = a.shape[0]
    norm = np.linalg.norm(a, 1)
    theta13 = 5.371920351148152
    squarings = 0
    if norm > theta13:
        squarings = int(math.ceil(math.log2(norm / theta13)))
        a = a / (2.0 ** squarings)
    b = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
         960960.0, 16380.0, 182.0, 1.0)
    ident = np.eye(n)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


def _phi1(z: np.ndarray, ez: Optional[np.ndarray] = None) -> np.ndarray:
    """``(e^z - 1) / z`` with the removable singularity handled.

    ``ez`` may pass a precomputed ``np.exp(z)`` so call sites that
    already hold the exponential (every phi-propagation formula does)
    do not evaluate it again; the quotient is bit-identical either
    way since it consumes the very same ``exp`` values.
    """
    out = np.ones_like(z)
    small = np.abs(z) < 1e-3
    zl = z[~small]
    el = np.exp(zl) if ez is None else ez[~small]
    out[~small] = (el - 1.0) / zl
    zs = z[small]
    out[small] = 1.0 + zs / 2.0 + zs * zs / 6.0 + zs ** 3 / 24.0
    return out


def _phi2(z: np.ndarray, ez: Optional[np.ndarray] = None) -> np.ndarray:
    """``(e^z - 1 - z) / z^2`` with the removable singularity handled."""
    out = np.full_like(z, 0.5)
    small = np.abs(z) < 1e-3
    zl = z[~small]
    el = np.exp(zl) if ez is None else ez[~small]
    out[~small] = (el - 1.0 - zl) / (zl * zl)
    zs = z[small]
    out[small] = 0.5 + zs / 6.0 + zs * zs / 24.0 + zs ** 3 / 120.0
    return out


def _phi12(z: np.ndarray
           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fused ``(e^z, phi1(z), phi2(z))`` — one exponential, one mask.

    Every propagation formula needs two or three of these on the same
    ``z``; evaluated separately each helper pays its own ``exp`` (the
    dominant cost on the stacked ``(devices, samples, n)`` grids of
    the segmented engine).  The fused form computes ``exp(z)`` and the
    small-``|z|`` mask once and feeds both quotients from them —
    bit-identical to the separate calls, which divide the identical
    ``exp`` values by the identical denominators.
    """
    ez = np.exp(z)
    small = np.abs(z) < 1e-3
    big = ~small
    zl = z[big]
    el = ez[big]
    p1 = np.ones_like(z)
    p1[big] = (el - 1.0) / zl
    p2 = np.full_like(z, 0.5)
    p2[big] = (el - 1.0 - zl) / (zl * zl)
    zs = z[small]
    p1[small] = 1.0 + zs / 2.0 + zs * zs / 6.0 + zs ** 3 / 24.0
    p2[small] = 0.5 + zs / 6.0 + zs * zs / 24.0 + zs ** 3 / 120.0
    return ez, p1, p2


def _augmented(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The ``(2n+1)``-square block matrix ``[[A, b, 0], [0], [I, 0]]``.

    One exponential of it yields both the state and its time integral:
    rows ``:n`` carry ``L' = A L + b`` (with the constant ``1`` state
    at index ``n`` driving ``b``), rows ``n+1:`` carry ``J' = L``.
    Shared by every dense (Padé) path — the scalar coupled solver, the
    batched cohort solver, and the segment propagator.
    """
    n = a.shape[0]
    m = np.zeros((2 * n + 1, 2 * n + 1))
    m[:n, :n] = a
    m[:n, n] = b
    m[n + 1:, :n] = np.eye(n)
    return m


def _eig_state_integral(eig: Tuple[np.ndarray, np.ndarray, np.ndarray],
                        b: np.ndarray, lvl: np.ndarray,
                        t: float) -> Tuple[np.ndarray, np.ndarray]:
    """``(L(t), J(t))`` on the eigenvalue path of ``L' = A L + b``.

    The one place the phi-function propagation formula lives: both the
    per-epoch :class:`CoupledSystem` and the per-regime
    :class:`_SegmentPropagator` delegate here, so the single-regime
    and segmented tiers cannot drift apart.
    """
    w, v, vinv = eig
    c0 = vinv @ lvl
    cb = vinv @ b
    z = w * t
    ez, p1, p2 = _phi12(z)
    end = (v @ (ez * c0 + t * (p1 * cb))).real
    integ = (v @ (t * (p1 * c0) + (t * t) * (p2 * cb))).real
    return end, integ


def _eig_states_batch(eig: Tuple[np.ndarray, np.ndarray, np.ndarray],
                      b: np.ndarray, lvls: np.ndarray,
                      ts: np.ndarray) -> np.ndarray:
    """``L(t)`` over per-device grids: ``(g, n) x (g, k) -> (g, k, n)``.

    The stacked form of :meth:`_SegmentPropagator.states` — the same
    phi-function formula over a batch of initial conditions and a
    batch of sample grids, one shared eigendecomposition.
    """
    w, v, vinv = eig
    c0 = lvls @ vinv.T
    cb = vinv @ b
    z = ts[:, :, None] * w
    ez = np.exp(z)
    out = (ez * c0[:, None, :]
           + ts[:, :, None] * (_phi1(z, ez) * cb)) @ v.T
    return out.real


def _eig_state_at_batch(eig: Tuple[np.ndarray, np.ndarray, np.ndarray],
                        b: np.ndarray, lvls: np.ndarray,
                        t: np.ndarray) -> np.ndarray:
    """``L(t_i)`` per device (stacked bisection queries)."""
    w, v, vinv = eig
    z = t[:, None] * w
    ez = np.exp(z)
    return ((ez * (lvls @ vinv.T)
             + t[:, None] * (_phi1(z, ez) * (vinv @ b))) @ v.T).real


def _eig_propagate_batch(eig: Tuple[np.ndarray, np.ndarray, np.ndarray],
                         b: np.ndarray, lvls: np.ndarray,
                         t: np.ndarray) -> np.ndarray:
    """``J(t_i) = ∫_0^{t_i} L dt`` per device (stacked integration).

    The segmented engine commits levels by mass balance from the
    integrated flows, so only the integral is needed here.
    """
    w, v, vinv = eig
    c0 = lvls @ vinv.T
    cb = vinv @ b
    z = t[:, None] * w
    tc = t[:, None]
    _, p1, p2 = _phi12(z)
    return ((tc * (p1 * c0) + (tc * tc) * (p2 * cb))
            @ v.T).real


def _trusted_eig(a: np.ndarray
                 ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``(w, V, V^-1)`` when the eigenbasis of ``a`` is trustworthy.

    Returns None for defective or nearly-defective matrices (equal-rate
    chains produce Jordan blocks): the basis must be well-conditioned
    *and* actually reconstruct ``a`` — a nearly defective matrix can
    pass the condition gate yet round badly.
    """
    try:
        w, v = np.linalg.eig(a)
        cond = np.linalg.cond(v)
        if not np.isfinite(cond) or cond > EIG_COND_LIMIT:
            return None
        vinv = np.linalg.inv(v)
    except np.linalg.LinAlgError:  # pragma: no cover - numpy internal
        return None
    scale = max(1.0, float(np.abs(a).max()))
    recon = (v * w) @ vinv
    if float(np.abs(recon - a).max()) > 1e-9 * scale:
        return None
    return w, v, vinv


class CoupledSystem:
    """``L' = A L + b`` for one topology epoch at one decay constant.

    Built once per (plan, lam) and cached on the :class:`SpanTier`:
    the expensive part — the eigendecomposition, or per-span Padé
    exponentials of the augmented matrix — amortizes across every span
    the epoch serves.
    """

    def __init__(self, tier: "SpanTier", lam: float) -> None:
        plan = tier.plan
        n = len(plan.reserves)
        a = np.zeros((n, n))
        for j in plan.prop_taps:
            s, k, f = int(plan.src[j]), int(plan.snk[j]), plan.rate[j]
            a[s, s] -= f
            a[k, s] += f
        if lam > 0.0 and plan.any_decayable:
            decayable = np.flatnonzero(plan.decay_mask)
            a[decayable, decayable] -= lam
            a[plan.root_index, decayable] += lam
        self.a = a
        self.b = tier.const_in - tier.const_out
        self.n = n
        #: (eigenvalues, V, V^-1) when the eigenbasis is trusted.
        self.eig: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        #: span -> expm of the augmented matrix (Padé fallback path).
        self._dense_cache: Dict[float, np.ndarray] = {}
        #: Telemetry/testing: which solve path this system uses.
        self.mode = "dense"
        if not FORCE_DENSE_EXPM:
            self.eig = _trusted_eig(self.a)
            if self.eig is not None:
                self.mode = "eig"

    def propagate(self, lvl: np.ndarray,
                  span: float) -> Tuple[np.ndarray, np.ndarray]:
        """``(L(span), J(span))`` where ``J = ∫_0^span L dt``."""
        if self.eig is not None:
            return _eig_state_integral(self.eig, self.b, lvl, span)
        propagator = self._dense_cache.get(span)
        if propagator is None:
            propagator = _expm(_augmented(self.a, self.b) * span)
            if len(self._dense_cache) > 32:  # unbounded-span safety valve
                self._dense_cache.clear()
            self._dense_cache[span] = propagator
        n = self.n
        state = np.concatenate([lvl, [1.0], np.zeros(n)])
        result = propagator @ state
        return result[:n], result[n + 1:]


class _SegmentPropagator:
    """Closed-form evaluator for one regime's ``L' = A L + b``.

    Unlike :class:`CoupledSystem` (one system per topology epoch) a
    propagator describes one *regime* — the linear system left after a
    segment's pins and drops — and must answer trajectory queries at
    arbitrary instants for event location.  The eigenvalue path makes
    those queries a couple of matrix-vector products; the Padé path
    pays one augmented-matrix exponential per query (regimes are
    small, and event location runs only when a switch is near).
    """

    def __init__(self, a: np.ndarray, b: np.ndarray) -> None:
        self.a = a
        self.b = b
        self.n = a.shape[0]
        self.eig = None if FORCE_DENSE_EXPM else _trusted_eig(a)

    def states(self, lvl: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """``L(t)`` stacked over a *uniform* ascending grid ``ts``.

        The grid must start at its own spacing (``ts[k] = (k+1) * dt``)
        — exactly the event scan's ``linspace`` — so the dense path can
        propagate one per-step exponential instead of one per sample.
        """
        if self.eig is not None:
            w, v, vinv = self.eig
            c0 = vinv @ lvl
            cb = vinv @ self.b
            z = np.multiply.outer(ts, w)
            ez = np.exp(z)
            out = (ez * c0 + ts[:, None] * (_phi1(z, ez) * cb)) @ v.T
            return out.real
        n = self.n
        dt = ts[0] if len(ts) == 1 else ts[1] - ts[0]
        step = _expm(_augmented(self.a, self.b) * dt)
        state = np.concatenate([lvl, [1.0], np.zeros(n)])
        out = np.empty((len(ts), n))
        for k in range(len(ts)):
            state = step @ state
            out[k] = state[:n]
        return out

    def state_at(self, lvl: np.ndarray, t: float) -> np.ndarray:
        """``L(t)`` at one arbitrary instant (bisection queries)."""
        if self.eig is not None:
            w, v, vinv = self.eig
            z = w * t
            ez = np.exp(z)
            return (v @ (ez * (vinv @ lvl)
                         + t * (_phi1(z, ez) * (vinv @ self.b)))).real
        state = np.concatenate([lvl, [1.0], np.zeros(self.n)])
        return (_expm(_augmented(self.a, self.b) * t) @ state)[:self.n]

    def propagate(self, lvl: np.ndarray,
                  t: float) -> Tuple[np.ndarray, np.ndarray]:
        """``(L(t), J(t))`` where ``J = ∫_0^t L dt``."""
        if self.eig is not None:
            return _eig_state_integral(self.eig, self.b, lvl, t)
        state = np.concatenate([lvl, [1.0], np.zeros(self.n)])
        result = _expm(_augmented(self.a, self.b) * t) @ state
        return result[:self.n], result[self.n + 1:]


class _SegmentRegime:
    """One piecewise-linear regime: pins, effective rates, monitors.

    Everything here is a pure function of the per-reserve mode vector,
    the decay constant, and the *pinned levels* (a hovering reserve's
    proportional drains and decay loss turn into constants scaled by
    its pinned level; a forwarded pass-through's allocation split is
    set by the levels at derivation time), so regimes are cached on
    the tier keyed by the full derived spec — levels enter the
    propagator only as its initial condition.
    """

    __slots__ = ("mode", "eff", "const_idx", "prop_idx", "decay_rows",
                 "system", "clamp_rows", "cap_rows", "cap_limits",
                 "debt_rows", "debt_slope", "debt_linear", "lam",
                 "root", "out_eff", "in_eff", "f_row", "always_safe",
                 "cin_snk", "cin_src", "cin_eff", "psrc", "psnk",
                 "prate", "hov_idx", "hov_rate", "pin_rows",
                 "pin_rates", "fwd", "sat", "has_monitors")

    def __init__(self, **kw) -> None:
        for name in self.__slots__:
            setattr(self, name, kw[name])

    def certify_batch(self, lvl: np.ndarray, t: np.ndarray,
                      ltol: np.ndarray, crossed: np.ndarray,
                      crossed_sat: np.ndarray) -> np.ndarray:
        """Sound no-switch certificates for stacked ``[0, t_i]``.

        ``lvl`` is ``(g, n)``; ``t``/``ltol`` are per-device; crossing
        rows/monitors are excluded per device — their switch *is* the
        segment boundary.  The sampled event scan can miss a boundary
        excursion narrower than its grid (a capped reserve spiking
        over the cap and back, a drained reserve dipping below zero
        and recovering), which would silently commit flows
        tick-by-tick execution clamps.  A segment therefore only
        commits when these closed-form bounds hold over its whole
        interval:

        * **clamp rows** — the inflow-free lower bound, iteratively
          refined by crediting constant inflow from provably safe
          sources (the root, pinned reserves, and rows the previous
          iterate certified — the continuous analogue of the tier's
          ``early_feeds`` refinement);
        * **cap rows** — the iterated inflow upper bound (inflow at
          the previous bound, outflow ignored), the same bound the
          coupled tier refuses on;
        * **saturation monitors** — the forwarded functional bounded
          through the same row bounds: its sources' lower bounds keep
          it above the fully-fed prefix, their upper bounds keep it
          below the marginal drain's nominal rate.

        Debt rows need no certificate: their trajectories are monotone
        non-decreasing (inflow only), so the sampler cannot miss a
        crossing.  A failed certificate refuses the device — ticking
        is always correct.
        """
        g, n = lvl.shape
        ok = np.ones(g, dtype=bool)
        normal = self.mode == _NORMAL
        tcol = t[:, None]
        need_lower = self.sat[3].size > 0
        clamp_sel = np.zeros((g, n), dtype=bool)
        clamp_sel[:, self.clamp_rows] = True
        clamp_sel &= ~crossed
        safe = None
        if clamp_sel.any() or need_lower:
            safe = np.broadcast_to(self.always_safe, (g, n)).copy()
            f = self.f_row
            linear = f > 0.0
            decay_f = np.exp(-f * tcol)
            lower = np.zeros((g, n))
            for _ in range(4):
                credit = np.zeros((g, n))
                if self.cin_snk.size:
                    np.add.at(credit, (slice(None), self.cin_snk),
                              self.cin_eff * safe[:, self.cin_src])
                deficit = np.maximum(self.out_eff - credit, 0.0)
                per_f = np.divide(deficit, f, out=np.zeros((g, n)),
                                  where=linear)
                lower = np.where(linear,
                                 lvl * decay_f - per_f * (1.0 - decay_f),
                                 lvl - deficit * tcol)
                refined = (self.always_safe
                           | (normal & (lower >= -4.0 * ltol[:, None])))
                if (refined == safe).all():
                    break
                safe = refined
            if clamp_sel.any():
                ok &= ~(clamp_sel & ~safe).any(axis=1)
        best = None
        if self.cap_rows.size or need_lower:
            mass = np.maximum(lvl, 0.0).sum(axis=1)
            best = np.repeat(mass[:, None], n, axis=1)
            for _ in range(6):
                inflow = np.broadcast_to(self.in_eff, (g, n)).copy()
                if self.prate.size:
                    np.add.at(inflow, (slice(None), self.psnk),
                              self.prate * best[:, self.psrc])
                if self.lam > 0.0 and self.decay_rows.size:
                    inflow[:, self.root] += self.lam * best[
                        :, self.decay_rows].sum(axis=1)
                best = np.minimum(best, lvl + inflow * tcol)
            if self.cap_rows.size:
                over = best[:, self.cap_rows] > self.cap_limits
                over &= ~crossed[:, self.cap_rows]
                ok &= ~over.any(axis=1)
        sat_ptr, sat_src, sat_wts, sat_c, sat_lo, sat_hi, sat_tol = self.sat
        for m_i in range(sat_c.shape[0]):
            span_lo = np.full(g, sat_c[m_i])
            span_hi = np.full(g, sat_c[m_i])
            for ti in range(int(sat_ptr[m_i]), int(sat_ptr[m_i + 1])):
                s = sat_src[ti]
                w = sat_wts[ti]
                span_lo += w * np.maximum(lower[:, s], 0.0)
                span_hi += w * best[:, s]
            good = ((span_lo >= sat_lo[m_i] - sat_tol[m_i])
                    & (span_hi <= sat_hi[m_i] + sat_tol[m_i]))
            ok &= good | crossed_sat[:, m_i]
        return ok

    def certify(self, lvl: np.ndarray, t: float, ltol: float,
                crossed: np.ndarray,
                crossed_sat: np.ndarray) -> bool:
        """Scalar entry point over :meth:`certify_batch`."""
        return bool(self.certify_batch(
            lvl[None, :], np.array([t]), np.array([ltol]),
            crossed[None, :], crossed_sat[None, :])[0])

    def _violated(self, states: np.ndarray, ltol: float) -> np.ndarray:
        """Per-sample ``True`` where any switch condition holds."""
        return segkernel.violated_at(
            states, self.clamp_rows, self.cap_rows, self.cap_limits,
            self.debt_rows, np.full(states.shape[0], ltol), *self.sat)

    def crossing_marks(self, state_hi: np.ndarray, ltol: float
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """Which rows / saturation monitors violate at ``state_hi``."""
        crossed = np.zeros(state_hi.shape[0], dtype=bool)
        if self.clamp_rows.size:
            rows = self.clamp_rows
            crossed[rows[state_hi[rows] < -ltol]] = True
        if self.cap_rows.size:
            rows = self.cap_rows
            crossed[rows[state_hi[rows] > self.cap_limits]] = True
        if self.debt_rows.size:
            rows = self.debt_rows
            crossed[rows[state_hi[rows] > -ltol]] = True
        sat_ptr, sat_src, sat_wts, sat_c, sat_lo, sat_hi, sat_tol = self.sat
        crossed_sat = np.zeros(sat_c.shape[0], dtype=bool)
        for m_i in range(sat_c.shape[0]):
            y = sat_c[m_i]
            for ti in range(int(sat_ptr[m_i]), int(sat_ptr[m_i + 1])):
                y = y + sat_wts[ti] * state_hi[sat_src[ti]]
            if (y < sat_lo[m_i] - sat_tol[m_i]
                    or y > sat_hi[m_i] + sat_tol[m_i]):
                crossed_sat[m_i] = True
        return crossed, crossed_sat

    def crossing_marks_batch(self, state_hi: np.ndarray,
                             ltol: np.ndarray
                             ) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked :meth:`crossing_marks`: ``(g, n)`` states at once."""
        g = state_hi.shape[0]
        crossed = np.zeros(state_hi.shape, dtype=bool)
        if self.clamp_rows.size:
            rows = self.clamp_rows
            crossed[:, rows] |= state_hi[:, rows] < -ltol[:, None]
        if self.cap_rows.size:
            rows = self.cap_rows
            crossed[:, rows] |= state_hi[:, rows] > self.cap_limits
        if self.debt_rows.size:
            rows = self.debt_rows
            crossed[:, rows] |= state_hi[:, rows] > -ltol[:, None]
        sat_ptr, sat_src, sat_wts, sat_c, sat_lo, sat_hi, sat_tol = self.sat
        crossed_sat = np.zeros((g, sat_c.shape[0]), dtype=bool)
        for m_i in range(sat_c.shape[0]):
            y = np.full(g, sat_c[m_i])
            for ti in range(int(sat_ptr[m_i]), int(sat_ptr[m_i + 1])):
                y = y + sat_wts[ti] * state_hi[:, sat_src[ti]]
            crossed_sat[:, m_i] = ((y < sat_lo[m_i] - sat_tol[m_i])
                                   | (y > sat_hi[m_i] + sat_tol[m_i]))
        return crossed, crossed_sat

    def first_switch(self, lvl: np.ndarray, span: float, ltol: float
                     ) -> Optional[Tuple[float, np.ndarray, np.ndarray]]:
        """Earliest instant in ``(0, span]`` a switch condition fires.

        Samples the closed-form trajectory on a uniform grid (the scan
        itself runs in :mod:`repro.core.segkernel` — compiled when
        numba is available), then bisects the first violating bracket
        down to the propagator's resolution.  Returns ``(instant,
        crossing-row mask, crossing-monitor mask)``: the instant is
        the last *clean* time — integrating to it lands exactly on the
        regime boundary — and the masks mark the rows and saturation
        monitors violating just past it, which :meth:`certify`
        excludes from the segment's no-switch certificate (their
        switch *is* the boundary).  None means no sampled condition
        fires; the caller still certifies the whole interval before
        committing.
        """
        if not self.has_monitors:
            return None
        ts = np.linspace(span / EVENT_SAMPLES, span, EVENT_SAMPLES)
        first = int(segkernel.first_hits(
            self.system.states(lvl, ts)[None, :, :], self.clamp_rows,
            self.cap_rows, self.cap_limits, self.debt_rows,
            np.array([ltol]), *self.sat)[0])
        if first < 0:
            return None
        lo = 0.0 if first == 0 else float(ts[first - 1])
        hi = float(ts[first])
        floor = max(1e-12 * span, 1e-15)
        for _ in range(64):
            if hi - lo <= floor:
                break
            mid = 0.5 * (lo + hi)
            state = self.system.state_at(lvl, mid)
            if self._violated(state[None, :], ltol)[0]:
                hi = mid
            else:
                lo = mid
        crossed, crossed_sat = self.crossing_marks(
            self.system.state_at(lvl, hi), ltol)
        return lo, crossed, crossed_sat


class SpanTier:
    """Closed-form span execution over one compiled plan's topology."""

    def __init__(self, plan: "FlowPlan") -> None:
        self.plan = plan
        n = len(plan.reserves)
        self.const_in = np.zeros(n)
        self.const_out = np.zeros(n)
        self.prop_out = np.zeros(n)
        self.prop_sink_mask = np.zeros(n, dtype=bool)
        first_drain: Dict[int, int] = {}
        for j in range(len(plan.taps)):
            s, k, r = int(plan.src[j]), int(plan.snk[j]), plan.rate[j]
            if plan.const_mask[j]:
                self.const_out[s] += r
                self.const_in[k] += r
                first_drain.setdefault(s, j)
            else:
                self.prop_out[s] += r
                self.prop_sink_mask[k] = True
        #: Constant feeds that land *before* their sink's first
        #: constant drain in creation order: ``(sink, source, rate)``.
        #: Within every tick these deposit ahead of the drain, so —
        #: provided the feed's own source cannot clamp — they are
        #: guaranteed income the clamp bound may credit (the
        #: pass-through shapes: task-manager pools, relay junctions).
        self.early_feeds = [
            (int(plan.snk[j]), int(plan.src[j]), plan.rate[j])
            for j in range(len(plan.taps))
            if plan.const_mask[j]
            and j < first_drain.get(int(plan.snk[j]), len(plan.taps))]
        #: Per-reserve tap adjacency (index lists into the plan's tap
        #: arrays), precomputed once per tier: the segmented engine's
        #: regime derivation walks these per segment, and plans are
        #: immutable for the tier's lifetime.
        self.const_into: Dict[int, List[int]] = {}
        self.const_from: Dict[int, List[int]] = {}
        self.prop_into: Dict[int, List[int]] = {}
        self.prop_from: Dict[int, List[int]] = {}
        for j in range(len(plan.taps)):
            s, k = int(plan.src[j]), int(plan.snk[j])
            if plan.const_mask[j]:
                self.const_into.setdefault(k, []).append(j)
                self.const_from.setdefault(s, []).append(j)
            else:
                self.prop_into.setdefault(k, []).append(j)
                self.prop_from.setdefault(s, []).append(j)
        #: CSR tap adjacency for the compiled mode-derivation kernel
        #: (:func:`repro.core.segkernel.derive_modes`), built lazily
        #: from the dicts above in their exact iteration order.
        self._modes_csr: Optional[tuple] = None
        #: lam -> the coupled linear system at that decay constant.
        self._coupled: Dict[float, CoupledSystem] = {}
        #: (lam, mode bytes) -> cached :class:`_SegmentRegime` (the
        #: eigendecomposition amortizes across every segment that
        #: re-enters the same regime; persistent clamped regimes
        #: re-enter one per macro-step).
        self._regimes: Dict[Tuple[float, bytes], _SegmentRegime] = {}
        #: Telemetry: spans solved by each tier (diagnostics/tests).
        self.diagonal_solves = 0
        self.coupled_solves = 0
        self.segmented_solves = 0

    # -- shared refusal bounds ---------------------------------------------------

    def _clamp_safe_rows(self, lvl: np.ndarray, span: float,
                         f: np.ndarray, linear: np.ndarray
                         ) -> np.ndarray:
        """Per-row ``True`` iff no constant drain can clamp in the span.

        ``lvl`` is stacked ``(d, n)``.  First pass: ``L' >= -const_out
        - F*L`` (every inflow ignored) is monotone decreasing, so the
        span-end value of that lower-bound ODE bounds the whole
        trajectory.  Sound for coupled systems too: coupling only
        ever *adds* inflow.

        Reserves that fail the inflow-free bound get a refined pass:
        constant feeds that fire *before* the reserve's first drain
        within every tick (:attr:`early_feeds`), and whose own source
        is already proven clamp-free, are guaranteed income — the
        effective drain is only the deficit beyond them.  This is
        what admits pass-through shapes (a junction fed at 14 mW and
        drained at 14 mW sits at level ~0 forever, which the
        inflow-free bound can never clear) while staying exactly as
        sound: each iterate credits only feeds from reserves proven
        safe by the previous iterate, and tick execution delivers
        those deposits ahead of the drain by creation order.

        ``span`` may be a scalar (the whole stack shares one horizon)
        or a ``(d,)`` vector of per-row spans (the independent
        scheduler's heterogeneous-horizon cohorts); the bound is
        evaluated at each row's own span either way, bit-identically —
        a vector of equal spans multiplies out to the exact same
        products as the shared scalar.
        """
        d, n = lvl.shape
        const_out = self.const_out
        draining = const_out > 0.0
        if not draining.any():
            return np.ones(d, dtype=bool)
        spans = np.broadcast_to(np.asarray(span, dtype=float),
                                (d,))[:, None]
        per_f = np.divide(const_out, f, out=np.zeros(n), where=linear)
        decay_f = np.exp(-spans * f)
        lower = np.where(linear,
                         lvl * decay_f - per_f * (1.0 - decay_f),
                         lvl - const_out * spans)
        safe = (lower >= 0.0) | ~draining
        rows_ok = safe.all(axis=1)
        if rows_ok.all() or not self.early_feeds:
            return rows_ok
        for _ in range(3):
            guaranteed = np.zeros((d, n))
            for snk, src, rate in self.early_feeds:
                guaranteed[:, snk] += rate * safe[:, src]
            deficit = np.maximum(const_out - guaranteed, 0.0)
            per_f = np.divide(deficit, f, out=np.zeros((d, n)),
                              where=linear)
            lower = np.where(linear,
                             lvl * decay_f - per_f * (1.0 - decay_f),
                             lvl - deficit * spans)
            refined = (lower >= 0.0) | ~draining
            if (refined == safe).all():
                break
            safe = refined  # monotone: deficit only shrinks
        return safe.all(axis=1)

    def _clamp_bound_ok(self, lvl: np.ndarray, span: float,
                        f: np.ndarray, linear: np.ndarray) -> bool:
        """Scalar entry point over :meth:`_clamp_safe_rows`."""
        return bool(self._clamp_safe_rows(lvl[None, :], span, f,
                                          linear)[0])

    # -- entry point ---------------------------------------------------------------

    def execute(self, span: float) -> Optional[float]:
        """Integrate flows and decay over ``span`` seconds in one shot.

        Returns total tap flow, or None when no closed form applies
        (caller must tick instead); a None return mutates nothing.

        The single-regime tiers run first, verbatim (their arithmetic
        carries bit-identical contracts); whenever they would have
        refused — debt entry, a possible mid-span clamp, capacity
        pressure — the span falls through to the segmented engine,
        which integrates regime to regime across the switch instants
        and only refuses the residual shapes it cannot rewrite.
        """
        plan = self.plan
        n = len(plan.reserves)
        policy = plan.graph.decay_policy
        lam = policy.lam if policy.enabled else 0.0
        lvl = plan._gather_levels()
        if np.any(lvl < 0.0):
            # Debt entry: the max(L, 0) nonlinearity is itself a
            # regime — repayment segments instead of refusing.
            return self._execute_segmented(span, lam, lvl)
        f = self.prop_out + (lam if lam > 0.0 else 0.0) * plan.decay_mask
        linear = f > 0.0
        # Reserves whose drains read their level need constant inflow
        # for the *diagonal* solver; anything else is a coupled system.
        varying_in = self.prop_sink_mask.copy()
        if lam > 0.0 and plan.any_decayable:
            varying_in[plan.root_index] = True
        result: Optional[float] = None
        if np.any(linear & varying_in):
            result = self._execute_coupled(span, lam, lvl, f, linear)
        elif plan.finite_cap.size and np.any(
                (self.const_in[plan.finite_cap] > 0.0)
                | varying_in[plan.finite_cap]):
            result = None  # a capacity could bind: locate the instant
        elif not self._clamp_bound_ok(lvl, span, f, linear):
            result = None  # a drain could clamp: locate the instant
        else:
            result = self._execute_diagonal(span, lam, lvl, f, linear)
        if result is None:
            result = self._execute_segmented(span, lam, lvl)
        return result

    # -- the diagonal fast tier (PR 1's scalar closed form, verbatim) --------------

    def _execute_diagonal(self, span: float, lam: float, lvl: np.ndarray,
                          f: np.ndarray, linear: np.ndarray
                          ) -> Optional[float]:
        plan = self.plan
        n = len(plan.reserves)
        decay_f = np.exp(-f * span)  # == 1 exactly where F == 0
        net_const = self.const_in - self.const_out
        steady = np.divide(net_const, f, out=np.zeros(n), where=linear)
        end = np.where(linear, steady + (lvl - steady) * decay_f,
                       lvl + net_const * span)
        # Mass balance: everything a linear reserve lost to its
        # proportional drains and decay over the span.
        drain = np.where(linear, lvl - end + net_const * span, 0.0)
        drain = np.maximum(drain, 0.0)

        moved = np.zeros(len(plan.taps))
        if plan.const_taps.size:
            moved[plan.const_taps] = plan.rate[plan.const_taps] * span
        if plan.prop_taps.size:
            psrc = plan.src[plan.prop_taps]
            share = np.divide(plan.rate[plan.prop_taps], f[psrc],
                              out=np.zeros(plan.prop_taps.size),
                              where=f[psrc] > 0)
            moved[plan.prop_taps] = drain[psrc] * share
            end += np.bincount(plan.snk[plan.prop_taps],
                               weights=moved[plan.prop_taps], minlength=n)
        lost = np.zeros(n)
        reclaimed = 0.0
        if lam > 0.0 and plan.any_decayable:
            lost = np.where(linear & plan.decay_mask,
                            drain * np.divide(lam, f, out=np.zeros(n),
                                              where=linear), 0.0)
            reclaimed = float(lost.sum())
            end[plan.root_index] += reclaimed
        self.diagonal_solves += 1
        return self._commit(end, moved, lost, reclaimed)

    # -- the coupled tier (matrix exponential) --------------------------------------

    def _execute_coupled(self, span: float, lam: float, lvl: np.ndarray,
                         f: np.ndarray, linear: np.ndarray
                         ) -> Optional[float]:
        plan = self.plan
        n = len(plan.reserves)
        # Capacity pressure: bound each trajectory's maximum.  Since
        # mass is conserved and levels stay non-negative, every level
        # is bounded by the total mass; refining through
        # ``U <- lvl + span * (const_in + P_prop @ U)`` keeps a sound
        # pointwise bound at each iterate (inflow integrated at the
        # previous bound, outflow ignored), and the elementwise best
        # over a few iterates is tight enough for realistic headroom.
        if plan.finite_cap.size:
            cap_idx = plan.finite_cap
            mass = float(lvl.sum())  # all levels >= 0 here
            psrc = plan.src[plan.prop_taps]
            psnk = plan.snk[plan.prop_taps]
            prate = plan.rate[plan.prop_taps]
            best = np.full(n, mass)
            for _ in range(6):
                inflow = self.const_in.copy()
                if prate.size:
                    inflow += np.bincount(psnk, weights=prate * best[psrc],
                                          minlength=n)
                if lam > 0.0 and plan.any_decayable:
                    inflow[plan.root_index] += lam * float(
                        best[plan.decay_mask].sum())
                best = np.minimum(best, lvl + inflow * span)
            if np.any(best[cap_idx] > plan.capacity[cap_idx] - 1e-12):
                return None
        if not self._clamp_bound_ok(lvl, span, f, linear):
            return None

        system = self._coupled.get(lam)
        if system is None:
            system = CoupledSystem(self, lam)
            if len(self._coupled) > 4:  # decay toggles are rare
                self._coupled.clear()
            self._coupled[lam] = system
        integ = np.maximum(system.propagate(lvl, span)[1], 0.0)

        moved = np.zeros(len(plan.taps))
        if plan.const_taps.size:
            moved[plan.const_taps] = plan.rate[plan.const_taps] * span
        if plan.prop_taps.size:
            psrc = plan.src[plan.prop_taps]
            moved[plan.prop_taps] = plan.rate[plan.prop_taps] * integ[psrc]
        lost = np.zeros(n)
        reclaimed = 0.0
        if lam > 0.0 and plan.any_decayable:
            lost = np.where(plan.decay_mask, lam * integ, 0.0)
            reclaimed = float(lost.sum())
        # Commit levels by mass balance from the integrated flows, not
        # the ODE output: conservation is then exact by construction
        # (the two agree analytically; float-wise they differ in the
        # last ulps, and mass balance is the one the audits check).
        end = (lvl
               + np.bincount(plan.snk, weights=moved, minlength=n)
               - np.bincount(plan.src, weights=moved, minlength=n)
               - lost)
        end[plan.root_index] += reclaimed
        neg = np.minimum(end, 0.0)
        if float(neg.sum()) < -NEGATIVE_LEVEL_SLACK:
            return None  # bounds should preclude this; never guess
        if neg.any():
            # Float dust on near-empty reserves: clamp to zero and let
            # the root absorb the difference so the books still balance.
            end -= neg
            end[plan.root_index] += float(neg.sum())
        self.coupled_solves += 1
        return self._commit(end, moved, lost, reclaimed)

    # -- the segmented engine (piecewise-linear regime switching) ------------------

    def _execute_segmented(self, span: float, lam: float,
                           lvl: np.ndarray) -> Optional[float]:
        """Integrate a span as a chain of linear-regime segments.

        Every regime change — a constant drain clamping on an emptied
        reserve, a finite capacity binding, a debt level crossing zero
        — happens at one locatable instant; between two instants the
        dynamics are plain ``L' = A L + b`` for the regime's reduced
        system.  The loop derives the regime from the working levels,
        locates the earliest switch, integrates exactly to it, and
        repeats on the rewritten system until the span is consumed.

        Everything is *staged*: per-segment flows, decay losses and the
        working levels accumulate on copies, and only a fully solved
        chain commits (by mass balance, so conservation stays exact no
        matter how many segments the span crossed).  A None return —
        an unsupported regime, an unlocatable or sub-resolution switch,
        or a chain past :data:`MAX_SEGMENTS` — mutates nothing and the
        caller ticks, which is always correct.
        """
        plan = self.plan
        n = len(plan.reserves)
        m = len(plan.taps)
        root = plan.root_index
        lvl = lvl.copy()  # staged: the caller's gather stays pristine
        ltol = float(_level_tolerance(lvl, root))
        def absorb_dust() -> None:
            # Float dust from a located crossing: clamp to zero and
            # let the root absorb the difference (same book-balancing
            # the coupled tier applies to span-end dust).
            dust = (lvl < 0.0) & (lvl >= -4.0 * ltol)
            if dust.any():
                lvl[root] += float(lvl[dust].sum())
                lvl[dust] = 0.0

        moved = np.zeros(m)
        lost = np.zeros(n)
        reclaimed = 0.0
        remaining = float(span)
        segments = 0
        min_seg = max(1e-12, 1e-10 * span)
        locate_wall = 0.0
        integrate_wall = 0.0
        while remaining > 1e-9 * span:
            if segments >= MAX_SEGMENTS:
                return None
            absorb_dust()
            regime = self._regime_for(lvl, lam, ltol)
            if regime is None:
                return None
            t0 = perf_counter()
            # Certify-first fast path: most segments are quiet (no
            # switch inside them), and for those the no-switch
            # certificate alone is enough — the 96-sample scan never
            # needs to run.  Debt repayments are the one monitor the
            # certificate does not cover, but a purely constant-fed
            # debt row is linear (``L = L0 + b t``), so its crossing
            # is analytic; the candidate boundary is the earliest
            # such crossing (or the span end) and the certificate
            # rules out every clamp/cap/saturation switch before it.
            seg = None
            if not regime.debt_rows.size or bool(regime.debt_linear.all()):
                t_cand = remaining
                for r_i in range(regime.debt_rows.shape[0]):
                    slope = float(regime.debt_slope[r_i])
                    if slope > 0.0:
                        row = int(regime.debt_rows[r_i])
                        t_star = (-ltol - lvl[row]) / slope
                        if t_star < t_cand:
                            t_cand = t_star
                crossed = np.zeros(n, dtype=bool)
                if t_cand < remaining:
                    for r_i in range(regime.debt_rows.shape[0]):
                        slope = float(regime.debt_slope[r_i])
                        if slope <= 0.0:
                            continue
                        row = int(regime.debt_rows[r_i])
                        if ((-ltol - lvl[row]) / slope
                                <= t_cand * (1.0 + 1e-12)):
                            crossed[row] = True
                crossed_sat = np.zeros(regime.sat[3].shape[0],
                                       dtype=bool)
                if t_cand >= min_seg and regime.certify(
                        lvl, t_cand, ltol, crossed, crossed_sat):
                    seg = (t_cand, crossed, crossed_sat,
                           t_cand < remaining)
            if seg is None:
                switch = regime.first_switch(lvl, remaining, ltol)
                if switch is None:
                    seg = (remaining, np.zeros(n, dtype=bool),
                           np.zeros(regime.sat[3].shape[0],
                                    dtype=bool), False)
                else:
                    seg = (switch[0], switch[1], switch[2], True)
                if seg[0] < min_seg:
                    return None  # coincident events: no progress
                if not regime.certify(lvl, seg[0], ltol, seg[1],
                                      seg[2]):
                    return None  # sub-sample excursion not ruled out
            seg_span, crossed, crossed_sat, located = seg
            locate_wall += perf_counter() - t0
            t0 = perf_counter()
            step = self._integrate_segment(regime, lvl, seg_span, lam)
            integrate_wall += perf_counter() - t0
            if step is None:
                return None
            lvl, seg_moved, seg_lost, seg_reclaimed = step
            moved += seg_moved
            lost += seg_lost
            reclaimed += seg_reclaimed
            segments += 1
            remaining = remaining - seg_span if located else 0.0
        if segments == 0:
            return 0.0
        absorb_dust()
        graph = plan.graph
        graph.span_segments += segments
        graph.span_switches += segments - 1
        graph.span_locate_wall_s += locate_wall
        graph.span_integrate_wall_s += integrate_wall
        self.segmented_solves += 1
        return self._commit(lvl, moved, lost, reclaimed)

    def _regime_for(self, lvl: np.ndarray, lam: float,
                    ltol: float) -> Optional[_SegmentRegime]:
        """The cached regime for the current levels (or None).

        The key covers the whole derived spec, not just the mode
        vector: hover pins and forwarded allocations fold *levels*
        into effective rates, so two visits to the same mode vector
        can still be different linear systems.  The common regimes
        (no pins, or pins with purely rate-derived allocations) hash
        to stable keys and hit every re-entry.
        """
        derived = self._derive_modes(lvl, lam, ltol)
        if derived is None:
            return None
        mode, eff, hov, pin_loss, fwd = derived
        key = (lam, mode.tobytes(), eff.tobytes(), hov.tobytes(),
               pin_loss.tobytes(), fwd)
        regime = self._regimes.get(key)
        if regime is None:
            regime = self._build_regime(mode, eff, hov, pin_loss, fwd,
                                        lam)
            if len(self._regimes) > 16:  # regime-churn safety valve
                self._regimes.clear()
            self._regimes[key] = regime
        return regime

    def _modes_csr_pack(self) -> tuple:
        """CSR adjacency + typed scalars for the mode kernel."""
        pack = self._modes_csr
        if pack is None:
            plan = self.plan
            n = len(plan.reserves)

            def csr(adj: Dict[int, List[int]]
                    ) -> Tuple[np.ndarray, np.ndarray]:
                ptr = np.zeros(n + 1, dtype=np.int64)
                idx: List[int] = []
                for i in range(n):
                    entries = adj.get(i, ())
                    ptr[i + 1] = ptr[i] + len(entries)
                    idx.extend(entries)
                return ptr, np.asarray(idx, dtype=np.int64)

            pack = (np.asarray(plan.finite_cap, dtype=np.int64),
                    np.asarray(plan.src, dtype=np.int64),
                    np.asarray(plan.snk, dtype=np.int64),
                    *csr(self.const_into), *csr(self.const_from),
                    *csr(self.prop_into), *csr(self.prop_from))
            self._modes_csr = pack
        return pack

    def _derive_modes(self, lvl: np.ndarray, lam: float, ltol: float
                      ) -> Optional[Tuple[np.ndarray, np.ndarray,
                                          np.ndarray, np.ndarray, tuple]]:
        """Classify every reserve into its regime mode, or None.

        The common case — debt marks, FULL capacity pins, no hover,
        no empty-pin fixpoint — runs through the compiled kernel
        (:func:`repro.core.segkernel.derive_modes`; numpy fallback
        when numba is absent), which fills the mode and effective-rate
        arrays bit-identically to :meth:`_derive_modes_full` and
        punts back to it for every richer regime.
        """
        plan = self.plan
        finite_cap, src64, snk64, ci_ptr, ci_idx, cf_ptr, cf_idx, \
            pi_ptr, pi_idx, pf_ptr, pf_idx = self._modes_csr_pack()
        n = len(plan.reserves)
        m = len(plan.taps)
        mode = np.empty(n, dtype=np.int8)
        eff = np.empty(m)
        status = segkernel.derive_modes(
            lvl, float(lam), float(ltol), SAT_RTOL, plan.rate,
            plan.const_mask, plan.capacity, src64, snk64, finite_cap,
            plan.decay_mask, bool(plan.any_decayable),
            int(plan.root_index), ci_ptr, ci_idx, cf_ptr, cf_idx,
            pi_ptr, pi_idx, pf_ptr, pf_idx, mode, eff)
        if status == 0:
            return mode, eff, np.zeros(m), np.zeros(n), ()
        return self._derive_modes_full(lvl, lam, ltol)

    def _derive_modes_full(self, lvl: np.ndarray, lam: float,
                           ltol: float
                           ) -> Optional[Tuple[np.ndarray, np.ndarray,
                                               np.ndarray, np.ndarray,
                                               tuple]]:
        """Classify every reserve into its regime mode, or None.

        Modes: NORMAL (full linear row), DEBT (level below zero —
        outflows and decay off, inflow repays), EMPTY (pinned at zero,
        inflow passed through to its constant drains in creation
        order), FULL (pinned at capacity, inflow rejected at the taps
        — the energy stays in the sources), HOVER (pinned at the cap
        while draining — outflows run at full rate served from the
        inflow, and the deposit taps accept only what the steady
        per-tick cycle's headroom admits).

        Returns ``(mode, eff, hov, pin_loss, fwd)``: ``eff`` is the
        per-tap effective constant rate under the modes (pass-through
        and hover-acceptance distributions folded in), ``hov`` the
        constant effective rate of each proportional drain leaving a
        hovering reserve (``rate * pinned level``), ``pin_loss`` the
        per-reserve constant decay loss of a pinned-at-cap row, and
        ``fwd`` the forwarded pass-through entries ``(tap, cpart,
        sources, weights, tol)`` — the marginal drain of an empty
        reserve fed by live proportional taps, carrying the affine
        remainder ``cpart + Σ wⱼ·Lⱼ(t)`` into its sink.  None marks
        the residual shapes with no supported rewrite; the caller
        refuses the span.
        """
        plan = self.plan
        n = len(plan.reserves)
        m = len(plan.taps)
        src = plan.src
        snk = plan.snk
        rate = plan.rate
        const = plan.const_mask
        cap = plan.capacity
        root = plan.root_index
        boundary = 4.0 * ltol
        mode = np.full(n, _NORMAL, dtype=np.int8)
        mode[lvl < 0.0] = _DEBT  # dust was clamped by the caller
        hov = np.zeros(m)
        pin_loss = np.zeros(n)
        hover_rows: List[int] = []

        const_into = self.const_into
        const_from = self.const_from
        prop_into = self.prop_into
        prop_from = self.prop_from

        # -- capacity pins: at the cap with live inflow --
        for i in plan.finite_cap:
            i = int(i)
            if mode[i] != _NORMAL:
                continue
            band = max(1e-9, 1e-11 * cap[i])
            if lvl[i] < cap[i] - 2.0 * band:
                continue
            c_in_rate = sum(rate[j] for j in const_into.get(i, ())
                            if mode[int(src[j])] != _DEBT)
            live_prop_in = any(mode[int(src[j])] == _NORMAL
                               for j in prop_into.get(i, ()))
            decay_in = (i == root and lam > 0.0 and plan.any_decayable)
            if c_in_rate <= 0.0 and not live_prop_in and not decay_in:
                continue  # nothing arrives: normal dynamics are exact
            drains = bool(const_from.get(i)) or bool(prop_from.get(i))
            decays = lam > 0.0 and bool(plan.decay_mask[i])
            if not drains and not decays:
                mode[i] = _FULL
                continue
            # Draining (or decaying) at the cap.  Constant inflow that
            # sustains the outflow pins the level — hover; otherwise
            # the level descends and normal dynamics are exact (the
            # descent-safe exclusion in _build_regime keeps the cap
            # monitor from re-firing inside the band).
            if live_prop_in:
                # Time-varying inflow into a binding capacity has no
                # constant rewrite; per-tick execution handles it.
                return None
            out_rate = sum(rate[j] for j in const_from.get(i, ()))
            out_rate += sum(rate[j] for j in prop_from.get(i, ())) * lvl[i]
            if decays:
                out_rate += lam * lvl[i]
            if c_in_rate >= out_rate * (1.0 - SAT_RTOL):
                mode[i] = _HOVER
                hover_rows.append(i)
                if decays:
                    pin_loss[i] = lam * lvl[i]

        # -- effective constant rates under the pins --
        eff = np.where(const, rate, 0.0)
        for j in range(m):
            if not const[j]:
                continue
            if mode[int(src[j])] == _DEBT or mode[int(snk[j])] == _FULL:
                eff[j] = 0.0

        # -- hover acceptance: the steady per-tick cycle --
        # At the pinned level every tick repeats the same pattern:
        # drains (and decay, at the very end of the tick) open
        # headroom, deposits consume it greedily in creation order,
        # and whatever survives the cycle is the carry the next tick
        # starts from.  The steady carry solves accepted(carry) ==
        # produced; accepted is monotone in the carry, so bisect.
        for i in hover_rows:
            taps_i = sorted(set(list(const_from.get(i, ()))
                                + list(prop_from.get(i, ()))
                                + list(const_into.get(i, ()))))
            for j in prop_from.get(i, ()):
                if mode[int(snk[j])] != _FULL:
                    hov[j] = rate[j] * lvl[i]
            produced = (sum(eff[j] for j in const_from.get(i, ()))
                        + sum(hov[j] for j in prop_from.get(i, ()))
                        + pin_loss[i])

            def _accepted(carry: float, i: int = i,
                          taps_i: List[int] = taps_i) -> float:
                h = carry
                took = 0.0
                for j in taps_i:
                    if int(src[j]) == i:
                        h += eff[j] if const[j] else hov[j]
                    elif eff[j] > 0.0:
                        a = min(eff[j], h)
                        took += a
                        h -= a
                return took

            hi_c = produced + sum(eff[j] for j in const_into.get(i, ()))
            lo_c = 0.0
            if _accepted(hi_c) < produced * (1.0 - SAT_RTOL):
                return None  # deposits cannot sustain the hover
            for _ in range(60):
                mid = 0.5 * (lo_c + hi_c)
                if _accepted(mid) >= produced:
                    hi_c = mid
                else:
                    lo_c = mid
            h = hi_c
            for j in taps_i:
                if int(src[j]) == i:
                    h += eff[j] if const[j] else hov[j]
                elif eff[j] > 0.0:
                    a = min(eff[j], h)
                    eff[j] = a
                    h -= a

        # -- empty pins: fixpoint over the pass-through distribution --
        # A reserve at zero whose constant drains outrun its inflow
        # sits pinned: each tick deposits arrive first (creation
        # order) and the drains clamp to them.  Effective drain rates
        # only shrink as upstream reserves pin, so the EMPTY set grows
        # monotonically and the loop settles within n passes.  Live
        # proportional inflow makes the pass-through time-varying: the
        # fully-fed prefix of drains still runs at nominal rate, and
        # one *marginal* drain carries the affine remainder (a ``fwd``
        # entry; its saturation monitor ends the segment if the
        # allocation pattern would change).
        fwd_map: Dict[int, tuple] = {}
        candidates = [i for i in range(n)
                      if i != root and mode[i] == _NORMAL
                      and lvl[i] <= boundary and const_from.get(i)]
        for _ in range(n + 2):
            changed = False
            for i in candidates:
                if mode[i] != _NORMAL and mode[i] != _EMPTY:
                    continue
                drains = [j for j in const_from.get(i, ())
                          if mode[int(snk[j])] != _FULL]
                out_rate = sum(rate[j] for j in drains)
                if out_rate <= 0.0:
                    continue
                c_in = sum(eff[j] for j in const_into.get(i, ()))
                c_in += sum(hov[j] for j in prop_into.get(i, ())
                            if mode[int(src[j])] == _HOVER)
                live_prop = [j for j in prop_into.get(i, ())
                             if mode[int(src[j])] == _NORMAL]
                p_in = sum(rate[j] * max(0.0, lvl[int(src[j])])
                           for j in live_prop)
                if c_in + p_in >= out_rate - 1e-15:
                    if mode[i] == _EMPTY:
                        mode[i] = _NORMAL
                        changed = True
                    if fwd_map.pop(i, None) is not None:
                        changed = True
                    for j in drains:
                        if eff[j] != rate[j]:
                            eff[j] = rate[j]
                            changed = True
                    continue
                if mode[i] != _EMPTY:
                    mode[i] = _EMPTY
                    changed = True
                if not live_prop:
                    if fwd_map.pop(i, None) is not None:
                        changed = True
                    remainder = c_in
                    for j in drains:
                        e = min(remainder, rate[j])
                        if eff[j] != e:
                            eff[j] = e
                            remainder -= e
                            changed = True
                        else:
                            remainder -= e
                    continue
                # Forwarded pass-through: prefix at nominal rate, one
                # marginal drain carries ``cpart + Σ w·L_src(t)``.
                if any(rate[j] > 0.0 for j in prop_from.get(i, ())):
                    # A proportional drain leaving the pinned row flows
                    # O(tick) in the reference loop (each tick's deposit
                    # lands before the drain reads the level), which no
                    # tick-size-independent closed form reproduces at
                    # figure tolerance.  Residual refusal.
                    return None
                i0 = c_in + p_in
                r_prev = 0.0
                marginal = -1
                for j in drains:
                    if marginal < 0 and r_prev + rate[j] <= i0:
                        if eff[j] != rate[j]:
                            eff[j] = rate[j]
                            changed = True
                        r_prev += rate[j]
                    else:
                        if marginal < 0:
                            marginal = j
                        if eff[j] != 0.0:
                            eff[j] = 0.0
                            changed = True
                srcs = tuple(int(src[j]) for j in live_prop)
                wts = tuple(float(rate[j]) for j in live_prop)
                tol = (SAT_RTOL * max(1.0, rate[marginal])
                       + 4.0 * ltol * sum(wts))
                entry = (int(marginal), float(c_in - r_prev), srcs,
                         wts, float(tol))
                if fwd_map.get(i) != entry:
                    fwd_map[i] = entry
                    changed = True
            if not changed:
                break
        else:
            return None  # pass-through cycle did not settle
        if mode[root] != _NORMAL:
            return None  # a non-normal battery has no rewrite

        # -- post-validation of the level-dependent pins --
        for j, cpart, srcs, wts, tol in fwd_map.values():
            if mode[int(snk[j])] != _NORMAL:
                return None  # forwarded-into-pinned cascade
            if any(mode[s] != _NORMAL for s in srcs):
                return None  # settled modes invalidated the forwarding
        for i in hover_rows:
            for j in const_into.get(i, ()):
                if eff[j] <= 0.0:
                    continue
                s = int(src[j])
                if mode[s] != _NORMAL or lvl[s] <= boundary:
                    return None  # acceptance split needs a firm source
            for j in (list(const_from.get(i, ()))
                      + list(prop_from.get(i, ()))):
                if mode[int(snk[j])] == _HOVER:
                    return None  # hover-to-hover adjacency
        return mode, eff, hov, pin_loss, tuple(
            sorted(fwd_map.values()))

    def _build_regime(self, mode: np.ndarray, eff: np.ndarray,
                      hov: np.ndarray, pin_loss: np.ndarray,
                      fwd: tuple, lam: float) -> _SegmentRegime:
        """Materialize the linear system and monitors for one regime."""
        plan = self.plan
        n = len(plan.reserves)
        m = len(plan.taps)
        src = plan.src
        snk = plan.snk
        rate = plan.rate
        const = plan.const_mask
        root = plan.root_index
        normal = mode == _NORMAL
        active_row = normal | (mode == _DEBT)

        # Proportional taps: a *live* tap (normal source, accepting
        # sink) drains its source; it also feeds its sink's row unless
        # the sink is pinned empty — then the energy passes through
        # the pin and re-enters via the forwarded entries below.
        prop_live = np.zeros(m, dtype=bool)
        prop_coupled = np.zeros(m, dtype=bool)
        for j in range(m):
            if const[j]:
                continue
            s_mode = mode[int(src[j])]
            k_mode = mode[int(snk[j])]
            if s_mode == _NORMAL and k_mode != _FULL:
                prop_live[j] = True
                if k_mode != _EMPTY:
                    prop_coupled[j] = True

        a = np.zeros((n, n))
        for j in np.flatnonzero(prop_live):
            s, f = int(src[j]), rate[j]
            a[s, s] -= f
            if prop_coupled[j]:
                a[int(snk[j]), s] += f
        decay_rows = np.array([], dtype=np.intp)
        if lam > 0.0 and plan.any_decayable:
            decay_rows = np.flatnonzero(normal & plan.decay_mask)
            if decay_rows.size:
                a[decay_rows, decay_rows] -= lam
                a[root, decay_rows] += lam
        b = np.zeros(n)
        in_eff = np.zeros(n)
        out_eff = np.zeros(n)
        for j in range(m):
            if not const[j] or eff[j] <= 0.0:
                continue
            s, k = int(src[j]), int(snk[j])
            out_eff[s] += eff[j]
            in_eff[k] += eff[j]
            if active_row[s]:
                b[s] -= eff[j]
            if active_row[k]:
                b[k] += eff[j]
        # Hover drains are constants at full rate (served from the
        # pinned reserve's inflow); the pinned decay loss routes to
        # the root like any other reclaim.
        hov_idx = np.flatnonzero(hov > 0.0)
        for j in hov_idx:
            k = int(snk[j])
            in_eff[k] += hov[j]
            if active_row[k]:
                b[k] += hov[j]
        pin_rows = np.flatnonzero(pin_loss > 0.0)
        if pin_rows.size:
            b[root] += float(pin_loss[pin_rows].sum())
        # Forwarded pass-through: the marginal drain's affine flow
        # enters its (normal) sink's row; its nominal rate is the
        # sink's sound inflow upper bound for the cap certificate.
        fwd_entries = []
        sat_ptr = [0]
        sat_src: List[int] = []
        sat_wts: List[float] = []
        sat_c: List[float] = []
        sat_lo: List[float] = []
        sat_hi: List[float] = []
        sat_tol: List[float] = []
        for j, cpart, srcs, wts, tol in fwd:
            k = int(snk[j])
            b[k] += cpart
            for s, w in zip(srcs, wts):
                a[k, s] += w
            in_eff[k] += rate[j]
            fwd_entries.append((int(j), float(cpart),
                               np.array(srcs, dtype=np.intp),
                               np.array(wts)))
            sat_src.extend(srcs)
            sat_wts.extend(wts)
            sat_ptr.append(len(sat_src))
            sat_c.append(float(cpart))
            sat_lo.append(0.0)
            sat_hi.append(float(rate[j]))
            sat_tol.append(float(tol))
        if sat_c:
            sat = (np.array(sat_ptr, dtype=np.int64),
                   np.array(sat_src, dtype=np.int64),
                   np.array(sat_wts), np.array(sat_c),
                   np.array(sat_lo), np.array(sat_hi),
                   np.array(sat_tol))
        else:
            sat = segkernel.EMPTY_SAT

        prop_in = np.zeros(n, dtype=bool)
        for j in np.flatnonzero(prop_coupled):
            prop_in[int(snk[j])] = True
        time_varying_in = prop_in.copy()
        for j, cpart, srcs, wts in fwd_entries:
            time_varying_in[int(snk[j])] = True
        if decay_rows.size:
            time_varying_in[root] = True
        clamp_rows = np.flatnonzero(normal & (out_eff > 0.0))
        has_in = (in_eff > 0.0) | prop_in
        if decay_rows.size:
            has_in[root] = True  # decay reclaim deposits into the root
        cap_mask = np.zeros(n, dtype=bool)
        cap_mask[plan.finite_cap] = True
        cap_rows = []
        cap_limits = []
        f_row = -np.diag(a).copy()
        for i in np.flatnonzero(normal & cap_mask & has_in):
            i = int(i)
            limit = plan.capacity[i] - max(1e-9, 1e-11 * plan.capacity[i])
            # Descent-safe exclusion: with purely constant inflow and
            # ``b <= f * limit`` the trajectory can never rise past
            # the limit from below (at the limit ``L' <= 0``), so the
            # monitor stays silent — this is what lets a reserve *at*
            # its cap with net outflow descend through the band
            # instead of refusing on an instant re-fire.
            if not time_varying_in[i] and b[i] <= f_row[i] * limit:
                continue
            cap_rows.append(i)
            cap_limits.append(limit)
        cap_rows = np.array(cap_rows, dtype=np.intp)
        cap_limits = np.array(cap_limits)
        debt_rows = np.flatnonzero((mode == _DEBT)
                                   & ((b > 0.0) | prop_in))
        debt_slope = b[debt_rows]
        debt_linear = ~prop_in[debt_rows]
        # Certificate inputs (see _SegmentRegime.certify): per-row net
        # linear decay rate, constant-inflow edges for the safe-source
        # credit iteration, and the proportional edges of the cap
        # upper bound.  Hover drains join the credit edges — their
        # pinned source is always safe and their flow is constant.
        const_idx = np.flatnonzero(const & (eff > 0.0))
        prop_idx = np.flatnonzero(prop_live)
        cp_idx = np.concatenate([const_idx, hov_idx])
        cin_eff = np.concatenate([eff[const_idx], hov[hov_idx]])
        # Root is assumed never to run dry (the same assumption every
        # replay path makes); pinned rows pass through constants; rows
        # without constant drains have nothing to clamp.
        always_safe = ~normal | (out_eff <= 0.0)
        always_safe[root] = True
        return _SegmentRegime(
            mode=mode, eff=eff,
            const_idx=const_idx,
            prop_idx=prop_idx,
            decay_rows=decay_rows,
            system=_SegmentPropagator(a, b),
            clamp_rows=clamp_rows, cap_rows=cap_rows,
            cap_limits=cap_limits, debt_rows=debt_rows,
            debt_slope=debt_slope, debt_linear=debt_linear,
            lam=lam, root=root, out_eff=out_eff, in_eff=in_eff,
            f_row=f_row, always_safe=always_safe,
            cin_snk=snk[cp_idx], cin_src=src[cp_idx],
            cin_eff=cin_eff,
            psrc=src[prop_idx][prop_coupled[prop_idx]],
            psnk=snk[prop_idx][prop_coupled[prop_idx]],
            prate=rate[prop_idx][prop_coupled[prop_idx]],
            hov_idx=hov_idx, hov_rate=hov[hov_idx],
            pin_rows=pin_rows, pin_rates=pin_loss[pin_rows],
            fwd=tuple(fwd_entries), sat=sat,
            has_monitors=bool(clamp_rows.size or cap_rows.size
                              or debt_rows.size or sat[3].size))

    def _integrate_segment(self, regime: _SegmentRegime, lvl: np.ndarray,
                           t: float, lam: float) -> Optional[Tuple]:
        """One segment's exact flows; staged, mutates nothing."""
        plan = self.plan
        n = len(plan.reserves)
        integ = np.maximum(regime.system.propagate(lvl, t)[1], 0.0)
        moved = np.zeros(len(plan.taps))
        if regime.const_idx.size:
            moved[regime.const_idx] = regime.eff[regime.const_idx] * t
        if regime.prop_idx.size:
            psrc = plan.src[regime.prop_idx]
            moved[regime.prop_idx] = plan.rate[regime.prop_idx] * integ[psrc]
        if regime.hov_idx.size:
            moved[regime.hov_idx] = regime.hov_rate * t
        for j, cpart, fsrc, fwts in regime.fwd:
            moved[j] = cpart * t + float(fwts @ integ[fsrc])
        lost = np.zeros(n)
        reclaimed = 0.0
        if lam > 0.0 and regime.decay_rows.size:
            lost[regime.decay_rows] = lam * integ[regime.decay_rows]
        if regime.pin_rows.size:
            lost[regime.pin_rows] = regime.pin_rates * t
        if lost.any():
            reclaimed = float(lost.sum())
        end = (lvl
               + np.bincount(plan.snk, weights=moved, minlength=n)
               - np.bincount(plan.src, weights=moved, minlength=n)
               - lost)
        end[plan.root_index] += reclaimed
        neg = np.minimum(end, 0.0)
        neg[regime.mode == _DEBT] = 0.0  # still-repaying rows stay negative
        if float(neg.sum()) < -NEGATIVE_LEVEL_SLACK:
            return None  # the located switch should preclude this
        return end, moved, lost, reclaimed

    # -- batched entry points (cohort fleets) -----------------------------------------

    def batch_clamp_ok(self, lvl: np.ndarray, span: float,
                       f: np.ndarray, linear: np.ndarray) -> np.ndarray:
        """Per-row :meth:`_clamp_safe_rows` over stacked levels."""
        return self._clamp_safe_rows(lvl, span, f, linear)

    # -- shared commit ---------------------------------------------------------------

    def _commit(self, end: np.ndarray, moved: np.ndarray,
                lost: np.ndarray, reclaimed: float) -> float:
        plan = self.plan
        n = len(plan.reserves)
        in_sum = np.bincount(plan.snk, weights=moved, minlength=n)
        out_sum = np.bincount(plan.src, weights=moved, minlength=n)
        for reserve, lv, o, i_, ls in zip(plan.reserves, end.tolist(),
                                          out_sum.tolist(), in_sum.tolist(),
                                          lost.tolist()):
            reserve._level = lv
            if o:
                reserve.total_transferred_out += o
            if i_:
                reserve.total_transferred_in += i_
            if ls:
                reserve.total_decayed += ls
        if reclaimed:
            plan.graph.root.total_deposited += reclaimed
            plan.graph.decay_policy.total_reclaimed += reclaimed
        if plan.owns_slots:
            plan._tap_flow_acc += moved
        else:
            # Span-cache plans never own the taps' accumulator slots
            # (the tick plan does); fold flows straight into the taps.
            for j in np.flatnonzero(moved):
                tap = plan.taps[j]
                tap.total_flowed = tap.total_flowed + moved[j]
        return float(moved.sum())


# ---------------------------------------------------------------------------
# cohort-batched span execution (fleets of structurally identical graphs)
# ---------------------------------------------------------------------------


def _flat_indices(plan: "FlowPlan", d: int
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(flat_src, flat_snk, row_base)`` for a ``d``-device stack.

    Cached on the lead plan (plans die with their topology epoch, so
    the cache cannot go stale); rebuilding these index arrays per
    span was a measurable share of small-cohort call overhead.
    """
    cache = getattr(plan, "_span_flat", None)
    if cache is not None and cache[0] == d:
        return cache[1], cache[2], cache[3]
    n = len(plan.reserves)
    row_base = (np.arange(d) * n)[:, None]
    flat_src = (row_base + plan.src).ravel()
    flat_snk = (row_base + plan.snk).ravel()
    plan._span_flat = (d, flat_src, flat_snk, row_base)
    return flat_src, flat_snk, row_base


def _commit_rows(tiers: List[SpanTier], ok: np.ndarray, end: np.ndarray,
                 moved: np.ndarray, lost: np.ndarray,
                 reclaimed: np.ndarray, in_sum: np.ndarray,
                 out_sum: np.ndarray,
                 results: List[Optional[float]]) -> None:
    """Commit a stacked solve device by device (bulk conversions).

    The bookkeeping is exactly :meth:`SpanTier._commit` per row; the
    whole-stack ``tolist`` conversions replace thousands of per-device
    numpy round-trips — at fleet scale the conversion overhead was a
    visible fraction of the solve.
    """
    end_l = end.tolist()
    in_l = in_sum.tolist()
    out_l = out_sum.tolist()
    lost_l = lost.tolist()
    moved_totals = moved.sum(axis=1).tolist()
    for i, tier in enumerate(tiers):
        if not ok[i]:
            continue
        plan = tier.plan
        for reserve, lv, o, i_, ls in zip(plan.reserves, end_l[i],
                                          out_l[i], in_l[i], lost_l[i]):
            reserve._level = lv
            if o:
                reserve.total_transferred_out += o
            if i_:
                reserve.total_transferred_in += i_
            if ls:
                reserve.total_decayed += ls
        rec = float(reclaimed[i])
        if rec:
            plan.graph.root.total_deposited += rec
            plan.graph.decay_policy.total_reclaimed += rec
        row = moved[i]
        if plan.owns_slots:
            plan._tap_flow_acc += row
        else:
            # Span-cache plans never own the taps' accumulator slots
            # (the tick plan does); fold flows straight into the taps.
            for j in np.flatnonzero(row):
                tap = plan.taps[j]
                tap.total_flowed = tap.total_flowed + row[j]
        results[i] = moved_totals[i]


def execute_span_batch(tiers: List[SpanTier],
                       span) -> List[Optional[float]]:
    """Solve one event-free span for a whole cohort in one stacked call.

    ``tiers`` belong to plans that share a
    :attr:`~repro.core.flowplan.FlowPlan.signature` and whose graphs
    run the same decay constant (the fleet batcher groups by both), so
    the continuous dynamics ``L' = A·L + b`` are literally the same
    system over different initial conditions.  ``span`` is either one
    shared horizon or a ``(n_devices,)`` vector of **per-device**
    horizons (the frontier scheduler's event-time buckets): devices at
    different clocks still share one eigendecomposition and one
    stacked switch-location scan, because every propagation formula
    is elementwise in ``t`` — only the dense Padé fallback keys a
    propagator per span value and solves
    per-span sub-stacks.  A vector of equal spans is bit-identical to
    the scalar call.  Levels stack into one ``(n_devices,
    n_reserves)`` array:

    * the **diagonal** tier runs PR 1's scalar closed form elementwise
      across the stack — bit-identical per device to the per-device
      solve, since every operation is elementwise or a per-row
      bincount in the same order;
    * the **coupled** tier reuses a *single* eigendecomposition (or
      Padé propagator) from the lead tier's cached
      :class:`CoupledSystem` across the cohort's stacked ``L0`` — one
      factorization and a couple of matrix-matrix products instead of
      ``n_devices`` separate solves.  Levels commit by per-device mass
      balance, so conservation stays exact regardless of how the
      stacked linear algebra rounded.

    Switching devices (mid-span clamp, capacity pressure, debt entry)
    are no longer demoted wholesale: they collect into a **batched
    segment chain** (:func:`_batch_segmented`) that runs the scalar
    segmented engine's pipeline over the whole switching sub-cohort at
    once, with per-device segment clocks.  Only genuinely unsupported
    shapes come back ``None`` — nothing of those devices mutated — and
    the caller falls back to the scalar path (which may itself refuse
    into ticking), exactly as before.
    """
    lead = tiers[0]
    plan = lead.plan
    d = len(tiers)
    n = len(plan.reserves)
    policy = plan.graph.decay_policy
    lam = policy.lam if policy.enabled else 0.0
    spans = np.broadcast_to(np.asarray(span, dtype=float), (d,))
    spans_c = spans[:, None]
    lvl = np.empty((d, n))
    for i, tier in enumerate(tiers):
        lvl[i] = tier.plan._gather_levels()
    results: List[Optional[float]] = [None] * d
    seg = np.any(lvl < 0.0, axis=1)  # debt entry: a regime, not a refusal
    ok = ~seg
    f = lead.prop_out + (lam if lam > 0.0 else 0.0) * plan.decay_mask
    linear = f > 0.0
    varying_in = lead.prop_sink_mask.copy()
    if lam > 0.0 and plan.any_decayable:
        varying_in[plan.root_index] = True
    coupled = bool(np.any(linear & varying_in))
    if not coupled:
        # A capacity that can bind has no single-regime closed form;
        # this is a topology property, so every device runs the
        # segment chain (which certifies or locates the binding).
        if plan.finite_cap.size:
            cap_idx = plan.finite_cap
            gets_inflow = (lead.const_in[cap_idx] > 0.0) | varying_in[cap_idx]
            if np.any(gets_inflow):
                seg |= ok
                ok[:] = False
        if ok.any():
            clamp_ok = lead.batch_clamp_ok(lvl, spans, f, linear)
            seg |= ok & ~clamp_ok
            ok &= clamp_ok
        if ok.any():
            _batch_diagonal(tiers, spans, lam, lvl, f, linear, ok, results)
        if seg.any():
            _batch_segmented(tiers, spans, lam, lvl,
                             np.flatnonzero(seg), results)
        return results

    # -- coupled cohort --------------------------------------------------------
    if plan.finite_cap.size and ok.any():
        cap_idx = plan.finite_cap
        mass = np.maximum(lvl, 0.0).sum(axis=1)
        psrc = plan.src[plan.prop_taps]
        psnk = plan.snk[plan.prop_taps]
        prate = plan.rate[plan.prop_taps]
        best = np.repeat(mass[:, None], n, axis=1)
        row_base = _flat_indices(plan, d)[2]
        for _ in range(6):
            inflow = np.broadcast_to(lead.const_in, (d, n)).copy()
            if prate.size:
                flat = (row_base + psnk).ravel()
                inflow += np.bincount(
                    flat, weights=(prate * best[:, psrc]).ravel(),
                    minlength=d * n).reshape(d, n)
            if lam > 0.0 and plan.any_decayable:
                inflow[:, plan.root_index] += lam * best[
                    :, plan.decay_mask].sum(axis=1)
            best = np.minimum(best, lvl + inflow * spans_c)
        cap_ok = ~np.any(best[:, cap_idx] > plan.capacity[cap_idx] - 1e-12,
                         axis=1)
        seg |= ok & ~cap_ok
        ok &= cap_ok
    if ok.any():
        clamp_ok = lead.batch_clamp_ok(lvl, spans, f, linear)
        seg |= ok & ~clamp_ok
        ok &= clamp_ok
    if not ok.any():
        if seg.any():
            _batch_segmented(tiers, spans, lam, lvl,
                             np.flatnonzero(seg), results)
        return results

    system = lead._coupled.get(lam)
    if system is None:
        system = CoupledSystem(lead, lam)
        if len(lead._coupled) > 4:  # decay toggles are rare
            lead._coupled.clear()
        lead._coupled[lam] = system
    if system.eig is not None:
        w, v, vinv = system.eig
        c0 = lvl @ vinv.T            # (d, n) in the eigenbasis
        cb = vinv @ system.b
        z = spans_c * w              # (d, n): per-row horizons
        _, p1, p2 = _phi12(z)
        integ = ((spans_c * (p1 * c0)
                  + (spans_c * spans_c) * (p2 * cb)) @ v.T).real
    else:
        # The dense path has no elementwise-in-t form: one Padé
        # propagator serves one span value, so heterogeneous-horizon
        # stacks solve per span value (cohort buckets rarely carry
        # more than a handful).
        state = np.concatenate(
            [lvl, np.ones((d, 1)), np.zeros((d, n))], axis=1)
        integ = np.empty((d, n))
        for s_val in np.unique(spans):
            s_val = float(s_val)
            propagator = system._dense_cache.get(s_val)
            if propagator is None:
                propagator = _expm(_augmented(system.a, system.b) * s_val)
                if len(system._dense_cache) > 32:
                    system._dense_cache.clear()
                system._dense_cache[s_val] = propagator
            rows = spans == s_val
            integ[rows] = (state[rows] @ propagator.T)[:, n + 1:]
    integ = np.maximum(integ, 0.0)

    m = len(plan.taps)
    moved = np.zeros((d, m))
    if plan.const_taps.size:
        moved[:, plan.const_taps] = plan.rate[plan.const_taps] * spans_c
    if plan.prop_taps.size:
        psrc = plan.src[plan.prop_taps]
        moved[:, plan.prop_taps] = plan.rate[plan.prop_taps] * integ[:, psrc]
    lost = np.zeros((d, n))
    reclaimed = np.zeros(d)
    if lam > 0.0 and plan.any_decayable:
        lost = np.where(plan.decay_mask, lam * integ, 0.0)
        reclaimed = lost.sum(axis=1)
    flat_src, flat_snk, _ = _flat_indices(plan, d)
    in_sum = np.bincount(flat_snk, weights=moved.ravel(),
                         minlength=d * n).reshape(d, n)
    out_sum = np.bincount(flat_src, weights=moved.ravel(),
                          minlength=d * n).reshape(d, n)
    end = lvl + in_sum - out_sum - lost
    end[:, plan.root_index] += reclaimed
    neg = np.minimum(end, 0.0)
    neg_rows = neg.sum(axis=1)
    neg_bad = neg_rows < -NEGATIVE_LEVEL_SLACK
    seg |= ok & neg_bad
    ok &= ~neg_bad
    dusty = neg.any(axis=1) & ok
    if dusty.any():
        # Float dust on near-empty reserves: clamp to zero and let the
        # root absorb the difference so the books still balance.
        end[dusty] -= neg[dusty]
        end[dusty, plan.root_index] += neg_rows[dusty]
    for i, tier in enumerate(tiers):
        if ok[i]:
            tier.coupled_solves += 1
    _commit_rows(tiers, ok, end, moved, lost, reclaimed, in_sum, out_sum,
                 results)
    if seg.any():
        _batch_segmented(tiers, spans, lam, lvl, np.flatnonzero(seg),
                         results)
    return results


def _batch_diagonal(tiers: List[SpanTier], span, lam: float,
                    lvl: np.ndarray, f: np.ndarray, linear: np.ndarray,
                    ok: np.ndarray, results: List[Optional[float]]) -> None:
    """The diagonal fast tier across stacked levels (elementwise).

    ``span`` is a shared scalar or per-row ``(d,)`` horizons — the
    closed form is elementwise in both the levels and the span, so
    heterogeneous horizons ride the identical expressions.
    """
    lead = tiers[0]
    plan = lead.plan
    d, n = lvl.shape
    spans_c = np.broadcast_to(np.asarray(span, dtype=float), (d,))[:, None]
    decay_f = np.exp(-spans_c * f)  # == 1 exactly where F == 0
    net_const = lead.const_in - lead.const_out
    steady = np.divide(net_const, f, out=np.zeros(n), where=linear)
    end = np.where(linear, steady + (lvl - steady) * decay_f,
                   lvl + net_const * spans_c)
    drain = np.where(linear, lvl - end + net_const * spans_c, 0.0)
    drain = np.maximum(drain, 0.0)

    m = len(plan.taps)
    moved = np.zeros((d, m))
    if plan.const_taps.size:
        moved[:, plan.const_taps] = plan.rate[plan.const_taps] * spans_c
    if plan.prop_taps.size:
        psrc = plan.src[plan.prop_taps]
        share = np.divide(plan.rate[plan.prop_taps], f[psrc],
                          out=np.zeros(plan.prop_taps.size),
                          where=f[psrc] > 0)
        moved[:, plan.prop_taps] = drain[:, psrc] * share
        flat = (_flat_indices(plan, d)[2]
                + plan.snk[plan.prop_taps]).ravel()
        end += np.bincount(flat, weights=moved[:, plan.prop_taps].ravel(),
                           minlength=d * n).reshape(d, n)
    lost = np.zeros((d, n))
    reclaimed = np.zeros(d)
    if lam > 0.0 and plan.any_decayable:
        lost = np.where(linear & plan.decay_mask,
                        drain * np.divide(lam, f, out=np.zeros(n),
                                          where=linear), 0.0)
        reclaimed = lost.sum(axis=1)
        end[:, plan.root_index] += reclaimed
    flat_src, flat_snk, _ = _flat_indices(plan, d)
    in_sum = np.bincount(flat_snk, weights=moved.ravel(),
                         minlength=d * n).reshape(d, n)
    out_sum = np.bincount(flat_src, weights=moved.ravel(),
                          minlength=d * n).reshape(d, n)
    for i, tier in enumerate(tiers):
        if ok[i]:
            tier.diagonal_solves += 1
    _commit_rows(tiers, ok, end, moved, lost, reclaimed, in_sum, out_sum,
                 results)


def _batch_segmented(tiers: List[SpanTier], span, lam: float,
                     lvl: np.ndarray, idx: np.ndarray,
                     results: List[Optional[float]]) -> None:
    """Stacked segment-chain solve for a cohort's switching devices.

    ``span`` is a shared scalar or a full-stack ``(n_devices,)``
    vector of per-device horizons (indexed by ``idx`` like ``lvl``):
    every device already carries its own remaining-span clock through
    the chain, so heterogeneous starting horizons only change each
    clock's starting value and the per-device segment-resolution
    thresholds derived from it.

    Runs the scalar segmented loop's exact pipeline — dust absorption,
    regime derivation, the certify-first fast path, sampled switch
    location with bisection, staged mass-balance integration — over a
    ``(devices, reserves)`` stack.  Devices switch at different
    instants, so each carries its own remaining-span clock and segment
    count; every round groups the still-active devices by their
    *derived regime* (cached on the lead tier, so one shared
    eigendecomposition serves every device in the same regime) and
    advances each group to its members' next switches in one stacked
    sample/bisect/integrate pass.

    Per-device drop-out covers only the genuinely unsupported shapes —
    an underivable regime, a dense (Padé) regime propagator, a failed
    no-switch certificate, a sub-resolution segment, or a chain past
    :data:`MAX_SEGMENTS`.  A dropped device's ``results`` entry stays
    ``None`` with nothing mutated: the caller's scalar path (which may
    itself refuse into ticking) takes over, identical to before.

    Stacked arithmetic reorders a handful of float operations relative
    to the scalar engine (matrix-matrix instead of matrix-vector
    products), so batched results agree with the scalar segmented
    reference to documented ulp tolerance rather than bit-identically;
    the parity suite pins that contract.
    """
    lead = tiers[0]
    plan = lead.plan
    n = len(plan.reserves)
    m = len(plan.taps)
    root = plan.root_index
    g = idx.size
    work = lvl[idx].copy()
    ltol = _level_tolerance(work, root)
    acc_moved = np.zeros((g, m))
    acc_lost = np.zeros((g, n))
    acc_rec = np.zeros(g)
    rem0 = np.broadcast_to(np.asarray(span, dtype=float),
                           (lvl.shape[0],))[idx]
    remaining = rem0.copy()
    segments = np.zeros(g, dtype=np.int64)
    alive = np.ones(g, dtype=bool)
    min_seg = np.maximum(1e-12, 1e-10 * rem0)
    tail = 1e-9 * rem0
    locate_wall = 0.0
    integrate_wall = 0.0

    while True:
        active = alive & (remaining > tail)
        if not active.any():
            break
        over = active & (segments >= MAX_SEGMENTS)
        if over.any():
            alive[over] = False
            active &= ~over
            if not active.any():
                break
        dust = active[:, None] & (work < 0.0) & (work >= -4.0
                                                 * ltol[:, None])
        if dust.any():
            work[:, root] += np.where(dust, work, 0.0).sum(axis=1)
            work[dust] = 0.0
        groups: Dict[int, Tuple[_SegmentRegime, List[int]]] = {}
        for i in np.flatnonzero(active):
            regime = lead._regime_for(work[i], lam, float(ltol[i]))
            if regime is None or regime.system.eig is None:
                alive[i] = False
                continue
            groups.setdefault(id(regime), (regime, []))[1].append(i)
        for regime, row_list in groups.values():
            rows = np.asarray(row_list, dtype=np.intp)
            gr = rows.size
            lvls = work[rows]
            lt = ltol[rows]
            rem = remaining[rows]
            n_sat = regime.sat[3].shape[0]
            eig = regime.system.eig
            b_sys = regime.system.b
            t0 = perf_counter()
            seg_t = rem.copy()
            located = np.zeros(gr, dtype=bool)
            crossed = np.zeros((gr, n), dtype=bool)
            crossed_sat = np.zeros((gr, n_sat), dtype=bool)
            drop = np.zeros(gr, dtype=bool)
            fast = np.zeros(gr, dtype=bool)
            # Certify-first fast path (same applicability rule as the
            # scalar loop: no debt rows, or all of them linear).
            if not regime.debt_rows.size or bool(regime.debt_linear.all()):
                t_cand = rem.copy()
                for r_i in range(regime.debt_rows.shape[0]):
                    slope = float(regime.debt_slope[r_i])
                    if slope > 0.0:
                        row = int(regime.debt_rows[r_i])
                        np.minimum(t_cand, (-lt - lvls[:, row]) / slope,
                                   out=t_cand)
                early = t_cand < rem
                if early.any():
                    for r_i in range(regime.debt_rows.shape[0]):
                        slope = float(regime.debt_slope[r_i])
                        if slope <= 0.0:
                            continue
                        row = int(regime.debt_rows[r_i])
                        t_star = (-lt - lvls[:, row]) / slope
                        crossed[:, row] = (early
                                           & (t_star <= t_cand
                                              * (1.0 + 1e-12)))
                fast = ((t_cand >= min_seg[rows])
                        & regime.certify_batch(lvls, t_cand, lt,
                                               crossed, crossed_sat))
                seg_t = np.where(fast, t_cand, seg_t)
                located = fast & early
                crossed &= fast[:, None]
            srs = np.flatnonzero(~fast)
            if srs.size:
                if regime.has_monitors:
                    ts = np.linspace(rem[srs] / EVENT_SAMPLES, rem[srs],
                                     EVENT_SAMPLES, axis=1)
                    states = _eig_states_batch(eig, b_sys, lvls[srs], ts)
                    first = segkernel.first_hits(
                        states, regime.clamp_rows, regime.cap_rows,
                        regime.cap_limits, regime.debt_rows, lt[srs],
                        *regime.sat)
                    hit = first >= 0
                    if hit.any():
                        hrows = srs[hit]
                        f_i = first[hit]
                        pos = np.flatnonzero(hit)
                        lo_h = np.where(f_i == 0, 0.0,
                                        ts[pos, np.maximum(f_i - 1, 0)])
                        hi_h = ts[pos, f_i]
                        floor = np.maximum(1e-12 * rem[hrows], 1e-15)
                        sub_lvls = lvls[hrows]
                        sub_lt = lt[hrows]
                        for _ in range(64):
                            open_ = (hi_h - lo_h) > floor
                            if not open_.any():
                                break
                            mid = 0.5 * (lo_h + hi_h)
                            st = _eig_state_at_batch(eig, b_sys,
                                                     sub_lvls, mid)
                            viol = segkernel.violated_at(
                                st, regime.clamp_rows, regime.cap_rows,
                                regime.cap_limits, regime.debt_rows,
                                sub_lt, *regime.sat)
                            hi_h = np.where(open_ & viol, mid, hi_h)
                            lo_h = np.where(open_ & ~viol, mid, lo_h)
                        st_hi = _eig_state_at_batch(eig, b_sys,
                                                    sub_lvls, hi_h)
                        c_rows, c_sat = regime.crossing_marks_batch(
                            st_hi, sub_lt)
                        seg_t[hrows] = lo_h
                        located[hrows] = True
                        crossed[hrows] = c_rows
                        if n_sat:
                            crossed_sat[hrows] = c_sat
                drop[srs] = seg_t[srs] < min_seg[rows[srs]]
                cert = regime.certify_batch(lvls[srs], seg_t[srs],
                                            lt[srs], crossed[srs],
                                            crossed_sat[srs])
                drop[srs] |= ~cert
            locate_wall += perf_counter() - t0
            t0 = perf_counter()
            keep = ~drop
            if keep.any():
                k_pos = np.flatnonzero(keep)
                t_seg = seg_t[k_pos]
                integ = np.maximum(
                    _eig_propagate_batch(eig, b_sys, lvls[k_pos], t_seg),
                    0.0)
                gk = k_pos.size
                seg_moved = np.zeros((gk, m))
                if regime.const_idx.size:
                    ci = regime.const_idx
                    seg_moved[:, ci] = regime.eff[ci] * t_seg[:, None]
                if regime.prop_idx.size:
                    pi = regime.prop_idx
                    seg_moved[:, pi] = (plan.rate[pi]
                                        * integ[:, plan.src[pi]])
                if regime.hov_idx.size:
                    seg_moved[:, regime.hov_idx] = (regime.hov_rate
                                                    * t_seg[:, None])
                for j, cpart, fsrc, fwts in regime.fwd:
                    seg_moved[:, j] = cpart * t_seg + integ[:, fsrc] @ fwts
                seg_lost = np.zeros((gk, n))
                if lam > 0.0 and regime.decay_rows.size:
                    dr = regime.decay_rows
                    seg_lost[:, dr] = lam * integ[:, dr]
                if regime.pin_rows.size:
                    seg_lost[:, regime.pin_rows] = (regime.pin_rates
                                                    * t_seg[:, None])
                seg_rec = seg_lost.sum(axis=1)
                rb = (np.arange(gk) * n)[:, None]
                in_sum = np.bincount(
                    (rb + plan.snk).ravel(), weights=seg_moved.ravel(),
                    minlength=gk * n).reshape(gk, n)
                out_sum = np.bincount(
                    (rb + plan.src).ravel(), weights=seg_moved.ravel(),
                    minlength=gk * n).reshape(gk, n)
                end = lvls[k_pos] + in_sum - out_sum - seg_lost
                end[:, root] += seg_rec
                neg = np.minimum(end, 0.0)
                neg[:, regime.mode == _DEBT] = 0.0
                bad = neg.sum(axis=1) < -NEGATIVE_LEVEL_SLACK
                if bad.any():
                    drop[k_pos[bad]] = True
                    good = ~bad
                    k_pos = k_pos[good]
                    t_seg = t_seg[good]
                    end = end[good]
                    seg_moved = seg_moved[good]
                    seg_lost = seg_lost[good]
                    seg_rec = seg_rec[good]
                krows = rows[k_pos]
                work[krows] = end
                acc_moved[krows] += seg_moved
                acc_lost[krows] += seg_lost
                acc_rec[krows] += seg_rec
                segments[krows] += 1
                remaining[krows] = np.where(
                    located[k_pos], remaining[krows] - t_seg, 0.0)
            integrate_wall += perf_counter() - t0
            alive[rows[drop]] = False

    solved = alive & (segments > 0) & ~(remaining > tail)
    if not solved.any():
        return
    dust = solved[:, None] & (work < 0.0) & (work >= -4.0 * ltol[:, None])
    if dust.any():
        work[:, root] += np.where(dust, work, 0.0).sum(axis=1)
        work[dust] = 0.0
    rb = (np.arange(g) * n)[:, None]
    in_sum = np.bincount((rb + plan.snk).ravel(),
                         weights=acc_moved.ravel(),
                         minlength=g * n).reshape(g, n)
    out_sum = np.bincount((rb + plan.src).ravel(),
                          weights=acc_moved.ravel(),
                          minlength=g * n).reshape(g, n)
    sub_tiers = [tiers[i] for i in idx]
    sub_results: List[Optional[float]] = [None] * g
    _commit_rows(sub_tiers, solved, work, acc_moved, acc_lost, acc_rec,
                 in_sum, out_sum, sub_results)
    n_solved = int(solved.sum())
    loc_share = locate_wall / n_solved
    int_share = integrate_wall / n_solved
    for p in np.flatnonzero(solved):
        tier = sub_tiers[p]
        tier.segmented_solves += 1
        graph = tier.plan.graph
        graph.span_segments += int(segments[p])
        graph.span_switches += int(segments[p]) - 1
        graph.span_locate_wall_s += loc_share
        graph.span_integrate_wall_s += int_share
        results[int(idx[p])] = sub_results[p]
