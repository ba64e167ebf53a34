"""Re-pin ``expected.json``: each workload's per-device fingerprint at
the default seed.

Run from the root of a checkout, only after a change whose new
outcomes have been checked against the tick-by-tick oracle::

    python3 perfbench/pin.py [workload ...]
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from workloads import (DEFAULT_SEED, EXPECTED_PATH, WORKLOADS,  # noqa: E402
                       fingerprint)


def main(names) -> None:
    expected = {}
    if os.path.exists(EXPECTED_PATH):
        with open(EXPECTED_PATH) as handle:
            expected = json.load(handle)
    for name in names or WORKLOADS:
        rep = WORKLOADS[name].rep(DEFAULT_SEED)
        expected[name] = {"seed": DEFAULT_SEED, **fingerprint(rep.devices)}
        print(f"pinned {name}: {len(rep.devices)} devices")
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=0, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
