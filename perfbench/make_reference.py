"""Write the reference series the `stiff` workload is checked against.

    python3 perfbench/make_reference.py

Run from the root of a source checkout, and only when a change to the
integrator is meant to move the recorded scalars; the benchmark then holds
every later run to the new series within the matched-time tolerance.
"""

from __future__ import annotations

import sys

import run as bench


def main() -> int:
    error = bench.prepare()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from convexflow.diagnostics import to_csv
    from setup_probe import run_spec
    from workloads import REFERENCE_DIR, WORKLOADS

    stiff = WORKLOADS["stiff"]
    result = run_spec(stiff.inputs(0))
    path = REFERENCE_DIR / stiff.reference
    path.write_text(to_csv(result.series))
    print(f"{result.status.value}, {len(result.series)} samples -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
