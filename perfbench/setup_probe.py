"""Cold set-up of one workload: import convexflow, generate the first curve,
make the first run() call.

The benchmark runs this file in a fresh interpreter and times it from the
outside, so the figure includes interpreter start, the package and numpy
imports, and the first build of every cached operator. The same call warms
the benchmark's own process before its timed reps.

    python3 perfbench/setup_probe.py '<first-call JSON>'
"""

from __future__ import annotations

import json
import sys


def run_spec(spec: dict):
    """One run() of the law, curve, horizon and cadence a JSON spec names."""
    from convexflow import FlowKind, FlowLaw, StepControl, generate, run
    from convexflow.scenario import parse_curve

    law = FlowLaw(FlowKind(spec["law"]["kind"]), float(spec["law"]["alpha"]))
    kp0 = generate(parse_curve(spec["curve"]))
    ctl = StepControl(max_steps=spec.get("max_steps", StepControl.max_steps))
    return run(
        law,
        kp0,
        ctl,
        spec["t_end"],
        sample_dt=spec.get("sample_dt"),
        sample_every=spec.get("sample_every"),
    )


if __name__ == "__main__":
    run_spec(json.loads(sys.argv[1]))
