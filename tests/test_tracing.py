"""The benchmark's spans stay attached to the entry points they wrap.

perfbench/tracing.py wraps package functions by name from outside the
package. A renamed or bypassed entry point would make its per-layer
figure read 0 without any error, so this runs both paths the benchmark
times under a Tracer and requires a call in every span.
"""

import importlib.util
import json
from pathlib import Path

from convexflow import Ellipse, FlowKind, FlowLaw, generate, geometry, run
from convexflow.cli import main

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_span_records_a_call(tmp_path, capsys):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "law": {"kind": "LP", "alpha": 1},
        "curve": {"kind": "Ellipse", "a": 2, "b": 1, "grid_n": 64},
        "t_end": 0.02,
        "sample_every": 5,
        "snapshot_every": 1,
        "output_dir": str(tmp_path / "out"),
    }))
    radii = geometry.inradius_outradius
    with tracer.installed():
        run(
            FlowLaw(FlowKind.LP, 1.0),
            generate(Ellipse(a=2.0, b=1.0, grid_n=64)),
            t_end=0.02,
            sample_dt=0.01,
        )
        assert main(["run", str(scenario)]) == 0
    assert geometry.inradius_outradius is radii

    called = {span[1] for span in tracer.spans}
    spans = set(tracing.INCLUSIVE_LAYERS.values()) | {"stepping.run"}
    assert sorted(spans - called) == []
    times = tracing.layer_times(tracer.spans, tracer.rep)
    assert [metric for metric, s in times.items() if not s > 0.0] == []


def test_collection_spans_sit_inside_collect(tmp_path, capsys):
    # collection computes whole blocks; work done outside a collect call
    # would be counted as the kernel's self time of run()
    tracing = load_tracing()
    tracer = tracing.Tracer()
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "law": {"kind": "G1", "alpha": 2},
        "curve": {"kind": "Ellipse", "a": 2, "b": 1, "grid_n": 64},
        "t_end": 0.02,
        "sample_every": 2,
        "snapshot_every": 3,
        "output_dir": str(tmp_path / "out"),
    }))
    with tracer.installed():
        result = run(
            FlowLaw(FlowKind.LP, 1.0),
            generate(Ellipse(a=2.0, b=1.0, grid_n=64)),
            t_end=0.05,
            sample_dt=0.001,
        )
        assert main(["run", str(scenario)]) == 0
    assert len(result.series) == 51  # several blocks of 16 rows

    inside = {"geometry.radii"} | {
        f"diagnostics.{name}"
        for name in ("rates", "tso", "psi", "phi", "entropy", "margins")
    }

    def under_collect(span):
        while span[4] is not None:
            span = tracer.spans[span[4]]
            if span[1] == "diagnostics.collect":
                return True
        return False

    checked = [span for span in tracer.spans if span[1] in inside]
    assert {span[1] for span in checked} == inside
    assert [span[1] for span in checked if not under_collect(span)] == []
