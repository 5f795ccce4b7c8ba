import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import convexflow
from convexflow import (
    Circle,
    DiagnosticsCollector,
    Ellipse,
    FlowKind,
    FlowLaw,
    PerturbedCircle,
    RunResult,
    RunStatus,
    Scenario,
    ScenarioError,
    Snapshot,
    StepControl,
    emit,
    generate,
    parse_curve,
    parse_scenario,
    render_snapshot,
    scenario_to_document,
    snapshot_of,
)
from convexflow.cli import _execute, main
from convexflow.diagnostics import rate_fd_pairs
from convexflow.geometry import area, length
from convexflow.laws import LawError

MINIMAL = '{"law":{"kind":"LP","alpha":1},"curve":{"kind":"Ellipse","a":2,"b":1},"t_end":5}'


def small_scenario(tmp_path, **overrides):
    doc = {
        "law": {"kind": "LP", "alpha": 1},
        "curve": {"kind": "Ellipse", "a": 2, "b": 1, "grid_n": 64},
        "t_end": 0.3,
        "sample_every": 100,
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


class TestParse:
    def test_minimal_with_defaults(self):
        s = parse_scenario(MINIMAL)
        assert s.law == FlowLaw(FlowKind.LP, 1.0)
        assert s.curve == Ellipse(a=2.0, b=1.0)
        assert s.curve.grid_n == 256
        assert s.control == StepControl()
        assert s.control.safety == 0.25
        assert s.control.convergence_tol == 1e-3
        assert s.t_end == 5.0
        assert s.sample_every == 25
        assert s.sample_dt is None
        assert s.snapshot_every == 0
        assert s.output_dir == "out"
        assert set(s.audits) == {
            "rates", "radii", "tso", "psi", "phi", "entropy", "margins"
        }

    def test_g1_alpha_floor(self):
        doc = json.loads(MINIMAL)
        doc["law"] = {"kind": "G1", "alpha": 0.5}
        with pytest.raises(LawError, match="alpha must be >= 1 for G1/G2"):
            parse_scenario(json.dumps(doc))

    def test_empty_document_lists_every_missing_key(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("{}")
        for key in ("law.kind", "law.alpha", "curve", "t_end"):
            assert key in str(err.value)

    def test_partial_law_names_the_gap(self):
        with pytest.raises(ScenarioError, match="law.alpha") as err:
            parse_scenario('{"law":{"kind":"LP"},"curve":{"kind":"Circle","r":1},"t_end":1}')
        assert "law.kind" not in str(err.value)

    @pytest.mark.parametrize(
        "mutate,name",
        [
            (lambda d: d.update(tend=1), "tend"),
            (lambda d: d["law"].update(alhpa=1), "alhpa"),
            (lambda d: d["curve"].update(radius=1), "radius"),
            (lambda d: d.update(control={"saftey": 0.2}), "saftey"),
        ],
    )
    def test_unknown_keys_are_named(self, mutate, name):
        doc = json.loads(MINIMAL)
        mutate(doc)
        with pytest.raises(ScenarioError, match=name):
            parse_scenario(json.dumps(doc))

    def test_unknown_enums(self):
        doc = json.loads(MINIMAL)
        doc["law"]["kind"] = "LPX"
        with pytest.raises(ScenarioError, match="LPX"):
            parse_scenario(json.dumps(doc))
        doc = json.loads(MINIMAL)
        doc["curve"] = {"kind": "Square", "r": 1}
        with pytest.raises(ScenarioError, match="Square"):
            parse_scenario(json.dumps(doc))
        doc = json.loads(MINIMAL)
        doc["audits"] = ["rates", "vibes"]
        with pytest.raises(ScenarioError, match="vibes"):
            parse_scenario(json.dumps(doc))

    def test_malformed_json(self):
        with pytest.raises(ScenarioError, match="valid JSON"):
            parse_scenario("{not json")
        with pytest.raises(ScenarioError, match="must be a JSON object"):
            parse_scenario("[1]")

    def test_integral_numbers_are_integers(self):
        doc = json.loads(MINIMAL)
        doc["curve"] = {
            "kind": "PerturbedCircle", "r0": 1, "modes": [[3.0, 0.05, 0]],
            "grid_n": 128.0,
        }
        doc.update(sample_every=5.0, snapshot_every=2.0, control={"max_steps": 1e6})
        s = parse_scenario(json.dumps(doc))
        counts = (s.curve.grid_n, s.curve.modes[0][0], s.sample_every,
                  s.snapshot_every, s.control.max_steps)
        assert counts == (128, 3, 5, 2, 1_000_000)
        assert all(type(x) is int for x in counts)

    @pytest.mark.parametrize(
        "key,value,match",
        [
            ("t_end", 0, "t_end"),
            ("t_end", -2, "t_end"),
            ("sample_every", 0, "sample_every"),
            ("sample_dt", 0, "sample_dt"),
            ("sample_dt", -0.1, "sample_dt"),
            ("snapshot_every", -1, "snapshot_every"),
        ],
    )
    def test_range_checks(self, key, value, match):
        doc = json.loads(MINIMAL)
        doc[key] = value
        with pytest.raises(ScenarioError, match=match):
            parse_scenario(json.dumps(doc))

    def test_curve_kinds(self):
        assert parse_curve({"kind": "Circle", "r": 2}) == Circle(r=2.0)
        assert parse_curve(
            {"kind": "PerturbedCircle", "r0": 1, "modes": [[3, 0.05, 0.1]]}
        ) == PerturbedCircle(r0=1.0, modes=((3, 0.05, 0.1),))
        with pytest.raises(ScenarioError, match="unknown curve kind"):
            parse_curve({"kind": "ExplicitSupport", "mean": 1, "harmonics": []})
        with pytest.raises(ScenarioError, match="missing key"):
            parse_curve({"kind": "Ellipse", "a": 2})
        with pytest.raises(ValueError, match="mode 1"):
            parse_curve({"kind": "PerturbedCircle", "r0": 1, "modes": [[1, 0.1, 0]]})

    def test_round_trip_equality(self):
        doc = {
            "law": {"kind": "AP", "alpha": 2.5},
            "curve": {
                "kind": "PerturbedCircle",
                "r0": 1.5,
                "modes": [[2, 0.1, 0.0], [5, 0.01, 1.25]],
                "grid_n": 128,
            },
            "control": {"safety": 0.125, "max_steps": 1000, "blowup_k": 1e5},
            "t_end": 2.0,
            "sample_every": 7,
            "snapshot_every": 3,
            "output_dir": "elsewhere",
            "audits": ["rates", "margins"],
        }
        s = parse_scenario(json.dumps(doc))
        assert parse_scenario(json.dumps(scenario_to_document(s))) == s

    def test_sample_dt_cadence(self):
        doc = json.loads(MINIMAL)
        doc["sample_dt"] = 0.05
        s = parse_scenario(json.dumps(doc))
        assert s.sample_dt == 0.05 and s.sample_every is None
        echo = scenario_to_document(s)
        assert echo["sample_dt"] == 0.05 and "sample_every" not in echo
        assert parse_scenario(json.dumps(echo)) == s

    def test_sample_dt_and_sample_every_exclude_each_other(self):
        doc = json.loads(MINIMAL)
        doc.update(sample_dt=0.05, sample_every=10)
        with pytest.raises(ScenarioError, match="not both"):
            parse_scenario(json.dumps(doc))

    def test_readme_scenarios_parse(self):
        # every scenario document the README shows must pass the strict parser
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
        assert blocks
        for block in blocks:
            parse_scenario(block)

    def test_default_control_echo_stays_finite_json(self):
        s = parse_scenario(MINIMAL)
        text = json.dumps(scenario_to_document(s))
        assert "Infinity" not in text
        assert parse_scenario(text) == s


class TestEmit:
    @staticmethod
    def tiny_result(kp, law, status=RunStatus.TIME_LIMIT):
        coll = DiagnosticsCollector(law, kp)
        coll.collect(0.0, kp, s_accum=0.0)
        coll.collect(0.1, kp, s_accum=0.05)
        return RunResult(status, kp, coll.series, 0.1, 3, None, 1, (0.01, 0.05))

    def test_files_and_manifest(self, tmp_path):
        s = parse_scenario(MINIMAL)
        kp = generate(s.curve)
        result = self.tiny_result(kp, s.law)
        snaps = [snapshot_of(0, 0.0, kp, s.law, length(kp), area(kp))]
        manifest = emit(result, snaps, tmp_path / "o", scenario=s)
        assert manifest["status"] == "TimeLimit"
        assert manifest["guard"] is None
        assert manifest["stepping"] == {"steps": 3, "rejected": 1, "dt_range": [0.01, 0.05]}
        assert manifest["scenario"] == scenario_to_document(s)
        assert manifest["files"] == [
            "curve_0000.json", "curve_0000.svg", "scenario.json", "series.csv",
        ]
        for name in manifest["files"] + ["manifest.json"]:
            assert (tmp_path / "o" / name).exists()
        on_disk = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert on_disk == manifest
        echoed = (tmp_path / "o" / "scenario.json").read_text()
        assert parse_scenario(echoed) == s

    def test_zero_snapshots(self, tmp_path):
        s = parse_scenario(MINIMAL)
        kp = generate(s.curve)
        manifest = emit(
            self.tiny_result(kp, s.law, RunStatus.CONVERGED), [], tmp_path / "o",
            scenario=s,
        )
        assert manifest["files"] == ["scenario.json", "series.csv"]

    def test_deterministic_bytes(self, tmp_path):
        s = parse_scenario(MINIMAL)
        kp = generate(s.curve)
        for d in ("a", "b"):
            result = self.tiny_result(kp, s.law)
            snaps = [snapshot_of(0, 0.0, kp, s.law, length(kp), area(kp))]
            emit(result, snaps, tmp_path / d, scenario=s)
        for name in (
            "scenario.json", "series.csv", "manifest.json",
            "curve_0000.json", "curve_0000.svg",
        ):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name

    def test_snapshot_document_round_trip(self):
        kp = generate(Ellipse(a=2.0, b=1.0, grid_n=64))
        snap = snapshot_of(3, 1.5, kp, FlowLaw(FlowKind.AP, 1.0), 1.0, area(kp))
        back = Snapshot.from_document(json.loads(json.dumps(snap.to_document())))
        assert back.index == 3 and back.t == 1.5
        assert back.limit_radius == snap.limit_radius
        assert np.array_equal(back.points, snap.points)
        assert snap.limit_radius == pytest.approx(math.sqrt(2.0), rel=1e-10)


# floats whose repr and %.10g forms are easy to get wrong: a signed zero,
# the smallest subnormal, an exponent form, a value just past 1e15 and a
# sum that is not its decimal
CRAFTED_POINTS = np.array([
    [-0.0, 5e-324], [1e16, 1e-7], [0.1 + 0.2, -0.0], [-1e16, -5e-324],
    [1.0, 0.0], [-0.0, 5e-324],
])


def writer_snapshots():
    kp = generate(PerturbedCircle(r0=1.3, modes=((2, 0.05, 0.4), (5, 0.004, 1.0)),
                                  grid_n=64))
    law = FlowLaw(FlowKind.G1, 2.0)
    real = snapshot_of(7, 0.1 + 0.2, kp, law, length(kp), area(kp))
    crafted = Snapshot(index=12, t=1e-7, limit_radius=0.1 + 0.2, points=CRAFTED_POINTS)
    return {"real": real, "crafted": crafted}


@pytest.mark.parametrize("which", ["real", "crafted"])
class TestSnapshotWriters:
    """The bulk writers against json.dumps and the per-point formatting
    they replaced."""

    def test_json_is_json_dumps(self, which):
        snap = writer_snapshots()[which]
        per_point = {
            "index": snap.index,
            "t": snap.t,
            "limit_radius": snap.limit_radius,
            "points": [[float(x), float(y)] for x, y in snap.points],
        }
        text = snap.to_json()
        assert text == json.dumps(per_point, indent=2) + "\n"
        assert text == json.dumps(snap.to_document(), indent=2) + "\n"

    def test_svg_path_is_the_per_point_format(self, which, tmp_path):
        snap = writer_snapshots()[which]
        render_snapshot(snap, tmp_path / "c.svg")
        d = re.search(r'<path d="([^"]+)"', (tmp_path / "c.svg").read_text()).group(1)
        per_point = " L ".join(f"{x:.10g},{-y:.10g}" for x, y in snap.points)
        assert d == f"M {per_point} Z"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_writers_refuse_nonfinite_points(bad, tmp_path):
    points = CRAFTED_POINTS.copy()
    points[2, 1] = bad
    snap = Snapshot(index=0, t=0.0, limit_radius=1.0, points=points)
    with pytest.raises(ScenarioError, match="finite"):
        snap.to_json()
    with pytest.raises(ScenarioError, match="finite"):
        render_snapshot(snap, tmp_path / "x.svg")
    assert list(tmp_path.iterdir()) == []


def svg_geometry(path):
    text = path.read_text()
    r = float(re.search(r'<circle[^>]* r="([^"]+)"', text).group(1))
    d = re.search(r'<path d="M ([^"]+) Z"', text).group(1)
    pts = np.array(
        [[float(x), -float(y)] for x, y in
         (pair.split(",") for pair in d.split(" L "))]
    )
    return r, pts


class TestRenderSnapshot:
    def test_circle_coincides_with_overlay(self, tmp_path):
        kp = generate(Circle(r=2.0, grid_n=64))
        snap = snapshot_of(0, 0.0, kp, FlowLaw(FlowKind.LP, 1.0), length(kp), area(kp))
        out = tmp_path / "c.svg"
        render_snapshot(snap, out)
        r, pts = svg_geometry(out)
        dev = np.abs(np.hypot(pts[:, 0], pts[:, 1]) - r)
        assert dev.max() < 1e-3 * r

    def test_ellipse_has_two_distinct_shapes(self, tmp_path):
        kp = generate(Ellipse(a=2.0, b=1.0, grid_n=64))
        snap = snapshot_of(0, 0.0, kp, FlowLaw(FlowKind.LP, 1.0), length(kp), area(kp))
        out = tmp_path / "e.svg"
        render_snapshot(snap, out)
        text = out.read_text()
        assert text.count("<path") == 1
        assert text.count("<circle") == 1
        r, pts = svg_geometry(out)
        dev = np.abs(np.hypot(pts[:, 0], pts[:, 1]) - r)
        assert dev.max() > 0.3  # visibly apart

    def test_invalid_path_leaves_nothing(self, tmp_path):
        kp = generate(Circle(r=1.0, grid_n=64))
        snap = snapshot_of(0, 0.0, kp, FlowLaw(FlowKind.LP, 1.0), length(kp), area(kp))
        target = tmp_path / "missing" / "c.svg"
        with pytest.raises(OSError):
            render_snapshot(snap, target)
        assert not (tmp_path / "missing").exists()
        assert list(tmp_path.iterdir()) == []

    def test_empty_snapshot_rejected(self, tmp_path):
        snap = Snapshot(index=0, t=0.0, limit_radius=1.0, points=np.empty((0, 2)))
        with pytest.raises(ScenarioError, match="points"):
            render_snapshot(snap, tmp_path / "x.svg")


class TestCli:
    def test_run_time_limit_exit_zero(self, tmp_path, capsys):
        path = small_scenario(tmp_path)
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "TimeLimit" in out
        assert (tmp_path / "out" / "series.csv").exists()

    def test_run_converged_circle(self, tmp_path, capsys):
        path = small_scenario(
            tmp_path,
            curve={"kind": "Circle", "r": 1, "grid_n": 64},
            snapshot_every=1,
        )
        assert main(["run", str(path)]) == 0
        assert "Converged" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "Converged"
        assert "curve_0000.svg" in manifest["files"]

    def test_run_step_limit_exit_one(self, tmp_path, capsys):
        path = small_scenario(tmp_path, control={"max_steps": 50})
        assert main(["run", str(path)]) == 1
        assert "StepLimit" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "control, guard", [({}, None), ({"max_steps": 50}, "step_limit")]
    )
    def test_run_names_the_guard(self, tmp_path, capsys, control, guard):
        path = small_scenario(tmp_path, control=control)
        main(["run", str(path)])
        assert f"(guard: {guard or 'none'})" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["guard"] == guard

    @pytest.mark.parametrize(
        "control, guard", [({}, "blowup"), ({"blowup_k": None}, "convexity")]
    )
    def test_run_names_the_guard_past_extinction(self, tmp_path, capsys, control, guard):
        # the contracting unit circle dies at t = 1/2: the blowup guard ends
        # the run, or, with it off, the step size underflows (t + dt == t)
        path = small_scenario(
            tmp_path,
            law={"kind": "Contraction", "alpha": 1},
            curve={"kind": "Circle", "r": 1, "grid_n": 64},
            t_end=0.6,
            control=control,
        )
        with np.errstate(over="ignore"):
            assert main(["run", str(path)]) == 1
        assert f"(guard: {guard})" in capsys.readouterr().out
        # both echoes of the scenario are strict JSON, the guard off or on
        manifest = strict_json((tmp_path / "out" / "manifest.json").read_text())
        echo = strict_json((tmp_path / "out" / "scenario.json").read_text())
        assert manifest["guard"] == guard
        assert manifest["scenario"] == echo
        assert parse_scenario(json.dumps(echo)).control.blowup_k == (
            math.inf if control else 1e6
        )

    @pytest.mark.parametrize(
        "law, curve, control, guard",
        [
            # k = 1 >= blowup_k before the first step: the entry guard
            ({"kind": "Contraction", "alpha": 1}, {"kind": "Circle", "r": 1},
             {"blowup_k": 1.0}, "blowup"),
            # sigma = alpha k^(alpha + 1) overflows far below blowup_k
            # (audits off: Tso's initial bound overflows at alpha = 100)
            ({"kind": "Contraction", "alpha": 100}, {"kind": "Circle", "r": 1e-3},
             {}, "nonfinite"),
        ],
        ids=["blowup-at-entry", "nonfinite"],
    )
    def test_result_and_manifest_name_the_guard(
        self, tmp_path, capsys, law, curve, control, guard
    ):
        path = small_scenario(tmp_path, law=law, curve={**curve, "grid_n": 64},
                              t_end=1.0, control=control, audits=[])
        with np.errstate(over="ignore", invalid="ignore"):
            result, _ = _execute(parse_scenario(path.read_text()))
            assert main(["run", str(path)]) == 1
        assert (result.status.value, result.guard) == ("BlowUp", guard)
        assert f"BlowUp: t={result.t_final:.6g} after {result.steps} steps" in (
            capsys.readouterr().out
        )
        manifest = strict_json((tmp_path / "out" / "manifest.json").read_text())
        assert (manifest["status"], manifest["guard"]) == ("BlowUp", guard)
        assert manifest["stepping"] == {
            "steps": result.steps,
            "rejected": result.rejected,
            "dt_range": None if result.dt_range is None else list(result.dt_range),
        }
        assert (result.steps == 0) == (guard == "blowup")

    def test_manifest_records_step_counters(self, tmp_path, capsys):
        path = small_scenario(tmp_path)
        result, _ = _execute(parse_scenario(path.read_text()))
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"after {result.steps} steps, {result.rejected} rejected, dt " in out
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["stepping"] == {
            "steps": result.steps,
            "rejected": result.rejected,
            "dt_range": list(result.dt_range),
        }

    @pytest.mark.parametrize("r, audits", [
        (1e-3, None),  # the Tso plateau Q0 passes the float range
        (1e4, None),  # the Tso horizon T1 does
        (1e-3, ["psi"]),  # the Psi allowance k_max ** (2 alpha) does
    ])
    def test_float_overflow_ends_without_a_traceback(self, tmp_path, capsys, r, audits):
        doc = {
            "law": {"kind": "Contraction", "alpha": 100},
            "curve": {"kind": "Circle", "r": r, "grid_n": 64},
            "t_end": 1e-6 if r < 1.0 else 1.0,
            "sample_dt": 1e-7 if r < 1.0 else 0.1,
            "output_dir": str(tmp_path / "out"),
        }
        if audits is not None:
            doc["audits"] = audits
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) in (0, 1, 2)
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert "status" in json.loads((tmp_path / "out" / "manifest.json").read_text())

    def test_kernel_warns_nothing_on_a_steep_start(self, tmp_path, capsys):
        # k^alpha overflows on this circle: the kernel trips the nonfinite
        # guard, and the collector's functionals read the overflow as inf
        # or NaN, all without a warning
        doc = {
            "law": {"kind": "Contraction", "alpha": 100},
            "curve": {"kind": "Circle", "r": 1e-3, "grid_n": 64},
            "t_end": 1e-6,
            "sample_dt": 1e-7,
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", str(path)]) == 1
        assert "(guard: nonfinite)" in capsys.readouterr().out

    def test_nan_margin_is_not_checked(self, tmp_path, capsys):
        # k^alpha overflows on this circle, so two margins are NaN from the
        # start: neither the run's audit nor `audit` may call them failed
        doc = {
            "law": {"kind": "Contraction", "alpha": 100},
            "curve": {"kind": "Circle", "r": 1e-3, "grid_n": 64},
            "t_end": 1e-6,
            "sample_dt": 1e-7,
            "audits": ["margins"],
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 1  # the nonfinite guard
        out = capsys.readouterr().out
        assert "(guard: nonfinite)" in out
        assert "audit:" not in out and "= nan" not in out
        assert main(["audit", str(path)]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [row.split()[0] for row in rows if row.endswith("not checked")] == [
            "mink1_ap", "mink2_ap"
        ]
        assert not any(row.endswith("FAIL") for row in rows)

    def test_summary_prints_timings_that_no_file_records(self, tmp_path, capsys):
        # wall times differ from run to run: the summary line shows them,
        # and the byte-identical outputs must not contain them
        path = small_scenario(tmp_path)
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert re.search(
            r"\(kernel [0-9.e+-]+ s, collect [0-9.e+-]+ s, emit [0-9.e+-]+ s\)", out
        )
        for name in ("manifest.json", "series.csv", "scenario.json"):
            text = (tmp_path / "out" / name).read_text()
            assert "kernel_s" not in text and "collect_s" not in text
            assert "emit" not in text

    def test_run_rerun_is_byte_identical(self, tmp_path):
        path = small_scenario(tmp_path, snapshot_every=2)
        assert main(["run", str(path)]) == 0
        first = (tmp_path / "out" / "series.csv").read_bytes()
        assert main(["run", str(path)]) == 0
        assert (tmp_path / "out" / "series.csv").read_bytes() == first

    def test_sample_dt_run_checks_rate_pairs(self, tmp_path):
        # adaptive steps space step-cadence samples unequally, and the
        # rate audit compares only equally spaced windows
        path = small_scenario(tmp_path, t_end=0.05)
        doc = json.loads(path.read_text())
        stepped, _ = _execute(parse_scenario(json.dumps(doc)))
        del doc["sample_every"]
        doc["sample_dt"] = 0.005
        timed, _ = _execute(parse_scenario(json.dumps(doc)))
        assert len(rate_fd_pairs(stepped.series, "L")[0]) == 0
        assert len(timed.series) == 11
        assert len(rate_fd_pairs(timed.series, "L")[0]) > 0

    def test_run_with_sample_dt(self, tmp_path, capsys):
        # sample_dt spaces the samples equally, so the rate audit compares
        # windows. The run is clean at n=128, and also at n=32 and 64, which
        # under-resolve this ellipse: the kernel keeps L invariant to
        # round-off, so no audit sees the coarse grid
        curve = {"kind": "Ellipse", "a": 2, "b": 1, "grid_n": 128}
        path = small_scenario(tmp_path, t_end=0.05, curve=curve)
        doc = json.loads(path.read_text())
        del doc["sample_every"]
        doc["sample_dt"] = 0.005
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 0
        assert "11 samples" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["scenario"]["sample_dt"] == 0.005

    def test_audit_scenario_and_bare_curve(self, tmp_path, capsys):
        path = small_scenario(tmp_path)
        assert main(["audit", str(path)]) == 0
        out = capsys.readouterr().out
        assert "holder" in out and "FAIL" not in out
        bare = tmp_path / "curve.json"
        bare.write_text('{"kind":"Circle","r":1.0,"grid_n":64}')
        assert main(["audit", str(bare), "--alpha", "2"]) == 0
        assert "gage1_lower" in capsys.readouterr().out

    def test_sweep(self, tmp_path, capsys):
        path = small_scenario(tmp_path, t_end=0.2)
        assert main(["sweep", str(path), "--alpha", "1", "2"]) == 0
        lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert lines[0] == "alpha,t_converge,final_oscillation,decay_rate"
        assert len(lines) == 3
        assert lines[1].startswith("1,") and lines[2].startswith("2,")
        for alpha in ("1", "2"):
            assert (tmp_path / "out" / f"alpha_{alpha}" / "series.csv").exists()
        out = capsys.readouterr().out
        assert "alpha=1" in out and "alpha=2" in out

    def test_config_errors_exit_two(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text('{"law":{"kind":"LP","alpha":1},"curve":{"kind":"Circle","r":1},"t_end":1,"tpyo":3}')
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "tpyo" in err

    @pytest.mark.parametrize(
        "modes",
        [5, [[2, 0.1]], [["x", 0.1, 0]], [[2.5, 0.1, 0]], [[True, 0.1, 0]],
         [[2, "0.1", 0]]],
        ids=["int", "pair", "text", "fraction", "bool", "numeric-text"],
    )
    def test_malformed_modes_exit_two(self, tmp_path, capsys, modes):
        curve = {"kind": "PerturbedCircle", "r0": 1, "modes": modes, "grid_n": 64}
        path = small_scenario(tmp_path, curve=curve)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "modes" in err and "[m, amp, phase]" in err

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"curve": {"kind": "Circle", "r": [1], "grid_n": 64}}, "curve.r"),
            ({"curve": {"kind": "Circle", "r": 1, "grid_n": None}}, "curve.grid_n"),
            ({"law": {"kind": "LP", "alpha": {}}}, "law.alpha"),
            ({"t_end": "soon"}, "t_end"),
            ({"sample_every": [25]}, "sample_every"),
            ({"snapshot_every": "often"}, "snapshot_every"),
            ({"control": {"safety": None}}, "control.safety"),
            ({"control": {"max_steps": math.inf}}, "control.max_steps"),
            ({"projection": True}, "projection"),
            ({"control": {"dt_min": 0.0}}, "dt_min"),
            ({"audits": 5}, "audits"),
            ({"audits": "rates"}, "audits"),
            ({"audits": [1]}, "audits"),
            ({"curve": {"kind": ["Circle"]}}, "curve.kind"),
            ({"output_dir": 5}, "output_dir"),
            ({"control": {"dt_max": 0.5}}, "dt_max"),
            ({"sample_every": 2.5}, "sample_every"),
            ({"curve": {"kind": "Circle", "r": 1, "grid_n": 128.9}}, "curve.grid_n"),
            ({"control": {"max_steps": 10.7}}, "control.max_steps"),
            ({"snapshot_every": 1.5}, "snapshot_every"),
            ({"sample_every": "3"}, "sample_every"),
            ({"sample_every": True}, "sample_every"),
            ({"law": {"kind": "LP", "alpha": "2"}}, "law.alpha"),
            ({"law": {"kind": "LP", "alpha": True}}, "law.alpha"),
            ({"t_end": "0.1"}, "t_end"),
            ({"control": 5}, "control"),
        ],
    )
    def test_bad_key_exit_two_names_it(self, tmp_path, capsys, overrides, key):
        assert main(["run", str(small_scenario(tmp_path, **overrides))]) == 2
        assert key in capsys.readouterr().err

    def test_audit_bare_curve_must_be_an_object(self, tmp_path, capsys):
        bare = tmp_path / "curve.json"
        bare.write_text("[1, 2]")
        assert main(["audit", str(bare)]) == 2
        assert "curve must be an object" in capsys.readouterr().err

    def test_run_prints_audit_lines(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            "convexflow.cli.audit_series", lambda series: ["stub finding"]
        )
        assert main(["run", str(small_scenario(tmp_path))]) == 1
        assert "audit: stub finding" in capsys.readouterr().out

    def test_every_subcommand_runs_without_scipy(self, tmp_path):
        # the library is numpy-only (scipy is a test dependency), and
        # `oracle` is no subcommand: argparse exits 2
        path = small_scenario(tmp_path, t_end=0.02)
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from convexflow.cli import main\n"
            "path = sys.argv[1]\n"
            "codes = [main(['run', path]), main(['audit', path]),\n"
            "         main(['sweep', path, '--alpha', '2'])]\n"
            "try:\n"
            "    main(['oracle'])\n"
            "except SystemExit as exc:\n"
            "    codes.append(exc.code)\n"
            "print(codes)\n"
        )
        src = str(Path(convexflow.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code, str(path)], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        assert out.stdout.splitlines()[-1] == "[0, 0, 0, 2]"
        assert "invalid choice: 'oracle'" in out.stderr


# the ROADMAP's near-circle whose inradius has no certificate at any r0
REPRODUCER_MODES = (
    (14, 0.001021446754621413, 0.5995203619863351),
    (19, 0.0005257548495545336, 4.158438873041206),
    (22, 4.199331613702206e-05, 6.086551639502771),
)


def generated_scenarios(count, seed=11):
    """Scenario documents over every law, alpha up to 100, scales 1e-4 to
    1e4 and n from 16 to 128, of circles, ellipses and near-circles with
    high modes; the first is the reproducer above."""
    rng = random.Random(seed)
    for i in range(count):
        kind = ("LP", "AP", "G1", "G2", "Contraction")[i % 5]
        alpha = rng.choice((0.5, 1.0, 2.0, 3.0, 10.0, 100.0))
        if kind in ("G1", "G2"):
            alpha = max(alpha, 1.0)
        n = rng.choice((16, 32, 64, 128))
        r = 10.0 ** rng.uniform(-4.0, 4.0)
        if i == 0:
            curve = {"kind": "PerturbedCircle", "r0": r, "grid_n": 64,
                     "modes": [[m, r * a, p] for m, a, p in REPRODUCER_MODES]}
        elif i % 3 == 0:
            curve = {"kind": "Circle", "r": r, "grid_n": n}
        elif i % 3 == 1:
            curve = {"kind": "Ellipse", "a": r * rng.uniform(1.0, 3.0), "b": r,
                     "grid_n": n}
        else:
            k = rng.randint(1, 3)
            modes = []
            for _ in range(k):
                m = rng.randint(2, n // 2 - 1)
                amp = r * rng.uniform(0.05, 0.95) / k / (m * m - 1)
                modes.append([m, amp, rng.uniform(0.0, 2.0 * math.pi)])
            curve = {"kind": "PerturbedCircle", "r0": r, "grid_n": n, "modes": modes}
        t_end = 10.0 ** rng.uniform(-4.0, 0.0)
        yield {
            "law": {"kind": kind, "alpha": alpha},
            "curve": curve,
            "t_end": t_end,
            "sample_dt": t_end / 8,
            "control": {"max_steps": 200},
        }


@pytest.mark.parametrize("case", range(40))
def test_generated_scenarios_end_without_a_traceback(case, tmp_path, capfd):
    doc = list(generated_scenarios(case + 1))[case]
    doc["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) in (0, 1, 2)
    # LAPACK writes its errors to the process's stdout, not to sys.stdout
    out, err = capfd.readouterr()
    assert "Traceback" not in out + err and "DLASCL" not in out + err
    for emitted in tmp_path.glob("out/**/*.json"):
        strict_json(emitted.read_text())
