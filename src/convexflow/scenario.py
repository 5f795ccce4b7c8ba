"""Scenario configuration, results emission, and snapshot rendering.

A scenario is one JSON document describing a run: the law, the initial
curve, step control, horizon, and output cadence. Parsing is strict;
unknown keys are errors, because a silently ignored misspelling of
"alpha" would invalidate a scientific run. Emission is deterministic:
identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .diagnostics import AUDIT_NAMES, DiagnosticsSeries, to_csv
from .generators import Circle, CurveSpec, Ellipse, PerturbedCircle
from .geometry import CurvatureProfile, area, reconstruct_points, support_about_centroid
from .laws import FlowKind, FlowLaw
from .spectral import TWO_PI
from .stepping import StepControl


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class Scenario:
    """One fully-specified run."""

    law: FlowLaw
    curve: CurveSpec
    control: StepControl
    t_end: float
    sample_every: int | None
    sample_dt: float | None
    snapshot_every: int
    output_dir: str
    audits: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class Snapshot:
    """Curve geometry captured at one sample, centered on its centroid.

    points is the reconstructed closed loop including the wrap-around
    endpoint, so the gap between last and first rows is the closure
    defect. limit_radius is the reference circle the law drives the
    curve toward (length-equivalent for LP, area-equivalent otherwise).
    """

    index: int
    t: float
    limit_radius: float
    points: np.ndarray

    def to_document(self) -> dict:
        return {
            "index": self.index,
            "t": self.t,
            "limit_radius": self.limit_radius,
            "points": [[float(x), float(y)] for x, y in self.points],
        }

    @classmethod
    def from_document(cls, doc: Mapping) -> "Snapshot":
        return cls(
            index=int(doc["index"]),
            t=float(doc["t"]),
            limit_radius=float(doc["limit_radius"]),
            points=np.asarray(doc["points"], dtype=float),
        )


def snapshot_of(
    index: int, t: float, kp: CurvatureProfile, law: FlowLaw, L0: float, A0: float
) -> Snapshot:
    """Capture kp with the law-appropriate limit circle radius.

    LP holds length, so its limit is the length-equivalent circle of the
    initial curve; AP holds area. The remaining laws conserve neither,
    so the overlay is the area-equivalent circle of the snapshot itself.
    """
    if law.kind is FlowKind.LP:
        r = L0 / TWO_PI
    elif law.kind is FlowKind.AP:
        r = math.sqrt(A0 / math.pi)
    else:
        r = math.sqrt(area(kp) / math.pi)
    _, center = support_about_centroid(kp)
    points = reconstruct_points(kp) - np.asarray(center)
    return Snapshot(index=index, t=t, limit_radius=r, points=points)


# ---------------------------------------------------------------------------
# parsing


_TOP_KEYS = {
    "law", "curve", "control", "t_end", "sample_every", "sample_dt",
    "snapshot_every", "output_dir", "audits",
}

# curve kind -> its spec class; every field but grid_n is a required key
_CURVE_KINDS = {cls.__name__: cls for cls in (Circle, Ellipse, PerturbedCircle)}


def _curve_keys(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.name != "grid_n")


def _reject_unknown(doc: Mapping, known: set, where: str) -> None:
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ScenarioError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _number(value, key: str, integral: bool = False):
    """The JSON number at `key`, a float or with `integral` an int (1e6 is
    one); else, booleans and strings too, a ScenarioError naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{key} must be a number, got {value!r}")
    if integral and isinstance(value, float) and not value.is_integer():
        raise ScenarioError(f"{key} must be an integer, got {value!r}")
    try:
        return int(value) if integral else float(value)
    except OverflowError:  # an integer beyond the float range
        raise ScenarioError(f"{key} must be a number, got {value!r}") from None


def _parse_modes(value) -> tuple[tuple[int, float, float], ...]:
    """PerturbedCircle modes: a list of [m, amp, phase], m an integer."""
    try:
        return tuple(
            (_number(m, "m", True), _number(a, "a"), _number(p, "p"))
            for m, a, p in value
        )
    except (TypeError, ValueError):
        raise ScenarioError(
            f"curve PerturbedCircle modes must be a list of [m, amp, phase], "
            f"got {value!r}"
        ) from None


def parse_curve(doc) -> CurveSpec:
    """Curve subdocument -> CurveSpec, strict on keys."""
    if not isinstance(doc, Mapping) or "kind" not in doc:
        raise ScenarioError("curve must be an object with a 'kind' key")
    kind = doc["kind"]
    if not isinstance(kind, str):
        raise ScenarioError(f"curve.kind must be a string, got {kind!r}")
    if kind not in _CURVE_KINDS:
        raise ScenarioError(
            f"unknown curve kind {kind!r}; expected one of "
            f"{', '.join(sorted(_CURVE_KINDS))}"
        )
    names = _curve_keys(_CURVE_KINDS[kind])
    _reject_unknown(doc, {"kind", "grid_n", *names}, f"curve {kind}")
    missing = sorted(set(names) - set(doc))
    if missing:
        raise ScenarioError(f"curve {kind} missing key(s): {', '.join(missing)}")
    kwargs = {}
    for name in names:
        value = doc[name]
        kwargs[name] = (
            _parse_modes(value) if name == "modes" else _number(value, f"curve.{name}")
        )
    if "grid_n" in doc:
        kwargs["grid_n"] = _number(doc["grid_n"], "curve.grid_n", True)
    return _CURVE_KINDS[kind](**kwargs)


def _parse_law(doc: Mapping) -> FlowLaw:
    _reject_unknown(doc, {"kind", "alpha"}, "law")
    try:
        kind = FlowKind(doc["kind"])
    except ValueError:
        raise ScenarioError(
            f"unknown law kind {doc['kind']!r}; expected one of "
            f"{', '.join(k.value for k in FlowKind)}"
        ) from None
    return FlowLaw(kind, _number(doc["alpha"], "law.alpha"))


def parse_scenario(text: str) -> Scenario:
    """JSON document -> Scenario with defaults filled, strict on keys."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from None
    if not isinstance(doc, Mapping):
        raise ScenarioError("scenario must be a JSON object")

    missing = []
    law_doc = doc.get("law")
    if not isinstance(law_doc, Mapping):
        missing += ["law.kind", "law.alpha"]
    else:
        missing += [f"law.{k}" for k in ("kind", "alpha") if k not in law_doc]
    missing += [k for k in ("curve", "t_end") if k not in doc]
    if missing:
        raise ScenarioError(f"missing required key(s): {', '.join(missing)}")

    _reject_unknown(doc, _TOP_KEYS, "scenario")
    law = _parse_law(law_doc)
    curve = parse_curve(doc["curve"])

    control_doc = doc.get("control", {})
    if not isinstance(control_doc, Mapping):
        raise ScenarioError("control must be an object")
    _reject_unknown(
        control_doc, {f.name for f in fields(StepControl)}, "control"
    )
    # blowup_k null is an infinite blowup_k: no blow-up guard
    control = StepControl(**{
        k: math.inf if k == "blowup_k" and v is None
        else _number(v, f"control.{k}", k == "max_steps")
        for k, v in control_doc.items()
    })

    t_end = _number(doc["t_end"], "t_end")
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ScenarioError(f"t_end must be positive and finite, got {t_end}")
    # cadence: every sample_every steps (default 25), or every sample_dt
    # of flow time, which gives the equal spacing the rate audit needs
    if "sample_every" in doc and "sample_dt" in doc:
        raise ScenarioError("give sample_every or sample_dt, not both")
    sample_dt = None
    sample_every = None
    if "sample_dt" in doc:
        sample_dt = _number(doc["sample_dt"], "sample_dt")
        if not (math.isfinite(sample_dt) and sample_dt > 0.0):
            raise ScenarioError(
                f"sample_dt must be positive and finite, got {sample_dt}"
            )
    else:
        sample_every = _number(doc.get("sample_every", 25), "sample_every", True)
        if sample_every < 1:
            raise ScenarioError(f"sample_every must be >= 1, got {sample_every}")
    snapshot_every = _number(doc.get("snapshot_every", 0), "snapshot_every", True)
    if snapshot_every < 0:
        raise ScenarioError(f"snapshot_every must be >= 0, got {snapshot_every}")

    audits = doc.get("audits", list(AUDIT_NAMES))
    if not (isinstance(audits, list) and all(isinstance(a, str) for a in audits)):
        raise ScenarioError(f"audits must be a list of audit names, got {audits!r}")
    audits = tuple(audits)
    unknown = sorted(set(audits) - set(AUDIT_NAMES))
    if unknown:
        raise ScenarioError(
            f"unknown audit name(s): {', '.join(unknown)}; "
            f"expected among {', '.join(AUDIT_NAMES)}"
        )

    output_dir = doc.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ScenarioError(f"output_dir must be a string, got {output_dir!r}")

    return Scenario(
        law=law,
        curve=curve,
        control=control,
        t_end=t_end,
        sample_every=sample_every,
        sample_dt=sample_dt,
        snapshot_every=snapshot_every,
        output_dir=output_dir,
        audits=audits,
    )


def scenario_to_document(scenario: Scenario) -> dict:
    """Scenario -> plain dict that parse_scenario maps back to an equal value."""
    curve = scenario.curve
    curve_doc: dict = {"kind": type(curve).__name__}
    for name in _curve_keys(type(curve)):
        value = getattr(curve, name)
        if name == "modes":
            value = [[m, x, y] for m, x, y in value]
        curve_doc[name] = value
    curve_doc["grid_n"] = curve.grid_n

    # control echoes only non-default entries; an infinite blowup_k as
    # null, which strict JSON can hold
    base = StepControl()
    control_doc = {
        f.name: getattr(scenario.control, f.name)
        for f in fields(StepControl)
        if getattr(scenario.control, f.name) != getattr(base, f.name)
    }
    if control_doc.get("blowup_k") == math.inf:
        control_doc["blowup_k"] = None

    doc = {
        "law": {"kind": scenario.law.kind.value, "alpha": scenario.law.alpha},
        "curve": curve_doc,
        "t_end": scenario.t_end,
        "snapshot_every": scenario.snapshot_every,
        "output_dir": scenario.output_dir,
        "audits": list(scenario.audits),
    }
    if scenario.sample_dt is None:
        doc["sample_every"] = scenario.sample_every
    else:
        doc["sample_dt"] = scenario.sample_dt
    if control_doc:
        doc["control"] = control_doc
    return doc


# ---------------------------------------------------------------------------
# emission


def emit(
    series: DiagnosticsSeries,
    snapshots: Sequence[Snapshot],
    out_dir: str | os.PathLike,
    *,
    scenario: Scenario,
    status: str,
    guard: str | None = None,
    stepping: dict | None = None,
) -> dict:
    """Write one run's outputs into out_dir and return the manifest.

    Files: scenario.json (the echoed configuration), series.csv, one
    curve_NNNN.json plus curve_NNNN.svg per snapshot, and manifest.json
    naming all of them with the final status, the guard that ended the
    run (None when no guard did) and the step counters in `stepping`
    (accepted steps, rejected attempts and the accepted dt range). Content
    depends only on the inputs, so identical runs emit byte-identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files: list[str] = []

    echo = scenario_to_document(scenario)
    (out / "scenario.json").write_text(
        json.dumps(echo, indent=2, sort_keys=True) + "\n"
    )
    files.append("scenario.json")

    (out / "series.csv").write_text(to_csv(series))
    files.append("series.csv")

    for snap in snapshots:
        name = f"curve_{snap.index:04d}"
        (out / f"{name}.json").write_text(
            json.dumps(snap.to_document(), indent=2) + "\n"
        )
        render_snapshot(snap, out / f"{name}.svg")
        files += [f"{name}.json", f"{name}.svg"]

    manifest = {
        "files": sorted(files),
        "guard": guard,
        "scenario": echo,
        "status": status,
        "stepping": stepping,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return manifest


def render_snapshot(snapshot: Snapshot, path: str | os.PathLike) -> None:
    """Standalone SVG: the curve with its limit circle overlaid.

    Written through a temporary file and os.replace, so a failure never
    leaves a partial SVG at the destination.
    """
    points = np.asarray(snapshot.points, dtype=float)
    if points.size == 0:
        raise ScenarioError("snapshot has no points to render")
    r = snapshot.limit_radius
    m = 1.15 * max(float(np.abs(points).max()), r)
    # SVG y runs downward; negate it so the plane reads normally
    d = "M " + " L ".join(f"{x:.10g},{-y:.10g}" for x, y in points) + " Z"
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{-m:.6g} {-m:.6g} {2 * m:.6g} {2 * m:.6g}" '
        f'width="480" height="480">\n'
        f'  <rect x="{-m:.6g}" y="{-m:.6g}" width="{2 * m:.6g}" '
        f'height="{2 * m:.6g}" fill="white"/>\n'
        f'  <circle cx="0" cy="0" r="{r:.10g}" fill="none" stroke="#999999" '
        f'stroke-width="{0.008 * m:.4g}" stroke-dasharray="{0.03 * m:.4g}"/>\n'
        f'  <path d="{d}" fill="none" stroke="#205e9e" '
        f'stroke-width="{0.012 * m:.4g}"/>\n'
        f"</svg>\n"
    )
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(svg)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def with_alpha(scenario: Scenario, alpha: float, output_dir: str) -> Scenario:
    """The same scenario at a different exponent, writing elsewhere."""
    return replace(
        scenario,
        law=FlowLaw(scenario.law.kind, alpha),
        output_dir=output_dir,
    )
