"""The three workloads: inputs from the seed, one timed rep, per-rep checks.

`sampled` and `stiff` drive `run()` and `audit_series()` directly on the
2:1 ellipse under the length-preserving law; their inputs do not depend
on the seed (they are the fixed baseline cases, and `stiff` is compared
against a stored reference series). `scenario` goes through the command
line on a perturbed circle rotated by the seed and emits files.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from convexflow import FlowKind, FlowLaw, RunResult, RunStatus, cli, generate, run
from convexflow.diagnostics import DiagnosticsSeries, audit_series, rate_fd_pairs, to_csv
from convexflow.scenario import parse_curve

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# criterion 2 (conservation) and criterion 8 (matched-time scalars)
LENGTH_DRIFT_RTOL = 1e-6
MATCHED_RTOL = 1e-7


@dataclass
class Rep:
    """What one rep measured and which of its checks failed."""

    wall_s: float
    failures: list[str]
    result: RunResult | None = None
    emit_bytes: int = 0
    files: int = 0
    digest: str | None = None
    summary: str = ""


def rate_pair_count(series: DiagnosticsSeries) -> int:
    """Windows the rate audit compared (the same for L and A)."""
    return len(rate_fd_pairs(series, "L")[0])


# ---------------------------------------------------------------------------
# sampled / stiff: run() + audit_series() on the 2:1 ellipse


@dataclass(frozen=True)
class DirectWorkload:
    name: str
    grid_n: int
    t_end: float
    samples: int
    reference: str | None = None

    def inputs(self, seed: int) -> dict:
        return {
            "law": {"kind": "LP", "alpha": 1.0},
            "curve": {"kind": "Ellipse", "a": 2.0, "b": 1.0, "grid_n": self.grid_n},
            "t_end": self.t_end,
            "sample_dt": self.t_end / self.samples,
        }

    def first_call(self, doc: dict) -> dict:
        """Set-up: the first sample interval only."""
        return {
            "law": doc["law"],
            "curve": doc["curve"],
            "t_end": doc["sample_dt"],
            "sample_dt": doc["sample_dt"],
        }

    def rep(self, doc: dict, tracer, scratch: Path) -> Rep:
        law = FlowLaw(FlowKind(doc["law"]["kind"]), doc["law"]["alpha"])
        t0 = time.perf_counter()
        with tracer.span("rep"):
            kp0 = generate(parse_curve(doc["curve"]))
            with tracer.span("stepping.run"):
                result = run(law, kp0, t_end=doc["t_end"], sample_dt=doc["sample_dt"])
            with tracer.span("diagnostics.audit"):
                problems = audit_series(result.series)
        wall = time.perf_counter() - t0
        return Rep(wall, self.check(result, problems), result=result)

    def check(self, result: RunResult, problems: list[str]) -> list[str]:
        out = [f"audit: {msg}" for msg in problems]
        if result.status is not RunStatus.TIME_LIMIT:
            out.append(f"status {result.status.value}, expected TimeLimit")
        L = result.series.column("L")
        drift = float(np.abs(L - L[0]).max() / L[0])
        if drift > LENGTH_DRIFT_RTOL:
            out.append(f"length drifted {drift:.3e} relative (allowed 1e-6)")
        if self.reference is not None:
            reference = read_columns((REFERENCE_DIR / self.reference).read_text())
            current = read_columns(to_csv(result.series))
            out += matched_scalar_problems(current, reference, MATCHED_RTOL)
        return out


def read_columns(text: str) -> dict[str, np.ndarray]:
    """A series CSV as name -> column."""
    rows = list(csv.reader(io.StringIO(text)))
    body = np.array(rows[1:], dtype=float)
    return {name: body[:, j] for j, name in enumerate(rows[0])}


def matched_scalar_problems(current, reference, rtol: float) -> list[str]:
    """The test suite's assert_matched_scalars rule, as failure messages.

    Every scalar column must agree at matched sample times within rtol,
    relative to the larger magnitude floored at 1e-3 of the reference
    column's range (1e-6 L(0) for the closure defect).
    """
    if list(current) != list(reference):
        return ["series columns differ from the reference"]
    if not np.array_equal(current["t"], reference["t"]):
        return ["sample times differ from the reference"]
    out = []
    L0 = reference["L"][0]
    for name, a in reference.items():
        if name in ("t", "Q_ok"):
            continue
        b = current[name]
        if not np.array_equal(np.isnan(a), np.isnan(b)):
            out.append(f"{name}: NaN pattern differs from the reference")
            continue
        good = ~np.isnan(a)
        a, b = a[good], b[good]
        diff = np.abs(a - b)
        if not diff.any():
            continue
        floor = 1e-6 * L0 if name == "closure_defect" else 1e-3 * np.abs(a).max()
        mask = diff > 0.0
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
        worst = float((diff[mask] / denom[mask]).max())
        if worst >= rtol:
            out.append(f"{name} differs from the reference by {worst:.3e} (tol {rtol:.0e})")
    return out


# ---------------------------------------------------------------------------
# scenario: `convexflow run` on a seeded perturbed circle


@dataclass(frozen=True)
class ScenarioWorkload:
    name: str

    def inputs(self, seed: int) -> dict:
        """One fixed shape, rotated by an angle drawn from the seed.

        The shape follows generators.random_convex at seed 0: modes 2..6
        with sum (m^2-1)|a_m| = 0.5, so rho = u'' + u stays within
        [0.5, 1.5]. Independent draws per seed change the step count by
        about 10% between seeds, which would hide the changes the
        benchmark is meant to show; a rotation changes every input sample
        and emitted byte but not the amount of work.
        """
        base = np.random.default_rng(0)
        ms = np.arange(2, 7)
        shares = base.uniform(0.2, 1.0, ms.size)
        shares /= shares.sum()
        phases = base.uniform(0.0, 2.0 * math.pi, ms.size)
        rotation = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi)
        modes = [
            [int(m), float(0.5 * sh / (m * m - 1.0)),
             float((ph + m * rotation) % (2.0 * math.pi))]
            for m, sh, ph in zip(ms, shares, phases)
        ]
        return {
            "law": {"kind": "G1", "alpha": 2.0},
            "curve": {"kind": "PerturbedCircle", "r0": 1.0, "modes": modes, "grid_n": 256},
            "t_end": 0.12,
            "sample_every": 25,
            "snapshot_every": 1,
            "output_dir": "out",
        }

    def first_call(self, doc: dict) -> dict:
        """Set-up: the first sampling block of steps only."""
        return {
            "law": doc["law"],
            "curve": doc["curve"],
            "t_end": doc["t_end"],
            "sample_every": doc["sample_every"],
            "max_steps": doc["sample_every"],
        }

    def rep(self, doc: dict, tracer, scratch: Path) -> Rep:
        """One `convexflow run` in scratch, a fresh directory of this rep."""
        (scratch / "scenario.json").write_text(json.dumps(doc, indent=2) + "\n")
        summary = io.StringIO()
        cwd = os.getcwd()
        os.chdir(scratch)
        try:
            t0 = time.perf_counter()
            with tracer.span("rep"), redirect_stdout(summary):
                code = cli.main(["run", "scenario.json"])
            wall = time.perf_counter() - t0
        finally:
            os.chdir(cwd)
        rep = Rep(wall, [], summary=summary.getvalue().strip())
        if code != 0:
            rep.failures.append(f"exit code {code}: {rep.summary}")
        out = scratch / doc["output_dir"]
        present = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
        rep.files = len(present)
        rep.emit_bytes = sum((out / name).stat().st_size for name in present)
        digest = hashlib.sha256()
        for name in present:
            digest.update(name.encode() + b"\0" + (out / name).read_bytes())
        rep.digest = digest.hexdigest()
        if "manifest.json" not in present:
            rep.failures.append("no manifest.json emitted")
            return rep
        manifest = json.loads((out / "manifest.json").read_text())
        if sorted(manifest["files"] + ["manifest.json"]) != present:
            rep.failures.append("manifest.json does not name exactly the files present")
        if manifest["status"] != RunStatus.TIME_LIMIT.value:
            rep.failures.append(f"status {manifest['status']}, expected TimeLimit")
        return rep


# why each was chosen is recorded in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        DirectWorkload("sampled", grid_n=128, t_end=1.0, samples=200),
        DirectWorkload(
            "stiff", grid_n=512, t_end=0.3, samples=80, reference="stiff_series.csv"
        ),
        ScenarioWorkload("scenario"),
    )
}
