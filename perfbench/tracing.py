"""In-memory spans around convexflow's layer entry points.

Spans are recorded from outside the package: the entry points are wrapped
where their callers look them up, for the duration of one traced rep, and
restored afterwards. `cli` imported its collaborators by name, so those are
wrapped as `convexflow.cli.<name>`; the geometry helpers are looked up as
module attributes, the diagnostics functionals as module globals, and
`collect` on the collector class.
"""

from __future__ import annotations

import contextlib
import functools
import time


def layer_targets():
    """(module or class, attribute, span name) for every wrapped entry point."""
    from convexflow import cli, diagnostics, geometry

    return (
        (cli, "run", "stepping.run"),
        (cli, "parse_scenario", "scenario.parse"),
        (cli, "snapshot_of", "scenario.snapshot"),
        (cli, "emit", "scenario.emit"),
        (cli, "audit_series", "diagnostics.audit"),
        (geometry, "inradius_outradius", "geometry.radii"),
        (geometry, "_support_pipeline", "geometry.support"),
        (diagnostics, "rate_formulas", "diagnostics.rates"),
        (diagnostics, "tso_quantity", "diagnostics.tso"),
        (diagnostics, "gradient_functional", "diagnostics.psi"),
        (diagnostics, "lower_bound_functional", "diagnostics.phi"),
        (diagnostics, "entropy", "diagnostics.entropy"),
        (diagnostics, "inequality_audit", "diagnostics.margins"),
        (diagnostics.DiagnosticsCollector, "collect", "diagnostics.collect"),
    )


# per-layer metric -> span name; each is the summed inclusive duration of
# its spans, except the kernel, which is the self time of run()
INCLUSIVE_LAYERS = {
    "geometry.radii_s": "geometry.radii",
    "geometry.support_s": "geometry.support",
    "diagnostics.collect_s": "diagnostics.collect",
    "diagnostics.tso_s": "diagnostics.tso",
    "diagnostics.psi_s": "diagnostics.psi",
    "diagnostics.phi_s": "diagnostics.phi",
    "diagnostics.margins_s": "diagnostics.margins",
    "diagnostics.entropy_s": "diagnostics.entropy",
    "diagnostics.rates_s": "diagnostics.rates",
    "diagnostics.audit_s": "diagnostics.audit",
    "scenario.parse_s": "scenario.parse",
    "scenario.snapshot_s": "scenario.snapshot",
    "scenario.emit_s": "scenario.emit",
}


class Tracer:
    """Spans as [rep, name, start, end, parent index], kept until written.

    Spans of one rep share its rep number; parent is the index of the
    enclosing span, None at the top. The RunResult of the latest wrapped
    run() call is kept in `run_result`, for reps that reach run() only
    through the command line.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.rep = 0
        self.run_result = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = [self.rep, name, time.perf_counter(), None, parent]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if name == "stepping.run":
                self.run_result = result
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer entry point for the duration of the block."""
        saved = []
        try:
            for owner, attr, name in layer_targets():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def to_documents(self) -> list[dict]:
        return [
            {"rep": rep, "name": name, "start": start, "end": end, "parent": parent}
            for rep, name, start, end, parent in self.spans
        ]


class NullTracer:
    """Stands in for a Tracer on untraced reps; records nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()


def layer_times(spans: list[list], rep: int) -> dict[str, float]:
    """Per-layer seconds of one rep (see INCLUSIVE_LAYERS)."""
    by_name = {name: metric for metric, name in INCLUSIVE_LAYERS.items()}
    totals = dict.fromkeys(INCLUSIVE_LAYERS, 0.0)
    child_time: dict[int, float] = {}
    for s in spans:
        if s[0] == rep and s[4] is not None:
            child_time[s[4]] = child_time.get(s[4], 0.0) + (s[3] - s[2])
    kernel = 0.0
    for i, s in enumerate(spans):
        if s[0] != rep:
            continue
        duration = s[3] - s[2]
        if s[1] in by_name:
            totals[by_name[s[1]]] += duration
        if s[1] == "stepping.run":
            kernel += duration - child_time.get(i, 0.0)
    totals["stepping.kernel_s"] = kernel
    return totals


def span_durations(spans: list[list], name: str) -> list[float]:
    return [s[3] - s[2] for s in spans if s[1] == name]
