"""convexflow benchmark: one workload in one process, one JSON result line.

    python3 perfbench/run.py --workload sampled --seed 0 --seconds 25 --trace 0

Runs from the root of a source checkout and imports convexflow from its
`src/`. Reps run one at a time (a closed loop) until --seconds have passed,
and each rep's outputs are checked. With --trace 0 the last line of
standard output carries the end-to-end metrics of BENCHMARK.json (median
rep wall time, cold set-up time, peak RSS, share of reps passing); with
--trace 1 untraced and traced reps alternate and it carries the per-layer
metrics taken from the spans. The full record with the environment, and
the spans, go to `.perfbench_out/`. BLAS is pinned to one thread before
numpy loads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPS = 5
SETUP_TIMEOUT_S = 120
# untraced reps per run at the least, even past --seconds, so that the
# median of the slowest workload still rests on three
MIN_REPS = 3


def prepare() -> str | None:
    """Pin BLAS threads and import convexflow from SRC; an error or None."""
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    if not (SRC / "convexflow" / "__init__.py").is_file():
        return f"no convexflow sources under {SRC}"
    sys.path.insert(0, str(SRC))
    import convexflow

    if Path(convexflow.__file__).resolve().parent.parent != SRC:
        return f"convexflow imported from {convexflow.__file__}, not from {SRC}"
    return None


def setup_seconds(spec: dict) -> float:
    """Wall time of one fresh interpreter running the workload's first call."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(PROBE), json.dumps(spec)],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return wall


def run_reps(workload, doc: dict, seconds: float, tracer):
    """Closed-loop reps until `seconds` pass; with a tracer, pairs of
    (untraced, traced) reps. Returns [(traced, scratch name, Rep)]."""
    from tracing import NullTracer

    tmp_root = OUT / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    modes = (False, True) if tracer else (False,)
    min_reps = len(modes) if tracer else MIN_REPS
    reps = []
    first_digest = None
    start = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - start < seconds:
        for traced in modes:
            gc.collect()
            scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=tmp_root))
            try:
                if traced:
                    tracer.rep, tracer.run_result = len(reps), None
                    with tracer.installed():
                        rep = workload.rep(doc, tracer, scratch)
                    rep.result = rep.result or tracer.run_result
                else:
                    rep = workload.rep(doc, NullTracer(), scratch)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            if rep.digest is not None:
                first_digest = first_digest or rep.digest
                if rep.digest != first_digest:
                    rep.failures.append("emitted files differ from the first rep's")
            reps.append((traced, scratch.name, rep))
    return reps


def layer_metrics(reps, tracer) -> dict[str, float]:
    """Per-layer figures: medians over the traced reps, counts of the last."""
    from tracing import layer_times, span_durations
    from workloads import rate_pair_count

    traced = [(i, rep) for i, (was_traced, _, rep) in enumerate(reps) if was_traced]
    times = [layer_times(tracer.spans, i) for i, _ in traced]
    metrics = {name: statistics.median(t[name] for t in times) for name in times[0]}
    metrics["stepping.steps_per_s"] = statistics.median(
        rep.result.steps / t["stepping.kernel_s"] for (_, rep), t in zip(traced, times)
    )
    collect_ms = [1e3 * d for d in span_durations(tracer.spans, "diagnostics.collect")]
    metrics["diagnostics.collect_ms.p50"] = statistics.median(collect_ms)
    metrics["diagnostics.collect_ms.p90"] = statistics.quantiles(
        collect_ms, n=10, method="inclusive"
    )[8]
    last = traced[-1][1]
    metrics["stepping.steps"] = last.result.steps
    metrics["diagnostics.samples"] = len(last.result.series)
    metrics["diagnostics.rate_pairs"] = rate_pair_count(last.result.series)
    metrics["scenario.emit_bytes"] = last.emit_bytes
    metrics["scenario.files"] = last.files
    metrics["trace.overhead_s"] = statistics.median(
        rep.wall_s for _, rep in traced
    ) - statistics.median(rep.wall_s for was_traced, _, rep in reps if not was_traced)
    return metrics


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np
    import scipy

    from setup_probe import run_spec
    from tracing import Tracer

    doc = workload.inputs(seed)
    first = workload.first_call(doc)
    setup = [] if trace else [setup_seconds(first) for _ in range(SETUP_REPS)]
    backend = run_spec(first).backend  # warm caches before timing

    tracer = Tracer() if trace else None
    reps = run_reps(workload, doc, seconds, tracer)
    walls = [rep.wall_s for traced, _, rep in reps if not traced]
    attempted = len(reps)
    failed = sum(1 for _, _, rep in reps if rep.failures)

    if trace:
        metrics = layer_metrics(reps, tracer)
        OUT.joinpath(f"{workload.name}-seed{seed}-spans.json").write_text(
            json.dumps(tracer.to_documents()) + "\n"
        )
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_ratio": (attempted - failed) / attempted,
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}

    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "inputs": doc,
        "environment": {
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "backend": backend,
            "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        },
        "setup_s_samples": setup,
        "wall_s_reps": len(walls),
        "reps": [
            {"wall_s": rep.wall_s, "traced": traced, "scratch": scratch,
             "summary": rep.summary, "failures": rep.failures}
            for traced, scratch, rep in reps
        ],
        "metrics": metrics,
    }
    OUT.joinpath(f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    for _, scratch, rep in reps:
        for msg in rep.failures[:3]:
            print(f"FAIL {scratch}: {msg}")
        if len(rep.failures) > 3:
            print(f"FAIL {scratch}: ... {len(rep.failures) - 3} more in the record")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"wall_s is the median of {len(walls)} untraced reps; "
          f"{failed} of {attempted} reps failed")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    error = prepare()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
