"""Benchmark for the xlembed pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from ``--seed``, builds the start state
several times (``setup_s`` is the median), runs one untimed warm-up
iteration, then runs the workload in a closed loop for ``--seconds`` seconds
in this one process, checking the outputs as it goes. Human-readable figures
go to stdout first; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the time after the
warm-up is split into an untraced and a traced half and the metrics are the
per-layer ones from the traced half, plus the tracing overhead. The metric
names and units are read from ``BENCHMARK.json``. Everything is also written
to ``perfbench/out/``.

The library is imported from ``src/`` beside this directory; the run fails
without printing a result when it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# An untraced run sets up at least SETUPS times and for at least SETUP_MIN_S
# seconds, so a set-up of a few milliseconds still gets a steady median.
SETUPS = 3
SETUP_MIN_S = 1.0

# How each per-layer metric of a --trace 1 run is computed, per iteration of
# the traced half: name -> (span, how, where). "total" is busy time, "self"
# is busy time minus the hooked calls inside it, "count" is a counter
# recorded at that span. "where" names the workloads on which the metric is
# non-zero. Names and units are those BENCHMARK.json lists; a listed metric
# that is not here, or whose hook is gone, is reported as absent.
PER_LAYER = {
    "corpus.sample_s": ("corpus.sample", "total", "train"),
    "corpus.sampled_positions": ("corpus.sample", "count", "train"),
    "embeddings.compose_fwd_s": ("embeddings.compose_fwd", "total", "train"),
    "embeddings.compose_bwd_s": ("embeddings.compose_bwd", "total", "train"),
    "embeddings.positions": ("embeddings.compose_fwd", "count", "train"),
    "objective.scatter_s": ("objective.scatter", "total", "train"),
    "objective.coalesce_s": ("objective.coalesce", "total", "train"),
    "objective.scatter_rows": ("objective.scatter", "count", "train"),
    "objective.touched_rows": ("objective.coalesce", "count", "train"),
    "objective.coalesce_ratio": ("objective.coalesce", "touched / scattered rows", "train"),
    "trainer.step_s": ("trainer.step", "total", "train"),
    "trainer.step_self_s": ("trainer.step", "self", "train"),
    "trainer.update_s": ("trainer.update", "total", "train"),
    "trainer.rows_updated": ("trainer.update", "count", "train"),
    "corpus.filter_s": ("corpus.filter", "total", "pipeline"),
    "corpus.vocab_s": ("corpus.vocab", "total", "pipeline"),
    "corpus.encode_s": ("corpus.encode", "total", "pipeline"),
    "corpus.ids_write_s": ("corpus.ids_write", "total", "pipeline"),
    "corpus.ids_read_s": ("corpus.ids_read", "total", "pipeline"),
    "trainer.checkpoint_write_s": ("trainer.checkpoint_write", "total", "pipeline"),
    "trainer.checkpoint_read_s": ("trainer.checkpoint_read", "total", "pipeline"),
    "embeddings.vec_write_s": ("embeddings.vec_write", "total", "pipeline"),
    "embeddings.vec_read_s": ("embeddings.vec_read", "total", "pipeline"),
    "embeddings.vec_bytes": ("embeddings.vec_write", "count", "pipeline"),
    "evaluate.nn_s": ("evaluate.nn", "total", "pipeline"),
    "evaluate.represent_s": ("evaluate.represent", "total", "pipeline"),
    "evaluate.perceptron_s": ("evaluate.perceptron", "total", "pipeline"),
    # traced over untraced median iteration time, minus 1; of either sign
    "trace_overhead_share": (None, "overhead", "all"),
}


def declared() -> dict:
    """BENCHMARK.json's metrics: kind -> {name: unit}."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in bench[kind]} for kind in ("end_to_end", "per_layer")}


def bootstrap() -> None:
    """Cap BLAS threads at the usable cores (before numpy loads) and put the
    checkout's ``src/`` first on the import path."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cores:
            os.environ[var] = str(cores)
    src = ROOT / "src"
    if not (src / "xlembed" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no xlembed package under {src}")
    sys.path[:0] = [str(src), str(HERE)]


def environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def _median(values) -> float:
    return float(statistics.median(values))


def _layer_values(tracer, iterations: int, overhead: float) -> dict:
    """Per-layer values by name; a metric whose hook or counter is gone is
    left out."""
    sums = {"total": tracer.totals(), "self": tracer.self_times()}
    values = {}
    for name, (span, how, _) in PER_LAYER.items():
        if how in sums and span in tracer.present:
            values[name] = sums[how].get(span, 0.0) / iterations
        elif how == "count" and span in tracer.present and f"count:{span}" not in tracer.absent:
            values[name] = tracer.counts.get(name, 0.0) / iterations
    if "objective.scatter_rows" in values and "objective.touched_rows" in values:
        scattered = values["objective.scatter_rows"]
        values["objective.coalesce_ratio"] = values["objective.touched_rows"] / scattered if scattered else 0.0
    values["trace_overhead_share"] = overhead
    return values


def measure(workload_name: str, seed: int, seconds: float, trace: bool, size=None):
    """Run one workload. Returns the full record, whose ``result`` is the
    object printed as the last line, and the tracer of a traced run."""
    import workloads
    from spans import Tracer

    size = size or workloads.FULL
    units = declared()["per_layer" if trace else "end_to_end"]
    workload = workloads.WORKLOADS[workload_name]()
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload.generate(seed, size)
        setup_s = []
        while not setup_s or not trace and (len(setup_s) < SETUPS or sum(setup_s) < SETUP_MIN_S):
            start = time.perf_counter()
            workload.setup(workdir)
            setup_s.append(time.perf_counter() - start)

        # the warm-up precedes both halves of a traced run, so both are warm
        rec = workloads.Record()
        workload.warm_up(rec)
        workload.run(seconds / 2 if trace else seconds, rec)
        tracer = None
        if trace:
            traced = workloads.Record()
            tracer = Tracer()
            tracer.install()
            try:
                workload.run(seconds / 2, traced)
            finally:
                tracer.uninstall()
            overhead = _median(traced.iter_s) / _median(rec.iter_s) - 1.0
            values = _layer_values(tracer, traced.iterations, overhead)
            rec.attempted += traced.attempted
            rec.failed += traced.failed
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not trace:
            values = {"setup_s": _median(setup_s), "iter_s": _median(rec.iter_s), "peak_rss_mb": peak_rss_mb}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values}
    absent = [name for name in units if name not in values] + (tracer.absent if tracer else [])
    figures = {name: _median(v) for name, v in rec.figures.items() if name != "nn_query_ms"}
    if "nn_query_ms" in rec.figures:
        q = rec.figures["nn_query_ms"]
        figures["nn_query_ms_p50"] = _median(q)
        figures["nn_query_ms_p90"] = float(statistics.quantiles(q, n=10)[-1]) if len(q) > 1 else q[0]
        figures["nn_queries"] = len(q)
    if "samples_per_step" in rec.details:
        figures["train_samples_per_s"] = rec.details["samples_per_step"] / _median(rec.iter_s)
    figures["peak_rss_mb"] = peak_rss_mb
    figures["failed_share"] = rec.failed / rec.attempted
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }
    return {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "setup_s": setup_s,
        "iter_s": [float(t) for t in rec.iter_s],
        "figures": figures,
        "details": rec.details,
        "absent": absent,
        "result": result,
    }, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    record, tracer = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=float) + "\n", encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}, {len(record['iter_s'])} timed iterations")
    for name, value in record["figures"].items():
        print(f"  {name} = {value:.6g}")
    for name, m in record["result"]["metrics"].items():
        print(f"  metric {name} = {m['value']:.6g} {m['unit']}")
    for name in record["absent"]:
        print(f"  absent: {name}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
