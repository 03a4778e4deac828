"""Smoke check of the benchmark at a tiny size, so a broken harness fails fast.

    python3 perfbench/smoke.py

Runs every workload listed in ``BENCHMARK.json`` once untraced and once
traced on tiny inputs (a 3,000-word vocabulary, batches of 500) and exits
non-zero unless every run is correct, reports exactly the metrics
``BENCHMARK.json`` lists, and gives a non-zero value for each per-layer
metric on the workloads ``run.PER_LAYER`` assigns it to. It also checks that
the train workloads' step loop reproduces ``trainer.train`` bit for bit. The
environment block is printed first and written to ``perfbench/out/smoke.json``.
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import astuple, replace

import run


def check(workload: str, trace: bool, record: dict) -> list[str]:
    result = record["result"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    expected = run.declared()["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != set(expected):
        errors.append(f"metrics differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ set(expected))}")
    kind = workload.split("-")[0]
    for name, m in result["metrics"].items():
        where = run.PER_LAYER[name][2] if trace else "all"
        # the tracing overhead is a small difference of two timings, of either sign
        if where in (kind, "all") and name != "trace_overhead_share" and not m["value"] > 0:
            errors.append(f"{name} = {m['value']}, expected > 0")
    return [f"{workload} trace={int(trace)}: {e}" for e in errors]


def check_step_loop(workload: str) -> list[str]:
    """The benchmark drives train steps itself; its loss trajectory must be
    the one ``trainer.train`` produces from the same data and config."""
    import workloads
    from xlembed import trainer

    w = workloads.WORKLOADS[workload]()
    w.generate(1, workloads.TINY)
    workdir = run.OUT / "smoke-steps"
    try:
        w.setup(workdir)
        rec = workloads.Record()
        w.warm_up(rec)
        w.run(0.0, rec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    steps = len(rec.details["loss_trajectory"])
    # at this size an epoch is one step
    reference = trainer.train(w.data, replace(w.config, epochs=steps))
    if rec.details["loss_trajectory"] != [astuple(b) for _, _, b in reference.history]:
        return [f"{workload}: the benchmark's {steps} steps differ from trainer.train's"]
    return []


def main() -> int:
    run.bootstrap()
    import workloads

    env = run.environment()
    print(json.dumps(env))
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = []
    for w in bench["workloads"]:
        for trace in (False, True):
            record, _ = run.measure(w["name"], 1, 0.2, trace, size=workloads.TINY)
            errors += check(w["name"], trace, record)
            print(f"{w['name']} trace={int(trace)}: {json.dumps(record['result']['metrics'])[:120]}...")
        if w["name"].startswith("train-"):
            errors += check_step_loop(w["name"])
    run.OUT.mkdir(exist_ok=True)
    (run.OUT / "smoke.json").write_text(json.dumps({"environment": env, "errors": errors}, indent=1) + "\n")
    for e in errors:
        print(f"smoke: FAIL {e}", file=sys.stderr)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
