"""One fresh process of the benchmark: a set-up probe or a measured workload.

    python3 perfbench/child.py setup   <workload> <seed> <workdir>
    python3 perfbench/child.py measure <workload> <seed> <workdir> <seconds> <trace>

`run.py` starts it with decompound's sources on PYTHONPATH and the BLAS
thread count fixed in the environment.  The last line of standard output is
one JSON object: the probe's set-up times, or every pass of the workload
with its start and end on the system-wide monotonic clock.

A measured run makes one warm-up pass, which it checks and keeps as the
reference for later passes but does not time, then passes until `seconds`
have gone by.  With trace 1 the passes alternate untraced and traced (at
least two of each), so one run gives both the per-layer figures and the
tracing overhead.
"""
import json
import sys
import time

T_START = time.perf_counter()
import decompound  # noqa: E402  (the set-up probe times this import)

T_IMPORTED = time.perf_counter()

import os  # noqa: E402
import traceback  # noqa: E402

import tracing  # noqa: E402
from machine import machine_info  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _setup(workload, seed, workdir):
    t0 = time.perf_counter()
    workload.build(seed, workdir)
    t1 = time.perf_counter()
    return {"import_s": T_IMPORTED - T_START, "law_build_s": t1 - t0,
            "decompound": os.path.dirname(decompound.__file__)}


def _one_pass(workload, rec, inputs, pass_id, traced, reference, warmup=False):
    rec.pass_id = pass_id
    rec.tracing = traced
    run = getattr(workload, "warmup", workload.run) if warmup else workload.run
    problems = []
    out = None
    start = time.perf_counter()
    try:
        out = run(inputs)
    except Exception:  # a pass that raises fails; the run goes on
        problems.append(traceback.format_exc(limit=4))
    end = time.perf_counter()
    rec.tracing = False
    if out is not None:
        try:
            problems += workload.check(inputs, out, reference)
        except Exception:
            problems.append(traceback.format_exc(limit=4))
    counts = rec.counts.get(pass_id, {})
    ops = workload.ops(inputs)
    if out is not None and counts.get("ops", 0) != ops:
        problems.append(f"{counts.get('ops', 0)} operations seen, {ops} expected")
    failed = ops if problems else counts.get("ops_failed", 0)
    record = {"id": pass_id, "warmup": warmup, "traced": traced, "start": start,
              "end": end, "ops": ops, "failed": failed, "problems": problems}
    return record, out


def _measure(workload, seed, workdir, seconds, trace):
    rec = tracing.Recorder()
    tracing.install_outcomes(rec, workload.ops_at)
    if trace:
        tracing.install()
    inputs = workload.build(seed, workdir)
    first, reference = _one_pass(workload, rec, inputs, 0, False, None, warmup=True)
    passes = [first]
    begin = time.perf_counter()
    while True:
        measured = passes[1:]
        n_traced = sum(p["traced"] for p in measured)
        enough = time.perf_counter() - begin >= seconds and measured
        if trace:
            enough = enough and n_traced >= 2 and len(measured) - n_traced >= 2
        if enough:
            break
        traced = trace and len(measured) % 2 == 1
        record, _ = _one_pass(workload, rec, inputs, len(passes), traced, reference)
        passes.append(record)
    result = {"passes": passes, "machine": machine_info()}
    if trace:
        ids = [p["id"] for p in passes if p["traced"]]
        layers, exact = tracing.layer_metrics(rec, ids)
        if any(e != exact[0] for e in exact):
            passes[-1]["problems"].append(f"exact counts differ across traced passes: {exact}")
        result.update(layers=layers, exact=exact)
    return result


def main(argv):
    mode, name, seed, workdir = argv[0], argv[1], int(argv[2]), argv[3]
    workload = WORKLOADS[name]
    if mode == "setup":
        result = _setup(workload, seed, workdir)
    else:
        result = _measure(workload, seed, workdir, float(argv[4]), argv[5] == "1")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
