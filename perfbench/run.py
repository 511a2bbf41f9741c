"""Benchmark for decompound: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from anywhere; it uses the package sources under ``src/`` next to
this directory and fails (exit 2) when they are missing.  Workloads are
``noisy-sphere-coeff``, ``flat-density`` and ``density-study`` (see
README.md).  Each run:

* times set-up (importing decompound and building the workload's configs,
  laws and radial tables) in six fresh processes, three before and three
  after the workload, and keeps the median;
* runs the workload in one more fresh process with one BLAS thread, which
  discards a warm-up pass and then repeats identical passes for `seconds`,
  while this process samples the resident memory of that process and every
  pool worker it starts;
* checks every pass and prints a summary on stderr, then one detail line
  and, last, the result line on stdout.

With ``--trace 0`` the result holds the end-to-end metrics: ``wall_s``
(median pass time), ``peak_rss_mb`` (median over passes of the process
tree's peak resident memory), ``setup_s`` and ``ok_frac`` (operations that
did not fail over operations attempted).  With ``--trace 1`` it holds the
per-layer metrics from spans recorded around calls between modules.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("noisy-sphere-coeff", "flat-density", "density-study")
# Half the set-up probes run before the workload and half after it, so that
# their median spans the run rather than one moment of the host's load.
SETUP_PROBES = 6
# One BLAS thread: the study's two pool workers then fill the two CPUs of the
# reference machine, and pass times spread far less than with BLAS's default.
BLAS_THREADS = "1"
BUDGET_S = 170.0
SAMPLE_S = 0.01
PAGE = os.sysconf("SC_PAGE_SIZE")


def _tree_rss(pid: int) -> int:
    """Resident bytes of pid and all its descendants (0 once it is gone)."""
    total = 0
    todo = [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/statm") as fh:
                total += int(fh.read().split()[1]) * PAGE
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total


class _Sampler(threading.Thread):
    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid = pid
        self.samples = []
        self.done = threading.Event()

    def run(self):
        while not self.done.wait(SAMPLE_S):
            self.samples.append((time.perf_counter(), _tree_rss(self.pid)))


class BenchError(RuntimeError):
    pass


def _child(args, env, deadline, sample=False):
    """Run child.py to completion; return its JSON result (and memory samples)."""
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), *args],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            start_new_session=True)
    sampler = _Sampler(proc.pid) if sample else None
    if sampler:
        sampler.start()
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"child {args[0]} ran past the time budget") from None
    finally:
        if sampler:
            sampler.done.set()
            sampler.join()
        # pool workers left behind by a crash share the child's session
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} exited with code {proc.returncode}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    return (result, sampler.samples) if sample else result


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _peak_mb(samples, passes):
    """Median over passes of the largest tree RSS sampled during each pass."""
    peaks = []
    for p in passes:
        inside = [rss for t, rss in samples if p["start"] <= t <= p["end"]]
        if inside:
            peaks.append(max(inside) / 1e6)
    if not peaks:
        raise BenchError("no memory sample fell inside a measured pass")
    return statistics.median(peaks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "decompound", "__init__.py")):
        print(f"error: no decompound sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["TMPDIR"] = workdir
    common = [args.workload, str(args.seed), workdir]
    try:
        probes = [_child(["setup", *common], env, deadline)
                  for _ in range(SETUP_PROBES // 2)]
        source = os.path.realpath(os.path.join(SRC, "decompound"))
        if any(os.path.realpath(p["decompound"]) != source for p in probes):
            raise BenchError(f"decompound was imported from {probes[0]['decompound']}")
        result, samples = _child(["measure", *common, str(args.seconds), str(args.trace)],
                                 env, deadline, sample=True)
        probes += [_child(["setup", *common], env, deadline)
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run is still using it
            pass

    passes = result["passes"]
    plain = [p for p in passes[1:] if not p["traced"]]
    walls = [p["end"] - p["start"] for p in plain]
    setups = [p["import_s"] + p["law_build_s"] for p in probes]
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [f"pass {p['id']}: {msg}" for p in passes for msg in p["problems"]]

    if args.trace:
        traced = [p["end"] - p["start"] for p in passes[1:] if p["traced"]]
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in result["layers"].items()}
        metrics["setup.import_s"] = {
            "value": statistics.median(p["import_s"] for p in probes), "unit": "s"}
        metrics["setup.law_build_s"] = {
            "value": statistics.median(p["law_build_s"] for p in probes), "unit": "s"}
        metrics["trace.overhead_frac"] = {
            "value": statistics.median(traced) / statistics.median(walls) - 1.0,
            "unit": "frac"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": _peak_mb(samples, plain), "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "frac"},
        }

    q1, q3 = _quartiles(walls)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": result["machine"],
        "passes": len(passes) - 1, "untraced_passes": len(walls),
        "warmup_s": passes[0]["end"] - passes[0]["start"],
        "wall_s": {"median": statistics.median(walls), "q1": q1, "q3": q3,
                   "values": walls},
        "setup_s": setups, "fail_frac": failed / attempted,
        "exact_counts": result.get("exact"), "problems": problems,
    }
    print(f"{args.workload} seed {args.seed}: {len(walls)} untraced passes "
          f"(+1 warm-up), wall_s median {detail['wall_s']['median']:.4f} s "
          f"[q1 {q1:.4f}, q3 {q3:.4f}]", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(f"  {'fail_frac':40s} {failed / attempted:.6g} frac ({failed}/{attempted})",
          file=sys.stderr)
    machine = result["machine"]
    print(f"  machine: {machine['cpu_model']}, nproc {machine['nproc']}, "
          f"python {machine['python']}, numpy {machine['numpy']}, scipy "
          f"{machine['scipy']}, {machine['blas']}, BLAS threads "
          f"{machine['blas_threads']}", file=sys.stderr)
    for msg in problems:
        print(f"  CHECK FAILED {msg}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_mb"):
        return "MB"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
