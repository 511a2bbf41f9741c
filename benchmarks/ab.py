"""Paired A/B of one benchmark workload: pairs of processes in lockstep.

    python3 benchmarks/ab.py --parent REV [--change REV] --workload W

Both revisions (the change defaults to HEAD) are extracted with ``git
archive`` (``pairs._extract``) into a temporary directory under ``TMPDIR``,
so uncommitted edits never run.  One child process per tree imports that
tree's own, unchanged ``perfbench/workloads.py`` and ``perfbench/tracing.py``
with the tree's ``src`` on ``PYTHONPATH`` and one BLAS thread, and sets the
workload up as ``perfbench/child.py`` does: ``tracing.install_outcomes``,
``build`` from the seed, and one warm-up pass, which is checked and kept as
the reference.  Then the two children run PASSES passes each in lockstep, one
process at a time: pass i runs the parent first when i is even and the
change first when it is odd.  Each pass records its wall time and the CPU
time of the child and of the pool workers it reaped (``resource.getrusage``),
and is checked against the child's warm-up pass and its operation count.
A round is one such pair of children; ROUNDS rounds each start a fresh pair.

Host speed drifts over minutes; both sides of a pair run within a second of
each other, so their ratio cancels most of the drift.  Two processes of one
tree can still differ by about 1% for as long as they live, so the interval
resamples rounds, not passes.  The report gives, for wall and CPU time, each
side's median, the median of all paired change/parent ratios, a 95% bootstrap
interval of that median over rounds, and each round's median ratio.  The
workload runs on seed ``pairs.SEED0``.  It is evidence next to ``pairs.py``,
whose ``claim_holds`` rule it does not replace.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from pairs import SEED0, _extract

ROUNDS = 8  # fresh pairs of children
PASSES = 5  # paired passes per round
BOOTSTRAP = 4000  # resamples of the rounds
BOOTSTRAP_SEED = 29


def _child(tree: str, workload_name: str, workdir: str) -> None:
    """Serve passes of one workload of tree: a line "pass" on stdin runs one,
    and one JSON line on stdout reports it; end of input ends the child."""
    reply = os.fdopen(os.dup(1), "w")  # the reports; anything else printed goes to stderr
    os.dup2(2, 1)
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    rec = tracing.Recorder()
    tracing.install_outcomes(rec, workload.ops_at)
    inputs = workload.build(SEED0, workdir)
    rec.pass_id = 0
    warmup = getattr(workload, "warmup", workload.run)
    reference = warmup(inputs)
    problems = workload.check(inputs, reference, None)
    print(json.dumps({"ready": True, "problems": problems}), file=reply, flush=True)
    for pass_id, line in enumerate(sys.stdin, start=1):
        if line.strip() != "pass":
            break
        rec.pass_id = pass_id
        before = [resource.getrusage(who) for who in (resource.RUSAGE_SELF,
                                                      resource.RUSAGE_CHILDREN)]
        start = time.perf_counter()
        out = workload.run(inputs)
        wall = time.perf_counter() - start
        after = [resource.getrusage(who) for who in (resource.RUSAGE_SELF,
                                                     resource.RUSAGE_CHILDREN)]
        cpu = sum(b.ru_utime + b.ru_stime - a.ru_utime - a.ru_stime
                  for a, b in zip(before, after))
        problems = workload.check(inputs, out, reference)
        seen = rec.counts.get(pass_id, {}).get("ops", 0)
        if seen != workload.ops(inputs):
            problems.append(f"{seen} operations seen, {workload.ops(inputs)} expected")
        print(json.dumps({"wall_s": wall, "cpu_s": cpu, "problems": problems}), file=reply,
              flush=True)


class _Side:
    """One child process, started on a tree."""

    def __init__(self, name: str, tree: str, workload: str, workdir: str):
        os.makedirs(workdir)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        env["TMPDIR"] = workdir
        self.name = name
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--child", tree, workload, workdir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
            cwd=tree)
        ready = self._read()
        if ready["problems"]:
            raise RuntimeError(f"{name}: warm-up pass failed its checks: {ready['problems']}")

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.name}: child exited with code {self.proc.wait()}")
        return json.loads(line)

    def one_pass(self) -> dict:
        self.proc.stdin.write("pass\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def _ratio_summary(parent: list[list[float]], change: list[list[float]]) -> dict:
    """Each side's median and the median change/parent ratio over all paired
    passes, with a percentile bootstrap interval (95%) that resamples rounds
    (lists of passes) and pools the passes of the rounds drawn."""
    rounds = [[c / p for p, c in zip(ps, cs)] for ps, cs in zip(parent, change)]
    ratios = [r for passes in rounds for r in passes]
    rng = random.Random(BOOTSTRAP_SEED)
    boot = sorted(statistics.median([r for passes in rng.choices(rounds, k=len(rounds))
                                     for r in passes])
                  for _ in range(BOOTSTRAP))
    return {"parent_median": statistics.median(x for ps in parent for x in ps),
            "change_median": statistics.median(x for cs in change for x in cs),
            "ratio_median": statistics.median(ratios),
            "ratio_ci95": [boot[int(0.025 * BOOTSTRAP)], boot[int(0.975 * BOOTSTRAP) - 1]],
            "round_medians": [statistics.median(passes) for passes in rounds],
            "passes_won": sum(r < 1.0 for r in ratios)}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "--child":
        _child(argv[1], argv[2], argv[3])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--change", default="HEAD", help="change revision (default: HEAD)")
    parser.add_argument("--workload", required=True,
                        choices=("noisy-sphere-coeff", "flat-density", "density-study"))
    args = parser.parse_args(argv)

    scratch = tempfile.mkdtemp(prefix="bench-ab-")
    sides = {}
    records = {"parent": [], "change": []}  # per side, one list of passes per round
    try:
        commits = {}
        for name, rev in (("parent", args.parent), ("change", args.change)):
            os.makedirs(os.path.join(scratch, name))
            commits[name] = _extract(rev, os.path.join(scratch, name))
        for r in range(ROUNDS):
            for name in ("parent", "change"):
                sides[name] = _Side(name, os.path.join(scratch, name, "tree"), args.workload,
                                    os.path.join(scratch, f"work-{name}-{r}"))
                records[name].append([])
            for i in range(r * PASSES, (r + 1) * PASSES):
                for name in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                    records[name][r].append(sides[name].one_pass())
                p, c = records["parent"][r][-1], records["change"][r][-1]
                print(f"round {r} pass {i:3d}: parent {p['wall_s']:.4f} s, change "
                      f"{c['wall_s']:.4f} s, ratio {c['wall_s'] / p['wall_s']:.3f}",
                      file=sys.stderr)
            for side in sides.values():
                side.close()
    finally:
        for side in sides.values():
            side.close()
        shutil.rmtree(scratch, ignore_errors=True)

    problems = [f"{name} round {r} pass {i}: {msg}" for name, rounds in records.items()
                for r, recs in enumerate(rounds) for i, rec in enumerate(recs)
                for msg in rec["problems"]]
    print(f"{args.workload}: parent {commits['parent'][:12]}, change {commits['change'][:12]}, "
          f"{ROUNDS} rounds of {PASSES} paired passes, seed {SEED0}")
    for metric in ("wall_s", "cpu_s"):
        s = _ratio_summary([[rec[metric] for rec in recs] for recs in records["parent"]],
                           [[rec[metric] for rec in recs] for recs in records["change"]])
        lo, hi = s["ratio_ci95"]
        print(f"{args.workload} {metric}: parent {s['parent_median']:.4f}, change "
              f"{s['change_median']:.4f}, ratio x{s['ratio_median']:.3f} [{lo:.3f}, {hi:.3f}], "
              f"change faster in {s['passes_won']}/{ROUNDS * PASSES}; round medians "
              + " ".join(f"{x:.3f}" for x in s["round_medians"]))
    for msg in problems:
        print(f"CHECK FAILED {msg}")
    return 1 if problems else 0

if __name__ == "__main__":
    sys.exit(main())
