"""Parent/change evidence for the benchmark, in one JSON file.

    python3 benchmarks/pairs.py --parent REV --tag NAME [--change REV] [--pairs N]
        [--workload W ...]

Both revisions (the change defaults to HEAD) are extracted with ``git
archive`` into a temporary directory (under ``TMPDIR``), so uncommitted
edits never run; ``extracted`` does this for every script here.  Nothing
else should run on the machine meanwhile.

Pairs: each side runs its own ``perfbench/run.py`` for the ``run_seconds``
of BENCHMARK.json.  Pair i uses seed ``SEED0 + i`` on both sides and runs
the parent first when i is even; every workload runs once per side and pair,
untraced.  Then TRACED_PAIRS pairs run traced, on the next seeds.

Rounds: then, per workload, ROUNDS rounds each start a fresh child per tree
(``_child``), which sets the workload up from the tree's own ``perfbench``
on seed ``SEED0`` with one BLAS thread and makes one warm-up pass, the
reference.  The two children run PASSES passes each in lockstep; pass i,
counted over the rounds, runs the parent first when i is even.  A pass
records the wall and CPU time (of the child and its reaped pool workers) of
``workload.run`` alone; it and the warm-up pass are checked against the
reference and the operation count.  Both sides of a paired pass run within a
second of each other, so their ratio cancels most host drift; two processes
of one tree can still differ by about 1% while they live, so the interval
resamples rounds, not passes.

``BENCH_<tag>.json``, at the root of this checkout, holds per workload:

- ``end_to_end``: each end-to-end metric's per-side median, quartiles and
  values, the pairs won and lost by the change (by the metric's direction in
  BENCHMARK.json; ties count for neither), its bound, and ``claim_holds``:
  there are at least MIN_PAIRS pairs, the change won at least nine tenths of
  them and its median beats the parent's by more than the parent's
  interquartile range;
- ``per_layer``: the same fields, from the traced runs;
- ``paired``: for the rounds' ``wall_s`` and ``cpu_s``, each side's median,
  the median change/parent ratio over all passes and its 95% bootstrap
  interval over BOOTSTRAP resamples of the rounds, each round's median ratio
  and the passes won; and every failed check;

and the count of correct runs, the machine and the method.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED0 = 1000  # seed of the first pair, and of every round
TRACED_PAIRS = 3
MIN_PAIRS = 10  # fewer pairs never grant a claim
ROUNDS = 8  # fresh pairs of children per workload
PASSES = 5  # paired passes per round
BOOTSTRAP = 4000  # resamples of the rounds
BOOTSTRAP_SEED = 29


def revision_parser(doc: str) -> argparse.ArgumentParser:
    """A parser for --parent and --change (default HEAD), described by doc's first line."""
    parser = argparse.ArgumentParser(description=doc.split("\n")[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--change", default="HEAD", help="change revision (default: HEAD)")
    return parser


def _extract(rev: str, tree: str) -> str:
    """Write the tree of rev into tree with git archive; return its commit id."""
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", commit],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, filter="data")
    return commit


@contextlib.contextmanager
def extracted(parent: str, change: str, prefix: str):
    """Extract both revisions into a fresh temporary directory, removed on
    exit; yield it and, by side, the commit ids and the trees (<dir>/<side>/tree)."""
    scratch = tempfile.mkdtemp(prefix=prefix)
    try:
        trees = {side: os.path.join(scratch, side, "tree") for side in ("parent", "change")}
        commits = {side: _extract(rev, trees[side])
                   for side, rev in (("parent", parent), ("change", change))}
        yield scratch, commits, trees
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def child_env(tree: str, **extra: str) -> dict:
    """The environment of a child that runs tree's own code: PYTHONPATH is tree's src."""
    return {**os.environ, **extra, "PYTHONPATH": os.path.join(tree, "src")}


def _run(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run; its result line plus the detail line (or the failure)."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(tree), cwd=tree)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or len(lines) < 2:
        return {"correct": False, "metrics": {}, "error": proc.stderr.strip()[-2000:]}
    result = lines[-1]
    result["detail"] = lines[-2]["detail"]
    return result


def _summary(values: list[float]) -> dict:
    if not values:
        return {"median": None, "q1": None, "q3": None, "values": []}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def _side_values(runs: list[dict], name: str) -> list[float]:
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def _compare(pairs: list[tuple[dict, dict]], name: str, better: str) -> dict:
    """Per-side summaries of one metric and the pairs the change won or lost."""
    won = lost = 0
    for parent, change in pairs:
        if name not in parent["metrics"] or name not in change["metrics"]:
            continue
        p, c = parent["metrics"][name]["value"], change["metrics"][name]["value"]
        if c != p:
            if (c < p) == (better == "lower"):
                won += 1
            else:
                lost += 1
    parent = _summary(_side_values([p for p, _ in pairs], name))
    change = _summary(_side_values([c for _, c in pairs], name))
    ratio = (change["median"] / parent["median"]
             if parent["median"] and change["median"] is not None else None)
    claim = False
    if len(pairs) >= MIN_PAIRS and parent["median"] is not None and change["median"] is not None:
        gap = parent["median"] - change["median"]
        if better != "lower":
            gap = -gap
        claim = won >= 0.9 * len(pairs) and gap > parent["q3"] - parent["q1"]
    return {"parent": parent, "change": change, "change_over_parent": ratio,
            "pairs": len(pairs), "pairs_won": won, "pairs_lost": lost, "claim_holds": claim}


def _section(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    """Correct runs per side, then each metric's declared fields and comparison."""
    out = {"correct_runs": {side: sum(pair[j]["correct"] for pair in pairs)
                            for j, side in enumerate(("parent", "change"))}}
    for metric in metrics:
        declared = {k: metric[k] for k in ("unit", "better", "bound") if k in metric}
        out[metric["name"]] = {**declared, **_compare(pairs, metric["name"], metric["better"])}
    return out


def _child(tree: str, workload_name: str, workdir: str) -> None:
    """Serve passes of one workload of tree: a line "pass" on stdin runs one,
    and one JSON line on stdout reports it, after one for the warm-up pass;
    end of input ends the child."""
    reply = os.fdopen(os.dup(1), "w")  # the reports; anything else printed goes to stderr
    os.dup2(2, 1)
    sys.path.insert(0, os.path.join(tree, "perfbench"))
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    rec = tracing.Recorder()
    tracing.install_outcomes(rec, workload.ops_at)
    inputs = workload.build(SEED0, workdir)

    def checked(pass_id: int, out, reference) -> list[str]:
        problems = workload.check(inputs, out, reference)
        seen, want = rec.counts.get(pass_id, {}).get("ops", 0), workload.ops(inputs)
        if seen != want:
            problems.append(f"{seen} operations seen, {want} expected")
        return problems

    rec.pass_id = 0
    reference = getattr(workload, "warmup", workload.run)(inputs)
    print(json.dumps({"problems": checked(0, reference, None)}), file=reply, flush=True)
    for pass_id, line in enumerate(sys.stdin, start=1):
        if line.strip() != "pass":
            break
        rec.pass_id = pass_id
        who = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        before = [resource.getrusage(w) for w in who]
        start = time.perf_counter()
        out = workload.run(inputs)
        wall = time.perf_counter() - start
        after = [resource.getrusage(w) for w in who]
        cpu = sum(b.ru_utime + b.ru_stime - a.ru_utime - a.ru_stime
                  for a, b in zip(before, after))
        print(json.dumps({"wall_s": wall, "cpu_s": cpu,
                          "problems": checked(pass_id, out, reference)}),
              file=reply, flush=True)


# a child runs _child from this file, in a fresh interpreter
_SERVE = "import sys; sys.path.insert(0, sys.argv[1]); import pairs; pairs._child(*sys.argv[2:])"


class _Side:
    """One child process serving passes of a tree's workload."""

    def __init__(self, name: str, tree: str, workload: str, workdir: str):
        os.makedirs(workdir)
        env = child_env(tree, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1", TMPDIR=workdir)
        self.name = name
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _SERVE, HERE, tree, workload, workdir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=tree)
        self.warmup_problems = self._read()["problems"]

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


def _paired(trees: dict, workload: str, scratch: str) -> dict:
    """ROUNDS rounds of PASSES lockstep passes of workload: wall and CPU
    summaries, and every failed check."""
    records = {"parent": [], "change": []}  # per side, one list of passes per round
    problems = []
    for r in range(ROUNDS):
        sides = {}
        try:
            for name in records:
                sides[name] = _Side(name, trees[name], workload,
                                    os.path.join(scratch, f"work-{workload}-{name}-{r}"))
                problems += [f"{name} round {r} warm-up: {msg}"
                             for msg in sides[name].warmup_problems]
                records[name].append([])
            for i in range(r * PASSES, (r + 1) * PASSES):
                for name in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    rec = sides[name].one_pass()
                    records[name][r].append(rec)
                    problems += [f"{name} round {r} pass {i}: {msg}" for msg in rec["problems"]]
                p, c = records["parent"][r][-1]["wall_s"], records["change"][r][-1]["wall_s"]
                print(f"{workload} round {r} pass {i:3d}: parent {p:.4f} s, change {c:.4f} s, "
                      f"ratio {c / p:.3f}", file=sys.stderr)
        finally:
            for side in sides.values():
                side.close()
    out = {metric: _ratio_summary([[rec[metric] for rec in recs] for recs in records["parent"]],
                                  [[rec[metric] for rec in recs] for recs in records["change"]])
           for metric in ("wall_s", "cpu_s")}
    out["problems"] = problems
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = revision_parser(__doc__)
    parser.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]],
                        help="repeatable; default: every workload")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    out_path = os.path.join(ROOT, f"BENCH_{args.tag}.json")

    with extracted(args.parent, args.change, "bench-pairs-") as (scratch, commits, trees):
        runs = {(trace, w): [] for trace in (0, 1) for w in workloads}
        schedule = [(0, i) for i in range(args.pairs)]
        schedule += [(1, args.pairs + i) for i in range(TRACED_PAIRS)]
        started = time.monotonic()
        for trace, i in schedule:
            seed = SEED0 + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for w in workloads:
                pair = {}
                for side in order:
                    pair[side] = _run(trees[side], w, seed, seconds, trace)
                    res = pair[side]
                    wall = res["metrics"].get("wall_s", {}).get("value")
                    print(f"[{time.monotonic() - started:7.0f} s] trace {trace} seed {seed} "
                          f"{w:20s} {side:6s} correct={res['correct']}"
                          + (f" wall_s={wall:.4f}" if wall is not None else ""),
                          file=sys.stderr)
                runs[(trace, w)].append((pair["parent"], pair["change"]))
        paired = {}
        for w in workloads:
            try:
                paired[w] = _paired(trees, w, scratch)
            except RuntimeError as exc:  # a child died: no summary, the error instead
                paired[w] = {"problems": [str(exc)]}

    end_to_end, per_layer = {}, {}
    for w in workloads:
        plain, traced = runs[(0, w)], runs[(1, w)]
        end_to_end[w] = _section(plain, bench["end_to_end"])
        per_layer[w] = _section(traced, bench["per_layer"])
        failures = [res["error"] for pair in plain + traced for res in pair if "error" in res]
        if failures:
            end_to_end[w]["errors"] = failures
    machine = next((res["detail"]["machine"] for pairs in runs.values() for pair in pairs
                    for res in pair if "detail" in res), None)

    report = {
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "machine": machine,
        "method": (f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} "
                   f"--trace 0|1, each side from its own tree; {args.pairs} untraced pairs "
                   f"per workload on seeds {SEED0}..{SEED0 + args.pairs - 1}, then "
                   f"{TRACED_PAIRS} traced pairs on the next seeds; pair i runs the "
                   f"parent first when i is even; then, per workload, {ROUNDS} rounds of a "
                   f"fresh child pair on seed {SEED0}, each of {PASSES} lockstep passes, "
                   f"the parent first on even passes, paired ratios bootstrapped over "
                   f"rounds ({BOOTSTRAP} resamples)"),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "paired": paired,
    }
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
