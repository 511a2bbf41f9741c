"""Alternating parent/change pairs of the benchmark, summarized in one JSON file.

    python3 benchmarks/pairs.py --parent REV --tag NAME [--change REV] [--pairs N]
        [--workload W ...]

Both revisions (the change defaults to HEAD) are extracted with ``git
archive`` into a temporary directory (under ``TMPDIR``), so uncommitted
edits never run, and each side runs its own ``perfbench/run.py`` for the
``run_seconds`` that BENCHMARK.json declares.  Pair i uses seed
``SEED0 + i`` on both sides and runs the parent first when i is even; every
workload runs once per side and pair, untraced (``--trace 0``).  Then
``TRACED_PAIRS`` more pairs run with ``--trace 1``, on seeds after the
untraced ones.  Nothing else should run on the machine meanwhile.

``BENCH_<tag>.json``, written to the root of this checkout, holds, per
workload, each end-to-end metric's per-side median, quartiles and values,
the pairs won and lost by the change (by the metric's direction in
BENCHMARK.json; ties count for neither), its bound, and ``claim_holds``: the
change won at least nine tenths of the pairs run and its median is better
than the parent's by more than the parent's interquartile range; per-layer medians
and quartiles from the traced runs; the count of correct runs; the machine;
and the command lines.  Peak memory is the ``peak_rss_mb`` metric.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED0 = 1000  # seed of the first pair
TRACED_PAIRS = 3


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def _extract(rev: str, dest: str) -> str:
    """Write the tree of rev into dest with git archive; return its commit id."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = os.path.join(dest, "tree.tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", commit],
                       check=True, stdout=fh)
    tree = os.path.join(dest, "tree")
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    os.remove(archive)
    return commit


def _run(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run; its result line plus the detail line (or the failure)."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=tree)
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
    if pairs and parent["median"] is not None and change["median"] is not None:
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


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--change", default="HEAD", help="change revision (default: HEAD)")
    parser.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]],
                        help="repeatable; default: every workload")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    out_path = os.path.join(ROOT, f"BENCH_{args.tag}.json")

    scratch = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        trees, commits = {}, {}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            os.makedirs(os.path.join(scratch, side))
            commits[side] = _extract(rev, os.path.join(scratch, side))
            trees[side] = os.path.join(scratch, side, "tree")

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
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

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
                   f"parent first when i is even"),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
