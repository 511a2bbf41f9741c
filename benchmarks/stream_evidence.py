"""Pooled evidence that two revisions' samplers draw the same laws.

    python3 benchmarks/stream_evidence.py --parent REV [--change REV]

Run it for every declared stream change.  Both revisions (the change
defaults to HEAD) are extracted with ``pairs.extracted``, so uncommitted
edits never run.  For each case below, each tree samples in a child process
of its own, from its own ``src`` and through the public API only
(``sample_compound``, then ``cosines`` on a sphere or ``points`` on a flat
space): SEEDS samples of M observations, at intensity 2 and time 1.  Case i
uses the seeds SEED0 + 1000 i + j, j < SEEDS, so no two cases share a
stream; both revisions use the same seeds.

Cases: sphere:2, 3 and 4 with ``heat:tau=0.3`` and ``cap:rho=1.2``, and the
circle and torus:2 with wrapped normals, each without blur and with blur
tau = 0.3.

For each case and revision the script prints the transform-link z-scores:
the pooled mean of the real spherical function of each index below, less
its exact expectation exp(t Lambda (c - 1)) exp(-tau^2 kappa / 2), in
standard errors of that mean.  The indices are the degrees l = 1, 2, 3 on
spheres (normalized Gegenbauer polynomials of the cosine, from scipy, not
from the package), n = 1, 2, 3 on the circle, and n = (1, 0), (1, 1), (2, 1)
(|n|_1 = 1, 2, 3) on torus:2.  It also prints a two-sample KS test of the
change's pooled draws against the parent's: the cosines on a sphere, each
angle on a flat space.  Draws that the two revisions share make that test
conservative (p near 1); it can only flag a difference.  Last, for each
revision, it prints a chi-square test of the step-count cells that the
samples keep (``ObservationSet._cells``, one row per block), summed over the
case's seeds, against that revision's own count table
``simulate._count_pmf(t Lambda)`` times the number of walkers.  The cells
that expect fewer than 5 walkers are pooled at each end, as in the test
suite's single-seed check.

The flag thresholds were fixed before the script's first run against a
change and are not tuned afterwards: a z-score beyond Z_FLAG or a KS p-value
below P_FLAG is flagged, and so, since the cells test was added and before
its first run, is a cells p-value of the change below P_FLAG.  With 16
cases, 48 z-scores per revision, 18 KS tests and 16 cells tests, a correct
sampler raises a false flag with probability about 0.04.  The script exits
1 if any z-score or cells test of the change or any KS test is flagged, or a
child fails.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

from pairs import child_env, extracted, revision_parser

SEEDS = 32
M = 1 << 17
SEED0 = 500_000
Z_FLAG = 4.0
P_FLAG = 1e-3
INTENSITY = 2.0
BLURS = (0.0, 0.3)

CASES = [(f"sphere:{d}", law, blur) for d in (2, 3, 4)
         for law in ("heat:tau=0.3", "cap:rho=1.2") for blur in BLURS]
CASES += [(space, law, blur) for space, law in (("circle", "wn:sigma=0.7"),
                                                ("torus:2", "wn:sigma=0.6"))
          for blur in BLURS]
FLAT_INDICES = {"circle": [(1,), (2,), (3,)], "torus:2": [(1, 0), (1, 1), (2, 1)]}


def _child(case: int, out: str) -> None:
    """Sample case `case` on its seeds with the decompound on sys.path; write
    the pooled draws to out.npy, and the z-scores, the summed step-count cells
    and the count table to out.json."""
    import numpy as np
    from scipy import special

    from decompound import ProcessConfig, make_index, parse_law, parse_space, sample_compound
    from decompound.simulate import _count_pmf

    spec, law_spec, blur = CASES[case]
    space = parse_space(spec)
    law = parse_law(law_spec, space)
    draws, cells = [], 0
    for j in range(SEEDS):
        cfg = ProcessConfig(law=law, intensity=INTENSITY, noise_tau=blur,
                            seed=SEED0 + 1000 * case + j)
        obs = sample_compound(cfg, M)
        cells = cells + obs._cells.sum(axis=0)
        if space.is_flat:
            draws.append(np.asarray(obs.points))
        else:
            z = getattr(obs, "cosines", None)
            draws.append(np.asarray(obs.points[:, -1] if z is None else z)[:, None])
    draws = np.concatenate(draws)
    labels = FLAT_INDICES[spec] if space.is_flat else [(ell,) for ell in (1, 2, 3)]
    rows = []
    for label in labels:
        index = make_index(space, label)
        if space.is_flat:
            vals = np.cos(draws @ np.array(label, dtype=float))
        else:
            lam = (space.dim - 1) / 2.0
            vals = special.eval_gegenbauer(label[0], lam, draws[:, 0])
            vals /= special.eval_gegenbauer(label[0], lam, 1.0)
        c = law.coefficient(index).real
        want = math.exp(INTENSITY * (c - 1.0)) * math.exp(-blur**2 * index.casimir / 2.0)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        rows.append({"index": list(label), "mean": float(vals.mean()), "want": want,
                     "z": float((vals.mean() - want) / se)})
    np.save(out + ".npy", draws)
    with open(out + ".json", "w") as fh:
        json.dump({"z": rows, "cells": cells.tolist(),
                   "pmf": _count_pmf(cfg.mean_steps).tolist()}, fh)


def _cells_pvalue(cells, pmf) -> float:
    """Chi-square p-value of summed step-count cells against the count table,
    the cells that expect fewer than 5 walkers pooled at each end."""
    import numpy as np
    from scipy import stats

    got = np.asarray(cells, dtype=float)
    want = np.asarray(pmf) * got.sum()
    lo, hi = np.flatnonzero(want >= 5.0)[[0, -1]]

    def pool(x):
        return np.concatenate([[x[:lo + 1].sum()], x[lo + 1:hi], [x[hi:].sum()]])

    return float(stats.chisquare(pool(got), pool(want)).pvalue)


def main(argv=None) -> int:
    parser = revision_parser(__doc__)
    parser.add_argument("--child", nargs=2, metavar=("CASE", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _child(int(args.child[0]), args.child[1])
        return 0

    import numpy as np
    from scipy import stats

    flags, failures = 0, 0
    with extracted(args.parent, args.change, "stream-evidence-") as (scratch, commits, trees):
        for side, commit in commits.items():
            print(f"{side}: {commit}")
        print(f"{SEEDS} seeds x {M} observations per case and side; flags: "
              f"|z| > {Z_FLAG}, KS p < {P_FLAG}, change's cells p < {P_FLAG}")
        for case, (spec, law, blur) in enumerate(CASES):
            name = f"{spec} {law} blur {blur}"
            results, draws = {}, {}
            for side, tree in trees.items():
                out = os.path.join(scratch, side, "case")
                proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--parent",
                                       args.parent, "--child", str(case), out],
                                      env=child_env(tree), capture_output=True, text=True)
                if proc.returncode != 0:
                    print(f"FAILED {name} ({side}): {proc.stderr.strip()[-500:]}")
                    failures += 1
                    continue
                with open(out + ".json") as fh:
                    results[side] = json.load(fh)
                draws[side] = np.load(out + ".npy")
                os.remove(out + ".npy")
            if len(results) < 2:
                continue
            for side in ("parent", "change"):
                zs = [row["z"] for row in results[side]["z"]]
                bad = [abs(z) > Z_FLAG for z in zs]
                if side == "change":
                    flags += sum(bad)
                print(f"{name:32s} {side:6s} z " + " ".join(
                    f"{z:+6.2f}{'!' if b else ' '}" for z, b in zip(zs, bad)))
            ps = [stats.ks_2samp(draws["change"][:, j], draws["parent"][:, j]).pvalue
                  for j in range(draws["change"].shape[1])]
            bad = [p < P_FLAG for p in ps]
            flags += sum(bad)
            print(f"{name:32s} KS p " + " ".join(
                f"{p:.3g}{'!' if b else ''}" for p, b in zip(ps, bad)))
            ps = [_cells_pvalue(results[side]["cells"], results[side]["pmf"])
                  for side in ("parent", "change")]
            flags += ps[1] < P_FLAG
            print(f"{name:32s} cells p parent {ps[0]:.3g} change {ps[1]:.3g}"
                  f"{'!' if ps[1] < P_FLAG else ''}")
    print(f"{len(CASES)} cases, {flags} flagged, {failures} children failed")
    return 1 if flags or failures else 0


if __name__ == "__main__":
    sys.exit(main())
