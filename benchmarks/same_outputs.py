"""Check that two revisions write byte-identical outputs for a fixed set of CLI calls.

    python3 benchmarks/same_outputs.py --parent REV [--change REV]

Both revisions (the change defaults to HEAD) are extracted with
``pairs.extracted``, so uncommitted edits never run.  Each tree runs the same
``decompound`` calls from its own ``src``, each in its own output directory:
``sample`` on sphere:2/3/4 (heat and cap, with and without ``--noise-tau``),
the circle and torus:2, each of 40,000 points (three blocks of
``simulate.BLOCK`` = 16,384, the last one partial), and a one-block
(16,384-point) sample on each of the circle and torus:2, the first block of
any longer sample; ``coeffs --in`` on the noisy sphere:2 heat sample
(noise-corrected), on a shifted circle wrapped normal (complex-log, once at
the default scale and once at ``--cutoff 9``), on the torus:2 heat sample
(real-log: the symmetrized rank-2 transform) and on a shifted torus:2 wrapped
normal (complex-log: the unsymmetrized one); a ``census`` on sphere:3 and on
torus:2; a small noisy ``study-coeff`` on sphere:2, a complex-log one on
torus:2 and one on the circle whose zero errors leave no rate to fit; a
small ``study-density`` on the circle and sphere:2 at ``--threads
1`` and ``--threads 2``; and a small ``study-density`` on torus:3, whose
10,443-entry truth table sets every bias term it writes.  Every file they write, and each call's standard output,
is hashed, and so is each column of every ``points.csv`` (listed as
``points.csv[x1]`` and so on), to show which coordinates differ.  The script
prints both sha256 values for each file and column and exits 1 if any file
differs, is missing on one side, or any call fails.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys

from pairs import child_env, extracted, revision_parser

_SAMPLES = [(f"sphere:{d}", law, noise, "") for d in (2, 3, 4)
            for law in ("heat:tau=0.3", "cap:rho=1.2") for noise in ("0", "0.3")]
_FLAT = [("circle", "wn:sigma=0.7", "0.3"), ("torus:2", "heat:tau=0.4", "0")]
BLOCK = 16384  # simulate.BLOCK
COUNT = 40_000  # two whole blocks and a partial one
# one block, which every longer sample starts with
_SAMPLES += [(*flat, "") for flat in _FLAT] + [(*flat, f"-count{BLOCK}") for flat in _FLAT]

CALLS = [
    (f"sample-{space}-{law.split(':')[0]}-noise{noise}{tag}",
     ["sample", "--space", space, "--law", law, "--noise-tau", noise, "--t-lambda", "2.0",
      "--seed", "5", "--count", str(BLOCK if tag else COUNT), "--out", "points.csv"])
    for space, law, noise, tag in _SAMPLES
]
# read back a noisy sphere:2 sample written above: the points path of the
# transform, next to the walked cosines a study hands it
CALLS.append(("coeffs-sphere2-noise",
              ["coeffs", "--in", "../sample-sphere:2-heat-noise0.3/points.csv",
               "--variant", "noise-corrected", "--out", "coeffs.csv"]))
# a shifted wrapped normal is not inverse invariant: complex-log reads the
# unsymmetrized transform (t Lambda = 1, inside the principal-branch range)
CALLS.append(("sample-circle-wn-shifted",
              ["sample", "--space", "circle", "--law", "wn:sigma=0.7,mean=1", "--seed", "5",
               "--count", str(COUNT), "--out", "points.csv"]))
CALLS.append(("coeffs-circle-complex-log",
              ["coeffs", "--in", "../sample-circle-wn-shifted/points.csv",
               "--variant", "complex-log", "--out", "coeffs.csv"]))
CALLS.append(("coeffs-circle-complex-log-cutoff",
              ["coeffs", "--in", "../sample-circle-wn-shifted/points.csv",
               "--variant", "complex-log", "--cutoff", "9", "--out", "coeffs.csv"]))
# the rank-2 torus transform read directly, not only through a study: the
# symmetrized sums on the heat sample written above, and the complex ones on a
# shifted wrapped normal
CALLS.append(("coeffs-torus2-heat",
              ["coeffs", "--in", "../sample-torus:2-heat-noise0/points.csv",
               "--out", "coeffs.csv"]))
CALLS.append(("sample-torus2-wn-shifted",
              ["sample", "--space", "torus:2", "--law", "wn:sigma=0.7,mean=1;-0.5",
               "--seed", "5", "--count", str(COUNT), "--out", "points.csv"]))
CALLS.append(("coeffs-torus2-complex-log",
              ["coeffs", "--in", "../sample-torus2-wn-shifted/points.csv",
               "--variant", "complex-log", "--out", "coeffs.csv"]))
# the census writes census.csv, not results.csv, and two plotted series
for space in ("sphere:3", "torus:2"):
    CALLS.append((f"census-{space}",
                  ["census", "--space", space, "--seed", "4", "--out", "study"]))
CALLS.append(("study-coeff-sphere2-noise",
              ["study-coeff", "--space", "sphere:2", "--law", "heat:tau=0.3",
               "--variant", "noise-corrected", "--noise-tau", "0.3", "--index", "1",
               "--m-grid", "100,1000,5000", "--replicates", "6", "--seed", "3",
               "--out", "study"]))
# a flat coefficient study: one index estimated at its conjugate label, complex-log
CALLS.append(("study-coeff-torus2-complex-log",
              ["study-coeff", "--space", "torus:2", "--law", "wn:sigma=0.7,mean=1;-0.5",
               "--variant", "complex-log", "--index", "1;-1", "--m-grid", "100,1000,5000",
               "--replicates", "6", "--seed", "3", "--out", "study"]))
# the no-fit path: sigma = 1e-9 leaves every point at the origin, so index 1
# is estimated exactly at every m and the zero MSE leaves no rate to fit
CALLS.append(("study-coeff-circle-zero-mse",
              ["study-coeff", "--space", "circle", "--law", "wn:sigma=1e-9", "--index", "1",
               "--m-grid", "100,1000,10000", "--replicates", "3", "--out", "study"]))
for space, law in (("circle", "wn:sigma=0.55"), ("sphere:2", "heat:tau=0.35")):
    for threads in (1, 2):
        CALLS.append((f"study-density-{space}-threads{threads}",
                      ["study-density", "--space", space, "--law", law,
                       "--m-grid", "100,1000,10000", "--replicates", "4", "--seed", "2",
                       "--threads", str(threads), "--emit-coefficients", "--emit-svg",
                       "--out", "study"]))
# torus:3 at sigma = 0.5: the truth table reaches Casimir 184 (10,443 entries)
CALLS.append(("study-density-torus:3",
              ["study-density", "--space", "torus:3", "--law", "wn:sigma=0.5",
               "--m-grid", "100,1000,10000", "--replicates", "3", "--emit-coefficients",
               "--out", "study"]))


def _run_calls(tree: str, outdir: str) -> list[str]:
    """Run every call in tree, each in outdir/<name>; return the failures."""
    failures = []
    for name, argv in CALLS:
        cwd = os.path.join(outdir, name)
        os.makedirs(cwd)
        proc = subprocess.run([sys.executable, "-m", "decompound.cli", *argv], cwd=cwd,
                              env=child_env(tree), capture_output=True, text=True)
        with open(os.path.join(cwd, "stdout.txt"), "w") as fh:
            fh.write(proc.stdout)
        if proc.returncode != 0:
            failures.append(f"{name}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return failures


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _hashes(outdir: str) -> dict[str, str]:
    """sha256 of every file under outdir, by relative path, and of each
    column of every points.csv, by ``path[column name]``."""
    out = {}
    for root, _, files in os.walk(outdir):
        for fname in files:
            path = os.path.join(root, fname)
            rel = os.path.relpath(path, outdir)
            with open(path, "rb") as fh:
                data = fh.read()
            out[rel] = _sha256(data)
            if fname == "points.csv":
                # a ProcessConfig comment, the column names, then one row per point
                lines = data.decode().splitlines()
                rows = [line.split(",") for line in lines[2:]]
                for j, name in enumerate(lines[1].split(",")):
                    out[f"{rel}[{name}]"] = _sha256("\n".join(r[j] for r in rows).encode())
    return out


def main(argv=None) -> int:
    args = revision_parser(__doc__).parse_args(argv)
    hashes, failures = {}, []
    with extracted(args.parent, args.change, "same-outputs-") as (scratch, commits, trees):
        for side, tree in trees.items():
            print(f"{side}: {commits[side]}")
            outdir = os.path.join(scratch, side, "out")
            failures += [f"{side} {f}" for f in _run_calls(tree, outdir)]
            hashes[side] = _hashes(outdir)

    paths = sorted(set(hashes["parent"]) | set(hashes["change"]))
    differ = set()
    for path in paths:
        parent, change = hashes["parent"].get(path, "-"), hashes["change"].get(path, "-")
        if parent != change:
            differ.add(path)
        print(f"{'DIFFERS' if path in differ else 'same   '} {path}\n"
              f"  parent {parent}\n  change {change}")
    for failure in failures:
        print(f"FAILED {failure}")
    columns = {path for path in paths if path.endswith("]")}
    print(f"{len(paths) - len(columns)} files, {len(differ - columns)} differ; "
          f"{len(columns)} points.csv columns, {len(differ & columns)} differ; "
          f"{len(failures)} calls failed")
    return 1 if differ or failures else 0


if __name__ == "__main__":
    sys.exit(main())
