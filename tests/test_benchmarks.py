"""The parent/change driver's verdicts on fixed numbers, and every script's --help.

benchmarks/pairs.py decides ``claim_holds`` from pairs of perfbench runs and
summarizes lockstep rounds into a paired ratio with a bootstrap interval.
Both rules run here on numbers written out below, with no git and no child
process.  Every ``decompound`` call that same_outputs.py makes must parse
under the package's parser, so a renamed flag fails here and not only when
the script runs.  Each script in benchmarks/ then prints its help, so an
import of a script or helper that is gone fails here.
"""

import glob
import os
import subprocess
import sys

import pytest

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "benchmarks")
sys.path.insert(0, BENCHMARKS)
import pairs  # noqa: E402
import same_outputs  # noqa: E402
from decompound.cli import _build_parser  # noqa: E402

# flat-density wall_s of the ×0.675 flat reconstruction change, 10 pairs in
# order: the change won all 10, yet the parent's quartiles lie 0.053 s apart
# as the host drifted, more than the 0.046 s fall of the median
_DRIFT_PARENT = [0.15776, 0.14936, 0.13973, 0.15622, 0.09964, 0.09498, 0.11197, 0.14360,
                 0.14474, 0.08953]
_DRIFT_CHANGE = [0.10337, 0.09946, 0.09677, 0.09324, 0.07051, 0.07310, 0.10193, 0.09926,
                 0.09451, 0.06290]


def _pairs(parent, change, name="wall_s"):
    def run(value):
        return {"correct": True, "metrics": {name: {"value": value}}}

    return [(run(p), run(c)) for p, c in zip(parent, change)]


def test_claim_needs_the_fall_to_exceed_the_parents_quartile_spread():
    out = pairs._compare(_pairs(_DRIFT_PARENT, _DRIFT_CHANGE), "wall_s", "lower")
    assert (out["pairs_won"], out["pairs_lost"]) == (10, 0)
    spread = out["parent"]["q3"] - out["parent"]["q1"]
    fall = out["parent"]["median"] - out["change"]["median"]
    assert spread == pytest.approx(0.053, abs=5e-4) and fall == pytest.approx(0.046, abs=5e-4)
    assert out["claim_holds"] is False


def test_claim_holds_on_a_steady_host():
    parent = [0.440 + 0.002 * (i % 3) for i in range(10)]
    out = pairs._compare(_pairs(parent, [0.8 * p for p in parent]), "wall_s", "lower")
    assert out["pairs_won"] == 10 and out["claim_holds"] is True
    assert out["change_over_parent"] == pytest.approx(0.8)
    # the same fall on a metric where higher is better is a loss
    higher = pairs._compare(_pairs(parent, [0.8 * p for p in parent]), "wall_s", "higher")
    assert higher["pairs_lost"] == 10 and higher["claim_holds"] is False
    # nine tenths of the pairs must be won: 8 of 10 is not enough
    change = [0.8 * p for p in parent[:8]] + [1.1 * p for p in parent[8:]]
    assert pairs._compare(_pairs(parent, change), "wall_s", "lower")["claim_holds"] is False


def test_claim_needs_at_least_min_pairs():
    # 2 pairs, both won, with a fall far wider than the parent's spread
    parent = [0.440, 0.442]
    out = pairs._compare(_pairs(parent, [0.8 * p for p in parent]), "wall_s", "lower")
    spread = out["parent"]["q3"] - out["parent"]["q1"]
    fall = out["parent"]["median"] - out["change"]["median"]
    assert out["pairs_won"] == 2 and fall > 10 * spread
    assert out["claim_holds"] is False


# eight rounds of five passes, times that differ between rounds and passes;
# powers of two keep every change/parent ratio exact
_ROUNDS = [[2.0 ** -(1 + (r + i) % 3) for i in range(pairs.PASSES)]
           for r in range(pairs.ROUNDS)]


def test_identical_sides_give_ratio_one_and_the_interval_one_one():
    s = pairs._ratio_summary(_ROUNDS, _ROUNDS)
    assert s["ratio_median"] == 1.0 and s["ratio_ci95"] == [1.0, 1.0]
    assert s["round_medians"] == [1.0] * pairs.ROUNDS and s["passes_won"] == 0


def test_constant_ratio_lies_in_its_interval_and_the_interval_is_seeded():
    change = [[0.64 * p for p in passes] for passes in _ROUNDS]
    s = pairs._ratio_summary(_ROUNDS, change)
    lo, hi = s["ratio_ci95"]
    assert lo <= 0.64 <= hi and s["ratio_median"] == 0.64
    assert s["passes_won"] == pairs.ROUNDS * pairs.PASSES
    # a spread of round ratios around 0.64: the interval holds it and is the
    # same on every call
    spread = [[(0.62 + 0.005 * r) * p for p in passes] for r, passes in enumerate(_ROUNDS)]
    first = pairs._ratio_summary(_ROUNDS, spread)["ratio_ci95"]
    assert first[0] < 0.64 < first[1]
    assert pairs._ratio_summary(_ROUNDS, spread)["ratio_ci95"] == first


def test_every_same_outputs_call_parses():
    parser = _build_parser()
    for name, argv in same_outputs.CALLS:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"{name}: the parser rejects {argv}")


@pytest.mark.parametrize("script", sorted(glob.glob(os.path.join(BENCHMARKS, "*.py"))),
                         ids=os.path.basename)
def test_every_benchmark_script_prints_its_help(script):
    proc = subprocess.run([sys.executable, script, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "--parent" in proc.stdout
