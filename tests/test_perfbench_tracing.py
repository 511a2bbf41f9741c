"""The names perfbench/tracing.py wraps still carry the study's calls.

The benchmark's tracer replaces module attributes (``harness.sample_compound``,
``coeffs.empirical_transform``, ...) with recording wrappers.  A refactor that
stops calling through one of them leaves its spans empty or breaks traced
runs, so a tiny traced study of each kind, and a traced torus:2 reconstruction
rendered on a grid, run here in a fresh process.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import tracing
from decompound import harness
from decompound.harness import StudyConfig

rec = tracing.Recorder()
tracing.install_outcomes(rec, "estimate")
tracing.install()
rec.tracing = True
base = dict(m_grid=(50, 100, 200), replicates=3, threads=2, seed=1)
rec.pass_id = 0
harness.run_coefficient_study(StudyConfig(space="sphere:2", law="heat:tau=0.5", index="2",
                                          **base))
rec.pass_id = 1
harness.run_convergence_study(StudyConfig(space="circle", law="wn:sigma=0.7", **base))
rec.pass_id = 2
import numpy as np
from decompound import (EstimatorConfig, ProcessConfig, SobolevSpec, density, parse_law,
                        parse_space, simulate)
law = parse_law("wn:sigma=0.5", parse_space("torus:2"))
obs = simulate.sample_compound(ProcessConfig(law=law, seed=3), 2000)
est = density.reconstruct(obs, EstimatorConfig(), SobolevSpec(2.0))
est.rendered_values(np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, (500, 2)))
print(json.dumps([{"spans": sorted({s[0] for s in rec.spans if s[5] == p}),
                   "counts": dict(rec.counts[p])} for p in (0, 1, 2)] + [len(est.coeffs)]))
"""


def test_traced_studies_record_every_layer():
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    coefficient, density, flat, n_coeffs = json.loads(proc.stdout.splitlines()[-1])
    for layer in ("simulate.sample_compound", "coeffs.empirical_transform", "harness.worker"):
        assert layer in coefficient["spans"]
        assert layer in density["spans"]
    assert "density.reconstruct" in density["spans"]
    # the flat walk draws its steps through the law, so a traced circle study
    # and a traced torus:2 sample both time them
    assert "steplaws.sample_displacements" in density["spans"]
    assert "steplaws.sample_displacements" in flat["spans"]
    # one estimate, and one operation, per replicate of the coefficient study
    counts = coefficient["counts"]
    assert counts["coeffs.estimate.calls"] == counts["ops"] == 3 * 3
    assert counts["harness.pools_started"] == density["counts"]["harness.pools_started"] == 1
    # a traced torus:2 render records evaluate, counting every index at every
    # point though the synthesis runs over one label of each +- pair
    assert {"density.reconstruct", "density.evaluate"} <= set(flat["spans"])
    assert flat["counts"]["density.evaluate_evals"] == 500 * n_coeffs
