#!/usr/bin/env python3
"""End-to-end step-density estimation from endpoint observations.

Pipeline: sample m endpoints of the compound walk -> empirical transform at
all indices below the smoothing cutoff -> log-link coefficient estimates ->
synthesize the density.  We print the estimate against the true step density
on a coarse grid and report the exact variance/bias split of the L2 error.

Usage: python demos/density_reconstruction.py [m] [seed]
"""

import sys

import numpy as np
from numpy.polynomial import legendre

from decompound import (
    EstimatorConfig,
    HeatZonal,
    ProcessConfig,
    SobolevSpec,
    evaluate,
    l2_error,
    reconstruct,
    sample_compound,
    smoothing_cutoff,
    spectrum,
    sphere,
    truth_table,
)

m = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000
seed = int(sys.argv[2]) if len(sys.argv) > 2 else 3

space = sphere(2)
law = HeatZonal(space, tau0=0.35)
proc = ProcessConfig(law=law, t_lambda=1.0, seed=seed)
est_cfg = EstimatorConfig(t_lambda=1.0)
spec = SobolevSpec(s=2.0)

cutoff = smoothing_cutoff(m, spec.s, space)
indices = spectrum(space, cutoff)
print(f"m = {m}, smoothing cutoff T = {cutoff:.2f} (keeps {len(indices)} indices)")

obs = sample_compound(proc, m)
estimate = reconstruct(obs, est_cfg, spec)
# tail = mass beyond the table: 0.0 for heat laws, whose true tail is <= 4e-18
truth, tail = truth_table(law, cutoff)


def true_density(chi: float) -> float:
    # zonal synthesis: f(chi) = sum over l of d_l * c_l * P_l(cos chi)
    total = 0.0
    for ix, c in truth.items():
        basis = legendre.Legendre.basis(ix.label[0])
        total += ix.multiplicity * c.real * basis(np.cos(chi))
    return total


print(f"\n{'chi':>5} {'estimate':>10} {'truth':>10}")
for chi in np.linspace(0.0, np.pi, 9):
    point = np.array([np.sin(chi), 0.0, np.cos(chi)])
    print(f"{chi:5.2f} {evaluate(estimate, point):10.4f} {true_density(chi):10.4f}")

err = l2_error(estimate, truth)
print(f"\nL2 error split: variance {err.variance_term:.2e} "
      f"+ bias {err.bias_term:.2e} = {err.total:.2e}")
print("re-run with a larger m (first argument) and watch the variance drop.")
