#!/usr/bin/env python3
"""The link between step coefficients and endpoint averages, index by index.

For each spectral index the average of phi over endpoints converges to
exp(t * Lambda * (c - 1)) where c is the step law's coefficient at the
conjugate index.  Everything the estimators do is inverting this map.
"""

import math

import numpy as np

from decompound import (
    ProcessConfig,
    WrappedNormal,
    circle,
    conjugate_index,
    sample_compound,
    spectrum,
    spherical,
)

space = circle()
law = WrappedNormal(space, sigma=0.7, mean=(0.4,))  # nonzero mean: complex c
cfg = ProcessConfig(law=law, t_lambda=1.5, seed=11)
obs = sample_compound(cfg, 50_000)

print(f"m = {obs.m}, t*Lambda = {cfg.t_lambda}")
print(f"{'index':>6} {'empirical':>18} {'formula':>18} {'dev/se':>7}")
for idx in spectrum(space, 25.0):
    vals = spherical(space, idx, obs.points)
    c = law.coefficient(conjugate_index(space, idx))
    want = np.exp(cfg.t_lambda * (c - 1.0))
    se = math.sqrt(vals.real.var() + vals.imag.var()) / math.sqrt(obs.m)
    dev = abs(vals.mean() - want) / se if se > 0 else 0.0
    print(f"{str(idx.label):>6} {vals.mean():>18.4f} {want:>18.4f} {dev:>7.2f}")

print("\ndev/se should look like |N(0,1)| draws; nothing should sit at 10.")
