#!/usr/bin/env python3
"""Simulate compound random walks and look at their raw ingredients.

A walk makes N ~ Poisson(t * Lambda) zonal steps from the origin (the
configs' t_lambda); we observe only the endpoint.  This script samples
endpoints on the circle and on the 2-sphere, checks the step-count
distribution against the Poisson pmf, and prints a few summary statistics
that the estimators downstream rely on (mean resultant length = empirical
transform at the first index).
"""

import numpy as np

from decompound import (
    HeatZonal,
    ProcessConfig,
    WrappedNormal,
    circle,
    make_index,
    sample_compound,
    spherical,
    sphere,
)

M = 20_000
SEED = 7


def step_count_table(rate: float) -> None:
    rng = np.random.default_rng(SEED)
    draws = rng.poisson(rate, 10_000)
    print(f"\nstep counts at rate {rate}: mean {draws.mean():.3f} "
          f"(expect {rate}), var {draws.var():.3f}")
    print("  k    observed   poisson")
    pmf = np.exp(-rate)
    for k in range(6):
        obs = np.mean(draws == k)
        print(f"  {k}    {obs:8.4f}   {pmf:7.4f}")
        pmf *= rate / (k + 1)


def endpoint_summary(cfg: ProcessConfig, label: str) -> None:
    obs = sample_compound(cfg, M)
    idx = make_index(cfg.space, (1,))
    nu = spherical(cfg.space, idx, obs.points).mean()
    c = cfg.law.coefficient(idx)
    want = np.exp(cfg.t_lambda * (np.conj(c) - 1.0))
    print(f"\n{label}: m={obs.m}")
    print(f"  empirical transform at first index: {nu:.4f}")
    print(f"  compound formula exp(tL(c-1)):      {want:.4f}")


if __name__ == "__main__":
    step_count_table(1.0)
    step_count_table(4.5)

    endpoint_summary(
        ProcessConfig(law=WrappedNormal(circle(), sigma=0.7),
                      t_lambda=1.0, seed=SEED),
        "circle, wrapped normal sigma=0.7")
    endpoint_summary(
        ProcessConfig(law=HeatZonal(sphere(2), tau0=0.35),
                      t_lambda=1.0, seed=SEED + 1),
        "sphere(2), heat tau0=0.35")
