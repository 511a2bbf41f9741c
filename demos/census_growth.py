#!/usr/bin/env python3
"""Spectral census: how many representations live below a Casimir threshold.

The spherical count grows like T^(r/2) (rank), the multiplicity-weighted
count like T^(d/2) (dimension).  Rank-one spheres split the two exponents
apart; flat spaces keep them equal.  Like every study runner, run_census
takes a StudyConfig; it reads the space, thresholds and seed.
"""

from decompound import StudyConfig, run_census

print(f"{'space':>9} {'spherical':>10} {'ref':>5} {'weighted':>9} {'ref':>5}")
for spec in ("circle", "torus:2", "sphere:2", "sphere:3"):
    res = run_census(StudyConfig(space=spec))
    print(f"{spec:>9} {res.fit.slope:>10.3f} {res.reference:>5.2f}"
          f" {res.secondary_fit.slope:>9.3f} {res.secondary_reference:>5.2f}")

print("\nper-threshold counts for sphere(3):")
for row in run_census(StudyConfig(space="sphere:3")).rows[:6]:
    print(f"  T={row['threshold']:>10.1f}  spherical={row['count_spherical']:>4}"
          f"  weighted={row['count_weighted']:>8}")
