"""Acceptance gate: nine headline checks covering the whole pipeline.

Each test prints one `[criterion N] PASS/FAIL` line (visible with -s) and
asserts the same condition, so the -v listing doubles as the scoreboard.
Everything is seeded; the heavy Monte Carlo studies are shared via fixtures.
"""

import math

import numpy as np
import pytest

from decompound import (
    EstimatorConfig,
    HeatZonal,
    ProcessConfig,
    StudyConfig,
    Variant,
    WrappedNormal,
    circle,
    conjugate_index,
    deviation_bound,
    empirical_transform,
    estimate_with_flag,
    make_index,
    quadrature_coefficients,
    run_census,
    run_convergence_study,
    run_coefficient_study,
    sample_compound,
    spectrum,
    spherical,
    sphere,
    torus,
    true_coefficients,
)


def _line(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} — {detail}")


# ---------------------------------------------------------------------------
# 1. trivial-index exactness, tolerance 0


def test_c1_trivial_index_exact_for_all_variants():
    cfg_proc = ProcessConfig(law=WrappedNormal(circle(), sigma=0.7),
                             intensity=1.0, time=1.0, noise_tau=0.3, seed=101)
    trivial = make_index(circle(), (0,))
    failures = []
    for m in (1, 10, 100):
        obs = sample_compound(cfg_proc, m)
        for variant in Variant:
            sym = variant is not Variant.COMPLEX_LOG
            nu = empirical_transform(obs, [trivial], symmetrize=sym)
            est_cfg = EstimatorConfig(variant=variant, intensity=1.0,
                                      time=1.0, noise_tau=0.3)
            got = estimate_with_flag(nu, trivial, est_cfg)[0]
            if got != 1.0 + 0.0j:
                failures.append((m, variant.value, got))
    ok = not failures
    _line(1, ok, f"trivial-index estimate exact over m in (1,10,100) x {len(Variant)} "
                 f"variants; failures={failures}")
    assert ok


# ---------------------------------------------------------------------------
# 2. quadrature vs analytic coefficients, kappa <= 100, |delta| <= 1e-8


def test_c2_quadrature_oracle_equivalence():
    cases = [
        HeatZonal(circle(), tau0=0.3),
        HeatZonal(sphere(2), tau0=0.25),
        HeatZonal(sphere(3), tau0=0.25),
        WrappedNormal(circle(), sigma=0.7, mean=(0.4,)),
        WrappedNormal(torus(2), sigma=0.6, mean=(0.3, -0.2)),
    ]
    worst = 0.0
    for law in cases:
        idx = spectrum(law.space, 100.0)
        exact = true_coefficients(law, idx)
        quad = quadrature_coefficients(law, idx)
        worst = max(worst, max(abs(quad[i] - exact[i]) for i in idx))
    ok = worst <= 1e-8
    _line(2, ok, f"max |quadrature - analytic| = {worst:.3e} over "
                 f"{len(cases)} laws, kappa <= 100 (tolerance 1e-8)")
    assert ok


# ---------------------------------------------------------------------------
# 3. Levy-Khinchin link at m = 1e5, kappa <= 20, 4 MC standard errors


def _link_pass_fraction(law, t_lambda, seed):
    space = law.space
    cfg = ProcessConfig(law=law, intensity=t_lambda, time=1.0, seed=seed)
    obs = sample_compound(cfg, 100_000)
    indices = spectrum(space, 20.0)
    passed = 0
    for idx in indices:
        vals = spherical(space, idx, obs.points)
        c = law.coefficient(conjugate_index(space, idx))
        want = np.exp(t_lambda * (c - 1.0))
        se = math.sqrt(vals.real.var(ddof=1) + vals.imag.var(ddof=1))
        se /= math.sqrt(obs.m)
        if abs(vals.mean() - want) <= 4.0 * se + 1e-12:
            passed += 1
    return passed / len(indices), len(indices)


def test_c3_levy_khinchin_link():
    frac_circle, n_circle = _link_pass_fraction(
        WrappedNormal(circle(), sigma=0.7, mean=(0.4,)), 1.0, seed=103)
    frac_sphere, n_sphere = _link_pass_fraction(
        HeatZonal(sphere(2), tau0=0.5), 1.0, seed=104)
    ok = frac_circle >= 0.95 and frac_sphere >= 0.95
    _line(3, ok, f"within 4 MC se: circle {frac_circle:.0%} of {n_circle} "
                 f"indices, sphere(2) {frac_sphere:.0%} of {n_sphere} "
                 f"(need >= 95% each)")
    assert ok


# ---------------------------------------------------------------------------
# 4. coefficient MSE rate on the circle: slope in [-1.2, -0.8]


def test_c4_coefficient_rate():
    cfg = StudyConfig(space="circle", law="wn:sigma=0.7", index="1",
                      m_grid=(100, 1000, 10_000, 100_000), replicates=200,
                      seed=105)
    res = run_coefficient_study(cfg)
    slope = res.fit.slope
    ok = -1.2 <= slope <= -0.8
    mses = ", ".join(f"{r['mse']:.3e}" for r in res.rows)
    _line(4, ok, f"MSE slope {slope:.4f} over m=1e2..1e5 (band [-1.2,-0.8]); "
                 f"mse per m: {mses}")
    assert ok


# ---------------------------------------------------------------------------
# 5. density error rate: circle -0.8 +- 0.15, sphere(2) -2/3 +- 0.15


@pytest.fixture(scope="module")
def density_studies():
    # The laws are rough enough (within the s = 2 class) that the bias/variance
    # balance of the cutoff schedule is visible on the desk-scale grid; very
    # smooth laws (e.g. sigma = 0.7) show a shallower pre-asymptotic slope
    # because their bias dies superpolynomially while the per-index variance
    # constants are still ramping toward the plateau.
    grid = (100, 1000, 10_000, 100_000)
    studies = {
        "circle": run_convergence_study(
            StudyConfig(space="circle", law="wn:sigma=0.55", s=2.0,
                        m_grid=grid, replicates=100, seed=106)),
        "sphere:2": run_convergence_study(
            StudyConfig(space="sphere:2", law="heat:tau=0.35", s=2.0,
                        m_grid=grid, replicates=100, seed=107)),
    }
    # scale sensitivity runs (cheap) join the bias-inequality census below
    for scale, seed in ((0.5, 108), (2.0, 109)):
        studies[f"circle-scale{scale}"] = run_convergence_study(
            StudyConfig(space="circle", law="wn:sigma=0.55", s=2.0, scale=scale,
                        m_grid=(100, 1000, 10_000), replicates=30, seed=seed))
    return studies


def test_c5_density_rates(density_studies):
    slope_c = density_studies["circle"].fit.slope
    slope_s = density_studies["sphere:2"].fit.slope
    ok_c = abs(slope_c - (-0.8)) <= 0.15
    ok_s = abs(slope_s - (-2.0 / 3.0)) <= 0.15
    ok = ok_c and ok_s
    _line(5, ok, f"total-error slopes: circle {slope_c:.4f} (ref -0.8 +- 0.15),"
                 f" sphere(2) {slope_s:.4f} (ref {-2/3:.4f} +- 0.15)")
    assert ok


# ---------------------------------------------------------------------------
# 6. census exponents within +-0.1 of r/2 and d/2


def test_c6_census_exponents():
    expected = {"circle": (0.5, 0.5), "torus:2": (1.0, 1.0),
                "sphere:2": (0.5, 1.0), "sphere:3": (0.5, 1.5)}
    rows = []
    ok = True
    for spec_text, (r_half, d_half) in expected.items():
        res = run_census(StudyConfig(space=spec_text))
        sph, wtd = res.fit.slope, res.secondary_fit.slope
        good = abs(sph - r_half) <= 0.1 and abs(wtd - d_half) <= 0.1
        ok = ok and good
        rows.append(f"{spec_text}: {sph:.3f}/{wtd:.3f} vs {r_half}/{d_half}")
    _line(6, ok, "spherical/weighted exponents (+-0.1): " + "; ".join(rows))
    assert ok


# ---------------------------------------------------------------------------
# 7. Hoeffding exceedance bound on the transform


def test_c7_hoeffding_exceedance():
    law = WrappedNormal(circle(), sigma=0.7)
    idx = make_index(circle(), (1,))
    nu = math.exp(law.coefficient(idx).real - 1.0)  # true transform value
    reps = 10_000
    ok = True
    details = []
    for m, seed in ((50, 110), (200, 111)):
        cfg = ProcessConfig(law=law, intensity=1.0, time=1.0, seed=seed)
        pts = sample_compound(cfg, m * reps).points[:, 0].reshape(reps, m)
        nu_m = np.cos(pts).mean(axis=1)  # symmetrized transform at n = 1
        p_hat = float(np.mean(nu_m - nu <= -nu / 2.0))
        bound = deviation_bound(nu / 2.0, m)
        stderr = math.sqrt(p_hat * (1.0 - p_hat) / reps)
        good = p_hat <= bound + 3.0 * stderr
        ok = ok and good
        details.append(f"m={m}: P={p_hat:.2e} <= {bound:.2e}+3se")
    _line(7, ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 8. noise correction: corrected slope -1 +- 0.2; uncorrected plateau


def test_c8_noise_correction():
    grid = (100, 1000, 10_000, 100_000)
    corrected = run_coefficient_study(
        StudyConfig(space="sphere:2", law="heat:tau=0.5", index="2",
                    variant="noise-corrected", noise_tau=0.3,
                    m_grid=grid, replicates=100, seed=112))
    slope = corrected.fit.slope
    ok_slope = abs(slope - (-1.0)) <= 0.2

    # same data corruption, but the estimator ignores it
    ignored = run_coefficient_study(
        StudyConfig(space="sphere:2", law="heat:tau=0.5", index="2",
                    variant="real-log", observation_noise_tau=0.3,
                    m_grid=grid, replicates=100, seed=113))
    kappa2 = make_index(sphere(2), (2,)).casimir
    floor = (1.0 - math.exp(-0.09 * kappa2 / 2.0)) ** 2 * 0.5
    tail_mses = [r["mse"] for r in ignored.rows[-2:]]
    ok_plateau = all(mse >= floor for mse in tail_mses)

    ok = ok_slope and ok_plateau
    _line(8, ok, f"corrected slope {slope:.4f} (band -1 +- 0.2); ignored-noise "
                 f"MSE at m=1e4,1e5: {tail_mses[0]:.4f}, {tail_mses[1]:.4f} "
                 f"(must stay above {floor:.4f})")
    assert ok


# ---------------------------------------------------------------------------
# 9. bias inequality, exact, on every study run


def test_c9_bias_inequality(density_studies):
    checked = 0
    violations = []
    for name, res in density_studies.items():
        for row in res.rows:
            checked += 1
            if row["bias_bound_ok"] is not True:
                violations.append((name, row["m"]))
    ok = not violations and checked > 0
    _line(9, ok, f"bias_term <= T^-s * sobolev_norm^2 held on {checked}/"
                 f"{checked} study rows" if ok else
          f"violations at {violations}")
    assert ok
