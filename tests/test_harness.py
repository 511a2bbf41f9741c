"""Study drivers: rate fits, CSV/SVG outputs, INI configs, determinism."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from decompound import (
    EstimatorConfig,
    ProcessConfig,
    SobolevSpec,
    StudyConfig,
    Variant,
    estimate_coefficients,
    fit_rate,
    harness,
    make_index,
    parse_law,
    parse_space,
    reconstruct,
    run_census,
    run_coefficient_study,
    run_convergence_study,
    sample_compound,
    simulate,
    smoothing_cutoff,
    spaces,
    spectrum,
    weyl_census,
    write_study_outputs,
)


@pytest.mark.parametrize("build", [
    lambda: run_coefficient_study(StudyConfig(
        space="circle", law="wn:sigma=0.7", delta=float("nan"), index="1",
        m_grid=(100, 1000, 10000), replicates=3)),
    lambda: EstimatorConfig(t_lambda=float("nan")),
    lambda: EstimatorConfig(noise_tau=float("inf")),
    lambda: ProcessConfig(law=parse_law("wn:sigma=0.7", parse_space("circle")),
                          t_lambda=float("inf")),
    lambda: ProcessConfig(law=parse_law("wn:sigma=0.7", parse_space("circle")),
                          noise_tau=float("nan")),
    lambda: parse_law("heat:tau=nan", parse_space("sphere:2")),
    lambda: parse_law("wn:sigma=inf", parse_space("circle")),
    lambda: parse_law("wn:sigma=0.7,mean=0;nan", parse_space("torus:2")),
    lambda: run_convergence_study(_tiny_density_config(s=float("nan"))),
    lambda: _tiny_density_config(scale=float("inf")),
    lambda: StudyConfig(thresholds=(100.0, float("nan"))),
    lambda: SobolevSpec(float("nan")),
    lambda: SobolevSpec(float("inf")),
    lambda: smoothing_cutoff(100, float("nan"), parse_space("circle")),
    lambda: smoothing_cutoff(100, 2.0, parse_space("circle"), scale=float("inf")),
    lambda: spectrum(parse_space("circle"), float("inf")),
    lambda: spectrum(parse_space("sphere:2"), float("nan")),
    lambda: weyl_census(parse_space("sphere:2"), (10.0, float("nan"))),
    lambda: StudyConfig(observation_noise_tau=float("inf")),
    lambda: StudyConfig(observation_noise_tau=float("nan")),
], ids=["study-delta", "estimator-t-lambda", "estimator-noise", "process-t-lambda",
        "process-noise", "heat-tau", "wn-sigma", "wn-mean", "study-s", "study-scale",
        "study-thresholds", "sobolev-nan", "sobolev-inf", "cutoff-s", "cutoff-scale",
        "spectrum-inf", "spectrum-nan", "census-thresholds", "study-observation-noise-inf",
        "study-observation-noise-nan"])
def test_non_finite_parameters_are_rejected(build):
    # a NaN passes every `<= 0` check; before it was rejected, a NaN delta
    # truncated every estimate and the study still fitted a slope
    with pytest.raises(ValueError, match="finite"):
        build()


def _tiny_density_config(**kw):
    base = dict(space="circle", law="wn:sigma=0.7", m_grid=(100, 300, 1000),
                replicates=5, seed=1)
    base.update(kw)
    return StudyConfig(**base)


# --- fit_rate -----------------------------------------------------------------


def test_fit_rate_recovers_exact_line():
    xs = np.array([2.0, 3.0, 4.0, 5.0])
    pts = [(x, -0.8 * x + 0.3) for x in xs]
    fit = fit_rate(pts)
    assert fit.slope == pytest.approx(-0.8, abs=1e-12)
    assert fit.intercept == pytest.approx(0.3, abs=1e-12)
    assert fit.ci_low == pytest.approx(-0.8, abs=1e-9)
    assert fit.ci_high == pytest.approx(-0.8, abs=1e-9)


def test_fit_rate_requires_three_spread_points():
    with pytest.raises(ValueError):
        fit_rate([(1.0, 1.0), (2.0, 2.0)])
    with pytest.raises(ValueError):
        fit_rate([(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)])


def test_fit_rate_bootstrap_deterministic():
    rng = np.random.default_rng(0)
    pts = [(x, -x + rng.normal(0, 0.1)) for x in (2.0, 3.0, 4.0, 5.0)]
    a = fit_rate(pts, seed=3)
    b = fit_rate(pts, seed=3)
    assert a == b
    # with per-point replicate errors the resampled means vary continuously,
    # so different seeds give (almost surely) different intervals
    reps = [rng.uniform(0.5, 1.5, size=40) * 10.0 ** (-x) for x, _ in pts]
    c = fit_rate(pts, replicate_errors=reps, seed=3)
    d = fit_rate(pts, replicate_errors=reps, seed=4)
    assert c != d
    assert fit_rate(pts, replicate_errors=reps, seed=3) == c


def _per_resample_ci(pts, reps, seed, resamples=1000):
    # one draw per (resample, point) and one fit per resample
    xs = np.array([x for x, _ in pts])
    ys = np.array([y for _, y in pts])
    rng = np.random.default_rng(seed)
    slopes = np.empty(resamples)
    for b in range(resamples):
        yb = np.empty(len(reps))
        for i, errs in enumerate(reps):
            mean = errs[rng.integers(0, errs.size, errs.size)].mean()
            yb[i] = math.log10(mean) if mean > 0 else ys[i]
        slopes[b] = np.polyfit(xs, yb, 1)[0]
    lo, hi = np.percentile(slopes, [2.5, 97.5])
    return float(lo), float(hi)


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_fit_rate_replicate_bootstrap_matches_per_resample_fits(seed):
    # the batched bootstrap keeps the draw order and the arithmetic of one
    # fit per resample, so its interval is bit for bit the reference's
    rng = np.random.default_rng(100 + seed)
    xs = np.log10([100.0, 1000.0, 10_000.0, 100_000.0])
    reps = [rng.uniform(0.2, 1.8, size=n) * 10.0 ** (-x) for x, n in zip(xs, (20, 30, 40, 30))]
    reps[0][:] = 0.0  # a zero mean falls back to the point's own value
    pts = [(x, math.log10(e.mean()) if e.mean() > 0 else -2.0) for x, e in zip(xs, reps)]
    fit = fit_rate(pts, replicate_errors=reps, seed=seed)
    assert (fit.ci_low, fit.ci_high) == _per_resample_ci(pts, reps, seed)


def test_fit_rate_ci_brackets_slope():
    rng = np.random.default_rng(1)
    pts = [(x, -0.9 * x + rng.normal(0, 0.05)) for x in np.linspace(2, 5, 8)]
    fit = fit_rate(pts)
    assert fit.ci_low <= fit.slope <= fit.ci_high


# --- StudyConfig ----------------------------------------------------------------


def test_study_config_validation():
    with pytest.raises(ValueError):
        _tiny_density_config(m_grid=(100, 100, 1000))  # not strictly increasing
    with pytest.raises(ValueError):
        _tiny_density_config(replicates=0)
    with pytest.raises(ValueError):
        _tiny_density_config(variant="nonsense")


@pytest.mark.parametrize("overrides,every_field", [
    pytest.param(dict(variant="noise-corrected", noise_tau=0.3, s=1.5, scale=2.0),
                 False, id="noise-corrected"),
    pytest.param(dict(space="sphere:2", law="heat:tau=0.3", t_lambda=1.5 * 0.8,
                      variant="noise-corrected", delta=0.5, noise_tau=0.2,
                      observation_noise_tau=0.25, s=1.5, scale=1.25,
                      m_grid=(10, 20, 40), replicates=7, seed=3, index="2",
                      thresholds=(1.0, 10.0, 1000.0), threads=2,
                      emit_coefficients=True, emit_svg=True, out="runs/x"),
                 True, id="every-field"),
])
def test_study_config_ini_round_trip(tmp_path, overrides, every_field):
    cfg = _tiny_density_config(**overrides)
    if every_field:  # a field added to StudyConfig must be set here too
        default = StudyConfig()
        assert all(getattr(cfg, f.name) != getattr(default, f.name)
                   for f in dataclasses.fields(StudyConfig))
    path = tmp_path / "study.cfg"
    path.write_text(cfg.to_ini_text())
    back = StudyConfig.from_ini(path)
    assert back == cfg


def test_study_config_ini_rejects_legacy_mode_key(tmp_path):
    # and the (intensity, time) pair that t_lambda, their product, replaced
    path = tmp_path / "study.cfg"
    for key, value in (("mode", "iid"), ("intensity", "2.0"), ("time", "0.5")):
        path.write_text(_tiny_density_config().to_ini_text() + f"{key} = {value}\n")
        with pytest.raises(ValueError, match=f"unknown study key '{key}'"):
            StudyConfig.from_ini(path)


def test_study_config_ini_overrides(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text(_tiny_density_config().to_ini_text())
    back = StudyConfig.from_ini(path, seed=99, m_grid=(10, 20, 40))
    assert back.seed == 99
    assert back.m_grid == (10, 20, 40)
    assert back.law == "wn:sigma=0.7"


def test_observation_noise_defaults_track_variant():
    plain = _tiny_density_config()
    assert plain.data_noise_tau() == 0.0
    nc = _tiny_density_config(variant="noise-corrected", noise_tau=0.3)
    assert nc.data_noise_tau() == 0.3
    # explicit observation noise wins regardless of variant
    forced = _tiny_density_config(observation_noise_tau=0.2)
    assert forced.data_noise_tau() == 0.2


# --- run_convergence_study --------------------------------------------------------


@pytest.fixture(scope="module")
def density_result():
    return run_convergence_study(_tiny_density_config())


def test_density_rows_structure(density_result):
    rows = density_result.rows
    assert [r["m"] for r in rows] == [100, 300, 1000]
    for r in rows:
        assert r["mean_error"] == r["variance_term"] + r["bias_term"]  # exact
        assert r["stderr"] > 0
        assert r["bias_bound_ok"] is True
        assert r["cutoff"] == pytest.approx(r["m"] ** 0.4)
    errs = [r["mean_error"] for r in rows]
    assert errs[0] > errs[-1]


def test_density_fit_and_reference(density_result):
    assert density_result.kind == "density"
    assert density_result.reference == pytest.approx(-0.8)
    assert density_result.fit is not None
    assert -2.0 < density_result.fit.slope < -0.3


def test_density_study_deterministic(density_result):
    again = run_convergence_study(_tiny_density_config())
    assert again.rows == density_result.rows
    assert again.fit == density_result.fit


def test_density_study_threads_do_not_change_numbers(density_result):
    # threads=3 splits the 5 replicates unevenly: (0, 2), (2, 4), (4, 5)
    for threads in (2, 3):
        threaded = run_convergence_study(_tiny_density_config(threads=threads))
        assert threaded.rows == density_result.rows
        assert threaded.fit == density_result.fit


def test_torus_density_study_threads_do_not_change_numbers():
    # the per-axis tables and their BLAS contraction run in forked pool
    # workers; m = 40000 spans two blocks of points
    cfg = dict(space="torus:2", law="wn:sigma=0.6", m_grid=(300, 3000, 40000), replicates=3)
    serial = run_convergence_study(_tiny_density_config(**cfg))
    for threads in (2, 3):
        threaded = run_convergence_study(_tiny_density_config(threads=threads, **cfg))
        assert threaded.rows == serial.rows
        assert threaded.fit == serial.fit


def test_density_study_notes_replicates_with_every_estimate_truncated():
    # at t Lambda = 10, |nu| is about 0.11 at the first index and smaller
    # beyond, so delta = 100 truncates every non-trivial estimate at every m
    # up to 400 (the trivial one stays at 1): each such replicate is counted
    # in a note for its m, in a pool too
    for threads in (1, 2):
        res = run_convergence_study(_tiny_density_config(
            delta=100.0, t_lambda=10.0, m_grid=(100, 200, 400), replicates=2,
            threads=threads))
        assert [n for n in res.notes if "truncated" in n] == [
            f"m={m}: 2 of 2 replicates had every non-trivial estimate truncated to 0"
            for m in (100, 200, 400)]
    # |nu| at the first index is about 0.8: delta = 100 truncates it at
    # m = 100 only, where nothing is kept, and the notes say so
    partly = run_convergence_study(_tiny_density_config(delta=100.0, replicates=2))
    assert [n for n in partly.notes if "truncated" in n] == [
        "m=100: 2 of 2 replicates had every non-trivial estimate truncated to 0"]
    assert not any("truncated" in n for n in run_convergence_study(
        _tiny_density_config(replicates=2)).notes)


def test_density_study_skips_the_fit_when_no_index_is_kept():
    # at scale 0.001 every cutoff (0.006 to 0.040) lies below the first
    # non-zero Casimir, so each row is the same bias with no variance and a
    # slope through the rows means nothing: no fit, a note, and a failed band
    res = run_convergence_study(_tiny_density_config(
        law="wn:sigma=0.55", m_grid=(100, 1000, 10000), scale=0.001))
    assert all(r["variance_term"] == 0.0 for r in res.rows)
    assert res.fit is None
    assert "no replicate kept a non-trivial estimate at any m; rate fit skipped" in res.notes
    assert res.apply_band(0.5).passed is False


@pytest.mark.parametrize("run", [run_coefficient_study, run_convergence_study])
@pytest.mark.parametrize("space,law", [("circle", "wn:sigma=0.7"), ("sphere:2", "heat:tau=0.5")])
def test_studies_never_draw_the_public_order(run, space, law, monkeypatch):
    # studies read samples only through the transform, a sum over the sample,
    # so they give the same rows when drawing the public order raises; m =
    # 20000 spans two blocks
    cfg = _tiny_density_config(space=space, law=law, replicates=2, m_grid=(100, 1000, 20_000))
    want = run(cfg)

    def refuse(*args):
        raise AssertionError("a study drew the public order")

    monkeypatch.setattr(simulate, "_in_random_order", refuse)
    got = run(cfg)
    assert got.rows == want.rows and got.fit == want.fit


def test_cap_density_bias_counts_mass_beyond_truth_table():
    # a cap's coefficients decay slowly, so the truth table leaves real mass
    # out; the bias is measured against the law: ||f||^2 = 1/V less the kept mass
    cfg = _tiny_density_config(space="sphere:2", law="cap:rho=1.2", replicates=2)
    law = cfg.law_object()
    norm2 = law.radial_density(0.0)
    for row in run_convergence_study(cfg).rows:
        kept = sum(ix.multiplicity * abs(law.coefficient(ix)) ** 2
                   for ix in spectrum(cfg.space_object(), row["cutoff"]))
        assert abs(row["bias_term"] - (norm2 - kept)) <= 1e-12


def test_apply_band(density_result):
    res = run_convergence_study(_tiny_density_config())
    res.apply_band(5.0)
    assert res.passed is True
    res.apply_band(1e-6)
    assert res.passed is False


# --- run_coefficient_study ---------------------------------------------------------


def test_coefficient_mse_shrinks_with_m():
    # the replicate streams at m = 100 and 10000 are those of seed 9
    res = run_coefficient_study(StudyConfig(space="sphere:2", law="heat:tau=0.5", index="1",
                                            m_grid=(100, 1000, 10_000), replicates=30,
                                            seed=9))
    assert res.rows[-1]["mse"] < res.rows[0]["mse"] / 10


def test_coefficient_study_rows_and_reference():
    cfg = _tiny_density_config(replicates=30)
    res = run_coefficient_study(cfg)
    assert res.kind == "coefficient"
    assert res.reference == pytest.approx(-1.0)
    assert [r["m"] for r in res.rows] == [100, 300, 1000]
    for r in res.rows:
        assert r["mse"] > 0 and r["stderr"] > 0
    # the default index is the lowest nonzero level, whose MSE shrinks ~ 1/m
    assert res.fit.slope == pytest.approx(-1.0, abs=0.4)


def test_coefficient_study_explicit_index():
    cfg = _tiny_density_config(replicates=10, index="2")
    res = run_coefficient_study(cfg)
    assert res.fit is not None
    cfg0 = _tiny_density_config(replicates=10, index="0")
    res0 = run_coefficient_study(cfg0)
    assert res0.fit is None  # trivial index estimates exactly, no rate to fit
    assert all(r["mse"] == 0.0 for r in res0.rows)
    # the trivial index is not a non-trivial estimate: nothing was kept
    assert res0.notes == ("no replicate kept a non-trivial estimate at any m; rate fit skipped",)


def test_coefficient_study_skips_the_fit_when_every_estimate_is_truncated():
    # delta / m above |nu| at every m: each estimate is 0, so each squared
    # error is |c|^2 with no spread, and no slope through the rows means anything
    index = make_index(parse_space("circle"), (1,))
    for threads in (1, 2):
        cfg = _tiny_density_config(delta=1e9, replicates=2, threads=threads)
        res = run_coefficient_study(cfg)
        c = cfg.law_object().coefficient(index)
        assert [(r["mse"], r["stderr"]) for r in res.rows] == [(abs(c) ** 2, 0.0)] * 3
        assert res.fit is None
        assert res.notes == tuple(
            f"m={m}: 2 of 2 replicates had every non-trivial estimate truncated to 0"
            for m in (100, 300, 1000)) + (
            "no replicate kept a non-trivial estimate at any m; rate fit skipped",)
    # |nu| is about 0.8: delta = 100 truncates m = 100 only, and the fit stays
    partly = run_coefficient_study(_tiny_density_config(delta=100.0, replicates=2))
    assert partly.rows[0]["stderr"] == 0.0 and partly.rows[1]["stderr"] > 0.0
    assert partly.fit is not None and partly.notes == (
        "m=100: 2 of 2 replicates had every non-trivial estimate truncated to 0",)


def test_coefficient_study_notes_replicates_with_every_estimate_truncated():
    # |nu| is about 0.8 at index 1, so delta = 80.5 puts delta / m at m = 100
    # inside the spread of |nu_hat|: some replicates truncate there, none
    # beyond, and the note counts them, in a pool too
    for threads in (1, 2):
        res = run_coefficient_study(_tiny_density_config(delta=80.5, replicates=6,
                                                         threads=threads))
        assert res.notes == (
            "m=100: 2 of 6 replicates had every non-trivial estimate truncated to 0",)
        assert res.fit is not None


def test_coefficient_study_with_zero_errors_skips_the_fit_without_calling_it_trivial():
    # sigma = 1e-9 moves no point off the origin in double precision, so index
    # 1 is estimated exactly (1) at every m: a kept, non-trivial estimate
    # whose zero errors leave no logarithm to fit
    res = run_coefficient_study(StudyConfig(space="circle", law="wn:sigma=1e-9", index="1",
                                            m_grid=(100, 1000, 10_000), replicates=3))
    assert [r["mse"] for r in res.rows] == [0.0] * 3
    assert res.fit is None
    assert res.notes == ("mse is 0 at m=100,1000,10000; rate fit skipped",)
    assert res.apply_band(0.5).passed is False


def test_coefficient_study_torus_index_parsing():
    cfg = StudyConfig(space="torus:2", law="wn:sigma=0.6", index="1;-1",
                      m_grid=(100, 300, 1000), replicates=10, seed=2)
    res = run_coefficient_study(cfg)
    assert res.fit is not None


def test_coefficient_study_threads_do_not_change_numbers():
    # threads=3 splits the 5 replicates unevenly: (0, 2), (2, 4), (4, 5)
    base = dict(space="sphere:2", law="heat:tau=0.5", m_grid=(100, 300, 1000),
                replicates=5, seed=3)
    serial = run_coefficient_study(StudyConfig(**base))
    for threads in (2, 3):
        pooled = run_coefficient_study(StudyConfig(**base, threads=threads))
        assert pooled.rows == serial.rows
        assert pooled.fit == serial.fit


# --- the shared replicate runner ---------------------------------------------------


def test_standard_error_is_std_over_root_n():
    values = np.random.default_rng(3).uniform(size=40)
    assert harness.standard_error(values) == pytest.approx(
        float(values.std(ddof=1)) / math.sqrt(40), rel=1e-9)
    assert math.isnan(harness.standard_error(values[:1]))


@pytest.mark.parametrize("study", [run_convergence_study, run_coefficient_study])
def test_studies_sample_once_per_replicate_through_the_harness(monkeypatch, study):
    sampled = []

    def counting(config, m):
        sampled.append(m)
        return sample_compound(config, m)

    monkeypatch.setattr(harness, "sample_compound", counting)
    study(_tiny_density_config(replicates=4))
    assert sorted(sampled) == sorted([100, 300, 1000] * 4)


@pytest.fixture
def pools_opened(monkeypatch):
    opened = []

    class CountingPool(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    return opened


def test_the_pool_opens_no_more_workers_than_cpus(monkeypatch):
    # a pool forks all its workers at its first job, however few units there
    # are; the bound is checked before the pool is built, so none is forked
    class BoundedPool(harness.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            assert max_workers <= (os.cpu_count() or 1)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", BoundedPool)
    pooled = run_coefficient_study(_tiny_density_config(replicates=2, threads=10_000))
    assert pooled.rows == run_coefficient_study(_tiny_density_config(replicates=2)).rows


@pytest.mark.parametrize("study", [run_convergence_study, run_coefficient_study])
def test_one_pool_per_study(pools_opened, study):
    serial = study(_tiny_density_config(replicates=3))
    pooled = study(_tiny_density_config(replicates=3, threads=2))
    assert len(pools_opened) == 1  # not one per m of the 3-point grid
    assert pooled.rows == serial.rows


# a wrapped normal with a nonzero mean is not inverse invariant, so the real
# part of its transform does not determine its coefficients
_SHIFTED = "wn:sigma=0.7,mean=1"


def _shifted_law():
    return parse_law(_SHIFTED, parse_space("circle"))


_REAL_LOG = EstimatorConfig(variant=Variant.REAL_LOG)
# noise-corrected reads only Re nu as well
_NOISE = dict(variant="noise-corrected", noise_tau=0.3)
_NOISE_CORRECTED = EstimatorConfig(**_NOISE)


def _shifted_sample():
    return sample_compound(ProcessConfig(law=_shifted_law(), seed=1), 50)


@pytest.mark.parametrize("call", [
    lambda: reconstruct(_shifted_sample(), _REAL_LOG, SobolevSpec(2.0)),
    lambda: estimate_coefficients(_shifted_sample(), [make_index(parse_space("circle"), (1,))],
                                  _REAL_LOG),
    lambda: run_convergence_study(_tiny_density_config(law=_SHIFTED, variant="real-log",
                                                       threads=2)),
    lambda: run_coefficient_study(_tiny_density_config(law=_SHIFTED, variant="real-log",
                                                       threads=2)),
    lambda: reconstruct(_shifted_sample(), _NOISE_CORRECTED, SobolevSpec(2.0)),
    lambda: estimate_coefficients(_shifted_sample(), [make_index(parse_space("circle"), (1,))],
                                  _NOISE_CORRECTED),
    lambda: run_convergence_study(_tiny_density_config(law=_SHIFTED, threads=2, **_NOISE)),
    lambda: run_coefficient_study(_tiny_density_config(law=_SHIFTED, threads=2, **_NOISE)),
], ids=["reconstruct", "estimate_coefficients", "run_convergence_study",
        "run_coefficient_study", "reconstruct-noise-corrected",
        "estimate_coefficients-noise-corrected", "run_convergence_study-noise-corrected",
        "run_coefficient_study-noise-corrected"])
def test_real_log_rejects_laws_without_inverse_invariance(pools_opened, call):
    with pytest.raises(ValueError, match="real-log variants require an inverse-invariant law"):
        call()
    assert pools_opened == []  # the studies check before opening a pool


@pytest.mark.parametrize("study", [run_convergence_study, run_coefficient_study])
def test_m_grid_below_one_rejected_before_any_pool(pools_opened, study):
    with pytest.raises(ValueError, match="m_grid values must be >= 1"):
        study(_tiny_density_config(m_grid=(0, 10, 100), threads=2))
    # the one runner checks the grid's length, an empty grid too, before its pool
    for grid in ((), (100, 1000)):
        with pytest.raises(ValueError, match="m_grid needs at least 3 values for a rate fit"):
            study(_tiny_density_config(m_grid=grid, threads=2))
    assert pools_opened == []


@pytest.mark.parametrize("tau", [-0.5, float("inf")])
def test_observation_noise_tau_rejected_before_any_pool(pools_opened, tau):
    # the config rejects it, naming the field, before a worker could see it
    with pytest.raises(ValueError, match="observation_noise_tau must be finite and >= 0"):
        run_coefficient_study(_tiny_density_config(observation_noise_tau=tau, threads=2))
    assert pools_opened == []


# --- run_census ----------------------------------------------------------------------


def test_census_slopes_near_references():
    res = run_census(StudyConfig(space="sphere:2", seed=0))
    assert res.kind == "census"
    assert res.reference == pytest.approx(0.5)       # rank/2
    assert res.secondary_reference == pytest.approx(1.0)  # dim/2
    assert abs(res.fit.slope - 0.5) < 0.1
    assert abs(res.secondary_fit.slope - 1.0) < 0.1


def test_census_rejects_bad_threshold_grids():
    with pytest.raises(ValueError):
        run_census(StudyConfig(space="circle", thresholds=(100.0, 200.0, 400.0)))  # < 2 decades
    with pytest.raises(ValueError):
        # not increasing
        run_census(StudyConfig(space="circle", thresholds=(100.0, 100.0, 10_000.0)))
    # log10 of a zero threshold has no value; the counting itself accepts 0
    with pytest.raises(ValueError, match="thresholds must be finite and > 0"):
        run_census(StudyConfig(space="sphere:2", thresholds=(0.0, 100.0, 1000.0)))
    assert weyl_census(parse_space("sphere:2"), (0.0,)) == [(1, 1)]


def test_torus_census_memory_is_bounded():
    # the default thresholds reach 1e5, about 1.3e8 lattice points on torus:3;
    # counting them must not list them (a passing run maps about 150 MB), so
    # the child runs under a 1 GiB address-space limit
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    script = ("import resource, sys; "
              "hard = resource.getrlimit(resource.RLIMIT_AS)[1]; "
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard)); "
              "sys.path.insert(0, sys.argv[1]); from decompound import StudyConfig, run_census; "
              "print(run_census(StudyConfig(space='torus:3')).rows[-1]['count_spherical'])")
    proc = subprocess.run([sys.executable, "-c", script, src], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    # sum over (a, b) with a^2 + b^2 <= 1e5 of 2 isqrt(1e5 - a^2 - b^2) + 1
    assert int(proc.stdout) == 132_459_677


def test_census_above_its_top_threshold_fails_before_allocating():
    # torus:2 to 1e12 would need 8 TB of shell counts: the census refuses any
    # threshold above its top before allocating, and the cli exits 2; the
    # child runs under a 1 GiB address-space limit
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    top = spaces._CENSUS_TOP
    assert 1e6 <= top
    script = "\n".join([
        "import resource, sys",
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]",
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))",
        "sys.path.insert(0, sys.argv[1])",
        "from decompound.cli import main",
        "from decompound.spaces import circle, parse_space, weyl_census",
        "top = float(sys.argv[2])",
        "print(weyl_census(circle(), [top])[0][0])",
        "for space in ('circle', 'sphere:2', 'torus:2', 'torus:3'):",
        "    for t in (top * (1 + 1e-15), 1e12):",
        "        try:",
        "            weyl_census(parse_space(space), [1.0, t])",
        "        except ValueError as exc:",
        "            assert 'census thresholds reach at most' in str(exc), exc",
        "        else:",
        "            raise AssertionError((space, t))",
        "print(main(['census', '--space', 'torus:2', '--thresholds', '1e10,1e11,1e12']))",
    ])
    proc = subprocess.run([sys.executable, "-c", script, src, repr(top)], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    # at the top itself the circle still counts: 2 floor(sqrt(top)) + 1 frequencies
    assert proc.stdout.split() == [str(2 * math.isqrt(int(top)) + 1), "2"]
    assert "census thresholds reach at most" in proc.stderr


# --- outputs ----------------------------------------------------------------------------


def test_write_study_outputs_files(tmp_path, density_result):
    cfg = _tiny_density_config(emit_svg=True, emit_coefficients=True)
    res = run_convergence_study(cfg)
    paths = write_study_outputs(res, tmp_path)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert "results.csv" in names
    assert "plotdata.csv" in names
    assert "fit.json" in names
    assert "study.cfg" in names
    assert "chart.svg" in names
    assert [n for n in names if n.startswith("coefficients_m")] == [
        "coefficients_m100.csv",
        "coefficients_m1000.csv",
        "coefficients_m300.csv",
    ]

    with open(tmp_path / "results.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert float(rows[0]["mean_error"]) == res.rows[0]["mean_error"]

    fit = json.loads((tmp_path / "fit.json").read_text())
    assert fit["fit"]["slope"] == res.fit.slope
    assert fit["fit"]["reference"] == res.reference
    assert fit["kind"] == "density"

    cfg_back = StudyConfig.from_ini(tmp_path / "study.cfg")
    assert cfg_back == cfg


def test_plotdata_has_fit_and_reference_lines(tmp_path):
    res = run_convergence_study(_tiny_density_config())
    write_study_outputs(res, tmp_path)
    with open(tmp_path / "plotdata.csv") as fh:
        rows = list(csv.DictReader(fh))
    measured = [r for r in rows if r["series"] == "measured"]
    assert len(measured) == 3
    xs = [float(r["log10_x"]) for r in measured]
    ref = [float(r["log10_reference"]) for r in measured]
    fitted = [float(r["log10_fit"]) for r in measured]
    ref_slope = (ref[-1] - ref[0]) / (xs[-1] - xs[0])
    fit_slope = (fitted[-1] - fitted[0]) / (xs[-1] - xs[0])
    assert ref_slope == pytest.approx(res.reference, abs=1e-12)
    assert fit_slope == pytest.approx(res.fit.slope, abs=1e-12)


def test_svg_is_valid_xml(tmp_path):
    res = run_convergence_study(_tiny_density_config(emit_svg=True))
    write_study_outputs(res, tmp_path)
    root = ET.parse(tmp_path / "chart.svg").getroot()
    assert root.tag.endswith("svg")


def test_outputs_byte_identical_across_runs(tmp_path):
    cfg = _tiny_density_config(emit_svg=True)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_study_outputs(run_convergence_study(cfg), d1)
    write_study_outputs(run_convergence_study(cfg), d2)
    for p in sorted(d1.iterdir()):
        assert (d2 / p.name).read_bytes() == p.read_bytes()


def test_census_outputs(tmp_path):
    res = run_census(StudyConfig(space="circle", seed=0))
    write_study_outputs(res, tmp_path)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert "census.csv" in names and "results.csv" not in names
    with open(tmp_path / "census.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {"threshold", "count_spherical", "count_weighted"} <= set(rows[0])
    assert len(rows) == 10  # default grid: ten points over three decades


def test_sphere_studies_never_lift_their_samples(monkeypatch):
    # estimates read only the walked cosines, so a study on a sphere runs
    # to the same rows with the lift taken away
    coeff = StudyConfig(space="sphere:2", law="heat:tau=0.5", index="2", replicates=4,
                        m_grid=(100, 1000, 5000), variant="noise-corrected", noise_tau=0.3,
                        seed=3)
    density = _tiny_density_config(space="sphere:2", law="heat:tau=0.35", replicates=3)
    want = run_coefficient_study(coeff), run_convergence_study(density)

    def no_lift(*args):
        raise AssertionError("a study lifted its sample")

    monkeypatch.setattr(simulate, "_lift_from_origin", no_lift)
    got = run_coefficient_study(coeff), run_convergence_study(density)
    for g, w in zip(got, want):
        assert g.rows == w.rows
        assert g.fit == w.fit
