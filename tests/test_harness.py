"""Study drivers: rate fits, CSV/SVG outputs, INI configs, determinism."""

import csv
import dataclasses
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from decompound import (
    EstimatorConfig,
    ProcessConfig,
    SobolevSpec,
    StudyConfig,
    Variant,
    coefficient_errors,
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
    write_study_outputs,
)


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
    pytest.param(dict(space="sphere:2", law="heat:tau=0.3", intensity=1.5, time=0.8,
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
    path = tmp_path / "study.cfg"
    path.write_text(_tiny_density_config().to_ini_text() + "mode = iid\n")
    with pytest.raises(ValueError, match="'mode'"):
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


def test_apply_band(density_result):
    res = run_convergence_study(_tiny_density_config())
    res.apply_band(5.0)
    assert res.passed is True
    res.apply_band(1e-6)
    assert res.passed is False


# --- run_coefficient_study ---------------------------------------------------------


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
    assert res0.notes


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


@pytest.fixture
def pools_opened(monkeypatch):
    opened = []

    class CountingPool(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    return opened


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


@pytest.mark.parametrize("call", [
    lambda: reconstruct(sample_compound(ProcessConfig(law=_shifted_law(), seed=1), 50),
                        _REAL_LOG, SobolevSpec(2.0)),
    lambda: coefficient_errors(_shifted_law(), _REAL_LOG, make_index(parse_space("circle"), (1,)),
                               m=50, replicates=2, seed=1),
    lambda: run_convergence_study(_tiny_density_config(law=_SHIFTED, variant="real-log",
                                                       threads=2)),
    lambda: run_coefficient_study(_tiny_density_config(law=_SHIFTED, variant="real-log",
                                                       threads=2)),
], ids=["reconstruct", "coefficient_errors", "run_convergence_study", "run_coefficient_study"])
def test_real_log_rejects_laws_without_inverse_invariance(pools_opened, call):
    with pytest.raises(ValueError, match="real-log variants require an inverse-invariant law"):
        call()
    assert pools_opened == []  # the studies check before opening a pool


# --- run_census ----------------------------------------------------------------------


def test_census_slopes_near_references():
    res = run_census("sphere:2", seed=0)
    assert res.kind == "census"
    assert res.reference == pytest.approx(0.5)       # rank/2
    assert res.secondary_reference == pytest.approx(1.0)  # dim/2
    assert abs(res.fit.slope - 0.5) < 0.1
    assert abs(res.secondary_fit.slope - 1.0) < 0.1


def test_census_rejects_bad_threshold_grids():
    with pytest.raises(ValueError):
        run_census("circle", thresholds=(100.0, 200.0, 400.0))  # < 2 decades
    with pytest.raises(ValueError):
        run_census("circle", thresholds=(100.0, 100.0, 10_000.0))  # not increasing


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
    res = run_census("circle", seed=0)
    write_study_outputs(res, tmp_path)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert "census.csv" in names and "results.csv" not in names
    with open(tmp_path / "census.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {"threshold", "count_spherical", "count_weighted"} <= set(rows[0])
    assert len(rows) == 10  # default grid: ten points over three decades
