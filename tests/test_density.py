"""Spectral-cutoff reconstruction, L2 error accounting, Sobolev norms."""

import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from decompound import (
    CoefficientVector,
    CoverageError,
    DensityEstimate,
    EstimatorConfig,
    HeatZonal,
    ProcessConfig,
    SobolevSpec,
    SpectralIndex,
    UniformCap,
    Variant,
    WrappedNormal,
    circle,
    l2_error,
    make_index,
    parse_law,
    parse_space,
    quadrature_coefficients,
    reconstruct,
    sample_compound,
    smoothing_cutoff,
    sobolev_norm,
    sphere,
    spectrum,
    spherical,
    torus,
    trapezoid_angles,
    true_coefficients,
    truth_table,
    zonal_quadrature,
)
from decompound import density
from decompound.spaces import _CHUNK, index_label, spherical_synthesis


def _vec(space, mapping):
    return CoefficientVector(
        [(make_index(space, label), value) for label, value in mapping.items()]
    )


# --- smoothing cutoff ----------------------------------------------------------


def test_smoothing_cutoff_values():
    # T = scale * m^(2 / (2s + d))
    assert smoothing_cutoff(100, 2.0, sphere(2)) == pytest.approx(
        4.641588833612779, abs=1e-12
    )
    assert smoothing_cutoff(10_000, 2.0, circle()) == pytest.approx(
        39.810717055349734, abs=1e-10
    )
    assert smoothing_cutoff(100, 2.0, torus(2), scale=2.0) == pytest.approx(
        2 * 4.641588833612779, abs=1e-12
    )


def test_smoothing_cutoff_validation():
    with pytest.raises(ValueError):
        smoothing_cutoff(0, 2.0, circle())
    with pytest.raises(ValueError):
        smoothing_cutoff(100, -1.0, circle())


def test_sobolev_spec_validation():
    SobolevSpec(2.0)
    with pytest.raises(ValueError):
        SobolevSpec(0.0)


# --- l2_error -------------------------------------------------------------------


def test_l2_error_worked_example():
    c = circle()
    est = DensityEstimate(
        coeffs=_vec(c, {(0,): 1.0, (1,): 0.4}), space=c, m=10, cutoff=2.0
    )
    truth = _vec(c, {(0,): 1.0, (1,): 0.5, (2,): 0.25})
    err = l2_error(est, truth)
    assert err.variance_term == pytest.approx(0.01, abs=1e-15)
    assert err.bias_term == pytest.approx(0.0625, abs=1e-15)
    assert err.total == pytest.approx(0.0725, abs=1e-15)
    assert err.total == err.variance_term + err.bias_term  # exact identity


def test_l2_error_weights_by_multiplicity():
    s = sphere(2)
    est = DensityEstimate(
        coeffs=_vec(s, {(0,): 1.0, (1,): 0.6}), space=s, m=10, cutoff=3.0
    )
    truth = _vec(s, {(0,): 1.0, (1,): 0.5, (2,): 0.25})
    err = l2_error(est, truth)
    assert err.variance_term == pytest.approx(3 * 0.01, abs=1e-15)
    assert err.bias_term == pytest.approx(5 * 0.0625, abs=1e-15)


def test_l2_error_requires_covering_truth():
    c = circle()
    est = DensityEstimate(
        coeffs=_vec(c, {(0,): 1.0}), space=c, m=10, cutoff=9.0
    )
    shallow = _vec(c, {(0,): 1.0, (1,): 0.5})  # stops at casimir 1 < 9
    with pytest.raises(CoverageError):
        l2_error(est, shallow)


def test_l2_error_parseval_route_circle():
    # the coefficient-space total must equal the quadrature L2 distance
    law = HeatZonal(circle(), tau0=0.4)
    cfg = ProcessConfig(law=law, t_lambda=1.0, seed=6)
    obs = sample_compound(cfg, 20_000)
    est = reconstruct(obs, EstimatorConfig(variant=Variant.REAL_LOG,
                                           t_lambda=1.0),
                      SobolevSpec(2.0))
    truth, tail = truth_table(law, est.cutoff)
    total = l2_error(est, truth).total

    grid = trapezoid_angles(8192)[:, None]
    diff = est.evaluate(grid) - law.density_on_angles(grid)
    quad_total = float(np.mean(diff**2))  # normalized measure on the circle
    assert total == pytest.approx(quad_total, abs=1e-8 + 10 * tail)


def test_l2_error_parseval_route_sphere():
    law = HeatZonal(sphere(2), tau0=0.5)
    cfg = ProcessConfig(law=law, t_lambda=1.0, seed=7)
    obs = sample_compound(cfg, 5_000)
    est = reconstruct(obs, EstimatorConfig(variant=Variant.REAL_LOG,
                                           t_lambda=1.0),
                      SobolevSpec(2.0))
    truth, tail = truth_table(law, est.cutoff)
    total = l2_error(est, truth).total

    angles, weights = zonal_quadrature(sphere(2), 512)
    pts = np.stack([np.sin(angles), np.zeros_like(angles), np.cos(angles)], axis=1)
    diff = est.evaluate(pts) - law.radial_density(angles)
    quad_total = float(np.sum(weights * diff**2))
    assert total == pytest.approx(quad_total, abs=1e-8 + 10 * tail)


# --- sobolev_norm ----------------------------------------------------------------


def test_sobolev_norm_heat_series():
    tau0 = 0.4
    law = HeatZonal(circle(), tau0=tau0)
    truth, _ = truth_table(law, 25.0)
    got = sobolev_norm(truth, circle(), 2.0)
    want_sq = 1.0 + 2.0 * sum(
        (1.0 + n**4) * math.exp(-2 * n * n * tau0) for n in range(1, 60)
    )
    assert got == pytest.approx(math.sqrt(want_sq), rel=1e-10)


def test_sobolev_norm_s_zero_is_l2_norm():
    c = circle()
    vec = _vec(c, {(0,): 1.0, (1,): 0.5, (-1,): 0.5})
    assert sobolev_norm(vec, c, 0.0) == pytest.approx(math.sqrt(1.5))


def test_sobolev_norm_rejects_divergent_tail():
    # a uniform cap is too rough for s = 2: the weighted octaves do not decay
    law = UniformCap(sphere(2), rho=0.8)
    truth, _ = truth_table(law, 30.0)
    with pytest.raises(ValueError):
        sobolev_norm(truth, sphere(2), 2.0)


# --- truth_table ------------------------------------------------------------------


def test_truth_table_covers_cutoff_with_small_tail():
    law = HeatZonal(circle(), tau0=0.4)
    truth, tail = truth_table(law, 25.0)
    assert truth.max_casimir >= 25.0
    assert truth[make_index(circle(), (0,))] == 1.0
    assert 0.0 <= tail < 1e-15
    # table values are the analytic coefficients
    assert truth[make_index(circle(), (3,))] == pytest.approx(
        math.exp(-9 * 0.4), abs=1e-15
    )


def test_truth_table_cap_reports_positive_tail():
    law = UniformCap(sphere(2), rho=1.0)
    truth, tail = truth_table(law, 4.0)
    assert truth.max_casimir >= 16.0  # extends well past the requested cutoff
    assert tail > 0.0


@pytest.mark.parametrize("rho", [0.5, 1.2, 2.9])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_truth_table_cap_tail_is_exact(d, rho):
    # the cap density is 1/V on a set of normalized measure V, so by Parseval
    # the squared L2 mass beyond the table is 1/V minus the kept d|c|^2
    space = sphere(d)
    law = UniformCap(space, rho=rho)
    truth, tail = truth_table(law, 4.0)
    zonal = [integrate.quad(lambda t: math.sin(t) ** (d - 1), 0.0, b)[0]
             for b in (rho, math.pi)]
    kept = sum(ix.multiplicity * abs(v) ** 2 for ix, v in truth.items())
    assert tail == pytest.approx(zonal[1] / zonal[0] - kept, rel=1e-9)
    # so it holds at least the mass of the next degrees
    top = max(ix.label[0] for ix in truth.indices())
    nxt = [make_index(space, (ell,)) for ell in range(top + 1, 4 * top + 1)]
    beyond = sum(ix.multiplicity * abs(v) ** 2
                 for ix, v in quadrature_coefficients(law, nxt).items())
    assert 0.0 < beyond < tail


def _reach(law, cutoff):
    # the index casimir to which each law's truth table extends at least
    if isinstance(law, HeatZonal):
        reach = math.log(1e10) / law.tau0
    elif isinstance(law, WrappedNormal):
        reach = 2.0 * math.log(1e10) / law.sigma**2
    else:
        reach = max(4.0 * cutoff, 50.0)
    return max(cutoff, reach)


_TRUTH_CASES = [  # flat-density at m = 1e5, then the C5 studies' m grid
    ("torus:2", "wn:sigma=0.5", (100_000,)),
    ("torus:3", "wn:sigma=0.5", (100_000,)),
    ("circle", "wn:sigma=0.55", (100, 1000, 10_000, 100_000)),
    ("sphere:2", "heat:tau=0.35", (100, 1000, 10_000, 100_000)),
]


def _case_id(value):
    return "m=" + "|".join(map(str, value)) if isinstance(value, tuple) else value


@pytest.mark.parametrize("space_text,law_text,ms", _TRUTH_CASES + [
    ("sphere:3", "cap:rho=1.2", (100, 100_000)),
    ("sphere:4", "heat:tau=0.045", (100, 100_000)),
], ids=_case_id)
def test_truth_table_enumerates_spectrum_once_to_first_level_past_cutoff(
        monkeypatch, space_text, law_text, ms):
    # one spectrum table, no further than the reach or the first spectrum
    # level past the cutoff ((n+1)^2 on flat spaces, (n+1)(n+d) on spheres),
    # and one evaluation of the law's coefficient formula per kept entry: the
    # rows handed to the law's table formula are the kept entries
    space = parse_space(space_text)
    law = parse_law(law_text, space)
    casimir_maxes = []
    coefficient_calls = []

    def recording_table(space, casimir_max):
        casimir_maxes.append(casimir_max)
        return spectrum_table(space, casimir_max)

    def counting_coefficients(self, labels, casimir):
        coefficient_calls.extend(labels.tolist())
        return law_coefficients(self, labels, casimir)

    spectrum_table = density._spectrum_table
    law_coefficients = type(law)._coefficients
    monkeypatch.setattr(density, "_spectrum_table", recording_table)
    monkeypatch.setattr(type(law), "_coefficients", counting_coefficients)
    for m in ms:
        cutoff = smoothing_cutoff(m, 2.0, space)
        casimir_maxes.clear()
        coefficient_calls.clear()
        truth, _ = truth_table(law, cutoff)
        n = math.isqrt(int(cutoff))
        assert len(casimir_maxes) == 1
        assert casimir_maxes[0] <= max(_reach(law, cutoff), (n + 1) * (n + space.dim))
        assert len(coefficient_calls) == len(truth)


@pytest.mark.parametrize("space_text,law_text,ms", _TRUTH_CASES, ids=_case_id)
def test_truth_table_keeps_the_extended_enumeration_and_drops_negligible_mass(
        space_text, law_text, ms):
    # the table the extended enumeration to 2 reach + 10 kept, and the mass
    # beyond it, summed out there, is below 1e-17: so the tail reads 0.0
    space = parse_space(space_text)
    law = parse_law(law_text, space)
    for m in ms:
        cutoff = smoothing_cutoff(m, 2.0, space)
        reach = _reach(law, cutoff)
        extended = spectrum(space, 2.0 * reach + 10.0)
        keep_to = max(reach, min(ix.casimir for ix in extended if ix.casimir > cutoff))
        truth, tail = truth_table(law, cutoff)
        want = true_coefficients(law, [ix for ix in extended if ix.casimir <= keep_to])
        assert truth.items() == want.items()
        assert tail == 0.0
        beyond = sum(ix.multiplicity * abs(law.coefficient(ix)) ** 2
                     for ix in extended if ix.casimir > keep_to)
        assert beyond <= 1e-17


# --- the array scoring path against the per-index reference --------------------
#
# truth_table, l2_error and sobolev_norm read spectral tables as arrays and
# build no SpectralIndex; below are the per-index versions they replaced,
# one SpectralIndex and one coefficient call per entry.  The array path must
# give the same bits.


def _reference_coefficient(law, ix):
    # a wrapped normal's formula takes its phase at every mean, zero included
    if isinstance(law, WrappedNormal):
        phase = float(np.asarray(ix.label, dtype=float) @ np.asarray(law.mean))
        return complex(math.exp(-0.5 * ix.casimir * law.sigma**2)) * complex(
            math.cos(phase), -math.sin(phase))
    return law.coefficient(ix)


def _reference_truth_table(law, cutoff):
    if isinstance(law, HeatZonal):
        reach = math.log(1.0 / density._TRUTH_COVERAGE) / law.tau0
    elif isinstance(law, WrappedNormal):
        reach = 2.0 * math.log(1.0 / density._TRUTH_COVERAGE) / law.sigma**2
    else:
        reach = max(4.0 * cutoff, 50.0)
    reach = max(float(cutoff), reach)
    n, d = math.isqrt(int(cutoff)), law.space.dim
    indices = spectrum(law.space, max(reach, (n + 1) * (n + d)))
    keep_to = max(reach, min(ix.casimir for ix in indices if ix.casimir > cutoff))
    kept = CoefficientVector((ix, _reference_coefficient(law, ix))
                             for ix in indices if ix.casimir <= keep_to)
    tail = 0.0
    if isinstance(law, UniformCap):
        tail = law.radial_density(0.0) - math.fsum(ix.multiplicity * abs(v) ** 2
                                                   for ix, v in kept.items())
    return kept, float(tail)


def _reference_l2_error(est, truth):
    terms = []
    for ix, value in est.coeffs.items():
        if ix not in truth:
            raise CoverageError(f"truth is missing index {ix.label}")
        terms.append(ix.multiplicity * abs(value - truth[ix]) ** 2)
    variance = math.fsum(terms)
    bias = math.fsum(ix.multiplicity * abs(c) ** 2
                     for ix, c in truth.items() if ix not in est.coeffs)
    return variance, bias, variance + bias


def _reference_sobolev_norm(coeffs, space, s):
    weights = []
    for ix, c in coeffs.items():
        w = ix.multiplicity * abs(c) ** 2
        if s > 0:
            w *= 1.0 + ix.casimir**s
        weights.append((ix.casimir, w))
    total = math.fsum(w for _, w in weights)
    kmax = max(k for k, _ in weights)
    if kmax > 1.0:
        j_top = math.floor(math.log2(kmax))
        top = math.fsum(w for k, w in weights if 2.0**j_top <= k)
        prev = math.fsum(w for k, w in weights if 2.0 ** (j_top - 1) <= k < 2.0**j_top)
        if top > 1e-10 and prev > 0.0:
            if top >= prev:
                raise ValueError("coefficient tail is not summable against kappa^s "
                                 "(octave sums do not decrease)")
            ratio = top / prev
            if top * ratio / (1.0 - ratio) > 1e-10:
                raise ValueError("Sobolev partial sums do not stabilize to 1e-10; "
                                 "extend the coefficient vector or lower s")
    return math.sqrt(total)


def _hex_items(vec):
    return [(ix.label, ix.casimir.hex(), ix.multiplicity, v.real.hex(), v.imag.hex(),
             vec.is_truncated(ix)) for ix, v in vec.items()]


def _outcome(norm, coeffs, space, s):
    try:
        return norm(coeffs, space, s).hex()
    except ValueError as exc:
        return str(exc)


_BITS_CASES = [
    ("circle", "wn:sigma=0.55"),
    ("torus:2", "wn:sigma=0.5"),
    ("torus:2", "heat:tau=0.4"),
    ("torus:2", "wn:sigma=0.6,mean=0.4;-1"),
    ("torus:3", "wn:sigma=0.5"),
    ("sphere:2", "heat:tau=0.35"),
    ("sphere:3", "cap:rho=1.2"),
]


@pytest.mark.parametrize("space_text,law_text", _BITS_CASES)
def test_scoring_matches_the_per_index_reference_bit_for_bit(space_text, law_text):
    space = parse_space(space_text)
    law = parse_law(law_text, space)
    variant = Variant.REAL_LOG if law.inverse_invariant else Variant.COMPLEX_LOG
    obs = sample_compound(ProcessConfig(law=law, seed=11), 3000)
    est = reconstruct(obs, EstimatorConfig(variant=variant), SobolevSpec(2.0), scale=2.0)
    truth, tail = truth_table(law, est.cutoff)
    want, want_tail = _reference_truth_table(law, est.cutoff)
    assert _hex_items(truth) == _hex_items(want)
    assert all(type(v) is complex for _, v in truth.items())
    assert tail.hex() == want_tail.hex()
    assert [x.hex() for x in l2_error(est, truth)] == \
        [x.hex() for x in _reference_l2_error(est, want)]
    # an estimate whose indices are not the head of the truth table: every
    # other index of the reconstruct, its trivial one kept
    sparse = DensityEstimate(
        coeffs=CoefficientVector([(ix, v) for j, (ix, v) in enumerate(est.coeffs.items())
                                  if j % 2 == 0]),
        space=space, m=est.m, cutoff=est.cutoff)
    assert [x.hex() for x in l2_error(sparse, truth)] == \
        [x.hex() for x in _reference_l2_error(sparse, want)]
    for s in (0.0, 1.0, 2.0):  # a value's hex, or the message both raise
        assert _outcome(sobolev_norm, truth, space, s) == \
            _outcome(_reference_sobolev_norm, want, space, s)


def test_l2_error_sums_its_variance_exactly():
    # 1 + 63 * 1e-16 is 1.0 added left to right; the variance is the correctly
    # rounded total, the same on every Python and in any order
    space = circle()
    truth = CoefficientVector([(make_index(space, (k,)), float(k == 0)) for k in range(-40, 41)])
    values = [1.0, 1.0] + [1e-8] * 63  # the trivial coefficient, then the errors
    est = DensityEstimate(
        coeffs=CoefficientVector([(ix, v) for ix, v in zip(truth.indices(), values)]),
        space=space, m=100, cutoff=1024.0)
    terms = [abs(value - truth[ix]) ** 2 for ix, value in est.coeffs.items()]
    variance = l2_error(est, truth).variance_term
    assert variance == math.fsum(terms) and variance > 1.0


def _permuted(vec, order):
    return CoefficientVector._from_table(vec._labels[order], vec._casimir[order],
                                         vec._mult[order], vec._values[order],
                                         vec._truncated[order])


@pytest.mark.parametrize("space_text,law_text", [
    ("circle", "wn:sigma=0.55"),
    ("torus:2", "wn:sigma=0.5"),
    ("torus:3", "wn:sigma=0.5"),
    ("sphere:2", "heat:tau=0.35"),
])
def test_scores_do_not_depend_on_the_order_of_the_rows(space_text, law_text):
    space = parse_space(space_text)
    law = parse_law(law_text, space)
    obs = sample_compound(ProcessConfig(law=law, seed=11), 3000)
    est = reconstruct(obs, EstimatorConfig(), SobolevSpec(2.0), scale=2.0)
    truth, _ = truth_table(law, est.cutoff)
    rng = np.random.default_rng(5)
    shuffled_truth = _permuted(truth, rng.permutation(len(truth)))
    shuffled_est = dataclasses.replace(
        est, coeffs=_permuted(est.coeffs, rng.permutation(len(est.coeffs))))
    want = [x.hex() for x in l2_error(est, truth)]
    for e, t in [(est, shuffled_truth), (shuffled_est, truth), (shuffled_est, shuffled_truth)]:
        assert [x.hex() for x in l2_error(e, t)] == want
    for s in (0.0, 1.0, 2.0):
        assert _outcome(sobolev_norm, shuffled_truth, space, s) == \
            _outcome(sobolev_norm, truth, space, s)
        assert _outcome(sobolev_norm, shuffled_est.coeffs, space, s) == \
            _outcome(sobolev_norm, est.coeffs, space, s)


def test_l2_error_coverage_errors_on_both_lookups():
    # a truth table that stops short, and one with a hole below the cutoff,
    # for an estimate that heads the table and one that does not
    law = WrappedNormal(torus(2), sigma=0.5)
    obs = sample_compound(ProcessConfig(law=law, seed=4), 2000)
    est = reconstruct(obs, EstimatorConfig(), SobolevSpec(2.0))
    truth, _ = truth_table(law, est.cutoff)
    short = CoefficientVector([(ix, v) for ix, v in truth.items() if ix.casimir <= 2.0])
    with pytest.raises(CoverageError, match="stop below"):
        l2_error(est, short)
    missing = est.coeffs.indices()[3]
    holed = CoefficientVector([(ix, v) for ix, v in truth.items() if ix != missing])
    with pytest.raises(CoverageError, match=re.escape(f"missing index {missing.label}")):
        l2_error(est, holed)
    kept = [(ix, v) for j, (ix, v) in enumerate(est.coeffs.items()) if j % 2 or ix.is_trivial]
    sparse = DensityEstimate(coeffs=CoefficientVector(kept), space=est.space, m=est.m,
                             cutoff=est.cutoff)
    with pytest.raises(CoverageError, match="missing index"):
        l2_error(sparse, holed)
    assert l2_error(sparse, truth).total > 0.0


def test_scoring_at_the_flat_density_cutoff_builds_no_spectral_index(monkeypatch):
    # torus:3 at m = 1e5: the truth table, the L2 split and the Sobolev norm
    # read arrays only
    law = WrappedNormal(torus(3), sigma=0.5)
    obs = sample_compound(ProcessConfig(law=law, seed=1000), 100_000)
    est = reconstruct(obs, EstimatorConfig(), SobolevSpec(2.0))

    def refuse(self, *args, **kwargs):
        raise AssertionError("a SpectralIndex was built")

    monkeypatch.setattr(SpectralIndex, "__init__", refuse)
    truth, _ = truth_table(law, est.cutoff)
    assert len(truth) == 10_443
    assert l2_error(est, truth).total > 0.0
    assert sobolev_norm(truth, law.space, 2.0) > 1.0


# --- reconstruct and evaluate ------------------------------------------------------


def _reconstruct_circle(m=2000, seed=3, variant=Variant.REAL_LOG):
    law = WrappedNormal(circle(), sigma=0.7)
    cfg = ProcessConfig(law=law, t_lambda=1.0, seed=seed)
    obs = sample_compound(cfg, m)
    est = reconstruct(obs, EstimatorConfig(variant=variant, t_lambda=1.0), SobolevSpec(2.0))
    return law, est


def test_reconstruct_shape_and_trivial_value():
    law, est = _reconstruct_circle()
    assert est.m == 2000
    assert est.cutoff == pytest.approx(smoothing_cutoff(2000, 2.0, circle()))
    trivial = make_index(circle(), (0,))
    assert est.coeffs[trivial] == 1.0 + 0.0j
    for ix in est.coeffs.indices():
        assert ix.casimir <= est.cutoff + 1e-12


def test_reconstruct_real_variants_conjugate_symmetric():
    _, est = _reconstruct_circle()
    for ix in est.coeffs.indices():
        mirror = make_index(circle(), (-ix.label[0],))
        assert est.coeffs[ix] == pytest.approx(np.conj(est.coeffs[mirror]),
                                               abs=1e-15)


def test_evaluate_worked_example():
    c = circle()
    est = DensityEstimate(
        coeffs=_vec(c, {(0,): 1.0, (1,): 0.5, (-1,): 0.5}), space=c, m=4,
        cutoff=1.0,
    )
    got = est.evaluate(np.array([[0.0]]))
    assert float(got[0]) == pytest.approx(2.0, abs=1e-12)
    # cos(pi) = -1 flips the sign of the first harmonic pair
    got_pi = est.evaluate(np.array([[math.pi]]))
    assert float(got_pi[0]) == pytest.approx(0.0, abs=1e-12)


def test_evaluate_checks_point_shapes():
    # one point of ambient_dim coordinates, or a (k, ambient_dim) array; any
    # other shape is rejected with the message spherical gives
    s2 = sphere(2)
    est = DensityEstimate(coeffs=_vec(s2, {(0,): 1.0, (1,): 0.5}), space=s2, m=4, cutoff=2.0)
    north = np.array([0.0, 0.0, 1.0])
    assert est.evaluate(north) == pytest.approx(1.0 + 3 * 0.5, abs=1e-12)
    assert est.evaluate(np.stack([north, -north])).tolist() == pytest.approx([2.5, -0.5])
    for bad in (np.zeros((2, 3, 1)), np.float64(0.5), np.zeros((2, 2)), np.zeros(4)):
        with pytest.raises(ValueError, match="expected points with 3 coordinates"):
            est.evaluate(bad)


def _law_estimate(law, cutoff):
    coeffs = true_coefficients(law, spectrum(law.space, cutoff))
    return DensityEstimate(coeffs=coeffs, space=law.space, m=1, cutoff=cutoff)


# per space: the law whose true coefficients make a Hermitian vector, and the
# law sampled for a complex-log estimate (a shifted wrapped normal off the sphere)
_EVALUATE_LAWS = {
    "circle": ("wn:sigma=0.7", "wn:sigma=0.7,mean=1"),
    "torus:2": ("wn:sigma=0.5", "wn:sigma=0.5,mean=1;-0.5"),
    "torus:3": ("wn:sigma=0.5", "wn:sigma=0.5,mean=1;-0.5;0.3"),
    "sphere:2": ("heat:tau=0.35", "heat:tau=0.35"),
}


def _evaluate_cases(spec):
    space = parse_space(spec)
    truth_law, sampled = (parse_law(text, space) for text in _EVALUATE_LAWS[spec])
    obs = sample_compound(ProcessConfig(law=sampled, seed=4), 2000)
    zero, one = (0,) * space.rank, (0,) * (space.rank - 1) + (1,)
    rng = np.random.default_rng(8)
    indices = spectrum(space, 10.0)
    noise = CoefficientVector([(ix, 1.0 if ix.is_trivial else complex(*rng.normal(0.0, 0.3, 2)))
                               for ix in indices])
    return {
        "hermitian": _law_estimate(truth_law, 10.0),
        "complex-log": reconstruct(obs, EstimatorConfig(variant=Variant.COMPLEX_LOG),
                                   SobolevSpec(2.0)),
        "half-pair": DensityEstimate(coeffs=_vec(space, {zero: 1.0, one: 0.5j}), space=space,
                                     m=4, cutoff=10.0),
        "random": DensityEstimate(coeffs=noise, space=space, m=1, cutoff=10.0),
    }


@pytest.mark.parametrize("spec", sorted(_EVALUATE_LAWS))
def test_evaluate_is_the_real_part_of_the_brute_force_sum(spec):
    # folding each +- pair onto one label keeps Re sum d c phi for any vector,
    # Hermitian or not; a vector with imaginary parts returns only its real part
    space = parse_space(spec)
    rng = np.random.default_rng(9)
    if space.is_flat:
        pts = rng.uniform(0.0, 2.0 * math.pi, (300, space.dim))
    else:
        g = rng.standard_normal((300, space.ambient_dim))
        pts = g / np.linalg.norm(g, axis=1, keepdims=True)
    pts = np.vstack([space.origin(), pts])
    for name, est in _evaluate_cases(spec).items():
        brute = sum(ix.multiplicity * c * spherical(space, ix, pts)
                    for ix, c in est.coeffs.items()).real
        got = est.evaluate(pts)
        assert got.dtype == np.float64, name
        assert np.all(np.abs(got - brute) <= 1e-12 * np.maximum(1.0, np.abs(brute))), name


def test_evaluate_synthesizes_one_label_of_each_pair(monkeypatch):
    # n and -n fold onto one label, so a torus:3 estimate reaches the
    # synthesis with no label together with its negation, and half the rows
    seen = []

    def recording(space, indices, weights, pts):
        seen.append([index_label(ix) for ix in indices])
        return spherical_synthesis(space, indices, weights, pts)

    monkeypatch.setattr(density, "spherical_synthesis", recording)
    est = _law_estimate(WrappedNormal(torus(3), sigma=0.5), 10.0)
    est.evaluate(np.zeros((4, 3)))
    (labels,) = seen
    assert len(set(labels)) == len(labels) == (len(est.coeffs) + 1) // 2
    assert not set(labels) & {tuple(-k for k in label) for label in labels if any(label)}


def _evaluate_peak_bytes(est, pts):
    tracemalloc.start()
    try:
        est.evaluate(pts)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluate_memory_bounded_and_blocks_agree():
    # synthesis runs over blocks of _CHUNK points: three blocks need no more
    # working memory than one, and a block boundary changes no value
    rng = np.random.default_rng(31)
    flat = _law_estimate(WrappedNormal(torus(2), sigma=0.5), 10.0)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=(3 * _CHUNK, 2))
    one_block = _evaluate_peak_bytes(flat, angles[:_CHUNK])
    assert _evaluate_peak_bytes(flat, angles) <= 1.5 * one_block

    g = rng.standard_normal((_CHUNK + 3, 4))
    round_pts = g / np.linalg.norm(g, axis=1, keepdims=True)
    for est, pts in ((flat, angles[:_CHUNK + 3]),
                     (_law_estimate(HeatZonal(sphere(3), tau0=0.4), 60.0), round_pts)):
        whole = est.evaluate(pts)
        parts = np.concatenate([est.evaluate(pts[:_CHUNK]), est.evaluate(pts[_CHUNK:])])
        assert np.array_equal(whole, parts)


def test_rendered_values_nonnegative_unit_mean():
    _, est = _reconstruct_circle(m=500)
    grid = trapezoid_angles(256)[:, None]
    vals = est.rendered_values(grid)
    assert np.all(vals >= 0.0)
    assert float(vals.mean()) == pytest.approx(1.0, abs=1e-12)


def test_density_estimate_file_round_trip(tmp_path):
    _, est = _reconstruct_circle(m=300)
    csv_path = tmp_path / "est.csv"
    meta_path = tmp_path / "est.json"
    est.to_files(csv_path, meta_path)
    back = DensityEstimate.from_files(csv_path, meta_path)
    assert back.space == est.space
    assert back.m == est.m and back.cutoff == est.cutoff
    assert back.config == est.config
    for ix, v in est.coeffs.items():
        assert back.coeffs[ix] == pytest.approx(v, abs=1e-15)
    meta = json.loads(meta_path.read_text())
    assert meta["space"] == "circle"


def test_density_estimate_validates_coefficients():
    c = circle()
    with pytest.raises(ValueError):
        DensityEstimate(coeffs=_vec(c, {(0,): 0.9}), space=c, m=1, cutoff=4.0)
    with pytest.raises(ValueError):
        DensityEstimate(coeffs=_vec(c, {(0,): 1.0, (3,): 0.1}), space=c, m=1,
                        cutoff=4.0)


def test_reconstruct_complex_log_on_circle_close_to_real_variant():
    # with plenty of data the two branches agree closely on a symmetric law
    law, est_r = _reconstruct_circle(m=50_000, seed=12)
    _, est_c = _reconstruct_circle(m=50_000, seed=12, variant=Variant.COMPLEX_LOG)
    truth, _ = truth_table(law, est_r.cutoff)
    err_r = l2_error(est_r, truth).total
    err_c = l2_error(est_c, truth).total
    assert err_r < 5e-3 and err_c < 5e-3
    for ix in est_r.coeffs.indices():
        assert abs(est_r.coeffs[ix] - est_c.coeffs[ix]) < 0.05
