"""Log-transform coefficient estimators and their truncation rules."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from decompound import (
    CoefficientVector,
    EmpiricalTransform,
    EstimatorConfig,
    HeatZonal,
    ObservationSet,
    ProcessConfig,
    SobolevSpec,
    Variant,
    WrappedNormal,
    circle,
    conjugate_index,
    deviation_bound,
    empirical_transform,
    estimate_coefficients,
    estimate_with_flag,
    make_index,
    parse_law,
    parse_space,
    reconstruct,
    replicate_seed,
    sample_compound,
    smoothing_cutoff,
    spectrum,
    sphere,
    torus,
)
from decompound.simulate import BLOCK, _block_rng
from decompound import coeffs
from decompound.coeffs import _clamp_value, _clamped
from decompound.spaces import (_BLOCK_BYTES, _CHUNK, _characters, _plan, _spectrum_table,
                               pair_label, spherical, spherical_sums, spherical_synthesis)


def _transform(value, m=100, symmetrized=True, label=(1,)):
    idx = make_index(circle(), label)
    return EmpiricalTransform([(idx, value)], m=m, symmetrized=symmetrized), idx


def _cfg(variant, t_lambda=1.0, delta=1.0, noise_tau=0.0):
    return EstimatorConfig(variant=variant, intensity=t_lambda, time=1.0,
                           delta=delta, noise_tau=noise_tau)


# --- exact values ------------------------------------------------------------


def test_real_log_exact_value():
    # nu = exp(t Lambda (c - 1)) inverts to c exactly
    nu, idx = _transform(math.exp(-0.6))
    cfg = _cfg(Variant.REAL_LOG)
    assert estimate_with_flag(nu, idx, cfg)[0] == pytest.approx(0.4, abs=1e-15)


def test_real_log_zero_coefficient_not_truncated():
    nu, idx = _transform(math.exp(-1.0))
    got, truncated = estimate_with_flag(nu, idx, _cfg(Variant.REAL_LOG))
    assert got == 0.0 and not truncated


def test_real_log_truncates_below_threshold():
    # delta/m = 0.01; half that must be zeroed with the flag set
    nu, idx = _transform(0.005)
    got, truncated = estimate_with_flag(nu, idx, _cfg(Variant.REAL_LOG))
    assert got == 0.0 and truncated
    # negative averages as well
    nu2, _ = _transform(-0.2)
    got2, trunc2 = estimate_with_flag(nu2, idx, _cfg(Variant.REAL_LOG))
    assert got2 == 0.0 and trunc2


def test_real_log_at_zero_delta_keeps_tiny_positive_values():
    # delta = 0 truncates only where the logarithm is undefined
    nu, idx = _transform(1e-200)
    got, truncated = estimate_with_flag(nu, idx, _cfg(Variant.REAL_LOG, delta=0.0))
    assert not truncated
    assert got == pytest.approx(1.0 + math.log(1e-200), rel=1e-12)
    nu0, _ = _transform(-1e-3)
    got0, trunc0 = estimate_with_flag(nu0, idx, _cfg(Variant.REAL_LOG, delta=0.0))
    assert got0 == 0.0 and trunc0


def test_complex_log_principal_branch():
    nu, idx = _transform(0.5 + 0.5j, symmetrized=False)
    got = estimate_with_flag(nu, idx, _cfg(Variant.COMPLEX_LOG, delta=1e-6))[0]
    want = 1.0 + complex(math.log(math.sqrt(0.5)), math.pi / 4)
    assert got == pytest.approx(want, abs=1e-15)


def test_complex_log_requires_positive_real_part():
    nu, idx = _transform(0.5j, symmetrized=False)
    got, truncated = estimate_with_flag(nu, idx, _cfg(Variant.COMPLEX_LOG))
    assert got == 0.0 and truncated
    nu2, _ = _transform(-0.5 + 0.1j, symmetrized=False)
    got2, trunc2 = estimate_with_flag(nu2, idx, _cfg(Variant.COMPLEX_LOG))
    assert got2 == 0.0 and trunc2


def test_noise_corrected_removes_known_blur():
    # observation noise multiplies nu by exp(-tau^2 kappa / 2); correcting
    # with the same tau recovers the coefficient exactly
    tau, kappa = 0.3, 4.0
    idx_val = math.exp(-1.0) * math.exp(-tau * tau * kappa / 2.0)
    nu, idx = _transform(idx_val, label=(2,))
    cfg = _cfg(Variant.NOISE_CORRECTED, noise_tau=tau)
    assert estimate_with_flag(nu, idx, cfg)[0] == pytest.approx(0.0, abs=1e-15)


def test_noise_corrected_needs_spectral_index():
    nu, _ = _transform(0.5)
    cfg = _cfg(Variant.NOISE_CORRECTED, noise_tau=0.3)
    with pytest.raises(ValueError):
        estimate_with_flag(nu, (1,), cfg)


def test_trivial_index_estimates_one_for_every_variant():
    for variant in Variant:
        sym = variant is not Variant.COMPLEX_LOG
        nu, idx = _transform(1.0, symmetrized=sym, label=(0,))
        cfg = _cfg(variant, noise_tau=0.1)
        assert estimate_with_flag(nu, idx, cfg)[0] == 1.0 + 0.0j


def test_variant_transform_mismatch_rejected():
    nu_sym, idx = _transform(0.5, symmetrized=True)
    nu_raw, _ = _transform(0.5, symmetrized=False)
    with pytest.raises(ValueError):
        estimate_with_flag(nu_raw, idx, _cfg(Variant.REAL_LOG))
    with pytest.raises(ValueError):
        estimate_with_flag(nu_sym, idx, _cfg(Variant.COMPLEX_LOG))


def test_estimator_config_validation_and_warning():
    with pytest.raises(ValueError):
        EstimatorConfig(variant=Variant.REAL_LOG, intensity=1.0, time=1.0,
                        delta=-1e-3)
    with pytest.raises(ValueError):
        EstimatorConfig(variant=Variant.REAL_LOG, intensity=-1.0, time=1.0)
    with pytest.warns(UserWarning, match="truncates every estimate whose phase"):
        EstimatorConfig(variant=Variant.COMPLEX_LOG, intensity=2.0, time=1.0)
    # past 3 pi / 2 a wrong-branch value can pass the Re nu > 0 rule
    with pytest.raises(ValueError, match="3\\*pi/2"):
        EstimatorConfig(variant=Variant.COMPLEX_LOG, intensity=2.5, time=2.0)


@given(value=st.floats(-1.0, 1.0), delta=st.floats(1e-6, 10.0))
@settings(max_examples=60, deadline=None)
def test_truncation_monotone_in_delta(value, delta):
    # whatever survives a larger threshold also survives a smaller one
    nu, idx = _transform(value, m=50)
    small = _cfg(Variant.REAL_LOG, delta=delta / 2)
    large = _cfg(Variant.REAL_LOG, delta=delta)
    _, trunc_small = estimate_with_flag(nu, idx, small)
    _, trunc_large = estimate_with_flag(nu, idx, large)
    if trunc_small:
        assert trunc_large


# --- empirical transform ------------------------------------------------------


def test_transform_single_point_value():
    cfg = ProcessConfig(law=WrappedNormal(circle(), sigma=0.7), intensity=1.0,
                        time=1.0, seed=0)
    from decompound import ObservationSet

    one = ObservationSet(points=np.array([[math.pi / 2]]), config=cfg)
    idx = make_index(circle(), (1,))
    nu = empirical_transform(one, [idx])
    assert nu.value(idx) == pytest.approx(1j, abs=1e-12)
    nu_sym = empirical_transform(one, [idx], symmetrize=True)
    assert nu_sym.value(idx) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(KeyError):
        nu.value(make_index(circle(), (5,)))


def test_transform_at_origin_is_exactly_one():
    # the no-step atom sits exactly at the origin, where every phi is 1
    space = sphere(3)
    cfg = ProcessConfig(law=HeatZonal(space, tau0=0.4), intensity=1.0, time=1.0, seed=0)
    from decompound import ObservationSet

    atom = ObservationSet(points=np.tile(space.origin(), (50, 1)), config=cfg)
    idx = spectrum(space, 40 * 42)
    assert idx[-1].label == (40,)
    for symmetrize in (False, True):
        nu = empirical_transform(atom, idx, symmetrize=symmetrize)
        assert all(nu.value(ix) == 1.0 for ix in idx)


@pytest.mark.parametrize("space, cutoff", [(circle(), 100.0), (torus(2), 20.0), (torus(3), 8.0)],
                         ids=["circle", "torus:2", "torus:3"])
def test_flat_transform_and_synthesis_match_direct_characters(space, cutoff):
    # per-axis character tables and one contraction per block against a
    # direct exp(i n . theta); _CHUNK + 3 points cross a block boundary
    rng = np.random.default_rng(47)
    pts = rng.uniform(0.0, 2.0 * math.pi, size=(_CHUNK + 3, space.dim))
    obs = ObservationSet(points=pts, config=ProcessConfig(law=WrappedNormal(space, sigma=0.5)))
    indices = spectrum(space, cutoff)
    labels = np.array([ix.label for ix in indices], dtype=float)
    direct = np.array([np.exp(1j * (pts @ n)).mean() for n in labels])
    for symmetrize in (False, True):
        nu = empirical_transform(obs, indices, symmetrize=symmetrize)
        got = np.array([nu.value(ix) for ix in indices])
        assert np.max(np.abs(got - (direct.real if symmetrize else direct))) <= 1e-12
        assert nu.value(indices[0]) == 1.0
        # phi at -n is the conjugate of phi at n; the contraction keeps that
        # to rounding, not bit for bit
        for ix in indices:
            assert abs(nu.value(conjugate_index(space, ix)) - nu.value(ix).conjugate()) <= 1e-16

    weights = rng.standard_normal(len(indices)) + 1j * rng.standard_normal(len(indices))
    want = sum(w * np.exp(1j * (pts @ n)) for w, n in zip(weights, labels))
    assert np.max(np.abs(spherical_synthesis(space, indices, weights, pts) - want)) <= 1e-12


@pytest.mark.parametrize("d, top", [(2, 40), (3, 30)], ids=["sphere:2", "sphere:3"])
def test_sphere_transform_across_blocks_matches_direct_gegenbauer(d, top):
    # sums over three blocks and a partial fourth against direct means of
    # C_l^lam(cos theta) / C_l^lam(1), lam = (d - 1) / 2
    space = sphere(d)
    indices = [make_index(space, (ell,)) for ell in range(top + 1)]
    block = _plan(space, indices)[-1]
    assert block < _CHUNK
    rng = np.random.default_rng(d)
    pts = rng.standard_normal((3 * block + 17, d + 1))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    obs = ObservationSet(points=pts, config=ProcessConfig(law=HeatZonal(space, tau0=0.4)))
    lam = (d - 1) / 2.0
    x = np.clip(pts[:, -1], -1.0, 1.0)
    direct = [(special.eval_gegenbauer(ell, lam, x) / special.eval_gegenbauer(ell, lam, 1.0)).mean()
              for ell in range(top + 1)]
    for symmetrize in (False, True):
        nu = empirical_transform(obs, indices, symmetrize=symmetrize)
        got = np.array([nu.value(ix) for ix in indices])
        assert np.max(np.abs(got - direct)) <= 1e-12


def test_symmetrized_torus_transform_pairs_are_bit_equal_across_blocks():
    # one sum serves n and -n: the two values are the same float, and both
    # match direct means of cos(n . theta) over several blocks
    space = torus(3)
    indices = spectrum(space, 30.0)
    halves = [ix for ix in indices if ix.label >= conjugate_index(space, ix).label]
    assert 2 * len(halves) == len(indices) + 1
    block = _plan(space, halves)[-1]
    rng = np.random.default_rng(31)
    pts = rng.uniform(0.0, 2.0 * math.pi, size=(3 * block + 5, 3))
    obs = ObservationSet(points=pts, config=ProcessConfig(law=WrappedNormal(space, sigma=0.5)))
    nu = empirical_transform(obs, indices, symmetrize=True)
    for ix in indices:
        assert nu.value(ix) == nu.value(conjugate_index(space, ix))
    direct = np.array([np.cos(pts @ np.array(ix.label, dtype=float)).mean() for ix in indices])
    got = np.array([nu.value(ix) for ix in indices])
    assert not got.imag.any()
    assert np.max(np.abs(got.real - direct)) <= 1e-12


def _transform_peak_bytes(obs, indices, symmetrize=False):
    tracemalloc.start()
    try:
        empirical_transform(obs, indices, symmetrize=symmetrize)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transform_memory_bounded_by_the_block_budget():
    # torus:3 with every index below the cutoff for m = 1e6: one block's
    # tables stay under the declared budget, and three blocks need no more
    space = torus(3)
    indices = spectrum(space, smoothing_cutoff(10**6, 2.0, space))
    assert len(indices) > 1500
    block = _plan(space, indices)[-1]
    rng = np.random.default_rng(8)
    pts = rng.uniform(0.0, 2.0 * math.pi, size=(3 * block, 3))
    cfg = ProcessConfig(law=WrappedNormal(space, sigma=0.5))
    one_block = _transform_peak_bytes(ObservationSet(points=pts[:block], config=cfg), indices)
    assert one_block <= _BLOCK_BYTES
    assert _transform_peak_bytes(ObservationSet(points=pts, config=cfg), indices) <= 1.5 * one_block
    # a walked set hands over views of its movers, not a copy (a copy of the
    # movers of three blocks would add 0.74 MB, 11% of one block here)
    walked = sample_compound(cfg, 3 * BLOCK)
    assert _transform_peak_bytes(walked, indices) <= 1.05 * one_block
    # the circle's symmetrized sums go by zonal tables, blocked by the same
    # budget: at degree 200 a table over one block's movers would take 26 MB
    circ = circle()
    indices = spectrum(circ, 200.0**2)
    block = _plan(circ, indices, real=True)[-1]
    cfg = ProcessConfig(law=WrappedNormal(circ, sigma=0.5), seed=9)
    pts = rng.uniform(0.0, 2.0 * math.pi, size=(block, 1))
    one_block = _transform_peak_bytes(ObservationSet(points=pts, config=cfg), indices, True)
    assert one_block <= _BLOCK_BYTES
    walked = sample_compound(cfg, 3 * BLOCK)
    assert _transform_peak_bytes(walked, indices, True) <= 1.05 * one_block


def test_rank4_prefix_tables_are_counted_in_the_block_budget():
    # rank 4 keeps three prefix axis tables alive while P is written.  With
    # one last component E has one row, so none of them fits in E's buffer:
    # the budget counts all three (21 rows here, beyond the 12 rows it keeps
    # for the walk), and the block shrinks so that one block's peak stays
    # under it; a budget that left them out would pass it by 2%
    space = torus(4)
    labels = [(a, b, c, 0) for a in range(-3, 4) for b in range(-3, 4) for c in range(-3, 4)]
    block = _plan(space, labels)[-1]
    pts = np.random.default_rng(12).uniform(0.0, 2.0 * math.pi, size=(block, 4))
    cfg = ProcessConfig(law=WrappedNormal(space, sigma=0.5))
    assert _transform_peak_bytes(ObservationSet(points=pts, config=cfg), labels) <= _BLOCK_BYTES


@pytest.mark.parametrize("reach", [6, 9])
def test_block_budget_counts_what_grows_with_the_labels(reach):
    # (2 reach + 1)^3 torus:4 labels with one last component: the label rows,
    # their rows and cols entries, and P's prefixes and axis position tuples
    # grow with the labels, not with the block.  A budget that counted only
    # the sums passed it by 2.6% at reach 6 (2,197 labels) and 8% at reach 9
    space = torus(4)
    axis = range(-reach, reach + 1)
    labels = [(a, b, c, 0) for a in axis for b in axis for c in axis]
    block = _plan(space, labels)[-1]
    pts = np.random.default_rng(reach).uniform(0.0, 2.0 * math.pi, size=(block, 4))
    cfg = ProcessConfig(law=WrappedNormal(space, sigma=0.5))
    assert _transform_peak_bytes(ObservationSet(points=pts, config=cfg), labels) <= _BLOCK_BYTES


def _all_points_sums(obs, labels, real=False):
    space = obs.config.space
    sample = obs._sample if space.is_flat else obs._sample[:, None]
    return spherical_sums(space, labels, [sample], real)


@pytest.mark.parametrize("space", ["circle", "torus:2", "torus:3", "sphere:2", "sphere:3"])
def test_transform_of_the_movers_plus_their_count_matches_all_points(space):
    # an un-blurred block's last cells[0] rows sit exactly at the origin, where
    # every phi is 1: the movers' sums plus the count match the sums over
    # every point to rounding (relative to m), for both transforms
    space = parse_space(space)
    law = HeatZonal(space, tau0=0.4) if not space.is_flat else WrappedNormal(space, sigma=0.6)
    obs = sample_compound(ProcessConfig(law=law, seed=41), 2 * BLOCK + 5)
    parts, still = obs._transform_parts()
    assert len(parts) == 3 and still == obs._cells[:, 0].sum() > 0.3 * obs.m
    indices = spectrum(space, {1: 100.0, 2: 30.0, 3: 12.0}[space.dim] if space.is_flat else 90.0)
    for symmetrize in (False, True):
        nu = empirical_transform(obs, indices, symmetrize=symmetrize)
        got = np.array([nu.value(ix) for ix in indices]) * obs.m
        want = _all_points_sums(obs, indices, symmetrize)
        want = want.real if symmetrize else want
        assert np.max(np.abs(got - want)) <= 1e-12 * obs.m


def test_transform_of_walkers_that_never_moved_is_exactly_m():
    # at intensity 1e-12 no walker moves: no sum reads a point, each is m
    for space in (circle(), torus(3), sphere(2)):
        law = HeatZonal(space, tau0=0.4) if not space.is_flat else WrappedNormal(space, sigma=0.6)
        obs = sample_compound(ProcessConfig(law=law, intensity=1e-12, seed=5), 2 * BLOCK + 5)
        parts, still = obs._transform_parts()
        assert still == obs.m and all(len(p) == 0 for p in parts)
        indices = spectrum(space, 30.0)
        for symmetrize in (False, True):
            nu = empirical_transform(obs, indices, symmetrize=symmetrize)
            assert all(nu.value(ix) == 1.0 for ix in indices)


@pytest.mark.parametrize("space", ["circle", "torus:2", "sphere:2"])
def test_blurred_and_points_built_sets_read_every_point(space):
    # a blur moves every walker, and a set built from points has no cells:
    # both transforms read the whole sample, bit for bit as the all-points sums
    space = parse_space(space)
    law = HeatZonal(space, tau0=0.4) if not space.is_flat else WrappedNormal(space, sigma=0.6)
    blurred = sample_compound(ProcessConfig(law=law, noise_tau=0.3, seed=43), 2 * BLOCK + 5)
    built = ObservationSet(points=sample_compound(ProcessConfig(law=law, seed=44), 5000).points,
                           config=ProcessConfig(law=law))
    indices = spectrum(space, 30.0)
    for obs in (blurred, built):
        parts, still = obs._transform_parts()
        assert still == 0 and len(parts) == 1 and len(parts[0]) == obs.m
        for symmetrize in (False, True):
            nu = empirical_transform(obs, indices, symmetrize=symmetrize)
            keys = [pair_label(space, ix) if symmetrize else ix.label for ix in indices]
            sums = _all_points_sums(obs, keys, symmetrize)
            for ix, total in zip(indices, sums):
                assert nu.value(ix) == _clamp_value(total / obs.m, symmetrize)


def test_complex_circle_transform_keeps_the_character_path():
    # only Re phi goes by the zonal table: the complex transform on the circle
    # is the sum of exp(i n theta) from the character walk, bit for bit, and
    # the symmetrized one matches cos(n theta) to rounding
    space = circle()
    indices = spectrum(space, 400.0)
    rng = np.random.default_rng(53)
    pts = rng.uniform(0.0, 2.0 * math.pi, size=(2 * _CHUNK + 7, 1))
    obs = ObservationSet(points=pts, config=ProcessConfig(law=WrappedNormal(space, sigma=0.5)))
    rows, cols, shape, values, block = _plan(space, indices)
    assert isinstance(values, tuple) and isinstance(_plan(space, indices, real=True)[3], int)
    sums = np.zeros(shape, dtype=complex)
    for lo in range(0, len(pts), block):
        theta = pts[lo:lo + block, 0]
        sums += np.inner(np.ones((1, theta.size), dtype=complex), _characters(theta, values[1]))
    nu = empirical_transform(obs, indices)
    for ix, total in zip(indices, sums[rows, cols]):
        assert nu.value(ix) == _clamp_value(total / obs.m, False)
    nu = empirical_transform(obs, indices, symmetrize=True)
    direct = [np.cos(n * pts[:, 0]).mean() for (n,) in (ix.label for ix in indices)]
    assert np.max(np.abs(np.array([nu.value(ix).real for ix in indices]) - direct)) <= 1e-12


@pytest.mark.parametrize("space, labels", [
    ("circle", [(n,) for n in range(-20, 21)]),
    ("torus:2", [ix.label for ix in spectrum(torus(2), 46.0)]),
    ("torus:2", [(k, 0) for k in range(-30, 31)]),  # axis tables too tall for E's buffer
    ("torus:3", [ix.label for ix in spectrum(torus(3), 27.0)]),
    ("sphere:2", [(ell,) for ell in range(30)]),
])
def test_synthesis_reuses_its_block_buffers_bit_for_bit(space, labels):
    # every block writes P, E and its products into buffers allocated once per
    # call; a partial last block gives the same bits as on its own
    space = parse_space(space)
    block = _plan(space, labels)[-1]
    rng = np.random.default_rng(59)
    if space.is_flat:
        pts = rng.uniform(0.0, 2.0 * math.pi, size=(2 * block + 11, space.dim))
    else:
        pts = rng.standard_normal((2 * block + 11, space.ambient_dim))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    for weights in (rng.standard_normal(len(labels)),
                    rng.standard_normal(len(labels)) + 1j * rng.standard_normal(len(labels))):
        whole = spherical_synthesis(space, labels, weights, pts)
        parts = [spherical_synthesis(space, labels, weights, pts[lo:lo + block])
                 for lo in range(0, len(pts), block)]
        assert whole.tobytes() == np.concatenate(parts).tobytes()


def test_sparse_flat_indices_build_only_their_rows():
    # a high index builds a row of P and a row of E, not the (2N+1)^d box
    # of characters up to N = 60, so its blocks stay inside the budget
    space = torus(3)
    rng = np.random.default_rng(9)
    pts = rng.uniform(0.0, 2.0 * math.pi, size=(2 * _CHUNK + 5, 3))
    obs = ObservationSet(points=pts, config=ProcessConfig(law=WrappedNormal(space, sigma=0.5)))
    for labels in ([(60, 0, 0)], [(60, 0, 0), (-60, 0, 0), (0, 0, 0), (3, -7, 11)]):
        indices = [make_index(space, label) for label in labels]
        prefixes, lasts = {label[:2] for label in labels}, {label[2] for label in labels}
        assert _plan(space, indices)[2] == (len(prefixes), len(lasts))
        assert _transform_peak_bytes(obs, indices) <= _BLOCK_BYTES
        nu = empirical_transform(obs, indices)
        direct = [np.exp(1j * (pts @ np.array(label, dtype=float))).mean() for label in labels]
        assert np.max(np.abs(np.array([nu.value(ix) for ix in indices]) - direct)) <= 1e-12
    high = make_index(space, (60, 0, 0))
    assert np.max(np.abs(spherical(space, high, pts) - np.exp(60j * pts[:, 0]))) <= 1e-12


def test_transform_modulus_bounded():
    cfg = ProcessConfig(law=WrappedNormal(circle(), sigma=0.2), intensity=5.0,
                        time=1.0, seed=14)
    obs = sample_compound(cfg, 3000)
    nu = empirical_transform(obs, spectrum(circle(), 64.0))
    for label in nu.labels():
        assert abs(nu.value(label)) <= 1.0 + 1e-12


def test_symmetrized_transform_is_real():
    law = HeatZonal(sphere(2), tau0=0.4)
    cfg = ProcessConfig(law=law, intensity=1.0, time=1.0, seed=2)
    obs = sample_compound(cfg, 2000)
    nu = empirical_transform(obs, spectrum(sphere(2), 20.0), symmetrize=True)
    for label in nu.labels():
        assert nu.value(label).imag == 0.0


def test_complex_and_real_log_agree_on_spheres():
    # zonal functions are real on spheres, so the two branches must produce
    # the same estimates from the same observations
    law = HeatZonal(sphere(2), tau0=0.4)
    cfg = ProcessConfig(law=law, intensity=1.0, time=1.0, seed=21)
    obs = sample_compound(cfg, 2000)
    indices = spectrum(sphere(2), 30.0)
    nu_raw = empirical_transform(obs, indices)
    nu_sym = empirical_transform(obs, indices, symmetrize=True)
    cfg_c = _cfg(Variant.COMPLEX_LOG)
    cfg_r = _cfg(Variant.REAL_LOG)
    for idx in indices:
        a = estimate_with_flag(nu_raw, idx, cfg_c)[0]
        b = estimate_with_flag(nu_sym, idx, cfg_r)[0]
        assert a == pytest.approx(b, abs=1e-12)


def test_mixing_ratio_doubles_with_time():
    # the transform magnitude decays like exp(t Lambda (c - 1)), so each
    # doubling of t multiplies it by the magnitude it had at the elapsed time
    law = HeatZonal(circle(), tau0=0.5)
    idx = make_index(circle(), (1,))
    c = law.coefficient(idx).real
    mags = []
    for t in (1.0, 2.0, 4.0):
        cfg = ProcessConfig(law=law, intensity=1.0, time=t, seed=40)
        obs = sample_compound(cfg, 150_000)
        nu = empirical_transform(obs, [idx], symmetrize=True)
        mags.append(abs(nu.value(idx)))
    factor = math.exp(c - 1.0)
    assert mags[1] / mags[0] == pytest.approx(factor, rel=0.2)
    assert mags[2] / mags[1] == pytest.approx(factor**2, rel=0.2)


# --- replicated error pipelines ------------------------------------------------


def test_deviation_bound_values():
    assert deviation_bound(0.2, 100) == pytest.approx(math.exp(-1.0))
    assert deviation_bound(2.0, 1) == pytest.approx(math.exp(-1.0))
    with pytest.raises(ValueError):
        deviation_bound(0.0, 10)
    with pytest.raises(ValueError):
        deviation_bound(2.5, 10)


def test_replicate_seed_distinct_and_stable():
    seeds = {replicate_seed(7, m, r) for m in (10, 100) for r in range(50)}
    assert len(seeds) == 100
    assert replicate_seed(7, 10, 3) == replicate_seed(7, 10, 3)


# --- the one estimation step ---------------------------------------------------------


@pytest.mark.parametrize("space, law, variant, delta", [
    ("sphere:2", "heat:tau=0.35", Variant.REAL_LOG, 100.0),
    ("torus:2", "wn:sigma=0.6,mean=0.4", Variant.COMPLEX_LOG, 150.0),
], ids=["sphere:2-real-log", "torus:2-complex-log"])
def test_estimate_coefficients_matches_reconstruct(space, law, variant, delta):
    # delta and the cutoff scale are large enough that some indices below
    # the cutoff are truncated and some are not
    law = parse_law(law, parse_space(space))
    obs = sample_compound(ProcessConfig(law=law, intensity=1.5, seed=17), 400)
    cfg = EstimatorConfig(variant=variant, intensity=1.5, delta=delta)
    est = reconstruct(obs, cfg, SobolevSpec(2.0), scale=4.0)
    got = estimate_coefficients(obs, spectrum(law.space, est.cutoff), cfg)
    assert got.items() == est.coeffs.items()
    assert got.truncated == est.coeffs.truncated
    assert 0 < len(got.truncated) < len(got) - 1


def test_estimate_coefficients_sorts_and_dedupes_its_indices():
    law = parse_law("wn:sigma=0.5", torus(3))
    obs = sample_compound(ProcessConfig(law=law, seed=7), 500)
    cfg = EstimatorConfig()
    indices = spectrum(law.space, 6.0)
    repeated = indices + indices[::3]
    shuffled = [repeated[j] for j in np.random.default_rng(3).permutation(len(repeated))]
    got = estimate_coefficients(obs, shuffled, cfg)
    want = estimate_coefficients(obs, _spectrum_table(law.space, 6.0), cfg)
    assert got.items() == want.items() and got.truncated == want.truncated
    assert len(got) == len(indices)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_walked_cosines_estimate_as_their_lifted_points(d):
    # a sampled sphere set hands the transform its walked cosine column; the
    # same observations built from their lifted points, put back in the walk's
    # order, give the same bits, and in the public order the same estimates
    # up to summation order
    law = HeatZonal(sphere(d), tau0=0.3)
    walked = sample_compound(ProcessConfig(law=law, intensity=2.0, noise_tau=0.3, seed=d),
                             20_000)
    # the public order puts walked observation i at order[i]
    rng = _block_rng(d, -2)
    order = np.concatenate([lo + rng.permutation(min(BLOCK, walked.m - lo))
                            for lo in range(0, walked.m, BLOCK)])
    lifted = ObservationSet(points=walked.points[order], config=walked.config)
    public = ObservationSet(points=walked.points, config=walked.config)
    indices = spectrum(law.space, 80.0)
    for cfg in (EstimatorConfig(intensity=2.0, delta=100.0),
                EstimatorConfig(variant=Variant.NOISE_CORRECTED, intensity=2.0, noise_tau=0.3)):
        got = estimate_coefficients(walked, indices, cfg)
        want = estimate_coefficients(lifted, indices, cfg)
        assert got.items() == want.items()
        assert got.truncated == want.truncated
        shuffled = estimate_coefficients(public, indices, cfg)
        assert shuffled.truncated == got.truncated
        assert max(abs(a - b) for (_, a), (_, b) in zip(got.items(), shuffled.items())) <= 1e-12


# --- the kernel and the estimation step against their per-index versions --------
#
# the character walk and P's rows are written once per block now, and the
# estimation step reads arrays; below are the versions they replaced, which
# must give the same bits


def _reference_characters(theta, values):
    # one temporary per |n|, copied to its rows and conjugated for -n
    out = np.empty((len(values), theta.size), dtype=complex)
    cur, prev, steps = 1.0, 0, {}
    for n in np.unique(np.abs(values)).tolist():
        if n != prev:
            if n - prev not in steps:
                steps[n - prev] = np.exp(1j * (n - prev) * theta)
            cur, prev = cur * steps[n - prev], n
        out[values == n] = cur
        if n:
            out[values == -n] = np.conj(cur)
    return out


def _reference_factors(pre, last, pts):
    # P filled with ones, then multiplied by each prefix axis's table in turn
    p = np.ones((len(pre), len(pts)), dtype=complex)
    for a, col in enumerate(pre.T):
        vals, at = np.unique(col, return_inverse=True)
        table = _reference_characters(pts[:, a], vals)
        for row, i in zip(p, at):
            row *= table[i]
    return p, _reference_characters(pts[:, -1], last)


def _kernel_cases():
    cases = []
    for spec, cutoff in (("circle", 100.0), ("torus:2", 46.0), ("torus:3", 14.0),
                         ("torus:4", 6.0)):
        space = parse_space(spec)
        labels = [ix.label for ix in spectrum(space, cutoff)]
        cases += [(spec, labels),
                  (spec, [pair_label(space, label) for label in labels]),  # symmetrized
                  (spec, labels[:9] + labels[:9:2]),  # repeated labels
                  (spec, [label for label in labels if label[0] < 0])]  # -n rows only
        if space.dim >= 3:  # one value on the first prefix axis
            cases.append((spec, [(2,) + label[1:] for label in labels]))
    return cases


@pytest.mark.parametrize("spec, labels", _kernel_cases())
def test_flat_kernel_matches_the_per_block_reference_bit_for_bit(spec, labels):
    space = parse_space(spec)
    rows, cols, shape, values, block = _plan(space, labels)
    rng = np.random.default_rng(67)
    pts = rng.uniform(0.0, 2.0 * math.pi, size=(2 * block + 11, space.dim))
    parts = [pts[:1000], pts[1000:]]  # a part shorter than a block, then two boundaries
    sums = np.zeros(shape, dtype=complex)
    for part in parts:
        for lo in range(0, len(part), block):
            sums += np.inner(*_reference_factors(values[0], values[1], part[lo:lo + block]))
    for real in (False, True):
        if not (real and space.dim == 1):  # the circle's real sums are zonal
            assert spherical_sums(space, labels, parts, real).tobytes() == \
                sums[rows, cols].tobytes()
    weights = rng.standard_normal(len(labels)) + 1j * rng.standard_normal(len(labels))
    box = np.zeros(shape, dtype=complex)
    np.add.at(box, (rows, cols), weights)
    want = []
    for lo in range(0, len(pts), block):
        p, e = _reference_factors(values[0], values[1], pts[lo:lo + block])
        want.append(((box.T @ p) * e).sum(axis=0))
    assert spherical_synthesis(space, labels, weights, pts).tobytes() == \
        np.concatenate(want).tobytes()


def test_characters_write_every_row_as_the_reference_walk():
    rng = np.random.default_rng(5)
    theta = rng.uniform(0.0, 2.0 * math.pi, 257)
    for values in ([0], [3], [-3], [-3, -3, 3], [5, -5, 0, 0, 2, -7, 7, -7, 12],
                   list(range(-9, 10)), [-60, 0, 3, 60]):
        values = np.array(values)
        assert _characters(theta, values).tobytes() == \
            _reference_characters(theta, values).tobytes()


def test_clamped_means_match_the_scalar_rule_bit_for_bit():
    rng = np.random.default_rng(23)
    z = rng.uniform(-1.0, 1.0, 400) + 1j * rng.uniform(-1.0, 1.0, 400)
    z[:40] /= np.abs(z[:40])  # on the unit circle, some an ulp outside it
    z[40:80] = (1.0 + 2.0 ** -52 * rng.integers(-3, 4, 40)) * np.exp(1j * rng.uniform(0, 6, 40))
    for means in (z, z.real, np.concatenate([z.real[:40] * (1.0 + 2.0**-52), [1.0, -1.0]])):
        for symmetrized in (False, True):
            want = [complex(_clamp_value(v, symmetrized)) for v in means]
            got = _clamped(means, symmetrized)
            assert [(v.real.hex(), v.imag.hex()) for v in got.tolist()] == \
                [(v.real.hex(), v.imag.hex()) for v in want]


def _reference_estimates(obs, indices, cfg):
    # one transform value and one estimate per index, through the
    # per-index transform and the vector's sorting constructor
    space, symmetrized = obs.config.space, cfg.variant.symmetrized
    conj = [conjugate_index(space, ix) for ix in indices]
    keys = [pair_label(space, ix) if symmetrized else ix.label for ix in conj]
    distinct = list(dict.fromkeys(keys))
    parts, still = obs._transform_parts()
    sums = dict(zip(distinct, spherical_sums(space, distinct, parts, symmetrized) + still))
    nu = EmpiricalTransform([(ix, _clamp_value(sums[key] / obs.m, symmetrized))
                             for ix, key in zip(conj, keys)], m=obs.m, symmetrized=symmetrized)
    pairs, truncated = [], []
    for ix, sigma in zip(indices, conj):
        value, flag = estimate_with_flag(nu, sigma, cfg)
        pairs.append((ix, value))
        if flag:
            truncated.append(ix)
    return CoefficientVector(pairs, truncated=truncated)


def _hex(vec):
    return [(ix.label, ix.casimir.hex(), ix.multiplicity, v.real.hex(), v.imag.hex(),
             vec.is_truncated(ix)) for ix, v in vec.items()]


@pytest.mark.parametrize("space, law, cfg", [
    ("circle", "wn:sigma=0.55", EstimatorConfig(delta=30.0)),
    ("circle", "wn:sigma=0.7,mean=1", EstimatorConfig(variant=Variant.COMPLEX_LOG)),
    ("torus:2", "heat:tau=0.4", EstimatorConfig(intensity=1.5, delta=30.0)),
    ("torus:2", "wn:sigma=0.6,mean=0.4;-1", EstimatorConfig(variant=Variant.COMPLEX_LOG)),
    ("torus:3", "wn:sigma=0.5", EstimatorConfig()),
    ("sphere:2", "heat:tau=0.35", EstimatorConfig(variant=Variant.NOISE_CORRECTED,
                                                  noise_tau=0.3)),
    ("sphere:3", "cap:rho=1.2", EstimatorConfig(delta=30.0)),
], ids=lambda v: v if isinstance(v, str) else v.variant.value)
def test_reconstruct_estimates_match_the_per_index_reference_bit_for_bit(space, law, cfg):
    law = parse_law(law, parse_space(space))
    intensity = cfg.intensity
    obs = sample_compound(ProcessConfig(law=law, intensity=intensity, seed=19,
                                        noise_tau=cfg.noise_tau), 5000)
    est = reconstruct(obs, cfg, SobolevSpec(2.0), scale=3.0)
    want = _reference_estimates(obs, spectrum(law.space, est.cutoff), cfg)
    assert _hex(est.coeffs) == _hex(want)
    assert all(type(v) is complex for _, v in est.coeffs.items())


def test_one_estimate_per_transform_value(monkeypatch):
    # a symmetrized +- pair shares one Re nu and so one estimate; complex-log
    # estimates every index, and a coefficient study's one index once
    calls = []

    def counting(nu, index, cfg):
        calls.append(index)
        return estimate(nu, index, cfg)

    estimate = coeffs.estimate_with_flag
    monkeypatch.setattr(coeffs, "estimate_with_flag", counting)
    for law, cfg in (("wn:sigma=0.5", EstimatorConfig()),
                     ("wn:sigma=0.5,mean=1;-0.5;0.3", EstimatorConfig(variant=Variant.COMPLEX_LOG))):
        law = parse_law(law, torus(3))
        obs = sample_compound(ProcessConfig(law=law, seed=2), 2000)
        calls.clear()
        est = reconstruct(obs, cfg, SobolevSpec(2.0))
        n = len(est.coeffs)
        assert len(calls) == (n if cfg.variant is Variant.COMPLEX_LOG else (n + 1) // 2)
        assert all(isinstance(ix, type(make_index(law.space, (0, 0, 0)))) for ix in calls)
    calls.clear()
    estimate_coefficients(obs, [make_index(torus(3), (1, -1, 0))], cfg)
    assert len(calls) == 1
