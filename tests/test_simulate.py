"""Sampling the compound process: determinism, distributions, round trips."""

import math
import pickle
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from decompound import (
    HeatZonal,
    ObservationSet,
    ProcessConfig,
    UniformCap,
    WrappedNormal,
    circle,
    empirical_transform,
    geodesic_step,
    make_index,
    observations_text,
    parse_law,
    parse_space,
    read_observations,
    sample_compound,
    simulate,
    spherical,
    sphere,
    torus,
    uniform_tangents,
    write_observations,
)
from decompound.simulate import BLOCK, _block_rng


def _circle_config(**kw):
    law = WrappedNormal(circle(), sigma=0.7)
    base = dict(law=law, intensity=1.0, time=1.0, seed=123)
    base.update(kw)
    return ProcessConfig(**base)


def test_same_seed_bit_identical():
    cfg = _circle_config()
    a = sample_compound(cfg, 500)
    b = sample_compound(cfg, 500)
    assert np.array_equal(a.points, b.points)


def test_different_seed_differs():
    a = sample_compound(_circle_config(seed=1), 500)
    b = sample_compound(_circle_config(seed=2), 500)
    assert not np.array_equal(a.points, b.points)


@pytest.mark.parametrize("space", ["circle", "sphere:2", "sphere:3"])
def test_block_prefix_stability(space):
    # blocks are walked in order from one stream, their orders are drawn in
    # block order from another, and a sphere's lift draws its directions in
    # observation order from a third, so extending m by whole blocks must not
    # disturb earlier blocks
    law = parse_law("wn:sigma=0.7" if space == "circle" else "heat:tau=0.3", parse_space(space))
    cfg = ProcessConfig(law=law, intensity=1.0, noise_tau=0.2, seed=123)
    small = sample_compound(cfg, BLOCK)
    big = sample_compound(cfg, 2 * BLOCK)
    assert np.array_equal(small.points, big.points[:BLOCK])


@pytest.mark.parametrize("space", ["circle", "torus:2", "sphere:2"])
def test_sample_walks_its_blocks_from_one_stream(space):
    # one generator keyed (seed, 0) walks every block in order, so a sample
    # of several blocks and a partial one is that loop's output to the bit
    law = parse_law("heat:tau=0.3" if space == "sphere:2" else "wn:sigma=0.7",
                    parse_space(space))
    cfg = ProcessConfig(law=law, intensity=1.5, noise_tau=0.3, seed=31)
    m = 2 * BLOCK + 5
    want = np.empty((m, cfg.space.ambient_dim) if cfg.space.is_flat else m)
    rng = _block_rng(cfg.seed, 0)
    for lo in range(0, m, BLOCK):
        simulate._walk_endpoints(cfg, rng, want[lo:lo + BLOCK])
    got = sample_compound(cfg, m)._sample
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [0, 31, -3, 2**64 + 7, 3 * 2**70 + 1])
def test_block_streams_are_sfc64_seeded_by_seed_and_stream_key(seed):
    # the walk (0), order (-2) and lift (-1) streams and any other key draw
    # from SFC64 seeded by SeedSequence([seed, key] mod 2^64), so a seed and
    # that seed plus 2^64 share their streams
    for key in (0, -1, -2, 2**40):
        entropy = [seed % 2**64, key % 2**64]
        want = np.random.SFC64(np.random.SeedSequence(entropy)).random_raw(64)
        for got in (_block_rng(seed, key), _block_rng(seed + 2**64, key)):
            assert type(got.bit_generator) is np.random.SFC64
            assert got.bit_generator.random_raw(64).tobytes() == want.tobytes()


def _block_order(seed, m):
    """Where each walked observation goes in the public order: one
    permutation per block, in block order, from the stream keyed (seed, -2)."""
    rng = _block_rng(seed, -2)
    return np.concatenate([lo + rng.permutation(min(BLOCK, m - lo))
                           for lo in range(0, m, BLOCK)])


def _public(grouped, seed):
    out = np.empty_like(grouped)
    out[_block_order(seed, len(grouped))] = grouped
    return out


@pytest.mark.parametrize("space", ["circle", "torus:2", "sphere:2"])
def test_public_order_permutes_each_walked_block(space):
    # points (flat) and cosines (sphere) are the walked sample with each
    # block permuted by its own draw from the order stream
    law = parse_law("heat:tau=0.3" if space == "sphere:2" else "wn:sigma=0.7",
                    parse_space(space))
    for m in (1, 2 * BLOCK + 5):
        obs = sample_compound(ProcessConfig(law=law, intensity=1.5, noise_tau=0.3, seed=37), m)
        walked = obs._sample
        got = obs.points if obs.config.space.is_flat else obs.cosines[:, None]
        assert got.tobytes() == _public(walked, 37).tobytes()
        assert not got.flags.writeable


def test_sample_compound_rejects_empty():
    with pytest.raises(ValueError):
        sample_compound(_circle_config(), 0)


def test_observation_set_is_read_only():
    obs = sample_compound(_circle_config(), 10)
    assert obs.m == 10
    with pytest.raises((ValueError, RuntimeError)):
        obs.points[0] = 0.0


def test_observation_set_validates_points():
    cfg = ProcessConfig(law=HeatZonal(sphere(2), tau0=0.3), intensity=1.0,
                        time=1.0, seed=0)
    bad = np.array([[0.0, 0.0, 2.0]])  # not unit norm
    with pytest.raises(ValueError):
        ObservationSet(points=bad, config=cfg)
    good = np.array([[0.0, 0.0, 1.0]])
    assert ObservationSet(points=good, config=cfg).m == 1


@pytest.mark.parametrize("d", [2, 4])
def test_observation_set_sphere_norm_tolerance(d):
    # norms within 1e-6 of 1 pass, norms beyond fail, and a NaN is reported
    # as non-finite before any norm is taken
    cfg = ProcessConfig(law=HeatZonal(sphere(d), tau0=0.3))
    rng = np.random.default_rng(d)
    pts = rng.standard_normal((50, d + 1))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    for row in (0, 49):
        for off in (5e-7, -5e-7):
            moved = pts.copy()
            moved[row] *= 1.0 + off
            assert ObservationSet(points=moved, config=cfg).m == 50
        for off in (2e-6, -2e-6):
            moved = pts.copy()
            moved[row] *= 1.0 + off
            with pytest.raises(ValueError, match="unit sphere"):
                ObservationSet(points=moved, config=cfg)
    pts[7, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        ObservationSet(points=pts, config=cfg)


def test_observation_set_copies_outside_arrays():
    cfg = _circle_config()
    pts = np.array([[0.5], [1.5]])
    obs = ObservationSet(points=pts, config=cfg)
    pts[0, 0] = 2.5
    assert obs.points[:, 0].tolist() == [0.5, 1.5]
    assert not obs.points.flags.writeable


def _sphere_sample(d=2, m=5000):
    law = HeatZonal(sphere(d), tau0=0.3)
    return sample_compound(ProcessConfig(law=law, intensity=2.0, noise_tau=0.3, seed=d), m)


def test_walked_sphere_set_lifts_once_on_first_read(monkeypatch):
    obs = _sphere_sample()
    lifts = []
    lift = simulate._lift_from_origin
    monkeypatch.setattr(simulate, "_lift_from_origin",
                        lambda *args: lifts.append(1) or lift(*args))
    # the size and the transform read the walked cosines alone
    assert obs.m == 5000
    empirical_transform(obs, [make_index(obs.config.space, (1,))])
    assert not lifts
    pts = obs.points
    assert len(lifts) == 1  # one per set, over both blocks
    assert obs.points is pts
    assert len(lifts) == 1
    assert not pts.flags.writeable and not obs.cosines.flags.writeable
    assert np.array_equal(pts[:, -1], obs.cosines)


def test_walked_sphere_set_pickles_before_its_lift():
    # a walked set pickles before its order (and a sphere's lift) is drawn,
    # and draws them the same way after
    for obs in (_sphere_sample(d=3), sample_compound(_circle_config(), 10)):
        back = pickle.loads(pickle.dumps(obs))
        assert not back._sample.flags.writeable
        assert back.points.tobytes() == obs.points.tobytes()
        assert not back.points.flags.writeable
        assert back.config == obs.config
        if obs.cosines is not None:
            assert back.cosines.tobytes() == obs.cosines.tobytes()
            assert not back.cosines.flags.writeable


def test_walked_cosines_must_be_finite_and_in_range():
    obs = _sphere_sample(m=10)
    for bad in (np.nan, 1.5, -np.inf):
        z = np.array(obs.cosines)
        z[3] = bad
        with pytest.raises(ValueError, match="walked cosines"):
            ObservationSet._adopt(z, obs.config, obs._cells)


def test_observation_set_is_immutable():
    obs = _sphere_sample(m=10)
    with pytest.raises(AttributeError):
        obs.points = np.zeros((10, 3))
    with pytest.raises(AttributeError):
        obs.config = _circle_config()


def test_process_config_round_trip():
    cfg = ProcessConfig(law=WrappedNormal(torus(2), sigma=0.5, mean=(0.1, 0.2)),
                        intensity=2.0, time=0.5, noise_tau=0.3, seed=9)
    back = ProcessConfig.from_mapping(cfg.to_mapping())
    assert back == cfg


def test_process_config_validation():
    with pytest.raises(ValueError):
        _circle_config(intensity=-1.0)
    with pytest.raises(ValueError):
        _circle_config(time=0.0)
    with pytest.raises(ValueError):
        _circle_config(noise_tau=-0.1)


# --- Poisson counts ----------------------------------------------------------


def _counts(rate, n, rng):
    """n step counts as the sampler draws them: the cells of one multinomial
    draw over the cut Poisson pmf table, spread out one count per walker."""
    cells = rng.multinomial(n, simulate._count_pmf(rate))
    return np.repeat(np.arange(cells.size), cells)


@pytest.mark.parametrize("rate", [1.0, 4.5, 50.0, 200.0])
def test_poisson_draw_moments(rate):
    # step counts are the cells of rng.multinomial(n, _count_pmf(rate)); the
    # cut table must keep the right mean and variance
    rng = np.random.default_rng(17)
    n = 40_000
    draws = _counts(rate, n, rng).astype(float)
    se_mean = math.sqrt(rate / n)
    assert abs(draws.mean() - rate) < 4.5 * se_mean
    # Var(sample var) ~ (mu + 2 mu^2)/n for Poisson
    se_var = math.sqrt((rate + 2 * rate**2) / n)
    assert abs(draws.var(ddof=1) - rate) < 4.5 * se_var


def test_poisson_draw_small_rate_pmf():
    rng = np.random.default_rng(23)
    n = 30_000
    draws = _counts(0.8, n, rng)
    for k in range(3):
        want = math.exp(-0.8) * 0.8**k / math.factorial(k)
        got = float(np.mean(draws == k))
        assert abs(got - want) < 4.5 * math.sqrt(want * (1 - want) / n)


@pytest.mark.parametrize("rate", [0.5, 1.0, 4.0, 40.0])
def test_block_count_cells_match_the_poisson_pmf(rate):
    # each block draws its counts as one multinomial over the table; summed
    # over 200 blocks the cells are a chi-square match to Poisson(rate), with
    # the cells expecting fewer than 5 walkers pooled at each end
    pmf = simulate._count_pmf(rate)
    rng = _block_rng(19, 0)
    got = sum(rng.multinomial(BLOCK, pmf) for _ in range(200))
    want = 200 * BLOCK * stats.poisson.pmf(np.arange(pmf.size), rate)
    want[-1] += 200 * BLOCK * stats.poisson.sf(pmf.size - 1, rate)
    lo, hi = np.flatnonzero(want >= 5.0)[[0, -1]]

    def pool(x):
        return np.concatenate([[x[:lo + 1].sum()], x[lo + 1:hi], [x[hi:].sum()]])

    assert stats.chisquare(pool(got), pool(want)).pvalue > 1e-3


@pytest.mark.parametrize("space", ["circle", "torus:2", "sphere:2", "sphere:3"])
def test_kept_cells_count_each_block_and_its_unmoved_walkers_sit_at_the_origin(space):
    # one row of cells per block, read-only, summing to the block's length;
    # without blur every row from n - cells[0] on is exactly the origin
    law = parse_law("heat:tau=0.4" if space.startswith("sphere") else "wn:sigma=0.7",
                    parse_space(space))
    m = 2 * BLOCK + 5
    obs = sample_compound(ProcessConfig(law=law, seed=67), m)
    cells = obs._cells
    assert cells.dtype == np.int64 and not cells.flags.writeable
    assert cells.shape == (3, simulate._count_pmf(1.0).size)
    sizes = [BLOCK, BLOCK, 5]
    assert cells.sum(axis=1).tolist() == sizes
    origin = 0.0 if obs.config.space.is_flat else 1.0
    for lo, n, row in zip(range(0, m, BLOCK), sizes, cells):
        block = obs._sample[lo:lo + n]
        assert np.all(block[n - row[0]:] == origin)
        assert not np.any(np.all(block[:n - row[0]].reshape(n - row[0], -1) == origin, axis=1))


def test_kept_cells_match_the_poisson_pmf():
    # the cells a sample keeps are its walk's count draws: summed over 64
    # blocks they are a chi-square match to _count_pmf(t Lambda), with the
    # cells expecting fewer than 5 walkers pooled at each end (seed and
    # threshold fixed before the first run)
    cfg = _circle_config(seed=71)
    obs = sample_compound(cfg, 64 * BLOCK)
    pmf = simulate._count_pmf(cfg.mean_steps)
    got = np.zeros(max(pmf.size, obs._cells.shape[1]))
    got[:obs._cells.shape[1]] = obs._cells.sum(axis=0)
    want = np.zeros_like(got)
    want[:pmf.size] = obs.m * pmf
    lo, hi = np.flatnonzero(want >= 5.0)[[0, -1]]

    def pool(x):
        return np.concatenate([[x[:lo + 1].sum()], x[lo + 1:hi], [x[hi:].sum()]])

    assert stats.chisquare(pool(got), pool(want)).pvalue > 1e-3


@pytest.mark.parametrize("rate,size", [(1e-12, 3), (0.5, 16), (1.0, 19), (2.0, 24),
                                       (4.0, 31), (40.0, 104), (745.0, 982),
                                       (746.0, 983), (1000.0, 1272)])
def test_count_table_is_cut_where_the_tail_is_below_2_to_the_minus_53(rate, size):
    # the table ends (taken in log space, so no term underflows to a wrong 0
    # past rate 745), holds the Poisson pmf, and the Poisson mass it covers is
    # within 2^-53 of 1
    pmf = simulate._count_pmf(rate)
    assert pmf.size == size
    assert math.fsum(pmf) == pytest.approx(1.0, abs=2.0**-52)
    assert stats.poisson.sf(size - 1, rate) <= 2.0**-53
    np.testing.assert_allclose(pmf, stats.poisson.pmf(np.arange(size), rate),
                               rtol=1e-10, atol=1e-300)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_direction_cosines_follow_the_uniform_direction_law(dim):
    # the first coordinate of a uniform unit vector in R^dim is 2B - 1 with
    # B ~ Beta((dim-1)/2, (dim-1)/2); on S^3 that is U(-1, 1), drawn as 2U - 1
    c = simulate._direction_cosines(dim, 50_000, np.random.default_rng(29))
    assert c.min() >= -1.0 and c.max() <= 1.0
    a = (dim - 1) / 2.0
    assert stats.kstest((c + 1.0) / 2.0, stats.beta(a, a).cdf).pvalue > 1e-3
    if dim == 3:
        assert stats.kstest(c, stats.uniform(-1.0, 2.0).cdf).pvalue > 1e-3


def test_half_turn_table_is_cos_pi_u_to_within_its_knot_spacing():
    # S^2 direction cosines come from a knot table of cos(phi), phi ~ U[0, pi]:
    # linear between knots pi k / 2^16, so within (pi/2^16)^2/8 = 2.9e-10 of
    # cos(pi U) on the same uniforms, the end cells and the ends included
    table = simulate._half_turn_table()
    k = 2**16
    rng = np.random.default_rng(31)
    u = np.concatenate([rng.random(1_000_000), rng.random(50_000) / k,
                        1.0 - rng.random(50_000) / k, np.arange(k) / k,
                        [2.0**-53, 1.0 - 2.0**-53]])
    assert np.max(np.abs(table.cosines(u) - np.cos(math.pi * u))) <= 3e-10


# tracemalloc's peak over a sample, beyond the sample itself: half the
# transform's block budget (spaces._BLOCK_BYTES)
_SAMPLE_BYTES = 1 << 22


def _sample_peak_bytes(cfg, m):
    sample_compound(cfg, m)  # the radial and count tables are built once
    tracemalloc.start()
    try:
        obs = sample_compound(cfg, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - obs._sample.nbytes


@pytest.mark.parametrize("space,law", [("torus:3", "wn:sigma=0.5"), ("sphere:2", "heat:tau=0.5")])
def test_sampling_memory_bounded_by_the_block(space, law):
    # a block bounds the walk's working memory: one block stays under the
    # budget, and three blocks need no more
    cfg = ProcessConfig(law=parse_law(law, parse_space(space)), noise_tau=0.3, seed=6)
    one_block = _sample_peak_bytes(cfg, BLOCK)
    assert one_block <= _SAMPLE_BYTES
    assert _sample_peak_bytes(cfg, 3 * BLOCK) <= 1.1 * one_block


# --- distributional checks ---------------------------------------------------


def test_transform_link_circle():
    # empirical mean of conj(phi_n) over observations estimates
    # exp(t * Lambda * (c_n - 1)) for the step coefficient c_n; the flat heat
    # law samples through its wrapped normal, so it is checked the same way
    for cfg, labels in (
        (_circle_config(intensity=1.5, time=1.0, seed=77), [(1,), (2,), (3,)]),
        (ProcessConfig(law=HeatZonal(torus(2), tau0=0.4), intensity=1.5, time=1.0,
                       seed=78), [(1, 0), (0, 1), (1, -1), (2, 1)]),
    ):
        space = cfg.space
        obs = sample_compound(cfg, 60_000)
        for label in labels:
            idx = make_index(space, label)
            vals = np.conj(spherical(space, idx, obs.points))
            c = cfg.law.coefficient(idx)
            want = np.exp(1.5 * (c - 1.0))
            err = vals.mean() - want
            se = vals.std(ddof=1) / math.sqrt(obs.m)
            assert abs(err) < 4.5 * se + 1e-12


@pytest.mark.parametrize("space", [sphere(2), sphere(4)], ids=str)
def test_transform_link_sphere_with_noise(space):
    # independent observation noise multiplies the transform by its own
    # coefficient exp(-tau^2 * kappa / 2)
    law = HeatZonal(space, tau0=0.4)
    cfg = ProcessConfig(law=law, intensity=1.0, time=1.0, noise_tau=0.5, seed=5)
    obs = sample_compound(cfg, 60_000)
    for ell in (1, 2):
        idx = make_index(space, (ell,))
        vals = spherical(space, idx, obs.points).real
        c = law.coefficient(idx).real
        want = math.exp(c - 1.0) * math.exp(-0.25 * idx.casimir / 2.0)
        se = vals.std(ddof=1) / math.sqrt(obs.m)
        assert abs(vals.mean() - want) < 4.5 * se


def test_transform_link_sphere_cap():
    # cap distances come from the same radial table as heat distances
    space = sphere(3)
    law = UniformCap(space, rho=1.0)
    cfg = ProcessConfig(law=law, intensity=1.0, time=1.0, seed=5)
    obs = sample_compound(cfg, 200_000)
    for ell in (1, 2, 3, 4):
        idx = make_index(space, (ell,))
        vals = spherical(space, idx, obs.points).real
        want = math.exp(law.coefficient(idx).real - 1.0)
        se = vals.std(ddof=1) / math.sqrt(obs.m)
        assert abs(vals.mean() - want) < 4.0 * se


def _reference_sphere_walk(cfg, n, rng):
    """Blurred endpoints stepped in the ambient space with the public
    geodesic_step and uniform_tangents, one masked round per step."""
    space = cfg.space
    pts = np.tile(space.origin(), (n, 1))
    counts = rng.poisson(cfg.mean_steps, n)
    for k in range(counts.max()):
        act = counts > k
        dist = cfg.law.sample_distances(int(act.sum()), rng)
        pts[act] = geodesic_step(space, pts[act], dist, uniform_tangents(pts[act], rng))
    if not cfg.noise_tau:
        return pts
    blur = HeatZonal(space, tau0=cfg.noise_tau**2 / 2.0)
    return geodesic_step(space, pts, blur.sample_distances(n, rng),
                         uniform_tangents(pts, rng))


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("law", ["heat", "cap"])
@pytest.mark.parametrize("noise", [0.0, 0.4])
def test_sphere_kernel_matches_reference_walk(d, law, noise):
    # the sampler walks only cos(distance to origin) and lifts once; the
    # endpoint law must match a walk of full ambient vectors
    step_law = HeatZonal(sphere(d), tau0=0.3) if law == "heat" else UniformCap(sphere(d), rho=1.2)
    cfg = ProcessConfig(law=step_law, intensity=2.0, time=1.0, noise_tau=noise, seed=40 + d)
    got = sample_compound(cfg, 20_000).points
    want = _reference_sphere_walk(cfg, 20_000, np.random.default_rng(50 + d))
    for col in range(d + 1):
        assert stats.ks_2samp(got[:, col], want[:, col]).pvalue > 1e-3, col


# A per-round reference for the in-place kernel: each round takes the sines
# of its own step cosines and steps every walker it moves with the full
# formula.  It makes the kernel's draws in the kernel's order: one generator
# across blocks; per block the count cells, the step cosines, the blur
# cosines, one call for the directions of every round after the first (from
# the origin) and of the blur for the walkers that moved.  The walks stay
# longest first; the public order puts each block in random order with one
# permutation per block from the order stream (_public above).  The lift
# stacks new columns.


def _plain_directions(dim, n, rng):
    if dim == 2:
        return simulate._half_turn_table().cosines(rng.random(n))
    if dim == 3:
        return 2.0 * rng.random(n) - 1.0
    a = (dim - 1) / 2.0
    return 2.0 * rng.beta(a, a, n) - 1.0


def _plain_colatitude_step(z, cos_d, c):
    s = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    sin_d = np.sqrt(np.maximum(1.0 - cos_d * cos_d, 0.0))
    return np.clip(z * cos_d + s * sin_d * c, -1.0, 1.0)


def _plain_lift_from_origin(space, z, rng):
    dirs = rng.standard_normal((z.shape[0], space.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return np.column_stack([np.sqrt(np.maximum(1.0 - z * z, 0.0))[:, None] * dirs, z])


def _plain_sphere_endpoints(cfg, n, rng):
    space = cfg.space
    cells = rng.multinomial(n, simulate._count_pmf(cfg.mean_steps))
    steps = np.repeat(np.arange(cells.size), cells)[::-1]  # longest first
    total, moved = int(steps.sum()), int(np.count_nonzero(steps))
    cos_d = cfg.law._sphere_table.cosines(rng.random(total))
    if cfg.noise_tau:
        blur = HeatZonal(space, tau0=cfg.noise_tau**2 / 2.0)
        cos_b = blur._sphere_table.cosines(rng.random(n))
    dirs = _plain_directions(space.dim, total if cfg.noise_tau else total - moved, rng)
    walked = np.ones(n)
    lo = 0
    for k in range(int(steps[0])):
        na = int(np.count_nonzero(steps > k))
        # a walker at the origin lands at cos d whatever its direction
        c = dirs[lo - moved:lo - moved + na] if k else 0.0
        walked[:na] = _plain_colatitude_step(walked[:na], cos_d[lo:lo + na], c)
        lo += na
    if cfg.noise_tau:
        c = np.zeros(n)
        c[:moved] = dirs[total - moved:]
        walked = _plain_colatitude_step(walked, cos_b, c)
    return walked


def _plain_sample(cfg, m):
    z = np.empty(m)
    rng = _block_rng(cfg.seed, 0)
    for lo in range(0, m, BLOCK):
        hi = min(lo + BLOCK, m)
        z[lo:hi] = _plain_sphere_endpoints(cfg, hi - lo, rng)
    return z


def _kernel_cases(d, law):
    """Configs and sizes for one point, a partial block, several blocks, and
    walks that never move."""
    space = sphere(d)
    step_law = HeatZonal(space, tau0=0.3) if law == "heat" else UniformCap(space, rho=1.2)
    cases = [(rate, noise, m) for rate in (0.3, 1.0, 3.0) for noise in (0.0, 0.3)
             for m in (1, 1000, 2 * BLOCK + 5)]
    cases += [(1e-12, 0.0, 300), (1e-12, 0.3, 300)]
    for rate, noise, m in cases:
        yield ProcessConfig(law=step_law, intensity=rate, time=1.0, noise_tau=noise,
                            seed=int(rate * 10) + m), m


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("law", ["heat", "cap"])
def test_sphere_kernel_is_bit_identical_to_the_per_round_kernel(d, law):
    # the in-place kernel makes the same draws and the same arithmetic, so
    # every walked cosine is the old kernel's to the bit, and so is every
    # public cosine
    for cfg, m in _kernel_cases(d, law):
        obs = sample_compound(cfg, m)
        want = _plain_sample(cfg, m)
        assert obs._sample.tobytes() == want.tobytes(), (cfg, m)
        assert obs.cosines.tobytes() == _public(want, cfg.seed).tobytes(), (cfg, m)
    # the last two cases drew no step at all
    cells = _block_rng(cfg.seed, 0).multinomial(300, simulate._count_pmf(cfg.mean_steps))
    assert cells[0] == 300


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("law", ["heat", "cap"])
def test_sphere_points_are_the_plain_lift_from_the_lift_stream(d, law):
    # the whole set is lifted in one call, from the stream keyed (seed, -1)
    for cfg, m in _kernel_cases(d, law):
        obs = sample_compound(cfg, m)
        want = _plain_lift_from_origin(cfg.space, obs.cosines, _block_rng(cfg.seed, -1))
        assert obs.points.tobytes() == want.tobytes(), (cfg, m)


# A per-walker reference for the flat walk: each walker's endpoint is summed
# on its own in R^d, the covering space, from the kernel's draws in the
# kernel's order (one generator across blocks; per block the count cells,
# every step normal in round order, then the blur normals), and wrapped
# mod 2 pi once.  Walks stay longest first, so round k's rows belong to the
# first walkers that make more than k steps.


def _plain_flat_endpoints(cfg, n, rng):
    law, d = cfg.law, cfg.space.dim
    if isinstance(law, HeatZonal):
        sigma, mean = math.sqrt(2.0 * law.tau0), (0.0,) * d
    else:
        sigma, mean = law.sigma, law.mean
    cells = rng.multinomial(n, simulate._count_pmf(cfg.mean_steps))
    steps = np.repeat(np.arange(cells.size), cells)[::-1].tolist()  # longest first
    rounds = [sum(s > k for s in steps) for k in range(steps[0])]
    first_row = np.cumsum([0] + rounds).tolist()
    z = rng.standard_normal((first_row[-1], d)).tolist()
    noise = rng.standard_normal((n, d)).tolist() if cfg.noise_tau else None
    ends = []
    for i, s in enumerate(steps):
        pos = [0.0] * d
        for k in range(s):
            pos = [p + (mu + sigma * x) for p, mu, x in zip(pos, mean, z[first_row[k] + i])]
        if noise:
            pos = [p + (0.0 + cfg.noise_tau * x) for p, x in zip(pos, noise[i])]
        ends.append(pos)
    return np.mod(np.array(ends), 2.0 * math.pi)


def _plain_flat_sample(cfg, m):
    rng = _block_rng(cfg.seed, 0)
    return np.concatenate([_plain_flat_endpoints(cfg, min(BLOCK, m - lo), rng)
                           for lo in range(0, m, BLOCK)])


@pytest.mark.parametrize("space,law,noise", [("circle", "wn:sigma=0.7,mean=0.4", 0.3),
                                             ("torus:2", "heat:tau=0.4", 0.0)])
def test_flat_walk_is_bit_identical_to_a_per_walker_walk(space, law, noise):
    # the kernel adds each round's steps to a prefix of the walkers, so each
    # endpoint is its walker's sum in the same order, to the bit; the last
    # case draws no step at all
    step_law = parse_law(law, parse_space(space))
    for rate, m in ((1.5, 1), (1.5, 2 * BLOCK + 5), (1e-12, 300)):
        cfg = ProcessConfig(law=step_law, intensity=rate, noise_tau=noise, seed=60 + m)
        assert sample_compound(cfg, m)._sample.tobytes() == \
            _plain_flat_sample(cfg, m).tobytes(), (cfg, m)


def test_wrapped_normal_steps_live_on_the_covering_space():
    # a step is mean + sigma z in R^d, not reduced mod 2 pi; the walk wraps
    # each endpoint once
    law = WrappedNormal(torus(2), sigma=5.0, mean=0.4)
    got = law.sample_displacements(1000, np.random.default_rng(8))
    assert got.tobytes() == (0.4 + 5.0 * np.random.default_rng(8).standard_normal((1000, 2))).tobytes()
    assert got.min() < -math.pi and got.max() >= math.pi


# --- CSV round trip ----------------------------------------------------------


def test_observations_text_format():
    obs = sample_compound(_circle_config(seed=4), 3)
    text = observations_text(obs)
    lines = text.splitlines()
    assert lines[0].startswith("# ProcessConfig {")
    assert lines[1] == "theta1"
    assert len(lines) == 5


def test_read_observations_ignores_legacy_mode_key(tmp_path):
    # files written while a trajectory sampling mode existed carry a "mode" key
    path = tmp_path / "obs.csv"
    path.write_text(
        '# ProcessConfig {"intensity": 1.0, "law": "wn:sigma=0.7,mean=0.0", '
        '"mode": "trajectory", "noise_tau": 0.0, "seed": 4, "space": "circle", '
        '"time": 1.0}\n'
        "theta1\n0\n5.8848969092332259\n4.7366174605640339\n")
    obs = read_observations(path)
    assert obs.config == ProcessConfig(law=WrappedNormal(circle(), sigma=0.7), seed=4)
    assert obs.points[:, 0].tolist() == [0.0, 5.8848969092332259, 4.7366174605640339]
    assert "mode" not in obs.config.to_mapping()


@pytest.mark.parametrize("space_text", ["circle", "torus:2", "sphere:2"])
def test_read_observations_names_a_header_only_file_empty(tmp_path, space_text):
    # the two header lines and no rows: the set has no observation, and the
    # point check says so rather than naming a shape
    cfg = ProcessConfig(law=parse_law("heat:tau=0.5", parse_space(space_text)), seed=4)
    path = tmp_path / "obs.csv"
    path.write_text("".join(observations_text(sample_compound(cfg, 1)).splitlines(True)[:2]))
    with pytest.raises(ValueError, match="^empty observation set$"):
        read_observations(path)


def test_csv_round_trip_exact(tmp_path):
    for cfg in (
        _circle_config(seed=10),
        ProcessConfig(law=HeatZonal(sphere(3), tau0=0.3), intensity=2.0,
                      time=0.5, noise_tau=0.1, seed=11),
    ):
        obs = sample_compound(cfg, 57)
        path = tmp_path / "obs.csv"
        write_observations(obs, path)
        back = read_observations(path)
        # 17 significant digits round-trip doubles exactly
        assert np.array_equal(back.points, obs.points)
        assert back.config == cfg
        assert back.m == 57
