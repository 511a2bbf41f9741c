"""Step laws: exact coefficients, quadrature cross-checks, and samplers."""

import io
import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from decompound import (
    CoefficientVector,
    HeatZonal,
    UniformCap,
    WrappedNormal,
    circle,
    make_index,
    parse_law,
    quadrature_coefficients,
    sample_points,
    spectrum,
    sphere,
    torus,
    true_coefficients,
    uniform_tangents,
    zonal_values,
)
from decompound.steplaws import _lift_from_origin


# --- exact coefficient formulas -------------------------------------------


def test_heat_coefficients_circle():
    law = HeatZonal(circle(), tau0=0.3)
    for n in (0, 1, -2, 5):
        got = law.coefficient(make_index(circle(), (n,)))
        assert got == pytest.approx(math.exp(-n * n * 0.3), abs=1e-15)


def test_heat_coefficients_sphere():
    law = HeatZonal(sphere(2), tau0=0.2)
    for ell in (0, 1, 4):
        got = law.coefficient(make_index(sphere(2), (ell,)))
        assert got == pytest.approx(math.exp(-ell * (ell + 1) * 0.2), abs=1e-15)


def test_wrapped_normal_coefficients_with_mean():
    law = WrappedNormal(torus(2), sigma=0.5, mean=(0.1, 0.2))
    idx = make_index(torus(2), (1, -2))
    want = math.exp(-5.0 * 0.125) * np.exp(-1j * (0.1 - 0.4))
    assert law.coefficient(idx) == pytest.approx(want, abs=1e-15)
    # a nonzero mean breaks inversion invariance, zero mean restores it
    assert not law.inverse_invariant
    assert WrappedNormal(circle(), sigma=0.5).inverse_invariant


def test_uniform_cap_coefficient_against_direct_integral():
    rho = 0.8
    law = UniformCap(sphere(2), rho=rho)
    # independent route: integrate P_l(cos t) sin t / (1 - cos rho) over [0, rho]
    for ell in (1, 2, 5):
        want, _ = integrate.quad(
            lambda t: special.eval_legendre(ell, math.cos(t))
            * math.sin(t)
            / (1 - math.cos(rho)),
            0.0,
            rho,
            epsabs=1e-12,
        )
        got = law.coefficient(make_index(sphere(2), (ell,)))
        assert got.imag == 0.0
        assert got.real == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_uniform_cap_closed_form_matches_quadrature(d):
    space = sphere(d)
    indices = [make_index(space, (ell,)) for ell in range(61)]
    for rho in (0.5, 1.2, 2.9):
        law = UniformCap(space, rho=rho)
        quad = quadrature_coefficients(law, indices)
        for ix in indices:
            assert abs(law.coefficient(ix) - quad[ix]) <= 1e-13, (rho, ix.label)


def test_trivial_index_coefficient_is_one():
    for law in (
        HeatZonal(circle(), tau0=0.4),
        WrappedNormal(torus(2), sigma=0.3, mean=(0.7, 0.0)),
        UniformCap(sphere(3), rho=1.0),
    ):
        space = law.space
        trivial = make_index(space, (0,) * space.rank)
        assert law.coefficient(trivial) == 1.0 + 0.0j


# --- quadrature cross-check (independent of the analytic formulas) --------


@pytest.mark.parametrize(
    "law",
    [
        HeatZonal(circle(), tau0=0.3),
        HeatZonal(sphere(2), tau0=0.25),
        HeatZonal(sphere(3), tau0=0.25),
        WrappedNormal(circle(), sigma=0.7),
        WrappedNormal(torus(2), sigma=0.6, mean=(0.3, -0.4)),
    ],
)
def test_quadrature_matches_analytic(law):
    idx = spectrum(law.space, 30.0)
    exact = true_coefficients(law, idx)
    quad = quadrature_coefficients(law, idx)
    for i in idx:
        assert abs(quad[i] - exact[i]) < 1e-8


def test_quadrature_node_floor_enforced():
    law = HeatZonal(circle(), tau0=0.3)
    idx = spectrum(circle(), 100.0)
    with pytest.raises(ValueError):
        quadrature_coefficients(law, idx, nodes=8)


# --- CoefficientVector ------------------------------------------------------


def test_coefficient_vector_sorted_items_and_lookup():
    c = circle()
    i0, i1, im1 = (make_index(c, (n,)) for n in (0, 1, -1))
    vec = CoefficientVector([(i1, 0.5 + 0.1j), (i0, 1.0), (im1, 0.5 - 0.1j)])
    labels = [i.label for i, _ in vec.items()]
    assert labels == [(0,), (-1,), (1,)]  # (casimir, label) order
    assert vec[i1] == 0.5 + 0.1j
    assert vec.get(make_index(c, (7,))) == 0.0
    assert vec.max_casimir == 1.0
    assert len(vec) == 3


def test_coefficient_vector_check_density():
    c = circle()
    good = CoefficientVector(
        [(make_index(c, (0,)), 1.0), (make_index(c, (1,)), 0.3 + 0.2j),
         (make_index(c, (-1,)), 0.3 - 0.2j)]
    )
    good.check_density()
    bad = CoefficientVector([(make_index(c, (0,)), 0.9)])
    with pytest.raises(ValueError):
        bad.check_density()


def test_coefficient_vector_csv_round_trip(tmp_path):
    law = WrappedNormal(torus(2), sigma=0.5, mean=(0.1, 0.2))
    vec = true_coefficients(law, spectrum(torus(2), 8.0))
    path = tmp_path / "coeffs.csv"
    vec.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "label,casimir,multiplicity,re,im,truncated_flag"
    back = CoefficientVector.from_csv(path)
    assert len(back) == len(vec)
    for i, v in vec.items():
        assert back[i] == pytest.approx(v, abs=1e-15)
        assert back.is_truncated(i) == vec.is_truncated(i)


# --- samplers ---------------------------------------------------------------


def test_uniform_tangents_orthonormal():
    rng = np.random.default_rng(0)
    pts = sample_points(UniformCap(sphere(3), rho=2.0), 500, rng)
    tg = uniform_tangents(pts, rng)
    assert np.allclose(np.einsum("ij,ij->i", tg, pts), 0.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(tg, axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_lift_from_origin_unit_vectors(d):
    # a point at cosine z from the origin (the last axis), in a uniform
    # tangent direction there: unit norm, last coordinate z with its sign
    rng = np.random.default_rng(d)
    z = np.concatenate([[1.0, -1.0, 0.0], rng.uniform(-1.0, 1.0, 4997)])
    pts = _lift_from_origin(sphere(d), z, rng)
    assert pts.shape == (5000, d + 1)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    assert np.array_equal(pts[:, -1], z)
    assert not pts[:2, :d].any()
    # the direction is uniform: its first coordinate is 2 Beta(a, a) - 1
    dirs = pts[3:, :d] / np.linalg.norm(pts[3:, :d], axis=1, keepdims=True)
    a = (d - 1) / 2.0
    ks = stats.kstest((dirs[:, 0] + 1.0) / 2.0, stats.beta(a, a).cdf)
    assert ks.pvalue > 1e-3


def _radial_table_coefficients(law, lmax, nodes=8, chunk=1 << 14):
    """Zonal coefficients of the law the radial table samples, by
    Gauss-Legendre quadrature of its quantile map over u in [0, 1).

    The map is linear on each interior cell [k/K, (k+1)/K); the two end
    cells use the monotone-cubic inverse, split here at its knots."""
    table = law._sphere_table
    cells = table.CELLS
    knots = table._inverse.x

    def split(a, b):
        return np.concatenate([[a], knots[(knots > a) & (knots < b)], [b]])

    bounds = np.unique(np.concatenate([split(0.0, 1.0 / cells),
                                       np.arange(2, cells - 1) / cells,
                                       split(1.0 - 1.0 / cells, 1.0)]))
    lo, width = bounds[:-1], np.diff(bounds)
    s, w = np.polynomial.legendre.leggauss(nodes)
    s, w = (s + 1.0) / 2.0, w / 2.0
    lam = (law.space.dim - 1.0) / 2.0
    total = np.zeros(lmax + 1)
    for a in range(0, lo.size, chunk):
        u = (lo[a:a + chunk, None] + width[a:a + chunk, None] * s).ravel()
        weight = (width[a:a + chunk, None] * w).ravel()
        # rounding can carry a node to 1.0, which no draw reaches
        theta = table.quantile(np.minimum(u, 1.0 - 2.0**-53))
        total += zonal_values(lam, lmax, np.cos(theta)) @ weight
    return total


@pytest.mark.parametrize("d,tau0", [(2, 0.5), (2, 0.045), (4, 0.35)])
def test_radial_table_sampler_bias(d, tau0):
    # the sampled law itself, without draws: its coefficients stay within
    # 1e-6 of exp(-kappa tau0); tau0 = 0.045 is the heat blur at tau = 0.3
    law = HeatZonal(sphere(d), tau0=tau0)
    got = _radial_table_coefficients(law, 8)
    want = [law.coefficient(make_index(sphere(d), (ell,))).real for ell in range(9)]
    assert got[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(got - want)) <= 1e-6


def test_uniform_cap_distances_match_beta_cdf():
    rho = 1.2
    law = UniformCap(sphere(2), rho=rho)
    rng = np.random.default_rng(11)
    d = law.sample_distances(20_000, rng)
    assert d.min() >= 0.0 and d.max() <= rho
    # distance CDF on S^2 restricted to a cap: (1-cos t)/(1-cos rho)
    ks = stats.kstest(d, lambda t: (1 - np.cos(t)) / (1 - np.cos(rho)))
    assert ks.pvalue > 1e-3


def test_heat_circle_displacements_match_density():
    law = HeatZonal(circle(), tau0=0.3)
    rng = np.random.default_rng(5)
    # displacements are signed tangent increments; wrap them onto [0, 2pi)
    th = law.sample_displacements(20_000, rng)[:, 0] % (2 * math.pi)
    # CDF by quadrature of the wrapped-Gaussian-type series density
    grid = np.linspace(0.0, 2 * math.pi, 4097)
    pdf = law.density_on_angles(grid[:, None]) / (2 * math.pi)
    cdf = integrate.cumulative_simpson(pdf, x=grid, initial=0.0)
    cdf /= cdf[-1]
    ks = stats.kstest(th, lambda t: np.interp(t, grid, cdf))
    assert ks.pvalue > 1e-3


def test_heat_flat_methods_reject_spheres():
    # the flat methods sample and evaluate the wrapped normal, which a sphere
    # does not have; they must not hand back circle draws
    law = HeatZonal(sphere(2), tau0=0.4)
    with pytest.raises(ValueError, match="HeatZonal.*flat"):
        law.sample_displacements(3, np.random.default_rng(0))
    with pytest.raises(ValueError, match="HeatZonal.*flat"):
        law.density_on_angles(np.zeros((3, 2)))


def test_empirical_mean_of_zonal_matches_coefficient():
    # small-sample version of the transform consistency check
    law = HeatZonal(sphere(2), tau0=0.3)
    rng = np.random.default_rng(9)
    pts = sample_points(law, 40_000, rng)
    from decompound import spherical

    for ell in (1, 2, 3):
        idx = make_index(sphere(2), (ell,))
        vals = spherical(sphere(2), idx, pts).real
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        want = law.coefficient(idx).real
        assert abs(vals.mean() - want) < 4.5 * se + 1e-12


def test_sample_points_deterministic_given_seed():
    law = WrappedNormal(torus(2), sigma=0.5, mean=(0.1, 0.2))
    a = sample_points(law, 64, np.random.default_rng(42))
    b = sample_points(law, 64, np.random.default_rng(42))
    assert np.array_equal(a, b)


# --- parsing and validation --------------------------------------------------


def test_parse_law_round_trips():
    c = circle()
    for text in ("heat:tau=0.3", "wn:sigma=0.7,mean=0.5", "cap:rho=0.9"):
        space = sphere(2) if text.startswith("cap") else c
        law = parse_law(text, space)
        assert law.spec_string() == text
        assert parse_law(law.spec_string(), space).spec_string() == text


def test_parse_law_torus_mean_vector():
    law = parse_law("wn:sigma=0.4,mean=0.1;0.2", torus(2))
    assert isinstance(law, WrappedNormal)
    assert law.mean == (0.1, 0.2)


def test_parse_law_rejects_bad_specs():
    with pytest.raises(ValueError):
        parse_law("heat:tau=-1", circle())
    with pytest.raises(ValueError):
        parse_law("cap:rho=0.5", circle())  # caps are sphere-only
    with pytest.raises(ValueError):
        parse_law("banana:x=1", circle())
    with pytest.raises(ValueError):
        UniformCap(sphere(2), rho=4.0)  # rho must stay below pi
