"""Step laws: exact coefficients, quadrature cross-checks, and samplers."""

import io
import math
import os
import subprocess
import sys

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
from decompound.simulate import _sines
from decompound.spaces import _spectrum_table
from decompound.steplaws import _TABLE_NODES, _lift_from_origin


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
    assert make_index(c, (7,)) not in vec
    assert vec.max_casimir == 1.0
    assert len(vec) == 3


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


def test_coefficient_vector_values_are_python_complex(tmp_path):
    # values leave the table as Python complex, whose repr the CSV relies on
    # (a numpy scalar's repr reads np.float64(...)); duplicates keep the last
    # value, and entries sort by (casimir, label) once
    t = torus(2)
    ix = [make_index(t, label) for label in ((1, 0), (0, 0), (0, -1), (1, 0))]
    vec = CoefficientVector(zip(ix, [0.5, 1.0, 0.25 - 0.5j, 0.75]), truncated=[(0, -1)])
    assert [i.label for i in vec.indices()] == [(0, 0), (0, -1), (1, 0)]
    assert all(type(v) is complex for _, v in vec.items())
    assert type(vec[(1, 0)]) is complex and vec[(1, 0)] == 0.75
    assert vec.truncated == frozenset({(0, -1)})
    assert vec.is_truncated((0, -1)) and not vec.is_truncated((1, 0))
    assert not vec.is_truncated((5, 5)) and (5, 5) not in vec
    path = tmp_path / "coeffs.csv"
    vec.to_csv(path)
    assert path.read_text().splitlines()[1:] == [
        "0;0,0.0,1,1.0,0.0,0", "0;-1,1.0,1,0.25,-0.5,1", "1;0,1.0,1,0.75,0.0,0"]
    back = CoefficientVector.from_csv(path)
    assert back.items() == vec.items() and back.truncated == vec.truncated
    empty = CoefficientVector([])
    assert (len(empty), empty.items(), empty.max_casimir, empty.truncated) == \
        (0, [], 0.0, frozenset())


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


def _cosine_formula(table, u):
    """The table's cosine map as two gathers from its knots and a mask of
    the end cells over every draw."""
    x = u * table.CELLS
    k = x.astype(np.intp)
    lo = table._knots[k]
    out = lo + (table._knots[k + 1] - lo) * (x - k)
    edge = (k == 0) | (k == table.CELLS - 1)
    out[edge] = np.interp(u[edge], table._cdf, table._cos_grid)
    return out


@pytest.mark.parametrize("law", [HeatZonal(sphere(2), tau0=0.045),
                                 UniformCap(sphere(3), rho=1.0)], ids=["heat", "cap"])
def test_radial_table_quantile_matches_formula_at_end_cells(law):
    # the end cells are inverted on the grid only when a draw falls in them;
    # every draw, in an end cell or not, maps as the formula maps it
    table = law._sphere_table
    ends = np.array([0.0, 2.0**-17, 1.0 - 2.0**-17, 1.0 - 2.0**-53])
    inner = np.random.default_rng(3).random(1000)
    inner = inner[(inner >= 1.0 / table.CELLS) & (inner < 1.0 - 1.0 / table.CELLS)]
    for u in (ends, inner, np.concatenate([inner, ends]), ends[:1], ends[-1:],
              inner[:1], inner[:0]):
        assert table.cosines(u).tobytes() == _cosine_formula(table, u).tobytes()


def _radial_table_coefficients(law, lmax, nodes=8, chunk=1 << 14):
    """Zonal coefficients of the law the radial table samples, by
    Gauss-Legendre quadrature of its cosine map over u in [0, 1).

    The map is linear on each interior cell [k/K, (k+1)/K); the two end
    cells interpolate the grid CDF against cos(grid) linearly, split here at
    its knots.  A zonal value of degree l is a polynomial of degree l in the
    cosine, so the rule is exact up to rounding for lmax < 2 * nodes."""
    table = law._sphere_table
    cells = table.CELLS
    knots = table._cdf

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
        total += zonal_values(lam, lmax, table.cosines(np.minimum(u, 1.0 - 2.0**-53))) @ weight
    return total


def _assert_sampled_law_bias(law):
    got = _radial_table_coefficients(law, 8)
    want = [law.coefficient(make_index(law.space, (ell,))).real for ell in range(9)]
    assert got[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(got - want)) <= 1e-6


@pytest.mark.parametrize("d,tau0", [(2, 0.5), (2, 0.045), (4, 0.35)])
def test_radial_table_sampler_bias(d, tau0):
    # the sampled law itself, without draws: its coefficients stay within
    # 1e-6 of exp(-kappa tau0); tau0 = 0.045 is the heat blur at tau = 0.3
    _assert_sampled_law_bias(HeatZonal(sphere(d), tau0=tau0))


@pytest.mark.parametrize("d,rho", [(2, 1.2), (3, 1.0), (4, 2.0)])
def test_radial_table_sampler_bias_caps(d, rho):
    # caps sample through the same table, on the support [0, rho]
    _assert_sampled_law_bias(UniformCap(sphere(d), rho=rho))


def test_sines_of_table_cosines_keep_their_digits_at_small_distances():
    # the walk takes sin d = sqrt(1 - c^2) from the table's cosines; at the
    # tau = 0.3 blur (tau0 = 0.045) the first knot is at d = 1.6e-3 and the
    # first grid node at 1.9e-4, where 1 - c^2 cancels most
    law = HeatZonal(sphere(2), tau0=0.045)
    table = law._sphere_table
    grid = np.linspace(*law.radial_support(), _TABLE_NODES)
    q = np.interp(np.arange(table.CELLS + 1) / table.CELLS, table._cdf, grid)
    assert table._knots.tobytes() == np.cos(q).tobytes()
    assert q[1] < 2e-3
    rel = _sines(table._knots[1:-1]) / np.sin(q[1:-1]) - 1.0
    assert np.max(np.abs(rel)) <= 1e-10
    for c, d in ((table._knots, q), (table._cos_grid, grid)):
        assert np.max(np.abs(_sines(c) - np.sin(d))) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_uniform_cap_distances_match_beta_cdf(d):
    rho = 1.2
    law = UniformCap(sphere(d), rho=rho)
    rng = np.random.default_rng(11)
    dist = law.sample_distances(20_000, rng)
    assert dist.min() >= 0.0 and dist.max() <= rho
    # the distance from the origin of a uniform point on S^d has
    # (1 - cos t) / 2 ~ Beta(d/2, d/2); the cap restricts it to [0, rho]
    a = d / 2.0
    ks = stats.kstest(dist, lambda t: special.betainc(a, a, (1 - np.cos(t)) / 2)
                      / special.betainc(a, a, (1 - math.cos(rho)) / 2))
    assert ks.pvalue > 1e-3


@pytest.mark.parametrize("law", [HeatZonal(sphere(2), tau0=0.35),
                                 UniformCap(sphere(3), rho=1.2)],
                         ids=["heat", "cap"])
def test_radial_density_keeps_input_shape(law):
    # a scalar distance gives a scalar value; an array keeps its shape
    assert np.ndim(law.radial_density(0.0)) == 0
    assert float(law.radial_density(0.0)) > 1.0
    theta = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    values = law.radial_density(theta)
    assert values.shape == (2, 3)
    np.testing.assert_array_equal(values.ravel(), law.radial_density(theta.ravel()))
    assert float(law.radial_density(0.5)) == law.radial_density(np.array([0.5]))[0]


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import decompound; "
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", script, src], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_heat_circle_displacements_match_density():
    law = HeatZonal(circle(), tau0=0.3)
    rng = np.random.default_rng(5)
    # displacements are steps in R^d, the covering space; wrap them onto [0, 2pi)
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


def test_parse_law_rejects_unknown_parameters():
    # a misspelt key must not fall back to a default silently
    with pytest.raises(ValueError, match="unknown parameters: 'mena'"):
        parse_law("wn:sigma=0.7,mena=1", circle())
    with pytest.raises(ValueError, match="'sigma'"):
        parse_law("heat:tau=0.3,sigma=1", circle())
    with pytest.raises(ValueError, match="'rho2'"):
        parse_law("cap:rho=0.9,rho2=1", sphere(2))
    with pytest.raises(ValueError):
        UniformCap(sphere(2), rho=4.0)  # rho must stay below pi


def test_parse_law_rejects_repeated_parameters():
    # a repeated key must not keep its last value silently
    with pytest.raises(ValueError, match="repeats parameter 'sigma'"):
        parse_law("wn:sigma=0.7,sigma=0.9", circle())
    with pytest.raises(ValueError, match="repeats parameter 'tau'"):
        parse_law("heat: tau=0.3, tau =0.3", sphere(2))


@pytest.mark.parametrize("space", [circle(), torus(3), sphere(2)], ids=str)
def test_from_table_keeps_a_sorted_table_as_handed_in(space):
    # a spectrum table is in (casimir, label) order already: the vector keeps
    # its arrays as they are, and pairs in any order sort to the same table
    labels, kappa, mult = _spectrum_table(space, 20.0)
    rng = np.random.default_rng(4)
    values = rng.standard_normal(len(kappa)) + 1j * rng.standard_normal(len(kappa))
    truncated = rng.random(len(kappa)) < 0.3
    vec = CoefficientVector._from_table(labels, kappa, mult, values, truncated)
    assert vec._labels is labels and vec._casimir is kappa and vec._values is values
    assert vec._truncated is truncated and vec._mult is mult
    indices = vec.indices()
    order = rng.permutation(len(indices))
    sorted_back = CoefficientVector([(indices[i], values[i]) for i in order],
                                    truncated=[indices[i] for i in order if truncated[i]])
    for name in ("_labels", "_casimir", "_mult", "_values", "_truncated"):
        assert getattr(sorted_back, name).tobytes() == getattr(vec, name).tobytes()
