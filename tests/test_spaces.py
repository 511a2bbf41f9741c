"""Geometry and spectral bookkeeping for the three supported space families."""

import math
from itertools import product

import numpy as np
import pytest

from decompound import (
    circle,
    conjugate_index,
    distance_to_origin,
    geodesic_step,
    make_index,
    parse_space,
    spectrum,
    sphere,
    spherical,
    torus,
    trapezoid_angles,
    weyl_census,
    zonal_quadrature,
    zonal_values,
)
from decompound.spaces import _wrap_angles

TWO_PI = 2.0 * math.pi


def test_constructors_and_dimensions():
    c = circle()
    assert (c.dim, c.rank, c.ambient_dim) == (1, 1, 1)
    t = torus(3)
    assert (t.dim, t.rank, t.ambient_dim) == (3, 3, 3)
    s = sphere(2)
    assert (s.dim, s.rank, s.ambient_dim) == (2, 1, 3)
    assert s.origin().tolist() == [0.0, 0.0, 1.0]
    assert c.is_flat and t.is_flat and not s.is_flat


def test_invalid_spaces_rejected():
    with pytest.raises(ValueError):
        sphere(1)  # one-dimensional sphere is spelled circle()
    with pytest.raises(ValueError):
        torus(0)


def test_parse_space_round_trip():
    for text in ("circle", "torus:2", "sphere:3"):
        assert parse_space(text).spec_string() == text
    assert parse_space(" SPHERE:2 ") == sphere(2)
    # the circle is the 1-torus, spelled circle
    assert parse_space("torus:1") == circle()
    assert parse_space("torus:1").spec_string() == "circle"
    with pytest.raises(ValueError):
        parse_space("klein:2")
    with pytest.raises(ValueError):
        parse_space("torus:x")


def test_circle_spectrum_inclusive_cutoff():
    # n^2 <= 25 keeps n = 0, +-1, ..., +-5: the boundary level is included.
    idx = spectrum(circle(), 25.0)
    assert len(idx) == 11
    assert idx[0].label == (0,) and idx[0].casimir == 0.0
    assert all(i.multiplicity == 1 for i in idx)
    # sorted by (casimir, label)
    cas = [i.casimir for i in idx]
    assert cas == sorted(cas)


def test_torus_spectrum_order():
    labels = [i.label for i in spectrum(torus(2), 2.0)]
    assert labels == [
        (0, 0),
        (-1, 0),
        (0, -1),
        (0, 1),
        (1, 0),
        (-1, -1),
        (-1, 1),
        (1, -1),
        (1, 1),
    ]


@pytest.mark.parametrize("space", [circle(), torus(2), torus(3)], ids=str)
def test_lattice_spectrum_matches_cartesian_reference(space):
    # the loop the vectorized enumeration replaced: same list, same order,
    # labels as Python int tuples and Casimirs as floats
    for cutoff in (0.0, 0.5, 1.0, 2.0, 8.0, 26.8, 100.0):
        n = math.isqrt(int(cutoff))
        want = sorted(((float(sum(k * k for k in label)), label)
                       for label in product(range(-n, n + 1), repeat=space.dim)
                       if sum(k * k for k in label) <= cutoff))
        got = spectrum(space, cutoff)
        assert [(ix.casimir, ix.label) for ix in got] == want
        assert all(type(k) is int for ix in got for k in ix.label)
        assert all(type(ix.casimir) is float and ix.multiplicity == 1 for ix in got)


def test_sphere_spectrum_casimir_and_multiplicity():
    idx = spectrum(sphere(2), 6.0)
    assert [i.label for i in idx] == [(0,), (1,), (2,)]
    assert [i.casimir for i in idx] == [0.0, 2.0, 6.0]  # l(l + d - 1)
    assert [i.multiplicity for i in idx] == [1, 3, 5]
    idx3 = spectrum(sphere(3), 8.0)
    assert [i.multiplicity for i in idx3] == [1, 4, 9]  # (l+1)^2 on S^3


def test_make_index_validates_labels():
    # every kind checks the label length against the rank, naming the space
    for space, label in ((circle(), (1, 2)), (torus(2), (1,)), (sphere(2), (1, 2)),
                         (sphere(3), ())):
        with pytest.raises(ValueError, match=f"{space.spec_string()} labels have length"):
            make_index(space, label)
    with pytest.raises(ValueError):
        make_index(sphere(2), (-1,))  # sphere degrees are nonnegative
    i = make_index(torus(2), (1, -2))
    assert i.casimir == 5.0 and i.multiplicity == 1


def test_conjugate_index():
    t = torus(2)
    assert conjugate_index(t, make_index(t, (1, -2))).label == (-1, 2)
    s = sphere(2)
    i = make_index(s, (4,))
    assert conjugate_index(s, i) == i  # real spherical functions are self-paired


def test_conjugate_index_keeps_casimir_and_multiplicity():
    # -n has the Casimir eigenvalue and multiplicity of n: a SpectralIndex's
    # are carried over, not recomputed; a raw label's are computed
    for space in (circle(), torus(2), torus(3)):
        for ix in spectrum(space, 20.0):
            conj = conjugate_index(space, ix)
            assert conj == make_index(space, tuple(-k for k in ix.label))
            assert conj.casimir is ix.casimir
            assert conjugate_index(space, ix.label) == conj


def test_wrap_angles_matches_np_mod_bit_for_bit():
    # np.fmod plus 2 pi on the negatives rounds as np.mod: -0.0 becomes +0.0,
    # exact multiples of 2 pi become +0.0, and a negative within half an ulp
    # of 2 pi below 0 lands on 2 pi itself
    tiny = [-5e-324, -1e-300, -1e-17, -2.0**-60, 5e-324, 1e-17]
    edges = [0.0, -0.0, TWO_PI, -TWO_PI, 2 * TWO_PI, -3 * TWO_PI, 1e6 * TWO_PI,
             np.nextafter(TWO_PI, 0.0), np.nextafter(TWO_PI, 7.0), math.pi, -math.pi]
    x = np.array(tiny + edges + [1e6, -1e6, 1e6 + 0.5, -1e6 - 0.5])
    rng = np.random.default_rng(8)
    for block in (x[:, None], rng.normal(0.0, 40.0, (4096, 3)), np.concatenate([x, -x])):
        want = np.mod(block, TWO_PI)
        got = block.copy()
        assert _wrap_angles(got) is got  # in place
        assert got.tobytes() == want.tobytes()
    got = _wrap_angles(x.copy())
    assert got[:4].tolist() == [TWO_PI] * 4  # tiny negatives land on 2 pi
    assert math.copysign(1.0, got[len(tiny) + 1]) == 1.0  # -0.0 -> +0.0


def test_spherical_flat_is_complex_exponential():
    c = circle()
    val = spherical(c, make_index(c, (1,)), np.array([math.pi / 2]))
    assert val == pytest.approx(1j, abs=1e-12)
    t = torus(2)
    got = spherical(t, make_index(t, (1, -2)), np.array([0.3, 0.5]))
    assert got == pytest.approx(np.exp(1j * (0.3 - 1.0)), abs=1e-12)


def test_spherical_sphere_is_normalized_gegenbauer():
    s = sphere(2)
    pt = geodesic_step(s, s.origin(), 1.1, np.array([1.0, 0.0, 0.0]))
    got = spherical(s, make_index(s, (2,)), pt)
    # Legendre P_2(cos 1.1) for the 2-sphere
    assert got == pytest.approx(0.5 * (3 * math.cos(1.1) ** 2 - 1), abs=1e-12)
    assert spherical(s, make_index(s, (5,)), s.origin()) == pytest.approx(1.0)


def test_zonal_values_match_classical_polynomials():
    x = np.array([0.3])
    # lam = 1/2 gives Legendre, lam = 1 gives Chebyshev-U scaled to 1 at x=1
    legendre = zonal_values(0.5, 3, x)
    assert legendre[2][0] == pytest.approx((3 * 0.09 - 1) / 2)
    assert legendre[3][0] == pytest.approx(0.5 * (5 * 0.3**3 - 3 * 0.3))
    cheb = zonal_values(1.0, 2, x)
    assert cheb[2][0] == pytest.approx((4 * 0.09 - 1) / 3)


def test_zonal_values_at_lam_zero_are_cos_n_theta_within_the_recurrence_error():
    # Re phi_n on the circle is T_n(cos theta), the lam = 0 recurrence
    # T_n = 2x T_(n-1) - T_(n-2).  With u = 2^-53: cos theta is off by at most
    # 2u and |T_n'| <= n^2, so 2 n^2 u; each step rounds a product and a
    # difference, at most 3u, and the error made at step l grows by U_(n-l),
    # |U_j| <= j + 1, so 3u n(n - 1)/2; the reference cos(n * theta) rounds
    # n * theta < 2 pi n and the cosine, 2 pi n u + 2u.  Rounded up, the bound
    # is (4 n^2 + 7 n + 2) u.
    u = 2.0**-53
    top = 128
    rng = np.random.default_rng(61)
    theta = np.concatenate([rng.uniform(0.0, 2.0 * math.pi, 200_000),
                            [0.0, 1e-9, 1e-5, math.pi / 2, math.pi, 2.0 * math.pi - 1e-9]])
    vals = zonal_values(0.0, top, np.cos(theta))
    n = np.arange(top + 1)
    err = np.max(np.abs(vals - np.cos(n[:, None] * theta)), axis=1)
    assert np.all(err <= (4.0 * n**2 + 7.0 * n + 2.0) * u)
    assert err[64] > 0.0  # the check sees rounding at all


def test_zonal_values_bounded_by_one():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.0, 1.0, size=200)
    for lam in (0.5, 1.0, 1.5):
        vals = zonal_values(lam, 12, x)
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)
    # exactly 1 at the origin in every degree; the recurrence alone drifts
    # there by rounding (from degree 3 at lam = 1.5, to 7e-14 by degree 300)
    for lam in (0.0, 0.5, 1.0, 1.5, 2.0):
        assert np.all(zonal_values(lam, 300, [1.0]) == 1.0)


def test_zonal_quadrature_orthogonality():
    s = sphere(2)
    nodes, weights = zonal_quadrature(s, 64)
    vals = zonal_values(0.5, 6, np.cos(nodes))
    assert float(np.sum(weights)) == pytest.approx(1.0, abs=1e-12)
    # normalized surface measure: <phi_l, phi_k> = delta_{lk} / multiplicity
    for ell in range(1, 7):
        assert float(np.sum(weights * vals[ell] ** 2)) == pytest.approx(
            1.0 / (2 * ell + 1), abs=1e-12
        )
        assert float(np.sum(weights * vals[ell] * vals[ell - 1])) == pytest.approx(
            0.0, abs=1e-12
        )


def test_trapezoid_angles_equispaced():
    th = trapezoid_angles(8)
    assert th.shape == (8,)
    assert np.allclose(np.diff(th), TWO_PI / 8)
    assert th[0] == 0.0


def test_geodesic_step_wraps_flat():
    got = geodesic_step(circle(), np.array([6.0]), 0.8, np.array([1.0]))
    assert float(got[0]) == pytest.approx(6.8 % TWO_PI)


def test_geodesic_step_sphere_preserves_norm():
    s = sphere(3)
    rng = np.random.default_rng(3)
    p = s.origin()
    for _ in range(50):
        v = rng.normal(size=4)
        v -= (v @ p) * p
        v /= np.linalg.norm(v)
        p = geodesic_step(s, p, rng.uniform(0, math.pi), v)
        assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-12)


def test_geodesic_step_moves_stated_distance():
    s = sphere(2)
    p = geodesic_step(s, s.origin(), 0.7, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(p, [math.sin(0.7), 0.0, math.cos(0.7)], atol=1e-14)
    assert float(distance_to_origin(s, p[None, :])[0]) == pytest.approx(0.7)


def test_distance_to_origin_circle_takes_short_arc():
    d = distance_to_origin(circle(), np.array([[5.0]]))
    assert float(d[0]) == pytest.approx(TWO_PI - 5.0)


def test_weyl_census_small_counts():
    # casimir thresholds are inclusive and counts follow the standard spectra
    assert weyl_census(circle(), [100.0]) == [(21, 21)]
    assert weyl_census(sphere(2), [100.0]) == [(10, 100)]  # l(l+1) <= 100: l = 0..9
    assert weyl_census(sphere(3), [100.0]) == [(10, 385)]  # sum (l+1)^2, l = 0..9
    assert weyl_census(torus(2), [100.0]) == [(317, 317)]  # lattice points in a disk


def test_weyl_census_counts_the_spectrum():
    # tori of rank >= 2 count lattice shells, rank-one spaces list their
    # indices; either way the counts are those of the listed spectrum
    ts = [0.5, 1.0, 2.0, 3.5, 10.0, 99.9, 100.0, 500.0, 2500.0]
    for sp in (circle(), torus(2), torus(3), sphere(2), sphere(3)):
        indices = spectrum(sp, ts[-1])
        assert weyl_census(sp, ts) == [
            (len(kept), sum(ix.multiplicity for ix in kept))
            for kept in ([ix for ix in indices if ix.casimir <= t] for t in ts)]
    # 633^8 lattice labels in the box of torus:8 at 1e5 exceed int64: loud, not wrapped
    with pytest.raises(ValueError, match="torus:8 to 100000 could overflow int64"):
        weyl_census(torus(8), [1e5])


def test_weyl_census_monotone_in_threshold():
    for sp in (circle(), torus(2), sphere(2)):
        counts = weyl_census(sp, [10.0, 100.0, 1000.0])
        sph = [c[0] for c in counts]
        wtd = [c[1] for c in counts]
        assert sph == sorted(sph) and wtd == sorted(wtd)
        assert all(w >= s for s, w in counts)
