"""Compact symmetric spaces: the circle, flat tori, and round spheres.

Each space carries a countable family of zonal spherical functions
``phi_pi`` indexed by lattice vectors (circle/torus) or degrees (spheres),
together with a Casimir eigenvalue ``kappa_pi`` and a multiplicity ``d_pi``.
This module enumerates that spectrum, sums and synthesizes the spherical
functions (per-axis character tables on circle/torus, one BLAS contraction,
blocks of points sized by a byte budget), moves points along geodesics, and
counts spectrum growth (Weyl laws).

Conventions: the torus is ``[0, 2*pi)^d`` with the unit flat metric; all
invariant measures are normalized to total mass 1; the origin is angle 0
(circle/torus) or the north pole ``e_{d+1}`` (spheres).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, roots_legendre

__all__ = [
    "SpaceKind",
    "Space",
    "SpectralIndex",
    "circle",
    "torus",
    "sphere",
    "parse_space",
    "spectrum",
    "spherical",
    "spherical_sums",
    "spherical_synthesis",
    "index_label",
    "conjugate_index",
    "geodesic_step",
    "distance_to_origin",
    "weyl_census",
    "zonal_values",
    "zonal_quadrature",
    "trapezoid_angles",
]

TWO_PI = 2.0 * math.pi
_CHUNK = 1 << 15  # most points per block of spherical-function tables
_BLOCK_BYTES = 1 << 26  # most working memory of one block's tables (64 MiB)


class SpaceKind(enum.Enum):
    CIRCLE = "circle"
    TORUS = "torus"
    SPHERE = "sphere"


@dataclass(frozen=True)
class Space:
    """A supported compact symmetric space.

    Attributes
    ----------
    kind : SpaceKind
        Family the space belongs to.
    dim : int
        Manifold dimension ``d``.
    rank : int
        Rank of the symmetric space (``d`` for tori, 1 otherwise).
    """

    kind: SpaceKind
    dim: int
    rank: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if self.kind is SpaceKind.CIRCLE and self.dim != 1:
            raise ValueError("the circle is one-dimensional")
        if self.kind is SpaceKind.SPHERE and self.dim < 2:
            raise ValueError("sphere requires dim >= 2 (use circle() for d = 1)")
        expected_rank = self.dim if self.kind is not SpaceKind.SPHERE else 1
        if self.rank != expected_rank:
            raise ValueError(f"rank must be {expected_rank} for {self.kind.value}")

    @property
    def ambient_dim(self) -> int:
        """Number of coordinates used to store a point."""
        return self.dim + 1 if self.kind is SpaceKind.SPHERE else self.dim

    @property
    def is_flat(self) -> bool:
        return self.kind is not SpaceKind.SPHERE

    def origin(self) -> np.ndarray:
        p = np.zeros(self.ambient_dim)
        if self.kind is SpaceKind.SPHERE:
            p[-1] = 1.0
        return p

    def spec_string(self) -> str:
        if self.kind is SpaceKind.CIRCLE:
            return "circle"
        return f"{self.kind.value}:{self.dim}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.spec_string()


def circle() -> Space:
    return Space(SpaceKind.CIRCLE, 1, 1)


def torus(d: int) -> Space:
    return Space(SpaceKind.TORUS, d, d)


def sphere(d: int) -> Space:
    return Space(SpaceKind.SPHERE, d, 1)


def parse_space(text: str) -> Space:
    """Parse a space spec string: ``circle``, ``torus:<d>``, ``sphere:<d>``."""
    body = text.strip().lower()
    if body == "circle":
        return circle()
    if ":" in body:
        name, _, arg = body.partition(":")
        try:
            d = int(arg)
        except ValueError as exc:
            raise ValueError(f"bad space dimension in {text!r}") from exc
        if name == "torus":
            return torus(d)
        if name == "sphere":
            return sphere(d)
    raise ValueError(f"unrecognized space spec {text!r}")


@dataclass(frozen=True)
class SpectralIndex:
    """One spherical representation: label, Casimir eigenvalue, multiplicity.

    Labels are integer tuples: ``(n1, ..., nd)`` for torus/circle lattice
    characters and ``(l,)`` for sphere degrees.
    """

    label: tuple[int, ...]
    casimir: float
    multiplicity: int

    @property
    def is_trivial(self) -> bool:
        return self.casimir == 0.0

    def label_string(self) -> str:
        return ";".join(str(k) for k in self.label)


def index_label(index) -> tuple[int, ...]:
    """The label tuple of a SpectralIndex or of a raw label sequence."""
    return index.label if isinstance(index, SpectralIndex) else tuple(index)


def _sphere_multiplicity(d: int, ell: int) -> int:
    if ell == 0:
        return 1
    high = math.comb(ell + d, ell)
    low = math.comb(ell + d - 2, ell - 2) if ell >= 2 else 0
    return high - low


def _sphere_index(d: int, ell: int) -> SpectralIndex:
    return SpectralIndex((ell,), float(ell * (ell + d - 1)), _sphere_multiplicity(d, ell))


def _lattice_index(label: tuple[int, ...]) -> SpectralIndex:
    return SpectralIndex(label, float(sum(k * k for k in label)), 1)


def make_index(space: Space, label: tuple[int, ...]) -> SpectralIndex:
    """Build the SpectralIndex for a raw label on the given space."""
    if space.kind is SpaceKind.SPHERE:
        (ell,) = label
        if ell < 0:
            raise ValueError("sphere degrees are nonnegative")
        return _sphere_index(space.dim, ell)
    if len(label) != space.dim:
        raise ValueError(f"label length {len(label)} != dim {space.dim}")
    return _lattice_index(tuple(int(k) for k in label))


def spectrum(space: Space, casimir_max: float) -> list[SpectralIndex]:
    """All spectral indices with Casimir eigenvalue <= casimir_max.

    Returns indices sorted by (casimir, label lexicographic); the trivial
    index is always first.
    """
    if casimir_max < 0:
        raise ValueError("casimir_max must be >= 0")
    n_max = math.isqrt(int(casimir_max))  # bounds every |n_a| and every degree
    if space.kind is SpaceKind.SPHERE:
        d = space.dim
        return [_sphere_index(d, ell) for ell in range(n_max + 1)
                if ell * (ell + d - 1) <= casimir_max]
    labels = np.indices((2 * n_max + 1,) * space.dim).reshape(space.dim, -1).T - n_max
    kappa = (labels * labels).sum(axis=1)
    keep = kappa <= casimir_max
    labels, kappa = labels[keep], kappa[keep]
    order = np.lexsort((*labels.T[::-1], kappa))
    return [SpectralIndex(tuple(label), float(k), 1)
            for label, k in zip(labels[order].tolist(), kappa[order].tolist())]


def conjugate_index(space: Space, index: SpectralIndex) -> SpectralIndex:
    """Index of the conjugate character: negated lattice label on flat spaces,
    the index itself on spheres (zonal spherical functions there are real)."""
    if space.kind is SpaceKind.SPHERE:
        return index
    return _lattice_index(tuple(-k for k in index.label))


# ---------------------------------------------------------------------------
# spherical function evaluation


def _as_points(space: Space, point: np.ndarray) -> tuple[np.ndarray, bool]:
    arr = np.asarray(point, dtype=float)
    single = arr.ndim == 1
    pts = arr[None, :] if single else arr
    if pts.ndim != 2 or pts.shape[1] != space.ambient_dim:
        raise ValueError(
            f"expected points with {space.ambient_dim} coordinates, got shape {arr.shape}"
        )
    return pts, single


def zonal_values(lam: float, degrees: int, x: np.ndarray) -> np.ndarray:
    """Normalized Gegenbauer values C_l^lam(x)/C_l^lam(1) for l = 0..degrees.

    Three-term recurrence on the normalized functions; rows are degrees.
    Exactly 1 in every degree at x = 1 (the normalization is built into the
    recurrence, which reduces to the Legendre recurrence at lam = 1/2, and
    the rounding it accumulates at x = 1 is overwritten).
    """
    x = np.asarray(x, dtype=float).ravel()
    vals = np.empty((degrees + 1, x.size))
    vals[0] = 1.0
    if degrees >= 1:
        vals[1] = x
    for ell in range(2, degrees + 1):
        a = 2.0 * (ell + lam - 1.0) / (ell + 2.0 * lam - 1.0)
        b = (ell - 1.0) / (ell + 2.0 * lam - 1.0)
        vals[ell] = a * x * vals[ell - 1] - b * vals[ell - 2]
    vals[:, x == 1.0] = 1.0
    return vals


def _characters(theta: np.ndarray, values: np.ndarray) -> np.ndarray:
    """exp(i n theta) for each n of values (rows; repeats allowed).  A walk
    up the magnitudes |n| the values use multiplies by exp(i step theta),
    with one exp per distinct step; negative n are conjugates."""
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


def _plan(space: Space, indices):
    """(rows, cols, shape, values, block): phi_pi = P[rows] * E[cols] for the
    tables P and E of ``_factors`` at ``values``, of shape[0] and shape[1]
    rows.  Circle/torus: P has a row per distinct label prefix (all but the
    last component) and E a row per distinct last component, so a sparse
    set of indices builds few rows.  Spheres: P is a row of ones and E the
    zonal table to the top degree.  block is the most points whose tables,
    with the fixed shape-sized arrays, fit the byte budget."""
    labels = np.array([index_label(ix) for ix in indices], dtype=int).reshape(-1, space.rank)
    if space.kind is SpaceKind.SPHERE:
        top = int(labels.max()) if labels.size else 0
        rows, cols, shape, values = np.zeros(len(labels), dtype=int), labels[:, 0], (1, top + 1), top
        walk = 0
    else:
        pre, rows = np.unique(labels[:, :-1], axis=0, return_inverse=True)
        last, cols = np.unique(labels[:, -1], return_inverse=True)
        shape, values = (len(pre), len(last)), (pre, last)
        walk = max(len(np.unique(np.abs(col))) for col in labels.T) if labels.size else 0
    # per point: P, E and the synthesis products, one axis table and its walk
    row_bytes = 16 * (shape[0] + 3 * shape[1] + 3 * walk + 4)
    fixed = 3 * 16 * shape[0] * shape[1]  # the sums, one block's sums, the weights
    block = max(1, min(_CHUNK, (_BLOCK_BYTES - fixed) // row_bytes))
    return rows.ravel(), cols.ravel(), shape, values, block


def _factors(space: Space, values, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P and E of ``_plan`` at a block of points (columns)."""
    if space.kind is SpaceKind.SPHERE:
        lam = (space.dim - 1.0) / 2.0
        return np.ones((1, len(pts))), zonal_values(lam, values, np.clip(pts[:, -1], -1.0, 1.0))
    pre, last = values
    p = np.ones((len(pre), len(pts)), dtype=complex)
    for a, col in enumerate(pre.T):
        vals, at = np.unique(col, return_inverse=True)
        table = _characters(pts[:, a], vals)
        for row, i in zip(p, at):
            row *= table[i]
    return p, _characters(pts[:, -1], last)


def spherical_sums(space: Space, indices, pts: np.ndarray) -> np.ndarray:
    """sum over the points of phi_pi, per index: P @ E.T per block of points."""
    rows, cols, shape, values, block = _plan(space, indices)
    sums = np.zeros(shape, dtype=float if space.kind is SpaceKind.SPHERE else complex)
    for lo in range(0, len(pts), block):
        sums += np.inner(*_factors(space, values, pts[lo:lo + block]))
    return sums[rows, cols]


def spherical_synthesis(space: Space, indices, weights, pts: np.ndarray) -> np.ndarray:
    """sum over the indices of weight * phi_pi at each point (complex): the
    weights fill W, and a block of points is ((W.T @ P) * E) summed."""
    rows, cols, shape, values, block = _plan(space, indices)
    box = np.zeros(shape, dtype=np.result_type(np.asarray(weights), float))
    np.add.at(box, (rows, cols), weights)
    out = np.empty(len(pts), dtype=complex)
    for lo in range(0, len(pts), block):
        p, e = _factors(space, values, pts[lo:lo + block])
        out[lo:lo + block] = ((box.T @ p) * e).sum(axis=0)
        del p, e  # the next block's tables are built without these
    return out


def spherical(space: Space, index: SpectralIndex, point: np.ndarray) -> complex | np.ndarray:
    """Evaluate the zonal spherical function phi_pi at a point (or batch).

    Circle/torus: ``exp(i n . theta)``.  Sphere(d): the degree-l Gegenbauer
    polynomial with parameter (d-1)/2 in cos(distance to origin), normalized
    to 1 at the origin (Legendre polynomials for d = 2).
    """
    pts, single = _as_points(space, point)
    out = spherical_synthesis(space, [index], [1.0], pts)
    return out[0] if single else out


# ---------------------------------------------------------------------------
# geodesics and distances


def _wrap_angles(theta: np.ndarray) -> np.ndarray:
    return np.mod(theta, TWO_PI)


def _signed_angles(theta: np.ndarray) -> np.ndarray:
    """Reduce angles to [-pi, pi)."""
    return np.mod(theta + math.pi, TWO_PI) - math.pi

def geodesic_step(
    space: Space,
    from_point: np.ndarray,
    distance: float | np.ndarray,
    direction: np.ndarray,
) -> np.ndarray:
    """Move along the geodesic with the given unit tangent direction.

    Sphere: ``cos(s) p + sin(s) v`` renormalized; the direction must be a
    unit vector orthogonal to the base point (checked to 1e-9).  Flat
    spaces: add ``s * v`` and reduce mod 2*pi.
    """
    pts, single = _as_points(space, from_point)
    dirs, _ = _as_points(space, direction)
    if dirs.shape[0] == 1 and pts.shape[0] > 1:
        dirs = np.broadcast_to(dirs, pts.shape)
    dist = np.asarray(distance, dtype=float).reshape(-1, 1)
    if np.any(dist < 0):
        raise ValueError("distance must be >= 0")
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise ValueError("direction must be a unit vector")
    if space.kind is SpaceKind.SPHERE:
        inner = np.einsum("ij,ij->i", pts, dirs)
        if np.any(np.abs(inner) > 1e-9):
            raise ValueError("direction must be orthogonal to the base point")
        moved = np.cos(dist) * pts + np.sin(dist) * dirs
        moved /= np.linalg.norm(moved, axis=1, keepdims=True)
    else:
        moved = _wrap_angles(pts + dist * dirs)
    return moved[0] if single else moved


def distance_to_origin(space: Space, point: np.ndarray) -> float | np.ndarray:
    """Geodesic distance to the origin (north pole / zero angle)."""
    pts, single = _as_points(space, point)
    if space.kind is SpaceKind.SPHERE:
        out = np.arccos(np.clip(pts[:, -1], -1.0, 1.0))
    else:
        out = np.linalg.norm(_signed_angles(pts), axis=1)
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# Weyl counting


def weyl_census(space: Space, thresholds) -> list[tuple[int, int]]:
    """(count of spherical indices, multiplicity-weighted count) per threshold.

    The weighted count grows like T^{d/2}, the spherical count like T^{r/2}.
    """
    ts = [float(t) for t in thresholds]
    if any(t < 0 for t in ts):
        raise ValueError("thresholds must be >= 0")
    top = max(ts) if ts else 0.0
    indices = spectrum(space, top)  # sorted by Casimir
    kappas = np.array([ix.casimir for ix in indices])
    cum_mult = np.concatenate([[0], np.cumsum([ix.multiplicity for ix in indices])])
    out = []
    for t in ts:
        k = int(np.searchsorted(kappas, t, side="right"))
        out.append((k, int(cum_mult[k])))
    return out


# ---------------------------------------------------------------------------
# quadrature helpers (shared by the coefficient oracle and the tests)


def _zonal_weight_log_norm(d: int) -> float:
    # integral of sin^{d-1} over [0, pi]
    return 0.5 * math.log(math.pi) + gammaln(d / 2.0) - gammaln((d + 1) / 2.0)


def zonal_quadrature(space: Space, nodes: int, support: tuple[float, float] | None = None):
    """Gauss-Legendre nodes/weights for zonal integrals on a sphere.

    Returns (theta, w) with ``sum w * g(theta)`` approximating the integral
    of ``g`` against the normalized zonal weight sin^{d-1}(theta) d theta
    over ``support`` (default [0, pi]).
    """
    if space.kind is not SpaceKind.SPHERE:
        raise ValueError("zonal_quadrature is for spheres")
    lo, hi = support if support is not None else (0.0, math.pi)
    xs, ws = roots_legendre(nodes)
    theta = 0.5 * (hi - lo) * (xs + 1.0) + lo
    w = 0.5 * (hi - lo) * ws
    d = space.dim
    w = w * np.exp((d - 1) * np.log(np.sin(theta)) - _zonal_weight_log_norm(d))
    return theta, w


def trapezoid_angles(nodes: int) -> np.ndarray:
    """Equispaced angles on [0, 2*pi); with weight 1/nodes this is the
    trapezoidal rule for the normalized circle measure."""
    return np.arange(nodes) * (TWO_PI / nodes)
