"""Compact symmetric spaces: the circle, flat tori, and round spheres.

Each space carries a countable family of zonal spherical functions
``phi_pi`` indexed by lattice vectors (circle/torus) or degrees (spheres),
together with a Casimir eigenvalue ``kappa_pi`` and a multiplicity ``d_pi``.
This module enumerates that spectrum (one table of label, Casimir and
multiplicity arrays), sums and synthesizes the spherical functions
(per-axis character tables on circle/torus, zonal recurrences on spheres
and for the circle's real parts, each table row written once, one BLAS
contraction, blocks of points sized by a byte budget), moves points along
geodesics, and counts spectrum growth (Weyl laws).

Conventions: the torus is ``[0, 2*pi)^d`` with the unit flat metric; all
invariant measures are normalized to total mass 1; the origin is angle 0
(circle/torus) or the north pole ``e_{d+1}`` (spheres).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

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
    "conjugate_index",
    "make_index",
    "geodesic_step",
    "distance_to_origin",
    "weyl_census",
    "zonal_values",
    "zonal_quadrature",
    "trapezoid_angles",
]

TWO_PI = 2.0 * math.pi
_CHUNK = 1 << 15  # most points per block of spherical-function tables
# Most working memory of one block's tables (8 MiB).  Peak memory follows
# it: a flat-density pass (torus:2 and torus:3 at m = 1e5, one BLAS thread,
# 2-CPU Xeon) reached ru_maxrss 89, 71, 60 and 54 MB at 64, 16, 8 and 4 MiB;
# its time did not move beyond the noise.  With 4 MiB or less each pass
# spends 4-8 ms of system time in the allocator; a table above glibc's
# 32 MiB mmap threshold would be mapped and zeroed afresh for every block.
_BLOCK_BYTES = 1 << 23


class SpaceKind(enum.Enum):
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
    """

    kind: SpaceKind
    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if self.kind is SpaceKind.SPHERE and self.dim < 2:
            raise ValueError("sphere requires dim >= 2 (use circle() for d = 1)")

    @property
    def rank(self) -> int:
        """Rank of the symmetric space: ``d`` for tori, 1 otherwise."""
        return 1 if self.kind is SpaceKind.SPHERE else self.dim

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
        if self.is_flat and self.dim == 1:
            return "circle"
        return f"{self.kind.value}:{self.dim}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.spec_string()


def circle() -> Space:
    """The circle, the 1-torus."""
    return Space(SpaceKind.TORUS, 1)


def torus(d: int) -> Space:
    return Space(SpaceKind.TORUS, d)


def sphere(d: int) -> Space:
    return Space(SpaceKind.SPHERE, d)


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


def make_index(space: Space, label: tuple[int, ...]) -> SpectralIndex:
    """Build the SpectralIndex for a raw label on the given space."""
    if len(label) != space.rank:
        raise ValueError(f"index label {tuple(label)} has length {len(label)}; "
                         f"{space.spec_string()} labels have length {space.rank}")
    if space.kind is SpaceKind.SPHERE:
        (ell,) = label
        if ell < 0:
            raise ValueError("sphere degrees are nonnegative")
        return SpectralIndex((ell,), float(ell * (ell + space.dim - 1)),
                             _sphere_multiplicity(space.dim, ell))
    label = tuple(int(k) for k in label)
    return SpectralIndex(label, float(sum(k * k for k in label)), 1)


def _spectrum_table(space: Space, casimir_max: float):
    """(labels (N, rank) int, casimir (N,) float, multiplicity (N,) int) of
    every index with Casimir eigenvalue <= casimir_max, sorted by (casimir,
    label lexicographic): the one enumeration of the spectrum.  np.indices
    lists lattice labels lexicographically, so one stable sort by Casimir
    gives that order."""
    if not 0.0 <= casimir_max < math.inf:
        raise ValueError("casimir_max must be finite and >= 0")
    n_max = math.isqrt(int(casimir_max))  # bounds every |n_a| and every degree
    if space.kind is SpaceKind.SPHERE:
        d = space.dim
        ell = np.arange(n_max + 1)
        ell = ell[ell * (ell + d - 1) <= casimir_max]
        mult = [_sphere_multiplicity(d, k) for k in ell.tolist()]
        return ell[:, None], (ell * (ell + d - 1)).astype(float), np.array(mult, dtype=np.int64)
    labels = np.indices((2 * n_max + 1,) * space.dim).reshape(space.dim, -1).T - n_max
    kappa = (labels * labels).sum(axis=1)
    keep = kappa <= casimir_max
    labels, kappa = labels[keep], kappa[keep]
    order = np.argsort(kappa, kind="stable")
    return labels[order], kappa[order].astype(float), np.ones(len(order), dtype=np.int64)


def spectrum(space: Space, casimir_max: float) -> list[SpectralIndex]:
    """All spectral indices with Casimir eigenvalue <= casimir_max.

    Returns indices sorted by (casimir, label lexicographic); the trivial
    index is always first.
    """
    labels, kappa, mult = _spectrum_table(space, casimir_max)
    return [SpectralIndex(tuple(label), k, d)
            for label, k, d in zip(labels.tolist(), kappa.tolist(), mult.tolist())]


def conjugate_index(space: Space, index):
    """Index of the conjugate character: negated lattice label on flat spaces,
    the index itself on spheres (zonal spherical functions there are real).
    Takes a SpectralIndex (kept: its Casimir and multiplicity) or a raw label."""
    if space.kind is SpaceKind.SPHERE:
        return index
    if isinstance(index, SpectralIndex):
        return SpectralIndex(tuple(-k for k in index.label), index.casimir, index.multiplicity)
    return make_index(space, tuple(-k for k in index))


def pair_label(space: Space, index) -> tuple[int, ...]:
    """The one label of a +- pair (phi_-n = conj phi_n): the larger label of
    n and -n; a sphere degree is its own pair."""
    label = index_label(index)
    return label if space.kind is SpaceKind.SPHERE else max(label, tuple(-k for k in label))


def _label_array(space: Space, indices) -> np.ndarray:
    """The (N, rank) int labels of SpectralIndex objects or raw labels; an
    array of labels is taken as it is."""
    if isinstance(indices, np.ndarray):
        return indices.reshape(-1, space.rank)
    return np.array([index_label(ix) for ix in indices], dtype=int).reshape(-1, space.rank)


def _first_rows(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, at): the first row of each distinct label of a label array, in
    label order, and each row's place among them -- np.unique(labels, axis=0,
    return_index=True, return_inverse=True), from one stable lexsort, which
    takes a fifth of np.unique's time on spectrum tables."""
    order = np.lexsort(labels.T[::-1])
    ordered = labels[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    at = np.empty(len(order), dtype=np.intp)
    at[order] = np.cumsum(new) - 1
    return order[new], at


def _pair_labels(space: Space, labels: np.ndarray) -> np.ndarray:
    """``pair_label`` of each row of a label array: on flat spaces the row,
    negated where its first nonzero component is negative."""
    if space.kind is SpaceKind.SPHERE:
        return labels
    first = labels[np.arange(len(labels)), (labels != 0).argmax(axis=1)]
    return np.where((first < 0)[:, None], -labels, labels)


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

    Three-term recurrence on the normalized functions; rows are degrees,
    each computed in place with one scratch row.  Exactly 1 in every degree
    at x = 1 (the normalization is built into the recurrence, which reduces
    to the Legendre recurrence at lam = 1/2 and to T_l = 2x T_(l-1) - T_(l-2)
    at lam = 0, and the rounding it accumulates at x = 1 is overwritten).
    """
    x = np.asarray(x, dtype=float).ravel()
    vals = np.empty((degrees + 1, x.size))
    vals[0] = 1.0
    if degrees >= 1:
        vals[1] = x
    scratch = np.empty(x.size) if degrees >= 2 else None
    if scratch is not None and lam == 0.0:
        np.add(x, x, out=scratch)  # a x = 2x, and b = 1, exactly
    for ell in range(2, degrees + 1):
        row = vals[ell]
        if lam == 0.0:
            np.multiply(scratch, vals[ell - 1], out=row)
            row -= vals[ell - 2]
            continue
        a = 2.0 * (ell + lam - 1.0) / (ell + 2.0 * lam - 1.0)
        b = (ell - 1.0) / (ell + 2.0 * lam - 1.0)
        np.multiply(x, a, out=row)
        row *= vals[ell - 1]
        np.multiply(vals[ell - 2], b, out=scratch)
        row -= scratch
    ones = x == 1.0
    if ones.any():
        vals[:, ones] = 1.0
    return vals


def _characters(theta: np.ndarray, values, out=None) -> np.ndarray:
    """exp(i n theta) for each n of values (rows; repeats allowed), into out if
    given.  A walk up the magnitudes |n| the values use writes each row once:
    the first row of a magnitude is the last magnitude's times exp(i step
    theta), with one exp per distinct step, and its repeats and its -n rows
    are copies and conjugates of it.  A magnitude with only -n rows walks in
    one of them, conjugated once the walk is done."""
    values = np.asarray(values, dtype=int).ravel()
    out = np.empty((len(values), theta.size), dtype=complex) if out is None else out
    # cur is the row of exp(i prev theta), the walk's last, and lead its value
    prev, cur, lead, steps, flip = 0, None, 0, {}, []
    signed = values.tolist()
    for i in np.lexsort((-values, np.abs(values))).tolist():  # by |n|, +n rows first
        v, row = signed[i], out[i]
        n = abs(v)
        if n == 0:
            row.fill(1.0)
            continue
        if n != prev:  # the walk's next magnitude, in this row
            if n - prev not in steps:
                steps[n - prev] = np.exp(1j * (n - prev) * theta)
            if cur is None:
                row[...] = steps[n - prev]
            else:
                np.multiply(cur, steps[n - prev], out=row)
            prev, cur, lead = n, row, v
        elif v == lead:
            row[...] = cur
        else:
            np.conjugate(cur, out=row)
        if v < 0 and v == lead:
            flip.append(row)
    for row in flip:
        np.conjugate(row, out=row)
    return out


def _plan(space: Space, indices, real: bool = False):
    """(rows, cols, shape, values, block): phi_pi = P[rows] * E[cols] for the
    tables P and E of ``_factors`` at ``values``, of shape[0] and shape[1]
    rows.  Circle/torus: P has a row per distinct label prefix (all but the
    last component) and E a row per distinct last component, so a sparse
    set of indices builds few rows.  Spheres, and the circle if real (Re phi_n =
    T_n(cos theta), DLMF 18.7.25): P is ones, E the zonal table to degree values.
    block is the most points whose tables, with the fixed arrays, fit the budget."""
    labels = _label_array(space, indices)
    if space.rank == 1 and (real or space.kind is SpaceKind.SPHERE):
        cols = np.abs(labels[:, 0])  # Re phi is the same at n and -n
        values = int(cols.max()) if cols.size else 0
        rows, shape, walk, spill = np.zeros(len(labels), dtype=int), (1, values + 1), 0, 0
        p_row_bytes = 0
    else:
        pre, rows = np.unique(labels[:, :-1], axis=0, return_inverse=True)
        last, cols = np.unique(labels[:, -1], return_inverse=True)
        axes, p_row_bytes = None, 8 * pre.shape[1]  # each row of P keeps its prefix
        if pre.shape[1] >= 2:  # rank >= 3: P's rows are products of prefix axis tables
            axes = [np.unique(col, return_inverse=True) for col in pre.T]
            axes = ([vals for vals, _ in axes], list(zip(*(at.tolist() for _, at in axes))))
            p_row_bytes += 48 + 8 * pre.shape[1]  # and a Python tuple of axis positions
        shape, values = (len(pre), len(last)), (pre, last, axes)
        walk = max(len(np.unique(np.abs(col))) for col in labels.T) if labels.size else 0
        spill = _spill_rows(values)
    # per point: P, E and the synthesis products; the prefix axis tables that E's
    # buffer cannot hold; and the walk's exp rows, one per distinct step.  The
    # reserve is at least the 3 walk rows it has always been, so blocks (and
    # with them the rounding of every sum) stay as they were wherever the
    # tables fit in it, and shrink where they do not
    row_bytes = 16 * (shape[0] + 3 * shape[1] + max(3 * walk, spill + walk) + 4)
    # and what does not grow with the block: the sums, one block's sums and the
    # weights; each label's int64 row, a symmetrized copy of it and its rows
    # and cols entries; and what each row of P keeps
    fixed = 16 * (3 * shape[0] * shape[1] + labels.size + len(labels)) + shape[0] * p_row_bytes
    block = max(1, min(_CHUNK, (_BLOCK_BYTES - fixed) // row_bytes))
    return rows.ravel(), cols.ravel(), shape, values, block


def _spill_rows(values) -> int:
    """Rows of the prefix axis tables kept outside E's buffer: all but the
    last, and the last too when it has more rows than E."""
    pre, last, axes = values
    if axes is None:
        return 0
    sizes = [len(vals) for vals in axes[0]]
    return sum(sizes[:-1]) + (sizes[-1] if sizes[-1] > len(last) else 0)


def _factors(space: Space, values, pts: np.ndarray, bufs) -> tuple[np.ndarray, np.ndarray]:
    """P and E of ``_plan`` at a block of points (columns), written into bufs,
    each row once.  Rank 2: P's rows are the first axis's characters.  Rank
    >= 3: each row of P is the product of its prefix axis tables' rows, the
    last table written where E goes, if it fits, and the rest in bufs[2]."""
    if isinstance(values, int):  # the zonal table to degree values
        x = np.cos(pts[:, 0]) if space.is_flat else np.clip(pts[:, -1], -1.0, 1.0)
        return np.ones((1, len(pts))), zonal_values((space.dim - 1.0) / 2.0, values, x)
    pre, last, axes = values
    n = len(pts)
    p, e, spill = (buf[:k * n].reshape(-1, n) for buf, k in
                   zip(bufs, (len(pre), len(last), _spill_rows(values))))
    if axes is None:
        if pre.shape[1]:
            _characters(pts[:, 0], pre[:, 0], p)
        else:  # the circle
            p.fill(1.0)
    else:
        tables, lo = [], 0
        for a, vals in enumerate(axes[0]):
            if a == len(axes[0]) - 1 and len(vals) <= len(last):
                tables.append(_characters(pts[:, a], vals, e[:len(vals)]))
            else:
                tables.append(_characters(pts[:, a], vals, spill[lo:lo + len(vals)]))
                lo += len(vals)
        first, second, rest = tables[0], tables[1], tables[2:]
        for row, at in zip(p, axes[1]):
            np.multiply(first[at[0]], second[at[1]], out=row)
            for table, j in zip(rest, at[2:]):
                row *= table[j]
    return p, _characters(pts[:, -1], last, e)


def _buffers(shape, values, n: int):
    """P's, E's and the spilled prefix tables' buffers for blocks of up to n
    points, none for a zonal table."""
    if isinstance(values, int):
        return None
    return [np.empty(k * n, dtype=complex) for k in (*shape, _spill_rows(values))]


def spherical_sums(space: Space, indices, parts, real: bool = False) -> np.ndarray:
    """sum over the points in parts of phi_pi (Re phi_pi if real), per index: P @ E.T per block."""
    rows, cols, shape, values, block = _plan(space, indices, real)
    sums = np.zeros(shape, dtype=float if isinstance(values, int) else complex)
    bufs = _buffers(shape, values, max((min(block, len(pts)) for pts in parts), default=0))
    for pts in parts:
        for lo in range(0, len(pts), block):
            sums += np.inner(*_factors(space, values, pts[lo:lo + block], bufs))
    return sums[rows, cols]


def spherical_synthesis(space: Space, indices, weights, pts: np.ndarray) -> np.ndarray:
    """sum over the indices of weight * phi_pi at each point (complex): the
    weights fill W, and a block of points is ((W.T @ P) * E) summed."""
    rows, cols, shape, values, block = _plan(space, indices)
    box = np.zeros(shape, dtype=np.result_type(np.asarray(weights), float))
    np.add.at(box, (rows, cols), weights)
    out = np.empty(len(pts), dtype=complex)
    bufs = _buffers(shape, values, min(block, len(pts)))
    prod = np.empty(shape[1] * min(block, len(pts)), dtype=box.dtype if bufs is None else complex)
    for lo in range(0, len(pts), block):
        p, e = _factors(space, values, pts[lo:lo + block], bufs)
        a = np.matmul(box.T, p, out=prod[:e.size].reshape(e.shape))  # W.T @ P, one buffer
        a *= e
        a.sum(axis=0, out=out[lo:lo + block])
        del p, e  # the next block's zonal tables are built without these
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
        moved = np.mod(pts + dist * dirs, TWO_PI)
    return moved[0] if single else moved


def _wrap_angles(angles: np.ndarray) -> np.ndarray:
    """angles mod 2*pi, in place and as np.mod rounds it (-0.0 to +0.0, a tiny
    negative to 2*pi), but cheaper: np.fmod, then 2*pi added to negatives."""
    np.fmod(angles, TWO_PI, out=angles)
    angles += (angles < 0.0) * TWO_PI
    return angles


def distance_to_origin(space: Space, point: np.ndarray) -> float | np.ndarray:
    """Geodesic distance to the origin (north pole / zero angle)."""
    pts, single = _as_points(space, point)
    if space.kind is SpaceKind.SPHERE:
        out = np.arccos(np.clip(pts[:, -1], -1.0, 1.0))
    else:
        # the shorter arc on each axis: angles reduced to [-pi, pi)
        out = np.linalg.norm(np.mod(pts + math.pi, TWO_PI) - math.pi, axis=1)
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# Weyl counting


def weyl_census(space: Space, thresholds) -> list[tuple[int, int]]:
    """(count of spherical indices, multiplicity-weighted count) per threshold.

    The weighted count grows like T^{d/2}, the spherical count like T^{r/2}.
    """
    ts = [float(t) for t in thresholds]
    if not all(0.0 <= t < math.inf for t in ts):
        raise ValueError("thresholds must be finite and >= 0")
    top = max(ts) if ts else 0.0
    if space.rank == 1:
        # by Casimir: at most 2 sqrt(top) + 1 indices
        _, kappas, weighted = _spectrum_table(space, top)
        counts = np.ones(len(kappas), dtype=np.int64)
    else:
        # per shell k <= top, #{n in Z^d : |n|^2 = k}, built one axis at a
        # time: top + 1 counts, fewer than the indices of rank >= 2
        n_max = math.isqrt(int(top))
        if (2 * n_max + 1) ** space.dim >= 2**63:
            raise ValueError(f"census counts on {space.spec_string()} to {top:g} "
                             "could overflow int64")
        counts = np.zeros(int(top) + 1, dtype=np.int64)
        counts[0] = 1
        for _ in range(space.dim):
            prev = counts.copy()
            for n in range(1, n_max + 1):
                counts[n * n:] += 2 * prev[:-n * n]
        kappas, weighted = np.arange(len(counts)), counts
    cum_counts = np.concatenate([[0], np.cumsum(counts)])
    cum_weighted = np.concatenate([[0], np.cumsum(weighted)])
    out = []
    for t in ts:
        k = int(np.searchsorted(kappas, t, side="right"))
        out.append((int(cum_counts[k]), int(cum_weighted[k])))
    return out


# ---------------------------------------------------------------------------
# quadrature helpers (shared by the coefficient oracle and the tests)


def _zonal_weight_log_norm(d: int) -> float:
    # integral of sin^{d-1} over [0, pi]
    return 0.5 * math.log(math.pi) + math.lgamma(d / 2.0) - math.lgamma((d + 1) / 2.0)


def zonal_quadrature(space: Space, nodes: int, support: tuple[float, float] | None = None):
    """Gauss-Legendre nodes/weights for zonal integrals on a sphere.

    Returns (theta, w) with ``sum w * g(theta)`` approximating the integral
    of ``g`` against the normalized zonal weight sin^{d-1}(theta) d theta
    over ``support`` (default [0, pi]).
    """
    if space.kind is not SpaceKind.SPHERE:
        raise ValueError("zonal_quadrature is for spheres")
    lo, hi = support if support is not None else (0.0, math.pi)
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    theta = 0.5 * (hi - lo) * (xs + 1.0) + lo
    w = 0.5 * (hi - lo) * ws
    d = space.dim
    w = w * np.exp((d - 1) * np.log(np.sin(theta)) - _zonal_weight_log_norm(d))
    return theta, w


def trapezoid_angles(nodes: int) -> np.ndarray:
    """Equispaced angles on [0, 2*pi); with weight 1/nodes this is the
    trapezoidal rule for the normalized circle measure."""
    return np.arange(nodes) * (TWO_PI / nodes)
