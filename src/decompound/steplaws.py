"""Zonal step laws: heat kernels, wrapped normals, uniform geodesic caps.

Each law is a probability density on one of the supported spaces, with

* exact spectral coefficients under the pairing ``<f, phi> = integral of
  f * conj(phi)`` against the normalized invariant measure,
* an independent numerical-quadrature route to the same coefficients, and
* a sampler for single steps: exact for wrapped normals (and so for flat
  heat kernels, which are wrapped normals); every sphere law (heat or cap)
  draws distance cosines from an equal-mass quantile table of its radial
  law, whose bias against the exact coefficients is stated in ``_RadialTable``.

Densities are always taken relative to the normalized measure, so the
trivial coefficient of every law is 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .spaces import (
    Space,
    SpaceKind,
    SpectralIndex,
    _wrap_angles,
    _zonal_weight_log_norm,
    index_label,
    make_index,
    trapezoid_angles,
    zonal_quadrature,
    zonal_values,
)

__all__ = [
    "CoefficientVector",
    "StepLaw",
    "HeatZonal",
    "WrappedNormal",
    "UniformCap",
    "parse_law",
    "true_coefficients",
    "quadrature_coefficients",
    "sample_points",
    "uniform_tangents",
]

_TAIL_CUT = 1e-14
_TABLE_NODES = 2**14


# ---------------------------------------------------------------------------
# coefficient container


class CoefficientVector:
    """Finite map from spectral indices to complex coefficients.

    Holds exact law coefficients as well as estimated ones (which may leave
    the unit disc).  A table in (casimir, label) order holds labels, Casimir
    eigenvalues, multiplicities, values and a truncated mask; ``indices`` and
    ``items`` build the SpectralIndex objects, and label lookups go through
    one map built on first use.  Pairs are sorted into that order once; a
    table from ``spaces._spectrum_table`` is in it already and is kept as it is.
    """

    def __init__(self, pairs, truncated=()):
        entries = {index.label: (index, value) for index, value in pairs}
        marked = {index_label(ix) for ix in truncated}
        idx = [index for index, _ in entries.values()]
        rank = len(idx[0].label) if idx else 1
        labels = np.array([ix.label for ix in idx], dtype=int).reshape(-1, rank)
        casimir = np.array([ix.casimir for ix in idx], dtype=float)
        order = np.lexsort((*labels.T[::-1], casimir))
        self._fill(labels[order], casimir[order],
                   np.array([ix.multiplicity for ix in idx], dtype=np.int64)[order],
                   np.array([value for _, value in entries.values()], dtype=complex)[order],
                   np.array([ix.label in marked for ix in idx], dtype=bool)[order])

    @classmethod
    def _from_table(cls, labels, casimir, multiplicity, values,
                    truncated=None) -> "CoefficientVector":
        """The vector of values over a (labels, casimir, multiplicity) table
        already in (casimir, label) order, and its truncated mask (none set if
        not given)."""
        vec = cls.__new__(cls)
        vec._fill(labels, casimir, multiplicity, values,
                  np.zeros(len(labels), dtype=bool) if truncated is None else truncated)
        return vec

    def _fill(self, labels, casimir, multiplicity, values, truncated) -> None:
        self._labels, self._casimir = labels, np.asarray(casimir, dtype=float)
        self._mult = np.asarray(multiplicity, dtype=np.int64)
        self._values = np.asarray(values, dtype=complex)
        self._truncated = np.asarray(truncated, dtype=bool)

    @cached_property
    def _rows(self) -> dict[tuple[int, ...], int]:
        """label -> row of the table, built on first use."""
        return dict(zip(map(tuple, self._labels.tolist()), range(len(self))))

    def indices(self) -> list[SpectralIndex]:
        return [SpectralIndex(tuple(label), k, d) for label, k, d in
                zip(self._labels.tolist(), self._casimir.tolist(), self._mult.tolist())]

    def items(self):
        # tolist: Python complex values (a numpy scalar's repr would reach to_csv)
        return list(zip(self.indices(), self._values.tolist()))

    @property
    def truncated(self) -> frozenset[tuple[int, ...]]:
        return frozenset(map(tuple, self._labels[self._truncated].tolist()))

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, index) -> bool:
        return index_label(index) in self._rows

    def __getitem__(self, index) -> complex:
        return complex(self._values[self._rows[index_label(index)]])

    def is_truncated(self, index) -> bool:
        row = self._rows.get(index_label(index))
        return row is not None and bool(self._truncated[row])

    @property
    def max_casimir(self) -> float:
        return float(self._casimir.max()) if len(self) else 0.0

    # -- CSV round trip ------------------------------------------------------

    def to_csv(self, path) -> None:
        lines = ["label,casimir,multiplicity,re,im,truncated_flag"]
        for (ix, v), flag in zip(self.items(), self._truncated.tolist()):
            lines.append(
                f"{ix.label_string()},{ix.casimir!r},{ix.multiplicity},"
                f"{v.real!r},{v.imag!r},{int(flag)}"
            )
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path) -> "CoefficientVector":
        pairs = []
        truncated = []
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "label,casimir,multiplicity,re,im,truncated_flag":
                raise ValueError(f"unrecognized coefficient CSV header: {header!r}")
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                lab, kap, mult, re, im, flag = line.split(",")
                label = tuple(int(k) for k in lab.split(";"))
                index = SpectralIndex(label, float(kap), int(mult))
                pairs.append((index, complex(float(re), float(im))))
                if int(flag):
                    truncated.append(label)
        return cls(pairs, truncated=truncated)


def _per_eigenvalue(casimir: np.ndarray, formula) -> np.ndarray:
    """formula(kappa) at each entry as a complex array, evaluated once per
    distinct eigenvalue (formula is scalar math)."""
    if len(casimir) == 1:
        return np.array([formula(float(casimir[0]))], dtype=complex)
    kappa, at = np.unique(casimir, return_inverse=True)
    return np.array([formula(k) for k in kappa.tolist()], dtype=complex)[at]


# ---------------------------------------------------------------------------
# radial CDF table (sphere sampling)


class _RadialTable:
    """Radial law sampled through an equal-mass table of distance cosines.

    Set-up integrates the density on a uniform grid of 2**14 nodes by
    Simpson's rule, one cell at a time, and inverts that CDF linearly
    between grid knots: q_k = F^-1(k/K), k = 0..K, K = 2**16.  The table
    keeps only the knots cos q_k; a uniform u in cell k = floor(uK) maps
    linearly onto [cos q_k, cos q_k+1], and a walk takes sin d as
    sqrt(1 - cos^2 d), so no cos or sin runs on a draw.  The end cells (2/K
    of the draws) interpolate the grid CDF against cos(grid) directly: one
    chord across the far tail moved coefficients by 8.1e-6 at tau0 = 0.045.
    Sampled zonal coefficients, l <= 8, then differ from the exact ones by
    at most 1.7e-7, by quadrature over the cells: heat on sphere:2 at tau0 =
    0.5, 0.35, 0.045 (4.8e-9, 1.6e-8, 1.7e-7) and on sphere:3/4 at tau0 =
    0.35 (7.7e-8, 1.3e-7); caps on sphere:2/3/4 at rho = 1.2, 1.0, 2.0
    (8.3e-10, 5.7e-9, 4.5e-8).  The linear inverse needs the fine grid: at
    2**12 nodes the bias at tau0 = 0.045 is 5.4e-7.
    `StepLaw.sample_distances` returns the arccos of the same map.
    """

    CELLS = 2**16

    def __init__(self, grid: np.ndarray, pdf: np.ndarray):
        if pdf.min() < -1e-9:
            raise ValueError("radial density is significantly negative; "
                             "increase the diffusion time")
        pdf = np.maximum(pdf, 0.0)
        # Simpson's rule on each cell [x_i, x_i+1] through the next node (the
        # previous one in the last cell): h/12 (5 f_i + 8 f_i+1 - f_i+2)
        step = np.empty(grid.size - 1)
        step[:-1] = 5.0 * pdf[:-2] + 8.0 * pdf[1:-1] - pdf[2:]
        step[-1] = 5.0 * pdf[-1] + 8.0 * pdf[-2] - pdf[-3]
        cdf = np.concatenate([[0.0], np.cumsum(np.maximum(step * np.diff(grid) / 12.0, 0.0))])
        self._cos_grid = np.cos(grid)
        self._cdf = cdf / cdf[-1]
        self._knots = np.cos(np.interp(np.arange(self.CELLS + 1) / self.CELLS, self._cdf, grid))
        for table in (self._cos_grid, self._cdf, self._knots):  # shared by every equal law
            table.setflags(write=False)

    def cosines(self, u: np.ndarray) -> np.ndarray:
        """The sampler's map from uniforms in [0, 1) to distance cosines."""
        x = u * self.CELLS
        k = x.astype(np.intp)
        out = self._knots[1:].take(k)
        lo = self._knots.take(k)
        x -= k
        out -= lo
        out *= x
        out += lo
        if k.size and (k.min() == 0 or k.max() == self.CELLS - 1):
            edge = (k == 0) | (k == self.CELLS - 1)
            out[edge] = np.interp(u[edge], self._cdf, self._cos_grid)
        return out


@lru_cache(maxsize=8)
def _radial_table(law: "StepLaw") -> _RadialTable:
    """A sphere law's radial_density against sin^(d-1) on its radial_support,
    keyed on the frozen law's value."""
    theta = np.linspace(*law.radial_support(), _TABLE_NODES)
    weight = np.sin(theta) ** (law.space.dim - 1)
    return _RadialTable(theta, law.radial_density(theta) * weight)


def uniform_tangents(points: np.ndarray, rng) -> np.ndarray:
    """Uniform unit tangent vectors at an array of sphere points.

    Gaussian vectors projected orthogonally to each base point and
    normalized (Gram-Schmidt against the base point).
    """
    g = rng.standard_normal(points.shape)
    g -= np.einsum("ij,ij->i", g, points)[:, None] * points
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    # a zero projection has probability 0; guard against it anyway
    bad = norms[:, 0] < 1e-12
    if np.any(bad):
        fix = np.zeros_like(points[bad])
        fix[:, 0] = 1.0
        fix -= np.einsum("ij,ij->i", fix, points[bad])[:, None] * points[bad]
        g[bad] = fix
        norms[bad] = np.linalg.norm(g[bad], axis=1, keepdims=True)
    return g / norms


def _lift_from_origin(space: Space, z: np.ndarray, rng) -> np.ndarray:
    """The sphere points (sqrt(1 - z^2) * dir, z) at cosines z from the origin
    (the last axis), with dir a uniform unit vector in R^d, a normalized
    normal."""
    n, d = z.shape[0], space.dim
    out = np.empty((n, d + 1))
    dirs = rng.standard_normal((n, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    np.multiply(np.sqrt(np.maximum(1.0 - z * z, 0.0))[:, None], dirs, out=out[:, :d])
    out[:, d] = z
    return out


# ---------------------------------------------------------------------------
# laws


@dataclass(frozen=True)
class StepLaw:
    """Base class; concrete laws add their parameters."""

    space: Space

    # subclasses override ----------------------------------------------------
    @property
    def inverse_invariant(self) -> bool:
        raise NotImplementedError

    def coefficient(self, index: SpectralIndex) -> complex:
        return complex(self._coefficients(np.array([index.label]),
                                          np.array([index.casimir]))[0])

    def _coefficients(self, labels: np.ndarray, casimir: np.ndarray) -> np.ndarray:
        """The law's one coefficient formula over a table: labels (N, rank) and
        their Casimir eigenvalues (N,), to N complex values.  Scalar math
        (math.exp, math.cos, math.sin) per entry, or per distinct eigenvalue
        where the value depends on it alone."""
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError

    def radial_support(self) -> tuple[float, float]:
        return (0.0, math.pi)

    def sample_displacements(self, n: int, rng) -> np.ndarray:
        """Flat spaces: n step displacements in R^d, shape (n, d), not
        reduced mod 2 pi; a walk adds them and wraps the sum once."""
        raise NotImplementedError

    # spheres: one sampler for every law ---------------------------------------
    @property
    def _sphere_table(self) -> _RadialTable:
        """The radial law's table, one per law value in a process: equal laws
        share it, and it never rides in a law's pickle."""
        return _radial_table(self)

    def sample_distances(self, n: int, rng) -> np.ndarray:
        """Spheres: n radial step distances in radial_support()."""
        if self.space.kind is not SpaceKind.SPHERE:
            raise ValueError("sample_distances is for spheres")
        return np.arccos(self._sphere_table.cosines(rng.random(n)))


@dataclass(frozen=True)
class HeatZonal(StepLaw):
    """Heat-kernel step law at diffusion time tau0; coefficients exp(-kappa*tau0)."""

    tau0: float = 0.5

    def __post_init__(self):
        if not (math.isfinite(self.tau0) and self.tau0 > 0):
            raise ValueError("tau0 must be finite and > 0")

    @property
    def inverse_invariant(self) -> bool:
        return True

    def _coefficients(self, labels: np.ndarray, casimir: np.ndarray) -> np.ndarray:
        return _per_eigenvalue(casimir, lambda k: math.exp(-k * self.tau0))

    def spec_string(self) -> str:
        return f"heat:tau={self.tau0!r}"

    @property
    def band_limit(self) -> int:
        """Flat spaces: highest frequency kept (weight exp(-n^2 tau0) < 1/2e14 beyond)."""
        return int(math.ceil(math.sqrt(math.log(2.0e14) / self.tau0))) + 1

    @cached_property
    def _flat_law(self) -> "WrappedNormal":
        """Circle/torus: the heat kernel at tau0 is the wrapped normal with
        sigma^2 = 2 tau0 (both have coefficients exp(-|n|^2 tau0))."""
        if self.space.kind is SpaceKind.SPHERE:
            raise ValueError("HeatZonal flat methods are for flat spaces "
                             "(circle/torus), not spheres")
        return WrappedNormal(self.space, sigma=math.sqrt(2.0 * self.tau0))

    def _sphere_degree_cut(self) -> int:
        ell = 1
        while True:
            ix = make_index(self.space, (ell,))
            if ix.multiplicity * math.exp(-ix.casimir * self.tau0) < _TAIL_CUT:
                return ell
            ell += 1

    def radial_density(self, theta: np.ndarray) -> np.ndarray:
        """Density value at distance theta from the step origin (sphere)."""
        if self.space.kind is not SpaceKind.SPHERE:
            raise ValueError("radial_density is the sphere profile")
        theta = np.asarray(theta, dtype=float)
        lmax = self._sphere_degree_cut()
        lam = (self.space.dim - 1.0) / 2.0
        vals = zonal_values(lam, lmax, np.cos(theta))
        out = np.zeros(theta.size)
        for ell in range(lmax + 1):
            ix = make_index(self.space, (ell,))
            out += ix.multiplicity * math.exp(-ix.casimir * self.tau0) * vals[ell]
        return out.reshape(theta.shape)

    def density_on_angles(self, pts: np.ndarray) -> np.ndarray:
        return self._flat_law.density_on_angles(pts)

    def sample_displacements(self, n: int, rng) -> np.ndarray:
        return self._flat_law.sample_displacements(n, rng)


@dataclass(frozen=True)
class WrappedNormal(StepLaw):
    """Wrapped normal step on the circle or torus.

    Coefficients ``exp(-|n|^2 sigma^2 / 2) * exp(-i n . mean)``; not inverse
    invariant when the mean is nonzero.  A step is ``mean + sigma * z`` in
    R^d, the covering space, not reduced mod 2 pi.
    """

    sigma: float = 1.0
    mean: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        if self.space.kind is SpaceKind.SPHERE:
            raise ValueError("WrappedNormal is defined on the circle/torus only")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be finite and > 0")
        mean = self.mean
        if np.isscalar(mean):
            mean = (float(mean),) * self.space.dim
        else:
            mean = tuple(float(v) for v in mean)
            if len(mean) == 1 and self.space.dim > 1:
                mean = mean * self.space.dim
        if len(mean) != self.space.dim:
            raise ValueError("mean must have one entry per dimension")
        if not all(map(math.isfinite, mean)):
            raise ValueError("mean must be finite")
        object.__setattr__(self, "mean", mean)

    @property
    def inverse_invariant(self) -> bool:
        return all(v % (2.0 * math.pi) == 0.0 for v in self.mean)

    def _coefficients(self, labels: np.ndarray, casimir: np.ndarray) -> np.ndarray:
        sq = self.sigma**2
        values = _per_eigenvalue(casimir, lambda k: math.exp(-0.5 * k * sq))
        if not any(self.mean):
            return values  # the phase factor 1 - 0j leaves every bit as it is
        mean = np.asarray(self.mean)
        for i, label in enumerate(labels.astype(float)):
            phase = float(label @ mean)
            values[i] = complex(values[i]) * complex(math.cos(phase), -math.sin(phase))
        return values

    def spec_string(self) -> str:
        mean = ";".join(repr(v) for v in self.mean)
        return f"wn:sigma={self.sigma!r},mean={mean}"

    @property
    def band_limit(self) -> int:
        """Highest frequency kept (weight exp(-n^2 sigma^2 / 2) < 1/2e14 beyond)."""
        return int(math.ceil(math.sqrt(2.0 * math.log(2.0e14)) / self.sigma)) + 1

    def density_on_angles(self, pts: np.ndarray) -> np.ndarray:
        ns = np.arange(1, self.band_limit + 1)
        weights = np.exp(-0.5 * (ns.astype(float) * self.sigma) ** 2)
        out = np.ones(pts.shape[0])
        for j in range(pts.shape[1]):
            angles = pts[:, j] - self.mean[j]
            out *= 1.0 + 2.0 * np.cos(np.multiply.outer(angles, ns)) @ weights
        return out

    def sample_displacements(self, n: int, rng) -> np.ndarray:
        out = rng.standard_normal((n, self.space.dim))
        out *= self.sigma
        out += self.mean
        return out


@dataclass(frozen=True)
class UniformCap(StepLaw):
    """Uniform density on the geodesic cap of radius rho about the origin (spheres)."""

    rho: float = 1.0

    def __post_init__(self):
        if self.space.kind is not SpaceKind.SPHERE:
            raise ValueError("UniformCap is defined on spheres only")
        if not 0.0 < self.rho <= math.pi:
            raise ValueError("rho must lie in (0, pi]")

    @property
    def inverse_invariant(self) -> bool:
        return True

    @cached_property
    def _cap_fraction(self) -> float:
        """Normalized volume of the cap (Gauss-Legendre is exact to rounding
        for the smooth sin^(d-1) in 64 nodes)."""
        return float(zonal_quadrature(self.space, 64, (0.0, self.rho))[1].sum())

    def radial_support(self) -> tuple[float, float]:
        return (0.0, self.rho)

    def radial_density(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        return np.where(theta <= self.rho, 1.0 / self._cap_fraction, 0.0)

    def _coefficients(self, labels: np.ndarray, casimir: np.ndarray) -> np.ndarray:
        # (1/V) * integral over the cap of C_l^lam(cos t) / C_l^lam(1) against the
        # normalized zonal weight; the Gegenbauer derivative identity (DLMF
        # 18.9) gives the integral of C_l^lam(x) (1-x^2)^(lam-1/2) over
        # [cos rho, 1] as 2 lam sin^d rho C_{l-1}^{lam+1}(cos rho) / (l (l+2 lam)),
        # which is sin^d rho C_l^lam(1) Z_{l-1}^{lam+1}(cos rho) / d in the
        # normalized values Z = C(x) / C(1); the degree 0 coefficient is 1
        d, degrees = self.space.dim, labels[:, 0].tolist()
        # Z_{l-1} for every degree l of the table: one recurrence, at least to degree 0
        z = zonal_values((d + 1) / 2.0, max(degrees + [1]) - 1, math.cos(self.rho))[:, 0]
        norm = d * math.exp(_zonal_weight_log_norm(d)) * self._cap_fraction
        scale = math.sin(self.rho) ** d
        return np.array([scale * z[ell - 1].item() / norm if ell else 1.0 for ell in degrees],
                        dtype=complex)

    def spec_string(self) -> str:
        return f"cap:rho={self.rho!r}"


# ---------------------------------------------------------------------------
# coefficients: analytic and quadrature routes


def true_coefficients(law: StepLaw, indices) -> CoefficientVector:
    """Exact spectral coefficients of the law at the given indices, from each
    law's closed form (quadrature_coefficients is the independent check)."""
    return CoefficientVector((ix, law.coefficient(ix)) for ix in indices)


def quadrature_coefficients(law: StepLaw, indices, nodes: int | None = None) -> CoefficientVector:
    """Numerical-quadrature route to the law's spectral coefficients.

    Spheres: Gauss-Legendre against the normalized zonal weight on the
    radial support.  Circle/torus: the trapezoidal rule on a uniform angle
    grid (evaluated through the FFT).  Requires ``nodes >= 2 * max degree + 8``.
    """
    indices = list(indices)
    if not indices:
        return CoefficientVector([])
    space = law.space
    if space.kind is SpaceKind.SPHERE:
        max_degree = max(ix.label[0] for ix in indices)
    else:
        max_degree = max(max(abs(k) for k in ix.label) for ix in indices)
    min_nodes = 2 * max_degree + 8
    if nodes is None:
        band = 0 if isinstance(law, UniformCap) else law.band_limit
        nodes = max(2 * (max_degree + band) + 16, 128)
    if nodes < min_nodes:
        raise ValueError(f"nodes={nodes} too few for max degree {max_degree} "
                         f"(need >= {min_nodes})")

    if space.kind is SpaceKind.SPHERE:
        theta, w = zonal_quadrature(space, nodes, support=law.radial_support())
        f = law.radial_density(theta)
        lam = (space.dim - 1.0) / 2.0
        vals = zonal_values(lam, max_degree, np.cos(theta))
        pairs = []
        for ix in indices:
            pairs.append((ix, complex(float(vals[ix.label[0]] @ (w * f)))))
        return CoefficientVector(pairs)

    # flat spaces: uniform grid + FFT (= trapezoidal rule for periodic integrands)
    d = space.dim
    axis = trapezoid_angles(nodes)
    mesh = np.stack([g.ravel() for g in np.meshgrid(*([axis] * d), indexing="ij")], axis=1)
    f = law.density_on_angles(mesh).reshape((nodes,) * d)
    spec_grid = np.fft.fftn(f) / float(nodes**d)
    pairs = []
    for ix in indices:
        bin_ = tuple(int(k) % nodes for k in ix.label)
        pairs.append((ix, complex(spec_grid[bin_])))
    return CoefficientVector(pairs)


# ---------------------------------------------------------------------------
# sampling


def sample_points(law: StepLaw, n: int, rng) -> np.ndarray:
    """n independent single-step positions started from the origin."""
    space = law.space
    if space.kind is SpaceKind.SPHERE:
        return _lift_from_origin(space, law._sphere_table.cosines(rng.random(n)), rng)
    return _wrap_angles(law.sample_displacements(n, rng))


# ---------------------------------------------------------------------------
# law spec strings


def _parse_kv(body: str) -> dict[str, str]:
    out = {}
    if body:
        for item in body.split(","):
            key, _, val = item.partition("=")
            if key.strip() in out:
                raise ValueError(f"law spec repeats parameter {key.strip()!r}")
            out[key.strip()] = val.strip()
    return out


def parse_law(text: str, space: Space) -> StepLaw:
    """Parse a law spec string such as ``heat:tau=0.5``, ``wn:sigma=0.7,mean=0``,
    or ``cap:rho=1.0`` for the given space."""
    head, _, body = text.strip().partition(":")
    kv = _parse_kv(body)
    kind = head.strip().lower()
    try:
        if kind == "heat":
            law = HeatZonal(space, tau0=float(kv.pop("tau")))
        elif kind == "wn":
            sigma = float(kv.pop("sigma"))
            mean = tuple(float(v) for v in kv.pop("mean", "0").split(";"))
            law = WrappedNormal(space, sigma=sigma, mean=mean)
        elif kind == "cap":
            law = UniformCap(space, rho=float(kv.pop("rho")))
        else:
            raise ValueError(f"unrecognized law spec {text!r}")
    except KeyError as exc:
        raise ValueError(f"law spec {text!r} is missing parameter {exc}") from None
    if kv:
        raise ValueError(f"law spec {text!r} has unknown parameters: {', '.join(map(repr, kv))}")
    return law
