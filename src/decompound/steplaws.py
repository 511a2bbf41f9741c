"""Zonal step laws: heat kernels, wrapped normals, uniform geodesic caps.

Each law is a probability density on one of the supported spaces, with

* exact spectral coefficients under the pairing ``<f, phi> = integral of
  f * conj(phi)`` against the normalized invariant measure,
* an independent numerical-quadrature route to the same coefficients, and
* a sampler for single steps: exact for wrapped normals (and so for flat
  heat kernels, which are wrapped normals) and caps; sphere heat steps
  draw distances from an equal-mass quantile table of the radial law, whose
  bias against the exact coefficients is stated in ``_RadialTable``.

Densities are always taken relative to the normalized measure, so the
trivial coefficient of every law is 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import PchipInterpolator
from scipy.special import betainc, betaincinv, eval_gegenbauer

from .spaces import (
    Space,
    SpaceKind,
    SpectralIndex,
    _signed_angles,
    _zonal_weight_log_norm,
    index_label,
    make_index,
    spectrum,
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
_TABLE_NODES = 4096  # 2**12


# ---------------------------------------------------------------------------
# coefficient container


class CoefficientVector:
    """Finite map from spectral indices to complex coefficients.

    Holds exact law coefficients as well as estimated ones (which may leave
    the unit disc); ``check_density`` enforces the bounds that genuine
    probability-density coefficients satisfy.
    """

    def __init__(self, pairs, truncated=()):
        self._idx: dict[tuple[int, ...], SpectralIndex] = {}
        self._val: dict[tuple[int, ...], complex] = {}
        for index, value in pairs:
            self._idx[index.label] = index
            self._val[index.label] = complex(value)
        self.truncated = frozenset(index_label(ix) for ix in truncated)

    def indices(self) -> list[SpectralIndex]:
        return sorted(self._idx.values(), key=lambda ix: (ix.casimir, ix.label))

    def items(self):
        return [(ix, self._val[ix.label]) for ix in self.indices()]

    def __len__(self) -> int:
        return len(self._val)

    def __contains__(self, index) -> bool:
        return index_label(index) in self._val

    def __getitem__(self, index) -> complex:
        return self._val[index_label(index)]

    def get(self, index, default=0.0 + 0.0j) -> complex:
        return self._val.get(index_label(index), default)

    def is_truncated(self, index) -> bool:
        return index_label(index) in self.truncated

    @property
    def max_casimir(self) -> float:
        return max((ix.casimir for ix in self._idx.values()), default=0.0)

    def check_density(self, tol: float = 1e-9) -> None:
        """Validate probability-density coefficient bounds."""
        for ix, v in self.items():
            if abs(v) > 1.0 + tol:
                raise ValueError(f"coefficient at {ix.label} has modulus {abs(v)} > 1")
            if ix.is_trivial and abs(v - 1.0) > tol:
                raise ValueError("trivial coefficient of a density must equal 1")

    # -- CSV round trip ------------------------------------------------------

    def to_csv(self, path) -> None:
        lines = ["label,casimir,multiplicity,re,im,truncated_flag"]
        for ix, v in self.items():
            lines.append(
                f"{ix.label_string()},{ix.casimir!r},{ix.multiplicity},"
                f"{v.real!r},{v.imag!r},{int(ix.label in self.truncated)}"
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


# ---------------------------------------------------------------------------
# radial CDF table (heat sampling)


class _RadialTable:
    """Radial law sampled through an equal-mass quantile table.

    Set-up inverts the tabulated CDF with a monotone cubic (PCHIP) and keeps
    q_k = F^-1(k/K), k = 0..K, K = 2**16; a uniform u in cell k = floor(uK)
    maps linearly onto [q_k, q_k+1].  The end cells (2/K of the draws) keep
    the exact inverse: a chord across the far tail moved coefficients by
    6.5e-6 at tau0 = 0.045.  Sampled zonal coefficients, l <= 8, then differ
    from exp(-kappa tau0) by at most 1.9e-7 (3e-11 for the exact inverse),
    by quadrature over the cells on sphere:2 at tau0 = 0.5, 0.35, 0.045
    (2.8e-8, 8.9e-8, 1.5e-7) and sphere:3/4 at tau0 = 0.35 (1.4e-7, 1.9e-7).
    """

    CELLS = 2**16

    def __init__(self, grid: np.ndarray, pdf: np.ndarray):
        if pdf.min() < -1e-9:
            raise ValueError("radial density is significantly negative; "
                             "increase the diffusion time")
        pdf = np.maximum(pdf, 0.0)
        cdf = cumulative_simpson(pdf, x=grid, initial=0.0)
        cdf /= cdf[-1]
        keep = np.concatenate([[True], np.diff(cdf) > 0.0])
        self._inverse = PchipInterpolator(cdf[keep], grid[keep], extrapolate=True)
        self._lo = float(grid[0])
        self._hi = float(grid[-1])
        q = self.invert(np.arange(self.CELLS + 1) / self.CELLS)
        self._q = q[:-1]
        self._dq = np.diff(q)

    def invert(self, u: np.ndarray) -> np.ndarray:
        return np.clip(self._inverse(u), self._lo, self._hi)

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """The sampler's map from uniforms in [0, 1) to distances."""
        x = u * self.CELLS
        k = x.astype(np.intp)
        out = self._q[k] + self._dq[k] * (x - k)
        edge = (k == 0) | (k == self.CELLS - 1)
        out[edge] = self.invert(u[edge])
        return out


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
    """Sphere points (sqrt(1 - z^2) * dir, z) at cosines z from the origin (the
    last axis), with dir a uniform unit vector in R^d: normalized normals, or
    on S^2 the cheaper (cos phi, sin phi)."""
    n, d = z.shape[0], space.dim
    if d == 2:
        phi = 2.0 * math.pi * rng.random(n)
        dirs = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    else:
        dirs = rng.standard_normal((n, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return np.column_stack([np.sqrt(np.maximum(1.0 - z * z, 0.0))[:, None] * dirs, z])


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
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError

    def radial_support(self) -> tuple[float, float]:
        return (0.0, math.pi)

    def sample_displacements(self, n: int, rng) -> np.ndarray:
        """Flat spaces: n signed angle displacement vectors, shape (n, d)."""
        raise NotImplementedError

    def sample_distances(self, n: int, rng) -> np.ndarray:
        """Spheres: n radial step distances in [0, pi]."""
        raise NotImplementedError


@dataclass(frozen=True)
class HeatZonal(StepLaw):
    """Heat-kernel step law at diffusion time tau0; coefficients exp(-kappa*tau0)."""

    tau0: float = 0.5

    def __post_init__(self):
        if self.tau0 <= 0:
            raise ValueError("tau0 must be > 0")

    @property
    def inverse_invariant(self) -> bool:
        return True

    def coefficient(self, index: SpectralIndex) -> complex:
        return complex(math.exp(-index.casimir * self.tau0))

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
        lmax = self._sphere_degree_cut()
        lam = (self.space.dim - 1.0) / 2.0
        vals = zonal_values(lam, lmax, np.cos(theta))
        out = np.zeros_like(np.asarray(theta, dtype=float))
        for ell in range(lmax + 1):
            ix = make_index(self.space, (ell,))
            out += ix.multiplicity * math.exp(-ix.casimir * self.tau0) * vals[ell]
        return out

    def density_on_angles(self, pts: np.ndarray) -> np.ndarray:
        return self._flat_law.density_on_angles(pts)

    @cached_property
    def _sphere_table(self) -> _RadialTable:
        theta = np.linspace(0.0, math.pi, _TABLE_NODES)
        d = self.space.dim
        with np.errstate(divide="ignore"):
            log_sin = np.where(theta % math.pi == 0.0, -np.inf, np.log(np.abs(np.sin(theta))))
        weight = np.exp((d - 1) * log_sin)
        weight[~np.isfinite(weight)] = 0.0
        return _RadialTable(theta, self.radial_density(theta) * weight)

    def sample_distances(self, n: int, rng) -> np.ndarray:
        if self.space.kind is not SpaceKind.SPHERE:
            raise ValueError("sample_distances is for spheres")
        return self._sphere_table.quantile(rng.random(n))

    def sample_displacements(self, n: int, rng) -> np.ndarray:
        return self._flat_law.sample_displacements(n, rng)


@dataclass(frozen=True)
class WrappedNormal(StepLaw):
    """Wrapped normal step on the circle or torus.

    Coefficients ``exp(-|n|^2 sigma^2 / 2) * exp(-i n . mean)``; not inverse
    invariant when the mean is nonzero.
    """

    sigma: float = 1.0
    mean: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        if self.space.kind is SpaceKind.SPHERE:
            raise ValueError("WrappedNormal is defined on the circle/torus only")
        if self.sigma <= 0:
            raise ValueError("sigma must be > 0")
        mean = self.mean
        if np.isscalar(mean):
            mean = (float(mean),) * self.space.dim
        else:
            mean = tuple(float(v) for v in mean)
            if len(mean) == 1 and self.space.dim > 1:
                mean = mean * self.space.dim
        if len(mean) != self.space.dim:
            raise ValueError("mean must have one entry per dimension")
        object.__setattr__(self, "mean", mean)

    @property
    def inverse_invariant(self) -> bool:
        return all(v % (2.0 * math.pi) == 0.0 for v in self.mean)

    def coefficient(self, index: SpectralIndex) -> complex:
        n = np.asarray(index.label, dtype=float)
        phase = float(n @ np.asarray(self.mean))
        return complex(math.exp(-0.5 * index.casimir * self.sigma**2)) * complex(
            math.cos(phase), -math.sin(phase)
        )

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
        d = self.space.dim
        z = rng.standard_normal((n, d))
        return _signed_angles(np.asarray(self.mean) + self.sigma * z)


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

    @property
    def _cap_fraction(self) -> float:
        """Normalized volume of the cap."""
        a = self.space.dim / 2.0
        v = 0.5 * (1.0 - math.cos(self.rho))
        return float(betainc(a, a, v))

    def radial_support(self) -> tuple[float, float]:
        return (0.0, self.rho)

    def radial_density(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        return np.where(theta <= self.rho, 1.0 / self._cap_fraction, 0.0)

    def coefficient(self, index: SpectralIndex) -> complex:
        if index.casimir == 0.0:
            return 1.0 + 0.0j
        # (1/V) * integral over the cap of C_l^lam(cos t) / C_l^lam(1) against the
        # normalized zonal weight; the Gegenbauer derivative identity (DLMF
        # 18.9) gives the integral of C_l^lam(x) (1-x^2)^(lam-1/2) over
        # [cos rho, 1] as 2 lam sin^d rho C_{l-1}^{lam+1}(cos rho) / (l (l+2 lam))
        d, ell = self.space.dim, index.label[0]
        lam = (d - 1) / 2.0
        integral = (2.0 * lam * math.sin(self.rho) ** d
                    * eval_gegenbauer(ell - 1, lam + 1.0, math.cos(self.rho))
                    / (ell * (ell + 2.0 * lam)))
        norm = (eval_gegenbauer(ell, lam, 1.0) * math.exp(_zonal_weight_log_norm(d))
                * self._cap_fraction)
        return complex(integral / norm)

    def spec_string(self) -> str:
        return f"cap:rho={self.rho!r}"

    def sample_distances(self, n: int, rng) -> np.ndarray:
        a = self.space.dim / 2.0
        u = rng.random(n)
        v = betaincinv(a, a, u * self._cap_fraction)
        return np.arccos(np.clip(1.0 - 2.0 * v, -1.0, 1.0))


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
        return _lift_from_origin(space, np.cos(law.sample_distances(n, rng)), rng)
    return np.mod(law.sample_displacements(n, rng), 2.0 * math.pi)


# ---------------------------------------------------------------------------
# law spec strings


def _parse_kv(body: str) -> dict[str, str]:
    out = {}
    if body:
        for item in body.split(","):
            key, _, val = item.partition("=")
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
            return HeatZonal(space, tau0=float(kv.pop("tau")))
        if kind == "wn":
            sigma = float(kv.pop("sigma"))
            mean_text = kv.pop("mean", "0")
            mean = tuple(float(v) for v in mean_text.split(";"))
            return WrappedNormal(space, sigma=sigma, mean=mean)
        if kind == "cap":
            return UniformCap(space, rho=float(kv.pop("rho")))
    except KeyError as exc:
        raise ValueError(f"law spec {text!r} is missing parameter {exc}") from None
    raise ValueError(f"unrecognized law spec {text!r}")
