"""Observation generator for compound random walks at a fixed horizon.

An observation is the position, at time t, of a walk that starts at the
origin and makes N ~ Poisson(t * Lambda) zonal steps: each step moves a
law-sampled distance along a uniformly random tangent direction at the
current point.  The m observations of a sample are independent walks.

Optionally each observation is blurred by an independent heat-kernel
displacement whose spectral signature is exactly exp(-tau^2 * kappa / 2).

Step counts are one multinomial draw per block over a cut Poisson pmf
table: how many walkers make exactly k steps.  Both geometries walk a block
in rounds, longest walk first, so round k moves a prefix: the walkers that
make more than k steps.  The circle and torus are R^d / 2 pi Z^d, so a flat
walk adds its steps and its blur in R^d and wraps each endpoint once.

On spheres the endpoint law is invariant under rotations fixing the
origin, so only the cosine of the distance to the origin is walked, and a
sphere sample keeps just that cosine column: the spherical functions read
nothing else.  The kernel works in place: step cosines come from the radial
table and their sines are sqrt(1 - cos^2), the first round (from the origin)
lands at cos d, and the blur is one more step in the same walk order.
Direction cosines on S^2 come from a knot table of cos(phi), phi ~ U[0, pi],
which has the law of cos(2 pi U) to within (pi/2^16)^2/8 = 2.9e-10.  The
kernel draws only the variates it uses.

Each block is kept grouped by step count, with its cells.  The empirical
transform, a sum over the sample, reads that grouped sample; without blur it
reads each block's first n - cells[0] rows and counts the rest, which never
moved and sit exactly at the origin.  `ObservationSet.cosines` and `.points`
put each block in a uniformly random order on their first read, so the
observations they show are i.i.d., and a sphere's points lift every endpoint
along a uniform tangent direction at the origin.

Reproducibility: a sample is walked from one SFC64 stream seeded by the
SeedSequence of (seed, 0), block after block of 16384 observations (the
block bounds working memory); its order is drawn from the stream of (seed,
2^64 - 2), one permutation per block in block order, and its lift from the
stream of (seed, 2^64 - 1).  Each stream is read in sequence, never by
counter.  Output depends only on (config, m), and a sample extended by whole
blocks keeps its earlier blocks.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .spaces import Space, SpaceKind, _wrap_angles, parse_space
from .steplaws import (_TABLE_NODES, HeatZonal, StepLaw, WrappedNormal, _lift_from_origin,
                       _RadialTable, parse_law)
# perfbench/tracing.py wraps simulate.uniform_tangents; drop this import with
# that wrap
from .steplaws import uniform_tangents  # noqa: F401

__all__ = [
    "ProcessConfig",
    "ObservationSet",
    "sample_compound",
    "observations_text",
    "write_observations",
    "read_observations",
]

BLOCK = 16384
# Largest t Lambda: the step-count table holds more than t Lambda Poisson
# terms (at 1e6, 1,008,224 of them, built in 0.63 s with 47 MB peak on a
# 2-CPU Xeon), and each observation walks about t Lambda steps
_T_LAMBDA_MAX = 1e6


@dataclass(frozen=True)
class ProcessConfig:
    """Everything needed to generate observations: law, clock, noise, seed."""

    law: StepLaw
    t_lambda: float = 1.0
    noise_tau: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.t_lambda < math.inf:
            raise ValueError("t_lambda must be finite and > 0")
        if self.t_lambda > _T_LAMBDA_MAX:
            raise ValueError(f"t_lambda must be at most {_T_LAMBDA_MAX:g}, got {self.t_lambda:g}")
        if not 0.0 <= self.noise_tau < math.inf:
            raise ValueError("noise_tau must be finite and >= 0")
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def space(self) -> Space:
        return self.law.space

    def to_mapping(self) -> dict:
        return {
            "space": self.space.spec_string(),
            "law": self.law.spec_string(),
            "t_lambda": self.t_lambda,
            "noise_tau": self.noise_tau,
            "seed": self.seed,
        }

    @classmethod
    def from_mapping(cls, data: dict) -> "ProcessConfig":
        missing = [key for key in ("space", "law", "t_lambda", "noise_tau", "seed")
                   if key not in data]
        if missing:
            raise ValueError(f"ProcessConfig lacks {', '.join(missing)}")
        space = parse_space(data["space"])
        law = parse_law(data["law"], space)
        return cls(
            law=law,
            t_lambda=float(data["t_lambda"]),
            noise_tau=float(data["noise_tau"]),
            seed=int(data["seed"]),
        )


class ObservationSet:
    """Immutable batch of observations plus the config that produced it.

    ``ObservationSet(points=..., config=...)`` copies and checks the points
    and keeps their order.  A set from `sample_compound` keeps its sample as
    the walk left it, grouped by step count within each block: flat points,
    or on a sphere each observation's cosine of its distance to the origin,
    which is all a spherical function reads, and each block's step-count
    cells.  The empirical transform, a sum over the sample, reads it through
    ``_transform_parts()``.  The public reads are i.i.d.: ``cosines`` and a
    flat set's ``points`` put each block in a uniformly random order on first
    read, one permutation per block in block order from the SFC64 stream
    ``_block_rng(seed, -2)``, and a sphere's ``points`` lift those cosines
    from the SFC64 stream ``_block_rng(seed, -1)``.  Both cache their result
    read-only.  ``cosines`` is the last coordinate on a sphere and None on
    flat spaces.
    """

    def __init__(self, points, config: ProcessConfig):
        pts = np.array(points, dtype=float)  # defensive copy
        _check_points(pts, config.space)
        pts.setflags(write=False)
        cosines = None if config.space.is_flat else pts[:, -1]
        vars(self).update(config=config, _sample=pts if cosines is None else cosines,
                          _cells=None, _cosines=cosines, _points=pts)

    @classmethod
    def _adopt(cls, sample: np.ndarray, config: ProcessConfig, cells) -> "ObservationSet":
        """A set that owns sample, a freshly walked array grouped by step
        count within each block, checked and not copied: flat points, or a
        sphere's cosines; cells[b, k] walkers of block b made k steps."""
        if config.space.is_flat:
            _check_points(sample, config.space)
        elif not -1.0 <= sample.min() <= sample.max() <= 1.0:  # a NaN fails too
            raise ValueError("walked cosines must be finite and in [-1, 1]")
        sample.setflags(write=False)
        cells.setflags(write=False)
        obs = cls.__new__(cls)
        vars(obs).update(config=config, _sample=sample, _cells=cells, _cosines=None, _points=None)
        return obs

    def __setattr__(self, name, value):
        raise AttributeError("ObservationSet is immutable")

    def __setstate__(self, state):
        for value in state.values():  # pickle drops numpy's read-only flag
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        vars(self).update(state)

    def _transform_parts(self) -> tuple[list[np.ndarray], int]:
        """The sample as the transform reads it, in no promised order: views of
        flat points or of a sphere's cosine column as (n, 1), less each un-blurred
        block's last cells[0] rows, which never left the origin; and their count."""
        sample = self._sample if self.config.space.is_flat else self._sample[:, None]
        if self._cells is None or self.config.noise_tau:
            return [sample], 0
        moved = self._cells[:, 1:].sum(axis=1).tolist()
        return [sample[b * BLOCK:b * BLOCK + k] for b, k in enumerate(moved)], self.m - sum(moved)

    @property
    def cosines(self) -> np.ndarray | None:
        """A sphere's cosines of the distances to the origin, read-only; None
        on flat spaces."""
        if self.config.space.is_flat:
            return None
        if self._cosines is None:
            vars(self)["_cosines"] = _in_random_order(self._sample, self.config.seed)
        return self._cosines

    @property
    def points(self) -> np.ndarray:
        """The (m, ambient_dim) observation coordinates, read-only."""
        if self._points is None:
            if self.config.space.is_flat:
                pts = _in_random_order(self._sample, self.config.seed)
            else:
                pts = _lift_from_origin(self.config.space, self.cosines,
                                        _block_rng(self.config.seed, -1))
                pts.setflags(write=False)
            vars(self)["_points"] = pts
        return self._points

    @property
    def m(self) -> int:
        return len(self._sample)


def _check_points(pts: np.ndarray, space: Space) -> None:
    """Raise unless pts is a non-empty (m, ambient_dim) array of finite
    observations: angles in [0, 2 pi) on flat spaces, unit vectors on spheres."""
    if pts.ndim != 2 or pts.shape[1] != space.ambient_dim:
        raise ValueError("points must have shape (m, ambient_dim)")
    if pts.shape[0] == 0:
        raise ValueError("empty observation set")
    if not np.all(np.isfinite(pts)):
        raise ValueError("non-finite observation coordinates")
    if space.kind is SpaceKind.SPHERE:
        # the 1e-6 norm rule, on squared norms summed column by column
        sq = np.square(pts[:, 0])
        for j in range(1, pts.shape[1]):
            sq += np.square(pts[:, j])
        if not (1.0 - 1e-6) ** 2 <= sq.min() <= sq.max() <= (1.0 + 1e-6) ** 2:
            raise ValueError("sphere observations must lie on the unit sphere")
    elif pts.min() < -1e-9 or pts.max() >= 2.0 * math.pi + 1e-9:
        raise ValueError("flat observations must be angles in [0, 2*pi)")


def _in_random_order(sample: np.ndarray, seed: int) -> np.ndarray:
    """A read-only copy of a walked sample with each block of BLOCK rows put
    in a uniformly random order: one permutation per block, in block order,
    from the stream keyed (seed, -2)."""
    rng = _block_rng(seed, -2)
    out = np.empty_like(sample)
    for lo in range(0, len(sample), BLOCK):
        block = sample[lo:lo + BLOCK]
        out[lo:lo + BLOCK][rng.permutation(len(block))] = block
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# RNG


def _block_rng(seed: int, block: int) -> np.random.Generator:
    """SFC64 seeded by SeedSequence([seed, block] mod 2^64): a sample walks
    stream 0, draws its order from -2 and lifts from -1."""
    entropy = [seed % (1 << 64), block % (1 << 64)]
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy)))


# ---------------------------------------------------------------------------
# walk kernels


@functools.lru_cache(maxsize=8)
def _blur_law(space: Space, noise_tau: float) -> StepLaw:
    """The heat kernel at time tau^2/2, coefficients exp(-tau^2 * kappa / 2).

    On the circle/torus it is the wrapped normal with scale tau, which has
    an exact sampler.  Cached so that a block builds no law; on a sphere its
    radial table is the one every equal law reads.
    """
    if space.is_flat:
        return WrappedNormal(space, sigma=noise_tau, mean=(0.0,))
    return HeatZonal(space, tau0=noise_tau**2 / 2.0)


@functools.lru_cache(maxsize=8)
def _count_pmf(rate: float) -> np.ndarray:
    """The Poisson(rate) pmf p_0..p_K in log space (exp(-rate) underflows past
    745), cut at the first K + 1 > rate with p_K / (1 - rate/(K + 2)) < 2^-53
    and normalized; numpy's multinomial gives the last cell the remainder."""
    pmf, log_rate = [], math.log(rate)
    while True:
        k = len(pmf)
        pmf.append(math.exp(k * log_rate - rate - math.lgamma(k + 1)))
        if k + 1 > rate and pmf[-1] / (1.0 - rate / (k + 2)) < 2.0**-53:
            return np.array(pmf) / math.fsum(pmf)


@functools.lru_cache(maxsize=1)
def _half_turn_table() -> _RadialTable:
    """cos(phi) for phi ~ U[0, pi], the law of cos(2 pi U): a radial table
    of a flat density, whose knots are cos(pi k / 2^16).  The end cells
    interpolate the grid, so its end nodes sit on the knots next to 0 and
    pi; every cosine is then linear between cosines of angles pi/2^16
    apart, within (pi/2^16)^2/8 = 2.9e-10 of cos(pi U)."""
    step = math.pi / _RadialTable.CELLS
    grid = np.concatenate([[0.0], np.linspace(step, math.pi - step, _TABLE_NODES - 2),
                           [math.pi]])
    return _RadialTable(grid, np.ones(grid.size))


def _direction_cosines(dim: int, n: int, rng) -> np.ndarray:
    """Cosines of n uniform tangent directions on S^dim with the way back to
    the origin, the first coordinate of a uniform unit vector in R^dim:
    cos(pi U) from the half-turn table on S^2, 2U - 1 on S^3, else 2B - 1
    with B ~ Beta((dim-1)/2, (dim-1)/2)."""
    if dim == 2:
        return _half_turn_table().cosines(rng.random(n))
    c = rng.random(n) if dim == 3 else rng.beta((dim - 1) / 2.0, (dim - 1) / 2.0, n)
    return 2.0 * c - 1.0


def _sines(c: np.ndarray) -> np.ndarray:
    """sqrt(max(0, 1 - c^2)), the sines of angles in [0, pi] with cosines c."""
    s = 1.0 - c * c
    np.maximum(s, 0.0, out=s)
    return np.sqrt(s, out=s)


def _colatitude_step(z: np.ndarray, cos_d: np.ndarray, sin_d: np.ndarray,
                     c: np.ndarray) -> None:
    """In place: the cosines z of the distance to the origin after one zonal
    step of distance d in a direction at cosine c to the way back there,
    z cos d + (sqrt(1 - z^2) sin d) c, clipped to [-1, 1]."""
    s = _sines(z)
    s *= sin_d
    s *= c
    z *= cos_d
    z += s
    np.maximum(z, -1.0, out=z)
    np.minimum(z, 1.0, out=z)


def _sphere_cosines(config: ProcessConfig, rounds: list[int], rng,
                    out: np.ndarray) -> None:
    """The cosines z = cos(distance to origin) of zonal walks from the origin
    in the given rounds, written into out longest walk first.

    Their law is invariant under rotations fixing the origin, so only z is
    walked; `ObservationSet` lifts each endpoint along a uniform tangent at
    the origin, from a stream of its own.  The first round starts at the
    origin, where every walker lands at cos d and draws no direction.  The
    blur is one more step in the same order: the walkers that never moved
    land at cos d too and draw none.  Step cosines come from the radial
    tables and sines from them, sin d = sqrt(1 - cos^2 d); one call draws
    every direction.
    """
    space, n = config.space, out.shape[0]
    moved, *rounds = rounds or [0]  # the round from the origin, then the rest
    later = sum(rounds)
    cos_d = config.law._sphere_table.cosines(rng.random(moved + later))
    out[:moved] = cos_d[:moved]
    cos_d = cos_d[moved:]
    blur = _blur_law(space, config.noise_tau) if config.noise_tau else None
    if blur:
        cos_b = blur._sphere_table.cosines(rng.random(n))
        out[moved:] = cos_b[moved:]
    else:
        out[moved:] = 1.0
    dirs = _direction_cosines(space.dim, later + moved if blur else later, rng)
    sin_d = _sines(cos_d)
    lo = 0
    for na in rounds:
        _colatitude_step(out[:na], cos_d[lo:lo + na], sin_d[lo:lo + na], dirs[lo:lo + na])
        lo += na
    if blur:
        _colatitude_step(out[:moved], cos_b[:moved], _sines(cos_b[:moved]), dirs[lo:])


def _walk_endpoints(config: ProcessConfig, rng, out: np.ndarray) -> np.ndarray:
    """len(out) independent (blurred) time-t observations drawn from one
    stream, written into out longest walk first: points on flat spaces,
    cosines on spheres.  Returns the cells: cells[k] walkers make k steps,
    and round k moves the rounds[k] walkers that make more than k steps."""
    n = out.shape[0]
    cells = rng.multinomial(n, _count_pmf(config.t_lambda))
    movers = n - np.cumsum(cells)
    rounds = movers[:np.count_nonzero(movers)].tolist()
    if not config.space.is_flat:
        _sphere_cosines(config, rounds, rng, out)
        return cells
    disp = config.law.sample_displacements(sum(rounds), rng)
    out.fill(0.0)
    lo = 0
    for na in rounds:
        out[:na] += disp[lo:lo + na]
        lo += na
    if config.noise_tau:
        out += _blur_law(config.space, config.noise_tau).sample_displacements(n, rng)
    _wrap_angles(out)
    return cells


def sample_compound(config: ProcessConfig, m: int) -> ObservationSet:
    """m observations of the compound process under the given config."""
    if m < 1:
        raise ValueError("m must be >= 1")
    out = np.empty((m, config.space.ambient_dim) if config.space.is_flat else m)
    rng = _block_rng(config.seed, 0)
    cells = [_walk_endpoints(config, rng, out[lo:lo + BLOCK]) for lo in range(0, m, BLOCK)]
    return ObservationSet._adopt(out, config, np.array(cells, dtype=np.int64))


# ---------------------------------------------------------------------------
# CSV round trip


def _column_names(space: Space) -> list[str]:
    if space.kind is SpaceKind.SPHERE:
        return [f"x{j + 1}" for j in range(space.ambient_dim)]
    return [f"theta{j + 1}" for j in range(space.dim)]


def observations_text(obs: ObservationSet) -> str:
    """CSV text with a header comment carrying the full config; 17
    significant digits per coordinate (lossless for doubles)."""
    meta = json.dumps(obs.config.to_mapping(), sort_keys=True)
    lines = [f"# ProcessConfig {meta}", ",".join(_column_names(obs.config.space))]
    for row in obs.points:
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def write_observations(obs: ObservationSet, path) -> None:
    with open(path, "w") as fh:
        fh.write(observations_text(obs))


def read_observations(path) -> ObservationSet:
    with open(path) as fh:
        first = fh.readline().strip()
        if not first.startswith("# ProcessConfig "):
            raise ValueError("missing ProcessConfig header comment")
        config = ProcessConfig.from_mapping(json.loads(first[len("# ProcessConfig "):]))
        fh.readline()  # column names
        rows = [[float(v) for v in line.strip().split(",")]
                for line in fh if line.strip()]
    # no rows is a (0, ambient_dim) set, which the point check names as empty
    points = np.array(rows, dtype=float) if rows else np.empty((0, config.space.ambient_dim))
    return ObservationSet(points=points, config=config)
