"""Spectral-cutoff density reconstruction and exact coefficient-space errors.

The estimate is f_hat = sum over kappa <= T of d_pi * c_hat(pi) * phi_pi,
with T the smoothing cutoff scale * m^(2/(2s+d)) and c_hat from
``coeffs.estimate_coefficients`` at every index below T.  Errors are
computed in coefficient space, where Parseval makes the variance/bias split
exact: everything below the cutoff is variance, the rest of the truth is
bias.  ``truth_table`` supplies that truth.  A cap's tail beyond the table is
exact; heat and wrapped-normal tails read 0.0, since they are at most 4e-18
and ||f||^2 less the kept mass would carry rounding up to 4e-16.  The truth
table runs the law's coefficient formula once over the kept table, and the
truth table, the L2 split and the Sobolev norm read coefficient vectors as
arrays, with no SpectralIndex per entry, but round each term as scalar code
does (math.exp, Python's abs, the C pow of **) and add with math.fsum, so the
bits depend neither on numpy's SIMD dispatch nor on the order of the rows.
Pointwise synthesis, for output and plots only, folds each +- pair onto one
label with array operations and runs ``spaces.spherical_synthesis`` in
blocks of points that fit a fixed byte budget, so its working memory does
not grow with the points.
"""
from __future__ import annotations

import dataclasses
import json
import math
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .spaces import (Space, _as_points, _first_rows, _pair_labels, _spectrum_table, parse_space,
                     spherical_synthesis)
# perfbench/tracing.py wraps density.spectrum; drop this import with that wrap
from .spaces import spectrum  # noqa: F401
from .steplaws import (
    CoefficientVector,
    HeatZonal,
    StepLaw,
    UniformCap,
    WrappedNormal,
)
from .simulate import ObservationSet
from .coeffs import EstimatorConfig, estimate_coefficients
# perfbench/tracing.py wraps density.empirical_transform; drop this import
# with that wrap
from .coeffs import empirical_transform  # noqa: F401
# perfbench/tracing.py wraps density.estimate_with_flag; drop this import
# with that wrap
from .coeffs import estimate_with_flag  # noqa: F401

__all__ = [
    "SobolevSpec",
    "DensityEstimate",
    "CoverageError",
    "L2Error",
    "smoothing_cutoff",
    "reconstruct",
    "l2_error",
    "sobolev_norm",
    "evaluate",
    "truth_table",
]


class CoverageError(ValueError):
    """The supplied truth coefficients do not cover the comparison."""


L2Error = namedtuple("L2Error", ["variance_term", "bias_term", "total"])


@dataclass(frozen=True)
class SobolevSpec:
    """Smoothness order s."""

    s: float

    def __post_init__(self):
        if not 0.0 < self.s < math.inf:
            raise ValueError("s must be finite and > 0")


def smoothing_cutoff(m: int, s: float, space: Space, scale: float = 1.0) -> float:
    """Casimir cutoff scale * m^(2/(2s+d)) balancing variance against bias."""
    if m < 1:
        raise ValueError("m must be >= 1")
    for name, value in (("s", s), ("scale", scale)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0")
    return scale * float(m) ** (2.0 / (2.0 * s + space.dim))


@dataclass(frozen=True)
class DensityEstimate:
    """Coefficient-space density estimate below a Casimir cutoff."""

    coeffs: CoefficientVector
    space: Space
    m: int
    cutoff: float
    s: float | None = None
    scale: float | None = None
    config: EstimatorConfig | None = None

    def __post_init__(self):
        kappa = self.coeffs._casimir
        for row in np.flatnonzero((kappa == 0.0) | (kappa > self.cutoff + 1e-12)).tolist():
            if kappa[row] > self.cutoff + 1e-12:
                raise ValueError(f"index {tuple(self.coeffs._labels[row].tolist())} "
                                 "lies beyond the cutoff")
            if abs(complex(self.coeffs._values[row]) - 1.0) > 1e-12:
                raise ValueError("trivial coefficient must equal 1 (the estimate "
                                 "integrates to 1)")

    def evaluate(self, points):
        return evaluate(self, points)

    def rendered_values(self, points) -> np.ndarray:
        """Clip negatives and renormalize to unit mean over the given grid.

        For plotting only (assumes an equal-weight grid); error metrics always
        use the raw coefficients.
        """
        vals = np.maximum(np.atleast_1d(evaluate(self, points)), 0.0)
        mean = vals.mean()
        return vals / mean if mean > 0 else vals

    # -- serialization --------------------------------------------------------

    def to_files(self, csv_path, meta_path) -> None:
        self.coeffs.to_csv(csv_path)
        meta = {
            "space": self.space.spec_string(),
            "m": self.m,
            "cutoff": self.cutoff,
            "s": self.s,
            "scale": self.scale,
        }
        if self.config is not None:
            meta["config"] = {k: v.value if isinstance(v, Enum) else v
                              for k, v in dataclasses.asdict(self.config).items()}
        with open(meta_path, "w") as fh:
            json.dump(meta, fh, sort_keys=True, indent=2)
            fh.write("\n")

    @classmethod
    def from_files(cls, csv_path, meta_path) -> "DensityEstimate":
        with open(meta_path) as fh:
            meta = json.load(fh)
        config = EstimatorConfig(**meta["config"]) if meta.get("config") else None
        return cls(
            coeffs=CoefficientVector.from_csv(csv_path),
            space=parse_space(meta["space"]),
            m=int(meta["m"]),
            cutoff=float(meta["cutoff"]),
            s=meta.get("s"),
            scale=meta.get("scale"),
            config=config,
        )


def reconstruct(obs: ObservationSet, cfg: EstimatorConfig, spec: SobolevSpec,
                scale: float = 1.0) -> DensityEstimate:
    """Estimate every coefficient below the smoothing cutoff from observations."""
    space = obs.config.space
    cutoff = smoothing_cutoff(obs.m, spec.s, space, scale)
    return DensityEstimate(
        coeffs=estimate_coefficients(obs, _spectrum_table(space, cutoff), cfg),
        space=space,
        m=obs.m,
        cutoff=cutoff,
        s=spec.s,
        scale=scale,
        config=cfg,
    )


def _square_weights(mult: np.ndarray, values: np.ndarray) -> np.ndarray:
    """d * abs(c) ** 2 per entry, rounded as Python rounds it: abs is the C
    hypot, which is |Re c| exactly where Im c = 0 and is called per entry
    elsewhere, and ** is the C pow, which np.float_power calls."""
    mod = np.abs(values.real)
    if np.count_nonzero(values.imag):
        mixed = np.flatnonzero(values.imag)
        mod[mixed] = [abs(c) for c in values[mixed].tolist()]
    return mult * np.float_power(mod, 2.0)


def l2_error(est: DensityEstimate, truth: CoefficientVector) -> L2Error:
    """Exact Parseval split of the squared L2 error.

    variance_term sums d |c_hat - c|^2 over the estimate's index set; every
    truth index outside that set contributes d |c|^2 to bias_term.  The truth
    vector must cover the estimate's indices and extend past the cutoff.
    """
    if truth.max_casimir < est.cutoff * (1.0 - 1e-12) - 1e-12:
        raise CoverageError("truth coefficients stop below the estimate's cutoff")
    coeffs = est.coeffs
    if np.array_equal(truth._labels[:len(coeffs)], coeffs._labels):
        # a reconstruct's indices head its truth table
        rows, outside = slice(len(coeffs)), slice(len(coeffs), None)
    else:
        try:
            rows = [truth._rows[label] for label in map(tuple, coeffs._labels.tolist())]
        except KeyError as exc:
            raise CoverageError(f"truth is missing index {exc.args[0]}") from None
        outside = np.ones(len(truth), dtype=bool)
        outside[rows] = False
    variance = math.fsum(
        _square_weights(coeffs._mult, coeffs._values - truth._values[rows]).tolist())
    bias = math.fsum(_square_weights(truth._mult[outside], truth._values[outside]).tolist())
    return L2Error(variance, bias, variance + bias)


def sobolev_norm(coeffs: CoefficientVector, space: Space, s: float) -> float:
    """sqrt( sum d|c|^2 + sum d kappa^s |c|^2 ); plain L2 norm at s = 0.

    Raises when the top octaves of the supplied vector show a non-summable
    (or insufficiently resolved) tail against kappa^s.
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    if not len(coeffs):
        return 0.0
    kappa = coeffs._casimir
    weights = _square_weights(coeffs._mult, coeffs._values)
    if s > 0:
        weights *= 1.0 + np.float_power(kappa, s)
    total = math.fsum(weights.tolist())
    kmax = float(kappa.max())
    if kmax > 1.0:
        # dyadic octaves [2^j, 2^{j+1}); the top one estimates the unseen tail
        j_top = math.floor(math.log2(kmax))
        top = math.fsum(weights[2.0**j_top <= kappa].tolist())
        prev = math.fsum(weights[(2.0 ** (j_top - 1) <= kappa) & (kappa < 2.0**j_top)].tolist())
        if top > 1e-10 and prev > 0.0:
            if top >= prev:
                raise ValueError("coefficient tail is not summable against kappa^s "
                                 "(octave sums do not decrease)")
            ratio = top / prev
            projected_tail = top * ratio / (1.0 - ratio)
            if projected_tail > 1e-10:
                raise ValueError("Sobolev partial sums do not stabilize to 1e-10; "
                                 "extend the coefficient vector or lower s")
    return math.sqrt(total)


def evaluate(est: DensityEstimate, points):
    """Re sum d_pi c(pi) phi_pi at the points, real by construction: since
    phi_-n = conj phi_n, each +- pair folds onto its ``pair_label`` as
    d (c(n) + conj c(-n)), the same real part for any coefficient vector."""
    pts, single = _as_points(est.space, points)
    coeffs = est.coeffs
    keys = _pair_labels(est.space, coeffs._labels)
    own = (keys == coeffs._labels).all(axis=1)
    weights = coeffs._mult * np.where(own, coeffs._values, coeffs._values.conjugate())
    first, at = _first_rows(keys)
    folded = np.zeros(len(first), dtype=complex)
    np.add.at(folded, at, weights)
    out = spherical_synthesis(est.space, keys[first], folded, pts).real
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# ground truth with controlled coverage

# HeatZonal/WrappedNormal truth tables extend until |c| drops below this
_TRUTH_COVERAGE = 1e-10


def truth_table(law: StepLaw, cutoff: float) -> tuple[CoefficientVector, float]:
    """Truth coefficients covering at least the given Casimir cutoff.

    HeatZonal/WrappedNormal extend until |c| drops below _TRUTH_COVERAGE
    (analytic decay); UniformCap extends to 4x the cutoff.  Returns (vector,
    tail), tail the squared L2 mass beyond the vector's support.  A cap's
    tail is exact: ||f||^2 less the kept mass.  Heat and wrapped-normal
    tails are returned as 0.0: summed out to twice the reach they are at most
    4e-18 (circle, tori and spheres, tau0 in [0.045, 1], sigma in [0.3, 1.5]),
    while ||f||^2 less the kept mass carries rounding up to 4e-16, more than
    the smallest bias terms it would be added to.
    """
    if isinstance(law, HeatZonal):
        reach = math.log(1.0 / _TRUTH_COVERAGE) / law.tau0
    elif isinstance(law, WrappedNormal):
        reach = 2.0 * math.log(1.0 / _TRUTH_COVERAGE) / law.sigma**2
    elif isinstance(law, UniformCap):
        reach = max(4.0 * cutoff, 50.0)
    else:
        raise ValueError(f"no truth table for {type(law).__name__}")
    reach = max(float(cutoff), reach)
    # frequency or degree n + 1 lies past the cutoff, at Casimir (n+1)^2 on the
    # circle and tori and (n+1)(n+d) on spheres: the walk reaches the next level
    n, d = math.isqrt(int(cutoff)), law.space.dim
    labels, kappa, mult = _spectrum_table(law.space, max(reach, (n + 1) * (n + d)))
    # always keep one spectrum level strictly past the cutoff so the table
    # provably covers every index an estimate at this cutoff may contain
    keep = kappa <= max(reach, float(kappa[kappa > cutoff].min()))
    labels, kappa, mult = labels[keep], kappa[keep], mult[keep]
    values = law._coefficients(labels, kappa)
    tail = 0.0
    if isinstance(law, UniformCap):
        # f = 1/V on a set of normalized measure V, so ||f||^2 = 1/V = f(origin)
        tail = law.radial_density(0.0) - math.fsum(_square_weights(mult, values).tolist())
    return CoefficientVector._from_table(labels, kappa, mult, values), float(tail)
