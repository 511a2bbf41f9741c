"""Spectral-cutoff density reconstruction and exact coefficient-space errors.

The estimate is f_hat = sum over kappa <= T of d_pi * c_hat(pi) * phi_pi,
with T the smoothing cutoff scale * m^(2/(2s+d)).  Errors are computed in
coefficient space, where Parseval makes the variance/bias split exact:
everything below the cutoff is variance, the rest of the truth is bias.
Pointwise synthesis exists for output and plots only; it is
``spaces.spherical_synthesis``, whose blocks of points fit a fixed byte
budget, so its working memory does not grow with the number of points.
"""
from __future__ import annotations

import dataclasses
import json
import math
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .spaces import Space, conjugate_index, parse_space, spectrum, spherical_synthesis
from .steplaws import (
    CoefficientVector,
    HeatZonal,
    StepLaw,
    UniformCap,
    WrappedNormal,
    true_coefficients,
)
from .simulate import ObservationSet
from .coeffs import (EstimatorConfig, Variant, empirical_transform, estimate_with_flag,
                     require_inverse_invariant)

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
    """Smoothness order s, with an optional ball radius Q for checks."""

    s: float
    radius: float | None = None

    def __post_init__(self):
        if self.s <= 0:
            raise ValueError("s must be > 0")
        if self.radius is not None and self.radius <= 1:
            raise ValueError("radius must be > 1 when given")


def smoothing_cutoff(m: int, s: float, space: Space, scale: float = 1.0) -> float:
    """Casimir cutoff scale * m^(2/(2s+d)) balancing variance against bias."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if s <= 0 or scale <= 0:
        raise ValueError("s and scale must be positive")
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
        for ix in self.coeffs.indices():
            if ix.casimir > self.cutoff + 1e-12:
                raise ValueError(f"index {ix.label} lies beyond the cutoff")
            if ix.is_trivial and abs(self.coeffs[ix] - 1.0) > 1e-12:
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
    law = obs.config.law
    require_inverse_invariant(law, cfg.variant)
    space = obs.config.space
    cutoff = smoothing_cutoff(obs.m, spec.s, space, scale)
    indices = spectrum(space, cutoff)
    symmetrize = cfg.variant is not Variant.COMPLEX_LOG
    nu = empirical_transform(obs, indices, symmetrize=symmetrize)
    pairs = []
    truncated = []
    for ix in indices:
        value, flag = estimate_with_flag(nu, conjugate_index(space, ix), cfg)
        pairs.append((ix, value))
        if flag:
            truncated.append(ix.label)
    return DensityEstimate(
        coeffs=CoefficientVector(pairs, truncated=truncated),
        space=space,
        m=obs.m,
        cutoff=cutoff,
        s=spec.s,
        scale=scale,
        config=cfg,
    )


def l2_error(est: DensityEstimate, truth: CoefficientVector) -> L2Error:
    """Exact Parseval split of the squared L2 error.

    variance_term sums d |c_hat - c|^2 over the estimate's index set; every
    truth index outside that set contributes d |c|^2 to bias_term.  The truth
    vector must cover the estimate's indices and extend past the cutoff.
    """
    if truth.max_casimir < est.cutoff * (1.0 - 1e-12) - 1e-12:
        raise CoverageError("truth coefficients stop below the estimate's cutoff")
    variance = 0.0
    for ix, value in est.coeffs.items():
        if ix not in truth:
            raise CoverageError(f"truth is missing index {ix.label}")
        variance += ix.multiplicity * abs(value - truth[ix]) ** 2
    bias = sum(ix.multiplicity * abs(c) ** 2
               for ix, c in truth.items() if ix not in est.coeffs)
    return L2Error(variance, bias, variance + bias)


def sobolev_norm(coeffs: CoefficientVector, space: Space, s: float) -> float:
    """sqrt( sum d|c|^2 + sum d kappa^s |c|^2 ); plain L2 norm at s = 0.

    Raises when the top octaves of the supplied vector show a non-summable
    (or insufficiently resolved) tail against kappa^s.
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    entries = coeffs.items()
    if not entries:
        return 0.0
    weights = []
    for ix, c in entries:
        w = ix.multiplicity * abs(c) ** 2
        if s > 0:
            w *= 1.0 + ix.casimir**s
        weights.append((ix.casimir, w))
    total = sum(w for _, w in weights)
    kmax = max(k for k, _ in weights)
    if kmax > 1.0:
        # dyadic octaves [2^j, 2^{j+1}); the top one estimates the unseen tail
        j_top = math.floor(math.log2(kmax))
        top = sum(w for k, w in weights if 2.0**j_top <= k)
        prev = sum(w for k, w in weights if 2.0 ** (j_top - 1) <= k < 2.0**j_top)
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


def _synthesize(space: Space, coeffs: CoefficientVector, pts: np.ndarray) -> np.ndarray:
    weights = [ix.multiplicity * c for ix, c in coeffs.items()]
    return spherical_synthesis(space, coeffs.indices(), weights, pts)


def _conjugate_symmetric(space: Space, coeffs: CoefficientVector, tol: float = 1e-12) -> bool:
    for ix, c in coeffs.items():
        sigma = conjugate_index(space, ix)
        if sigma not in coeffs:
            return False
        if abs(coeffs[sigma] - c.conjugate()) > tol * max(1.0, abs(c)):
            return False
    return True


def evaluate(est: DensityEstimate, points):
    """Pointwise synthesis sum d_pi c(pi) phi_pi; returns the real part.

    For conjugate-symmetric coefficient vectors the imaginary residual is
    asserted to be at most 1e-9 (relative to the scale of the values).
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.shape[1] != est.space.ambient_dim:
        raise ValueError("point dimension does not match the space")
    values = _synthesize(est.space, est.coeffs, pts)
    residual = float(np.max(np.abs(values.imag))) if values.size else 0.0
    scale = max(1.0, float(np.max(np.abs(values.real))) if values.size else 0.0)
    if residual > 1e-9 * scale and _conjugate_symmetric(est.space, est.coeffs):
        raise FloatingPointError(
            f"imaginary residual {residual} exceeds 1e-9 for a symmetric estimate")
    out = values.real
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# ground truth with controlled coverage


def truth_table(law: StepLaw, cutoff: float, coverage: float = 1e-10
                ) -> tuple[CoefficientVector, float]:
    """Truth coefficients covering at least the given Casimir cutoff.

    HeatZonal/WrappedNormal extend until |c| drops below `coverage`
    (analytic decay); UniformCap extends to 4x the cutoff.  Returns (vector,
    tail), tail the squared L2 mass beyond the vector's support: exact for a
    cap (||f||^2 less the kept mass), else summed out to twice the reach.
    """
    if isinstance(law, HeatZonal):
        reach = math.log(1.0 / coverage) / law.tau0
    elif isinstance(law, WrappedNormal):
        reach = 2.0 * math.log(1.0 / coverage) / law.sigma**2
    elif isinstance(law, UniformCap):
        reach = max(4.0 * cutoff, 50.0)
    else:
        raise ValueError(f"no truth table for {type(law).__name__}")
    reach = max(float(cutoff), reach)
    extended = 2.0 * reach + 10.0
    indices = spectrum(law.space, extended)
    full = true_coefficients(law, indices)
    # always keep one spectrum level strictly past the cutoff so the table
    # provably covers every index an estimate at this cutoff may contain
    above = [ix.casimir for ix in indices if ix.casimir > cutoff]
    keep_to = max(reach, min(above)) if above else reach
    kept = [(ix, full[ix]) for ix in indices if ix.casimir <= keep_to]
    if isinstance(law, UniformCap):
        # f = 1/V on a set of normalized measure V, so ||f||^2 = 1/V = f(origin)
        tail = law.radial_density(0.0) - sum(ix.multiplicity * abs(v) ** 2 for ix, v in kept)
    else:
        tail = sum(ix.multiplicity * abs(full[ix]) ** 2
                   for ix in indices if ix.casimir > keep_to)
    return CoefficientVector(kept), float(tail)
