"""Empirical spherical transform and log-link coefficient estimators.

The transform at index pi is the sample average of phi_pi over the
observations (optionally symmetrized to its real part); the sums come from
``spaces.spherical_sums``, whose blocks of observations fit a fixed byte
budget, so memory does not grow with m.  Its expectation is exp(t*Lambda*(c - 1))
where c is the step-law coefficient at the conjugate index under the
pairing <f, phi> = integral of f * conj(phi); on spheres and for
symmetrized transforms conjugation is a no-op.  Estimators invert the
link with a logarithm, guarded by the truncation rules below (a truncated
estimate is 0), and the noise-corrected variant adds the known heat-blur
compensation tau^2 * kappa / (2 t Lambda).
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .spaces import SpectralIndex, conjugate_index, index_label, spherical_sums
from .steplaws import StepLaw, true_coefficients
from .simulate import ObservationSet, ProcessConfig, sample_compound

__all__ = [
    "Variant",
    "EstimatorConfig",
    "EmpiricalTransform",
    "empirical_transform",
    "estimate_coefficient",
    "estimate_with_flag",
    "deviation_bound",
    "coefficient_mse",
    "coefficient_errors",
    "replicate_seed",
    "replicate_observations",
    "observed_noise_tau",
    "require_inverse_invariant",
    "standard_error",
]


class Variant(Enum):
    REAL_LOG = "real-log"
    REAL_LOG_UNTRUNCATED = "real-log-untruncated"
    COMPLEX_LOG = "complex-log"
    NOISE_CORRECTED = "noise-corrected"


_REAL_VARIANTS = (Variant.REAL_LOG, Variant.REAL_LOG_UNTRUNCATED)


@dataclass(frozen=True)
class EstimatorConfig:
    variant: Variant = Variant.REAL_LOG
    delta: float = 1.0
    intensity: float = 1.0
    time: float = 1.0
    noise_tau: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "variant", Variant(self.variant))
        if self.intensity <= 0 or self.time <= 0:
            raise ValueError("intensity and time must be positive")
        if self.variant is not Variant.REAL_LOG_UNTRUNCATED and self.delta <= 0:
            raise ValueError("delta must be > 0")
        if self.noise_tau < 0:
            raise ValueError("noise_tau must be >= 0")
        if self.variant is Variant.COMPLEX_LOG and self.t_lambda > math.pi / 2.0:
            warnings.warn(
                "complex-log with t*Lambda > pi/2: the principal branch may be "
                "invalid for coefficients far from 1",
                stacklevel=2,
            )

    @property
    def t_lambda(self) -> float:
        return self.intensity * self.time


class EmpiricalTransform:
    """Per-index sample averages of the spherical functions."""

    def __init__(self, values, m: int, symmetrized: bool, space):
        if m < 1:
            raise ValueError("m must be >= 1")
        self._values = {index_label(ix): complex(v) for ix, v in values}
        self.m = int(m)
        self.symmetrized = bool(symmetrized)
        self.space = space

    def value(self, index) -> complex:
        return self._values[index_label(index)]

    def __contains__(self, index) -> bool:
        return index_label(index) in self._values

    def labels(self):
        return sorted(self._values)


def _clamp_value(z: complex, symmetrized: bool) -> complex:
    # averages of unimodular values can exceed modulus 1 by an ulp; the
    # logarithm must not see that
    if symmetrized:
        return complex(min(max(z.real, -1.0), 1.0))
    mod = abs(z)
    return z / mod if mod > 1.0 else z


def empirical_transform(obs: ObservationSet, indices, symmetrize: bool = False) -> EmpiricalTransform:
    """Sample averages of phi_pi over the observations.

    symmetrize=True averages phi and its inversion pullback, i.e. keeps the
    real part; offer it only for laws that are inverse invariant.
    """
    indices = list(indices)
    sums = spherical_sums(obs.config.space, indices, obs.points)
    values = [(ix, _clamp_value(s / obs.m, symmetrize)) for ix, s in zip(indices, sums)]
    return EmpiricalTransform(values, m=obs.m, symmetrized=symmetrize, space=obs.config.space)


def estimate_with_flag(nu: EmpiricalTransform, index, cfg: EstimatorConfig) -> tuple[complex, bool]:
    """Coefficient estimate plus a flag marking truncation to 0.

    The returned value estimates the step-law coefficient at the conjugate
    of `index`; pass the conjugate index to target a specific coefficient
    (identity on spheres and for symmetrized transforms).
    """
    variant = cfg.variant
    if variant in _REAL_VARIANTS and not nu.symmetrized:
        raise ValueError(f"{variant.value} requires a symmetrized transform")
    if variant is Variant.COMPLEX_LOG and nu.symmetrized:
        raise ValueError("complex-log requires the unsymmetrized transform")

    z = nu.value(index)
    t_lambda = cfg.t_lambda
    threshold = cfg.delta / nu.m

    if variant is Variant.COMPLEX_LOG:
        if z.real > 0.0 and abs(z) >= threshold:
            return cmath.log(z) / t_lambda + 1.0, False
        return 0.0 + 0.0j, True

    r = z.real
    if variant is Variant.REAL_LOG_UNTRUNCATED:
        if r > 0.0:
            return complex(math.log(r) / t_lambda + 1.0), False
        return 0.0 + 0.0j, True

    if r >= threshold:
        value = math.log(r) / t_lambda + 1.0
        if variant is Variant.NOISE_CORRECTED:
            if not isinstance(index, SpectralIndex):
                raise ValueError("noise-corrected estimation needs a SpectralIndex "
                                 "(the correction depends on the Casimir eigenvalue)")
            value += cfg.noise_tau**2 * index.casimir / (2.0 * t_lambda)
        return complex(value), False
    return 0.0 + 0.0j, True


def estimate_coefficient(nu: EmpiricalTransform, index, cfg: EstimatorConfig) -> complex:
    """Log-link coefficient estimate; 0 when the truncation rule fires."""
    return estimate_with_flag(nu, index, cfg)[0]


def deviation_bound(gap: float, m: int) -> float:
    """One-sided Hoeffding bound exp(-gap^2 m / 4) for means of [-1, 1]
    variables at deviation `gap`; gap = nu/2 gives exp(-nu^2 m / 16)."""
    if not 0.0 < gap <= 2.0:
        raise ValueError("gap must lie in (0, 2]")
    if m < 1:
        raise ValueError("m must be >= 1")
    return math.exp(-(gap**2) * m / 4.0)


def replicate_seed(seed: int, m: int, replicate: int) -> int:
    """Independent per-replicate stream roots derived from (seed, m, replicate)."""
    ss = np.random.SeedSequence((seed % (1 << 64), m, replicate))
    return int(ss.generate_state(1, np.uint64)[0])


def replicate_observations(law: StepLaw, cfg: EstimatorConfig, m: int, seed: int,
                           lo: int, hi: int, noise_tau: float, sample):
    """Yield (replicate, observations) for replicates lo..hi-1 at sample size m,
    each from its own stream replicate_seed(seed, m, replicate).  `sample` is
    the caller's `sample_compound` (perfbench/tracing.py wraps each module's)."""
    for rep in range(lo, hi):
        config = ProcessConfig(law=law, intensity=cfg.intensity, time=cfg.time,
                               noise_tau=noise_tau, seed=replicate_seed(seed, m, rep))
        yield rep, sample(config, m)


def observed_noise_tau(variant: Variant, noise_tau: float,
                       observation_noise_tau: float | None = None) -> float:
    """Heat-blur scale of the generated data: observation_noise_tau when
    given, else the estimator's own observation model (noise_tau for the
    noise-corrected variant, 0 otherwise)."""
    if observation_noise_tau is not None:
        return observation_noise_tau
    return noise_tau if variant is Variant.NOISE_CORRECTED else 0.0


def require_inverse_invariant(law: StepLaw, variant: Variant) -> None:
    """Real-log variants read only Re(nu), which fixes c only for inverse-invariant laws."""
    if variant in _REAL_VARIANTS and not law.inverse_invariant:
        raise ValueError("real-log variants require an inverse-invariant law")


def standard_error(values: np.ndarray) -> float:
    """Standard error of a replicate mean, std(ddof=1) / sqrt(n) (the same
    as its jackknife estimate); nan for fewer than two values."""
    if values.size < 2:
        return float("nan")
    return float(values.std(ddof=1) / math.sqrt(values.size))


def coefficient_errors(
    law: StepLaw,
    cfg: EstimatorConfig,
    index: SpectralIndex,
    m: int,
    replicates: int,
    seed: int,
    observation_noise_tau: float | None = None,
    first_replicate: int = 0,
) -> np.ndarray:
    """Squared estimation errors |c_hat - c|^2 over independent replicates.

    observation_noise_tau sets the blur in the generated data (default: see
    observed_noise_tau).  Pass it explicitly to study a mismatched
    estimator, e.g. plain real-log on noisy data.  first_replicate offsets
    the replicate-stream indices so work can be sharded across workers
    without changing the draws.
    """
    require_inverse_invariant(law, cfg.variant)
    symmetrize = cfg.variant is not Variant.COMPLEX_LOG
    conj = conjugate_index(law.space, index)
    truth = true_coefficients(law, [index])[index]
    errs = np.empty(replicates)
    for j, (_, obs) in enumerate(replicate_observations(
            law, cfg, m, seed, first_replicate, first_replicate + replicates,
            observed_noise_tau(cfg.variant, cfg.noise_tau, observation_noise_tau),
            sample_compound)):
        nu = empirical_transform(obs, [conj], symmetrize=symmetrize)
        est = estimate_coefficient(nu, conj, cfg)
        errs[j] = abs(est - truth) ** 2
    return errs


def coefficient_mse(
    law: StepLaw,
    cfg: EstimatorConfig,
    index: SpectralIndex,
    m: int,
    replicates: int,
    seed: int,
    observation_noise_tau: float | None = None,
) -> tuple[float, float]:
    """Monte Carlo MSE of the coefficient estimator and its standard error."""
    errs = coefficient_errors(law, cfg, index, m, replicates, seed,
                              observation_noise_tau=observation_noise_tau)
    return float(errs.mean()), standard_error(errs)
