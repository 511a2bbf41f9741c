"""Empirical spherical transform and log-link coefficient estimators.

The transform at index pi is the sample average of phi_pi over the
observations (optionally symmetrized to its real part); the sums come from
``spaces.spherical_sums``, whose blocks of observations fit a fixed byte
budget, so memory does not grow with m.  Its expectation is exp(t*Lambda*(c - 1))
where c is the step-law coefficient at the conjugate index under the
pairing <f, phi> = integral of f * conj(phi); on spheres and for
symmetrized transforms conjugation is a no-op.  The transform is therefore
itself a ``CoefficientVector``, the endpoint law's, over the labels asked for
(in their order) with their Casimir eigenvalues and multiplicities, and it
carries m and whether it was symmetrized.  An un-blurred walked sample
hands over its movers and a count of the walkers at the origin, where phi = 1;
the circle's symmetrized sums are the lam = 0 zonal recurrence T_n(cos theta).
Estimators invert the link with a logarithm, guarded by one truncation rule
for every variant (a truncated estimate is 0), and the noise-corrected
variant adds the known heat-blur compensation tau^2 * kappa / (2 t Lambda),
with kappa read from the transform's row.

``estimate_coefficients`` is the one estimation step of both studies: the
density study applies it to the spectrum table below the cutoff, the
coefficient study to the one-row table of its index, built once per study.
It reads label arrays (conjugates and +- pair labels are array operations)
and runs the scalar ``estimate_with_flag`` once per distinct transform
value, so a symmetrized +- pair is estimated once.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .spaces import (SpectralIndex, _first_rows, _label_array, _levels, _pair_labels,
                     index_label, spherical_sums)
from .steplaws import CoefficientVector, StepLaw
from .simulate import ObservationSet
# perfbench/tracing.py wraps coeffs.sample_compound; drop this import with
# that wrap
from .simulate import sample_compound  # noqa: F401

__all__ = [
    "Variant",
    "EstimatorConfig",
    "EmpiricalTransform",
    "empirical_transform",
    "estimate_coefficients",
    "estimate_with_flag",
    "deviation_bound",
]


class Variant(Enum):
    REAL_LOG = "real-log"
    COMPLEX_LOG = "complex-log"
    NOISE_CORRECTED = "noise-corrected"

    @property
    def symmetrized(self) -> bool:
        """Every variant but complex-log reads only Re nu, the symmetrized transform."""
        return self is not Variant.COMPLEX_LOG


@dataclass(frozen=True)
class EstimatorConfig:
    variant: Variant = Variant.REAL_LOG
    delta: float = 1.0
    t_lambda: float = 1.0
    noise_tau: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "variant", Variant(self.variant))
        if not 0.0 < self.t_lambda < math.inf:
            raise ValueError("t_lambda must be finite and > 0")
        for name in ("delta", "noise_tau"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        # arg nu = t*Lambda*Im c with |Im c| <= 1: the principal branch is exact
        # while t*Lambda < pi, and a wrong-branch value can pass the Re nu > 0
        # rule only once t*Lambda >= 3 pi / 2
        if self.variant is Variant.COMPLEX_LOG and self.t_lambda >= 1.5 * math.pi:
            raise ValueError("complex-log needs t*Lambda < 3*pi/2: beyond it the "
                             "Re nu > 0 rule can keep a wrong-branch logarithm")
        if self.variant is Variant.COMPLEX_LOG and self.t_lambda > math.pi / 2.0:
            warnings.warn(
                "complex-log with t*Lambda > pi/2: the Re nu > 0 rule truncates "
                "every estimate whose phase t*Lambda*Im c leaves (-pi/2, pi/2)",
                stacklevel=2,
            )


class EmpiricalTransform(CoefficientVector):
    """The empirical transform nu_hat: a CoefficientVector of the endpoint
    law's sample averages, carrying the sample size m and whether the
    averages were symmetrized."""

    def __init__(self, values, m: int, symmetrized: bool):
        super().__init__(values)
        if m < 1:
            raise ValueError("m must be >= 1")
        self.m, self.symmetrized = int(m), bool(symmetrized)

    def value(self, index) -> complex:
        return self[index]

    def labels(self):
        return sorted(self._rows)


def _clamp_value(z: complex, symmetrized: bool) -> complex:
    # averages of unimodular values can exceed modulus 1 by an ulp; the
    # logarithm must not see that
    if symmetrized:
        return complex(min(max(z.real, -1.0), 1.0))
    mod = abs(z)
    return z / mod if mod > 1.0 else z


def _clamped(means: np.ndarray, symmetrized: bool) -> np.ndarray:
    """``_clamp_value`` of each mean, bit for bit: a clip of the real parts,
    or the scalar rule where a modulus may reach 1 (np.abs and the scalar
    abs can differ in the last bit, hence the margin)."""
    if symmetrized:
        return np.minimum(np.maximum(means.real, -1.0), 1.0).astype(complex)
    out = means.astype(complex)
    for i in np.flatnonzero(np.abs(means) > 1.0 - 1e-9).tolist():
        out[i] = _clamp_value(means[i], False)
    return out


def empirical_transform(obs: ObservationSet, indices, symmetrize: bool = False) -> EmpiricalTransform:
    """Sample averages of phi_pi over the observations, at SpectralIndex
    objects, raw labels or an (N, rank) label array, kept in that order.

    symmetrize=True averages phi and its inversion pullback, i.e. keeps the
    real part; offer it only for laws that are inverse invariant.
    """
    space = obs.config.space
    labels = _label_array(space, indices)
    # Re phi is the same at n and -n, so one sum serves the pair
    keys = _pair_labels(space, labels) if symmetrize else labels
    # a sum reads no order: the set hands over its sample as walked (a sphere's
    # cosine column, all phi reads) less the walkers at the origin, and their count
    parts, still = obs._transform_parts()
    means = (spherical_sums(space, keys, parts, symmetrize) + still) / obs.m
    nu = EmpiricalTransform._from_table(labels, *_levels(space, labels),
                                        _clamped(means, symmetrize))
    nu.m, nu.symmetrized = obs.m, bool(symmetrize)
    return nu


def estimate_with_flag(nu: EmpiricalTransform, index, cfg: EstimatorConfig) -> tuple[complex, bool]:
    """Coefficient estimate 1 + Log nu / (t Lambda) plus a flag marking
    truncation to 0.

    One rule serves every variant: the estimate is kept iff Re nu > 0 and
    |nu| >= delta / m (delta = 0 keeps every Re nu > 0).  The returned value
    estimates the step-law coefficient at the conjugate of `index`; pass the
    conjugate index to target a specific coefficient (identity on spheres
    and for symmetrized transforms).
    """
    variant = cfg.variant
    if nu.symmetrized != variant.symmetrized:
        state = "a symmetrized" if variant.symmetrized else "the unsymmetrized"
        raise ValueError(f"{variant.value} requires {state} transform")

    row = nu._rows[index_label(index)]
    z = complex(nu._values[row])
    if not (z.real > 0.0 and abs(z) >= cfg.delta / nu.m):
        return 0.0 + 0.0j, True
    if not variant.symmetrized:
        return cmath.log(z) / cfg.t_lambda + 1.0, False
    # math.log, not cmath.log: the two round differently for |z| in [0.71, 1.73]
    value = math.log(z.real) / cfg.t_lambda + 1.0
    if variant is Variant.NOISE_CORRECTED:
        value += cfg.noise_tau**2 * nu._casimir[row].item() / (2.0 * cfg.t_lambda)
    return complex(value), False


def _index_table(indices):
    """(labels, casimir, multiplicity) of SpectralIndex objects, in (casimir,
    label) order and each label once, as ``CoefficientVector`` sorts them; such
    a table of arrays, as ``spaces._spectrum_table`` gives it, is taken as it is."""
    if isinstance(indices, tuple) and len(indices) == 3 and isinstance(indices[0], np.ndarray):
        return indices
    table = CoefficientVector((ix, 0j) for ix in indices)
    return table._labels, table._casimir, table._mult


def estimate_coefficients(obs: ObservationSet, indices, cfg: EstimatorConfig) -> CoefficientVector:
    """Estimates c_hat(pi) = 1 + log nu_hat(conj pi) / (t Lambda) at each index,
    0 where the truncation rule fires (those indices are marked truncated).

    indices are SpectralIndex objects, or a (labels, casimir, multiplicity)
    table in (casimir, label) order such as ``spaces._spectrum_table`` gives.
    The transform is taken at the conjugate labels, symmetrized unless the
    variant is complex-log, and ``estimate_with_flag`` runs once per distinct
    transform value: a symmetrized +- pair reads one Re nu, so one estimate
    serves both.
    """
    require_inverse_invariant(obs.config.law, cfg.variant)
    space = obs.config.space
    labels, kappa, mult = _index_table(indices)
    conj = -labels if space.is_flat else labels  # sphere degrees are their own conjugates
    symmetrized = cfg.variant.symmetrized
    # module globals, read at call time (perfbench/tracing.py wraps them)
    nu = empirical_transform(obs, conj, symmetrize=symmetrized)
    first, at = _first_rows(_pair_labels(space, conj) if symmetrized else conj)
    values = np.empty(len(first), dtype=complex)
    truncated = np.empty(len(first), dtype=bool)
    for j, (label, k, d) in enumerate(zip(conj[first].tolist(), kappa[first].tolist(),
                                          mult[first].tolist())):
        values[j], truncated[j] = estimate_with_flag(nu, SpectralIndex(tuple(label), k, d), cfg)
    return CoefficientVector._from_table(labels, kappa, mult, values[at], truncated[at])


def deviation_bound(gap: float, m: int) -> float:
    """One-sided Hoeffding bound exp(-gap^2 m / 4) for means of [-1, 1]
    variables at deviation `gap`; gap = nu/2 gives exp(-nu^2 m / 16)."""
    if not 0.0 < gap <= 2.0:
        raise ValueError("gap must lie in (0, 2]")
    if m < 1:
        raise ValueError("m must be >= 1")
    return math.exp(-(gap**2) * m / 4.0)


def require_inverse_invariant(law: StepLaw, variant: Variant) -> None:
    """Symmetrized variants read only Re(nu), which fixes c only for inverse-invariant laws."""
    if variant.symmetrized and not law.inverse_invariant:
        raise ValueError("real-log variants require an inverse-invariant law: "
                         f"{variant.value} reads only Re nu")
