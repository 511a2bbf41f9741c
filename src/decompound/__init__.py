"""Step-density estimation for compound random walks on compact spaces.

Observations are positions, at a fixed time t, of walks that take a
Poisson(intensity * t) number of i.i.d. zonal steps on the circle, a torus,
or a sphere.  The package simulates such observations, inverts the
exponential link between observation and step spectra with truncated
log-estimators, reconstructs the step density under a spectral cutoff, and
benchmarks the convergence rates.
"""
from .spaces import (
    Space,
    SpaceKind,
    SpectralIndex,
    circle,
    conjugate_index,
    distance_to_origin,
    geodesic_step,
    make_index,
    parse_space,
    sphere,
    spectrum,
    spherical,
    torus,
    trapezoid_angles,
    weyl_census,
    zonal_quadrature,
    zonal_values,
)
from .steplaws import (
    CoefficientVector,
    HeatZonal,
    StepLaw,
    UniformCap,
    WrappedNormal,
    parse_law,
    quadrature_coefficients,
    sample_points,
    true_coefficients,
    uniform_tangents,
)
from .simulate import (
    ObservationSet,
    ProcessConfig,
    observations_text,
    read_observations,
    sample_compound,
    write_observations,
)
from .coeffs import (
    EmpiricalTransform,
    EstimatorConfig,
    Variant,
    deviation_bound,
    empirical_transform,
    estimate_coefficients,
    estimate_with_flag,
)
from .density import (
    CoverageError,
    DensityEstimate,
    L2Error,
    SobolevSpec,
    evaluate,
    l2_error,
    reconstruct,
    smoothing_cutoff,
    sobolev_norm,
    truth_table,
)
from .harness import (
    FitResult,
    StudyConfig,
    StudyResult,
    fit_rate,
    replicate_seed,
    run_census,
    run_coefficient_study,
    run_convergence_study,
    write_study_outputs,
)

__version__ = "0.1.0"

__all__ = [
    "Space", "SpaceKind", "SpectralIndex", "circle", "torus", "sphere",
    "parse_space", "spectrum", "spherical", "conjugate_index", "make_index",
    "geodesic_step", "distance_to_origin", "weyl_census", "zonal_values",
    "zonal_quadrature", "trapezoid_angles",
    "StepLaw", "HeatZonal", "WrappedNormal", "UniformCap", "CoefficientVector",
    "parse_law", "true_coefficients", "quadrature_coefficients",
    "sample_points", "uniform_tangents",
    "ProcessConfig", "ObservationSet", "sample_compound",
    "observations_text", "write_observations", "read_observations",
    "Variant", "EstimatorConfig", "EmpiricalTransform", "empirical_transform",
    "estimate_coefficients", "estimate_with_flag",
    "deviation_bound",
    "SobolevSpec", "DensityEstimate", "CoverageError", "L2Error",
    "smoothing_cutoff", "reconstruct", "l2_error", "sobolev_norm", "evaluate",
    "truth_table",
    "StudyConfig", "StudyResult", "FitResult", "fit_rate",
    "run_convergence_study", "run_coefficient_study", "run_census",
    "write_study_outputs", "replicate_seed",
    "__version__",
]
