"""Step-density estimation for compound random walks on compact spaces.

Observations are positions, at a fixed time t, of walks that take a
Poisson(intensity * t) number of i.i.d. zonal steps on the circle, a torus,
or a sphere.  The package simulates such observations, inverts the
exponential link between observation and step spectra with truncated
log-estimators, reconstructs the step density under a spectral cutoff, and
benchmarks the convergence rates.
"""
# Each module's __all__ is the one list of its public names; the package
# re-exports every one of them and adds only __version__.
from .spaces import *  # noqa: F401,F403
from .steplaws import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403
from .coeffs import *  # noqa: F401,F403
from .density import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403
from . import coeffs, density, harness, simulate, spaces, steplaws

__version__ = "0.1.0"

__all__ = [name for module in (spaces, steplaws, simulate, coeffs, density, harness)
           for name in module.__all__] + ["__version__"]
