"""Random Gaussian states at the covariance-matrix level: symplectic spectra,
entanglement entropy, exact Haar-moment formulas, and Monte Carlo
concentration experiments.  The functions live in the submodules
(cvtypical.symplectic, .haar, .weingarten, .moments, .profiles, .harness,
.cli); the root holds the version and the seeded stream every draw uses."""

__version__ = "0.2.0"

from .haar import SeededStream

__all__ = ["SeededStream", "__version__"]
