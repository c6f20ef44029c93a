"""Numerical laboratory for dimerized hopping chains with random couplings."""

__version__ = "0.1.0"

# cli is left to `import sshlab.cli` (or `python -m sshlab`), so that running
# `python -m sshlab.cli` does not find it already imported
from . import analytic, born, ensemble, invariant, model, spectrum

__all__ = [
    "__version__",
    "analytic",
    "born",
    "cli",
    "ensemble",
    "invariant",
    "model",
    "spectrum",
]
