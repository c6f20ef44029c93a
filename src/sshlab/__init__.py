"""Numerical laboratory for dimerized hopping chains with random couplings."""

__version__ = "0.1.0"

# cli is left to `import sshlab.cli` (or `python -m sshlab`), so that running
# `python -m sshlab.cli` does not find it already imported; born, which no
# ensemble run uses, is imported on first use (`__getattr__`)
from . import analytic, ensemble, invariant, model, spectrum

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


def __getattr__(name: str):
    if name == "born":
        import importlib

        return importlib.import_module(f"{__name__}.born")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
