"""Verification-grade numerical toolkit for the centrally extended
Poincare group in 1+1 dimensions: group law and adjoint calculus,
Lie-algebra cohomology, coadjoint-orbit classification, unitary
irreducible representations, polynomial quantization, and the quantum
dynamics of the uniformly accelerated relativistic particle.
"""

from .model import ModelParams

__version__ = "1.0.0"

__all__ = [
    "AlgebraElement",
    "CoadjointPoint",
    "GroupElement",
    "ModelParams",
    "bracket",
    "casimir_pairing",
    "coadjoint_action",
    "compose",
    "exp_map",
    "identity",
    "inverse",
    "log_map",
    "__version__",
]


def __getattr__(name):
    # the group names load numpy, so they are imported on first use
    # (PEP 562); `import poincare_ext` alone stays numpy-free
    if name in __all__:
        from . import group

        return getattr(group, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
