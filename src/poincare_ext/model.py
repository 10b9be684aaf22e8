"""The model's parameters and the defining brackets of its Lie algebra.

Basis order (P0, P1, J, I).  The defining brackets

    [P_a, J] = sqrt(-h) eps_a^b P_b,   [P_a, P_b] = B eps_{ab} I,

with J and I commuting with I, are stated here once; `group` builds its
float structure constants from them, and `cohomology` its exact ones.
The module imports no numpy, so the cohomology command can load it
alone.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ModelParams", "BASIS_NAMES", "brackets"]

BASIS_NAMES = ("P0", "P1", "J", "I")


@dataclass(frozen=True)
class ModelParams:
    """Central charge B and hbar."""

    B: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if self.B == 0:
            raise ValueError("central charge B must be nonzero (the extension degenerates)")
        if not self.hbar > 0:
            raise ValueError("hbar must be positive")


def brackets(B) -> tuple:
    """The nonzero [T_A, T_C], A < C, as rows (A, C, (c^0, c^1, c^2, c^3)).

    With eps_{01} = -1, eps_0^1 = eps_1^0 = 1 and sqrt(-h) = 1 (see
    `conventions`).  The constants are exact in the type of B.
    """
    return ((0, 1, (0, 0, 0, -B)),   # [P0, P1] = B eps_{01} I
            (0, 2, (0, 1, 0, 0)),    # [P0, J] = eps_0^1 P1
            (1, 2, (1, 0, 0, 0)))    # [P1, J] = eps_1^0 P0
