"""Coadjoint orbit classification and the admissibility checks.

The dual space splits into three orbit types: u3 != 0 (two-dimensional
paraboloid-like surfaces in the hyperplane u3 = zeta3), the point orbits
on the u2 axis, and the mass-shell type surfaces u^a u_a = const in the
hyperplane u3 = 0, which gather into eight families separated by the
signs of the light-cone components u0 + u1 and u0 - u1.  `classify` and
`OrbitClass` are re-exported from `model`, whose exact elimination decides
closure, h^perp, the Kirillov rank and subordination with no tolerance;
Pukanszky's condition is decided exactly too, as polynomial identities of
the orbit invariants on zeta + h^perp.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations

import numpy as np

from .group import AlgebraElement, CoadjointPoint
from .model import (ModelParams, OrbitClass, bracket, casimir, classify, kernel,
                    kirillov, rank, row_basis)

__all__ = [
    "OrbitClass",
    "Subalgebra",
    "kirillov_form",
    "classify",
    "subordination_check",
    "pukanszky_check",
    "MaximalityError",
    "CASE_A_SUBALGEBRA",
    "CASE_B_SUBALGEBRA",
    "CASE_C_SUBALGEBRA",
]


class MaximalityError(ValueError):
    """Subalgebra dimension is not maximal among subordinate subalgebras."""


@dataclass(frozen=True)
class Subalgebra:
    """Span of algebra elements, checked exactly for closure under the bracket."""

    basis: tuple
    name: str = ""
    params: ModelParams = field(default=ModelParams())

    def __post_init__(self):
        rows = self.rows
        if len(rows) != self.dim:
            raise ValueError("subalgebra basis is linearly dependent")
        # closed iff no pair's bracket raises the rank of the span
        if rank(rows + [bracket(x, y, self.params.B)
                        for x, y in combinations(rows, 2)]) > self.dim:
            raise ValueError(f"basis not closed under bracket: {self.name or rows}")

    @cached_property
    def rows(self) -> list:
        """An exact integer basis of the span, as rows."""
        return row_basis(b.v for b in self.basis)

    @property
    def dim(self) -> int:
        return len(self.basis)


def CASE_A_SUBALGEBRA(p: ModelParams = ModelParams()) -> Subalgebra:
    """(J, P+, I) with P+ = P0 + P1."""
    return Subalgebra(
        (AlgebraElement(0, 0, 1, 0), AlgebraElement(1, 1, 0, 0), AlgebraElement(0, 0, 0, 1)),
        name="(J, P+, I)", params=p)


def CASE_B_SUBALGEBRA(p: ModelParams = ModelParams()) -> Subalgebra:
    """The full algebra."""
    return Subalgebra(tuple(AlgebraElement(np.eye(4)[i]) for i in range(4)),
                      name="full", params=p)


def CASE_C_SUBALGEBRA(p: ModelParams = ModelParams()) -> Subalgebra:
    """The nilradical wh = span{P0, P1, I}."""
    return Subalgebra(
        (AlgebraElement(1, 0, 0, 0), AlgebraElement(0, 1, 0, 0), AlgebraElement(0, 0, 0, 1)),
        name="wh", params=p)


def kirillov_form(zeta: CoadjointPoint, p: ModelParams = ModelParams()) -> np.ndarray:
    """Antisymmetric K_{AB} = <zeta, [T_A, T_B]> = zeta_C c^C_{AB} in exact Fractions."""
    return np.array(kirillov([Fraction(x) for x in zeta.u], Fraction(p.B)),
                    dtype=object)


def orbit_dimension(zeta: CoadjointPoint, p: ModelParams = ModelParams()) -> int:
    return rank(kirillov_form(zeta, p))


def _invariants(tag: str, B) -> dict:
    """The invariants whose values at zeta cut its orbit out of the dual,
    each a polynomial of degree <= 2 in u.

    CaseA: u3 and the Casimir.  CaseB: the point itself.  CaseC: u3 (= 0),
    the mass shell u^a u_a and the light-cone components u0 + u1 and
    u0 - u1, whose signs name the orbit's family; an affine function keeps
    its sign on a whole affine space only if it is constant there.
    """
    if tag == "CaseA":
        return {"u3": lambda u: u[3], "casimir": lambda u: casimir(u, B)}
    if tag == "CaseB":
        return {"point": tuple}
    return {"u3": lambda u: u[3],
            "mass_shell": lambda u: u[0] * u[0] - u[1] * u[1],
            "lightcone": lambda u: (u[0] + u[1], u[0] - u[1])}


def _orbit_contains(zeta: CoadjointPoint, directions, p: ModelParams) -> bool:
    """True iff the whole affine space zeta + span(directions) lies on the
    orbit through zeta, decided exactly.

    Along the space u = zeta + sum s_i n_i each invariant is a polynomial
    of degree <= 2 in the coordinates s, and such a polynomial is constant
    iff it takes its value at s = 0 also at each s = +-e_i and e_i + e_j
    (i < j).  The invariants are compared there in Fractions.
    """
    u = [Fraction(x) for x in zeta.u]
    steps = [[s * x for x in n] for n in directions for s in (1, -1)]
    steps += [[a + b for a, b in zip(n, k)] for n, k in combinations(directions, 2)]
    invariants = _invariants(classify(zeta, p).tag, Fraction(p.B)).values()
    return all(f([a + b for a, b in zip(u, d)]) == f(u)
               for f in invariants for d in steps)


def subordination_check(h: Subalgebra, zeta: CoadjointPoint,
                        p: ModelParams = ModelParams()) -> bool:
    """True iff <zeta, [x, y]> = x K y^T is exactly 0 on all basis pairs of h."""
    u = [Fraction(x) for x in zeta.u]
    return not any(sum(a * b for a, b in zip(u, bracket(x, y, p.B)) if b)
                   for x, y in combinations(h.rows, 2))


def pukanszky_check(h: Subalgebra, zeta: CoadjointPoint,
                    p: ModelParams = ModelParams()) -> bool:
    """Pukanszky's condition zeta + h^perp in the orbit of zeta, decided
    exactly on the integer annihilator basis (`model.kernel`).

    Requires subordination and the maximality condition dim h = dim g -
    (orbit dim)/2; the latter raises MaximalityError so a maximality
    failure is not confused with a Pukanszky failure.
    """
    if not subordination_check(h, zeta, p):
        raise ValueError("subalgebra is not subordinate to zeta")
    odim = orbit_dimension(zeta, p)
    if 4 - h.dim != odim // 2:
        raise MaximalityError(
            f"codim {4 - h.dim} != half orbit dimension {odim // 2}")
    return _orbit_contains(zeta, kernel(h.rows, 4), p)
