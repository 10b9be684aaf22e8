"""Coadjoint orbit classification and the admissibility checks.

The dual space splits into three orbit types: u3 != 0 (two-dimensional
paraboloid-like surfaces in the hyperplane u3 = zeta3), the point orbits
on the u2 axis, and the mass-shell type surfaces u^a u_a = const in the
hyperplane u3 = 0, which gather into eight families separated by the
signs of the light-cone components u0 + u1 and u0 - u1.  `classify` and
`OrbitClass` are re-exported from `model`, whose exact elimination decides
closure, h^perp, the Kirillov rank and subordination with no tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations

import numpy as np

from .group import AlgebraElement, CoadjointPoint
from .conventions import SQRT_MINUS_H, minkowski_square
from .model import (ModelParams, OrbitClass, bracket, brackets, classify, kernel,
                    rank, row_basis)

__all__ = [
    "OrbitClass",
    "Subalgebra",
    "kirillov_form",
    "classify",
    "on_orbit",
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

    def annihilator(self) -> np.ndarray:
        """Basis (rows) of the span's annihilator: the exact kernel, rows at max-norm 1."""
        kern = kernel(self.rows, 4)
        return np.array([[v / max(map(abs, x)) for v in x] for x in kern]).reshape(-1, 4)


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
    u = [Fraction(x) for x in zeta.u]
    k = np.zeros((4, 4), dtype=object)
    for a, b, coeffs in brackets(Fraction(p.B)):
        k[a, b] = sum(x * c for x, c in zip(u, coeffs) if c)
        k[b, a] = -k[a, b]
    return k


def orbit_dimension(zeta: CoadjointPoint, p: ModelParams = ModelParams()) -> int:
    return rank(kirillov_form(zeta, p))


def _lightcone_signs(u, tol: float) -> np.ndarray:
    """Signs of u0 + u1 and u0 - u1, 0 within tol, over the last axis of u."""
    cone = np.stack([u[..., 0] + u[..., 1], u[..., 0] - u[..., 1]], axis=-1)
    return np.where(np.abs(cone) <= tol, 0.0, np.sign(cone))


def on_orbit(mu: CoadjointPoint, zeta: CoadjointPoint,
             p: ModelParams = ModelParams()) -> bool | np.ndarray:
    """Membership test for mu on the coadjoint orbit through zeta, to a
    relative 1e-9.

    A single point mu gives a bool; a batch of shape S gives an array of
    S bools, each the bool of that point alone.
    """
    tol = 1e-9
    cls = classify(zeta, p)
    u = mu.array
    u2, u3 = u[..., 2], u[..., 3]
    scale = 1.0 + float(np.max(np.abs(zeta.array)))
    if cls.tag == "CaseA":
        # a point with u3 = 0 fails the u3 test, whatever its want_u2
        with np.errstate(divide="ignore", invalid="ignore"):
            want_u2 = (minkowski_square(u[..., :2]) * SQRT_MINUS_H / (2 * p.B * u3)
                       - cls.labels["casimir"] * SQRT_MINUS_H / (2 * p.B * u3))
        ok = ((np.abs(u3 - zeta.u[3]) <= tol * scale)
              & (np.abs(u2 - want_u2) <= tol * (1.0 + np.abs(want_u2))))
    elif cls.tag == "CaseB":
        ok = np.max(np.abs(u - zeta.array), axis=-1) <= tol * scale
    else:
        # CaseC: u3 = 0, same mass shell, same connected component
        ok = ((np.abs(u3) <= tol * scale)
              & (np.abs(minkowski_square(u[..., :2]) - cls.labels["mass_square"])
                 <= tol * scale**2)
              & np.all(_lightcone_signs(u, tol * scale)
                       == _lightcone_signs(zeta.array, tol * scale), axis=-1))
    return bool(ok) if u.ndim == 1 else ok


def subordination_check(h: Subalgebra, zeta: CoadjointPoint,
                        p: ModelParams = ModelParams()) -> bool:
    """True iff <zeta, [x, y]> = x K y^T is exactly 0 on all basis pairs of h."""
    u = [Fraction(x) for x in zeta.u]
    return not any(sum(a * b for a, b in zip(u, bracket(x, y, p.B)) if b)
                   for x, y in combinations(h.rows, 2))


def pukanszky_check(h: Subalgebra, zeta: CoadjointPoint,
                    p: ModelParams = ModelParams(), samples: int = 100,
                    seed: int = 0) -> bool:
    """Sample the affine variety zeta + h^perp and test orbit membership.

    Each sample adds to zeta a combination of the annihilator basis with
    coefficients uniform in [-10, 10]; the samples are drawn as one batch
    and tested by one on_orbit call.  Requires subordination and the
    maximality condition dim h = dim g - (orbit dim)/2; the latter raises
    MaximalityError so a maximality failure is not confused with a
    Pukanszky failure.
    """
    if not subordination_check(h, zeta, p):
        raise ValueError("subalgebra is not subordinate to zeta")
    odim = orbit_dimension(zeta, p)
    if 4 - h.dim != odim // 2:
        raise MaximalityError(
            f"codim {4 - h.dim} != half orbit dimension {odim // 2}")
    perp = h.annihilator()
    coeffs = np.random.default_rng(seed).uniform(-10.0, 10.0,
                                                 (samples, perp.shape[0]))
    return bool(np.all(on_orbit(CoadjointPoint(zeta.array + coeffs @ perp),
                                zeta, p)))
