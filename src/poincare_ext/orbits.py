"""Coadjoint orbit classification and the admissibility checks.

The dual space splits into three orbit types: u3 != 0 (two-dimensional
paraboloid-like surfaces in the hyperplane u3 = zeta3), the point orbits
on the u2 axis, and the mass-shell type surfaces u^a u_a = const in the
hyperplane u3 = 0, which gather into eight families separated by the
signs of the light-cone components u0 + u1 and u0 - u1.  `classify` and
`OrbitClass` are re-exported from `model`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .group import AlgebraElement, CoadjointPoint, bracket, row_and_null_space
from .conventions import SQRT_MINUS_H, minkowski_square
from .model import ModelParams, OrbitClass, _lightcone_signs, classify

__all__ = [
    "OrbitClass",
    "Subalgebra",
    "kirillov_form",
    "stability_subalgebra",
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
    """Span of algebra elements, checked for closure under the bracket."""

    basis: tuple
    name: str = ""
    params: ModelParams = field(default=ModelParams())

    def __post_init__(self):
        mat = np.array([b.array for b in self.basis])
        if np.linalg.matrix_rank(mat, tol=1e-12) != len(self.basis):
            raise ValueError("subalgebra basis is linearly dependent")
        for x in self.basis:
            for y in self.basis:
                z = bracket(x, y, self.params).array
                resid = z - mat.T @ np.linalg.lstsq(mat.T, z, rcond=None)[0]
                if np.max(np.abs(resid)) > 1e-10 * (1.0 + np.max(np.abs(z))):
                    raise ValueError(f"basis not closed under bracket: {self.name or mat}")

    @property
    def matrix(self) -> np.ndarray:
        return np.array([b.array for b in self.basis])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def annihilator(self) -> np.ndarray:
        """Basis (rows) of the annihilator of the span in the dual space."""
        return row_and_null_space(self.matrix, rcond=0.0)[1]  # basis is independent


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
    """Antisymmetric matrix K_{AB} = <zeta, [T_A, T_B]>."""
    basis = np.eye(4)
    k = np.zeros((4, 4))
    for a in range(4):
        for b in range(a + 1, 4):
            val = zeta.array @ bracket(AlgebraElement(basis[a]), AlgebraElement(basis[b]), p).array
            k[a, b] = val
            k[b, a] = -val
    return k


def stability_subalgebra(zeta: CoadjointPoint, p: ModelParams = ModelParams()) -> Subalgebra:
    """Kernel of the Kirillov form; orbit dimension is 4 minus its dimension."""
    kern = row_and_null_space(kirillov_form(zeta, p), rcond=1e-10)[1]
    return Subalgebra(tuple(AlgebraElement(row) for row in kern),
                      name=f"stab({zeta.u})", params=p)


def orbit_dimension(zeta: CoadjointPoint, p: ModelParams = ModelParams()) -> int:
    return 4 - stability_subalgebra(zeta, p).dim


def on_orbit(mu: CoadjointPoint, zeta: CoadjointPoint,
             p: ModelParams = ModelParams(), tol: float = 1e-9) -> bool:
    """Membership test for mu on the coadjoint orbit through zeta."""
    cls = classify(zeta, p)
    u0, u1, u2, u3 = mu.u
    scale = 1.0 + float(np.max(np.abs(zeta.array)))
    if cls.tag == "CaseA":
        if abs(u3 - zeta.u[3]) > tol * scale:
            return False
        want_u2 = (minkowski_square([u0, u1]) * SQRT_MINUS_H / (2 * p.B * u3)
                   - cls.labels["casimir"] * SQRT_MINUS_H / (2 * p.B * u3))
        return abs(u2 - want_u2) <= tol * (1.0 + abs(want_u2))
    if cls.tag == "CaseB":
        return bool(np.max(np.abs(mu.array - zeta.array)) <= tol * scale)
    # CaseC: u3 = 0, same mass shell, same connected component
    if abs(u3) > tol * scale:
        return False
    m2 = cls.labels["mass_square"]
    if abs(minkowski_square([u0, u1]) - m2) > tol * scale**2:
        return False
    return _lightcone_signs(u0, u1, tol=tol * scale) == \
        _lightcone_signs(zeta.u[0], zeta.u[1], tol=tol * scale)


def subordination_check(h: Subalgebra, zeta: CoadjointPoint,
                        p: ModelParams = ModelParams(), tol: float = 1e-12) -> bool:
    """True iff <zeta, [h, h]> = 0 on all basis pairs."""
    scale = 1.0 + float(np.max(np.abs(zeta.array)))
    for i, x in enumerate(h.basis):
        for y in h.basis[i + 1:]:
            if abs(zeta.array @ bracket(x, y, p).array) > tol * scale:
                return False
    return True


def pukanszky_check(h: Subalgebra, zeta: CoadjointPoint,
                    p: ModelParams = ModelParams(), samples: int = 100,
                    seed: int = 0) -> bool:
    """Sample the affine variety zeta + h^perp and test orbit membership.

    Each sample adds to zeta a combination of the annihilator basis with
    coefficients uniform in [-10, 10].  Requires subordination and the
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
    if perp.shape[0] == 0:
        return on_orbit(zeta, zeta, p)
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        coeffs = rng.uniform(-10.0, 10.0, perp.shape[0])
        mu = CoadjointPoint(zeta.array + coeffs @ perp)
        if not on_orbit(mu, zeta, p):
            return False
    return True
