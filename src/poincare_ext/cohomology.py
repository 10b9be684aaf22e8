"""Chevalley-Eilenberg cohomology with trivial real coefficients.

Works for any finite-dimensional real Lie algebra handed over as
structure constants.  Ranks are computed twice: by SVD with a relative
singular-value threshold, and (when the structure constants are
rational) by exact Gaussian elimination over the rationals.  A
disagreement between the two is raised as an error -- cohomology
dimensions are integers and must not depend on a tolerance.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

__all__ = [
    "StructureConstants",
    "CochainSpace",
    "ce_differential",
    "cohomology_dim",
    "catalog_algebra",
    "load_algebra_file",
    "CATALOG_NAMES",
]

_SVD_RTOL = 1e-9


@dataclass(frozen=True)
class StructureConstants:
    """Structure constants c^C_{AB} with [T_A, T_B] = c^C_{AB} T_C."""

    n: int
    c: np.ndarray
    basis_names: tuple = ()
    name: str = ""

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.shape != (self.n, self.n, self.n):
            raise ValueError(f"structure constants must be {self.n}^3, got {c.shape}")
        object.__setattr__(self, "c", c)
        if np.max(np.abs(c + c.transpose(0, 2, 1))) > 1e-12:
            raise ValueError("structure constants are not antisymmetric in the lower indices")
        jac = (np.einsum("eab,dec->dabc", c, c)
               + np.einsum("ebc,dea->dabc", c, c)
               + np.einsum("eca,deb->dabc", c, c))
        top = float(np.max(np.abs(c)))  # a Python square overflows to inf quietly
        if np.max(np.abs(jac)) > 1e-12 * max(1.0, top * top):
            raise ValueError("structure constants violate the Jacobi identity")
        if not self.basis_names:
            object.__setattr__(self, "basis_names", tuple(f"T{i}" for i in range(self.n)))

    @functools.cached_property
    def is_rational(self) -> bool:
        """Whether every constant is a fraction with denominator <= 1e6.

        Decided once per table: every rank of its differentials asks.
        """
        flat = self.c.ravel()
        return all(abs(x - Fraction(x).limit_denominator(10**6)) < 1e-12 for x in flat)


@dataclass(frozen=True)
class CochainSpace:
    """Basis bookkeeping for Lambda^k of the dual space."""

    n: int
    degree: int
    basis: tuple = field(init=False)

    def __post_init__(self):
        if not 0 <= self.degree <= self.n:
            raise ValueError(f"degree {self.degree} out of range for dimension {self.n}")
        object.__setattr__(
            self, "basis", tuple(itertools.combinations(range(self.n), self.degree)))

    @property
    def dim(self) -> int:
        assert len(self.basis) == math.comb(self.n, self.degree)
        return len(self.basis)


def _insertion_sign(c: int, rest: tuple):
    """Sort (c,) + rest; return (sorted tuple, permutation sign) or None if repeated."""
    if c in rest:
        return None
    pos = sum(1 for r in rest if r < c)
    ordered = tuple(sorted((c,) + rest))
    return ordered, (-1) ** pos


def ce_differential(k: int, sc: StructureConstants) -> np.ndarray:
    """Matrix of d_k : Lambda^k -> Lambda^{k+1} for trivial coefficients.

    (d omega)(X_0,...,X_k) = sum_{i<j} (-1)^{i+j}
        omega([X_i, X_j], X_0,..., ^X_i,..., ^X_j,..., X_k).
    """
    if not 0 <= k <= sc.n:
        raise ValueError(f"degree {k} out of range for dimension {sc.n}")
    dom = CochainSpace(sc.n, k)
    if k == sc.n:
        return np.zeros((0, dom.dim))
    cod = CochainSpace(sc.n, k + 1)
    index = {t: i for i, t in enumerate(dom.basis)}
    mat = np.zeros((cod.dim, dom.dim))
    for row, s_tuple in enumerate(cod.basis):
        for i, j in itertools.combinations(range(k + 1), 2):
            rest = tuple(s_tuple[m] for m in range(k + 1) if m != i and m != j)
            pair_sign = (-1) ** (i + j)
            for c_idx in range(sc.n):
                coeff = sc.c[c_idx, s_tuple[i], s_tuple[j]]
                if coeff == 0.0:
                    continue
                hit = _insertion_sign(c_idx, rest)
                if hit is None:
                    continue
                ordered, sign = hit
                col = index.get(ordered)
                if col is not None:
                    mat[row, col] += pair_sign * sign * coeff
    return mat


def _svd_rank(mat: np.ndarray) -> int:
    if mat.size == 0:
        return 0
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > _SVD_RTOL * s[0]))


def _rational_rank(mat: np.ndarray) -> int:
    """Exact rank by fraction-free Gaussian elimination."""
    rows = [[Fraction(x).limit_denominator(10**6) for x in row] for row in mat]
    rank = 0
    ncols = mat.shape[1] if mat.size else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                factor = rows[r][col] / pv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _rank(mat: np.ndarray, sc: StructureConstants) -> int:
    r = _svd_rank(mat)
    if sc.is_rational:
        r_exact = _rational_rank(mat)
        if r != r_exact:
            raise ArithmeticError(
                f"rank disagreement: SVD says {r}, exact arithmetic says {r_exact}")
        return r_exact
    return r


def cohomology_dim(k: int, sc: StructureConstants) -> int:
    """dim H^k = dim ker d_k - rank d_{k-1}."""
    if not 0 <= k <= sc.n:
        raise ValueError(f"degree {k} out of range for dimension {sc.n}")
    d_k = ce_differential(k, sc)
    dim_k = math.comb(sc.n, k)
    kernel = dim_k - _rank(d_k, sc)
    image = _rank(ce_differential(k - 1, sc), sc) if k >= 1 else 0
    return kernel - image


# ---------------------------------------------------------------------------
# named-algebra catalog

_DATA_DIR = Path(__file__).parent / "data" / "algebras"

CATALOG_NAMES = ("i12", "p11", "wh", "so21")


def load_algebra_file(path) -> StructureConstants:
    """Read an algebra definition file.

    JSON schema: {"dim": n, "basis_names": [...],
                  "brackets": [[A, B, [c^0, ..., c^{n-1}]], ...]}
    listing [T_A, T_B] for A < B; antisymmetry is filled in.
    """
    spec = json.loads(Path(path).read_text())
    n = int(spec["dim"])
    c = np.zeros((n, n, n))
    for a, b, coeffs in spec["brackets"]:
        coeffs = np.asarray(coeffs, dtype=float)
        c[:, a, b] = coeffs
        c[:, b, a] = -coeffs
    return StructureConstants(n=n, c=c,
                              basis_names=tuple(spec.get("basis_names", ())),
                              name=spec.get("name", Path(path).stem))


def catalog_algebra(name: str, B: float = 1.0) -> StructureConstants:
    """Named algebras used by the test fixtures.

    i12 is the extended Poincare algebra (built from the model's structure
    constants so the B parameter threads through); the rest are loaded
    from the shipped data files.
    """
    if name == "i12":
        from .group import ModelParams, structure_constants

        return StructureConstants(
            n=4, c=structure_constants(ModelParams(B=B)),
            basis_names=("P0", "P1", "J", "I"), name="i12")
    path = _DATA_DIR / f"{name}.json"
    if not path.exists():
        raise KeyError(f"unknown algebra {name!r}; catalog: {CATALOG_NAMES}")
    return load_algebra_file(path)


#: expected cohomology dimensions for the catalog, degree -> dim
EXPECTED_DIMS = {
    "i12": {0: 1, 1: 1, 2: 0},
    "p11": {0: 1, 1: 1, 2: 1},
    "wh": {0: 1, 1: 2, 2: 2},
    "so21": {0: 1, 1: 0, 2: 0},
}
