"""Chevalley-Eilenberg cohomology with trivial real coefficients.

Works for any finite-dimensional real Lie algebra handed over as
structure constants.  The constants are held as exact fractions (every
float is one), and ranks come from `model.rank`, the package's one exact
elimination: cohomology dimensions are integers and must not depend on a
tolerance.  `decided_dims` ranks i12 once per process with B a
laurent.Laurent variable, so for every B != 0 at once, and the shipped
algebras, which have no B, once too.  The module imports no numpy.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

from .model import BASIS_NAMES, ModelParams, _Record, brackets, exact, rank

__all__ = [
    "StructureConstants",
    "ce_differential",
    "cohomology_dim",
    "cohomology_dims",
    "decided_dims",
    "catalog_algebra",
    "load_algebra_file",
    "CATALOG_NAMES",
]


class StructureConstants(_Record):
    """Structure constants c^C_{AB} with [T_A, T_B] = c^C_{AB} T_C.

    c is any nested n x n x n sequence of numbers, an array included; it is
    stored as nested tuples of exact Fractions, or of laurent.Laurent
    polynomials as they are (`model.exact`).  The table must be a Lie
    algebra exactly: round-off in a constant would read as rank.
    """

    __slots__ = ("n", "c", "basis_names", "name")

    def __init__(self, n: int, c: tuple, basis_names: tuple = (), name: str = ""):
        try:
            c = tuple(tuple(tuple(map(exact, row)) for row in plane)
                      for plane in c)
        except (TypeError, ValueError, OverflowError):
            c = ()
        if len(c) != n or any(len(plane) != n or any(len(row) != n for row in plane)
                              for plane in c):
            raise ValueError(f"structure constants must be {n}^3 finite numbers")
        if any(c[e][a][b] != -c[e][b][a]
               for e in range(n) for a in range(n) for b in range(a, n)):
            raise ValueError("structure constants are not exactly antisymmetric "
                             "in the lower indices")
        # [T_A, T_B] as {C: c^C_{AB}}, zeros skipped
        br = {(a, b): {e: c[e][a][b] for e in range(n) if c[e][a][b]}
              for a in range(n) for b in range(n)}
        # with antisymmetry, Jacobi holds whenever two indices repeat
        for x, y, z in itertools.combinations(range(n), 3):
            jac = {}
            for a, b, d in ((x, y, z), (y, z, x), (z, x, y)):
                for e, v in br[a, b].items():
                    for f, w in br[e, d].items():
                        jac[f] = jac.get(f, 0) + v * w
            if any(jac.values()):
                raise ValueError("structure constants do not satisfy the Jacobi "
                                 "identity exactly")
        super().__init__(n, c, basis_names or tuple(f"T{i}" for i in range(n)), name)


def ce_differential(k: int, sc: StructureConstants) -> list:
    """Exact rows of d_k : Lambda^k -> Lambda^{k+1} for trivial coefficients.

    (d omega)(X_0,...,X_k) = sum_{i<j} (-1)^{i+j}
        omega([X_i, X_j], X_0,..., ^X_i,..., ^X_j,..., X_k).
    One list of Fractions per basis k+1-form; no rows for k = n.
    """
    if not 0 <= k <= sc.n:
        raise ValueError(f"degree {k} out of range for dimension {sc.n}")
    if k == sc.n:
        return []
    # the basis k- and (k+1)-forms, as sorted index tuples
    index = {t: i for i, t in enumerate(itertools.combinations(range(sc.n), k))}
    cod = list(itertools.combinations(range(sc.n), k + 1))
    mat = [[Fraction(0)] * len(index) for _ in cod]
    for row, s_tuple in enumerate(cod):
        for i, j in itertools.combinations(range(k + 1), 2):
            rest = tuple(s_tuple[m] for m in range(k + 1) if m != i and m != j)
            pair_sign = (-1) ** (i + j)
            for c_idx in range(sc.n):
                coeff = sc.c[c_idx][s_tuple[i]][s_tuple[j]]
                if coeff and c_idx not in rest:
                    # sorting (c,) + rest moves c past the indices below it
                    sign = (-1) ** sum(1 for r in rest if r < c_idx)
                    col = index[tuple(sorted((c_idx,) + rest))]
                    mat[row][col] += pair_sign * sign * coeff
    return mat


def cohomology_dim(k: int, sc: StructureConstants) -> int:
    """dim H^k = dim ker d_k - rank d_{k-1}."""
    return cohomology_dims((k,), sc)[k]


def cohomology_dims(degrees, sc: StructureConstants) -> dict:
    """{k: dim H^k} for each k of degrees, each differential ranked once, so
    rank d_{k-1} serves both degree k - 1 and degree k."""
    for k in degrees:
        if not 0 <= k <= sc.n:
            raise ValueError(f"degree {k} out of range for dimension {sc.n}")
    ranks = {-1: 0}
    for d in sorted({d for k in degrees for d in (k - 1, k)} - {-1}):
        ranks[d] = rank(ce_differential(d, sc))
    return {k: math.comb(sc.n, k) - ranks[k] - ranks[k - 1] for k in degrees}


# ---------------------------------------------------------------------------
# named-algebra catalog

_DATA_DIR = Path(__file__).parent / "data" / "algebras"

CATALOG_NAMES = ("i12", "p11", "wh", "so21")


def _from_brackets(n: int, rows) -> list:
    """The n^3 table of rows (A, B, [c^0, ..., c^{n-1}]) listing [T_A, T_B]."""
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for a, b, coeffs in rows:
        for e, x in zip(range(n), coeffs, strict=True):
            c[e][a][b], c[e][b][a] = x, -x
    return c


def load_algebra_file(path) -> StructureConstants:
    """Read an algebra definition file.

    JSON schema: {"dim": n, "basis_names": [...],
                  "brackets": [[A, B, [c^0, ..., c^{n-1}]], ...]}
    listing [T_A, T_B] for A < B; antisymmetry is filled in.  A decimal
    is read as the rational it spells: 0.1 is 1/10.
    """
    spec = json.loads(Path(path).read_text(encoding="utf-8"), parse_float=Fraction)
    n = int(spec["dim"])
    return StructureConstants(n=n, c=_from_brackets(n, spec["brackets"]),
                              basis_names=tuple(spec.get("basis_names", ())),
                              name=spec.get("name", Path(path).stem))


def catalog_algebra(name: str, B: float = 1.0) -> StructureConstants:
    """Named algebras used by the test fixtures.

    i12 is the extended Poincare algebra, built from the model's defining
    brackets so the B parameter threads through; the rest are loaded
    from the shipped data files, once per process (_catalog_file).
    """
    if name == "i12":
        ModelParams(B=B)  # a nonzero B, or the model's ValueError
        return _i12(B)
    return _catalog_file(name)


def _i12(B) -> StructureConstants:
    """The extended Poincare algebra on model.brackets at B."""
    return StructureConstants(n=4, c=_from_brackets(4, brackets(B)),
                              basis_names=BASIS_NAMES, name="i12")


@functools.lru_cache(maxsize=None)
def _catalog_file(name: str) -> StructureConstants:
    """A shipped algebra file, parsed and validated on first use; a
    StructureConstants is immutable, so every caller shares it."""
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


@functools.cache
def decided_dims() -> dict:
    """{name: {k: dim H^k}} of the catalog at the degrees of EXPECTED_DIMS,
    once per process, on first use.

    i12's table is model.brackets at B the laurent.Laurent variable, so
    its ranks are decided for every B != 0 at once (`model.row_basis`'s
    one-term rule); the shipped algebras have no B.
    """
    from .laurent import Laurent
    return {name: cohomology_dims(EXPECTED_DIMS[name],
                                  _i12(Laurent.var("B")) if name == "i12"
                                  else _catalog_file(name))
            for name in CATALOG_NAMES}
