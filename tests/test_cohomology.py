import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from poincare_ext import cohomology as coh
from poincare_ext import group as grp
from poincare_ext import model
from poincare_ext import orbits as orb
from poincare_ext.cli import suite_cohomology
from poincare_ext.conventions import EPS_LOWER, EPS_MIXED_LOWER, SQRT_MINUS_H
from poincare_ext.group import ModelParams, structure_constants
from poincare_ext.laurent import Laurent

#: the central charges the benchmark draws all-checks reports at
BENCH_B = (-3.0, -2.0, -1.3, -1.0, -0.7, -0.5, 0.5, 0.7, 1.0, 1.3, 2.0, 3.0)

#: central charges far outside the bench band, where a tolerance-based
#: rank reads B as 0 or overflows
EXTREME_B = tuple(s * b for b in (5e-324, 1e-310, 1e-10, 1e-8, 1e4, 1e300)
                  for s in (1.0, -1.0))


def svd_rank(mat, rtol=1e-9):
    """The float rank: singular values above rtol times the largest."""
    if not mat:
        return 0
    s = np.linalg.svd(np.array(mat, dtype=float), compute_uv=False)
    return int(np.sum(s > rtol * s[0])) if s[0] > 0 else 0


def eps_structure_constants(B):
    """c[C, A, B] from the conventions' epsilon tables, the oracle."""
    c = np.zeros((4, 4, 4))
    # [P_a, J] = sqrt(-h) eps_a^b P_b
    for a in range(2):
        for b in range(2):
            c[b, a, 2] = SQRT_MINUS_H * EPS_MIXED_LOWER[a, b]
            c[b, 2, a] = -SQRT_MINUS_H * EPS_MIXED_LOWER[a, b]
    # [P_a, P_b] = B eps_{ab} I
    for a in range(2):
        for b in range(2):
            c[3, a, b] = B * EPS_LOWER[a, b]
    return c


def test_catalog_expected_dimensions():
    for name, expected in coh.EXPECTED_DIMS.items():
        sc = coh.catalog_algebra(name)
        for degree, dim in expected.items():
            assert coh.cohomology_dim(degree, sc) == dim, (name, degree)


@pytest.mark.parametrize("B", EXTREME_B)
def test_cohomology_holds_at_every_nonzero_B(B):
    assert suite_cohomology(ModelParams(B))["pass"]


@pytest.mark.parametrize("B", BENCH_B + EXTREME_B)
def test_decided_tables_are_the_fractions_at_each_B(B):
    # the cohomology, series and orbit tables decided at B a Laurent
    # variable, against the same code in Fractions at the float B
    p = ModelParams(B)
    assert coh.decided_dims() == {
        name: coh.cohomology_dims(coh.EXPECTED_DIMS[name], coh.catalog_algebra(name, B))
        for name in coh.CATALOG_NAMES}
    assert grp.decided_series() == grp.structural_series(B)
    assert orb.decided_cases() == orb.check_cases(p)


def test_laurent_elimination_keeps_one_term_pivots():
    # Bareiss over Laurent polynomials in B: each pivot is one term c B^k,
    # nonzero at every B != 0, and each division by the last one is exact
    B = Laurent.var("B")
    assert model.rank([[2 * B, 3], [0, B]]) == 2
    assert model.rank([[B, 1], [B * B, B], [3 * B, 3]]) == 1
    assert model.row_basis([[B, 1], [1, 0]]) == [[-1, 0], [0, -1]]
    # 1 - B^2 vanishes at B = +-1 alone: the rule does not decide it
    with pytest.raises(ValueError, match="one-term rule does not decide"):
        model.rank([[1, B], [B, 1]])


def test_laurent_floor_division_is_exact_or_an_error():
    B = Laurent.var("B")
    assert (6 * B * B + 3 * B) // (3 * B) == 2 * B + 1
    assert (B * 1.5) // 3 == B * 0.5 and (B * (1 + 2j)) // (2 - 1j) == B * 1j
    assert B.as_integer_ratio() == (B, 1) and (B * 0.75).as_integer_ratio() == (3 * B, 4)
    for num, den, match in ((B + 1, 3, "not exact"), (B, B + 1, "divisor of 2 terms"),
                            (B, 0, "divisor of 0 terms")):
        with pytest.raises(ValueError, match=match):
            num // den


def test_differential_squares_to_zero():
    for name in coh.CATALOG_NAMES:
        sc = coh.catalog_algebra(name)
        for k in range(sc.n):
            d_k = coh.ce_differential(k, sc)
            d_k1 = coh.ce_differential(k + 1, sc)
            for row in d_k1:
                for col in zip(*d_k):
                    product = sum(a * b for a, b in zip(row, col))
                    assert isinstance(product, Fraction) and product == 0


def test_degree_zero_counts_center_pairing():
    # H^0 is the field itself for every algebra in the catalog
    for name in coh.CATALOG_NAMES:
        sc = coh.catalog_algebra(name)
        assert coh.cohomology_dim(0, sc) == 1


def test_top_and_beyond_degrees():
    sc = coh.catalog_algebra("i12")
    assert coh.ce_differential(sc.n, sc) == []
    # unimodular algebra: top cohomology is one-dimensional
    assert coh.cohomology_dim(sc.n, sc) == 1
    with pytest.raises(ValueError):
        coh.cohomology_dim(sc.n + 1, sc)


def test_rational_and_svd_ranks_agree():
    # the float SVD rank is the oracle of the exact rank, inside the bench
    # band where its relative threshold cannot drop B
    for B in BENCH_B:
        for name in coh.CATALOG_NAMES:
            sc = coh.catalog_algebra(name, B=B)
            for k in range(sc.n + 1):
                mat = coh.ce_differential(k, sc)
                assert all(isinstance(x, Fraction) for row in mat for x in row)
                assert svd_rank(mat) == model.rank(mat), (B, name, k)


def rational_rank(mat):
    """Gaussian elimination in Fractions, the oracle of Bareiss's integers."""
    rows = [[Fraction(x) for x in row] for row in mat]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


#: entries of every kind the elimination takes, zero often, and the float
#: extremes whose integer scales are longest
ENTRY = st.one_of(st.just(0), st.integers(-3, 3),
                  st.fractions(max_denominator=7).filter(lambda x: abs(x) < 9),
                  st.sampled_from((0.5, -1.3, 5e-324, 1e-300, 1e300, -1e300)))


@given(n=st.integers(1, 5), data=st.data())
def test_bareiss_rank_and_kernel_are_exact(n, data):
    rows = data.draw(st.lists(st.lists(ENTRY, min_size=n, max_size=n), max_size=5))
    # a dependent row, so that rank deficiency is drawn often
    if rows and data.draw(st.booleans()):
        rows.append([Fraction(a) - 2 * Fraction(b) for a, b in zip(rows[0], rows[-1])])
    r = model.rank(rows)
    assert r == rational_rank(rows) == len(model.row_basis(rows))
    assert model.rank(rows + model.row_basis(rows)) == r
    kern = model.kernel(rows, n)
    assert len(kern) == n - r and model.rank(kern) == len(kern)
    assert all(type(x) is int for v in kern for x in v)
    assert all(sum(Fraction(a) * b for a, b in zip(row, v)) == 0
               for row in rows for v in kern)


@pytest.mark.parametrize("B", BENCH_B + EXTREME_B)
def test_structure_constants_one_table(B):
    # group's floats, the exact catalog table and the epsilon formula agree
    # entry for entry
    oracle = eps_structure_constants(B)
    assert np.array_equal(structure_constants(ModelParams(B)), oracle)
    exact = coh.catalog_algebra("i12", B).c
    assert exact == tuple(tuple(tuple(map(Fraction, row)) for row in plane)
                          for plane in oracle)


def test_jacobi_violation_rejected():
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = 1.0  # not antisymmetric in the lower pair
    with pytest.raises(ValueError, match="exactly antisymmetric"):
        coh.StructureConstants(2, c, ("a", "b"), "bad")


def test_rounded_table_rejected():
    # so21 in a rotated basis: a Lie algebra up to round-off, which an
    # exact rank would read as rank, so the table is refused.  The float
    # tolerance of 1e-12 let it through.
    sc = coh.catalog_algebra("so21")
    c = np.array(sc.c, dtype=float)
    t = 0.7
    r = np.array([[np.cos(t), -np.sin(t), 0.0], [np.sin(t), np.cos(t), 0.0],
                  [0.0, 0.0, 1.0]])
    rotated = np.einsum("ec,cab,aA,bB->eAB", np.linalg.inv(r), c, r, r)
    jac = (np.einsum("eab,dec->dabc", rotated, rotated)
           + np.einsum("ebc,dea->dabc", rotated, rotated)
           + np.einsum("eca,deb->dabc", rotated, rotated))
    assert 0.0 < np.max(np.abs(jac)) <= 1e-12
    with pytest.raises(ValueError, match="exactly"):
        coh.StructureConstants(3, rotated, name="so21-rotated")


@pytest.mark.parametrize("value", (float("inf"), float("nan"), "x"))
def test_non_numbers_rejected(value):
    c = [[[0.0] * 2 for _ in range(2)] for _ in range(2)]
    c[0][0][1] = value
    with pytest.raises(ValueError, match="finite numbers"):
        coh.StructureConstants(2, c)


def test_load_algebra_roundtrip(tmp_path):
    path = tmp_path / "alg.json"
    path.write_text('{"dim": 2, "basis_names": ["x", "y"],'
                    ' "brackets": [[0, 1, [1.0, 0.0]]]}')
    sc = coh.load_algebra_file(path)
    assert sc.n == 2
    # solvable non-nilpotent 2d algebra: H^1 = 1, H^2 = 0
    assert coh.cohomology_dim(1, sc) == 1
    assert coh.cohomology_dim(2, sc) == 0


def test_load_algebra_reads_decimals_exactly(tmp_path):
    # [x, y] = 0.1 x: the file's 0.1 is the rational 1/10, not the nearest
    # double
    path = tmp_path / "alg.json"
    path.write_text('{"dim": 2, "brackets": [[0, 1, [0.1, 0]]]}')
    sc = coh.load_algebra_file(path)
    assert sc.c[0][0][1] == Fraction(1, 10) == -sc.c[0][1][0]
    assert sc.basis_names == ("T0", "T1") and sc.name == "alg"


def test_load_algebra_reads_utf8_in_the_c_locale(tmp_path):
    # JSON is UTF-8 (RFC 8259): under the C locale, with no UTF-8 mode,
    # the locale's ASCII reading raised UnicodeDecodeError
    path = tmp_path / "alg.json"
    path.write_bytes('{"dim": 2, "basis_names": ["Π0", "Π1"], "brackets": []}'
                     .encode("utf-8"))
    env = {**os.environ, "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C",
           "PYTHONUTF8": "0"}
    code = ("import sys\nfrom poincare_ext import cohomology as coh\n"
            "print(ascii(coh.load_algebra_file(sys.argv[1]).basis_names))")
    proc = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == ascii(("Π0", "Π1"))


def test_unknown_catalog_name():
    with pytest.raises(KeyError):
        coh.catalog_algebra("nope")
