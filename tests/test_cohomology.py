import functools

import numpy as np
import pytest

from poincare_ext import cohomology as coh


def test_catalog_expected_dimensions():
    for name, expected in coh.EXPECTED_DIMS.items():
        sc = coh.catalog_algebra(name)
        for degree, dim in expected.items():
            assert coh.cohomology_dim(degree, sc) == dim, (name, degree)


def test_differential_squares_to_zero():
    for name in coh.CATALOG_NAMES:
        sc = coh.catalog_algebra(name)
        for k in range(sc.n):
            d_k = coh.ce_differential(k, sc)
            d_k1 = coh.ce_differential(k + 1, sc)
            if d_k.size and d_k1.size:
                assert np.max(np.abs(d_k1 @ d_k)) < 1e-12


def test_degree_zero_counts_center_pairing():
    # H^0 is the field itself for every algebra in the catalog
    for name in coh.CATALOG_NAMES:
        sc = coh.catalog_algebra(name)
        assert coh.cohomology_dim(0, sc) == 1


def test_top_and_beyond_degrees():
    sc = coh.catalog_algebra("i12")
    assert coh.ce_differential(sc.n, sc).shape[0] == 0
    # unimodular algebra: top cohomology is one-dimensional
    assert coh.cohomology_dim(sc.n, sc) == 1
    with pytest.raises(ValueError):
        coh.cohomology_dim(sc.n + 1, sc)


def test_rational_and_svd_ranks_agree():
    sc = coh.catalog_algebra("i12", B=1.0)
    assert sc.is_rational
    for k in range(sc.n):
        mat = coh.ce_differential(k, sc)
        if mat.size:
            assert coh._svd_rank(mat) == coh._rational_rank(mat)


def test_jacobi_violation_rejected():
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = 1.0  # not antisymmetric in the lower pair
    with pytest.raises(ValueError):
        coh.StructureConstants(2, c, ("a", "b"), "bad")


def test_load_algebra_roundtrip(tmp_path):
    path = tmp_path / "alg.json"
    path.write_text('{"dim": 2, "basis_names": ["x", "y"],'
                    ' "brackets": [[0, 1, [1.0, 0.0]]]}')
    sc = coh.load_algebra_file(path)
    assert sc.n == 2
    # solvable non-nilpotent 2d algebra: H^1 = 1, H^2 = 0
    assert coh.cohomology_dim(1, sc) == 1
    assert coh.cohomology_dim(2, sc) == 0


def test_unknown_catalog_name():
    with pytest.raises(KeyError):
        coh.catalog_algebra("nope")


def test_rationality_decided_once_per_table(monkeypatch):
    # every rank of a table's differentials asks whether it is rational;
    # suite_cohomology decides it once per catalog table
    from poincare_ext.cli import suite_cohomology
    from poincare_ext.group import ModelParams

    decide = coh.StructureConstants.__dict__["is_rational"].func
    tables = []

    def counted(sc):
        tables.append(sc)
        return decide(sc)

    prop = functools.cached_property(counted)
    prop.__set_name__(coh.StructureConstants, "is_rational")
    monkeypatch.setattr(coh.StructureConstants, "is_rational", prop)
    assert suite_cohomology(ModelParams(), 42)["pass"]
    assert sorted(sc.name for sc in tables) == sorted(coh.CATALOG_NAMES)
    assert len({id(sc) for sc in tables}) == len(tables)
