"""The slotted value records of model and cohomology against frozen dataclasses.

Each reference below is the frozen dataclass the record replaced, with the
same fields, defaults and validation, and the same class name, so the two
reprs are comparable as text.
"""

import copy
import itertools
import math
import pickle
from dataclasses import dataclass, field
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincare_ext import cohomology, model


@dataclass(frozen=True)
class ModelParams:
    B: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        for name, value in (("B", self.B), ("hbar", self.hbar)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.B == 0:
            raise ValueError("central charge B must be nonzero (the extension degenerates)")
        if not self.hbar > 0:
            raise ValueError("hbar must be positive")


@dataclass(frozen=True)
class OrbitClass:
    tag: str
    labels: dict
    orbit_dim: int

    def __post_init__(self):
        if self.tag not in ("CaseA", "CaseB", "CaseC"):
            raise ValueError(f"unknown orbit tag {self.tag!r}")


@dataclass(frozen=True)
class ClassicalState:
    q1_0: float = 0.0
    ptilde_0: float = 0.0
    tau0: float = 0.0
    m: float = 1.0
    params: object = field(default_factory=model.ModelParams)

    def __post_init__(self):
        if not math.isfinite(self.m):
            raise ValueError(f"mass must be finite, got {self.m!r}")
        if self.m <= 0.0:
            raise ValueError("mass must be positive")


@dataclass(frozen=True)
class StructureConstants:
    n: int
    c: tuple
    basis_names: tuple = ()
    name: str = ""

    def __post_init__(self):
        n = self.n
        try:
            c = tuple(tuple(tuple(map(Fraction, row)) for row in plane)
                      for plane in self.c)
        except (TypeError, ValueError, OverflowError):
            c = ()
        if len(c) != n or any(len(plane) != n or any(len(row) != n for row in plane)
                              for plane in c):
            raise ValueError(f"structure constants must be {n}^3 finite numbers")
        object.__setattr__(self, "c", c)
        if any(c[e][a][b] != -c[e][b][a]
               for e in range(n) for a in range(n) for b in range(a, n)):
            raise ValueError("structure constants are not exactly antisymmetric "
                             "in the lower indices")
        br = {(a, b): {e: c[e][a][b] for e in range(n) if c[e][a][b]}
              for a in range(n) for b in range(n)}
        for x, y, z in itertools.combinations(range(n), 3):
            jac = {}
            for a, b, d in ((x, y, z), (y, z, x), (z, x, y)):
                for e, v in br[a, b].items():
                    for f, w in br[e, d].items():
                        jac[f] = jac.get(f, 0) + v * w
            if any(jac.values()):
                raise ValueError("structure constants do not satisfy the Jacobi "
                                 "identity exactly")
        if not self.basis_names:
            object.__setattr__(self, "basis_names", tuple(f"T{i}" for i in range(n)))


def outcome(cls, args, kwargs):
    """(instance, None), or (None, (type, message)) of the raised error."""
    try:
        return cls(*args, **kwargs), None
    except (TypeError, ValueError) as exc:
        return None, (type(exc), str(exc))


def hashed(x):
    try:
        return hash(x)
    except TypeError as exc:  # a dict field: unhashable in both
        return str(exc)


def assert_parity(name, calls):
    """The record and its reference agree on each (args, kwargs) of calls."""
    record = getattr(model, name, None) or getattr(cohomology, name)
    reference = globals()[name]
    built = []
    for args, kwargs in calls:
        got, got_err = outcome(record, args, kwargs)
        want, want_err = outcome(reference, args, kwargs)
        assert got_err == want_err, (args, kwargs)
        if got is not None:
            built.append((got, want))
            assert repr(got) == repr(want)
            assert hashed(got) == hashed(want)
            # by repr: a NaN field equals only itself
            assert repr(pickle.loads(pickle.dumps(got))) == repr(got)
            assert copy.copy(got) == got
            for slot in got.__slots__:
                with pytest.raises(AttributeError):
                    setattr(got, slot, 0)
                with pytest.raises(AttributeError):
                    delattr(got, slot)
            with pytest.raises(AttributeError):
                got.extra = 0
    for (a, ra), (b, rb) in itertools.product(built, repeat=2):
        assert (a == b) == (ra == rb) and (a != b) == (ra != rb)
    assert all(got != want for got, want in built)  # another class


NUMBERS = st.one_of(st.floats(), st.integers(-3, 3), st.sampled_from((0.0, -0.0, 1.0)))


def arguments(names, values):
    """(args, kwargs): the first values positional, each of the rest a
    keyword or left to its default."""
    return st.integers(0, len(names)).flatmap(lambda k: st.tuples(
        st.just(tuple(values[:k])), st.fixed_dictionaries(
            {}, optional={n: st.just(v) for n, v in zip(names[k:], values[k:])})))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(NUMBERS, NUMBERS), min_size=1, max_size=4),
       st.data())
def test_model_params_match_a_frozen_dataclass(values, data):
    calls = [data.draw(arguments(("B", "hbar"), v)) for v in values]
    assert_parity("ModelParams", calls + [((), {})])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(("CaseA", "CaseB", "CaseC", "CaseD", "")),
                          st.sampled_from(({}, {"zeta2": 0.5}, {"casimir": 1.0})),
                          st.integers(0, 2)),
                min_size=1, max_size=4))
def test_orbit_class_matches_a_frozen_dataclass(values):
    assert_parity("OrbitClass", [(v, {}) for v in values])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(NUMBERS, NUMBERS, NUMBERS, NUMBERS,
                          st.sampled_from((model.ModelParams(),
                                           model.ModelParams(B=-2.0, hbar=0.5)))),
                min_size=1, max_size=4),
       st.data())
def test_classical_state_matches_a_frozen_dataclass(values, data):
    names = ("q1_0", "ptilde_0", "tau0", "m", "params")
    calls = [data.draw(arguments(names, v)) for v in values]
    assert_parity("ClassicalState", calls + [((), {})])


def tables(n):
    """n^3 tables: small integers mixed with other entries, some not
    numbers, or antisymmetric integer tables."""
    def cube(entry):
        return st.lists(st.lists(st.lists(entry, min_size=n, max_size=n),
                                 min_size=n, max_size=n), min_size=n, max_size=n)

    def antisymmetrized(c):
        return [[[c[e][a][b] if a < b else -c[e][b][a] if a > b else 0
                  for b in range(n)] for a in range(n)] for e in range(n)]

    odd = st.sampled_from((Fraction(1, 3), 0.1, float("nan"), "x"))
    return st.one_of(cube(st.one_of(st.integers(-1, 1), odd)),
                     cube(st.integers(-1, 1)).map(antisymmetrized))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.sampled_from((n, n + 1)), tables(n),
        st.sampled_from(((), ("x",) * n, ["Π"] * n)), st.sampled_from(("", "alg")))),
        min_size=1, max_size=3))
def test_structure_constants_match_a_frozen_dataclass(values):
    catalog = [(cohomology.catalog_algebra(name).n, cohomology.catalog_algebra(name).c,
                (), name) for name in cohomology.CATALOG_NAMES]
    assert_parity("StructureConstants", [(v, {}) for v in values + catalog])
