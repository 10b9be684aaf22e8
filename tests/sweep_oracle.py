"""Per-pair and per-sample loops in float64: the test oracle of the sweeps.

`orbits` and `group.structural_report` decide their ranks and kernels
exactly on the model's bracket table, and `orbits` decides Pukanszky's
condition as exact polynomial identities; the classical suite decides the
comoment Casimir, the light-cone bracket and the pullback as Laurent
identities, the coadjoint suite the invariance of the Casimir and u3, and
the structure suite the spectrum of ad(X) as one characteristic
polynomial.  These are the same checks written one float bracket call per
basis pair and one scalar call per sample: the eigenvalues of ad(X) at
sampled X, orbit membership to a relative 1e-9 at sampled points, the
comoments evaluated in float64 at sampled phase points, the Casimir on the
table in Fractions at one B and m (casimir_defect), the pullback by
central differences, and the coadjoint action on 1000 sampled pairs
(suite_coadjoint), with the float rank tolerances (SVD, `matrix_rank`,
`lstsq`) the package no longer has.
`oracle_sweeps` swaps the algebra loops into the package, so a suite run
inside it takes the loop path end to end.
"""

import contextlib
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from poincare_ext import group as grp
from poincare_ext import orbits as orb
from poincare_ext import quantization as qz
from poincare_ext.conventions import SQRT_MINUS_H, minkowski_square
from poincare_ext.group import (
    AlgebraElement,
    CoadjointPoint,
    GroupElement,
    ModelParams,
    bracket,
    casimir_pairing,
    structure_constants,
)
from probe_oracle import comoment_observables, poisson_bracket

#: the central charges the benchmark draws all-checks reports at
BENCH_B = (-3.0, -2.0, -1.3, -1.0, -0.7, -0.5, 0.5, 0.7, 1.0, 1.3, 2.0, 3.0)


def ad_matrix(x, p=ModelParams()):
    """Matrix of ad(x) acting on coefficient vectors: (ad x) y = [x, y].

    A batch x of shape S gives a stack of shape S + (4, 4).
    """
    return np.einsum("cab,...a->...cb", structure_constants(p), x.array)


def sampled_spectrum(p=ModelParams(), samples=1000, seed=0):
    """The eigenvalues of ad(X) at X drawn uniform in [-5, 5]^4, in float64:
    the largest imaginary part and trace, and whether a real eigenvalue is
    nonzero.  group.decided_ad_spectrum decides the spectrum {0, 0, +-X2}."""
    m = ad_matrix(AlgebraElement(np.random.default_rng(seed).uniform(
        -5.0, 5.0, (samples, 4))), p)
    eigs = np.linalg.eigvals(m)
    return {"max_imag_eigenvalue": float(np.max(np.abs(eigs.imag))),
            "max_abs_trace": float(np.max(np.abs(np.trace(m, axis1=-2, axis2=-1)))),
            "has_nonzero_real_eigenvalue": bool(np.any(np.abs(eigs.real) > 1e-8))}


def row_and_null_space(mat, rcond=1e-10):
    """Orthonormal bases, as rows, of the row space and the null space of mat.

    Singular values at most rcond times the largest one count as zero.
    """
    _, s, vt = np.linalg.svd(mat)
    rank = int(np.sum(s > rcond * s[0])) if s.size else 0
    return vt[:rank], vt[rank:]


def row_space(rows):
    """The float span of rows, as a list of orthonormal rows."""
    return list(row_and_null_space(np.array(rows, dtype=float))[0])


def kirillov_form(zeta, p=ModelParams()):
    basis = np.eye(4)
    k = np.zeros((4, 4))
    for a in range(4):
        for b in range(a + 1, 4):
            val = zeta.array @ bracket(AlgebraElement(basis[a]),
                                       AlgebraElement(basis[b]), p).array
            k[a, b] = val
            k[b, a] = -val
    return k


def subordination_check(h, zeta, p=ModelParams(), tol=1e-12):
    scale = 1.0 + float(np.max(np.abs(zeta.array)))
    for i, x in enumerate(h.basis):
        for y in h.basis[i + 1:]:
            if abs(zeta.array @ bracket(x, y, p).array) > tol * scale:
                return False
    return True


def orbit_dimension(zeta, p=ModelParams()):
    """The SVD rank of the float Kirillov form."""
    return row_and_null_space(kirillov_form(zeta, p))[0].shape[0]


def annihilator(h):
    mat = np.array([b.array for b in h.basis])
    return row_and_null_space(mat, rcond=0.0)[1]  # basis is independent


def bracket_span(basis_a, basis_b, p):
    prods = [bracket(AlgebraElement(a), AlgebraElement(b), p).array
             for a in basis_a for b in basis_b]
    if not prods:
        return np.zeros((0, 4))
    return row_and_null_space(prods)[0]


def check_closure(sub):
    """Subalgebra's independence and closure checks, one pair at a time."""
    mat = np.array([b.array for b in sub.basis])
    if np.linalg.matrix_rank(mat, tol=1e-12) != len(sub.basis):
        raise ValueError("subalgebra basis is linearly dependent")
    for x in sub.basis:
        for y in sub.basis:
            z = bracket(x, y, sub.params).array
            resid = z - mat.T @ np.linalg.lstsq(mat.T, z, rcond=None)[0]
            if np.max(np.abs(resid)) > 1e-10 * (1.0 + np.max(np.abs(z))):
                raise ValueError(
                    f"basis not closed under bracket: {sub.name or mat}")


@dataclass(frozen=True)
class PhasePoint:
    """Point of the reduced phase space in (q, p) coordinates.

    q and p may be arrays of one shape S, a batch of points.
    """

    q: float
    p: float


def evaluate(f, s):
    """The observable f at the phase point s, or at each point of a batch."""
    # squares as products: pow(q, 2) can miss the rounded q * q by a bit,
    # and numpy squares arrays as q * q, so a point and a batch agree
    q, p = ((x ** 0, x, x * x) for x in (s.q, s.p))
    return sum(v * q[i] * p[j] for (i, j), v in f.coeffs)


def comoments(s, params, m):
    """The comoments (u0, u1, u2, u3) at s, as one CoadjointPoint.

    A batch s of shape S gives a batch of shape S, each point bit for bit
    the comoments of that point alone.
    """
    return CoadjointPoint(*(evaluate(u, s) for u in comoment_observables(params, m)))


def momentum_map(s, params, m):
    """comoments / hbar, over the batch of s as comoments."""
    return CoadjointPoint(comoments(s, params, m).array / params.hbar)


def _lightcone_signs(u0, u1, tol):
    def sgn(x):
        if abs(x) <= tol:
            return 0
        return 1 if x > 0 else -1
    return sgn(u0 + u1), sgn(u0 - u1)


def on_orbit(mu, zeta, p=ModelParams(), tol=1e-9, drop=()):
    """Whether mu lies on the orbit through zeta, to a relative tol.

    drop names conditions left out, a planted defect: "u3" (CaseA and
    CaseC) or "lightcone" (CaseC).
    """
    cls = orb.classify(zeta, p)
    u0, u1, u2, u3 = mu.u
    scale = 1.0 + float(np.max(np.abs(zeta.array)))
    if cls.tag == "CaseA":
        if "u3" not in drop and abs(u3 - zeta.u[3]) > tol * scale:
            return False
        # the Casimir u^a u_a - 2 (B / sqrt(-h)) u2 u3 = C as it stands,
        # relative to its largest term: solved for u2, it divided by B
        terms = (u0 * u0, -u1 * u1, -2.0 * p.B * u2 * u3 / SQRT_MINUS_H,
                 -cls.labels["casimir"])
        return bool(abs(sum(terms)) <= tol * max(1.0, *map(abs, terms)))
    if cls.tag == "CaseB":
        return bool(np.max(np.abs(mu.array - zeta.array)) <= tol * scale)
    if "u3" not in drop and abs(u3) > tol * scale:
        return False
    m2 = cls.labels["mass_square"]
    if abs(minkowski_square([u0, u1]) - m2) > tol * scale**2:
        return False
    return "lightcone" in drop or _lightcone_signs(u0, u1, tol * scale) == \
        _lightcone_signs(zeta.u[0], zeta.u[1], tol * scale)


def affine_on_orbit(zeta, perp, p=ModelParams(), samples=100, seed=0, drop=()):
    """Sample zeta + span(perp), coefficients uniform in [-10, 10], and
    test each point with on_orbit."""
    if len(perp) == 0:
        return on_orbit(zeta, zeta, p, drop=drop)
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        coeffs = rng.uniform(-10.0, 10.0, len(perp))
        if not on_orbit(CoadjointPoint(zeta.array + coeffs @ np.asarray(perp)),
                        zeta, p, drop=drop):
            return False
    return True


def pukanszky_check(h, zeta, p=ModelParams(), samples=100, seed=0, drop=()):
    if not subordination_check(h, zeta, p):
        raise ValueError("subalgebra is not subordinate to zeta")
    odim = orbit_dimension(zeta, p)
    if 4 - h.dim != odim // 2:
        raise orb.MaximalityError(
            f"codim {4 - h.dim} != half orbit dimension {odim // 2}")
    return affine_on_orbit(zeta, annihilator(h), p, samples, seed, drop)


def pullback_residual(s, params, m):
    """The pullback of the orbit form along the momentum map, by central
    differences of step 1e-5 and two float least-squares solves."""
    zeta = momentum_map(s, params, m)
    h = 1e-5

    def mu(q, p):
        return np.array(momentum_map(PhasePoint(q, p), params, m).u)

    v_q = (mu(s.q + h, s.p) - mu(s.q - h, s.p)) / (2.0 * h)
    v_p = (mu(s.q, s.p + h) - mu(s.q, s.p - h)) / (2.0 * h)
    z = np.array(zeta.u)
    cols = []
    for k in range(4):
        e = AlgebraElement(tuple(1.0 if i == k else 0.0 for i in range(4)))
        cols.append(-z @ ad_matrix(e, params))
    M = np.column_stack(cols)
    X, *_ = np.linalg.lstsq(M, v_q, rcond=None)
    Y, *_ = np.linalg.lstsq(M, v_p, rcond=None)
    b = float(z @ bracket(AlgebraElement(tuple(X)),
                          AlgebraElement(tuple(Y)), params).array)
    # the plane's pairing of (e_q, e_p) is {q, p} = -1, over hbar
    qp = poisson_bracket(qz.PolynomialObservable({(1, 0): 1.0}),
                         qz.PolynomialObservable({(0, 1): 1.0})).c[0, 0]
    return abs(b - qp / params.hbar)


def _product(f, g, scale=1) -> dict:
    """scale f g on {(i, j): c} tables."""
    out = {}
    for (i, j), a in f.items():
        for (k, l), b in g.items():
            out[i + k, j + l] = out.get((i + k, j + l), 0) + scale * a * b
    return out


def casimir_defect(params, m) -> float:
    """The comoments' Casimir minus m^2 on the table in Fractions, at one
    B and m: u0^2 - u1^2 - 2B u2 u3 - m^2 (`model.casimir`) summed from
    four tables, each coefficient read relative to the largest of the four
    it sums, so a wrong entry reads of order 1 at every B.  0.0 where the
    identity holds."""
    B, m = Fraction(params.B), Fraction(m)
    u0, u1, u2, u3 = qz.comoment_table(B, m)
    parts = (_product(u0, u0), _product(u1, u1, -1), _product(u2, u3, -2 * B),
             {(0, 0): -m * m})
    return float(max(abs(sum(t.get(k, 0) for t in parts))
                     / max(abs(t.get(k, 0)) for t in parts)
                     for k in set().union(*parts)))


def suite_classical(params, seed, m=1.0):
    """cli.suite_classical in float64: the comoment Casimir at 100 sampled
    phase points, and the pullback by central differences at 5 more."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        s = PhasePoint(*rng.uniform(-3, 3, size=2))
        c = casimir_pairing(comoments(s, params, m), params)
        worst = max(worst, abs(c - m * m))
    q0 = qz.PolynomialObservable({(0, 1): -1.0 / params.B})
    q1 = qz.PolynomialObservable({(1, 0): -1.0, (0, 1): -1.0 / params.B})
    pb = poisson_bracket(q0, q1)
    bracket_ok = pb.coeffs == (((0, 0), 1.0 / params.B),)
    pull = max(pullback_residual(PhasePoint(*rng.uniform(-2, 2, 2)),
                                 params, m) for _ in range(5))
    ok = bool(worst <= 1e-12 and bracket_ok and pull <= 1e-6)
    return {"comoment_casimir": worst, "lightcone_bracket_exact": bracket_ok,
            "pullback": pull, "pass": ok}


EPS = float(np.finfo(float).eps)


def coadjoint_draws(seed):
    """1000 (zeta, g) pairs, drawn one pair at a time: zeta from
    [-3, 3)^4, then g from [-2, 2)^4."""
    u = np.random.default_rng(seed).random((1000, 2, 4))
    return CoadjointPoint(-3.0 + 6.0 * u[:, 0]), GroupElement(*(-2.0 + 4.0 * u[:, 1]).T)


def scaled_casimir(u, B):
    """u^A u_A / (1 + |B|)^2, on u / (1 + |B|): finite wherever u is,
    where the squares of components of order B leave the float range."""
    s = 1.0 + abs(B)
    v0, v1, v2, v3 = (x / s for x in u.u)
    return v0 * v0 - v1 * v1 - 2.0 * (B / s) * v2 * u.u[3]


def coadjoint_bound(B) -> float:
    """The largest round-off of the scaled Casimir residual over the draws,
    stated from eps, |B| and the draw ranges, in units of (1 + |B|)^2.

    With |alpha| <= 2, Lambda's entries are at most c = cosh 2, theta of
    g^-1 at most t = 4c, and Ad(g^-1)'s entries at most c, t, 1, 2 |B| t c
    (row I) and |B| t^2 (row I, column J).  With |zeta| <= 3 the moved
    components are sums of terms at most 3 (2c + 2 |B| t c) in size for
    u0 and u1, 3 (2t + 1 + |B| t^2) for u2, and u3 = zeta3 exactly
    (column I is e_I).  Each component is a product chain of at most 20
    roundings, so the moved Casimir is exact to 64 eps of the sum of its
    terms' sizes, 2 u01^2 + 6 |B| u2, and zeta's to as much of 18 + 18 |B|.
    """
    c = math.cosh(2.0)
    t, s = 4.0 * c, 1.0 + abs(B)
    u01 = 3.0 * (2.0 * c + 2.0 * abs(B) * t * c) / s
    u2 = 3.0 * (2.0 * t + 1.0 + abs(B) * t * t) / s
    return 64.0 * EPS * (2.0 * u01 * u01 + 6.0 * (abs(B) / s) * u2
                         + 18.0 / s / s + 18.0 * abs(B) / s / s)


def suite_coadjoint(params, seed=42):
    """cli.suite_coadjoint in float64 on coadjoint_draws(seed): the largest
    scaled Casimir residual and u3 residual of the moved points, passing
    within coadjoint_bound and 0.0 (u3 is moved exactly)."""
    zeta, g = coadjoint_draws(seed)
    moved = grp.coadjoint_action(g, zeta, params)  # a planted defect shows
    cas = float(np.max(np.abs(scaled_casimir(moved, params.B)
                              - scaled_casimir(zeta, params.B))))
    u3 = float(np.max(np.abs(moved.u[3] - zeta.u[3])))
    return {"casimir_residual": cas, "u3_residual": u3,
            "pass": cas <= coadjoint_bound(params.B) and u3 == 0.0}


@contextlib.contextmanager
def oracle_sweeps():
    """Run orbits and the structural report on the float loops above."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grp, "row_basis", row_space)
        mp.setattr(orb.Subalgebra, "__post_init__", check_closure)
        for fn in (kirillov_form, subordination_check, pukanszky_check):
            mp.setattr(orb, fn.__name__, fn)
        yield
