"""Float versions of the decided identities: the test oracle.

`irreps.decided_identities`, `irreps.decided_group_identities`,
`quantization.decided_identities` and `quantization.decided_covariance`
decide the generator commutators, anti-Hermiticity, Casimir and
consistency with T, the homomorphism and unitarity of T, the Dirac pair,
the comoments' Hermiticity, the light-cone bracket and the covariance of
the quantization once, as identities of Laurent polynomials in B, hbar,
m, the labels and the group element.  These are the same checks at one
float B and set of labels, on seeded random group elements:

* homomorphism and unitarity as relative coefficient gaps of the
  AffinePhase fields, each function's size taken as its coefficient bound
  on the probes' image window (gap, unitarity_gap);
* generator consistency as relative coefficient gaps of the jet
  derivative of T against the generator table (generator_gaps), and the
  Poisson bracket on float coefficient arrays (poisson_bracket);
* the operator identities and covariance on Hermite probes r(x) e^{-x^2/2},
  in the Gaussian-moment kernel: each operator is one matrix per exponent
  e^{kx} on the probes' coefficients, and inner products are moment
  matrices (_kernel), so a residual ||R f|| / ||f||, or
  |<A f_i, f_j> - <f_i, A f_j>| on probe pairs, is a few contractions over
  all probes and batch members at once.

They read T(g), the group law, the generator table and the Weyl rule
through their modules, so a defect planted there shows here too.  An empty
probe list, or a probe that is not a Probe record, is the kernel's named
ValueError; a residual past the float range is one that names the check.
"""

import functools
import math

import numpy as np

from poincare_ext import group as grp
from poincare_ext import irreps as ir
from poincare_ext import quantization as qz
from poincare_ext.conventions import SQRT_MINUS_H
from poincare_ext.group import GroupElement, structure_constants
from poincare_ext.irreps import BASIS_NAMES, AffinePhase, QuantOperator, _aligned
from poincare_ext.wavefunctions import WINDOW, Probe, hermite_probe


#: pass thresholds of the float oracles of the representation fields:
#: round-off of the coefficient gaps, the kernel and the quadrature
REP_GATES = {"homomorphism": 1e-8, "unitarity": 1e-8,
             "commutators": 1e-9, "casimir": 1e-9}

#: pass threshold of the generator gaps, relative coefficient gaps that
#: read round-off
GENERATOR_GATE = 1e-12


@functools.lru_cache(maxsize=1)
def _hermite_probes() -> tuple:
    """h_0, ..., h_4, built on first use; a Probe is immutable, so every
    check shares them."""
    return tuple(hermite_probe(k) for k in range(5))


def default_probes(count: int = 5) -> tuple:
    """The first count (at most 5) Hermite functions."""
    if count > 5:
        raise ValueError(f"default_probes: {count} probes asked, 5 kept")
    return _hermite_probes()[:count]


def comoment_observables(params, m: float):
    """The four comoments as polynomial observables (u0, u1, u2, u3), from
    quantization.comoment_table at float B and m."""
    return tuple(qz.PolynomialObservable(t) for t in qz.comoment_table(params.B, m))


def poisson_bracket(f, g):
    """{f, g} of two polynomial observables, from quantization's bracket on
    their float coefficient arrays."""
    return qz.PolynomialObservable(qz._poisson(f.c, g.c))


def generator_gaps(rep) -> dict:
    """{name: gap} of each generator dT(X) of the table irreps._generators
    against the jet derivative d/dt T(exp tX) at t = 0
    (irreps._derivative_coefficients), at the float B and labels of rep.

    The gap is the largest relative gap of one coefficient,
    |got - want| / max(|got|, |want|), 0 where both vanish, so a wrong
    coefficient shows at every B however small it is beside the others.
    A coefficient that is not finite raises ValueError.
    """
    with np.errstate(all="ignore"):
        got = ir._derivative_coefficients(rep)
    table, out = ir._generators(rep), {}
    for k, name in enumerate(BASIS_NAMES):
        _, (g, w) = _aligned((QuantOperator(got.c[..., k], got.exps), table[name]))
        if not np.all(np.isfinite(g) & np.isfinite(w)):
            raise ValueError(f"generator {name}: a coefficient is not finite")
        size = np.maximum(np.abs(g), np.abs(w))
        out[name] = float(np.max(np.abs(g - w) / np.where(size > 0.0, size, 1.0)))
    return out


def minus(a: QuantOperator, b: QuantOperator) -> QuantOperator:
    """a - b, as a + (-1) b: operators add and scale."""
    return a + (-1.0) * b


def _in_float_range(what: str):
    """Decorate a residual check: numpy's overflow warnings are off while it
    runs, and a result that is not finite (a coefficient product of order
    B^2 past the float range, say) is a ValueError naming what."""
    def wrap(check):
        @functools.wraps(check)
        def checked(*args, **kwargs):
            with np.errstate(over="ignore", invalid="ignore"):
                res = check(*args, **kwargs)
            if not np.all(np.isfinite(res)):
                raise ValueError(f"the {what} residual leaves the float range")
            return res
        return checked
    return wrap


# ---------------------------------------------------------------------------
# operators on Hermite probes: one matrix kernel in Gaussian moments
#
# A probe is r(x) g, g = e^{-x^2/2}, held as the column of r's
# coefficients.  On columns of length N, x acts as X, which raises the
# degree by one, and d/dx as D = P - X, P the derivative of r, so an operator
# sum_k e^{kx} sum c_k[i, j] x^i D^j is one matrix
# M_k = sum c_k[i, j] X^i D^j per exponent, and
# <e^{kx} s g, e^{lx} t g> = s^H G_{k+l} t.  With N the probes' length plus
# the operator's size - 1, nothing is truncated.


@functools.lru_cache(maxsize=64)
def _xd_powers(n: int, size: int):
    """Read-only (n, n, size, size) array of the matrices X^i D^j, i, j < n."""
    x = np.eye(size, k=-1)
    d = np.diag(np.arange(1.0, size), k=1) - x
    xs, ds = [np.eye(size)], [np.eye(size)]
    for _ in range(n - 1):
        xs.append(x @ xs[-1])
        ds.append(d @ ds[-1])
    out = np.einsum("iab,jbc->ijac", xs, ds)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=64)
def _moments(size: int, k: float):
    """Read-only G_k[a, b] = <x^a g, e^{kx} x^b g>, a Hankel matrix in a + b.

    e^{kx} e^{-x^2} = e^{m^2} e^{-(x - m)^2} with m = k / 2, so by the
    binomial expansion about m and the integral Gamma((r + 1) / 2) of
    u^r e^{-u^2} for even r:
    G_k[a, b] = e^{m^2} sum_{r even} C(a + b, r) m^(a+b-r) Gamma((r + 1) / 2).
    """
    m = k / 2.0
    h = [sum(math.comb(n, r) * m ** (n - r) * math.gamma((r + 1) / 2)
             for r in range(0, n + 1, 2)) for n in range(2 * size - 1)]
    idx = np.add.outer(np.arange(size), np.arange(size))
    out = math.exp(m * m) * np.array(h)[idx]
    out.setflags(write=False)
    return out


def _kernel(op, probes):
    """(M, R, G): M[k] the matrices M_k of op's nonzero c_k with its batch
    axes first, R the probes' coefficient columns, G(K) the moments G_K,
    all of one size N.

    An empty probe list, or a probe that is not a Probe record, raises
    ValueError.
    """
    if not probes:
        raise ValueError("operator checks need at least one probe")
    if not all(isinstance(f, Probe) for f in probes):
        raise ValueError("operator checks need Gaussian-polynomial "
                         "probe records (Probe)")
    n = max(op.c.shape[1], 1)
    size = max(len(f.poly) for f in probes) + n - 1
    r = np.zeros((size, len(probes)), dtype=complex)
    for p, f in enumerate(probes):
        r[:len(f.poly), p] = f.poly
    powers = _xd_powers(n, size)
    return ({k: np.einsum("ij...,ijab->...ab", c, powers)
             for k, c in zip(op.exps, op.c) if c.any()},
            r, lambda k: _moments(size, k))


def _square_norms(op, probes):
    """||op f||^2 for each probe f, on a last axis after op's batch axes."""
    mats, r, gram = _kernel(op, probes)
    ks = list(mats)
    if not ks:
        return np.zeros(op.c.shape[3:] + (len(probes),))
    s = np.stack([mats[k] @ r for k in ks])
    g = np.array([[gram(k + l) for l in ks] for k in ks])
    return np.real(np.einsum("k...ap,klab,l...bp->...p", s.conj(), g, s))


def _relative_residual(op, probes, ref=None):
    """max over probes of ||op f|| / ||ref f|| (ref None: ||f||), batch-wise."""
    den = _square_norms(QuantOperator.one() if ref is None else ref, probes)
    return np.max(np.sqrt(np.maximum(_square_norms(op, probes), 0.0) / den), axis=-1)


# ---------------------------------------------------------------------------
# homomorphism and unitarity: relative coefficient gaps of T(g)


def _size(coeffs, sups):
    """sum_k |c_k| sup |e_k|, a bound on sup |sum_k c_k e_k|."""
    return sum(np.abs(c) * e for c, e in zip(coeffs, sups))


def _sups(op: AffinePhase, lo, hi):
    """sup |1|, |x| and each sup |e_k| over the x with lo <= a x + b <= hi."""
    r = np.maximum(np.abs(lo - op.b), np.abs(hi - op.b)) / np.abs(op.a)
    if op.basis == "hyp":
        return (1.0, r), (np.cosh(r), np.sinh(r))
    return (1.0, r), tuple(r ** k for k in range(len(op.c)))


def gap(op: AffinePhase, other: AffinePhase, lo, hi, phase_size=None):
    """Relative coefficient gap of op to other, for probes on the window [lo, hi].

    The sum of |d amp| / |amp|, of the size of the change of the map
    x -> a x + b over the size of the map, and of the size of the
    change of phi over phase_size (default: the size of other's phi).
    A size is the bound _size on other's image of the window, taken at
    least 1 (one radian; one unit of the probe's argument).
    """
    maps, sups = _sups(other, lo, hi)
    d_map = (_size((op.b - other.b, op.a - other.a), maps)
             / np.maximum(_size((other.b, other.a), maps), 1.0))
    if phase_size is None:
        phase_size = _size(other.c, sups)
    d_phi = (_size([p - q for p, q in zip(op.c, other.c)], sups)
             / np.maximum(phase_size, 1.0))
    return np.abs(op.amp - other.amp) / np.abs(other.amp) + d_map + d_phi


def unitarity_gap(op: AffinePhase, lo, hi):
    """| |amp|^2 / |a| - 1 | plus the size of Re phi on the image of [lo, hi]."""
    return (np.abs(np.abs(op.amp) ** 2 / np.abs(op.a) - 1.0)
            + _size(np.real(op.c), _sups(op, lo, hi)[1]))


def verify_homomorphism(rep, g2: GroupElement, g1: GroupElement) -> float:
    """Largest gap of T(g2) T(g1) to T(g2 g1), probes' WINDOW."""
    op = ir._affine_phase(rep, g2).compose(ir._affine_phase(rep, g1))
    return float(np.max(gap(op, ir._affine_phase(rep, grp.compose(g2, g1, rep.params)),
                            *WINDOW)))


def verify_unitarity(rep, g: GroupElement) -> float:
    """Largest unitarity_gap of T(g), probes' WINDOW."""
    return float(np.max(unitarity_gap(ir._affine_phase(rep, g), *WINDOW)))


def rep_draws(trials: int = 200, seed: int = 42):
    """((g2, g1), g): the batches of trials elements each drawn from the
    seed, in the order of one trial at a time (g2 before g1), then g."""
    rng = np.random.default_rng(seed)
    pairs = rng.uniform(-2.0, 2.0, size=(trials, 2, 4))
    g2, g1 = (GroupElement(*pairs[:, k].T) for k in range(2))
    return (g2, g1), GroupElement(*rng.uniform(-2.0, 2.0, size=(trials, 4)).T)


def rep_sweep(rep, trials: int = 200, seed: int = 42) -> dict:
    """{"homomorphism", "unitarity"}: the largest gaps over rep_draws."""
    (g2, g1), g = rep_draws(trials, seed)
    return {"homomorphism": verify_homomorphism(rep, g2, g1),
            "unitarity": verify_unitarity(rep, g)}


# ---------------------------------------------------------------------------
# covariance: Q(f . l_g) against T(g^-1) Q(f) T(g) on the probes


def _covariance_residual(g: GroupElement, pulled: QuantOperator,
                         qf: QuantOperator, params, m: float, probes):
    """max over probes of ||pulled psi - T(g^-1) qf T(g) psi|| / ||pulled psi||.

    One value per member of a batch g, whose operators are batch columns.
    T(g^-1) qf T(g) is taken as U^-1 qf U with U = T(g) (conjugated), and
    the gap of T(g^-1) T(g) to the identity on the probes' WINDOW is
    added, so T(g^-1) is still checked.  That gap's phase is relative to
    the two phases the composition cancels, sized on the window: its
    constant reads one ulp of them, of order 1/B.  The residual is relative
    to the image, whose size grows with hbar^2 for a p^2 term.
    """
    rep = qz.rep_for_mass(params, m)
    u = ir._affine_phase(rep, g)
    inv = ir._affine_phase(rep, grp.inverse(g, params))
    ident = AffinePhase(1.0, 1.0, 0.0, (0.0,) * len(u.c))
    lo, hi = WINDOW
    sups = _sups(ident, lo, hi)[1]
    cancelled = _size(inv.c, sups) + _size(ir._poly_pullback(u.c, inv.a, inv.b), sups)
    trip = gap(inv.compose(u), ident, lo, hi, cancelled)
    return _relative_residual(minus(pulled, qf.conjugated(u)), probes, pulled) + trip


def covariance_observables(params, m: float):
    """The observables covariance_suite cycles through, trial k taking k mod 7."""
    return [qz.PolynomialObservable({(0, 0): 1.0}),
            qz.PolynomialObservable({(1, 0): 1.0}),
            qz.PolynomialObservable({(0, 1): 1.0}),
            qz.PolynomialObservable({(2, 0): 1.0}),
            qz.PolynomialObservable({(1, 1): 1.0}),
            qz.PolynomialObservable({(0, 2): 1.0}),
            comoment_observables(params, m)[2]]


@_in_float_range("covariance")
def covariance_suite(params, m: float, trials: int = 50, seed: int = 42) -> float:
    """Largest residual of Q(f . l_g) = T(g^-1) Q(f) T(g) over random
    (g, observable f) trials, on the first two probes.

    The trials run as one batch: the observables' tables are stacked as
    batch columns, and pulled back and quantized together.
    """
    coords = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(trials, 4))
    base = covariance_observables(params, m)
    c = np.stack([base[k % len(base)].c for k in range(trials)], axis=-1)[..., None]
    g = GroupElement(*coords.T)
    pulled = qz._substituted(c, *qz._left_action_maps(g, params))
    res = _covariance_residual(g, QuantOperator(qz._weyl(pulled, params.hbar)[None]),
                               QuantOperator(qz._weyl(c, params.hbar)[None]),
                               params, m, default_probes(2))
    return float(np.max(res, initial=0.0))


# ---------------------------------------------------------------------------
# the generator and Weyl identities on the probes


def stack(ops):
    """One batch operator whose member k is ops[k]."""
    exps, cs = _aligned(ops)
    return QuantOperator(np.stack(cs, axis=-1)[..., None], exps)


@_in_float_range("hermiticity")
def hermiticity_residual(op, probes) -> float:
    """max over probe pairs (i, j) of |<A f_i, f_j> - <f_i, A f_j>|.

    Exact on Gaussian-polynomial probes: with A f = sum_k e^{kx} M_k r g,
    the pairs are the entries of R^H (sum_k M_k^H G_k - G_k M_k) R.
    """
    mats, r, gram = _kernel(op, probes)
    h = sum((np.swapaxes(m.conj(), -1, -2) @ gram(k) - gram(k) @ m
             for k, m in mats.items()), np.zeros((len(r),) * 2))
    return float(np.max(np.abs(r.conj().T @ h @ r)))


@_in_float_range("commutator")
def verify_commutators(rep, probes) -> float:
    """Bracket table through the representation, plus anti-Hermiticity.

    Each defect [dT(X_a), dT(X_b)] - dT([X_a, X_b]) is one operator, a
    product on the generator table, and its residual is ||R f|| / ||f||
    on each probe.  Anti-Hermiticity is the hermiticity_residual of
    i dT(X) on the first two probes.
    """
    gens = [ir._generators(rep)[name] for name in BASIS_NAMES]
    consts = structure_constants(rep.params)
    defects = []
    for a in range(4):
        for b in range(a + 1, 4):
            defect = minus(gens[a] @ gens[b], gens[b] @ gens[a])
            for c, g in zip(consts[:, a, b], gens):
                if c:
                    defect = minus(defect, c * g)
            defects.append(defect)
    # np.max, not max: a NaN defect must not hide behind a finite one
    return float(np.max((
        hermiticity_residual(1j * stack(gens), probes[:2]),
        np.max(_relative_residual(stack(defects), probes)))))


@_in_float_range("Casimir")
def verify_casimir(rep, probes) -> float:
    """2B I J f = sqrt(-h) (P^a P_a f + c f), c the family's Casimir label.

    The residual of the defect operator, a product on the generator table.
    """
    g = ir._generators(rep)
    c = {"A": rep.c2, "B": 0.0, "C": rep.zeta0 ** 2 - rep.zeta1 ** 2}[rep.family]
    pp = minus(g["P0"] @ g["P0"], g["P1"] @ g["P1"]) + c * QuantOperator.one()
    defect = minus((2.0 * rep.params.B) * (g["I"] @ g["J"]), SQRT_MINUS_H * pp)
    return float(np.max(_relative_residual(defect, probes)))


@_in_float_range("Dirac")
def dirac_residuals(params, m, probes, z3s) -> list:
    """The residual of Q({u_A, u_B}) = -i z3 [Q(u_A), Q(u_B)] over all
    pairs, at each z3 of z3s; the orbit's representation has z3 = -1/hbar.

    Each pair's defect Q({u_A, u_B}) + i z3 [Q(u_A), Q(u_B)] is one
    operator array, from the x-left product, and its residual is
    ||R f|| / ||f|| on each probe.
    """
    us = comoment_observables(params, m)
    ops = [qz.quantize(u, params) for u in us]
    pairs = [(qz.quantize(poisson_bracket(us[a], us[b]), params),
              minus(ops[a] @ ops[b], ops[b] @ ops[a]))
             for a in range(4) for b in range(a + 1, 4)]
    res = _relative_residual(stack(
        [qbr + (1j * z3) * comm for z3 in z3s for qbr, comm in pairs]), probes)
    return [float(np.max(r)) for r in np.split(res, len(z3s))]


def comoment_hermiticity(params, m, probes) -> float:
    """The largest hermiticity_residual of the Weyl-ordered comoments."""
    return max(hermiticity_residual(qz.quantize(u, params), probes)
               for u in comoment_observables(params, m))
