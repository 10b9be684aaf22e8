"""Float versions of the decided operator identities: the test oracle.

`irreps.decided_identities` and `quantization.decided_identities` decide
the generator commutators, anti-Hermiticity and Casimir, the Dirac pair and
the comoments' Hermiticity once, as identities of Laurent polynomials in B
and the labels.  These are the same checks at one float B and set of
labels: each defect operator is formed by the same product rule on complex
coefficient arrays, then measured on Hermite probes in `irreps`' Gaussian-
moment kernel, ||R f|| / ||f||, or |<A f_i, f_j> - <f_i, A f_j>| on probe
pairs.  They read the generator table and the Weyl rule through their
modules, so a defect planted there shows here too.  An empty probe list,
or a probe that is not a Probe record, is the kernel's named ValueError;
a residual past the float range is one that names the check.
"""

import numpy as np

from poincare_ext import irreps as ir
from poincare_ext import quantization as qz
from poincare_ext.conventions import SQRT_MINUS_H
from poincare_ext.group import structure_constants
from poincare_ext.irreps import (BASIS_NAMES, QuantOperator, _aligned,
                                 _in_float_range, _kernel, _relative_residual)


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
            defect = gens[a] @ gens[b] - gens[b] @ gens[a]
            for c, g in zip(consts[:, a, b], gens):
                if c:
                    defect = defect - c * g
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
    pp = g["P0"] @ g["P0"] - g["P1"] @ g["P1"] + c * QuantOperator.one()
    defect = (2.0 * rep.params.B) * (g["I"] @ g["J"]) - SQRT_MINUS_H * pp
    return float(np.max(_relative_residual(defect, probes)))


@_in_float_range("Dirac")
def dirac_residuals(params, m, probes, z3s) -> list:
    """The residual of Q({u_A, u_B}) = -i z3 [Q(u_A), Q(u_B)] over all
    pairs, at each z3 of z3s; the orbit's representation has z3 = -1/hbar.

    Each pair's defect Q({u_A, u_B}) + i z3 [Q(u_A), Q(u_B)] is one
    operator array, from the x-left product, and its residual is
    ||R f|| / ||f|| on each probe.
    """
    us = qz.comoment_observables(params, m)
    ops = [qz.quantize(u, params) for u in us]
    pairs = [(qz.quantize(qz.poisson_bracket(us[a], us[b], params), params),
              ops[a] @ ops[b] - ops[b] @ ops[a])
             for a in range(4) for b in range(a + 1, 4)]
    res = _relative_residual(stack(
        [qbr + (1j * z3) * comm for z3 in z3s for qbr, comm in pairs]), probes)
    return [float(np.max(r)) for r in np.split(res, len(z3s))]


def comoment_hermiticity(params, m, probes) -> float:
    """The largest hermiticity_residual of the Weyl-ordered comoments."""
    return max(hermiticity_residual(qz.quantize(u, params), probes)
               for u in qz.comoment_observables(params, m))
