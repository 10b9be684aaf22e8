"""The stacked-probe quadrature: the test oracle of the exact operator checks.

wf_stack makes one batch function of a probe list, so an operator chain
built once acts on the whole set, and integrate_stack takes the integrals
of a check on the union of the functions' windows.  The representation
and quantization suites check the same identities exactly, on coefficient
arrays and Gaussian moments; these helpers compute them the independent
way, by operator chains on evaluators and composite Gauss-Legendre sums.

The module also keeps the representation checks that only ever ran by
quadrature: the central-difference generator ladder (the oracle of
irreps.generator_gaps), faithfulness, and the right invariance of the
lifted functions.
"""

import numpy as np

from poincare_ext.group import AlgebraElement, GroupElement, compose, exp_map
from poincare_ext.irreps import (
    BASIS_NAMES,
    RepParams,
    character,
    generator_apply,
    lifted_function,
    rep_apply,
    subgroup_modulus,
)
from poincare_ext.wavefunctions import (
    WaveFunction,
    _latest_values,
    _window,
    integrate_vec,
    l2_diff,
    norm,
    wf_scale,
    wf_sub,
)


def wf_stack(fs) -> WaveFunction:
    """One batch function whose member k is fs[k].

    Values and every derivative stack along a leading axis: nodes of shape
    (N,) serve every member, and nodes of shape (len(fs), N) give member k
    row k.  The depth is the smallest depth among the members, and the
    window is the union of theirs.

    Each derivative order keeps its values at the latest node array
    (_latest_values).  An operator chain calls its base function many
    times at the same nodes, so the members are evaluated once per
    quadrature level rather than once per call.
    """
    if not fs:
        raise ValueError("wf_stack needs at least one wavefunction")
    depth = min(f.depth for f in fs)
    lo, hi = _window(*fs)

    def order(k):
        def fn(x):
            rows = np.broadcast_to(x, (len(fs),) + x.shape[-1:])
            return np.stack([f.fn(r, k) for f, r in zip(fs, rows)])
        return _latest_values(fn)

    orders = [order(k) for k in range(depth + 1)]
    return WaveFunction(lambda x, k: orders[k](x), depth,
                        0.5 * (lo + hi), (hi - lo) / 24.0)


def integrate_stack(groups, *fs):
    """Integrals of groups of integrands on the union of the windows of fs.

    Each group maps nodes to a list of integrand arrays, each with the
    nodes on its last axis.  A group's list is stacked along a new leading
    axis (an empty list gives an empty stack) and integrated by its own
    integrate_vec call, so it is summed in its own dtype: a real integrand
    summed as complex rounds differently.  The result is the tuple of the
    groups' integrals.
    """
    lo, hi = _window(*fs)

    def stacked(group):
        def fn(x):
            vals = group(x)
            return np.stack(vals) if vals else np.empty((0,) + x.shape)
        return fn

    return tuple(integrate_vec(stacked(group), lo, hi) for group in groups)


def relative_l2(diffs, f, cross=lambda x: []):
    """||lhs - rhs|| / ||f|| for each (lhs, rhs) of diffs, by quadrature.

    f is a stack of probes (wf_stack) and the residuals have one row per
    pair and one column per probe.  cross maps nodes to a list of complex
    integrands whose integrals come back second.
    """
    def squares(x):
        return ([np.abs(lhs.fn(x, 0) - rhs.fn(x, 0)) ** 2 for lhs, rhs in diffs]
                + [np.abs(f.fn(x, 0)) ** 2])

    sq, ips = integrate_stack([squares, cross], f, *(g for d in diffs for g in d))
    root = np.sqrt(np.maximum(sq, 0.0))
    return root[:-1] / root[-1], ips


# ---------------------------------------------------------------------------
# representation checks by quadrature


def generator_consistency(rep: RepParams, f):
    """Central-difference derivative of the flow vs the generator.

    Returns {name: [residual per step]} for the steps 1e-2, 5e-3 and
    2.5e-3; residuals shrink ~ t^2.
    """
    out = {}
    for k, name in enumerate(BASIS_NAMES):
        direction = tuple(1.0 if i == k else 0.0 for i in range(4))
        target = generator_apply(rep, name, f)
        res = []
        for t in (1e-2, 5e-3, 2.5e-3):
            gp = exp_map(AlgebraElement(tuple(t * c for c in direction)), rep.params)
            gm = exp_map(AlgebraElement(tuple(-t * c for c in direction)), rep.params)
            diff = wf_scale(wf_sub(rep_apply(rep, gp, f), rep_apply(rep, gm, f)),
                            1.0 / (2.0 * t))
            res.append(l2_diff(diff, target) / norm(f))
        out[name] = res
    return out


def second_order(errs) -> bool:
    """The ladder's verdict: halving the step shrinks the residual by ~4
    (a direction already at round-off, 1e-12, is skipped)."""
    return all(errs[k] / errs[k + 1] > 3.0 for k in range(len(errs) - 1)
               if errs[k] > 1e-12)


def faithfulness_residuals(rep: RepParams, elements, probes):
    """max_f ||T(g) f - f|| / ||f|| for each test element."""
    out = []
    for g in elements:
        out.append(max(l2_diff(rep_apply(rep, g, f), f) / norm(f)
                       for f in probes))
    return out


def random_subgroup_element(rep: RepParams, rng) -> GroupElement:
    """An element of the family's inducing subgroup, coordinates in [-1.5, 1.5)."""
    a, b, c = rng.uniform(-1.5, 1.5, size=3)
    if rep.family == "A":
        return GroupElement(a, a, b, c)
    if rep.family == "C":
        return GroupElement(a, b, 0.0, c)
    return GroupElement(a, b, c, rng.uniform(-1.5, 1.5))


def right_invariance_residual(rep: RepParams, f, samples: int = 100,
                              seed: int = 0) -> float:
    """Defining covariance of the lifted function, F(h g) = D^-1/2 chi(h) F(g).

    Family B's lifted value is a carrier vector, a WaveFunction when f is
    one, and is compared in the L2 norm.
    """
    rng = np.random.default_rng(seed)
    F = lifted_function(rep, f)
    worst = 0.0
    for _ in range(samples):
        h = random_subgroup_element(rep, rng)
        g = GroupElement(*rng.uniform(-1.5, 1.5, size=4))
        lhs = F(compose(h, g, rep.params))
        rhs = subgroup_modulus(h, rep.family) ** -0.5 * character(h, rep) * F(g)
        if isinstance(rhs, WaveFunction):
            gap = l2_diff(lhs, rhs) / max(norm(rhs), 1e-30)
        else:
            gap = abs(lhs - rhs) / max(abs(rhs), 1e-30)
        worst = max(worst, float(gap))
    return worst
