"""The stacked-probe quadrature: the test oracle of the exact operator checks.

wf_stack makes one batch function of a probe list, so an operator chain
built once acts on the whole set, and integrate_stack takes the integrals
of a check on the union of the functions' windows.  The representation
and quantization suites check the same identities exactly, on coefficient
arrays and Gaussian moments; these helpers compute them the independent
way, by operator chains on evaluators and composite Gauss-Legendre sums.
"""

import numpy as np

from poincare_ext.wavefunctions import (
    WaveFunction,
    _latest_values,
    _window,
    integrate_vec,
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
