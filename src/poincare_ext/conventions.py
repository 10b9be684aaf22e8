"""Index conventions for the (1+1)-dimensional computations.

Every signed formula in the package routes through the constants defined
here.  The conventions are: metric h = diag(1, -1), eps^{01} = 1,
eps_{01} = -1, indices raised and lowered with h.  The mixed-index
epsilon tensors are derived, not hand-entered, so a single sign choice
propagates everywhere.
"""

import numpy as np

# Minkowski metric in 1+1 dimensions; h^{ab} coincides with h_{ab}.
METRIC = np.diag([1.0, -1.0])
METRIC.setflags(write=False)

#: sqrt(-det h).  Numerically 1, but kept as a named factor so implemented
#: formulas read like their sources.
SQRT_MINUS_H = 1.0

_EYE = np.eye(2)
_EYE.setflags(write=False)

# eps^{ab} with eps^{01} = +1.
EPS_UPPER = np.array([[0.0, 1.0], [-1.0, 0.0]])
EPS_UPPER.setflags(write=False)

# eps_{ab} = h_{ac} h_{bd} eps^{cd}; eps_{01} = -1.
EPS_LOWER = METRIC @ EPS_UPPER @ METRIC
EPS_LOWER.setflags(write=False)

# eps^a_b = eps^{ac} h_{cb}  -> [[0, -1], [-1, 0]]
EPS_MIXED_UPPER = EPS_UPPER @ METRIC
EPS_MIXED_UPPER.setflags(write=False)

# eps_a^b = h_{ac} eps^{cb}  -> [[0, 1], [1, 0]]
EPS_MIXED_LOWER = METRIC @ EPS_UPPER
EPS_MIXED_LOWER.setflags(write=False)


def lorentz_matrix(alpha) -> np.ndarray:
    """Boost matrix Lambda(alpha)^a_b = delta^a_b cosh + sqrt(-h) eps^a_b sinh.

    An array of angles of shape S gives a stack of shape S + (2, 2).
    """
    ch, sh = np.cosh(alpha), SQRT_MINUS_H * np.sinh(alpha)
    return ch[..., None, None] * _EYE + sh[..., None, None] * EPS_MIXED_UPPER


def minkowski_square(v):
    """v^a v_a for a 2-component (co)vector, over the last axis of a batch.

    The dtype follows v: float, or object for laurent.Laurent components."""
    v = np.asarray(v)
    v = v.astype(np.result_type(v, 1.0), copy=False)
    return v[..., 0] ** 2 - v[..., 1] ** 2

