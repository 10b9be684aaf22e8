"""Exact Laurent polynomials: the identities that hold at every B, decided.

The generator commutators and Casimir, the Dirac condition, hermiticity
and the spectrum of ad(V) hold for every B != 0, hbar, m and label; the
homomorphism and unitarity of T and the covariance of the quantization
for every group element too.  `irreps`, `quantization` and `group` run
their tables and the group law unchanged on Laurent variables, the
exponentials of a rapidity through Laurent.exp, and decide each identity
once per process, on first use, by relative_defect.  A command that
decides nothing imports this module never.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

__all__ = ["Laurent", "relative_defect"]

#: the index of each variable Laurent.var has made, in order of first use
_VARIABLES: dict = {}


def _dyadic(x):
    """(re, im, k) with x = (re + i im) / 2^k, re and im ints; None for a
    non-number, ValueError for a number that is not a finite dyadic."""
    if type(x) is int or isinstance(x, numbers.Integral):
        return int(x), 0, 0
    if isinstance(x, complex):
        parts = (x.real, x.imag)
    elif isinstance(x, (float, Fraction)):
        parts = (x, 0)
    else:
        return None
    try:
        (a, d), (b, e) = (t.as_integer_ratio() for t in parts)
    except (OverflowError, ValueError):
        raise ValueError(f"{x!r} is not finite") from None
    if d & (d - 1) or e & (e - 1):
        raise ValueError(f"{x!r} is not dyadic")
    k = max(d, e).bit_length() - 1
    return a * (2 ** k // d), b * (2 ** k // e), k


def _monomial(name: str) -> int:
    """The monomial of the variable name, its index made on first use."""
    return 1 << (16 * _VARIABLES.setdefault(name, len(_VARIABLES)))


class Laurent:
    """A Laurent polynomial in real variables with Gaussian-rational
    coefficients, in exact arithmetic.

    terms maps each monomial to the Gaussian integer (re, im) of its
    coefficient, and one shift k, shared by every term, scales them all:
    the polynomial is sum (re + i im) 2^-k x^monomial.  Every number the
    tables meet is dyadic (a float is an integer times 2^e, and the tables'
    constants are 1/2, 1/4 and integers), and +, -, * and division by a
    monomial with coefficient a unit times 2^j keep the numerators integers,
    so no operation rounds.  A monomial is one int, sum_v e_v 2^(16 v) over
    the indices v of its variables, so the product of two monomials is the
    sum of their ints (exact while each exponent stays below 2^15 in size).
    The variables are real: conjugate() conjugates the coefficients.
    Numbers combine with a Laurent as constants; numpy object arrays of
    them add and multiply element by element.
    """

    __slots__ = ("terms", "k")
    __hash__ = None

    def __init__(self, terms: dict, k: int = 0):
        self.terms, self.k = terms, k

    @staticmethod
    def var(name: str) -> "Laurent":
        return Laurent({_monomial(name): (1, 0)})

    @staticmethod
    def _coerce(x):
        """x as a Laurent; None for a non-number."""
        if isinstance(x, Laurent):
            return x
        parts = _dyadic(x)
        if parts is None:
            return None
        re, im, k = parts
        return Laurent({0: (re, im)} if re or im else {}, k)

    def __add__(self, other):
        if type(other) is int and not other:
            return self
        other = Laurent._coerce(other)
        if other is None:
            return NotImplemented
        if not other.terms:
            return self
        a, b = (self, other) if self.k >= other.k else (other, self)
        shift, terms = a.k - b.k, dict(a.terms)
        for mono, (re, im) in b.terms.items():
            re, im = re << shift, im << shift
            old = terms.get(mono)
            if old is not None:
                re, im = re + old[0], im + old[1]
                if not (re or im):
                    del terms[mono]
                    continue
            terms[mono] = (re, im)
        return Laurent(terms, a.k)

    __radd__ = __add__

    def __neg__(self) -> "Laurent":
        return Laurent({m: (-re, -im) for m, (re, im) in self.terms.items()}, self.k)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is int:
            return self if other == 1 else Laurent(
                {m: (a * other, b * other) for m, (a, b) in self.terms.items()}
                if other else {}, self.k)
        if not isinstance(other, Laurent):
            parts = _dyadic(other)
            if parts is None:
                return NotImplemented
            c, d, k = parts
            return Laurent({m: (a * c - b * d, a * d + b * c)
                            for m, (a, b) in self.terms.items()} if c or d else {},
                           self.k + k)
        out = {}
        for m1, (a, b) in self.terms.items():
            for m2, (c, d) in other.terms.items():
                re, im, old = a * c - b * d, a * d + b * c, out.get(m1 + m2)
                out[m1 + m2] = (re, im) if old is None else (re + old[0], im + old[1])
        return Laurent({m: v for m, v in out.items() if v[0] or v[1]},
                       self.k + other.k)

    __rmul__ = __mul__

    def _inverse(self) -> "Laurent":
        """1 / self, for a monomial whose coefficient is +-2^j or +-i 2^j."""
        if len(self.terms) == 1:
            (mono, (re, im)), = self.terms.items()
            n = abs(re or im)
            if not (re and im or n & (n - 1)):
                unit = (1 if re > 0 else -1, 0) if re else (0, -1 if im > 0 else 1)
                return Laurent({-mono: unit}, n.bit_length() - 1 - self.k)
        raise ValueError("only a monomial of coefficient +-2^j or +-i 2^j "
                         "inverts exactly")

    def __truediv__(self, other):
        other = Laurent._coerce(other)
        return NotImplemented if other is None else self * other._inverse()

    def __rtruediv__(self, other):
        other = Laurent._coerce(other)
        return NotImplemented if other is None else other * self._inverse()

    def __pow__(self, n: int) -> "Laurent":
        base, out = (self if n >= 0 else self._inverse()), Laurent({0: (1, 0)})
        for _ in range(abs(n)):
            out = out * base
        return out

    def __eq__(self, other):
        other = Laurent._coerce(other)
        return NotImplemented if other is None else not (self - other).terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def conjugate(self) -> "Laurent":
        return Laurent({m: (re, -im) for m, (re, im) in self.terms.items()}, self.k)

    def exp(self) -> "Laurent":
        """e^self, one monomial in real positive variables of its own.

        A term c x, x a variable and 2c an integer, gives h^(-2c) for
        h = e^(-x/2), the variable named "e^(-x/2)": so e^(-x) = h^2, and
        exp turns the sums of the group law into products.  Any other term
        c x gives (e^(|c| x))^(sign c), and the rest R (a constant, complex
        or nonlinear terms) (e^(+-R))^(+-1), the sign making R's first
        coefficient positive, so exp(-y) = 1 / exp(y) still.  These
        variables are free: an identity that holds in them holds at their
        values.  numpy's exp on an object array calls this method.
        """
        mono, rest, names = 0, {}, list(_VARIABLES)
        for m, (re, im) in self.terms.items():
            v = (m.bit_length() - 1) // 16
            if im or m <= 0 or m != 1 << (16 * v):
                rest[m] = (re, im)
                continue
            c = Fraction(re, 1 << self.k)
            if (2 * c).denominator == 1:
                mono += int(-2 * c) * _monomial(f"e^(-{names[v]}/2)")
            else:
                mono += (1 if c > 0 else -1) * _monomial(f"e^({abs(c)}*{names[v]})")
        if rest:
            re, im = rest[min(rest)]
            s = 1 if (re or im) > 0 else -1
            key = sorted((m, Fraction(s * re, 1 << self.k), Fraction(s * im, 1 << self.k))
                         for m, (re, im) in rest.items())
            mono += s * _monomial(f"e^{key}")
        return Laurent({mono: (1, 0)})

    def cosh(self) -> "Laurent":
        return (self.exp() + (-self).exp()) * 0.5

    def sinh(self) -> "Laurent":
        return (self.exp() - (-self).exp()) * 0.5

    def size(self, mono: int) -> float:
        """|coefficient| of the monomial, 0.0 where it has none."""
        re, im = self.terms.get(mono, (0, 0))
        return math.ldexp(math.hypot(re, im), -self.k)


def relative_defect(parts) -> float:
    """The largest coefficient of sum(parts), each relative to the largest
    coefficient of the same monomial among the parts, which are Laurent
    polynomials or numbers: 0.0 where the sum vanishes identically, and of
    order 1 for a wrong term, whatever the size of the others."""
    parts = [Laurent._coerce(p) for p in parts]
    total = sum(parts, Laurent({}))
    return max((total.size(m) / max(p.size(m) for p in parts)
                for m in total.terms), default=0.0)
