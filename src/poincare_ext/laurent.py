"""Exact Laurent polynomials: the identities that hold at every B, decided.

Every claim the report makes holds for every B != 0, hbar, m, label,
group element, covector and state.  `irreps`, `quantization` and `group`
run their tables and the group law unchanged on Laurent variables, and
`dynamics` its rapidity forms, the exponentials of a rapidity through
Laurent.exp; each identity is decided once per process, on first use, by
relative_defect.  `cohomology`, `group` and `orbits` run model's one exact
elimination (Bareiss, whose divisions are Laurent.__floordiv__) at B a
Laurent variable, and decide the cohomology, the series and the orbit
cases by the one-term rule (Laurent.nowhere_zero).  A command that decides
nothing imports this module never.
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
    constants are 1/2, 1/4 and integers), +, - and * keep the numerators
    integers, and / (or //) divides by one term c x^m exactly or raises, so
    no operation rounds.  A monomial is one int, sum_v e_v 2^(16 v) over
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
        if not (other.terms and self.terms):
            return other if other.terms else self
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
        if not self.terms:
            return self
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

    def __truediv__(self, other):
        """self / other, exact: other a nonzero number or one term c x^m.
        ValueError where other has more terms, or a quotient coefficient is
        not a Gaussian integer over a power of two."""
        if type(other) is int and other == 1:
            return self
        other = Laurent._coerce(other)
        if other is None:
            return NotImplemented
        if len(other.terms) != 1:
            raise ValueError(f"a divisor of {len(other.terms)} terms does not "
                             "divide exactly: only a nonzero one-term c x^m does")
        if not self.terms:
            return self
        (mono, (cr, ci)), = other.terms.items()
        # c = (cr + i ci) 2^s with cr or ci odd, and self / c =
        # self conj(c) / (|c|^2 2^s), with |c|^2 = odd 2^t
        s = ((cr | ci) & -(cr | ci)).bit_length() - 1
        cr, ci = cr >> s, ci >> s
        norm = cr * cr + ci * ci
        t = (norm & -norm).bit_length() - 1
        odd, terms = norm >> t, {}
        for m, (re, im) in self.terms.items():
            a, b = re * cr + im * ci, im * cr - re * ci
            if a % odd or b % odd:
                raise ValueError("the division by a one-term divisor is not exact")
            terms[m - mono] = (a // odd, b // odd)
        return Laurent(terms, self.k + s + t - other.k)

    #: model.row_basis's Bareiss divides with //, exact by construction
    __floordiv__ = __truediv__

    def __rtruediv__(self, other):
        other = Laurent._coerce(other)
        return NotImplemented if other is None else other / self

    def as_integer_ratio(self) -> tuple:
        """(n, d) with self = n / d: n a Laurent of Gaussian-integer
        coefficients, d a power of two, as int's and float's methods give
        for a number (not always in lowest terms)."""
        if self.k <= 0:
            return Laurent({m: (re << -self.k, im << -self.k)
                            for m, (re, im) in self.terms.items()}), 1
        return Laurent(self.terms), 1 << self.k

    def nowhere_zero(self) -> bool:
        """Whether self is nonzero at every nonzero value of its variables,
        by the one-term rule: True for one term c x^m, False for 0 (zero
        at every value).  ValueError for more terms, which may vanish at
        some values and not at others: the rule does not decide them."""
        if len(self.terms) > 1:
            raise ValueError(f"a Laurent polynomial of {len(self.terms)} terms "
                             "may vanish at some values of its variables: the "
                             "one-term rule does not decide whether it is 0")
        return bool(self.terms)

    def __pow__(self, n: int) -> "Laurent":
        base, out = (self if n >= 0 else 1 / self), Laurent({0: (1, 0)})
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
