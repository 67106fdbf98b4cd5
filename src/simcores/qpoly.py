"""Exact integer-coefficient polynomials in q, and Gaussian binomials.

A polynomial is a tuple of int coefficients indexed by the power of q,
normalized so there are no trailing zeros; the zero polynomial has an
empty coefficient tuple.  All arithmetic is exact.
"""

from __future__ import annotations

import math
from operator import index

from .errors import InvariantError


class QPolynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        # read through operator.index: a float or a str raises TypeError, not rounds
        c = list(map(index, coeffs))
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls(())

    @classmethod
    def _from_kronecker(cls, value: int, shift: int) -> "QPolynomial":
        """The polynomial whose value at q = 2^shift is value, read off as
        balanced base-2^shift digits; exact when every coefficient lies in
        [-2^(shift-1), 2^(shift-1))."""
        mask, half = (1 << shift) - 1, 1 << (shift - 1)
        digits = []
        while value:
            d = value & mask
            if d >= half:
                d -= 1 << shift
            digits.append(d)
            value = (value - d) >> shift
        return cls(digits)

    @classmethod
    def monomial(cls, coeff: int, power: int) -> "QPolynomial":
        if power < 0:
            raise ValueError("monomial power must be >= 0")
        if coeff == 0:
            return cls(())
        return cls((0,) * power + (coeff,))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def coefficient(self, power: int) -> int:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = QPolynomial((other,))
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other) -> "QPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return QPolynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "QPolynomial":
        return QPolynomial(tuple(-a for a in self.coeffs))

    def __sub__(self, other) -> "QPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "QPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "QPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPolynomial(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return QPolynomial(out)

    __rmul__ = __mul__

    def __call__(self, value):
        """Evaluate by Horner; at value=1 this is the coefficient sum."""
        acc = 0
        for a in reversed(self.coeffs):
            acc = acc * value + a
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for p, a in enumerate(self.coeffs):
            if a == 0:
                continue
            if p == 0:
                terms.append(str(a))
            else:
                head = "" if a == 1 else ("-" if a == -1 else f"{a}*")
                terms.append(f"{head}q" if p == 1 else f"{head}q^{p}")
        return " + ".join(terms).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"QPolynomial({list(self.coeffs)})"


def _coerce(value):
    if isinstance(value, QPolynomial):
        return value
    if isinstance(value, int):
        return QPolynomial((value,))
    return NotImplemented


def q_binomial(n: int, k: int) -> QPolynomial:
    """Gaussian binomial [n over k]_q as an exact polynomial.

    Zero polynomial for k < 0 or k > n; evaluating at q = 1 gives the
    ordinary binomial coefficient.  The product formula
    prod_{i<=k} (q^(n-k+i) - 1) / (q^i - 1) is taken over Z at q = 2^B with
    B = C(n, k).bit_length() + 1: each coefficient counts the partitions of
    one size in a k x (n-k) box, so it is at most C(n, k) and the quotient
    holds it as one base-2^B digit, unpacked as det_qpoly unpacks its value.
    """
    if n < 0:
        raise ValueError(f"q_binomial requires n >= 0, got {n}")
    if k < 0 or k > n:
        return QPolynomial.zero()
    k = min(k, n - k)
    shift = math.comb(n, k).bit_length() + 1
    num = den = 1
    for i in range(1, k + 1):
        num *= (1 << (shift * (n - k + i))) - 1
        den *= (1 << (shift * i)) - 1
    value, rem = divmod(num, den)
    if rem:
        raise InvariantError(f"q-binomial product for [{n} over {k}] left a nonzero remainder")
    return QPolynomial._from_kronecker(value, shift)
