"""Truncated power series with exact rational coefficients.

A PowerSeries stores coefficients for x^0 .. x^order as Fractions.  The
truncation order is an explicit parameter everywhere: binary operations
truncate to the smaller order, and coefficients beyond the order are
undefined rather than silently zero.  `fractions` loads on first use of a
PowerSeries: integer_sqrt_coefficients, the part the package calls, needs
none of it.
"""

from __future__ import annotations

import math
from itertools import accumulate, repeat
from operator import mul
from typing import TYPE_CHECKING

from .errors import ExactDivisionError, InvariantError

if TYPE_CHECKING:
    from fractions import Fraction


class PowerSeries:
    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order: int):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        from fractions import Fraction
        c = [Fraction(a) for a in coeffs]
        if len(c) > order + 1:
            c = c[: order + 1]
        else:
            c.extend(Fraction(0) for _ in range(order + 1 - len(c)))
        self.coeffs = tuple(c)
        self.order = order

    @classmethod
    def constant(cls, value, order: int) -> "PowerSeries":
        return cls([value], order)

    @classmethod
    def monomial(cls, coeff, power: int, order: int) -> "PowerSeries":
        if power < 0:
            raise ValueError("monomial power must be >= 0")
        return cls([0] * power + [coeff], order)

    def coefficient(self, power: int) -> Fraction:
        if not 0 <= power <= self.order:
            raise IndexError(f"coefficient of x^{power} undefined beyond order {self.order}")
        return self.coeffs[power]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def _common_order(self, other: "PowerSeries") -> int:
        return min(self.order, other.order)

    def __add__(self, other) -> "PowerSeries":
        other = _coerce(other, self.order)
        n = self._common_order(other)
        return PowerSeries([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)], n)

    __radd__ = __add__

    def __neg__(self) -> "PowerSeries":
        return PowerSeries([-a for a in self.coeffs], self.order)

    def __sub__(self, other) -> "PowerSeries":
        other = _coerce(other, self.order)
        n = self._common_order(other)
        return PowerSeries([self.coeffs[i] - other.coeffs[i] for i in range(n + 1)], n)

    def __rsub__(self, other) -> "PowerSeries":
        return _coerce(other, self.order) - self

    def __mul__(self, other) -> "PowerSeries":
        other = _coerce(other, self.order)
        n = self._common_order(other)
        out = [0] * (n + 1)  # the constructor makes every entry a Fraction
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a:
                for j in range(n + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return PowerSeries(out, n)

    __rmul__ = __mul__

    def divide(self, other: "PowerSeries") -> "PowerSeries":
        """Series quotient; the divisor needs a nonzero constant coefficient."""
        other = _coerce(other, self.order)
        if other.coeffs[0] == 0:
            raise ExactDivisionError(
                "series division needs a nonzero constant coefficient "
                "(use divide_monomial for division by a power of x)"
            )
        n = self._common_order(other)
        inv0 = 1 / other.coeffs[0]
        out = [0] * (n + 1)
        for i in range(n + 1):
            acc = self.coeffs[i]
            for j in range(1, i + 1):
                if other.coeffs[j]:
                    acc -= other.coeffs[j] * out[i - j]
            out[i] = acc * inv0
        return PowerSeries(out, n)

    def divide_monomial(self, power: int, coeff=1) -> "PowerSeries":
        """Exact division by coeff * x^power; the low coefficients must vanish."""
        if power < 0:
            raise ValueError("monomial power must be >= 0")
        if power > self.order:
            raise ValueError(f"cannot shift by x^{power} past truncation order {self.order}")
        low = self.coeffs[:power]
        if any(low):
            bad = next(i for i, a in enumerate(low) if a)
            raise ExactDivisionError(
                f"division by x^{power}: coefficient of x^{bad} is {low[bad]}, not 0"
            )
        from fractions import Fraction
        c = Fraction(coeff)
        if c == 0:
            raise ZeroDivisionError("division by a zero monomial")
        return PowerSeries([a / c for a in self.coeffs[power:]], self.order - power)

    def sqrt(self) -> "PowerSeries":
        """Principal square root g with g^2 = self; requires constant term 1.

        Computed in integers: with c = 4 * lcm(denominators), self(c x) is
        1 + 4u for an integer series u, so its square root H has integer
        coefficients, computed by integer_sqrt_coefficients.  Then
        g_m = H_m / c^m.
        """
        if self.coeffs[0] != 1:
            raise ExactDivisionError(
                f"series sqrt requires constant coefficient 1, got {self.coeffs[0]}"
            )
        from fractions import Fraction
        c = 4 * math.lcm(*(a.denominator for a in self.coeffs))
        powers = list(accumulate(repeat(c, self.order), mul, initial=1))
        scaled = [a.numerator * (cm // a.denominator) for a, cm in zip(self.coeffs, powers)]
        return PowerSeries(map(Fraction, integer_sqrt_coefficients(scaled), powers), self.order)

    def integer_coefficients(self) -> list[int]:
        """All coefficients as ints; raises if any is non-integral."""
        out = []
        for i, a in enumerate(self.coeffs):
            if a.denominator != 1:
                raise ExactDivisionError(f"coefficient of x^{i} is {a}, not an integer")
            out.append(a.numerator)
        return out

    def __str__(self) -> str:
        terms = []
        for p, a in enumerate(self.coeffs):
            if a == 0:
                continue
            if p == 0:
                terms.append(str(a))
            elif p == 1:
                terms.append(f"{a}*x")
            else:
                terms.append(f"{a}*x^{p}")
        body = " + ".join(terms).replace("+ -", "- ") if terms else "0"
        return f"{body} + O(x^{self.order + 1})"

    def __repr__(self) -> str:
        return f"PowerSeries({[str(a) for a in self.coeffs]}, order={self.order})"


def integer_sqrt_coefficients(coeffs: list[int]) -> list[int]:
    """Coefficients of the square root, with constant term 1, of an integer series.

    coeffs[0] must be 1.  The root H obeys 2 H_m = F_m - sum_{i=1}^{m-1}
    H_i H_{m-i}; each halving is checked, and an odd value (the root is not
    integral) raises InvariantError.  Truncated at the length of coeffs.
    """
    if coeffs[0] != 1:
        raise InvariantError(f"integer series sqrt needs constant term 1, got {coeffs[0]}")
    h = [1]
    for m in range(1, len(coeffs)):
        twice = coeffs[m] - sum(map(mul, h[1:m], reversed(h[1:m])))
        if twice & 1:
            raise InvariantError(f"integer series sqrt: the root has a non-integer coefficient at x^{m}")
        h.append(twice >> 1)
    return h


def _coerce(value, order: int) -> PowerSeries:
    from fractions import Fraction
    if isinstance(value, PowerSeries):
        return value
    if isinstance(value, (int, Fraction)):
        return PowerSeries.constant(value, order)
    raise TypeError(f"cannot use {type(value).__name__} as a power series")


def geometric_series(order: int) -> PowerSeries:
    """1 + x + x^2 + ... = 1/(1-x), truncated."""
    return PowerSeries([1] * (order + 1), order)
