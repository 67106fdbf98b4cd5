"""Exact integer combinatorics and determinants over Z and Z[q].

Matrices are plain sequences of row sequences.  Determinants use
fraction-free (Bareiss) elimination at every dimension; every division in
the elimination is exact by construction and checked.
"""

from __future__ import annotations

import math

from .errors import ExactDivisionError
from .qpoly import QPolynomial


def binomial(n: int, k: int) -> int:
    """C(n, k), with value 0 for k < 0 or k > n.  Negative n is rejected."""
    if k < 0:
        return 0
    if n < 0:
        raise ValueError(f"binomial with negative upper index {n} is outside the usage domain")
    if k > n:
        return 0
    return math.comb(n, k)


def catalan_number(n: int) -> int:
    """C_n = binomial(2n, n) / (n+1)."""
    if n < 0:
        raise ValueError(f"Catalan number undefined for n = {n}")
    return math.comb(2 * n, n) // (n + 1)


def _check_square(rows) -> None:
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise ValueError(f"matrix is not square: {n} rows, a row of length {len(r)}")


def _det_bareiss(rows, zero, divide):
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = zero + 1
    if not n:
        return prev
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return zero
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = divide(m[i][j] * m[k][k] - m[i][k] * m[k][j], prev)
            m[i][k] = zero
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def _int_exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ExactDivisionError(f"inexact integer division {a} / {b} in elimination")
    return q


def det_exact(rows) -> int:
    """Exact determinant of a square integer matrix; dimension 0 gives 1."""
    _check_square(rows)
    return _det_bareiss(rows, 0, _int_exact_div)


def det_qpoly(rows) -> QPolynomial:
    """Exact determinant of a square matrix of QPolynomial entries."""
    _check_square(rows)
    coerced = [[e if isinstance(e, QPolynomial) else QPolynomial((e,)) for e in r] for r in rows]
    return _det_bareiss(coerced, QPolynomial.zero(), lambda a, b: a.exact_div(b))


def hessenberg_catalan_det(n: int) -> int:
    """det of the (n-1)x(n-1) matrix with entry C(j+1, i-j+1); equals C_n.

    The matrix is Hessenberg: the subdiagonal is all ones and everything
    below it vanishes, which is what drives the alternating-sum recursion
    for Catalan numbers.
    """
    if n < 1:
        raise ValueError(f"hessenberg_catalan_det requires n >= 1, got {n}")
    rows = [
        [binomial(j + 1, i - j + 1) for j in range(1, n)]
        for i in range(1, n)
    ]
    return det_exact(rows)
