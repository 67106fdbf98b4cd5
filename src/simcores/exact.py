"""Exact integer combinatorics and determinants over Z and Z[q].

Matrices are plain sequences of row sequences.  Determinants over Z use
fraction-free (Bareiss) elimination at every dimension; every division in
the elimination is exact by construction and checked.  Determinants over
Z[q] are reduced to one determinant over Z by Kronecker substitution.
"""

from __future__ import annotations

import math

from .errors import InvariantError
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


def _det_bareiss(rows) -> int:
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = 1
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
                return 0
        pivot, pivot_row = m[k][k], m[k]
        for i in range(k + 1, n):
            row = m[i]
            lead = row[k]
            for j in range(k + 1, n):
                q, r = divmod(row[j] * pivot - lead * pivot_row[j], prev)
                if r:
                    raise InvariantError(f"inexact integer division by {prev} in elimination")
                row[j] = q
            row[k] = 0
        prev = pivot
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def det_exact(rows) -> int:
    """Exact determinant of a square integer matrix; dimension 0 gives 1."""
    _check_square(rows)
    return _det_bareiss(rows)


def det_qpoly(rows) -> QPolynomial:
    """Exact determinant of a square matrix of QPolynomial (or int) entries.

    Kronecker substitution: every coefficient of the determinant is bounded
    in absolute value by bound = prod_i sum_j ||m_ij||_1 (the permanent of
    the entrywise 1-norms is at most that product), so with
    B = bound.bit_length() + 1 the integer determinant at q = 2^B, computed
    over Z by Bareiss, holds each coefficient as one balanced base-2^B digit.
    Evaluation is a ring homomorphism, so the unpacked polynomial is exact.
    """
    _check_square(rows)
    coeffs = [[(e if isinstance(e, QPolynomial) else QPolynomial((e,))).coeffs for e in r]
              for r in rows]
    bound = 1
    for r in coeffs:
        bound *= sum(abs(a) for c in r for a in c)
    shift = bound.bit_length() + 1
    evaluated = []
    for r in coeffs:
        row = []
        for c in r:
            acc = 0
            for a in reversed(c):
                acc = (acc << shift) + a
            row.append(acc)
        evaluated.append(row)
    value = _det_bareiss(evaluated)
    mask, half = (1 << shift) - 1, 1 << (shift - 1)
    digits = []
    while value:
        d = value & mask
        if d >= half:
            d -= 1 << shift
        digits.append(d)
        value = (value - d) >> shift
    return QPolynomial(digits)


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
