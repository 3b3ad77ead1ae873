"""Quasideterminants: the Hessenberg polynomial case, Bell matrices, exact
numeric quasideterminants over Q, and determinants for the commutative side.

A matrix is a plain row-major list of lists. Hessenberg here means -1 just
below the diagonal and zeros further down, the layout that hessenberg
builds around given entries; such a quasideterminant taken at the
top-right corner is a polynomial in the entries, computed by the P(n)
recursion with the empty-product seed P(0) = 1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from .algebra import CPoly, NCPoly, TermRing, _coeff, common_denominator, ring


def _entry_class(M):
    for row in M:
        for e in row:
            if isinstance(e, (NCPoly, CPoly)):
                return type(e)
    raise ValueError("matrix has no polynomial entries")


def check_hessenberg(M) -> None:
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("matrix is not square")
    for i in range(n):
        for j in range(n):
            e = M[i][j]
            if i == j + 1:
                if not e == -1:
                    raise ValueError(f"subdiagonal entry ({i+1},{j+1}) is not -1")
            elif i > j + 1:
                if e:
                    raise ValueError(f"entry ({i+1},{j+1}) below the subdiagonal is nonzero")


def hessenberg_quasidet(M):
    """|M|_{1n} for a Hessenberg matrix with -1 subdiagonal, via
    P(j) = sum_{k=1}^{j} P(k-1) a_{k j}, P(0) = 1."""
    check_hessenberg(M)
    n = len(M)
    cls = _entry_class(M)
    P = [cls.one()]
    for j in range(1, n + 1):
        acc = cls.zero()
        for k in range(1, j + 1):
            acc = acc + P[k - 1] * M[k - 1][j - 1]
        P.append(acc)
    return P[n]


def hessenberg_quasidet_sum(M):
    """The same quasideterminant as the explicit sum over strictly increasing
    index chains: a_{1n} + sum a_{1 j_1} a_{j_1+1, j_2} ... a_{j_k+1, n}."""
    check_hessenberg(M)
    n = len(M)
    cls = _entry_class(M)
    out = cls.zero()
    for k in range(n):
        for chain in combinations(range(1, n), k):
            idx = list(chain) + [n]
            prod = M[0][idx[0] - 1]
            prev = idx[0]
            for j in idx[1:]:
                prod = prod * M[prev][j - 1]
                prev = j
            out = out + prod
    return out


def hessenberg(n: int, cls, entry):
    """The n x n Hessenberg matrix over the ring class cls: entry(i, j) at
    1-based (i, j) on and above the diagonal, -1 on the subdiagonal and 0
    below it."""
    return [[entry(i, j) if i <= j else -cls.one() if i == j + 1 else cls.zero()
             for j in range(1, n + 1)] for i in range(1, n + 1)]


def bell_matrix(n: int, variant: str = "nc"):
    """The n x n Hessenberg matrix with (i,j) entry binom(j-1, i-1) d_{j-i+1}
    on and above the diagonal."""
    if n < 1:
        raise ValueError("need n >= 1")
    cls = ring(variant)
    return hessenberg(n, cls, lambda i, j: cls.letter(j - i + 1, comb(j - 1, i - 1)))


def quasidet(M):
    """The top-right quasideterminant of a Hessenberg matrix over NCPoly, and
    over CPoly the determinant, which it equals there."""
    if _entry_class(M) is NCPoly:
        return hessenberg_quasidet(M)
    return det(M)


def bell_via_quasidet(n: int, variant: str = "nc"):
    """B_n as the quasidet of its Bell matrix."""
    return quasidet(bell_matrix(n, variant))


def _refuse_inexact(M) -> None:
    """Raise _coeff's TypeError at the first entry of M that is not an int
    or a Fraction, a float in particular."""
    for row in M:
        for e in row:
            if not isinstance(e, (int, Fraction)):
                _coeff(e)


def det(M):
    """Exact determinant. Rational entries: each row is scaled to integers
    by the lcm of its denominators, fraction-free Bareiss elimination runs
    on the integer rows with exact integer division, and the result is one
    Fraction, that determinant over the product of the row scales.
    Polynomial entries go through first-row cofactor expansion with minors
    memoized by column set. Scalar entries with a float among them are a
    TypeError."""
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("matrix is not square")
    if n == 0:
        return Fraction(1)
    if all(isinstance(e, (int, Fraction)) for row in M for e in row):
        rows, scale = [], 1
        for row in M:
            nums, d = common_denominator(row)
            rows.append(nums)
            scale *= d
        return Fraction(_det_bareiss(rows), scale)
    if not any(isinstance(e, TermRing) for row in M for e in row):
        _refuse_inexact(M)  # scalars only, not all exact
    return _minor(M, 0, tuple(range(n)), {}, _entry_class(M))


def _minor(M, row: int, cols: tuple, memo: dict, cls):
    """The determinant of rows row.. of M restricted to cols, by expansion
    along its first row; memo holds the minors by (row, cols)."""
    if not cols:
        return cls.one()
    key = (row, cols)
    if key in memo:
        return memo[key]
    acc = cls.zero()
    for pos, j in enumerate(cols):
        e = M[row][j]
        if e:
            sub = _minor(M, row + 1, cols[:pos] + cols[pos + 1 :], memo, cls)
            term = e * sub
            acc = acc + (term if pos % 2 == 0 else -term)
    memo[key] = acc
    return acc


def _det_bareiss(M) -> int:
    """The determinant of a square integer matrix, which it overwrites.
    Every Bareiss quotient is a minor of M, so // is exact."""
    n = len(M)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not M[k][k]:
            for r in range(k + 1, n):
                if M[r][k]:
                    M[k], M[r] = M[r], M[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = M[k]
        pivot = pivot_row[k]
        for row in M[k + 1 :]:
            a = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - a * pivot_row[j]) // prev
        prev = pivot
    return sign * M[n - 1][n - 1]


def _integer_rows(M) -> tuple:
    """(N, scales) with M[i] == N[i] / scales[i]: each row of exact scalars
    as integer numerators over the lcm of its denominators."""
    pairs = [common_denominator(row) for row in M]
    return [nums for nums, _ in pairs], [s for _, s in pairs]


def _gauss_jordan(N) -> tuple:
    """(B, d) with N^{-1} = B / d for a square matrix N of ints, a list of
    lists: fraction-free Gauss-Jordan elimination on [N | I], with a row
    swap when a pivot is 0. After the step on column k every entry is a
    (k+1)-minor of the row-swapped [N | I], so each // is exact, and the
    left half ends as d times the identity, d the determinant of the
    row-swapped N. Kept apart from _det_bareiss: it is the inverse route
    that the determinant ratio is checked against. Raises
    ValueError("singular matrix")."""
    n = len(N)
    A = [row + [int(i == j) for j in range(n)] for i, row in enumerate(N)]
    prev = 1
    for k in range(n):
        if not A[k][k]:
            for r in range(k + 1, n):
                if A[r][k]:
                    A[k], A[r] = A[r], A[k]
                    break
            else:
                raise ValueError("singular matrix")
        pivot_row = A[k]
        pivot = pivot_row[k]
        for i, row in enumerate(A):
            if i != k:
                a = row[k]
                A[i] = [(x * pivot - a * y) // prev for x, y in zip(row, pivot_row)]
        prev = pivot
    return [row[n:] for row in A], prev


def mat_inverse(M):
    """Exact inverse of a square matrix of ints and Fractions, each entry a
    Fraction. Row i is scaled to integers by the lcm s_i of its
    denominators, so M^{-1} = N^{-1} diag(s) for the integer matrix N, and
    _gauss_jordan gives N^{-1} = B / d: entry (i, j) is B_ij s_j / d. A
    float entry is _coeff's TypeError."""
    if any(len(row) != len(M) for row in M):
        raise ValueError("matrix is not square")
    _refuse_inexact(M)
    N, scales = _integer_rows(M)
    B, d = _gauss_jordan(N)
    return [[Fraction(b * s, d) for b, s in zip(row, scales)] for row in B]


def numeric_quasidet(A, p: int, q: int) -> Fraction:
    """|A|_{pq} = a_{pq} - r (A^{pq})^{-1} c over the rationals, where r is
    row p without column q and c is column q without row p. Indices are
    1-based. The minor is scaled row by row to an integer matrix N with
    scales S, so (A^{pq})^{-1} = N^{-1} S, and _gauss_jordan gives
    N^{-1} = B / d; with r and c over one denominator each, r B S c is a
    sum of ints and the result is one Fraction. A float entry is _coeff's
    TypeError. Raises ValueError when the minor is singular (the
    quasideterminant is undefined there)."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("matrix is not square")
    if not (1 <= p <= n and 1 <= q <= n):
        raise ValueError("position out of range")
    _refuse_inexact(A)
    rows = [i for i in range(n) if i != p - 1]
    cols = [j for j in range(n) if j != q - 1]
    N, scales = _integer_rows([[A[i][j] for j in cols] for i in rows])
    try:
        B, d = _gauss_jordan(N)
    except ValueError:
        raise ValueError(f"minor A^{{{p}{q}}} is singular; quasideterminant undefined")
    r, dr = common_denominator([A[p - 1][j] for j in cols])
    c, dc = common_denominator([A[i][q - 1] for i in rows])
    sc = [s * x for s, x in zip(scales, c)]
    total = sum(x * sum(b * y for b, y in zip(row, sc)) for x, row in zip(r, B))
    a = A[p - 1][q - 1]
    den = d * dr * dc
    return Fraction(a.numerator * den - total * a.denominator, a.denominator * den)
