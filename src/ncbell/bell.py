"""Bell polynomials in the free algebra and its commutative quotient.

Four constructions live across this package; the two recursions and the
explicit composition-indexed sums are here, the quasideterminant route in
quasidet.py, and the tree route in trees.py. They are implemented
independently of one another on purpose: their agreement is a test, not a
definition.

Variants are selected by the strings "nc" and "c", through algebra.ring.

Two module memos serve the package: bell() keeps B_0..B_n of each variant
(_BELL), and bell_partial keeps, for each (n, variant) it was asked
about, the keys of B_n filed by length in B_n's own term order
(_PARTIAL, "bell.partial" in ncbell.cache_info). The graded pieces
B_{n,k} are read out of that index rather than by rescanning B_n.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .algebra import CPoly, NCPoly, QPoly, mono_length, qfactorial, qint, ring

_BELL: dict = {"nc": [NCPoly.one()], "c": [CPoly.one()]}
_PARTIAL: dict = {}  # (n, variant) -> [the keys of B_{n,k} in B_n's order, for k = 0..n]


def bell(n: int, variant: str = "nc"):
    """B_n by the derivation recursion B_n = (d_1 + derive) B_{n-1}.

    Each step adds derive(B_{n-1}) + d_1 B_{n-1}, larger half first: a
    ring sum copies its left operand's dict in C and adds its right
    operand's terms in a Python loop. derive(B_{n-1}) has 2^(n-1) - 1
    words against 2^(n-2) for d_1 B_{n-1} (nc), and all but one d_1-word
    is already a key of it, so the loop is the short one. B_n's term order
    follows the sum: derive's words first. A larger-operand-first rule
    for every ring sum measured about as fast on bell-deep but raised its
    peak memory and would reorder every sum in the package; a local get
    in derive, a sorted-and-grouped partial index and a unit-coefficient
    one-term product measured no better together than this order alone.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    cls = ring(variant)
    cache = _BELL[variant]
    while len(cache) <= n:
        prev = cache[-1]
        cache.append(prev.derive() + cls.letter(1) * prev)
    return cache[n]


def bell_recursion(n: int, variant: str = "nc"):
    """B_n by the binomial recursion B_{m+1} = sum_k binom(m,k) B_{m-k} d_{k+1}.

    Deliberately does not touch derive() or the other cache.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    cls = ring(variant)
    seq = [cls.one()]
    for m in range(n):
        nxt = cls.zero()
        for k in range(m + 1):
            nxt = nxt + comb(m, k) * (seq[m - k] * cls.letter(k + 1))
        seq.append(nxt)
    return seq[n]


def bell_partial(n: int, k: int, variant: str = "nc"):
    """The length-k part B_{n,k} of B_n; zero when k > n, unit at (0,0).

    The first call for (n, variant) files the keys of B_n by length in one
    pass, and the memo keeps those key lists; each call builds a new
    polynomial from them, so writing into it leaves B_n and the memo alone.
    """
    if n < 0 or k < 0:
        raise ValueError("need n, k >= 0")
    cls = ring(variant)
    if k > n:
        return cls.zero()
    terms = bell(n, variant).terms
    index = _PARTIAL.get((n, variant))
    if index is None:
        length = len if cls is NCPoly else mono_length
        index = _PARTIAL[n, variant] = [[] for _ in range(n + 1)]
        for key in terms:
            index[length(key)].append(key)
    return cls._new({key: terms[key] for key in index[k]})


def compositions(n: int, k: int):
    """All (j_1..j_k) with j_i >= 1 summing to n, in lexicographic order."""
    if k == 0:
        if n == 0:
            yield ()
        return
    for first in range(1, n - k + 2):
        for rest in compositions(n - first, k - 1):
            yield (first,) + rest


def kappa(word) -> Fraction:
    """kappa(d_{j_1}...d_{j_k}) = (j_1 j_2 ... j_k) / (j_1 (j_1+j_2) ... (j_1+...+j_k))."""
    word = tuple(word)
    if not word:
        raise ValueError("kappa needs a nonempty word")
    if any(j < 1 for j in word):
        raise ValueError("kappa accepts plain letters only")
    num = 1
    den = 1
    total = 0
    for j in word:
        num *= j
        total += j
        den *= total
    return Fraction(num, den)


def multinomial(n: int, parts) -> int:
    out = factorial(n)
    for p in parts:
        out //= factorial(p)
    return out


def bell_explicit(n: int, k: int) -> NCPoly:
    """B_{n,k} as the composition sum of binom(n, omega) kappa(omega) omega."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    out = NCPoly.zero()
    for parts in compositions(n, k):
        coeff = multinomial(n, parts) * kappa(parts)
        out = out + NCPoly.from_word(parts, coeff)
    return out


def _explicit_terms(n: int, i: int, blocks_left: int, weight_left: int,
                    alpha: list, out: dict) -> None:
    """Add to out the terms of bell_c_explicit(n, .) whose multiplicities of
    d_1..d_{i-1} are alpha, with blocks_left letters and weight_left weight
    still to place on d_i..d_n."""
    if i > n:
        if blocks_left == 0 and weight_left == 0:
            coeff = Fraction(factorial(n))
            mono = []
            for idx, a in enumerate(alpha, start=1):
                if a:
                    coeff /= factorial(a) * factorial(idx) ** a
                    mono.append((idx, a))
            out[tuple(mono)] = out.get(tuple(mono), 0) + coeff
        return
    for a in range(min(blocks_left, weight_left // i) + 1):
        alpha.append(a)
        _explicit_terms(n, i + 1, blocks_left - a, weight_left - i * a, alpha, out)
        alpha.pop()


def bell_c_explicit(n: int, k: int) -> CPoly:
    """Commutative B_{n,k} as the multi-index sum over (alpha_1..alpha_n)
    with sum alpha_i = k and sum i alpha_i = n of
    n!/(alpha_1! ... alpha_n!) prod (d_i / i!)^{alpha_i}."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    out_terms: dict = {}
    _explicit_terms(n, 1, k, n, [], out_terms)
    return CPoly(out_terms)


def bell_scaled(n: int, k: int | None = None) -> NCPoly:
    """Q_{n,k} = (1/n!) B_{n,k}(1! d_1, 2! d_2, ...); Q_n when k is None."""
    if n < 1:
        raise ValueError("need n >= 1")
    base = bell(n, "nc") if k is None else bell_partial(n, k, "nc")
    mapping = {i: NCPoly.letter(i, factorial(i)) for i in range(1, n + 1)}
    return base.substitute(mapping) * Fraction(1, factorial(n))


# ---------------------------------------------------------------------------
# the q-analog

# The q-coefficient as displayed leaves the kappa numerator unbracketed
# (plain integers p_1...p_k against q-bracket denominators). That reading
# fails to be polynomial in q: for the word d2 d2 it gives
# 4(1+q+q^2)/(1+q)^2, which is not a polynomial. The fully bracketed
# reading below matches the brute-force partition-weight statistic, so it
# is the one qbell uses; at q = 1 both would agree where the plain one is
# defined.


def qkappa(parts) -> tuple:
    """Numerator and denominator q-polynomials of the bracketed kappa."""
    num = QPoly.one()
    den = QPoly.one()
    total = 0
    for p in parts:
        num = num * qint(p)
        total += p
        den = den * qint(total)
    return num, den


def qbell_coefficient(parts) -> QPoly:
    """Coefficient of the word d_{p_1}...d_{p_k} in the q-Bell polynomial:
    q-multinomial times bracketed kappa, reduced exactly."""
    parts = tuple(parts)
    n = sum(parts)
    num = qfactorial(n)
    den = QPoly.one()
    for p in parts:
        den = den * qfactorial(p)
    knum, kden = qkappa(parts)
    return (num * knum).divexact(den * kden)


def qbell(n: int, k: int) -> dict:
    """The q-Bell polynomial as a map from composition (p_1..p_k) to its
    QPoly coefficient. Words are kept composition-indexed so that each
    coefficient can be compared with the q-weight oracle; group with
    qbell_grouped for the commutative picture."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    return {parts: qbell_coefficient(parts) for parts in compositions(n, k)}


def qbell_grouped(n: int, k: int) -> dict:
    """q-Bell coefficients summed over words with the same letter multiset,
    keyed by the sorted multiset."""
    out: dict = {}
    for parts, c in qbell(n, k).items():
        key = tuple(sorted(parts))
        out[key] = out.get(key, QPoly.zero()) + c
    return {key: c for key, c in out.items() if c}
