"""Reference values computed without ncbell, for checking its outputs.

Everything here is plain integer arithmetic on the defining recurrences,
so a defect in the library cannot leak into the values it is checked
against.
"""

from __future__ import annotations

from functools import lru_cache
from fractions import Fraction
from math import comb, factorial


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind: S(n,k) = k S(n-1,k) + S(n-1,k-1)."""
    if n == 0 or k == 0:
        return int(n == k)
    if k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def bell_number(n: int) -> int:
    return sum(stirling2(n, k) for k in range(n + 1))


def word_coefficient(word) -> int:
    """Coefficient of d_{j_1}...d_{j_k} in B_n: the number of set partitions
    whose block sizes, read by increasing block maxima, are j_1..j_k, which
    is prod_i binom(j_1+...+j_i - 1, j_i - 1)."""
    total, out = 0, 1
    for j in word:
        total += j
        out *= comb(total - 1, j - 1)
    return out


def scaled_coefficient(word) -> Fraction:
    """Coefficient of the word in Q_n = B_n(1! d_1, 2! d_2, ...) / n!."""
    num = word_coefficient(word)
    for j in word:
        num *= factorial(j)
    return Fraction(num, factorial(sum(word)))


def random_composition(rng, n: int) -> tuple:
    """A uniformly drawn composition of n: each of the n-1 gaps is a cut
    with probability 1/2."""
    parts, run = [], 1
    for _ in range(n - 1):
        if rng.random() < 0.5:
            parts.append(run)
            run = 1
        else:
            run += 1
    parts.append(run)
    return tuple(parts)


def compositions(n: int):
    """Every composition of n >= 1, as tuples."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def partition_count(n: int) -> int:
    """Number of integer partitions of n, by the coin-change recurrence."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def scaled_sum(n: int) -> Fraction:
    """Sum of all coefficients of Q_n."""
    return sum((scaled_coefficient(word) for word in compositions(n)), Fraction(0))
