"""Set partitions of {1..n}: enumeration, max-ordered counting, Stirling and
Bell numbers, and the q-weight statistic behind the q-analog coefficients.

A partition is stored as a tuple of blocks, each block a sorted tuple of
integers, with the blocks listed in increasing order of their maxima. That
ordering is the one the block-size words d_{|P_1|} ... d_{|P_k|} read off.

The brute-force q-count memoises per ground set: the partitions of {1..s}
into k blocks are enumerated once, and their weights are tallied into one
{weight: count} histogram per max-ordered size tuple. Every composition of
s into k parts then reads its histogram from the memo (_QCOUNT, keyed by
(s, k)), and each call returns a fresh QPoly built from it.
"""

from __future__ import annotations

from math import comb
from operator import itemgetter

from .algebra import QPoly, qbinomial


def iter_partitions(n: int, k: int | None = None):
    """Yield the set partitions of {1..n}, optionally into exactly k blocks.

    Generated by restricted growth strings: element i goes into block a_i
    with a_1 = 0 and a_i <= max(a_1..a_{i-1}) + 1, the strings in
    lexicographic order. A branch stops as soon as it has more than k
    blocks or cannot reach k with the elements left. The walk keeps its
    stack in lists rather than in a recursive closure, so an abandoned
    generator leaves no reference cycle. Bad arguments raise on the first
    next().
    """
    if n < 1:
        raise ValueError("ground set must be nonempty")
    if k is not None and (k < 1 or k > n):
        raise ValueError(f"block count {k} out of range for n={n}")
    a = [0] * n
    opened = [0] * (n + 1)  # opened[i]: blocks used by a[0..i-1]
    untried = [0] * n  # untried[i]: the next block to try for a[i]
    opened[1] = 1
    i = 1
    while i:
        if i == n:
            blocks = [[] for _ in range(opened[n])]
            for pos in range(n):
                blocks[a[pos]].append(pos + 1)
            # filled in increasing order, so each block is already sorted
            yield tuple(sorted(map(tuple, blocks), key=itemgetter(-1)))
            i -= 1
            continue
        b = untried[i]
        if b > opened[i]:
            i -= 1
            continue
        untried[i] = b + 1
        c = max(opened[i], b + 1)
        if k is not None and (c > k or c + n - i - 1 < k):
            continue
        a[i] = b
        opened[i + 1] = c
        i += 1
        if i < n:
            untried[i] = 0


def enumerate_partitions(n: int, k: int | None = None) -> list:
    """The list of iter_partitions(n, k)."""
    return list(iter_partitions(n, k))


def block_sizes(P) -> tuple:
    """Sizes read off in increasing order of block maxima."""
    return tuple(map(len, sorted(P, key=itemgetter(-1))))


def count_max_ordered(n: int, sizes) -> int:
    """Number of partitions with max-ordered block sizes exactly (p_1..p_k).

    Counted by brute force on a ground set of size sum(p_i); if n exceeds
    that, the count is scaled by the binomial choosing which elements the
    blocks use (the leftover elements are not partitioned).
    """
    sizes = tuple(sizes)
    if any(p < 1 for p in sizes):
        raise ValueError("block sizes must be positive")
    s = sum(sizes)
    if s > n:
        raise ValueError(f"size sum {s} exceeds ground set {n}")
    if not sizes:
        return 1
    hits = sum(1 for P in iter_partitions(s, len(sizes)) if block_sizes(P) == sizes)
    return comb(n, s) * hits


def N_formula(sizes) -> int:
    """Closed form for count_max_ordered on a ground set of size sum(p_i):
    the product of binom(p_1+...+p_{i+1} - 1, p_{i+1} - 1) over i = 1..k-1.
    """
    sizes = tuple(sizes)
    if any(p < 1 for p in sizes):
        raise ValueError("block sizes must be positive")
    total = 0
    out = 1
    for i, p in enumerate(sizes):
        total += p
        if i > 0:
            out *= comb(total - 1, p - 1)
    return out


def weight(P) -> int:
    """The q-weight of a partition.

    Iteratively remove the block containing the current maximum from the
    current ground set {1..m}. Each maximal run of consecutive elements of
    the removed block whose start j has no predecessor j-1 in the block
    scores m - j, except that a run starting at 1 scores nothing. The
    remaining elements are relabeled 1..m' preserving order, and the
    process repeats until a single block is left. The weight is the total
    score; the generating function over all partitions with fixed
    max-ordered sizes is the q-binomial product of qcount_product.
    """
    blocks = sorted((tuple(b) for b in P), key=lambda b: b[-1])
    total = 0
    while len(blocks) > 1:
        removed = blocks.pop()
        m = len(removed) + sum(len(b) for b in blocks)
        if removed[-1] != m:
            raise ValueError("partition does not cover a {1..m} ground set")
        members = set(removed)
        for j in removed:
            if j >= 2 and (j - 1) not in members:
                total += m - j
        remaining = sorted(x for b in blocks for x in b)
        relabel = {x: i + 1 for i, x in enumerate(remaining)}
        blocks = sorted(
            (tuple(relabel[x] for x in b) for b in blocks), key=lambda b: b[-1]
        )
    return total


_QCOUNT: dict = {}


def qcount_max_ordered(sizes) -> QPoly:
    """Brute-force generating function sum of q^weight(P) over all partitions
    of {1..sum(sizes)} with the given max-ordered block sizes.

    The first call for a ground set size s = sum(sizes) and block count
    k = len(sizes) enumerates the partitions of {1..s} into k blocks once
    and tallies q^weight(P) for every size tuple in _QCOUNT; later calls
    with the same (s, k) read that tally. The QPoly returned is new on
    every call, so changing it leaves the memo alone.
    """
    sizes = tuple(sizes)
    if any(p < 1 for p in sizes):
        raise ValueError("block sizes must be positive")
    key = (sum(sizes), len(sizes))
    tally = _QCOUNT.get(key)
    if tally is None:
        tally = {}
        for P in enumerate_partitions(*key):
            hist = tally.setdefault(block_sizes(P), {})
            w = weight(P)
            hist[w] = hist.get(w, 0) + 1
        _QCOUNT[key] = tally
    return QPoly(tally.get(sizes))


def qcount_product(sizes) -> QPoly:
    """The q-binomial product form: prod over i of
    qbinomial(p_1+...+p_{i+1} - 1, p_{i+1} - 1)."""
    sizes = tuple(sizes)
    total = 0
    out = QPoly.one()
    for i, p in enumerate(sizes):
        total += p
        if i > 0:
            out = out * qbinomial(total - 1, p - 1)
    return out


_STIRLING: dict = {}


def stirling2(n: int, k: int) -> int:
    if n < 0 or k < 0:
        raise ValueError("need n, k >= 0")
    if k > n:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    key = (n, k)
    if key not in _STIRLING:
        _STIRLING[key] = k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)
    return _STIRLING[key]


def bell_number(n: int) -> int:
    return sum(stirling2(n, k) for k in range(n + 1))

