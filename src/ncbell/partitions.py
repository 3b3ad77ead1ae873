"""Set partitions of {1..n}: enumeration, max-ordered counting, Stirling and
Bell numbers, and the q-weight statistic behind the q-analog coefficients.

A partition is stored as a tuple of blocks, each block a sorted tuple of
integers, with the blocks listed in increasing order of their maxima. That
ordering is the one the block-size words d_{|P_1|} ... d_{|P_k|} read off,
so tuple(map(len, P)) is the word of a partition that iter_partitions
yields.

iter_partitions walks the restricted-growth tree and carries each node's
blocks already in max order: placing the next element, which is larger
than every element placed so far, moves its block to the end. The q-weight
is read in the original labels: removing blocks from the largest maximum
down, each removal is scored by one scan of the remaining ground set.
That score depends only on the stage, the pair (ground set, removed
block), and one private scanner, _stage_score, reads it from the two as
bitmasks (bit x for element x); weight checks a partition given in any
form, builds its block masks and scans each of its stages.

size_words takes the same step on words instead of partitions: since a
child's word depends only on its parent's, it carries one count per word
and never builds a partition. It stays independent of the routes it
checks: bell() raises one letter in place and puts d_1 in front, while
this step moves the grown letter to the end and puts 1 behind, and
N_formula is a closed product that the walk never reads.

The brute-force q-count memoises per ground set: the partitions of {1..s}
are enumerated once, one block count k at a time, so at most S(s, k) of
them are held at once, and their weights are tallied into one
{weight: count} histogram per max-ordered size word. Every composition
of s then reads its histogram from the memo (_QCOUNT, keyed by s), and
each call returns a fresh QPoly built from it. Many partitions share a
stage: at s = 10 the 115,975 partitions have 9,841 distinct ones. So the
fill sums each weight from a stage-score table, keyed by (ground mask,
block mask) and filled by _stage_score on a miss, that lives only for
that fill, so each distinct stage is scanned once. The walk yields each
partition valid and in max order, so the tally takes its blocks as they
stand, without weight's copy, sort and checks; weight itself is not
called.
"""

from __future__ import annotations

from math import comb
from operator import itemgetter

from .algebra import QPoly, qbinomial


def iter_partitions(n: int, k: int | None = None):
    """Yield the set partitions of {1..n}, optionally into exactly k blocks.

    The walk goes down the restricted-growth tree: element i joins block
    a_i with a_1 = 0 and a_i <= max(a_1..a_{i-1}) + 1, and the growth
    strings come out in lexicographic order. Each node carries its
    partition of {1..i} as block tuples already in max order, with the
    growth label of each block. Placing i+1 in block b gives the child
    directly: that block moves to the end, extended by i+1, since i+1 is
    now the largest maximum; a new block (i+1,) is appended. So a leaf is
    yielded as it stands, with no rebuild or sort. A branch stops as soon
    as it has more than k blocks or cannot reach k with the elements left.
    The pending nodes live on one list stack, so an abandoned generator
    leaves no reference cycle. Bad arguments raise on the first next().
    """
    if n < 1:
        raise ValueError("ground set must be nonempty")
    if k is not None and (k < 1 or k > n):
        raise ValueError(f"block count {k} out of range for n={n}")
    # a node (blocks, labels, left) holds the partition of the first n - left
    # elements; its children are pushed in reverse label order
    stack = [((), (), n)]
    push, pop = stack.append, stack.pop
    while stack:
        blocks, labels, left = pop()
        i = n - left + 1  # the element placed next
        m = len(blocks)
        new_block = k is None or m < k
        old_block = k is None or m + left - 1 >= k
        by_label = [0] * m
        for pos, b in enumerate(labels):
            by_label[b] = pos
        if left == 1:  # the children are leaves: yield them in label order
            if old_block:
                for p in by_label:
                    yield blocks[:p] + blocks[p + 1:] + (blocks[p] + (i,),)
            if new_block:
                yield blocks + ((i,),)
            continue
        if new_block:
            push((blocks + ((i,),), labels + (m,), left - 1))
        if old_block:
            for b in range(m - 1, -1, -1):
                p = by_label[b]
                push((blocks[:p] + blocks[p + 1:] + (blocks[p] + (i,),),
                      labels[:p] + labels[p + 1:] + (b,), left - 1))


def enumerate_partitions(n: int, k: int | None = None) -> list:
    """The list of iter_partitions(n, k)."""
    return list(iter_partitions(n, k))


_SIZE_WORDS: dict = {}


def size_words(n: int) -> dict:
    """{max-ordered block-size word: number of partitions of {1..n} that
    spell it}.

    The restricted-growth walk of iter_partitions, lumped by word: a
    child's word depends only on its parent's, so one {word: count} level
    per ground set carries every partition of {1..i}. Element i+1 opens a
    block, which appends 1, or joins the block at position j, whose size
    leaves its place and goes to the end one larger. A call starts from
    the highest level <= n in _SIZE_WORDS, stores every level it builds,
    and returns a fresh copy of level n.
    """
    if n < 1:
        raise ValueError("ground set must be nonempty")
    m = max((i for i in _SIZE_WORDS if i <= n), default=0)
    level = _SIZE_WORDS[m] if m else {(): 1}
    for i in range(m + 1, n + 1):
        grown: dict = {}
        for word, count in level.items():
            for j, p in enumerate(word):
                child = word[:j] + word[j + 1:] + (p + 1,)
                grown[child] = grown.get(child, 0) + count
            child = word + (1,)
            grown[child] = grown.get(child, 0) + count
        _SIZE_WORDS[i] = level = grown
    return dict(level)


def _block_sizes(sizes) -> tuple:
    """A max-ordered block-size word as a tuple; ValueError for a size that
    is not an int of at least 1 (a bool is not a size, though it is an
    int). The empty word is the one partition of the empty set, so the
    counts and the q-counts of () are all 1."""
    sizes = tuple(sizes)
    for p in sizes:
        if type(p) is bool or not isinstance(p, int) or p < 1:
            raise ValueError(f"block sizes must be positive ints, got {p!r}")
    return sizes


def count_max_ordered(n: int, sizes) -> int:
    """Number of partitions with max-ordered block sizes exactly (p_1..p_k).

    Counted by brute force on a ground set of size sum(p_i); if n exceeds
    that, the count is scaled by the binomial choosing which elements the
    blocks use (the leftover elements are not partitioned).
    """
    sizes = _block_sizes(sizes)
    s = sum(sizes)
    if s > n:
        raise ValueError(f"size sum {s} exceeds ground set {n}")
    if not sizes:
        return 1
    hits = sum(1 for P in iter_partitions(s, len(sizes)) if tuple(map(len, P)) == sizes)
    return comb(n, s) * hits


def N_formula(sizes) -> int:
    """Closed form for count_max_ordered on a ground set of size sum(p_i):
    the product of binom(p_1+...+p_{i+1} - 1, p_{i+1} - 1) over i = 1..k-1.
    """
    sizes = _block_sizes(sizes)
    total = 0
    out = 1
    for i, p in enumerate(sizes):
        total += p
        if i > 0:
            out *= comb(total - 1, p - 1)
    return out


def _stage_score(ground: int, block: int) -> int:
    """The score of removing block from ground, both bitmasks (bit x for
    element x), block holding the largest element of ground: one scan of
    the ground set in increasing order. An element of block scores the
    number of ground elements above it when its predecessor in the ground
    set lies in another block; the least ground element scores nothing.
    Read in the labels 1..m' of the ground set, each maximal run of block
    starting at j > 1 scores m' - j."""
    total = 0
    above = ground.bit_count()
    prev_here = True  # the least ground element scores nothing
    while ground:
        low = ground & -ground
        ground ^= low
        above -= 1
        if block & low:
            if not prev_here:
                total += above
            prev_here = True
        else:
            prev_here = False
    return total


def weight(P) -> int:
    """The q-weight of a partition of {1..m}, its blocks in any order. The
    generating function over all partitions with fixed max-ordered sizes
    is the q-binomial product of qcount_product.

    Blocks are removed one at a time, the one with the largest maximum
    first, until a single block is left; the weight is the total of the
    _stage_score of each removal on the ground set still there. Every
    block must be a nonempty, strictly increasing sequence, and the blocks
    together must hold each of 1..m exactly once; the blocks are copied,
    put in max order and checked before they are scored.
    """
    blocks = [tuple(b) for b in P]
    m = sum(map(len, blocks))
    if not all(blocks):
        raise ValueError("partition does not cover a {1..m} ground set")
    blocks.sort(key=itemgetter(-1))
    ground = 0
    masks = []  # the bitmask of each block, in max order
    for block in blocks:
        prev = mask = 0
        for x in block:
            if not prev < x <= m or ground >> x & 1:
                raise ValueError("partition does not cover a {1..m} ground set")
            mask |= 1 << x
            prev = x
        ground |= mask
        masks.append(mask)
    total = 0
    for mask in masks[:0:-1]:
        total += _stage_score(ground, mask)
        ground ^= mask
    return total


def _tally_weights(tally: dict, parts, s: int, stages: dict, masks: dict) -> None:
    """Add each partition of parts, a partition of {1..s} with its blocks in
    max order, to tally[size word][weight]. Its weight is the sum of its
    stage scores, read from stages, keyed by (ground mask, block mask), or
    scanned once by _stage_score and added to it; masks maps a block to
    its bitmask, likewise filled as blocks are met."""
    full = (2 << s) - 2
    for P in parts:
        w = 0
        ground = full
        for block in P[:0:-1]:
            b = masks.get(block)
            if b is None:
                b = masks[block] = sum(1 << x for x in block)
            key = (ground, b)
            score = stages.get(key)
            if score is None:
                score = stages[key] = _stage_score(ground, b)
            w += score
            ground ^= b
        hist = tally.setdefault(tuple(map(len, P)), {})
        hist[w] = hist.get(w, 0) + 1


_QCOUNT: dict = {}


def qcount_max_ordered(sizes) -> QPoly:
    """Brute-force generating function sum of q^weight(P) over all partitions
    of {1..sum(sizes)} with the given max-ordered block sizes.

    The first call for a ground set size s = sum(sizes) lists the
    partitions of {1..s} into k blocks with enumerate_partitions(s, k),
    for each k in turn (one list of S(s, k) partitions at a time, not all
    Bell(s) at once), and tallies {size word: {weight: count}} for every
    block count in _QCOUNT[s]; later calls with the same s read that
    tally. The walk yields each partition valid and in max order, so
    _tally_weights scores it without weight's copy, sort and checks, from
    a stage-score table that lives only for this fill. The QPoly returned
    is new on every call, so changing it leaves the memo alone.
    """
    sizes = _block_sizes(sizes)
    if not sizes:
        return QPoly.one()
    s = sum(sizes)
    tally = _QCOUNT.get(s)
    if tally is None:
        tally = {}
        stages: dict = {}
        masks: dict = {}
        for k in range(1, s + 1):
            _tally_weights(tally, enumerate_partitions(s, k), s, stages, masks)
        _QCOUNT[s] = tally
    # every composition of s is the size word of some partition of {1..s}
    return QPoly._new(dict(tally[sizes]))


def qcount_product(sizes) -> QPoly:
    """The q-binomial product form: prod over i of
    qbinomial(p_1+...+p_{i+1} - 1, p_{i+1} - 1)."""
    sizes = _block_sizes(sizes)
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

