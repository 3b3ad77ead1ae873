"""Set partitions, max-ordering statistics, and Stirling/Bell counts."""

import gc
import sys
import tracemalloc
from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncbell
from ncbell import hopf, mobius, partitions, verify
from ncbell.algebra import CPoly, NCPoly, QPoly, key_of, qbinomial, ring
from ncbell.bell import bell, bell_partial, compositions, qbell_coefficient
from ncbell.partitions import (
    N_formula,
    bell_number,
    count_max_ordered,
    enumerate_partitions,
    iter_partitions,
    qcount_max_ordered,
    qcount_product,
    size_words,
    stirling2,
    weight,
)
from ncbell.series import FormalSeries, compose_via_bell

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147]


def canonical(blocks) -> tuple:
    """The stored form of a partition: sorted blocks, by increasing maxima."""
    bs = [tuple(sorted(b)) for b in blocks]
    if any(not b for b in bs):
        raise ValueError("empty block")
    bs.sort(key=lambda b: b[-1])
    return tuple(bs)


def block_sizes(P) -> tuple:
    """Sizes read off in increasing order of block maxima, for blocks in any
    order: the reference for tuple(map(len, P)) on a yielded partition."""
    return tuple(map(len, sorted(P, key=itemgetter(-1))))


def monomial_of(P, variant: str = "nc"):
    """The block-size monomial d_{|P_1|} ... d_{|P_k|} of a partition, its
    letters in increasing order of block maxima: the reference for
    verify._partition_sum."""
    cls = ring(variant)
    return cls.from_key(key_of(cls, block_sizes(P)))


def reference_partitions(n: int, k: int | None = None):
    """The restricted-growth walk that rebuilds every leaf: keep the growth
    string a_1..a_n, and at each leaf fill the blocks from it and sort them
    by their maxima. The reference for iter_partitions."""
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


def reference_weight(P) -> int:
    """The q-weight by relabelling: remove the block of the current maximum
    m, score m - j for each run of it starting at j > 1, relabel the rest
    1..m' and repeat. The reference for weight on well-formed input."""
    blocks = sorted((tuple(b) for b in P), key=itemgetter(-1))
    total = 0
    while len(blocks) > 1:
        removed = blocks.pop()
        m = len(removed) + sum(len(b) for b in blocks)
        members = set(removed)
        for j in removed:
            if j >= 2 and (j - 1) not in members:
                total += m - j
        remaining = sorted(x for b in blocks for x in b)
        relabel = {x: i + 1 for i, x in enumerate(remaining)}
        blocks = sorted((tuple(relabel[x] for x in b) for b in blocks), key=itemgetter(-1))
    return total


def test_enumerate_counts():
    for n in range(1, 7):
        assert len(enumerate_partitions(n)) == BELL[n]
    assert len(enumerate_partitions(4, 2)) == stirling2(4, 2) == 7


def test_enumerate_order_is_pinned():
    assert enumerate_partitions(3) == [
        ((1, 2, 3),),
        ((1, 2), (3,)),
        ((2,), (1, 3)),
        ((1,), (2, 3)),
        ((1,), (2,), (3,)),
    ]


def test_enumerate_by_block_count_is_the_filter():
    for n in range(1, 9):
        everything = enumerate_partitions(n)
        for P in everything:
            assert P == canonical(P)
        for k in range(1, n + 1):
            assert enumerate_partitions(n, k) == [P for P in everything if len(P) == k]


def test_iter_partitions_is_the_enumeration():
    for n in range(1, 9):
        for k in (None, *range(1, n + 1)):
            assert list(iter_partitions(n, k)) == enumerate_partitions(n, k)


def test_iter_partitions_matches_the_rebuilding_walk():
    for n in range(1, 11):
        for k in (None, *range(1, n + 1)):
            assert list(iter_partitions(n, k)) == list(reference_partitions(n, k)), (n, k)


def test_iter_partitions_refuses_bad_arguments_on_first_next():
    for n, k in ((0, None), (3, 0), (3, 4)):
        walk = iter_partitions(n, k)
        with pytest.raises(ValueError):
            next(walk)


def test_iter_partitions_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        walk = iter_partitions(7, 3)
        next(walk)
        del walk  # abandoned halfway
        assert sum(1 for _ in iter_partitions(7)) == BELL[7]
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


def test_partition_oracle_streams_its_partitions():
    # the suite visits all 21,147 partitions of {1..9}; holding them in a
    # list took a tracemalloc peak of about 7.5 MB
    ncbell.clear_caches()
    tracemalloc.start()
    try:
        ok, detail = verify.suite_partition_oracle(None, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ok, detail
    assert peak < 2 * 2**20


def test_enumerate_partitions_are_partitions():
    for P in enumerate_partitions(5):
        elements = sorted(x for block in P for x in block)
        assert elements == list(range(1, 6))


def test_block_sizes_orders_by_maxima():
    P = ((2, 5), (1, 3), (4,))
    assert block_sizes(P) == (2, 1, 2)
    P = ((3, 6), (1, 2, 4), (5,), (7,))
    assert block_sizes(P) == (3, 1, 2, 1)
    assert block_sizes(list(P)) == block_sizes(canonical(P))


def test_monomial_of():
    assert monomial_of(((1, 3), (2,)), "nc") == NCPoly.from_word((1, 2))
    c = monomial_of(((1, 3), (2,)), "c")
    assert c.terms == {((1, 1), (2, 1)): 1}


def test_count_max_ordered_matches_enumeration():
    for n in range(1, 8):
        tallies = {}
        for P in enumerate_partitions(n):
            sizes = block_sizes(P)
            tallies[sizes] = tallies.get(sizes, 0) + 1
        for sizes, count in tallies.items():
            assert count_max_ordered(n, sizes) == count
            assert N_formula(sizes) == count


def test_n_formula_specific_word():
    # the middle coefficient of the length-3 stratum at grade 5
    assert N_formula((2, 1, 2)) == 4


def test_stirling_table():
    assert stirling2(0, 0) == 1
    assert stirling2(4, 2) == 7
    assert stirling2(5, 3) == 25
    assert stirling2(6, 1) == 1
    assert stirling2(6, 6) == 1
    assert stirling2(3, 5) == 0
    for n in range(0, 9):
        assert sum(stirling2(n, k) for k in range(0, n + 1)) == bell_number(n)


def test_weight_example():
    P = ((1, 2, 7), (3, 6), (4, 5), (8, 9, 13, 14), (10, 12), (11,))
    assert weight(P) == 9


def test_weight_vanishes_on_nested_blocks():
    assert weight(((1,), (2,), (3,))) == 0
    assert weight(((1, 2, 3),)) == 0


def test_weight_matches_the_relabelling_weight():
    for n in range(1, 10):
        for P in iter_partitions(n):
            assert weight(P) == reference_weight(P), P


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=12), st.randoms(use_true_random=False))
def test_weight_ignores_block_order(labels, rnd):
    # element x joins the block labelled labels[x - 1]; the blocks are shuffled
    groups: dict = {}
    for x, label in enumerate(labels, 1):
        groups.setdefault(label, []).append(x)
    blocks = [tuple(b) for b in groups.values()]
    rnd.shuffle(blocks)
    assert weight(blocks) == weight(canonical(blocks)) == reference_weight(blocks)


@pytest.mark.parametrize("P", [
    ((1, 1), (3,)),  # 1 repeated, 2 missing
    ((1, 2), (2, 3)),  # 2 in two blocks
    ((1,), (3,)),  # a gap at 2
    ((2, 3),),  # a single block that misses 1
    ((1, 3), (2, 4)[::-1]),  # an unsorted block
    ((1, 2), (), (3,)),  # an empty block
    ((0, 1), (2,)),  # an element below 1
])
def test_weight_refuses_a_malformed_partition(P):
    with pytest.raises(ValueError, match="does not cover"):
        weight(P)


def test_qcount_agrees_with_product():
    for sizes in [(1, 1), (2, 1), (1, 2), (2, 1, 2), (3, 2, 1), (1, 1, 2, 2)]:
        lhs = qcount_max_ordered(sizes)
        assert lhs == qcount_product(sizes)
        n = sum(sizes)
        assert lhs.evaluate(1) == count_max_ordered(n, sizes)


# the brute-force counts and the closed forms agree on every word, the
# edge cases included: the empty word counts the one partition of the empty
# set, and a size below 1 is refused by all four alike
@pytest.mark.parametrize("sizes", [(), (1,), (3,), (2, 1), (1, 2, 1), (2, 1, 2),
                                   (0,), (2, 0), (0, 2), (-1,), (1, -2, 3)])
def test_max_ordered_counts_agree_on_edge_cases(sizes):
    routes = (lambda: count_max_ordered(sum(sizes), sizes), lambda: N_formula(sizes),
              lambda: qcount_max_ordered(sizes), lambda: qcount_product(sizes))
    if min(sizes, default=1) < 1:
        for route in routes:
            with pytest.raises(ValueError, match="block sizes must be positive"):
                route()
        return
    count, closed, qbrute, qclosed = (route() for route in routes)
    assert count == closed == qbrute.evaluate(1) and qbrute == qclosed
    if not sizes:
        assert count == 1 and qbrute == QPoly.one()


@pytest.mark.parametrize("sizes", [(True, 2), (2, False), (1.5, 2), (2.0, 1), ("2",), (None,),
                                   (Fraction(2),)])
def test_max_ordered_counts_refuse_bool_and_non_int_sizes(sizes):
    # a bool or a non-int size is refused as check_letter refuses such a
    # letter, not counted as 1 or failing deep inside
    routes = (lambda: count_max_ordered(5, sizes), lambda: N_formula(sizes),
              lambda: qcount_max_ordered(sizes), lambda: qcount_product(sizes))
    for route in routes:
        with pytest.raises(ValueError, match="block sizes must be positive ints"):
            route()


def test_qbell_coefficient_is_the_weight_generating_function():
    # the q-Bell coefficient of d_{p_1}...d_{p_k} counts the partitions with
    # max-ordered block sizes p by q^weight, as an identity of polynomials in q
    for n in range(1, 7):
        for k in range(1, n + 1):
            for parts in compositions(n, k):
                want = qcount_max_ordered(parts)
                assert qbell_coefficient(parts) == want == qcount_product(parts), parts


def test_qcount_weight_generating_function():
    sizes = (2, 1, 2)
    total = QPoly.zero()
    n = sum(sizes)
    for P in enumerate_partitions(n):
        if block_sizes(P) == sizes:
            total = total + QPoly.q(weight(P))
    assert total == qcount_max_ordered(sizes)


def test_memoised_qcount_matches_brute_force():
    ncbell.clear_caches()
    for total in range(1, 8):
        everything = enumerate_partitions(total)
        for k in range(1, total + 1):
            for sizes in compositions(total, k):
                brute = QPoly.zero()
                for P in everything:
                    if block_sizes(P) == sizes:
                        brute = brute + QPoly.q(weight(P))
                assert qcount_max_ordered(sizes) == brute
                assert qcount_max_ordered(list(sizes)) == brute


def test_qcount_result_is_a_fresh_copy():
    sizes = (2, 1, 2)
    first = qcount_max_ordered(sizes)
    first.terms.clear()
    first.terms[0] = 99
    second = qcount_max_ordered(sizes)
    assert second == qcount_product(sizes)
    assert second.terms is not first.terms


def walked_tally(n: int) -> dict:
    """{word: count} of tuple(map(len, P)) over iter_partitions(n): the
    reference for size_words."""
    tally: dict = {}
    for P in iter_partitions(n):
        word = tuple(map(len, P))
        tally[word] = tally.get(word, 0) + 1
    return tally


def count_walks(monkeypatch) -> list:
    """Rebind partitions.iter_partitions to a counter; the list returned
    gets the name of the calling function on every call."""
    callers = []
    original = partitions.iter_partitions

    def counted(n, k=None):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(n, k)

    monkeypatch.setattr(partitions, "iter_partitions", counted)
    return callers


def test_size_words_equals_the_walked_tally(monkeypatch):
    want = {n: walked_tally(n) for n in range(1, 10)}
    walks = count_walks(monkeypatch)
    for n in range(1, 10):  # from cold
        ncbell.clear_caches()
        assert size_words(n) == want[n], n
    for n in range(9, 0, -1):  # level 9 was built last, with every level below it
        assert size_words(n) == want[n], n
    ncbell.clear_caches()
    for n in (3, 8, 5, 9, 1):  # after a clear, each call grows from the highest level below
        assert size_words(n) == want[n], n
    first = size_words(6)
    first.clear()  # the result is a fresh copy
    assert size_words(6) == want[6]
    for n in (0, -1):
        with pytest.raises(ValueError, match="ground set must be nonempty"):
            size_words(n)
    # neither the tally nor the coproduct oracle reading it builds a partition
    ok, _ = verify.suite_coproduct_oracle(max_degree=7)
    assert ok and walks == []
    ncbell.clear_caches()


def test_size_words_at_depth_without_a_walk():
    # every composition of n is the word of some partition; N_formula counts
    # each independently, so it serves as the reference here and only here
    ncbell.clear_caches()
    for n in range(1, 17):
        tally = size_words(n)
        assert len(tally) == 2 ** (n - 1)
        assert sum(tally.values()) == bell_number(n)
        assert all(count == N_formula(word) for word, count in tally.items()), n
    ncbell.clear_caches()


def test_verify_builds_partitions_only_through_enumerate_partitions(monkeypatch):
    # perfbench counts the partitions a pass builds at enumerate_partitions,
    # so every walk of a verify pass has to come through it
    callers = count_walks(monkeypatch)
    ncbell.clear_caches()
    results = verify.run_suites("all")
    assert [name for name, _, _ in results] == list(verify.SUITES)
    assert callers and set(callers) == {"enumerate_partitions"}
    ncbell.clear_caches()


def test_clear_caches_empties_every_memo():
    bell(4, "nc")
    bell(4, "c")
    hopf.rank_poly(3, 1, "dfdb")
    hopf.antipode_recursive(3, "dfdb")
    mobius.antipode_m(3, "nc")
    mobius.mobius_char(3, "nc")
    stirling2(5, 2)
    qcount_max_ordered((1, 2))
    size_words(3)
    qbinomial(4, 2)
    bell_partial(4, 2)
    ones = hopf.Character({1: 1, 2: 1})
    hopf.convolve(ones, ones)
    hopf.character_antipode(ones, 2)
    exp = FormalSeries([0, 1, Fraction(1, 2)])
    compose_via_bell(exp, exp)
    before = ncbell.cache_info()
    assert set(before) == {"bell.nc", "bell.c", "hopf.rank", "hopf.antipode",
                           "hopf.coproduct_form", "hopf.antipode_form", "mobius.mu",
                           "partitions.stirling", "partitions.qcount", "partitions.size_words",
                           "algebra.qfactorial", "algebra.qbinomial", "bell.partial",
                           "series.bell_form"}
    assert all(size > 0 for size in before.values()), before
    ncbell.clear_caches()
    assert all(size == 0 for size in ncbell.cache_info().values())
    assert bell(3, "nc") == NCPoly.from_word((1, 1, 1)) + NCPoly.from_word((2, 1)) \
        + 2 * NCPoly.from_word((1, 2)) + NCPoly.from_word((3,))


def test_q_statistics_enumerates_each_ground_set_once(monkeypatch):
    ncbell.clear_caches()
    calls = []
    original = partitions.enumerate_partitions

    def counted(n, k=None):
        calls.append((n, k))
        return original(n, k)

    monkeypatch.setattr(partitions, "enumerate_partitions", counted)
    ok, detail = verify.suite_q_statistics(None, 0)
    assert ok, detail
    # one memo fill per ground set, listing the partitions of each block
    # count once, so no list holds more than S(s, k) of them
    assert calls == [(s, k) for s in range(1, 9) for k in range(1, s + 1)]
    assert ncbell.cache_info()["partitions.qcount"] == 8


def _mask(block) -> int:
    return sum(1 << x for x in block)


def _stage_keys(P, s: int) -> list:
    """The (ground mask, block mask) stages of a partition of {1..s} in max
    order, the last block first."""
    ground = (2 << s) - 2
    keys = []
    for block in P[:0:-1]:
        b = _mask(block)
        keys.append((ground, b))
        ground ^= b
    return keys


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 14).flatmap(
    lambda m: st.lists(st.lists(st.integers(0, 4), min_size=m, max_size=m),
                       min_size=1, max_size=4)))
def test_cached_stage_scores_sum_to_the_weight(labellings):
    # several partitions of one {1..m} share a stage table, as in one memo
    # fill: each stage is cached once with its own score, and each
    # partition's cached stages sum to its weight
    m = len(labellings[0])
    stages: dict = {}
    masks: dict = {}
    for labels in labellings:
        groups: dict = {}
        for x, label in enumerate(labels, 1):
            groups.setdefault(label, []).append(x)
        P = canonical(groups.values())
        tally: dict = {}
        partitions._tally_weights(tally, [P], m, stages, masks)
        keys = _stage_keys(P, m)
        assert set(keys) <= set(stages)
        w = weight(P)
        assert sum(stages[key] for key in keys) == w == reference_weight(P)
        assert tally == {block_sizes(P): {w: 1}}
    assert all(score == partitions._stage_score(*key) for key, score in stages.items())
    assert all(masks[block] == _mask(block) for block in masks)


def test_q_statistics_scans_each_distinct_stage_once(monkeypatch):
    # the reference partition's weight scans its 5 stages; then each memo
    # fill scans each distinct (ground, block) stage of its ground set once
    scans = []
    original = partitions._stage_score

    def counted(ground, block):
        scans.append((ground, block))
        return original(ground, block)

    monkeypatch.setattr(partitions, "_stage_score", counted)
    ncbell.clear_caches()
    ok, detail = verify.suite_q_statistics(None, 0)
    assert ok, detail
    distinct = [len({key for P in iter_partitions(s) for key in _stage_keys(P, s)})
                for s in range(1, 9)]
    assert distinct[-1] == 1093
    assert len(scans) == len(verify.WEIGHT_EXAMPLE) - 1 + sum(distinct)
    ncbell.clear_caches()


def test_qcount_tally_is_the_weight_tally():
    # the memo scores the walk's partitions without weight's checks; the
    # checking weight over the same walk gives the same tally, each
    # histogram in the same order (the words come one block count at a
    # time, so only their own order may differ)
    ncbell.clear_caches()
    for s in range(1, 9):
        qcount_max_ordered((s,))
        want: dict = {}
        for P in iter_partitions(s):
            hist = want.setdefault(tuple(map(len, P)), {})
            w = weight(P)
            hist[w] = hist.get(w, 0) + 1
        got = partitions._QCOUNT[s]
        assert got == want
        assert all(list(got[word].items()) == list(want[word].items()) for word in want)
    assert ncbell.cache_info()["partitions.qcount"] == 8
    ncbell.clear_caches()


def test_qcount_matches_the_checking_constructor():
    # every word of a ground set up to 7, and the empty word: the terms,
    # their order and their types are those of QPoly's constructor
    ncbell.clear_caches()
    for s in range(1, 8):
        for k in range(1, s + 1):
            for sizes in compositions(s, k):
                got = qcount_max_ordered(sizes)
                want = QPoly(partitions._QCOUNT[s][sizes])
                assert type(got) is QPoly
                assert [(p, c, type(c)) for p, c in got.terms.items()] == \
                    [(p, c, type(c)) for p, c in want.terms.items()]
    assert qcount_max_ordered(()).terms == {0: 1}
    ncbell.clear_caches()


def test_cold_qcount_never_calls_weight(monkeypatch):
    calls = []
    original = partitions.weight

    def counted(P):
        calls.append(P)
        return original(P)

    monkeypatch.setattr(partitions, "weight", counted)
    ncbell.clear_caches()
    for sizes in ((2, 1, 2), (3, 1, 1, 3), (1,)):
        assert qcount_max_ordered(sizes) == qcount_product(sizes)
    assert calls == []
    ncbell.clear_caches()


def test_commutative_partition_sum_tallies_every_partition(monkeypatch):
    want = {}
    for n in range(1, 9):
        want[n] = CPoly.zero()
        for P in iter_partitions(n):
            want[n] = want[n] + monomial_of(P, "c")
    walks = count_walks(monkeypatch)
    ncbell.clear_caches()
    for n in range(1, 9):
        got = verify._partition_sum(n)
        assert got == want[n]
        assert all(type(c) is int for c in got.terms.values())
    assert walks == []
    ncbell.clear_caches()
