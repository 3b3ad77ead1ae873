"""Rooted trees: serialization, grafting products, and the tree expansion."""

from fractions import Fraction

from ncbell.bell import bell
from ncbell.partitions import bell_number
from ncbell.trees import (
    collapse,
    edges,
    ladder,
    leaf_graft,
    left_butcher,
    normalize,
    pushforward,
    serialize,
    tree_bell,
    word_to_tree,
)


def test_serialize_is_injective():
    assert serialize(ladder(0)) == "ab"
    assert serialize((ladder(1), ladder(0))) == "aaabbabb"
    planar = [t for n in range(7) for t in tree_bell(n, planar=True)]
    assert len({serialize(t) for t in planar}) == len(set(planar)) == len(planar)


def test_ladder():
    assert serialize(ladder(2)) == "aaabbb"
    assert edges(ladder(2)) == 2
    assert ladder(2) == (ladder(1),)


def test_bplus_edges():
    # B+ of a forest, a common root above it, is the tuple of its trees
    t = (ladder(1), ladder(0))
    assert edges(t) == 3
    assert len(t) == 2


def test_word_to_tree():
    assert serialize(word_to_tree((3,))) == "aaaabbbb"
    assert serialize(word_to_tree((2, 1))) == "aaabbabb"
    assert serialize(word_to_tree((1, 2))) == "aabaabbb"


def test_tree_bell_matches_word_expansion():
    for n in range(1, 7):
        assert pushforward(bell(n)) == tree_bell(n, planar=True)


def test_tree_bell_coefficients_sum_to_bell_numbers():
    for n in range(1, 8):
        for planar in (True, False):
            total = sum(tree_bell(n, planar).values(), Fraction(0))
            assert total == bell_number(n)


def test_collapse_planar_gives_nonplanar():
    for n in range(1, 7):
        assert collapse(tree_bell(n, planar=True)) == tree_bell(n, planar=False)


def test_nonplanar_coefficients_at_four():
    tp = tree_bell(4, planar=False)
    got = {serialize(t): c for t, c in tp.items()}
    assert got == {
        "aaaaabbbbb": 1,
        "aaabbaabbb": 3,
        "aabaaabbbb": 4,
        "aababaabbb": 6,
        "aababababb": 1,
    }


def test_normalize_sorts_children():
    t = (ladder(2), ladder(0))
    s = (ladder(0), ladder(2))
    assert normalize(t) == normalize(s)


def test_left_butcher_adds_first_branch():
    s = ladder(1)
    t = ladder(0)
    joined = left_butcher(s, t)
    assert joined[0] == s
    assert edges(joined) == edges(s) + edges(t) + 1


def test_leaf_graft_counts_leaves():
    # grafting below each leaf of the 3-node ladder gives one tree, with
    # multiplicity one per leaf
    result = leaf_graft(ladder(0), ladder(2))
    assert sum(result.values()) == 1
    result = leaf_graft(ladder(0), (ladder(0), ladder(0)))
    assert sum(result.values()) == 2
