"""Planar rooted trees, grafting, and the tree-shaped Bell recursion.

A tree is a nested tuple of its child subtrees; the single node is ().
Serialization is the balanced-letter string "a" + children + "b", so the
single node prints "ab" and the one-edge ladder "aabb". A TreePoly is a
plain dict tree -> coefficient (an int, or a Fraction after a division,
as in ncbell.algebra) with zero coefficients dropped.

The word-tree dictionary: d_i is the ladder with i edges, and the word
d_i w maps to ladder_{i-1} joined onto tree(w) by the left Butcher
product. Grafting targets are the childless nodes that hang below the
root; the bare root of a single-node tree carries no letter, so grafting
onto () gives zero (this is what makes the recursion reproduce the
one-edge tree once, not twice, at n = 1).
"""

from __future__ import annotations

from .algebra import NCPoly, _coeff, signed_sum

LEAF: tuple = ()


def edges(t: tuple) -> int:
    return sum(1 + edges(c) for c in t)


def ladder(i: int) -> tuple:
    """The chain with i edges."""
    if i < 0:
        raise ValueError("need i >= 0")
    t: tuple = LEAF
    for _ in range(i):
        t = (t,)
    return t


def serialize(t: tuple) -> str:
    return "a" + "".join(serialize(c) for c in t) + "b"


def normalize(t: tuple) -> tuple:
    """Nonplanar normal form: children normalized, then sorted by
    (edge count, serialized string)."""
    kids = sorted((normalize(c) for c in t), key=lambda c: (edges(c), serialize(c)))
    return tuple(kids)


def left_butcher(s: tuple, t: tuple) -> tuple:
    """s joined as the new first child of t's root."""
    return (s,) + t


def _grafts(s: tuple, node: tuple):
    """Each tree made from node by attaching s below one of its leaves, in
    depth-first leaf order."""
    for pos, child in enumerate(node):
        head, tail = node[:pos], node[pos + 1 :]
        if child == LEAF:
            yield head + ((s,),) + tail
        else:
            for grown in _grafts(s, child):
                yield head + (grown,) + tail


def leaf_graft(s: tuple, t: tuple) -> dict:
    """Sum over the leaves of t of attaching s below that leaf.

    Leaves are childless nodes with a parent; the bare single-node tree
    has none, so leaf_graft(s, ()) is zero.
    """
    out: dict = {}
    for tree in _grafts(s, t):
        out[tree] = out.get(tree, 0) + 1
    return out


def poly_add(acc: dict, t: tuple, c) -> None:
    c = _coeff(c)
    s = acc.get(t, 0) + c
    if s:
        acc[t] = s
    elif t in acc:
        del acc[t]


def tree_bell(n: int, planar: bool = True) -> dict:
    """The tree Bell combination: start from the single node and apply
    t -> (node joined by left_butcher) + (node grafted on each leaf)
    linearly n times. Nonplanar mode normalizes at every step."""
    if n < 0:
        raise ValueError("need n >= 0")
    node = LEAF
    cur: dict = {LEAF: 1}
    for _ in range(n):
        nxt: dict = {}
        for t, c in cur.items():
            grown = left_butcher(node, t)
            poly_add(nxt, grown if planar else normalize(grown), c)
            for g, mult in leaf_graft(node, t).items():
                poly_add(nxt, g if planar else normalize(g), c * mult)
        cur = nxt
    return cur


def collapse(tp: dict) -> dict:
    """Push a planar TreePoly to nonplanar normal forms."""
    out: dict = {}
    for t, c in tp.items():
        poly_add(out, normalize(t), c)
    return out


def word_to_tree(word) -> tuple:
    """The dictionary d_i -> ladder_i, d_i w -> ladder_{i-1} left-Butcher tree(w)."""
    word = tuple(word)
    if not word:
        raise ValueError("empty word has no tree (the unit maps to the bare node)")
    if any(j < 1 for j in word):
        raise ValueError("inverted letters have no tree")
    t = LEAF
    for j in reversed(word):
        t = left_butcher(ladder(j - 1), t)
    return t


def pushforward(p: NCPoly) -> dict:
    """Apply word_to_tree termwise; the empty word maps to the single node."""
    out: dict = {}
    for w, c in p.terms.items():
        t = LEAF if not w else word_to_tree(w)
        poly_add(out, t, c)
    return out


def render_tree_poly(tp: dict) -> str:
    items = sorted(tp.items(), key=lambda tc: (edges(tc[0]), serialize(tc[0])))
    return signed_sum((c, serialize(t)) for t, c in items)
