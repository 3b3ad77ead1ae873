"""The coefficient invariant of the ring kernel: every coefficient is an
exact int, or a Fraction once a real division has happened, never a float
or a bool; and the recursive enumerators leave no reference cycles
behind."""

import gc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncbell import hopf, partitions, quasidet, trees
from ncbell.algebra import (
    INV,
    CPoly,
    NCPoly,
    from_json_dict,
    parse_text,
    render_latex,
    render_text,
    to_json_dict,
)
from ncbell.bell import bell, bell_c_explicit, bell_partial
from ncbell.series import MultiPoly


def _exact(c) -> bool:
    return type(c) is int or type(c) is Fraction


def _all_exact(p) -> bool:
    return all(_exact(c) for c in p.terms.values())


def _ints(p) -> bool:
    return all(type(c) is int for c in p.terms.values())


# ---------------------------------------------------------------------------
# where coefficients come in


def test_floats_are_refused_and_bools_become_ints():
    with pytest.raises(TypeError):
        NCPoly({(1,): 0.5})
    with pytest.raises(TypeError):
        CPoly.letter(2) * 1.5
    with pytest.raises(TypeError):
        CPoly.letter(1).evaluate({1: 0.5})
    with pytest.raises(TypeError):
        hopf.Character({1: 0.1})
    p = NCPoly({(1,): True})
    assert type(p.terms[(1,)]) is int
    assert type((p * True).terms[(1,)]) is int


def test_parsed_integers_are_ints():
    p = parse_text("3*d2*d1 - d1 + 1/2*d3")
    assert type(p.coefficient((2, 1))) is int
    assert type(p.coefficient((1,))) is int
    assert p.coefficient((3,)) == Fraction(1, 2)
    assert _ints(from_json_dict(to_json_dict(bell(4, "c"))))


def test_multipoly_json_integers_are_ints():
    x, y = MultiPoly.var(2, 0), MultiPoly.var(2, 1)
    p = 3 * x * x - y + 2
    back = MultiPoly.from_json_dict({"nvars": 2, "terms": [
        {"coeff": "2", "exponents": [0, 0]}, {"coeff": "-1", "exponents": [0, 1]},
        {"coeff": "3", "exponents": [2, 0]}]})
    assert back == p and _ints(back)
    half = MultiPoly.from_json_dict({"nvars": 2, "terms": [
        {"coeff": "1", "exponents": [0, 0]}, {"coeff": "-1/2", "exponents": [0, 1]},
        {"coeff": "3/2", "exponents": [2, 0]}]})
    assert half == p * Fraction(1, 2)
    assert half.terms[(2, 0)] == Fraction(3, 2) and type(half.terms[(0, 1)]) is Fraction
    assert type(half.terms[(0, 0)]) is int


@pytest.mark.parametrize("variant", ["nc", "c"])
def test_bell_coefficients_are_ints(variant):
    for n in range(11):
        assert _ints(bell(n, variant)), n
        for k in range(n + 1):
            assert _ints(bell_partial(n, k, variant)), (n, k)


# ---------------------------------------------------------------------------
# the invariant on random polynomials

COEFFS = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.booleans(),
)
WORDS = st.lists(st.integers(1, 3), max_size=3).map(tuple)


def _nc(terms) -> NCPoly:
    return NCPoly(dict(terms))


NC_POLYS = st.lists(st.tuples(WORDS, COEFFS), max_size=5).map(_nc)
INT_NC_POLYS = st.lists(st.tuples(WORDS, st.integers(-6, 6)), max_size=5).map(_nc)


@settings(max_examples=60, deadline=None)
@given(NC_POLYS, NC_POLYS, COEFFS)
def test_ring_operations_keep_coefficients_exact(p, q, c):
    images = {1: q + 1, 2: p * 2, 3: NCPoly.letter(1, c)}
    cp, cq = p.abelianize(), q.abelianize()
    results = [
        p, p + q, p - q, p * q, p * c, c * p, p + c, -p, p.derive(),
        p.substitute(images), cp, cp + cq, cp * cq, cp * c, cp.derive(),
        cp.substitute({i: img.abelianize() for i, img in images.items()}),
    ]
    for r in results:
        assert _all_exact(r), r
    values = {1: c if c else 1, 2: Fraction(2, 3), 3: -2}
    assert _exact(cp.evaluate(values))
    inv = CPoly.from_mono(((1, -2),), c) + cp
    assert _exact(inv.evaluate(values))


@settings(max_examples=60, deadline=None)
@given(INT_NC_POLYS, INT_NC_POLYS)
def test_int_inputs_give_int_outputs(p, q):
    images = {1: q + 1, 2: p * 2, 3: NCPoly.letter(1, 5)}
    cp = p.abelianize()
    results = [p + q, p * q, p.derive(), p.substitute(images), cp, cp * cp, cp.derive(),
               cp.substitute({i: img.abelianize() for i, img in images.items()}),
               p.substitute({1: 3, 2: q, 3: 0}), cp.substitute({1: -2, 2: 1, 3: 4})]
    for r in results:
        assert _ints(r), r


@settings(max_examples=60, deadline=None)
@given(NC_POLYS, NC_POLYS)
def test_abelianize_commutes_with_derive_and_substitute(p, q):
    assert p.derive().abelianize() == p.abelianize().derive()
    images = {1: q + 2, 2: q * q, 3: NCPoly.letter(2, 3)}
    shadow = {i: img.abelianize() for i, img in images.items()}
    assert p.substitute(images).abelianize() == p.abelianize().substitute(shadow)


# ---------------------------------------------------------------------------
# int and Fraction coefficients render and serialize identically


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.lists(st.sampled_from((INV, 1, 2, 3)), max_size=4).map(tuple),
                          st.integers(-20, 20)), max_size=6),
       st.booleans())
def test_int_and_fraction_coefficients_render_alike(terms, commutative):
    words: dict = {}
    for w, c in terms:
        reduced: tuple = ()
        for letter in w:
            reduced = NCPoly.key_mul(reduced, (letter,))
        words[reduced] = c
    p = NCPoly(words)
    if commutative:
        p = p.abelianize()
    f = type(p)({k: Fraction(c) for k, c in p.terms.items()})
    assert p == f
    assert render_text(p) == render_text(f)
    assert render_latex(p) == render_latex(f)
    assert to_json_dict(p) == to_json_dict(f)
    for x in (p, f):
        back = parse_text(render_text(x), commutative=commutative)
        assert back == x
        assert render_text(back) == render_text(x)
        assert from_json_dict(to_json_dict(x)) == x


# ---------------------------------------------------------------------------
# recursive enumerators leave no reference cycles


CYCLE_FREE_CALLS = {
    "enumerate_partitions": lambda: partitions.enumerate_partitions(6, 3),
    "iter_partitions": lambda: next(partitions.iter_partitions(6, 3)),
    "det": lambda: quasidet.det(quasidet.bell_matrix(5, "c")),
    "bell_c_explicit": lambda: bell_c_explicit(6, 3),
    "leaf_graft": lambda: trees.leaf_graft((), ((), ((),))),
}


@pytest.mark.parametrize("name", sorted(CYCLE_FREE_CALLS))
def test_call_leaves_no_cyclic_garbage(name):
    call = CYCLE_FREE_CALLS[name]
    gc.collect()
    gc.disable()
    try:
        call()
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0
