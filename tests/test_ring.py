"""The shared term-dict ring: NCPoly, CPoly, QPoly and MultiPoly get their
arithmetic from algebra.TermRing, so each property here is checked on all
four: scalars on either side, the one key rule, the ring axioms (with the
inverse letter d1^-1 in the two d-alphabet rings), and the per-class
method bindings the span tracer relies on."""

import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncbell import algebra, series
from ncbell.algebra import INV, CPoly, NCPoly, QPoly, TermRing, mono_from_word, word_mul
from ncbell.series import MultiPoly

NVARS = 2

# ring name -> a constant of that ring with the given coefficient
CONST = {
    "NCPoly": lambda c: NCPoly({(): c}),
    "CPoly": lambda c: CPoly({(): c}),
    "QPoly": QPoly,
    "MultiPoly": lambda c: MultiPoly.const(NVARS, c),
}

# ring name -> a sample nonconstant element
SAMPLE = {
    "NCPoly": lambda: NCPoly.letter(1) + 2 * NCPoly.letter(INV) * NCPoly.letter(2),
    "CPoly": lambda: CPoly.letter(1) - CPoly.from_mono(((1, -1), (3, 2)), Fraction(1, 2)),
    "QPoly": lambda: QPoly.q() + QPoly.q(3) * 4,
    "MultiPoly": lambda: MultiPoly.var(NVARS, 0) * 3 - MultiPoly.var(NVARS, 1),
}

RINGS = sorted(CONST)


# ---------------------------------------------------------------------------
# scalars on either side


@pytest.mark.parametrize("c", [0, 3, -1, Fraction(-1, 2), True])
@pytest.mark.parametrize("ring", RINGS)
def test_scalar_on_either_side(ring, c):
    p, k = SAMPLE[ring](), CONST[ring](c)
    assert c - p == k - p and type(c - p) is type(p)
    assert p - c == p - k
    assert c + p == k + p == p + c
    assert c * p == k * p == p * c
    assert k == c and c == k
    assert p != c
    assert -p == CONST[ring](-1) * p
    assert (c - p) + p == c
    assert 1 - p == -(p - 1)


@pytest.mark.parametrize("ring", RINGS)
def test_foreign_operands_are_unsupported(ring):
    p = SAMPLE[ring]()
    for other in (1.5, None, NCPoly.letter(1) if ring != "NCPoly" else CPoly.letter(1)):
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            with pytest.raises(TypeError, match="unsupported operand"):
                op(p, other)
            with pytest.raises(TypeError, match="unsupported operand"):
                op(other, p)
        assert p != other


def test_ncpoly_minus_cpoly_is_unsupported():
    with pytest.raises(TypeError, match="unsupported operand"):
        NCPoly.letter(1) - CPoly.letter(1)


def test_multipoly_dimensions_must_agree():
    x2, x3 = MultiPoly.var(2, 0), MultiPoly.var(3, 0)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(ValueError, match="dimension mismatch"):
            op(x2, x3)
    assert x2 != x3
    assert MultiPoly.zero(2) != MultiPoly.zero(3)
    assert MultiPoly.zero(2) == MultiPoly.zero(2) == 0


# ---------------------------------------------------------------------------
# one key rule: every key is checked, whatever its coefficient


BAD_KEYS = {
    "NCPoly": [((0,), NCPoly), ((1, INV), NCPoly), ((2, -2), NCPoly)],
    "CPoly": [(((2, -1),), CPoly), (((2, 1), (1, 1)), CPoly), (((1, 0),), CPoly)],
    "QPoly": [(-1, QPoly), ("q", QPoly)],
    "MultiPoly": [((1,), lambda t: MultiPoly(NVARS, t)),
                  ((1, -1), lambda t: MultiPoly(NVARS, t))],
}


@pytest.mark.parametrize("coeff", [0, 1, Fraction(0)])
@pytest.mark.parametrize("ring", RINGS)
def test_bad_keys_are_refused_even_with_zero_coefficient(ring, coeff):
    for key, build in BAD_KEYS[ring]:
        with pytest.raises(ValueError):
            build({key: coeff})


def test_constructor_drops_zeros():
    assert NCPoly({(1,): 0, (2,): Fraction(0)}).terms == {}
    assert CPoly({((1, 1),): 0, ((2, 1),): 3}).terms == {((2, 1),): 3}
    assert QPoly({0: 0, 1: Fraction(1, 2)}).terms == {1: Fraction(1, 2)}
    assert MultiPoly(NVARS, {(0, 1): 1, (1, 0): 0}).terms == {(0, 1): 1}


# ---------------------------------------------------------------------------
# ring axioms on random elements

COEFFS = st.one_of(st.integers(-4, 4), st.fractions(-2, 2, max_denominator=3))
D_LETTERS = st.lists(st.sampled_from((INV, 1, 2, 3)), max_size=4)


def _reduced(letters) -> tuple:
    """The reduced word of a letter sequence, cancelling d1 d1^-1 pairs."""
    word: tuple = ()
    for letter in letters:
        word = word_mul(word, (letter,))
    return word


NC = st.dictionaries(D_LETTERS.map(_reduced), COEFFS, max_size=4).map(NCPoly)
C = st.dictionaries(D_LETTERS.map(mono_from_word), COEFFS, max_size=4).map(CPoly)
Q = st.dictionaries(st.integers(0, 5), COEFFS, max_size=4).map(QPoly)
M = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), COEFFS, max_size=4).map(
    lambda t: MultiPoly(NVARS, t))

STRATEGIES = {"NCPoly": NC, "CPoly": C, "QPoly": Q, "MultiPoly": M}


@pytest.mark.parametrize("ring", RINGS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ring_axioms(ring, data):
    p, q, r = (data.draw(STRATEGIES[ring]) for _ in range(3))
    one = CONST[ring](1)
    assert (p * q) * r == p * (q * r)
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r
    assert p + q == q + p
    assert (p - q) + q == p
    assert p - p == 0 and not (p - p)
    assert p * one == p == one * p
    assert p * 0 == 0 and 0 * p == 0


@pytest.mark.parametrize("ring", RINGS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_equal_values_hash_alike(ring, data):
    p, q, r = (data.draw(STRATEGIES[ring]) for _ in range(3))
    left, right = (p * q) * r, p * (q * r)
    assert left == right and hash(left) == hash(right)
    as_fractions = left.map_coeffs(Fraction)
    assert as_fractions == left and hash(as_fractions) == hash(left)
    reordered = (r + q) + p
    assert reordered == p + q + r and hash(reordered) == hash(p + q + r)


@pytest.mark.parametrize("ring", ["NCPoly", "CPoly"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_d1_inverse_cancels_at_the_seams(ring, data):
    cls = NCPoly if ring == "NCPoly" else CPoly
    p, q = data.draw(STRATEGIES[ring]), data.draw(STRATEGIES[ring])
    d1 = cls.from_key(cls.letter_key(1))
    d1inv = cls.from_key(cls.letter_key(INV))
    assert d1 * d1inv == 1 == d1inv * d1
    assert (p * d1) * (d1inv * q) == p * q
    assert (p * d1inv) * (d1 * q) == p * q
    assert p * d1 * d1inv == p == d1inv * (d1 * p)


# ---------------------------------------------------------------------------
# the per-class bindings the span tracer relies on

# The span tracer of the benchmark (perfbench/tracer.py) finds each of these
# in its class's own namespace and rebinds every namespace that holds the
# same function object. A method moved into TermRing, or one function shared
# by two ring classes, would break only traced benchmark runs, so the rule
# is pinned here.
TRACED = (
    "algebra.NCPoly.__mul__",
    "algebra.NCPoly.__add__",
    "algebra.CPoly.__mul__",
    "algebra.CPoly.__add__",
    "algebra.QPoly.__mul__",
    "series.MultiPoly.__mul__",
    "algebra.NCPoly.derive",
    "algebra.NCPoly.substitute",
    "algebra.CPoly.derive",
    "algebra.QPoly.divexact",
)
MODULES = {"algebra": algebra, "series": series}
RING_CLASSES = (TermRing, NCPoly, CPoly, QPoly, MultiPoly)


@pytest.mark.parametrize("path", TRACED)
def test_traced_method_is_the_class_own(path):
    module, cls_name, attr = path.split(".")
    cls = getattr(MODULES[module], cls_name)
    fn = vars(cls).get(attr)
    assert isinstance(fn, types.FunctionType), f"{path} is not defined in {cls_name} itself"
    holders = [f"{c.__name__}.{k}" for c in RING_CLASSES for k, v in vars(c).items() if v is fn]
    holders += [f"{m}.{k}" for m, mod in MODULES.items() for k, v in vars(mod).items() if v is fn]
    assert all(h.startswith(cls_name + ".") for h in holders), holders


def test_no_function_is_bound_in_two_ring_classes():
    owner: dict = {}
    for cls in RING_CLASSES:
        for name, value in vars(cls).items():
            if isinstance(value, (staticmethod, classmethod)):
                value = value.__func__
            if isinstance(value, types.FunctionType):
                first = owner.setdefault(id(value), (cls.__name__, name))
                assert first[0] == cls.__name__, (first, (cls.__name__, name))
