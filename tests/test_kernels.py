"""Differential tests of the hot kernels of ncbell.algebra: word_mul,
mono_mul, NCPoly.derive, CPoly.derive, substitute, and the ring product
with a one-term or a scalar operand. Each is compared with a naive
reference written here, on random inputs chosen so that d1 d1^-1 seams
meet and terms cancel: the kernels must give the same values with the
same coefficient types (an int stays an int), and raise the same errors
with the same messages. Where a reference is the loop a kernel replaced,
the term order must match too."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncbell.algebra import (
    INV,
    CPoly,
    NCPoly,
    QPoly,
    check_mono,
    check_word,
    mono_mul,
    word_mul,
)
from ncbell.series import MultiPoly

D1, D2 = NCPoly.letter(1), NCPoly.letter(2)


# ---------------------------------------------------------------------------
# naive references


def _word_mul_reference(u, v) -> tuple:
    """Push the letters of v onto u one at a time; a d1 meeting d1^-1 pops."""
    out = list(u)
    for letter in v:
        if out and abs(letter) == 1 and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _mono_mul_reference(m1, m2) -> tuple:
    exps = Counter(dict(m1))
    exps.update(dict(m2))
    return tuple(sorted((i, e) for i, e in exps.items() if e))


def _derive_nc_reference(p: NCPoly) -> NCPoly:
    """Leibniz in ring arithmetic: the sum of prefix * d_{i+1} * suffix."""
    total = NCPoly.zero()
    for w, c in p.terms.items():
        if INV in w:
            raise ValueError("derive does not accept inverted letters")
        for pos, letter in enumerate(w):
            shifted = NCPoly.from_word(w[:pos]) * NCPoly.letter(letter + 1)
            total = total + shifted * NCPoly.from_word(w[pos + 1 :]) * c
    return total


def _derive_c_reference(p: CPoly) -> CPoly:
    """d_i^e -> e d_i^{e-1} d_{i+1}, one exponent table per term."""
    total = CPoly.zero()
    for m, c in p.terms.items():
        if any(e < 0 for _, e in m):
            raise ValueError("derive does not accept inverted letters")
        for i, e in m:
            exps = Counter(dict(m))
            exps[i] -= 1
            exps[i + 1] += 1
            mono = tuple(sorted((j, f) for j, f in exps.items() if f))
            total = total + CPoly.from_mono(mono, c * e)
    return total


def _mul_reference(p, q):
    """The ring product as the plain double loop over both term dicts,
    whatever the number of terms: the loop the one-term case replaced."""
    acc: dict = {}
    for u, cu in p.terms.items():
        for v, cv in q.terms.items():
            w = p.key_mul(u, v)
            s = acc.get(w, 0) + cu * cv
            if s:
                acc[w] = s
            elif w in acc:
                del acc[w]
    return p._new(acc)


def _scale_reference(p, c):
    """p times a nonzero scalar, one coefficient product per term."""
    return p._new({k: cc * c for k, cc in p.terms.items()})


def _substitute_reference(p, mapping):
    """One double-loop product per letter of every term, then a ring sum."""
    cls = type(p)
    total = cls.zero()
    for key, c in p.terms.items():
        factor = cls.one()
        for letter in cls.key_letters(key):
            if letter == INV:
                raise ValueError("substitute does not accept inverted letters")
            if letter not in mapping:
                raise ValueError(f"no image for letter {letter}")
            image = mapping[letter]
            if isinstance(image, (int, Fraction)):
                image = cls({cls.unit_key: image})
            elif type(image) is not cls:
                factor * image  # the ring product's TypeError
            factor = _mul_reference(factor, image)
        total = total + _scale_reference(factor, c)
    return total


def _outcome(f, *args):
    """What f(*args) gives, comparable across implementations: every term
    with the type of its coefficient, or the error type and message."""
    try:
        out = f(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return {k: (c, type(c)) for k, c in out.terms.items()}


def _ordered(f, *args):
    """_outcome, with the terms as a list in dict order."""
    try:
        out = f(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return [(k, c, type(c)) for k, c in out.terms.items()]


# ---------------------------------------------------------------------------
# strategies: small alphabets heavy in d1 and d1^-1, so seams meet and
# terms cancel


def _reduced(letters) -> tuple:
    return _word_mul_reference((), letters)


WORDS = st.lists(st.sampled_from((INV, INV, 1, 1, 2, 3)), max_size=6).map(_reduced)
PLAIN_WORDS = st.lists(st.sampled_from((1, 1, 2, 2, 3)), max_size=5).map(tuple)
COEFFS = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3))


def _monomial(exps: dict) -> tuple:
    return tuple(sorted((i, e if i == 1 else abs(e)) for i, e in exps.items() if e))


MONOS = st.dictionaries(st.integers(1, 4), st.integers(-3, 3), max_size=4).map(_monomial)


def _against(m1, m2) -> tuple:
    """m2 with its d1 exponent replaced by minus that of m1, so the d1s cancel."""
    e = dict(m1).get(1, 0)
    return (((1, -e),) if e else ()) + tuple(p for p in m2 if p[0] != 1)


# half of the pairs cancel at d1
MONO_PAIRS = st.tuples(MONOS, MONOS, st.booleans()).map(
    lambda t: (t[0], _against(t[0], t[1]) if t[2] else t[1]))


def _polys(words, coeffs):
    return st.dictionaries(words, coeffs, max_size=6).map(NCPoly)


# mostly plain letters; now and then a d1^-1, which derive and substitute refuse;
# short words in d1, d2 with coefficients +-1 make derived and substituted
# terms cancel often
POLYS = st.one_of(_polys(PLAIN_WORDS, COEFFS), _polys(WORDS, COEFFS),
                  _polys(st.lists(st.sampled_from((1, 2)), max_size=3).map(tuple),
                         st.sampled_from((1, -1))))
NONZERO = COEFFS.filter(bool)
# one term, now and then with a d1^-1 at either end for seams
ONE_TERM = st.builds(NCPoly.from_word, WORDS, NONZERO)
# the image of one letter: a scalar (zero included), a polynomial of the ring
# (zero, one term, multi-term, with d1^-1 for seams), or a float or other-ring
# value the ring product refuses
IMAGES = st.one_of(COEFFS, ONE_TERM, _polys(WORDS, COEFFS), _polys(WORDS, COEFFS),
                   st.just(NCPoly.zero()), st.sampled_from((0.5, CPoly.letter(2))))
# mostly an image for every letter, now and then one missing
MAPPINGS = st.one_of(st.fixed_dictionaries({i: IMAGES for i in (1, 2, 3)}),
                     st.dictionaries(st.integers(1, 3), IMAGES))


def _shadow(image):
    """The image in the commutative picture: an NCPoly abelianised, while a
    CPoly becomes an NCPoly and so stays a value of the other ring."""
    if type(image) is NCPoly:
        return image.abelianize()
    return NCPoly.letter(2) if type(image) is CPoly else image


# ---------------------------------------------------------------------------
# word_mul and mono_mul


@settings(max_examples=200, deadline=None)
@given(WORDS, WORDS)
def test_word_mul_matches_the_reference(u, v):
    got = word_mul(u, v)
    assert got == _word_mul_reference(u, v)
    check_word(got)


@settings(max_examples=200, deadline=None)
@given(MONO_PAIRS)
def test_mono_mul_matches_the_reference(pair):
    m1, m2 = pair
    got = mono_mul(m1, m2)
    assert type(got) is tuple
    assert got == _mono_mul_reference(m1, m2) == mono_mul(m2, m1)
    check_mono(got)


# ---------------------------------------------------------------------------
# derive


@settings(max_examples=150, deadline=None)
@given(POLYS)
def test_derive_matches_the_leibniz_reference(p):
    assert _outcome(NCPoly.derive, p) == _outcome(_derive_nc_reference, p)
    c = p.abelianize()
    assert _outcome(CPoly.derive, c) == _outcome(_derive_c_reference, c)


# ---------------------------------------------------------------------------
# substitute


@settings(max_examples=150, deadline=None)
@given(POLYS, MAPPINGS)
def test_substitute_matches_the_reference(p, mapping):
    assert _outcome(p.substitute, mapping) == _outcome(_substitute_reference, p, mapping)
    c = p.abelianize()
    shadow = {i: _shadow(img) for i, img in mapping.items()}
    assert _outcome(c.substitute, shadow) == _outcome(_substitute_reference, c, shadow)


@pytest.mark.parametrize("cls", [NCPoly, CPoly])
@pytest.mark.parametrize("key, mapping, error, message", [
    ((2, INV), lambda other: {1: 1, 2: 1}, ValueError,
     "substitute does not accept inverted letters"),
    ((1, 2), lambda other: {1: 1}, ValueError, "no image for letter 2"),
    ((1, 2), lambda other: {1: 0}, ValueError, "no image for letter 2"),
    ((1, 2), lambda other: {1: 0.5, 2: 1}, TypeError,
     "unsupported operand type(s) for *: '{cls}' and 'float'"),
    ((1, 2), lambda other: {1: 0.5}, TypeError,
     "unsupported operand type(s) for *: '{cls}' and 'float'"),
    ((1,), lambda other: {1: other.letter(1)}, TypeError,
     "unsupported operand type(s) for *: '{cls}' and '{other}'"),
])
def test_substitute_errors(cls, key, mapping, error, message):
    other = CPoly if cls is NCPoly else NCPoly
    mapping = mapping(other)
    p = NCPoly.from_word(key)
    if cls is CPoly:
        p = p.abelianize()
    message = message.format(cls=cls.__name__, other=other.__name__)
    with pytest.raises(error) as got:
        p.substitute(mapping)
    assert str(got.value) == message
    assert _outcome(p.substitute, mapping) == _outcome(_substitute_reference, p, mapping)


def test_substitute_reports_the_first_bad_letter_of_a_key():
    # a word is read left to right, a commutative monomial by index
    with pytest.raises(ValueError, match="no image for letter 2"):
        (D2 * D1).substitute({1: 0.5})
    with pytest.raises(TypeError, match="'CPoly' and 'float'"):
        (D2 * D1).abelianize().substitute({1: 0.5})


class _CountingMap(dict):
    """A mapping that counts how often each letter's image is read."""

    def __init__(self, images):
        super().__init__(images)
        self.reads = {}

    def __getitem__(self, letter):
        self.reads[letter] = self.reads.get(letter, 0) + 1
        return super().__getitem__(letter)


@pytest.mark.parametrize("cls", [NCPoly, CPoly])
def test_substitute_reads_each_image_once(cls):
    p = NCPoly({(1, 1, 2): 1, (2, 1): 3, (1,): -1, (): 5})
    if cls is CPoly:
        p = p.abelianize()
    mapping = _CountingMap({1: 2, 2: cls.letter(1) + cls.letter(3), 3: 1})
    assert p.substitute(mapping) == _substitute_reference(p, dict(mapping))
    assert mapping.reads == {1: 1, 2: 1}


# mostly one-term images, so that a word meets one-term, multi-term, scalar
# and zero images in one product
MIXED_IMAGES = st.one_of(ONE_TERM, ONE_TERM, ONE_TERM, NONZERO, _polys(WORDS, COEFFS),
                         st.just(NCPoly.zero()))
MIXED_MAPPINGS = st.fixed_dictionaries({i: MIXED_IMAGES for i in (1, 2, 3)})


@settings(max_examples=200, deadline=None)
@given(POLYS, MIXED_MAPPINGS)
def test_substitute_keeps_the_reference_terms_and_order(p, mapping):
    assert _ordered(p.substitute, mapping) == _ordered(_substitute_reference, p, mapping)
    c = p.abelianize()
    shadow = {i: _shadow(img) for i, img in mapping.items()}
    assert _ordered(c.substitute, shadow) == _ordered(_substitute_reference, c, shadow)


def test_substitute_with_one_term_images_meets_seams():
    # d1 -> 2 d2 d1^-1 and d2 -> d1 d3: every image has one term, and the
    # d1^-1 of one image cancels the d1 that starts the next
    p = NCPoly({(1, 2): 3, (2, 1): Fraction(1, 2), (1, 1): -1})
    mapping = {1: NCPoly.from_word((2, INV), 2), 2: NCPoly.from_word((1, 3))}
    assert _ordered(p.substitute, mapping) == _ordered(_substitute_reference, p, mapping)
    assert p.substitute(mapping) == NCPoly({(2, 3): 6, (1, 3, 2, INV): 1,
                                            (2, INV, 2, INV): -4})


# ---------------------------------------------------------------------------
# the ring product with a one-term operand, and by a scalar


def _ring_polys(cls, keys):
    return st.dictionaries(keys, COEFFS, max_size=6).map(cls)


NVARS = 2
EXPONENTS = st.tuples(*[st.integers(0, 2)] * NVARS)
# a value of each ring, and one of its one-term values; NCPoly and CPoly
# carry d1^-1, so that u*v cancels at a seam
RINGS = {
    "NCPoly": (_polys(WORDS, COEFFS), ONE_TERM),
    "CPoly": (_ring_polys(CPoly, MONOS), st.builds(CPoly.from_mono, MONOS, NONZERO)),
    "QPoly": (_ring_polys(QPoly, st.integers(0, 4)),
              st.builds(lambda e, c: QPoly({e: c}), st.integers(0, 4), NONZERO)),
    "MultiPoly": (st.dictionaries(EXPONENTS, COEFFS, max_size=6).map(
                      lambda t: MultiPoly(NVARS, t)),
                  st.builds(lambda e, c: MultiPoly(NVARS, {e: c}), EXPONENTS, NONZERO)),
}


@pytest.mark.parametrize("ring", sorted(RINGS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_term_product_matches_the_double_loop(ring, data):
    polys, one_term = RINGS[ring]
    p, t = data.draw(polys), data.draw(one_term)
    for a, b in ((p, t), (t, p), (t, t)):
        assert _ordered(lambda: a * b) == _ordered(_mul_reference, a, b)


def test_one_term_product_cancels_at_the_seam():
    p = NCPoly({(2, 1): 3, (1,): Fraction(1, 2), (): -1})
    t = NCPoly.from_word((INV, 3), 2)
    assert _ordered(lambda: p * t) == _ordered(_mul_reference, p, t)
    assert list((p * t).terms.items()) == [((2, 3), 6), ((3,), 1), ((INV, 3), -2)]
    assert [type(c) for c in (p * t).terms.values()] == [int, Fraction, int]
    assert list((t * NCPoly.from_word((1, 2))).terms) == [(INV, 3, 1, 2)]
    m = CPoly.from_mono(((1, -2), (3, 1)))
    assert (CPoly.from_mono(((1, 2),), 5) * m).terms == {((3, 1),): 5}


@pytest.mark.parametrize("ring", sorted(RINGS))
@settings(max_examples=100, deadline=None)
@given(data=st.data(), c=st.one_of(COEFFS, st.integers(-3, 3).map(Fraction)))
def test_scalar_product_matches_the_reference(ring, data, c):
    p = data.draw(RINGS[ring][0])
    want = _ordered(_scale_reference, p, c) if c else []
    assert _ordered(lambda: p * c) == want
    assert _ordered(lambda: c * p) == want


def test_int_polynomial_times_fraction_gives_fractions():
    p = NCPoly({(1,): 6, (2,): 4, (1, 2): -3})
    got = p * Fraction(1, 6)
    assert list(got.terms.items()) == [((1,), 1), ((2,), Fraction(2, 3)),
                                       ((1, 2), Fraction(-1, 2))]
    assert all(type(c) is Fraction for c in got.terms.values())
    assert all(type(c) is Fraction for c in (p * Fraction(2)).terms.values())
    assert all(type(c) is int for c in (p * 2).terms.values())
    mixed = NCPoly({(1,): 2, (2,): Fraction(1, 3)}) * Fraction(3, 2)
    assert mixed.terms == {(1,): 3, (2,): Fraction(1, 2)}
    assert all(type(c) is Fraction for c in mixed.terms.values())
