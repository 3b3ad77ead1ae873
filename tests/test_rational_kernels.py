"""Differential tests of the integer-numerator rational kernels: compose,
compose_via_bell, the rational path of quasidet.det, the fraction-free
inverse behind mat_inverse and numeric_quasidet, and the character pairing
behind hopf.pair and Character.__call__; and of the series product on
rational input. Each is compared with the plain Fraction loop it
replaced, kept here as the reference, on int, bool, Fraction and mixed
entries with runs of zeros, unequal truncation orders and denominators up
to 10^6. The kernels must give the same values with the same coefficient
types (every series product coefficient, every determinant, inverse entry
and numeric quasideterminant is a Fraction; a pairing of int inputs is an
int), and a float is refused with the same TypeError as a ring
coefficient, and series arithmetic with an operand that is not a series
is a TypeError. compose and compose_via_bell refuse ring-valued series
with a TypeError."""

import operator
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncbell import hopf
from ncbell.algebra import INV, CPoly, NCPoly, QPoly, common_denominator, key_of
from ncbell.bell import bell_partial
from ncbell.quasidet import det, mat_inverse, numeric_quasidet
from ncbell.series import FormalSeries, compose, compose_via_bell

FLOAT_ERROR = "coefficient must be Fraction or int, got float"


# ---------------------------------------------------------------------------
# the plain Fraction loops


def _mul_reference(a: FormalSeries, b: FormalSeries) -> list:
    order = min(a.order, b.order)
    out = [Fraction(0)] * order
    for i in range(order):
        for j in range(order - i):
            out[i + j] = out[i + j] + a.coeffs[i] * b.coeffs[j]
    return out


def _compose_reference(f: FormalSeries, g: FormalSeries, order: int) -> list:
    """Horner evaluation adding f_n as a zero-padded series at each step."""
    acc = [f.coeffs[order - 1]] + [Fraction(0)] * (order - 1)
    for n in range(order - 2, -1, -1):
        prod = [Fraction(0)] * order
        for i in range(order):
            for j in range(order - i):
                prod[i + j] = prod[i + j] + acc[i] * g.coeffs[j]
        padded = [f.coeffs[n]] + [Fraction(0)] * (order - 1)
        acc = [x + y for x, y in zip(prod, padded)]
    return acc


def _compose_via_bell_reference(f: FormalSeries, g: FormalSeries, order: int) -> list:
    """h_n = sum_k f_k B_{n,k}(g_1, g_2, ...) with B_{n,k} evaluated at the
    Fraction values themselves."""
    gvals = {i: g.divided(i) for i in range(1, order)}
    divided = [f.coeff(0)]
    for n in range(1, order):
        total = Fraction(0)
        for k in range(1, n + 1):
            total += f.divided(k) * bell_partial(n, k, "c").evaluate(gvals)
        divided.append(total)
    return [h * Fraction(1, factorial(n)) for n, h in enumerate(divided)]


def _det_reference(M) -> Fraction:
    """Bareiss elimination on Fraction entries with Fraction division."""
    M = [[Fraction(e) for e in row] for row in M]
    n = len(M)
    if n == 0:
        return Fraction(1)
    sign, prev = 1, Fraction(1)
    for k in range(n - 1):
        if not M[k][k]:
            for r in range(k + 1, n):
                if M[r][k]:
                    M[k], M[r] = M[r], M[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) / prev
            M[i][k] = Fraction(0)
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def _inverse_reference(M):
    """Gauss-Jordan elimination on Fraction entries."""
    n = len(M)
    A = [[Fraction(M[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        A[col], A[piv] = A[piv], A[col]
        inv = 1 / A[col][col]
        A[col] = [x * inv for x in A[col]]
        for r in range(n):
            if r != col and A[r][col]:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return [row[n:] for row in A]


def _quasidet_reference(A, p, q) -> Fraction:
    """a_pq - r (A^{pq})^{-1} c with the Fraction inverse."""
    n = len(A)
    rows = [i for i in range(n) if i != p - 1]
    cols = [j for j in range(n) if j != q - 1]
    inv = _inverse_reference([[A[i][j] for j in cols] for i in rows])
    acc = Fraction(A[p - 1][q - 1])
    for b in range(n - 1):
        for a in range(n - 1):
            acc -= A[p - 1][cols[b]] * inv[b][a] * A[rows[a]][q - 1]
    return acc


def _on_key_reference(ch, key, cls):
    prod = 1
    for i in cls.key_letters(key):
        prod *= ch.on_letter(i)
    return prod


def _pair_reference(phi, psi, t: dict, variant: str):
    cls = hopf.ring(variant)
    total = 0
    for (l, r), c in t.items():
        total += c * _on_key_reference(phi, l, cls) * _on_key_reference(psi, r, cls)
    return total


def _call_reference(ch, p):
    total = 0
    for key, c in p.terms.items():
        total += c * _on_key_reference(ch, key, type(p))
    return total


def _typed(values) -> list:
    return [(type(v), v) for v in values]


# ---------------------------------------------------------------------------
# strategies


_INTS = st.integers(-10**6, 10**6)
_FRACTIONS = st.fractions(min_value=-10**3, max_value=10**3, max_denominator=10**6)
_SCALARS = st.one_of(st.just(0), st.just(Fraction(0)), st.booleans(), _INTS, _FRACTIONS)


@st.composite
def _coefficients(draw, size, zero_constant=False):
    """A list of int, bool and Fraction scalars, or only ints, or only
    Fractions, with one run of zeros set into it."""
    scalars = draw(st.sampled_from([_SCALARS, _INTS, _FRACTIONS]))
    values = draw(st.lists(scalars, min_size=size, max_size=size))
    start = draw(st.integers(0, size))
    stop = draw(st.integers(start, size))
    zero = draw(st.sampled_from([0, Fraction(0)]))
    values[start:stop] = [zero] * (stop - start)
    if zero_constant and values:
        values[0] = zero
    return values


@st.composite
def _series(draw, order=None, zero_constant=False):
    order = draw(st.integers(1, 10)) if order is None else order
    return FormalSeries(draw(_coefficients(order, zero_constant)), order)


@st.composite
def _composable(draw):
    order = draw(st.integers(1, 9))
    return (draw(_series(order)), draw(_series(order, zero_constant=True)), order)


@st.composite
def _matrix(draw):
    """A square matrix of size 0..5; with some luck a zero pivot, and
    sometimes a row repeated, scaled, so that the matrix is singular."""
    n = draw(st.integers(0, 5))
    M = [draw(_coefficients(n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            M[j] = [e * 3 for e in M[i]]
    return M


_LETTERS = (INV, 1, 2, 3, 4)


@st.composite
def _character(draw):
    scalars = draw(st.sampled_from([_SCALARS, _INTS, _FRACTIONS]))
    values = {i: draw(scalars) for i in _LETTERS}
    return hopf.Character(values)


@st.composite
def _key(draw, cls):
    return key_of(cls, draw(st.lists(st.sampled_from(_LETTERS), max_size=4)))


@st.composite
def _tensor(draw, variant):
    cls = hopf.ring(variant)
    scalars = draw(st.sampled_from([_INTS, _SCALARS]))
    return draw(st.dictionaries(st.tuples(_key(cls), _key(cls)), scalars, max_size=12))


@st.composite
def _pairing_case(draw):
    variant = draw(st.sampled_from(["fdb", "dfdb"]))
    return draw(_character()), draw(_character()), draw(_tensor(variant)), variant


def _fraction_free(*collections) -> bool:
    return not any(isinstance(v, Fraction) for values in collections for v in values)


# ---------------------------------------------------------------------------
# the kernels against the loops


@settings(max_examples=300, deadline=None)
@given(_series(), _series())
def test_series_product_matches_the_fraction_loop(a, b):
    got = a * b
    assert got.order == min(a.order, b.order)
    want = _mul_reference(a, b)
    assert _typed(got.coeffs) == _typed(want)
    assert all(type(c) is Fraction for c in got.coeffs)


@settings(max_examples=200, deadline=None)
@given(_composable())
def test_compose_matches_the_padded_horner_loop(case):
    f, g, order = case
    got = compose(f, g)
    assert got.order == order
    assert _typed(got.coeffs) == _typed(_compose_reference(f, g, order))


@settings(max_examples=100, deadline=None)
@given(_composable())
def test_compose_via_bell_matches_the_fraction_evaluation(case):
    f, g, order = case
    got = compose_via_bell(f, g)
    assert got.order == order
    assert _typed(got.coeffs) == _typed(_compose_via_bell_reference(f, g, order))


@pytest.mark.parametrize("order", range(1, 10))
def test_both_compositions_agree_at_every_order(order):
    f = FormalSeries([Fraction(k + 1, 10**6 - k) for k in range(order)])
    g = FormalSeries([0] + [Fraction((-1) ** k * 7, k + 1) for k in range(1, order)])
    want = _compose_reference(f, g, order)
    assert _typed(compose(f, g).coeffs) == _typed(want)
    assert _typed(compose_via_bell(f, g).coeffs) == _typed(want)


@settings(max_examples=300, deadline=None)
@given(_matrix())
def test_det_matches_fraction_bareiss(M):
    before = [row[:] for row in M]
    got = det(M)
    assert M == before
    want = _det_reference(M)
    assert type(got) is Fraction
    assert got == want


@pytest.mark.parametrize("M, value", [
    ([], 1),
    ([[5]], 5),
    ([[Fraction(-3, 7)]], Fraction(-3, 7)),
    ([[True]], 1),
    ([[0, 1], [1, 0]], -1),
    ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], -1),
    ([[0, 2, 1], [0, 1, 3], [4, 1, 0]], 20),
    ([[1, 2], [2, 4]], 0),
    ([[0, 1], [0, 2]], 0),
    ([[Fraction(1, 2), True], [False, Fraction(1, 3)]], Fraction(1, 6)),
    ([[Fraction(1, 999983), 1], [1, Fraction(1, 999979)]], Fraction(1 - 999983 * 999979, 999983 * 999979)),
])
def test_det_edge_cases(M, value):
    got = det(M)
    assert type(got) is Fraction
    assert got == value == _det_reference(M)


@settings(max_examples=300, deadline=None)
@given(_matrix())
def test_mat_inverse_matches_fraction_gauss_jordan(M):
    try:
        want = _inverse_reference(M)
    except ValueError:
        with pytest.raises(ValueError, match="^singular matrix$"):
            mat_inverse(M)
        return
    got = mat_inverse(M)
    assert got == want
    assert all(type(e) is Fraction for row in got for e in row)


@settings(max_examples=300, deadline=None)
@given(_matrix(), st.integers(1, 5), st.integers(1, 5))
def test_numeric_quasidet_matches_the_fraction_inverse(M, p, q):
    n = len(M)
    if not n:
        return
    p, q = min(p, n), min(q, n)
    try:
        want = _quasidet_reference(M, p, q)
    except ValueError:
        with pytest.raises(ValueError) as exc:
            numeric_quasidet(M, p, q)
        assert str(exc.value) == f"minor A^{{{p}{q}}} is singular; quasideterminant undefined"
        return
    got = numeric_quasidet(M, p, q)
    assert type(got) is Fraction
    assert got == want


@pytest.mark.parametrize("M, p, q, value", [
    ([[7]], 1, 1, 7),
    ([[Fraction(-2, 999983)]], 1, 1, Fraction(-2, 999983)),
    ([[True]], 1, 1, 1),
    ([[1, 2], [3, 4]], 1, 1, Fraction(-1, 2)),
    ([[1, 2], [3, 4]], 2, 1, 3 - Fraction(4, 2)),
    ([[5, 0, 1], [0, 0, 2], [0, 3, 0]], 1, 1, 5),  # zero pivot: the minor needs a row swap
    ([[1, 1, 1], [1, 0, 1], [1, 1, 0]], 3, 3, -1),
    ([[Fraction(1, 10**6), 1], [1, Fraction(1, 999999)]], 1, 1,
     Fraction(1, 10**6) - 999999),
])
def test_numeric_quasidet_edge_cases(M, p, q, value):
    got = numeric_quasidet(M, p, q)
    assert type(got) is Fraction
    assert got == value == _quasidet_reference(M, p, q)


@pytest.mark.parametrize("M", [[], [[3]], [[0, 1], [1, 0]], [[0, 0, 2], [0, 5, 0], [7, 0, 0]],
                               [[Fraction(1, 2), True], [False, Fraction(1, 3)]]])
def test_mat_inverse_edge_cases(M):
    got = mat_inverse(M)
    assert got == _inverse_reference(M)
    assert all(type(e) is Fraction for row in got for e in row)


def test_singular_messages_are_unchanged():
    with pytest.raises(ValueError, match="^singular matrix$"):
        mat_inverse([[1, 2], [2, 4]])
    with pytest.raises(ValueError, match="^singular matrix$"):
        mat_inverse([[0]])
    with pytest.raises(ValueError, match=r"^minor A\^\{11\} is singular; quasideterminant undefined$"):
        numeric_quasidet([[1, 2, 1], [0, 0, 1], [0, 0, 2]], 1, 1)


@settings(max_examples=300, deadline=None)
@given(_pairing_case())
def test_pair_matches_the_term_loop(case):
    phi, psi, t, variant = case
    got = hopf.pair(phi, psi, t, variant)
    assert got == _pair_reference(phi, psi, t, variant)
    if not t or _fraction_free(phi.values.values(), psi.values.values(), t.values()):
        assert type(got) is int
    else:
        assert type(got) is Fraction


@settings(max_examples=300, deadline=None)
@given(_character(), st.sampled_from([NCPoly, CPoly]), st.data())
def test_character_call_matches_the_term_loop(ch, cls, data):
    scalars = data.draw(st.sampled_from([_INTS, _SCALARS]))
    p = cls(data.draw(st.dictionaries(_key(cls), scalars, max_size=10)))
    got = ch(p)
    assert got == _call_reference(ch, p)
    if _fraction_free(ch.values.values(), p.terms.values()):
        assert type(got) is int


def test_pairing_types_and_errors():
    ints = hopf.Character({1: 2, 2: -3, 3: True})
    halves = hopf.Character({1: Fraction(1, 2), 2: 1, 3: Fraction(5, 10**6)})
    t = hopf.coproduct_gen(3, "fdb")
    assert hopf.pair(ints, ints, {}, "fdb") == 0 and type(hopf.pair(ints, ints, {}, "fdb")) is int
    assert type(hopf.pair(ints, ints, t, "fdb")) is int
    assert hopf.pair(ints, halves, t, "fdb") == _pair_reference(ints, halves, t, "fdb")
    assert type(hopf.pair(halves, ints, t, "fdb")) is Fraction
    assert type(ints(CPoly.zero())) is int and ints(CPoly.zero()) == 0
    assert type(ints(hopf.antipode_recursive(3, "fdb"))) is int
    # a Fraction coefficient over int values is a Fraction result
    half_t = {key: c * Fraction(1, 2) for key, c in t.items()}
    assert hopf.pair(ints, ints, half_t, "fdb") == _pair_reference(ints, ints, half_t, "fdb")
    assert type(hopf.pair(ints, ints, half_t, "fdb")) is Fraction
    with pytest.raises(ValueError, match="^character not defined on letter 4$"):
        hopf.pair(ints, ints, hopf.coproduct_gen(4, "fdb"), "fdb")
    with pytest.raises(ValueError, match="^character not defined on letter 4$"):
        ints(NCPoly.letter(4))


def test_compose_result_types():
    f = FormalSeries([3, 1, 2])
    g = FormalSeries([0, 1, 5])
    assert compose(f, g, 1).coeffs == [3] and type(compose(f, g, 1).coeffs[0]) is int
    for order in (2, 3):
        assert all(type(c) is Fraction for c in compose(f, g, order).coeffs)
    assert compose(f, g).coeffs == [3, 1, 7]


def test_compose_refuses_ring_valued_series():
    u = FormalSeries([CPoly.zero(), CPoly.letter(1), CPoly.letter(2)])
    exact = FormalSeries([0, 1, 2])
    for f, g in ((u, exact), (exact, u), (u, u)):
        for order in (1, 3):
            with pytest.raises(TypeError, match="compose needs int or Fraction coefficients"):
                compose(f, g, order)


def test_compose_via_bell_refuses_ring_valued_series():
    u = FormalSeries([CPoly.zero(), CPoly.letter(1), CPoly.letter(2)])
    exact = FormalSeries([0, 1, 2])
    for f, g in ((u, exact), (exact, u), (u, u)):
        with pytest.raises(TypeError, match="compose_via_bell needs int or Fraction coefficients"):
            compose_via_bell(f, g)
    # the origin is checked first, as before
    with pytest.raises(ValueError, match="inner series must vanish at the origin"):
        compose_via_bell(exact, FormalSeries([CPoly.letter(1), CPoly.letter(2)]))


def test_ring_valued_series_keep_the_plain_loop():
    # a CPoly series times a rational one: no common denominator exists
    d1, d2 = CPoly.letter(1), CPoly.letter(2)
    u = FormalSeries([CPoly.zero(), d1, d2 * Fraction(1, 2)])
    v = FormalSeries([Fraction(1, 3), 2, 0])
    assert (u * v).coeffs == [0, d1 * Fraction(1, 3), d1 * 2 + d2 * Fraction(1, 6)]
    assert (u * v).coeffs == _mul_reference(u, v)


def test_common_denominator():
    assert common_denominator([]) == ([], 1)
    assert common_denominator([3, True, Fraction(1, 4), Fraction(-5, 6)]) == ([36, 12, 3, -10], 12)
    nums, d = common_denominator([Fraction(1, 10**6), Fraction(1, 999999)])
    assert d == 10**6 * 999999
    assert all(type(x) is int for x in nums)


# ---------------------------------------------------------------------------
# floats are refused, not computed with


@pytest.mark.parametrize("coeffs", [[0.5, 1], [0, 1, 2.0], [Fraction(1), float("nan")]])
def test_series_refuse_floats(coeffs):
    with pytest.raises(TypeError, match=FLOAT_ERROR):
        FormalSeries(coeffs)
    with pytest.raises(TypeError, match=FLOAT_ERROR):
        FormalSeries(coeffs, 5)


@pytest.mark.parametrize("other", [0.5, 1, Fraction(1, 2), "x", None])
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_series_arithmetic_with_a_non_series_is_a_type_error(op, other):
    # only int and Fraction scale a series; any other operand is refused by
    # both sides of the operator, never looked into for .order
    f = FormalSeries([1, 2])
    if op is operator.mul and type(other) in (int, Fraction):
        assert f * other == other * f == FormalSeries([other, 2 * other])
        return
    with pytest.raises(TypeError, match="unsupported operand|can't multiply"):
        op(f, other)


@pytest.mark.parametrize("M", [[[1.5, 2], [3, 4]], [[1, 2], [3, 4.0]], [[0.0]]])
def test_det_refuses_floats(M):
    with pytest.raises(TypeError, match=FLOAT_ERROR):
        det(M)


@pytest.mark.parametrize("M", [[[0.5, 1], [2, 3]], [[1, 2], [3, 4.0]], [[0.0]]])
def test_inverse_and_quasidet_refuse_floats(M):
    with pytest.raises(TypeError, match=FLOAT_ERROR):
        mat_inverse(M)
    with pytest.raises(TypeError, match=FLOAT_ERROR):
        numeric_quasidet(M, 1, 1)


def test_det_errors_besides_floats():
    with pytest.raises(ValueError, match="not square"):
        det([[1, 2]])
    with pytest.raises(TypeError, match="got str"):
        det([["1", 2], [3, 4]])
    with pytest.raises(ValueError, match="no polynomial entries"):
        det([[QPoly.one(), 2], [3, 4]])
