"""Formal series, multivariate polynomials, and flow pullbacks."""

import random
from fractions import Fraction
from importlib import import_module
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncbell
from ncbell import series, verify
from ncbell.algebra import CPoly, key_of
from ncbell.bell import bell
from ncbell.series import (
    FormalSeries,
    MultiPoly,
    VectorField,
    bell_apply,
    compose,
    compose_via_bell,
    egf_bell_check,
    flow_pullback_taylor,
    reversion,
)

bell_module = import_module("ncbell.bell")  # ncbell.bell is the function
EXP = FormalSeries([Fraction(0)] + [Fraction(1, factorial(n)) for n in range(1, 9)], 9)


def test_compose_via_bell_reads_each_bell_monomial_once(monkeypatch):
    # B_n is split into its B_{n,k} by bell_partial's index in one pass, not
    # rescanned for every k
    lengths = []
    original = bell_module.mono_length

    def counted(m):
        lengths.append(m)
        return original(m)

    ncbell.clear_caches()
    monkeypatch.setattr(bell_module, "mono_length", counted)
    got = compose_via_bell(EXP, EXP)
    assert len(lengths) == sum(len(bell(n, "c").terms) for n in range(1, 9))
    # e^(e^t - 1) - 1: the Bell numbers
    assert [got.divided(n) for n in range(9)] == [0, 1, 2, 5, 15, 52, 203, 877, 4140]


def test_analytic_suite_builds_each_bell_form_once(monkeypatch):
    # 50 compositions of order 9 read each B_{n,k} they need from bell_partial
    # once, and the memo keeps one form per (n, k)
    calls = []
    original = series.bell_partial

    def counted(n, k, variant="nc"):
        calls.append((n, k, variant))
        return original(n, k, variant)

    monkeypatch.setattr(series, "bell_partial", counted)
    ncbell.clear_caches()
    ok, detail = verify.suite_analytic(None, 0)
    assert ok, detail
    assert calls and len(calls) == len(set(calls)) == ncbell.cache_info()["series.bell_form"]
    assert {variant for _, _, variant in calls} == {"c"}
    assert set(series._BELL_FORM) == {(n, k) for n, k, _ in calls}
    ncbell.clear_caches()
    assert series._BELL_FORM == {}


def test_bell_form_is_the_partial_bell_polynomial():
    ncbell.clear_caches()
    for n in range(1, 9):
        for k in range(1, n + 1):
            form = series._bell_form(n, k)
            assert type(form) is tuple and form is series._bell_form(n, k)
            want = bell_module.bell_partial(n, k, "c")
            assert [(m, c) for m, c in want.terms.items()] == \
                [(key_of(CPoly, letters), c) for letters, c in form]
    ncbell.clear_caches()


def test_series_basics():
    s = FormalSeries([1, 2, 3])
    assert s.order == 3
    assert s.coeff(2) == 3
    assert s.divided(2) == 6
    with pytest.raises(ValueError):
        s.coeff(3)
    assert (s + s).coeffs == [2, 4, 6]
    assert (s * s).coeffs == [1, 4, 10]


def test_series_divided_view():
    assert EXP.coeff(3) == Fraction(1, 6)
    assert EXP.divided(5) == 1


def test_compose_golden():
    # exp(log(1+t)) - 1 = t
    log1p = FormalSeries(
        [Fraction(0)] + [Fraction((-1) ** (n + 1), n) for n in range(1, 9)], 9
    )
    assert compose(EXP, log1p).coeffs == [0, 1] + [0] * 7


def test_compose_equals_bell_route():
    rng = random.Random(5)
    for _ in range(10):
        f = FormalSeries(
            [Fraction(0)] + [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(8)], 9
        )
        g = FormalSeries(
            [Fraction(0), Fraction(rng.randrange(1, 5))]
            + [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(7)],
            9,
        )
        assert compose(f, g) == compose_via_bell(f, g)


def test_reversion():
    log1p = FormalSeries(
        [Fraction(0)] + [Fraction((-1) ** (n + 1), n) for n in range(1, 9)], 9
    )
    assert reversion(EXP) == log1p
    rng = random.Random(9)
    for _ in range(5):
        g = FormalSeries(
            [Fraction(0), Fraction(rng.randrange(1, 5), rng.randrange(1, 3))]
            + [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(6)],
            8,
        )
        assert compose(g, reversion(g)) == FormalSeries([0, 1], 8)
        assert compose(reversion(g), g) == FormalSeries([0, 1], 8)


def test_compose_refuses_an_order_below_one():
    f = FormalSeries([Fraction(0), Fraction(1)], 2)
    for order in (0, -1):
        with pytest.raises(ValueError, match="^order must be at least 1$"):
            compose(f, f, order)


def test_reversion_needs_unit():
    with pytest.raises(ValueError):
        reversion(FormalSeries([Fraction(0), Fraction(0), Fraction(1)], 5))


def test_egf_bell_check():
    assert egf_bell_check(8) == []


def test_multipoly_arithmetic():
    x = MultiPoly.var(2, 0)
    y = MultiPoly.var(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p.partial(0) == 2 * x
    assert p.partial(1) == -2 * y


def test_multipoly_json_round_trip():
    x = MultiPoly.var(3, 0)
    z = MultiPoly.var(3, 2)
    doc = {"nvars": 3, "terms": [{"coeff": "-1/2", "exponents": [0, 0, 0]},
                                 {"coeff": "1", "exponents": [2, 0, 1]}]}
    assert MultiPoly.from_json_dict(doc) == x * x * z - MultiPoly.one(3) * Fraction(1, 2)


def test_lie_derivative():
    x = MultiPoly.var(2, 0)
    y = MultiPoly.var(2, 1)
    field = VectorField(2, [y, x])
    assert series._lie(field.components, x * y) == x * x + y * y


def test_bell_apply_order_one_is_lie():
    x = MultiPoly.var(2, 0)
    y = MultiPoly.var(2, 1)
    field = VectorField(2, [x * y, y + 1])
    psi = x + y * y
    assert bell_apply(field, psi, 0) == psi
    # F[psi] = sum_i F^i d(psi)/dx_i
    lie = field.components[0] * psi.partial(0) + field.components[1] * psi.partial(1)
    assert bell_apply(field, psi, 1) == lie


def test_flow_pullback_matches_bell_words():
    x = MultiPoly.var(2, 0)
    y = MultiPoly.var(2, 1)
    field = VectorField(2, [x * y, y * y + 1])
    psi = x + x * y
    taylor = flow_pullback_taylor(field, psi, 5)
    for n in range(6):
        assert taylor[n] == bell_apply(field, psi, n)


def test_flow_pullback_time_dependent():
    x = MultiPoly.var(1, 0)
    one = MultiPoly.one(1)
    zero = MultiPoly.zero(1)
    # dx/dt = 1 + t x with the time series truncated far enough to cover
    # every requested order
    field = VectorField(1, [one], [[one], [x], [zero], [zero], [zero]])
    psi = x * x
    taylor = flow_pullback_taylor(field, psi, 4)
    for n in range(5):
        assert taylor[n] == bell_apply(field, psi, n)


def test_truncated_field_rejects_deep_orders():
    x = MultiPoly.var(1, 0)
    field = VectorField(1, [x], [[x], [x]])
    with pytest.raises(ValueError):
        bell_apply(field, x, 3)


def test_vector_field_json_round_trip():
    x = MultiPoly.var(2, 0)
    y = MultiPoly.var(2, 1)
    doc = {"nvars": 2, "time_coefficients": [[
        {"nvars": 2, "terms": [{"coeff": "1", "exponents": [1, 1]}]},
        {"nvars": 2, "terms": [{"coeff": "1", "exponents": [0, 1]},
                               {"coeff": "1", "exponents": [0, 0]}]},
    ]]}
    back = VectorField.from_json_dict(doc)
    assert back.nvars == 2
    assert back.exact  # one time coefficient and no "exact": autonomous
    assert back.components == [x * y, y + 1]
    two = dict(doc, time_coefficients=doc["time_coefficients"] * 2)
    assert VectorField.from_json_dict(two).time_order() == 2
    with pytest.raises(ValueError, match="an exact vector field has one time coefficient"):
        VectorField.from_json_dict(dict(two, exact=True))


# ---------------------------------------------------------------------------
# the integer routes against the plain Fraction loops they replaced


def _typed(p: MultiPoly) -> dict:
    return {e: (type(c), c) for e, c in p.terms.items()}


def _lie_reference(components, psi):
    out = MultiPoly.zero(psi.nvars)
    for i, comp in enumerate(components):
        out = out + comp * psi.partial(i)
    return out


def _bell_apply_reference(field, psi, n):
    """Every word of B_n applied to psi from its last letter out, in the
    field's own coefficients."""
    out = MultiPoly.zero(field.nvars)
    for word, c in bell(n, "nc").terms.items():
        acc = psi
        for j in reversed(word):
            acc = _lie_reference(field.field(j), acc)
        out = out + acc * c
    return out


def _full_truncation_taylor(field, psi, order):
    """Picard iteration with every iteration at the full truncation and every
    power rebuilt from scratch: slower, but obviously the same integral."""

    def ts_mul(a, b):
        out = [MultiPoly.zero(m) for _ in range(order + 1)]
        for i, x in enumerate(a):
            for j in range(order + 1 - i):
                out[i + j] = out[i + j] + x * b[j]
        return out

    def ts_eval(poly, args):
        out = [MultiPoly.zero(m) for _ in range(order + 1)]
        for exps, c in poly.terms.items():
            term = [MultiPoly.one(m) * c] + [MultiPoly.zero(m)] * order
            for i, e in enumerate(exps):
                for _ in range(e):
                    term = ts_mul(term, args[i])
            out = [x + y for x, y in zip(out, term)]
        return out

    m = field.nvars
    y = [[MultiPoly.var(m, i)] + [MultiPoly.zero(m)] * order for i in range(m)]
    jmax = min(order + 1, field.time_order())
    for _ in range(order):
        rhs = [[MultiPoly.zero(m)] * (order + 1) for _ in range(m)]
        for j in range(1, jmax + 1):
            for i, comp in enumerate(field.field(j)):
                vals = ts_eval(comp, y)
                for a in range(order + 2 - j):
                    rhs[i][a + j - 1] = rhs[i][a + j - 1] + vals[a] * Fraction(1, factorial(j - 1))
        y = [[y[i][0]] + [rhs[i][a] * Fraction(1, a + 1) for a in range(order)] for i in range(m)]
    values = ts_eval(psi, y)
    return [values[n] * factorial(n) for n in range(order + 1)]


_SCALARS = {
    "int": st.integers(-3, 3),
    "Fraction": st.fractions(min_value=-3, max_value=3, max_denominator=4),
}
_SCALARS["mixed"] = st.one_of(*_SCALARS.values())


@st.composite
def _multipoly(draw, nvars, kind="Fraction"):
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * nvars), _SCALARS[kind], max_size=3,
    ))
    return MultiPoly(nvars, terms)


@st.composite
def _flow_case(draw, kinds):
    kind = draw(st.sampled_from(kinds))
    nvars = draw(st.integers(1, 3))
    order = draw(st.integers(0, 5 if nvars < 3 else 3))
    components = [draw(_multipoly(nvars, kind)) for _ in range(nvars)]
    if draw(st.booleans()):
        field = VectorField(nvars, components)
    else:
        extra = draw(st.integers(order, order + 2))
        field = VectorField(nvars, components, [components] + [
            [draw(_multipoly(nvars, kind)) for _ in range(nvars)] for _ in range(extra)
        ])
    return field, draw(_multipoly(nvars, kind)), order, kind


@settings(max_examples=60, deadline=None)
@given(_flow_case(("int", "Fraction", "mixed")))
def test_flow_pullback_equals_full_truncation_picard(case):
    field, psi, order, _ = case
    got = flow_pullback_taylor(field, psi, order)
    want = _full_truncation_taylor(field, psi, order)
    assert got == want
    assert [_typed(p) for p in got] == [_typed(p) for p in want]


@settings(max_examples=80, deadline=None)
@given(_flow_case(("int", "Fraction", "mixed")))
def test_bell_apply_matches_the_fraction_word_loop(case):
    field, psi, order, kind = case
    for n in range(order + 1):
        got, want = bell_apply(field, psi, n), _bell_apply_reference(field, psi, n)
        assert got == want
        if kind != "mixed" or n == 0:
            assert _typed(got) == _typed(want)
        else:
            # one coefficient type throughout, where the word loop may mix
            # int and Fraction term by term
            assert len(set(map(type, got.terms.values()))) <= 1


def test_bell_apply_on_mixed_coefficients_gives_fractions():
    x = MultiPoly.var(1, 0)
    field = VectorField(1, [x * 2])
    psi = x * Fraction(1, 2) + x * x * 3
    got, want = bell_apply(field, psi, 2), _bell_apply_reference(field, psi, 2)
    assert got == want
    assert _typed(want) == {(1,): (Fraction, 2), (2,): (int, 48)}
    assert _typed(got) == {(1,): (Fraction, 2), (2,): (Fraction, 48)}


def _x(m, i):
    return MultiPoly.var(m, i)


@pytest.mark.parametrize("field, psi, order", [
    # D = 6 and Dp = 10, autonomous
    (VectorField(2, [_x(2, 0) * Fraction(1, 2) + _x(2, 1) * _x(2, 1) * Fraction(1, 3),
                     _x(2, 0) * _x(2, 1) + Fraction(-5, 2)]),
     _x(2, 0) * _x(2, 0) * Fraction(3, 5) + _x(2, 1) * Fraction(1, 2), 5),
    # D = 12 over three time coefficients read to order = time_order()
    (VectorField(1, [_x(1, 0) * Fraction(1, 4)],
                 [[_x(1, 0) * Fraction(1, 4)], [_x(1, 0) * _x(1, 0) * Fraction(2, 3)],
                  [MultiPoly.one(1) * Fraction(-1, 6)]]),
     _x(1, 0) * _x(1, 0) * _x(1, 0) * Fraction(7, 9) + Fraction(1, 2), 3),
    # zero components: the flow is the identity
    (VectorField(2, [MultiPoly.zero(2)] * 2), _x(2, 0) * _x(2, 1) * Fraction(2, 3), 4),
    # order 0 reads no field at all
    (VectorField(1, [_x(1, 0) * Fraction(1, 7)], [[_x(1, 0) * Fraction(1, 7)]]),
     _x(1, 0) * 3 + Fraction(1, 2), 0),
    # int coefficients throughout: D = Dp = 1
    (VectorField(2, [_x(2, 1) * 2, _x(2, 0) * _x(2, 0) - 1]), _x(2, 0) * _x(2, 1) + 4, 4),
], ids=["D=6,Dp=10", "D=12,time-order", "zero-field", "order-0", "ints"])
def test_flow_and_words_with_scaled_denominators(field, psi, order):
    got = flow_pullback_taylor(field, psi, order)
    want = _full_truncation_taylor(field, psi, order)
    assert [_typed(p) for p in got] == [_typed(p) for p in want]
    for n in range(order + 1):
        assert _typed(bell_apply(field, psi, n)) == _typed(_bell_apply_reference(field, psi, n))
    if not field.exact:
        for route in (flow_pullback_taylor, bell_apply):
            with pytest.raises(ValueError, match=f"order {field.time_order() + 1} exceeds"):
                route(field, psi, field.time_order() + 1)


def test_analytic_suite_multiplication_budget(monkeypatch):
    # the full-truncation loop made 7,871 MultiPoly products in this suite,
    # the Picard loop with powers built once per iteration 2,788, and the
    # divided-power solve with each coefficient built once makes 707
    calls = []
    original = MultiPoly.__mul__

    def counted(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    ok, detail = verify.suite_analytic(None, 0)
    assert ok, detail
    assert len(calls) <= 742


def test_flow_builds_each_power_coefficient_once(monkeypatch):
    x = MultiPoly.var(1, 0)
    cube = x * x * x
    order = 4
    # F_1 .. F_4 all x^3 and psi = x^3: the solve needs the divided
    # coefficients 0..order of x^2 and x^3, and builds each once, coefficient
    # c as a binomial sum of c + 1 products
    field = VectorField(1, [cube], [[cube]] * order)
    calls = []
    original = MultiPoly.__mul__

    def counted(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    taylor = flow_pullback_taylor(field, cube, order)
    assert len(calls) <= 2 * sum(c + 1 for c in range(order + 1))
    monkeypatch.undo()
    assert taylor == _full_truncation_taylor(field, cube, order)
