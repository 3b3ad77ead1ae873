"""Hopf structure on Bell coefficients: coproducts, antipodes, characters.

The commutative variant satisfies every axiom through the tested range.
The free variant agrees with all printed tables and passes the antipode
cross-checks through degree 4, but its multiplicatively extended
coproduct stops being coassociative at degree 5; the tests record that
boundary explicitly.
"""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ncbell
from ncbell import hopf, verify
from ncbell.algebra import INV, CPoly, NCPoly, add_into, key_of, parse_text
from ncbell.hopf import (
    Character,
    antipode_quasidet,
    antipode_recursive,
    character_antipode,
    character_of_series,
    convolve,
    coproduct,
    coproduct_gen,
    coproduct_oracle,
    counit,
    hopf_axiom_check,
    pair,
    rank_poly,
    tensor_mul,
)
from ncbell.series import FormalSeries, compose, reversion


def _x(s: str, variant: str):
    return parse_text(s, symbol="X", commutative=(variant == "fdb"))


def _tensor(variant: str, *entries) -> dict:
    out = {}
    for c, left, right in entries:
        lp = _x(left, variant)
        rp = _x(right, variant)
        (lk,) = lp.terms
        (rk,) = rp.terms
        out[(lk, rk)] = out.get((lk, rk), Fraction(0)) + Fraction(c)
    return {k: v for k, v in out.items() if v}


def test_rank_poly_low():
    assert rank_poly(1, 0, "fdb") == _x("X1", "fdb")
    assert rank_poly(3, 1, "fdb") == _x("3*X1^2 + 4*X2", "fdb")
    assert rank_poly(3, 1, "dfdb") == _x("3*X1^2 + 4*X2", "dfdb")
    assert rank_poly(2, 2, "dfdb") == _x("1", "dfdb")


@pytest.mark.parametrize("variant", ["fdb", "dfdb"])
def test_coproduct_gen_refuses_negative_n(variant):
    with pytest.raises(ValueError, match="need n >= 0"):
        coproduct_gen(-1, variant)
    with pytest.raises(ValueError, match="need n >= 0"):
        antipode_recursive(-1, variant)
    with pytest.raises(ValueError, match="need n >= 0"):
        coproduct_oracle(-1, variant)
    assert coproduct_gen(0, variant) == {((), ()): 1} == coproduct_oracle(0, variant)


def test_coproduct_gen_three():
    expected = _tensor(
        "fdb",
        (1, "X3", "1"),
        (1, "1", "X3"),
        (4, "X2", "X1"),
        (6, "X1", "X2"),
        (3, "X1^2", "X1"),
    )
    assert coproduct_gen(3, "fdb") == expected


def test_coproduct_gen_four_split():
    free = coproduct_gen(4, "dfdb")
    x1x2 = _x("X1*X2", "dfdb")
    x2x1 = _x("X2*X1", "dfdb")
    x1 = _x("X1", "dfdb")
    (k12,) = x1x2.terms
    (k21,) = x2x1.terms
    (k1,) = x1.terms
    assert free[(k12, k1)] == 6
    assert free[(k21, k1)] == 4
    merged = coproduct_gen(4, "fdb")
    cx1x2 = _x("X1*X2", "fdb")
    (ck,) = cx1x2.terms
    (ck1,) = _x("X1", "fdb").terms
    assert merged[(ck, ck1)] == 10


def test_coproduct_matches_partition_oracle():
    for variant in ("fdb", "dfdb"):
        for n in range(1, 6):
            assert coproduct_gen(n, variant) == coproduct_oracle(n, variant)


def test_coproduct_oracle_keys_each_size_word_once(monkeypatch):
    # the walk tallies block-size words; each distinct word is keyed once, and
    # every composition of n + 1 is the word of some partition
    want = {variant: coproduct_gen(6, variant) for variant in ("fdb", "dfdb")}
    words = []
    original = hopf.key_of

    def counted(cls, word):
        words.append(tuple(word))
        return original(cls, word)

    monkeypatch.setattr(hopf, "key_of", counted)
    for variant, coproduct_6 in want.items():
        words.clear()
        assert coproduct_oracle(6, variant) == coproduct_6
        assert len(words) == len(set(words)) == 2**6


def test_antipode_tables():
    cases = {
        ("fdb", 1): "-X1",
        ("fdb", 2): "-X2 + 3*X1^2",
        ("fdb", 3): "-X3 + 10*X1*X2 - 15*X1^3",
        ("fdb", 4): "-X4 + 15*X1*X3 + 10*X2^2 - 105*X1^2*X2 + 105*X1^4",
        ("dfdb", 1): "-X1",
        ("dfdb", 2): "-X2 + 3*X1^2",
        ("dfdb", 3): "-X3 + 6*X1*X2 + 4*X2*X1 - 15*X1^3",
    }
    for (variant, n), text in cases.items():
        assert antipode_recursive(n, variant) == _x(text, variant)


def test_antipode_free_four():
    expected = _x(
        "-X4 + 5*X3*X1 + 10*X1*X3 + 10*X2^2"
        " - 26*X2*X1^2 - 34*X1*X2*X1 - 45*X1^2*X2 + 105*X1^4",
        "dfdb",
    )
    assert antipode_recursive(4, "dfdb") == expected


def test_antipode_routes_agree_where_defined():
    for n in range(1, 8):
        right = antipode_recursive(n, "fdb", "right")
        assert right == antipode_recursive(n, "fdb", "left")
        assert right == antipode_quasidet(n, "fdb")
    for n in range(1, 8):
        right = antipode_recursive(n, "dfdb", "right")
        assert right == antipode_quasidet(n, "dfdb")
    for n in range(1, 5):
        assert antipode_recursive(n, "dfdb", "left") == antipode_recursive(n, "dfdb", "right")


def test_free_left_recursion_diverges_at_five():
    # the free coproduct is not coassociative from degree 5 on, so the two
    # one-sided recursions solve different equations there
    left = antipode_recursive(5, "dfdb", "left")
    right = antipode_recursive(5, "dfdb", "right")
    assert left != right


def test_counit():
    assert counit(_x("1", "fdb")) == 1
    assert counit(_x("X1 + 3", "fdb")) == 3
    assert counit(_x("X2*X1", "dfdb")) == 0


def test_axioms_commutative():
    assert hopf_axiom_check(5, "fdb", seed=1, n_products=10) == []


def test_axioms_free_boundary():
    assert hopf_axiom_check(4, "dfdb", seed=1, n_products=10) == []
    failures = hopf_axiom_check(5, "dfdb", seed=1, n_products=0)
    assert any("coassoc" in f for f in failures)


def test_coproduct_is_multiplicative():
    u = _x("X1*X2", "dfdb")
    v = _x("X3 - 2*X1", "dfdb")
    table = hopf.LegTable("dfdb")
    assert coproduct(u * v, table) == tensor_mul(coproduct(u, table), coproduct(v, table), table)


def test_character_convolution_is_composition():
    # the character group models series with unit linear coefficient
    f = FormalSeries([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 6), Fraction(1, 24), Fraction(1, 5)], 8)
    g = FormalSeries([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 3), Fraction(0), Fraction(1)], 8)
    phi_f = character_of_series(f)
    phi_g = character_of_series(g)
    phi_h = character_of_series(compose(g, f, 8))
    conv = convolve(phi_f, phi_g)
    for n in range(1, 7):
        assert conv.on_letter(n) == phi_h.on_letter(n)


def test_character_antipode_is_reversion():
    g = FormalSeries([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1, 3), Fraction(2), Fraction(0), Fraction(1)], 8)
    phi = character_of_series(g)
    anti = character_antipode(phi, 5)
    rev = character_of_series(reversion(g, 8))
    for n in range(1, 6):
        assert anti.on_letter(n) == rev.on_letter(n)


_VALUES = st.one_of(st.integers(-9, 9), st.fractions(min_value=-5, max_value=5, max_denominator=12))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 8).flatmap(lambda m: st.tuples(
    st.lists(_VALUES, min_size=m, max_size=m), st.lists(_VALUES, min_size=m, max_size=m))))
def test_convolve_and_character_antipode_are_the_pairings(values):
    # the letter forms give what pair and Character.__call__ give on the
    # key tensors and antipodes themselves: the same values and types
    phi, psi = (Character(dict(enumerate(v, 1))) for v in values)
    m = len(values[0])
    conv = convolve(phi, psi)
    want = {n: pair(phi, psi, coproduct_gen(n, "fdb"), "fdb") for n in range(1, m + 1)}
    assert [(n, v, type(v)) for n, v in conv.values.items()] == \
        [(n, v, type(v)) for n, v in want.items()]
    anti = character_antipode(phi, m)
    want = {n: phi(antipode_recursive(n, "fdb")) for n in range(1, m + 1)}
    assert [(n, v, type(v)) for n, v in anti.values.items()] == \
        [(n, v, type(v)) for n, v in want.items()]


def test_letter_forms_are_built_once_and_immutable():
    ncbell.clear_caches()
    third = Character({1: Fraction(1, 3), 2: -2, 3: Fraction(5, 7)})
    assert convolve(third, third).values == convolve(third, third).values
    assert character_antipode(third, 3).values == character_antipode(third, 3).values
    info = ncbell.cache_info()
    assert info["hopf.coproduct_form"] == 3 and info["hopf.antipode_form"] == 3
    for memo in (hopf._COPRODUCT_FORM, hopf._ANTIPODE_FORM):
        assert all(type(form) is tuple and all(type(legs) is tuple for legs, _ in form)
                   for form in memo.values())
    ncbell.clear_caches()
    assert hopf._COPRODUCT_FORM == {} and hopf._ANTIPODE_FORM == {}


def test_characters_suite_builds_each_letter_form_once(monkeypatch):
    # 20 convolutions read X_1..X_8 and 20 antipode characters X_1..X_6;
    # each coproduct and antipode is read from the engine once
    gens, antipodes = [], []
    original_gen, original_anti = hopf.coproduct_gen, hopf.antipode_recursive

    def gen(n, variant="dfdb"):
        gens.append((n, variant))
        return original_gen(n, variant)

    def anti(n, variant="dfdb", side="right"):
        antipodes.append((n, variant, side))
        return original_anti(n, variant, side)

    monkeypatch.setattr(hopf, "coproduct_gen", gen)
    monkeypatch.setattr(hopf, "antipode_recursive", anti)
    ncbell.clear_caches()
    ok, detail = verify.suite_characters(None, 0)
    assert ok, detail
    assert gens == [(n, "fdb") for n in range(1, 9)]
    assert antipodes == [(n, "fdb", "right") for n in range(1, 7)]
    ncbell.clear_caches()


@pytest.mark.parametrize("max_n", [-1, -5])
def test_character_antipode_refuses_a_negative_range(max_n):
    with pytest.raises(ValueError, match=f"^max_n must be at least 0, got {max_n}$"):
        character_antipode(Character({1: 1}), max_n)


def test_character_antipode_on_an_empty_range():
    assert character_antipode(Character({1: 1}), 0).values == {}


@pytest.mark.parametrize("variant, other", [("fdb", NCPoly), ("dfdb", CPoly)])
def test_coproduct_mono_refuses_a_key_of_the_other_ring(variant, other):
    cls = hopf.ring(variant)
    for letters in ((2,), (1, 3), (2, 2)):
        key = key_of(other, letters)
        with pytest.raises(TypeError, match=f"^variant '{variant}' takes {cls.__name__} keys"):
            hopf.coproduct_mono(key, hopf.LegTable(variant))
    # its own keys still expand, the unit key of both rings included
    table = hopf.LegTable(variant)
    assert hopf.coproduct_mono((), table) == {(table.id(()), table.id(())): 1}
    got = hopf.coproduct_mono(cls.letter_key(2), table)
    assert {(table.keys[l], table.keys[r]): c for (l, r), c in got.items()} == coproduct_gen(2, variant)


@pytest.mark.parametrize("variant, other", [("fdb", "dfdb"), ("dfdb", "fdb")])
def test_pair_refuses_a_tensor_of_the_other_ring(variant, other):
    cls = hopf.ring(variant)
    ones = Character({1: 1, 2: 1, 3: 1})
    for n in (1, 2, 3):
        with pytest.raises(TypeError, match=f"^variant '{variant}' takes {cls.__name__} keys"):
            hopf.pair(ones, ones, coproduct_gen(n, other), variant)
    # a tensor of its own ring with a letter the character lacks is still
    # the ValueError of the evaluation
    with pytest.raises(ValueError, match="^character not defined on letter 4$"):
        hopf.pair(ones, ones, coproduct_gen(4, variant), variant)


def generating_series_rank_check(n: int, k: int) -> bool:
    """The generating-series encoding of the rank polynomials.

    The identity holds in the lowercase normalization x_j = X_j / (j+1)!:
    with w_{n,k} = ((k+1)!/(n+1)!) W_{n,k}(X_j -> (j+1)! x_j), the claim is
    w_{n,k} = [t^{n-k}] (1 + sum_{m>0} t^m x_m)^{k+1}. (The same statement
    with raw X variables and the t^n coefficient fails already at
    (n, k) = (3, 1).)
    """
    lowercase = {j: CPoly.letter(j, factorial(j + 1)) for j in range(1, n + 1)}
    scaled = (rank_poly(n, k, "fdb").substitute(lowercase)
              * Fraction(factorial(k + 1), factorial(n + 1)))
    order = n - k
    base = [CPoly.one() if m == 0 else CPoly.letter(m) for m in range(order + 1)]
    power = [CPoly.one()] + [CPoly.zero()] * order
    for _ in range(k + 1):
        nxt = [CPoly.zero()] * (order + 1)
        for a in range(order + 1):
            if not power[a]:
                continue
            for b in range(order + 1 - a):
                nxt[a + b] = nxt[a + b] + power[a] * base[b]
        power = nxt
    return power[order] == scaled


def test_generating_series_rank_identity():
    for n in range(0, 7):
        for k in range(0, n + 1):
            assert generating_series_rank_check(n, k)


def test_character_on_products():
    phi = Character({1: Fraction(2), 2: Fraction(-1)})
    p = _x("3*X1^2*X2 - X1", "fdb")
    assert phi(p) == 3 * 4 * -1 - 2


def _counted(monkeypatch, name: str, key) -> list:
    """Replace hopf.<name> by a wrapper that records key(first argument)."""
    calls = []
    original = getattr(hopf, name)

    def counted(arg, *rest):
        calls.append(key(arg))
        return original(arg, *rest)

    monkeypatch.setattr(hopf, name, counted)
    return calls


def _keyed(t: dict, table) -> dict:
    """A tensor of any order in the ids of a leg table, back in keys."""
    return {tuple(table.keys[i] for i in legs): c for legs, c in t.items()}


def _key_coproduct(p, variant: str) -> dict:
    """hopf.coproduct of p in a fresh leg table, back in keys."""
    table = hopf.LegTable(variant)
    return _keyed(coproduct(p, table), table)


def _coproduct_reference(p, variant: str, memo: dict) -> dict:
    """The coproduct of p as a key tensor, each monomial's a chain of plain
    double loops over the generator coproducts: no leg table. memo maps a
    monomial key to its coproduct."""
    total: dict = {}
    for key, c in p.terms.items():
        if key not in memo:
            t = {((), ()): 1}
            for i in type(p).key_letters(key):
                t = _tensor_mul_loop(t, hopf.bell_coproduct(i, variant), variant)
            memo[key] = t
        add_into(total, {legs: c * c2 for legs, c2 in memo[key].items()})
    return total


def _expand_reference(delta: dict, leg: int, variant: str, memo: dict) -> dict:
    """hopf._tensor_expand on a key tensor, every leg expanded by
    _coproduct_reference."""
    cls = hopf._cls(variant)
    out: dict = {}
    for (l, r), c in delta.items():
        mono = l if leg == 0 else r
        for (a, b), c2 in _coproduct_reference(cls.from_key(mono), variant, memo).items():
            add_into(out, {(a, b, r) if leg == 0 else (l, a, b): c * c2})
    return out


def test_tensor_expand_expands_each_leg_once(monkeypatch):
    for variant, text in (("dfdb", "X1*X2*X1 + X3"), ("fdb", "X1^2*X2 + X3")):
        delta = _key_coproduct(parse_text(text, commutative=variant == "fdb", symbol="X"),
                               variant)
        memo: dict = {}
        wants = [_expand_reference(delta, leg, variant, memo) for leg in (0, 1)]
        table = hopf.LegTable(variant)
        calls = _counted(monkeypatch, "coproduct_mono", lambda key: key)
        deltas: dict = {}
        got = [hopf._tensor_expand(table.intern(delta), leg, table, deltas)
               for leg in (0, 1)]
        monkeypatch.undo()
        assert [_keyed(t, table) for t in got] == wants
        # one memo serves both legs: a monomial met on either side is
        # expanded once in all, in the ids of the one table
        assert sorted(calls) == sorted({key for legs in delta for key in legs})
        assert ({table.keys[i]: _keyed(d, table) for i, d in deltas.items()}
                == {key: memo[key] for key in calls})


@pytest.mark.parametrize("variant", ["dfdb", "fdb"])
def test_axiom_check_computes_each_leg_once(variant, monkeypatch):
    want = hopf_axiom_check(5, variant)
    tables = []
    expanded = _counted(monkeypatch, "coproduct_mono", lambda key: key)
    original = hopf.coproduct_mono  # the counting wrapper

    def shared(key, table):
        tables.append(table)
        return original(key, table)

    monkeypatch.setattr(hopf, "coproduct_mono", shared)
    inverted = _counted(monkeypatch, "antipode_poly", lambda p: tuple(p.terms.items()))
    assert hopf_axiom_check(5, variant) == want
    monkeypatch.undo()
    for calls in (expanded, inverted):
        assert calls and len(calls) == len(set(calls))
    assert {terms[0][0] for terms in inverted} <= set(expanded)
    assert all(terms[0][1] == 1 for terms in inverted)
    # every leg expansion shares the battery's one leg table
    assert isinstance(tables[0], hopf.LegTable)
    assert all(t is tables[0] for t in tables)


def _check_element_reference(p, delta: dict, variant: str, memo: dict, antipodes: dict):
    """hopf._check_element on a key tensor, with every leg expanded by
    _coproduct_reference (memo maps monomial keys to their coproducts)
    and the counit and antipode sums built by ring operations, one ring
    element per tensor term."""
    cls = hopf._cls(variant)
    if (_expand_reference(delta, 0, variant, memo)
            != _expand_reference(delta, 1, variant, memo)):
        return "coassociativity"
    left_counit, right_counit = cls.zero(), cls.zero()
    for (l, r), c in delta.items():
        if l == ():
            left_counit = left_counit + cls.from_key(r) * c
        if r == ():
            right_counit = right_counit + cls.from_key(l) * c
    if left_counit != p or right_counit != p:
        return "counit"
    s_left, s_right = _ring_antipode_sums(delta, antipodes, variant)
    expect = cls.one() * counit(p)
    if s_left != expect or s_right != expect:
        return "antipode"
    return None


def _ring_antipode_sums(delta: dict, antipodes: dict, variant: str) -> tuple:
    cls = hopf._cls(variant)
    for leg in {k for legs in delta for k in legs} - antipodes.keys():
        antipodes[leg] = hopf.antipode_poly(cls.from_key(leg), variant)
    s_left, s_right = cls.zero(), cls.zero()
    for (l, r), c in delta.items():
        s_left = s_left + antipodes[l] * cls.from_key(r) * c
        s_right = s_right + cls.from_key(l) * antipodes[r] * c
    return s_left, s_right


@pytest.mark.parametrize("variant", ["fdb", "dfdb"])
def test_battery_sums_match_the_ring_sums(variant, monkeypatch):
    # every element the battery builds at degree <= 7, as given and with one
    # tensor term doubled or dropped, so that both verdicts can fail; its
    # coproduct, in the battery's leg ids, is the reference one
    original = hopf._check_element
    memo: dict = {}
    ring_antipodes: dict = {}  # leg key -> its antipode, for the ring sums
    seen = []

    def in_ids(table, p) -> dict:
        return {table.id(k): c for k, c in p.terms.items()}

    def compared(p, delta, table, deltas, antipodes):
        got = original(p, delta, table, deltas, antipodes)
        keyed = _keyed(delta, table)
        assert keyed == _coproduct_reference(p, variant, memo)
        assert got == _check_element_reference(p, keyed, variant, memo, ring_antipodes)
        s_left, s_right = _ring_antipode_sums(keyed, ring_antipodes, variant)
        # the reference antipodes in ids, apart from the battery's own memo,
        # so the sums are compared whatever the verdict
        ids_antipodes = {i: in_ids(table, ring_antipodes[table.keys[i]])
                         for legs in delta for i in legs}
        # the battery's antipodes, where it has filled them, agree leg by leg
        assert all(antipodes[i] == a for i, a in ids_antipodes.items() if i in antipodes)
        assert (hopf._antipode_sums(delta, ids_antipodes, table)
                == (in_ids(table, s_left), in_ids(table, s_right)))
        first = next(iter(delta))
        for bad in ({**delta, first: 2 * delta[first]},
                    {k: c for k, c in delta.items() if k != first}):
            keyed = _keyed(bad, table)
            assert (original(p, bad, table, deltas, antipodes)
                    == _check_element_reference(p, keyed, variant, memo, ring_antipodes))
            s_left, s_right = _ring_antipode_sums(keyed, ring_antipodes, variant)
            assert (hopf._antipode_sums(bad, ids_antipodes, table)
                    == (in_ids(table, s_left), in_ids(table, s_right)))
        seen.append(p)
        return got

    monkeypatch.setattr(hopf, "_check_element", compared)
    distinct = 0
    for degree in range(1, 8):
        hopf_axiom_check(degree, variant, n_products=50)
        distinct += len(set(_battery_draws(degree, variant, 0, 50)[0]))
    assert len(seen) == distinct


def _battery_draws(max_degree: int, variant: str, seed: int, n_products: int) -> tuple:
    """The pool of hopf_axiom_check (generators, then random products) and
    its random (u, v) pairs, drawn from the same seeded stream."""
    rng = random.Random(seed)
    cls = hopf._cls(variant)
    products = []
    for _ in range(n_products):
        deg, word = 0, []
        while True:
            i = rng.randint(1, max(1, max_degree - deg))
            if deg + i > max_degree or (word and rng.random() < 0.4):
                break
            word.append(i)
            deg += i
        products.append(cls.from_key(key_of(cls, word)))
    pool = [cls.letter(i) for i in range(1, max_degree + 1)] + products
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(n_products)]
    return pool, pairs


def _battery_per_occurrence(max_degree: int, variant: str, seed: int, n_products: int) -> list:
    """hopf_axiom_check as a loop over key tensors that checks every pool
    occurrence and every drawn pair afresh, with coproducts and products
    built by plain double loops, never in a leg table."""
    pool, pairs = _battery_draws(max_degree, variant, seed, n_products)
    failures = []
    memo: dict = {}
    antipodes: dict = {}
    for p in pool:
        bad = _check_element_reference(p, _coproduct_reference(p, variant, memo), variant,
                                       memo, antipodes)
        if bad is not None:
            failures.append(f"{bad} fails on {p!r}")
    for u, v in pairs:
        if _coproduct_reference(u * v, variant, memo) != _tensor_mul_loop(
                _coproduct_reference(u, variant, memo), _coproduct_reference(v, variant, memo),
                variant):
            failures.append(f"coproduct not multiplicative on {u!r}, {v!r}")
    return failures


@pytest.mark.parametrize("variant", ["fdb", "dfdb"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_battery_matches_the_key_dict_reference(variant, seed):
    for degree in range(1, 7):
        assert (hopf_axiom_check(degree, variant, seed=seed)
                == _battery_per_occurrence(degree, variant, seed, 20))


def _count_battery_calls(monkeypatch) -> dict:
    """Wrap hopf._check_element, coproduct and tensor_mul so that each
    records the arguments of the calls the battery makes itself; calls
    made inside another wrapped call (coproduct's own tensor_mul) are not
    recorded."""
    calls: dict = {}
    depth = [0]

    def wrap(name):
        original = getattr(hopf, name)
        seen = calls[name] = []

        def wrapper(*args):
            if not depth[0]:
                seen.append(args)
            depth[0] += 1
            try:
                return original(*args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(hopf, name, wrapper)

    for name in ("_check_element", "coproduct", "tensor_mul"):
        wrap(name)
    return calls


def test_battery_checks_each_distinct_element_and_pair_once(monkeypatch):
    occurrences = checks = 0
    for variant in ("fdb", "dfdb"):
        want = _battery_per_occurrence(7, variant, 0, 50)
        pool, pairs = _battery_draws(7, variant, 0, 50)
        calls = _count_battery_calls(monkeypatch)
        got = hopf_axiom_check(7, variant, n_products=50)
        monkeypatch.undo()
        assert got == want
        elements = list(dict.fromkeys(pool))
        distinct_pairs = list(dict.fromkeys(pairs))
        # one leg table for every call
        table = calls["tensor_mul"][0][2]
        for name, place in (("_check_element", 2), ("coproduct", 1), ("tensor_mul", 2)):
            assert all(args[place] is table for args in calls[name])
        assert [args[0] for args in calls["_check_element"]] == elements
        assert ([args[0] for args in calls["coproduct"]]
                == elements + [u * v for u, v in distinct_pairs])
        assert ([(_keyed(t1, table), _keyed(t2, table)) for t1, t2, _ in calls["tensor_mul"]]
                == [(_key_coproduct(u, variant), _key_coproduct(v, variant))
                    for u, v in distinct_pairs])
        occurrences += len(pool)
        checks += len(elements)
    # the verify suite's battery at its default degree and seed; dfdb keeps
    # one failure line per failing occurrence, repeats included
    assert (occurrences, checks) == (114, 41)
    assert (len(got), len(set(got))) == (32, 11)


@pytest.mark.parametrize("max_degree", [0, -1])
def test_battery_refuses_a_degree_below_one(max_degree):
    with pytest.raises(ValueError, match="max degree must be at least 1"):
        hopf_axiom_check(max_degree, "fdb")


@pytest.mark.parametrize("max_degree, variant, n_products", [(3, "fdb", -5), (6, "dfdb", -1)])
def test_battery_refuses_a_negative_product_count(max_degree, variant, n_products):
    with pytest.raises(ValueError, match=f"product count must be at least 0, got {n_products}"):
        hopf_axiom_check(max_degree, variant, n_products=n_products)
    # no products is allowed: the generators alone are checked
    assert (hopf_axiom_check(max_degree, variant, n_products=0)
            == _battery_per_occurrence(max_degree, variant, 0, 0))


@pytest.mark.parametrize("variant, budget", [("fdb", 2_084), ("dfdb", 6_608)])
def test_battery_key_product_budget(variant, budget, monkeypatch):
    # verify's battery (degree 7, 50 products, seed 0) with warm module
    # memos: a fresh key-product table per tensor_mul made 34,839 (fdb) and
    # 68,561 (dfdb) key products; one key-product table per battery for
    # all but the leg expansions made 4,753 and 10,301; one leg table for
    # every tensor product, the leg expansions included, made 3,908 and
    # 8,157; reading the antipode sums from its rows too makes 1,985 and
    # 6,294, and the budget allows 5 % more
    want = hopf_axiom_check(7, variant, n_products=50)
    cls = hopf.ring(variant)
    original = cls.key_mul
    calls = []

    def counted(u, v):
        calls.append(1)
        return original(u, v)

    monkeypatch.setattr(cls, "key_mul", staticmethod(counted))
    assert hopf_axiom_check(7, variant, n_products=50) == want
    assert len(calls) <= budget


def test_each_generator_coproduct_is_built_once_per_call(monkeypatch):
    # one coproduct_extend call, and one battery call, build each generator
    # coproduct at most once, however often its letter recurs
    calls = _counted(monkeypatch, "bell_coproduct", lambda n: n)
    for variant in ("fdb", "dfdb", "c", "nc"):
        cls = hopf.ring(variant)
        q = cls.letter(1) + cls.letter(2) + cls.letter(3)
        calls.clear()
        hopf.coproduct_extend((q * q * q).terms, hopf.LegTable(variant))
        assert sorted(calls) == [1, 2, 3]
    for variant in ("fdb", "dfdb"):
        calls.clear()
        hopf_axiom_check(7, variant, n_products=50)
        assert sorted(calls) == list(range(1, 8))


# fdb monomials of degree <= 6, the unit included
_FDB_WORDS = st.lists(st.integers(1, 6), max_size=6).map(
    lambda word: [i for n, i in enumerate(word) if sum(word[:n + 1]) <= 6])


@settings(max_examples=60, deadline=None)
@given(_FDB_WORDS)
def test_antipode_sums_are_the_counit(word):
    # m(S (x) id) Delta p = m(id (x) S) Delta p = eps(p) 1, built from ring
    # products of antipode_poly and the legs, not through _antipode_sums
    p = CPoly.from_key(key_of(CPoly, word))
    left = right = CPoly.zero()
    for (l, r), c in _key_coproduct(p, "fdb").items():
        left = left + hopf.antipode_poly(CPoly.from_key(l), "fdb") * CPoly.from_key(r) * c
        right = right + CPoly.from_key(l) * hopf.antipode_poly(CPoly.from_key(r), "fdb") * c
    expect = CPoly.one() * counit(p)
    assert left == expect
    assert right == expect


def test_battery_names_a_wrong_antipode(monkeypatch):
    # positive control: S(X_3) off by X_3 must show as an antipode failure
    original = hopf.antipode_poly
    x3 = CPoly.letter(3)

    def wrong(p, variant="dfdb", side="right"):
        out = original(p, variant, side)
        return out + x3 if p == x3 else out

    assert hopf_axiom_check(5, "fdb") == []
    monkeypatch.setattr(hopf, "antipode_poly", wrong)
    failures = hopf_axiom_check(5, "fdb")
    assert "antipode fails on CPoly('d3')" in failures
    assert all(f.startswith("antipode fails on ") for f in failures)


def test_battery_names_a_wrong_coproduct_leg(monkeypatch):
    # positive control: a stray X_2 (x) X_2 in the coproduct of the leg X_2
    # breaks (Delta (x) id) Delta = (id (x) Delta) Delta
    original = hopf.coproduct_mono
    x2 = CPoly.letter_key(2)

    def wrong(key, table):
        out = original(key, table)
        if key == x2:
            i = table.id(x2)
            out = {**out, (i, i): out.get((i, i), 0) + 1}
        return out

    monkeypatch.setattr(hopf, "coproduct_mono", wrong)
    failures = hopf_axiom_check(5, "fdb")
    assert "coassociativity fails on CPoly('d2')" in failures
    assert all(f.startswith("coassociativity fails on ") for f in failures)


def _tensor_mul_loop(t1: dict, t2: dict, variant: str) -> dict:
    """tensor_mul as the plain double loop over term pairs."""
    key_mul = hopf.ring(variant).key_mul
    out: dict = {}
    for (l1, r1), c1 in t1.items():
        for (l2, r2), c2 in t2.items():
            key = (key_mul(l1, l2), key_mul(r1, r2))
            s = out.get(key, 0) + c1 * c2
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


_LETTERS = st.lists(st.sampled_from((INV, 1, 1, 2, 3)), max_size=3)
_COEFFS = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3))
_TERMS = st.lists(st.tuples(_LETTERS, _LETTERS, _COEFFS), max_size=6)


def _random_tensor(terms, variant: str) -> dict:
    cls = hopf.ring(variant)
    out: dict = {}
    for left, right, c in terms:
        add_into(out, {(key_of(cls, left), key_of(cls, right)): c})
    return out


@settings(max_examples=150, deadline=None)
@given(_TERMS, _TERMS, st.sampled_from(("nc", "c")))
# d1 * d1^{-1} d2 and 1 * d2 meet on both legs and cancel; so do the
# Fraction d1 * d1^{-1} and the int 1 * 1
@example([([1], [1], 1), ([], [], -1)], [([INV, 2], [INV, 2], 1), ([2], [2], 1)], "nc")
@example([([1], [], Fraction(1, 2)), ([], [], 1)], [([INV], [], 2), ([], [], -1)], "c")
def test_tensor_mul_matches_the_double_loop(terms1, terms2, variant):
    t1, t2 = _random_tensor(terms1, variant), _random_tensor(terms2, variant)
    want = _tensor_mul_loop(t1, t2, variant)
    table = hopf.LegTable(variant)
    got = _keyed(tensor_mul(table.intern(t1), table.intern(t2), table), table)
    assert got == want
    assert {k: type(c) for k, c in got.items()} == {k: type(c) for k, c in want.items()}


_X_TERMS = st.lists(st.tuples(*[st.lists(st.sampled_from((1, 1, 2, 3)), max_size=3)] * 2,
                              _COEFFS), max_size=6)
# a variant with the terms of a few tensors: the d-alphabet ones with the
# inverse letter d1^{-1}, the X-alphabet ones without
_CHAINS = st.one_of(
    st.tuples(st.sampled_from(("nc", "c")), st.lists(_TERMS, min_size=4, max_size=6)),
    st.tuples(st.sampled_from(("fdb", "dfdb")), st.lists(_X_TERMS, min_size=4, max_size=6)))


@settings(max_examples=150, deadline=None)
@given(_CHAINS)
# the cancelling d1^{-1} seams of the examples above, after a product that
# already put d1 * d1^{-1} and d1 * d1^{-1} d2 in the table
@example(("nc", [[([1], [1], 1)], [([INV], [INV, 2], 1)],
                 [([1], [1], 1), ([], [], -1)], [([INV, 2], [INV, 2], 1), ([2], [2], 1)]]))
@example(("c", [[([1], [], 1)], [([INV], [], 2)],
                [([1], [], Fraction(1, 2)), ([], [], 1)], [([INV], [], 2), ([], [], -1)]]))
# (X1 + X2)(X2 - X1) (x) 1: the X1 X2 terms cancel in fdb, after a product
# that already put X1 * X2 in the table
@example(("fdb", [[([1], [], 1)], [([2], [], 1)],
                  [([1], [], 1), ([2], [], 1)], [([2], [], 1), ([1], [], -1)]]))
# X1X2 (x) 1 gets 1/2 from X1 * X2, cancels with -1/2 from 1 * X1X2, and
# comes back as the int 1 from X1X2 * 1, all within one product: the
# cancelled Fraction must not linger and make the int a Fraction
@example(("dfdb", [[([1], [], 1)], [([2], [], 1)],
                   [([1], [], Fraction(1, 2)), ([], [], Fraction(-1, 2)), ([1, 2], [], 1)],
                   [([2], [], 1), ([1, 2], [], 1), ([], [], 1)]]))
@example(("fdb", [[([2], [1], 1)], [([1], [1], 1)],
                  [([1], [1], Fraction(1, 2)), ([], [], Fraction(-1, 2)), ([1, 2], [1], 1)],
                  [([2], [], 1), ([1, 2], [1], 1), ([], [], 1)]]))
def test_tensor_mul_chain_shares_one_table(chain):
    variant, terms = chain
    first, second, *tensors = [_random_tensor(t, variant) for t in terms]
    table = hopf.LegTable(variant)
    # an earlier product fills the table
    tensor_mul(table.intern(first), table.intern(second), table)
    got, want = table.intern(tensors[0]), tensors[0]
    for t in tensors[1:]:
        got = tensor_mul(got, table.intern(t), table)
        want = _tensor_mul_loop(want, t, variant)
        keyed = _keyed(got, table)
        assert keyed == want
        # the same term order as the double loop, and the same coefficient types
        assert list(keyed) == list(want)
        assert {k: type(c) for k, c in keyed.items()} == {k: type(c) for k, c in want.items()}
    key_mul, keys = hopf.ring(variant).key_mul, table.keys
    assert all(table.ids[key] == i for i, key in enumerate(keys))
    assert all(keys[w] == key_mul(keys[u], keys[v])
               for u, row in enumerate(table.rows) for v, w in row.items())
