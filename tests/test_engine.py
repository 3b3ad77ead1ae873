"""The bialgebra engine shared by ncbell.hopf and ncbell.mobius.

Both modules run on the same tensor product, coproduct and antipode
extensions and Character; only the data on one letter differ. The tests
pin the variant guards of each module's entry points (and of the Bell
and Bell-matrix entry points, which take the d-alphabet names "nc" and
"c" too) and the antipode side that the engine checks for all of them,
and check the engine's structural properties on random elements of all
four bialgebras: fdb, dfdb, and the d-alphabet "c" and "nc".
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncbell
from ncbell import hopf, mobius
from ncbell.algebra import INV, CPoly, NCPoly, QPoly, ring, to_json_dict
from ncbell.bell import bell, bell_partial, bell_recursion
from ncbell.quasidet import bell_matrix


def _p(variant: str):
    return hopf.ring(variant).letter(1)


HOPF_ENTRY_POINTS = {
    "rank_poly": lambda v: hopf.rank_poly(3, 1, v),
    "coproduct_gen": lambda v: hopf.coproduct_gen(2, v),
    "coproduct_gen_unit": lambda v: hopf.coproduct_gen(0, v),
    "coproduct_mono": lambda v: hopf.coproduct_mono((), v),
    "coproduct": lambda v: hopf.coproduct(_p(v), v),
    "coproduct_oracle": lambda v: hopf.coproduct_oracle(3, v),
    "antipode_recursive": lambda v: hopf.antipode_recursive(2, v),
    "antipode_poly": lambda v: hopf.antipode_poly(_p(v), v),
    "antipode_quasidet": lambda v: hopf.antipode_quasidet(2, v),
    "hopf_axiom_check": lambda v: hopf.hopf_axiom_check(2, v, n_products=0),
    "tensor_to_json": lambda v: hopf.tensor_to_json({}, v),
    "render_tensor": lambda v: hopf.render_tensor({}, v),
}

MOBIUS_ENTRY_POINTS = {
    "coproduct_m": lambda v: mobius.coproduct_m(2, v),
    "antipode_m": lambda v: mobius.antipode_m(2, v),
    "antipode_poly": lambda v: mobius.antipode_poly(_p(v), v),
    "mobius_char": lambda v: mobius.mobius_char(3, v),
    "convolve_m": lambda v: mobius.convolve_m(mobius.zeta(3), mobius.zeta(3), 2, v),
    "mobius_invert": lambda v: mobius.mobius_invert(2, v),
    "invert_round_trip": lambda v: mobius.invert_round_trip(2, v),
}

# the d-alphabet constructions outside the engine take "nc" and "c" too
BELL_ENTRY_POINTS = {
    "bell": lambda v: bell(2, v),
    "bell_recursion": lambda v: bell_recursion(2, v),
    "bell_partial": lambda v: bell_partial(2, 1, v),
    "bell_partial_zero": lambda v: bell_partial(1, 2, v),
    "bell_matrix": lambda v: bell_matrix(2, v),
}


@pytest.mark.parametrize(
    "call, variant",
    [pytest.param(f, v, id=f"hopf.{name}-{v}")
     for name, f in HOPF_ENTRY_POINTS.items() for v in ("nc", "c", "xyz")]
    + [pytest.param(f, v, id=f"mobius.{name}-{v}")
       for name, f in MOBIUS_ENTRY_POINTS.items() for v in ("dfdb", "fdb", "xyz")]
    + [pytest.param(f, v, id=f"bell.{name}-{v}")
       for name, f in BELL_ENTRY_POINTS.items() for v in ("dfdb", "fdb", "xyz")],
)
def test_entry_points_reject_the_other_modules_variants(call, variant):
    with pytest.raises(ValueError, match="unknown variant"):
        call(variant)


def test_entry_points_accept_their_own_variants():
    for f in HOPF_ENTRY_POINTS.values():
        for v in ("fdb", "dfdb"):
            f(v)
    for f in [*MOBIUS_ENTRY_POINTS.values(), *BELL_ENTRY_POINTS.values()]:
        for v in ("c", "nc"):
            f(v)


def test_engine_ring_serves_all_four_variants():
    assert [hopf.ring(v) for v in ("nc", "dfdb", "c", "fdb")] == [NCPoly, NCPoly, CPoly, CPoly]
    with pytest.raises(ValueError, match="unknown variant"):
        hopf.ring("xyz")


@pytest.mark.parametrize("cls", [NCPoly, CPoly])
def test_tag_names_the_ring(cls):
    assert ring(cls.tag) is cls and hopf.ring(cls.tag) is cls
    assert to_json_dict(cls.one())["algebra"] == cls.tag
    assert to_json_dict(cls.one(), "b-symbols")["algebra"] == "b-symbols"


def test_to_json_dict_refuses_a_ring_without_a_renderer():
    with pytest.raises(TypeError, match="cannot render QPoly"):
        to_json_dict(QPoly.one())


def test_engine_reads_its_tables_at_call_time(monkeypatch):
    # the Bell data are looked up by variant name on each call, so a table
    # rebound in ncbell.hopf (as a tracer does) is the one the engine uses
    calls = {"rank_poly": 0, "bell_partial": 0}

    def counting(name):
        original = getattr(hopf, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(hopf, name, counting(name))
    ncbell.clear_caches()
    mobius.antipode_m(3, "nc", "left")
    assert calls["bell_partial"] > 0 and calls["rank_poly"] == 0
    hopf.antipode_recursive(3, "dfdb", "left")
    assert calls["rank_poly"] > 0
    ncbell.clear_caches()


ENGINE_CALLS = {
    "shape": lambda v: hopf._shape(v),
    "bell_coproduct": lambda v: hopf.bell_coproduct(0, v),
    "bell_antipode": lambda v: hopf.bell_antipode(0, v, "bogus"),
    "coproduct_extend": lambda v: hopf.coproduct_extend({(): 1}, v),
    "antipode_extend": lambda v: hopf.antipode_extend(NCPoly.one(), v, "bogus"),
}


@pytest.mark.parametrize("name", sorted(ENGINE_CALLS))
def test_engine_refuses_an_unknown_variant_first(name):
    # one descriptor per variant: a name outside the four is refused before
    # the degree or the side is looked at, so each call here is wrong twice
    with pytest.raises(ValueError, match="unknown variant 'xyz'"):
        ENGINE_CALLS[name]("xyz")
    assert "xyz" not in {variant for _, variant, _ in hopf._ANTIPODE}


def test_shape_gives_ring_table_low_and_inverse():
    assert hopf._shape("dfdb") == (NCPoly, hopf.rank_poly, 0, 0)
    assert hopf._shape("fdb") == (CPoly, hopf.rank_poly, 0, 0)
    assert hopf._shape("nc") == (NCPoly, hopf.bell_partial, 1, INV)
    assert hopf._shape("c") == (CPoly, hopf.bell_partial, 1, INV)


def test_one_antipode_memo_serves_every_variant():
    ncbell.clear_caches()
    for variant in ("nc", "c"):
        for side in ("left", "right"):
            for n in (1, 2, 3):
                assert mobius.antipode_m(n, variant, side) is hopf.bell_antipode(n, variant, side)
    assert ncbell.cache_info()["hopf.antipode"] == 12
    assert hopf.antipode_recursive(2, "dfdb") is hopf.bell_antipode(2, "dfdb", "right")
    assert ncbell.cache_info()["hopf.antipode"] == 15  # X_0, X_1, X_2
    assert "mobius.antipode" not in ncbell.cache_info()
    ncbell.clear_caches()
    assert ncbell.cache_info()["hopf.antipode"] == 0
    assert not hopf._ANTIPODE


def test_faa_di_bruno_alphabets_refuse_the_inverse_letter():
    p = NCPoly.from_word((INV, 2))
    for extend in (hopf.coproduct, hopf.antipode_poly):
        with pytest.raises(ValueError, match="need n >= 0"):
            extend(p, "dfdb")


def _refuses_side(call, side) -> None:
    with pytest.raises(ValueError) as got:
        call(side)
    assert str(got.value) == f"unknown side {side!r}, expected 'left' or 'right'"


def _sides_in_memo() -> set:
    return {side for _, _, side in hopf._ANTIPODE}


@pytest.mark.parametrize("variant", ["fdb", "dfdb", "c", "nc"])
def test_engine_refuses_a_bad_side(variant):
    # the lowest generator (X_0 or d1) and the recursion above it, on a cold
    # and on a warm memo; the extension also for elements without letters
    cls = hopf.ring(variant)
    low = 0 if variant in ("fdb", "dfdb") else 1
    ncbell.clear_caches()
    for warm in (False, True):
        for n in (low, low + 1, 3):
            _refuses_side(lambda side: hopf.bell_antipode(n, variant, side), "bogus")
        for p in (cls.zero(), cls.one(), cls.letter(2)):
            _refuses_side(lambda side: hopf.antipode_extend(p, variant, side), "x")
        assert _sides_in_memo() == ({"left", "right"} if warm else set())
        for side in ("left", "right"):
            hopf.bell_antipode(3, variant, side)
    ncbell.clear_caches()


SIDE_ENTRY_POINTS = {
    "hopf.antipode_recursive": lambda s: hopf.antipode_recursive(2, "dfdb", s),
    "hopf.antipode_recursive_unit": lambda s: hopf.antipode_recursive(0, "fdb", s),
    "hopf.antipode_poly": lambda s: hopf.antipode_poly(NCPoly.letter(2), "dfdb", s),
    "hopf.antipode_poly_unit": lambda s: hopf.antipode_poly(CPoly.one(), "fdb", s),
    "mobius.antipode_m": lambda s: mobius.antipode_m(2, "nc", s),
    "mobius.antipode_m_d1": lambda s: mobius.antipode_m(1, "c", s),
    "mobius.antipode_poly": lambda s: mobius.antipode_poly(CPoly.letter(2), "c", s),
    "mobius.antipode_poly_unit": lambda s: mobius.antipode_poly(NCPoly.one(), "nc", s),
}


@pytest.mark.parametrize("side", ["bogus", "Right", ""])
@pytest.mark.parametrize("name", list(SIDE_ENTRY_POINTS))
def test_entry_points_refuse_a_bad_side(name, side):
    _refuses_side(SIDE_ENTRY_POINTS[name], side)
    assert _sides_in_memo() <= {"left", "right"}


# ---------------------------------------------------------------------------
# properties on random elements

# variant -> (its antipode on elements, the letters the elements are built from)
INSTANCES = {
    "fdb": (hopf.antipode_poly, (1, 2, 3)),
    "dfdb": (hopf.antipode_poly, (1, 2, 3)),
    "c": (mobius.antipode_poly, (INV, 1, 2, 3)),
    "nc": (mobius.antipode_poly, (INV, 1, 2, 3)),
}


def _element(draw, variant: str):
    """A random sum of up to three products of up to three letters."""
    cls = hopf.ring(variant)
    letters = INSTANCES[variant][1]
    out = cls.zero()
    for _ in range(draw(st.integers(1, 3))):
        term = cls.one() * draw(st.integers(-3, 3))
        for i in draw(st.lists(st.sampled_from(letters), max_size=3)):
            term = term * cls.from_key(cls.letter_key(i))
        out = out + term
    return out


@st.composite
def _pairs(draw, variant: str):
    return _element(draw, variant), _element(draw, variant)


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("variant", list(INSTANCES))
def test_antipode_is_an_anti_morphism(variant, side):
    antipode = INSTANCES[variant][0]

    @settings(max_examples=25, deadline=None)
    @given(_pairs(variant))
    def check(uv):
        u, v = uv
        su = antipode(u, variant, side)
        sv = antipode(v, variant, side)
        assert antipode(u * v, variant, side) == sv * su

    check()


@st.composite
def _word_and_character(draw):
    p = _element(draw, "nc")
    nonzero = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
    values = {i: draw(nonzero) for i in (1, 2, 3)}
    values[INV] = 1 / values[1]
    return p, hopf.Character(values)


@settings(max_examples=50, deadline=None)
@given(_word_and_character())
def test_character_ignores_letter_order(pc):
    p, phi = pc
    assert phi(p) == phi(p.abelianize())


def test_character_on_both_rings():
    phi = hopf.Character({1: 2, 2: Fraction(1, 3), INV: Fraction(1, 2)})
    assert phi(NCPoly.from_word((2, 1, 2, INV))) == Fraction(1, 9)
    assert phi(CPoly.from_mono(((1, -2), (2, 1)))) == Fraction(1, 12)
