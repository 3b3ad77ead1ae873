"""Seeded faults in the Hopf layer, and what `ncbell verify` shows of them.

Each fault is planted with monkeypatch; all 14 suites then run at their
default degrees, on cold caches, and the report is compared with a clean
run. The test pins, for each fault, that no verdict flips and which
suites' detail text changes. Every fault here lands only in suites that
already fail by design (antipode-cross and hopf-axioms, through the free
variant), so a reader of PASS and FAIL sees none of them: only the detail
line changes. A check that reports the failing terms themselves, rather
than the first failing element, would turn these into visible findings.
"""

import pytest

import ncbell
from ncbell import hopf
from ncbell.algebra import key_of
from ncbell.verify import run_suites


def _report() -> list:
    # a bad antipode poisons hopf._ANTIPODE, so every run starts cold
    ncbell.clear_caches()
    return run_suites("all")


@pytest.fixture(scope="module")
def clean():
    return _report()


@pytest.fixture(autouse=True)
def _clear_after():
    yield
    ncbell.clear_caches()


def _opposite_leg_products(monkeypatch):
    """Every leg table fills its rows with v·u for u·v: LegTable.fill and
    LegTable.product both multiply through the table's key_mul."""
    init = hopf.LegTable.__init__

    def swapped(self, variant):
        init(self, variant)
        key_mul = self.key_mul
        self.key_mul = lambda u, v: key_mul(v, u)

    monkeypatch.setattr(hopf.LegTable, "__init__", swapped)


def _antipode_as_morphism(monkeypatch):
    """antipode_extend multiplies the antipodes of a word's letters in the
    word's order, as a morphism: the anti-morphism of the reversed word."""
    extend = hopf.antipode_extend

    def morphism(p, variant, side):
        cls = type(p)
        flipped = {key_of(cls, cls.key_letters(k)[::-1]): c for k, c in p.terms.items()}
        return extend(cls._new(flipped), variant, side)

    monkeypatch.setattr(hopf, "antipode_extend", morphism)


def _x5_leg_drops_a_term(monkeypatch):
    """The battery's coproduct of the leg X_5 loses its last term."""
    mono = hopf.coproduct_mono

    def dropped(key, table):
        out = mono(key, table)
        if key == hopf.ring(table.variant).letter_key(5):
            out = dict(list(out.items())[:-1])
        return out

    monkeypatch.setattr(hopf, "coproduct_mono", dropped)


# fault -> the suites whose detail text changes; no verdict flips
FAULTS = {
    "leg-table-opposite-products": (_opposite_leg_products, {"hopf-axioms"}),
    "antipode-as-morphism": (_antipode_as_morphism, {"antipode-cross", "hopf-axioms"}),
    "x5-leg-drops-a-term": (_x5_leg_drops_a_term, {"hopf-axioms"}),
}


def test_clean_verdicts(clean):
    assert "".join("P" if ok else "F" for _, ok, _ in clean) == "PPPPPPPFPFPFPP"


@pytest.mark.parametrize("name", list(FAULTS))
def test_fault_changes_only_the_detail_of(name, clean, monkeypatch):
    plant, changed = FAULTS[name]
    plant(monkeypatch)
    faulted = _report()
    assert [suite for suite, _, _ in faulted] == [suite for suite, _, _ in clean]
    assert [ok for _, ok, _ in faulted] == [ok for _, ok, _ in clean]
    assert {suite for (suite, _, detail), (_, _, want) in zip(faulted, clean)
            if detail != want} == changed
