"""Acceptance gate: one verification suite per shipped claim.

Each test runs one suite from ncbell.verify at full depth and prints its
pass/fail line, so `pytest -v -s tests/test_acceptance.py` reads as a
checklist. All comparisons inside the suites are exact rational
arithmetic.

Three checks fail by construction of the objects themselves, not by
implementation choice: the free-variant coproducts (both the generator
Hopf algebra and the d-alphabet bialgebra) stop being coassociative at
degree 5 and 4 respectively, which breaks the left/right antipode
agreement, the antipode axiom on deep products, and the noncommutative
inversion round trip. The commutative halves of those suites, and every
printed golden value, do pass; see the suite details for the exact
boundary.
"""

import pytest

from ncbell.verify import SUITES, format_report, run_suites

_RESULTS = {}


def _result(suite: str) -> tuple:
    if suite not in _RESULTS:
        _RESULTS[suite] = run_suites(suite)[0]
    return _RESULTS[suite]


def _criterion(number: int, suite: str) -> None:
    name, ok, detail = _result(suite)
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} [{name}] {status}: {detail}")
    assert ok, f"criterion {number} [{name}] failed: {detail}"


def test_criterion_01_golden_bell_tables():
    _criterion(1, "bell-tables")


def test_criterion_02_term_count_law():
    _criterion(2, "term-count")


def test_criterion_03_four_construction_agreement():
    _criterion(3, "constructions")


def test_criterion_04_coefficient_partition_oracle():
    _criterion(4, "partition-oracle")


def test_criterion_05_stirling_evaluation():
    _criterion(5, "stirling")


def test_criterion_06_quasideterminant_goldens():
    _criterion(6, "quasidet")


def test_criterion_07_hopf_goldens():
    _criterion(7, "hopf-tables")


def test_criterion_08_antipode_cross_algorithm():
    _criterion(8, "antipode-cross")


def test_criterion_09_coproduct_oracle():
    _criterion(9, "coproduct-oracle")


def test_criterion_10_hopf_axioms():
    _criterion(10, "hopf-axioms")


def test_criterion_11_character_composition():
    _criterion(11, "characters")


def test_criterion_12_mobius_inversion():
    _criterion(12, "mobius")


def test_criterion_13_q_statistics():
    _criterion(13, "q-statistics")


def test_criterion_14_analytic_layer():
    _criterion(14, "analytic")


# `ncbell verify` at its default degrees, every detail as printed
REPORT = """\
bell-tables       PASS  B_0..B_5 (16 terms at n=5), B_{3,2}, Q_2, Q_3 all match
term-count        PASS  term counts 2^(n-1) for n <= 12
constructions     PASS  five noncommutative and four extra commutative routes agree, n <= 8
partition-oracle  PASS  coefficients = partition counts = binomial products, n <= 9
stirling          PASS  Stirling and Bell specializations match, n <= 9
quasidet          PASS  P(3), P(4), Bell cases, and 100 numeric ratio checks match
hopf-tables       PASS  all coproduct and antipode tables for n <= 4 match
antipode-cross    FAIL  left != right at X_5 (dfdb); left != right at X_6 (dfdb); left != right at X_7 (dfdb)
coproduct-oracle  PASS  partition oracle matches for n <= 6, both variants
hopf-axioms       FAIL  dfdb: coassociativity fails on NCPoly('d5'); dfdb: coassociativity fails on NCPoly('d6'); dfdb: coassociativity fails on NCPoly('d7') (+29 more)
characters        PASS  20 composition pairs (n <= 8) and 20 reversions (n <= 6) match
mobius            FAIL  round trip fails at d_4 (nc); round trip fails at d_5 (nc); round trip fails at d_6 (nc)
q-statistics      PASS  weights, q-products (totals <= 8), and q = 1 limits match
analytic          PASS  50 compositions, 20 flow pullbacks, and the EGF identity match
"""


def test_default_report_text():
    assert format_report([_result(suite) for suite in SUITES]) + "\n" == REPORT


# the three set-partition suites at `ncbell verify --max-degree 9`
DEEP_PARTITION_REPORT = """\
partition-oracle  PASS  coefficients = partition counts = binomial products, n <= 9
coproduct-oracle  PASS  partition oracle matches for n <= 9, both variants
q-statistics      PASS  weights, q-products (totals <= 9), and q = 1 limits match
"""


def test_partition_suites_report_at_degree_9():
    results = run_suites(["partition-oracle", "coproduct-oracle", "q-statistics"], 9)
    assert format_report(results) + "\n" == DEEP_PARTITION_REPORT


# the three suites that list their failures, at `ncbell verify --max-degree 9`
DEEP_FAILURE_REPORT = """\
antipode-cross  FAIL  left != right at X_5 (dfdb); left != right at X_6 (dfdb); left != right at X_7 (dfdb); left != right at X_8 (dfdb); left != right at X_9 (dfdb)
hopf-axioms     FAIL  dfdb: coassociativity fails on NCPoly('d5'); dfdb: coassociativity fails on NCPoly('d6'); dfdb: coassociativity fails on NCPoly('d7') (+32 more)
mobius          FAIL  round trip fails at d_4 (nc); round trip fails at d_5 (nc); round trip fails at d_6 (nc); round trip fails at d_7 (nc) (+2 more)
"""


def test_failure_lists_report_at_degree_9():
    results = run_suites(["antipode-cross", "hopf-axioms", "mobius"], 9)
    assert format_report(results) + "\n" == DEEP_FAILURE_REPORT
