"""Named verification suites cross-checking every construction in the package.

Each suite is a function (max_degree, seed) -> (ok, detail). The degree
argument overrides the suite's default range; the seed feeds every
randomized property check, so a report is reproducible bit for bit. The
suites double as the acceptance gate: run_suites("all") exercises the
reference tables, the cross-construction identities, the randomized
property checks, the known closed forms, and the defining identity of
Mobius inversion, mu * zeta = zeta * mu = epsilon on the d-alphabet
generators, and format_report turns the results into the pass/fail table
printed by the command line interface. A max_degree below 1 is refused.

Three suites fail by design of the objects themselves, not of the code:
the free-algebra coproducts (both the rank-polynomial one and the
d-alphabet one) stop being coassociative once interleaved blocks of
different sizes appear, which breaks coassociativity in the axiom
battery, the left/right antipode agreement and the Mobius round trip in
the noncommutative variants. The boundaries are pinned exactly in
tests/test_hopf.py and tests/test_mobius.py.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .bell import (
    bell,
    bell_c_explicit,
    bell_explicit,
    bell_partial,
    bell_recursion,
    bell_scaled,
    compositions,
    qbell,
)
from . import hopf, mobius, partitions, quasidet, trees
from .series import (
    bell_apply,
    compose,
    compose_via_bell,
    egf_bell_check,
    flow_pullback_taylor,
    reversion,
)
from .algebra import CPoly, NCPoly, key_of, parse_text
from .series import FormalSeries, MultiPoly, VectorField

# ---------------------------------------------------------------------------
# reference tables (known closed forms, frozen as rendered text)

BELL_TABLE = {
    0: "1",
    1: "d1",
    2: "d1^2 + d2",
    3: "d1^3 + d2*d1 + 2*d1*d2 + d3",
    4: "d1^4 + 3*d1^2*d2 + 3*d2^2 + d3*d1 + d2*d1^2 + 2*d1*d2*d1 + 3*d1*d3 + d4",
    5: "d1^5 + 6*d1^2*d3 + 6*d2*d3 + 4*d3*d2 + 4*d1^3*d2 + 4*d2*d1*d2 + 8*d1*d2^2"
       " + d4*d1 + 3*d1^2*d2*d1 + 3*d2^2*d1 + d3*d1^2 + d2*d1^3 + 2*d1*d2*d1^2"
       " + 3*d1*d3*d1 + 4*d1*d4 + d5",
}

PARTIAL_32 = "d2*d1 + 2*d1*d2"

SCALED_TABLE = {
    2: "1/2*d1^2 + d2",
    3: "1/6*d1^3 + 1/3*d2*d1 + 2/3*d1*d2 + d3",
}

P3 = "a13 + a11*a23 + a12*a33 + a11*a22*a33"
P4 = ("a14 + a11*a24 + a12*a34 + a13*a44 + a11*a22*a34 + a11*a23*a44"
     " + a12*a33*a44 + a11*a22*a33*a44")

# coproduct tables: (coeff, left letters, right letters), X_0 legs empty
COPRODUCT_TABLE = {
    ("fdb", 1): [(1, (1,), ()), (1, (), (1,))],
    ("fdb", 2): [(1, (2,), ()), (1, (), (2,)), (3, (1,), (1,))],
    ("fdb", 3): [(1, (3,), ()), (1, (), (3,)), (3, (1, 1), (1,)),
                 (4, (2,), (1,)), (6, (1,), (2,))],
    ("fdb", 4): [(1, (4,), ()), (1, (), (4,)), (10, (1, 2), (1,)),
                 (5, (3,), (1,)), (10, (2,), (2,)), (15, (1, 1), (2,)),
                 (10, (1,), (3,))],
    ("dfdb", 4): [(1, (4,), ()), (1, (), (4,)), (6, (1, 2), (1,)),
                  (4, (2, 1), (1,)), (5, (3,), (1,)), (10, (2,), (2,)),
                  (15, (1, 1), (2,)), (10, (1,), (3,))],
}
COPRODUCT_TABLE[("dfdb", 1)] = COPRODUCT_TABLE[("fdb", 1)]
COPRODUCT_TABLE[("dfdb", 2)] = COPRODUCT_TABLE[("fdb", 2)]
COPRODUCT_TABLE[("dfdb", 3)] = COPRODUCT_TABLE[("fdb", 3)]

ANTIPODE_TABLE = {
    ("fdb", 1): "-X1",
    ("fdb", 2): "-X2 + 3*X1^2",
    ("fdb", 3): "-X3 + 10*X1*X2 - 15*X1^3",
    ("fdb", 4): "-X4 + 15*X1*X3 + 10*X2^2 - 105*X1^2*X2 + 105*X1^4",
    ("dfdb", 1): "-X1",
    ("dfdb", 2): "-X2 + 3*X1^2",
    ("dfdb", 3): "-X3 + 6*X1*X2 + 4*X2*X1 - 15*X1^3",
    ("dfdb", 4): "-X4 + 10*X1*X3 + 5*X3*X1 + 10*X2^2 - 45*X1^2*X2"
                 " - 34*X1*X2*X1 - 26*X2*X1^2 + 105*X1^4",
}

MOBIUS_ANTIPODE_TABLE = {
    ("c", 2): "-d1^-3*d2",
    ("c", 3): "-d1^-4*d3 + 3*d1^-5*d2^2",
    ("c", 4): "-d1^-5*d4 + 10*d1^-6*d2*d3 - 15*d1^-7*d2^3",
    ("nc", 2): "-d1^-2*d2*d1^-1",
    ("nc", 3): "-d1^-3*d3*d1^-1 + 2*d1^-2*d2*d1^-2*d2*d1^-1"
               " + d1^-3*d2*d1^-1*d2*d1^-1",
}

MOBIUS_INVERT_TABLE = {
    ("c", 2): "d2 - d1^2",
    ("c", 3): "d3 - 3*d1*d2 + 2*d1^3",
    ("nc", 2): "d2 - d1^2",
    ("nc", 3): "d3 - 2*d1*d2 - d2*d1 + 2*d1^3",
}

WEIGHT_EXAMPLE = (
    (1, 2, 7), (3, 6), (4, 5), (8, 9, 13, 14), (10, 12), (11,),
)
WEIGHT_EXAMPLE_VALUE = 9


def _parse(text: str, variant: str = "nc", symbol: str = "d"):
    """A reference value: rendered text read back in the ring of variant."""
    return parse_text(text, symbol=symbol, commutative=hopf.ring(variant) is CPoly)


def _x_tensor(entries, variant: str) -> dict:
    """Build a tensor from (coeff, left letters, right letters) rows."""
    cls = hopf.ring(variant)
    out: dict = {}
    for coeff, left, right in entries:
        key = (key_of(cls, left), key_of(cls, right))
        out[key] = out.get(key, 0) + coeff
    return out


# ---------------------------------------------------------------------------
# suites


def _verdict(failures: list, passed: str, shown: int | None = None) -> tuple:
    """(ok, detail) of a suite that collects its failures: the first `shown`
    of them (all by default) joined by "; ", with a count of the rest, or
    the passing text when there are none."""
    if not failures:
        return True, passed
    head = failures[:shown]
    more = f" (+{len(failures) - len(head)} more)" if len(failures) > len(head) else ""
    return False, "; ".join(head) + more


def suite_bell_tables(max_degree=None, seed=0):
    """Reference Bell tables: B_0..B_5, B_{3,2}, Q_2, Q_3."""
    for n, text in BELL_TABLE.items():
        if bell(n, "nc") != _parse(text):
            return False, f"B_{n} differs from the reference table"
    if len(bell(5, "nc").terms) != 16:
        return False, "B_5 does not have 16 terms"
    if bell_partial(3, 2, "nc") != _parse(PARTIAL_32):
        return False, "B_{3,2} differs from the reference value"
    for n, text in SCALED_TABLE.items():
        if bell_scaled(n) != _parse(text):
            return False, f"Q_{n} differs from the reference value"
    return True, "B_0..B_5 (16 terms at n=5), B_{3,2}, Q_2, Q_3 all match"


def suite_term_count(max_degree=None, seed=0):
    """bell(n) has exactly 2^(n-1) words for n = 1..12."""
    top = max_degree or 12
    for n in range(1, top + 1):
        got = len(bell(n, "nc").terms)
        if got != 2 ** (n - 1):
            return False, f"B_{n} has {got} terms, expected {2 ** (n - 1)}"
    return True, f"term counts 2^(n-1) for n <= {top}"


def _partition_sum(n):
    """The sum of the commutative block-size monomials over the set
    partitions of {1..n}: the size-word tally is merged by multiset of
    block sizes, and each multiset gives one monomial times its count."""
    tally: dict = {}
    for word, count in partitions.size_words(n).items():
        sizes = tuple(sorted(word))
        tally[sizes] = tally.get(sizes, 0) + count
    return CPoly({key_of(CPoly, sizes): c for sizes, c in tally.items()})


def suite_constructions(max_degree=None, seed=0):
    """All constructions of B_n agree: recursions, explicit sum,
    quasideterminant, trees; commutatively also determinant, partition sum
    and the exponential generating function."""
    top = max_degree or 8
    for n in range(0, top + 1):
        b = bell(n, "nc")
        if bell_recursion(n, "nc") != b:
            return False, f"binomial recursion differs at n={n}"
        if n >= 1:
            explicit = NCPoly.zero()
            for k in range(1, n + 1):
                explicit = explicit + bell_explicit(n, k)
            if explicit != b:
                return False, f"kappa-explicit sum differs at n={n}"
            if quasidet.bell_via_quasidet(n, "nc") != b:
                return False, f"quasideterminant differs at n={n}"
            if trees.pushforward(b) != trees.tree_bell(n, planar=True):
                return False, f"tree pushforward differs at n={n}"
        bc = bell(n, "c")
        if b.abelianize() != bc or bell_recursion(n, "c") != bc:
            return False, f"commutative recursions differ at n={n}"
        if n >= 1:
            explicit_c = CPoly.zero()
            for k in range(1, n + 1):
                explicit_c = explicit_c + bell_c_explicit(n, k)
            if explicit_c != bc:
                return False, f"commutative explicit sum differs at n={n}"
            if quasidet.bell_via_quasidet(n, "c") != bc:
                return False, f"determinant formula differs at n={n}"
            if _partition_sum(n) != bc:
                return False, f"partition sum differs at n={n}"
    bad = egf_bell_check(top)
    if bad:
        return False, f"EGF coefficients differ at n in {bad}"
    return True, f"five noncommutative and four extra commutative routes agree, n <= {top}"


def suite_partition_oracle(max_degree=None, seed=0):
    """Every word coefficient equals the count of max-ordered partitions
    (partitions.size_words) and the closed binomial product."""
    top = max_degree or 9
    for n in range(1, top + 1):
        tally = partitions.size_words(n)
        by_word: dict = {}
        for k in range(1, n + 1):
            for word, c in bell_partial(n, k, "nc").terms.items():
                by_word[word] = c
        if set(by_word) != set(tally):
            return False, f"word support differs from partitions at n={n}"
        for word, c in by_word.items():
            if c != tally[word] or c != partitions.N_formula(word):
                return False, f"coefficient of {word} differs at n={n}"
    if bell_partial(5, 3, "nc").coefficient((2, 1, 2)) != 4:
        return False, "coefficient of d2 d1 d2 in B_{5,3} is not 4"
    return True, f"coefficients = partition counts = binomial products, n <= {top}"


def suite_stirling(max_degree=None, seed=0):
    """All-ones specialization gives Stirling and Bell numbers."""
    top = max_degree or 9
    for n in range(1, top + 1):
        ones = {i: Fraction(1) for i in range(1, n + 1)}
        total = 0
        for k in range(1, n + 1):
            got = bell_partial(n, k, "c").evaluate(ones)
            if got != partitions.stirling2(n, k):
                return False, f"B_{{{n},{k}}}(1,..,1) != S({n},{k})"
            total += got
        if total != partitions.bell_number(n):
            return False, f"sum over k at n={n} is not the Bell number"
    return True, f"Stirling and Bell specializations match, n <= {top}"


def _symbol_matrix(n: int):
    """Hessenberg matrix in pairwise distinct letters a_kj (letter 10k+j)."""
    return quasidet.hessenberg(n, NCPoly, lambda i, j: NCPoly.letter(10 * i + j))


def suite_quasidet(max_degree=None, seed=0):
    """Symbolic P(3), P(4), the Bell specializations, and the numeric
    quasideterminant against the signed determinant ratio."""
    for n, text in ((3, P3), (4, P4)):
        got = quasidet.hessenberg_quasidet(_symbol_matrix(n))
        want = parse_text(text, symbol="a")
        if got != want:
            return False, f"P({n}) differs from the reference expansion"
        if quasidet.hessenberg_quasidet_sum(_symbol_matrix(n)) != want:
            return False, f"chain-sum P({n}) differs from the recursion"
    for n in (3, 4):
        if quasidet.bell_via_quasidet(n, "nc") != bell(n, "nc"):
            return False, f"Bell quasideterminant differs at n={n}"
    rng = random.Random(seed)
    trials = 0
    while trials < 100:
        n = rng.randint(2, 6)
        A = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
             for _ in range(n)]
        p, q = rng.randint(1, n), rng.randint(1, n)
        minor = [[A[i][j] for j in range(n) if j != q - 1]
                 for i in range(n) if i != p - 1]
        dm = quasidet.det(minor) if n > 1 else Fraction(1)
        da = quasidet.det(A)
        if not dm or not da:
            continue
        got = quasidet.numeric_quasidet(A, p, q)
        if got != (-1) ** (p + q) * da / dm:
            return False, f"numeric quasideterminant differs at size {n}"
        trials += 1
    return True, "P(3), P(4), Bell cases, and 100 numeric ratio checks match"


def suite_hopf_tables(max_degree=None, seed=0):
    """Coproduct and antipode tables for X_1..X_4 in both variants."""
    for (variant, n), entries in COPRODUCT_TABLE.items():
        if hopf.coproduct_gen(n, variant) != _x_tensor(entries, variant):
            return False, f"coproduct of X_{n} ({variant}) differs"
    for (variant, n), text in ANTIPODE_TABLE.items():
        if hopf.antipode_recursive(n, variant, "right") != _parse(text, variant, "X"):
            return False, f"antipode of X_{n} ({variant}) differs"
    return True, "all coproduct and antipode tables for n <= 4 match"


def suite_antipode_cross(max_degree=None, seed=0):
    """Left recursion = right recursion = quasideterminant, both variants."""
    top = max_degree or 7
    bad = []
    for variant in ("fdb", "dfdb"):
        for n in range(1, top + 1):
            right = hopf.antipode_recursive(n, variant, "right")
            left = hopf.antipode_recursive(n, variant, "left")
            qd = hopf.antipode_quasidet(n, variant)
            if right != qd:
                bad.append(f"right != quasidet at X_{n} ({variant})")
            if left != right:
                bad.append(f"left != right at X_{n} ({variant})")
    return _verdict(bad, f"three antipode routes agree for n <= {top}, both variants")


def suite_coproduct_oracle(max_degree=None, seed=0):
    """The coproduct counted over set partitions (partitions.size_words,
    which never reads a Bell polynomial) equals the Bell-polynomial
    coproduct."""
    top = max_degree or 6
    for variant in ("fdb", "dfdb"):
        for n in range(1, top + 1):
            if hopf.coproduct_gen(n, variant) != hopf.coproduct_oracle(n, variant):
                return False, f"oracle differs at X_{n} ({variant})"
    return True, f"partition oracle matches for n <= {top}, both variants"


def suite_hopf_axioms(max_degree=None, seed=0):
    """Coassociativity, counit, antipode and morphism properties on all
    generators and 50 random products."""
    top = max_degree or 7
    failures = []
    for variant in ("fdb", "dfdb"):
        failures += [f"{variant}: {f}"
                     for f in hopf.hopf_axiom_check(top, variant, seed=seed,
                                                    n_products=50)]
    return _verdict(failures, f"all axioms hold through degree {top}, both variants", 3)


def _random_unit_series(rng, order: int) -> FormalSeries:
    coeffs = [Fraction(0), Fraction(1)]
    coeffs += [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
               for _ in range(order - 2)]
    return FormalSeries(coeffs, order)


def suite_characters(max_degree=None, seed=0):
    """Convolution of series characters is composition; the antipode
    character is compositional reversion."""
    top = max_degree or 8
    rng = random.Random(seed)
    for _ in range(20):
        f = _random_unit_series(rng, top + 2)
        g = _random_unit_series(rng, top + 2)
        conv = hopf.convolve(hopf.character_of_series(f), hopf.character_of_series(g))
        target = compose(g, f)
        for n in range(1, top + 1):
            if conv.values[n] != target.divided(n + 1):
                return False, f"convolution differs from composition at X_{n}"
    for _ in range(20):
        g = _random_unit_series(rng, 8)
        anti = hopf.character_antipode(hopf.character_of_series(g), 6)
        rev = reversion(g)
        for n in range(1, 7):
            if anti.values[n] != rev.divided(n + 1):
                return False, f"antipode character differs from reversion at X_{n}"
    return True, f"20 composition pairs (n <= {top}) and 20 reversions (n <= 6) match"


def suite_mobius(max_degree=None, seed=0):
    """Inversion formulas for d_2, d_3, the antipode values, the round trip
    back through the Bell polynomials, and mu * zeta = zeta * mu = epsilon
    on the generators."""
    top = max_degree or 6
    bad = []
    for (variant, n), text in MOBIUS_INVERT_TABLE.items():
        if mobius.mobius_invert(n, variant) != _parse(text, variant):
            bad.append(f"inversion formula differs at d_{n} ({variant})")
    for (variant, n), text in MOBIUS_ANTIPODE_TABLE.items():
        if mobius.antipode_m(n, variant) != _parse(text, variant):
            bad.append(f"antipode differs at d_{n} ({variant})")
    for variant in ("c", "nc"):
        for n in range(1, top + 1):
            if not mobius.invert_round_trip(n, variant):
                bad.append(f"round trip fails at d_{n} ({variant})")
    z = mobius.zeta(top)
    eps = mobius.epsilon_char(top)
    for variant in ("c", "nc"):
        mu = mobius.mobius_char(top, variant)
        for n in range(1, top + 1):
            if not (mobius.convolve_m(mu, z, n, variant) == mobius.convolve_m(z, mu, n, variant)
                    == eps.on_letter(n)):
                bad.append(f"mu * zeta != epsilon at d_{n} ({variant})")
    return _verdict(bad, f"printed values and round trips match, n <= {top}, both variants", 4)


def suite_q_statistics(max_degree=None, seed=0):
    """The weighted-partition generating function is the q-binomial
    product; q-Bell coefficients degenerate correctly at q = 1."""
    top = max_degree or 8
    if partitions.weight(WEIGHT_EXAMPLE) != WEIGHT_EXAMPLE_VALUE:
        return False, "weight of the reference 14-element partition is wrong"
    for total in range(1, top + 1):
        for k in range(1, total + 1):
            for sizes in compositions(total, k):
                if partitions.qcount_max_ordered(sizes) != partitions.qcount_product(sizes):
                    return False, f"q-count differs from q-binomial product at {sizes}"
    for n in range(1, 7):
        for k in range(1, n + 1):
            ordinary = bell_partial(n, k, "nc")
            for parts, qc in qbell(n, k).items():
                if qc.evaluate(1) != ordinary.coefficient(parts):
                    return False, f"q = 1 degeneration differs at word {parts}"
    return True, f"weights, q-products (totals <= {top}), and q = 1 limits match"


def _random_multipoly(rng, nvars: int) -> MultiPoly:
    p = MultiPoly.zero(nvars)
    for _ in range(rng.randint(1, 3)):
        exps = tuple(rng.randint(0, 2) for _ in range(nvars))
        p = p + MultiPoly(nvars, {exps: Fraction(rng.randint(-3, 3))})
    return p


def suite_analytic(max_degree=None, seed=0):
    """Series composition via Bell polynomials, flow pullbacks via Bell
    words, and the exponential generating function identity."""
    rng = random.Random(seed)
    for _ in range(50):
        f = FormalSeries([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                          for _ in range(9)], 9)
        g = FormalSeries([Fraction(0)] + [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                          for _ in range(8)], 9)
        if compose(f, g) != compose_via_bell(f, g):
            return False, "compose and compose_via_bell differ"
    for trial in range(20):
        nvars = rng.randint(1, 3)
        order = rng.randint(1, 5)
        components = [_random_multipoly(rng, nvars) for _ in range(nvars)]
        if trial % 2:
            field = VectorField(nvars, components)
        else:
            time_coefficients = [components] + [
                [_random_multipoly(rng, nvars) for _ in range(nvars)]
                for _ in range(order + 1)
            ]
            field = VectorField(nvars, components, time_coefficients)
        psi = _random_multipoly(rng, nvars)
        taylor = flow_pullback_taylor(field, psi, order)
        for n in range(order + 1):
            if bell_apply(field, psi, n) != taylor[n]:
                return False, f"flow pullback differs at order {n}"
    if egf_bell_check(8):
        return False, "EGF identity fails by order 8"
    return True, "50 compositions, 20 flow pullbacks, and the EGF identity match"


SUITES = {
    "bell-tables": suite_bell_tables,
    "term-count": suite_term_count,
    "constructions": suite_constructions,
    "partition-oracle": suite_partition_oracle,
    "stirling": suite_stirling,
    "quasidet": suite_quasidet,
    "hopf-tables": suite_hopf_tables,
    "antipode-cross": suite_antipode_cross,
    "coproduct-oracle": suite_coproduct_oracle,
    "hopf-axioms": suite_hopf_axioms,
    "characters": suite_characters,
    "mobius": suite_mobius,
    "q-statistics": suite_q_statistics,
    "analytic": suite_analytic,
}


def run_suites(names="all", max_degree=None, seed=0) -> list:
    """Run the selected suites and return [(name, ok, detail)] in order."""
    if max_degree is not None and max_degree < 1:
        raise ValueError(f"max degree must be at least 1, got {max_degree}")
    if names == "all":
        selected = list(SUITES)
    elif isinstance(names, str):
        selected = [names]
    else:
        selected = list(names)
    for name in selected:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    return [(name, *SUITES[name](max_degree, seed)) for name in selected]


def format_report(results) -> str:
    width = max(len(name) for name, _, _ in results)
    lines = []
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        lines.append(f"{name.ljust(width)}  {status}  {detail}")
    return "\n".join(lines)
