"""Exact arithmetic for Bell polynomials and the structures built on them.

The package computes commutative and noncommutative Bell polynomials by
four independent constructions (recursion, closed formula, set-partition
sums, quasideterminants), the two Hopf algebras their coefficients span,
Moebius inversion on the d-alphabet bialgebra, and the pullback formulas
that tie Bell words to composition of formal power series and to Taylor
expansions of polynomial flows. All coefficients are exact: an int, or a
Fraction once a real division has happened; nothing is floating point.
The ncbell console script exposes each piece, and ncbell.verify
cross-checks every construction against the others. clear_caches() and
cache_info() empty and size the module memos, for cold measurements.
"""

from .algebra import (
    _QFACTORIAL,
    INV,
    CPoly,
    NCPoly,
    QPoly,
    from_json_dict,
    parse_text,
    render_latex,
    render_text,
    to_json_dict,
)
from .bell import (
    _BELL,
    bell,
    bell_partial,
    bell_scaled,
    qbell,
    qbell_coefficient,
)
from .hopf import (
    _ANTIPODE as _HOPF_ANTIPODE,
    _RANK,
    antipode_quasidet,
    antipode_recursive,
    coproduct_gen,
    hopf_axiom_check,
)
from .mobius import _ANTIPODE as _MOBIUS_ANTIPODE, antipode_m, mobius_char, mobius_invert
from .partitions import _QCOUNT, _STIRLING, bell_number, enumerate_partitions, stirling2
from .quasidet import bell_via_quasidet, hessenberg_quasidet, numeric_quasidet
from .series import (
    FormalSeries,
    MultiPoly,
    VectorField,
    bell_apply,
    compose,
    compose_via_bell,
    flow_pullback_taylor,
    reversion,
)
from .trees import tree_bell
from .verify import run_suites

_MEMOS = {
    "hopf.rank": _RANK,
    "hopf.antipode": _HOPF_ANTIPODE,
    "mobius.antipode": _MOBIUS_ANTIPODE,
    "partitions.stirling": _STIRLING,
    "partitions.qcount": _QCOUNT,
    "algebra.qfactorial": _QFACTORIAL,
}


def cache_info() -> dict:
    """Number of entries in each module memo, by name. The B_0 seeds of
    the Bell cache are not counted, so every size reads 0 when cold."""
    info = {f"bell.{variant}": len(seq) - 1 for variant, seq in _BELL.items()}
    info.update((name, len(memo)) for name, memo in _MEMOS.items())
    return info


def clear_caches() -> None:
    """Empty every module memo; the Bell cache keeps only its B_0 seeds."""
    for seq in _BELL.values():
        del seq[1:]
    for memo in _MEMOS.values():
        memo.clear()


__all__ = [
    "INV",
    "CPoly",
    "NCPoly",
    "QPoly",
    "from_json_dict",
    "parse_text",
    "render_latex",
    "render_text",
    "to_json_dict",
    "bell",
    "bell_partial",
    "bell_scaled",
    "qbell",
    "qbell_coefficient",
    "antipode_quasidet",
    "antipode_recursive",
    "coproduct_gen",
    "hopf_axiom_check",
    "antipode_m",
    "mobius_char",
    "mobius_invert",
    "bell_number",
    "enumerate_partitions",
    "stirling2",
    "bell_via_quasidet",
    "hessenberg_quasidet",
    "numeric_quasidet",
    "FormalSeries",
    "MultiPoly",
    "VectorField",
    "bell_apply",
    "compose",
    "compose_via_bell",
    "flow_pullback_taylor",
    "reversion",
    "tree_bell",
    "run_suites",
    "cache_info",
    "clear_caches",
]
