"""Exact arithmetic for Bell polynomials and the structures built on them.

The package computes commutative and noncommutative Bell polynomials by
four independent constructions (recursion, closed formula, set-partition
sums, quasideterminants), the two Hopf algebras their coefficients span,
Moebius inversion on the d-alphabet bialgebra, and the pullback formulas
that tie Bell words to composition of formal power series and to Taylor
expansions of polynomial flows. All coefficients are exact: an int, or a
Fraction once a real division has happened; nothing is floating point.
The ncbell console script exposes each piece, and ncbell.verify
cross-checks every construction against the others.
"""

from .algebra import (
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
    bell,
    bell_partial,
    bell_scaled,
    qbell,
    qbell_coefficient,
)
from .hopf import (
    antipode_quasidet,
    antipode_recursive,
    coproduct_gen,
    hopf_axiom_check,
)
from .mobius import antipode_m, mobius_char, mobius_invert
from .partitions import bell_number, enumerate_partitions, stirling2
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
]
