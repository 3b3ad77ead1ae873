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

Cold start. `import ncbell` loads only ncbell.algebra and ncbell.bell,
which every command needs. Every other public name is served on first
use (PEP 562 module __getattr__), which imports its submodule then; the
attribute is looked up in the submodule on every access, so rebinding it
there shows through ncbell.<name>. An `ncbell` command imports only what
its verb uses: bell, partial and qbell stay within algebra, bell and cli;
trees, quasidet and series add their own module; hopf adds hopf and
quasidet, mobius adds mobius on top of those; verify loads everything.
This matters most when PYTHONDONTWRITEBYTECODE is set, because then each
call compiles every module it imports from source.
"""

import sys
from importlib import import_module

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
    _BELL,
    bell,
    bell_partial,
    bell_scaled,
    qbell,
    qbell_coefficient,
)

# public name -> the submodule that defines it, imported on first use
_LAZY = {
    "antipode_quasidet": "hopf",
    "antipode_recursive": "hopf",
    "coproduct_gen": "hopf",
    "hopf_axiom_check": "hopf",
    "antipode_m": "mobius",
    "mobius_char": "mobius",
    "mobius_invert": "mobius",
    "bell_number": "partitions",
    "enumerate_partitions": "partitions",
    "stirling2": "partitions",
    "bell_via_quasidet": "quasidet",
    "hessenberg_quasidet": "quasidet",
    "numeric_quasidet": "quasidet",
    "FormalSeries": "series",
    "MultiPoly": "series",
    "VectorField": "series",
    "bell_apply": "series",
    "compose": "series",
    "compose_via_bell": "series",
    "flow_pullback_taylor": "series",
    "reversion": "series",
    "tree_bell": "trees",
    "run_suites": "verify",
}

# the submodules `import ncbell` used to load eagerly; ncbell.<submodule>
# still resolves for them without an explicit import
_SUBMODULES = frozenset(_LAZY.values())


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list:
    return sorted(set(globals()) | set(_LAZY) | _SUBMODULES)


# memo name -> (submodule, attribute); bell.nc and bell.c are the two
# variants of bell._BELL
_MEMOS = {
    "hopf.rank": ("hopf", "_RANK"),
    "hopf.antipode": ("hopf", "_ANTIPODE"),
    "mobius.mu": ("mobius", "_MU"),
    "partitions.stirling": ("partitions", "_STIRLING"),
    "partitions.qcount": ("partitions", "_QCOUNT"),
    "partitions.size_words": ("partitions", "_SIZE_WORDS"),
    "algebra.qfactorial": ("algebra", "_QFACTORIAL"),
    "algebra.qbinomial": ("algebra", "_QBINOMIAL"),
    "bell.partial": ("bell", "_PARTIAL"),
}


def _loaded_memos():
    """(name, memo) for each memo whose submodule is already imported; a
    submodule that is not loaded yet has nothing cached."""
    for name, (module, attr) in _MEMOS.items():
        mod = sys.modules.get(f"{__name__}.{module}")
        if mod is not None:
            yield name, getattr(mod, attr)


def cache_info() -> dict:
    """Number of entries in each module memo, by name. The B_0 seeds of
    the Bell cache are not counted, so every size reads 0 when cold.
    Submodules are not imported to answer."""
    info = {f"bell.{variant}": len(seq) - 1 for variant, seq in _BELL.items()}
    info.update(dict.fromkeys(_MEMOS, 0))
    info.update((name, len(memo)) for name, memo in _loaded_memos())
    return info


def clear_caches() -> None:
    """Empty every module memo; the Bell cache keeps only its B_0 seeds."""
    for seq in _BELL.values():
        del seq[1:]
    for _, memo in _loaded_memos():
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
    *_LAZY,
    "cache_info",
    "clear_caches",
]
