"""Command-line surface: generate, render, and cross-verify the algebra.

Verbs: bell, partial, qbell, trees, quasidet, hopf, mobius, series, and
verify. partial and qbell run cmd_bell, with parser defaults that make
partial bell -k and qbell bell -k --q; qbell --grouped sums the q-Bell
coefficients of words with the same letter multiset. Polynomial output
honors --format text|latex|json; the json form round-trips through
from_json_dict to the identical polynomial; a format or option the
chosen output cannot use is refused with exit code 2.
verify prints one pass/fail line per suite and exits nonzero when any
suite fails, as do the self-checking series commands. Each verb imports
the submodules it uses when it runs, so a call loads only those, and json
is imported only by the JSON formats and the JSON readers.
"""

from __future__ import annotations

import argparse
import sys

from .algebra import (
    NCPoly,
    _parse_coeff,
    render_latex,
    render_qpoly,
    render_text,
    signed_sum,
    to_json_dict,
)
from .bell import bell, bell_partial, bell_scaled, qbell, qbell_grouped


def _print_json(doc) -> None:
    import json  # here, so that text output never loads it

    print(json.dumps(doc))


def _emit_poly(p, fmt: str, symbol: str = "d", algebra: str | None = None) -> None:
    if fmt == "latex":
        print(render_latex(p, symbol))
    elif fmt == "json":
        _print_json(to_json_dict(p, algebra))
    else:
        print(render_text(p, symbol))


def _emit_series(s, fmt: str) -> None:
    if fmt == "json":
        _print_json(s.to_json_dict())
        return
    latex = fmt == "latex"
    power = "t^{{{}}}" if latex else "t^{}"
    pairs = [(c, "" if n == 0 else "t" if n == 1 else power.format(n))
             for n in range(s.order) if (c := s.coeff(n))]
    print(signed_sum(pairs, latex))


def _emit_qtable(table: dict, fmt: str) -> None:
    """A q-Bell table, word -> QPoly: JSON, or one "word: q-poly" line each."""
    rows = sorted(table.items())
    if fmt == "json":
        terms = [{"word": list(parts), "coeff": {str(p): str(c) for p, c in qc.terms.items()}}
                 for parts, qc in rows]
        _print_json({"algebra": "q-bell", "terms": terms})
        return
    for parts, qc in rows:
        print(f"{render_text(NCPoly.from_word(parts))}: {render_qpoly(qc)}")


def _load_json(args, shape: type):
    """The JSON document of --file, or of stdin without it; ValueError
    unless it is an object (shape dict) or an array (shape list)."""
    import json

    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = json.load(sys.stdin)
    if not isinstance(data, shape):
        raise ValueError(f"the JSON input must be {'an object' if shape is dict else 'an array'}")
    return data


def _members(data: dict, **shape) -> list:
    """The members of a JSON object named by the keywords of shape, in
    order; ValueError giving the object's shape when one is missing."""
    if not shape.keys() <= data.keys():
        members = ", ".join(f'"{name}": {kind}' for name, kind in shape.items())
        raise ValueError(f"the JSON input must be an object {{{members}}}")
    return [data[name] for name in shape]


def _load_matrix(args) -> list:
    """A matrix as a JSON array of rows, each row an array."""
    rows = _load_json(args, list)
    if not all(isinstance(row, list) for row in rows):
        raise ValueError("a JSON matrix must be an array of row arrays")
    return rows


def cmd_bell(args) -> int:
    variant = "c" if args.c else "nc"
    if args.c and (args.scaled or args.q):
        raise ValueError("--scaled and --q are noncommutative only")
    if args.q:
        if args.k is None:
            raise ValueError("--q needs -k (q-coefficients are per word length)")
        if args.scaled:
            raise ValueError("--q and --scaled cannot be combined")
        if args.format == "latex":
            raise ValueError("--q prints text or json only")
        table = qbell_grouped(args.n, args.k) if args.grouped else qbell(args.n, args.k)
        _emit_qtable(table, args.format)
        return 0
    if args.scaled:
        p = bell_scaled(args.n, args.k)
    elif args.k is not None:
        p = bell_partial(args.n, args.k, variant)
    else:
        p = bell(args.n, variant)
    _emit_poly(p, args.format)
    return 0


def cmd_trees(args) -> int:
    from . import trees

    tp = trees.tree_bell(args.n, planar=not args.nonplanar)
    if args.format == "json":
        rows = [{"tree": trees.serialize(t), "coeff": str(c)}
                for t, c in sorted(tp.items())]
        _print_json({"algebra": "trees", "terms": rows})
    else:
        print(trees.render_tree_poly(tp))
    return 0


def cmd_quasidet(args) -> int:
    from . import quasidet

    if args.bell_matrix:
        if (args.file, args.row, args.col) != (None, None, None):
            raise ValueError("--bell-matrix takes no --file, --row or --col")
        if args.n is None:
            raise ValueError("--bell-matrix needs -n")
        variant = "c" if args.c else "nc"
        _emit_poly(quasidet.bell_via_quasidet(args.n, variant), args.format)
        return 0
    if not args.file:
        raise ValueError("give either --bell-matrix -n or --file <matrix.json>")
    if args.c or args.nc or args.n is not None:
        raise ValueError("--file takes no --c, --nc or -n")
    if args.format != "text":
        raise ValueError("quasidet --file prints text only")
    A = [[_parse_coeff(e) for e in row] for row in _load_matrix(args)]
    p = 1 if args.row is None else args.row
    q = len(A) if args.col is None else args.col
    print(quasidet.numeric_quasidet(A, p, q))
    return 0


def cmd_hopf(args) -> int:
    from . import hopf

    variant = "fdb" if args.fdb else "dfdb"
    if args.coproduct:
        if (args.method, args.side) != (None, None):
            raise ValueError("--coproduct takes no --method or --side")
        t = hopf.coproduct_gen(args.n, variant)
        if args.format == "json":
            _print_json(hopf.tensor_to_json(t, variant))
        else:
            print(hopf.render_tensor(t, variant, latex=(args.format == "latex")))
        return 0
    if args.method == "qdet":
        if args.side is not None:
            raise ValueError("--method qdet takes no --side")
        p = hopf.antipode_quasidet(args.n, variant)
    else:
        p = hopf.antipode_recursive(args.n, variant, args.side or "right")
    _emit_poly(p, args.format, symbol="X")
    return 0


def cmd_mobius(args) -> int:
    from . import mobius

    variant = "nc" if args.nc else "c"
    if args.invert:
        if args.side is not None:
            raise ValueError("--invert takes no --side")
        p = mobius.mobius_invert(args.n, variant)
        algebra = "b-symbols" if args.nc else None
        _emit_poly(p, args.format, symbol="B", algebra=algebra)
        return 0
    _emit_poly(mobius.antipode_m(args.n, variant, args.side or "right"), args.format)
    return 0


def _flow_check(field, psi, order: int) -> bool:
    from .series import bell_apply, flow_pullback_taylor

    taylor = flow_pullback_taylor(field, psi, order)
    return all(bell_apply(field, psi, n) == taylor[n]
               for n in range(order + 1))


def _default_flow_instance() -> tuple:
    from .series import MultiPoly, VectorField

    x = MultiPoly.var(2, 0)
    y = MultiPoly.var(2, 1)
    field = VectorField(2, [x * y, y * y + 1])
    return field, x + x * y


def cmd_series(args) -> int:
    from .series import FormalSeries, MultiPoly, VectorField, compose, reversion

    if args.compose:
        f, g = _members(_load_json(args, dict), f="series", g="series")
        f, g = FormalSeries.from_json_dict(f), FormalSeries.from_json_dict(g)
        _emit_series(compose(f, g, args.order), args.format)
        return 0
    if args.reversion:
        data = _load_json(args, dict)
        g = FormalSeries.from_json_dict(data.get("g", data))
        _emit_series(reversion(g, args.order), args.format)
        return 0
    if args.format != "text":
        raise ValueError("--flow-check prints text only")
    order = 5 if args.order is None else args.order
    if args.file:
        field, psi = _members(_load_json(args, dict), field="vector field", psi="polynomial")
        field, psi = VectorField.from_json_dict(field), MultiPoly.from_json_dict(psi)
    else:
        field, psi = _default_flow_instance()
    ok = _flow_check(field, psi, order)
    print(f"flow pullback vs Bell words through order {order}: "
          + ("ok" if ok else "MISMATCH"))
    return 0 if ok else 1


def cmd_verify(args) -> int:
    from . import verify

    results = verify.run_suites(args.suite, args.max_degree, args.seed)
    print(verify.format_report(results))
    return 0 if all(ok for _, ok, _ in results) else 1


def _add_format(sub, choices=("text", "latex", "json")) -> None:
    sub.add_argument("--format", choices=choices,
                     default="text", help="output format")


def _add_variant_flags(sub) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--nc", action="store_true", help="noncommutative (default)")
    group.add_argument("--c", action="store_true", help="commutative")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncbell",
        description="Exact Bell polynomials, quasideterminants, and their Hopf algebras.",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("bell", help="Bell polynomial B_n (or B_{n,k}, Q_n, q-analog)")
    _add_variant_flags(p)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, default=None, help="restrict to word length k")
    p.add_argument("--scaled", action="store_true", help="scaled polynomial Q")
    p.add_argument("--q", action="store_true", help="q-coefficients (needs -k)")
    _add_format(p)
    p.set_defaults(func=cmd_bell, grouped=False)

    p = subs.add_parser("partial", help="partial Bell polynomial B_{n,k}")
    _add_variant_flags(p)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_bell, scaled=False, q=False)

    p = subs.add_parser("qbell", help="q-Bell coefficient table for (n, k)")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--grouped", action="store_true",
                   help="group words with the same letter multiset")
    _add_format(p, ("text", "json"))
    p.set_defaults(func=cmd_bell, c=False, scaled=False, q=True)

    p = subs.add_parser("trees", help="Bell polynomial as a sum of rooted trees")
    p.add_argument("-n", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--planar", action="store_true", help="planar trees (default)")
    group.add_argument("--nonplanar", action="store_true", help="collapse to nonplanar trees")
    _add_format(p, ("text", "json"))
    p.set_defaults(func=cmd_trees)

    p = subs.add_parser("quasidet", help="quasideterminants: Bell matrix or numeric file")
    p.add_argument("--bell-matrix", action="store_true",
                   help="quasideterminant of the n-th Bell matrix")
    _add_variant_flags(p)
    p.add_argument("-n", type=int, default=None)
    p.add_argument("--file", default=None, help="JSON matrix of rationals")
    p.add_argument("--row", type=int, default=None, help="1-based row (default 1)")
    p.add_argument("--col", type=int, default=None, help="1-based column (default n)")
    _add_format(p)
    p.set_defaults(func=cmd_quasidet)

    p = subs.add_parser("hopf", help="coproducts and antipodes of the two Hopf algebras")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--fdb", action="store_true", help="commutative variant")
    group.add_argument("--dfdb", action="store_true", help="free variant (default)")
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--coproduct", action="store_true")
    what.add_argument("--antipode", action="store_true")
    p.add_argument("--method", choices=("rec", "qdet"), default=None,
                   help="antipode algorithm (default rec)")
    p.add_argument("--side", choices=("left", "right"), default=None,
                   help="recursion side for --method rec (default right)")
    p.add_argument("-n", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_hopf)

    p = subs.add_parser("mobius", help="d-alphabet bialgebra: inversion and antipode")
    p.add_argument("--nc", action="store_true", help="noncommutative variant")
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--invert", action="store_true",
                      help="write d_n in the Bell symbols")
    what.add_argument("--antipode", action="store_true")
    p.add_argument("--side", choices=("left", "right"), default=None,
                   help="recursion side for --antipode (default right)")
    p.add_argument("-n", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_mobius)

    p = subs.add_parser("series", help="compose or revert series; check flow pullbacks")
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--compose", action="store_true",
                      help='compose the series in {"f":..., "g":...} as g then f')
    what.add_argument("--reversion", action="store_true",
                      help="compositional inverse of the input series")
    what.add_argument("--flow-check", action="store_true",
                      help="compare a flow pullback with its Bell-word expansion")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--file", default=None,
                   help="JSON input (defaults to stdin; flow-check has a built-in example)")
    _add_format(p)
    p.set_defaults(func=cmd_series)

    p = subs.add_parser("verify", help="run the verification suites")
    p.add_argument("--suite", default="all",
                   help="suite name or 'all' (default)")
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
