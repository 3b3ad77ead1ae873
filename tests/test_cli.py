"""Console entry point: output goldens, formats, and exit codes."""

import json
from itertools import combinations

import pytest

from ncbell import bell, bell_partial, mobius_invert, verify
from ncbell.algebra import from_json_dict
from ncbell.cli import main
from ncbell.hopf import antipode_recursive


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_bell_golden(capsys):
    code, out, _ = run(capsys, "bell", "--nc", "-n", "3", "--format", "text")
    assert code == 0
    assert out == "d1^3 + d2*d1 + 2*d1*d2 + d3"


def test_bell_zero(capsys):
    code, out, _ = run(capsys, "bell", "-n", "0")
    assert code == 0
    assert out == "1"


def test_bell_commutative(capsys):
    code, out, _ = run(capsys, "bell", "--c", "-n", "4")
    assert code == 0
    assert out == "d1^4 + 6*d1^2*d2 + 3*d2^2 + 4*d1*d3 + d4"


def test_bell_partial_flag(capsys):
    code, out, _ = run(capsys, "bell", "-n", "3", "-k", "2")
    assert code == 0
    assert out == "d2*d1 + 2*d1*d2"


def test_bell_scaled(capsys):
    code, out, _ = run(capsys, "bell", "-n", "3", "--scaled")
    assert code == 0
    assert out == "1/6*d1^3 + 1/3*d2*d1 + 2/3*d1*d2 + d3"


def test_bell_json_round_trip(capsys):
    code, out, _ = run(capsys, "bell", "--nc", "-n", "5", "--format", "json")
    assert code == 0
    assert from_json_dict(json.loads(out)) == bell(5, "nc")


def test_partial_verb(capsys):
    code, out, _ = run(capsys, "partial", "-n", "6", "-k", "3", "--format", "json")
    assert code == 0
    assert from_json_dict(json.loads(out)) == bell_partial(6, 3)


def test_bell_latex(capsys):
    code, out, _ = run(capsys, "bell", "-n", "3", "--format", "latex")
    assert code == 0
    assert out == "d_1^3 + d_2 d_1 + 2 d_1 d_2 + d_3"


def test_qbell_lines(capsys):
    code, out, _ = run(capsys, "bell", "-n", "4", "-k", "2", "--q")
    assert code == 0
    assert out.splitlines() == [
        "d1*d3: 1 + q + q^2",
        "d2^2: 1 + q + q^2",
        "d3*d1: 1",
    ]


def test_bell_q_is_the_qbell_table(capsys):
    for n, k in ((5, 2), (1, 1), (6, 3), (3, 4)):
        for fmt in ("text", "json"):
            argv = ["-n", str(n), "-k", str(k), "--format", fmt]
            assert run(capsys, "qbell", *argv) == run(capsys, "bell", *argv, "--q")
    _, out, _ = run(capsys, "qbell", "-n", "5", "-k", "2", "--format", "json")
    assert json.loads(out)["algebra"] == "q-bell"


@pytest.mark.parametrize("fmt", ["text", "latex", "json"])
@pytest.mark.parametrize("variant", ["--nc", "--c"])
@pytest.mark.parametrize("n, k", [(1, 1), (6, 3), (7, 7), (3, 4)])
def test_partial_prints_what_bell_k_prints(n, k, variant, fmt, capsys):
    argv = [variant, "-n", str(n), "-k", str(k), "--format", fmt]
    assert run(capsys, "partial", *argv) == run(capsys, "bell", *argv)


def test_qbell_grouped_golden(capsys):
    assert run(capsys, "qbell", "-n", "5", "-k", "3", "--grouped") == (0, (
        "d1^2*d3: 3 + 2*q + 3*q^2 + q^3 + q^4\n"
        "d1*d2^2: 3 + 4*q + 4*q^2 + 3*q^3 + q^4"), "")
    assert run(capsys, "qbell", "-n", "5", "-k", "3", "--grouped", "--format", "json") == (0, (
        '{"algebra": "q-bell", "terms": ['
        '{"word": [1, 1, 3], "coeff": {"4": "1", "3": "1", "2": "3", "1": "2", "0": "3"}}, '
        '{"word": [1, 2, 2], "coeff": {"4": "1", "3": "3", "2": "4", "1": "4", "0": "3"}}]}'),
        "")


def test_q_needs_k(capsys):
    code, _, err = run(capsys, "bell", "-n", "3", "--q")
    assert code == 2
    assert "needs -k" in err


def test_trees_verb(capsys):
    code, out, _ = run(capsys, "trees", "-n", "3")
    assert code == 0
    assert out == "aaaabbbb + aaabbabb + 2*aabaabbb + aabababb"


def test_quasidet_bell_matrix(capsys):
    code, out, _ = run(capsys, "quasidet", "--bell-matrix", "-n", "3")
    assert code == 0
    assert out == "d1^3 + d2*d1 + 2*d1*d2 + d3"


def test_quasidet_file(tmp_path, capsys):
    f = tmp_path / "m.json"
    f.write_text('[["1","2"],["3","4"]]')
    code, out, _ = run(capsys, "quasidet", "--file", str(f), "--row", "1", "--col", "1")
    assert code == 0
    assert out == "-1/2"


def test_quasidet_needs_input(capsys):
    code, _, err = run(capsys, "quasidet")
    assert code == 2
    assert "either" in err


def test_hopf_coproduct(capsys):
    code, out, _ = run(capsys, "hopf", "--fdb", "--coproduct", "-n", "3")
    assert code == 0
    assert out == "X3 (x) 1 + 1 (x) X3 + 4*X2 (x) X1 + 6*X1 (x) X2 + 3*X1^2 (x) X1"


def test_hopf_antipode_json(capsys):
    code, out, _ = run(capsys, "hopf", "--antipode", "-n", "4", "--format", "json")
    assert code == 0
    assert from_json_dict(json.loads(out)) == antipode_recursive(4, "dfdb")


def test_mobius_invert(capsys):
    code, out, _ = run(capsys, "mobius", "--invert", "-n", "3")
    assert code == 0
    assert out == "2*B1^3 - 3*B1*B2 + B3"
    code, out, _ = run(capsys, "mobius", "--nc", "--invert", "-n", "3")
    assert code == 0
    assert out == "2*B1^3 - B2*B1 - 2*B1*B2 + B3"


def test_mobius_invert_json(capsys):
    code, out, _ = run(capsys, "mobius", "--nc", "--invert", "-n", "4", "--format", "json")
    assert code == 0
    assert from_json_dict(json.loads(out)) == mobius_invert(4, "nc")


def test_mobius_antipode(capsys):
    code, out, _ = run(capsys, "mobius", "--antipode", "-n", "2")
    assert code == 0
    assert out == "-d1^-3*d2"


def test_series_compose(tmp_path, capsys):
    f = tmp_path / "s.json"
    f.write_text(
        json.dumps(
            {
                "f": {"order": 5, "coeffs": ["0", "1", "1/2", "1/6", "1/24"]},
                "g": {"order": 5, "coeffs": ["0", "1", "-1", "0", "0"]},
            }
        )
    )
    code, out, _ = run(capsys, "series", "--compose", "--order", "5", "--file", str(f))
    assert code == 0
    assert out == "t - 1/2*t^2 - 5/6*t^3 + 1/24*t^4"


def test_series_compose_refuses_order_zero(tmp_path, capsys):
    f = tmp_path / "s.json"
    f.write_text(json.dumps({"f": {"order": 2, "coeffs": ["0", "1"]},
                             "g": {"order": 2, "coeffs": ["0", "1"]}}))
    assert run(capsys, "series", "--compose", "--order", "0", "--file", str(f)) == (
        2, "", "error: order must be at least 1")


def test_series_reversion(tmp_path, capsys):
    f = tmp_path / "s.json"
    f.write_text(json.dumps({"g": {"order": 6, "coeffs": ["0", "1", "1/2", "1/6", "1/24", "1/120"]}}))
    code, out, _ = run(capsys, "series", "--reversion", "--order", "6", "--file", str(f))
    assert code == 0
    assert out == "t - 1/2*t^2 + 1/3*t^3 - 1/4*t^4 + 1/5*t^5"


@pytest.mark.parametrize("argv, text", [
    (["quasidet"], "[[0.1, 1], [2, 3]]"),
    (["series", "--reversion"], '{"g": {"order": 3, "coeffs": ["0", 0.1, "1"]}}'),
    (["series", "--compose"], '{"f": {"order": 2, "coeffs": [1.5, "1"]},'
                              ' "g": {"order": 2, "coeffs": ["0", "1"]}}'),
])
def test_json_float_is_refused(argv, text, tmp_path, capsys):
    f = tmp_path / "in.json"
    f.write_text(text)
    code, out, err = run(capsys, *argv, "--file", str(f))
    assert (code, out) == (2, "")
    assert err == "error: coefficient must be text or an int, got float"


_POLY = '{"nvars": 1, "terms": [{"coeff": "1", "exponents": [1]}]}'
_FIELD_SHAPE = ('a vector field must be a JSON object {"nvars": int, '
                '"time_coefficients": [[polynomial, ...], ...]}')
_POLY_SHAPE = ('a polynomial must be a JSON object {"nvars": int, "terms": '
               '[{"coeff": ..., "exponents": [int, ...]}, ...]}')
_PAIR = 'the JSON input must be an object {"f": series, "g": series}'
_FLOW = 'the JSON input must be an object {"field": vector field, "psi": polynomial}'
_SERIES = '{"order": 2, "coeffs": ["0", "1"]}'


@pytest.mark.parametrize("argv, text, message", [
    (["quasidet"], "[1, 2]", "a JSON matrix must be an array of row arrays"),
    (["quasidet"], '["12", "34"]', "a JSON matrix must be an array of row arrays"),
    (["quasidet"], '{"a": 1}', "the JSON input must be an array"),
    (["series", "--compose"], "[1, 2]", "the JSON input must be an object"),
    (["series", "--compose"], '{"f": [1], "g": {"order": 2, "coeffs": ["0", "1"]}}',
     'a series must be a JSON object {"order": int, "coeffs": [...]}'),
    (["series", "--reversion"], '{"g": {"order": 3, "coeffs": null}}',
     'a series must be a JSON object {"order": int, "coeffs": [...]}'),
    (["series", "--reversion"], '{"g": {"order": "3", "coeffs": ["0", "1"]}}',
     'a series must be a JSON object {"order": int, "coeffs": [...]}'),
    (["series", "--flow-check"], "[1, 2]", "the JSON input must be an object"),
    (["series", "--flow-check"], '{"field": 1, "psi": 2}', _FIELD_SHAPE),
    (["series", "--flow-check"],
     f'{{"field": {{"nvars": 1, "time_coefficients": {_POLY}}}, "psi": {_POLY}}}', _FIELD_SHAPE),
    (["series", "--flow-check"],
     f'{{"field": {{"nvars": 1, "time_coefficients": []}}, "psi": {_POLY}}}', _FIELD_SHAPE),
    (["series", "--flow-check"],
     f'{{"field": {{"nvars": 1, "time_coefficients": [[{_POLY}]]}}, '
     '"psi": {"nvars": 1, "terms": [{"coeff": "1", "exponents": ["1"]}]}}', _POLY_SHAPE),
    (["series", "--flow-check"],
     f'{{"field": {{"nvars": 1, "time_coefficients": [[{_POLY}]]}}, '
     '"psi": {"terms": []}}', _POLY_SHAPE),
    (["series", "--flow-check"],
     f'{{"field": {{"nvars": 1, "time_coefficients": [[{_POLY}], [{_POLY}]], "exact": true}}, '
     f'"psi": {_POLY}}}', "an exact vector field has one time coefficient"),
    (["series", "--flow-check"],
     f'{{"field": {{"nvars": 1, "time_coefficients": [[{_POLY}]], "exact": "false"}}, '
     f'"psi": {_POLY}}}', 'a vector field\'s "exact" must be true or false'),
    (["series", "--compose"], f'{{"f": {_SERIES}}}', _PAIR),
    (["series", "--compose"], f'{{"g": {_SERIES}}}', _PAIR),
    (["series", "--flow-check"], f'{{"psi": {_POLY}}}', _FLOW),
    (["series", "--flow-check"],
     f'{{"field": {{"nvars": 1, "time_coefficients": [[{_POLY}]]}}}}', _FLOW),
])
def test_malformed_json_is_one_error_line(argv, text, message, tmp_path, capsys):
    # a JSON value of the wrong shape is refused by its loader, exit 2,
    # never a traceback with exit 1
    f = tmp_path / "in.json"
    f.write_text(text)
    assert run(capsys, *argv, "--file", str(f)) == (2, "", f"error: {message}")


def test_json_ints_are_read_as_coefficients(tmp_path, capsys):
    f = tmp_path / "m.json"
    f.write_text("[[1, 2], [3, 4]]")
    assert run(capsys, "quasidet", "--file", str(f), "--row", "1", "--col", "1") == (0, "-1/2", "")


def test_series_flow_check(capsys):
    code, out, _ = run(capsys, "series", "--flow-check", "--order", "4")
    assert code == 0
    assert "ok" in out


def test_series_flow_check_reads_a_file(tmp_path, capsys):
    # the built-in example: F = (x1*x2, x2^2 + 1) and psi = x1 + x1*x2
    field = {"nvars": 2, "time_coefficients": [[
        {"nvars": 2, "terms": [{"coeff": "1", "exponents": [1, 1]}]},
        {"nvars": 2, "terms": [{"coeff": "1", "exponents": [0, 0]},
                               {"coeff": "1", "exponents": [0, 2]}]},
    ]]}
    psi = {"nvars": 2, "terms": [{"coeff": "1", "exponents": [1, 0]},
                                 {"coeff": "1", "exponents": [1, 1]}]}
    f = tmp_path / "flow.json"
    f.write_text(json.dumps({"field": field, "psi": psi}))
    assert run(capsys, "series", "--flow-check", "--order", "3", "--file", str(f)) == (
        0, "flow pullback vs Bell words through order 3: ok", "")


def test_series_flow_check_order_zero(capsys):
    code, out, _ = run(capsys, "series", "--flow-check", "--order", "0")
    assert code == 0
    assert out == "flow pullback vs Bell words through order 0: ok"


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "stirling", "--max-degree", "5")
    assert code == 0
    assert "stirling" in out and "PASS" in out


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_verify_max_degree_below_one_is_refused(degree, capsys):
    # 0 is an explicit degree, not a missing one, so it must not fall back
    # to the suite defaults; a negative degree must not pass vacuously
    code, out, err = run(capsys, "verify", "--suite", "term-count", "--max-degree", degree)
    assert (code, out) == (2, "")
    assert err == f"error: max degree must be at least 1, got {degree}"
    with pytest.raises(ValueError, match="at least 1"):
        verify.run_suites("all", int(degree))


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 2
    assert "unknown suite" in err


def test_missing_file_is_clean_error(capsys):
    code, _, err = run(capsys, "quasidet", "--file", "/nonexistent/m.json")
    assert code == 2
    assert "error:" in err


# (argv, whether argparse refuses it): a format an output has no renderer
# for exits 2 with an error line and prints nothing, never plain text
REFUSED_FORMATS = {
    "qbell-latex": (["qbell", "-n", "4", "-k", "2", "--format", "latex"], True),
    "qbell-grouped-latex": (["qbell", "-n", "4", "-k", "2", "--grouped", "--format", "latex"],
                            True),
    "trees-latex": (["trees", "-n", "3", "--format", "latex"], True),
    "bell-q-latex": (["bell", "-n", "4", "-k", "2", "--q", "--format", "latex"], False),
    "flow-check-json": (["series", "--flow-check", "--format", "json"], False),
    "flow-check-latex": (["series", "--flow-check", "--format", "latex"], False),
    "quasidet-file-latex": (["quasidet", "--file", "{m}", "--format", "latex"], False),
    "quasidet-file-json": (["quasidet", "--file", "{m}", "--format", "json"], False),
}


def _matrix(tmp_path) -> str:
    f = tmp_path / "m.json"
    f.write_text('[["1","2"],["3","4"]]')
    return str(f)


@pytest.mark.parametrize("name", list(REFUSED_FORMATS))
def test_format_without_a_renderer_is_refused(name, tmp_path, capsys):
    argv, by_argparse = REFUSED_FORMATS[name]
    argv = [a.format(m=_matrix(tmp_path)) for a in argv]
    if by_argparse:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        code = exc.value.code
    else:
        code = main(argv)
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert "error:" in out.err and ("invalid choice" in out.err) == by_argparse


def test_text_only_outputs_accept_text(tmp_path, capsys):
    m = _matrix(tmp_path)
    assert run(capsys, "quasidet", "--file", m, "--format", "text")[:2] == (0, "2/3")
    code, out, _ = run(capsys, "series", "--flow-check", "--order", "3", "--format", "text")
    assert code == 0 and out.endswith("ok")
    for verb in (["qbell", "-n", "4", "-k", "2"], ["trees", "-n", "3"],
                 ["bell", "-n", "4", "-k", "2", "--q"]):
        code, out, _ = run(capsys, *verb, "--format", "json")
        assert code == 0 and json.loads(out)["terms"]


def _subsets(options):
    """Every nonempty combination of the given option groups, flattened."""
    return [sum(combo, []) for r in range(1, len(options) + 1)
            for combo in combinations(options, r)]


# (fixed argv, option groups the path has no use for); each combination of
# those options is refused with exit 2 rather than silently ignored
IGNORED_OPTIONS = (
    (["bell", "--c", "-n", "4", "-k", "2"], [["--scaled"], ["--q"]]),
    (["quasidet", "--bell-matrix", "-n", "3"],
     [["--row", "2"], ["--col", "1"], ["--file", "{m}"]]),
    (["quasidet", "--file", "{m}"], [["--c"], ["-n", "7"]]),
    (["quasidet", "--file", "{m}"], [["--nc"], ["-n", "7"]]),
    (["hopf", "--coproduct", "-n", "2"], [["--method", "qdet"], ["--side", "left"]]),
    (["hopf", "--coproduct", "-n", "2"], [["--method", "rec"], ["--side", "right"]]),
    (["hopf", "--antipode", "--method", "qdet", "-n", "3"], [["--side", "left"]]),
    (["hopf", "--antipode", "--method", "qdet", "-n", "3"], [["--side", "right"]]),
    (["mobius", "--invert", "-n", "3"], [["--side", "left"]]),
    (["mobius", "--invert", "-n", "3"], [["--side", "right"]]),
)
REFUSED_OPTIONS = list(dict.fromkeys(tuple(base + extra) for base, options in IGNORED_OPTIONS
                                     for extra in _subsets(options)))


@pytest.mark.parametrize("argv", REFUSED_OPTIONS, ids=" ".join)
def test_ignored_option_is_refused(argv, tmp_path, capsys):
    code = main([a.format(m=_matrix(tmp_path)) for a in argv])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith("error: ")


def test_options_each_path_uses_are_accepted(tmp_path, capsys):
    m = _matrix(tmp_path)
    assert run(capsys, "quasidet", "--file", m, "--row", "2")[:2] == (0, "-2")
    code, out, _ = run(capsys, "quasidet", "--bell-matrix", "--c", "-n", "3")
    assert code == 0 and out == "d1^3 + 3*d1*d2 + d3"
    code, out, _ = run(capsys, "bell", "--nc", "-n", "3", "--scaled")
    assert code == 0 and out == "1/6*d1^3 + 1/3*d2*d1 + 2/3*d1*d2 + d3"
    assert run(capsys, "bell", "--nc", "-n", "4", "-k", "2", "--q")[0] == 0
    right = run(capsys, "hopf", "--antipode", "-n", "4")
    assert right[0] == 0
    assert run(capsys, "hopf", "--antipode", "--method", "rec", "--side", "right",
               "-n", "4") == right
    assert run(capsys, "hopf", "--antipode", "--method", "qdet", "-n", "4") == right
    code, out, _ = run(capsys, "hopf", "--antipode", "--side", "left", "-n", "3")
    assert code == 0 and out == "-15*X1^3 + 4*X2*X1 + 6*X1*X2 - X3"
    right = run(capsys, "mobius", "--nc", "--antipode", "-n", "3")
    assert right[0] == 0
    assert run(capsys, "mobius", "--nc", "--antipode", "--side", "right", "-n", "3") == right
    assert run(capsys, "mobius", "--nc", "--antipode", "--side", "left", "-n", "3") == right


@pytest.mark.parametrize("option", ["--row", "--col"])
def test_quasidet_position_zero_is_refused(option, tmp_path, capsys):
    # 0 is an explicit position, not a missing one, so it must not fall
    # back to the default --row 1 / --col n
    code, out, err = run(capsys, "quasidet", "--file", _matrix(tmp_path), option, "0")
    assert (code, out) == (2, "")
    assert err == "error: position out of range"
