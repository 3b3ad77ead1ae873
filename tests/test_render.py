"""Renderer pins: the text and LaTeX of tensors, multivariate polynomials,
tree sums and composed series, byte for byte, with negative and fractional
coefficients, constants and unit legs."""

import json
from fractions import Fraction as F

import pytest

from ncbell import hopf, trees
from ncbell.cli import main
from ncbell.series import MultiPoly, render_multipoly

COPRODUCT_3 = {
    False: "X3 (x) 1 + 1 (x) X3 + 4*X2 (x) X1 + 6*X1 (x) X2 + 3*X1^2 (x) X1",
    True: "X_3 \\otimes 1 + 1 \\otimes X_3 + 4 X_2 \\otimes X_1 + 6 X_1 \\otimes X_2"
          " + 3 X_1^2 \\otimes X_1",
}


@pytest.mark.parametrize("variant", ["fdb", "dfdb"])
@pytest.mark.parametrize("latex", [False, True])
def test_render_coproduct(variant, latex):
    assert hopf.render_tensor(hopf.coproduct_gen(3, variant), variant, latex) == COPRODUCT_3[latex]


def _odd_tensor(variant):
    """Unit legs on either side, negative fractions, a two-digit index."""
    cls = hopf._cls(variant)
    k, mul = cls.letter_key, cls.key_mul
    return {
        ((), k(4)): F(-1, 3),
        (k(2), ()): 1,
        ((), ()): 1,
        (mul(k(1), k(2)), k(3)): F(-5, 2),
        (k(1), k(1)): -1,
        (mul(k(12), k(1)), ()): F(7, 3),
    }


ODD_TENSOR = {
    ("fdb", False): "1 (x) 1 + X2 (x) 1 - 1/3 (x) X4 + 7/3*X1*X12 (x) 1 - X1 (x) X1"
                    " - 5/2*X1*X2 (x) X3",
    ("fdb", True): "1 \\otimes 1 + X_2 \\otimes 1 - \\frac{1}{3} \\otimes X_4"
                   " + \\frac{7}{3} X_1 X_{12} \\otimes 1 - X_1 \\otimes X_1"
                   " - \\frac{5}{2} X_1 X_2 \\otimes X_3",
    ("dfdb", False): "1 (x) 1 + X2 (x) 1 - 1/3 (x) X4 + 7/3*X12*X1 (x) 1 - X1 (x) X1"
                     " - 5/2*X1*X2 (x) X3",
    ("dfdb", True): "1 \\otimes 1 + X_2 \\otimes 1 - \\frac{1}{3} \\otimes X_4"
                    " + \\frac{7}{3} X_{12} X_1 \\otimes 1 - X_1 \\otimes X_1"
                    " - \\frac{5}{2} X_1 X_2 \\otimes X_3",
}


@pytest.mark.parametrize("variant, latex", list(ODD_TENSOR))
def test_render_tensor_odd_terms(variant, latex):
    assert hopf.render_tensor(_odd_tensor(variant), variant, latex) == ODD_TENSOR[variant, latex]


def test_render_empty_tensor():
    assert hopf.render_tensor({}, "dfdb") == "0"
    assert hopf.render_tensor({}, "fdb", latex=True) == "0"


def test_render_multipoly():
    x, y = MultiPoly.var(2, 0), MultiPoly.var(2, 1)
    assert render_multipoly(MultiPoly.one(2) * 3) == "3"
    assert render_multipoly(MultiPoly.one(2) * F(-3, 4)) == "-3/4"
    assert render_multipoly(MultiPoly.zero(2)) == "0"
    p = F(-1, 2) * x * x * y - y + F(5, 3) - x
    assert render_multipoly(p) == "5/3 - x2 - x1 - 1/2*x1^2*x2"


def test_render_tree_poly_signs():
    tp = trees.tree_bell(3, planar=True)
    tp = {t: (-c if i % 2 else c) for i, (t, c) in enumerate(tp.items())}
    assert trees.render_tree_poly(tp) == "-aaaabbbb - aaabbabb + 2*aabaabbb + aabababb"
    first = next(iter(tp))
    assert trees.render_tree_poly({trees.LEAF: -1, first: F(-2, 3)}) == "-ab - 2/3*aabababb"
    assert trees.render_tree_poly({}) == "0"


SERIES_INPUT = {
    "compose": {"f": {"order": 6, "coeffs": ["1", "-1", "1/2", "0", "-3/4", "2"]},
                "g": {"order": 6, "coeffs": ["0", "1", "-1/3", "0", "5", "-7/2"]}},
    "reversion": {"g": {"order": 12, "coeffs": ["0", "1", "-1/2", "1/3", "0", "0", "0",
                                                "0", "0", "0", "0", "1"]}},
}
SERIES_OUTPUT = {
    ("compose", "text"): "1 - t + 5/6*t^2 - 1/3*t^3 - 205/36*t^4 + 23/2*t^5",
    ("compose", "latex"): "1 - t + \\frac{5}{6} t^{2} - \\frac{1}{3} t^{3}"
                          " - \\frac{205}{36} t^{4} + \\frac{23}{2} t^{5}",
    ("reversion", "text"): "t + 1/2*t^2 + 1/6*t^3 - 5/24*t^4 - 13/24*t^5 - 91/144*t^6"
                           " - 37/144*t^7 + 737/1152*t^8 + 17765/10368*t^9"
                           " + 43615/20736*t^10 - 6163/20736*t^11",
    ("reversion", "latex"): "t + \\frac{1}{2} t^{2} + \\frac{1}{6} t^{3} - \\frac{5}{24} t^{4}"
                            " - \\frac{13}{24} t^{5} - \\frac{91}{144} t^{6}"
                            " - \\frac{37}{144} t^{7} + \\frac{737}{1152} t^{8}"
                            " + \\frac{17765}{10368} t^{9} + \\frac{43615}{20736} t^{10}"
                            " - \\frac{6163}{20736} t^{11}",
}


@pytest.mark.parametrize("verb, fmt", list(SERIES_OUTPUT))
def test_render_series_cli(verb, fmt, tmp_path, capsys):
    f = tmp_path / "s.json"
    f.write_text(json.dumps(SERIES_INPUT[verb]))
    order = SERIES_INPUT[verb].get("f", SERIES_INPUT[verb]["g"])["order"]
    code = main(["series", f"--{verb}", "--order", str(order), "--file", str(f), "--format", fmt])
    assert code == 0
    assert capsys.readouterr().out == SERIES_OUTPUT[verb, fmt] + "\n"
