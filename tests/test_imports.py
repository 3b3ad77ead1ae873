"""Lazy loading: what `import ncbell` and each CLI verb load, and that the
names served on first use behave like the eager bindings they replace; and
that every module memo is registered with the cache API."""

import ast
import json
import os
import re
import subprocess
import sys
from importlib import import_module
from operator import attrgetter
from pathlib import Path

import pytest

import ncbell

_SRC = str(Path(ncbell.__file__).resolve().parents[1])

_PUBLIC = {
    "INV", "CPoly", "NCPoly", "QPoly", "from_json_dict", "parse_text", "render_latex",
    "render_text", "to_json_dict", "bell", "bell_partial", "bell_scaled", "qbell",
    "qbell_coefficient", "antipode_quasidet", "antipode_recursive", "coproduct_gen",
    "hopf_axiom_check", "antipode_m", "mobius_char", "mobius_invert", "bell_number",
    "enumerate_partitions", "stirling2", "bell_via_quasidet", "hessenberg_quasidet",
    "numeric_quasidet", "FormalSeries", "MultiPoly", "VectorField", "bell_apply",
    "compose", "compose_via_bell", "flow_pullback_taylor", "reversion", "tree_bell",
    "run_suites", "cache_info", "clear_caches",
}

_SUBMODULES = ("algebra", "bell", "partitions", "trees", "quasidet", "hopf", "mobius",
               "series", "verify", "cli")

_REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "ncbell")))
"""


def _cold(body: str) -> list:
    """Run body in a fresh interpreter; the last stdout line is the sorted
    list of ncbell modules it loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", body + _REPORT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _modules(*names) -> set:
    return {"ncbell", *(f"ncbell.{name}" for name in names)}


CLI = ("algebra", "bell", "cli")
FOOTPRINTS = [
    (["bell", "-n", "4"], _modules(*CLI)),
    (["partial", "-n", "4", "-k", "2"], _modules(*CLI)),
    (["qbell", "-n", "4", "-k", "2"], _modules(*CLI)),
    (["trees", "-n", "3"], _modules(*CLI, "trees")),
    (["quasidet", "--bell-matrix", "-n", "3"], _modules(*CLI, "quasidet")),
    (["series", "--flow-check", "--order", "2"], _modules(*CLI, "series")),
    (["hopf", "--coproduct", "-n", "3"], _modules(*CLI, "hopf", "quasidet")),
    (["mobius", "--invert", "-n", "3"], _modules(*CLI, "hopf", "quasidet", "mobius")),
    (["verify", "--suite", "stirling", "--max-degree", "3"], _modules(*_SUBMODULES)),
]


def test_import_loads_only_algebra_and_bell():
    (loaded,) = _cold("import ncbell")
    assert set(json.loads(loaded)) == _modules("algebra", "bell")


@pytest.mark.parametrize("argv, footprint", FOOTPRINTS, ids=[a[0] for a, _ in FOOTPRINTS])
def test_cli_verb_loads_only_its_footprint(argv, footprint):
    body = ("import contextlib, io, ncbell.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert ncbell.cli.main({argv!r}) == 0\n")
    assert set(json.loads(_cold(body)[-1])) == footprint


def _imported_by(argv: list) -> set:
    """The top-level names of every module `python -m ncbell.cli argv`
    imports, read from -X importtime in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "ncbell.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip().split(".")[0]
            for line in proc.stderr.splitlines() if line.startswith("import time:")}


def test_text_output_never_loads_json():
    assert "json" not in _imported_by(["bell", "-n", "8"])
    assert "json" in _imported_by(["bell", "-n", "3", "--format", "json"])


def test_submodule_attribute_imports_it_on_first_use():
    (loaded,) = _cold("import ncbell\nassert ncbell.trees.tree_bell is ncbell.tree_bell")
    assert set(json.loads(loaded)) == _modules("algebra", "bell", "trees")


def test_cold_cache_info_imports_nothing():
    info, loaded = _cold("import json, ncbell\nprint(json.dumps(ncbell.cache_info()))")
    assert json.loads(info) == dict.fromkeys(
        ["bell.nc", "bell.c", "hopf.rank", "hopf.antipode", "hopf.coproduct_form",
         "hopf.antipode_form", "mobius.mu", "partitions.stirling", "partitions.qcount",
         "partitions.size_words", "algebra.qfactorial", "algebra.qbinomial", "bell.partial",
         "series.bell_form"], 0)
    assert set(json.loads(loaded)) == _modules("algebra", "bell")


def test_public_names_resolve_to_their_definitions():
    assert set(ncbell.__all__) == _PUBLIC
    assert set(dir(ncbell)) >= _PUBLIC
    for name in ncbell.__all__:
        obj = getattr(ncbell, name)
        if name == "INV":
            assert obj == sys.modules["ncbell.algebra"].INV
        else:
            assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from ncbell import *", namespace)
    assert _PUBLIC <= set(namespace)
    assert namespace["coproduct_gen"] is sys.modules["ncbell.hopf"].coproduct_gen


def test_bell_stays_the_function():
    for name in _SUBMODULES:
        __import__(f"ncbell.{name}")
    assert ncbell.bell is sys.modules["ncbell.bell"].bell
    assert ncbell.bell(2, "nc") == ncbell.NCPoly.from_word((1, 1)) + ncbell.NCPoly.from_word((2,))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ncbell.no_such_name
    assert not hasattr(ncbell, "_RANK")


def test_rebinding_in_a_submodule_shows_through(monkeypatch):
    from ncbell import hopf

    original = hopf.coproduct_gen
    assert ncbell.coproduct_gen is original

    def patched(n, variant="dfdb"):
        return {}

    monkeypatch.setattr(hopf, "coproduct_gen", patched)
    assert ncbell.coproduct_gen is patched
    monkeypatch.undo()
    assert ncbell.coproduct_gen is original


# module-level tables of memo shape that ncbell._MEMOS leaves out on purpose:
# cache_info and clear_caches handle the Bell cache themselves, and the
# import tables of ncbell/__init__.py are not caches
_UNREGISTERED = {("bell", "_BELL"), ("__init__", "_LAZY"), ("__init__", "_SUBMODULES"),
                 ("__init__", "_MEMOS")}


def _module_memos(source: str) -> list:
    """Names of the shape _UPPER bound at module level to a dict or list
    display, or to a dict() or list() call: the shape of a module memo."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        memo = isinstance(value, (ast.Dict, ast.List)) or (
            isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "list"))
        names += [t.id for t in targets
                  if memo and isinstance(t, ast.Name) and re.fullmatch(r"_[A-Z][A-Z0-9_]*", t.id)]
    return names


def test_memo_scan_finds_memo_shapes_only():
    source = ("_NEW: dict = {}\n_LIST = []\n_CALLED = dict()\n_FROZEN = frozenset()\n"
              "lower = {}\nUPPER = {}\n_CONST = 3\ndef f():\n    _LOCAL = {}\n")
    assert _module_memos(source) == ["_NEW", "_LIST", "_CALLED"]


def test_every_module_memo_is_registered():
    registered = set(ncbell._MEMOS.values())
    found = set()
    for path in sorted(Path(ncbell.__file__).parent.glob("*.py")):
        found.update((path.stem, name) for name in _module_memos(path.read_text()))
    assert found - _UNREGISTERED == registered, "register each module memo in ncbell._MEMOS"
    # the exemptions still name real tables, so the list cannot go stale
    for module, name in _UNREGISTERED:
        owner = ncbell if module == "__init__" else import_module(f"ncbell.{module}")
        assert hasattr(owner, name), (module, name)


# public functions and methods kept with no caller in src, each with the reason
_UNCALLED = {
    ("partitions", "count_max_ordered"): "brute-force reference for N_formula and the q-counts",
    ("trees", "collapse"): "brute-force reference: planar trees collapsed equal the nonplanar recursion",
    ("quasidet", "mat_inverse"): "the Fraction face of the elimination behind numeric_quasidet, "
                                 "checked against sympy",
}


# public names that more than one def in src binds, each checked by hand for
# a src caller of every definition, since the caller scan below matches by
# bare name and counts them all as called when any one of them is
_SHARED = {
    "antipode_poly": "hopf's serves the axiom battery; mobius's has no src caller and stays "
                     "as the d-alphabet element antipode that perfbench/tracer.py times",
    "derive": "both rings: bell() steps through cls.derive",
    "evaluate": "CPoly: the stirling suite; QPoly: the q-statistics suite",
    "from_json_dict": "algebra's is in ncbell.__all__; the series classes': the series verb",
    "letter": "both rings through cls.letter in bell, hopf and quasidet",
    "one": "TermRing's: every ring through cls.one, QPoly in qfactorial and the q-counts; "
           "MultiPoly's, which takes nvars: the constant term in the flow pullback",
    "letter_key": "both rings through key_of and the engine's ring(variant).letter_key",
    "ring": "algebra's: every variant guard; hopf's: the engine on all four variant names",
    "to_json_dict": "algebra's: the json format; FormalSeries': the series verb",
    "zero": "TermRing's: every ring through cls.zero, QPoly in qbinomial; MultiPoly's, which "
            "takes nvars: VectorField.field and the analytic suite",
}


def _public_defs(tree):
    """(qualified name, def node) of each public top-level function and each
    public method of a top-level class; dunder methods count as private."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _uncalled_public_functions(sources: dict) -> set:
    """(module, qualified name) of each public top-level def and public
    method in sources, a map of module name to source text, that no code
    there refers to by name or as an attribute, apart from the def's own
    body."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    refs: dict = {}
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, (ast.Name, ast.Attribute)):
                refs.setdefault(n.id if isinstance(n, ast.Name) else n.attr, []).append(id(n))
    uncalled = set()
    for module, tree in trees.items():
        for name, node in _public_defs(tree):
            own = set(map(id, ast.walk(node)))
            if all(i in own for i in refs.get(node.name, ())):
                uncalled.add((module, name))
    return uncalled


def test_uncalled_scan_ignores_self_references():
    sources = {"a": "def f():\n    return f()\ndef g():\n    return h\ndef h():\n    pass\n"
                    "def _private():\n    pass\n",
               "b": "import a\nx = a.g\ny = k\ndef k():\n    pass\n",
               "c": "class C:\n    def used(self):\n        return self.idle\n"
                    "    def idle(self):\n        return self.idle()\n"
                    "    def __len__(self):\n        return 0\n"
                    "    def _private(self):\n        pass\n"
                    "C().used()\n"}
    assert _uncalled_public_functions(sources) == {("a", "f")}
    sources["c"] = sources["c"].replace("return self.idle\n", "return 0\n")
    assert _uncalled_public_functions(sources) == {("a", "f"), ("c", "C.idle")}


def test_every_public_function_has_a_caller():
    sources = {path.stem: path.read_text()
               for path in sorted(Path(ncbell.__file__).parent.glob("*.py"))}
    dead = {(module, name) for module, name in _uncalled_public_functions(sources)
            if name not in ncbell.__all__}
    assert dead == set(_UNCALLED), "call each public function and method from src, or delete it"
    # the exemptions still name real functions, so the list cannot go stale
    for module, name in _UNCALLED:
        assert callable(attrgetter(name)(import_module(f"ncbell.{module}"))), (module, name)


def test_shared_public_names_are_reviewed():
    counts: dict = {}
    for path in sorted(Path(ncbell.__file__).parent.glob("*.py")):
        for name, _ in _public_defs(ast.parse(path.read_text())):
            counts[name.split(".")[-1]] = counts.get(name.split(".")[-1], 0) + 1
    shared = {name for name, n in counts.items() if n > 1}
    assert shared == set(_SHARED), "check each definition of a newly shared name for a caller"
