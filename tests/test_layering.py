"""Layering: the polynomial layers import no graph-level module, and
the front ends reach the lower layers through their public names."""

import ast
import importlib
import re
import textwrap
from pathlib import Path

import pytest

import coxlinks

PACKAGE = Path(coxlinks.__file__).parent
GRAPH_LEVEL = {"graphs", "coxeter", "analysis", "cli"}


def imported_submodules(path: Path) -> set[str]:
    """Names of the coxlinks modules a source file imports, relative or
    absolute."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "coxlinks":
                    found.update(parts[1:2])
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "coxlinks":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def imported_names(path: Path) -> set[tuple[str, str]]:
    """(coxlinks module, name) for every `from ... import name` of a
    coxlinks module in a source file."""
    found: set[tuple[str, str]] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "coxlinks":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                found.update((parts[0], alias.name) for alias in node.names)
    return found


@pytest.mark.parametrize("module", ["exact.py", "spectra.py"])
def test_polynomial_layer_imports_no_graph_module(module):
    assert not imported_submodules(PACKAGE / module) & GRAPH_LEVEL


def test_import_parser_sees_every_form(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("import os\nimport coxlinks.cli\nfrom . import graphs\n"
                   "from .coxeter import x\nfrom coxlinks.analysis import y\n"
                   "from coxlinks import exact\n")
    assert imported_submodules(src) == {"cli", "graphs", "coxeter", "analysis", "exact"}
    assert {"exact", "graphs"} <= imported_submodules(PACKAGE / "coxeter.py")


def test_cli_imports_no_private_name_from_coxeter_or_spectra():
    private = {(mod, name) for mod, name in imported_names(PACKAGE / "cli.py")
               if mod in {"coxeter", "spectra"} and name.startswith("_")}
    assert not private


def test_cli_imports_no_private_name():
    private = {(mod, name) for mod, name in imported_names(PACKAGE / "cli.py")
               if name.startswith("_")}
    assert not private


def parse_and_contract_returns(path: Path) -> set[str]:
    """cmd_* functions in a source file that return EXIT_PARSE or
    EXIT_CONTRACT themselves, rather than raising for main to map."""
    found: set[str] = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_"):
            for ret in ast.walk(node):
                if (isinstance(ret, ast.Return) and isinstance(ret.value, ast.Name)
                        and ret.value.id in {"EXIT_PARSE", "EXIT_CONTRACT"}):
                    found.add(node.name)
    return found


def test_only_main_picks_parse_and_contract_exit_codes():
    assert not parse_and_contract_returns(PACKAGE / "cli.py")


def test_exit_code_finder_sees_every_form(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("def cmd_a(x):\n    if x:\n        return EXIT_PARSE\n    return EXIT_OK\n\n"
                   "def cmd_b(x):\n    return EXIT_CONTRACT\n\n"
                   "def cmd_c(x):\n    raise ValueError(x)\n\n"
                   "def main(x):\n    return EXIT_PARSE\n")
    assert parse_and_contract_returns(src) == {"cmd_a", "cmd_b"}


def test_analysis_builds_no_sturm_chain_of_its_own():
    assert ("spectra", "_SturmChain") not in imported_names(PACKAGE / "analysis.py")


def test_analysis_asks_root_questions_through_one_spectra_type():
    private = {name for mod, name in imported_names(PACKAGE / "analysis.py")
               if mod == "spectra" and name.startswith("_")}
    assert private == {"_Roots"}


def attributes_read(path: Path, name: str) -> set[str]:
    """Attributes that the top-level def or class `name` of a source file
    reads or calls, as poly and eval_sign in chain.poly.eval_sign(x)."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return {a.attr for a in ast.walk(node)
                    if isinstance(a, ast.Attribute) and isinstance(a.ctx, ast.Load)}
    raise LookupError(name)


def fractions_built(path: Path, name: str) -> int:
    """Places in the top-level def or class `name` of a source file that
    build a Fraction, by a true division or a call of Fraction, other than
    a Fraction(...) handed straight to RationalInterval(...)."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            calls = [c for c in ast.walk(node) if isinstance(c, ast.Call)]
            returned = {id(arg) for c in calls if getattr(c.func, "id", None) == "RationalInterval"
                        for arg in c.args}
            built = [c for c in calls if getattr(c.func, "id", None) == "Fraction"
                     and id(c) not in returned]
            return len(built) + sum(isinstance(a, ast.Div) for a in ast.walk(node))
    raise LookupError(name)


READINGS = {"eval_sign", "sign_at"}


# the descents read only their chain; the halving step, refinement and
# the comparison of two enclosures read signs of sf itself, on integers
@pytest.mark.parametrize("name,banned", [("_top_cell", READINGS | {"poly"}),
                                         ("_root_gap", READINGS | {"poly"}),
                                         ("_GramChain", READINGS),
                                         ("_SturmChain", READINGS),
                                         ("_halve", {"eval_sign", "poly"}),
                                         ("_refine", {"eval_sign", "poly"}),
                                         ("compare_isolated_roots", {"eval_sign", "poly"})])
def test_descents_take_root_tests_from_the_chain_readings(name, banned):
    assert not attributes_read(PACKAGE / "spectra.py", name) & banned
    # integer points: a Fraction only in the RationalInterval returned
    assert fractions_built(PACKAGE / "spectra.py", name) == 0


def test_fraction_finder_sees_every_form(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("def f(a: Fraction, d):\n    return RationalInterval(Fraction(a, d), Fraction(a, d))\n\n"
                   "def g(a, d):\n    return RationalInterval(Fraction(a, d), a / d)\n\n"
                   "def h(a, d):\n    x = Fraction(a, d)\n    return RationalInterval(x, x)\n")
    assert [fractions_built(src, name) for name in "fgh"] == [0, 1, 1]


def test_attribute_finder_sees_every_form(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("def f(c):\n    return c.poly.eval_sign(1)\n\n"
                   "class K:\n    def g(self):\n        self.poly = 1\n")
    assert attributes_read(src, "f") == {"poly", "eval_sign"}
    assert attributes_read(src, "K") == set()


def test_name_parser_sees_relative_and_absolute_forms(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from .spectra import _SturmChain, x\nfrom coxlinks.coxeter import _y\n"
                   "from os.path import join\nfrom . import graphs\n")
    assert imported_names(src) == {("spectra", "_SturmChain"), ("spectra", "x"),
                                   ("coxeter", "_y")}


def unused_imports(path: Path) -> set[str]:
    """Names a source file imports and never reads: not as a name, not
    as the base of an attribute, and not listed in __all__."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return imported - used


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_import(module):
    assert not unused_imports(PACKAGE / module)


def test_unused_import_finder_sees_every_form(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from __future__ import annotations\nimport os.path\nimport re as regex\n"
                   "from math import comb, prod\nfrom .graphs import x, y\n"
                   "__all__ = ['y']\nos.sep\n\ndef f(a: comb) -> None:\n    pass\n")
    assert unused_imports(src) == {"regex", "prod", "x"}


# Definitions that ship without a caller in src/, each for its reason.
ALLOWED_WITHOUT_CALLER = {
    "fixtures.fixture_graph": "README Library entry point: a built-in graph by name",
    "coxeter.alexander_polynomial": "README Library entry point: Delta of a graph",
    "coxeter.coxeter_transformation": "README Library entry point: C+- = C+ C- of a graph",
    "coxeter.homological_monodromy": "README Library entry point: M^T M for the Seifert matrix M",
    "spectra.spectral_radius_enclosure": "README Library entry point: radius of a polynomial",
    "spectra.is_real_stable": "README Library entry point: real stability of a polynomial",
    "spectra.RationalInterval.contains": "value type: does an enclosure hold a rational",
    "spectra.RationalInterval.midpoint": "value type: the centre of an enclosure",
    "spectra.RationalInterval.width": "value type: the width of an enclosure",
    "spectra.RationalInterval.is_point": "value type: is an enclosure one rational",
    "exact.IntPolynomial.eval": "value type: exact value at an int or Fraction",
    "exact.IntPolynomial.coefficient": "value type: the coefficient of t^k, 0 past the degree",
    "exact.squarefree_part": "README Library entry point and test reference",
}


def definitions_without_caller(paths) -> set[str]:
    """module.qualname of every function, method and class in the files
    whose name no code in them reads, as a name or as an attribute,
    outside its own body.  Imports and __all__ strings are not reads.
    Dunder methods are called by the language and are left out."""
    defs: list[tuple[str, tuple[str, ...]]] = []  # module, qualified name
    reads: list[tuple[str, tuple[str, ...]]] = []  # name, enclosing def names

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
            defs.append((module, scope))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.append((node.id, scope))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.append((node.attr, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in paths:
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, ())
    read = {name for name, scope in reads if name not in scope}
    return {".".join((module,) + scope) for module, scope in defs
            if scope[-1] not in read
            and not (scope[-1].startswith("__") and scope[-1].endswith("__"))}


def test_every_definition_has_a_caller_or_a_reason():
    assert definitions_without_caller(sorted(PACKAGE.glob("*.py"))) == set(ALLOWED_WITHOUT_CALLER)


def test_caller_finder_sees_every_form(tmp_path):
    (tmp_path / "a.py").write_text(
        "from .b import helper\n__all__ = ['exported']\n\n"
        "def exported():\n    return exported()\n\n"
        "def used():\n    def inner():\n        pass\n    return inner\n\n"
        "class Box:\n    def __init__(self):\n        self.read_me = 1\n\n"
        "    def read_me(self):\n        pass\n\n"
        "    def method(self):\n        return helper(used)\n")
    (tmp_path / "b.py").write_text(
        "def helper(f):\n    return f\n\nclass Unused:\n    pass\n\n"
        "def caller(box):\n    return box.method()\n")
    assert definitions_without_caller([tmp_path / "a.py", tmp_path / "b.py"]) == {
        "a.exported", "a.Box", "a.Box.read_me", "b.Unused", "b.caller"}


WORKFLOW = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"


def inline_python_blocks(text: str) -> list[str]:
    """The source, dedented, of every `python -c '...'` in a workflow; the
    shell ends a block at its first single quote, so none holds one."""
    return [textwrap.dedent(m.group(1)) for m in re.finditer(r"python3? -c '([^']*)'", text)]


def missing_coxlinks_names(source: str) -> set[str]:
    """module.name for every `from coxlinks... import name` in source that
    the package does not define, once source compiles."""
    compile(source, "<inline>", "exec")
    missing = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.ImportFrom) and node.level == 0
                and (node.module or "").split(".")[0] == "coxlinks"):
            module = importlib.import_module(node.module)
            missing.update(f"{node.module}.{a.name}" for a in node.names
                           if not hasattr(module, a.name))
    return missing


def test_workflow_python_blocks_import_only_existing_names():
    # the record-only steps are continue-on-error, so a renamed private
    # name would fail there unseen
    blocks = inline_python_blocks(WORKFLOW.read_text(encoding="utf-8"))
    assert len(blocks) >= 7
    assert set().union(*map(missing_coxlinks_names, blocks)) == set()


def test_workflow_block_finder_sees_every_form():
    text = ("run: python -c 'import coxlinks'\n"
            "run: |\n  PYTHONPATH=src python3 -c '\n  from coxlinks import analyze\n"
            "  from coxlinks.spectra import _gone, mu_max_cell\n  ' >> out\n")
    blocks = inline_python_blocks(text)
    assert blocks == ["import coxlinks",
                      "\nfrom coxlinks import analyze\nfrom coxlinks.spectra import _gone, mu_max_cell\n"]
    assert missing_coxlinks_names(blocks[1]) == {"coxlinks.spectra._gone"}
    with pytest.raises(SyntaxError):
        missing_coxlinks_names("f(\n")
