"""Every exported name resolves and every imported name is used, so a stale
export or import cannot outlive its code."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import upkolmo
from upkolmo import cli, solver

PACKAGE = sorted(p for p in Path(upkolmo.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
MODULES = [p.stem for p in PACKAGE]
SOURCES = PACKAGE + sorted(Path(__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"upkolmo.{name}")
    missing = [n for n in getattr(module, "__all__", [])
               if not hasattr(module, n)]
    assert missing == []


def _loaded(importers, modules):
    """Which of ``modules`` a fresh interpreter holds once it has imported
    ``importers``."""
    code = (f"import sys, {importers}; "
            f"print([m for m in {modules!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         cwd=Path(upkolmo.__file__).parents[1]).stdout
    return ast.literal_eval(out)


def _loaded_by_the_command_line(module):
    return _loaded("upkolmo.cli", [module]) == [module]


def test_the_set_up_modules_load_no_driver():
    # the package imports none of its modules, so reading a config and
    # building a Stepper pays for no march, check or command line
    assert _loaded("upkolmo.io, upkolmo.scheme",
                   ["upkolmo.verify", "upkolmo.solver", "upkolmo.cli"]) == []


def test_the_command_line_does_not_load_chi():
    # no program path reaches the kinetic calculus (see its docstring)
    assert not _loaded_by_the_command_line("upkolmo.chi")


def test_the_command_line_does_not_load_the_process_pool():
    # only `upkolmo sweep` starts worker processes; `run` and `verify`
    # would pay the import at every start
    assert not _loaded_by_the_command_line("concurrent.futures.process")


def test_the_command_line_does_not_load_the_checks():
    # `run` reads no check: `verify`, and the csv module its reports need,
    # load with the commands that use them
    assert _loaded("upkolmo.cli", ["upkolmo.verify", "csv"]) == []


def _kept(node, lines):
    """Whether an import is marked ``# noqa: F401`` on one of its lines."""
    return any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno])


def _unused_imports(path):
    """Names a module imports and never uses; a name in ``__all__`` counts
    as used, and an import marked ``# noqa: F401`` is skipped."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if (getattr(node, "module", None) == "__future__"
                    or _kept(node, lines)):
                continue
            imported += [alias.asname or alias.name.partition(".")[0]
                         for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", SOURCES,
                         ids=[f"{p.parent.name}/{p.name}" for p in SOURCES])
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


def _kept_imports(path):
    """Names a module imports under ``# noqa: F401``."""
    text = path.read_text()
    lines = text.splitlines()
    return [alias.asname or alias.name for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and _kept(node, lines) for alias in node.names]


def test_every_kept_import_is_one_the_bench_traces(monkeypatch):
    # an import no program path uses stays only while the benchmark's
    # traced pass patches the name where the module binds it; once the
    # bench stops tracing it, the import goes too
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    traced = {(owner.__name__, attr) for owner, attr, _, _
              in importlib.import_module("run")._layers()}
    kept = {(f"upkolmo.{path.stem}", name) for path in PACKAGE
            for name in _kept_imports(path)}
    assert kept and kept - traced == set()


def test_one_driver_marches_every_mode():
    # `solve` derives the mode from the spec; a second driver would let a
    # caller choose a problem the spec does not state
    assert sorted(solver.__all__) == ["CflViolationError",
                                      "GammaOutOfRangeError", "solve"]
    named = [p.name for p in PACKAGE if re.search(
        r"solve_(entropy|regularized|impulsive)", p.read_text())]
    assert named == []


def test_one_exit_code_map():
    # `main` alone turns exceptions into exit codes 1 and 2; a command that
    # catches its own could give one fault two exits or two messages
    tree = ast.parse(Path(cli.__file__).read_text())
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    tries = [node for node in ast.walk(tree)
             if type(node).__name__ in ("Try", "TryStar")]
    assert len(tries) == 1 and tries[0] in list(ast.walk(main))
