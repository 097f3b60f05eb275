"""Every exported name resolves and every imported name is used, so a stale
export or import cannot outlive its code."""

import ast
import functools
import importlib
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

import upkolmo
from upkolmo import cli, exprdsl, solver
from upkolmo.scheme import Stepper
from scenarios import source_spec, unit_grid

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
    # `solve` derives the mode from the spec, and `solve_family` marches
    # each member as `solve` would; a driver by mode would let a caller
    # choose a problem the spec does not state
    assert sorted(solver.__all__) == ["GammaOutOfRangeError", "solve",
                                      "solve_family"]
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


def _called(expr):
    return getattr(expr, "attr", getattr(expr, "id", None))


def test_eps_and_gamma_are_the_specs_alone():
    # a family of problems is a family of specs (`spec.with_data`): no
    # `upkolmo` call hands `Stepper` or `solve`, directly or through
    # `functools.partial`, an eps or gamma of its own, so `meta.json`'s
    # spec hash names the problem the run marched
    overrides = [f"{path.name}:{node.lineno}" for path in PACKAGE
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Call)
                 and {"Stepper", "solve"} & {_called(node.func),
                                             *map(_called, node.args)}
                 and ({"eps", "gamma"} & {kw.arg for kw in node.keywords}
                      or _called(node.func) == "Stepper"
                      and len(node.args) > 2)]
    assert overrides == []
    assert list(inspect.signature(solver.solve).parameters) == [
        "spec", "grid", "options", "dt", "m_bound"]
    for fn in (solver._march, solver.mode_of):
        assert not {"eps", "gamma"} & set(inspect.signature(fn).parameters)


def _calls(names):
    """(module.function, call) for each call of one of ``names`` in the
    package, named by the innermost function that makes it."""
    out = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text())
        defs = [node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)]
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and _called(call.func) in names:
                scope = min((d for d in defs
                             if d.lineno <= call.lineno <= d.end_lineno),
                            key=lambda d: d.end_lineno - d.lineno)
                out.append((f"{path.stem}.{scope.name}", call))
    return out


def test_one_clock_for_the_march():
    # the march, its replays and its checks count by step level n: no
    # module turns a time back into a level (`io.read_trajectory` admits a
    # snapshot only at level * dt), and each Stepper computes its kick
    # masses once, for all its levels
    assert _calls({"rint", "round"}) == []
    masses = {(where, ast.unparse(call.args[0]))
              for where, call in _calls({"step_mass", "source_rate"})}
    assert masses == {("scheme.source_rate", "levels"),
                      ("scheme.thetas", "np.arange(self.n_steps)")}


def _strings(path):
    """Every string literal of a module but its docstrings."""
    tree = ast.parse(path.read_text())
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and ast.get_docstring(node, clean=False) is not None}
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docs}


def test_one_record_of_a_run():
    # meta.json's march keys are spelled in `solver.record`: `io` names
    # the five that it and `verify.rebuild` read before `verify` compares
    # the whole record with the rebuilt stepper's, and no module writes or
    # reads another key of its own
    spec = source_spec()
    keys = set(solver.record(spec, Stepper(spec, unit_grid(4))))
    named = {(path.stem, key) for path in PACKAGE if path.stem != "solver"
             for key in keys & _strings(path)}
    assert named == {
        *(("io", key) for key in ("dt", "n_steps", "n_tau", "m_bound",
                                  "options")),
        ("verify", "dt"), ("verify", "m_bound"), ("verify", "options"),
        # the spec `verify` rebuilds, the config's or its gamma -> 0 limit,
        # is the one the record's mode names; the mode is then compared
        ("cli", "mode"),
        # `run` prints the run's dt
        ("cli", "dt"),
        # namesakes: the max-principle report's context key, `sweep --param
        # gamma`, and the config's [source] section and its gamma
        ("verify", "mode"), ("cli", "gamma"), ("io", "source"),
        ("io", "gamma")}


def _identifiers(path):
    """Every name a module binds, reads, takes or passes by keyword."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.arg, ast.keyword)):
            out.add(node.arg)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
    return out


def test_one_enclosure_for_every_bound():
    # every bound the march or a check reads is an enclosure of the
    # config's expressions (`exprdsl.sup`): no sampler, margin or widening
    # is left to make a sample do, `sup` bounds one box with no batch
    # budget, and the march is never restarted, so `solver` catches nothing
    gone = {"sample_sup", "sample_min", "sampled_deriv_max", "slab_sup",
            "NORM_INFLATION", "_LF_WIDEN", "reachable_bound", "inflate",
            "_BATCH"}
    assert {path.name: sorted(gone & _identifiers(path)) for path in PACKAGE
            } == {path.name: [] for path in PACKAGE}
    tree = ast.parse(Path(solver.__file__).read_text())
    assert [node for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler)] == []


# the signature of each public ``exprdsl`` name that has one: interning the
# nodes and evaluating each distinct one once add no option
EXPRDSL_SIGNATURES = {
    "Num": "(value: 'float') -> None",
    "Var": "(name: 'str') -> None",
    "Neg": "(arg: \"'Expr'\") -> None",
    "BinOp": "(op: 'str', lhs: \"'Expr'\", rhs: \"'Expr'\") -> None",
    "Call": "(func: 'str', args: 'tuple') -> None",
    "parse": "(text)",
    "compile": "(expr, finite=True)",
    "evaluate": "(expr, bindings)",
    "diff": "(expr, var)",
    "on_slope": "(f, fn, arg)",
    "enclose": "(expr, box)",
    "sup": "(expr, box, signed=False)",
    "zero_width": "(expr, box, width)",
    "to_string": "(expr)",
    "ExprSyntaxError": "(message, text, pos)",
}


def _signature(obj):
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):  # a type alias, a tuple, a builtin's
        return None


def test_the_expression_graph_adds_no_option():
    signatures = {name: _signature(getattr(exprdsl, name))
                  for name in exprdsl.__all__}
    assert {name: sig for name, sig in signatures.items()
            if sig is not None} == EXPRDSL_SIGNATURES


def test_exprdsl_keeps_three_memos():
    # the compiled closures, each node's derivative and each bound: no
    # other memo, so every memo keys on nodes
    assert sorted(name for name, value in vars(exprdsl).items()
                  if isinstance(value, functools._lru_cache_wrapper)) == [
        "_compiled", "_diff", "_sup"]
