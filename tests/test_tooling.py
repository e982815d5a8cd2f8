"""The benchmark's tracer wraps fracvar callables by name; a renamed callable
must fail here, not only in a benchmark run.  The program's imports stay
within the runtime dependency, numpy, and the standard library."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import fracvar.solver as solver
import fracvar.variational as variational
from fracvar.fracgrid import FracOrder, Grid
from fracvar.lagrange_dsl import Lagrangian

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
SRC = Path(__file__).resolve().parents[1] / "src" / "fracvar"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_name():
    tracing = load_tracing()

    def current():
        return [getattr(importlib.import_module(home), attr) for home, attr, _ in tracing.FUNCTIONS]

    originals = current()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (home, attr, _), original, wrapped in zip(tracing.FUNCTIONS, originals, current()):
            assert wrapped is not original and wrapped.__wrapped__ is original, f"{home}.{attr} was not wrapped"
        # the operator, its assembly and the solver's H are looked up
        # through the names the tracer wraps
        p = variational.Problem(
            Lagrangian.parse("v^2"), 1.0, FracOrder(0.5), Grid(0.0, 1.0, 21), 0.0, 1.0, Lagrangian.parse("v"), 1.0
        )
        solver.solve_isoperimetric(p)
    finally:
        tracer.uninstall()
    names = {span[3] for span in tracer.spans}
    assert {
        "solver.solve_isoperimetric",
        "solver.AugmentedLagrangian",
        "variational.discrete_operators",
        "fracgrid.assemble_frac_operator",
    } <= names
    assert all(a is b for a, b in zip(current(), originals))


def test_cli_import_set():
    # mpmath and scipy serve the tests as oracles only; the CLI runs without
    # them, and parses its own arguments without argparse and gettext
    names = ("scipy", "mpmath", "argparse", "gettext")
    code = f"import sys, fracvar.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in {names}))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_src_imports_numpy_and_the_standard_library_only():
    # every import statement in src/, at module level or inside a function,
    # whether a run reaches it or not; relative imports stay in the package,
    # and importlib or __import__ would import a module no statement names
    allowed = (sys.stdlib_module_names - {"importlib"}) | {"numpy"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif getattr(node, "id", None) == "__import__" or getattr(node, "attr", None) == "__import__":
                names = ["__import__"]
            else:
                names = []
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] not in allowed]
    assert found == []
