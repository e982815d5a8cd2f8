"""Spans around the public callables of each fracvar layer, installed from
outside the package, and the per-layer metrics computed from them.

A wrapper is installed on every name a caller looks up, not only on the
module that defines the callable: `fracvar.cli` calls `solve_isoperimetric`
through its own module global, `fracvar.solver` calls `discrete_operators`
and `scipy.optimize.minimize` through its globals, and so on.  A wrapper
left only on the defining module would leave its count at zero.

Spans are kept in memory as [id, parent, layer, name, start, end, attrs]
and written out as JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from pathlib import Path

# (defining module, public name, layer).  Every alias of the callable in a
# loaded fracvar module is wrapped; scipy's two entry points are also wrapped
# in scipy itself, since fracvar.solver calls them as scipy.optimize.minimize
# and scipy.linalg.solve.
FUNCTIONS = [
    ("fracvar.cli", "main", "cli"),
    ("fracvar.solver", "solve_isoperimetric", "solver"),
    ("fracvar.solver", "solve_unconstrained", "solver"),
    ("scipy.optimize", "minimize", "solver"),
    ("scipy.linalg", "solve", "solver"),
    ("fracvar.variational", "discrete_operators", "variational"),
    ("fracvar.variational", "combined_derivative", "variational"),
    ("fracvar.variational", "functional_value", "variational"),
    ("fracvar.variational", "constraint_value", "variational"),
    ("fracvar.variational", "el_residual", "variational"),
    ("fracvar.variational", "discrete_gradient", "variational"),
    ("fracvar.fracgrid", "assemble_frac_operator", "fracgrid"),
    ("fracvar.special", "mittag_leffler", "special"),
    ("fracvar.reference", "ml_convolution_extremal", "reference"),
    ("fracvar.reference", "boundary_value", "reference"),
    ("fracvar.reference", "closed_form_alpha_half", "reference"),
]
LAGRANGIAN_METHODS = ("value", "dy", "dv", "dyy", "dyv", "dvv")
FIRST_ORDER = {"lagrange_dsl.value", "lagrange_dsl.dy", "lagrange_dsl.dv"}


class Tracer:
    """Owns the span list and the patches it made; `uninstall` undoes them."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, layer: str, name: str) -> list:
        record = [len(self.spans), self._stack[-1] if self._stack else None, layer, name, 0.0, 0.0, None]
        self.spans.append(record)
        self._stack.append(record[0])
        record[4] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[5] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, layer: str, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            record[6] = _attrs(name, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        """A span opened by the benchmark itself, around one item."""
        record = self._open(layer, name)
        try:
            yield
        finally:
            self._close(record)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "fracvar" or key.startswith("fracvar.")]
        for home_name, attr, layer in FUNCTIONS:
            home = importlib.import_module(home_name)
            original = getattr(home, attr)
            wrapper = self._wrap(original, layer, f"{home_name.split('.')[-1]}.{attr}")
            self._patch(home, attr, wrapper)
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, alias, wrapper)
        # the solver builds one AugmentedLagrangian per multiplier probe
        solver = importlib.import_module("fracvar.solver")
        wrapper = self._wrap(solver.AugmentedLagrangian, "solver", "solver.AugmentedLagrangian")
        self._patch(solver, "AugmentedLagrangian", wrapper)
        lagrangian = importlib.import_module("fracvar.lagrange_dsl").Lagrangian
        for method in LAGRANGIAN_METHODS:
            wrapper = self._wrap(getattr(lagrangian, method), "lagrange_dsl", f"lagrange_dsl.{method}")
            self._patch(lagrangian, method, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def _attrs(name: str, kwargs, result) -> dict | None:
    """The few facts a per-layer metric needs from a call's arguments or result."""
    if name in ("solver.solve_isoperimetric", "solver.solve_unconstrained"):
        return {"iterations": int(result.iterations)}
    if name == "optimize.minimize":
        cap = kwargs.get("options", {}).get("maxiter")
        return {"nfev": int(result.nfev), "capped": cap is not None and int(result.nit) >= cap}
    if name == "fracgrid.assemble_frac_operator":
        return {"bytes": int(result.weights.nbytes)}
    if name == "reference.ml_convolution_extremal":
        return {"nodes": int(result.grid.n)}
    return None


PER_LAYER = {
    "solver.solve_s": "s",
    "solver.self_s": "s",
    "solver.iterations": "count",
    "solver.inner_solves": "count",
    "solver.lbfgs_runs": "count",
    "solver.lbfgs_s": "s",
    "solver.lbfgs_nfev": "count",
    "solver.lbfgs_capped_frac": "ratio",
    "solver.newton_solves": "count",
    "solver.linsolve_s": "s",
    "lagrange_dsl.first_calls": "count",
    "lagrange_dsl.second_calls": "count",
    "lagrange_dsl.eval_s": "s",
    "fracgrid.assemble_calls": "count",
    "fracgrid.assemble_s": "s",
    "fracgrid.operator_mb": "MB",
    "variational.ops_calls": "count",
    "variational.ops_builds": "count",
    "variational.ops_build_s": "s",
    "variational.certify_calls": "count",
    "variational.certify_s": "s",
    "special.ml_calls": "count",
    "special.ml_s": "s",
    "special.ml_us_per_call": "us",
    "reference.s": "s",
    "reference.self_s": "s",
    "reference.ml_calls_per_node": "calls/node",
    "reference.smooth_s": "s",
    "reference.slow-decay_s": "s",
    "reference.cancellation_s": "s",
    "cli.calls": "count",
    "cli.self_s": "s",
}
COUNTS = {name for name, unit in PER_LAYER.items() if unit == "count"}


def layer_metrics(spans: list[list]) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
    """Per-layer metrics of one traced body, and a per-item breakdown.

    A span's self time is its duration minus the durations of its direct
    children; a layer's time counts only its outermost spans, so a variational
    call nested in another is not counted twice.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = {}
    children: dict[int, list[list]] = {}
    item: dict[int, str | None] = {}
    for s in spans:
        parent = by_id.get(s[1])
        if parent is not None:
            child_time[parent[0]] = child_time.get(parent[0], 0.0) + s[5] - s[4]
            children.setdefault(parent[0], []).append(s)
        item[s[0]] = s[3] if s[2] == "bench" else item.get(s[1])

    def dur(s):
        return s[5] - s[4]

    def outermost(s):
        parent = by_id.get(s[1])
        return parent is None or parent[2] != s[2]

    def named(name):
        return [s for s in spans if s[3] == name]

    def layer(name):
        return [s for s in spans if s[2] == name]

    def self_time(layer_name):
        return sum(dur(s) - child_time.get(s[0], 0.0) for s in layer(layer_name))

    def outer_time(layer_name, keep=lambda s: True):
        return sum(dur(s) for s in layer(layer_name) if outermost(s) and keep(s))

    def attr(s, key):
        return (s[6] or {}).get(key, 0)

    solves = named("solver.solve_isoperimetric") + named("solver.solve_unconstrained")
    lbfgs = named("optimize.minimize")
    linsolves = named("linalg.solve")
    evals = layer("lagrange_dsl")
    assembles = named("fracgrid.assemble_frac_operator")
    ops = named("variational.discrete_operators")
    builds = [s for s in ops if any(c[3] == "fracgrid.assemble_frac_operator" for c in children.get(s[0], []))]
    certify = named("variational.el_residual")
    ml = named("special.mittag_leffler")
    extremals = named("reference.ml_convolution_extremal")

    def under(s, names):
        while s is not None:
            if s[3] in names:
                return True
            s = by_id.get(s[1])
        return False

    ml_in_extremal = sum(1 for s in ml if under(s, {"reference.ml_convolution_extremal"}))
    nodes = sum(attr(s, "nodes") for s in extremals)

    metrics = {
        "solver.solve_s": sum(dur(s) for s in solves),
        "solver.self_s": self_time("solver"),
        "solver.iterations": sum(attr(s, "iterations") for s in solves),
        "solver.inner_solves": len(named("solver.AugmentedLagrangian")),
        "solver.lbfgs_runs": len(lbfgs),
        "solver.lbfgs_s": sum(dur(s) for s in lbfgs),
        "solver.lbfgs_nfev": sum(attr(s, "nfev") for s in lbfgs),
        "solver.lbfgs_capped_frac": sum(1 for s in lbfgs if attr(s, "capped")) / len(lbfgs) if lbfgs else 0.0,
        "solver.newton_solves": len(linsolves),
        "solver.linsolve_s": sum(dur(s) for s in linsolves),
        "lagrange_dsl.first_calls": sum(1 for s in evals if s[3] in FIRST_ORDER),
        "lagrange_dsl.second_calls": sum(1 for s in evals if s[3] not in FIRST_ORDER),
        "lagrange_dsl.eval_s": outer_time("lagrange_dsl"),
        "fracgrid.assemble_calls": len(assembles),
        "fracgrid.assemble_s": sum(dur(s) for s in assembles),
        "fracgrid.operator_mb": sum(attr(s, "bytes") for s in assembles) / 1e6,
        "variational.ops_calls": len(ops),
        "variational.ops_builds": len(builds),
        "variational.ops_build_s": sum(dur(s) for s in builds),
        "variational.certify_calls": len(certify),
        "variational.certify_s": sum(dur(s) for s in certify),
        "special.ml_calls": len(ml),
        "special.ml_s": sum(dur(s) for s in ml),
        "special.ml_us_per_call": 1e6 * sum(dur(s) for s in ml) / len(ml) if ml else 0.0,
        "reference.s": outer_time("reference"),
        "reference.self_s": self_time("reference"),
        "reference.ml_calls_per_node": ml_in_extremal / nodes if nodes else 0.0,
        "cli.calls": len(named("cli.main")),
        "cli.self_s": self_time("cli"),
    }
    for case in ("smooth", "slow-decay", "cancellation"):
        metrics[f"reference.{case}_s"] = outer_time("reference", keep=lambda s: item[s[0]] == case)
    metrics = {name: int(value) if name in COUNTS else float(value) for name, value in metrics.items()}

    breakdown: dict[str, dict[str, float]] = {}
    for s in spans:
        if s[2] == "bench":
            breakdown[s[3]] = {"wall_s": dur(s), "iterations": 0, "inner_solves": 0, "lbfgs_runs": 0, "reference_s": 0.0}
    for s in solves:
        breakdown[item[s[0]]]["iterations"] += attr(s, "iterations")
    for s in named("solver.AugmentedLagrangian"):
        breakdown[item[s[0]]]["inner_solves"] += 1
    for s in lbfgs:
        breakdown[item[s[0]]]["lbfgs_runs"] += 1
    for s in layer("reference"):
        if outermost(s):
            breakdown[item[s[0]]]["reference_s"] += dur(s)
    return metrics, breakdown
