"""Command-line front end.

Subcommands: solve, residual, reference, convergence.  Problem files are JSON
documents (see README for the schema); expression strings inside them use the
lagrange_dsl grammar.  All numeric output uses '.' decimal separators and 17
significant digits so runs are byte-reproducible.

Exit codes: 0 success/converged, 2 parse/schema/precondition error,
3 solver non-convergence, no minimizer, or an abnormal (multiplier-free)
constraint, 4 numeric domain error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .fracgrid import FracOrder, Grid, GridMismatchError, SampledFunction
from .lagrange_dsl import EvalDomainError, ExprSyntaxError, Lagrangian, parse
from .reference import ReferenceSpec, boundary_value, ml_convolution_extremal
from .solver import (
    BracketFailureError,
    NoMinimizerError,
    SolverOptions,
    solve_isoperimetric,
    solve_unconstrained,
)
from .special import GammaOverflowError, GammaPoleError, MittagLefflerError
from .variational import Problem, combined_derivative, el_residual

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NOCONV = 3
EXIT_DOMAIN = 4

# accepted so that older problem files still parse; nothing reads them
_IGNORED_SOLVER_KEYS = ("line_search", "memory")
_SOLVER_KEYS = {f.name for f in dataclasses.fields(SolverOptions)} | set(_IGNORED_SOLVER_KEYS)


class SchemaError(ValueError):
    """Problem file violates the documented schema."""


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def _load_problem_file(path: str, n_override: int | None = None) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read problem file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"problem file is not valid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "problem file must be a JSON object")
    if "schema" in doc:
        _require(doc["schema"] == 1, f'unsupported "schema" version {doc["schema"]!r}')

    for key in ("a", "b", "alpha", "k"):
        _require(key in doc, f'missing key "{key}"')
        _require(isinstance(doc[key], (int, float)), f'key "{key}" must be a number')
    _require(doc["a"] < doc["b"], '"a" must be less than "b"')
    _require(0.0 < doc["alpha"] < 1.0, '"alpha" must lie in the open interval (0, 1)')

    _require("F" in doc and isinstance(doc["F"], str), 'missing expression key "F"')
    _require(("G" in doc) == ("xi" in doc), '"G" and "xi" must co-occur')
    if "G" in doc:
        _require(isinstance(doc["G"], str), '"G" must be an expression string')
        _require(isinstance(doc["xi"], (int, float)), '"xi" must be a number')

    _require("n" in doc and isinstance(doc["n"], int) and doc["n"] >= 3, '"n" must be an integer >= 3')
    if n_override is not None:
        doc = dict(doc, n=n_override)
        _require(doc["n"] >= 3, "--n must be >= 3")

    _require("ya" in doc and isinstance(doc["ya"], (int, float)), '"ya" must be a number')
    _require("yb" in doc, 'missing key "yb"')
    if isinstance(doc["yb"], str):
        _require(doc["yb"] == "auto-reference", '"yb" must be a number or "auto-reference"')
        _require(doc["a"] == 0.0, '"yb": "auto-reference" requires a = 0')
        _require("xi" in doc, '"yb": "auto-reference" requires "xi"')
    else:
        _require(isinstance(doc["yb"], (int, float)), '"yb" must be a number or "auto-reference"')

    if "solver" in doc:
        _require(isinstance(doc["solver"], dict), '"solver" must be an object')
        for key in doc["solver"]:
            _require(key in _SOLVER_KEYS, f'unknown solver option "{key}"')
    return doc


def _build_problem(doc: dict) -> Problem:
    try:
        f = Lagrangian.parse(doc["F"])
    except ExprSyntaxError as exc:
        raise SchemaError(f'key "F": {exc}') from exc
    g = None
    if "G" in doc:
        try:
            g = Lagrangian.parse(doc["G"])
        except ExprSyntaxError as exc:
            raise SchemaError(f'key "G": {exc}') from exc

    grid = Grid(float(doc["a"]), float(doc["b"]), int(doc["n"]))
    order = FracOrder(float(doc["alpha"]))
    yb = doc["yb"]
    if yb == "auto-reference":
        spec = ReferenceSpec(k=float(doc["k"]), order=order, xi=float(doc["xi"]), grid=grid)
        yb = boundary_value(spec)
    return Problem(
        f=f,
        g=g,
        xi=float(doc["xi"]) if "xi" in doc else None,
        k=float(doc["k"]),
        order=order,
        grid=grid,
        ya=float(doc["ya"]),
        yb=float(yb),
    )


def _solver_options(doc: dict) -> SolverOptions:
    opts = dict(doc.get("solver", {}))
    for key in _IGNORED_SOLVER_KEYS:
        if key in opts:
            del opts[key]
            print(f'note: solver option "{key}" is ignored', file=sys.stderr)
    return SolverOptions(**opts)


def _write_solution_csv(path: Path, p: Problem, y: SampledFunction, lam: float | None) -> None:
    v = combined_derivative(p, y).v
    r = el_residual(p, y, lam).values
    t = p.grid.nodes()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "y", "v", "el_residual"])
        for i in range(p.grid.n):
            writer.writerow([_fmt(t[i]), _fmt(y.values[i]), _fmt(v.values[i]), _fmt(r.values[i])])


def cmd_solve(args: argparse.Namespace) -> int:
    doc = _load_problem_file(args.file, args.n)
    p = _build_problem(doc)
    opts = _solver_options(doc)
    sol = solve_isoperimetric(p, opts) if p.constrained else solve_unconstrained(p, opts)
    summary = {
        "objective": sol.objective,
        "lambda": sol.lam,
        "el_norm": sol.el_norm,
        "constraint_residual": sol.constraint_residual,
        "iterations": sol.iterations,
        "converged": sol.converged,
    }
    out = Path(args.out) if args.out else Path(args.file).with_suffix(".out.csv")
    _write_solution_csv(out, p, sol.y, sol.lam)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK if sol.converged else EXIT_NOCONV


def _read_trajectory_csv(path: str, grid: Grid) -> SampledFunction:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = [row for row in reader if row]
    except (OSError, StopIteration) as exc:
        raise SchemaError(f"cannot read trajectory CSV: {exc}") from exc
    _require(len(header) >= 2 and header[0] == "t" and header[1] == "y", "CSV must have columns t,y")
    _require(len(rows) == grid.n, f"CSV has {len(rows)} rows but the grid has {grid.n} nodes")
    t = np.array([float(row[0]) for row in rows])
    y = np.array([float(row[1]) for row in rows])
    if not np.allclose(t, grid.nodes(), rtol=0.0, atol=1e-9 * max(1.0, abs(grid.b))):
        raise GridMismatchError("CSV t column does not match the problem grid")
    return SampledFunction(grid, y)


def cmd_residual(args: argparse.Namespace) -> int:
    doc = _load_problem_file(args.file, args.n)
    p = _build_problem(doc)
    if p.constrained and args.lam is None:
        raise SchemaError("problem has a constraint; supply --lambda")
    y = _read_trajectory_csv(args.y, p.grid)
    res = el_residual(p, y, args.lam if p.constrained else None)
    print(
        json.dumps(
            {
                "norm_max_interior": res.norm_max_interior,
                "norm_l2_interior": res.norm_l2_interior,
            },
            sort_keys=True,
        )
    )
    return EXIT_OK


def cmd_reference(args: argparse.Namespace) -> int:
    if not 0.0 < args.alpha < 1.0:
        raise SchemaError("alpha must lie in the open interval (0, 1)")
    if args.n < 3:
        raise SchemaError("n must be >= 3")
    grid = Grid(0.0, args.b, args.n)
    spec = ReferenceSpec(k=args.k, order=FracOrder(args.alpha), xi=args.xi, grid=grid)
    y = ml_convolution_extremal(spec)
    t = grid.nodes()
    lines = ["t,y"]
    lines += [f"{_fmt(t[i])},{_fmt(y.values[i])}" for i in range(grid.n)]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    print(json.dumps({"boundary_value": boundary_value(spec)}, sort_keys=True))
    return EXIT_OK


def cmd_convergence(args: argparse.Namespace) -> int:
    if len(args.grids) < 2:
        raise SchemaError("need at least 2 grid sizes")
    doc = _load_problem_file(args.file)
    sizes = sorted(args.grids)
    opts = _solver_options(doc)

    solutions = {}
    for n in sizes:
        p = _build_problem(dict(doc, n=n))
        sol = solve_isoperimetric(p, opts) if p.constrained else solve_unconstrained(p, opts)
        solutions[n] = (p, sol)

    # the quadratic family has a semi-analytic reference; otherwise compare
    # against the finest-grid solution
    has_reference = (
        p.grid.a == 0.0 and p.f.f == parse("v^2") and (p.g is None or p.g.f == parse("v"))
    )

    entries = []
    if has_reference:
        for n in sizes:
            p, sol = solutions[n]
            if "xi" in doc:
                spec = ReferenceSpec(k=p.k, order=p.order, xi=float(doc["xi"]), grid=p.grid)
                ref = ml_convolution_extremal(spec).values
            else:
                ref = p.ya + (p.yb - p.ya) * (p.grid.nodes() - p.grid.a) / (p.grid.b - p.grid.a)
            entries.append({"n": n, "error": float(np.max(np.abs(sol.y.values - ref)))})
    else:
        finest_p, finest_sol = solutions[sizes[-1]]
        fine_t = finest_p.grid.nodes()
        for n in sizes:
            p, sol = solutions[n]
            interp = np.interp(p.grid.nodes(), fine_t, finest_sol.y.values)
            entries.append({"n": n, "error": float(np.max(np.abs(sol.y.values - interp)))})

    orders = []
    for i in range(len(entries) - 1):
        e0, e1 = entries[i]["error"], entries[i + 1]["error"]
        if e0 > 0.0 and e1 > 0.0:
            ratio = (entries[i + 1]["n"] - 1) / (entries[i]["n"] - 1)
            orders.append(math.log(e0 / e1) / math.log(ratio))
        else:
            orders.append(None)
    print(json.dumps({"entries": entries, "orders": orders}, sort_keys=True))
    return EXIT_OK


def _build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracvar",
        description="Solve and verify variational problems with combined "
        "classical/fractional derivatives.",
    )
    parser.add_argument("--seed", help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="solve the problem described by a JSON file")
    s.add_argument("file")
    s.add_argument("--out", help="path for the solution CSV")
    s.add_argument("--n", type=int, help="override the grid size")
    s.set_defaults(func=cmd_solve)

    s = sub.add_parser("residual", help="Euler-Lagrange residual of a supplied trajectory")
    s.add_argument("file")
    s.add_argument("--y", required=True, help="CSV with columns t,y on the problem grid")
    s.add_argument("--lambda", dest="lam", type=float, default=None)
    s.add_argument("--n", type=int, help="override the grid size")
    s.set_defaults(func=cmd_residual)

    s = sub.add_parser("reference", help="emit the semi-analytic reference extremal")
    s.add_argument("--k", type=float, required=True)
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--xi", type=float, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--b", type=float, default=1.0)
    s.add_argument("--out", help="path for the t,y CSV (stdout when omitted)")
    s.set_defaults(func=cmd_reference)

    s = sub.add_parser("convergence", help="grid-refinement study")
    s.add_argument("file")
    s.add_argument("--grids", type=int, nargs="+", required=True)
    s.set_defaults(func=cmd_convergence)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_argparser()
    args = parser.parse_args(argv)
    if args.seed is not None:
        print("error: --seed is not accepted; nothing in this tool is stochastic", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        return args.func(args)
    except (GammaPoleError, GammaOverflowError, EvalDomainError, MittagLefflerError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (BracketFailureError, NoMinimizerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    except (SchemaError, ExprSyntaxError, GridMismatchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
