"""Command-line front end.

Subcommands: solve, residual, reference, convergence.  Problem files are JSON
documents (see README for the schema); expression strings inside them use the
lagrange_dsl grammar.  All numeric output uses '.' decimal separators and 17
significant digits so runs are byte-reproducible.

Exit codes: 0 success/converged, 2 parse/schema/precondition error, or a
stdout its reader has closed, 3 solver non-convergence, no minimizer, or an
abnormal (multiplier-free) constraint, 4 numeric domain error, or out of
memory: every command holds its arrays of n values, about 40 at most, and
writes or reads CSV text a block of rows at a time, or a row; it is refused
before it makes the arrays where they would not fit.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import itertools
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .fracgrid import FracOrder, Grid, GridMismatchError, SampledFunction
from .lagrange_dsl import ExprSyntaxError, Lagrangian, Var, _variables
from .reference import ReferenceSpec, boundary_value, ml_convolution_extremal
from .solver import (
    AbnormalConstraintError,
    NoMinimizerError,
    SolverOptions,
    _ARRAYS_PER_SOLVE,
    _check_memory,
    _finite,
    solve_isoperimetric,
    solve_unconstrained,
)
from .variational import Problem, el_residual

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NOCONV = 3
EXIT_DOMAIN = 4

#: The tracemalloc peaks of a whole reference and a whole residual check, in
#: arrays of n doubles, with room to spare: 6.3-6.6 and 16.3 at n = 100001,
#: the residual's on either of the trajectory reader's paths
_ARRAYS_PER_REFERENCE = 10
_ARRAYS_PER_RESIDUAL = 24

_PROBLEM_KEYS = {"schema", "F", "G", "xi", "a", "b", "alpha", "k", "n", "ya", "yb", "solver"}
_SOLVER_KEYS = {f.name for f in dataclasses.fields(SolverOptions)}


class SchemaError(ValueError):
    """Problem file violates the documented schema."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def _load_problem_file(path: str, n_override: int | None = None) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read problem file: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"problem file is not valid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "problem file must be a JSON object")
    for key in doc:
        _require(key in _PROBLEM_KEYS, f'unknown key "{key}"')
    if "schema" in doc:
        _require(doc["schema"] == 1, f'unsupported "schema" version {doc["schema"]!r}')

    for key in ("a", "b", "alpha", "k"):
        _require(key in doc, f'missing key "{key}"')
        _require(_finite(doc[key]), f'key "{key}" must be a finite number')

    _require("F" in doc and isinstance(doc["F"], str), 'missing expression key "F"')
    _require(("G" in doc) == ("xi" in doc), '"G" and "xi" must co-occur')
    if "G" in doc:
        _require(isinstance(doc["G"], str), '"G" must be an expression string')
        _require(_finite(doc["xi"]), '"xi" must be a finite number')

    _require("n" in doc and isinstance(doc["n"], int) and not isinstance(doc["n"], bool), '"n" must be an integer')
    if n_override is not None:
        doc = dict(doc, n=n_override)

    _require("ya" in doc and _finite(doc["ya"]), '"ya" must be a finite number')
    _require("yb" in doc, 'missing key "yb"')
    if isinstance(doc["yb"], str):
        _require(doc["yb"] == "auto-reference", '"yb" must be a finite number or "auto-reference"')
        _require("xi" in doc, '"yb": "auto-reference" requires "xi"')
    else:
        _require(_finite(doc["yb"]), '"yb" must be a finite number or "auto-reference"')

    if "solver" in doc:
        _require(isinstance(doc["solver"], dict), '"solver" must be an object')
        for key in doc["solver"]:
            _require(key in _SOLVER_KEYS, f'unknown solver option "{key}"')
    return doc


def _parse_key(doc: dict, key: str) -> Lagrangian | None:
    try:
        return Lagrangian.parse(doc[key]) if key in doc else None
    except ExprSyntaxError as exc:
        raise SchemaError(f'key "{key}": {exc}') from exc


def _build_problem(doc: dict) -> Problem:
    f, g = _parse_key(doc, "F"), _parse_key(doc, "G")
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


def _output_path(path: str | Path) -> Path:
    """Check the output's directory before any work is done, but create no
    file that a failed run would leave."""
    out = Path(path)
    _require(out.parent.is_dir(), f"cannot write output file: no directory {str(out.parent)!r}")
    return out


def _write_csv(out: Path | None, header: list[str], columns) -> None:
    """Write the columns' CSV to the file out, or to stdout, holding the text of 4096 rows at once."""
    row = ",".join(["%.17g"] * len(header))  # on Python floats, the bytes of f"{x:.17g}"
    try:
        with open(out, "w", encoding="utf-8", newline="") if out else contextlib.nullcontext(sys.stdout) as fh:
            fh.write(",".join(header) + "\n")
            for start in range(0, len(columns[0]), 4096):
                rows = zip(*(col[start : start + 4096].tolist() for col in columns))
                fh.write("\n".join([row % values for values in rows]) + "\n")
    except OSError as exc:
        if out is None:
            raise  # main() names stdout
        raise SchemaError(f"cannot write output file: {exc}") from exc


def cmd_solve(args: argparse.Namespace) -> int:
    doc = _load_problem_file(args.file, args.n)
    p = _build_problem(doc)
    opts = SolverOptions(**doc.get("solver", {}))
    out = _output_path(args.out or Path(args.file).with_suffix(".out.csv"))
    sol = solve_isoperimetric(p, opts) if p.constrained else solve_unconstrained(p, opts)
    summary = {
        "objective": sol.objective,
        "lambda": sol.lam,
        "el_norm": sol.el_norm,
        "constraint_residual": sol.constraint_residual,
        "iterations": sol.iterations,
        "converged": sol.converged,
    }
    columns = (p.grid.nodes(), sol.y.values, sol.v.values, sol.residual.values.values)
    _write_csv(out, ["t", "y", "v", "el_residual"], columns)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK if sol.converged else EXIT_NOCONV


def _read_trajectory_csv(path: str, grid: Grid) -> SampledFunction:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            header = next(csv.reader(fh), None)
            _require(header is not None, "trajectory CSV is empty")
            _require(len(header) >= 2 and header[0] == "t" and header[1] == "y", "CSV must have columns t,y")
            try:
                # numpy parses the t and y columns of a well-formed file at once
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # a file of no rows is read below
                    t, y = np.loadtxt(fh, delimiter=",", usecols=(0, 1), comments=None, quotechar='"', ndmin=2).T
            except (ValueError, UserWarning):
                # any other file row by row, to name what is wrong with it: one pass for widths, one for t, y
                fh.seek(0)
                widths = [len(row) for row in csv.reader(fh) if row][1:]
                _require(len(widths) == grid.n, f"CSV has {len(widths)} rows but the grid has {grid.n} nodes")
                _require(all(width >= 2 for width in widths), "every CSV row must have a t and a y value")
                fh.seek(0)
                rows = itertools.islice(filter(None, csv.reader(fh)), 1, None)
                t, y = np.fromiter(((float(r[0]), float(r[1])) for r in rows), dtype=(float, 2), count=grid.n).T
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read trajectory CSV: {exc}") from exc
    _require(len(t) == grid.n, f"CSV has {len(t)} rows but the grid has {grid.n} nodes")
    if not np.allclose(t, grid.nodes(), rtol=0.0, atol=1e-9 * max(1.0, abs(grid.b))):
        raise GridMismatchError("CSV t column does not match the problem grid")
    return SampledFunction(grid, y)


def cmd_residual(args: argparse.Namespace) -> int:
    doc = _load_problem_file(args.file, args.n)
    p = _build_problem(doc)
    _require(args.lam is None or _finite(args.lam), "--lambda must be a finite number")
    _check_memory(p.grid.n, _ARRAYS_PER_RESIDUAL, "a residual check")
    y = _read_trajectory_csv(args.y, p.grid)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        res = el_residual(p, y, args.lam)
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
    grid = Grid(0.0, args.b, args.n)
    spec = ReferenceSpec(k=args.k, order=FracOrder(args.alpha), xi=args.xi, grid=grid)
    out = _output_path(args.out) if args.out else None
    _check_memory(grid.n, _ARRAYS_PER_REFERENCE, "a reference")
    y = ml_convolution_extremal(spec).values
    _write_csv(out, ["t", "y"], (grid.nodes(), y))
    # the last node is b itself, so y[-1] is boundary_value(spec)
    print(json.dumps({"boundary_value": float(y[-1])}, sort_keys=True))
    return EXIT_OK


def cmd_convergence(args: argparse.Namespace) -> int:
    sizes = sorted(args.grids)
    _require(len(sizes) >= 2, "need at least 2 grid sizes")
    _require(len(set(sizes)) == len(sizes), "grid sizes must be distinct")
    doc = _load_problem_file(args.file)
    opts = SolverOptions(**doc.get("solver", {}))
    problems = [_build_problem(dict(doc, n=n)) for n in sizes]
    _check_memory(sizes[-1], _ARRAYS_PER_SOLVE + len(sizes), "a convergence study")

    ys = []
    for p in problems:
        sol = solve_isoperimetric(p, opts) if p.constrained else solve_unconstrained(p, opts)
        if not sol.converged:
            print(f"error: the solve at n={p.grid.n} did not converge", file=sys.stderr)
            return EXIT_NOCONV
        ys.append(sol.y.values)
        del sol  # so the next solve does not hold this one's arrays

    # from y(0) = 0 to the reference's own y(b), v = xi / b is the extremal of
    # every F(v) with G = v: F'(v) = lambda + mu e(b - t) holds with mu = 0 and
    # lambda = F'(xi / b); otherwise compare against the finest-grid solution
    has_reference = (
        doc["ya"] == 0.0 and doc["yb"] == "auto-reference" and p.g.f == Var("v") and _variables(p.f.f) <= {"v"}
    )

    entries = []
    for p, y in zip(problems, ys):
        if has_reference:
            ref = ml_convolution_extremal(ReferenceSpec(k=p.k, order=p.order, xi=p.xi, grid=p.grid)).values
        else:
            ref = np.interp(p.grid.nodes(), problems[-1].grid.nodes(), ys[-1])
        entries.append({"n": p.grid.n, "error": float(np.max(np.abs(y - ref)))})

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
        code = args.func(args)
        sys.stdout.flush()  # a reader that has closed stdout is met here, not at exit
        return code
    except OSError as exc:
        # commands name the files they fail to read or write, so what is left
        # is stdout; the bytes still buffered for it go nowhere at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (AbnormalConstraintError, NoMinimizerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except MemoryError as exc:
        # the array's owner, or numpy, names what did not fit
        what = str(exc) or "the arrays of n values do not fit"
        print(f"error: out of memory: {what}; use a smaller n", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
