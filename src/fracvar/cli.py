"""Command-line front end.

Subcommands: solve, residual, reference, convergence.  Problem files are JSON
documents (see README for the schema); expression strings inside them use the
lagrange_dsl grammar.  All numeric output uses '.' decimal separators and 17
significant digits so runs are byte-reproducible.

Arguments are read by one table of commands, _COMMANDS, which also prints the
usage lines of -h/--help.  An option is given as "--opt value" or
"--opt=value", before or after the positionals; the token after it is always
its value, so "--k -1e-3" works, and --grids takes the integers up to the next
"--" token.  Option names are never abbreviated.  A usage error exits 2 with
one line on stderr, as a schema error does.

Exit codes: 0 success/converged, 2 parse/schema/precondition error (more
than 199 nested parentheses included), an expression that nests deeper than
Python's recursion limit or its parser's stack, or a stdout its reader has
closed, 3 solver non-convergence, no minimizer, or an abnormal
(multiplier-free) constraint, 4 numeric domain error, or out of memory:
every command holds its arrays of n values, about 40 at most, and
writes CSV text a block of rows at a time; a trajectory CSV is read by one
np.loadtxt call that stops after n + 1 rows.  A command is refused before it
makes the arrays where they would not fit.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
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
#: arrays of n doubles, with room to spare: 6.3-6.6 and 16.9 at n = 100001,
#: the residual's with its one reading of at most n + 1 rows
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


def cmd_solve(args: dict) -> int:
    doc = _load_problem_file(args["file"], args["n"])
    p = _build_problem(doc)
    opts = SolverOptions(**doc.get("solver", {}))
    out = _output_path(args["out"] or Path(args["file"]).with_suffix(".out.csv"))
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


def _is_number(text: str) -> bool:
    """Whether np.loadtxt reads text as a float: as float() does, but with
    neither underscores nor non-ASCII digits."""
    try:
        float(text)
    except ValueError:
        return False
    return text.isascii() and "_" not in text


def _bad_line(path: str, rows: int) -> str | None:
    """The first of the CSV's first rows that np.loadtxt refuses, named by its
    line in the file: numpy's own row numbers skip the header and blank lines,
    and count from 0 in one message and from 1 in another."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)  # the header, checked before
        for _, row in zip(range(rows), filter(None, reader)):  # numpy skips blank lines too
            for name, field in zip("ty", row + ["", ""]):
                if not _is_number(field):
                    what = f"{name} value {field!r} is not a number" if field else f"no {name} value"
                    return f"line {reader.line_num}: {what}"
    return None


def _read_trajectory_csv(path: str, grid: Grid) -> SampledFunction:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            header = next(csv.reader(fh), None)
            _require(header is not None, "trajectory CSV is empty")
            _require(len(header) >= 2 and header[0] == "t" and header[1] == "y", "CSV must have columns t,y")
            # one row past the grid tells a longer file apart, without reading the rest of it
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # of blank lines, which it skips, or of no rows, counted below
                t, y = np.loadtxt(
                    fh, delimiter=",", usecols=(0, 1), comments=None, quotechar='"', ndmin=2, max_rows=grid.n + 1
                ).T
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read trajectory CSV: {exc}") from exc
    except SchemaError:
        raise
    except ValueError as exc:
        raise SchemaError(f"trajectory CSV: {_bad_line(path, grid.n + 1) or exc}") from exc
    rows = f"more than {grid.n}" if len(t) > grid.n else len(t)
    _require(len(t) == grid.n, f"CSV has {rows} rows but the grid has {grid.n} nodes")
    if not np.allclose(t, grid.nodes(), rtol=0.0, atol=1e-9 * max(1.0, abs(grid.a), abs(grid.b))):
        raise GridMismatchError("CSV t column does not match the problem grid")
    return SampledFunction(grid, y)


def cmd_residual(args: dict) -> int:
    doc = _load_problem_file(args["file"], args["n"])
    p = _build_problem(doc)
    _require(args["lambda"] is None or _finite(args["lambda"]), "--lambda must be a finite number")
    _check_memory(p.grid.n, _ARRAYS_PER_RESIDUAL, "a residual check")
    y = _read_trajectory_csv(args["y"], p.grid)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        res = el_residual(p, y, args["lambda"])
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


def cmd_reference(args: dict) -> int:
    grid = Grid(0.0, args["b"], args["n"])
    spec = ReferenceSpec(k=args["k"], order=FracOrder(args["alpha"]), xi=args["xi"], grid=grid)
    out = _output_path(args["out"]) if args["out"] else None
    _check_memory(grid.n, _ARRAYS_PER_REFERENCE, "a reference")
    y = ml_convolution_extremal(spec).values
    _write_csv(out, ["t", "y"], (grid.nodes(), y))
    # the last node is b itself, so y[-1] is boundary_value(spec)
    print(json.dumps({"boundary_value": float(y[-1])}, sort_keys=True))
    return EXIT_OK


def cmd_convergence(args: dict) -> int:
    sizes = sorted(args["grids"])
    _require(len(sizes) >= 2, "need at least 2 grid sizes")
    _require(len(set(sizes)) == len(sizes), "grid sizes must be distinct")
    doc = _load_problem_file(args["file"])
    opts = SolverOptions(**doc.get("solver", {}))
    # F and G are parsed once; an "auto-reference" yb is the extremal's y(b), whatever n is
    first = _build_problem(dict(doc, n=sizes[0]))
    problems = [dataclasses.replace(first, grid=Grid(first.grid.a, first.grid.b, n)) for n in sizes]
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
        doc["ya"] == 0.0 and doc["yb"] == "auto-reference" and first.g.f == Var("v") and _variables(first.f.f) <= {"v"}
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


#: each command's handler, positionals, and options with their type and
#: default, ... where the option must be given; an option of type list takes
#: the integers up to the next "--" token
_COMMANDS = {
    "solve": (cmd_solve, ["file"], {"out": (str, None), "n": (int, None)}),
    "residual": (cmd_residual, ["file"], {"y": (str, ...), "lambda": (float, None), "n": (int, None)}),
    "reference": (
        cmd_reference,
        [],
        {"k": (float, ...), "alpha": (float, ...), "xi": (float, ...), "n": (int, ...)}
        | {"b": (float, 1.0), "out": (str, None)},
    ),
    "convergence": (cmd_convergence, ["file"], {"grids": (list, ...)}),
}


def _help(args: dict) -> int:
    print("usage:")
    for command, (_, positionals, options) in _COMMANDS.items():
        words = [command, *(name.upper() for name in positionals)]
        for name, (kind, default) in options.items():
            word = f"--{name} {'N [N ...]' if kind is list else name.upper()}"
            words.append(word if default is ... else f"[{word}]")
        print("  fracvar", *words)
    return EXIT_OK


def _parse_args(argv: list[str]) -> tuple:
    """The handler that argv names and the arguments it takes.  An option
    takes the next token as its value, so "--k -1e-3" gives k = -0.001."""
    words, args, options, i = [], {}, {}, 0
    while i < len(argv):
        token, i = argv[i], i + 1
        if token in ("-h", "--help"):
            return _help, {}
        if not token.startswith("--"):
            if not words:
                _require(token in _COMMANDS, f"unknown command {token!r}; use one of {', '.join(_COMMANDS)}")
                options = _COMMANDS[token][2]
            words.append(token)
            continue
        name, eq, value = token[2:].partition("=")
        _require(name != "seed", "--seed is not accepted; nothing in this tool is stochastic")
        _require(name in options, f"unknown option --{name}" if words else f"option --{name} before the command")
        kind, values = options[name][0], [value] if eq else []
        while i < len(argv) and (not values or kind is list and not argv[i].startswith("--")):
            values, i = values + [argv[i]], i + 1
        _require(bool(values), f"--{name} expects a value")
        try:
            args[name] = [int(v) for v in values] if kind is list else kind(values[0])
        except ValueError:
            what = "a number" if kind is float else "integers" if kind is list else "an integer"
            raise SchemaError(f"--{name} expects {what}, not {' '.join(values)!r}") from None
    _require(bool(words), f"no command; use one of {', '.join(_COMMANDS)}")
    command, *given = words
    handler, positionals, options = _COMMANDS[command]
    _require(len(given) == len(positionals), f"{command} takes {len(positionals)} argument(s), not {len(given)}")
    for name, (_, default) in options.items():
        _require(default is not ... or name in args, f"--{name} is required")
        args.setdefault(name, default)
    return handler, dict(zip(positionals, given), **args)


def main(argv: list[str] | None = None) -> int:
    try:
        handler, args = _parse_args(sys.argv[1:] if argv is None else argv)
        code = handler(args)
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
    except RecursionError:
        # Python's parser, the node map, the derivatives and the evaluation
        # recurse once per level of an expression's tree; parse raises it too
        # where CPython's parser stack overflows
        print("error: an expression nests too deeply for Python's recursion limit", file=sys.stderr)
        return EXIT_SCHEMA
    except MemoryError as exc:
        # the array's owner, or numpy, names what did not fit
        what = str(exc) or "the arrays of n values do not fit"
        print(f"error: out of memory: {what}; use a smaller n", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
