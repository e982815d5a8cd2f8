"""The four benchmark workloads: inputs made from a seed, the fracvar CLI calls
that form the timed body, and the checks of every output.

Each workload is a list of items.  An item is one `fracvar` CLI invocation
(argv for `fracvar.cli.main`) plus a check that reads its outputs after the
timed body and either raises `CheckFailed` or returns accuracy figures.

The seed varies only xi, and yb where yb is numeric, within +-1% of a fixed
centre: alpha, k and n set the amount of work, so they are fixed per item,
and the narrow band keeps the accuracy figures steady from seed to seed.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from fracvar import (
    FracOrder,
    Grid,
    Lagrangian,
    Problem,
    ReferenceSpec,
    SampledFunction,
    closed_form_alpha_half,
    el_residual,
    ml_convolution_extremal,
)

CONSTRAINT_TOL = 1e-9  # the solver's default constraint_tol
LAMBDA_REL_TOL = 0.05
REFERENCE_TOL = 1e-8
RESIDUAL_REL_TOL = 1e-9


class CheckFailed(Exception):
    """An item's output is missing or wrong."""


@dataclass
class ItemRun:
    """What one CLI call returned: exit code, captured stdout, output file."""

    rc: int
    stdout: str
    out: Path | None


@dataclass
class Item:
    name: str
    argv: list[str]
    out: Path | None
    check: Callable[[ItemRun], dict[str, float]]
    corrupt: Callable[[ItemRun], None]


def _band(rng: random.Random, centre: float) -> float:
    return centre * (1.0 + 0.01 * (2.0 * rng.random() - 1.0))


def _last_json(stdout: str) -> dict:
    lines = [line for line in stdout.splitlines() if line.startswith("{")]
    if not lines:
        raise CheckFailed("no JSON summary on stdout")
    return json.loads(lines[-1])


def _read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], [r for r in rows[1:] if r]
    data = np.array([[float(x) for x in r] for r in body])
    return {name: data[:, j] for j, name in enumerate(header)}


def _write_problem(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(dict(schema=1, a=0.0, b=1.0, **doc), sort_keys=True), encoding="utf-8")


def _problem(doc: dict, yb: float) -> Problem:
    """Public-API twin of the problem file, for the checks."""
    return Problem(
        f=Lagrangian.parse(doc["F"]),
        g=Lagrangian.parse(doc["G"]) if "G" in doc else None,
        xi=doc.get("xi"),
        k=doc["k"],
        order=FracOrder(doc["alpha"]),
        grid=Grid(0.0, 1.0, doc["n"]),
        ya=doc["ya"],
        yb=yb,
    )


def _mid(values: np.ndarray) -> np.ndarray:
    """The middle 80% of the nodes: the boundary layers at both ends are left out."""
    n = values.size
    return values[math.ceil(0.1 * (n - 1)) : math.floor(0.9 * (n - 1)) + 1]


def _perturb_csv(path: Path, row: int) -> None:
    """Shift the y value of one data row: a corrupted output the checks must catch."""
    lines = path.read_text(encoding="utf-8").splitlines()
    i = row % (len(lines) - 1) + 1
    cols = lines[i].split(",")
    cols[1] = repr(float(cols[1]) + 1e-3)
    lines[i] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _perturb_stdout(run: ItemRun) -> None:
    doc = _last_json(run.stdout)
    doc = {key: value * (1.0 + 1e-6) for key, value in doc.items()}
    run.stdout = json.dumps(doc)


def _solve_item(name: str, doc: dict, workdir: Path, reference: bool = False) -> Item:
    """One `fracvar solve` call and its check.

    Every solve must exit 0 with `converged`; a constrained one must meet the
    constraint; the CSV's el_residual column must be the public el_residual
    of its own y column.  With `reference`, lambda must lie within 5% of 2*xi
    and y is compared with the Mittag-Leffler reference extremal.
    """
    problem = workdir / f"{name}.json"
    out = workdir / f"{name}.csv"
    _write_problem(problem, doc)

    def check(run: ItemRun) -> dict[str, float]:
        if run.rc != 0:
            raise CheckFailed(f"exit code {run.rc}")
        summary = _last_json(run.stdout)
        if summary.get("converged") is not True:
            raise CheckFailed("solve did not converge")
        lam = summary.get("lambda")
        if "G" in doc and not abs(summary["constraint_residual"]) <= CONSTRAINT_TOL:
            raise CheckFailed(f"constraint residual {summary['constraint_residual']!r}")
        table = _read_csv(out)
        p = _problem(doc, yb=float(table["y"][-1]))
        y = SampledFunction(p.grid, table["y"])
        r = el_residual(p, y, lam).values.values
        scale = max(1.0, float(np.max(np.abs(r))))
        if not np.max(np.abs(r - table["el_residual"])) <= RESIDUAL_REL_TOL * scale:
            raise CheckFailed("el_residual column does not match el_residual of the y column")
        figures = {"el_mid_max": float(np.max(np.abs(_mid(table["el_residual"]))))}
        if reference:
            two_xi = 2.0 * doc["xi"]
            figures["lambda_rel_err"] = abs(lam - two_xi) / abs(two_xi)
            if not figures["lambda_rel_err"] <= LAMBDA_REL_TOL:
                raise CheckFailed(f"lambda {lam!r} is not within 5% of 2*xi = {two_xi!r}")
            spec = ReferenceSpec(k=doc["k"], order=p.order, xi=doc["xi"], grid=p.grid)
            ref = ml_convolution_extremal(spec).values
            figures["ref_err_max"] = float(np.max(np.abs(table["y"] - ref)))
        return figures

    return Item(
        name=name,
        argv=["solve", str(problem), "--out", str(out)],
        out=out,
        check=check,
        corrupt=lambda run: _perturb_csv(out, row=doc["n"] // 2),
    )


def _isoperimetric(rng: random.Random, workdir: Path, n: int) -> list[Item]:
    xi = _band(rng, 1.0)
    quad = dict(F="v^2", G="v", xi=xi, alpha=0.5, k=1.0, n=n, ya=0.0, yb="auto-reference")
    # v^2+y^2 misses the multiplier seed's string match, so the bracket search
    # runs.  Its problem is linear in (yb, xi): scaling both together scales
    # the solution and keeps the residual's mix of terms the same.
    plus = dict(F="v^2+y^2", G="v", xi=xi, alpha=0.5, k=1.0, n=n, ya=0.0, yb=0.6 * xi)
    return [
        _solve_item("a", quad, workdir, reference=True),
        _solve_item("b", plus, workdir),
    ]


def _unconstrained(rng: random.Random, workdir: Path, n: int) -> list[Item]:
    yb = _band(rng, 1.0)
    lagrangians = {"quartic": "v^4+y^2", "arclength": "sqrt(1+v^2)", "exponential": "exp(v)+y^2"}
    return [
        _solve_item(name, dict(F=f, alpha=0.3, k=0.7, n=n, ya=0.0, yb=yb), workdir)
        for name, f in lagrangians.items()
    ]


def _reference_item(name: str, alpha: float, k: float, xi: float, n: int, workdir: Path) -> Item:
    """One `fracvar reference` call.  Its last node must agree with the printed
    boundary_value (a single quadrature over [0, 1]); the alpha = 1/2, k = 1
    case must also agree with the closed form everywhere."""
    out = workdir / f"{name}.csv"

    def check(run: ItemRun) -> dict[str, float]:
        if run.rc != 0:
            raise CheckFailed(f"exit code {run.rc}")
        bv = _last_json(run.stdout)["boundary_value"]
        table = _read_csv(out)
        if table["y"].size != n:
            raise CheckFailed(f"{table['y'].size} rows, expected {n}")
        if not abs(table["y"][-1] - bv) <= REFERENCE_TOL:
            raise CheckFailed(f"y[-1] = {table['y'][-1]!r} but boundary_value = {bv!r}")
        figures = {}
        if alpha == 0.5 and k == 1.0:
            exact = np.array([closed_form_alpha_half(float(t), xi) for t in table["t"]])
            figures["closed_form_err"] = float(np.max(np.abs(table["y"] - exact)))
            if not figures["closed_form_err"] <= REFERENCE_TOL:
                raise CheckFailed(f"closed form differs by {figures['closed_form_err']!r}")
        return figures

    argv = ["reference", "--alpha", repr(alpha), "--k", repr(k), "--xi", repr(xi), "--n", str(n), "--out", str(out)]
    return Item(name=name, argv=argv, out=out, check=check, corrupt=lambda run: _perturb_csv(out, row=-1))


def _reference_ml(rng: random.Random, workdir: Path, n: int) -> list[Item]:
    xi = _band(rng, 1.0)
    # cancellation runs on a fifth of the grid: per node it costs ~25x more (mpmath).
    return [
        _reference_item("smooth", 0.5, 1.0, xi, n, workdir),
        _reference_item("slow-decay", 0.999, 1.0, xi, n, workdir),
        _reference_item("cancellation", 0.5, 3.0, xi, (n - 1) // 5 + 1, workdir),
    ]


def _certify_item(n: int, xi: float, workdir: Path) -> Item:
    """`fracvar residual` on the sampled closed-form extremal; the printed norms
    must equal those of the public el_residual on the same inputs."""
    name = f"n{n}"
    doc = dict(F="v^2", G="v", xi=xi, alpha=0.5, k=1.0, n=n, ya=0.0, yb=closed_form_alpha_half(1.0, xi))
    problem = workdir / f"{name}.json"
    traj = workdir / f"{name}.csv"
    _write_problem(problem, doc)
    t = np.linspace(0.0, 1.0, n)
    y = np.array([closed_form_alpha_half(float(s), xi) for s in t])
    with open(traj, "w", encoding="utf-8") as fh:
        fh.write("t,y\n")
        fh.writelines(f"{a:.17g},{b:.17g}\n" for a, b in zip(t, y))
    lam = 2.0 * xi

    def check(run: ItemRun) -> dict[str, float]:
        if run.rc != 0:
            raise CheckFailed(f"exit code {run.rc}")
        printed = _last_json(run.stdout)
        table = _read_csv(traj)
        p = _problem(doc, yb=doc["yb"])
        res = el_residual(p, SampledFunction(p.grid, table["y"]), lam)
        for key, want in (("norm_max_interior", res.norm_max_interior), ("norm_l2_interior", res.norm_l2_interior)):
            if not abs(printed[key] - want) <= RESIDUAL_REL_TOL * abs(want):
                raise CheckFailed(f"{key} = {printed[key]!r}, el_residual gives {want!r}")
        return {}

    argv = ["residual", str(problem), "--y", str(traj), "--lambda", repr(lam)]
    return Item(name=name, argv=argv, out=None, check=check, corrupt=_perturb_stdout)


def _certify_ladder(rng: random.Random, workdir: Path, n: int) -> list[Item]:
    xi = _band(rng, 1.0)
    return [_certify_item(m * (n - 1) + 1, xi, workdir) for m in (1, 2, 3)]


# name -> (function making the items, grid size at full scale, grid size in smoke mode)
_BUILDERS = {
    "isoperimetric": (_isoperimetric, 1001, 101),
    "unconstrained": (_unconstrained, 1001, 101),
    "reference-ml": (_reference_ml, 1001, 51),
    "certify-ladder": (_certify_ladder, 2001, 201),
}


def make(workload: str, seed: int, workdir: Path, smoke: bool = False) -> list[Item]:
    """Write the workload's inputs for `seed` into `workdir` and return its items."""
    build, n_full, n_smoke = _BUILDERS[workload]
    workdir.mkdir(parents=True, exist_ok=True)
    return build(random.Random(f"{workload}:{seed}"), workdir, n_smoke if smoke else n_full)
