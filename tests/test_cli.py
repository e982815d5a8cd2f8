import contextlib
import hashlib
import json
import math
import subprocess
import sys
import tracemalloc
import warnings

import pytest

import fracvar.cli
import fracvar.lagrange_dsl
import fracvar.solver
import fracvar.variational
from fracvar.cli import EXIT_DOMAIN, EXIT_NOCONV, EXIT_OK, EXIT_SCHEMA, main
from fracvar.solver import solve_unconstrained


def write_problem(tmp_path, name="problem.json", **overrides):
    doc = {
        "schema": 1,
        "F": "v^2",
        "a": 0.0,
        "b": 1.0,
        "alpha": 0.5,
        "k": 1.0,
        "n": 101,
        "ya": 0.0,
        "yb": 1.0,
    }
    for key, value in overrides.items():
        if value is None:
            doc.pop(key, None)
        else:
            doc[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_unconstrained(self, tmp_path, capsys):
        path = write_problem(tmp_path, k=0.0)
        out_csv = tmp_path / "sol.csv"
        code, out, _ = run(capsys, "solve", path, "--out", out_csv)
        assert code == EXIT_OK
        summary = json.loads(out.strip())
        assert summary["converged"] is True
        assert summary["lambda"] is None
        assert summary["objective"] == pytest.approx(1.0, abs=1e-9)
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "t,y,v,el_residual"
        assert len(lines) == 102

    def test_constrained_auto_reference(self, tmp_path, capsys):
        path = write_problem(tmp_path, G="v", xi=1.0, yb="auto-reference", n=201)
        code, out, _ = run(capsys, "solve", path)
        assert code == EXIT_OK
        summary = json.loads(out.strip())
        assert summary["converged"] is True
        assert summary["lambda"] == pytest.approx(2.0, abs=5e-2)
        assert abs(summary["constraint_residual"]) <= 1e-9
        assert (tmp_path / "problem.out.csv").exists()

    def test_grid_override(self, tmp_path, capsys):
        path = write_problem(tmp_path, k=0.0)
        out_csv = tmp_path / "sol.csv"
        code, _, _ = run(capsys, "solve", path, "--n", 51, "--out", out_csv)
        assert code == EXIT_OK
        assert len(out_csv.read_text().splitlines()) == 52

    def test_nonconvergence_exit(self, tmp_path, capsys):
        path = write_problem(
            tmp_path, solver={"max_iters": 1, "grad_tol": 1e-15}, n=201
        )
        code, out, _ = run(capsys, "solve", path)
        summary = json.loads(out.strip())
        if not summary["converged"]:
            assert code == EXIT_NOCONV
        else:
            assert code == EXIT_OK

    def test_no_minimizer(self, tmp_path, capsys):
        # J = int v^2 - 30 y^2 is unbounded below (its Hessian is indefinite)
        path = write_problem(tmp_path, F="v^2 - 30*y^2", n=201)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "solve", path)
        assert code == EXIT_NOCONV
        assert "no minimizer: Hessian indefinite" in err
        assert out == ""
        assert not (tmp_path / "problem.out.csv").exists()
        assert caught == []

    @pytest.mark.parametrize("doc", [dict(F="y+v"), dict(F="v", G="v", xi=1.0)])
    def test_zero_hessian(self, tmp_path, capsys, doc):
        # F and G linear in (y, v): K is zero, so there is no Newton step
        path = write_problem(tmp_path, **doc)
        out_csv = tmp_path / "sol.csv"
        code, out, _ = run(capsys, "solve", path, "--out", out_csv)
        assert code == EXIT_NOCONV
        summary = json.loads(out.strip())
        assert summary["converged"] is False
        assert summary["iterations"] == 0
        assert len(out_csv.read_text().splitlines()) == 102

    def test_ignored_solver_keys(self, tmp_path, capsys):
        # options of the retired L-BFGS stage and multiplier search are
        # unknown keys, not silently ignored ones
        for key, value in (("memory", 10), ("line_search", "backtracking-armijo"), ("lambda_bracket", [-1e6, 1e6])):
            path = write_problem(tmp_path, k=0.0, solver={key: value})
            code, out, err = run(capsys, "solve", path)
            assert code == EXIT_SCHEMA
            assert out == "" and err == f'error: unknown solver option "{key}"\n'

    def test_integral_float_max_iters(self, tmp_path, capsys):
        path = write_problem(tmp_path, k=0.0, solver={"max_iters": 500.0})
        code, _, _ = run(capsys, "solve", path)
        assert code == EXIT_OK

    def test_determinism(self, tmp_path, capsys):
        path = write_problem(tmp_path, G="v", xi=1.0, yb="auto-reference", n=101)
        digests = []
        for i in range(2):
            out_csv = tmp_path / f"sol{i}.csv"
            code, out, _ = run(capsys, "solve", path, "--out", out_csv)
            assert code == EXIT_OK
            digests.append(
                (
                    hashlib.sha256(out_csv.read_bytes()).hexdigest(),
                    hashlib.sha256(out.encode()).hexdigest(),
                )
            )
        assert digests[0] == digests[1]


    def test_out_in_missing_directory(self, tmp_path, capsys):
        path = write_problem(tmp_path, n=11)
        # a path in a missing directory, and a path that is a directory
        for out_path in (tmp_path / "missing" / "sol.csv", tmp_path):
            code, out, err = run(capsys, "solve", path, "--out", out_path)
            assert code == EXIT_SCHEMA
            assert out == "" and err.startswith("error: cannot write output file") and err.count("\n") == 1

    def test_out_in_missing_directory_before_solving(self, tmp_path, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("solved although the output cannot be written")

        monkeypatch.setattr(fracvar.cli, "solve_unconstrained", never)
        path = write_problem(tmp_path, n=11)
        code, out, err = run(capsys, "solve", path, "--out", tmp_path / "missing" / "sol.csv")
        assert code == EXIT_SCHEMA
        assert out == "" and err.startswith("error: cannot write output file") and err.count("\n") == 1
        assert not (tmp_path / "missing").exists()


class TestSchemaErrors:
    TOO_DEEP = "error: an expression nests too deeply for Python's recursion limit\n"

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "solve", tmp_path / "absent.json")
        assert code == EXIT_SCHEMA
        assert "error:" in err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "solve", path)
        assert code == EXIT_SCHEMA

    def test_problem_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"F": "v^2\xff"}')
        code, out, err = run(capsys, "solve", path)
        assert code == EXIT_SCHEMA
        assert out == "" and err.startswith("error: problem file is not valid JSON") and err.count("\n") == 1

    def test_bad_alpha(self, tmp_path, capsys):
        # FracOrder refuses alpha outside (0, 1), and Grid an empty interval
        cases = [({"alpha": alpha}, "alpha") for alpha in (1.5, 0, 1)]
        cases += [({"a": 1.0, "b": 1.0}, "a < b"), ({"a": 2.0, "b": 1.0}, "a < b")]
        for overrides, word in cases:
            path = write_problem(tmp_path, **overrides)
            code, out, err = run(capsys, "solve", path)
            assert code == EXIT_SCHEMA
            assert out == "" and err.startswith("error:") and err.count("\n") == 1
            assert word in err

    def test_missing_key(self, tmp_path, capsys):
        path = write_problem(tmp_path, k=None)
        code, _, _ = run(capsys, "solve", path)
        assert code == EXIT_SCHEMA

    def test_expression_syntax_error(self, tmp_path, capsys):
        path = write_problem(tmp_path, F="v^^2")
        code, _, err = run(capsys, "solve", path)
        assert code == EXIT_SCHEMA
        assert "offset" in err

    def test_literal_beyond_double_range(self, tmp_path, capsys):
        # 1e999 would be an infinite coefficient, and the solve an exit 4
        path = write_problem(tmp_path, F="1e999*v^2")
        code, out, err = run(capsys, "solve", path)
        assert code == EXIT_SCHEMA
        assert out == "" and err.startswith('error: key "F": ') and err.count("\n") == 1
        assert "at offset 0" in err
        assert not (tmp_path / "problem.out.csv").exists()

    @pytest.mark.parametrize("command", ["solve", "residual", "convergence"])
    @pytest.mark.parametrize(
        "source, error",
        [
            ("+".join(["v^2"] * 3000), TOO_DEEP),
            # CPython's parser refuses more than 200 nested parentheses, the
            # pair that wraps the expression included
            ("(" * 3000 + "v^2" + ")" * 3000, "error: key \"F\": unexpected token '(' at offset 199\n"),
            ("*".join(["(1+v^2)"] * 3000), TOO_DEEP),
            ("-" * 3000 + "v^2", TOO_DEEP),
            ("^".join(["v"] * 3000), TOO_DEEP),
        ],
        ids=["3000-terms", "3000-parentheses", "3000-factors", "3000-minus", "3000-powers"],
    )
    def test_expression_nests_too_deeply(self, tmp_path, capsys, command, source, error):
        # Python's parser and the derivatives recurse once per level of the
        # tree, and CPython's parser stack overflows: these lie far past both
        # limits, whatever the recursion limit's value
        path = write_problem(tmp_path, F=source, n=3)
        traj = tmp_path / "y.csv"
        traj.write_text("t,y\n0,0\n0.5,0.5\n1,1\n", encoding="utf-8")
        extra = {"solve": ("--out", tmp_path / "sol.csv"), "residual": ("--y", traj), "convergence": ("--grids", 3, 5)}
        assert run(capsys, command, path, *extra[command]) == (EXIT_SCHEMA, "", error)
        assert not (tmp_path / "sol.csv").exists()

    def test_evaluation_nests_too_deeply(self, tmp_path, capsys, monkeypatch):
        # stands in for an expression that parses and differentiates within
        # the recursion limit, and passes it in the solve's evaluation
        def too_deep(*args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(fracvar.lagrange_dsl, "_eval", too_deep)
        path = write_problem(tmp_path, n=11)
        assert run(capsys, "solve", path) == (EXIT_SCHEMA, "", self.TOO_DEEP)
        assert not (tmp_path / "problem.out.csv").exists()

    def test_constraint_syntax_error(self, tmp_path, capsys):
        path = write_problem(tmp_path, G="y^^2", xi=1.0)
        code, out, err = run(capsys, "solve", path)
        assert code == EXIT_SCHEMA
        assert out == "" and err.startswith('error: key "G"') and err.count("\n") == 1

    def test_constraint_pairing(self, tmp_path, capsys):
        path = write_problem(tmp_path, G="v")
        code, _, _ = run(capsys, "solve", path)
        assert code == EXIT_SCHEMA

    def test_unknown_solver_option(self, tmp_path, capsys):
        path = write_problem(tmp_path, solver={"verbosity": 2})
        code, _, _ = run(capsys, "solve", path)
        assert code == EXIT_SCHEMA

    @pytest.mark.parametrize("key, value", [("extra", 5), ("Solver", {"max_iters": 1})])
    def test_unknown_key(self, tmp_path, capsys, key, value):
        # a misspelled key is refused, not run with the defaults
        path = write_problem(tmp_path, **{key: value})
        code, out, err = run(capsys, "solve", path)
        assert code == EXIT_SCHEMA
        assert out == "" and err == f'error: unknown key "{key}"\n'

    @pytest.mark.parametrize(
        "solver",
        [
            {"lambda_bracket": [1]},
            {"lambda_bracket": 5},
            {"lambda_bracket": [100, -100]},
            {"max_iters": 2.7},
            # integers beyond double range
            {"max_iters": 10**400},
            {"grad_tol": 10**400},
        ],
    )
    def test_bad_solver_option(self, tmp_path, capsys, solver):
        path = write_problem(tmp_path, G="v", xi=1.0, solver=solver)
        code, _, err = run(capsys, "solve", path)
        assert code == EXIT_SCHEMA
        assert err.startswith("error:") and err.count("\n") == 1

    def test_quiet_rejected(self, tmp_path, capsys):
        path = write_problem(tmp_path, k=0.0)
        assert run(capsys, "solve", path, "--quiet") == (EXIT_SCHEMA, "", "error: unknown option --quiet\n")

    def test_auto_reference_needs_xi(self, tmp_path, capsys):
        path = write_problem(tmp_path, yb="auto-reference")
        code, _, _ = run(capsys, "solve", path)
        assert code == EXIT_SCHEMA

    def test_seed_rejected(self, tmp_path, capsys):
        path = write_problem(tmp_path, k=0.0)
        code, _, err = run(capsys, "--seed", "42", "solve", path)
        assert code == EXIT_SCHEMA
        assert "seed" in err


class TestUsage:
    """Every usage error exits 2 from main(), never by SystemExit, with nothing
    on stdout and one line on stderr."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            ((), "no command; use one of solve, residual, reference, convergence"),
            (("bogus",), "unknown command 'bogus'; use one of solve, residual, reference, convergence"),
            (("solve", "p.json", "--quiet"), "unknown option --quiet"),
            (("reference", "--lam", "2"), "unknown option --lam"),
            (("reference", "--al", "0.5", "--k", "1", "--xi", "1", "--n", "5"), "unknown option --al"),
            (("--n", "5", "solve", "p.json"), "option --n before the command"),
            (("reference", "--k", "1", "--alpha", "0.5", "--xi", "1", "--n"), "--n expects a value"),
            (("convergence", "p.json", "--grids"), "--grids expects a value"),
            (("reference", "--k", "1", "--alpha", "0.5", "--n", "5"), "--xi is required"),
            (("residual", "p.json"), "--y is required"),
            (("solve", "p.json", "--n", "1e3"), "--n expects an integer, not '1e3'"),
            (("reference", "--k", "abc", "--alpha", "0.5", "--xi", "1", "--n", "5"), "--k expects a number, not 'abc'"),
            (("convergence", "p.json", "--grids", "51", "x"), "--grids expects integers, not '51 x'"),
            (("solve", "p.json", "extra"), "solve takes 1 argument(s), not 2"),
            (("solve",), "solve takes 1 argument(s), not 0"),
            (
                ("reference", "x", "--k", "1", "--alpha", "0.5", "--xi", "1", "--n", "5"),
                "reference takes 0 argument(s), not 1",
            ),
            (("--seed", "42", "solve", "p.json"), "--seed is not accepted; nothing in this tool is stochastic"),
        ],
        ids=[
            "no-command", "unknown-command", "quiet", "abbreviation-lam", "abbreviation-al", "option-first",
            "no-value", "no-grids", "required-option", "required-y", "n-1e3", "k-abc", "grids-x", "extra-positional",
            "missing-positional", "reference-positional", "seed",
        ],
    )
    def test_usage_error(self, capsys, argv, message):
        assert run(capsys, *argv) == (EXIT_SCHEMA, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [("-h",), ("--help",), ("solve", "--help")])
    def test_help(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines() == [
            "usage:",
            "  fracvar solve FILE [--out OUT] [--n N]",
            "  fracvar residual FILE --y Y [--lambda LAMBDA] [--n N]",
            "  fracvar reference --k K --alpha ALPHA --xi XI --n N [--b B] [--out OUT]",
            "  fracvar convergence FILE --grids N [N ...]",
        ]

    def test_negative_values_with_exponents(self, tmp_path, capsys):
        # an option takes the next token as its value, so "--k -1e-3" reads
        # as "--k=-1e-3" does, in stdout and in the CSV
        outs = []
        for spelling in (["--k", "-1e-3", "--xi", "-1e-3"], ["--k=-1e-3", "--xi=-1e-3"]):
            csv_path = tmp_path / f"ref{len(outs)}.csv"
            outs.append(run(capsys, "reference", *spelling, "--alpha", 0.5, "--n", 11, "--out", csv_path))
            outs.append(csv_path.read_bytes())
            outs.append(run(capsys, "reference", *spelling, "--alpha", 0.5, "--n", 11))
        assert outs[:3] == outs[3:] and outs[0][0] == EXIT_OK
        assert json.loads(outs[0][1])["boundary_value"] < 0.0

        path = write_problem(tmp_path, G="v", xi=1.0, n=11)
        traj = tmp_path / "y.csv"
        run(capsys, "solve", path, "--out", traj)
        spaced = run(capsys, "residual", path, "--y", traj, "--lambda", "-2e0")
        assert spaced == run(capsys, "residual", path, "--y", traj, "--lambda=-2e0")
        assert spaced[0] == EXIT_OK and spaced != run(capsys, "residual", path, "--y", traj, "--lambda", "2e0")


class TestNonFiniteInputs:
    def test_nan_xi(self, tmp_path, capsys):
        path = write_problem(tmp_path, G="v", xi=float("nan"))
        code, out, err = run(capsys, "solve", path)
        assert code == EXIT_SCHEMA
        assert out == ""
        assert '"xi"' in err

    @pytest.mark.parametrize(
        "key, value",
        [("k", math.inf), ("b", math.inf), ("a", -math.inf), pytest.param("k", 10**400, id="k-10**400")],
    )
    def test_infinite_number(self, tmp_path, capsys, key, value):
        path = write_problem(tmp_path, **{key: value})
        code, _, err = run(capsys, "solve", path)
        assert code == EXIT_SCHEMA
        assert f'"{key}"' in err

    def test_boolean_number(self, tmp_path, capsys):
        path = write_problem(tmp_path, k=True)
        code, _, err = run(capsys, "solve", path)
        assert code == EXIT_SCHEMA
        assert '"k"' in err

    def test_reference_infinite_k(self, capsys):
        code, _, err = run(capsys, "reference", "--k", "inf", "--alpha", 0.5, "--xi", 1.0, "--n", 9)
        assert code == EXIT_SCHEMA
        assert err.startswith("error:")

    def test_reference_infinite_xi(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "reference", "--k", 1.0, "--alpha", 0.5, "--xi", "inf", "--n", 9)
        assert code == EXIT_SCHEMA
        assert err.startswith("error:")


class TestDomainErrors:
    def test_log_domain_violation(self, tmp_path, capsys):
        # log(y) with ya = 0 is evaluated at a nonpositive argument
        path = write_problem(tmp_path, F="log(y)", k=0.0, ya=-1.0, yb=-2.0)
        code, _, err = run(capsys, "solve", path)
        assert code == EXIT_DOMAIN
        assert "log" in err

    def test_out_of_memory(self, tmp_path, capsys, monkeypatch):
        # stands in for an n whose GL weights do not fit in memory
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(fracvar.variational, "assemble_frac_operator", no_memory)
        path = write_problem(tmp_path)
        code, _, err = run(capsys, "solve", path)
        assert code == EXIT_DOMAIN
        assert err.startswith("error: out of memory")
        assert err.count("\n") == 1
        assert not (tmp_path / "problem.out.csv").exists()

    def test_n_too_large_to_index(self, tmp_path, capsys):
        # refused before any array of n values is made
        path = write_problem(tmp_path, n=10**400)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "solve", path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_DOMAIN
        assert out == "" and err.startswith("error: out of memory") and err.count("\n") == 1
        assert not (tmp_path / "problem.out.csv").exists()
        assert peak < 10 * 2**20

    def test_solve_refused_up_front(self, tmp_path, capsys, monkeypatch):
        # stands in for a machine without room for a solve's arrays of n
        # values: the solve is refused before it makes them
        monkeypatch.setattr(fracvar.solver, "_memory_available", lambda: 1e3)
        path = write_problem(tmp_path, G="v", xi=1.0, yb="auto-reference")
        code, out, err = run(capsys, "solve", path)
        assert code == EXIT_DOMAIN
        assert out == "" and err.startswith("error: out of memory: a solve at n = 101 holds") and err.count("\n") == 1
        assert not (tmp_path / "problem.out.csv").exists()

    @pytest.mark.parametrize(
        "command, what, mb",
        [("reference", "a reference", 8), ("residual", "a residual check", 18)],
    )
    def test_reference_and_residual_refused_up_front(self, tmp_path, capsys, monkeypatch, command, what, mb):
        # room for 1 MB: refused before the extremal is evaluated or the
        # trajectory CSV is read, and no CSV is written
        n = 100_001
        monkeypatch.setattr(fracvar.solver, "_memory_available", lambda: 2.0**20)
        monkeypatch.setattr(fracvar.cli, "ml_convolution_extremal", lambda *args: pytest.fail("the extremal was made"))
        monkeypatch.setattr(fracvar.cli, "_read_trajectory_csv", lambda *args: pytest.fail("the CSV was read"))
        out_csv = tmp_path / "out.csv"
        if command == "reference":
            argv = ["reference", "--k", 1, "--alpha", 0.5, "--xi", 1, "--n", n, "--out", out_csv]
        else:
            path = write_problem(tmp_path, G="v", xi=1.0, yb="auto-reference", n=n)
            argv = ["residual", path, "--y", out_csv, "--lambda", 2]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_DOMAIN
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: out of memory: {what} at n = {n} holds about {mb} MB of arrays of n doubles")
        assert "and 1 MB are available" in err
        assert not out_csv.exists()

    def test_convergence_refused_up_front(self, tmp_path, capsys, monkeypatch):
        # room for the largest solve, but not for it and one y for each grid:
        # the study is refused before its first solve
        sizes = (90_001, 95_001, 100_001)
        room = (fracvar.solver._ARRAYS_PER_SOLVE + 1) * 8.0 * sizes[-1]
        monkeypatch.setattr(fracvar.solver, "_memory_available", lambda: room)
        for solve in ("solve_unconstrained", "solve_isoperimetric"):
            monkeypatch.setattr(fracvar.cli, solve, lambda *args: pytest.fail("a solve ran"))
        path = write_problem(tmp_path, G="v", xi=1.0, yb="auto-reference")
        code, out, err = run(capsys, "convergence", path, "--grids", *sizes)
        assert code == EXIT_DOMAIN
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: out of memory: a convergence study at n = 100001 holds about 33 MB of arrays")

    def test_auto_reference_overflows(self, tmp_path, capsys):
        # y(b) of the reference extremal is beyond double precision: the
        # user gave no yb, so the error names the reference, not the BCs
        path = write_problem(tmp_path, G="v", k=-3.0, xi=1e308, n=11, yb="auto-reference")
        code, out, err = run(capsys, "solve", path)
        assert code == EXIT_DOMAIN
        assert out == "" and err.startswith("error: reference extremal overflows at t = ") and err.count("\n") == 1
        assert not (tmp_path / "problem.out.csv").exists()


class TestResidual:
    def test_n_too_large_to_index(self, tmp_path, capsys):
        # refused before the CSV is read or any array of n values is made; a
        # residual holds O(n), so the message does not blame dense arrays
        path = write_problem(tmp_path, n=10**400)
        y_csv = tmp_path / "y.csv"
        y_csv.write_text("t,y\n0,0\n0.5,0.5\n1,1\n", encoding="utf-8")
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "residual", path, "--y", y_csv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_DOMAIN
        assert out == "" and err.startswith("error: out of memory") and err.count("\n") == 1
        assert " n " in err and "dense" not in err
        assert peak < 10 * 2**20

    @pytest.mark.parametrize(
        "doc", [dict(k=0.0), dict(G="v", xi=1.0, k=-0.5, ya=0.3, n=201)], ids=["unconstrained", "constrained-ya"]
    )
    def test_round_trip(self, tmp_path, capsys, doc):
        # residual of a solve's own trajectory, under the multiplier the solve
        # printed, must reproduce the solve's norm; at ya != 0 both read v
        # with the boundary column
        path = write_problem(tmp_path, **doc)
        out_csv = tmp_path / "sol.csv"
        code, out, _ = run(capsys, "solve", path, "--out", out_csv)
        assert code == EXIT_OK
        summary = json.loads(out.strip())
        el_norm = summary["el_norm"]
        lam = () if summary["lambda"] is None else ("--lambda", summary["lambda"])
        code, out, _ = run(capsys, "residual", path, "--y", out_csv, *lam)
        assert code == EXIT_OK
        report = json.loads(out.strip())
        assert report["norm_max_interior"] == pytest.approx(el_norm, rel=1e-12, abs=1e-15)
        assert report["norm_l2_interior"] <= report["norm_max_interior"]

    def test_constrained_requires_lambda(self, tmp_path, capsys):
        path = write_problem(tmp_path, G="v", xi=1.0, n=51)
        out_csv = tmp_path / "sol.csv"
        run(capsys, "solve", path, "--out", out_csv)
        code, _, err = run(capsys, "residual", path, "--y", out_csv)
        assert code == EXIT_SCHEMA
        assert "lambda" in err
        for lam in ("nan", "inf", "-inf"):
            code, out, err = run(capsys, "residual", path, "--y", out_csv, f"--lambda={lam}")
            assert code == EXIT_SCHEMA
            assert out == "" and err == "error: --lambda must be a finite number\n"

    def test_with_lambda(self, tmp_path, capsys):
        path = write_problem(tmp_path, G="v", xi=1.0, yb="auto-reference", n=101)
        out_csv = tmp_path / "sol.csv"
        code, out, _ = run(capsys, "solve", path, "--out", out_csv)
        lam = json.loads(out.strip())["lambda"]
        code, out, _ = run(capsys, "residual", path, "--y", out_csv, "--lambda", lam)
        assert code == EXIT_OK
        assert "norm_max_interior" in json.loads(out.strip())
        # a finite multiplier or node value whose residual overflows
        lines = out_csv.read_text().splitlines()
        lines[50] = ",".join([lines[50].split(",")[0], "1e308"])
        big = tmp_path / "big.csv"
        big.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for traj, multiplier in ((out_csv, 1e308), (big, lam)):
            code, out, err = run(capsys, "residual", path, "--y", traj, "--lambda", multiplier)
            assert code == EXIT_DOMAIN
            assert out == "" and err.startswith("error: overflow") and err.count("\n") == 1

    def test_unconstrained_refuses_lambda(self, tmp_path, capsys):
        path = write_problem(tmp_path, k=0.0, n=11)
        out_csv = tmp_path / "sol.csv"
        run(capsys, "solve", path, "--out", out_csv)
        code, out, err = run(capsys, "residual", path, "--y", out_csv, "--lambda", 1)
        assert code == EXIT_SCHEMA
        assert out == "" and err.startswith("error:") and err.count("\n") == 1

    def test_wrong_grid(self, tmp_path, capsys):
        path = write_problem(tmp_path, k=0.0)
        out_csv = tmp_path / "sol.csv"
        run(capsys, "solve", path, "--n", 51, "--out", out_csv)
        code, _, _ = run(capsys, "residual", path, "--y", out_csv)
        assert code == EXIT_SCHEMA

    @pytest.mark.parametrize("a, b", [(-1e6, 0.0), (0.0, 1e6)])
    def test_t_tolerance_scales_with_the_interval(self, tmp_path, capsys, a, b):
        # every t off by 1e-7, 1e-13 of the interval's scale, is read as the
        # grid's on either side of 0
        path = write_problem(tmp_path, a=a, b=b, k=0.0, n=3)
        exact, shifted = tmp_path / "exact.csv", tmp_path / "shifted.csv"
        for traj, dt in ((exact, 0.0), (shifted, 1e-7)):
            rows = "".join(f"{t + dt!r},{y!r}\n" for t, y in zip((a, (a + b) / 2, b), (0.0, 0.5, 1.0)))
            traj.write_text("t,y\n" + rows, encoding="utf-8")
        outs = [run(capsys, "residual", path, "--y", traj) for traj in (exact, shifted)]
        assert outs[0] == outs[1] and outs[0][0] == EXIT_OK

    def test_row_without_y(self, tmp_path, capsys):
        path = write_problem(tmp_path, k=0.0, n=3)
        traj = tmp_path / "y.csv"
        traj.write_text("t,y\n0,0\n0.5\n1,1\n", encoding="utf-8")
        code, out, err = run(capsys, "residual", path, "--y", traj)
        assert code == EXIT_SCHEMA
        assert out == "" and err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "trajectory CSV is empty"),
            ("t,y\n0,0\n0.6,0.5\n1,1\n", "t column does not match"),
            (None, "cannot read trajectory CSV"),
        ],
        ids=["empty", "off-grid", "missing"],
    )
    def test_unusable_trajectory_csv(self, tmp_path, capsys, text, message):
        path = write_problem(tmp_path, k=0.0, n=3)
        traj = tmp_path / "y.csv"
        if text is not None:
            traj.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "residual", path, "--y", traj)
        assert code == EXIT_SCHEMA
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert message in err


    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "error: trajectory CSV is empty\n"),
            ("\n0,0\n0.5,0.5\n1,1\n", "error: CSV must have columns t,y\n"),
            ("t\n0\n0.5\n1\n", "error: CSV must have columns t,y\n"),
            ("t,y\n", "error: CSV has 0 rows but the grid has 3 nodes\n"),
            ("t,y\n0,0\n1,1\n", "error: CSV has 2 rows but the grid has 3 nodes\n"),
            ("t,y\n0,0\n0.5\n1,1\n0,0\n", "error: trajectory CSV: line 3: no y value\n"),
            ("t,y\n0,0\n0.5\n1,1\n", "error: trajectory CSV: line 3: no y value\n"),
            ("t,y\n0,0\n0.5,abc\n1,1\n", "error: trajectory CSV: line 3: y value 'abc' is not a number\n"),
            ("t,y\n0,0\n0.5,0.5\n1,1_0\n", "error: trajectory CSV: line 4: y value '1_0' is not a number\n"),
            ("t,y\n\n0,0\n\n,0.5\n1,1\n", "error: trajectory CSV: line 5: no t value\n"),
            ("t,y\n0,0\n0.6,0.5\n1,1\n", "error: CSV t column does not match the problem grid\n"),
        ],
        ids=[
            "empty", "blank-header", "one-column", "no-rows", "few-rows", "many-rows", "short-row", "not-a-number",
            "python-only-spelling", "blank-lines", "off-grid",
        ],
    )
    def test_trajectory_csv_messages(self, tmp_path, capsys, text, message):
        # every fault is named in one line; a row numpy cannot parse by its
        # line in the file, counting the header and blank lines
        path = write_problem(tmp_path, k=0.0, n=3)
        traj = tmp_path / "y.csv"
        traj.write_text(text, encoding="utf-8")
        assert run(capsys, "residual", path, "--y", traj) == (EXIT_SCHEMA, "", message)

    def test_trajectory_csv_forms_a_row_reader_accepts(self, tmp_path, capsys):
        # quoted fields, a blank line, extra columns and CRLF line ends read
        # as the plain file does
        path = write_problem(tmp_path, k=0.0, n=3)
        plain, odd = tmp_path / "plain.csv", tmp_path / "odd.csv"
        plain.write_text("t,y\n0,0\n0.5,0.5\n1,10\n", encoding="utf-8")
        odd.write_bytes(b't,y,v\r\n0,0,9\r\n\r\n"0.5","0.5",x\r\n1,10,\r\n')
        outs = [run(capsys, "residual", path, "--y", traj) for traj in (plain, odd)]
        assert outs[0] == outs[1] and outs[0][0] == EXIT_OK

    def test_more_rows_than_the_grid_are_not_read(self, tmp_path, capsys):
        # the reader stops one row past the grid, so a file ten grids long
        # costs what one grid does
        n = 20_001
        path = write_problem(tmp_path, k=0.0, n=n)
        rows = "".join(f"{t!r},{t!r}\n" for t in fracvar.cli.Grid(0.0, 1.0, n).nodes().tolist())
        traj = tmp_path / "y.csv"
        traj.write_text("t,y\n" + 10 * rows, encoding="utf-8")
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "residual", path, "--y", traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (EXIT_SCHEMA, "")
        assert err == f"error: CSV has more than {n} rows but the grid has {n} nodes\n"
        assert peak <= 5 * 8 * n

    def test_trajectory_csv_not_utf8(self, tmp_path, capsys):
        path = write_problem(tmp_path, k=0.0, n=3)
        traj = tmp_path / "y.csv"
        traj.write_bytes(b"t,y\n0,0\n0.5,0.5\xff\n1,1\n")
        code, out, err = run(capsys, "residual", path, "--y", traj)
        assert code == EXIT_SCHEMA
        assert out == "" and err.startswith("error: cannot read trajectory CSV") and err.count("\n") == 1


class TestReference:
    def test_stdout_csv(self, capsys):
        code, out, _ = run(
            capsys, "reference", "--k", 1.0, "--alpha", 0.5, "--xi", 1.0, "--n", 11
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "t,y"
        assert len(lines) == 13  # header + 11 nodes + JSON summary
        summary = json.loads(lines[-1])
        assert summary["boundary_value"] == pytest.approx(0.5559627432513196, abs=1e-8)

    def test_k_zero(self, capsys):
        code, out, _ = run(
            capsys, "reference", "--k", 0.0, "--alpha", 0.3, "--xi", 2.0, "--n", 5
        )
        assert code == EXIT_OK
        rows = out.strip().splitlines()[1:-1]
        last = rows[-1].split(",")
        assert float(last[0]) == 1.0
        assert float(last[1]) == pytest.approx(2.0, abs=1e-12)

    def test_bad_alpha(self, capsys):
        # and b = 0, an empty interval from a = 0
        for alpha, b in ((2.0, 1.0), (0.0, 1.0), (0.5, 0.0)):
            code, out, err = run(
                capsys, "reference", "--k", 1.0, "--alpha", alpha, "--xi", 1.0, "--n", 11, "--b", b
            )
            assert code == EXIT_SCHEMA
            assert out == "" and err.startswith("error:") and err.count("\n") == 1

    def test_too_few_nodes(self, tmp_path, capsys):
        code, out, err = run(capsys, "reference", "--k", 1.0, "--alpha", 0.5, "--xi", 1.0, "--n", 2)
        assert code == EXIT_SCHEMA
        assert out == "" and err.startswith("error: n must be >= 3") and err.count("\n") == 1
        # the same check, through a problem file and through --n
        for n, extra, message in (
            (2, (), "error: n must be >= 3"),
            (True, (), 'error: "n" must be an integer'),
            (11, ("--n", 2), "error: n must be >= 3"),
        ):
            path = write_problem(tmp_path, n=n)
            code, out, err = run(capsys, "solve", path, *extra)
            assert code == EXIT_SCHEMA
            assert out == "" and err.startswith(message) and err.count("\n") == 1

    def test_n_too_large_to_index(self, tmp_path, capsys):
        # refused before any array of n values is made; a reference holds
        # O(n), so the message does not blame the dense operators
        out_csv = tmp_path / "ref.csv"
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "reference", "--k", 1, "--alpha", 0.5, "--xi", 1, "--n", 10**400, "--out", out_csv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_DOMAIN
        assert out == "" and err.startswith("error: out of memory") and err.count("\n") == 1
        assert " n " in err and "dense" not in err
        assert not out_csv.exists()
        assert peak < 10 * 2**20

    def test_positive_argument_peak_past_256_terms(self, capsys):
        # k < 0 makes the Mittag-Leffler argument positive; at t = 0.3 it is
        # E_{0.3,2}(3.48423...), whose terms peak at j = 209 and converge
        # within the term budget
        code, out, _ = run(capsys, "reference", "--alpha", 0.7, "--k", -5, "--xi", 1, "--n", 11)
        assert code == EXIT_OK
        row = out.strip().splitlines()[4].split(",")
        assert float(row[0]) == pytest.approx(0.3, abs=1e-15)
        # oracle: t * E_{1-alpha,2}(-k t^(1-alpha)) at the node's double
        # values, the series summed in 60-digit arithmetic
        assert float(row[1]) == pytest.approx(1.1008309958963422e26, rel=1e-12)

    def test_first_parameter_near_zero(self, capsys):
        # k < 0 makes the Mittag-Leffler argument positive; at alpha = 0.999
        # and t = 1 it is E_{0.001,2}(1), whose series converges too slowly
        # to sum directly
        code, out, _ = run(capsys, "reference", "--alpha", 0.999, "--k", -1, "--xi", 1, "--n", 9)
        assert code == EXIT_OK
        row = out.strip().splitlines()[-2].split(",")
        assert float(row[0]) == 1.0
        # oracle: the series of E_{0.001,2}(1) summed in 40-digit arithmetic
        assert float(row[1]) == pytest.approx(1181.8918785744083, rel=1e-12)

    def test_out_in_missing_directory(self, tmp_path, capsys):
        # a path in a missing directory, and a path that is a directory
        for out in (tmp_path / "missing" / "ref.csv", tmp_path):
            code, stdout, err = run(capsys, "reference", "--k", 1, "--alpha", 0.5, "--xi", 1, "--n", 11, "--out", out)
            assert code == EXIT_SCHEMA
            assert stdout == "" and err.startswith("error: cannot write output file") and err.count("\n") == 1

    def test_out_in_missing_directory_before_computing(self, tmp_path, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("computed although the output cannot be written")

        monkeypatch.setattr(fracvar.cli, "ml_convolution_extremal", never)
        out = tmp_path / "missing" / "ref.csv"
        code, stdout, err = run(capsys, "reference", "--k", 1, "--alpha", 0.5, "--xi", 1, "--n", 11, "--out", out)
        assert code == EXIT_SCHEMA
        assert stdout == "" and err.startswith("error: cannot write output file") and err.count("\n") == 1
        assert not (tmp_path / "missing").exists()

    def test_overflow(self, capsys):
        # at t = 1 the value is about e^(5^10)
        code, out, err = run(capsys, "reference", "--alpha", 0.9, "--k", -5, "--xi", 1, "--n", 9)
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Mittag-Leffler" in err

    def test_more_than_2_20_terms(self, capsys):
        # E_{1e-5,2}(1): the positive series needs about 20 / 1e-5 terms
        code, out, err = run(capsys, "reference", "--alpha", 0.99999, "--k", -1, "--xi", 1, "--n", 5)
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "more than 2^20 terms" in err

    @pytest.mark.parametrize("k, code", [(-1e308, EXIT_DOMAIN), (1e308, EXIT_OK)])
    def test_infinite_argument(self, capsys, k, code):
        # -k t^(1-alpha) overflows to +inf, whose value overflows, or to -inf,
        # where E_{1-alpha,2} is 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got, out, err = run(capsys, "reference", "--alpha", 0.5, f"--k={k!r}", "--xi", 1, "--n", 5, "--b", 1e10)
        assert got == code
        assert caught == []
        if code == EXIT_OK:
            assert err == ""
            assert [float(line.split(",")[1]) for line in out.splitlines()[1:6]] == [0.0] * 5
        else:
            assert out == "" and err.count("\n") == 1
            assert "E_{0.5,2}(inf) overflows" in err

    def test_overflowing_extremal(self, tmp_path, capsys):
        # every Mittag-Leffler value is finite, but xi * t * E is not
        out_csv = tmp_path / "ref.csv"
        argv = ("reference", "--alpha", 0.5, "--k", -3, "--xi", 1e308, "--n", 5)
        for extra in ((), ("--out", out_csv)):
            code, out, err = run(capsys, *argv, *extra)
            assert code == EXIT_DOMAIN
            assert out == "" and err.startswith("error: reference extremal overflows at t = ") and err.count("\n") == 1
        assert not out_csv.exists()


class TestConvergence:
    @pytest.mark.parametrize("b", [1.0, 0.5, 2.0])
    def test_reference_family(self, tmp_path, capsys, b):
        # the reference extremal meets the constraint on [0, b], so the
        # solves converge to it at first order
        path = write_problem(tmp_path, G="v", xi=1.0, b=b, yb="auto-reference")
        code, out, _ = run(capsys, "convergence", path, "--grids", 101, 201, 401)
        assert code == EXIT_OK
        report = json.loads(out.strip())
        errors = [entry["error"] for entry in report["entries"]]
        assert errors[0] > errors[1] > errors[2]
        assert all(order is not None and order >= 0.85 for order in report["orders"])

    def test_reference_family_by_structure(self, tmp_path, capsys):
        # "(v)^2" parses to the same expression as "v^2", so the reference
        # extremal is used and the finest grid is not compared with itself
        path = write_problem(tmp_path, F="(v)^2", G="v", xi=1.0, yb="auto-reference")
        code, out, _ = run(capsys, "convergence", path, "--grids", 101, 201)
        assert code == EXIT_OK
        assert json.loads(out.strip())["entries"][-1]["error"] > 0.0

    @pytest.mark.parametrize("f", ["v^4", "exp(v)", "sqrt(1+v^2)"])
    def test_reference_for_every_f_of_v(self, tmp_path, capsys, f):
        # v = xi / b is the extremal of every F(v) with G = v, so these solves
        # are measured against the reference, not the finest grid
        path = write_problem(tmp_path, F=f, G="v", xi=1.0, yb="auto-reference")
        code, out, _ = run(capsys, "convergence", path, "--grids", 251, 501, 1001, 2001)
        assert code == EXIT_OK
        report = json.loads(out.strip())
        assert report["entries"][-1]["error"] > 0.0
        assert all(order >= 0.9 for order in report["orders"]), report

    @pytest.mark.parametrize("f", ["t*v^2", "v^2+y^2"])
    def test_no_reference_where_f_reads_t_or_y(self, tmp_path, capsys, f):
        # with t or y in F, v = xi / b is no extremal: the finest grid is the reference
        path = write_problem(tmp_path, F=f, G="v", xi=1.0, yb="auto-reference")
        code, out, _ = run(capsys, "convergence", path, "--grids", 101, 201, 401)
        assert code == EXIT_OK
        assert json.loads(out.strip())["entries"][-1]["error"] == 0.0

    def test_self_convergence(self, tmp_path, capsys):
        path = write_problem(tmp_path, F="v^2 + y^2", k=0.5, alpha=0.3)
        code, out, _ = run(capsys, "convergence", path, "--grids", 51, 101, 201)
        assert code == EXIT_OK
        report = json.loads(out.strip())
        assert report["entries"][-1]["error"] == 0.0

    def test_unconstrained_v2_self_convergence(self, tmp_path, capsys):
        # without G the affine interpolant is the extremal of F = v^2 only at
        # k = 0, so the finest grid is the reference
        path = write_problem(tmp_path, F="v^2", k=1.0, alpha=0.5)
        code, out, _ = run(capsys, "convergence", path, "--grids", 51, 101, 201)
        assert code == EXIT_OK
        report = json.loads(out.strip())
        assert report["entries"][-1]["error"] == 0.0

    def test_unconverged_solve_stops(self, tmp_path, capsys):
        # an unconverged solve is not data: no errors or orders are printed
        path = write_problem(tmp_path, F="v^4+y^2", k=0.7, alpha=0.3, solver={"max_iters": 1})
        code, out, err = run(capsys, "convergence", path, "--grids", 51, 101, 201)
        assert code == EXIT_NOCONV
        assert out == "" and err == "error: the solve at n=51 did not converge\n"

    def test_needs_two_grids(self, tmp_path, capsys):
        path = write_problem(tmp_path)
        code, _, _ = run(capsys, "convergence", path, "--grids", 101)
        assert code == EXIT_SCHEMA

    def test_repeated_grid_sizes(self, tmp_path, capsys):
        path = write_problem(tmp_path)
        code, out, err = run(capsys, "convergence", path, "--grids", 101, 101)
        assert code == EXIT_SCHEMA
        assert out == "" and err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("ya, yb", [(0.0, 2.0), (0.3, "auto-reference")])
    def test_reference_needs_its_boundary_values(self, tmp_path, capsys, ya, yb):
        # the reference extremal runs from y(0) = 0 to its own y(b); with other
        # boundary values the finest grid is the reference, so its error is 0
        path = write_problem(tmp_path, G="v", xi=1.0, ya=ya, yb=yb)
        code, out, _ = run(capsys, "convergence", path, "--grids", 101, 201, 401)
        assert code == EXIT_OK
        report = json.loads(out.strip())
        assert report["entries"][-1]["error"] == 0.0
        assert all(order > 0.5 for order in report["orders"][:-1])


class TestMemoryPeaks:
    """Each whole command's tracemalloc peak at n = 100001 lies within the
    budget its memory check assumes: the CSV text is written a block of rows
    at a time and read by np.loadtxt a chunk of rows at a time, so the peak is
    the command's arrays."""

    N = 100_001

    @staticmethod
    def peak(tmp_path, *argv):
        """The command's exit code and tracemalloc peak in arrays of N doubles;
        its stdout goes to the file stdout.txt."""
        with open(tmp_path / "stdout.txt", "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            tracemalloc.start()
            try:
                code = main([str(a) for a in argv])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return code, peak / (8 * TestMemoryPeaks.N)

    @pytest.fixture(scope="class")
    def criterion_four(self, tmp_path_factory):
        """The criterion-4 problem solved at N nodes: its file, its CSV and the solve's peak."""
        tmp = tmp_path_factory.mktemp("criterion4")
        path = write_problem(tmp, G="v", xi=1.0, yb="auto-reference", n=self.N)
        code, peak = self.peak(tmp, "solve", path, "--out", tmp / "sol.csv")
        assert code == EXIT_OK
        return path, tmp / "sol.csv", peak

    def test_solve(self, criterion_four):
        assert criterion_four[2] <= fracvar.solver._ARRAYS_PER_SOLVE

    @pytest.mark.parametrize("k, to_stdout", [(1, False), (-1, True)])
    def test_reference(self, tmp_path, k, to_stdout):
        out = () if to_stdout else ("--out", tmp_path / "ref.csv")
        code, peak = self.peak(tmp_path, "reference", "--alpha", 0.9, f"--k={k}", "--xi", 1, "--n", self.N, *out)
        assert code == EXIT_OK
        assert peak <= fracvar.cli._ARRAYS_PER_REFERENCE
        # a header and N rows, and on stdout the JSON line after them
        text = (tmp_path / ("stdout.txt" if to_stdout else "ref.csv")).read_text(encoding="utf-8")
        assert text.count("\n") == self.N + 1 + to_stdout

    def test_residual(self, tmp_path, criterion_four):
        path, sol_csv, _ = criterion_four
        code, peak = self.peak(tmp_path, "residual", path, "--y", sol_csv, "--lambda", 2)
        assert code == EXIT_OK
        assert peak <= fracvar.cli._ARRAYS_PER_RESIDUAL

    def test_convergence(self, tmp_path):
        # the largest solve, and one y for each grid
        sizes = (90_001, 95_001, self.N)
        path = write_problem(tmp_path, G="v", xi=1.0, yb="auto-reference")
        code, peak = self.peak(tmp_path, "convergence", path, "--grids", *sizes)
        assert code == EXIT_OK
        assert peak <= fracvar.solver._ARRAYS_PER_SOLVE + sum(sizes) / self.N


class TestCsvBlocks:
    def test_reference_stdout_is_its_file(self, tmp_path, capsys):
        # 8193 rows: two whole blocks of 4096 rows and one row more
        argv = ("reference", "--alpha", 0.5, "--k", 1, "--xi", 1, "--n", 8193)
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        code, summary, _ = run(capsys, *argv, "--out", tmp_path / "ref.csv")
        assert code == EXIT_OK
        text = (tmp_path / "ref.csv").read_bytes().decode("utf-8")
        assert out == text + summary
        # no row is lost or repeated where one block meets the next
        assert [float(line.split(",")[0]) for line in text.splitlines()[1:]] == [i / 8192 for i in range(8193)]

    def test_solve_csv_is_its_columns(self, tmp_path, capsys):
        # 4097 rows: one whole block and one row more, each value "%.17g" of its double
        path = write_problem(tmp_path, F="v^2+y^2", n=4097)
        code, _, _ = run(capsys, "solve", path, "--out", tmp_path / "sol.csv")
        assert code == EXIT_OK
        p = fracvar.cli._build_problem(fracvar.cli._load_problem_file(str(path)))
        sol = solve_unconstrained(p)
        columns = (p.grid.nodes(), sol.y.values, sol.v.values, sol.residual.values.values)
        rows = zip(*(col.tolist() for col in columns))
        want = "t,y,v,el_residual\n" + "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in rows)
        assert (tmp_path / "sol.csv").read_bytes().decode("utf-8") == want


class TestClosedStdout:
    """A reader that closes stdout ends the command with exit 2 and one line on
    stderr, whether it closes amid the CSV rows or before the JSON line."""

    @staticmethod
    def start(*argv):
        argv = [sys.executable, "-m", "fracvar.cli", *map(str, argv)]
        return subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    @staticmethod
    def finish(proc):
        err = proc.stderr.read().decode("utf-8")
        assert proc.wait(timeout=120) == EXIT_SCHEMA
        assert err == "error: cannot write to stdout: [Errno 32] Broken pipe\n"

    def test_closed_after_the_first_line(self):
        proc = self.start("reference", "--alpha", 0.5, "--k", 1, "--xi", 1, "--n", 100_001)
        assert proc.stdout.readline() == b"t,y\n"
        proc.stdout.close()
        self.finish(proc)

    def test_closed_before_the_json_line(self, tmp_path):
        proc = self.start("solve", write_problem(tmp_path, n=51), "--out", tmp_path / "sol.csv")
        proc.stdout.close()
        self.finish(proc)
        assert (tmp_path / "sol.csv").exists()
