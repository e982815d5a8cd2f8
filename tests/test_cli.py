import hashlib
import json
import warnings

import pytest

from fracvar.cli import EXIT_DOMAIN, EXIT_NOCONV, EXIT_OK, EXIT_SCHEMA, main


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

    def test_ignored_solver_keys(self, tmp_path, capsys):
        path = write_problem(
            tmp_path, k=0.0, solver={"memory": 10, "line_search": "backtracking-armijo"}
        )
        code, _, err = run(capsys, "solve", path)
        assert code == EXIT_OK
        assert err.count("note:") == 2
        assert '"memory"' in err and '"line_search"' in err

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


class TestSchemaErrors:
    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "solve", tmp_path / "absent.json")
        assert code == EXIT_SCHEMA
        assert "error:" in err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "solve", path)
        assert code == EXIT_SCHEMA

    def test_bad_alpha(self, tmp_path, capsys):
        path = write_problem(tmp_path, alpha=1.5)
        code, _, err = run(capsys, "solve", path)
        assert code == EXIT_SCHEMA
        assert "alpha" in err

    def test_missing_key(self, tmp_path, capsys):
        path = write_problem(tmp_path, k=None)
        code, _, _ = run(capsys, "solve", path)
        assert code == EXIT_SCHEMA

    def test_expression_syntax_error(self, tmp_path, capsys):
        path = write_problem(tmp_path, F="v^^2")
        code, _, err = run(capsys, "solve", path)
        assert code == EXIT_SCHEMA
        assert "offset" in err

    def test_constraint_pairing(self, tmp_path, capsys):
        path = write_problem(tmp_path, G="v")
        code, _, _ = run(capsys, "solve", path)
        assert code == EXIT_SCHEMA

    def test_unknown_solver_option(self, tmp_path, capsys):
        path = write_problem(tmp_path, solver={"verbosity": 2})
        code, _, _ = run(capsys, "solve", path)
        assert code == EXIT_SCHEMA

    @pytest.mark.parametrize(
        "solver",
        [
            {"lambda_bracket": [1]},
            {"lambda_bracket": 5},
            {"lambda_bracket": [100, -100]},
            {"max_iters": 2.7},
        ],
    )
    def test_bad_solver_option(self, tmp_path, capsys, solver):
        path = write_problem(tmp_path, G="v", xi=1.0, solver=solver)
        code, _, err = run(capsys, "solve", path)
        assert code == EXIT_SCHEMA
        assert "error:" in err

    def test_quiet_rejected(self, tmp_path, capsys):
        path = write_problem(tmp_path, k=0.0)
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(path), "--quiet"])
        assert exc.value.code == EXIT_SCHEMA

    def test_auto_reference_needs_xi(self, tmp_path, capsys):
        path = write_problem(tmp_path, yb="auto-reference")
        code, _, _ = run(capsys, "solve", path)
        assert code == EXIT_SCHEMA

    def test_seed_rejected(self, tmp_path, capsys):
        path = write_problem(tmp_path, k=0.0)
        code, _, err = run(capsys, "--seed", "42", "solve", path)
        assert code == EXIT_SCHEMA
        assert "seed" in err


class TestDomainErrors:
    def test_log_domain_violation(self, tmp_path, capsys):
        # log(y) with ya = 0 is evaluated at a nonpositive argument
        path = write_problem(tmp_path, F="log(y)", k=0.0, ya=-1.0, yb=-2.0)
        code, _, err = run(capsys, "solve", path)
        assert code == EXIT_DOMAIN
        assert "log" in err


class TestResidual:
    def test_round_trip(self, tmp_path, capsys):
        # residual of a solve's own trajectory must reproduce the solve's norm
        path = write_problem(tmp_path, k=0.0)
        out_csv = tmp_path / "sol.csv"
        code, out, _ = run(capsys, "solve", path, "--out", out_csv)
        assert code == EXIT_OK
        el_norm = json.loads(out.strip())["el_norm"]
        code, out, _ = run(capsys, "residual", path, "--y", out_csv)
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

    def test_with_lambda(self, tmp_path, capsys):
        path = write_problem(tmp_path, G="v", xi=1.0, yb="auto-reference", n=101)
        out_csv = tmp_path / "sol.csv"
        code, out, _ = run(capsys, "solve", path, "--out", out_csv)
        lam = json.loads(out.strip())["lambda"]
        code, out, _ = run(capsys, "residual", path, "--y", out_csv, "--lambda", lam)
        assert code == EXIT_OK
        assert "norm_max_interior" in json.loads(out.strip())

    def test_wrong_grid(self, tmp_path, capsys):
        path = write_problem(tmp_path, k=0.0)
        out_csv = tmp_path / "sol.csv"
        run(capsys, "solve", path, "--n", 51, "--out", out_csv)
        code, _, _ = run(capsys, "residual", path, "--y", out_csv)
        assert code == EXIT_SCHEMA


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
        code, _, _ = run(
            capsys, "reference", "--k", 1.0, "--alpha", 2.0, "--xi", 1.0, "--n", 11
        )
        assert code == EXIT_SCHEMA


class TestConvergence:
    def test_reference_family(self, tmp_path, capsys):
        path = write_problem(tmp_path, G="v", xi=1.0, yb="auto-reference")
        code, out, _ = run(capsys, "convergence", path, "--grids", 101, 201, 401)
        assert code == EXIT_OK
        report = json.loads(out.strip())
        errors = [entry["error"] for entry in report["entries"]]
        assert errors[0] > errors[1] > errors[2]
        assert all(order is None or order > 0.5 for order in report["orders"])

    def test_reference_family_by_structure(self, tmp_path, capsys):
        # "(v)^2" parses to the same expression as "v^2", so the reference
        # extremal is used and the finest grid is not compared with itself
        path = write_problem(tmp_path, F="(v)^2", G="v", xi=1.0, yb="auto-reference")
        code, out, _ = run(capsys, "convergence", path, "--grids", 101, 201)
        assert code == EXIT_OK
        assert json.loads(out.strip())["entries"][-1]["error"] > 0.0

    def test_self_convergence(self, tmp_path, capsys):
        path = write_problem(tmp_path, F="v^2 + y^2", k=0.5, alpha=0.3)
        code, out, _ = run(capsys, "convergence", path, "--grids", 51, 101, 201)
        assert code == EXIT_OK
        report = json.loads(out.strip())
        assert report["entries"][-1]["error"] == 0.0

    def test_needs_two_grids(self, tmp_path, capsys):
        path = write_problem(tmp_path)
        code, _, _ = run(capsys, "convergence", path, "--grids", 101)
        assert code == EXIT_SCHEMA
