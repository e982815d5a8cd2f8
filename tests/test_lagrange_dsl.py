import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracvar.lagrange_dsl import (
    AugmentedLagrangian,
    Binary,
    Const,
    EvalDomainError,
    ExprSyntaxError,
    Lagrangian,
    Unary,
    UnknownIdentifierError,
    Var,
    differentiate,
    evaluate,
    evaluate_many,
    parse,
    to_str,
)
from fracvar import lagrange_dsl as dsl


# ---------------------------------------------------------------------------
# dual-number oracle: forward-mode derivative, independent of differentiate()

class Dual:
    def __init__(self, val, dot):
        self.val = val
        self.dot = dot

    @staticmethod
    def lift(x):
        return x if isinstance(x, Dual) else Dual(float(x), 0.0)

    def __add__(self, o):
        o = Dual.lift(o)
        return Dual(self.val + o.val, self.dot + o.dot)

    def __sub__(self, o):
        o = Dual.lift(o)
        return Dual(self.val - o.val, self.dot - o.dot)

    def __mul__(self, o):
        o = Dual.lift(o)
        return Dual(self.val * o.val, self.dot * o.val + self.val * o.dot)

    def __truediv__(self, o):
        o = Dual.lift(o)
        return Dual(self.val / o.val, (self.dot * o.val - self.val * o.dot) / o.val**2)

    def __neg__(self):
        return Dual(-self.val, -self.dot)

    def __pow__(self, o):
        o = Dual.lift(o)
        val = self.val**o.val
        dot = 0.0
        if o.dot != 0.0:
            dot += val * math.log(self.val) * o.dot
        if self.dot != 0.0:
            dot += o.val * self.val ** (o.val - 1.0) * self.dot
        return Dual(val, dot)


_DUAL_FUNCS = {
    "exp": lambda u: Dual(math.exp(u.val), math.exp(u.val) * u.dot),
    "log": lambda u: Dual(math.log(u.val), u.dot / u.val),
    "sqrt": lambda u: Dual(math.sqrt(u.val), u.dot / (2.0 * math.sqrt(u.val))),
    "sin": lambda u: Dual(math.sin(u.val), math.cos(u.val) * u.dot),
    "cos": lambda u: Dual(math.cos(u.val), -math.sin(u.val) * u.dot),
    "erfc": lambda u: Dual(
        math.erfc(u.val),
        -2.0 / math.sqrt(math.pi) * math.exp(-u.val * u.val) * u.dot,
    ),
}


def dual_eval(e, env):
    if isinstance(e, Const):
        return Dual(e.value, 0.0)
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Unary):
        u = dual_eval(e.arg, env)
        if e.op == "neg":
            return -u
        return _DUAL_FUNCS[e.op](u)
    assert isinstance(e, Binary)
    a = dual_eval(e.left, env)
    b = dual_eval(e.right, env)
    return {
        "+": lambda: a + b,
        "-": lambda: a - b,
        "*": lambda: a * b,
        "/": lambda: a / b,
        "^": lambda: a**b,
    }[e.op]()


def dual_partial(e, var, t, y, v):
    env = {
        "t": Dual(t, 1.0 if var == "t" else 0.0),
        "y": Dual(y, 1.0 if var == "y" else 0.0),
        "v": Dual(v, 1.0 if var == "v" else 0.0),
    }
    return dual_eval(e, env).dot


class TestParse:
    def test_simple_power(self):
        assert parse("v^2") == Binary("^", Var("v"), Const(2.0))
        assert parse("v^2 ") == Binary("^", Var("v"), Const(2.0))

    def test_precedence(self):
        # * binds tighter than +, ^ tighter than unary minus
        assert parse("y + v * t") == Binary(
            "+", Var("y"), Binary("*", Var("v"), Var("t"))
        )
        assert parse("-v^2") == Unary("neg", Binary("^", Var("v"), Const(2.0)))

    def test_power_right_associative(self):
        assert parse("t^y^v") == Binary("^", Var("t"), Binary("^", Var("y"), Var("v")))

    def test_function_call(self):
        assert parse("exp(-t) * y") == Binary(
            "*", Unary("exp", Unary("neg", Var("t"))), Var("y")
        )

    def test_constant_folding(self):
        assert parse("2 * 0.5") == Const(1.0)
        assert parse("v * 1") == Var("v")
        assert parse("y + 0") == Var("y")
        assert parse("2^3") == Const(8.0)
        assert parse("v / 1") == Var("v")

    def test_scientific_notation(self):
        assert parse("1.5e-3") == Const(0.0015)

    @pytest.mark.parametrize(
        "src, offset", [("1e999", 0), ("v + 2e400", 4), pytest.param("1" + "0" * 400, 0, id="401-digit integer")]
    )
    def test_literal_beyond_double_range(self, src, offset):
        # float() reads it as inf, whose to_str does not parse back
        with pytest.raises(ExprSyntaxError, match="beyond double range") as exc:
            parse(src)
        assert exc.value.offset == offset

    def test_literal_below_double_range_is_zero(self):
        assert parse("1e-999") == Const(0.0)

    def test_syntax_error_offset(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("v^^2")
        assert exc.value.offset == 2

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse("sin(t")

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse("v 2")

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError):
            parse("x + 1")
        with pytest.raises(UnknownIdentifierError):
            parse("tan(t)")

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError):
            parse("y % 2")

    @pytest.mark.parametrize("src, tree", [
        ("01", Const(1.0)),
        ("1.", Const(1.0)),
        (".5", Const(0.5)),
        ("1E3", Const(1000.0)),
        ("007", Const(7.0)),
        ("v\t+\n2", Binary("+", Var("v"), Const(2.0))),
        ("\n exp\t(\nv )\t", Unary("exp", Var("v"))),
        ("v^-2", Binary("^", Var("v"), Const(-2.0))),
        ("- - v", Var("v")),
        ("2*-v", Binary("*", Const(2.0), Unary("neg", Var("v")))),
        ("2--v", Binary("-", Const(2.0), Unary("neg", Var("v")))),
        ("2^3^2", Const(512.0)),
        ("-2^2", Const(-4.0)),
        ("v^-y^2", Binary("^", Var("v"), Unary("neg", Binary("^", Var("y"), Const(2.0))))),
        ("exp (v)", Unary("exp", Var("v"))),
        ("((v))", Var("v")),
    ])
    def test_edge_spellings(self, src, tree):
        assert parse(src) == tree

    @pytest.mark.parametrize("src", [
        "+v", "v**2", "()", "", "exp()", "exp(v)(y)", "2(v)", "exp(*v)", "exp(^v)", "v)+(y", "sin(t", "v 2",
        "1_0", "0x10", "1j", "v # c",
    ])
    def test_rejected_forms(self, src):
        with pytest.raises(ExprSyntaxError) as exc:
            parse(src)
        assert 0 <= exc.value.offset <= len(src)

    @pytest.mark.parametrize("src, offset", [
        ("v(y)", 0), ("exp", 0), ("y*sin", 2), ("not v", 0), ("True", 0), ("None", 0), ("lambda", 0),
    ])
    def test_rejected_names(self, src, offset):
        # no name reaches Python's parser but the variables and the functions
        with pytest.raises(UnknownIdentifierError) as exc:
            parse(src)
        assert exc.value.offset == offset


class TestToStr:
    def test_round_trip_examples(self):
        for src in (
            "v^2",
            "v^2 - y^2",
            "(v - y) / (t + 1)",
            "exp(-t) * sin(y)",
            "-(y + v)",
            "t^y^v",
            "2 / (1 + v^2)",
        ):
            e = parse(src)
            assert parse(to_str(e)) == e

    def test_parenthesization(self):
        assert to_str(parse("(y + v) * t")) == "(y + v) * t"
        assert to_str(parse("y + v * t")) == "y + v * t"


# recursive strategy over the smart constructors, so every generated tree is a
# fixed point of the parser's own simplifications
_leaves = st.one_of(
    st.sampled_from([Var("t"), Var("y"), Var("v")]),
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False).map(dsl._const),
)


def _branch(children):
    binary = st.tuples(st.sampled_from([dsl.add, dsl.sub, dsl.mul, dsl.div, dsl.pow_]),
                       children, children).map(lambda t: t[0](t[1], t[2]))
    unary = st.tuples(
        st.sampled_from(["exp", "log", "sqrt", "sin", "cos", "erfc"]), children
    ).map(lambda t: dsl.Unary(t[0], t[1]))
    negated = children.map(dsl.neg)
    return st.one_of(binary, unary, negated)


_exprs = st.recursive(_leaves, _branch, max_leaves=12)


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(_exprs)
    def test_parse_print_parse(self, e):
        assert parse(to_str(e)) == e

    @pytest.mark.parametrize("build, a, b", [
        (dsl.add, 1e308, 1e308),
        (dsl.sub, 1e308, -1e308),
        (dsl.mul, 1e308, 1e308),
        (dsl.div, 100.0, 5e-324),
        (dsl.pow_, 1e308, 2.0),
    ])
    def test_overflowing_fold_stays_printable(self, build, a, b):
        e = build(Const(a), Const(b))
        assert isinstance(e, Binary)
        assert parse(to_str(e)) == e


class TestDifferentiate:
    def test_power_rule(self):
        assert differentiate(parse("v^2"), "v") == parse("2 * v")

    def test_partials_are_independent(self):
        e = parse("y * v")
        assert differentiate(e, "y") == Var("v")
        assert differentiate(e, "v") == Var("y")

    def test_constant(self):
        assert differentiate(parse("3.5"), "v") == Const(0.0)
        assert differentiate(parse("t^2"), "y") == Const(0.0)

    def test_chain_rule_example(self):
        d = differentiate(parse("sin(y^2)"), "y")
        for y in (0.3, 1.1, 2.0):
            assert evaluate(d, 0.0, y, 0.0) == pytest.approx(
                math.cos(y * y) * 2.0 * y, rel=1e-14
            )

    def test_quotient_rule_example(self):
        d = differentiate(parse("v / (1 + y^2)"), "y")
        y, v = 0.7, 2.0
        assert evaluate(d, 0.0, y, v) == pytest.approx(
            -v * 2.0 * y / (1.0 + y * y) ** 2, rel=1e-13
        )

    def test_erfc_rule(self):
        d = differentiate(parse("erfc(v)"), "v")
        for v in (-1.0, 0.0, 0.8):
            assert evaluate(d, 0.0, 0.0, v) == pytest.approx(
                -2.0 / math.sqrt(math.pi) * math.exp(-v * v), rel=1e-14
            )

    def test_general_power(self):
        d = differentiate(parse("y^v"), "v")
        y, v = 2.0, 1.5
        assert evaluate(d, 0.0, y, v) == pytest.approx(y**v * math.log(y), rel=1e-13)

    def test_invalid_variable(self):
        with pytest.raises(ValueError):
            differentiate(parse("y"), "t")

    def test_linearity(self):
        a = parse("sin(y) * v")
        b = parse("exp(v) / (1 + y^2)")
        combo = dsl.add(dsl.mul(dsl._const(2.0), a), dsl.mul(dsl._const(-3.0), b))
        for var in ("y", "v"):
            dc = differentiate(combo, var)
            da = differentiate(a, var)
            db = differentiate(b, var)
            for t, y, v in [(0.1, 0.4, -0.3), (1.0, -1.2, 0.9), (2.5, 0.0, 2.0)]:
                lhs = evaluate(dc, t, y, v)
                rhs = 2.0 * evaluate(da, t, y, v) - 3.0 * evaluate(db, t, y, v)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


# Printed first partials of every function and binary operator, as the
# derivative rules built them before the operators moved into one table: each
# rule must still build the same tree, so every Hessian entry is unchanged.
_PINNED_DERIVATIVES = [
    ("exp(y*v)", "y", "v * exp(y * v)"),
    ("exp(y*v)", "v", "y * exp(y * v)"),
    ("log(y*v)", "y", "v / (y * v)"),
    ("log(y*v)", "v", "y / (y * v)"),
    ("sqrt(y*v)", "y", "v / (2.0 * sqrt(y * v))"),
    ("sqrt(y*v)", "v", "y / (2.0 * sqrt(y * v))"),
    ("sin(y*v)", "y", "v * cos(y * v)"),
    ("sin(y*v)", "v", "y * cos(y * v)"),
    ("cos(y*v)", "y", "-(v * sin(y * v))"),
    ("cos(y*v)", "v", "-(y * sin(y * v))"),
    ("erfc(y*v)", "y", "-1.1283791670955126 * (v * exp(-(y * v * (y * v))))"),
    ("erfc(y*v)", "v", "-1.1283791670955126 * (y * exp(-(y * v * (y * v))))"),
    ("y+v", "y", "1.0"),
    ("y+v", "v", "1.0"),
    ("y-v", "y", "1.0"),
    ("y-v", "v", "-1.0"),
    ("y*v", "y", "v"),
    ("y*v", "v", "y"),
    ("y/v", "y", "v / (v * v)"),
    ("y/v", "v", "-y / (v * v)"),
    ("y^3", "y", "3.0 * y^2.0"),
    ("y^3", "v", "0.0"),
    ("v^y", "y", "v^y * log(v)"),
    ("v^y", "v", "v^y * (y / v)"),
    ("-(y*v)", "y", "-v"),
    ("-(y*v)", "v", "-y"),
    ("2^v", "v", "2.0^v * log(2.0)"),
    ("v^0.5", "v", "0.5 * v^(-0.5)"),
    ("sqrt(1+v^2)", "v", "2.0 * v / (2.0 * sqrt(1.0 + v^2.0))"),
    ("log(1+v^2)+y^2*t", "y", "2.0 * y * t"),
    ("log(1+v^2)+y^2*t", "v", "2.0 * v / (1.0 + v^2.0)"),
    ("erfc(v)/y", "y", "-erfc(v) / (y * y)"),
    ("erfc(v)/y", "v", "-1.1283791670955126 * exp(-(v * v)) * y / (y * y)"),
]


class TestPinnedDerivatives:
    @pytest.mark.parametrize("src,var,want", _PINNED_DERIVATIVES)
    def test_printed_partial(self, src, var, want):
        assert to_str(differentiate(parse(src), var)) == want

    def test_every_operator_is_pinned(self):
        sources = {src for src, _, _ in _PINNED_DERIVATIVES}
        assert all(f"{name}(y*v)" in sources for name in dsl.FUNCTIONS)
        assert all(f"y{op}v" in sources or f"v{op}y" in sources for op in "+-*/^")

    @pytest.mark.parametrize("node", [Unary("tanh", Var("v")), Binary("%", Var("y"), Var("v"))])
    def test_unknown_operator(self, node):
        # Unary and Binary are public, so a hand-built node can name any operator
        t = np.linspace(0.0, 1.0, 3)
        with pytest.raises(ValueError, match=repr(node.op)):
            evaluate_many(node, t, t, t)
        with pytest.raises(ValueError, match=repr(node.op)):
            differentiate(node, "v")


_SMOOTH_SOURCES = [
    "v^2",
    "v^2 - y^2",
    "y * v + t",
    "sin(y) * cos(v)",
    "exp(-t) * v^2 / (1 + y^2)",
    "erfc(v) + sqrt(1 + y^2)",
    "log(2 + y^2) * v",
    "v^3 - 2*y*v + t^2",
]


class TestDerivativeOracles:
    @pytest.mark.parametrize("src", _SMOOTH_SOURCES)
    def test_against_dual_numbers(self, src):
        e = parse(src)
        rng = np.random.default_rng(7)
        for _ in range(20):
            t, y, v = rng.uniform(-2.0, 2.0, size=3)
            t = abs(t) + 0.1
            for var in ("y", "v"):
                got = evaluate(differentiate(e, var), t, y, v)
                want = dual_partial(e, var, t, y, v)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_finite_differences(self):
        rng = np.random.default_rng(11)
        exprs = [parse(s) for s in _SMOOTH_SOURCES]
        checked = 0
        while checked < 100:
            e = exprs[checked % len(exprs)]
            t, y, v = rng.uniform(-1.5, 1.5, size=3)
            t = abs(t) + 0.1
            eps = 1e-6
            for var in ("y", "v"):
                dy = eps if var == "y" else 0.0
                dv = eps if var == "v" else 0.0
                fd = (
                    evaluate(e, t, y + dy, v + dv) - evaluate(e, t, y - dy, v - dv)
                ) / (2.0 * eps)
                sym = evaluate(differentiate(e, var), t, y, v)
                assert sym == pytest.approx(fd, rel=1e-6, abs=1e-8)
            checked += 1


class TestEvaluate:
    def test_point(self):
        assert evaluate(parse("v^2 - y^2"), 0.0, 3.0, 4.0) == 7.0

    def test_vectorized(self):
        t = np.linspace(0.0, 1.0, 5)
        y = t**2
        v = 2.0 * t
        out = evaluate_many(parse("v^2 + t * y"), t, y, v)
        np.testing.assert_allclose(out, 4.0 * t**2 + t**3, rtol=1e-14)

    def test_vectorized_constant_broadcast(self):
        t = np.linspace(0.0, 1.0, 4)
        out = evaluate_many(parse("2.5"), t, t, t)
        assert out.shape == (4,)
        assert np.all(out == 2.5)

    def test_log_domain(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("log(y)"), 0.0, -1.0, 0.0)

    def test_sqrt_domain(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("sqrt(v)"), 0.0, 0.0, -0.5)

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("1 / y"), 0.0, 0.0, 0.0)

    def test_fractional_power_of_negative(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("y^0.5"), 0.0, -1.0, 0.0)

    def test_domain_error_reports_node_index(self):
        t = np.linspace(0.0, 1.0, 6)
        y = np.array([1.0, 1.0, 1.0, -2.0, 1.0, 1.0])
        with pytest.raises(EvalDomainError) as exc:
            evaluate_many(parse("log(y)"), t, y, t)
        assert exc.value.index == 3


class TestLagrangian:
    def test_parse_classmethod(self):
        lagr = Lagrangian.parse("v^2")
        t = np.array([0.0, 0.5])
        y = np.array([0.0, 0.5])
        v = np.array([1.0, 1.0])
        np.testing.assert_allclose(lagr.value(t, y, v), 1.0)
        np.testing.assert_allclose(lagr.dv(t, y, v), 2.0)
        np.testing.assert_allclose(lagr.dvv(t, y, v), 2.0)
        np.testing.assert_allclose(lagr.dy(t, y, v), 0.0)

    def test_augmented(self):
        f = Lagrangian.parse("v^2")
        g = Lagrangian.parse("v")
        h = AugmentedLagrangian(f, g, 2.0)
        t = np.array([0.0, 1.0])
        y = np.zeros(2)
        v = np.array([3.0, -1.0])
        np.testing.assert_allclose(h.value(t, y, v), v**2 - 2.0 * v)
        np.testing.assert_allclose(h.dv(t, y, v), 2.0 * v - 2.0)
        np.testing.assert_allclose(h.dvv(t, y, v), 2.0)

    def test_augmented_partials_are_f_minus_lambda_g(self):
        # H = F - lam*G is one expression; each of its partials must equal the
        # two partials combined, bit for bit
        f = Lagrangian.parse("exp(v)*y + log(1+v^2)")
        g = Lagrangian.parse("sin(y)*v^2")
        lam = 1.7
        h = AugmentedLagrangian(f, g, lam)
        rng = np.random.default_rng(20)
        t, y, v = rng.uniform(-2.0, 2.0, size=(3, 50))
        for name in ("value", "dy", "dv", "dyy", "dyv", "dvv"):
            want = getattr(f, name)(t, y, v) - lam * getattr(g, name)(t, y, v)
            assert np.array_equal(getattr(h, name)(t, y, v), want), name
        assert not h.quadratic and not h.affine

    @pytest.mark.parametrize(
        "f,g,quadratic,affine",
        [
            ("v^2 + y^2", "v", True, False),
            ("v^2", "y*v", True, False),
            ("v + t*y", "y", True, True),
            ("v^2", "v^3", False, False),
            ("v", "sin(y)", False, False),
        ],
    )
    def test_augmented_structure(self, f, g, quadratic, affine):
        h = AugmentedLagrangian(Lagrangian.parse(f), Lagrangian.parse(g), 0.5)
        assert (h.quadratic, h.affine) == (quadratic, affine)

    def test_each_shared_node_is_evaluated_once(self, monkeypatch):
        # the partials share subtrees: d33 of 40 factors is 3,747 distinct
        # nodes, but 138,997 when walked as a tree
        lagr = Lagrangian.parse("*".join(["(1+v^2)"] * 40))
        seen, todo = {}, [lagr.d33]
        while todo:
            node = todo.pop()
            if id(node) not in seen:
                seen[id(node)] = node
                todo.extend(dsl._operands(node) if isinstance(node, (Unary, Binary)) else ())
        assert len(seen) == 3747
        applied = []
        op = dsl._op
        monkeypatch.setattr(dsl, "_op", lambda e: applied.append(e) or op(e))
        v = np.linspace(0.0, 0.1, 11)
        out = lagr.dvv(v, v, v)
        assert len(applied) == sum(isinstance(node, (Unary, Binary)) for node in seen.values())
        u = 1.0 + v**2
        np.testing.assert_allclose(out, u**40 * (1560.0 * (2.0 * v / u) ** 2 + 80.0 / u), rtol=1e-12)
