"""Expression language for Lagrangians F(t, y, v).

Recursive-descent parser with the precedence chain
``^`` (right-associative) > unary minus > ``*``, ``/`` > ``+``, ``-``,
plus exact symbolic differentiation in y and v with light simplification
(constant folding and the x+0 / x*1 / x*0 family).

Here v stands for the combined derivative y' + k * D^alpha y; the grammar
itself never sees alpha or k.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy import special as _sp

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "ExprSyntaxError",
    "UnknownIdentifierError",
    "EvalDomainError",
    "parse",
    "to_str",
    "differentiate",
    "evaluate",
    "evaluate_many",
    "Lagrangian",
    "AugmentedLagrangian",
    "VARIABLES",
    "FUNCTIONS",
]

VARIABLES = ("t", "y", "v")
FUNCTIONS = ("exp", "log", "sqrt", "sin", "cos", "erfc")


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # 'neg' or a function name
    arg: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr


class ExprSyntaxError(ValueError):
    """Malformed expression text; carries the byte offset and expected tokens."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        detail = f"{message} at offset {offset}"
        if expected:
            detail += f" (expected one of: {', '.join(expected)})"
        super().__init__(detail)


class UnknownIdentifierError(ExprSyntaxError):
    """Identifier is neither a declared variable nor a known function."""


class EvalDomainError(ArithmeticError):
    """Evaluation hit a domain violation (log of nonpositive, 0^negative, ...)."""

    def __init__(self, message: str, node: Expr, index: int | None = None):
        self.node = node
        self.index = index
        if index is not None:
            message += f" (node index {index})"
        super().__init__(message)


# ---------------------------------------------------------------------------
# simplifying constructors

def _const(value: float) -> Const:
    return Const(float(value))


def _fold(value: float, unfolded: Expr) -> Expr:
    # an overflowing fold stays unfolded: inf has no spelling that parses back
    return _const(value) if math.isfinite(value) else unfolded


def _is_const(e: Expr, value: float | None = None) -> bool:
    return isinstance(e, Const) and (value is None or e.value == value)


def neg(e: Expr) -> Expr:
    if isinstance(e, Const):
        return _const(-e.value)
    if isinstance(e, Unary) and e.op == "neg":
        return e.arg
    return Unary("neg", e)


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold(a.value + b.value, Binary("+", a, b))
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Binary("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold(a.value - b.value, Binary("-", a, b))
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return Binary("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold(a.value * b.value, Binary("*", a, b))
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Binary("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return _fold(a.value / b.value, Binary("/", a, b))
    if _is_const(b, 1.0):
        return a
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return _const(0.0)
    return Binary("/", a, b)


def pow_(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return _const(1.0)
    if isinstance(a, Const) and isinstance(b, Const):
        try:
            folded = a.value**b.value
        except (ValueError, OverflowError, ZeroDivisionError):
            return Binary("^", a, b)
        if isinstance(folded, float):
            return _fold(folded, Binary("^", a, b))
    return Binary("^", a, b)


def func(name: str, arg: Expr) -> Expr:
    return Unary(name, arg)


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            at = len(src) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {src[at]!r}", at)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, offset = self.peek()
        if kind == "op" and text == op:
            self.advance()
            return
        raise ExprSyntaxError(f"unexpected token {text or 'end of input'!r}", offset, (op,))

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(
                f"unexpected trailing token {text!r}", offset, ("+", "-", "*", "/", "^", "end of input")
            )
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                e = add(e, rhs) if text == "+" else sub(e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.unary()
                e = mul(e, rhs) if text == "*" else div(e, rhs)
            else:
                return e

    def unary(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return pow_(base, self.unary())  # right-associative
        return base

    def atom(self) -> Expr:
        kind, text, offset = self.advance()
        if kind == "num":
            return _const(float(text))
        if kind == "ident":
            nkind, ntext, _ = self.peek()
            if nkind == "op" and ntext == "(":
                if text not in FUNCTIONS:
                    raise UnknownIdentifierError(f"unknown function {text!r}", offset, FUNCTIONS)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return func(text, arg)
            if text not in VARIABLES:
                raise UnknownIdentifierError(f"unknown identifier {text!r}", offset, VARIABLES)
            return Var(text)
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ExprSyntaxError(
            f"unexpected token {text or 'end of input'!r}",
            offset,
            ("number", "identifier", "(", "-"),
        )


def parse(src: str) -> Expr:
    """Parse expression text into a (lightly simplified) tree."""
    return _Parser(src).parse()


# ---------------------------------------------------------------------------
# printing

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_str(e: Expr) -> str:
    """Render an expression; parse(to_str(e)) is structurally identical to e."""
    return _render(e, 0)


def _render(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Const):
        if e.value < 0.0 or (e.value == 0.0 and math.copysign(1.0, e.value) < 0.0):
            text = repr(e.value)
            return f"({text})" if parent_prec > _PRECEDENCE["neg"] else text
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            inner = _render(e.arg, _PRECEDENCE["neg"])
            text = f"-{inner}"
            return f"({text})" if parent_prec > _PRECEDENCE["neg"] else text
        return f"{e.op}({_render(e.arg, 0)})"
    assert isinstance(e, Binary)
    prec = _PRECEDENCE[e.op]
    if e.op == "^":
        # right-associative; the right operand re-enters at unary level
        left = _render(e.left, prec + 1)
        right = _render(e.right, prec)
        text = f"{left}^{right}"
    else:
        left = _render(e.left, prec)
        right = _render(e.right, prec + 1)
        text = f"{left} {e.op} {right}"
    return f"({text})" if prec < parent_prec else text


# ---------------------------------------------------------------------------
# differentiation

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


def differentiate(e: Expr, var: str) -> Expr:
    """Exact symbolic partial derivative with respect to 'y' or 'v'."""
    if var not in ("y", "v"):
        raise ValueError(f"can differentiate with respect to 'y' or 'v', not {var!r}")
    return _diff(e, var)


def _diff(e: Expr, var: str) -> Expr:
    if isinstance(e, Const):
        return _const(0.0)
    if isinstance(e, Var):
        return _const(1.0 if e.name == var else 0.0)
    if isinstance(e, Unary):
        d = _diff(e.arg, var)
        u = e.arg
        if e.op == "neg":
            return neg(d)
        if e.op == "exp":
            return mul(d, func("exp", u))
        if e.op == "log":
            return div(d, u)
        if e.op == "sqrt":
            return div(d, mul(_const(2.0), func("sqrt", u)))
        if e.op == "sin":
            return mul(d, func("cos", u))
        if e.op == "cos":
            return neg(mul(d, func("sin", u)))
        if e.op == "erfc":
            return mul(
                _const(-_TWO_OVER_SQRT_PI),
                mul(d, func("exp", neg(mul(u, u)))),
            )
        raise ValueError(f"unknown unary operator {e.op!r}")
    assert isinstance(e, Binary)
    da = _diff(e.left, var)
    db = _diff(e.right, var)
    a, b = e.left, e.right
    if e.op == "+":
        return add(da, db)
    if e.op == "-":
        return sub(da, db)
    if e.op == "*":
        return add(mul(da, b), mul(a, db))
    if e.op == "/":
        return div(sub(mul(da, b), mul(a, db)), mul(b, b))
    if e.op == "^":
        if isinstance(b, Const):
            return mul(mul(b, pow_(a, _const(b.value - 1.0))), da)
        # general u^w: u^w * (w' * log u + w * u' / u)
        return mul(
            pow_(a, b),
            add(mul(db, func("log", a)), div(mul(b, da), a)),
        )
    raise ValueError(f"unknown binary operator {e.op!r}")


# ---------------------------------------------------------------------------
# evaluation

ArrayLike = Union[float, np.ndarray]


def _domain_check(ok: np.ndarray | bool, message: str, node: Expr) -> None:
    ok_arr = np.asarray(ok)
    if not bool(np.all(ok_arr)):
        index = None
        if ok_arr.ndim > 0:
            index = int(np.argmin(ok_arr))
        raise EvalDomainError(f"{message} in {to_str(node)!r}", node, index)


def _eval(e: Expr, t: ArrayLike, y: ArrayLike, v: ArrayLike) -> ArrayLike:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return {"t": t, "y": y, "v": v}[e.name]
    if isinstance(e, Unary):
        u = _eval(e.arg, t, y, v)
        if e.op == "neg":
            return -np.asarray(u) if isinstance(u, np.ndarray) else -u
        if e.op == "exp":
            return np.exp(u)
        if e.op == "log":
            _domain_check(np.asarray(u) > 0.0, "log of nonpositive argument", e)
            return np.log(u)
        if e.op == "sqrt":
            _domain_check(np.asarray(u) >= 0.0, "sqrt of negative argument", e)
            return np.sqrt(u)
        if e.op == "sin":
            return np.sin(u)
        if e.op == "cos":
            return np.cos(u)
        if e.op == "erfc":
            return _sp.erfc(u)
        raise ValueError(f"unknown unary operator {e.op!r}")
    assert isinstance(e, Binary)
    a = _eval(e.left, t, y, v)
    b = _eval(e.right, t, y, v)
    if e.op == "+":
        return np.add(a, b)
    if e.op == "-":
        return np.subtract(a, b)
    if e.op == "*":
        return np.multiply(a, b)
    if e.op == "/":
        _domain_check(np.asarray(b) != 0.0, "division by zero", e)
        return np.divide(a, b)
    if e.op == "^":
        aa = np.asarray(a, dtype=float)
        bb = np.asarray(b, dtype=float)
        _domain_check(
            ~((aa < 0.0) & (bb != np.floor(bb))),
            "negative base with non-integer exponent",
            e,
        )
        _domain_check(~((aa == 0.0) & (bb < 0.0)), "zero base with negative exponent", e)
        return np.power(a, b)
    raise ValueError(f"unknown binary operator {e.op!r}")


def evaluate(e: Expr, t: float, y: float, v: float) -> float:
    """Double-precision evaluation at a single point."""
    return float(_eval(e, float(t), float(y), float(v)))


def evaluate_many(e: Expr, t: np.ndarray, y: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorized evaluation over parallel node arrays."""
    out = _eval(e, np.asarray(t, dtype=float), np.asarray(y, dtype=float), np.asarray(v, dtype=float))
    return np.broadcast_to(np.asarray(out, dtype=float), np.shape(t)).copy()


# ---------------------------------------------------------------------------
# Lagrangians

class Lagrangian:
    """Expression F(t, y, v) with cached exact first and second partials."""

    def __init__(self, expr: Expr, source: str | None = None):
        self.f = expr
        self.source = source
        self.d2 = differentiate(expr, "y")
        self.d3 = differentiate(expr, "v")
        self.d22 = differentiate(self.d2, "y")
        self.d23 = differentiate(self.d2, "v")
        self.d33 = differentiate(self.d3, "v")

    @classmethod
    def parse(cls, src: str) -> "Lagrangian":
        return cls(parse(src), source=src)

    def value(self, t, y, v) -> np.ndarray:
        return evaluate_many(self.f, t, y, v)

    def dy(self, t, y, v) -> np.ndarray:
        return evaluate_many(self.d2, t, y, v)

    def dv(self, t, y, v) -> np.ndarray:
        return evaluate_many(self.d3, t, y, v)

    def dyy(self, t, y, v) -> np.ndarray:
        return evaluate_many(self.d22, t, y, v)

    def dyv(self, t, y, v) -> np.ndarray:
        return evaluate_many(self.d23, t, y, v)

    def dvv(self, t, y, v) -> np.ndarray:
        return evaluate_many(self.d33, t, y, v)

    @property
    def quadratic(self) -> bool:
        """Whether F is at most quadratic in (y, v): no second partial depends on y or v."""
        return not any(_variables(d) & {"y", "v"} for d in (self.d22, self.d23, self.d33))

    @property
    def affine(self) -> bool:
        """Whether F is affine in (y, v): every second partial is the constant 0."""
        return all(isinstance(d, Const) and d.value == 0.0 for d in (self.d22, self.d23, self.d33))


def _variables(e: Expr) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Unary):
        return _variables(e.arg)
    if isinstance(e, Binary):
        return _variables(e.left) | _variables(e.right)
    return set()


class AugmentedLagrangian:
    """H = F - lambda * G, exposing the same evaluation surface as Lagrangian."""

    def __init__(self, f: Lagrangian, g: Lagrangian, lam: float):
        self.f = f
        self.g = g
        self.lam = float(lam)

    def _combine(self, fv: np.ndarray, gv: np.ndarray) -> np.ndarray:
        return fv - self.lam * gv

    def value(self, t, y, v):
        return self._combine(self.f.value(t, y, v), self.g.value(t, y, v))

    def dy(self, t, y, v):
        return self._combine(self.f.dy(t, y, v), self.g.dy(t, y, v))

    def dv(self, t, y, v):
        return self._combine(self.f.dv(t, y, v), self.g.dv(t, y, v))

    def dyy(self, t, y, v):
        return self._combine(self.f.dyy(t, y, v), self.g.dyy(t, y, v))

    def dyv(self, t, y, v):
        return self._combine(self.f.dyv(t, y, v), self.g.dyv(t, y, v))

    def dvv(self, t, y, v):
        return self._combine(self.f.dvv(t, y, v), self.g.dvv(t, y, v))
