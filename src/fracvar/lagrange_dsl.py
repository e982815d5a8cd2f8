"""Expression language for Lagrangians F(t, y, v).

Over fracvar's own tokens the grammar is Python's arithmetic with ``^`` for
``**`` (``^``, right-associative, > unary minus > ``*``, ``/`` > ``+``,
``-``): the tokens and their order are checked here, Python's parser reads
their precedence and grouping, and its nodes map onto the tree.  Exact
symbolic differentiation in y and v comes with light simplification
(constant folding and the x+0 / x*1 / x*0 family).  One table entry per
operator holds its numpy function, its domain tests and its derivative rule;
evaluation and differentiation look operators up there.  An expression is
differentiated once, when it becomes a Lagrangian: H = F - lambda * G takes
each of its partials from those of F and G.

Here v stands for the combined derivative y' + k * D^alpha y; the grammar
itself never sees alpha or k.
"""

from __future__ import annotations

import ast
import math
import operator
import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Union

import numpy as np

from . import special

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
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


def _python_source(tokens: list[tuple[str, str, int]]) -> str:
    """The checked tokens as Python, one a line inside a pair of parentheses:
    line 2 + i is token i, and the closing line is the end token.  Each token
    is checked against the one before it: an operand, '(' or unary '-' after
    the start, '(' or an operator; an operator, ')' or the end after an
    operand or ')'; '(' alone after a function name.  Python's parser so
    meets only well-ordered tokens, and the fault named is the same on every
    version of it."""
    lines, depth, expect = ["("], 0, "operand"
    for i, (kind, text, offset) in enumerate(tokens):
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):  # inf has no spelling that parses back
                raise ExprSyntaxError(f"number {text!r} is beyond double range", offset)
            text = repr(value)  # Python refuses a spelling such as 01
        elif kind == "ident" and text not in VARIABLES + FUNCTIONS:
            raise UnknownIdentifierError(f"unknown identifier {text!r}", offset, VARIABLES + FUNCTIONS)
        if expect == "operand":
            ordered = kind in ("num", "ident") or text in ("(", "-")
        elif expect == "operator":  # a ')' at depth 0 would close the wrapping parenthesis
            ordered = kind == "end" or text in ("+", "-", "*", "/", "^") or text == ")" and depth > 0
        else:
            ordered = text == "("
        if not ordered:
            raise _misplaced(tokens, i)
        expect = "(" if text in FUNCTIONS else "operator" if kind == "num" or text in VARIABLES + (")",) else "operand"
        depth += {"(": 1, ")": -1}.get(text, 0)
        lines.append({"^": "**", "": ")"}.get(text, text))
    if depth:
        raise ExprSyntaxError("unexpected token 'end of input'", tokens[-1][2], (")",))
    return "\n".join(lines)


def _misplaced(tokens: list[tuple[str, str, int]], i: int) -> ExprSyntaxError:
    """The fault of token i where it may not stand: a function name that it
    does not call is an unknown variable, a variable that it calls an unknown
    function, and any other token i is unexpected."""
    _, before, at = tokens[i - 1]  # before the first token: the end token's ""
    _, text, offset = tokens[i]
    if before in FUNCTIONS and text != "(":
        return UnknownIdentifierError(f"unknown identifier {before!r}", at, VARIABLES)
    if before in VARIABLES and text == "(":
        return UnknownIdentifierError(f"unknown function {before!r}", at, FUNCTIONS)
    return ExprSyntaxError(f"unexpected token {text or 'end of input'!r}", offset)


_BINARY_NODES = {ast.Add: add, ast.Sub: sub, ast.Mult: mul, ast.Div: div, ast.Pow: pow_}


def _build(node: ast.expr) -> Expr:
    """The tree of a Python node, built by the simplifying constructors: of
    well-ordered tokens Python makes no other nodes than these."""
    if isinstance(node, ast.BinOp):
        return _BINARY_NODES[type(node.op)](_build(node.left), _build(node.right))
    if isinstance(node, ast.UnaryOp):  # minus, the one unary operator token
        return neg(_build(node.operand))
    if isinstance(node, ast.Call):  # a function name and one parenthesized argument
        return Unary(node.func.id, _build(node.args[0]))
    if isinstance(node, ast.Name):  # a variable: a function name is always called
        return Var(node.id)
    return _const(node.value)


def parse(src: str) -> Expr:
    """Parse expression text into a (lightly simplified) tree."""
    tokens = _tokenize(src)
    try:
        tree = ast.parse(_python_source(tokens), mode="eval")
    except SyntaxError as exc:  # only CPython's own depth limit: more than 199 nested parentheses
        raise _misplaced(tokens, exc.lineno - 2) from None
    except MemoryError:  # "Parser stack overflowed": CPython's own depth limit
        raise RecursionError("expression nests too deeply") from None
    return _build(tree.body)


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
# the operator table

@dataclass(frozen=True)
class _Op:
    """Everything about one operator: its numpy function of the evaluated
    operands, its derivative rule (an expression built from the operands and
    their derivatives, (u, du) or (a, b, da, db)), and its domain tests as
    (predicate of the evaluated operands, message) pairs."""

    fn: Callable
    rule: Callable[..., Expr]
    domain: tuple[tuple[Callable, str], ...] = ()


def _diff_pow(a: Expr, b: Expr, da: Expr, db: Expr) -> Expr:
    if isinstance(b, Const):
        return mul(mul(b, pow_(a, _const(b.value - 1.0))), da)
    # general u^w: u^w * (w' * log u + w * u' / u)
    return mul(pow_(a, b), add(mul(db, Unary("log", a)), div(mul(b, da), a)))


_UNARY = {
    "neg": _Op(operator.neg, lambda u, d: neg(d)),
    "exp": _Op(np.exp, lambda u, d: mul(d, Unary("exp", u))),
    "log": _Op(np.log, lambda u, d: div(d, u), ((lambda u: u > 0.0, "log of nonpositive argument"),)),
    "sqrt": _Op(
        np.sqrt,
        lambda u, d: div(d, mul(_const(2.0), Unary("sqrt", u))),
        ((lambda u: u >= 0.0, "sqrt of negative argument"),),
    ),
    "sin": _Op(np.sin, lambda u, d: mul(d, Unary("cos", u))),
    "cos": _Op(np.cos, lambda u, d: neg(mul(d, Unary("sin", u)))),
    "erfc": _Op(
        np.vectorize(special.erfc, otypes=[float]),
        lambda u, d: mul(_const(-2.0 / math.sqrt(math.pi)), mul(d, Unary("exp", neg(mul(u, u))))),
    ),
}

_BINARY = {
    "+": _Op(np.add, lambda a, b, da, db: add(da, db)),
    "-": _Op(np.subtract, lambda a, b, da, db: sub(da, db)),
    "*": _Op(np.multiply, lambda a, b, da, db: add(mul(da, b), mul(a, db))),
    "/": _Op(
        np.divide,
        lambda a, b, da, db: div(sub(mul(da, b), mul(a, db)), mul(b, b)),
        ((lambda a, b: b != 0.0, "division by zero"),),
    ),
    "^": _Op(
        np.power,
        _diff_pow,
        (
            (
                lambda a, b: ~((np.asarray(a, dtype=float) < 0.0) & (b != np.floor(b))),
                "negative base with non-integer exponent",
            ),
            (lambda a, b: ~((np.asarray(a, dtype=float) == 0.0) & (b < 0.0)), "zero base with negative exponent"),
        ),
    ),
}

FUNCTIONS = tuple(name for name in _UNARY if name != "neg")


def _op(e: Unary | Binary) -> _Op:
    table, kind = (_UNARY, "unary") if isinstance(e, Unary) else (_BINARY, "binary")
    try:
        return table[e.op]
    except KeyError:
        raise ValueError(f"unknown {kind} operator {e.op!r}") from None


def _operands(e: Unary | Binary) -> tuple[Expr, ...]:
    return (e.arg,) if isinstance(e, Unary) else (e.left, e.right)


# ---------------------------------------------------------------------------
# differentiation

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
    rule = _op(e).rule
    args = _operands(e)
    return rule(*args, *(_diff(x, var) for x in args))


# ---------------------------------------------------------------------------
# evaluation

ArrayLike = Union[float, np.ndarray]


def _eval(e: Expr, t: ArrayLike, y: ArrayLike, v: ArrayLike, uses: Counter, memo: dict) -> ArrayLike:
    """The value of e.  A subtree that the derivatives share is evaluated
    once: memo holds its value, by id, until the last of its uses."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return {"t": t, "y": y, "v": v}[e.name]
    if id(e) not in memo:
        op = _op(e)
        args = [_eval(x, t, y, v, uses, memo) for x in _operands(e)]
        for test, message in op.domain:
            ok = np.asarray(test(*args))
            if not np.all(ok):
                raise EvalDomainError(f"{message} in {to_str(e)!r}", e, int(np.argmin(ok)) if ok.ndim else None)
        memo[id(e)] = op.fn(*args)
    uses[id(e)] -= 1
    return memo[id(e)] if uses[id(e)] else memo.pop(id(e))


def evaluate(e: Expr, t: float, y: float, v: float) -> float:
    """Double-precision evaluation at a single point."""
    return float(_eval(e, float(t), float(y), float(v), Counter(map(id, _walk(e))), {}))


def evaluate_many(e: Expr, t: np.ndarray, y: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorized evaluation over parallel node arrays."""
    t, y, v = (np.asarray(x, dtype=float) for x in (t, y, v))
    out = _eval(e, t, y, v, Counter(map(id, _walk(e))), {})
    return np.broadcast_to(np.asarray(out, dtype=float), np.shape(t)).copy()


# ---------------------------------------------------------------------------
# Lagrangians

class Lagrangian:
    """Expression F(t, y, v) with cached exact first and second partials."""

    def __init__(self, expr: Expr):
        self.f = expr
        self.d2 = differentiate(expr, "y")
        self.d3 = differentiate(expr, "v")
        self.d22 = differentiate(self.d2, "y")
        self.d23 = differentiate(self.d2, "v")
        self.d33 = differentiate(self.d3, "v")

    @classmethod
    def parse(cls, src: str) -> "Lagrangian":
        return cls(parse(src))

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
    return {node.name for node in _walk(e) if isinstance(node, Var)}


def _walk(e: Expr) -> Iterator[Expr]:
    """e, and each node below it once for each reference to it; the operands
    of a shared node are walked once."""
    seen, todo = set(), [e]
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, (Unary, Binary)) and id(node) not in seen:
            seen.add(id(node))
            todo.extend(_operands(node))


class AugmentedLagrangian(Lagrangian):
    """H = F - lambda * G, each tree F's less lambda times G's: - and a constant factor differentiate linearly."""

    def __init__(self, f: Lagrangian, g: Lagrangian, lam: float):
        for name in ("f", "d2", "d3", "d22", "d23", "d33"):
            setattr(self, name, sub(getattr(f, name), mul(_const(lam), getattr(g, name))))
