"""Parser and printer for coordinate expressions.

Grammar (whitespace insignificant)::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | atom ("^" integer)?
    atom   := number | ident | func "(" expr ")" | "(" expr ")"
    ident  := "x" integer
    func   := "sin" | "cos" | "exp" | "log"

Unary minus binds to a single factor, so ``-a/b`` parses as ``(-a)/b``.
Variable indices are checked against the declared chart dimension at parse
time.  Syntax errors report the byte offset where scanning stopped.

``evaluate`` takes floats, jets or (N,) arrays for a batch of N points,
and a ``Num`` leaf may hold an (N,) array, one coefficient per row; see
``jets`` for the batch rule.

An expression may nest at most ``MAX_DEPTH`` levels: its tree may be at
most that deep, and so may its nesting of parentheses, function calls and
unary minuses.  The walkers here recurse once per level, so a deeper
expression would exhaust Python's stack; the parser rejects it instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence, Union

from . import jets
from .jets import Scalar


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Num:
    value: float  # or an (N,) array: one coefficient per row of a family


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Num, Var, Add, Sub, Mul, Div, Neg, Pow, Call]

FUNCTIONS = ("sin", "cos", "exp", "log")

MAX_DEPTH = 100

_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_INTEGER = re.compile(r"-?\d+")


class _Parser:
    def __init__(self, text: str, dim: int):
        self.text = text
        self.dim = dim
        self.pos = 0
        self.level = 0

    def error(self, message: str, offset: int | None = None) -> ParseError:
        return ParseError(message, self.pos if offset is None else offset)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, char: str) -> bool:
        if self.peek() == char:
            self.pos += 1
            return True
        return False

    def expect(self, char: str) -> None:
        if not self.take(char):
            raise self.error(f"expected '{char}'")

    def too_deep(self) -> ParseError:
        return self.error(f"expression nested deeper than {MAX_DEPTH} levels")

    def nested(self, parse) -> Expr:
        """parse() one level of parentheses, call or unary minus deeper."""
        if self.level == MAX_DEPTH:
            raise self.too_deep()
        self.level += 1
        node = parse()
        self.level -= 1
        return node

    def parse(self) -> Expr:
        node = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("unexpected trailing input")
        if _depth(node) > MAX_DEPTH:
            raise self.too_deep()
        return node

    def expr(self) -> Expr:
        node = self.term()
        while True:
            if self.take("+"):
                node = Add(node, self.term())
            elif self.take("-"):
                node = Sub(node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            if self.take("*"):
                node = Mul(node, self.factor())
            elif self.take("/"):
                node = Div(node, self.factor())
            else:
                return node

    def factor(self) -> Expr:
        if self.take("-"):
            return Neg(self.nested(self.factor))
        node = self.atom()
        if self.take("^"):
            self.skip_ws()
            m = _INTEGER.match(self.text, self.pos)
            if not m:
                raise self.error("expected integer exponent")
            self.pos = m.end()
            return Pow(node, int(m.group()))
        return node

    def atom(self) -> Expr:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node = self.nested(self.expr)
            self.expect(")")
            return node
        m = _NUMBER.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return Num(float(m.group()))
        m = _IDENT.match(self.text, self.pos)
        if m:
            name = m.group()
            start = self.pos
            if name in FUNCTIONS:
                self.pos = m.end()
                self.expect("(")
                node = self.nested(self.expr)
                self.expect(")")
                return Call(name, node)
            if re.fullmatch(r"x\d+", name):
                index = int(name[1:])
                if index >= self.dim:
                    raise self.error(
                        f"variable x{index} out of range for dimension {self.dim}",
                        start,
                    )
                self.pos = m.end()
                return Var(index)
            raise self.error(f"unknown identifier '{name}'", start)
        raise self.error("expected a number, variable, function or '('")


def parse(text: str, dim: int) -> Expr:
    """Parse ``text`` as an expression in variables x0..x{dim-1}."""
    if dim < 0:
        raise ValueError("dimension must be non-negative")
    return _Parser(text, dim).parse()


def _depth(expr: Expr) -> int:
    """Levels of the tree, a leaf being one; walked without recursion."""
    deepest = 0
    stack = [(expr, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        kind = type(node)
        if kind in (Add, Mul, Sub, Div):
            stack += ((node.left, depth + 1), (node.right, depth + 1))
        elif kind in (Neg, Call):
            stack.append((node.arg, depth + 1))
        elif kind is Pow:
            stack.append((node.base, depth + 1))
    return deepest


def max_var_index(expr: Expr) -> int:
    """Largest variable index used, or -1 for a constant expression."""
    kind = type(expr)
    if kind is Var:
        return expr.index
    if kind is Num:
        return -1
    if kind in (Add, Mul, Sub, Div):
        return max(max_var_index(expr.left), max_var_index(expr.right))
    if kind in (Neg, Call):
        return max_var_index(expr.arg)
    if kind is Pow:
        return max_var_index(expr.base)
    raise TypeError(f"not an expression node: {expr!r}")


def evaluate(expr: Expr, values: Sequence[Scalar]) -> Scalar:
    """Evaluate over floats or jets; jets carry derivatives through.

    Values, and the values of ``Num`` leaves, may be (N,) arrays: one pass
    then evaluates a batch of N points, or a family of N expressions of
    one form whose leaves hold one coefficient per row (see ``jets``).  A
    division by zero in any row raises ``DomainError``.

    Nodes are matched by exact type, so an instance of a subclass of a
    node class is rejected with ``TypeError`` like any other non-node.
    """
    kind = type(expr)
    if kind is Var:
        return values[expr.index]
    if kind is Num:
        return expr.value
    if kind is Add:
        return evaluate(expr.left, values) + evaluate(expr.right, values)
    if kind is Mul:
        return evaluate(expr.left, values) * evaluate(expr.right, values)
    if kind is Sub:
        return evaluate(expr.left, values) - evaluate(expr.right, values)
    if kind is Div:
        num = evaluate(expr.left, values)
        den = evaluate(expr.right, values)
        if not isinstance(den, jets.Jet) and jets._has_zero(den):
            raise jets.DomainError("division by zero")
        return num / den
    if kind is Neg:
        return -evaluate(expr.arg, values)
    if kind is Pow:
        return jets.powi(evaluate(expr.base, values), expr.exponent)
    if kind is Call:
        return getattr(jets, expr.func)(evaluate(expr.arg, values))
    raise TypeError(f"not an expression node: {expr!r}")


_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _precedence(expr: Expr) -> int:
    match expr:
        case Add(_, _) | Sub(_, _):
            return _PREC_ADD
        case Mul(_, _) | Div(_, _):
            return _PREC_MUL
        case Neg(_):
            return _PREC_UNARY
        case Pow(_, _):
            return _PREC_POW
        case _:
            return _PREC_ATOM


def _wrap(expr: Expr, minimum: int) -> str:
    text = to_string(expr)
    return f"({text})" if _precedence(expr) < minimum else text


def to_string(expr: Expr) -> str:
    """Render with minimal parentheses.

    Inverse of ``parse`` on parser-produced trees.  Hand-built negative
    literals print parenthesized and reparse as a negation node, after
    which printing and parsing are mutually inverse.
    """
    match expr:
        case Num(v):
            return repr(v) if v >= 0 else f"({v!r})"
        case Var(i):
            return f"x{i}"
        case Add(l, r):
            return f"{_wrap(l, _PREC_ADD)} + {_wrap(r, _PREC_ADD + 1)}"
        case Sub(l, r):
            return f"{_wrap(l, _PREC_ADD)} - {_wrap(r, _PREC_ADD + 1)}"
        case Mul(l, r):
            return f"{_wrap(l, _PREC_MUL)}*{_wrap(r, _PREC_MUL + 1)}"
        case Div(l, r):
            return f"{_wrap(l, _PREC_MUL)}/{_wrap(r, _PREC_MUL + 1)}"
        case Neg(arg):
            return f"-{_wrap(arg, _PREC_UNARY)}"
        case Pow(base, n):
            exponent = str(n)
            return f"{_wrap(base, _PREC_ATOM)}^{exponent}"
        case Call(func, arg):
            return f"{func}({to_string(arg)})"
    raise TypeError(f"not an expression node: {expr!r}")
