"""Parser and printer for coordinate expressions.

Grammar (whitespace insignificant)::

    expr   := factor (binary factor)*
    factor := "-" factor | atom ("^" integer)?
    atom   := number | ident | func "(" expr ")" | "(" expr ")"
    ident  := "x" integer
    func   := "sin" | "cos" | "exp" | "log"

The binary operators are the table ``_BINARY``, which gives each symbol
its node and level: "+" and "-" at 1, "*" and "/" at 2.  All are
left-associative and a higher level binds tighter; one precedence loop
parses them and the printer reads them from the same table.  Unary minus
binds to a single factor, so ``-a/b`` parses as ``(-a)/b``.  Variable
indices are checked against the declared chart dimension at parse time.
Syntax errors report the character offset where scanning stopped.

``evaluate`` takes floats, jets or (N,) arrays for a batch of N points,
and a ``Num`` leaf may hold an (N,) array, one coefficient per row; see
``jets`` for the batch rule.

An expression may nest at most ``MAX_DEPTH`` levels: its tree may be at
most that deep, and so may its nesting of parentheses, function calls and
unary minuses.  The walkers here recurse once per level, so a deeper
expression would exhaust Python's stack; the parser rejects it instead.

Nodes are immutable values (see ``_value``).  perfbench's
``expressions.nodes`` counts ``evaluate`` calls; a node built outside this
module, as ``harness.suites._poly_tree`` builds them, adds to
``expressions.calls`` through its class's wrapped ``__init__``.
"""

from __future__ import annotations

import re
from typing import Sequence, Union

from . import jets
from ._value import Value
from .jets import Scalar


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class Num(Value):
    __slots__ = ("value",)  # a float, or an (N,) array: one coefficient per row of a family
    def __init__(self, value: float):
        object.__setattr__(self, "value", value)


class Var(Value):
    __slots__ = ("index",)
    def __init__(self, index: int):
        object.__setattr__(self, "index", index)


class Add(Value):
    __slots__ = ("left", "right")
    def __init__(self, left: Expr, right: Expr):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Sub(Value):
    __slots__ = ("left", "right")
    def __init__(self, left: Expr, right: Expr):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Mul(Value):
    __slots__ = ("left", "right")
    def __init__(self, left: Expr, right: Expr):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Div(Value):
    __slots__ = ("left", "right")
    def __init__(self, left: Expr, right: Expr):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Neg(Value):
    __slots__ = ("arg",)
    def __init__(self, arg: Expr):
        object.__setattr__(self, "arg", arg)


class Pow(Value):
    __slots__ = ("base", "exponent")
    def __init__(self, base: Expr, exponent: int):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)


class Call(Value):
    __slots__ = ("func", "arg")
    def __init__(self, func: str, arg: Expr):
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "arg", arg)


Expr = Union[Num, Var, Add, Sub, Mul, Div, Neg, Pow, Call]

FUNCTIONS = ("sin", "cos", "exp", "log")

MAX_DEPTH = 100

_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_INTEGER = re.compile(r"-?\d+")
_TOO_DEEP = f"expression nested deeper than {MAX_DEPTH} levels"

# symbol -> (level, node), as the module docstring describes.
_BINARY = {"+": (1, Add), "-": (1, Sub), "*": (2, Mul), "/": (2, Div)}
_SYMBOLS = {kind: (symbol, level) for symbol, (level, kind) in _BINARY.items()}


class _Parser:
    """A cursor over the text: ``pos`` is at the next non-space character
    and ``ch`` holds it, or "" at the end of the text."""

    def __init__(self, text: str, dim: int):
        self.text = text
        self.dim = dim
        self.level = 0
        self.skip(0)

    def skip(self, end: int) -> None:
        """Move to the first non-space character at or after ``end``."""
        text = self.text
        while end < len(text) and text[end].isspace():
            end += 1
        self.pos, self.ch = end, text[end:end + 1]

    def expect(self, char: str) -> None:
        if self.ch != char:
            raise ParseError(f"expected '{char}'", self.pos)
        self.skip(self.pos + 1)

    def integer(self, digits: str) -> int:
        """int(digits), for the token at pos."""
        try:
            return int(digits)
        except ValueError:  # longer than int() converts
            raise ParseError(f"integer of {len(digits)} characters is too long", self.pos) from None

    def nested(self, parse) -> Expr:
        """parse() after the opener at pos, one level of parentheses, call or unary minus deeper."""
        if self.level == MAX_DEPTH:
            raise ParseError(_TOO_DEEP, self.pos + 1)
        self.skip(self.pos + 1)
        self.level += 1
        node = parse()
        self.level -= 1
        return node

    def parse(self) -> Expr:
        node = self.expr()
        if self.ch:
            raise ParseError("unexpected trailing input", self.pos)
        if _depth(node) > MAX_DEPTH:
            raise ParseError(_TOO_DEEP, self.pos)
        return node

    def expr(self, lowest: int = 1) -> Expr:
        """Factors joined by the binary operators of level ``lowest`` and above."""
        node = self.factor()
        while (op := _BINARY.get(self.ch)) and op[0] >= lowest:
            level, kind = op
            self.skip(self.pos + 1)
            node = kind(node, self.expr(level + 1))
        return node

    def factor(self) -> Expr:
        if self.ch == "-":
            return Neg(self.nested(self.factor))
        node = self.atom()
        if self.ch == "^":
            self.skip(self.pos + 1)
            m = _INTEGER.match(self.text, self.pos)
            if not m:
                raise ParseError("expected integer exponent", self.pos)
            node = Pow(node, self.integer(m.group()))
            self.skip(m.end())
        return node

    def group(self) -> Expr:
        """A parenthesized expr, one level deeper."""
        if self.ch != "(":
            raise ParseError("expected '('", self.pos)
        node = self.nested(self.expr)
        self.expect(")")
        return node

    def atom(self) -> Expr:
        if self.ch == "(":
            return self.group()
        m = _NUMBER.match(self.text, self.pos)
        if m:
            self.skip(m.end())
            return Num(float(m.group()))
        m = _IDENT.match(self.text, self.pos)
        if not m:
            raise ParseError("expected a number, variable, function or '('", self.pos)
        name = m.group()
        if name in FUNCTIONS:
            self.skip(m.end())
            return Call(name, self.group())
        if not re.fullmatch(r"x\d+", name):
            raise ParseError(f"unknown identifier '{name}'", self.pos)
        index = self.integer(name[1:])
        if index >= self.dim:
            raise ParseError(f"variable x{index} out of range for dimension {self.dim}", self.pos)
        self.skip(m.end())
        return Var(index)


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


def to_string(expr: Expr) -> str:
    """Render with minimal parentheses.

    Inverse of ``parse`` on parser-produced trees.  Hand-built negative
    literals print parenthesized and reparse as a negation node, after
    which printing and parsing are mutually inverse.  Nodes are matched by
    exact type, as in ``evaluate``.
    """
    return _wrap(expr, 0)


def _wrap(expr: Expr, lowest: int) -> str:
    """The text of ``expr``, parenthesized if it binds looser than level ``lowest``.

    A binary node binds at its ``_BINARY`` level, a negation at 3, a power
    at 4 and any other node at 5.
    """
    kind, level = type(expr), 5
    if kind in _SYMBOLS:
        symbol, level = _SYMBOLS[kind]
        if level == 1:  # sums are spaced: "x0 + x1*x2"
            symbol = f" {symbol} "
        text = f"{_wrap(expr.left, level)}{symbol}{_wrap(expr.right, level + 1)}"
    elif kind is Neg:
        level, text = 3, f"-{_wrap(expr.arg, 3)}"
    elif kind is Pow:
        level, text = 4, f"{_wrap(expr.base, 5)}^{expr.exponent}"
    elif kind is Num:
        # A literal that overflowed parses as inf, which prints as 1e999.
        text = repr(expr.value).replace("inf", "1e999")
        text = text if expr.value >= 0 else f"({text})"
    elif kind is Var:
        text = f"x{expr.index}"
    elif kind is Call:
        text = f"{expr.func}({to_string(expr.arg)})"
    else:
        raise TypeError(f"not an expression node: {expr!r}")
    return f"({text})" if level < lowest else text
