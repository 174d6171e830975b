"""Expression language for Lagrangians and force components.

Sources are plain arithmetic over coordinates ``x1..xn``, ``y1..yn`` and
named parameters, e.g. ``"(1 + x1^2)*y1^2 + y2^2"``.  Parsed trees are
immutable.  Binding substitutes the parameters once: a field is its tree
with each parameter a number, and :mod:`lagmech.compiled` lowers it into
the program of its value and into every derivative program, under the
same domain rules.

Grammar (EBNF, also in docs/grammar.md)::

    expr    = term { ("+" | "-") term } ;
    term    = factor { ("*" | "/") factor } ;
    factor  = "-" factor | power ;
    power   = atom [ "^" factor ] ;            (right-associative)
    atom    = NUMBER | variable | parameter
            | function "(" expr { "," expr } ")"
            | "(" expr ")" ;
    variable  = ("x" | "y") INDEX ;             (1-based, INDEX <= n)
    function  = "sqrt" | "sin" | "cos" | "tan" | "exp" | "log" | "pow" ;

Only smooth primitives are provided; absolute values, minima and signs
would silently break every derivative-based identity downstream.
Non-integer exponents require a positive base at evaluation time, while
integer exponents multiply out and stay smooth through zero.

Every walk over a tree recurses, so a source is bounded: a syntax tree
more than ``MAX_DEPTH`` levels deep (a chain of k terms is k levels), or
parentheses, function calls, signs and exponents nested more than
``MAX_DEPTH`` levels while parsing, is a ConfigError.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from typing import Union

from .errors import (
    ArityError,
    ConfigError,
    ParseError,
    UnboundParameter,
    VariableIndexError,
)
from .phase import ScalarField, VerticalField

__all__ = [
    "MAX_DEPTH",
    "Expr",
    "Num",
    "Var",
    "Param",
    "Neg",
    "Bin",
    "Call",
    "parse",
    "to_source",
    "bind_scalar",
    "bind_vertical",
    "real_parameter",
]


# ---------------------------------------------------------------------------
# syntax tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    kind: str  # "x" or "y"
    index: int  # 1-based


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


Expr = Union[Num, Var, Param, Neg, Bin, Call]

# the deepest syntax tree, and the deepest nesting while parsing, a source
# may have: the tree walks, the parser and the compiler recurse about five
# frames a level at most, which keeps them well inside Python's default
# recursion limit of 1000
MAX_DEPTH = 128

_FUNCTIONS = {"sqrt": 1, "sin": 1, "cos": 1, "tan": 1, "exp": 1, "log": 1, "pow": 2}
_VAR_RE = re.compile(r"^([xy])([1-9][0-9]*)$")
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),]))"
)


class _Tokenizer:
    def __init__(self, source: str):
        self.source = source
        self.tokens = []  # (kind, text, offset)
        pos = 0
        while pos < len(source):
            m = _TOKEN_RE.match(source, pos)
            if m is None or m.end() == pos:
                stripped = source[pos:].lstrip()
                if not stripped:
                    break
                bad = len(source) - len(stripped)
                raise ParseError(f"unexpected character {source[bad]!r}", bad,
                                 expected=("number", "identifier", "operator"))
            if m.group("num") is not None:
                self.tokens.append(("num", m.group("num"), m.start("num")))
            elif m.group("ident") is not None:
                self.tokens.append(("ident", m.group("ident"), m.start("ident")))
            else:
                self.tokens.append(("op", m.group("op"), m.start("op")))
            pos = m.end()
        self.tokens.append(("end", "", len(source)))


class _Parser:
    def __init__(self, source: str, n: int):
        self.n = n
        self.toks = _Tokenizer(source).tokens
        self.i = 0
        self.nesting = 0  # the factors being parsed, one inside the other

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, off = self.peek()
        if kind == "op" and text == op:
            return self.advance()
        raise ParseError(f"expected {op!r}", off, expected=(op,))

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", off,
                             expected=("end of input",))
        return e

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = Bin(text, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = Bin(text, node, self.factor())
            else:
                return node

    def factor(self) -> Expr:
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ConfigError(f"expression nests deeper than {MAX_DEPTH} levels")
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            node = Neg(self.factor())
        else:
            node = self.power()
        self.nesting -= 1
        return node

    def power(self) -> Expr:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return Bin("^", base, self.factor())
        return base

    def atom(self) -> Expr:
        kind, text, off = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            nxt_kind, nxt_text, _ = self.peek()
            if nxt_kind == "op" and nxt_text == "(":
                if text not in _FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", off,
                                     expected=tuple(sorted(_FUNCTIONS)))
                self.advance()
                args = [self.expr()]
                while True:
                    k, t, _ = self.peek()
                    if k == "op" and t == ",":
                        self.advance()
                        args.append(self.expr())
                    else:
                        break
                self.expect_op(")")
                if len(args) != _FUNCTIONS[text]:
                    raise ArityError(
                        f"{text} takes {_FUNCTIONS[text]} argument(s), got {len(args)}"
                    )
                return Call(text, tuple(args))
            m = _VAR_RE.match(text)
            if m:
                index = int(m.group(2))
                if index > self.n:
                    raise VariableIndexError(
                        f"variable {text} exceeds dimension n={self.n}"
                    )
                return Var(m.group(1), index)
            return Param(text)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        what = text if text else "end of input"
        raise ParseError(f"expected a value, found {what!r}", off,
                         expected=("number", "variable", "parameter", "function", "("))


def _depth(e: Expr) -> int:
    """The number of levels of a syntax tree, by an explicit stack."""
    deepest, stack = 0, [(e, 1)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        kids = (node.arg,) if isinstance(node, Neg) else (node.left, node.right) \
            if isinstance(node, Bin) else node.args if isinstance(node, Call) else ()
        stack.extend((k, level + 1) for k in kids)
    return deepest


def parse(source: str, n: int) -> Expr:
    """Parse an expression source for a system of dimension ``n``; a tree
    deeper than ``MAX_DEPTH`` levels is a ConfigError."""
    if not source or not source.strip():
        raise ParseError("empty expression", 0, expected=("expression",))
    e = _Parser(source, n).parse()
    if _depth(e) > MAX_DEPTH:
        raise ConfigError(f"expression is deeper than {MAX_DEPTH} levels")
    return e


# ---------------------------------------------------------------------------
# binding
# ---------------------------------------------------------------------------


def _bound_tree(e: Expr, params: dict):
    """``e`` with each parameter replaced by its value as a ``Num``.

    Raises UnboundParameter for a parameter without a value, and
    ConfigError for one whose value is not a real number.
    """
    if isinstance(e, Param):
        if e.name not in params:
            raise UnboundParameter(e.name)
        return Num(real_parameter(e.name, params[e.name]))
    if isinstance(e, (Num, Var)):
        return e
    if isinstance(e, Neg):
        return Neg(_bound_tree(e.arg, params))
    if isinstance(e, Bin):
        return Bin(e.op, _bound_tree(e.left, params), _bound_tree(e.right, params))
    return Call(e.name, tuple(_bound_tree(a, params) for a in e.args))


def real_parameter(name: str, value) -> float:
    """A parameter's value as a float; ConfigError unless it is a finite
    real number (a JSON boolean is not one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"parameter {name!r} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"parameter {name!r} must be finite, got {value!r}")
    return number


def bind_scalar(e: Expr, n: int, params=None, source: str | None = None) -> ScalarField:
    """An expression with its parameters substituted, as a scalar field."""
    return ScalarField(n, _bound_tree(e, params or {}),
                       source=source if source is not None else to_source(e))


def bind_vertical(exprs, n: int, params=None) -> VerticalField:
    """Force component expressions with their parameters substituted."""
    exprs = list(exprs)
    if len(exprs) != n:
        raise ConfigError(f"force needs {n} components, got {len(exprs)}")
    return VerticalField(n, [_bound_tree(e, params or {}) for e in exprs],
                         sources=[to_source(e) for e in exprs])


# ---------------------------------------------------------------------------
# pretty printing
# ---------------------------------------------------------------------------

_LEVEL_ADD = 1
_LEVEL_MUL = 2
_LEVEL_NEG = 3
_LEVEL_POW = 4
_LEVEL_ATOM = 5


def _level(e: Expr) -> int:
    if isinstance(e, Bin):
        if e.op in "+-":
            return _LEVEL_ADD
        if e.op in "*/":
            return _LEVEL_MUL
        return _LEVEL_POW
    if isinstance(e, Neg):
        return _LEVEL_NEG
    return _LEVEL_ATOM


def _render(e: Expr, min_level: int) -> str:
    lvl = _level(e)
    if isinstance(e, Num):
        v = e.value
        s = str(int(v)) if v.is_integer() and abs(v) < 1e16 else repr(v)
    elif isinstance(e, Var):
        s = f"{e.kind}{e.index}"
    elif isinstance(e, Param):
        s = e.name
    elif isinstance(e, Neg):
        s = f"-{_render(e.arg, _LEVEL_POW)}"
    elif isinstance(e, Call):
        s = f"{e.name}({', '.join(_render(a, _LEVEL_ADD) for a in e.args)})"
    elif isinstance(e, Bin):
        if e.op == "^":
            s = f"{_render(e.left, _LEVEL_ATOM)}^{_render(e.right, _LEVEL_NEG)}"
        else:
            s = f"{_render(e.left, lvl)} {e.op} {_render(e.right, lvl + 1)}"
    else:
        raise TypeError(f"not an expression node: {e!r}")
    if lvl < min_level:
        return f"({s})"
    return s


def to_source(e: Expr) -> str:
    """Render an expression; reparsing yields a structurally equal tree."""
    return _render(e, _LEVEL_ADD)
