"""Tokenizer, recursive-descent parser, and evaluator for user functions.

The expression language is defined once, here: `GRAMMAR` is its EBNF (the
CLI prints it under `--help`), `FUNCTIONS` its function table and `_TOKEN`
its lexical rules. Only decimal digits form numbers, and a source whose
tree or parser nesting is deeper than `MAX_DEPTH` is a syntax error.

"^" is real power: exact repeated multiplication for an integer exponent
that does not depend on x, exp(y*ln x) with x > 0 otherwise. A NaN never
propagates silently; it is converted to a domain error carrying the
offending x.
A FunctionDef compiles its tree once, when it is built, into a chain of
closures: each x-free subtree is evaluated then and becomes an np.float64
constant, and each operation writes in place into a temporary that the chain
made itself. One chain serves a scalar and an ndarray alike, so grid scans
and pointwise recomputation agree bit-for-bit.
"""

import enum
import math
import re
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Union

import numpy as np


class ExprSyntaxError(ValueError):
    """A tokenize/parse failure, carrying the source offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ExprDomainError(ValueError):
    """An evaluation failure, carrying the offending evaluation point."""

    def __init__(self, message: str, x: float):
        super().__init__(f"{message} (at x={x!r})")
        self.x = x


class TokenKind(enum.Enum):
    NUMBER = "number"
    IDENT = "ident"
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    CARET = "^"
    LPAREN = "("
    RPAREN = ")"
    COMMA = ","
    END = "end of input"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    position: int


# name -> (numpy function, domain-violation test or None, its message);
# pow takes two arguments and is evaluated by _exponentiate
FUNCTIONS = {
    "exp": (np.exp, None, None),
    "ln": (np.log, lambda v: v <= 0.0, "ln of a non-positive argument"),
    "sqrt": (np.sqrt, lambda v: v < 0.0, "sqrt of a negative argument"),
    "abs": (np.abs, None, None),
    "sin": (np.sin, None, None),
    "cos": (np.cos, None, None),
    "pow": (None, None, None),
}

GRAMMAR = """\
expr    = term { ("+" | "-") term } ;
term    = factor { ("*" | "/") factor } ;
factor  = "-" factor | power ;
power   = atom [ "^" factor ] ;           (right-associative)
atom    = NUMBER | "x" | FUNC "(" expr { "," expr } ")" | "(" expr ")" ;
FUNC    = """ + " | ".join(f'"{name}"' for name in FUNCTIONS) + " ;\n"

# a number (group 1), an identifier (group 2), a symbol, or whitespace;
# \d is a decimal digit, which is what float() accepts
_TOKEN = re.compile(
    r"((?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)|([^\W\d]\w*)|[-+*/^(),]|\s+"
)


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(source):
        match = _TOKEN.match(source, pos)
        if match is None:
            raise ExprSyntaxError(f"illegal character {source[pos]!r}", pos)
        text = match.group()
        if match.group(1):
            tokens.append(Token(TokenKind.NUMBER, text, pos))
        elif match.group(2):
            tokens.append(Token(TokenKind.IDENT, text, pos))
        elif not text.isspace():
            tokens.append(Token(TokenKind(text), text, pos))
        pos = match.end()
    return tokens


# --- abstract syntax ---------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    child: "Ast"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Ast"
    right: "Ast"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["Ast", ...] = field(default_factory=tuple)


Ast = Union[Num, Var, Neg, BinOp, Call]


MAX_DEPTH = 100
"""The deepest tree, and the deepest nesting of factors, a source may have.

It keeps parsing and every recursive walker of a tree well inside Python's
recursion limit: a parser nesting level costs at most five stack frames.
"""


def _depth(node: Ast) -> int:
    """Nodes on the longest root-to-leaf path, counted without recursion."""
    deepest, stack = 0, [(node, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(node, Neg):
            stack.append((node.child, depth + 1))
        elif isinstance(node, BinOp):
            stack += [(node.left, depth + 1), (node.right, depth + 1)]
        elif isinstance(node, Call):
            stack += [(arg, depth + 1) for arg in node.args]
    return deepest


def _too_deep(position: int) -> ExprSyntaxError:
    return ExprSyntaxError(f"expression is nested deeper than {MAX_DEPTH} levels", position)


class _Parser:
    def __init__(self, tokens: list[Token]):
        end = tokens[-1].position + len(tokens[-1].text) if tokens else 0
        self.tokens = [*tokens, Token(TokenKind.END, "", end)]
        self.pos = 0
        self.nesting = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def accept(self, *kinds: TokenKind) -> Token | None:
        return self.advance() if self.peek().kind in kinds else None

    def expect(self, kind: TokenKind) -> Token:
        tok = self.advance()
        if tok.kind is not kind:
            found = "end of input" if tok.kind is TokenKind.END else repr(tok.text)
            raise ExprSyntaxError(f"expected {kind.value!r}, found {found}", tok.position)
        return tok

    def parse(self) -> Ast:
        node = self.expression()
        tok = self.peek()
        if tok.kind is not TokenKind.END:
            raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.position)
        if _depth(node) > MAX_DEPTH:
            raise _too_deep(0)
        return node

    def expression(self) -> Ast:
        node = self.term()
        while tok := self.accept(TokenKind.PLUS, TokenKind.MINUS):
            node = BinOp(tok.text, node, self.term())
        return node

    def term(self) -> Ast:
        node = self.factor()
        while tok := self.accept(TokenKind.STAR, TokenKind.SLASH):
            node = BinOp(tok.text, node, self.factor())
        return node

    def factor(self) -> Ast:
        # every recursion of the parser passes through here
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise _too_deep(self.peek().position)
        node = Neg(self.factor()) if self.accept(TokenKind.MINUS) else self.power()
        self.nesting -= 1
        return node

    def power(self) -> Ast:
        node = self.atom()
        if self.accept(TokenKind.CARET):
            # exponent re-enters at factor level: x^-2 parses, -x^2 = -(x^2)
            node = BinOp("^", node, self.factor())
        return node

    def atom(self) -> Ast:
        tok = self.advance()
        if tok.kind is TokenKind.NUMBER:
            return Num(float(tok.text))
        if tok.kind is TokenKind.LPAREN:
            node = self.expression()
            self.expect(TokenKind.RPAREN)
            return node
        if tok.kind is TokenKind.IDENT:
            if self.accept(TokenKind.LPAREN):
                if tok.text not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {tok.text!r}", tok.position)
                args = [self.expression()]
                while self.accept(TokenKind.COMMA):
                    args.append(self.expression())
                self.expect(TokenKind.RPAREN)
                arity = 2 if tok.text == "pow" else 1
                if len(args) != arity:
                    raise ExprSyntaxError(
                        f"{tok.text} takes {arity} argument(s), got {len(args)}",
                        tok.position,
                    )
                return Call(tok.text, tuple(args))
            if tok.text == "x":
                return Var()
            raise ExprSyntaxError(
                f"unknown identifier {tok.text!r} (only variable 'x' is allowed)",
                tok.position,
            )
        if tok.kind is TokenKind.END:
            raise ExprSyntaxError("unexpected end of input", tok.position)
        raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.position)


def parse(tokens: list[Token]) -> Ast:
    return _Parser(tokens).parse()


def parse_source(source: str) -> Ast:
    return parse(tokenize(source))


# --- unparsing ---------------------------------------------------------------

_BIN_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _negative(node: Ast) -> bool:
    return isinstance(node, Num) and math.copysign(1.0, node.value) < 0.0


def _prec(node: Ast) -> int:
    if isinstance(node, BinOp):
        return _BIN_PREC[node.op]
    if isinstance(node, Neg) or _negative(node):
        return 3
    return 5


def unparse(node: Ast) -> str:
    """Render an Ast to source that re-parses to an identical tree.

    An infinite constant is written 1e999, and a negative one (-0.0 too) as
    a negation, which re-parses to Neg(Num(c)) and evaluates bit for bit alike.
    """
    if isinstance(node, Num):
        magnitude = abs(node.value)
        text = "1e999" if magnitude == math.inf else repr(magnitude)
        return "-" + text if _negative(node) else text
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Neg):
        inner = unparse(node.child)
        if _prec(node.child) < 3:
            inner = f"({inner})"
        return "-" + inner
    if isinstance(node, Call):
        return node.name + "(" + ", ".join(unparse(a) for a in node.args) + ")"
    left = unparse(node.left)
    right = unparse(node.right)
    if node.op == "^":
        if _prec(node.left) <= 4:
            left = f"({left})"
        if _prec(node.right) < 3:
            right = f"({right})"
    else:
        op_prec = _BIN_PREC[node.op]
        if _prec(node.left) < op_prec:
            left = f"({left})"
        if _prec(node.right) <= op_prec:
            right = f"({right})"
    return f"{left}{node.op}{right}"


# --- evaluation --------------------------------------------------------------


def _guard(bad, message: str, xs: np.ndarray) -> None:
    """Raise a domain error at the first x where the mask `bad` holds, if any x."""
    if xs.size and np.any(bad):
        idx = int(np.argmax(np.broadcast_to(bad, xs.shape).ravel()))
        raise ExprDomainError(message, float(xs.ravel()[idx]))


def _int_power(base: np.ndarray, n: int, xs: np.ndarray):
    if n == 0:
        return np.ones_like(base) if isinstance(base, np.ndarray) else np.float64(1.0)
    invert = n < 0
    n = abs(n)
    if invert:
        _guard(base == 0.0, "zero base with negative integer exponent", xs)
    result = None
    acc = base
    while n:
        if n & 1:
            result = acc if result is None else result * acc
        n >>= 1
        if n:
            acc = acc * acc
    return 1.0 / result if invert else result


# A compiled value is a folded constant, x-free but raising when folded, never
# written (xs, or a ^ or pow result, as x^1 is its base), or a temporary.
_CONST, _RAISES, _SHARED, _OWNED = range(4)
_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


def _checked(arg, kind, bad, message, by_min=True):
    """arg with its domain test, if any; a constant that passes needs none.

    A test by_min holds somewhere iff it holds at the NaN-free minimum.
    """
    if bad is None or kind == _CONST and not bad(arg(None)):
        return arg

    def checked(xs):
        v = arg(xs)
        if not (by_min and xs.size) or bad(np.fmin.reduce(v, axis=None)):
            _guard(bad(v), message, xs)
        return v

    return checked


def _unary(func, arg, kind):
    if kind == _OWNED:
        return lambda xs: func(v := arg(xs), out=v)
    return lambda xs: func(arg(xs))


def _binary(op, left, lkind, right, rkind):
    if lkind == _OWNED:
        return lambda xs: op(v := left(xs), right(xs), out=v)
    if rkind == _OWNED:
        return lambda xs: op(left(xs), v := right(xs), out=v)
    return lambda xs: op(left(xs), right(xs))


def _exponentiate(base, expo, expo_kind):
    """base^expo: exact repeated multiplication for an x-free integer expo."""
    if expo_kind == _CONST and (n := expo(None)).is_integer() and abs(n) <= 2**31:
        return lambda xs: _int_power(base(xs), int(n), xs)

    def power(xs):
        b, e = base(xs), expo(xs)
        # b <= 0 holds somewhere iff it holds at the NaN-free minimum
        if xs.size and np.fmin.reduce(b, axis=None) <= 0.0:
            _guard(b <= 0.0, "non-integer power of a non-positive base", xs)
        return np.exp(e * np.log(b))

    return power


def _compile(node: Ast):
    """Compile a tree into (evaluator of xs, kind of the value it returns).

    Each x-free subtree is evaluated here, once, into an np.float64 constant;
    one whose evaluation raises is kept, to raise at the call's x.
    """
    if isinstance(node, Num):
        value = np.float64(node.value)
        return (lambda xs: value), _CONST
    if isinstance(node, Var):
        return (lambda xs: xs), _SHARED
    if isinstance(node, BinOp):
        op, children = node.op, (node.left, node.right)
    else:
        op, children = ("neg", (node.child,)) if isinstance(node, Neg) else (node.name, node.args)
    (fn, kind), *rest = args = [_compile(child) for child in children]
    if op in ("^", "pow"):
        fn = _exponentiate(fn, *rest[0])
    elif rest:
        right, rkind = rest[0]
        if op == "/":
            right = _checked(right, rkind, lambda v: v == 0.0, "division by zero", False)
        fn = _binary(_UFUNCS[op], fn, kind, right, rkind)
    else:
        func, bad, message = FUNCTIONS.get(op, (np.negative, None, None))
        fn = _unary(func, _checked(fn, kind, bad, message), kind)
    if max(k for _, k in args) >= _SHARED:
        return fn, _SHARED if op in ("^", "pow") else _OWNED
    try:
        with np.errstate(all="ignore"):
            value = np.float64(fn(np.zeros(1)))
    except ExprDomainError:
        return fn, _RAISES
    return (lambda xs: value), _CONST


BUILTINS = ("square", "exponential", "identity", "constant", "abs_shift")


@dataclass(frozen=True)
class FunctionDef:
    """A user function: its source label and expression tree, compiled once."""

    source: str
    ast: Ast
    _evaluate: Callable = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_evaluate", _compile(self.ast)[0])

    def __reduce__(self):
        return FunctionDef, (self.source, self.ast)

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        scalar = xs.ndim == 0
        if scalar:
            xs = xs.reshape(1)
        with np.errstate(all="ignore"):
            values = self._evaluate(xs)
        if not isinstance(values, np.ndarray):
            values = np.broadcast_to(values, xs.shape)  # f is free of x
        # NaN propagates through max, which an empty xs does not have
        if xs.size and math.isnan(values.max()):
            _guard(np.isnan(values), "evaluation produced NaN", xs)
        if scalar:
            return float(values[0])
        values = values.view()  # read-only, as values may be the caller's own xs
        values.flags.writeable = False
        return values


def parse_function(source: str) -> FunctionDef:
    return FunctionDef(source=source, ast=parse_source(source))


def builtin_function(name: str, param: float | None = None) -> FunctionDef:
    if name not in BUILTINS:
        raise ValueError(f"unknown builtin {name!r}; choose from {BUILTINS}")
    takes_param = name in ("constant", "abs_shift")
    if takes_param and param is None:
        raise ValueError(f"builtin {name!r} requires a parameter")
    if not takes_param and param is not None:
        raise ValueError(f"builtin {name!r} takes no parameter")
    label = f"{name}({param:g})" if takes_param else name
    trees = {
        "square": BinOp("*", Var(), Var()),
        "exponential": Call("exp", (Var(),)),
        "identity": Var(),
        "constant": Num(param),
        "abs_shift": Call("abs", (BinOp("-", Var(), Num(param)),)),
    }
    return FunctionDef(source=label, ast=trees[name])


def evaluate(f: FunctionDef, x: float) -> float:
    """Evaluate a function definition at a single point."""
    return f(float(x))
