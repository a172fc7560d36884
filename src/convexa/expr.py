"""Tokenizer, recursive-descent parser, and evaluator for user functions.

Grammar (as printed by the CLI help):

    expr    = term { ("+" | "-") term } ;
    term    = factor { ("*" | "/") factor } ;
    factor  = "-" factor | power ;
    power   = atom [ "^" factor ] ;          (right-associative)
    atom    = NUMBER | "x" | FUNC "(" expr { "," expr } ")" | "(" expr ")" ;
    FUNC    = "exp" | "ln" | "sqrt" | "abs" | "sin" | "cos" | "pow" ;

"^" is real power: exact repeated multiplication for constant integer
exponents, exp(y*ln x) with x > 0 otherwise. A NaN never propagates
silently; it is converted to a domain error carrying the offending x.
Evaluation accepts a scalar or an ndarray and uses one code path for both,
so grid scans and pointwise recomputation agree bit-for-bit.
"""

import enum
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


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    position: int


_SYMBOLS = {
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "^": TokenKind.CARET,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ",": TokenKind.COMMA,
}

FUNCTIONS = {"exp": 1, "ln": 1, "sqrt": 1, "abs": 1, "sin": 1, "cos": 1, "pow": 2}


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(Token(_SYMBOLS[ch], ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            start = i
            while i < n and source[i].isdigit():
                i += 1
            if i < n and source[i] == ".":
                i += 1
                while i < n and source[i].isdigit():
                    i += 1
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and source[j].isdigit():
                    i = j
                    while i < n and source[i].isdigit():
                        i += 1
            tokens.append(Token(TokenKind.NUMBER, source[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(Token(TokenKind.IDENT, source[start:i], start))
            continue
        raise ExprSyntaxError(f"illegal character {ch!r}", i)
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


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def _end_position(self) -> int:
        if not self.tokens:
            return 0
        last = self.tokens[-1]
        return last.position + len(last.text)

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of input", self._end_position())
        self.pos += 1
        return tok

    def expect(self, kind: TokenKind) -> Token:
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError(
                f"expected {kind.value!r}, found end of input", self._end_position()
            )
        if tok.kind is not kind:
            raise ExprSyntaxError(
                f"expected {kind.value!r}, found {tok.text!r}", tok.position
            )
        self.pos += 1
        return tok

    def parse(self) -> Ast:
        node = self.expression()
        tok = self.peek()
        if tok is not None:
            raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.position)
        return node

    def expression(self) -> Ast:
        node = self.term()
        while (tok := self.peek()) is not None and tok.kind in (
            TokenKind.PLUS,
            TokenKind.MINUS,
        ):
            self.advance()
            node = BinOp(tok.text, node, self.term())
        return node

    def term(self) -> Ast:
        node = self.factor()
        while (tok := self.peek()) is not None and tok.kind in (
            TokenKind.STAR,
            TokenKind.SLASH,
        ):
            self.advance()
            node = BinOp(tok.text, node, self.factor())
        return node

    def factor(self) -> Ast:
        tok = self.peek()
        if tok is not None and tok.kind is TokenKind.MINUS:
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Ast:
        node = self.atom()
        tok = self.peek()
        if tok is not None and tok.kind is TokenKind.CARET:
            self.advance()
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
            nxt = self.peek()
            if nxt is not None and nxt.kind is TokenKind.LPAREN:
                if tok.text not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {tok.text!r}", tok.position)
                self.advance()
                args = [self.expression()]
                while (t := self.peek()) is not None and t.kind is TokenKind.COMMA:
                    self.advance()
                    args.append(self.expression())
                self.expect(TokenKind.RPAREN)
                if len(args) != FUNCTIONS[tok.text]:
                    raise ExprSyntaxError(
                        f"{tok.text} takes {FUNCTIONS[tok.text]} argument(s), "
                        f"got {len(args)}",
                        tok.position,
                    )
                return Call(tok.text, tuple(args))
            if tok.text == "x":
                return Var()
            raise ExprSyntaxError(
                f"unknown identifier {tok.text!r} (only variable 'x' is allowed)",
                tok.position,
            )
        raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.position)


def parse(tokens: list[Token]) -> Ast:
    return _Parser(tokens).parse()


def parse_source(source: str) -> Ast:
    return parse(tokenize(source))


# --- unparsing ---------------------------------------------------------------

_BIN_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _prec(node: Ast) -> int:
    if isinstance(node, BinOp):
        return _BIN_PREC[node.op]
    if isinstance(node, Neg):
        return 3
    return 5


def unparse(node: Ast) -> str:
    """Render an Ast to source that re-parses to an identical tree."""
    if isinstance(node, Num):
        return repr(node.value)
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


def _const_value(node: Ast) -> float | None:
    """Fold an x-free subtree of +,-,*,/ and negation into a float."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Neg):
        v = _const_value(node.child)
        return None if v is None else -v
    if isinstance(node, BinOp) and node.op in ("+", "-", "*", "/"):
        lv = _const_value(node.left)
        rv = _const_value(node.right)
        if lv is None or rv is None:
            return None
        if node.op == "+":
            return lv + rv
        if node.op == "-":
            return lv - rv
        if node.op == "*":
            return lv * rv
        return lv / rv if rv != 0.0 else None
    return None


def _first_offending_x(xs: np.ndarray, mask) -> float:
    flat = np.broadcast_to(mask, xs.shape).ravel()
    idx = int(np.argmax(flat))
    return float(xs.ravel()[idx])


def _int_power(base: np.ndarray, n: int, xs: np.ndarray):
    if n == 0:
        return np.ones_like(base) if isinstance(base, np.ndarray) else 1.0
    invert = n < 0
    n = abs(n)
    if invert and np.any(base == 0.0):
        raise ExprDomainError(
            "zero base with negative integer exponent",
            _first_offending_x(xs, base == 0.0),
        )
    result = None
    acc = base
    while n:
        if n & 1:
            result = acc if result is None else result * acc
        n >>= 1
        if n:
            acc = acc * acc
    return 1.0 / result if invert else result


def _power(base, exponent_node: Ast, xs: np.ndarray):
    const = _const_value(exponent_node)
    if const is not None and float(const).is_integer() and abs(const) <= 2**31:
        return _int_power(base, int(const), xs)
    expo = _eval_node(exponent_node, xs)
    if np.any(base <= 0.0):
        raise ExprDomainError(
            "non-integer power of a non-positive base",
            _first_offending_x(xs, base <= 0.0),
        )
    return np.exp(expo * np.log(base))


def _eval_node(node: Ast, xs: np.ndarray):
    if isinstance(node, Num):
        return np.float64(node.value)
    if isinstance(node, Var):
        return xs
    if isinstance(node, Neg):
        return -_eval_node(node.child, xs)
    if isinstance(node, Call):
        if node.name == "pow":
            return _power(_eval_node(node.args[0], xs), node.args[1], xs)
        v = _eval_node(node.args[0], xs)
        if node.name == "exp":
            return np.exp(v)
        if node.name == "ln":
            if np.any(v <= 0.0):
                raise ExprDomainError(
                    "ln of a non-positive argument", _first_offending_x(xs, v <= 0.0)
                )
            return np.log(v)
        if node.name == "sqrt":
            if np.any(v < 0.0):
                raise ExprDomainError(
                    "sqrt of a negative argument", _first_offending_x(xs, v < 0.0)
                )
            return np.sqrt(v)
        if node.name == "abs":
            return np.abs(v)
        if node.name == "sin":
            return np.sin(v)
        return np.cos(v)
    if node.op == "^":
        return _power(_eval_node(node.left, xs), node.right, xs)
    left = _eval_node(node.left, xs)
    right = _eval_node(node.right, xs)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if np.any(right == 0.0):
        raise ExprDomainError("division by zero", _first_offending_x(xs, right == 0.0))
    return left / right


BUILTINS = ("square", "exponential", "identity", "constant", "abs_shift")


@dataclass(frozen=True)
class FunctionDef:
    """A user function: its source label and expression tree."""

    source: str
    ast: Ast

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        scalar = xs.ndim == 0
        if scalar:
            xs = xs.reshape(1)
        with np.errstate(all="ignore"):
            values = np.broadcast_to(np.asarray(_eval_node(self.ast, xs)), xs.shape)
        if np.isnan(values).any():
            raise ExprDomainError(
                "evaluation produced NaN", _first_offending_x(xs, np.isnan(values))
            )
        return float(values[0]) if scalar else values


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
