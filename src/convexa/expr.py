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
made itself, or into a slot of the scratch arrays that `FunctionDef.scratch`
hands out, which then hold every temporary of the call. One chain serves a
scalar and an ndarray, with or without scratch, so grid scans and pointwise
recomputation agree bit-for-bit.
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


def _at_min(bad):
    """The pretest of a domain test that holds somewhere iff it holds at the
    NaN-free minimum."""
    return lambda v: bad(np.fmin.reduce(v, axis=None))


def _spans_zero(v) -> bool:
    """The pretest of v == 0: a zero lies in the NaN-free range of v."""
    return np.fmin.reduce(v, axis=None) <= 0.0 <= np.fmax.reduce(v, axis=None)


def _int_power(base, n: int, xs: np.ndarray, res=None, sq=None):
    """base^n by repeated squaring, written into the slots res and sq when
    given (None allocates). acc squares in place in sq; while the result is
    acc itself, the slots trade roles first."""
    if n == 0:
        return np.power(base, 0.0, out=res)  # 1 for every base, NaN included
    invert = n < 0
    n = abs(n)
    if invert and xs.size and _spans_zero(base):
        _guard(base == 0.0, "zero base with negative integer exponent", xs)
    result = None
    acc = base
    while n:
        if n & 1:
            result = acc if result is None else np.multiply(result, acc, out=res)
        n >>= 1
        if n:
            if result is acc:
                res, sq = sq, res
            acc = np.multiply(acc, acc, out=sq)
    return np.divide(1.0, result, out=res) if invert else result


# A compiled value is a folded constant, x-free but raising when folded, never
# written (xs), or a temporary.
_CONST, _RAISES, _SHARED, _OWNED = range(4)
_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


def _checked(arg, kind, bad, message, suspect):
    """arg with its domain test, if any; a constant that passes needs none.

    The mask of `bad` is built only where the reduction `suspect`, which
    holds whenever `bad` holds somewhere, holds.
    """
    if bad is None or kind == _CONST and not bad(arg(None, ())):
        return arg

    def checked(xs, out):
        v = arg(xs, out)
        if xs.size and suspect(v):
            _guard(bad(v), message, xs)
        return v

    return checked


def _unary(func, arg, kind, top):
    if kind == _OWNED:
        return (lambda xs, out: func(v := arg(xs, out), out=v)), top
    return (lambda xs, out: func(arg(xs, out), out=out[top])), top + 1


def _binary(op, left, lkind, ltop, right, rkind, rtop):
    if lkind == _OWNED:
        return (lambda xs, out: op(v := left(xs, out), right(xs, out), out=v)), ltop
    if rkind == _OWNED:
        return (lambda xs, out: op(left(xs, out), v := right(xs, out), out=v)), rtop
    return (lambda xs, out: op(left(xs, out), right(xs, out), out=out[rtop])), rtop + 1


def _exponentiate(base, bkind, btop, expo, expo_kind, etop):
    """base^expo: exact repeated multiplication for an x-free integer expo.

    Returns the evaluator, its kind and the slot after its result.
    """
    if expo_kind == _CONST and (n := expo(None, ())).is_integer() and abs(n) <= 2**31:
        n = int(n)
        if n == 1:
            return base, bkind, btop
        # res and sq are one array unless n has two set bits: the base's own
        # temporary, if it has one, or else a slot
        two_slots = bin(n).count("1") > 1
        if bkind == _OWNED and not two_slots:
            return (lambda xs, out: _int_power(b := base(xs, out), n, xs, b, b)), _OWNED, btop
        last = btop + two_slots
        return (
            lambda xs, out: _int_power(base(xs, out), n, xs, out[btop], out[last])
        ), _OWNED, last + 1

    def power(xs, out):
        b, e = base(xs, out), expo(xs, out)
        # b <= 0 holds somewhere iff it holds at the NaN-free minimum
        if xs.size and np.fmin.reduce(b, axis=None) <= 0.0:
            _guard(b <= 0.0, "non-integer power of a non-positive base", xs)
        v = np.multiply(e, np.log(b, out=out[etop]), out=out[etop])
        return np.exp(v, out=out[etop])

    return power, _OWNED, etop + 1


def _compile(node: Ast, base: int = 0):
    """Compile a tree into (evaluator of (xs, out), kind of its value, top, end).

    out[k] is scratch slot k, an array shaped like xs, or None for every
    k, when each operation allocates its result. The subtree's temporaries
    use slots base to end - 1, and its value none from top on, so a later
    sibling starts at top. Each x-free subtree is evaluated here, once,
    into an np.float64 constant; one whose evaluation raises is kept, to
    raise at the call's x.
    """
    if isinstance(node, Num):
        value = np.float64(node.value)
        return (lambda xs, out: value), _CONST, base, base
    if isinstance(node, Var):
        return (lambda xs, out: xs), _SHARED, base, base
    if isinstance(node, BinOp):
        op, children = node.op, (node.left, node.right)
    else:
        op, children = ("neg", (node.child,)) if isinstance(node, Neg) else (node.name, node.args)
    args, top = [], base
    for child in children:
        args.append(compiled := _compile(child, top))
        top = compiled[2]
    (fn, kind, ltop, _), *rest = args
    if op in ("^", "pow"):
        fn, kind, top = _exponentiate(fn, kind, ltop, rest[0][0], rest[0][1], top)
    elif rest:
        right, rkind, rtop, _ = rest[0]
        if op == "/":
            right = _checked(right, rkind, lambda v: v == 0.0, "division by zero", _spans_zero)
        fn, top = _binary(_UFUNCS[op], fn, kind, ltop, right, rkind, rtop)
        kind = _OWNED
    else:
        func, bad, message = FUNCTIONS.get(op, (np.negative, None, None))
        fn, top = _unary(func, _checked(fn, kind, bad, message, bad and _at_min(bad)), kind, top)
        kind = _OWNED
    end = max(top, *(a[3] for a in args))
    if max(a[1] for a in args) >= _SHARED:
        return fn, kind, top, end
    try:
        with np.errstate(all="ignore"):
            value = np.float64(fn(np.zeros(1), (None,) * end))
    except ExprDomainError:
        return fn, _RAISES, top, end
    return (lambda xs, out: value), _CONST, base, base


BUILTINS = ("square", "exponential", "identity", "constant", "abs_shift")


@dataclass(frozen=True)
class FunctionDef:
    """A user function: its source label and expression tree, compiled once."""

    source: str
    ast: Ast
    _evaluate: Callable = field(init=False, compare=False, repr=False)
    _slot_count: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        fn, kind, _, slot_count = _compile(self.ast)
        if kind == _SHARED:  # f = x copies x, so f never hands back its input
            fn, slot_count = (lambda xs, out: np.positive(xs, out=out[0])), 1
        object.__setattr__(self, "_evaluate", fn)
        object.__setattr__(self, "_slot_count", slot_count)

    def __reduce__(self):
        return FunctionDef, (self.source, self.ast)

    def scratch(self, size: int) -> tuple[np.ndarray, ...]:
        """One array of `size` points per slot, for calls on up to `size` points."""
        return tuple(np.empty(size) for _ in range(self._slot_count))

    def __call__(self, x, scratch: tuple[np.ndarray, ...] | None = None):
        """f at x: a float for a scalar x, else a read-only array of x's shape.

        Without scratch the array is new and floating-point warnings are
        ignored. With this function's `scratch(size)`, the caller holds an
        np.errstate that ignores them, every temporary is written into the
        scratch arrays, and the values live until their next use.
        """
        xs = np.asarray(x, dtype=float)
        scalar = xs.ndim == 0
        if scalar:
            xs = xs.reshape(1)
        if scratch is None:
            with np.errstate(all="ignore"):
                values = self._evaluate(xs, (None,) * self._slot_count)
        else:
            # a list: tuple() of a generator would grow CPython's tuple free list per call
            values = self._evaluate(xs, tuple([a[: xs.size].reshape(xs.shape) for a in scratch]))
        if not isinstance(values, np.ndarray):
            values = np.broadcast_to(values, xs.shape)  # f is free of x
        # NaN propagates through max, which an empty xs does not have
        if xs.size and math.isnan(values.max()):
            _guard(np.isnan(values), "evaluation produced NaN", xs)
        if scalar:
            return float(values[0])
        values = values.view()  # read-only, as values may live in f's scratch
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
