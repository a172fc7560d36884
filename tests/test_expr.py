import copy
import dataclasses
import math
import operator
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convexa.expr import (
    FUNCTIONS,
    GRAMMAR,
    MAX_DEPTH,
    BinOp,
    Call,
    ExprDomainError,
    ExprSyntaxError,
    FunctionDef,
    Neg,
    Num,
    TokenKind,
    Var,
    _guard,
    check_nan,
    _int_power,
    builtin_function,
    evaluate,
    parse,
    parse_function,
    parse_source,
    tokenize,
    unparse,
)

# (source, x, expected) -- expected values hand-computed / via libm directly
CORPUS = [
    ("x^2+3*x", 2.0, 10.0),
    ("2*x^3", 2.0, 16.0),
    ("-x^2", 3.0, -9.0),
    ("1+2*3", 0.0, 7.0),
    ("(1+2)*3", 0.0, 9.0),
    ("2^3^2", 0.0, 512.0),
    ("(2^3)^2", 0.0, 64.0),
    ("x^-2", 2.0, 0.25),
    ("exp(x)", 0.0, 1.0),
    ("exp(x)", 0.3, math.exp(0.3)),
    ("ln(x)", math.e, 1.0),
    ("sqrt(x)", 4.0, 2.0),
    ("abs(x-0.5)", 0.2, 0.3),
    ("sin(x)", 0.7, math.sin(0.7)),
    ("cos(x)", 0.7, math.cos(0.7)),
    ("pow(x,3)", 2.0, 8.0),
    ("pow(x,0.5)", 9.0, 3.0),
    ("x/4", 1.0, 0.25),
    ("1/x", 8.0, 0.125),
    ("x*x-x", 3.0, 6.0),
    ("x-x-x", 5.0, -5.0),
    ("x/2/2", 8.0, 2.0),
    ("-(x+1)", 2.0, -3.0),
    ("--x", 1.5, 1.5),
    ("2*-x", 3.0, -6.0),
    ("x^0.5", 2.0, math.sqrt(2.0)),
    ("x^(1/3)", 8.0, 2.0),
    ("0.5*x+1.5", 1.0, 2.0),
    ("1e2*x", 0.5, 50.0),
    ("2.5e-1+x", 0.0, 0.25),
    ("x^2*x^3", 2.0, 32.0),
    ("(x+1)*(x-1)", 3.0, 8.0),
    ("exp(ln(x))", 5.0, 5.0),
    ("sqrt(x^2)", 3.0, 3.0),
    ("abs(-x)", 2.5, 2.5),
    ("x^2/2", 3.0, 4.5),
    ("3*x^2 - 2*x + 1", 2.0, 9.0),
    ("x^4", 1.5, 5.0625),
    ("x^1.5", 4.0, 8.0),
    ("pow(2, x)", 3.0, 8.0),
    ("sin(x)^2 + cos(x)^2", 1.1, 1.0),
    ("(x)", 7.0, 7.0),
    ("((x))", 7.0, 7.0),
    ("x", -3.0, -3.0),
    ("5", 999.0, 5.0),
    ("-5", 0.0, -5.0),
    ("x*(x+2)/2", 4.0, 12.0),
    (" 1 + x ", 1.0, 2.0),
    ("exp(-x^2)", 1.0, math.exp(-1.0)),
    ("ln(x^2)", math.e, 2.0),
]


def test_corpus_size():
    assert len(CORPUS) == 50


# -- tokenizer --------------------------------------------------------------------


def test_tokenize_power():
    kinds = [t.kind for t in tokenize("x^2")]
    assert kinds == [TokenKind.IDENT, TokenKind.CARET, TokenKind.NUMBER]


def test_tokenize_call():
    kinds = [t.kind for t in tokenize("exp(x)")]
    assert kinds == [
        TokenKind.IDENT,
        TokenKind.LPAREN,
        TokenKind.IDENT,
        TokenKind.RPAREN,
    ]


def test_tokenize_illegal_character():
    with pytest.raises(ExprSyntaxError) as exc:
        tokenize("2$x")
    assert exc.value.position == 1


def test_tokenize_positions_cover_source():
    source = "1.5*exp(x) - 2"
    for token in tokenize(source):
        assert source[token.position : token.position + len(token.text)] == token.text


# -- parser -----------------------------------------------------------------------


def test_precedence_power_over_times():
    tree = parse_source("2*x^3")
    assert tree == BinOp("*", Num(2.0), BinOp("^", Var(), Num(3.0)))


def test_unary_minus_below_power():
    tree = parse_source("-x^2")
    assert tree == Neg(BinOp("^", Var(), Num(2.0)))


def test_times_over_plus():
    assert evaluate(parse_function("1+2*3"), 0.0) == 7.0


def test_power_right_associative():
    assert parse_source("2^3^2") == BinOp(
        "^", Num(2.0), BinOp("^", Num(3.0), Num(2.0))
    )


def test_call_arity_checked():
    with pytest.raises(ExprSyntaxError):
        parse_source("exp(x, 1)")
    with pytest.raises(ExprSyntaxError):
        parse_source("pow(x)")


def test_unknown_identifier_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_source("x + y")
    assert exc.value.position == 4


def test_unknown_function():
    with pytest.raises(ExprSyntaxError):
        parse_source("foo(x)")


def test_unbalanced_parens():
    with pytest.raises(ExprSyntaxError):
        parse_source("(x+1")
    with pytest.raises(ExprSyntaxError):
        parse_source("x+1)")


def test_trailing_garbage():
    with pytest.raises(ExprSyntaxError):
        parse_source("x 1")


def test_empty_input():
    with pytest.raises(ExprSyntaxError):
        parse_source("")


def test_end_of_input_messages():
    # the end of input is where the last token ends, trailing blanks aside
    with pytest.raises(ExprSyntaxError, match=r"^unexpected end of input \(at offset 3\)$"):
        parse_source("x + ")
    with pytest.raises(
        ExprSyntaxError, match=r"^expected '\)', found end of input \(at offset 4\)$"
    ):
        parse_source("(x+1 ")


def test_only_decimal_digits_form_numbers():
    assert parse_source("\u0663*x") == BinOp("*", Num(3.0), Var())  # Arabic-Indic 3
    for source in ("\u00b2", "1\u00b2", "\u00bd"):  # superscript two, one half
        with pytest.raises(ExprSyntaxError):
            parse_source(source)


def test_grammar_lists_every_function():
    func_line = GRAMMAR.splitlines()[-1]
    assert func_line == "FUNC    = " + " | ".join(f'"{n}"' for n in FUNCTIONS) + " ;"


@pytest.mark.parametrize(
    "build",
    [
        lambda n: "+".join(["x"] * n),  # tree depth n, flat in the parser
        lambda n: "(" * (n - 1) + "x" + ")" * (n - 1),  # parser nesting n
        lambda n: "-" * (n - 1) + "x",  # both
        lambda n: "2^" * (n - 1) + "x",  # both, by the power chain
    ],
)
def test_nesting_bound(build):
    parse_function(build(MAX_DEPTH))(0.5)  # at the bound: parses and evaluates
    with pytest.raises(ExprSyntaxError, match="nested deeper than"):
        parse_source(build(MAX_DEPTH + 2))


# -- round trip and evaluation ------------------------------------------------------


@pytest.mark.parametrize("source,x,expected", CORPUS)
def test_corpus_roundtrip(source, x, expected):
    tree = parse_source(source)
    assert parse_source(unparse(tree)) == tree


@pytest.mark.parametrize("source,x,expected", CORPUS)
def test_corpus_evaluation(source, x, expected):
    value = evaluate(parse_function(source), x)
    assert value == pytest.approx(expected, rel=1e-14, abs=1e-14)


_leaf = st.one_of(
    st.just(Var()),
    st.builds(Num, st.floats(min_value=0.0, max_value=9.0, width=32)),
)


def _ast_strategy(leaf=_leaf):
    unary_names = st.sampled_from(["exp", "sin", "cos", "abs"])
    return st.recursive(
        leaf,
        lambda children: st.one_of(
            st.builds(Neg, children),
            st.builds(
                BinOp, st.sampled_from(["+", "-", "*", "/", "^"]), children, children
            ),
            st.builds(
                lambda name, a: Call(name, (a,)), unary_names, children
            ),
            st.builds(lambda a, b: Call("pow", (a, b)), children, children),
        ),
        max_leaves=12,
    )


@settings(deadline=None, max_examples=300)
@given(_ast_strategy())
def test_generated_ast_roundtrip(tree):
    assert parse_source(unparse(tree)) == tree


_ROUNDTRIP_XS = np.array([-2.0, -0.0, 0.0, 0.5, 1.0, 3.0])


def _outcome(tree):
    try:
        return FunctionDef("f", tree)(_ROUNDTRIP_XS).tobytes()
    except ExprDomainError as exc:
        return str(exc)


@settings(deadline=None, max_examples=300)
@given(_ast_strategy(st.one_of(st.just(Var()), st.builds(Num, st.floats(allow_nan=False)))))
@example(BinOp("^", Num(-2.0), Var()))  # not -(2^x)
@example(Num(math.inf))  # not the identifier inf
@example(BinOp("^", Num(-0.0), Num(2.0)))  # +0.0, not -(0^2) = -0.0
def test_any_constant_roundtrip_evaluates_alike(tree):
    """Constants of any sign or size, -0.0 and +-inf re-parse to the same function."""
    assert _outcome(parse_source(unparse(tree))) == _outcome(tree)


# -- fuzzing ------------------------------------------------------------------------

_FUZZ_ALPHABET = "0123456789.eExyabcilnopqrstw_+-*/^(), " + "\u00b2\u00bd\u00e9\u0663\u00a0"
_FUZZ_XS = np.array([-1e308, -2.5, -1.0, -0.0, 0.0, 5e-324, 0.3, 1.0, 2.0, 710.0, 1e308])


@settings(deadline=None, max_examples=1000)
@given(st.text(alphabet=_FUZZ_ALPHABET, max_size=40))
@example("\u00b2")
@example("1\u00b2")
@example("(" * 400 + "x" + ")" * 400)
@example("+".join(["x"] * 3000))
def test_fuzz_parse_and_evaluate(source):
    """Any text parses or is a syntax error, and evaluates or is a domain error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            f = parse_function(source)
        except ExprSyntaxError:
            return
        assert isinstance(f, FunctionDef)
        for x in (_FUZZ_XS, 0.5):
            try:
                f(x)
            except ExprDomainError:
                pass


# -- domain errors ------------------------------------------------------------------


def test_ln_nonpositive():
    f = parse_function("ln(x)")
    with pytest.raises(ExprDomainError) as exc:
        evaluate(f, 0.0)
    assert exc.value.x == 0.0


def test_sqrt_negative():
    with pytest.raises(ExprDomainError):
        evaluate(parse_function("sqrt(x)"), -1.0)


def test_division_by_zero():
    with pytest.raises(ExprDomainError) as exc:
        evaluate(parse_function("1/x"), 0.0)
    assert exc.value.x == 0.0


def test_zero_to_negative_integer():
    with pytest.raises(ExprDomainError):
        evaluate(parse_function("x^-1"), 0.0)


def test_negative_base_fractional_power():
    with pytest.raises(ExprDomainError):
        evaluate(parse_function("x^0.5"), -2.0)
    with pytest.raises(ExprDomainError):
        evaluate(parse_function("pow(x, 2.5)"), -2.0)


def test_negative_base_integer_power_allowed():
    assert evaluate(parse_function("x^2"), -3.0) == 9.0
    assert evaluate(parse_function("x^3"), -2.0) == -8.0
    assert evaluate(parse_function("x^-2"), -2.0) == 0.25


def test_exponent_free_of_x_is_an_integer_power():
    # exact where exp(y*ln x) is not, and defined at a negative base
    assert evaluate(parse_function("2^3^2"), 0.0) == 512.0
    assert evaluate(parse_function("x^sqrt(4)"), -3.0) == 9.0
    assert evaluate(parse_function("x^exp(0)"), -2.0) == -2.0
    assert evaluate(parse_function("pow(x, abs(-3))"), -2.0) == -8.0


@pytest.mark.parametrize("source,x,message", [
    ("x^(1/0)", 2.0, "division by zero"),
    ("x^ln(0)", 2.0, "ln of a non-positive argument"),
    ("x^sqrt(2)", -1.0, "non-integer power of a non-positive base"),
])
def test_exponent_free_of_x_keeps_its_domain_errors(source, x, message):
    with pytest.raises(ExprDomainError, match=message) as exc:
        evaluate(parse_function(source), x)
    assert exc.value.x == x


def test_nan_converted_to_domain_error():
    # inf - inf inside, without a negative-domain trigger
    f = parse_function("exp(1/x) - exp(1/x)*1")
    with pytest.raises(ExprDomainError):
        evaluate(f, 1e-3)


def test_array_eval_matches_scalar_bitwise():
    f = parse_function("exp(-x^2) + sin(x)/3 + x^0.5")
    xs = np.linspace(0.01, 3.0, 257)
    values = f(xs)
    for i in range(0, 257, 16):
        assert values[i] == f(float(xs[i]))


# -- builtins -----------------------------------------------------------------------


def test_builtins():
    assert builtin_function("square")(3.0) == 9.0
    assert builtin_function("exponential")(0.0) == 1.0
    assert builtin_function("identity")(2.5) == 2.5
    assert builtin_function("constant", 4.0)(99.0) == 4.0
    assert builtin_function("abs_shift", 1.0)(0.25) == 0.75


def test_builtin_validation():
    with pytest.raises(ValueError):
        builtin_function("cube")
    with pytest.raises(ValueError):
        builtin_function("constant")
    with pytest.raises(ValueError):
        builtin_function("square", 2.0)


def test_builtin_array_eval():
    f = builtin_function("abs_shift", 0.5)
    xs = np.array([0.0, 0.5, 2.0])
    assert list(f(xs)) == [0.5, 0.0, 1.5]
    # every builtin is an expression tree: bit for bit its parsed source
    # and the numpy formula, on arrays and on scalars, signed zeros included
    xs = np.array([-1e308, -710.0, -2.5, -0.0, 0.0, 5e-324, 0.5, 1.25, 710.0, 1e308])
    with np.errstate(over="ignore"):
        cases = [
            (("square", None), "x*x", xs * xs),
            (("exponential", None), "exp(x)", np.exp(xs)),
            (("identity", None), "x", xs),
            (("constant", -1.25), "-1.25", np.full_like(xs, -1.25)),
            (("constant", 0.0), "0.0", np.full_like(xs, 0.0)),
            (("abs_shift", 0.5), "abs(x-0.5)", np.abs(xs - 0.5)),
            (("abs_shift", -1e308), "abs(x-(-1e308))", np.abs(xs + 1e308)),
        ]
    for (name, param), source, expected in cases:
        f = builtin_function(name, param)
        parsed = parse_function(source)
        assert f(xs).tobytes() == parsed(xs).tobytes() == expected.tobytes()
        for x, e in zip(xs, expected):
            bits = {float(f(float(x))).hex(), float(parsed(float(x))).hex()}
            assert bits == {float(e).hex()}
    assert builtin_function("abs_shift", 0.5).source == "abs_shift(0.5)"


# -- differential: the tree-walking evaluator as an oracle ---------------------------
#
# The evaluator below is the tree walk that preceded the compiled one, kept
# verbatim as the reference. It shares `_guard` and `_int_power` with the
# module, so a change to either shows in both.

_ORACLE_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
                 "/": operator.truediv}


def _oracle_power(base, exponent_node, xs):
    expo = _oracle_eval_node(exponent_node, xs)
    if not isinstance(expo, np.ndarray) and expo.is_integer() and abs(expo) <= 2**31:
        return _int_power(base, int(expo), xs)
    _guard(base <= 0.0, "non-integer power of a non-positive base", xs)
    return np.exp(expo * np.log(base))


def _oracle_eval_node(node, xs):
    if isinstance(node, Num):
        return np.float64(node.value)
    if isinstance(node, Var):
        return xs
    if isinstance(node, Neg):
        return -_oracle_eval_node(node.child, xs)
    if isinstance(node, Call):
        if node.name == "pow":
            return _oracle_power(_oracle_eval_node(node.args[0], xs), node.args[1], xs)
        func, bad, message = FUNCTIONS[node.name]
        v = _oracle_eval_node(node.args[0], xs)
        if bad is not None:
            _guard(bad(v), message, xs)
        return func(v)
    if node.op == "^":
        return _oracle_power(_oracle_eval_node(node.left, xs), node.right, xs)
    left = _oracle_eval_node(node.left, xs)
    right = _oracle_eval_node(node.right, xs)
    if node.op == "/":
        _guard(right == 0.0, "division by zero", xs)
    return _ORACLE_ARITH[node.op](left, right)


def _oracle_call(tree, x):
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    if scalar:
        xs = xs.reshape(1)
    with np.errstate(all="ignore"):
        values = np.broadcast_to(np.asarray(_oracle_eval_node(tree, xs)), xs.shape)
    _guard(np.isnan(values), "evaluation produced NaN", xs)
    return float(values[0]) if scalar else values


# a scalar, 1 point, 15 points and one scan tile
_DIFF_15 = np.array([-1e308, -2.5, -1.0, -0.0, 0.0, 5e-324, 0.3, 0.5, 1.0, 2.0,
                     3.0, 7.25, 710.0, 1e300, 1e308])
_DIFF_INPUTS = (0.3, np.array([-2.5]), _DIFF_15,
                np.linspace(1e-3, 4.0, 2 * 41 * 99).reshape(2, 41, 99))

_DIFF_CONSTANTS = st.sampled_from(
    [0.0, -0.0, 0.5, 1.0, 2.0, 3.0, -1.0, -2.0, 1.5, 1 / 3, 1e-320, 5e-324,
     2.2250738585072014e-308, 1e308, math.inf, -math.inf]
)
_DIFF_LEAF = st.one_of(
    st.just(Var()),
    st.builds(Num, _DIFF_CONSTANTS),
    st.builds(Num, st.floats(allow_nan=False)),
)


def _diff_outcome(call, x):
    """What a call returns or raises, as bits; the caller's input must not change."""
    before = np.array(x, copy=True)
    try:
        value = call(x)
    except Exception as exc:  # the type is part of the outcome
        outcome = (type(exc), str(exc), float(getattr(exc, "x", math.nan)).hex())
    else:
        if isinstance(value, float):
            outcome = ("scalar", float(value).hex())
        else:
            outcome = ("array", value.shape, value.dtype, value.flags.writeable,
                       np.ascontiguousarray(value).view(np.uint64).tobytes())
    assert np.array(x).tobytes() == before.tobytes()
    return outcome


def _assert_same_as_oracle(tree):
    f = FunctionDef("f", tree)
    for x in _DIFF_INPUTS:
        assert _diff_outcome(f, x) == _diff_outcome(lambda v: _oracle_call(tree, v), x)


@settings(deadline=None, max_examples=300)
@given(_ast_strategy(_DIFF_LEAF))
@example(BinOp("^", Var(), Num(0.0)))
@example(BinOp("^", Var(), Num(1.0)))
@example(Call("pow", (Var(), Num(1.0))))
@example(BinOp("^", Var(), Neg(Num(2.0))))
@example(BinOp("^", Var(), Num(0.5)))
@example(Call("pow", (BinOp("+", Var(), Num(1.0)), Num(1.5))))
@example(BinOp("^", BinOp("*", Var(), Num(2.0)), Num(1.0)))
@example(BinOp("+", BinOp("^", Var(), Num(1.0)), Var()))
@example(BinOp("/", Var(), BinOp("-", Num(1.0), Num(1.0))))
@example(BinOp("+", Var(), Call("ln", (Neg(Num(1.0)),))))
@example(BinOp("^", Var(), Call("ln", (Num(0.0),))))
@example(BinOp("^", BinOp("/", Num(1.0), Num(2.0)), Neg(Num(2000.0))))
@example(BinOp("^", Num(1e-320), Neg(Num(2.0))))
@example(BinOp("^", BinOp("/", BinOp("^", Num(2.0), Num(0.0)),
                          BinOp("+", BinOp("^", Num(2.0), Num(0.0)),
                                BinOp("^", Num(2.0), Num(0.0)))), Neg(Num(2000.0))))
@example(BinOp("*", Num(0.0), Call("exp", (Num(1000.0),))))
@example(Call("sqrt", (BinOp("-", BinOp("*", Var(), Num(math.inf)), Num(math.inf)),)))
@example(Call("ln", (BinOp("-", BinOp("*", Var(), Num(math.inf)), Var()),)))
@example(Num(-0.0))
@example(Var())
def test_compiled_evaluator_matches_tree_walk(tree):
    """Values bit for bit, errors by type, message and x, inputs untouched."""
    _assert_same_as_oracle(tree)


@settings(deadline=None, max_examples=300)
@given(st.text(alphabet=_FUZZ_ALPHABET, max_size=40))
@example("0.7*x^2 + 0.3*x^3 + 0.9")
@example("exp(sqrt(2 + (3*x)^2))")
@example("-1.5 - 0.25*x^2")
@example("sqrt(x + 0.5)")
@example("x^(1/0)")
@example("x^ln(0)")
@example("2^3^2 * x")
def test_compiled_evaluator_matches_tree_walk_on_sources(source):
    try:
        tree = parse_source(source)
    except ExprSyntaxError:
        return
    _assert_same_as_oracle(tree)


_NAN_TILE = np.linspace(-1.0, 4.0, 7960)
_NAN_TILE[[3, 5000]] = math.nan


@pytest.mark.parametrize("source", ["x^0.5", "pow(x, 2.5)"])
@pytest.mark.parametrize("tile", [
    np.array([math.nan, 0.5, -1.0, 2.0]),
    np.array([0.5, math.nan, 0.0, -2.0]),
    np.array([-0.0, math.nan]),
    np.array([math.nan, 0.25]),
    _NAN_TILE,
    np.abs(_NAN_TILE) + 0.5,
], ids=["nan_first", "zero_after_nan", "negative_zero", "nan_only", "scan_tile",
        "positive_scan_tile"])
def test_fractional_power_guard_matches_tree_walk(source, tile):
    """The base is tested at its NaN-free minimum first: a NaN neither hides a
    non-positive base nor is blamed for one."""
    f = parse_function(source)
    outcome = _diff_outcome(f, tile)
    assert outcome == _diff_outcome(lambda v: _oracle_call(f.ast, v), tile)
    if np.nanmin(tile) <= 0.0:
        first = float(tile[np.flatnonzero(tile <= 0.0)[0]])
        assert outcome == (ExprDomainError, f"non-integer power of a non-positive base "
                           f"(at x={first})", first.hex())
    else:
        assert outcome[0] is ExprDomainError and "produced NaN" in outcome[1]


# -- evaluation into scratch --------------------------------------------------------
#
# A call into scratch writes every temporary into views, shaped like x, of the
# arrays that f.scratch(size) hands out, and leaves the NaN test to its
# caller. Once the caller's check_nan is applied, the values, errors and
# blamed x must be those of the allocating call, bit for bit.

_WORKSPACE_SOURCES = (
    [s for s, _, _ in CORPUS]
    + [f"x^{n}" for n in range(-8, 9)]
    + [f"(x+1)^{n}" for n in range(-8, 9)]  # the base's own temporary squares
    + ["x^0.5", "pow(x, 2.5)", "pow(x+1, x)", "2^x", "x/(x-0.5)", "1/(x-x)", "x^0",
       "pow(x, 0)", "(x*x)^6/x^6", "x^-3 + x^6*2", "ln(x-1) + x", "x + (0-1)^0.5",
       "0*exp(1000*x)", "exp(710*x) - exp(710*x)"]
)


def _scratch_views(scratch, x):
    """Views of f.scratch(size) shaped like x, one point for a scalar x."""
    shape = np.shape(x) or (1,)
    return tuple(a[: math.prod(shape)].reshape(shape) for a in scratch)


def _workspace_call(f, scratch):
    def call(x):
        with np.errstate(all="ignore"):  # the caller's, as the scratch contract says
            values = f(x, _scratch_views(scratch, x))
        # and so is the NaN test
        check_nan(np.atleast_1d(values), np.atleast_1d(np.asarray(x, dtype=float)))
        return values

    return call


def _assert_workspace_matches(f, inputs):
    # one scratch for every input, so stale slots would show
    scratch = f.scratch(max(np.size(x) for x in inputs))
    for x in inputs:
        assert _diff_outcome(_workspace_call(f, scratch), x) == _diff_outcome(f, x)


@pytest.mark.parametrize("source", _WORKSPACE_SOURCES)
def test_workspace_evaluation_matches_allocating(source):
    _assert_workspace_matches(parse_function(source), _DIFF_INPUTS + (_FUZZ_XS,))


@settings(deadline=None, max_examples=100)
@given(_ast_strategy(_DIFF_LEAF))
@example(BinOp("^", Var(), Num(6.0)))  # the result is acc when acc squares again
@example(BinOp("^", BinOp("+", Var(), Num(1.0)), Num(6.0)))
@example(BinOp("^", BinOp("+", Var(), Num(1.0)), Neg(Num(4.0))))
def test_workspace_evaluation_matches_allocating_on_trees(tree):
    _assert_workspace_matches(FunctionDef("f", tree), _DIFF_INPUTS)


def test_workspace_result_lives_until_its_next_use():
    f = parse_function("3*x^2 + 1")
    scratch = _scratch_views(f.scratch(4), np.empty(2))
    with np.errstate(all="ignore"):
        first = f(np.array([1.0, 2.0]), scratch)
        assert list(first) == [4.0, 13.0] and not first.flags.writeable
        f(np.array([0.0, 0.0]), scratch)
    assert list(first) == [1.0, 1.0]  # the slot was written again


@pytest.mark.parametrize("source, x", [
    ("0*exp(1000*x)", 1.0),  # 0 * inf
    ("exp(710*x) - exp(710*x)", 1.0),  # inf - inf
    ("0*exp(710 - 1000000*(x - 0.5)^2)", 0.5),  # only near 0.5
])
def test_scratch_call_leaves_the_nan_test_to_its_caller(source, x):
    f = parse_function(source)
    xs = np.array([0.25, 0.5, 1.0, 0.5])
    message = rf"^evaluation produced NaN \(at x={x!r}\)$"
    with pytest.raises(ExprDomainError, match=message):
        f(xs)
    with np.errstate(all="ignore"):
        values = f(xs, f.scratch(xs.size))
    assert not np.isnan(values[0]) and np.isnan(values[xs == x]).all()
    with pytest.raises(ExprDomainError, match=message) as exc:
        check_nan(values, xs)
    assert exc.value.x == x


@pytest.mark.parametrize("source, slots", [
    ("x", 1), ("2.5", 0), ("x^1", 1), ("pow(x, 1)", 1), ("(x+1)^1", 1), ("-x", 1),
    ("x^3", 2), ("(x+1)^3", 3),
    ("1.3*x^2 + 0.4*x + 0.5", 2),
])
def test_scratch_holds_one_array_per_slot(source, slots):
    # temporaries share slots as their lifetimes allow; constants need none,
    # and f = x one, for the copy it returns
    scratch = parse_function(source).scratch(5)
    assert [(a.shape, a.dtype) for a in scratch] == [((5,), np.float64)] * slots


@pytest.mark.parametrize("source", [
    "0.7*x^2 + 0.3*x^3 + 0.9", "exp(sqrt(2 + (3*x)^2))", "x/(x+1)", "1/x^2", "x^-3",
    "ln(x) + sqrt(x)", "x^0.5", "pow(x, 2.5)", "x^0", "abs(x - 3)",
])
def test_workspace_evaluation_allocates_no_array(source):
    """Into scratch, a call forms no array of the input's size: no
    temporary, and no domain-test mask while the test's reduction passes."""
    f = parse_function(source)
    xs = np.linspace(0.5, 4.0, 8192)
    scratch = f.scratch(xs.size)
    with np.errstate(all="ignore"):
        f(xs, scratch)  # the first call warms numpy's own caches
        tracemalloc.start()
        try:
            f(xs, scratch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < xs.size  # a boolean mask of xs is xs.size bytes


# -- empty input, value semantics and warnings --------------------------------------


@pytest.mark.parametrize("source", [s for s, _, _ in CORPUS] + ["ln(0-1)", "1/0", "x^ln(0)"])
@pytest.mark.parametrize("shape", [(0,), (0, 3)])
def test_empty_input_returns_empty_array(source, shape):
    """An empty input has no point to blame, so every source returns it empty."""
    values = parse_function(source)(np.empty(shape))
    assert isinstance(values, np.ndarray)
    assert values.shape == shape and values.dtype == np.float64


def test_function_def_value_semantics():
    f = parse_function("0.7*x^2 + 0.3*x^3 + 0.9")
    twin = FunctionDef(f.source, parse_source(f.source))
    assert f == twin and hash(f) == hash(twin)
    assert repr(f) == f"FunctionDef(source={f.source!r}, ast={f.ast!r})"
    assert f != FunctionDef("other label", f.ast)
    xs = np.linspace(-2.0, 2.0, 15)
    before = [pickle.loads(pickle.dumps(f)), copy.deepcopy(f)]  # not yet called
    values = f(xs).tobytes()
    after = [pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)]
    for clone in before + after:
        assert clone == f and clone(xs).tobytes() == values
    cube = dataclasses.replace(f, ast=parse_source("x^3"))
    assert cube.source == f.source and cube(2.0) == 8.0 and f(2.0) != 8.0


@pytest.mark.parametrize("source", ["x*1e308*10", "exp(1000) + x", "x + (0-1)^0.5"])
def test_building_and_calling_leak_no_warning(source):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = parse_function(source)  # building neither raises nor warns
        xs = np.array([0.25, 1.0])
        try:
            values = f(xs)
        except ExprDomainError as exc:
            assert source == "x + (0-1)^0.5"
            assert str(exc) == "non-integer power of a non-positive base (at x=0.25)"
            assert exc.x == 0.25
        else:
            assert np.isinf(values).all()
            assert np.isinf(f(3.0))


def test_result_is_a_read_only_view():
    xs = np.array([0.5, 1.0, 2.0])
    for source in ("x", "x^1", "pow(x, 1)", "abs(x)", "3", "x + 1"):
        values = parse_function(source)(xs)
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 7.0
    assert xs.flags.writeable and list(xs) == [0.5, 1.0, 2.0]
    # f = x returns a copy of x, never x itself, with scratch or without
    for source in ("x", "x^1", "pow(x, 1)"):
        f = parse_function(source)
        for values in (f(xs), f(xs, f.scratch(xs.size))):
            assert not np.may_share_memory(values, xs)
            assert list(values) == [0.5, 1.0, 2.0]


def test_underflowing_constant_power_reads_inf():
    # the constants are np.float64, so 1 / 0.5^2000 is inf, as it is for
    # x^-2000 at x = 0.5, not a Python ZeroDivisionError
    f = parse_function("x + (2^0/(2^0+2^0))^-2000")
    assert f(1.0) == math.inf
    assert parse_function("x^-2000")(0.5) == math.inf
