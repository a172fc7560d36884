import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convexa import specfun, theorems
from convexa import weights as weights_module
from convexa.errors import DomainError, NonConvergenceError, NonFiniteError
from convexa.quadrature import QuadSpec, integrate_unit
from convexa.weights import (
    MOMENT_INTEGRANDS,
    WeightKind,
    WeightSystem,
    classical,
    dominates_classical,
    exponent_text,
    moment_value,
    nesbitt,
    nesbitt_inequality,
    young,
    young_cross_moment_proof_display,
    young_cross_moment_theorem_display,
    young_inequality,
)

LN3 = math.log(3.0)
LEMMA_P_VALUES = [1.01, 1.1, 1.5, 2.0, 3.0, 10.0]

p_strategy = st.floats(min_value=1.001, max_value=10.0, allow_nan=False)
t_strategy = st.floats(min_value=1e-4, max_value=1.0, allow_nan=False)


# -- labels -------------------------------------------------------------------


def test_label_names_p_by_text_that_reads_back():
    assert young(1.5).label() == "young(p=1.5)"
    assert young(1e300).label() == "young(p=1e+300)"
    # :g rounds this p to 2, whose m02 diverges
    assert young(1.9999999999).label() == "young(p=1.9999999999)"
    assert (classical().label(), nesbitt().label()) == ("classical", "nesbitt")


@settings(deadline=None, max_examples=100)
@given(st.floats(min_value=1.0, allow_nan=False, allow_infinity=False, exclude_min=True))
def test_exponent_text_round_trips(p):
    text = exponent_text(p)
    assert float(text) == p
    assert text == f"{p:g}" or text == repr(p)


# -- pointwise evaluation -------------------------------------------------------


def test_eval_young_quarter():
    pair = young(2.0).eval(0.25)
    assert pair.wx == pytest.approx(0.3125, abs=1e-15)
    assert pair.wy == pytest.approx(0.9375, abs=1e-15)


def test_eval_nesbitt_half_recovers_jensen():
    pair = nesbitt().eval(0.5)
    assert pair.wx == 0.5
    assert pair.wy == 0.5
    # the arrays are bitwise the classical pair, so a Nesbitt member is
    # midpoint convex (README, "What the classes contain")
    half = np.array([0.5])
    bits = [a.tobytes() for ws in (nesbitt(), classical()) for a in ws.eval_arrays(half)]
    assert bits == [half.tobytes()] * 4


def test_eval_classical():
    pair = classical().eval(0.3)
    assert pair.wx == 0.3
    assert pair.wy == 0.7


@pytest.mark.parametrize("t", [0.0, -0.2, 1.0000001])
def test_eval_domain(t):
    with pytest.raises(DomainError):
        young(2.0).eval(t)
    with pytest.raises(DomainError):
        nesbitt().lemma_rhs(t)


def _written_weights(ws, t):
    """(w_x, w_y) as the formulas are written, each subexpression recomputed."""
    if ws.kind is WeightKind.CLASSICAL:
        return t, 1.0 - t
    if ws.kind is WeightKind.YOUNG:
        p = ws.p
        wx = (1.0 / p) * t ** (1.0 / p) + ((p - 1.0) / p) * t ** (1.0 + 1.0 / p)
        wy = ((p - 1.0) / p) * (1.0 - t) * t ** (1.0 / p) + (1.0 / p) * t ** (
            1.0 / p - 1.0) * (1.0 - t)
        return wx, wy
    wx = 2.0 * t**2 / (3.0 - 2.0 * t) + 2.0 * t * (1.0 - t) / (1.0 + 2.0 * t)
    wy = 2.0 * t * (1.0 - t) / (3.0 - 2.0 * t) + 2.0 * (1.0 - t) ** 2 / (1.0 + 2.0 * t)
    return wx, wy


@pytest.mark.parametrize("ws", [classical(), nesbitt()] + [
    young(p) for p in (1.0001, 1.5, 1.983, 2.0, 7.3, 1e6, 1e300)])
def test_eval_arrays_keeps_the_bits_of_the_written_formulas(ws):
    t = np.concatenate([np.linspace(1e-300, 1.0, 4001), [5e-324, 1e-17, 0.5 - 2**-54]])
    with np.errstate(over="ignore"):  # w_y overflows at the smallest t for large p
        pairs = zip(ws.eval_arrays(t), _written_weights(ws, t), strict=True)
        for got, written in pairs:
            assert got.tobytes() == written.tobytes()


@pytest.mark.parametrize("ws", [classical(), young(1.5), nesbitt()])
def test_nan_t_is_refused(ws):
    """A NaN t lies outside (0, 1]: refused by name, never a NaN weight."""
    nan = math.nan
    calls = [
        (lambda: ws.eval(nan), "weights are"),
        (lambda: ws.eval_arrays(np.array([0.5, nan])), "weights are"),
        (lambda: ws.lemma_rhs(nan), "lemma_rhs is"),
        (lambda: ws.lemma_rhs_arrays(np.array([nan, 0.5])), "lemma_rhs is"),
    ]
    for call, subject in calls:
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == f"{subject} defined for t in (0, 1], got t=nan"
    # the first value outside (0, 1] is the one named
    with pytest.raises(DomainError, match=r"got t=0\.0$"):
        ws.eval_arrays(np.array([0.5, 0.0, nan]))


def test_weight_system_validation():
    with pytest.raises(DomainError):
        WeightSystem(WeightKind.YOUNG)  # missing p
    with pytest.raises(DomainError):
        WeightSystem(WeightKind.YOUNG, 1.0)  # p must exceed 1
    for p in (math.inf, math.nan):
        with pytest.raises(DomainError, match="finite p > 1"):
            young(p)
    with pytest.raises(DomainError):
        WeightSystem(WeightKind.NESBITT, 2.0)  # p forbidden


def test_lemma_rhs_examples():
    assert young(2.0).lemma_rhs(0.25) == pytest.approx(1.25, abs=1e-15)
    assert nesbitt().lemma_rhs(0.25) == pytest.approx(1.2, abs=1e-15)
    assert classical().lemma_rhs(0.123) == 1.0


# the lemma's L as the paper writes it, the reference for lemma_rhs = w_x + w_y
def _paper_young_l(p, t):
    return (1.0 / p) * t ** (1.0 / p - 1.0) + (1.0 - 1.0 / p) * t ** (1.0 / p)


def _paper_nesbitt_l(t):
    return 2.0 * t / (3.0 - 2.0 * t) + 2.0 * (1.0 - t) / (1.0 + 2.0 * t)


@settings(deadline=None, max_examples=200)
@given(p_strategy, t_strategy)
def test_sum_identity_young(p, t):
    assert abs(young(p).lemma_rhs(t) - _paper_young_l(p, t)) <= 1e-12


@settings(deadline=None, max_examples=200)
@given(t_strategy)
def test_sum_identity_nesbitt(t):
    assert abs(nesbitt().lemma_rhs(t) - _paper_nesbitt_l(t)) <= 1e-12


def test_lemma_positivity():
    ts = np.linspace(1e-4, 1.0, 999)
    for ws in [nesbitt()] + [young(p) for p in LEMMA_P_VALUES]:
        assert float((ws.lemma_rhs_arrays(ts) - 1.0).min()) >= -1e-12


def test_weight_pair_sum_at_least_one():
    ts = np.linspace(1e-4, 1.0, 999)
    for ws in [classical(), nesbitt()] + [young(p) for p in LEMMA_P_VALUES]:
        wx, wy = ws.eval_arrays(ts)
        assert float((wx + wy).min()) >= 1.0 - 1e-12


def test_nesbitt_endpoint_symmetry():
    ts = np.linspace(1e-3, 1.0 - 1e-3, 333)
    ws = nesbitt()
    wx, wy = ws.eval_arrays(ts)
    wx_rev, _ = ws.eval_arrays(1.0 - ts)
    assert float(np.max(np.abs(wy - wx_rev))) <= 1e-12


@pytest.mark.parametrize("p", LEMMA_P_VALUES)
def test_young_endpoints_exact(p):
    pair = young(p).eval(1.0)
    assert pair.wx == 1.0
    assert pair.wy == 0.0


def test_young_limit_to_classical():
    ws = young(1.0 + 1e-8)
    ts = np.linspace(0.01, 1.0, 500)
    wx, wy = ws.eval_arrays(ts)
    assert float(np.max(np.abs(wx - ts))) <= 1e-6
    assert float(np.max(np.abs(wy - (1.0 - ts)))) <= 1e-6


# -- moments --------------------------------------------------------------------


def test_young_moments_closed_form_p2():
    table = young(2.0).moments_closed_form()
    assert table.m10 == pytest.approx(8.0 / 15.0, abs=1e-15)
    assert table.m01 == pytest.approx(12.0 / 15.0, abs=1e-15)
    assert table.m02 is None


def test_nesbitt_moments_closed_form():
    table = nesbitt().moments_closed_form()
    assert table.m10 == pytest.approx(1.5 * LN3 - 1.0, abs=0)
    assert table.m01 == table.m10
    assert table.m20 == pytest.approx(125.0 / 6.0 - (147.0 / 8.0) * LN3, abs=0)
    assert table.m02 == table.m20
    assert table.m11 == pytest.approx((117.0 / 8.0) * LN3 - 95.0 / 6.0, abs=0)
    # decimal anchors
    assert table.m20 == pytest.approx(0.6463325290568178, abs=1e-12)
    assert table.m11 == pytest.approx(0.2338713884377709, abs=1e-12)


def test_classical_moments_closed_form():
    table = classical().moments_closed_form()
    assert (
        table.m10,
        table.m01,
        table.m20,
        table.m02,
        table.m11,
    ) == (0.5, 0.5, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0)


def test_young_closed_forms_overflow_bound():
    """Up to 3p^2 = DBL_MAX (p ~ 7.7e153) the table holds its large-p limits."""
    table = young(7e153).moments_closed_form()
    values = [table.m10, table.m01, table.m20, table.m11]
    assert values == pytest.approx([0.5, 1.5, 1.0 / 3.0, 1.0 / 6.0], rel=1e-15)
    assert table.m02 is None
    ws = young(8e153)
    for _ in range(2):  # an overflow is never kept: every call raises
        with pytest.raises(NonFiniteError, match=r"young\(p=8e\+153\) overflow a double"):
            ws.moments_closed_form()


def test_closed_form_table_is_computed_once_per_system(monkeypatch):
    calls = []
    beta = specfun.beta
    monkeypatch.setattr(specfun, "beta", lambda *args: calls.append(args) or beta(*args))
    ws = young(1.5)
    first = ws.moments_closed_form()
    assert calls
    calls.clear()
    assert ws.moments_closed_form() is first
    assert calls == []
    # a fresh system computes its own table
    assert young(1.5).moments_closed_form() == first
    assert calls


@pytest.mark.parametrize("p", [1.01, 1.1, 1.5, 1.9])
def test_moment_agreement_young_full(p):
    closed = young(p).moments_closed_form().entries()
    oracle = young(p).moments().entries()
    for key in closed:
        assert closed[key] is not None and oracle[key] is not None
        assert abs(closed[key] - oracle[key]) <= 1e-9


@pytest.mark.parametrize("p", [2.0, 3.0, 10.0])
def test_moment_agreement_young_first_order(p):
    closed = young(p).moments_closed_form().entries()
    oracle = young(p).moments().entries()
    for key in ("m10", "m01"):
        assert abs(closed[key] - oracle[key]) <= 1e-9
    assert closed["m02"] is None
    assert oracle["m02"] is None


def test_moment_agreement_nesbitt():
    closed = nesbitt().moments_closed_form().entries()
    oracle = nesbitt().moments().entries()
    for key in closed:
        assert abs(closed[key] - oracle[key]) <= 1e-9


def test_moment_agreement_classical():
    closed = classical().moments_closed_form().entries()
    oracle = classical().moments().entries()
    for key in closed:
        assert abs(closed[key] - oracle[key]) <= 1e-9


@pytest.mark.parametrize(
    "ws,degree,hint",
    [
        (young(1.5), (1, 0), None),
        (young(1.5), (0, 1), 1.0 / 1.5 - 1.0),
        (young(1.5), (0, 2), 2.0 / 1.5 - 2.0),
        (young(1.5), (1, 1), None),  # 2/p - 1 > 0: bounded integrand
        (young(1.9), (1, 1), None),
        (young(2.0), (1, 1), None),  # exponent 0: bounded integrand
        (young(3.0), (1, 1), 2.0 / 3.0 - 1.0),
        (young(2.0), (0, 2), None),  # exponent -1: divergent, no hint
        (nesbitt(), (0, 2), None),
        (classical(), (0, 1), None),
    ],
)
def test_integral_singularity_hint(ws, degree, hint):
    # the oracle's run of the term is integrate_unit's with exactly this hint
    def g(wx, wy):
        return wx ** degree[0] * wy ** degree[1]

    assert weights_module._hint(ws, degree) == hint
    result = next(ws.integrals([(g, degree)]))
    spec = QuadSpec(left_singularity_exponent=hint)
    assert _bits(result) == _bits(integrate_unit(lambda t: g(*ws.eval_arrays(t)), spec))


def _moment(ws, key):
    """One moment-table entry from its own integrals call."""
    return moment_value(next(ws.integrals([MOMENT_INTEGRANDS[key]])))


def test_moment_matches_table_entry():
    for ws in (young(1.5), young(3.0), nesbitt(), classical()):
        table = ws.moments().entries()
        for key, entry in table.items():
            assert _moment(ws, key) == entry


def test_unresolvable_oracle_integral_raises():
    """An integrable monomial double precision cannot resolve raises; a divergent one does not."""
    closed = young(100.0).moments_closed_form()
    assert abs(_moment(young(100.0), "m01") - closed.m01) <= 1e-9
    assert _moment(young(2.0), "m02") is None
    for p, key, cause in [
        (200.0, "m01", r"young\(p=200\) integral of degree \(0, 1\) .*: t underflows to 0"),
        (1.99, "m02", r"young\(p=1.99\) integral of degree \(0, 2\) .*: t underflows to 0"),
        (1e17, "m01", r"young\(p=1e\+17\) integral of degree \(0, 1\) .*: 1/p - 1 rounds to -1"),
    ]:
        with pytest.raises(NonConvergenceError, match=cause):
            _moment(young(p), key)


# -- shared panel weights --------------------------------------------------------

# every integral of the moment table and of the constants table
_ORACLE_TERMS = list(MOMENT_INTEGRANDS.values()) + [
    (lambda wx, wy: wx * (wx + wy), (1, 1)),
    (lambda wx, wy: wx + wy, (0, 1)),
]
_SHARED_SYSTEMS = [young(p) for p in (1.0001, 1.5, 1.9, 1.983, 2.0, 2.5, 7.3, 50.0)]
_SHARED_SYSTEMS += [nesbitt(), classical()]


def _bits(result):
    return tuple(v.hex() if isinstance(v, float) else v
                 for v in dataclasses.astuple(result))


def _separate_integral(ws, g, degree):
    """One integrate_unit run on weights computed afresh, hinted by the
    documented rule: t^((i + j)/p - j) with the exponent in (-1, 0)."""
    hint = None
    if ws.kind is WeightKind.YOUNG:
        exponent = sum(degree) / ws.p - degree[1]
        hint = exponent if -1.0 < exponent < 0.0 else None
    spec = QuadSpec(left_singularity_exponent=hint)
    return integrate_unit(lambda t: g(*ws.eval_arrays(t)), spec), hint


@pytest.mark.parametrize("ws", _SHARED_SYSTEMS, ids=WeightSystem.label)
def test_shared_weights_match_separate_integrals(ws):
    """All six QuadResult fields, bit for bit, hinted, unhinted and divergent."""
    shared = list(ws.integrals(_ORACLE_TERMS))
    kinds = set()
    for (g, degree), result in zip(_ORACLE_TERMS, shared, strict=True):
        separate, hint = _separate_integral(ws, g, degree)
        assert _bits(result) == _bits(separate)
        kinds.add((hint is not None, result.stop_reason))
    m02 = shared[list(MOMENT_INTEGRANDS).index("m02")]
    if ws.kind is WeightKind.YOUNG and ws.p >= 2.0:
        assert m02.stop_reason == "divergent"  # unhinted: the exponent is <= -1
        assert (False, "divergent") in kinds and (True, "converged") in kinds
    else:
        assert m02.converged
    if ws.kind is WeightKind.YOUNG and ws.p < 2.0:
        assert {(False, "converged"), (True, "converged")} <= kinds


def test_constants_table_rows_match_separate_integrals():
    rows = theorems.constants_table([1.5, 2.5])
    oracles = [row.oracle for row in rows if row.name != "young_m11_theorem_display"]
    separate = []
    for ws in (young(1.5), young(2.5), nesbitt()):
        closed = ws.moments_closed_form().entries()
        terms = [MOMENT_INTEGRANDS[key] for key in closed if closed[key] is not None]
        terms += _ORACLE_TERMS[5:] if ws.kind is WeightKind.NESBITT else _ORACLE_TERMS[6:]
        separate += [_separate_integral(ws, g, degree)[0].value for g, degree in terms]
    assert [v.hex() for v in oracles] == [v.hex() for v in separate]
    with pytest.raises(NonConvergenceError) as info:
        theorems.constants_table([1.99])
    assert str(info.value) == (
        "the young(p=1.99) integral of degree (0, 2) cannot be resolved: t underflows to 0"
    )


def test_shared_weights_are_read_only_and_live_for_one_call(monkeypatch):
    ws = young(1.5)

    def overwrite(wx, wy):
        wx[0] = 0.0
        return wx

    with pytest.raises(ValueError, match="read-only"):
        next(ws.integrals([(overwrite, (1, 0))]))

    points = []
    original = weights_module._weight_pair

    def counting(kind, t, p):
        points.append(np.size(t))
        return original(kind, t, p)

    monkeypatch.setattr(weights_module, "_weight_pair", counting)
    m10 = MOMENT_INTEGRANDS["m10"]
    first, again = ws.integrals([m10, m10])
    assert _bits(first) == _bits(again)
    assert sum(points) == first.evaluations  # the second reads the first's weights
    points.clear()
    assert _bits(next(ws.integrals([m10]))) == _bits(first)
    assert sum(points) == first.evaluations  # a new call computes them anew


# -- the lockstep oracle -------------------------------------------------------

# every term the package integrates: the moments, the constants table's
# two extra rows and the suite's (w_x + w_y)^2
_EVERY_TERM = {
    **MOMENT_INTEGRANDS,
    "ordered": (lambda wx, wy: wx * (wx + wy), (1, 1)),
    "w_sum": (lambda wx, wy: wx + wy, (0, 1)),
    "square": (lambda wx, wy: (wx + wy) ** 2, (0, 2)),
}


def _term_reference(ws, g, degree):
    """One term as the oracle integrated it before lockstep refinement: one
    integrate_unit run on weights computed afresh, hinted by the exponent
    (i + j)/p - j of t where it lies in (-1, 0). Its QuadResult bits, or
    the message of the error the oracle raises when t underflows to 0."""
    hint = None
    if ws.kind is WeightKind.YOUNG:
        exponent = sum(degree) / ws.p - degree[1]
        hint = exponent if -1.0 < exponent < 0.0 else None
    try:
        result = integrate_unit(lambda t: g(*ws.eval_arrays(t)),
                                QuadSpec(left_singularity_exponent=hint))
    except DomainError:
        return (f"the {ws.label()} integral of degree {degree} cannot be resolved: "
                "t underflows to 0")
    return _bits(result)


@settings(deadline=None, max_examples=20)
@given(st.lists(st.one_of(st.none(), st.floats(1.0001, 10.0), st.sampled_from([1.99, 200.0])),
                min_size=1, max_size=4))
@example([2.0, None, 1.5])  # p = 2: t^0.5, and the m01 substitution u^2
@example([1.5, 2.0])  # p = 1.5 next to young(2)'s divergent m02 and its probe
# unhinted Young rows of the one column part beside scalar parts of their
# kind: p = 4/3's m02 substitution has m = 2 and m - 1 = 1, and p = 3's m11
# substitution m = 1.5 and m - 1 = 0.5
@example([4 / 3])
@example([3.0])
def test_lockstep_oracle_matches_a_run_per_term(p_values):
    systems = [nesbitt() if p is None else young(p) for p in p_values]
    cases = [(ws, _EVERY_TERM) for ws in systems]
    seen = []
    for (ws, terms), results in weights_module.oracle(cases):
        seen.append(ws)
        for g, degree in terms.values():
            expected = _term_reference(ws, g, degree)
            if isinstance(expected, str):  # the case's results end at its error
                with pytest.raises(NonConvergenceError, match=f"^{re.escape(expected)}$"):
                    next(results)
                break
            assert _bits(next(results)) == expected, (ws.label(), degree)
    assert seen == systems


@pytest.mark.parametrize("p_values, error, message", [
    ([1e17, 0.5], NonConvergenceError,
     "the young(p=1e+17) integral of degree (0, 1) cannot be resolved: 1/p - 1 rounds to -1"),
    ([1.5, 1.99], NonConvergenceError,
     "the young(p=1.99) integral of degree (0, 2) cannot be resolved: t underflows to 0"),
    ([200.0], NonConvergenceError,
     "the young(p=200) integral of degree (0, 1) cannot be resolved: t underflows to 0"),
    ([1.2, 1e155], NonFiniteError, "the closed-form moments of young(p=1e+155) overflow a double"),
    # the second lockstep batch: its p = 0.5 comes after its p = 1.99 error
    ([1.5] * 32 + [1.99, 0.5], NonConvergenceError,
     "the young(p=1.99) integral of degree (0, 2) cannot be resolved: t underflows to 0"),
    # an error of the first batch comes before the second batch is built
    ([1.99] + [1.5] * 32 + [0.5], NonConvergenceError,
     "the young(p=1.99) integral of degree (0, 2) cannot be resolved: t underflows to 0"),
], ids=["1e17-0.5", "1.5-1.99", "200", "1.2-1e155", "second-batch", "first-batch"])
def test_constants_table_raises_the_first_error_in_row_order(p_values, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning leaks from a batch
        with pytest.raises(error) as info:
            theorems.constants_table(p_values)
    assert str(info.value) == message
    if message.endswith("t underflows to 0"):
        cause = info.value.__cause__
        assert type(cause) is DomainError
        assert str(cause) == "weights are defined for t in (0, 1], got t=0.0"


def test_a_raising_term_comes_after_the_results_before_it():
    """g's error is the one its term raises alone, in term order: a
    return of one value per panel row names the term-alone shape."""
    m10 = MOMENT_INTEGRANDS["m10"]
    results = young(1.5).integrals([m10, (lambda wx, wy: wx[:, 0], (1, 0))])
    assert _bits(next(results)) == _bits(next(young(1.5).integrals([m10])))
    with pytest.raises(TypeError, match=re.escape("shape (1, 15), got (1,)")):
        next(results)


def test_an_integral_error_comes_before_a_later_cases_raising_term():
    def boom(wx, wy):
        raise ZeroDivisionError("boom")

    cases = [(young(1.99), {"m02": MOMENT_INTEGRANDS["m02"]}),
             (young(1.5), {"boom": (boom, (1, 0))})]
    with pytest.raises(NonConvergenceError, match=re.escape(
            "the young(p=1.99) integral of degree (0, 2) cannot be resolved: "
            "t underflows to 0")):
        for _, results in weights_module.oracle(cases):
            list(results)


def test_constants_table_memory_does_not_grow_with_its_p_list():
    """Systems are integrated 32 at a time, each integral's heap is freed
    with its result and each round's weight rows with the round: the
    memory a call uses beyond the rows it returns is the same for ~600 p
    as for 64."""

    def working_bytes(n):
        # p in (1, 10], clear of the m02 underflow range [1.984, 2)
        p_values = [p for p in np.linspace(1.01, 9.9, n).tolist() if not 1.98 <= p < 2.0]
        tracemalloc.start()
        try:
            rows = theorems.constants_table(p_values)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) > 6 * len(p_values)
        return peak - held

    assert working_bytes(600) <= working_bytes(64) + 64 * 1024


def test_young_cross_moment_displays():
    # proof display is the oracle-confirmed one; they coincide only at p=2
    assert young_cross_moment_proof_display(1.5) == pytest.approx(
        27.0 / 130.0, abs=1e-13
    )
    assert young_cross_moment_theorem_display(1.5) == pytest.approx(
        15.0 / 91.0, abs=1e-13
    )
    assert abs(
        young_cross_moment_proof_display(2.0)
        - young_cross_moment_theorem_display(2.0)
    ) <= 1e-9


# -- source inequalities ----------------------------------------------------------


def test_young_inequality_examples():
    assert young_inequality(1.0, 1.0, 2.0) == pytest.approx(0.0, abs=1e-15)
    assert young_inequality(2.0, 1.0, 2.0) == pytest.approx(0.5, abs=1e-15)
    # direct arithmetic: 512/3 + 16/3 - 32
    assert young_inequality(8.0, 4.0, 3.0) == pytest.approx(144.0, abs=1e-12)


def test_young_inequality_equality_iff():
    # a^p = b^q: a=4, p=3 -> a^p=64; b^q=64 with q=1.5 -> b=64^(2/3)=16
    assert young_inequality(4.0, 16.0, 3.0) == pytest.approx(0.0, abs=1e-12)


@settings(deadline=None, max_examples=300)
@given(
    st.floats(min_value=0.01, max_value=50.0),
    st.floats(min_value=0.01, max_value=50.0),
    st.floats(min_value=1.001, max_value=8.0),
)
def test_young_inequality_nonnegative(a, b, p):
    assert young_inequality(a, b, p) >= -1e-12


def test_young_inequality_domain():
    with pytest.raises(DomainError):
        young_inequality(-1.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        young_inequality(1.0, 1.0, 1.0)


def test_nesbitt_inequality_examples():
    assert nesbitt_inequality(1.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert nesbitt_inequality(1.0, 2.0, 3.0) == pytest.approx(0.2, abs=1e-15)


def test_nesbitt_inequality_lemma_link():
    t = 0.25
    gap = nesbitt_inequality(t, 0.5, 1.0 - t)
    assert gap == pytest.approx(0.2, abs=1e-15)
    assert gap == pytest.approx(nesbitt().lemma_rhs(t) - 1.0, abs=1e-12)


@settings(deadline=None, max_examples=300)
@given(
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=0.01, max_value=100.0),
)
def test_nesbitt_inequality_nonnegative(a, b, c):
    assert nesbitt_inequality(a, b, c) >= -1e-12


def test_nesbitt_inequality_domain():
    with pytest.raises(DomainError):
        nesbitt_inequality(0.0, 1.0, 1.0)


# -- classical domination ---------------------------------------------------------


def test_dominates_classical_trivial():
    ok, margin = dominates_classical(classical(), 999)
    assert ok
    assert margin == 0.0


@pytest.mark.parametrize("ws", [young(2.0), nesbitt()])
def test_dominates_classical_generalized(ws):
    ok, margin = dominates_classical(ws, 999)
    assert ok
    assert margin >= -1e-12


def test_dominates_classical_validation():
    with pytest.raises(DomainError):
        dominates_classical(nesbitt(), 1)
