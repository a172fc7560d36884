import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexa.errors import DomainError, NonConvergenceError, NonFiniteError
from convexa.weights import (
    WeightKind,
    WeightSystem,
    classical,
    dominates_classical,
    exponent_text,
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


@settings(deadline=None, max_examples=200)
@given(p_strategy, t_strategy)
def test_sum_identity_young(p, t):
    ws = young(p)
    pair = ws.eval(t)
    assert abs(pair.wx + pair.wy - ws.lemma_rhs(t)) <= 1e-12


@settings(deadline=None, max_examples=200)
@given(t_strategy)
def test_sum_identity_nesbitt(t):
    ws = nesbitt()
    pair = ws.eval(t)
    assert abs(pair.wx + pair.wy - ws.lemma_rhs(t)) <= 1e-12


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
    with pytest.raises(NonFiniteError, match=r"young\(p=8e\+153\) overflow a double"):
        young(8e153).moments_closed_form()


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
def test_integral_singularity_hint(monkeypatch, ws, degree, hint):
    import convexa.weights as weights_module

    seen = []
    original = weights_module.integrate_unit

    def spy(f, spec, vectorized=False):
        seen.append(spec.left_singularity_exponent)
        return original(f, spec, vectorized)

    monkeypatch.setattr(weights_module, "integrate_unit", spy)
    ws.integral(lambda wx, wy: wx**degree[0] * wy**degree[1], degree)
    assert seen == [hint]


def test_moment_matches_table_entry():
    for ws in (young(1.5), young(3.0), nesbitt(), classical()):
        table = ws.moments().entries()
        for key, entry in table.items():
            assert ws.moment(key) == entry


def test_unresolvable_oracle_integral_raises():
    """An integrable monomial double precision cannot resolve raises; a divergent one does not."""
    closed = young(100.0).moments_closed_form()
    assert abs(young(100.0).moment("m01") - closed.m01) <= 1e-9
    assert young(2.0).moment("m02") is None
    for p, key, cause in [
        (200.0, "m01", r"young\(p=200\) integral of degree \(0, 1\) .*: t underflows to 0"),
        (1.99, "m02", r"young\(p=1.99\) integral of degree \(0, 2\) .*: t underflows to 0"),
        (1e17, "m01", r"young\(p=1e\+17\) integral of degree \(0, 1\) .*: 1/p - 1 rounds to -1"),
    ]:
        with pytest.raises(NonConvergenceError, match=cause):
            young(p).moment(key)


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
