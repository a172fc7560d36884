import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexa.errors import DomainError
from convexa.specfun import beta, log_gamma

# reference values from a 30-digit arbitrary-precision oracle, frozen
LOG_GAMMA_REFERENCE = [
    (0.05, 2.9688792010517306),
    (0.1, 2.252712651734206),
    (0.3, 1.0957979948180756),
    (0.5, 0.5723649429247001),
    (0.7, 0.26086724653166654),
    (1.0, 0.0),
    (1.5, -0.12078223763524522),
    (2.0, 0.0),
    (3.7, 1.4280723266653879),
    (10.0, 12.801827480081469),
    (20.0, 39.339884187199495),
]

BETA_REFERENCE = [
    (0.05, 0.05, 39.846945420626994),
    (0.3, 7.2, 1.6791401349397155),
    (1.5, 2.5, 0.19634954084936207),
    (5.0, 5.0, 0.0015873015873015873),
    (12.0, 0.07, 11.60638019314535),
    (20.0, 20.0, 7.254444551924844e-13),
]

positive_grid = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)


@pytest.mark.parametrize("x,expected", LOG_GAMMA_REFERENCE)
def test_log_gamma_reference(x, expected):
    result = log_gamma(x)
    assert type(result) is float
    assert abs(result - expected) <= 1e-13 * max(1.0, abs(expected))


def test_log_gamma_trivial_zeros():
    assert abs(log_gamma(1.0)) <= 1e-13
    assert abs(log_gamma(2.0)) <= 1e-13


def test_log_gamma_half():
    # ln sqrt(pi)
    assert abs(log_gamma(0.5) - 0.57236494292470008) <= 1e-13


@pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
def test_log_gamma_domain(x):
    with pytest.raises(DomainError):
        log_gamma(x)


def test_beta_trivial_uniform():
    assert abs(beta(1.0, 1.0) - 1.0) <= 1e-12


def test_beta_spot_values():
    # Gamma(2)Gamma(2)/Gamma(4) and beta(x, 2) = 1/(x(x+1))
    assert abs(beta(2.0, 2.0) - 1.0 / 6.0) <= 1e-12 / 6.0
    assert abs(beta(0.5, 2.0) - 4.0 / 3.0) <= 1e-12 * 4.0 / 3.0


@pytest.mark.parametrize("x,y,expected", BETA_REFERENCE)
def test_beta_reference(x, y, expected):
    assert type(beta(x, y)) is float
    assert abs(beta(x, y) - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("x,y", [(0.0, 1.0), (1.0, 0.0), (-2.0, 3.0)])
def test_beta_domain(x, y):
    with pytest.raises(DomainError):
        beta(x, y)


def test_beta_matches_log_gamma_composition():
    for x, y, _ in BETA_REFERENCE:
        composed = math.exp(log_gamma(x) + log_gamma(y) - log_gamma(x + y))
        assert abs(beta(x, y) - composed) <= 1e-12 * abs(composed)


@settings(deadline=None, max_examples=200)
@given(positive_grid, positive_grid)
def test_beta_symmetry(x, y):
    bxy = beta(x, y)
    byx = beta(y, x)
    assert abs(bxy - byx) <= 1e-12 * abs(bxy)


@settings(deadline=None, max_examples=200)
@given(positive_grid, positive_grid)
def test_beta_recurrence(x, y):
    lhs = beta(x + 1.0, y)
    rhs = beta(x, y) * x / (x + y)
    assert abs(lhs - rhs) <= 1e-11 * abs(rhs)


@settings(deadline=None, max_examples=200)
@given(positive_grid)
def test_beta_right_unit(x):
    assert abs(beta(x, 1.0) - 1.0 / x) <= 1e-12 / x
