"""The verify-paper suite: tolerance plumbing and its quadrature budget."""

from convexa import quadrature
from convexa.quadrature import QuadSpec
from convexa.suite import Overall, verify_paper

# integrand evaluations of the default verify_paper() run; raising it means
# the suite computes integrals it does not check
VERIFY_PAPER_EVALUATIONS = 40_770


def test_square_expansion_uses_suite_quad_spec():
    report = verify_paper(QuadSpec(max_subdivisions=1))
    record = next(
        r for r in report.results if r["name"] == "constants/nesbitt_square_expansion"
    )
    assert record["status"] == "numeric_failure"
    assert report.overall is Overall.NUMERIC_FAILURE


def test_verify_paper_evaluation_budget(monkeypatch):
    original = quadrature._adaptive
    evaluations = []

    def counting(*args, **kwargs):
        res = original(*args, **kwargs)
        evaluations.append(res.evaluations)
        return res

    monkeypatch.setattr(quadrature, "_adaptive", counting)
    assert verify_paper().overall is Overall.ALL_HOLD
    assert evaluations, "verify_paper ran no quadrature through _adaptive"
    assert sum(evaluations) <= VERIFY_PAPER_EVALUATIONS
