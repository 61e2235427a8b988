import math

import numpy as np
import pytest

from latentbias import (
    CellModel,
    Dataset,
    DomainError,
    PosteriorSummary,
    PriorKind,
    predictive_score,
)
from latentbias.gaussians import ndtr
from latentbias.kernel import CountTarget

from conftest import (cdf_oracle, dataset_from_rows, likelihood_oracle,
                      outcome_probability_oracle, stop_search_likelihood)


def _summary(bias_mean, c_mean=0.0):
    k = len(bias_mean)
    return PosteriorSummary(
        labels=[f"g{i}" for i in range(k)],
        bias_mean=np.asarray(bias_mean, dtype=float),
        bias_variance=np.ones(k),
        rank=np.argsort(np.argsort(-np.asarray(bias_mean))) + 1,
        criminality_mean=c_mean,
        criminality_variance=1.0,
        prior_kind=PriorKind.DEPENDENT,
        sweeps=100,
    )


def _test_set(groups, outcomes):
    return dataset_from_rows(groups, outcomes, [f"g{i}" for i in range(max(groups) + 1)])


# --- closed form ----------------------------------------------------------------

def test_origin_both_branches_quarter():
    assert stop_search_likelihood(0.0, 0.0, 1) == pytest.approx(0.25, abs=1e-15)
    assert stop_search_likelihood(0.0, 0.0, 0) == pytest.approx(0.25, abs=1e-15)


def test_known_product_value():
    want = cdf_oracle(1.0) * cdf_oracle(1.5)
    assert want == pytest.approx(0.78514, abs=5e-6)
    assert stop_search_likelihood(1.0, 0.5, 1) == pytest.approx(want, abs=1e-10)


def test_branch_sum_is_stop_probability():
    grid = (-2.0, -1.0, 0.0, 1.0, 2.0)
    for c in grid:
        for beta in grid:
            total = stop_search_likelihood(c, beta, 1) + stop_search_likelihood(c, beta, 0)
            assert total == pytest.approx(ndtr(c + beta), abs=1e-12)


def test_monotone_in_c_for_positive_branch():
    vals = [stop_search_likelihood(c, 0.4, 1) for c in np.linspace(-3, 3, 61)]
    assert np.all(np.diff(vals) > 0)


def test_rejects_bad_branch():
    with pytest.raises(DomainError):
        stop_search_likelihood(0.0, 0.0, 2)


# --- oracle ------------------------------------------------------------------------

def test_oracle_at_origin():
    assert likelihood_oracle(0.0, 0.0, 1) == pytest.approx(0.25, abs=1e-4)


def test_oracle_branch_sum():
    total = likelihood_oracle(0.0, 0.0, 0) + likelihood_oracle(0.0, 0.0, 1)
    assert total == pytest.approx(0.5, abs=2e-4)


def test_oracle_vanishing_stop_mass():
    assert likelihood_oracle(-6.0, 0.0, 1) <= 1e-8


def test_oracle_matches_closed_form_subgrid():
    # the full 25-point grid runs in the acceptance suite
    for c in (-1.0, 0.0, 2.0):
        for beta in (-2.0, 1.0):
            for x in (0, 1):
                assert likelihood_oracle(c, beta, x) == pytest.approx(
                    stop_search_likelihood(c, beta, x), abs=1e-4
                )


# --- predictive scoring ---------------------------------------------------------------

def test_saturated_positive_posterior_scores_one():
    summary = _summary([0.0, 0.0], c_mean=5.0)
    test = _test_set([i % 2 for i in range(40)], [True] * 40)
    assert predictive_score(summary, test) == 1.0


def test_zero_mean_breaks_tie_to_positive():
    # predicted probability is exactly 0.5 -> predict positive -> accuracy
    # equals the positive fraction
    summary = _summary([0.3, -0.3], c_mean=0.0)
    test = _test_set([i % 2 for i in range(100)], [i % 5 < 2 for i in range(100)])
    positive_fraction = test.outcome_counts()[:, 1].sum() / len(test)
    assert predictive_score(summary, test) == pytest.approx(positive_fraction)


def test_strongly_negative_posterior_predicts_negative():
    summary = _summary([0.0], c_mean=-4.0)
    test = _test_set([0] * 10, [False] * 10)
    assert predictive_score(summary, test) == 1.0


def test_tiny_negative_mean_predicts_negative():
    # Phi(-1e-300) rounds to exactly 0.5, but the mean is below 0, so the
    # rule predicts "negative" for every stop
    summary = _summary([0.3, -0.3], c_mean=-1e-300)
    test = _test_set([i % 2 for i in range(100)], [i % 5 < 2 for i in range(100)])
    negative_fraction = test.outcome_counts()[:, 0].sum() / len(test)
    assert predictive_score(summary, test) == negative_fraction


@pytest.mark.parametrize("c_mean", [-0.3, 0.0, 0.3])
def test_accuracy_does_not_depend_on_gamma(c_mean):
    test = _test_set([i % 2 for i in range(100)], [i % 5 < 2 for i in range(100)])
    scores = []
    for gamma in (0.01, 100.0):
        summary = _summary([0.3, -0.3], c_mean=c_mean)
        summary.gamma = gamma
        scores.append(predictive_score(summary, test))
    assert scores[0] == scores[1]


def test_likelihood_method_uses_group_specific_probabilities():
    summary = _summary([2.0, -2.0], c_mean=0.0)
    p_hi, p_lo = (CellModel(1.0, 1.0).outcome_probability(b, 0.0) for b in (2.0, -2.0))
    assert p_hi != pytest.approx(p_lo, abs=1e-3)
    # stop selection biases criminality upward: both conditionals above 1/2,
    # and a larger bias means weaker selection, so a smaller probability
    assert 0.5 < p_hi < p_lo
    test = _test_set([0, 1], [True, True])
    want = (p_hi + p_lo) / 2
    assert predictive_score(summary, test, method="likelihood") == pytest.approx(want)


def test_likelihood_score_is_the_exact_mean_of_the_row_probabilities():
    # a running sum over 20,000 rows drifts by about 2e-14 relative; the
    # score must stay within a few roundings of the exactly summed rows
    summary = _summary([0.3, -0.7, 1.1, -0.2], c_mean=0.25)
    rng = np.random.default_rng(20)
    groups, outcomes = rng.integers(0, 4, 20_000), rng.random(20_000) < 0.4
    p = np.array([CellModel(1.0, 1.0).outcome_probability(b, 0.25)
                  for b in summary.bias_mean.tolist()])[groups]
    want = math.fsum(np.where(outcomes, p, 1.0 - p).tolist()) / groups.size
    got = predictive_score(summary, _test_set(groups, outcomes), method="likelihood")
    assert got == pytest.approx(want, rel=1e-15, abs=0.0)


def test_likelihood_is_not_a_proper_score():
    # the mean probability of the observed outcomes is linear in each
    # probability: on a test set whose positive fraction f = 0.3 is below
    # one half, a summary that predicts almost no positive outcome scores
    # about 1 - f = 0.7, above the f^2 + (1 - f)^2 = 0.58 of one that
    # predicts f itself. Both are unanchored-style summaries, criminality
    # mean below 0, so they take the masses off the outcome threshold 0
    test = _test_set([0] * 10, [i < 3 for i in range(10)])
    model = CellModel(1.0, 1.0)
    lo, hi = -20.0, 0.0  # bisect the criminality mean at which p = f
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if model.outcome_probability(0.0, mid) < 0.3 else (lo, mid)
    assert model.outcome_probability(0.0, hi) == pytest.approx(0.3, abs=1e-12)
    assert model.outcome_probability(0.0, -20.0) < 1e-12
    calibrated = predictive_score(_summary([0.0], c_mean=hi), test, method="likelihood")
    none = predictive_score(_summary([0.0], c_mean=-20.0), test, method="likelihood")
    assert calibrated == pytest.approx(0.58, abs=1e-11)
    assert none == pytest.approx(0.7, abs=1e-11)
    assert none > calibrated


def test_likelihood_score_stays_finite_where_a_groups_masses_underflow():
    # at criminality mean 0 and bias mean -60 (h about -42) both of the
    # group's masses underflow in Owen's T sum; they come from the log-space
    # integral instead, so P(positive | stop) is its limit 1, as just above
    # criminality mean 0, and the score stays finite whether or not the
    # group has test stops
    model = CellModel(1.0, 1.0)
    assert model.outcome_probability(-60.0, 0.0) == model.outcome_probability(-60.0, 1e-9) == 1.0
    summary = _summary([0.0, -60.0])
    p0 = model.outcome_probability(0.0, 0.0)
    without = predictive_score(summary, _test_set([0, 0, 0], [True, True, False]), "likelihood")
    assert without == pytest.approx((2.0 * p0 + 1.0 - p0) / 3.0, rel=1e-15)
    with_stops = predictive_score(summary, _test_set([0, 1], [True, True]), "likelihood")
    assert with_stops == pytest.approx((p0 + 1.0) / 2.0, rel=1e-15)


@pytest.mark.parametrize("alpha, gamma", [(1.0, 1.0), (2.0, 0.5), (0.02, 0.02)])
@pytest.mark.parametrize("criminality_mean", [-1.0, 0.0, 1.0])
def test_outcome_probability_matches_bivariate_oracle(alpha, gamma, criminality_mean):
    # the bias mean -criminality_mean puts the stop threshold at 0, and with
    # a zero criminality mean both arguments of the orthant are 0
    for bias_mean in (-2.0, -criminality_mean, 0.7, 3.0):
        got = CellModel(alpha, gamma).outcome_probability(bias_mean, criminality_mean)
        want = outcome_probability_oracle(bias_mean, criminality_mean, alpha, gamma)
        assert got == pytest.approx(want, rel=1e-12), bias_mean


@pytest.mark.parametrize("alpha, gamma", [(1.0, 1.0), (2.0, 0.5), (0.02, 0.02)])
def test_outcome_probability_at_zero_criminality_is_the_fits_orthant(alpha, gamma):
    # the anchored fit's bias conditional and held-out scoring share one
    # model: at a zero criminality mean the fit's log density with one
    # positive stop and the probability agree bit for bit on its log masses
    model = CellModel(alpha, gamma)
    betas = np.linspace(-9.0, 9.0, 73)
    pos, neg = model.log_masses(betas)
    assert np.array_equal(CountTarget((1, 0), 0.0, 1.0, model).log_density(betas),
                          -(betas ** 2) / 2.0 + pos)
    assert np.array_equal(model.outcome_probability(betas, 0.0), 1.0 / (1.0 + np.exp(neg - pos)))


@pytest.mark.parametrize("criminality_mean", [-0.187, 0.512, 1.5])
def test_outcome_probability_far_in_the_stop_tail_stays_near_one(criminality_mean):
    # at alpha = gamma = 1 and a standardised stop threshold h from -14 to -6,
    # a stop selects so high a criminality that 1 - P(positive | stopped) is
    # 3.5e-4 or less (mpmath); an Owen's T sum on the outcome threshold's
    # positive side once cancelled to nothing there
    model = CellModel(1.0, 1.0)
    hs = np.linspace(-14.0, -6.0, 33)
    p = model.outcome_probability(hs * math.sqrt(2.0) - criminality_mean, criminality_mean)
    assert ((1.0 - 1e-3 < p) & (p <= 1.0)).all()


def test_outcome_probability_stays_a_probability_to_the_end_of_the_stop_tail():
    # at criminality mean 0.512 the masses are taken in log space, so they
    # neither round below 0 nor underflow, even past h = -38.5, where the
    # stop probability Phi(h) does
    hs = np.linspace(-40.0, 0.0, 801)
    p = CellModel(1.0, 1.0).outcome_probability(hs * math.sqrt(2.0) - 0.512, 0.512)
    assert ((0.0 <= p) & (p <= 1.0)).all()


@pytest.mark.parametrize("bias_mean, criminality_mean", [(0.5, 0.0), (-0.5, 0.3), (2.0, -1.0)])
def test_outcome_probability_at_tiny_noise(bias_mean, criminality_mean):
    # (1 + alpha)(1 + gamma) rounds to 1 here, so 1 - rho^2 must not come
    # from a subtraction; the noiseless limit is P(C > max(0, -b)) / P(C > -b)
    got = CellModel(1e-17, 1e-17).outcome_probability(bias_mean, criminality_mean)
    want = (cdf_oracle(criminality_mean - max(0.0, -bias_mean))
            / cdf_oracle(criminality_mean + bias_mean))
    assert got == pytest.approx(want, rel=1e-9)


def test_score_places_the_test_tally_on_the_posterior_labels_at_its_noise():
    # the test set lists the groups in the other order, and the score takes
    # alpha and gamma from the posterior summary
    summary = _summary([2.0, -2.0])
    summary.alpha, summary.gamma = 2.0, 0.5
    test = dataset_from_rows([0, 0, 1], [True, False, True], ["g1", "g0"])
    p0, p1 = (CellModel(2.0, 0.5).outcome_probability(b, 0.0) for b in (2.0, -2.0))
    want = math.fsum([p1, 1.0 - p1, p0]) / 3
    assert predictive_score(summary, test, method="likelihood") == pytest.approx(want, rel=1e-15)
    assert predictive_score(summary, test) == 2 / 3


def test_score_validates_input():
    summary = _summary([0.0])
    with pytest.raises(DomainError):
        predictive_score(summary, Dataset(np.zeros((1, 2, 1), dtype=int), ("g0",)))
    with pytest.raises(DomainError):  # group 1 is unknown to a one-group posterior
        predictive_score(summary, _test_set([1], [True]), method="likelihood")
    with pytest.raises(DomainError):
        predictive_score(summary, _test_set([0], [True]), method="bogus")
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DomainError, match="positive and finite"):
            CellModel(bad, 1.0)
        with pytest.raises(DomainError, match="positive and finite"):
            CellModel(1.0, bad)
