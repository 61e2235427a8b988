"""The count-level chains against their exact 1-D posteriors.

Under anchoring each person's criminality is N(0,1) with no shared term, so
a group's bias posterior depends only on its counts of stops and positive
outcomes. :func:`conftest.count_posterior_oracle` evaluates that posterior
on a dense grid with scipy's bivariate-normal CDF, sharing no code with
:mod:`latentbias.inference`. Each post-burn-in chain must match its mean
and sd within 4 Monte Carlo standard errors (batch means) and pass a KS
test on thinned draws.

The ranking chain is checked the same way on one player against the
common player, whose relative skill has a 1-D posterior
(:func:`conftest.skill_posterior_oracle`). With several players it is
checked against a step-at-a-time reference chain that solves each moving
conditional's mode at every step.
"""

import math

import numpy as np
import pytest
from scipy import stats

from latentbias import ModelConfig, PriorKind, run_gibbs, trueskill_gibbs
from latentbias.inference import _sample_bias_conditional
from latentbias.kernel import CountTarget, mode_and_scale
from latentbias.ranking import _Match

from conftest import count_posterior_oracle, dataset_from_rows, skill_posterior_oracle

# (stops, positives) per group: a large, a mid-sized and a small group,
# positive rates of 1/3, 0.7 and 3/8
COUNTS = ((2400, 800), (600, 420), (80, 30))
SWEEPS, BURN_IN, BATCHES, THIN = 4200, 200, 40, 5


def _dataset():
    group = np.repeat(np.arange(len(COUNTS)), [n for n, _ in COUNTS])
    outcome = np.concatenate([np.arange(n) < positives for n, positives in COUNTS])
    return dataset_from_rows(group, outcome, ("a", "b", "c"))


def _batch_means(x):
    """Monte Carlo standard error of the mean of ``x`` by non-overlapping
    batch means, and the effective sample size it implies."""
    batches = x[: x.size - x.size % BATCHES].reshape(BATCHES, -1).mean(axis=1)
    mcse = batches.std(ddof=1) / math.sqrt(BATCHES)
    return mcse, x.var() / mcse**2


@pytest.mark.parametrize("kind", [PriorKind.DEPENDENT, PriorKind.INDEPENDENT])
@pytest.mark.parametrize("alpha, gamma", [(1.0, 1.0), (2.0, 0.5), (1.0, 0.05)])
def test_anchored_draws_match_count_posterior(kind, alpha, gamma):
    cfg = ModelConfig(seed=17, alpha=alpha, gamma=gamma, prior=kind,
                      sweeps=SWEEPS, burn_in=BURN_IN)
    summary, trace = run_gibbs(_dataset(), cfg)
    draws = trace.means[BURN_IN:, : len(COUNTS)]
    assert np.allclose(summary.bias_mean, draws.mean(axis=0), rtol=1e-13, atol=0)
    for g, (n, positives) in enumerate(COUNTS):
        mean, sd, cdf = count_posterior_oracle(positives, n - positives, 0.0, 1.0, alpha, gamma)
        x = draws[:, g]
        mcse, ess = _batch_means(x)
        assert abs(x.mean() - mean) < 4 * mcse, (g, x.mean(), mean, mcse)
        # the sd of a sample sd is sd / sqrt(2 ess) for near-normal draws
        assert abs(x.std() - sd) < 4 * sd / math.sqrt(2 * ess), (g, x.std(), sd, ess)
        assert stats.kstest(x[::THIN], cdf).pvalue > 1e-3, g


@pytest.mark.parametrize("n_pos, n_neg", [(300, 150), (6, 3), (0, 5), (40, 0)])
def test_ranking_chain_matches_skill_posterior(n_pos, n_neg):
    # one player loses n_pos and wins n_neg matches against the common player
    # (with few matches, or wins on one side only, the prior shapes the
    # posterior); the batches are independent chains of 200 post-burn-in
    # iterations each
    chains, iterations = 40, 250
    kept = iterations - iterations // 5
    runs = {anchor: np.array([trueskill_gibbs([n_neg], [n_pos], iterations, seed, anchor)
                              for seed in range(chains)])
            for anchor in (True, False)}
    mean, sd, _cdf = skill_posterior_oracle(n_pos, n_neg)
    # w_0 | d ~ N(-d/2, 1/2), so these are the common player's exact moments
    want = {True: (mean, sd**2), False: (-mean / 2, sd**2 / 4 + 0.5)}
    for anchor, player in ((True, 1), (False, 0)):
        chain_means = runs[anchor][:, 0, player]
        chain_vars = runs[anchor][:, 1, player] * kept / (kept - 1)
        want_mean, want_var = want[anchor]
        for got, value in ((chain_means, want_mean), (chain_vars, want_var)):
            mcse = got.std(ddof=1) / math.sqrt(chains)
            assert abs(got.mean() - value) < 4 * mcse, (anchor, got.mean(), value, mcse)


def _reference_star_chain(losses, wins, iterations, seed):
    """The star chain one step at a time: per iteration, each relative skill
    by :func:`_sample_bias_conditional` on its conditional given the current
    common level, with the mode solved afresh, then the common level.
    Returns the post-burn-in ``(relative skills, skills)``."""
    players = len(losses) + 1
    rng = np.random.default_rng(seed)
    rel, common = np.zeros(players), 0.0
    rels, levels = [], []
    for _ in range(iterations):
        for p in range(1, players):
            target = CountTarget((wins[p - 1], losses[p - 1]), -common, 1.0, _Match())
            rel[p] = _sample_bias_conditional(target, *mode_and_scale(target), float(rel[p]), rng)
        common = -rel.sum() / players + rng.standard_normal() / math.sqrt(players)
        rels.append(rel.copy())
        levels.append(common)
    burn = iterations // 5
    rel, levels = np.array(rels)[burn:], np.array(levels)[burn:]
    return rel, rel + levels[:, None]


def test_ranking_chain_matches_step_at_a_time_reference():
    # four groups, from many matches to few and one-sided; each chain's
    # post-burn-in mean and variance is one batch
    losses, wins = (300, 6, 0, 40), (150, 3, 5, 0)
    chains, iterations = 40, 250
    reference = [_reference_star_chain(losses, wins, iterations, 1000 + seed)
                 for seed in range(chains)]
    for anchor, column in ((True, 0), (False, 1)):
        star = np.array([trueskill_gibbs(wins, losses, iterations, seed, anchor)
                         for seed in range(chains)])
        ref = np.array([(draws[column].mean(axis=0), draws[column].var(axis=0))
                        for draws in reference])
        for stat in (0, 1):
            for player in range(1 if anchor else 0, 5):
                got, want = star[:, stat, player], ref[:, stat, player]
                mcse = math.hypot(got.std(ddof=1), want.std(ddof=1)) / math.sqrt(chains)
                assert abs(got.mean() - want.mean()) < 4 * mcse, \
                    (anchor, stat, player, got.mean(), want.mean(), mcse)
