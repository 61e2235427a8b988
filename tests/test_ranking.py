import io
import math

import numpy as np
import pytest

from latentbias import (
    COMMON_LABEL,
    DivergenceError,
    DomainError,
    matches_from_dataset,
    trueskill_gibbs,
    write_ranking_csv,
)
from latentbias import kernel, ranking
from latentbias.gaussians import log_ndtr

from conftest import EXACT_GRID, dataset_from_rows


def _dataset(groups, outcomes, labels):
    return dataset_from_rows(groups, outcomes, labels)


# --- match tallies ------------------------------------------------------------------

def test_positive_outcome_is_common_player_win():
    labels, wins, losses = matches_from_dataset(_dataset([1], [True], ("a", "b")))
    assert labels == [COMMON_LABEL, "a", "b"]
    assert (wins.tolist(), losses.tolist()) == ([0, 0], [0, 1])


def test_negative_outcome_is_group_win():
    _labels, wins, losses = matches_from_dataset(_dataset([2], [False], ("a", "b", "c")))
    assert (wins.tolist(), losses.tolist()) == ([0, 0, 1], [0, 0, 0])


def test_empty_dataset_gives_no_matches():
    labels, wins, losses = matches_from_dataset(_dataset([], [], ("a",)))
    assert wins.tolist() == losses.tolist() == [0]
    assert len(labels) == 2


# --- gibbs ranking -------------------------------------------------------------------

def test_total_dominance_orders_players():
    # player 1 wins all 100 of its matches against the common player, player 2 half
    for seed in (0, 1, 2):
        means, _variances = trueskill_gibbs([100, 50], [0, 50], iterations=500, seed=seed)
        assert means[1] > means[2]


def test_win_dominance_through_common_player():
    # A (player 1) always beats the common player, B (player 2) always loses to it
    for seed in range(5):
        means, _variances = trueskill_gibbs([80, 0], [0, 80], iterations=500, seed=seed)
        assert means[1] > means[2]


def test_alternating_wins_stay_close():
    # both players win half of their matches against the common player
    means, _variances = trueskill_gibbs([100, 100], [100, 100], iterations=500, seed=3)
    assert abs(means[1] - means[2]) < 0.05


def test_low_count_player_has_larger_anchored_variance():
    # identical win rates, 10x match counts: the thin player's skill is
    # less pinned down (measured relative to the common player)
    _means, variances = trueskill_gibbs([500, 50], [500, 50], iterations=500, seed=4,
                                        anchor_common=True)
    assert variances[2] > variances[1]


def test_label_permutation_equivariance():
    # swapping group ids permutes the skill beliefs; the chains consume
    # randomness in player order so the check is distributional, with the
    # common player anchored to remove the shared level wander
    rng = np.random.default_rng(0)
    outcomes = rng.random(400) < 0.4
    group = rng.integers(0, 2, 400)
    recs = _dataset(group, outcomes, ("a", "b"))
    swapped = _dataset(1 - group, outcomes, ("a", "b"))
    _l1, *m1 = matches_from_dataset(recs)
    _l2, *m2 = matches_from_dataset(swapped)
    s1, _v1 = trueskill_gibbs(*m1, iterations=4000, seed=5, anchor_common=True)
    s2, _v2 = trueskill_gibbs(*m2, iterations=4000, seed=6, anchor_common=True)
    assert s1[1] == pytest.approx(s2[2], abs=0.03)
    assert s1[2] == pytest.approx(s2[1], abs=0.03)
    assert s1[0] == s2[0] == 0.0


def test_deterministic_given_seed():
    # the same tallies in any integer type give the same chain
    a = trueskill_gibbs([9, 8], [16, 17], iterations=100, seed=9)
    for wins, losses in (([9, 8], [16, 17]), (np.array([9, 8], np.uint8), (16, 17))):
        b = trueskill_gibbs(wins, losses, iterations=100, seed=9)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


def test_anchored_common_mean_is_zero():
    means, variances = trueskill_gibbs([60], [0], iterations=200, seed=2, anchor_common=True)
    assert means[0] == 0.0
    assert variances[0] == 1e-12  # the variance floor ranking.csv prints


def test_divergence_guard_raises_at_the_first_iteration_over_the_limit(monkeypatch):
    monkeypatch.setattr(ranking, "DIVERGENCE_MEAN_LIMIT", 0.0)  # every nonzero skill is over
    with pytest.raises(DivergenceError, match="iteration 0") as info:
        trueskill_gibbs([30, 0], [0, 30], iterations=50, seed=0)
    assert info.value.sweep == 0


def test_validates_inputs():
    for wins, losses in (
        ([3, -1], [2, 2]),  # a negative tally
        ([3, 1], [2, -2]),
        ([3, 1], [2]),  # unequal lengths
        ([3.0, 1.0], [2, 2]),  # not integers
        ([3, 1], [2.5, 2]),
        ([[3, 1]], [[2, 2]]),  # 2-D
        ([0, 0], [0, 0]),  # no matches
        ([], []),
    ):
        with pytest.raises(DomainError):
            trueskill_gibbs(wins, losses, iterations=10, seed=0)
    with pytest.raises(DomainError, match="iterations"):
        trueskill_gibbs([1], [0], iterations=0, seed=0)


def test_skill_target_maps_the_scalar_log_ndtr_bit_for_bit():
    # b = 3 wins and a = 2 losses: both signs of the mapped log_ndtr
    want = -0.5 * (EXACT_GRID - 0.0) ** 2
    want += 3 * np.array([log_ndtr(x) for x in EXACT_GRID.tolist()])
    want += 2 * np.array([log_ndtr(-x) for x in EXACT_GRID.tolist()])
    got = kernel.CountTarget((3, 2), 0.0, 1.0, ranking._Match()).log_density(EXACT_GRID)
    assert got.tobytes() == want.tobytes()


def _replayed_star_chain(losses, wins, iterations, seed, anchor_common):
    """:func:`trueskill_gibbs` one Metropolis-Hastings step at a time, on the
    seed's ``standard_t``, ``random`` and ``standard_normal`` draws sliced
    per iteration and player. Each step evaluates the player's conditional
    given the current common level, ``N(d; -w_0, 1) Phi(d)^b Phi(-d)^a``,
    and its Student-t proposal density at both points."""
    players, steps = len(losses) + 1, kernel.MH_STEPS
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    t_draws = rng.standard_t(kernel.T_DOF, size=(players - 1, iterations * steps))
    uniforms = rng.random((players - 1, iterations * steps))
    level_noise = rng.standard_normal(iterations)
    laplace = [kernel.mode_and_scale(kernel.CountTarget((b, a), 0.0, 1.0, ranking._Match()))
               for a, b in zip(losses, wins)]
    current = [mode for mode, _scale in laplace]
    rel, levels, common = np.zeros((iterations, players)), np.empty(iterations), 0.0
    for it in range(iterations):
        for p, (mode, scale) in enumerate(laplace):
            target = kernel.CountTarget((wins[p], losses[p]), -common, 1.0, ranking._Match())

            def log_ratio_term(x):  # log target minus log proposal, up to constants
                log_proposal = -0.5 * (kernel.T_DOF + 1) * math.log1p(
                    ((x - mode) / scale) ** 2 / kernel.T_DOF)
                return target.log_density(np.array([x]))[0] - log_proposal

            for step in range(it * steps, (it + 1) * steps):
                y = mode + scale * t_draws[p, step]
                log_ratio = log_ratio_term(y) - log_ratio_term(current[p])
                if uniforms[p, step] < math.exp(min(0.0, log_ratio)):
                    current[p] = y
        rel[it, 1:] = current
        common = -sum(current) / players + level_noise[it] / math.sqrt(players)
        levels[it] = common
    kept = (rel if anchor_common else rel + levels[:, None])[iterations // 5:]
    return kept.mean(axis=0), np.maximum(kept.var(axis=0), 1e-12)


@pytest.mark.parametrize("anchor_common", [False, True])
def test_chain_replays_its_draws_one_step_at_a_time(anchor_common):
    # from many matches to few and one-sided; every accept decision and so
    # every recorded skill must match, bit for bit
    losses, wins = (300, 6, 0, 40), (150, 3, 5, 0)
    got = trueskill_gibbs(wins, losses, iterations=150, seed=23, anchor_common=anchor_common)
    want = _replayed_star_chain(losses, wins, 150, 23, anchor_common)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


# --- ordering and export ----------------------------------------------------------------

def _ranking_rows(labels, means):
    buf = io.StringIO()
    write_ranking_csv(labels, np.asarray(means, dtype=float), np.ones(len(means)), buf)
    return [line.split(",") for line in buf.getvalue().splitlines()[1:]]


def test_rank_breaks_ties_by_id():
    rows = _ranking_rows(["p0", "p1", "p2"], [0.5, 0.5, 0.9])
    assert [(r[0], r[1]) for r in rows] == [("1", "p2"), ("2", "p0"), ("3", "p1")]


def test_rank_singleton():
    assert _ranking_rows(["p0"], [0.0]) == [["1", "p0", "0", "1"]]


def test_ranking_csv_format():
    means, variances = trueskill_gibbs([30], [0], iterations=100, seed=1)
    buf = io.StringIO()
    write_ranking_csv([COMMON_LABEL, "GroupA"], means, variances, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "rank,label,mean,variance"
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "GroupA"
