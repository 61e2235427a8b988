"""Skill-ranking baseline: each group plays a common "Criminality" player.

Every stop-and-search record becomes one decisive match, held as one
entry of a winner array and a loser array of player ids. A positive
outcome means the common player beat the group's player; a negative
outcome means the group's player won. Skills ``w`` get N(0,1) priors and
a match is won with probability ``Phi(w_win - w_lose)`` (unit performance
noise).

That likelihood depends only on how often each ordered pair of players
met, so :func:`trueskill_gibbs` samples from a table of win counts, with
no per-match latent: each skill relative to the common player from its
exact 1-D conditional by the fit's kernel, then the common level exactly.

Because every observation is purely comparative, the common level of all
skills is informed only by the prior and wanders from iteration to
iteration. The ``anchor_common`` flag records each sample relative to the
common player, which pins that player's mean at zero and makes the
per-player variances reflect actual information content (low-count
players then show strictly larger variance).
"""

from __future__ import annotations

import math
from typing import Sequence, TextIO

import numpy as np

from .data import Dataset
from .errors import DivergenceError, DomainError
from .gaussians import log_ndtr
from .inference import _bias_mode, _sample_bias_conditional
from .model import descending_order

__all__ = [
    "COMMON_LABEL",
    "matches_from_dataset",
    "trueskill_gibbs",
    "write_ranking_csv",
]

COMMON_LABEL = "Criminality"
# a skill whose magnitude passes this has diverged
_DIVERGENCE_LIMIT = 1e6
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def matches_from_dataset(dataset: Dataset) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Player labels plus one match per record, as ``(labels, winners, losers)``.

    Player 0 is the common player (:data:`COMMON_LABEL`); group ``k``
    plays as id ``k + 1``. A positive outcome is a win for the common
    player, a negative outcome a win for the group's player. Matches keep
    the row order.
    """
    labels = [COMMON_LABEL, *dataset.labels]
    group_player = dataset.group + 1
    winners = np.where(dataset.outcome, 0, group_player)
    losers = np.where(dataset.outcome, group_player, 0)
    return labels, winners, losers


class _SkillTarget:
    """One player's relative skill ``d`` given the common level ``w_0`` and
    every other relative skill,

        log N(d; m0, 1) + sum_j n_j log Phi(s_j (d - d_{q_j})),

    up to a constant, with ``m0 = -w_0``. Factor ``j`` is the ``n_j`` wins
    (``s_j = +1``) or losses (``s_j = -1``) against opponent ``q_j``, given
    as a list of ``(d_{q_j}, s_j, n_j)``. A star-graph player has at most
    two, so they are evaluated in scalar arithmetic. The density is
    log-concave; ``log_ndtr`` and a log-space Mills ratio keep it and its
    derivatives finite in the far tails. Same contract as
    :class:`~latentbias.inference._CountTarget`.
    """

    def __init__(self, m0: float, factors: list[tuple[float, float, float]]):
        self.m0, self.factors = m0, factors

    def log_density(self, d: np.ndarray) -> np.ndarray:
        """The log density at each ``d``."""
        return np.array([sum(n * log_ndtr(s * (x - q)) for q, s, n in self.factors)
                         - 0.5 * (x - self.m0) ** 2 for x in d.tolist()])

    def score_hessian(self, d: float) -> tuple[float, float]:
        """First and second derivatives of the log density at ``d``, from
        ``d log Phi(y)/dy = lam(y) = phi(y)/Phi(y)`` and ``dlam/dy = -lam (y + lam)``."""
        score, hess = self.m0 - d, -1.0
        for q, s, n in self.factors:
            y = s * (d - q)
            lam = math.exp(-0.5 * y * y - _LOG_SQRT_2PI - log_ndtr(y))
            score += n * lam * s
            hess -= n * lam * (y + lam)
        return score, hess


def trueskill_gibbs(
    winners: np.ndarray,
    losers: np.ndarray,
    player_count: int,
    iterations: int = 500,
    seed: int = 0,
    anchor_common: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Count-level Gibbs over player skills.

    Match ``m`` is won by player ``winners[m]`` against ``losers[m]``;
    player ids run over ``0..player_count-1``. The matches are reduced
    once to the win count of each ordered (winner, loser) pair, so the
    match order does not matter. The chain runs on the relative skills
    ``d_p = w_p - w_0`` (``d_0 = 0``) and the common level ``w_0``; per
    iteration:

    * each ``d_p``, ``p >= 1`` in turn, from its exact 1-D conditional
      ``N(d_p; -w_0, 1) * prod_q Phi(d_p - d_q)^wins[p,q] *
      Phi(d_q - d_p)^wins[q,p]`` (a :class:`_SkillTarget`), by the fit's
      kernel: a Newton mode solve from ``-w_0``, never from the current
      ``d_p``, so the Student-t independence proposals leave the
      conditional exactly invariant;
    * ``w_0 ~ N(-sum(d) / player_count, 1 / player_count)``, exactly: the
      likelihood depends only on skill differences.

    In a star graph (every match against player 0, as
    :func:`matches_from_dataset` builds) the ``d_p`` are independent given
    ``w_0``, so the sweep over them is an exact blocked step. The chain
    starts at zero skills and the first ``iterations // 5`` iterations are
    burn-in. Returns the empirical post-burn-in ``(means, variances)`` of
    the skills ``w`` (of ``d`` with ``anchor_common``) per player;
    variances are floored at 1e-12, so an anchored common player reports
    1e-12. Deterministic given ``seed``.

    Raises:
        DomainError: malformed matches or ``iterations`` below 1.
        DivergenceError: when a skill's magnitude exceeds 1e6.
        NumericalError: when a 1-D mode solve fails.
    """
    winners = np.asarray(winners, dtype=np.intp)
    losers = np.asarray(losers, dtype=np.intp)
    if winners.ndim != 1 or winners.shape != losers.shape:
        raise DomainError("winners and losers must be 1-D arrays of equal length")
    if winners.size == 0:
        raise DomainError("matches must be nonempty")
    if np.any(winners == losers):
        raise DomainError("a match needs two distinct players")
    if iterations < 1:
        raise DomainError("iterations must be >= 1")
    if min(winners.min(), losers.min()) < 0 or max(winners.max(), losers.max()) >= player_count:
        raise DomainError("match player ids out of range")

    # wins[p, q]: how often p beat q
    wins = np.bincount(winners * player_count + losers,
                       minlength=player_count * player_count).reshape(player_count, player_count)
    # each player's factors: its wins, then its losses, against each opponent met,
    # as (opponent, sign, count)
    factors = []
    for p in range(1, player_count):
        beat, lost_to = np.flatnonzero(wins[p]).tolist(), np.flatnonzero(wins[:, p]).tolist()
        factors.append([(q, 1.0, float(wins[p, q])) for q in beat]
                       + [(q, -1.0, float(wins[q, p])) for q in lost_to])

    burn = iterations // 5
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    rel = np.zeros(player_count)  # d, with d_0 = 0 throughout
    common = 0.0  # w_0
    level_sd = 1.0 / math.sqrt(player_count)
    kept = np.empty((iterations - burn, player_count))
    for it in range(iterations):
        for p, player_factors in enumerate(factors, start=1):
            target = _SkillTarget(-common, [(float(rel[q]), s, n) for q, s, n in player_factors])
            rel[p] = _sample_bias_conditional(target, *_bias_mode(target), float(rel[p]), rng)
        common = -rel.sum() / player_count + level_sd * rng.standard_normal()
        skills = rel + common
        if np.any(np.abs(skills) > _DIVERGENCE_LIMIT):
            raise DivergenceError(f"ranking chain diverged at iteration {it}", sweep=it)
        if it >= burn:
            kept[it - burn] = rel if anchor_common else skills
    return kept.mean(axis=0), np.maximum(kept.var(axis=0), 1e-12)


def write_ranking_csv(
    labels: Sequence[str], means: np.ndarray, variances: np.ndarray, stream: TextIO
) -> None:
    """``rank,label,mean,variance``, players by descending mean, ties by id."""
    stream.write("rank,label,mean,variance\n")
    for position, i in enumerate(descending_order(means), start=1):
        stream.write(f"{position},{labels[i]},{means[i]:.12g},{variances[i]:.12g}\n")
