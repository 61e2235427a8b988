"""Skill-ranking baseline: each group plays a common "Criminality" player.

Every stop-and-search record becomes one decisive match, held as one
entry of a winner array and a loser array of player ids. A positive
outcome means the common player beat the group's player; a negative
outcome means the group's player won. Skills get N(0,1) priors and unit
performance noise, and a Gibbs chain alternates between the winner-side
truncated performance margins and a joint Gaussian redraw of all skills.

Because every observation is purely comparative, the common level of all
skills is informed only by the prior and wanders from sweep to sweep. The
``anchor_common`` flag re-centres each recorded sample on the common
player, which pins that player's mean at zero and makes the per-player
variances reflect actual information content (low-count players then show
strictly larger variance).
"""

from __future__ import annotations

from typing import Sequence, TextIO

import numpy as np

from .data import Dataset
from .errors import DivergenceError, DomainError
from .gaussians import sample_truncated_normal
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


def trueskill_gibbs(
    winners: np.ndarray,
    losers: np.ndarray,
    player_count: int,
    iterations: int = 500,
    seed: int = 0,
    anchor_common: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch Gibbs over match margins and player skills.

    Match ``m`` is won by player ``winners[m]`` against ``losers[m]``;
    player ids run over ``0..player_count-1``.
    Per iteration: margins ``d_m ~ N(w_win - w_lose, 1)`` truncated
    positive, then the whole skill vector jointly from its Gaussian
    conditional. The first ``iterations // 5`` iterations are burn-in.
    Returns the empirical post-burn-in ``(means, variances)`` per player;
    variances are floored at 1e-12, so an anchored common player reports
    1e-12. Deterministic given ``seed``.

    Raises:
        DomainError: malformed matches or ``iterations`` below 1.
        DivergenceError: when a skill's magnitude exceeds 1e6.
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

    burn = iterations // 5
    precision = np.eye(player_count)
    np.add.at(precision, (winners, winners), 1.0)
    np.add.at(precision, (losers, losers), 1.0)
    np.add.at(precision, (winners, losers), -1.0)
    np.add.at(precision, (losers, winners), -1.0)
    covariance = np.linalg.inv(precision)
    covariance = 0.5 * (covariance + covariance.T)
    chol = np.linalg.cholesky(covariance)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    skills = np.zeros(player_count)
    kept = np.empty((iterations - burn, player_count))
    for it in range(iterations):
        margins = sample_truncated_normal(skills[winners] - skills[losers], 1.0, rng)
        eta = (np.bincount(winners, weights=margins, minlength=player_count)
               - np.bincount(losers, weights=margins, minlength=player_count))
        skills = covariance @ eta + chol @ rng.standard_normal(player_count)
        if np.any(np.abs(skills) > _DIVERGENCE_LIMIT):
            raise DivergenceError(f"ranking chain diverged at iteration {it}", sweep=it)
        if it >= burn:
            kept[it - burn] = skills - skills[0] if anchor_common else skills
    return kept.mean(axis=0), np.maximum(kept.var(axis=0), 1e-12)


def write_ranking_csv(
    labels: Sequence[str], means: np.ndarray, variances: np.ndarray, stream: TextIO
) -> None:
    """``rank,label,mean,variance``, players by descending mean, ties by id."""
    stream.write("rank,label,mean,variance\n")
    for position, i in enumerate(descending_order(means), start=1):
        stream.write(f"{position},{labels[i]},{means[i]:.12g},{variances[i]:.12g}\n")
