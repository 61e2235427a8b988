"""Skill-ranking baseline: each group plays a common "Criminality" player.

Every stop-and-search record becomes one decisive match, held as one
entry of a winner array and a loser array of player ids. A positive
outcome means the common player beat the group's player; a negative
outcome means the group's player won. Skills ``w`` get N(0,1) priors and
a match is won with probability ``Phi(w_win - w_lose)`` (unit performance
noise).

Every match involves the common player, so the likelihood depends only
on each group's wins and losses against it, and :func:`trueskill_gibbs`
samples from those counts with no per-match latent. Given the common
level, the groups' skills relative to it are independent, and only the
prior factor of each conditional moves with that level. So each group
gets one fixed Student-t proposal from :mod:`~latentbias.kernel`, computed
from its counts once per run, and its target is evaluated once on all of
its proposals; the Metropolis-Hastings steps then need one scalar ratio
each, and stay exact because the proposal depends only on the data.

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

from .data import Dataset, csv_field
from .errors import DivergenceError, DomainError
from .gaussians import log_ndtr
from .kernel import MH_STEPS, proposals
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
    """One player's relative skill ``d`` given the common level ``w_0``,

        log N(d; m0, 1) + b log Phi(d) + a log Phi(-d),

    up to a constant, with ``m0 = -w_0``: the player won ``b`` and lost ``a``
    matches against the common player. The density is log-concave;
    ``log_ndtr`` and a log-space Mills ratio keep it and its derivatives
    finite in the far tails. A target of :mod:`~latentbias.kernel`, as
    :class:`~latentbias.inference._CountTarget` is.
    """

    def __init__(self, m0: float, a: int, b: int):
        self.m0, self.a, self.b = m0, a, b

    def log_density(self, d: np.ndarray) -> np.ndarray:
        """The log density at each ``d``."""
        out = -0.5 * (d - self.m0) ** 2
        for n, sign in ((self.b, 1.0), (self.a, -1.0)):
            if n:
                out += n * np.fromiter(map(log_ndtr, (sign * d).tolist()), float, d.size)
        return out

    def score_hessian(self, d: float) -> tuple[float, float]:
        """First and second derivatives of the log density at ``d``, from
        ``d log Phi(y)/dy = lam(y) = phi(y)/Phi(y)`` and ``dlam/dy = -lam (y + lam)``."""
        score, hess = self.m0 - d, -1.0
        for n, sign in ((self.b, 1.0), (self.a, -1.0)):
            if n:
                y = sign * d
                lam = math.exp(-0.5 * y * y - _LOG_SQRT_2PI - log_ndtr(y))
                score += n * lam * sign
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
    """Count-level Gibbs over player skills on a star graph.

    Match ``m`` is won by player ``winners[m]`` against ``losers[m]``;
    player ids run over ``0..player_count-1``, and every match involves
    player 0, as :func:`matches_from_dataset` builds them. The matches are
    reduced once to each player's wins ``b_p`` and losses ``a_p`` against
    player 0, so the match order does not matter. The chain runs on the
    relative skills ``d_p = w_p - w_0`` (``d_0 = 0``) and the common level
    ``w_0``; per iteration:

    * each ``d_p``, ``p >= 1``, by ``3`` independence Metropolis-Hastings
      steps on its exact 1-D conditional ``N(d; -w_0, 1) Phi(d)^b_p
      Phi(-d)^a_p``; given ``w_0`` the ``d_p`` are independent, so this is
      an exact blocked step;
    * ``w_0 ~ N(-sum(d) / player_count, 1 / player_count)``, exactly: the
      likelihood depends only on skill differences.

    Only the prior factor of a conditional moves with ``w_0``: it is the
    fixed ``w_0 = 0`` target times ``exp(-w_0 d)``. So each player gets one
    Student-t proposal, at the mode and Laplace scale of that fixed target
    (the fit's kernel, :func:`~latentbias.kernel.proposals`), and the target
    is evaluated once per run on all of the player's proposals; a step from
    ``x`` to ``y`` is accepted on the scalar log ratio ``lw(y) - lw(x) -
    w_0 (y - x)``. A proposal that depends only on the data leaves each
    full conditional exactly invariant inside the Gibbs sweep (Tierney
    1994, *Ann. Statist.* 22(4)). Every proposal, uniform and ``w_0``
    normal is drawn before the chain runs.

    Each ``d_p`` starts at its proposal mode and ``w_0`` at zero; the first
    ``iterations // 5`` iterations are burn-in. Returns the empirical
    post-burn-in ``(means, variances)`` of the skills ``w`` (of ``d`` with
    ``anchor_common``) per player; variances are floored at 1e-12, so an
    anchored common player reports 1e-12. Deterministic given ``seed``.

    Raises:
        DomainError: malformed matches, a match without player 0, or
            ``iterations`` below 1.
        DivergenceError: at the first iteration where a skill's magnitude
            exceeds 1e6.
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
    # table[p, q]: how often p beat q
    table = np.bincount(winners * player_count + losers,
                        minlength=player_count * player_count).reshape(player_count, player_count)
    if table[1:, 1:].any():
        raise DomainError("every match must involve the common player 0")
    # per player p >= 1: losses a_p to player 0 and wins b_p against it
    losses, wins = table[0, 1:].tolist(), table[1:, 0].tolist()
    burn, steps = iterations // 5, MH_STEPS
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    # per player: its proposal mode (point 0, the start) then its proposals,
    # the fixed target's log weight at each, and its uniforms
    chains = [(pts.tolist(), lw, u) for pts, lw, u in proposals(
        [_SkillTarget(0.0, a, b) for a, b in zip(losses, wins)], iterations, rng)]
    level_noise = (rng.standard_normal(iterations) / math.sqrt(player_count)).tolist()

    states = [0] * (player_count - 1)
    common = 0.0  # w_0
    rel = np.zeros((iterations, player_count))  # d, with d_0 = 0 throughout
    levels = np.empty(iterations)
    for it in range(iterations):
        first = it * steps + 1
        total = 0.0
        for p, (pts, lw, u) in enumerate(chains):
            x = states[p]
            for y in range(first, first + steps):
                log_ratio = lw[y] - lw[x] - common * (pts[y] - pts[x])
                if log_ratio >= 0 or u[y - 1] < math.exp(log_ratio):
                    x = y
            states[p] = x
            rel[it, p + 1] = pts[x]
            total += pts[x]
        common = -total / player_count + level_noise[it]
        levels[it] = common
    skills = rel + levels[:, None]
    over = (np.abs(skills) > _DIVERGENCE_LIMIT).any(axis=1)
    if over.any():
        it = int(np.argmax(over))
        raise DivergenceError(f"ranking chain diverged at iteration {it}", sweep=it)
    kept = (rel if anchor_common else skills)[burn:]
    return kept.mean(axis=0), np.maximum(kept.var(axis=0), 1e-12)


def write_ranking_csv(
    labels: Sequence[str], means: np.ndarray, variances: np.ndarray, stream: TextIO
) -> None:
    """``rank,label,mean,variance``, players by descending mean, ties by id;
    labels quoted as in the canonical dataset CSV."""
    stream.write("rank,label,mean,variance\n")
    for position, i in enumerate(descending_order(means), start=1):
        stream.write(f"{position},{csv_field(labels[i])},{means[i]:.12g},{variances[i]:.12g}\n")
