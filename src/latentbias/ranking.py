"""Skill-ranking baseline: each group plays a common "Criminality" player.

Every stop-and-search record is one decisive match between its group's
player and the common player. A positive outcome means the common player
beat the group's player; a negative outcome means the group's player won.
So the data are each group's wins (its negative stops) and losses (its
positive stops) against the common player, as
:meth:`~latentbias.data.Dataset.outcome_counts` tallies them. Skills ``w``
get N(0,1) priors and a match is won with probability
``Phi(w_win - w_lose)`` (unit performance noise).

:func:`trueskill_gibbs` samples from those counts with no per-match
latent. Given the common level, the groups' skills relative to it are
independent, and only the prior factor of each conditional moves with that
level. So each group's target, a :class:`~latentbias.kernel.CountTarget`
of its matches, gets one fixed Student-t proposal, computed once per run,
and is evaluated once on all of its proposals; the Metropolis-Hastings
steps then need one scalar ratio each, and stay exact because the proposal
depends only on the data.

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
from .kernel import MH_STEPS, CountTarget, proposals
from .model import DIVERGENCE_MEAN_LIMIT, descending_order

__all__ = [
    "COMMON_LABEL",
    "matches_from_dataset",
    "trueskill_gibbs",
    "write_ranking_csv",
]

COMMON_LABEL = "Criminality"
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def matches_from_dataset(dataset: Dataset) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Player labels and each group's record against the common player, as
    ``(labels, wins, losses)``.

    The labels put the common player (:data:`COMMON_LABEL`) first, then the
    groups. A group wins on each of its negative stops and loses on each of
    its positive ones; ``wins`` and ``losses`` are indexed by group code.
    """
    negatives, positives = dataset.outcome_counts().T
    return [COMMON_LABEL, *dataset.labels], negatives, positives


class _Match:
    """The cells of a player's matches against the common player at relative
    skill ``d``, counts ``(wins, losses)``: a win has mass ``Phi(d)`` and a
    loss ``Phi(-d)``. ``log_ndtr`` and a log-space Mills ratio keep both
    finite in the far tails."""

    def log_masses(self, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(log Phi(d), log Phi(-d))`` at each ``d``."""
        return log_ndtr(d), log_ndtr(-d)

    def score_hessian(self, d: float, counts, score: float, hess: float):
        """``score`` and ``hess`` plus the first and second derivatives in a
        float ``d`` of ``wins log Phi(d) + losses log Phi(-d)``, from ``d log
        Phi(y)/dy = lam(y) = phi(y)/Phi(y)`` and ``dlam/dy = -lam (y + lam)``."""
        for n, sign in zip(counts, (1.0, -1.0)):
            if n:
                y = sign * d
                lam = math.exp(-0.5 * y * y - _LOG_SQRT_2PI - log_ndtr(y))
                score += n * lam * sign
                hess -= n * lam * (y + lam)
        return score, hess


def trueskill_gibbs(
    wins: np.ndarray,
    losses: np.ndarray,
    iterations: int = 500,
    seed: int = 0,
    anchor_common: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Count-level Gibbs over player skills on a star graph.

    Player 0 is the common player; player ``p >= 1`` won ``b_p =
    wins[p - 1]`` and lost ``a_p = losses[p - 1]`` matches against it, as
    :func:`matches_from_dataset` tallies them. The chain runs on the
    relative skills ``d_p = w_p - w_0`` (``d_0 = 0``) and the common level
    ``w_0``; with ``P`` players, per iteration:

    * each ``d_p``, ``p >= 1``, by ``3`` independence Metropolis-Hastings
      steps on its exact 1-D conditional ``N(d; -w_0, 1) Phi(d)^b_p
      Phi(-d)^a_p``; given ``w_0`` the ``d_p`` are independent, so this is
      an exact blocked step;
    * ``w_0 ~ N(-sum(d) / P, 1 / P)``, exactly: the likelihood depends only
      on skill differences.

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
    ``anchor_common``) per player, the common player first; variances are
    floored at 1e-12, so an anchored common player reports 1e-12.
    Deterministic given ``seed``.

    Raises:
        DomainError: ``wins`` and ``losses`` not 1-D non-negative integer
            tallies of equal length with at least one match, or
            ``iterations`` below 1.
        DivergenceError: at the first iteration where a skill's magnitude
            exceeds :data:`~latentbias.model.DIVERGENCE_MEAN_LIMIT`.
        NumericalError: when a 1-D mode solve fails.
    """
    wins, losses = np.asarray(wins), np.asarray(losses)
    if not (wins.ndim == 1 and wins.shape == losses.shape
            and wins.dtype.kind in "iu" and losses.dtype.kind in "iu"):
        raise DomainError("wins and losses must be 1-D integer tallies of equal length")
    if (wins < 0).any() or (losses < 0).any():
        raise DomainError("wins and losses must be non-negative")
    if wins.sum() + losses.sum() == 0:
        raise DomainError("matches must be nonempty")
    if iterations < 1:
        raise DomainError("iterations must be >= 1")
    player_count = wins.size + 1
    burn, steps = iterations // 5, MH_STEPS
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    cells = _Match()
    # per player: its proposal mode (point 0, the start) then its proposals,
    # the fixed target's log weight at each, and its uniforms
    chains = [(pts.tolist(), lw, u) for pts, lw, u in proposals(
        [CountTarget(matches, 0.0, 1.0, cells) for matches in zip(wins.tolist(), losses.tolist())],
        iterations, rng)]
    level_noise = (rng.standard_normal(iterations) / math.sqrt(player_count)).tolist()

    states = [0] * wins.size
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
    over = (np.abs(skills) > DIVERGENCE_MEAN_LIMIT).any(axis=1)
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
