"""Held-out predictive scoring, as the ``score`` command runs it.

:func:`predictive_score` scores a test set against a fitted posterior
summary, at the noise variances the summary records, and reads only the
test set's per-group outcome tally, placed on the summary's labels. By
accuracy it predicts one outcome for every stop, "positive" when the
criminality mean is ``>= 0`` (``Phi(c/sqrt(gamma)) >= 1/2`` exactly when
``c >= 0``, so ``gamma`` plays no part); by likelihood
it takes the mean probability the fit gives each observed outcome, from
each group's P(positive outcome | stopped)
(:func:`outcome_probability_given_stop`), the orthant masses of the
bivariate normal (stop, outcome) latents that the anchored fit uses.
"""

from __future__ import annotations

import math

import numpy as np

from .data import Dataset
from .errors import DomainError
from .gaussians import orthant_masses
from .inference import PosteriorSummary
from .model import require_positive_finite

__all__ = [
    "predictive_score",
    "outcome_probability_given_stop",
]


def outcome_probability_given_stop(
    bias_mean: float, criminality_mean: float, alpha: float, gamma: float
) -> float:
    """P(positive outcome | stopped) for one group.

    The population criminality is ``C ~ N(criminality_mean, 1)``; a stop is
    ``S = C + bias_mean + N(0, alpha) > 0`` and a positive outcome ``T = C +
    N(0, gamma) > 0``. ``(S, T)`` is bivariate normal with covariance
    ``[[1+alpha, 1], [1, 1+gamma]]``, so this is ``P+/(P+ + P-)`` for its
    orthant masses ``P+- = P(S > 0, +-T > 0)``
    (:func:`~latentbias.gaussians.orthant_masses`), in closed form. Stopping
    selects individuals upward, so it stays above one half whenever the
    criminality mean is non-negative. Returns 0.5 where the stop probability
    underflows.
    """
    require_positive_finite(alpha=alpha, gamma=gamma)
    pos, neg = orthant_masses((criminality_mean + bias_mean) / math.sqrt(1.0 + alpha),
                              criminality_mean / math.sqrt(1.0 + gamma),
                              math.sqrt(1.0 / (alpha + gamma + alpha * gamma)))
    return pos / (pos + neg) if pos + neg > 0 else 0.5


def predictive_score(posterior: PosteriorSummary, test: Dataset, method: str = "accuracy") -> float:
    """Score held-out stops against the fitted posterior, at the noise
    variances ``posterior.alpha`` and ``posterior.gamma`` the fit recorded.

    ``test``'s groups are placed on ``posterior.labels`` by label, so the
    two may list them in different orders; a test group the posterior does
    not know raises DomainError.

    ``method="accuracy"`` (the default) predicts a positive outcome for
    every record iff the criminality mean is ``>= 0`` - the population-level
    rule ``Phi(c/sqrt(gamma)) >= 1/2``, in which ``gamma`` plays no part; a
    criminality mean of exactly 0, as after anchoring, breaks the tie to
    "positive". Returns the fraction of correct predictions.

    ``method="likelihood"`` returns the mean predictive probability
    assigned to the observed outcomes using each record's group-specific
    stop-conditional probability - a strictly finer-grained alternative.
    Both read only the test set's per-group outcome tally
    (:meth:`~latentbias.data.Dataset.outcome_counts`); the likelihood sum is
    taken exactly (``math.fsum``) over its products.
    """
    unknown = [label for label in test.labels if label not in posterior.labels]
    if unknown:
        raise DomainError(f"test dataset group {unknown[0]!r} is unknown to the summary "
                          f"(labels: {posterior.labels})")
    if len(test) == 0:
        raise DomainError("test set must be nonempty")
    counts = np.zeros((len(posterior.labels), 2), dtype=np.intp)
    counts[[posterior.labels.index(label) for label in test.labels]] = test.outcome_counts()
    if method == "accuracy":
        return int(counts[:, int(posterior.criminality_mean >= 0.0)].sum()) / len(test)
    if method == "likelihood":
        p = np.array([
            outcome_probability_given_stop(
                bias_mean, posterior.criminality_mean, posterior.alpha, posterior.gamma
            )
            for bias_mean in posterior.bias_mean.tolist()
        ])
        # each group's negative stops score 1 - p and its positive stops p
        per_group = counts * np.column_stack((1.0 - p, p))
        return math.fsum(per_group.ravel().tolist()) / len(test)
    raise DomainError(f"unknown scoring method {method!r}")
