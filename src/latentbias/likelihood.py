"""Held-out predictive scoring, as the ``score`` command runs it.

:func:`predictive_score` scores a test set against a fitted posterior
summary, at the noise variances the summary records, and reads only the
test set's per-group outcome tally, placed on the summary's labels. By
accuracy it predicts one outcome for every stop, "positive" when the
criminality mean is ``>= 0`` (``Phi(c/sqrt(gamma)) >= 1/2`` exactly when
``c >= 0``, so ``gamma`` plays no part); by likelihood it takes the mean
probability the fit gives each observed outcome, from each group's
P(positive outcome | stopped) in the summary's
:class:`~latentbias.model.CellModel`, the model the anchored fit uses.
"""

from __future__ import annotations

import math

import numpy as np

from .data import Dataset
from .errors import DomainError
from .inference import PosteriorSummary
from .model import CellModel

__all__ = [
    "predictive_score",
]


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
    assigned to the observed outcomes, from each group's P(positive |
    stopped) (:meth:`~latentbias.model.CellModel.outcome_probability`, one
    array call over the summary's groups). It is not a proper scoring rule:
    the mean is linear in each probability, so where a test set's positive
    fraction is below one half a summary that predicts no positives scores
    above one that predicts that fraction.
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
        model = CellModel(posterior.alpha, posterior.gamma)
        p = model.outcome_probability(posterior.bias_mean, posterior.criminality_mean)
        # each group's negative stops score 1 - p and its positive stops p
        per_group = counts * np.column_stack((1.0 - p, p))
        return math.fsum(per_group.ravel().tolist()) / len(test)
    raise DomainError(f"unknown scoring method {method!r}")
