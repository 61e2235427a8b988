"""Analytic record likelihood, its numerical-integration oracle, and
held-out predictive scoring.

For a single record with criminality ``c`` and group bias ``beta`` (unit
noise on both equations) the probability of observing a stop together with
outcome ``x`` factorises into two normal CDFs:

    x = 1:  Phi(c)  * Phi(c + beta)
    x = 0:  Phi(-c) * Phi(c + beta)

The two branches sum to the total stop probability ``Phi(c + beta)``, not
to one. :func:`likelihood_oracle` checks the same quantity by brute-force
2-D integration of the latent densities with the stop gate, sharing no
code with the closed form. Held-out scoring takes each group's P(positive
outcome | stopped) from the orthant masses the anchored fit uses.
"""

from __future__ import annotations

import math

import numpy as np

from .data import Dataset
from .errors import DomainError, NumericalError
from .gaussians import ndtr, orthant_masses
from .inference import PosteriorSummary
from .model import guilt_probability, require_positive_finite

__all__ = [
    "stop_search_likelihood",
    "likelihood_oracle",
    "predictive_score",
    "outcome_probability_given_stop",
]

def stop_search_likelihood(c: float, beta: float, x: int) -> float:
    """Closed-form probability of (stop, outcome ``x``) for unit noise."""
    if x not in (0, 1):
        raise DomainError(f"x must be 0 or 1, got {x!r}")
    stop = ndtr(c + beta)
    return float(ndtr(c) * stop) if x == 1 else float(ndtr(-c) * stop)


def likelihood_oracle(c: float, beta: float, x: int, abs_tol: float = 1e-6) -> float:
    """Brute-force oracle for :func:`stop_search_likelihood`.

    Integrates ``N(s; c + beta, 1) N(t; c, 1)`` over the region selected
    by the stop gate (``s > 0``) and the outcome's half-line for ``t``,
    using adaptive 2-D quadrature on the raw densities. Normalisation
    constant is taken as one, matching the closed form's convention.

    Raises:
        NumericalError: if the quadrature error estimate exceeds ``abs_tol``.
    """
    # imported here: scipy.integrate (with scipy.optimize) is a test oracle's
    # dependency, and the CLI would otherwise load it on every start
    from scipy import integrate

    if x not in (0, 1):
        raise DomainError(f"x must be 0 or 1, got {x!r}")

    def integrand(t: float, s: float) -> float:
        ds = s - c - beta
        dt = t - c
        return math.exp(-0.5 * (ds * ds + dt * dt)) / (2.0 * math.pi)

    t_lo, t_hi = (0.0, np.inf) if x == 1 else (-np.inf, 0.0)
    value, err = integrate.dblquad(integrand, 0.0, np.inf, t_lo, t_hi, epsabs=1e-10)
    if err > abs_tol:
        raise NumericalError(f"oracle quadrature error {err:.3g} exceeds {abs_tol:.3g}")
    return float(value)


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


def predictive_score(
    posterior: PosteriorSummary,
    test: Dataset,
    alpha: float,
    gamma: float,
    method: str = "accuracy",
) -> float:
    """Score held-out stops against the fitted posterior.

    ``test``'s group codes index ``posterior.labels``.

    ``method="accuracy"`` (the default) predicts a positive outcome for
    every record iff ``guilt_probability(criminality mean, gamma) >= 0.5``
    - the population-level rule; after anchoring the criminality mean is 0,
    the predicted probability is exactly 0.5, and the tie breaks to
    "positive" (documented). Returns the fraction of correct predictions.

    ``method="likelihood"`` returns the mean predictive probability
    assigned to the observed outcomes using each record's group-specific
    stop-conditional probability - a strictly finer-grained alternative.
    Both read only the test set's per-group outcome tally
    (:meth:`~latentbias.data.Dataset.outcome_counts`); the likelihood sum is
    taken exactly (``math.fsum``) over its products.
    """
    if len(test) == 0:
        raise DomainError("test set must be nonempty")
    counts = test.outcome_counts()
    if method == "accuracy":
        p = guilt_probability(posterior.criminality_mean, gamma)
        return int(counts[:, int(p >= 0.5)].sum()) / len(test)
    if method == "likelihood":
        k = len(posterior.labels)
        unknown = np.flatnonzero(counts[k:].any(axis=1))
        if unknown.size:
            raise DomainError(f"test group code {k + unknown[-1]} unknown to the posterior")
        p = np.array([
            outcome_probability_given_stop(
                float(posterior.bias_mean[g]), posterior.criminality_mean, alpha, gamma
            )
            for g in range(k)
        ])
        # each group's negative stops score 1 - p and its positive stops p
        per_group = counts[:k] * np.column_stack((1.0 - p, p))
        return math.fsum(per_group.ravel().tolist()) / len(test)
    raise DomainError(f"unknown scoring method {method!r}")
