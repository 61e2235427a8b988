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
code with the closed form.
"""

from __future__ import annotations

import math

import numpy as np

from .data import Dataset
from .errors import DomainError, NumericalError
from .gaussians import ndtr, owens_t
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


def _bivariate_cdf(h: float, k: float, rho: float, s: float) -> float:
    """P(X < h, Y < k) for standard normals with correlation ``|rho| < 1``
    and ``s = sqrt(1 - rho^2)``, by Owen's T (Owen 1956):

        Phi(h)/2 + Phi(k)/2 - T(h, a_h) - T(k, a_k) - [hk < 0 or hk = 0 > h + k]/2,

    with ``a_h = (k - rho h)/(h s)`` and ``a_k`` likewise; at ``h = 0`` the
    term ``T(0, a_h)`` is its limit ``+-1/4``, the sign of ``k``. The pieces
    are summed exactly (``math.fsum``), so the constants cancel without
    rounding. The caller passes ``s`` because ``1 - rho^2`` cancels as
    ``|rho|`` nears 1.
    """
    if h == 0.0 and k == 0.0:
        return 0.25 + math.asin(rho) / (2.0 * math.pi)
    parts = [0.5 * ndtr(h), 0.5 * ndtr(k)]
    if h * k < 0.0 or (h * k == 0.0 and h + k < 0.0):
        parts.append(-0.5)
    for x, y in ((h, k), (k, h)):
        if x == 0.0:
            parts.append(-math.copysign(0.25, y))
        else:
            parts.append(-owens_t(x, (y - rho * x) / (x * s)))
    return math.fsum(parts)


def outcome_probability_given_stop(
    bias_mean: float, criminality_mean: float, alpha: float, gamma: float
) -> float:
    """P(positive outcome | stopped) for one group.

    The population criminality is ``C ~ N(criminality_mean, 1)``; a stop is
    ``S = C + bias_mean + N(0, alpha) > 0`` and a positive outcome ``T = C +
    N(0, gamma) > 0``. ``(S, T)`` is bivariate normal with covariance
    ``[[1+alpha, 1], [1, 1+gamma]]``, so this is the orthant mass
    ``P(S > 0, T > 0)`` over ``P(S > 0)``, in closed form. Stopping selects
    individuals upward, so it stays above one half whenever the criminality
    mean is non-negative. Returns 0.5 where the stop probability underflows.
    """
    require_positive_finite(alpha=alpha, gamma=gamma)
    h = (criminality_mean + bias_mean) / math.sqrt(1.0 + alpha)
    k = criminality_mean / math.sqrt(1.0 + gamma)
    stop = ndtr(h)
    if stop <= 0:
        return 0.5
    scale = (1.0 + alpha) * (1.0 + gamma)
    # 1 - rho^2 = (alpha + gamma + alpha gamma)/scale, exact where both noises are tiny
    s = math.sqrt((alpha + gamma + alpha * gamma) / scale)
    return _bivariate_cdf(h, k, 1.0 / math.sqrt(scale), s) / stop


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
    """
    if len(test) == 0:
        raise DomainError("test set must be nonempty")
    if method == "accuracy":
        p = guilt_probability(posterior.criminality_mean, gamma)
        hits = int(np.count_nonzero(test.outcome == (p >= 0.5)))
        return hits / len(test)
    if method == "likelihood":
        k = len(posterior.labels)
        if test.group.max() >= k:
            raise DomainError(f"test group code {test.group.max()} unknown to the posterior")
        per_group = np.array([
            outcome_probability_given_stop(
                float(posterior.bias_mean[g]), posterior.criminality_mean, alpha, gamma
            )
            for g in range(k)
        ])
        p = per_group[test.group]
        # summed in row order, one addition at a time
        total = float(np.cumsum(np.where(test.outcome, p, 1.0 - p))[-1])
        return total / len(test)
    raise DomainError(f"unknown scoring method {method!r}")
