"""Domain types for the stop-and-search generative model.

An individual carries a latent criminality ``C ~ N(c, 1)`` and belongs to
group ``k`` with latent bias ``beta_k``. They are stopped when
``S = C + beta_k + N(0, alpha) > 0`` and, once stopped, the recorded
outcome is positive when ``T = C + N(0, gamma) > 0``. :class:`CellModel`
holds those equations: ``(S, T)`` is bivariate normal with covariance
``[[1 + alpha, 1], [1, 1 + gamma]]``, so a group's stop/outcome cells have
the masses of :func:`~latentbias.gaussians.log_orthant_masses` at

    h = (c + beta)/sqrt(1 + alpha),  k = c/sqrt(1 + gamma),
    r = 1/sqrt(alpha + gamma + alpha gamma),

``r = rho/sqrt(1 - rho^2)`` for the correlation ``rho`` of S and T, taken
without that subtraction so it stays exact at tiny noise. The anchored fit
reads them and their derivatives in ``beta`` at ``c = 0``, held-out scoring
at the summary's criminality mean, and the synthetic generator draws from
the same equations.

The belief over ``(beta_0..beta_{K-1}, C)`` starts from independent
Gaussians (see :func:`build_prior`) and its update rules depend on the
prior regime:

* ``INDEPENDENT`` - bias and criminality never correlate; no cross terms
  are ever written.
* ``DEPENDENT``  - cross-precision between each bias and criminality
  accumulates with the data. Under the drift correction its bias draws
  share INDEPENDENT's exact target; only the reported variance differs.
* ``FREE``       - same joint structure as DEPENDENT but run without the
  drift correction; see :mod:`latentbias.inference` for why this regime is
  numerically unstable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .gaussians import log_orthant_masses, ndtr, zero_threshold_masses

__all__ = [
    "DIVERGENCE_MEAN_LIMIT",
    "DIVERGENCE_VARIANCE_LIMIT",
    "PriorKind",
    "CellModel",
    "ModelConfig",
    "build_prior",
    "descending_order",
    "require_positive_finite",
]

# a chain whose recorded mean (a bias, criminality or skill) or variance
# passes these has diverged
DIVERGENCE_MEAN_LIMIT = 1e6
DIVERGENCE_VARIANCE_LIMIT = 1e12

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class PriorKind(enum.Enum):
    INDEPENDENT = "independent"
    DEPENDENT = "dependent"
    FREE = "free"

    @classmethod
    def from_string(cls, name: str) -> "PriorKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            options = ", ".join(k.value for k in cls)
            raise DomainError(f"unknown prior kind {name!r} (choose from {options})") from None


def require_positive_finite(**values: float) -> None:
    """Raise :class:`DomainError` unless every named value is positive and finite."""
    # NaN fails every comparison, so test the positive case
    bad = [name for name, v in values.items() if not (v > 0 and math.isfinite(v))]
    if bad:
        got = ", ".join(f"{name}={values[name]}" for name in values)
        raise DomainError(f"{' and '.join(bad)} must be positive and finite, got {got}")


@dataclass(frozen=True)
class CellModel:
    """The stop and outcome equations at noise variances ``alpha`` and
    ``gamma``, checked positive and finite once, here. They are also the
    anchored fit's cells, a group's positive and negative stops, of
    :class:`~latentbias.kernel.CountTarget`.

    ``sa = sqrt(1 + alpha)`` and ``r`` (see the module docstring) are the
    scale and the correlation parameter of the cell masses, read by no
    other module; the mass methods take a float ``beta`` (floats out) or a 1-D array of them, and a
    float criminality mean ``c``.
    """

    alpha: float
    gamma: float
    sa: float = field(init=False, repr=False)
    r: float = field(init=False, repr=False)

    def __post_init__(self):
        require_positive_finite(alpha=self.alpha, gamma=self.gamma)
        object.__setattr__(self, "sa", math.sqrt(1.0 + self.alpha))
        object.__setattr__(self, "r", math.sqrt(1.0 / (self.alpha + self.gamma
                                                       + self.alpha * self.gamma)))

    def thresholds(self, beta, c: float = 0.0):
        """The standardised stop and outcome thresholds ``(h, k)`` of a group
        with bias ``beta`` and criminality mean ``c``."""
        return (c + beta) / self.sa, c / math.sqrt(1.0 + self.gamma)

    def log_masses(self, beta, c: float = 0.0):
        """``(log P(S > 0, T > 0), log P(S > 0, T <= 0))`` for a group with
        bias ``beta`` and criminality mean ``c``: logs of the mass of its
        positive and negative stops, whose sum is ``Phi(h)``."""
        return log_orthant_masses(*self.thresholds(beta, c), self.r)

    def score_hessian(self, beta: float, counts, score: float, hess: float):
        """``score`` and ``hess`` plus the derivatives in a float ``beta`` of
        ``n_pos log P+ + n_neg log P-`` at criminality mean 0, ``counts =
        (n_pos, n_neg)``, from ``dP+-/dh = phi(h) Phi(-+r h)`` and ``d2P+-/dh2
        = -h dP+-/dh -+ r phi(h) phi(r h)``; float arithmetic only, for the
        mode solve's Newton steps. NaN where a needed mass underflows."""
        sa, r = self.sa, self.r
        h = beta / sa
        pos, neg = zero_threshold_masses(h, r)
        phi, phi_r = math.exp(-0.5 * h * h) / _SQRT_2PI, math.exp(-0.5 * r * r * h * h) / _SQRT_2PI
        for n, sign, p in zip(counts, (-1.0, 1.0), (pos, neg)):
            if n and not p > 0:  # the mass underflowed
                return math.nan, math.nan
            if n:
                ratio = phi * ndtr(sign * r * h) / p
                score += n * ratio / sa
                hess += n * (sign * r * phi * phi_r / p - h * ratio - ratio * ratio) / (sa * sa)
        return float(score), float(hess)

    def outcome_probability(self, beta, c: float):
        """P(positive outcome | stopped), ``P+/(P+ + P-)``, as ``1/(1 + exp(log
        P- - log P+))``. Stopping selects individuals upward, so it stays
        above one half whenever ``c >= 0``, and it never rises with ``beta``:
        a group stopped on weaker grounds has a lower hit rate."""
        pos, neg = self.log_masses(beta, c)
        with np.errstate(over="ignore"):
            p = 1.0 / (1.0 + np.exp(neg - pos))
        return p if isinstance(beta, np.ndarray) else float(p)

    def draw_counts(self, beta: float, population: int, rng: np.random.Generator):
        """``(stopped, positive)`` among ``population`` individuals of a group
        with bias ``beta``, criminality N(0, 1): one ``standard_normal`` call
        each for the criminalities, the stop noise and the stopped
        individuals' outcome noise, in that order."""
        crim = rng.standard_normal(population)
        stopped = crim + beta + math.sqrt(self.alpha) * rng.standard_normal(population) > 0
        crim = crim[stopped]
        positive = crim + math.sqrt(self.gamma) * rng.standard_normal(crim.size) > 0
        return int(stopped.sum()), int(positive.sum())


@dataclass(frozen=True)
class ModelConfig:
    """Gibbs run configuration.

    ``seed`` must be given explicitly: all randomness in a run derives from
    it. ``anchoring=None`` resolves to the prior regime's default - on for
    INDEPENDENT and DEPENDENT (the drift correction keeps the recorded
    criminality marginal at N(0,1)), off for FREE (which exists to exhibit
    the uncorrected behaviour).
    """

    seed: int
    alpha: float = 1.0
    gamma: float = 1.0
    prior: PriorKind = PriorKind.DEPENDENT
    sweeps: int = 500
    burn_in: int = 100
    anchoring: Optional[bool] = None

    def __post_init__(self):
        require_positive_finite(alpha=self.alpha, gamma=self.gamma)
        if self.sweeps < 1:
            raise DomainError(f"sweeps must be >= 1, got {self.sweeps}")
        if self.burn_in < 0 or self.sweeps <= self.burn_in:
            raise DomainError(
                f"need sweeps > burn_in >= 0, got sweeps={self.sweeps} burn_in={self.burn_in}"
            )

    @property
    def anchoring_enabled(self) -> bool:
        if self.anchoring is not None:
            return self.anchoring
        return self.prior is not PriorKind.FREE


def build_prior(
    group_count: int,
    group_means: Sequence[float] | None = None,
    group_variances: Sequence[float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Independent bias priors ``N(mu_k, sigma_k)``, as ``(means, variances)``.

    Defaults are zero means and unit variances. The criminality prior is
    always N(0,1) and independent of the biases, so it is not part of the
    pair; every prior kind starts from this belief, and the regimes differ
    only in how inference updates it.
    """
    if group_count < 1:
        raise DomainError("group_count must be >= 1")
    means = np.zeros(group_count) if group_means is None else np.asarray(group_means, dtype=float)
    variances = (
        np.ones(group_count) if group_variances is None else np.asarray(group_variances, dtype=float)
    )
    if means.shape != (group_count,) or variances.shape != (group_count,):
        raise DomainError(
            f"group_means and group_variances must have length {group_count}"
        )
    if not np.all(np.isfinite(means)):
        raise DomainError(f"group means must be finite, got {list(means)}")
    if not np.all((variances > 0) & np.isfinite(variances)):
        raise DomainError(f"group variances must be positive and finite, got {list(variances)}")
    return means, variances


def descending_order(values: np.ndarray) -> np.ndarray:
    """Indices of ``values`` from largest to smallest; ties keep index order."""
    return np.argsort(-np.asarray(values), kind="stable")

