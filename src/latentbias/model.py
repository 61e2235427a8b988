"""Domain types for the stop-and-search generative model.

An individual carries a latent criminality ``C ~ N(0, 1)`` and belongs to
group ``k`` with latent bias ``beta_k``. They are stopped when
``C + beta_k + N(0, alpha) > 0`` and, once stopped, the recorded outcome is
positive when ``C + N(0, gamma) > 0``. The belief over
``(beta_0..beta_{K-1}, C)`` starts from independent Gaussians (see
:func:`build_prior`) and its update rules depend on the prior regime:

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
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "DIVERGENCE_MEAN_LIMIT",
    "DIVERGENCE_VARIANCE_LIMIT",
    "PriorKind",
    "ModelConfig",
    "build_prior",
    "descending_order",
    "require_positive_finite",
]

# a chain whose recorded mean (a bias, criminality or skill) or variance
# passes these has diverged
DIVERGENCE_MEAN_LIMIT = 1e6
DIVERGENCE_VARIANCE_LIMIT = 1e12


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

