"""Scalar Gaussian primitives.

The standard-normal CDF, the moments of a one-sided truncated normal, and
a vectorised one-sided truncated-normal sampler that stays exact in the
far tails.

Both truncated-normal helpers take one half-line, ``x > 0``, and a
positive finite scalar variance; draw the negative half-line as
``-sample_truncated_normal(-mean, variance, rng)``. All sampling takes an
explicit ``numpy.random.Generator``; given the same generator state the
outputs are bit-for-bit reproducible.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DomainError, NumericalError

__all__ = [
    "std_normal_cdf",
    "sample_truncated_normal",
    "truncated_moments",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Below this kept tail mass the inverse-CDF path loses resolution and the
# sampler switches to exponential-proposal rejection.
_TAIL_MASS_SWITCH = 1e-6
_MAX_REJECTION_ROUNDS = 1000
_BELOW_ONE = np.nextafter(1.0, 0.0)
# continued-fraction moments from this truncation point on, to full precision
_FAR_TAIL_SWITCH, _FAR_TAIL_TERMS = 5.0, 40


def std_normal_cdf(x):
    """Standard-normal CDF via the complementary error function.

    Accepts a float or ndarray; absolute error is below 1e-15 over the
    whole real line, and the lower tail keeps full relative precision.

    Raises:
        DomainError: if any input is NaN or infinite.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("std_normal_cdf requires finite input")
    out = ndtr(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def _require_variance(variance) -> float:
    """``variance`` as a float, if it is positive and finite."""
    v = float(variance)
    if not 0.0 < v < math.inf:
        raise DomainError(f"variance must be positive and finite, got {variance!r}")
    return v


def truncated_moments(mean, variance):
    """Exact mean and variance of N(mean, variance) restricted to ``x > 0``.

    Uses the Mills-ratio closed forms; past a standardized truncation point
    of 5, where they cancel and then underflow, Laplace's continued fraction
    for the Mills ratio keeps both moments at full relative precision.

    Raises:
        DomainError: non-finite mean, or variance not positive and finite.
    """
    if not math.isfinite(mean):
        raise DomainError(f"mean must be finite, got {mean!r}")
    variance = _require_variance(variance)
    sd = math.sqrt(variance)
    a = -mean / sd  # standardized truncation point
    if a < _FAR_TAIL_SWITCH:
        lam = math.exp(-0.5 * a * a) / _SQRT_2PI / std_normal_cdf(-a)
        return mean + sd * lam, variance * (1.0 + a * lam - lam * lam)
    # lam = a + gap, gap = 1/(a + rest), rest = 2/(a + 3/(a + ...)): the moments are
    # mean + sd*lam = sd*gap and variance*(1 + a*lam - lam**2) = variance*gap*(rest - gap)
    rest = 0.0
    for j in range(_FAR_TAIL_TERMS, 1, -1):
        rest = j / (a + rest)
    gap = 1.0 / (a + rest)
    return sd * gap, variance * gap * (rest - gap)


def _invert_upper_tail(u: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Map uniforms ``u`` in [0, 1) onto the kept upper-tail masses ``q``
    and invert the CDF there, in place in ``u``."""
    # (1-u)*q stays in (0, q]; the clip keeps ndtri away from an exact 1.0
    np.subtract(1.0, u, out=u)
    u *= q
    np.minimum(u, _BELOW_ONE, out=u)
    return np.negative(ndtri(u, out=u), out=u)


def _sample_lower_truncated_std(a: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Z ~ N(0,1) conditioned on Z > a, elementwise over ``a``."""
    q = ndtr(-a)  # kept tail mass
    easy = q >= _TAIL_MASS_SWITCH
    if easy.all():  # no far tail: no gather or scatter
        return _invert_upper_tail(rng.random(a.shape), q)
    out = np.empty_like(a)
    out[easy] = _invert_upper_tail(rng.random(int(easy.sum())), q[easy])
    hard = ~easy
    out[hard] = _sample_tail_rejection(a[hard], rng)
    return out


def _sample_tail_rejection(a: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Exponential-proposal rejection sampler for far tails (Robert 1995).

    Acceptance probability approaches 1 as the truncation point grows, so
    the loop is bounded in practice; a hard round cap guards pathological
    inputs.
    """
    out = np.empty_like(a)
    pending = np.arange(a.size)
    rate = 0.5 * (a + np.sqrt(a * a + 4.0))
    rounds = 0
    while pending.size:
        rounds += 1
        if rounds > _MAX_REJECTION_ROUNDS:
            raise NumericalError(
                f"tail rejection sampler failed to accept after {rounds - 1} rounds"
            )
        lam = rate[pending]
        z = a[pending] + rng.exponential(1.0, pending.size) / lam
        accept = rng.random(pending.size) <= np.exp(-0.5 * (z - lam) ** 2)
        out[pending[accept]] = z[accept]
        pending = pending[~accept]
    return out


def sample_truncated_normal(mean, variance, rng: np.random.Generator):
    """Sample N(mean, variance) restricted to the half-line ``x > 0``.

    ``mean`` is a 1-D ndarray, or a scalar, which returns a float;
    ``variance`` is a positive, finite scalar. Moderate truncations use the
    inverse CDF; when the kept mass drops below 1e-6 the sampler switches
    to exponential-proposal rejection, so far tails (standardized
    truncation points of 8 and beyond) neither loop unboundedly nor lose
    support. Draw the negative half-line as
    ``-sample_truncated_normal(-mean, variance, rng)``.

    Raises:
        DomainError: non-finite mean, or variance not positive and finite.
    """
    m = np.asarray(mean, dtype=float)
    if not np.isfinite(m).all():
        raise DomainError("mean must be finite")
    sd = math.sqrt(_require_variance(variance))
    x = _sample_lower_truncated_std(np.atleast_1d(m / -sd), rng)
    x *= sd
    x += m
    return float(x[0]) if m.ndim == 0 else x
