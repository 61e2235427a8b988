"""Scalar Gaussian primitives.

Standard-normal CDF/PDF, the moments of a one-sided truncated normal, and
a vectorised one-sided truncated-normal sampler that stays exact in the
far tails.

All sampling takes an explicit ``numpy.random.Generator``; given the same
generator state the outputs are bit-for-bit reproducible. Callers in a
loop pass a 1-D mean with scalar variance and sign, so validation is one
pass over the mean and nothing is copied out to a broadcast shape.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DomainError, NumericalError

__all__ = [
    "std_normal_cdf",
    "std_normal_pdf",
    "sample_truncated_normal",
    "truncated_moments",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Below this kept tail mass the inverse-CDF path loses resolution and the
# sampler switches to exponential-proposal rejection.
_TAIL_MASS_SWITCH = 1e-6
_MAX_REJECTION_ROUNDS = 1000
_BELOW_ONE = np.nextafter(1.0, 0.0)


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


def std_normal_pdf(x):
    """Standard-normal density."""
    arr = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * arr * arr) / _SQRT_2PI
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def _validate_sign(sign) -> np.ndarray:
    s = np.asarray(sign, dtype=float)
    if not (np.abs(s) == 1.0).all():
        raise DomainError(f"sign must be +1 or -1, got {sign!r}")
    return s


def truncated_moments(mean, variance, sign):
    """Exact mean and variance of a one-sided truncated normal.

    The distribution is N(mean, variance) restricted to ``sign * x > 0``.
    Uses the Mills-ratio closed forms with tail-stable CDF evaluation.
    """
    if variance <= 0:
        raise DomainError(f"variance must be positive, got {variance}")
    s = float(_validate_sign(sign))
    sd = math.sqrt(variance)
    # standardized truncation point for the positive half-line of s*x
    a = -s * mean / sd
    lam = std_normal_pdf(a) / std_normal_cdf(-a)
    m = s * mean + sd * lam
    v = variance * (1.0 + a * lam - lam * lam)
    return s * m, v


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


def sample_truncated_normal(mean, variance, sign, rng: np.random.Generator):
    """Sample N(mean, variance) restricted to the half-line ``sign * x > 0``.

    ``mean``/``sign`` may be scalars or matching ndarrays; ``variance`` is a
    positive, finite scalar (or array). Moderate truncations use the
    inverse CDF; when the kept mass drops below 1e-6 the sampler switches
    to exponential-proposal rejection, so far tails (standardized
    truncation points of 8 and beyond) neither loop unboundedly nor lose
    support.

    Loop callers pass a 1-D ``mean`` with scalar ``variance`` and ``sign``:
    validation is then one finiteness pass over ``mean`` plus scalar
    checks. The draws, shape and dtype equal those of the same call with
    ``np.full(mean.size, .)`` arrays for variance and sign, from an equal
    generator state.

    Raises:
        DomainError: non-positive or non-finite variance, non-finite mean,
            or bad sign.
    """
    m = np.asarray(mean, dtype=float)
    v = np.asarray(variance, dtype=float)
    if not np.isfinite(m).all():
        raise DomainError("mean must be finite")
    if not ((v > 0) & np.isfinite(v)).all():
        raise DomainError(f"variance must be positive and finite, got {variance!r}")
    s = _validate_sign(sign)
    sd = np.sqrt(v)
    # mirror onto the half-line x > 0, sample there, mirror back: with s =
    # +-1 the products are exact and s_m / -sd rounds as -s_m / sd does
    s_m = s * m
    a = s_m / -sd
    x = _sample_lower_truncated_std(np.atleast_1d(a), rng)
    x *= sd
    x += s_m
    x *= s
    return float(x[0]) if np.ndim(a) == 0 else x
