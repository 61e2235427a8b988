"""Gaussian primitives.

The standard-normal CDF and its logarithm, Owen's T function, the model's
stop/outcome orthant masses, the moments of a one-sided truncated normal,
and a vectorised one-sided truncated-normal sampler exact in the far tails.

Everything here uses only the standard library and numpy. :func:`ndtr`,
:func:`log_ndtr` and Owen's T stay within about 1e-13 relative error of
scipy's reference wherever the value is a normal float (checked on dense
grids by the tests, which keep scipy as their oracle).

:func:`ndtr`, :func:`log_ndtr`, :func:`owens_t`, :func:`owens_t_tail` and
:func:`orthant_masses` at ``k = 0`` follow one rule: a float in gives a
float out, and a 1-D array in gives an array out. From :func:`ndtr`,
:func:`log_ndtr` and :func:`owens_t_tail` each element has the float's
exact bits. Owen's T keeps a float-only twin on stdlib ``math``, for the
anchored fit's Newton steps; its array path reduces its rows on one shared
node grid, by one ``exp`` pass and one ``einsum`` (the same bits per row
whatever the array's length), and agrees with the float path within a few
units in the last place. Held-out accuracy needs no CDF: ``Phi(c/sqrt(gamma))
>= 1/2`` exactly when ``c >= 0``, so it predicts "positive" when the
criminality mean is ``>= 0``, and ``gamma`` plays no part.

Both truncated-normal helpers take one half-line, ``x > 0``, and a
positive finite scalar variance; draw the negative half-line as
``-sample_truncated_normal(-mean, variance, rng)``. All sampling takes an
explicit ``numpy.random.Generator``; given the same generator state the
outputs are bit-for-bit reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "ndtr",
    "log_ndtr",
    "owens_t",
    "owens_t_tail",
    "orthant_masses",
    "sample_truncated_normal",
    "truncated_moments",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = math.log(_SQRT_2PI)
_SQRT1_2 = math.sqrt(0.5)
_TWO_PI = 2.0 * math.pi

# the sampler's proposals are exponential above this standardized bound
_TAIL_START = 0.0
# continued-fraction moments from this truncation point on, to full precision
_FAR_TAIL_SWITCH, _FAR_TAIL_TERMS = 5.0, 40
# log Phi by its asymptotic series below this point, where erfc nears underflow;
# at -20 the 13th term is about 1e-21 of the sum
_LOG_NDTR_SERIES_SWITCH, _LOG_NDTR_SERIES_TERMS = -20.0, 12
# the Owen's T quadratures skip the part of their range where the integrand
# is below exp(-_CUTOFF) of its peak
_CUTOFF = 40.0
_CUTOFF_X = math.sqrt(2.0 * _CUTOFF)
# orthant_masses takes |k| or |h| up to this as 0 off the zero threshold: the
# masses move by less than that absolute, below the sum's own accuracy, and
# its quotients by k and h would overflow or divide by zero
_NEAR_ZERO = 1e-17


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``n``-point Gauss-Legendre rule on [0, 1].

    Newton's method on the Legendre recurrence from Tricomi's initial
    guesses; elementwise numpy only, so the rule is the same on every run.
    """
    x = np.cos(math.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p_prev, p = np.ones_like(x), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        slope = n * (x * p - p_prev) / (x * x - 1.0)  # P_n'(x)
        step = p / slope
        if np.max(np.abs(step)) < 1e-16:
            break
        x = x - step
    return 0.5 * (1.0 + x), 1.0 / ((1.0 - x * x) * slope * slope)


# 40 points hold Owen's T within 5e-13 relative wherever it is a normal float;
# the float paths walk the same rule as (node, weight) pairs
_GL_NODES, _GL_WEIGHTS = _gauss_legendre(40)
_GL_RULE = tuple(zip(_GL_NODES.tolist(), _GL_WEIGHTS.tolist()))


def ndtr(x):
    """Standard-normal CDF, ``0.5 * erfc(-x / sqrt(2))``, of a float (which
    returns a float) or of each element of a 1-D array, bit for bit.

    Exactly 0.5 at 0; the lower tail keeps about 1e-13 relative precision
    down to the underflow of Phi near -37.5.
    """
    if isinstance(x, np.ndarray):
        return 0.5 * np.fromiter(map(math.erfc, (-x * _SQRT1_2).tolist()), float, x.size)
    return 0.5 * math.erfc(-x * _SQRT1_2)


def log_ndtr(x):
    """``log Phi(x)`` of a float (which returns a float) or of each element
    of a 1-D array, bit for bit; finite on the whole real line.
    """
    if isinstance(x, np.ndarray):
        return np.fromiter(map(_log_ndtr, x.tolist()), float, x.size)
    return _log_ndtr(x)


def _log_ndtr(x: float) -> float:
    """:func:`log_ndtr` of a float: ``log1p(-Phi(-x))`` above 0,
    ``log(Phi(x))`` down to -20, and below that the asymptotic series of
    Mills' ratio, so the far lower tail never underflows.
    """
    if x > 0.0:
        return math.log1p(-0.5 * math.erfc(x * _SQRT1_2))
    if x > _LOG_NDTR_SERIES_SWITCH:
        return math.log(0.5 * math.erfc(-x * _SQRT1_2))
    # Phi(x) = phi(x)/|x| * (1 - 1/x^2 + 3/x^4 - 15/x^6 + ...)
    z, term, total = 1.0 / (x * x), 1.0, 1.0
    for n in range(1, _LOG_NDTR_SERIES_TERMS + 1):
        term *= -(2 * n - 1) * z
        total += term
    return -0.5 * x * x - math.log(-x) - _LOG_SQRT_2PI + math.log(total)


def _owens_t_integral(h: np.ndarray, a: float) -> np.ndarray:
    """Owen's T's defining integral at each ``h >= 0`` for ``0 <= a <= 1``,
    by the fixed Gauss-Legendre rule on ``[0, min(a, sqrt(80)/h)]``: past
    that, ``exp(-h^2 x^2/2)`` is below ``exp(-40)``. ``exp(-h^2/2)`` is
    factored out, so the summands stay normal floats wherever T is one.

    Rows on the whole range share the nodes ``x_j = a t_j``: one ``(N, 40)``
    grid of ``-h^2 x_j^2/2``, exponentiated in place and reduced by one
    matrix-vector product with ``w_j/(1 + x_j^2)``. Rows past the cutoff,
    each on a range of its own, take a grid of their own.
    """
    half_h2 = -0.5 * np.square(h)
    far = h * a > _CUTOFF_X
    x2 = np.square(a * _GL_NODES)
    terms = np.multiply.outer(half_h2, x2)
    np.exp(terms, out=terms)
    top, total = a, np.einsum("ij,j->i", terms, _GL_WEIGHTS / (1.0 + x2))
    if far.any():
        # h a > sqrt(80) needs h > sqrt(80) > 1, so the division is safe
        top = np.where(far, _CUTOFF_X / np.maximum(h, 1.0), a)
        x2 = np.square(np.multiply.outer(top[far], _GL_NODES))
        total[far] = np.einsum("ij,j->i", np.exp(half_h2[far, None] * x2) / (1.0 + x2), _GL_WEIGHTS)
    return np.exp(half_h2) * top * total / _TWO_PI


def _owens_t_integral_float(h: float, a: float) -> float:
    """:func:`_owens_t_integral` of a float ``h``, on the same rule."""
    top = _CUTOFF_X / max(h, 1.0) if h * a > _CUTOFF_X else a
    half_h2 = -0.5 * h * h
    total = 0.0
    for node, weight in _GL_RULE:
        x = top * node
        x2 = x * x
        total += math.exp(half_h2 * x2) / (1.0 + x2) * weight
    return math.exp(half_h2) * top * total / _TWO_PI


def owens_t(h, a: float):
    """Owen's T function ``T(h, a) = (1/2pi) int_0^a exp(-h^2 (1+x^2)/2) / (1+x^2) dx``
    for a float ``a`` (Owen 1956), at a float ``h`` (which returns a float)
    or at each element of a 1-D array ``h``.

    For ``|a| <= 1`` a 40-point Gauss-Legendre rule on the integral; for
    ``|a| > 1`` the reflection ``T(h, a) = (Phi(h) Phi(-ah) + Phi(-h) Phi(ah))/2
    - T(ah, 1/a)`` (``h >= 0``, ``a > 0``). T is even in ``h`` and odd in ``a``.
    """
    integral = _owens_t_integral if isinstance(h, np.ndarray) else _owens_t_integral_float
    h = abs(h)
    sign, a = math.copysign(1.0, a), abs(a)
    if a <= 1.0:
        return sign * integral(h, a)
    ah = a * h
    cross = (ndtr(h) * ndtr(-ah) + ndtr(-h) * ndtr(ah)) * 0.5
    return sign * (cross - integral(ah, 1.0 / a))


def owens_t_tail(h, a: float):
    """``(1/2pi) int_a^inf exp(-h^2 (1+x^2)/2) / (1+x^2) dx``, the rest of
    Owen's T at a float ``h`` (which returns a float) or at each element of
    a 1-D array ``h``, for a float ``a > 0``: it equals ``Phi(-|h|)/2 - T(h, a)``
    without the subtraction, so it keeps its relative precision where that
    difference cancels.

    With ``x = a/v`` it is an integral over ``v`` in (0, 1] whose integrand
    falls like ``exp(-q (1/v^2 - 1)/2)``, ``q = (a h)^2``; the 40-point rule
    covers only the part of [0, 1] above ``exp(-40)`` of the peak. Within
    about 1e-13 relative for ``q >= 1/2``; below that the integrand steps up
    within ``v ~ sqrt(q)`` of 0 and the rule loses precision (5e-12 at
    ``q = 0.1``), where ``Phi(-|h|)/2 - T(h, a)`` does not cancel.
    """
    hs = np.atleast_1d(h)
    q = np.square(a * hs)
    lo = np.sqrt(q / (q + 2.0 * _CUTOFF))
    v = lo[:, None] + np.multiply.outer(1.0 - lo, _GL_NODES)
    v2 = np.square(v)
    terms = np.exp(-0.5 * q[:, None] * (1.0 / v2 - 1.0)) / (a * a + v2)
    peak = np.exp(-0.5 * np.square(hs) * (1.0 + a * a))
    tail = peak * (1.0 - lo) * (terms * _GL_WEIGHTS).sum(axis=-1) * (a / _TWO_PI)
    return tail if isinstance(h, np.ndarray) else float(tail[0])


def orthant_masses(h, k: float, r: float):
    """``(P(S > 0, T > 0), P(S > 0, T <= 0))`` for a stop latent ``S ~ N(m_s,
    1 + alpha)`` and an outcome latent ``T ~ N(m_t, 1 + gamma)`` with one
    shared N(0, 1) criminality, at ``h = m_s/sqrt(1 + alpha)``, ``k =
    m_t/sqrt(1 + gamma)`` and ``r = 1/sqrt(alpha + gamma + alpha gamma)``
    (``rho/sqrt(1 - rho^2)`` for their correlation ``rho``, without its
    cancellation). The anchored fit and held-out scoring both take them here.

    At ``k = 0``, ``h`` is a float or a 1-D array (floats or arrays out):
    ``P+- = Phi(h)/2 +- T(h, r)``, with ``P-`` by :func:`owens_t_tail` where
    ``h r < -1``, so both keep their relative precision until they underflow.

    At ``k != 0``, ``h`` is a float. On the side of ``T`` whose threshold is
    ``q = -|k|``, where the sum stays exact farther into the stop tail, the
    mass is Owen's (1956) bivariate-normal CDF with correlation ``p =
    -sign(k) rho`` and ``s = 1/sqrt(1 + r^2)``, summed exactly (``math.fsum``):

        Phi(h)/2 + Phi(q)/2 - T(h, (q - p h)/(h s)) - T(q, (h - p q)/(q s)) - [h > 0]/2

    (the ``h`` terms are 0 at ``h = 0``, and ``|h|`` or ``|k|`` up to 1e-17
    counts as 0); the other mass is ``Phi(h)`` less
    the same pieces. Far out, rounding can take either below 0, so both are
    floored at 0. The pieces cancel, so a single mass is accurate only to
    about 1e-16 absolute, and in the stop tail it can be off by up to 100 %
    relative. Only the ratio ``P+/(P+ + P-)`` keeps a stated relative
    accuracy: for ``h`` from about -6 to -10 it is off by up to about 1e-4
    (against mpmath), and above ``h = -4`` it agrees to about 1e-12.
    """
    if abs(k) > _NEAR_ZERO:
        s = 1.0 / math.sqrt(1.0 + r * r)
        q, p = -abs(k), math.copysign(r * s, -k)
        parts = [0.5 * ndtr(q), -owens_t(q, (h - p * q) / (q * s))]
        if abs(h) > _NEAR_ZERO:
            parts += [0.5 * ndtr(h), -owens_t(h, (q - p * h) / (h * s)), -0.5 * (h > 0.0)]
        near, far = (max(0.0, math.fsum(v)) for v in (parts, [ndtr(h), *(-x for x in parts)]))
        return (near, far) if k < 0.0 else (far, near)
    t, half = owens_t(h, r), 0.5 * ndtr(h)
    if isinstance(h, np.ndarray):
        neg = half - t
        rare = h * r < -1.0
        if rare.any():
            neg[rare] = owens_t_tail(h[rare], r)
    else:
        neg = owens_t_tail(h, r) if h * r < -1.0 else half - t
    return half + t, neg


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
        lam = math.exp(-0.5 * a * a) / _SQRT_2PI / ndtr(-a)
        return mean + sd * lam, variance * (1.0 + a * lam - lam * lam)
    # lam = a + gap, gap = 1/(a + rest), rest = 2/(a + 3/(a + ...)): the moments are
    # mean + sd*lam = sd*gap and variance*(1 + a*lam - lam**2) = variance*gap*(rest - gap)
    rest = 0.0
    for j in range(_FAR_TAIL_TERMS, 1, -1):
        rest = j / (a + rest)
    gap = 1.0 / (a + rest)
    return sd * gap, variance * gap * (rest - gap)


def sample_truncated_normal(mean, variance, rng: np.random.Generator):
    """Sample N(mean, variance) restricted to the half-line ``x > 0``.

    ``mean`` is a 1-D ndarray, or a scalar, which returns a float;
    ``variance`` is a positive, finite scalar. Draw the negative half-line
    as ``-sample_truncated_normal(-mean, variance, rng)``.

    Exact rejection sampling with no inverse CDF (Robert 1995), in two
    regimes of the standardized bound ``a = -mean/sd``. At ``a <= 0``,
    ``mean + sd z`` for ``z ~ N(0, 1)`` is kept when above 0, as half or
    more are. At ``a > 0``, the excess ``e = z - a`` is drawn from the
    exponential of rate ``lam = (a + sqrt(a^2 + 4))/2`` and kept with
    probability ``exp(-(e - g)^2/2)``, ``g = lam - a``; the draw ``sd e``
    never cancels. Both are exact at any finite bound. A rejected draw is
    drawn again: the variates a call takes vary, fixed by the generator.

    Raises:
        DomainError: non-finite mean, variance not positive and finite, or
            a bound so far out that its draws underflow.
    """
    m = np.asarray(mean, dtype=float)
    if not np.isfinite(m).all():
        raise DomainError("mean must be finite")
    sd = math.sqrt(_require_variance(variance))
    a = np.atleast_1d(m) / -sd
    x = np.empty_like(a)
    # each round writes every pending draw and keeps pending the rejected ones
    todo = np.flatnonzero(a <= _TAIL_START)
    while todo.size:
        x[todo] = draw = sd * (rng.standard_normal(todo.size) - a[todo])
        todo = todo[np.flatnonzero(draw <= 0.0)]
    todo = np.flatnonzero(a > _TAIL_START)
    # any g >= 0 keeps the law exact; g = 2/(a + sqrt(a^2 + 4)), about 1/a far
    # out, maximises acceptance (a is capped at 1e150 so its square is finite)
    g = 2.0 / (a[todo] + np.sqrt(np.square(np.minimum(a[todo], 1e150)) + 4.0))
    lam = a[todo] + g
    if np.any(sd / lam < np.finfo(float).tiny):  # the draws' scale
        raise DomainError("truncated-normal draws underflow: variance too small for its mean")
    while todo.size:
        e = rng.standard_exponential(todo.size) / lam
        x[todo] = draw = sd * e
        again = np.flatnonzero((rng.standard_exponential(todo.size) <= 0.5 * np.square(e - g))
                               | (draw <= 0.0))
        todo, lam, g = todo[again], lam[again], g[again]
    return float(x[0]) if m.ndim == 0 else x
