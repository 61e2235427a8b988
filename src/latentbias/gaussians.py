"""Gaussian primitives.

The standard-normal CDF and its logarithm, Owen's T function, the log
orthant masses of a standard bivariate normal, the moments of a one-sided
truncated normal, and a vectorised one-sided truncated-normal sampler exact
in the far tails. Nothing here knows the stop-and-search model:
:mod:`latentbias.model` maps its parameters onto these functions.

Everything here uses only the standard library and numpy. :func:`ndtr`,
:func:`log_ndtr` and Owen's T stay within about 1e-13 relative error of
scipy's reference wherever the value is a normal float (checked on dense
grids by the tests, which keep scipy as their oracle).

:func:`ndtr`, :func:`log_ndtr`, :func:`owens_t`, :func:`owens_t_tail`,
:func:`zero_threshold_masses` and :func:`log_orthant_masses` follow one
rule: a float in gives a float out, and a 1-D array in gives an array out.
From :func:`ndtr`, :func:`log_ndtr`, :func:`owens_t_tail` and
:func:`log_orthant_masses` each element has the float's exact bits. Owen's
T keeps a float-only twin on stdlib ``math``, for the anchored fit's Newton
steps; its array path reduces its rows on one shared node grid, by one
``exp`` pass and one ``einsum`` (the same bits per row whatever the array's
length), and agrees with the float path within a few units in the last
place.

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
    "zero_threshold_masses",
    "log_orthant_masses",
    "sample_truncated_normal",
    "truncated_moments",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = math.log(_SQRT_2PI)
# log sqrt(2 pi) - _LOG_SQRT_2PI: the double above is 0.65 ulp low
_LOG_SQRT_2PI_LO = 7.223936088184323e-17
_SQRT1_2 = math.sqrt(0.5)
_TWO_PI = 2.0 * math.pi
_TINY = np.finfo(float).tiny

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
# off the zero threshold the orthant masses' panels end where their integrand
# is exp(-_FALL) below its peak, at most _FALL_X from it (the log integrand's
# curvature is <= -1); the Phi factor's step gets panels of its own, out to
# _STEP of its widths on each side, where that factor is below Phi(-10)
_FALL = 45.0
_FALL_X = math.sqrt(2.0 * _FALL)
_STEP = 10.0
# Newton step cap, for the integrand's peak and each of its ends, and the
# peak's relative tolerance
_PEAK_STEPS, _PEAK_TOL = 100, 1e-12


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
    return -0.5 * x * x - math.log(-x) - _LOG_SQRT_2PI + math.log(_mills_series(x))


def _mills_series(x):
    """``-x Phi(x)/phi(x) = 1 - 1/x^2 + 3/x^4 - 15/x^6 + ...``, the asymptotic
    series of Mills' ratio, at a float or at each element of an array below
    ``-20``."""
    z, term, total = 1.0 / (x * x), 1.0, 1.0
    for n in range(1, _LOG_NDTR_SERIES_TERMS + 1):
        term = term * (-(2 * n - 1) * z)
        total = total + term
    return total


def _normal_hazard(z: np.ndarray) -> np.ndarray:
    """``phi(z)/Phi(z)`` at each element of ``z``; by Mills' series below
    ``-20``, where the quotient of the logs would cancel."""
    out = np.empty_like(z)
    far = z < _LOG_NDTR_SERIES_SWITCH
    near = z[~far]
    out[~far] = np.exp(-0.5 * near * near - _LOG_SQRT_2PI - log_ndtr(near))
    out[far] = -z[far] / _mills_series(z[far])
    return out


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


def zero_threshold_masses(h, r: float):
    """``(P+, P-) = (Phi(h)/2 + T(h, r), Phi(h)/2 - T(h, r))``, the masses of
    :func:`log_orthant_masses` at ``k = 0``, at a float ``h`` (floats out, on
    Owen's T's float twin) or at each element of a 1-D array ``h``, for
    ``r > 0``. ``P-`` is :func:`owens_t_tail` where ``h r < -1``, so both keep
    their relative precision until they underflow, past ``h`` of about -37.5.
    """
    t, half = owens_t(h, r), 0.5 * ndtr(h)
    if isinstance(h, np.ndarray):
        neg = half - t
        rare = h * r < -1.0
        if rare.any():
            neg[rare] = owens_t_tail(h[rare], r)
    else:
        neg = owens_t_tail(h, r) if h * r < -1.0 else half - t
    return half + t, neg


def log_orthant_masses(h, k: float, r: float):
    """``(log P+, log P-)`` for the masses

        P+- = int_{-h}^inf phi(x) Phi(+-(k sqrt(1 + r^2) + r x)) dx

    of a standard bivariate normal ``(X, Y)`` with correlation ``r/sqrt(1 +
    r^2)`` on ``X > -h`` and ``+-(Y + k) > 0``, for ``r > 0``, at a float
    ``h`` (floats out) or at each element of a 1-D array ``h``; a float is
    its one-row array, bit for bit.

    At ``k = 0`` they are the logs of the array path of
    :func:`zero_threshold_masses`, and the integral below where that is not
    a normal float (past ``h`` of about -37.5, or sooner for ``P-`` where
    ``h r`` is far below -1). Elsewhere the integral is taken in log space
    and never underflows: Newton's
    method finds the peak of the concave log integrand on ``[-h, inf)`` and
    the points on each side where it falls ``exp(-45)`` below it, and each
    side gets one 40-point Gauss-Legendre panel, split at the step of the
    ``Phi`` factor, at ``x = -k sqrt(1 + r^2)/r``, and ten of its widths
    ``1/r`` to each side of it. Both stay within about 1e-12 relative of an
    adaptive-quadrature oracle wherever it is a normal float.
    """
    hs = np.atleast_1d(np.asarray(h, dtype=float))
    if k == 0.0:
        sums = zero_threshold_masses(hs, r)
        with np.errstate(divide="ignore"):
            masses = [np.log(mass) for mass in sums]
        if np.minimum(*sums).min(initial=_TINY) < _TINY:  # underflowed, in whole or in part
            for mass, raw, s in zip(masses, sums, (r, -r)):
                rows = np.flatnonzero(raw < _TINY)
                if rows.size:
                    mass[rows] = _log_mass_integral(hs[rows], np.zeros(rows.size),
                                                    np.full(rows.size, s))
    else:
        b, n = k * math.hypot(1.0, r), hs.size
        masses = np.split(_log_mass_integral(np.concatenate((hs, hs)), np.repeat([b, -b], n),
                                             np.repeat([r, -r], n)), 2)
    return tuple(masses) if isinstance(h, np.ndarray) else tuple(float(m[0]) for m in masses)


def _log_mass_integral(h: np.ndarray, b: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``log int_{-h}^inf phi(x) Phi(b + s x) dx`` at each row, ``s != 0``.

    The log integrand ``g(x) = -x^2/2 + log Phi(b + s x)`` (less ``log
    sqrt(2 pi)``) is concave with ``g'' <= -1``. Its peak ``p`` is ``-h``
    where ``g'(-h) <= 0``, and otherwise Newton's root of ``g'`` inside the
    sign bracket ``(-h, max(-b/s, 0) + 1)`` for ``s > 0`` or ``(-h, 0)`` for
    ``s < 0``, bisecting on an overshoot. The rest works in offsets ``d``
    from ``p`` and in ``g(p + d) - g(p)``, which stay exact where the
    integrand is narrower than a unit in the last place of ``p``: from ``d
    = +-sqrt(90)``, past where ``g`` falls 45 below ``g(p)``, Newton's steps
    move inward monotonically (``g`` is concave) until within 1 of that
    fall, and the panels' empty rows take no evaluation.
    """
    n = h.size
    lo, edge = -h, -b / s  # edge: the middle of the Phi factor's step
    peak = lo.copy()
    z = b + s * lo
    rows = np.flatnonzero(-lo + s * _normal_hazard(z) > 0.0)  # the peak is inside
    below, above = lo[rows], np.where(s[rows] > 0.0, np.maximum(edge[rows], 0.0) + 1.0, 0.0)
    x = np.clip(np.where(s[rows] > 0.0, np.maximum(edge[rows], 0.0), np.minimum(edge[rows], 0.0)),
                below, above)
    for _ in range(_PEAK_STEPS):
        if not rows.size:
            break
        z = b[rows] + s[rows] * x
        hazard = _normal_hazard(z)
        d1 = -x + s[rows] * hazard
        # g'' = -1 - s^2 hazard (z + hazard), the product in [0, 1]
        d2 = -1.0 - np.square(s[rows]) * np.clip(hazard * (z + hazard), 0.0, 1.0)
        below, above = np.where(d1 > 0.0, x, below), np.where(d1 > 0.0, above, x)
        move = -d1 / d2
        done = (np.abs(move) <= _PEAK_TOL * (1.0 + np.abs(x))) | (above - below <= _PEAK_TOL)
        peak[rows[done]] = x[done]
        x = x + move
        bisect = ~((below < x) & (x < above))
        x[bisect] = 0.5 * (below[bisect] + above[bisect])
        rows, x, below, above = rows[~done], x[~done], below[~done], above[~done]
    peak[rows] = x  # within the bracket, if any row is left: it only splits panels
    z_peak = b + s * peak
    log_peak = log_ndtr(z_peak)

    def rise(d, rows):
        """``g(p + d) - g(p)`` at offsets ``d`` of ``rows``."""
        dz = s[rows] * d
        return -d * (peak[rows] + 0.5 * d) + _log_ndtr_rise(z_peak[rows] + dz, z_peak[rows],
                                                              log_peak[rows], dz)

    def fall(start, rows):
        """Newton's steps on ``g(p + d) - g(p) = -45`` from ``start``, beyond the root."""
        out, d = start.copy(), start[rows]
        for _ in range(_PEAK_STEPS):
            g = rise(d, rows)
            far = g < -_FALL - 1.0
            rows, d, g = rows[far], d[far], g[far]
            if not rows.size:
                break
            slope = -(peak[rows] + d) + s[rows] * _normal_hazard(z_peak[rows] + s[rows] * d)
            out[rows] = d = d - (g + _FALL) / slope
        return out

    right = fall(np.full(n, _FALL_X), np.arange(n))
    left = fall(np.maximum(lo - peak, -_FALL_X), np.flatnonzero(peak > lo))
    width, step = _STEP / np.abs(s), edge - peak
    breaks = np.sort(np.column_stack([left, np.zeros(n), right] + [
        np.clip(step + d, left, right) for d in (-width, 0.0, width)]), axis=1)
    spans = np.diff(breaks, axis=1)
    live = spans > 0.0
    row = np.repeat(np.nonzero(live)[0], _GL_NODES.size)
    nodes = (breaks[:, :-1][live][:, None] + spans[live][:, None] * _GL_NODES).ravel()
    terms = np.zeros(spans.shape + _GL_NODES.shape)
    terms[live] = (np.exp(rise(nodes, row)).reshape(-1, _GL_NODES.size)
                   * (spans[live][:, None] * _GL_WEIGHTS))
    # g(p) + log(sum) with the rounding error of each addition carried to the
    # end, so a mass near 1/2 keeps its last bit or two
    head, err1 = _two_sum(-0.5 * peak * peak, log_peak)
    head, err2 = _two_sum(head, -_LOG_SQRT_2PI)
    head, err3 = _two_sum(head, np.log(terms.reshape(n, spans.shape[1] * _GL_NODES.size)
                                       .sum(axis=-1)))
    return head + (err1 + err2 + err3 - _LOG_SQRT_2PI_LO)


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(s, e)`` with ``s = a + b`` rounded and ``s + e = a + b`` exactly
    (Knuth's two-sum)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _log_ndtr_rise(z: np.ndarray, z0: np.ndarray, log0: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """``log Phi(z) - log Phi(z0)`` given ``log0 = log Phi(z0)`` and ``dz = z - z0``;
    where both are below -20, by Mills' series, so two large logs do not cancel."""
    out = np.empty_like(z)
    far = (z < _LOG_NDTR_SERIES_SWITCH) & (z0 < _LOG_NDTR_SERIES_SWITCH)
    out[~far] = log_ndtr(z[~far]) - log0[~far]
    z, z0, dz = z[far], z0[far], dz[far]
    out[far] = (-0.5 * dz * (z + z0) - np.log1p(dz / z0)
                + np.log(_mills_series(z) / _mills_series(z0)))
    return out


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
