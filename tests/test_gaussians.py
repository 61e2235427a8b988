import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from latentbias import (
    DomainError,
    sample_truncated_normal,
    truncated_moments,
)
from latentbias.gaussians import (log_ndtr, log_orthant_masses, ndtr, owens_t, owens_t_tail,
                                  zero_threshold_masses)

from conftest import (
    EXACT_GRID,
    cdf_oracle,
    mills_lambda_oracle,
    stop_outcome_mass_oracle,
    stop_outcome_mass_relative_oracle,
    truncated_moment_oracle,
)


# --- standard normal CDF -----------------------------------------------------

def test_cdf_at_zero():
    assert ndtr(0.0) == 0.5


def test_cdf_symmetry():
    assert ndtr(0.7) + ndtr(-0.7) == pytest.approx(1.0, abs=1e-15)


def test_cdf_against_quadrature_oracle():
    for x in (-3.0, -1.0, 0.3, 1.96, 2.5):
        assert ndtr(x) == pytest.approx(cdf_oracle(x), abs=1e-12)


def test_cdf_1p96_value():
    assert ndtr(1.96) == pytest.approx(0.9750021048517796, abs=1e-12)


def test_cdf_monotone():
    xs = np.linspace(-9, 9, 400)
    vals = ndtr(xs)
    assert np.all(np.diff(vals) >= 0)


# --- Phi, log Phi and Owen's T against scipy ------------------------------------

_TINY = np.finfo(float).tiny


def _max_rel_error(got, want):
    """Largest relative error where the reference is a normal float."""
    got, want = np.asarray(got), np.asarray(want)
    normal = np.abs(want) >= _TINY
    return float(np.max(np.abs(got[normal] / want[normal] - 1.0)))


def test_ndtr_and_log_ndtr_match_scipy():
    # across log_ndtr's switch to its asymptotic series at -20 and Phi's
    # underflow near -37.5
    xs = np.linspace(-38.0, 38.0, 15201)
    assert _max_rel_error([ndtr(x) for x in xs.tolist()], special.ndtr(xs)) <= 1e-12
    assert _max_rel_error([log_ndtr(x) for x in xs.tolist()], special.log_ndtr(xs)) <= 1e-12
    assert ndtr(0.0) == 0.5
    assert log_ndtr(-1e5) == pytest.approx(special.log_ndtr(-1e5), rel=1e-15)


def test_ndtr_array_is_the_scalar_ndtr_bit_for_bit():
    want = np.array([ndtr(x) for x in EXACT_GRID.tolist()])
    assert ndtr(EXACT_GRID).tobytes() == want.tobytes()


def test_log_ndtr_array_is_the_scalar_log_ndtr_bit_for_bit():
    # past the -20 series switch out to -1e5, where Phi itself underflows and
    # log(ndtr(x)) is -inf: the array form stays finite, as the float one does
    xs = np.concatenate([EXACT_GRID, -np.geomspace(60.0, 1e5, 301)])
    got = log_ndtr(xs)
    assert got.tobytes() == np.array([log_ndtr(x) for x in xs.tolist()]).tobytes()
    far = np.array([-40.0, -1e3])
    with np.errstate(divide="ignore"):
        assert np.log(ndtr(far)).tolist() == [-np.inf, -np.inf]
    assert np.isfinite(log_ndtr(far)).all() and np.isfinite(got).all()


@pytest.mark.parametrize("a", [0.1, 0.58, 1.0, 4.98, 1000.0])
def test_owens_t_tail_float_is_its_one_row_array(a):
    # one numpy body: a float h is a one-row array, and each row of a longer
    # array has the same bits
    hs = EXACT_GRID[::401]
    got = [owens_t_tail(h, a) for h in hs.tolist()]
    assert all(type(v) is float for v in got)
    assert got == [owens_t_tail(np.array([h]), a)[0] for h in hs.tolist()]
    assert np.array(got).tobytes() == owens_t_tail(hs, a).tobytes()


def test_owens_t_matches_scipy():
    # both branches (the reflection above |a| = 1), a = +-1 exactly and h = 0,
    # on the array path and on the float path
    hs = np.concatenate([np.linspace(-40.0, 40.0, 1601), [0.0]])
    for a in np.concatenate([np.logspace(-3.0, 3.0, 49), [1.0]]).tolist():
        for signed in (a, -a):
            want = special.owens_t(hs, signed)
            assert _max_rel_error(owens_t(hs, signed), want) <= 1e-12, signed
            assert _max_rel_error([owens_t(h, signed) for h in hs.tolist()], want) <= 1e-12, signed


def _max_ulps(got, want):
    """Largest difference in units of the last place of ``want``."""
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want) / np.spacing(np.abs(want))))


@pytest.mark.parametrize("function, a, ulps", [
    (owens_t, 0.5, 8), (owens_t, 1.0 / math.sqrt(3.0), 8), (owens_t, 1.0, 8),
    (owens_t, -3.0, 8), (owens_t_tail, 0.58, 16)])
def test_owens_t_float_path_matches_array_path(function, a, ulps):
    # one rule, two evaluations: the float path returns floats, and differs
    # from the array path only by rounding (exp, the summation order, and the
    # array path's weights folded with 1/(1 + x^2) on the shared nodes); the
    # grid crosses h a = sqrt(80) at each a, so rows on the whole range and
    # rows past the cutoff are both checked; the tail has one body for both,
    # so it agrees exactly (see test_owens_t_tail_float_is_its_one_row_array)
    got = [function(h, a) for h in EXACT_GRID.tolist()]
    assert all(type(v) is float for v in got)
    assert _max_ulps(got, function(EXACT_GRID, a)) <= ulps


def test_owens_t_array_rows_do_not_depend_on_the_array():
    # each row of the array path is reduced on its own, so an h gives the same
    # bits at any place in an array of any length; the last slice crosses the
    # cutoff h a = sqrt(80) at h = -17.9
    full = owens_t(EXACT_GRID, 0.5)
    for start, n in ((0, 1), (1, 3), (7, 451), (70_180, 17)):
        part = owens_t(EXACT_GRID[start:start + n], 0.5)
        assert part.tobytes() == full[start:start + n].tobytes(), (start, n)


def _owens_t_tail_oracle(h, a):
    """``(1/2pi) int_a^inf exp(-h^2 (1+x^2)/2)/(1+x^2) dx`` by adaptive
    quadrature, its value at ``x = a`` factored out and the range split
    where the integrand has decayed by ``e``."""
    def f(x):
        return math.exp(-0.5 * h * h * (x * x - a * a)) / (1 + x * x)

    split = a + 1.0 / (h * h * a)
    head, _err = integrate.quad(f, a, split, epsabs=0, epsrel=1e-13)
    tail, _err = integrate.quad(f, split, np.inf, epsabs=0, epsrel=1e-13, limit=200)
    return math.exp(-0.5 * h * h * (1 + a * a)) * (head + tail) / (2 * math.pi)


@pytest.mark.parametrize("a", [0.1, 0.58, 1.0, 4.98, 1000.0])
def test_owens_t_tail_matches_quadrature(a):
    # (a h)^2 from 1/2 to where the tail underflows; the difference
    # Phi(-|h|)/2 - T(h, a) it replaces has lost every digit by the end
    hs = -np.sqrt(np.geomspace(0.5, 1400.0, 25)) / a
    want = [_owens_t_tail_oracle(h, a) for h in hs.tolist()]
    assert _max_rel_error(owens_t_tail(hs, a), want) <= 1e-12


# --- orthant masses --------------------------------------------------------------

@pytest.mark.parametrize("r", [0.58, 1.0, 4.98])
def test_orthant_masses_float_path_matches_array_path(r):
    # across h r = -1, where P- switches from Phi(h)/2 - T(h, r) to Owen's
    # T's tail: zero_threshold_masses' float path, on Owen's T's float twin,
    # is within a few ulps of its array path, and a float given to
    # log_orthant_masses is its one-row array, bit for bit, on and off k = 0
    switch = -1.0 / r
    hs = np.concatenate([np.linspace(-8.0 / r, 2.0 / r, 10001),
                         [switch, np.nextafter(switch, 0.0), np.nextafter(switch, -np.inf)]])
    got = [zero_threshold_masses(h, r) for h in hs.tolist()]
    assert all(type(v) is float for pair in got for v in pair)
    for want, floats in zip(zero_threshold_masses(hs, r), zip(*got)):
        assert _max_rel_error(floats, want) <= 1e-14
    for k, grid in ((0.0, hs), (-0.4, hs[::100]), (0.7, hs[::100])):
        floats = [log_orthant_masses(h, k, r) for h in grid.tolist()]
        assert all(type(v) is float for pair in floats for v in pair)
        assert np.array_equal(np.array(floats).T, np.array(log_orthant_masses(grid, k, r))), k


@pytest.mark.parametrize("alpha, gamma", [(1.0, 1.0), (2.0, 0.5), (0.02, 0.02)])
@pytest.mark.parametrize("outcome_mean", [-1.5, -0.187, 0.512, 2.0])
def test_orthant_masses_off_the_zero_threshold_match_scipy(alpha, gamma, outcome_mean):
    # both masses, h = 0 included, against scipy's bivariate-normal
    # integrator, which carries absolute errors of about 1e-17 (against
    # mpmath), so small masses also get one ulp of 1
    r = 1.0 / math.sqrt(alpha + gamma + alpha * gamma)
    stop_means = np.append(np.linspace(-6.0, 6.0, 25), 0.0)
    got = np.exp(log_orthant_masses(stop_means / math.sqrt(1.0 + alpha),
                                    outcome_mean / math.sqrt(1.0 + gamma), r))
    for column, sign in enumerate((1.0, -1.0)):
        want = stop_outcome_mass_oracle(stop_means, outcome_mean, alpha, gamma, sign)
        keep = want > 1e-10
        assert got[column, keep] == pytest.approx(want[keep], rel=1e-12,
                                                  abs=np.finfo(float).eps), sign


@pytest.mark.parametrize("alpha, gamma", [(1.0, 1.0), (0.1, 2.0), (0.02, 0.02)])
@pytest.mark.parametrize("outcome_mean", [-0.187, 0.512, 1.5, 0.0])
def test_orthant_masses_off_the_zero_threshold_keep_the_stated_relative_accuracy(
        alpha, gamma, outcome_mean):
    # each mass within 1e-12 relative of a relative oracle from the stop
    # threshold h = 2 down to -37, wherever the oracle is a normal float (at
    # most 3.0e-13 here), and together they make up Phi(h): the log of their
    # sum less log Phi(h) is within 1e-12 of 0
    r = 1.0 / math.sqrt(alpha + gamma + alpha * gamma)
    hs = np.linspace(-37.0, 2.0, 79)
    got = log_orthant_masses(hs, outcome_mean / math.sqrt(1.0 + gamma), r)
    for masses, sign in zip(got, (1.0, -1.0)):
        want = np.array([stop_outcome_mass_relative_oracle(h * math.sqrt(1.0 + alpha),
                                                           outcome_mean, alpha, gamma, sign)
                         for h in hs.tolist()])
        normal = want >= np.finfo(float).tiny
        assert np.exp(masses[normal]) == pytest.approx(want[normal], rel=1e-12, abs=0.0), sign
    assert np.abs(np.expm1(np.logaddexp(*got) - log_ndtr(hs))).max() <= 1e-12


@pytest.mark.parametrize("k", [0.3, -0.7, 1e-9, 0.0])
def test_orthant_masses_at_tiny_noise_make_up_the_stop_mass(k):
    # at alpha = gamma = 1e-17 the Phi factor steps within 5e-9 of its
    # edge, and in the stop tail one mass is near exp(-3e19): its log
    # integrand, taken relative to its peak, must neither overflow nor
    # vanish, and the two masses still make up Phi(h). At k = 0 Owen's T
    # sum underflows, P- below h of about -2e-7 and P+ past -37.5, and the
    # integral takes over
    r = 1.0 / math.sqrt(2e-17 + 1e-34)
    hs = np.linspace(-60.0, 2.0, 125)
    pos, neg = log_orthant_masses(hs, k, r)
    assert np.isfinite(pos).all() and np.isfinite(neg).all()
    assert np.abs(np.expm1(np.logaddexp(pos, neg) - log_ndtr(hs))).max() <= 1e-12


@pytest.mark.parametrize("r", [1.0, 3.0, 30.0])
@pytest.mark.parametrize("tiny", [5e-324, 1e-310, 1e-300, 1e-17])
def test_orthant_masses_near_a_zero_threshold_or_stop_mean_take_the_limit(r, tiny):
    # a subnormal or tiny k or h once divided by zero or overflowed; now the
    # integral off k = 0 meets the masses at k = 0 within 1e-14 relative, and
    # within 1e-16 of Owen's T sum itself, and both stay finite where that
    # sum underflows (P- at h = -2, r = 30); a tiny h gives the masses at h = 0
    for h in (-2.0, 0.0, 0.5):
        at_zero = log_orthant_masses(h, 0.0, r)
        for k in (tiny, -tiny):
            got = log_orthant_masses(h, k, r)
            assert all(math.isfinite(mass) for mass in got + at_zero)
            for mass, limit, owens in zip(got, at_zero, zero_threshold_masses(h, r)):
                assert math.exp(mass) == pytest.approx(math.exp(limit), rel=1e-14, abs=0.0)
                assert math.exp(mass) == pytest.approx(owens, rel=0, abs=1e-16)
    for k in (-0.5, 0.5):
        for h in (tiny, -tiny):
            got = np.exp(log_orthant_masses(h, k, r))
            assert np.isfinite(got).all()
            assert got == pytest.approx(np.exp(log_orthant_masses(0.0, k, r)), rel=0, abs=1e-16)


# --- truncated normal sampling ----------------------------------------------

def test_truncated_support_positive():
    rng = np.random.default_rng(0)
    xs = sample_truncated_normal(np.zeros(10_000), 1.0, rng)
    assert np.all(xs > 0)


def test_half_normal_mean():
    rng = np.random.default_rng(1)
    xs = sample_truncated_normal(np.zeros(1_000_000), 1.0, rng)
    assert xs.mean() == pytest.approx(math.sqrt(2 / math.pi), abs=0.01)


def test_far_tail_mean_against_mills_oracle():
    # N(-4, 1) restricted to x > 0: mean is phi(4)/Phi(-4) - 4
    rng = np.random.default_rng(2)
    xs = sample_truncated_normal(np.full(1_000_000, -4.0), 1.0, rng)
    expected = mills_lambda_oracle(4.0) - 4.0
    assert expected == pytest.approx(0.22561, abs=1e-4)
    assert xs.mean() == pytest.approx(expected, abs=0.01)
    assert xs.min() > 0


def test_negative_sign_mirror():
    # N(1, 2) on x < 0, drawn as the caller-side mirror of N(-1, 2) on x > 0
    rng = np.random.default_rng(3)
    xs = -sample_truncated_normal(np.full(200_000, -1.0), 2.0, rng)
    assert np.all(xs < 0)
    m, v = truncated_moment_oracle(1.0, 2.0, -1.0)
    assert xs.mean() == pytest.approx(m, abs=0.02)
    assert xs.var() == pytest.approx(v, abs=0.02)


def test_extreme_tail_does_not_hang_or_leak():
    # kept mass ~6e-16: the exponential proposals finish fast, stay in support
    rng = np.random.default_rng(4)
    xs = sample_truncated_normal(np.full(100_000, -8.0), 1.0, rng)
    assert np.all(xs > 0)
    m, _v = truncated_moment_oracle(-8.0, 1.0, 1.0)
    assert xs.mean() == pytest.approx(m, abs=0.02)


@pytest.mark.parametrize("a", [20.0, 38.0, 100.0, 1e8, 1e12])
def test_far_tail_draws_match_moments(a):
    # Phi(-a) is 3e-89 at 20, subnormal at 38 and 0 at 100; from 1e8 on,
    # mean + sd*z would cancel: the draws are sd times the excess z - a
    n = 1_000_000  # 5 standard errors of the mean are about 0.5 %
    for variance in (1.0, 4.0):
        rng = np.random.default_rng(int(a))
        xs = sample_truncated_normal(np.full(n, -a * math.sqrt(variance)), variance, rng)
        assert np.all(np.isfinite(xs)) and np.all(xs > 0)
        m, v = truncated_moments(-a * math.sqrt(variance), variance)
        fourth = np.mean((xs - xs.mean()) ** 4)
        assert abs(xs.mean() - m) < 5 * math.sqrt(v / n)
        assert abs(xs.var() - v) < 5 * math.sqrt((fourth - v * v) / n)


_KS_BOUNDS = (-3.0, -1e-9, 0.0, 1e-9, 0.7, 5.0, 40.0)


def _ks_pvalue(xs, a, sd):
    """KS p-value of the draws ``xs`` of N(-a sd, sd^2) on x > 0 against the
    exact law of ``Z = a + x/sd`` on ``Z > a``: ``1 - Phi(-z)/Phi(-a)``,
    taken in log space so it holds where Phi(-a) is far below 1."""
    log_kept = special.log_ndtr(-a)
    return stats.kstest(a + np.asarray(xs) / sd,
                        lambda z: -np.expm1(special.log_ndtr(-z) - log_kept)).pvalue


def test_draws_follow_the_truncated_normal_law_array_path():
    # every bound interleaved in one call, so each regime's rejection
    # rounds run beside the other's
    n, sd = 20_000, math.sqrt(2.0)
    bounds = np.tile(_KS_BOUNDS, n)
    xs = sample_truncated_normal(-bounds * sd, sd * sd, np.random.default_rng(31))
    assert np.all(xs > 0)
    for a in _KS_BOUNDS:
        assert _ks_pvalue(xs[bounds == a], a, sd) > 1e-3, a


@pytest.mark.parametrize("a", _KS_BOUNDS)
def test_draws_follow_the_truncated_normal_law_scalar_path(a):
    rng, sd = np.random.default_rng(32), math.sqrt(2.0)
    xs = [sample_truncated_normal(-a * sd, sd * sd, rng) for _ in range(3000)]
    assert all(isinstance(x, float) and x > 0 for x in xs)
    assert _ks_pvalue(xs, a, sd) > 1e-3


def test_truncation_support_fuzz():
    # 10^7 draws across the documented envelope |mean|/sd up to 8, half of
    # them mirrored onto x < 0: no sign violation anywhere
    rng = np.random.default_rng(5)
    n = 10_000_000
    means = rng.uniform(-8.0, 8.0, n)
    signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    xs = signs * sample_truncated_normal(signs * means, 1.0, rng)
    assert np.all(signs * xs > 0)


def test_truncated_moments_match_oracle_grid():
    for a in (-8, -4, -1, 0, 1, 4, 8):
        m, v = truncated_moments(-float(a), 1.0)
        mo, vo = truncated_moment_oracle(-float(a), 1.0, 1.0)
        assert m == pytest.approx(mo, rel=1e-9)
        assert v == pytest.approx(vo, rel=1e-7)


def _excess_moments_oracle(a):
    """Mean and variance of U = Z - a for Z ~ N(0,1) on Z > a, by quadrature
    of the weight exp(-a u - u^2 / 2), which never underflows at u = 0;
    u is integrated in units of 1 / (1 + a)."""
    scale = 1.0 / (1.0 + a)

    def moment(p):
        val, _err = integrate.quad(
            lambda s: (s * scale) ** p * math.exp(-a * s * scale - 0.5 * (s * scale) ** 2),
            0.0, np.inf, epsabs=0, epsrel=1e-13,
        )
        return val

    m0, m1, m2 = moment(0), moment(1), moment(2)
    mean = m1 / m0
    return mean, m2 / m0 - mean * mean


@pytest.mark.parametrize("mean", [-4.9, -5.0, -10.0, -30.0, -38.5, -40.0, -1e3])
def test_truncated_moments_far_tail(mean):
    # the density and the kept mass both underflow past a ~ 38; on x > 0
    # the truncated variable is sd * U, so the moments are sd*E[U], var*Var[U]
    for variance in (1.0, 4.0):
        sd = math.sqrt(variance)
        m, v = truncated_moments(mean, variance)
        mo, vo = _excess_moments_oracle(-mean / sd)
        assert m == pytest.approx(sd * mo, rel=1e-9)
        assert v == pytest.approx(variance * vo, rel=1e-8)


def test_sample_deterministic_given_seed():
    means = np.linspace(-9.0, 3.0, 50)  # both the normal and the exponential proposals
    a = sample_truncated_normal(means, 1.0, np.random.default_rng(42))
    b = sample_truncated_normal(means, 1.0, np.random.default_rng(42))
    assert np.array_equal(a, b)
    c = sample_truncated_normal(means, 1.0, np.random.default_rng(43))
    assert not np.array_equal(a, c)


def test_sample_concentrates_at_tiny_variance():
    rng = np.random.default_rng(0)
    signs = np.array([1.0, -1.0])
    xs = signs * sample_truncated_normal(signs * np.array([2.0, -3.0]), 1e-12, rng)
    assert np.all(np.abs(xs - np.array([2.0, -3.0])) < 1e-5)


def test_truncated_rejects_bad_variance():
    rng = np.random.default_rng(0)
    for variance in (0.0, -1.0, math.inf, math.nan):
        # a scalar mean; a 1-D mean; the closed-form moments
        with pytest.raises(DomainError, match="variance must be positive and finite"):
            sample_truncated_normal(0.0, variance, rng)
        with pytest.raises(DomainError, match="variance must be positive and finite"):
            sample_truncated_normal(np.array([0.5, 0.0]), variance, rng)
        with pytest.raises(DomainError, match="variance must be positive and finite"):
            truncated_moments(0.0, variance)
    for mean in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="mean must be finite"):
            sample_truncated_normal(mean, 1.0, rng)
        with pytest.raises(DomainError, match="mean must be finite"):
            sample_truncated_normal(np.array([0.5, mean]), 1.0, rng)
        with pytest.raises(DomainError, match="mean must be finite"):
            truncated_moments(mean, 1.0)
    # a bound of 1e160, whose square overflows, still draws near sd/a = 1e-260;
    # at a variance of 1e-300 that scale is below the least normal float
    assert 0.0 < sample_truncated_normal(-1e60, 1e-200, rng) < 1e-259
    with pytest.raises(DomainError, match="draws underflow"):
        sample_truncated_normal(np.array([0.5, -1e10]), 1e-300, rng)
