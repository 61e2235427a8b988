import io
import json
import math

import numpy as np
import pytest
from scipy import optimize, stats
from scipy.special import erfcx

from latentbias import (
    CellModel,
    ConditioningError,
    DataError,
    Dataset,
    DivergenceError,
    DomainError,
    GibbsTrace,
    ModelConfig,
    NumericalError,
    PosteriorSummary,
    PriorKind,
    TrueParams,
    balance,
    build_prior,
    drift_slope,
    read_dataset_csv,
    read_trace_csv,
    run_gibbs,
    sample_truncated_normal,
    synthesize,
    write_trace_csv,
)

from latentbias import inference, kernel, ranking

from conftest import (count_log_density_oracle, count_posterior_oracle, dataset_from_rows,
                      mills_lambda_oracle)


def _cfg(**kw):
    base = dict(seed=1, sweeps=10, burn_in=2)
    base.update(kw)
    return ModelConfig(**base)


def _asym_records(counts=(1500, 900, 600), positive_rate=32, labels=None):
    """Deterministic outcome-skewed dataset (1 negative per `positive_rate`)."""
    labels = labels or [f"group{g}" for g in range(len(counts))]
    outcome = np.concatenate([np.arange(n) % positive_rate != 0 for n in counts])
    return dataset_from_rows(np.repeat(np.arange(len(counts)), counts), outcome, labels)


# --- latent sampling -------------------------------------------------------------
# run_gibbs draws s ~ N(c + b, alpha) on s > 0 for every stop and
# t ~ N(c, gamma) on the outcome's side, one vectorised call over every record

def test_latents_respect_signs():
    rng = np.random.default_rng(0)
    taus = np.where(np.arange(400) % 3 == 0, -1.0, 1.0)
    c, b = rng.standard_normal(400), rng.standard_normal(400)
    s_lat = sample_truncated_normal(c + b, 1.0, rng)
    t_lat = taus * sample_truncated_normal(taus * c, 1.0, rng)
    assert np.all(s_lat > 0)
    assert np.array_equal(t_lat > 0, taus > 0)


def test_latent_s_half_normal_mean():
    rng = np.random.default_rng(1)
    draws = sample_truncated_normal(np.zeros(100_000), 1.0, rng)
    assert np.mean(draws) == pytest.approx(math.sqrt(2 / math.pi), abs=0.02)


def test_latent_t_mills_mean():
    # T ~ N(1, 1) truncated negative: mean 1 - phi(1)/Phi(-1)
    rng = np.random.default_rng(2)
    draws = -sample_truncated_normal(-np.ones(100_000), 1.0, rng)
    expected = 1.0 - mills_lambda_oracle(1.0)
    assert expected == pytest.approx(-0.52514, abs=1e-4)
    assert np.mean(draws) == pytest.approx(expected, abs=0.02)


# --- reported precision -------------------------------------------------------------

def _report_precision(counts, **kw):
    cfg = _cfg(**kw)
    _means, variances = build_prior(len(counts))
    return inference._assemble_report_precision(variances, np.asarray(counts), cfg)


def test_single_record_unit_increments():
    # at alpha = gamma = 1 each record adds exactly 1 to its bias diagonal
    # and 1 to the criminality diagonal
    lam = _report_precision([0, 1], prior=PriorKind.INDEPENDENT)
    assert np.array_equal(np.diag(lam), [1.0, 2.0, 2.0])
    # independent prior never writes the off-diagonals
    off = lam - np.diag(np.diag(lam))
    assert np.all(off == 0.0)


def test_dependent_adds_cross_terms():
    lam = _report_precision([1, 0], prior=PriorKind.DEPENDENT, alpha=2.0)
    assert lam[0, 2] == pytest.approx(0.5)
    assert lam[2, 0] == pytest.approx(0.5)
    assert lam[0, 0] == pytest.approx(1.5)
    assert lam[1, 2] == lam[2, 1] == 0.0


def test_zero_records_leaves_accumulator_empty():
    for kind in PriorKind:
        assert np.array_equal(_report_precision([0, 0, 0], prior=kind), np.eye(4))


def test_accumulation_additivity():
    once = _report_precision([3, 5], prior=PriorKind.DEPENDENT, alpha=1.3, gamma=0.8)
    twice = _report_precision([6, 10], prior=PriorKind.DEPENDENT, alpha=1.3, gamma=0.8)
    assert np.allclose(twice - np.eye(3), 2.0 * (once - np.eye(3)), rtol=1e-14, atol=0)


def test_conjugacy_against_closed_form():
    # one group, one record: the recorded variances must be the
    # hand-computed conjugate covariance, with anchoring off and on
    prior = build_prior(1, group_means=(0.3,), group_variances=(4.0,))
    records = dataset_from_rows([0], [False], ("only",))
    lam_b = 1 / 4.0 + 1 / 2.0
    lam_c = 1.0 + 1 / 0.5
    for kind, cross in ((PriorKind.INDEPENDENT, 0.0), (PriorKind.DEPENDENT, 1 / 2.0)):
        det = lam_b * lam_c - cross * cross
        var_b, var_c, cov = lam_c / det, lam_b / det, -cross / det
        for anchoring, scale in ((False, 1.0), (True, var_c)):
            cfg = _cfg(prior=kind, alpha=2.0, gamma=0.5, anchoring=anchoring, sweeps=3, burn_in=1)
            _summary, trace = run_gibbs(records, cfg, prior=prior)
            assert trace.variances == pytest.approx([var_b / scale, var_c / scale], abs=1e-12)
            assert trace.cross_cov == pytest.approx([cov / scale], abs=1e-12)


# --- first unanchored sweep against a record-at-a-time reference ----------------------

def _reference_covariance(dataset, alpha, gamma, kind):
    """Inverse of the regime's posterior precision for a unit prior."""
    k = len(dataset.labels)
    counts = dataset.outcome_counts().sum(axis=1)
    lam = np.diag(np.append(1.0 + counts / alpha, 1.0 + len(dataset) / gamma))
    if kind is not PriorKind.INDEPENDENT:
        lam[k, :k] = lam[:k, k] = counts / alpha
    return np.linalg.inv(lam)


def _chain_records(dataset):
    """``(group code, positive)`` of each stop, in the order the unanchored
    chain takes them: by group code, then outcome, negatives first."""
    return [(g, positive) for g, cells in enumerate(dataset.outcome_counts().tolist())
            for positive, n in enumerate(cells) for _ in range(n)]


def _reference_first_sweep(dataset, alpha, gamma, kind, rng):
    """Recorded means of ``run_gibbs``'s unanchored sweep 0, record by record.

    Restates the latent sweep for a unit prior: the regime's posterior
    precision (``1/alpha`` per record on its bias diagonal and, except under
    INDEPENDENT, on its cross entries; ``1/gamma`` per record on the
    criminality diagonal) is inverted here. Each record draws its
    criminality from the prior and its own bias around the prior mean with
    the group's marginal sd, then its latents, then refreshes its
    criminality; the covariance times the accumulated evidence gives the
    means, recorded raw.
    """
    k = len(dataset.labels)
    cov = _reference_covariance(dataset, alpha, gamma, kind)
    bias_sd = np.sqrt(np.diag(cov))
    v_refresh = 1.0 / (1.0 + 1.0 / alpha + 1.0 / gamma)
    eta = np.zeros(k + 1)
    for g, positive in _chain_records(dataset):
        c = rng.standard_normal()
        b = bias_sd[g] * rng.standard_normal()
        s = sample_truncated_normal(c + b, alpha, rng)
        tau = 1.0 if positive else -1.0
        t = tau * sample_truncated_normal(tau * c, gamma, rng)
        c = v_refresh * ((s - b) / alpha + t / gamma) + math.sqrt(v_refresh) * rng.standard_normal()
        eta[g] += (s - c) / alpha
        eta[k] += t / gamma
    return cov @ eta


def test_first_sweep_matches_record_reference():
    # unequal group sizes and positive rates
    rng = np.random.default_rng(41)
    group = rng.permutation(np.repeat([0, 1, 2], [40, 25, 12]))
    rate = np.array([0.9, 0.3, 0.6])[group]
    records = dataset_from_rows(group, rng.random(group.size) < rate, ("a", "b", "c"))
    alpha, gamma, seeds = 1.3, 0.8, 200
    for kind in (PriorKind.DEPENDENT, PriorKind.INDEPENDENT):
        want = np.array([
            _reference_first_sweep(records, alpha, gamma, kind, np.random.default_rng(10_000 + s))
            for s in range(seeds)
        ])
        got = np.array([
            run_gibbs(records, ModelConfig(seed=s, alpha=alpha, gamma=gamma, prior=kind,
                                           sweeps=1, burn_in=0, anchoring=False))[1].means[0]
            for s in range(seeds)
        ])
        for coord in range(4):
            assert stats.ks_2samp(got[:, coord], want[:, coord]).pvalue > 1e-3, (kind, coord)


def test_unanchored_bias_draws_spread_with_their_own_groups_sd(monkeypatch):
    # 2,000 records against 20 make the groups' marginal sds differ about
    # tenfold; a record's bias draw is its stop latent's mean minus its
    # criminality, read off the sweep's two truncated-normal calls
    rng = np.random.default_rng(43)
    group = rng.permutation(np.repeat([0, 1], [2000, 20]))
    records = dataset_from_rows(group, rng.random(group.size) < 0.6, ("big", "small"))
    group, positive = np.array(_chain_records(records)).T  # each record the chain draws
    means = []

    def spy(mean, variance, rng):
        means.append(np.array(mean))
        return sample_truncated_normal(mean, variance, rng)

    monkeypatch.setattr(inference, "sample_truncated_normal", spy)
    tau = np.where(positive, 1.0, -1.0)
    for kind in (PriorKind.DEPENDENT, PriorKind.INDEPENDENT):
        means.clear()
        run_gibbs(records, ModelConfig(seed=3, alpha=1.3, gamma=0.8, prior=kind,
                                       sweeps=1, burn_in=0, anchoring=False))
        stop_mean, outcome_mean = means  # c + b, then tau * c
        bias = stop_mean - tau * outcome_mean
        sd = np.sqrt(np.diag(_reference_covariance(records, 1.3, 0.8, kind)))
        for g in (0, 1):
            z = bias[group == g] / sd[g]  # the prior mean is 0
            assert stats.kstest(z, "norm").pvalue > 1e-3, (kind, g)


@pytest.mark.parametrize("alpha, gamma", [(1e-17, 1.0), (1.0, 1e-17), (1e-17, 1e-17)])
def test_unanchored_latents_stay_on_their_half_lines_at_tiny_noise(monkeypatch, alpha, gamma):
    # a noise variance of 1e-17 puts most bounds |mean|/sd at 1e8 or beyond,
    # where mean + sd*z cancels; every stop latent must stay > 0 and every
    # outcome latent on its record's side
    rng = np.random.default_rng(7)
    records = dataset_from_rows(np.arange(900) % 2, rng.random(900) < 0.5, ("a", "b"))
    tau = np.where(np.array(_chain_records(records))[:, 1], 1.0, -1.0)
    draws = []

    def spy(mean, variance, rng):
        draws.append(sample_truncated_normal(mean, variance, rng))
        return draws[-1]

    monkeypatch.setattr(inference, "sample_truncated_normal", spy)
    run_gibbs(records, ModelConfig(seed=1, alpha=alpha, gamma=gamma, prior=PriorKind.INDEPENDENT,
                                   sweeps=20, burn_in=0, anchoring=False))
    assert len(draws) == 40
    for stop, mirrored in zip(draws[0::2], draws[1::2]):
        assert np.all(stop > 0)
        assert np.all(np.sign(tau * mirrored) == tau)  # the chain's outcome latents


def test_sweep_independent_keeps_cross_zero_and_anchored_c_standard():
    group = np.arange(60) % 2
    records = dataset_from_rows(group, np.arange(60) % 3 == 0, ("a", "b"))
    cfg = _cfg(prior=PriorKind.INDEPENDENT, sweeps=1, burn_in=0)
    _summary, trace = run_gibbs(records, cfg)
    assert np.all(trace.cross_cov == 0.0)
    assert trace.means[0, 2] == 0.0
    assert trace.variances[2] == 1.0


# --- count-level bias conditional ------------------------------------------------------

def _target(n_pos, n_neg, m0=0.0, v0=1.0, alpha=1.0, gamma=1.0):
    return kernel.CountTarget((n_pos, n_neg), m0, v0, CellModel(alpha, gamma))


def _bias_chain(target, seed, draws, thin=5, burn=50):
    mode, scale = kernel.mode_and_scale(target)
    rng = np.random.default_rng(seed)
    current, kept, moves = target.m0, [], 0
    for i in range(burn + draws * thin):
        new = inference._sample_bias_conditional(target, mode, scale, current, rng)
        moves += new != current
        current = new
        if i >= burn and (i - burn) % thin == 0:
            kept.append(current)
    return np.asarray(kept), moves / (burn + draws * thin)


def _mills(z):
    # phi(z) / Phi(z) through the scaled complementary error function
    return math.sqrt(2.0 / math.pi) / erfcx(-np.asarray(z) / math.sqrt(2.0))


@pytest.mark.parametrize("alpha, gamma", [(1.0, 1.0), (2.0, 0.5), (1.0, 0.05), (4.0, 4.0)])
@pytest.mark.parametrize("n_pos, n_neg", [(800, 1600), (420, 180), (3, 0), (0, 1)])
def test_count_target_matches_oracle_density(alpha, gamma, n_pos, n_neg):
    # equal up to a constant, over the posterior bulk and the region below
    # it where the stop probability is moderate
    target = _target(n_pos, n_neg, 0.2, 2.0, alpha, gamma)
    grid = np.linspace(-2.0, 7.0, 37)
    got = target.log_density(grid)
    want = count_log_density_oracle(grid, n_pos, n_neg, 0.2, 2.0, alpha, gamma)
    assert np.allclose(got - got[0], want - want[0], rtol=1e-9, atol=1e-9)


# the fit's stop cells at (alpha, gamma), where (0.3, 0.3) puts r above 1 and
# Owen's T takes its reflection; then the ranking's match cells at (wins,
# losses) and prior mean -w_0, a player with no win and one with no loss among them
@pytest.mark.parametrize("target", [
    *(pytest.param(_target(420, 180, 0.2, 2.0, alpha, gamma), id=f"{alpha}-{gamma}")
      for alpha, gamma in [(1.0, 1.0), (2.0, 0.5), (1.0, 0.05), (0.3, 0.3)]),
    *(pytest.param(kernel.CountTarget(matches, m0, 1.0, ranking._Match()),
                   id=f"match-{matches[0]}-{matches[1]}")
      for matches, m0 in [((3, 2), 0.0), ((0, 7), -0.4), ((12, 0), 0.9), ((250, 40), 0.0)]),
])
def test_count_target_derivatives_match_finite_differences(target):
    step = 1e-4
    for x in (-1.5, 0.0, 1.0, 3.5, 6.0):
        logp = target.log_density(np.array([x - step, x, x + step]))
        score, hess = target.score_hessian(x)
        assert score == pytest.approx((logp[2] - logp[0]) / (2 * step), rel=1e-6, abs=1e-6)
        assert hess == pytest.approx((logp[2] - 2 * logp[1] + logp[0]) / step**2,
                                     rel=1e-4, abs=1e-4)
        assert hess < 0


@pytest.mark.parametrize("n, seed", [(5, 31), (9374, 32)])
def test_bias_conditional_matches_unbinned_quadrature(n, seed):
    # the chain against the oracle posterior for a small and a large group
    n_pos = round(0.45 * n)
    target = _target(n_pos, n - n_pos, alpha=1.3, gamma=0.8)
    draws, accept = _bias_chain(target, seed, draws=2000)
    assert accept > 0.5
    _mean, _sd, cdf = count_posterior_oracle(n_pos, n - n_pos, 0.0, 1.0, 1.3, 0.8)
    assert stats.kstest(draws, cdf).pvalue > 0.01


def test_bias_conditional_far_tail_mode():
    # the prior pins beta where the stop probability is ~1e-135 (h ~ -25);
    # with positives only, P+ = Phi(h) to double precision there, so the
    # score's root must balance the prior against n_pos * Mills(h) / sqrt(2)
    n_pos, m0, v0 = 3, -35.0, 1e-4
    target = _target(n_pos, 0, m0, v0)
    mode, scale = kernel.mode_and_scale(target)
    h = mode / math.sqrt(2.0)
    assert h < -24 and math.isfinite(scale)
    pull = n_pos * float(_mills(h)) / math.sqrt(2.0)
    assert pull == pytest.approx(n_pos * abs(h) / math.sqrt(2.0), rel=1e-2)  # Mills ~ |h|
    assert -(mode - m0) / v0 + pull == pytest.approx(0.0, abs=1e-6 * pull)
    value = inference._sample_bias_conditional(target, mode, scale, m0, np.random.default_rng(34))
    assert math.isfinite(value) and abs(value - mode) < 10 * math.sqrt(v0)


def test_bias_conditional_same_seed_same_draws():
    target = _target(120, 180)
    mode, scale = kernel.mode_and_scale(target)

    def run(seed):
        rng = np.random.default_rng(seed)
        current, out = 0.0, []
        for _ in range(20):
            current = inference._sample_bias_conditional(target, mode, scale, current, rng)
            out.append(current)
        return out

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_bias_mode_solve_raises_when_capped(monkeypatch):
    monkeypatch.setattr(kernel, "_NEWTON_STEPS", 1)
    with pytest.raises(NumericalError):
        kernel.mode_and_scale(_target(80, 120))


class _ScoreTarget:
    """A 1-D target given by its score and Hessian, recording where the mode
    solve evaluates them."""

    m0 = 0.0

    def __init__(self, score_hessian):
        self._score_hessian, self.visited = score_hessian, []

    def score_hessian(self, x):
        self.visited.append(x)
        return self._score_hessian(x)


def test_bias_mode_solve_bisects_an_overshoot():
    # score -atan(x - 5): the Newton step from 0 lands at 35.7 and the next at
    # -1416, outside the sign bracket (0, 35.7), so the solve halves the
    # bracket three times before Newton converges on the mode 5
    target = _ScoreTarget(lambda x: (-math.atan(x - 5.0), -1.0 / (1.0 + (x - 5.0) ** 2)))
    mode, scale = kernel.mode_and_scale(target)
    assert mode == pytest.approx(5.0, abs=1e-9) and scale == pytest.approx(1.0, abs=1e-12)
    first = target.visited[1]
    assert first == pytest.approx(35.7, abs=0.01)
    assert target.visited[2:5] == [first / 2, first / 4, first / 8]


def test_bias_mode_solve_raises_on_a_non_finite_score():
    with pytest.raises(NumericalError, match="non-finite score at 0"):
        kernel.mode_and_scale(_ScoreTarget(lambda x: (math.nan, -1.0)))


def test_count_target_at_tiny_noise_matches_the_noiseless_limit():
    # (1 + alpha)(1 + gamma) rounds to 1 here, so r must not come from
    # 1 - rho^2; at alpha = gamma = 0 and beta > 0, P+ = 1/2 and
    # P- = Phi(beta) - 1/2, so the mode balances the prior against
    # n_neg phi(beta) / (Phi(beta) - 1/2)
    target = _target(420, 180, 0.2, 2.0, 1e-17, 1e-17)
    mode, scale = kernel.mode_and_scale(target)

    def score(b):
        return -(b - 0.2) / 2.0 + 180 * stats.norm.pdf(b) / (stats.norm.cdf(b) - 0.5)

    assert mode == pytest.approx(optimize.brentq(score, 0.01, 10.0, xtol=1e-14), rel=1e-9)
    assert math.isfinite(scale)
    assert np.isfinite(target.log_density(mode + scale * np.linspace(-3.0, 3.0, 7))).all()


def test_negative_mass_keeps_precision_where_the_difference_cancels():
    # at alpha = gamma = 0.02 and beta = -2, P- is 3.6171569044211e-26 (mpmath
    # quadrature) while Phi(h)/2 - T(h, r) rounds to -8.7e-18; the mode solve
    # must converge there
    target = _target(3, 1, -2.0, 1e-4, 0.02, 0.02)
    _pos, neg = target.cells.log_masses(np.array([-2.0]))
    assert math.exp(neg[0]) == pytest.approx(3.6171569044211e-26, rel=1e-12)
    assert math.isfinite(target.log_density(np.array([-2.0]))[0])
    mode, scale = kernel.mode_and_scale(target)
    score, hess = target.score_hessian(mode)
    assert abs(mode + 2.0) < 5 * math.sqrt(1e-4) and math.isfinite(scale)
    assert abs(score) < 1e-6 * -hess * scale


# --- full runs -----------------------------------------------------------------------

def test_run_gibbs_deterministic():
    records = _asym_records((300, 200), positive_rate=3)
    cfg = _cfg(seed=99, sweeps=30, burn_in=5)
    s1, t1 = run_gibbs(records, cfg)
    s2, t2 = run_gibbs(records, cfg)
    assert np.array_equal(t1.means, t2.means)
    assert np.array_equal(t1.variances, t2.variances)
    assert np.array_equal(t1.cross_cov, t2.cross_cov)
    assert np.array_equal(s1.bias_mean, s2.bias_mean)


class _Replay:
    """Stands in for the generator in one _sample_bias_conditional call,
    serving fixed proposals and uniforms."""

    def __init__(self, t_draws: np.ndarray, uniforms: np.ndarray):
        self.t_draws, self.uniforms = t_draws, uniforms

    def standard_t(self, df, size):
        assert df == kernel.T_DOF and size == self.t_draws.size
        return self.t_draws

    def random(self, size):
        assert size == self.uniforms.size
        return self.uniforms


@pytest.mark.parametrize("kind", [PriorKind.DEPENDENT, PriorKind.INDEPENDENT])
def test_anchored_chain_matches_per_sweep_kernel(kind):
    # the batched chain against one _sample_bias_conditional call per sweep
    # and group from each group's mode, each call replaying its group's
    # slice of the seed's one standard_t and one random array; at alpha =
    # gamma = 0.3, r > 1 takes Owen's T through its reflection
    records = _asym_records((300, 200, 40), positive_rate=3)
    cfg = _cfg(seed=21, sweeps=40, burn_in=5, prior=kind, alpha=0.3, gamma=0.3)
    _summary, trace = run_gibbs(records, cfg)
    m0, v0 = build_prior(3)
    model = CellModel(cfg.alpha, cfg.gamma)
    targets = [kernel.CountTarget((p, n), m, v, model)
               for (n, p), m, v in zip(records.outcome_counts(), m0, v0)]
    assert model.r > 1
    laplace = [kernel.mode_and_scale(target) for target in targets]
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    steps = kernel.MH_STEPS
    t_draws = rng.standard_t(kernel.T_DOF, size=(3, cfg.sweeps * steps))
    uniforms = rng.random((3, cfg.sweeps * steps))
    current = [mode for mode, _scale in laplace]
    want = np.empty((cfg.sweeps, 3))
    for sweep in range(cfg.sweeps):
        part = slice(sweep * steps, (sweep + 1) * steps)
        for g in range(3):
            replay = _Replay(t_draws[g, part], uniforms[g, part])
            current[g] = inference._sample_bias_conditional(targets[g], *laplace[g], current[g], replay)
        want[sweep] = current
    assert np.array_equal(trace.means[:, :3], want)
    assert np.all(trace.means[:, 3] == 0.0)
    assert trace.wall_times.shape == (cfg.sweeps,) and np.all(trace.wall_times > 0)


def test_anchored_guard_raises_at_first_offending_sweep(monkeypatch):
    # a limit just above the first 5 sweeps' draws: seed 5 first passes it at sweep 19
    records = _asym_records((300, 200), positive_rate=3)
    _summary, full = run_gibbs(records, _cfg(seed=5, sweeps=30, burn_in=5))
    limit = float(np.abs(full.means[:5]).max())
    first = int(np.argmax(np.abs(full.means).max(axis=1) > limit))
    assert first >= 5
    monkeypatch.setattr(inference, "DIVERGENCE_MEAN_LIMIT", limit)
    with pytest.raises(DivergenceError) as exc:
        run_gibbs(records, _cfg(seed=5, sweeps=30, burn_in=5))
    assert exc.value.sweep == first
    assert np.array_equal(exc.value.trace.means, full.means[:first])


@pytest.mark.parametrize("prior, anchoring", [(PriorKind.DEPENDENT, True),
                                              (PriorKind.INDEPENDENT, False)])
def test_summary_variances_are_the_trace_report(monkeypatch, prior, anchoring):
    # the trace holds the fixed report once; the summary carries it as is,
    # and a diverged chain's partial trace holds the same report
    records = _asym_records((300, 200, 100), positive_rate=3)
    cfg = _cfg(seed=6, sweeps=15, burn_in=3, prior=prior, anchoring=anchoring)
    summary, trace = run_gibbs(records, cfg)
    k = trace.group_count
    assert trace.variances.shape == (k + 1,) and trace.cross_cov.shape == (k,)
    assert summary.bias_variance.tobytes() == trace.variances[:k].tobytes()
    assert summary.criminality_variance == trace.variances[k]
    monkeypatch.setattr(inference, "DIVERGENCE_MEAN_LIMIT", np.abs(trace.means[4]).max() * 0.999)
    with pytest.raises(DivergenceError) as exc:
        run_gibbs(records, cfg)
    partial = exc.value.trace
    assert partial.sweeps <= 4
    assert np.array_equal(partial.variances, trace.variances)
    assert np.array_equal(partial.cross_cov, trace.cross_cov)


def test_run_gibbs_anchored_criminality_rows():
    records = _asym_records((300, 200), positive_rate=3)
    summary, trace = run_gibbs(records, _cfg(seed=7, sweeps=25, burn_in=5))
    k = trace.group_count
    assert np.all(trace.means[:, k] == 0.0)
    assert trace.variances[k] == 1.0
    assert summary.criminality_mean == 0.0


def test_anchor_rescales_covariance():
    # the recorded covariance does not depend on the draws, so an anchored
    # run records exactly the unanchored one divided by its criminality variance
    records = _asym_records((30, 20, 10), positive_rate=3)
    raw = run_gibbs(records, _cfg(seed=5, sweeps=4, burn_in=1, anchoring=False))[1]
    anchored = run_gibbs(records, _cfg(seed=5, sweeps=4, burn_in=1, anchoring=True))[1]
    k = raw.group_count
    assert raw.variances[k] != 1.0
    assert np.array_equal(anchored.variances, raw.variances / raw.variances[k])
    assert np.array_equal(anchored.cross_cov, raw.cross_cov / raw.variances[k])
    assert anchored.variances[k] == 1.0


def test_run_gibbs_independent_conservation():
    records = _asym_records((300, 200), positive_rate=3)
    cfg = _cfg(seed=7, sweeps=25, burn_in=5, prior=PriorKind.INDEPENDENT)
    _summary, trace = run_gibbs(records, cfg)
    k = trace.group_count
    assert np.all(trace.means[:, k] == 0.0)
    assert trace.variances[k] == 1.0
    assert np.all(trace.cross_cov == 0.0)


def test_run_gibbs_ranks_are_permutation():
    records = _asym_records((400, 300, 200, 100), positive_rate=4)
    summary, _ = run_gibbs(records, _cfg(seed=3, sweeps=30, burn_in=10))
    assert sorted(summary.rank.tolist()) == [1, 2, 3, 4]
    order = summary.ranked_indices()
    means = summary.bias_mean[order]
    assert np.all(np.diff(means) <= 0)


def test_balanced_variances_agree():
    rng = np.random.default_rng(11)
    params = TrueParams(beta=(0.0, 0.0, 0.0), population=(900, 900, 900))
    records, _rep = synthesize(params, rng)
    n = records.outcome_counts().sum(axis=1).min()
    trimmed = balance(records, n, np.random.default_rng(0))  # n stops of each group
    cfg = _cfg(seed=5, sweeps=60, burn_in=20, prior=PriorKind.INDEPENDENT)
    summary, _ = run_gibbs(trimmed, cfg)
    rel = summary.bias_variance.max() / summary.bias_variance.min() - 1.0
    assert rel < 0.05


def test_dependent_variance_below_independent():
    records = _asym_records((1000, 700, 400), positive_rate=3)
    s_ind, _ = run_gibbs(records, _cfg(seed=5, sweeps=40, burn_in=10, prior=PriorKind.INDEPENDENT))
    s_dep, _ = run_gibbs(records, _cfg(seed=5, sweeps=40, burn_in=10, prior=PriorKind.DEPENDENT))
    assert np.all(s_dep.bias_variance <= s_ind.bias_variance)


def test_free_unanchored_diverges_and_flags_sweep():
    records = _asym_records((800, 500), positive_rate=3)
    cfg = _cfg(seed=2, sweeps=200, burn_in=10, prior=PriorKind.FREE)
    with pytest.raises(DivergenceError) as exc:
        run_gibbs(records, cfg)
    assert 0 <= exc.value.sweep < 200
    assert exc.value.trace is not None


def test_free_anchored_survives_with_zero_criminality():
    records = _asym_records((800, 500), positive_rate=3)
    cfg = _cfg(seed=2, sweeps=40, burn_in=10, prior=PriorKind.FREE, anchoring=True)
    _summary, trace = run_gibbs(records, cfg)
    assert np.all(trace.means[:, trace.group_count] == 0.0)


def test_divergence_guard_configurable(monkeypatch):
    records = _asym_records((200, 100), positive_rate=3)
    cfg = _cfg(seed=1, sweeps=30, burn_in=5)
    with monkeypatch.context() as patch:
        patch.setattr(inference, "DIVERGENCE_MEAN_LIMIT", 1e-9)
        with pytest.raises(DivergenceError) as exc:
            run_gibbs(records, cfg)
    assert exc.value.sweep == 0
    # the recorded variances are fixed before sweep 0, so their limit trips
    # there, with an empty partial trace and the variance named
    monkeypatch.setattr(inference, "DIVERGENCE_VARIANCE_LIMIT", 1e-9)
    with pytest.raises(DivergenceError, match="max variance") as exc:
        run_gibbs(records, cfg)
    assert exc.value.sweep == 0 and exc.value.trace.sweeps == 0


def test_drift_slope_positive_for_unanchored_free_chain(monkeypatch):
    # with the guard lifted, the uncorrected chain's criminality mean moves
    # away from zero monotonically in trend: the drift diagnostic is positive
    records = _asym_records((800, 500), positive_rate=3)
    monkeypatch.setattr(inference, "DIVERGENCE_MEAN_LIMIT", 1e200)
    monkeypatch.setattr(inference, "DIVERGENCE_VARIANCE_LIMIT", 1e200)
    cfg = _cfg(seed=8, sweeps=25, burn_in=5, prior=PriorKind.FREE)
    _summary, trace = run_gibbs(records, cfg)
    assert drift_slope(trace) > 0
    magnitudes = np.abs(trace.means[:, trace.group_count])
    assert magnitudes[-1] > magnitudes[0]


def test_rejects_unstopped_and_empty():
    with pytest.raises(DomainError):
        run_gibbs(Dataset(np.zeros((1, 2, 1), dtype=int), ("group0",)), _cfg())
    with pytest.raises(DomainError, match="no records"):
        run_gibbs(dataset_from_rows([0], [True], ("a", "b")), _cfg())
    # rows that are not stops never reach a dataset
    with pytest.raises(DataError, match="^line 2: "):
        read_dataset_csv(io.BytesIO(b"group,stopped,outcome,force\na,0,0,f\n"))


def test_run_gibbs_custom_prior_and_groups():
    records = _asym_records((200, 150), positive_rate=3, labels=("first", "second"))
    prior = build_prior(2, group_means=(0.5, -0.5), group_variances=(2.0, 2.0))
    summary, _ = run_gibbs(records, _cfg(seed=3, sweeps=20, burn_in=5), prior=prior)
    assert summary.labels == ["first", "second"]
    # a prior sized for another group count, or an invalid one, is rejected
    for bad in (build_prior(3), (np.zeros(2), np.array([1.0, np.nan]))):
        with pytest.raises(DomainError):
            run_gibbs(records, _cfg(seed=3, sweeps=20, burn_in=5), prior=bad)


@pytest.mark.parametrize("kind", [PriorKind.DEPENDENT, PriorKind.FREE])
@pytest.mark.parametrize("alpha, gamma", [(0.7, 1.6), (1.0, 1.2)])
def test_gamma_above_alpha_precision_not_positive_definite(kind, alpha, gamma):
    # the criminality Schur complement 1 + N(1/gamma - 1/alpha)
    # + sum_g (n_g/alpha) / (1 + n_g/alpha) is negative for these rows
    records = _asym_records((200, 150), positive_rate=3)
    with pytest.raises(ConditioningError, match=f"{kind.value}.*alpha={alpha:g}, gamma={gamma:g}"):
        run_gibbs(records, _cfg(prior=kind, alpha=alpha, gamma=gamma))
    # INDEPENDENT writes no cross terms, so its precision stays diagonal
    run_gibbs(records, _cfg(prior=PriorKind.INDEPENDENT, alpha=alpha, gamma=gamma))


# --- trace and summary IO ----------------------------------------------------------

def test_trace_csv_roundtrip():
    records = _asym_records((150, 100), positive_rate=3)
    _summary, trace = run_gibbs(records, _cfg(seed=4, sweeps=12, burn_in=2))
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    text = buf.getvalue()
    header = text.splitlines()[0]
    assert header == (
        "sweep,beta_0_mean,beta_1_mean,C_mean,beta_0_var,beta_1_var,C_var,"
        "cov_C_beta_0,cov_C_beta_1"
    )
    back = read_trace_csv(io.StringIO(text))
    assert back.group_count == 2
    assert np.allclose(back.means, trace.means, rtol=1e-10)
    assert np.allclose(back.variances, trace.variances, rtol=1e-10)


def test_trace_csv_has_9_significant_digits():
    trace = GibbsTrace(
        means=np.array([[0.123456789123456, 0.1, 0.0]]),
        variances=np.array([1.000000001234, 1.0, 1.0]),
        cross_cov=np.array([-0.987654321987]),
        wall_times=np.zeros(1),
    )
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    row = buf.getvalue().splitlines()[1]
    assert "0.123456789123" in row
    assert "-0.987654321987" in row


@pytest.mark.parametrize("body, message", [
    ("", "trace CSV has no rows"),
    ("\n\n", "trace CSV has no rows"),
    ("0,0.1,0,2,1\n", "trace row has 5 fields, expected 6"),
    ("0,0.1,0,2,1,0.5,7\n", "trace row has 7 fields, expected 6"),
    ("0,0.1,0,2,1,0.5\n1,0.2,0,2,1,0.25\n", "trace rows disagree on the variance report"),
], ids=["empty", "blank-lines", "short-row", "long-row", "report-disagrees"])
def test_read_trace_csv_rejects(body, message):
    text = "sweep,beta_0_mean,C_mean,beta_0_var,C_var,cov_C_beta_0\n" + body
    with pytest.raises(DomainError, match=message):
        read_trace_csv(io.StringIO(text))


def test_summary_json_roundtrip():
    records = _asym_records((150, 100), positive_rate=3)
    summary, _ = run_gibbs(records, _cfg(seed=4, sweeps=12, burn_in=2))
    back = PosteriorSummary.from_json(summary.to_json())
    assert back.labels == summary.labels
    assert np.allclose(back.bias_mean, summary.bias_mean)
    assert back.prior_kind is summary.prior_kind
    assert (back.alpha, back.gamma) == (summary.alpha, summary.gamma) == (1.0, 1.0)


def test_summary_json_rejects_fractional_rank_and_repeated_labels():
    records = _asym_records((150, 100), positive_rate=3)
    summary, _ = run_gibbs(records, _cfg(seed=4, sweeps=12, burn_in=2))
    doc = json.loads(summary.to_json())
    back = PosteriorSummary.from_json(json.dumps({**doc, "rank": [float(v) for v in doc["rank"]]}))
    assert back.rank.tolist() == doc["rank"] and back.rank.dtype.kind == "i"
    # 1.9 and 2.2 would truncate to the permutation [1, 2]
    with pytest.raises(DomainError, match=r"'rank' must be a permutation of 1\.\.2"):
        PosteriorSummary.from_json(json.dumps({**doc, "rank": [1.9, 2.2]}))
    with pytest.raises(DomainError, match="label 'a' is repeated"):
        PosteriorSummary.from_json(json.dumps({**doc, "labels": ["a", "a"]}))


@pytest.mark.parametrize("labels", ["ab", [1, 2], ["a", None], {"a": 1, "b": 2}])
def test_summary_json_rejects_labels_that_are_not_a_list_of_strings(labels):
    records = _asym_records((150, 100), positive_rate=3)
    summary, _ = run_gibbs(records, _cfg(seed=4, sweeps=12, burn_in=2))
    doc = {**json.loads(summary.to_json()), "labels": labels}
    with pytest.raises(DomainError, match="^not a posterior summary: 'labels' must be a list "
                                          "of strings$"):
        PosteriorSummary.from_json(json.dumps(doc))


def test_summary_csv_schema():
    records = _asym_records((150, 100), positive_rate=3)
    summary, _ = run_gibbs(records, _cfg(seed=4, sweeps=12, burn_in=2))
    buf = io.StringIO()
    summary.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "rank,label,bias_mean,bias_variance"
    assert len(lines) == 3
    assert lines[1].startswith("1,")
