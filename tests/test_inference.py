import io
import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import erfcx, log_ndtr

from latentbias import (
    DivergenceError,
    DomainError,
    GibbsTrace,
    ModelConfig,
    NaturalAccumulator,
    NumericalError,
    PosteriorSummary,
    PriorKind,
    StopRecord,
    TrueParams,
    accumulate_stats,
    anchor,
    build_prior,
    drift_slope,
    gibbs_sweep,
    posterior_from_stats,
    read_trace_csv,
    refresh_criminality,
    run_gibbs,
    sample_latents,
    synthesize,
    write_trace_csv,
)

from latentbias import inference

from conftest import mills_lambda_oracle


def _cfg(**kw):
    base = dict(seed=1, sweeps=10, burn_in=2)
    base.update(kw)
    return ModelConfig(**base)


def _asym_records(counts=(1500, 900, 600), positive_rate=32):
    """Deterministic outcome-skewed dataset (1 negative per `positive_rate`)."""
    records = []
    for g, n in enumerate(counts):
        for i in range(n):
            records.append(StopRecord(group=g, outcome=(i % positive_rate != 0)))
    return records


# --- latent sampling -------------------------------------------------------------

def test_latents_respect_signs():
    cfg = _cfg()
    rng = np.random.default_rng(0)
    for outcome in (True, False):
        rec = StopRecord(group=0, outcome=outcome)
        for _ in range(200):
            lat = sample_latents(rec, 0.0, 0.0, cfg, rng)
            assert lat.s > 0
            assert lat.t is not None
            assert (lat.t > 0) == outcome


def test_latent_s_half_normal_mean():
    cfg = _cfg()
    rng = np.random.default_rng(1)
    rec = StopRecord(group=0, outcome=True)
    draws = [sample_latents(rec, 0.0, 0.0, cfg, rng).s for _ in range(100_000)]
    assert np.mean(draws) == pytest.approx(math.sqrt(2 / math.pi), abs=0.02)


def test_latent_t_mills_mean():
    # T ~ N(1, 1) truncated negative: mean 1 - phi(1)/Phi(-1)
    cfg = _cfg()
    rng = np.random.default_rng(2)
    rec = StopRecord(group=0, outcome=False)
    draws = [sample_latents(rec, 1.0, 0.0, cfg, rng).t for _ in range(100_000)]
    expected = 1.0 - mills_lambda_oracle(1.0)
    assert expected == pytest.approx(-0.52514, abs=1e-4)
    assert np.mean(draws) == pytest.approx(expected, abs=0.02)


def test_unstopped_record_has_no_t():
    cfg = _cfg()
    rng = np.random.default_rng(3)
    lat = sample_latents(StopRecord(group=0, stopped=False), 0.0, 0.0, cfg, rng)
    assert lat.s < 0
    assert lat.t is None


def test_refresh_criminality_distribution():
    # c | s, t pools the unit prior with both unit-noise observations
    cfg = _cfg()
    rng = np.random.default_rng(4)
    rec = StopRecord(group=0, outcome=True)
    lat = sample_latents(rec, 0.5, 0.2, cfg, rng)
    draws = np.array([refresh_criminality(rec, lat, 0.2, cfg, rng) for _ in range(200_000)])
    want_mean = ((lat.s - 0.2) + lat.t) / 3.0
    assert draws.mean() == pytest.approx(want_mean, abs=0.01)
    assert draws.var() == pytest.approx(1.0 / 3.0, abs=0.01)


# --- accumulation -----------------------------------------------------------------

def test_single_record_unit_increments():
    # at alpha = gamma = 1 each record adds exactly 1 to its bias diagonal
    # and 1 to the criminality diagonal
    from latentbias.inference import LatentPair

    stats = NaturalAccumulator(3)
    cfg = _cfg(prior=PriorKind.INDEPENDENT)
    rec = StopRecord(group=1, outcome=True)
    accumulate_stats(rec, LatentPair(s=0.9, t=0.4), (0.1, 0.0), cfg, stats)
    assert stats.precision[1, 1] == 1.0
    assert stats.precision[2, 2] == 1.0
    assert stats.precision[0, 0] == 0.0
    assert stats.precision_mean[1] == pytest.approx(0.9 - 0.1)
    assert stats.precision_mean[2] == pytest.approx(0.4)
    # independent prior never writes the off-diagonals
    off = stats.precision - np.diag(np.diag(stats.precision))
    assert np.all(off == 0.0)


def test_dependent_adds_cross_terms():
    from latentbias.inference import LatentPair

    stats = NaturalAccumulator(3)
    cfg = _cfg(prior=PriorKind.DEPENDENT, alpha=2.0)
    rec = StopRecord(group=0, outcome=True)
    accumulate_stats(rec, LatentPair(s=1.0, t=0.5), (0.0, 0.0), cfg, stats)
    assert stats.precision[0, 2] == pytest.approx(0.5)
    assert stats.precision[2, 0] == pytest.approx(0.5)
    assert stats.precision[0, 0] == pytest.approx(0.5)


def test_zero_records_leaves_accumulator_empty():
    stats = NaturalAccumulator(4)
    assert np.all(stats.precision == 0.0)
    assert np.all(stats.precision_mean == 0.0)


def test_accumulation_additivity():
    from latentbias.inference import LatentPair

    cfg = _cfg(prior=PriorKind.DEPENDENT)
    rec = StopRecord(group=0, outcome=True)
    lat = LatentPair(s=1.3, t=-0.2)
    once = NaturalAccumulator(2)
    accumulate_stats(rec, lat, (0.3, 0.1), cfg, once)
    twice = NaturalAccumulator(2)
    accumulate_stats(rec, lat, (0.3, 0.1), cfg, twice)
    accumulate_stats(rec, lat, (0.3, 0.1), cfg, twice)
    assert np.allclose(twice.precision, 2.0 * once.precision)
    assert np.allclose(twice.precision_mean, 2.0 * once.precision_mean)


def test_conjugacy_against_closed_form():
    # one group, one record, fixed latents: the combination must equal the
    # hand-computed conjugate update exactly
    from latentbias.inference import LatentPair

    cfg = _cfg(prior=PriorKind.INDEPENDENT, alpha=2.0, gamma=0.5)
    prior = build_prior(PriorKind.INDEPENDENT, 1, group_means=(0.3,), group_variances=(4.0,))
    stats = NaturalAccumulator(2)
    s, t, c_used = 1.1, -0.7, 0.25
    accumulate_stats(StopRecord(group=0, outcome=False), LatentPair(s=s, t=t), (c_used, 0.0), cfg, stats)
    post = posterior_from_stats(prior, stats)
    lam_b = 1 / 4.0 + 1 / 2.0
    eta_b = 0.3 / 4.0 + (s - c_used) / 2.0
    lam_c = 1.0 + 1 / 0.5
    eta_c = 0.0 + t / 0.5
    assert post.joint.mean[0] == pytest.approx(eta_b / lam_b, abs=1e-10)
    assert post.joint.mean[1] == pytest.approx(eta_c / lam_c, abs=1e-10)
    assert post.joint.covariance[0, 0] == pytest.approx(1 / lam_b, abs=1e-10)
    assert post.joint.covariance[1, 1] == pytest.approx(1 / lam_c, abs=1e-10)
    assert post.joint.covariance[0, 1] == 0.0


# --- anchoring ---------------------------------------------------------------------

def _state(mean, cov, kind=PriorKind.DEPENDENT):
    from latentbias import MultivariateGaussian, PosteriorState

    return PosteriorState(
        joint=MultivariateGaussian(mean=mean, covariance=cov),
        prior_kind=kind,
        group_count=len(mean) - 1,
    )


def test_anchor_fixed_point():
    state = _state([0.5, -0.5, 0.0], np.eye(3))
    anchored = anchor(state)
    assert np.array_equal(anchored.joint.mean, state.joint.mean)
    assert np.array_equal(anchored.joint.covariance, state.joint.covariance)


def test_anchor_recentres_means():
    state = _state([1.0, 2.0, 1.0], np.eye(3))
    anchored = anchor(state)
    assert np.array_equal(anchored.joint.mean, [0.0, 1.0, 0.0])


def test_anchor_rescales_covariance():
    state = _state([0.3, -0.1, 0.2], 4.0 * np.eye(3))
    anchored = anchor(state)
    assert np.allclose(anchored.joint.covariance, np.eye(3))
    assert anchored.criminality_variance == 1.0


def test_anchor_idempotent():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    state = _state(rng.standard_normal(4), a @ a.T + 4 * np.eye(4))
    once = anchor(state)
    twice = anchor(once)
    assert np.allclose(twice.joint.mean, once.joint.mean, atol=1e-12)
    assert np.allclose(twice.joint.covariance, once.joint.covariance, rtol=1e-12)


def test_anchor_preserves_rank_order():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 5))
    state = _state(rng.standard_normal(5), a @ a.T + 5 * np.eye(5))
    anchored = anchor(state)
    assert np.array_equal(
        np.argsort(state.bias_means), np.argsort(anchored.bias_means)
    )


# --- single sweep --------------------------------------------------------------------

def test_sweep_empty_dataset_returns_state():
    cfg = _cfg(prior=PriorKind.DEPENDENT)
    prior = build_prior(PriorKind.DEPENDENT, 3)
    out = gibbs_sweep(prior, [], cfg, np.random.default_rng(0))
    assert np.array_equal(out.joint.mean, prior.joint.mean)
    assert np.array_equal(out.joint.covariance, prior.joint.covariance)


def test_sweep_independent_keeps_cross_zero_and_anchored_c_standard():
    cfg = _cfg(prior=PriorKind.INDEPENDENT)
    prior = build_prior(PriorKind.INDEPENDENT, 2)
    records = [StopRecord(group=i % 2, outcome=i % 3 == 0) for i in range(60)]
    out = gibbs_sweep(prior, records, cfg, np.random.default_rng(0))
    off = out.joint.covariance - np.diag(np.diag(out.joint.covariance))
    assert np.all(off == 0.0)
    anchored = anchor(out)
    assert anchored.criminality_mean == 0.0
    assert anchored.criminality_variance == 1.0


def test_sweep_single_draw_mode_runs():
    cfg = _cfg(prior=PriorKind.DEPENDENT, per_record_draws=False)
    prior = build_prior(PriorKind.DEPENDENT, 2)
    records = [StopRecord(group=i % 2, outcome=i % 2 == 0) for i in range(40)]
    out = gibbs_sweep(prior, records, cfg, np.random.default_rng(5))
    assert out.joint.dim == 3


def test_sweep_batch_matches_scalar_accumulation():
    # the vectorised chain and the scalar ops share the accumulate formulas:
    # feeding identical latents through both paths gives identical stats
    from latentbias.inference import LatentPair

    cfg = _cfg(prior=PriorKind.DEPENDENT, alpha=1.3, gamma=0.8)
    records = [StopRecord(group=g, outcome=o) for g, o in
               [(0, True), (0, False), (1, True), (1, True), (1, False)]]
    s_vals = [0.5, 1.2, 0.3, 2.0, 0.9]
    t_vals = [0.4, -0.6, 1.0, 0.2, -1.1]
    c_vals = [0.1, -0.2, 0.3, 0.0, 0.5]
    scalar = NaturalAccumulator(3)
    for rec, s, t, c in zip(records, s_vals, t_vals, c_vals):
        accumulate_stats(rec, LatentPair(s=s, t=t), (c, 0.0), cfg, scalar)
    # vectorised equivalent, grouped exactly as run_gibbs does it
    vec = NaturalAccumulator(3)
    for g in (0, 1):
        idx = [i for i, r in enumerate(records) if r.group == g]
        s_arr = np.array([s_vals[i] for i in idx])
        t_arr = np.array([t_vals[i] for i in idx])
        c_arr = np.array([c_vals[i] for i in idx])
        vec.precision[g, g] += len(idx) / cfg.alpha
        vec.precision_mean[g] += float(np.sum(s_arr - c_arr)) / cfg.alpha
        vec.precision[2, 2] += len(idx) / cfg.gamma
        vec.precision_mean[2] += float(np.sum(t_arr)) / cfg.gamma
        vec.precision[g, 2] += len(idx) / cfg.alpha
        vec.precision[2, g] += len(idx) / cfg.alpha
    assert np.allclose(scalar.precision, vec.precision, atol=1e-12)
    assert np.allclose(scalar.precision_mean, vec.precision_mean, atol=1e-12)


# --- bias-conditional sampler ---------------------------------------------------------

def _unbinned_log_target(grid, cs, m0, v0, sqrt_alpha):
    # the conditional before binning, evaluated record by record
    out = -((grid - m0) ** 2) / (2.0 * v0)
    for c in cs:
        out = out + log_ndtr((c + grid) / sqrt_alpha)
    return out


def _quadrature_cdf(cs, m0, v0, sqrt_alpha, draws, points=4001):
    pad = 5.0 * draws.std()
    grid = np.linspace(draws.min() - pad, draws.max() + pad, points)
    logp = _unbinned_log_target(grid, cs, m0, v0, sqrt_alpha)
    dens = np.exp(logp - logp.max())
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))))
    return lambda x: np.interp(x, grid, cdf / cdf[-1])


def _bias_chain(cs, m0, v0, sqrt_alpha, seed, draws, thin=5, burn=50):
    rng = np.random.default_rng(seed)
    current, mode = m0, None
    kept, moves = [], 0
    for i in range(burn + draws * thin):
        new, mode = inference._sample_bias_conditional(cs, m0, v0, sqrt_alpha, current, rng, mode)
        moves += new != current
        current = new
        if i >= burn and (i - burn) % thin == 0:
            kept.append(current)
    return np.asarray(kept), moves / (burn + draws * thin), mode


def _mills(z):
    # phi(z) / Phi(z) through the scaled complementary error function
    return math.sqrt(2.0 / math.pi) / erfcx(-np.asarray(z) / math.sqrt(2.0))


@pytest.mark.parametrize("n, seed", [(5, 31), (9374, 32)])
def test_bias_conditional_matches_unbinned_quadrature(n, seed):
    cs = np.random.default_rng(seed).normal(-1.0, 1.0, size=n)
    draws, accept, _mode = _bias_chain(cs, 0.0, 1.0, 1.0, seed, draws=2000)
    assert accept > 0.5
    cdf = _quadrature_cdf(cs, 0.0, 1.0, 1.0, draws)
    assert stats.kstest(draws, cdf).pvalue > 0.01


def test_bias_conditional_single_bin():
    cs = np.full(50, 0.3)
    centers, weights = inference._bin_criminalities(cs)
    assert centers.tolist() == [0.3] and weights.tolist() == [50.0]
    draws, _accept, mode = _bias_chain(cs, 0.5, 2.0, 1.5, 33, draws=1000)
    z = (0.3 + mode) / 1.5
    assert -(mode - 0.5) / 2.0 + 50.0 * float(_mills(z)) / 1.5 == pytest.approx(0.0, abs=1e-8)
    cdf = _quadrature_cdf(cs, 0.5, 2.0, 1.5, draws)
    assert stats.kstest(draws, cdf).pvalue > 0.01


def test_bias_conditional_far_tail_mode():
    # the prior pins beta near 0, so every record sits at z < -40, where
    # Phi underflows and a pdf / cdf Mills ratio reads 0 instead of |z|
    cs = np.array([-50.0, -49.5, -49.0])
    m0, v0 = 0.0, 1e-4
    rng = np.random.default_rng(34)
    value, mode = inference._sample_bias_conditional(cs, m0, v0, 1.0, m0, rng, None)
    centers, weights = inference._bin_criminalities(cs)
    z = centers + mode
    assert np.all(z < -40)
    assert math.isfinite(value) and math.isfinite(mode)
    pull = float(weights @ _mills(z))
    assert pull == pytest.approx(148.5, rel=1e-3)  # ~ sum |z|
    assert -(mode - m0) / v0 + pull == pytest.approx(0.0, abs=1e-6 * pull)
    assert abs(value - mode) < 10 * math.sqrt(v0)


def test_bias_conditional_same_seed_same_draws():
    cs = np.random.default_rng(35).normal(0.5, 1.0, size=300)

    def run(seed):
        rng = np.random.default_rng(seed)
        current, mode, out = 0.0, None, []
        for _ in range(20):
            current, mode = inference._sample_bias_conditional(
                cs, 0.0, 1.0, 1.0, current, rng, mode
            )
            out.append((current, mode))
        return out

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_bias_binning_matches_histogram():
    cs = np.random.default_rng(36).normal(size=5000)
    centers, weights = inference._bin_criminalities(cs)
    counts, edges = np.histogram(cs, bins=128)
    keep = counts > 0
    assert np.array_equal(weights, counts[keep].astype(float))
    assert np.allclose(centers, 0.5 * (edges[:-1] + edges[1:])[keep], rtol=0, atol=1e-12)


def test_bias_mode_solve_raises_when_capped(monkeypatch):
    monkeypatch.setattr(inference, "_BIAS_NEWTON_STEPS", 1)
    cs = np.random.default_rng(37).normal(-1.0, 1.0, size=200)
    with pytest.raises(NumericalError):
        inference._sample_bias_conditional(cs, 0.0, 1.0, 1.0, 0.0, np.random.default_rng(0), None)


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


def test_run_gibbs_anchored_criminality_rows():
    records = _asym_records((300, 200), positive_rate=3)
    summary, trace = run_gibbs(records, _cfg(seed=7, sweeps=25, burn_in=5))
    k = trace.group_count
    assert np.all(trace.means[:, k] == 0.0)
    assert np.all(trace.variances[:, k] == 1.0)
    assert summary.criminality_mean == 0.0


def test_run_gibbs_independent_conservation():
    records = _asym_records((300, 200), positive_rate=3)
    cfg = _cfg(seed=7, sweeps=25, burn_in=5, prior=PriorKind.INDEPENDENT)
    _summary, trace = run_gibbs(records, cfg)
    k = trace.group_count
    assert np.all(trace.means[:, k] == 0.0)
    assert np.all(trace.variances[:, k] == 1.0)
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
    counts = [sum(1 for r in records if r.group == g) for g in range(3)]
    n = min(counts)
    trimmed = []
    seen = [0, 0, 0]
    for rec in records:
        if seen[rec.group] < n:
            trimmed.append(rec)
            seen[rec.group] += 1
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


def test_divergence_guard_configurable():
    records = _asym_records((200, 100), positive_rate=3)
    cfg = _cfg(seed=1, sweeps=30, burn_in=5, divergence_mean_limit=1e-9)
    with pytest.raises(DivergenceError) as exc:
        run_gibbs(records, cfg)
    assert exc.value.sweep == 0


def test_drift_slope_positive_for_unanchored_free_chain():
    # with the guard lifted, the uncorrected chain's criminality mean moves
    # away from zero monotonically in trend: the drift diagnostic is positive
    records = _asym_records((800, 500), positive_rate=3)
    cfg = _cfg(
        seed=8, sweeps=25, burn_in=5, prior=PriorKind.FREE,
        divergence_mean_limit=1e200, divergence_variance_limit=1e200,
    )
    _summary, trace = run_gibbs(records, cfg)
    assert drift_slope(trace) > 0
    magnitudes = np.abs(trace.means[:, trace.group_count])
    assert magnitudes[-1] > magnitudes[0]


def test_rejects_unstopped_and_empty():
    with pytest.raises(DomainError):
        run_gibbs([], _cfg())
    with pytest.raises(DomainError):
        run_gibbs([StopRecord(group=0, stopped=False)], _cfg())


def test_run_gibbs_single_draw_mode_deterministic():
    records = _asym_records((200, 150), positive_rate=3)
    cfg = _cfg(seed=13, sweeps=30, burn_in=5, per_record_draws=False)
    s1, t1 = run_gibbs(records, cfg)
    s2, t2 = run_gibbs(records, cfg)
    assert np.array_equal(t1.means, t2.means)
    assert sorted(s1.rank.tolist()) == [1, 2]
    assert np.all(t1.means[:, 2] == 0.0)


def test_run_gibbs_custom_prior_and_groups():
    from latentbias import EthnicGroup

    records = _asym_records((200, 150), positive_rate=3)
    groups = [EthnicGroup(0, "first"), EthnicGroup(1, "second")]
    prior = build_prior(PriorKind.DEPENDENT, 2, group_means=(0.5, -0.5),
                        group_variances=(2.0, 2.0))
    summary, _ = run_gibbs(records, _cfg(seed=3, sweeps=20, burn_in=5),
                           groups=groups, prior_state=prior)
    assert summary.labels == ["first", "second"]
    # a correlated prior covariance is rejected up front
    from latentbias import MultivariateGaussian, PosteriorState

    cov = np.eye(3)
    cov[0, 1] = cov[1, 0] = 0.3
    bad = PosteriorState(
        joint=MultivariateGaussian(mean=np.zeros(3), covariance=cov),
        prior_kind=PriorKind.DEPENDENT,
        group_count=2,
    )
    with pytest.raises(DomainError):
        run_gibbs(records, _cfg(seed=3, sweeps=20, burn_in=5), prior_state=bad)


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
        variances=np.array([[1.000000001234, 1.0, 1.0]]),
        cross_cov=np.array([[-0.987654321987]]),
        wall_times=np.zeros(1),
        group_count=2,
    )
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    row = buf.getvalue().splitlines()[1]
    assert "0.123456789123" in row
    assert "-0.987654321987" in row


def test_summary_json_roundtrip():
    records = _asym_records((150, 100), positive_rate=3)
    summary, _ = run_gibbs(records, _cfg(seed=4, sweeps=12, burn_in=2))
    back = PosteriorSummary.from_json(summary.to_json())
    assert back.labels == summary.labels
    assert np.allclose(back.bias_mean, summary.bias_mean)
    assert back.prior_kind is summary.prior_kind


def test_summary_csv_schema():
    records = _asym_records((150, 100), positive_rate=3)
    summary, _ = run_gibbs(records, _cfg(seed=4, sweeps=12, burn_in=2))
    buf = io.StringIO()
    summary.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "rank,label,bias_mean,bias_variance"
    assert len(lines) == 3
    assert lines[1].startswith("1,")
