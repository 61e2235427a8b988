"""Gibbs sampling over truncated-Gaussian latents with drift correction.

Every stopped record contributes two latent variables: a stopping
susceptibility ``S`` (sign fixed to the stop indicator) and a true
criminality ``T`` (sign fixed to the outcome). A sweep redraws the latents
of each group's records as one array, refreshes each record's
criminality, accumulates the resulting Gaussian pseudo-observations in
natural-parameter form, and combines them with the prior.

Three structural rules distinguish the prior regimes:

* bias precision: each record adds ``1/alpha`` to its group's diagonal;
* criminality precision: each outcome adds ``1/gamma`` to the criminality
  diagonal (all regimes - this is what gives anchored bias variances their
  characteristic ``(1 + N) / (1 + n_k)`` scale);
* cross precision: DEPENDENT and FREE add ``1/alpha`` to the
  bias/criminality cross entries, INDEPENDENT never writes them.

The anchoring flag is the drift correction. With it on, recorded states
are re-centred so the criminality mean is exactly zero and rescaled so its
variance is exactly one, and the chain itself runs a stabilised update
(coordinate-wise conjugate combination, per-record bias draws centred on
the current bias sample). Once per sweep, each bias sample is advanced
by independence Metropolis-Hastings steps whose target is the bias
conditional with the record criminalities binned into 128 equal-width
bins; the proposal is a Student-t at that conditional's mode, found by a
safeguarded Newton solve. With it off the chain applies the
coupled natural-parameter combination literally; because the cross terms
make that solve amplify any mismatch between bias-side and outcome-side
evidence by roughly ``N / (K + 1)`` per sweep, unanchored runs under the
FREE regime diverge within a few sweeps on asymmetric data - the
documented instability this package preserves deliberately. The guard
raises :class:`~latentbias.errors.DivergenceError` carrying the sweep
index instead of overflowing.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import TextIO

import numpy as np
from scipy.special import log_ndtr

from .data import Dataset
from .errors import ConditioningError, DivergenceError, DomainError, NumericalError
from .gaussians import sample_truncated_normal
from .model import ModelConfig, PriorKind, build_prior, descending_order

__all__ = [
    "GibbsTrace",
    "PosteriorSummary",
    "run_gibbs",
    "drift_slope",
    "write_trace_csv",
    "read_trace_csv",
]

# bias-conditional sampler: criminality bins, mode solve, Student-t proposal
_BIAS_BINS = 128
_BIAS_NEWTON_STEPS = 60
_BIAS_MODE_TOL = 1e-10
_BIAS_T_DOF = 4.0
_BIAS_MH_STEPS = 3
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass
class GibbsTrace:
    """Per-sweep record of the chain for convergence inspection.

    ``means`` and ``variances`` have one row per sweep and K+1 columns
    (bias coordinates then criminality); ``cross_cov`` holds the
    covariance between criminality and each bias coordinate. Wall times
    are kept for reporting but never written to the CSV export, which must
    be byte-deterministic.
    """

    means: np.ndarray
    variances: np.ndarray
    cross_cov: np.ndarray
    wall_times: np.ndarray
    group_count: int

    @property
    def sweeps(self) -> int:
        return self.means.shape[0]


def write_trace_csv(trace: GibbsTrace, stream: TextIO) -> None:
    """Trace CSV: ``sweep,beta_*_mean,C_mean,beta_*_var,C_var,cov_C_beta_*``."""
    k = trace.group_count
    header = (
        ["sweep"]
        + [f"beta_{i}_mean" for i in range(k)]
        + ["C_mean"]
        + [f"beta_{i}_var" for i in range(k)]
        + ["C_var"]
        + [f"cov_C_beta_{i}" for i in range(k)]
    )
    stream.write(",".join(header) + "\n")
    for i in range(trace.sweeps):
        row = [str(i)]
        row += [f"{v:.12g}" for v in trace.means[i]]
        row += [f"{v:.12g}" for v in trace.variances[i]]
        row += [f"{v:.12g}" for v in trace.cross_cov[i]]
        stream.write(",".join(row) + "\n")


def read_trace_csv(stream: TextIO) -> GibbsTrace:
    header = stream.readline().strip().split(",")
    if not header or header[0] != "sweep" or "C_mean" not in header:
        raise DomainError("not a trace CSV: bad header")
    k = header.index("C_mean") - 1
    expected = 1 + (k + 1) * 2 + k
    rows = []
    for line in stream:
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != expected:
            raise DomainError(f"trace row has {len(parts)} fields, expected {expected}")
        try:
            rows.append([float(x) for x in parts[1:]])
        except ValueError as exc:
            raise DomainError(f"trace row has a non-numeric field: {exc}") from None
    if not rows:
        raise DomainError("trace CSV has no rows")
    data = np.asarray(rows)
    return GibbsTrace(
        means=data[:, : k + 1],
        variances=data[:, k + 1 : 2 * k + 2],
        cross_cov=data[:, 2 * k + 2 :],
        wall_times=np.zeros(data.shape[0]),
        group_count=k,
    )


@dataclass
class PosteriorSummary:
    """Post-burn-in summary: per-group bias belief and rank, plus the
    criminality marginal and the run metadata needed to reuse it."""

    labels: list[str]
    bias_mean: np.ndarray
    bias_variance: np.ndarray
    rank: np.ndarray  # rank[i] = 1-based rank of group i (1 = largest mean)
    criminality_mean: float
    criminality_variance: float
    prior_kind: PriorKind
    sweeps: int

    def ranked_indices(self) -> np.ndarray:
        """Group indices ordered best rank first."""
        return np.argsort(self.rank)

    def to_csv(self, stream: TextIO) -> None:
        stream.write("rank,label,bias_mean,bias_variance\n")
        for idx in self.ranked_indices():
            stream.write(
                f"{int(self.rank[idx])},{self.labels[idx]},"
                f"{self.bias_mean[idx]:.12g},{self.bias_variance[idx]:.12g}\n"
            )

    def to_json(self) -> str:
        return json.dumps(
            {
                "labels": self.labels,
                "bias_mean": [float(v) for v in self.bias_mean],
                "bias_variance": [float(v) for v in self.bias_variance],
                "rank": [int(v) for v in self.rank],
                "criminality_mean": self.criminality_mean,
                "criminality_variance": self.criminality_variance,
                "prior_kind": self.prior_kind.value,
                "sweeps": self.sweeps,
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "PosteriorSummary":
        try:
            d = json.loads(text)
            return cls(
                labels=list(d["labels"]),
                bias_mean=np.asarray(d["bias_mean"], dtype=float),
                bias_variance=np.asarray(d["bias_variance"], dtype=float),
                rank=np.asarray(d["rank"], dtype=int),
                criminality_mean=float(d["criminality_mean"]),
                criminality_variance=float(d["criminality_variance"]),
                prior_kind=PriorKind.from_string(d["prior_kind"]),
                sweeps=int(d["sweeps"]),
            )
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise DomainError(f"not a posterior summary: {exc}") from None


def _ranks_desc(values: np.ndarray) -> np.ndarray:
    ranks = np.empty(values.size, dtype=int)
    ranks[descending_order(values)] = np.arange(1, values.size + 1)
    return ranks


def _bin_criminalities(cs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bin centres and counts of ``cs`` over ``_BIAS_BINS`` equal-width bins
    spanning ``[min, max]``; empty bins are dropped."""
    lo, hi = float(cs.min()), float(cs.max())
    if hi - lo < 1e-9:
        return np.array([0.5 * (lo + hi)]), np.array([float(cs.size)])
    width = (hi - lo) / _BIAS_BINS
    counts = np.bincount(((cs - lo) / width).astype(np.intp), minlength=_BIAS_BINS + 1)
    counts[_BIAS_BINS - 1] += counts[_BIAS_BINS]  # the maximum belongs to the last bin
    keep = np.flatnonzero(counts[:_BIAS_BINS])
    return lo + (keep + 0.5) * width, counts[keep].astype(float)


def _sample_bias_conditional(
    cs: np.ndarray,
    m0: float,
    v0: float,
    sqrt_alpha: float,
    current: float,
    rng: np.random.Generator,
    prev_mode: float | None,
) -> tuple[float, float]:
    """Metropolis-Hastings update of a bias coordinate; returns
    ``(new value, mode)``.

    With the susceptibility latents integrated out, the conditional given
    the record criminalities of an all-stopped group is

        p(beta) propto N(beta; m0, v0) * prod_i Phi((c_i + beta)/sqrt(alpha))

    which is log-concave. The criminalities are binned into ``_BIAS_BINS``
    equal-width bins (each record enters at its bin centre). The mode is a
    safeguarded Newton solve on the closed-form score, warm-started at
    ``prev_mode``, with the Mills ratio taken in log space so it stays
    finite far in the lower tail. Starting from ``current``, the chain then
    takes ``_BIAS_MH_STEPS`` independence MH steps, each proposing from a
    Student-t centred at the mode and scaled by the inverse square root of
    the negative Hessian there, so it targets the binned conditional
    exactly. Collapsing the latents here is what lets the chain mix in a
    handful of sweeps instead of O(n).

    Raises:
        NumericalError: if the mode solve does not converge.
    """
    centers, weights = _bin_criminalities(cs)
    alpha = sqrt_alpha * sqrt_alpha
    x = m0 if prev_mode is None else prev_mode
    blo, bhi = -math.inf, math.inf  # score(blo) > 0 > score(bhi)
    for _ in range(_BIAS_NEWTON_STEPS):
        z = (centers + x) / sqrt_alpha
        lam = np.exp(-0.5 * z * z - _LOG_SQRT_2PI - log_ndtr(z))
        score = -(x - m0) / v0 + float(weights @ lam) / sqrt_alpha
        hess = -1.0 / v0 - float(weights @ (lam * (z + lam))) / alpha
        if not (math.isfinite(score) and hess < 0):
            raise NumericalError(f"bias mode solve hit a non-finite score at {x:.3g}")
        if score > 0:
            blo = x
        else:
            bhi = x
        step = -score / hess
        if abs(step) <= _BIAS_MODE_TOL * (1.0 + abs(x)) or bhi - blo <= _BIAS_MODE_TOL:
            break
        x += step
        if not (blo < x < bhi):  # Newton overshot the sign bracket: bisect
            x = 0.5 * (blo + bhi)
    else:
        raise NumericalError(f"bias mode solve did not converge (last score {score:.3g})")
    mode, scale = x, 1.0 / math.sqrt(-hess)

    # the steps share one vectorised evaluation of the target; with a single
    # step the rejections cluster and cut the bias chain's ESS by about a third
    proposals = mode + scale * rng.standard_t(_BIAS_T_DOF, size=_BIAS_MH_STEPS)
    uniforms = rng.random(_BIAS_MH_STEPS)
    pts = np.concatenate(([current], proposals))
    z = (centers[None, :] + pts[:, None]) / sqrt_alpha
    log_target = -((pts - m0) ** 2) / (2.0 * v0) + log_ndtr(z) @ weights
    log_proposal = -0.5 * (_BIAS_T_DOF + 1.0) * np.log1p(((pts - mode) / scale) ** 2 / _BIAS_T_DOF)
    log_weight = (log_target - log_proposal).tolist()
    state = 0
    for i, u in enumerate(uniforms.tolist(), start=1):
        log_ratio = log_weight[i] - log_weight[state]
        if log_ratio >= 0 or u < math.exp(log_ratio):
            state = i
    return float(pts[state]), mode


def _assemble_report_precision(
    prior_variances: np.ndarray, counts: np.ndarray, config: ModelConfig
) -> np.ndarray:
    """Prior precision ``diag(1/v, 1)`` plus the data's: ``1/alpha`` per
    record on its bias diagonal (and, except under INDEPENDENT, on its
    bias/criminality cross entries) and ``1/gamma`` per record on the
    criminality diagonal."""
    k = prior_variances.size
    per_group = counts / config.alpha
    lam = np.diag(np.append(1.0 / prior_variances + per_group,
                            1.0 + int(counts.sum()) / config.gamma))
    if config.prior is not PriorKind.INDEPENDENT:
        lam[k, :k] = lam[:k, k] = per_group
    return lam


def run_gibbs(
    dataset: Dataset,
    config: ModelConfig,
    prior: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[PosteriorSummary, GibbsTrace]:
    """Run the full chain and summarise the post-burn-in sweeps.

    The chain keeps one persistent criminality value per record (each
    individual owns a latent criminality) and, per sweep and group, draws
    per-record bias values, redraws the latents, refreshes the
    criminalities, and recombines the accumulated evidence with the
    original prior. ``prior`` is a ``(means, variances)`` pair of
    independent bias priors as :func:`~latentbias.model.build_prior`
    returns it (default: zero means, unit variances); the criminality
    prior is N(0,1). With anchoring on (the default except under FREE) the
    update is the stabilised one and every recorded sweep satisfies
    ``C_mean == 0`` and ``C_var == 1`` exactly; with anchoring off the
    literal coupled combination is applied and recorded raw.

    Entirely deterministic given ``config.seed``: two runs with equal
    inputs produce bit-identical traces. The summary carries
    ``dataset.labels``; every label needs at least one record.

    Raises:
        ConditioningError: when the posterior precision is not positive
            definite, which DEPENDENT and FREE reach when ``gamma`` is well
            above ``alpha``.
        DivergenceError: when any recorded mean magnitude exceeds
            ``config.divergence_mean_limit`` or any variance exceeds
            ``config.divergence_variance_limit``; the exception carries
            the sweep index and the partial trace. The recorded variances
            are fixed before sweep 0, so that limit trips at sweep 0 with
            an empty trace.
    """
    if len(dataset) == 0:
        raise DomainError("dataset must be nonempty")
    k = len(dataset.labels)
    labels = list(dataset.labels)
    counts = dataset.counts()
    if np.any(counts == 0):
        empty = [labels[i] for i in np.nonzero(counts == 0)[0]]
        raise DomainError(f"groups with no records: {empty}")
    # outcome signs of each group's records, in row order
    taus = [np.where(dataset.outcome[dataset.group == g], 1.0, -1.0) for g in range(k)]
    m0, v0 = build_prior(k) if prior is None else build_prior(k, *prior)

    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    alpha, gamma = config.alpha, config.gamma
    sqrt_a = math.sqrt(alpha)
    stabilised = config.anchoring_enabled

    lam_rep = _assemble_report_precision(v0, counts, config)
    try:
        np.linalg.cholesky(lam_rep)
    except np.linalg.LinAlgError:
        raise ConditioningError(
            f"the {config.prior.value} prior's posterior precision is not positive definite "
            f"at alpha={alpha:g}, gamma={gamma:g}; lower gamma or raise alpha"
        ) from None
    cov_rep = np.linalg.inv(lam_rep)
    cov_rep = 0.5 * (cov_rep + cov_rep.T)
    eta0 = np.append(m0 / v0, 0.0)
    prec_diag = np.diag(lam_rep).copy()
    # per-record bias draws: around the current bias sample with the
    # conditional sd when stabilised, around the coupled mean with the
    # marginal sd otherwise
    draw_sd = np.sqrt(1.0 / prec_diag[:k] if stabilised else np.diag(cov_rep)[:k])

    # persistent per-record criminalities, initialised from their prior
    crims = [rng.standard_normal(int(n)) for n in counts]
    bias_sample = m0.copy()
    modes: list[float | None] = [None] * k
    mean = np.append(m0, 0.0)

    v_stop = 1.0 / (1.0 + 1.0 / alpha + 1.0 / gamma)
    sd_stop = math.sqrt(v_stop)

    sweeps = config.sweeps
    trace_means = np.empty((sweeps, k + 1))
    trace_vars = np.empty((sweeps, k + 1))
    trace_cross = np.empty((sweeps, k))
    wall = np.empty(sweeps)

    rec_cov = cov_rep / cov_rep[k, k] if stabilised else cov_rep
    rec_var_row = np.diag(rec_cov).copy()
    rec_cross_row = rec_cov[k, :k].copy()

    def diverged(sweep: int, message: str) -> DivergenceError:
        partial = GibbsTrace(
            means=trace_means[:sweep].copy(),
            variances=trace_vars[:sweep].copy(),
            cross_cov=trace_cross[:sweep].copy(),
            wall_times=wall[:sweep].copy(),
            group_count=k,
        )
        return DivergenceError(f"chain diverged at sweep {sweep} ({message})",
                               sweep=sweep, trace=partial)

    # the recorded variances are fixed before sweep 0, so they are checked once
    if np.any(rec_var_row > config.divergence_variance_limit):
        raise diverged(0, f"max variance {rec_var_row.max():.3g} exceeds "
                          f"{config.divergence_variance_limit:.3g}")

    for sweep in range(sweeps):
        t0 = time.perf_counter()
        eta = eta0.copy()
        centre = bias_sample if stabilised else mean
        for g in range(k):
            n = int(counts[g])
            c, tau = crims[g], taus[g]
            b = centre[g] + draw_sd[g] * rng.standard_normal(n)
            s_lat = sample_truncated_normal(c + b, alpha, rng)
            # the outcome latent lives on tau * x > 0: draw it mirrored onto x > 0
            t_lat = tau * sample_truncated_normal(tau * c, gamma, rng)
            c = v_stop * ((s_lat - b) / alpha + t_lat / gamma) + sd_stop * rng.standard_normal(n)
            crims[g] = c
            eta[g] += float(np.sum(s_lat - c)) / alpha
            eta[k] += float(np.sum(t_lat)) / gamma
            if stabilised:
                bias_sample[g], modes[g] = _sample_bias_conditional(
                    c, float(m0[g]), float(v0[g]),
                    sqrt_a, float(bias_sample[g]), rng, modes[g],
                )
        if stabilised:
            mean = eta / prec_diag
        else:
            mean = cov_rep @ eta
        if np.any(np.abs(mean) > config.divergence_mean_limit):
            raise diverged(sweep, f"max |mean| {np.abs(mean).max():.3g}")
        trace_means[sweep] = mean - mean[k] if stabilised else mean
        trace_vars[sweep] = rec_var_row
        trace_cross[sweep] = rec_cross_row
        wall[sweep] = time.perf_counter() - t0

    trace = GibbsTrace(
        means=trace_means, variances=trace_vars, cross_cov=trace_cross,
        wall_times=wall, group_count=k,
    )
    post = slice(config.burn_in, None)
    mean_avg = trace_means[post].mean(axis=0)
    var_avg = trace_vars[post].mean(axis=0)
    summary = PosteriorSummary(
        labels=labels,
        bias_mean=mean_avg[:k],
        bias_variance=var_avg[:k],
        rank=_ranks_desc(mean_avg[:k]),
        criminality_mean=float(mean_avg[k]),
        criminality_variance=float(var_avg[k]),
        prior_kind=config.prior,
        sweeps=sweeps,
    )
    return summary, trace


def drift_slope(trace: GibbsTrace) -> float:
    """Least-squares slope of |criminality mean| against sweep index.

    The drift diagnostic: positive when the criminality coordinate is
    moving away from zero in trend, exactly zero for anchored traces.
    """
    y = np.abs(trace.means[:, trace.group_count])
    x = np.arange(y.size, dtype=float)
    if y.size < 2:
        return 0.0
    x = x - x.mean()
    return float(np.sum(x * (y - y.mean())) / np.sum(x * x))
