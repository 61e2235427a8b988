"""Gibbs sampling of per-group bias, with and without drift correction.

Every stopped record has two latents: a stopping susceptibility ``S``
(sign fixed to the stop) and a true criminality ``T`` (sign fixed to the
outcome). The anchoring flag is the drift correction. With it on (the
default except under FREE), each person's criminality is N(0,1) with no
shared term, so the latents integrate out and a group's bias conditional
depends only on its counts: a :class:`~latentbias.kernel.CountTarget`, the
bias prior times the positive and negative stop cells of
:class:`~latentbias.model.CellModel`, which gives their log masses and
their derivatives. Each sweep advances every bias by the independence
Metropolis-Hastings steps of :mod:`~latentbias.kernel`, O(K) work with no
per-record draws; the targets do not move, so the kernel draws a fit's
proposals and uniforms in one batch and evaluates each target once, on all
its proposals.
With it off the chain expands the outcome tally into one record per stop,
in one fixed order (group code, then outcome), so its output depends only
on the counts and the seed; it keeps one criminality per record, redraws
the latents, and applies the coupled natural-parameter combination
literally; each sweep is one array pass over every record (two
truncated-normal calls, the per-group sums by ``np.bincount``);
the cross terms amplify any mismatch between bias-side and outcome-side
evidence by roughly ``N / (K + 1)`` per sweep, so unanchored FREE runs
diverge within a few sweeps on asymmetric data - the documented
instability this package keeps. The guard raises
:class:`~latentbias.errors.DivergenceError` with the sweep index instead of
overflowing.

The recorded variances are a fixed report: the inverse of a precision in
which each record adds ``1/alpha`` to its group's bias diagonal, each
outcome adds ``1/gamma`` to the criminality diagonal, and DEPENDENT and
FREE (never INDEPENDENT) add ``1/alpha`` to the cross entries; anchored
runs divide it by its criminality entry. That gives anchored bias
variances their ``(1 + N) / (1 + n_k)`` scale, a reporting formula and not
the spread of the bias draws.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .data import Dataset, csv_field
from .errors import ConditioningError, DivergenceError, DomainError
from .gaussians import sample_truncated_normal
from .kernel import MH_STEPS, T_DOF, CountTarget, log_weights, mh_states, proposals
from .model import (DIVERGENCE_MEAN_LIMIT, DIVERGENCE_VARIANCE_LIMIT, CellModel, ModelConfig,
                    PriorKind, build_prior, descending_order)

__all__ = [
    "GibbsTrace",
    "PosteriorSummary",
    "run_gibbs",
    "drift_slope",
    "write_trace_csv",
    "read_trace_csv",
]

@dataclass
class GibbsTrace:
    """Per-sweep record of the chain for convergence inspection.

    ``means`` has one row per sweep and K+1 columns (bias coordinates then
    criminality). ``variances`` (K+1) and ``cross_cov`` (K, the covariance
    between criminality and each bias coordinate) are the fixed report,
    held once. Wall times are kept for reporting but never written to the
    CSV export, which must be byte-deterministic. An anchored chain's wall
    times are equal shares of its time, so their percentiles are all equal.
    """

    means: np.ndarray
    variances: np.ndarray
    cross_cov: np.ndarray
    wall_times: np.ndarray

    @property
    def sweeps(self) -> int:
        return self.means.shape[0]

    @property
    def group_count(self) -> int:
        return self.means.shape[1] - 1


def _trace_header(k: int) -> str:
    """The trace CSV header for ``k`` groups, without its newline."""
    return ",".join(["sweep", *(f"beta_{i}_mean" for i in range(k)), "C_mean",
                     *(f"beta_{i}_var" for i in range(k)), "C_var",
                     *(f"cov_C_beta_{i}" for i in range(k))])


def write_trace_csv(trace: GibbsTrace, stream: TextIO) -> None:
    """Trace CSV: ``sweep,beta_*_mean,C_mean,beta_*_var,C_var,cov_C_beta_*``,
    the report repeated on every row."""
    stream.write(_trace_header(trace.group_count) + "\n")
    report = ",".join(f"{v:.12g}" for v in trace.variances.tolist() + trace.cross_cov.tolist())
    for i, means in enumerate(trace.means.tolist()):
        stream.write(f"{i},{','.join(f'{v:.12g}' for v in means)},{report}\n")


def read_trace_csv(stream: TextIO) -> GibbsTrace:
    """The trace :func:`write_trace_csv` wrote; the group count K is read
    from the place of ``C_mean`` in the header.

    Raises:
        DomainError: if the header is not the one written for K >= 1
            groups, a row has the wrong field count or a non-numeric or
            non-finite field, there are no rows, or the rows disagree on the
            variance report.
    """
    header = stream.readline().strip()
    names = header.split(",")
    if "C_mean" not in names:
        raise DomainError("not a trace CSV: bad header")
    k = names.index("C_mean") - 1
    if k < 1:
        raise DomainError("not a trace CSV: no bias column before C_mean")
    if header != _trace_header(k):
        raise DomainError(f"not a trace CSV: bad header for K = {k}, want {_trace_header(k)}")
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
    if not np.isfinite(data).all():
        raise DomainError("trace CSV holds a non-finite value")
    report = data[0, k + 1 :]
    if (data[:, k + 1 :] != report).any():
        raise DomainError("trace rows disagree on the variance report")
    return GibbsTrace(means=data[:, : k + 1], variances=report[: k + 1],
                      cross_cov=report[k + 1 :], wall_times=np.zeros(data.shape[0]))


@dataclass
class PosteriorSummary:
    """Post-burn-in summary: per-group bias belief and rank, plus the
    criminality marginal and the run metadata needed to reuse it.

    ``alpha`` and ``gamma`` are the fit's noise variances; a summary written
    before they were recorded reads them as 1, the fit's default."""

    labels: list[str]
    bias_mean: np.ndarray
    bias_variance: np.ndarray
    rank: np.ndarray  # rank[i] = 1-based rank of group i (1 = largest mean)
    criminality_mean: float
    criminality_variance: float
    prior_kind: PriorKind
    sweeps: int
    alpha: float = 1.0
    gamma: float = 1.0

    def ranked_indices(self) -> np.ndarray:
        """Group indices ordered best rank first."""
        return np.argsort(self.rank)

    def to_csv(self, stream: TextIO) -> None:
        stream.write("rank,label,bias_mean,bias_variance\n")
        for idx in self.ranked_indices():
            stream.write(
                f"{int(self.rank[idx])},{csv_field(self.labels[idx])},"
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
                "alpha": self.alpha,
                "gamma": self.gamma,
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "PosteriorSummary":
        """The summary :meth:`to_json` wrote, ``alpha`` and ``gamma`` optional
        (1 where absent or null). Raises DomainError on a missing, mistyped or
        inconsistent field: the numeric fields hold JSON numbers, ``rank`` and
        ``sweeps`` integers, and ``prior_kind`` a string."""
        try:
            d = json.loads(text)
            summary = cls(
                labels=d["labels"],
                bias_mean=_json_numbers(d, "bias_mean", listed=True),
                bias_variance=_json_numbers(d, "bias_variance", listed=True),
                rank=_json_numbers(d, "rank", listed=True),
                criminality_mean=_json_numbers(d, "criminality_mean"),
                criminality_variance=_json_numbers(d, "criminality_variance"),
                prior_kind=PriorKind.from_string(_json_string(d, "prior_kind")),
                sweeps=_json_numbers(d, "sweeps"),
                **{name: 1.0 if d.get(name) is None else _json_numbers(d, name)
                   for name in ("alpha", "gamma")},
            )
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise DomainError(f"not a posterior summary: {exc}") from None
        if not (isinstance(summary.labels, list)
                and all(isinstance(label, str) for label in summary.labels)):
            raise DomainError("not a posterior summary: 'labels' must be a list of strings")
        k = len(summary.labels)
        for i, label in enumerate(summary.labels):
            if label in summary.labels[:i]:
                raise DomainError(f"not a posterior summary: label {label!r} is repeated")
        for name in ("bias_mean", "bias_variance", "rank"):
            values = getattr(summary, name)
            if values.shape != (k,):
                raise DomainError(f"not a posterior summary: {name!r} needs {k} entries, "
                                  f"one per label, got {values.size}")
        for name in ("bias_mean", "criminality_mean"):
            if not np.isfinite(getattr(summary, name)).all():
                raise DomainError(f"not a posterior summary: {name!r} must be finite")
        for name in ("bias_variance", "criminality_variance", "alpha", "gamma"):
            values = getattr(summary, name)
            # NaN fails every comparison, so test the positive case
            if not ((values > 0) & np.isfinite(values)).all():
                raise DomainError(f"not a posterior summary: {name!r} must be positive and finite")
        if not (summary.sweeps.is_integer() and summary.sweeps >= 1):
            raise DomainError("not a posterior summary: 'sweeps' must be an integer >= 1")
        if sorted(summary.rank.tolist()) != list(range(1, k + 1)):
            raise DomainError(f"not a posterior summary: 'rank' must be a permutation of 1..{k}")
        summary.rank, summary.sweeps = summary.rank.astype(int), int(summary.sweeps)
        return summary


def _json_numbers(d: dict, name: str, listed: bool = False):
    """``d[name]`` as floats: a JSON number, or a list of them when ``listed``;
    anything else, a bool or a numeric string included, raises DomainError."""
    value = d[name]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in (value if listed and isinstance(value, list) else [value])):
        raise DomainError(f"{name!r} must be {'a list of numbers' if listed else 'a number'}")
    return np.asarray(value, dtype=float) if listed else float(value)


def _json_string(d: dict, name: str) -> str:
    """``d[name]``, which must be a JSON string; anything else raises DomainError."""
    if not isinstance(d[name], str):
        raise DomainError(f"{name!r} must be a string")
    return d[name]


def _ranks_desc(values: np.ndarray) -> np.ndarray:
    ranks = np.empty(values.size, dtype=int)
    ranks[descending_order(values)] = np.arange(1, values.size + 1)
    return ranks


def _sample_bias_conditional(
    target: CountTarget, mode: float, scale: float, current: float, rng: np.random.Generator
) -> float:
    """The kernel's ``MH_STEPS`` steps from ``current`` on ``target``, at its
    mode and scale (:func:`~latentbias.kernel.mode_and_scale`). No caller in
    the package is left: the fit and the ranking chain batch their draws in
    :func:`~latentbias.kernel.proposals`. This stays as the tests'
    step-at-a-time reference and as the name the benchmark's tracer wraps."""
    proposed = mode + scale * rng.standard_t(T_DOF, size=MH_STEPS)
    uniforms = rng.random(MH_STEPS)
    pts = np.concatenate(([current], proposed))
    return float(pts[mh_states(log_weights(target, mode, scale, pts), uniforms.tolist())[-1]])


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

    ``prior`` is a ``(means, variances)`` pair of independent bias priors
    as :func:`~latentbias.model.build_prior` returns it (default: zero
    means, unit variances); the criminality prior is N(0,1). With anchoring
    on, each sweep draws every group's bias from its exact count-level
    conditional, starting at its mode, and records the draws with
    ``C_mean == 0`` and ``C_var == 1`` exactly, so ``bias_mean`` is the
    post-burn-in mean of the draws. With anchoring off the per-record
    latent chain runs on the tally's records, by group code then outcome,
    and the coupled means are recorded raw. Either way
    ``bias_variance`` is the fixed report (see the module docstring).

    Entirely deterministic given ``config.seed``: two runs with equal
    inputs produce bit-identical traces. The summary carries
    ``dataset.labels``; every label needs at least one record.

    Raises:
        ConditioningError: when the posterior precision is not positive
            definite, which DEPENDENT and FREE reach when ``gamma`` is well
            above ``alpha``.
        DivergenceError: when any recorded mean magnitude exceeds
            :data:`~latentbias.model.DIVERGENCE_MEAN_LIMIT` or any variance
            exceeds :data:`~latentbias.model.DIVERGENCE_VARIANCE_LIMIT`; the
            exception carries the sweep index and the partial trace. The
            recorded variances are fixed before sweep 0, so that limit trips
            at sweep 0 with an empty trace.
        NumericalError: when an anchored group's mode solve fails.
    """
    if len(dataset) == 0:
        raise DomainError("dataset must be nonempty")
    k = len(dataset.labels)
    labels = list(dataset.labels)
    tally = dataset.outcome_counts()
    negatives, positives = tally.T
    counts = negatives + positives
    if np.any(counts == 0):
        empty = [labels[i] for i in np.nonzero(counts == 0)[0]]
        raise DomainError(f"groups with no records: {empty}")
    m0, v0 = build_prior(k) if prior is None else build_prior(k, *prior)

    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    alpha, gamma = config.alpha, config.gamma
    anchored = config.anchoring_enabled

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

    sweeps = config.sweeps
    trace_means = np.empty((sweeps, k + 1))
    wall = np.empty(sweeps)

    rec_cov = cov_rep / cov_rep[k, k] if anchored else cov_rep
    rec_var = np.diag(rec_cov).copy()

    def trace_upto(n: int) -> GibbsTrace:
        return GibbsTrace(means=trace_means[:n].copy(), variances=rec_var,
                          cross_cov=rec_cov[k, :k].copy(), wall_times=wall[:n].copy())

    def diverged(sweep: int, message: str) -> DivergenceError:
        return DivergenceError(f"chain diverged at sweep {sweep} ({message})",
                               sweep=sweep, trace=trace_upto(sweep))

    # the recorded variances are fixed before sweep 0, so they are checked once
    if np.any(rec_var > DIVERGENCE_VARIANCE_LIMIT):
        raise diverged(0, f"max variance {rec_var.max():.3g} exceeds "
                          f"{DIVERGENCE_VARIANCE_LIMIT:.3g}")

    if anchored:
        # the latents integrate out: each group's target is fixed by its counts,
        # so its chain is one accept loop over its proposals, read once a sweep
        model = CellModel(alpha, gamma)
        targets = [CountTarget((p, n), m, v, model)
                   for p, n, m, v in zip(positives, negatives, m0, v0)]
        t0 = time.perf_counter()
        for g, (pts, lw, u) in enumerate(proposals(targets, sweeps, rng)):
            trace_means[:, g] = pts[mh_states(lw, u)[MH_STEPS - 1 :: MH_STEPS]]
        wall[:] = (time.perf_counter() - t0) / sweeps
        trace_means[:, k] = 0.0
        over = np.abs(trace_means).max(axis=1) > DIVERGENCE_MEAN_LIMIT
        if over.any():
            sweep = int(np.argmax(over))
            raise diverged(sweep, f"max |mean| {np.abs(trace_means[sweep]).max():.3g}")
    else:
        # one array pass per sweep over the tally's records, in one fixed
        # order: by group code, then outcome, negatives first
        group, positive = np.divmod(np.repeat(np.arange(2 * k), tally.ravel()), 2)
        tau = np.where(positive, 1.0, -1.0)  # outcome sign of each record
        eta0 = np.append(m0 / v0, 0.0)
        # per-record bias draws around the coupled mean with the marginal sd
        draw_sd = np.sqrt(np.diag(cov_rep)[:k])[group]
        # persistent per-record criminalities, initialised from their prior
        c = rng.standard_normal(group.size)
        mean = np.append(m0, 0.0)
        v_stop = 1.0 / (1.0 + 1.0 / alpha + 1.0 / gamma)
        sd_stop = math.sqrt(v_stop)
        for sweep in range(sweeps):
            t0 = time.perf_counter()
            b = mean[group] + draw_sd * rng.standard_normal(group.size)
            s_lat = sample_truncated_normal(c + b, alpha, rng)
            # the outcome latent lives on tau * x > 0: draw it mirrored onto x > 0
            t_lat = tau * sample_truncated_normal(tau * c, gamma, rng)
            c = v_stop * ((s_lat - b) / alpha + t_lat / gamma)
            c += sd_stop * rng.standard_normal(group.size)
            eta = eta0 + np.append(np.bincount(group, s_lat - c, k) / alpha, t_lat.sum() / gamma)
            mean = cov_rep @ eta
            if np.any(np.abs(mean) > DIVERGENCE_MEAN_LIMIT):
                raise diverged(sweep, f"max |mean| {np.abs(mean).max():.3g}")
            trace_means[sweep] = mean
            wall[sweep] = time.perf_counter() - t0

    trace = trace_upto(sweeps)
    mean_avg = trace.means[config.burn_in :].mean(axis=0)
    summary = PosteriorSummary(
        labels=labels,
        bias_mean=mean_avg[:k],
        bias_variance=rec_var[:k].copy(),
        rank=_ranks_desc(mean_avg[:k]),
        criminality_mean=float(mean_avg[k]),
        criminality_variance=float(rec_var[k]),
        prior_kind=config.prior,
        sweeps=sweeps,
        alpha=alpha,
        gamma=gamma,
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
