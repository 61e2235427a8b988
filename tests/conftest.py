"""Shared fixtures: quadrature oracles, the closed-form record likelihood
they check, and raw CSV fixture generators.

The oracle helpers deliberately avoid the package's own CDF path: they
integrate the normal density with adaptive quadrature, so closed-form
results in the package are checked against an independent method. The
one closed form kept here, the likelihood of a record's stop and outcome,
reads the package's ``ndtr`` and is checked against such an oracle.

The CSV oracles are the row-at-a-time raw-export parser and canonical
reader and writer that the package's keyed and line-counting versions
must match exactly; :func:`dataset_from_rows` tallies stops given one
row each, for the tests that think in rows.

The raw CSV fixtures reconstruct the reference tables exactly at the
record level: per-group totals and positive counts are hit exactly, and
the force column embeds the London Metropolitan subset so the same file
serves the national and the force-filtered paths.
"""

from __future__ import annotations

import csv
import math

import numpy as np
import pytest
from scipy import integrate, special
from scipy.stats import multivariate_normal, norm

from latentbias.data import RAW_COLUMNS, Dataset, IngestReport, SchemeKind, coarsen_outcome
from latentbias.errors import DataError, DomainError, NumericalError
from latentbias.gaussians import ndtr

# --- reference tables -------------------------------------------------------
# (label, national total, national guilty, london total, london guilty)
NATIONAL_TABLE = (
    ("White", 9374, 4208, 3679, 1200),
    ("Black", 4168, 1463, 3657, 1149),
    ("Asian", 2146, 854, 1536, 466),
    ("Other/Mixed", 536, 219, 351, 128),
)
NATIONAL_GUILTY_PCT = (44.89, 35.09, 39.80, 40.88)
LONDON_GUILTY_PCT = (32.62, 31.42, 30.33, 36.46)

# (label, total guilty, lenient count)
CHARGES_TABLE = (
    ("White", 4183, 2104),
    ("Black", 1466, 462),
    ("Asian", 860, 406),
    ("Other/Mixed", 220, 85),
)
CHARGES_LENIENT_PCT = (50.29, 31.50, 47.21, 38.46)

LONDON_FORCE = "Metropolitan Police"
OTHER_FORCES = ("West Midlands Police", "Greater Manchester Police", "West Yorkshire Police")

GUILTY_SEVERE = ("Arrest", "Summons / charged by post", "Caution (simple or conditional)")
GUILTY_LENIENT = (
    "Khat or Cannabis Warning",
    "Local resolution",
    "Community resolution",
    "A no further action disposal",
    "Suspected substances seized - No further action",
)
NOT_GUILTY = "Nothing found - no further action"

OFFICER_LABELS = {"White": "White", "Black": "Black", "Asian": "Asian", "Other/Mixed": "Other"}

_HEADER = "force,officer_defined_ethnicity,self_defined_ethnicity,outcome,date"


# --- oracles ----------------------------------------------------------------

# a dense grid past both underflows of Phi, with the signed zeros, +-1e-300,
# Phi's underflow near -37.5 and log_ndtr's series switch at -20: the array
# helpers must give the scalar ndtr and log_ndtr on it bit for bit
EXACT_GRID = np.concatenate([
    np.linspace(-60.0, 60.0, 200001),
    [0.0, -0.0, 1e-300, -1e-300, 37.5, -37.5, -20.0,
     np.nextafter(-20.0, -np.inf), np.nextafter(-20.0, 0.0)],
])


def normal_density(x):
    return np.exp(-0.5 * np.asarray(x) ** 2) / math.sqrt(2.0 * math.pi)


def cdf_oracle(x: float) -> float:
    """Standard-normal CDF by adaptive quadrature of the density."""
    val, _err = integrate.quad(normal_density, -np.inf, x, epsabs=1e-14, epsrel=1e-13)
    return val


def mills_lambda_oracle(a: float) -> float:
    """phi(a) / (1 - Phi(a)) with the tail integrated directly for precision."""
    tail, _err = integrate.quad(normal_density, a, np.inf, epsabs=0, epsrel=1e-13)
    return float(normal_density(a)) / tail


def truncated_moment_oracle(mean: float, variance: float, sign: float):
    """Mean/variance of N(mean, variance) on the half-line sign*x > 0."""
    sd = math.sqrt(variance)
    a = -sign * mean / sd
    lam = mills_lambda_oracle(a)
    m = sign * mean + sd * lam
    v = variance * (1.0 + a * lam - lam * lam)
    return sign * m, v


def stop_outcome_mass_oracle(stop_mean, outcome_mean, alpha, gamma, sign=1.0):
    """P(S > 0, sign * T > 0) at each pair of means, for a stop latent
    S ~ N(stop_mean, 1 + alpha) and an outcome latent T ~ N(outcome_mean,
    1 + gamma) sharing one N(0, 1) criminality, so Cov(S, T) = 1.

    (stop_mean - S, sign * (outcome_mean - T)) is a zero-mean bivariate
    normal with covariance [[1+alpha, sign], [sign, 1+gamma]], and the mass
    is its CDF at (stop_mean, sign * outcome_mean), taken from scipy's
    bivariate-normal integrator rather than a closed form.
    """
    points = np.column_stack(np.broadcast_arrays(stop_mean, sign * np.asarray(outcome_mean)))
    cov = [[1.0 + alpha, sign], [sign, 1.0 + gamma]]
    return np.atleast_1d(multivariate_normal.cdf(points, mean=[0.0, 0.0], cov=cov,
                                                 abseps=1e-14, releps=1e-14))


# breakpoints of the relative oracle's quadrature, above the stop threshold
_MASS_BREAKS = (0.0, 1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 40.0)


def stop_outcome_mass_relative_oracle(stop_mean, outcome_mean, alpha, gamma, sign=1.0):
    """:func:`stop_outcome_mass_oracle` at one pair of means, to about 1e-13
    relative, also where the mass is tiny (that one is accurate to about
    1e-16 absolute).

    With ``h`` and ``k`` the standardised means and ``rho = 1/sqrt((1 +
    alpha)(1 + gamma))`` the correlation of S and T, the mass is the 1-D
    integral of ``phi(x) Phi(sign (k + rho x)/s)`` over the standardised stop
    latent ``x > -h``, with ``s = sqrt(1 - rho^2)``. It is summed over
    intervals that start at the threshold and widen geometrically, each by
    ``integrate.quad`` at ``epsrel`` 1e-13 and no absolute tolerance, so a
    peak at the threshold as narrow as 1e-3 is resolved.
    """
    h, k = stop_mean / math.sqrt(1.0 + alpha), outcome_mean / math.sqrt(1.0 + gamma)
    rho = 1.0 / math.sqrt((1.0 + alpha) * (1.0 + gamma))
    s = math.sqrt((alpha + gamma + alpha * gamma) * rho * rho)

    def integrand(x):
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) * special.ndtr(
            sign * (k + rho * x) / s)

    return math.fsum(integrate.quad(integrand, lo - h, hi - h, epsabs=0.0, epsrel=1e-13,
                                    limit=200)[0]
                     for lo, hi in zip(_MASS_BREAKS, _MASS_BREAKS[1:]))


def count_log_density_oracle(beta, n_pos, n_neg, m0, v0, alpha, gamma):
    """Log density, up to a constant, of one group's bias once every latent
    is integrated out: ``log N(beta; m0, v0) + n_pos log P(stop, positive)
    + n_neg log P(stop, negative)``, with a zero criminality mean, so each
    mass is :func:`stop_outcome_mass_oracle` at ``(beta, 0)``.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    out = norm.logpdf(beta, m0, math.sqrt(v0))
    for n, sign in ((n_pos, 1.0), (n_neg, -1.0)):
        if n:
            mass = stop_outcome_mass_oracle(beta, 0.0, alpha, gamma, sign)
            with np.errstate(divide="ignore"):
                out = out + n * np.log(mass)
    return out


def outcome_probability_oracle(bias_mean, criminality_mean, alpha, gamma):
    """P(positive outcome | stopped) for one group with criminality
    N(criminality_mean, 1): :func:`stop_outcome_mass_oracle` over the stop
    probability."""
    stop_mean = criminality_mean + bias_mean
    mass = stop_outcome_mass_oracle(stop_mean, criminality_mean, alpha, gamma)[0]
    return mass / norm.cdf(stop_mean / math.sqrt(1.0 + alpha))


def stop_search_likelihood(c: float, beta: float, x: int) -> float:
    """Closed-form probability of (stop, outcome ``x``) for one record with
    criminality ``c`` and group bias ``beta``, unit noise on both equations:
    ``Phi(c) Phi(c + beta)`` for ``x = 1`` and ``Phi(-c) Phi(c + beta)``
    for ``x = 0``. The two branches sum to the stop probability, not to one."""
    if x not in (0, 1):
        raise DomainError(f"x must be 0 or 1, got {x!r}")
    stop = ndtr(c + beta)
    return float(ndtr(c) * stop) if x == 1 else float(ndtr(-c) * stop)


def likelihood_oracle(c: float, beta: float, x: int, abs_tol: float = 1e-6) -> float:
    """Brute-force oracle for :func:`stop_search_likelihood`, sharing no code
    with it.

    Integrates ``N(s; c + beta, 1) N(t; c, 1)`` over the region selected
    by the stop gate (``s > 0``) and the outcome's half-line for ``t``,
    using adaptive 2-D quadrature on the raw densities. Normalisation
    constant is taken as one, matching the closed form's convention.

    Raises:
        NumericalError: if the quadrature error estimate exceeds ``abs_tol``.
    """
    if x not in (0, 1):
        raise DomainError(f"x must be 0 or 1, got {x!r}")

    def integrand(t: float, s: float) -> float:
        ds = s - c - beta
        dt = t - c
        return math.exp(-0.5 * (ds * ds + dt * dt)) / (2.0 * math.pi)

    t_lo, t_hi = (0.0, np.inf) if x == 1 else (-np.inf, 0.0)
    value, err = integrate.dblquad(integrand, 0.0, np.inf, t_lo, t_hi, epsabs=1e-10)
    if err > abs_tol:
        raise NumericalError(f"oracle quadrature error {err:.3g} exceeds {abs_tol:.3g}")
    return float(value)


def posterior_oracle(logd, center, scale, points=2001):
    """``(mean, sd, cdf)`` of the 1-D density ``exp(logd(x))``, known up to a
    constant, by trapezoidal quadrature on a dense grid.

    A coarse pass over ``center`` +- 12 ``scale`` finds where the log density
    is within 60 of its peak; the dense grid spans that, so it never depends
    on the draws it is compared with. ``cdf`` interpolates on the dense grid.
    """
    coarse = center + scale * np.linspace(-12.0, 12.0, 961)
    lc = logd(coarse)
    bulk = coarse[lc > lc.max() - 60.0]
    step = coarse[1] - coarse[0]
    grid = np.linspace(bulk.min() - step, bulk.max() + step, points)
    dens = np.exp(logd(grid) - lc.max())

    def integral(y):
        return np.concatenate(([0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(grid))))

    cdf = integral(dens)
    total = cdf[-1]
    mean = integral(grid * dens)[-1] / total
    sd = math.sqrt(integral((grid - mean) ** 2 * dens)[-1] / total)
    return mean, sd, lambda x: np.interp(x, grid, cdf / total)


def count_posterior_oracle(n_pos, n_neg, m0, v0, alpha, gamma, points=2001):
    """:func:`posterior_oracle` of :func:`count_log_density_oracle`, one
    group's bias posterior, over its prior's m0 +- 12 sds."""
    def logd(grid):
        return count_log_density_oracle(grid, n_pos, n_neg, m0, v0, alpha, gamma)

    return posterior_oracle(logd, m0, math.sqrt(v0), points)


def skill_posterior_oracle(n_pos, n_neg, points=2001):
    """:func:`posterior_oracle` of the relative skill ``d = w_1 - w_0`` of a
    player that lost ``n_pos`` and won ``n_neg`` matches against the common
    player: with N(0,1) skills and P(win) = Phi(skill difference), its
    density is proportional to ``N(d; 0, 2) Phi(d)^n_neg Phi(-d)^n_pos``."""
    def logd(d):
        return norm.logpdf(d, 0.0, math.sqrt(2.0)) + n_neg * norm.logcdf(d) + n_pos * norm.logcdf(-d)

    return posterior_oracle(logd, 0.0, math.sqrt(2.0), points)


# --- canonical CSV oracles --------------------------------------------------

_CANONICAL_COLUMNS = ("group", "stopped", "outcome", "force")
_OUTCOME_TEXT = frozenset({"0", "1"})


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted when it holds a comma, a quote, CR or
    LF (``csv.writer`` with a LF terminator leaves CR bare, unreadable)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def dataset_from_rows(group, outcome, labels, force=None, forces=("",)) -> Dataset:
    """The :class:`Dataset` tally of stops given one row each: group codes
    into ``labels``, bool outcomes, and force codes into ``forces`` (all 0
    when omitted)."""
    group = np.asarray(group, dtype=np.intp)
    force = np.zeros_like(group) if force is None else np.asarray(force, dtype=np.intp)
    counts = np.zeros((len(labels), 2, len(forces)), dtype=np.intp)
    np.add.at(counts, (group, np.asarray(outcome, dtype=bool).astype(np.intp), force), 1)
    return Dataset(counts, labels, forces)


def named_cells(dataset) -> dict:
    """Each nonzero cell's count, keyed by label, outcome and force name, in cell order."""
    return {(dataset.labels[g], o, dataset.forces[f]): n
            for (g, o, f), n in np.ndenumerate(dataset.counts) if n}


def write_dataset_csv_oracle(dataset, stream) -> None:
    """Canonical dataset CSV written to a binary stream one row at a time,
    each row's text encoded as UTF-8, the cells in ascending
    ``(2·group + outcome)·F + force`` order."""
    stream.write((",".join(_CANONICAL_COLUMNS) + "\n").encode("utf-8"))
    for (g, positive, f), n in np.ndenumerate(dataset.counts):
        for _ in range(n):
            stream.write(f"{_csv_field(dataset.labels[g])},1,{positive},"
                         f"{_csv_field(dataset.forces[f])}\n".encode("utf-8"))


def read_dataset_csv_oracle(stream) -> Dataset:
    """Canonical dataset CSV read one record at a time by ``csv.reader``;
    group codes follow sorted label order.

    Raises:
        DataError: if a column is missing or named twice, a row has too
            few fields or is not a stop (``stopped`` other than ``1``) with
            a ``0``/``1`` outcome, or the CSV parser rejects a row; the
            message names the line on which the row began.
    """
    reader = csv.reader(stream, strict=True)
    groups, outcomes, forces = [], [], []
    begins = 1  # the line on which the next record begins
    try:
        header = next(reader, None)
        if header is None or not set(_CANONICAL_COLUMNS).issubset(header):
            raise DataError("canonical dataset CSV needs columns group,stopped,outcome,force")
        repeated = [c for c in _CANONICAL_COLUMNS if header.count(c) > 1]
        if repeated:
            raise DataError(f"line 1: the header names {', '.join(map(repr, repeated))} "
                            "more than once")
        cols = [header.index(c) for c in _CANONICAL_COLUMNS]
        width = max(cols) + 1
        begins = reader.line_num + 1
        for row in reader:
            began, begins = begins, reader.line_num + 1
            if not row:
                continue
            if len(row) < width:
                raise DataError(f"line {began}: row has {len(row)} fields, need {width}")
            group, stopped, outcome, force = [row[c] for c in cols]
            if stopped != "1" or outcome not in _OUTCOME_TEXT:
                raise DataError(
                    f"line {began}: every row must be a stop (stopped 1) "
                    f"with outcome 0 or 1, got stopped={stopped!r} outcome={outcome!r}"
                )
            groups.append(group)
            outcomes.append(outcome == "1")
            forces.append(force)
    except csv.Error as exc:
        raise DataError(f"line {begins}: {exc}") from None
    labels = sorted(set(groups))
    label_to_id = {label: i for i, label in enumerate(labels)}
    force_ids: dict[str, int] = {}
    return dataset_from_rows(
        [label_to_id[g] for g in groups], outcomes, labels,
        [force_ids.setdefault(f, len(force_ids)) for f in forces], tuple(force_ids),
    )


# --- raw export oracle --------------------------------------------------------

def parse_records_oracle(stream, mapping, kind):
    """Raw export parsed one row at a time, every rule applied per row.

    Raises:
        DataError: if the header lacks a required column or names one
            twice, or the strict CSV parser rejects a row; the message names
            the line on which the rejected row began.
        DomainError: for LenientSevere with an empty lenient set.
    """
    if kind is SchemeKind.LENIENT_SEVERE and not mapping.lenient_set:
        raise DomainError("LenientSevere scheme needs a nonempty lenient set")
    reader = csv.reader(stream, strict=True)
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise DataError(f"line 1: unreadable header: {exc}") from None
    if header is None:
        raise DataError("input has no header row")
    position = {name: i for i, name in enumerate(header)}
    missing = [c for c in RAW_COLUMNS if c not in position]
    if missing:
        raise DataError(f"missing required column(s): {', '.join(missing)}")
    twice = [c for c in RAW_COLUMNS if header.count(c) > 1]
    if twice:
        raise DataError(f"line 1: the header names {', '.join(map(repr, twice))} "
                        "more than once")
    i_force, i_officer, i_self, i_outcome = (position[c] for c in RAW_COLUMNS)
    width = max(i_force, i_officer, i_self, i_outcome) + 1
    i_first, i_second = (
        (i_officer, i_self) if mapping.precedence == "officer" else (i_self, i_officer)
    )
    label_to_id = {label: i for i, label in enumerate(mapping.group_labels)}
    report = IngestReport()
    groups, outcomes, forces = [], [], []
    force_ids: dict[str, int] = {}
    begins = reader.line_num + 1  # the line on which the next record begins
    try:
        for row in reader:
            begins = reader.line_num + 1
            if not row:
                continue
            report.rows_total += 1
            if len(row) < width:
                report.drop("malformed row", 1)
                continue
            eth = row[i_first].strip() or row[i_second].strip()
            if not eth:
                report.drop("missing ethnicity", 1)
                continue
            outcome_text = row[i_outcome].strip()
            if not outcome_text:
                report.drop("missing outcome", 1)
                continue
            label = mapping.mapping.get(eth)
            if label is None:
                label = mapping.fallback_group
                report.unmapped_ethnicities += 1
                if len(report.warnings) < 20:
                    report.warnings.append(f"unmapped ethnicity {eth!r} -> {label}")
            if kind is SchemeKind.LENIENT_SEVERE:
                if not coarsen_outcome(outcome_text, SchemeKind.GUILTY_NOT_GUILTY, mapping):
                    report.drop("not guilty (excluded from severity dataset)", 1)
                    continue
            elif (outcome_text not in mapping.guilty_set
                  and outcome_text not in mapping.negative_set):
                report.unknown_outcomes += 1
            groups.append(label_to_id[label])
            outcomes.append(coarsen_outcome(outcome_text, kind, mapping))
            forces.append(force_ids.setdefault(row[i_force].strip(), len(force_ids)))
    except csv.Error as exc:
        raise DataError(f"line {begins}: {exc}") from None
    dataset = dataset_from_rows(groups, outcomes, mapping.group_labels, forces, tuple(force_ids))
    tally = dataset.counts.sum(axis=2)
    report.rows_kept = len(groups)
    report.group_counts = dict(zip(dataset.labels, tally.sum(axis=1).tolist()))
    report.group_positive = dict(zip(dataset.labels, tally[:, 1].tolist()))
    return dataset, report


# --- fixture CSV builders ----------------------------------------------------

def _guilty_outcome(i: int) -> str:
    return GUILTY_SEVERE[i % len(GUILTY_SEVERE)]


def _build_rows(label, total, guilty, london_total, london_guilty):
    officer = OFFICER_LABELS[label]
    rows = []

    def emit(n_total, n_guilty, force_of):
        for i in range(n_total):
            outcome = _guilty_outcome(i) if i < n_guilty else NOT_GUILTY
            # a sprinkle of rows exercises the self-defined fallback
            if i % 97 == 13:
                rows.append(f"{force_of(i)},,{officer},{outcome},2024-01-01")
            else:
                rows.append(f"{force_of(i)},{officer},,{outcome},2024-01-01")

    emit(london_total, london_guilty, lambda i: LONDON_FORCE)
    emit(
        total - london_total,
        guilty - london_guilty,
        lambda i: OTHER_FORCES[i % len(OTHER_FORCES)],
    )
    return rows


@pytest.fixture(scope="session")
def national_raw_csv(tmp_path_factory):
    """Raw CSV reconstructing the national table, London subset embedded."""
    rng = np.random.default_rng(20240811)
    rows = []
    for label, total, guilty, lon_total, lon_guilty in NATIONAL_TABLE:
        rows.extend(_build_rows(label, total, guilty, lon_total, lon_guilty))
    order = rng.permutation(len(rows))
    path = tmp_path_factory.mktemp("fixtures") / "national.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_HEADER + "\n")
        for i in order:
            fh.write(rows[i] + "\n")
    return path


@pytest.fixture(scope="session")
def charges_raw_csv(tmp_path_factory):
    """Raw CSV for the severity dataset: guilty-only totals with the
    configured lenient strings, plus a handful of clearances that the
    charges scheme must drop."""
    rng = np.random.default_rng(77)
    rows = []
    for (label, total, lenient), _pct in zip(CHARGES_TABLE, CHARGES_LENIENT_PCT):
        officer = OFFICER_LABELS[label]
        for i in range(total):
            if i < lenient:
                outcome = GUILTY_LENIENT[i % len(GUILTY_LENIENT)]
            else:
                outcome = _guilty_outcome(i)
            force = OTHER_FORCES[i % len(OTHER_FORCES)]
            rows.append(f"{force},{officer},,{outcome},2024-02-02")
    for i in range(10):
        rows.append(f"{OTHER_FORCES[0]},White,,{NOT_GUILTY},2024-02-02")
    order = rng.permutation(len(rows))
    path = tmp_path_factory.mktemp("fixtures") / "charges.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_HEADER + "\n")
        for i in order:
            fh.write(rows[i] + "\n")
    return path


@pytest.fixture(scope="session")
def national_records(national_raw_csv):
    from latentbias import SchemeKind, default_mapping, parse_records

    mapping = default_mapping()
    with open(national_raw_csv, newline="", encoding="utf-8") as fh:
        records, report = parse_records(fh, mapping, SchemeKind.GUILTY_NOT_GUILTY)
    return records, report, mapping
