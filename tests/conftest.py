"""Shared fixtures: quadrature oracles and raw CSV fixture generators.

The oracle helpers deliberately avoid the package's own CDF path: they
integrate the normal density with adaptive quadrature, so closed-form
results in the package are checked against an independent method.

The raw CSV fixtures reconstruct the reference tables exactly at the
record level: per-group totals and positive counts are hit exactly, and
the force column embeds the London Metropolitan subset so the same file
serves the national and the force-filtered paths.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import integrate

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
