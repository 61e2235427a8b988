"""Property-based tests: CSV round-trips, ingest accounting, the shared
rank order and the truncated-normal sampler."""

import csv
import io
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latentbias import (
    Dataset,
    PosteriorSummary,
    PriorKind,
    SchemeKind,
    default_mapping,
    parse_records,
    read_dataset_csv,
    sample_truncated_normal,
    truncated_moments,
    write_dataset_csv,
    write_ranking_csv,
)
from latentbias.inference import _ranks_desc

# table entries with the characters CSV must quote or carry through
_TEXT = st.text(st.sampled_from('ab ,"\'\r\n\t;é€中 ') | st.characters(), max_size=8)


@st.composite
def datasets(draw):
    labels = draw(st.lists(_TEXT, min_size=1, max_size=5, unique=True))
    forces = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    n = draw(st.integers(0, 30))
    group = draw(st.lists(st.integers(0, len(labels) - 1), min_size=n, max_size=n))
    outcome = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    force = draw(st.lists(st.integers(0, len(forces) - 1), min_size=n, max_size=n))
    return Dataset(np.array(group, dtype=int), np.array(outcome, dtype=bool), labels,
                   np.array(force, dtype=int), forces)


@settings(max_examples=300, deadline=None)
@given(datasets())
def test_dataset_csv_roundtrip(dataset):
    buf = io.StringIO()
    write_dataset_csv(dataset, buf)
    back = read_dataset_csv(io.StringIO(buf.getvalue()))
    # codes are remapped onto the sorted labels present; every row keeps
    # its label, outcome and force name
    assert list(back.labels) == sorted({dataset.labels[g] for g in dataset.group})
    assert [back.labels[g] for g in back.group] == [dataset.labels[g] for g in dataset.group]
    assert back.outcome.tolist() == dataset.outcome.tolist()
    assert [back.forces[f] for f in back.force] == [dataset.forces[f] for f in dataset.force]


# mapped, unmapped and blank ethnicities; guilty (severe), guilty (lenient),
# not-guilty, unknown and blank outcomes
_ETHNICITY = st.sampled_from(["White", "Black", "Asian/Asian British - Indian", "Mixed",
                              "Martian", "Not stated", ""])
_OUTCOME = st.sampled_from(["Arrest", "Offender cautioned", "Community resolution",
                            "No further action", "Unknown", "", "  Arrest "])
_RAW_ROW = st.tuples(st.sampled_from(["ForceA", "Force, B"]), _ETHNICITY, _ETHNICITY, _OUTCOME)


@settings(max_examples=300, deadline=None)
@given(st.lists(_RAW_ROW | _RAW_ROW.map(lambda row: row[:2]), max_size=40),
       st.sampled_from(list(SchemeKind)))
def test_parse_records_report_matches_dataset(rows, kind):
    # short rows are malformed; the rest are kept or dropped by ethnicity and outcome
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["force", "officer_defined_ethnicity", "self_defined_ethnicity", "outcome"])
    writer.writerows(rows)
    dataset, report = parse_records(io.StringIO(buf.getvalue()), default_mapping(), kind)
    labels = dataset.labels
    positive = np.bincount(dataset.group, weights=dataset.outcome, minlength=len(labels))
    assert report.rows_total == len(rows)
    assert report.rows_kept == len(dataset)
    assert report.group_counts == dict(zip(labels, dataset.counts().tolist()))
    assert report.group_positive == dict(zip(labels, positive.tolist()))
    assert report.rows_kept + report.rows_dropped == report.rows_total


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=12))
def test_ranking_csv_order_matches_summary_rank(levels):
    # few distinct values, so ties are common
    means = np.array(levels, dtype=float) / 2.0
    labels = [f"p{i}" for i in range(means.size)]
    buf = io.StringIO()
    write_ranking_csv(labels, means, np.ones(means.size), buf)
    rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
    summary = PosteriorSummary(
        labels=labels, bias_mean=means, bias_variance=np.ones(means.size),
        rank=_ranks_desc(means), criminality_mean=0.0, criminality_variance=1.0,
        prior_kind=PriorKind.DEPENDENT, sweeps=1,
    )
    assert [r[1] for r in rows] == [labels[i] for i in summary.ranked_indices()]
    assert [int(r[0]) for r in rows] == sorted(summary.rank.tolist())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=4), st.floats(0.1, 10.0),
       st.sampled_from([1.0, -1.0]), st.integers(0, 2**32 - 1))
@example(ratios=[-12.0, 0.0, 12.0], sd=1.0, sign=1.0, seed=0)
@example(ratios=[-12.0, 0.0, 12.0], sd=3.0, sign=-1.0, seed=0)
def test_truncated_normal_support_moments_and_scalar_path(ratios, sd, sign, seed):
    # |mean|/sd up to 12: the inverse-CDF and the far-tail branch, alone and
    # mixed in one call; sign -1 draws x < 0 through the caller-side mirror
    n = 2000
    variance = sd * sd
    means = np.repeat(np.array(ratios) * sd, n)
    draws = sign * sample_truncated_normal(sign * means, variance, np.random.default_rng(seed))
    assert draws.dtype == np.float64 and draws.shape == means.shape
    assert np.all(sign * draws > 0)
    for chunk_means, chunk in zip(means.reshape(-1, n), draws.reshape(-1, n)):
        m, v = truncated_moments(sign * float(chunk_means[0]), variance)
        assert abs(sign * chunk.mean() - m) <= 5.0 * math.sqrt(v / n)
    one = sign * sample_truncated_normal(sign * float(means[0]), variance,
                                         np.random.default_rng(seed))
    assert isinstance(one, float) and sign * one > 0
