"""Property-based tests: CSV round-trips (datasets and traces) and their
row-at-a-time oracles,
the keyed raw-export parser against its row-at-a-time oracle, ingest
accounting, split and balance, the shared rank order, the per-group
outcome tally that the ranking chain and held-out scoring read, the
truncated-normal sampler, and the cell model's P(positive | stop)."""

import csv
import io
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from latentbias import (
    CellModel,
    DataError,
    Dataset,
    DomainError,
    EthnicityMapping,
    GibbsTrace,
    ModelConfig,
    PosteriorSummary,
    PriorKind,
    SchemeKind,
    balance,
    default_mapping,
    matches_from_dataset,
    parse_records,
    predictive_score,
    read_dataset_csv,
    read_trace_csv,
    run_gibbs,
    sample_truncated_normal,
    split,
    truncated_moments,
    trueskill_gibbs,
    write_dataset_csv,
    write_ranking_csv,
    write_trace_csv,
)
from latentbias.data import _line_runs
from latentbias.inference import _ranks_desc

from conftest import (dataset_from_rows, named_cells, parse_records_oracle,
                      read_dataset_csv_oracle, write_dataset_csv_oracle)

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
    return dataset_from_rows(group, outcome, labels, force, forces)


@settings(max_examples=300, deadline=None)
@given(datasets())
def test_dataset_csv_roundtrip(dataset):
    buf = io.BytesIO()
    try:
        write_dataset_csv(dataset, buf)
    except UnicodeEncodeError:  # a lone surrogate has no UTF-8 form
        return
    back = read_dataset_csv(io.BytesIO(buf.getvalue()))
    # codes are remapped onto the sorted labels present and the forces present
    # in cell order; every cell keeps its count under its label and force name
    cells = named_cells(dataset)
    assert list(back.labels) == sorted({label for label, _o, _f in cells})
    assert list(back.forces) == list(dict.fromkeys(force for _l, _o, force in cells))
    assert named_cells(back) == cells


@settings(max_examples=300, deadline=None)
@given(datasets())
def test_dataset_csv_writer_matches_row_oracle(dataset):
    # one run per (group, outcome, force) cell gives the bytes the
    # row-at-a-time writer gives, empty datasets (n = 0) included, and a
    # stop whose label or force holds a lone surrogate, which has no UTF-8
    # form, fails both
    assert _written(write_dataset_csv, dataset) == _written(write_dataset_csv_oracle, dataset)


def _written(write, dataset):
    """The bytes ``write(dataset, stream)`` writes, or ``UnicodeEncodeError``
    when it raises that."""
    buf = io.BytesIO()
    try:
        write(dataset, buf)
    except UnicodeEncodeError:
        return UnicodeEncodeError
    return buf.getvalue()


_HEADERS = ("group,stopped,outcome,force",) * 4 + (
    "force,outcome,group,stopped", "stopped,group,note,outcome,force,group",
    "group,stopped,outcome")
# one quoted or bare field: bare text with a quote, comma or line break
# parses as something else or fails, which both readers must agree on
_FIELD = st.tuples(_TEXT, st.integers(0, 2)).map(
    lambda t: '"' + t[0].replace('"', '""') + '"' if t[1] else t[0])
_FLAG = st.sampled_from(["1"] * 12 + ["0", "", "yes", "2"])
_OUTCOME_FLAG = st.sampled_from(["0", "1"] * 6 + ["", "x"])
_ENDING = st.sampled_from(["\n", "\n", "\r\n", "\r"])


@st.composite
def _canonical_lines(draw, header):
    names = header.split(",")
    fields = {"group": draw(_FIELD), "stopped": draw(_FLAG), "outcome": draw(_OUTCOME_FLAG),
              "force": draw(_FIELD), "note": draw(_FIELD)}
    row = ",".join(fields[name] for name in names)
    if draw(st.integers(0, 19)) == 0:
        row = row.rsplit(",", draw(st.integers(1, len(names) - 1)))[0]  # short row
    return row + draw(_ENDING)


_FIELD_LIMIT_ROW = f"a,1,1,{'x' * (csv.field_size_limit() + 1)}\n"


@st.composite
def canonical_texts(draw):
    """Canonical CSV texts built from a few distinct lines, repeated: quoted
    CR, LF, commas and quotes, records that span lines, blank lines, CRLF
    and CR endings, bad flags, short rows, an oversized field and an
    unterminated quote at the end."""
    header = draw(st.sampled_from(_HEADERS))
    pool = draw(st.lists(
        _canonical_lines(header) | st.sampled_from(["\n", "\r\n", _FIELD_LIMIT_ROW]),
        min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))
    tail = draw(st.sampled_from(["", "", '"a,1,1,f\n', 'a,1,1,"f']))
    return header + draw(_ENDING) + "".join(pool[i] for i in picks) + tail


def _read_result(read, stream):
    try:
        dataset = read(stream)
    except DataError as exc:
        return str(exc)
    return dataset.labels, dataset.forces, dataset.counts.dtype, dataset.counts.tolist()


@settings(max_examples=500, deadline=None)
@given(canonical_texts())
@example('group,stopped,outcome,force\na,1,1,f\n"x\ny",1,1,f\na,1,1,f\n'
         'a,1,x,f\n"x\ny",1,1,f\na,1,x,f\n')
@example('group,stopped,outcome,force\n"b\na,1,x,f\n",1,1,f\na,1,x,f\n')
@example('group,stopped,outcome,force\r\n"b\r\n\r\nc",1,0,"f,\r"\r\n\r\na,1,1,f\r\n')
def test_dataset_csv_reader_matches_row_oracle(text):
    # read as bytes, the text gives the same Dataset, or the same DataError
    # with the same line, as a reader that parses every record of the text
    # opened with newline="" in file order
    try:
        raw = text.encode()
    except UnicodeEncodeError:  # a lone surrogate has no UTF-8 form
        return
    assert _read_result(read_dataset_csv, io.BytesIO(raw)) == \
        _read_result(read_dataset_csv_oracle, io.StringIO(text, newline=""))


@st.composite
def canonical_run_texts(draw):
    """Canonical CSV texts as runs of one line repeated, long enough for the
    binary reader's run walk to double and halve the copies it checks: the
    header repeated as a run, a line that recurs after a different one, and
    a run that ends the file without its last LF."""
    header = draw(st.sampled_from(_HEADERS))
    first = header + draw(_ENDING)
    pool = [first] + draw(st.lists(_canonical_lines(header) | st.sampled_from(["\n", "\r\n"]),
                                   min_size=1, max_size=4))
    runs = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.integers(1, 300)),
                         max_size=6))
    text = first * draw(st.integers(1, 3)) + "".join(pool[i] * n for i, n in runs)
    return text[:-1] if draw(st.booleans()) else text


@settings(max_examples=200, deadline=None)
@given(canonical_run_texts())
@example("group,stopped,outcome,force\n" + "a,1,1,f\n" * 100 + "b,1,0,g\n" * 37
         + "a,1,1,f\n" * 5 + "b,1,0,g")
@example("group,stopped,outcome,force\n" * 3 + "a,1,1,f\n" * 10)
@example("group,stopped,outcome,force\n" + "a,1,1,f\n" * 64 + "a,1,1,f")
def test_dataset_csv_run_walk_matches_row_oracle(text):
    # read as bytes, runs of one line count the lines before the first line
    # that recurs after a different line as counting them one by one does,
    # and give the Dataset, or the DataError, of the reader that parses
    # every record in file order
    try:
        raw = text.encode()
    except UnicodeEncodeError:  # a lone surrogate has no UTF-8 form
        return
    lines = list(io.BytesIO(raw))
    recurs = next((i for i in range(1, len(lines))
                   if lines[i] != lines[i - 1] and lines[i] in lines[:i]), len(lines))
    runs, end = _line_runs(raw)
    assert end == sum(map(len, lines[:recurs]))
    # the lines it counts, in order of first appearance
    assert list(runs.items()) == list(Counter(lines[:recurs]).items())
    assert _read_result(read_dataset_csv, io.BytesIO(raw)) == \
        _read_result(read_dataset_csv_oracle, io.StringIO(text, newline=""))


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
    assert report.rows_total == len(rows)
    assert report.rows_kept == len(dataset) == int(dataset.counts.sum())
    assert report.group_counts == dict(zip(labels, dataset.counts.sum(axis=(1, 2)).tolist()))
    assert report.group_positive == dict(zip(labels, dataset.counts[:, 1].sum(axis=1).tolist()))
    assert report.rows_kept + report.rows_dropped == report.rows_total


# raw export headers: extra columns in any order, an unused column named
# twice, a required column named twice (an error), and one header missing a
# required column
_RAW_HEADERS = (
    "force,officer_defined_ethnicity,self_defined_ethnicity,outcome",
    "force,officer_defined_ethnicity,self_defined_ethnicity,outcome,date,note",
    "date,outcome,note,self_defined_ethnicity,force,officer_defined_ethnicity",
    "note,force,officer_defined_ethnicity,self_defined_ethnicity,outcome,date,note",
    "force,officer_defined_ethnicity,date,force,self_defined_ethnicity,outcome,note",
    "force,officer_defined_ethnicity,outcome,date",
)
_RAW_FIELD = {
    "force": st.sampled_from(["ForceA", "Force, B", ' "Q"\nforce', " ForceA ", ""]),
    "officer_defined_ethnicity": _ETHNICITY | st.sampled_from([" White ", "Martian "]),
    "self_defined_ethnicity": _ETHNICITY,
    "outcome": _OUTCOME,
}
# what may follow the rows: nothing, or a row the strict parser rejects (a
# quote left open at the end, text after a closing quote, an oversized field)
_RAW_TAIL = st.sampled_from(["", "", "", 'ForceA,"White\n', 'F,"x"y,,Arrest\n',
                             f"F,{'x' * (csv.field_size_limit() + 1)},,Arrest\n"])


@st.composite
def raw_exports(draw):
    """Raw export texts from a few row templates repeated in runs, every
    row made distinct by a unique date: blank lines, short rows, quoted
    forces, unused columns of high variety, and enough repeats of an
    unmapped template for more than 20 warnings."""
    header = draw(st.sampled_from(_RAW_HEADERS))
    names = header.split(",")
    templates = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 7)) == 0:
            templates.append(None)  # a blank line
            continue
        fields = [draw(_RAW_FIELD.get(name, _TEXT)) for name in names]
        templates.append(fields[:draw(st.integers(1, len(names)))]
                         if draw(st.integers(0, 7)) == 0 else fields)
    runs = draw(st.lists(st.tuples(st.integers(0, len(templates) - 1), st.integers(1, 12)),
                         max_size=10))
    picks = [pick for pick, repeats in runs for _ in range(repeats)]
    ending = draw(_ENDING.filter(lambda e: e != "\r"))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=ending)
    writer.writerow(names)
    for i, pick in enumerate(picks):
        if templates[pick] is None:
            buf.write(ending)
        else:
            writer.writerow([f"2024-03-01T{i:05d}" if name == "date" else field
                             for name, field in zip(names, templates[pick])])
    return buf.getvalue() + draw(_RAW_TAIL)


def _parse_result(parse, text, newline, mapping, kind):
    try:
        dataset, report = parse(io.StringIO(text, newline=newline), mapping, kind)
    except DataError as exc:
        return str(exc)
    return (dataset.labels, dataset.forces, dataset.counts.dtype, dataset.counts.tolist(),
            vars(report), list(report.dropped.items()))


@settings(max_examples=300, deadline=None)
@given(raw_exports(), st.sampled_from(["", "\n"]), st.sampled_from(["officer", "self"]),
       st.sampled_from(list(SchemeKind)))
@example("force,officer_defined_ethnicity,self_defined_ethnicity,outcome\n"
         + "F,Martian,,Arrest\n" * 25 + "G,White,,Arrest\n", "", "officer",
         SchemeKind.GUILTY_NOT_GUILTY)
@example('force,officer_defined_ethnicity,self_defined_ethnicity,outcome,date\n'
         'F,White,,Arrest,"2024\nF,White,,Arrest,x\nG,Black,,Arrest,y\n', "", "officer",
         SchemeKind.GUILTY_NOT_GUILTY)
def test_parse_records_matches_row_oracle(text, newline, precedence, kind):
    # the same Dataset and report (dropped reasons and warnings in row
    # order), or the same DataError, as a parser that resolves every row
    mapping = EthnicityMapping(precedence=precedence)
    assert _parse_result(parse_records, text, newline, mapping, kind) == \
        _parse_result(parse_records_oracle, text, newline, mapping, kind)


@st.composite
def _tallies(draw, min_size):
    """A dataset of 1-4 groups and 1-3 forces, each cell holding 0-12 stops,
    at least ``min_size`` in all."""
    k, f = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    counts = draw(arrays(np.intp, (k, 2, f), elements=st.integers(0, 12))
                  .filter(lambda c: c.sum() >= min_size))
    return Dataset(counts, [f"g{i}" for i in range(k)], [f"f{i}" for i in range(f)])


@settings(max_examples=300, deadline=None)
@given(_tallies(min_size=2), st.floats(0.01, 0.99), st.integers(0, 2**32 - 1))
def test_split_is_stratified_disjoint_and_exhaustive(dataset, fraction, seed):
    train, test = split(dataset, fraction, np.random.default_rng(seed))
    again = split(dataset, fraction, np.random.default_rng(seed))
    for side, same in zip((train, test), again):
        assert (side.labels, side.forces) == (dataset.labels, dataset.forces)
        assert np.array_equal(side.counts, same.counts)
    # together the sides hold every stop once, cell for cell
    assert np.array_equal(train.counts + test.counts, dataset.counts)
    n = dataset.outcome_counts().sum(axis=1)
    assert np.array_equal(test.outcome_counts().sum(axis=1), np.floor(fraction * n + 0.5))
    assert np.all(np.abs(test.outcome_counts().sum(axis=1) - fraction * n) <= 0.5)


@settings(max_examples=300, deadline=None)
@given(_tallies(min_size=1), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_balance_gives_n_per_group_as_a_subset(dataset, n, seed):
    per_group = dataset.outcome_counts().sum(axis=1)
    present = per_group > 0
    if n > per_group[present].min():
        with pytest.raises(DomainError):
            balance(dataset, n, np.random.default_rng(seed))
        return
    balanced = balance(dataset, n, np.random.default_rng(seed))
    assert (balanced.labels, balanced.forces) == (dataset.labels, dataset.forces)
    assert np.all(balanced.counts <= dataset.counts)
    assert np.array_equal(balanced.outcome_counts().sum(axis=1), np.where(present, n, 0))
    assert np.array_equal(balance(dataset, n, np.random.default_rng(seed)).counts,
                          balanced.counts)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), _TEXT), min_size=1, max_size=12,
                unique_by=lambda player: player[1]))
def test_ranking_csv_order_matches_summary_rank(players):
    # few distinct values, so ties are common; labels that hold a comma, a
    # quote, CR or LF come back whole from both files
    levels, labels = zip(*players)
    means = np.array(levels, dtype=float) / 2.0
    ranking, summary_csv = io.StringIO(), io.StringIO()
    write_ranking_csv(labels, means, np.ones(means.size), ranking)
    summary = PosteriorSummary(
        labels=list(labels), bias_mean=means, bias_variance=np.ones(means.size),
        rank=_ranks_desc(means), criminality_mean=0.0, criminality_variance=1.0,
        prior_kind=PriorKind.DEPENDENT, sweeps=1,
    )
    summary.to_csv(summary_csv)
    rows, summary_rows = (list(csv.reader(io.StringIO(buf.getvalue(), newline="")))[1:]
                          for buf in (ranking, summary_csv))
    assert [len(r) for r in rows + summary_rows] == [4] * 2 * means.size
    assert [r[1] for r in rows] == [labels[i] for i in summary.ranked_indices()]
    assert [int(r[0]) for r in rows] == sorted(summary.rank.tolist())
    assert [r[:2] for r in summary_rows] == [
        [str(summary.rank[i]), labels[i]] for i in summary.ranked_indices()]


@st.composite
def traces(draw):
    """Traces of 1-6 groups and 1-20 sweeps holding any finite float, and
    half of them one NaN or infinity in a mean or the report."""
    k, n = draw(st.integers(1, 6)), draw(st.integers(1, 20))
    values = st.floats(width=64, allow_nan=False, allow_infinity=False)
    trace = GibbsTrace(means=draw(arrays(np.float64, (n, k + 1), elements=values)),
                       variances=draw(arrays(np.float64, k + 1, elements=values)),
                       cross_cov=draw(arrays(np.float64, k, elements=values)),
                       wall_times=draw(arrays(np.float64, n, elements=st.floats(width=64))))
    if draw(st.booleans()):
        field = getattr(trace, draw(st.sampled_from(["means", "variances", "cross_cov"])))
        field.flat[draw(st.integers(0, field.size - 1))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
    return trace


@settings(max_examples=300, deadline=None)
@given(traces())
def test_trace_csv_roundtrip(trace):
    # every value comes back as written, to 12 significant digits; wall times
    # are not written, so they read as zero; writing it again gives the same
    # text. A NaN or infinity is written but not read back.
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    if not all(np.isfinite(v).all() for v in (trace.means, trace.variances, trace.cross_cov)):
        with pytest.raises(DomainError, match="non-finite"):
            read_trace_csv(io.StringIO(buf.getvalue()))
        return
    back = read_trace_csv(io.StringIO(buf.getvalue()))
    written = np.vectorize(lambda v: float(f"{v:.12g}"), otypes=[float])
    assert (back.group_count, back.sweeps) == (trace.group_count, trace.sweeps)
    for got, want in ((back.means, trace.means), (back.variances, trace.variances),
                      (back.cross_cov, trace.cross_cov)):
        assert got.shape == want.shape
        assert np.array_equal(got, written(want), equal_nan=True)
    assert np.array_equal(back.wall_times, np.zeros(trace.sweeps))
    again = io.StringIO()
    write_trace_csv(back, again)
    assert again.getvalue() == buf.getvalue()


@settings(max_examples=200, deadline=None)
@given(datasets())
def test_outcome_counts_match_a_per_row_tally(dataset):
    # labels without rows tally (0, 0)
    want = np.zeros((len(dataset.labels), 2), dtype=int)
    for (g, positive, _f), n in np.ndenumerate(dataset.counts):
        want[g, positive] += n
    got = dataset.outcome_counts()
    assert got.dtype.kind == "i" and np.array_equal(got, want)


@st.composite
def same_tally_datasets(draw):
    """Two datasets with one outcome tally: the first at one force, the
    second with its stops spread over three forces."""
    tally = draw(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                          min_size=1, max_size=4).filter(lambda t: sum(map(sum, t)) > 0))
    cells = [(g, positive) for g, (negatives, positives) in enumerate(tally)
             for positive, n in ((False, negatives), (True, positives)) for _ in range(n)]
    group = [g for g, _positive in cells]
    outcome = [positive for _g, positive in cells]
    force = draw(st.lists(st.integers(0, 2), min_size=len(cells), max_size=len(cells)))
    labels = [f"g{k}" for k in range(len(tally))]
    return (dataset_from_rows(group, outcome, labels),
            dataset_from_rows(group, outcome, labels, force, ("f0", "f1", "f2")))


@settings(max_examples=100, deadline=None)
@given(same_tally_datasets(), st.integers(1, 12), st.integers(0, 2**32 - 1), st.booleans(),
       st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4), st.floats(-2.0, 2.0),
       st.floats(0.1, 5.0), st.floats(0.1, 5.0))
@example(pair=(Dataset(np.array([[[0], [1]]]), ("g0",)),
               Dataset(np.array([[[0, 0, 0], [1, 0, 0]]]), ("g0",), ("f0", "f1", "f2"))),
         iterations=1, seed=0, anchor=False, bias=[0.0] * 4, criminality=5e-324,
         alpha=0.125, gamma=0.125)
def test_ranking_and_scores_read_only_the_outcome_tally(pair, iterations, seed, anchor,
                                                       bias, criminality, alpha, gamma):
    # force codes reach neither the ranking chain nor the score
    ordered, shuffled = pair
    k = len(ordered.labels)
    want_labels, *want_matches = matches_from_dataset(ordered)
    got_labels, *got_matches = matches_from_dataset(shuffled)
    assert got_labels == want_labels
    want = trueskill_gibbs(*want_matches, iterations, seed, anchor)
    got = trueskill_gibbs(*got_matches, iterations, seed, anchor)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    means = np.array(bias[:k])
    summary = PosteriorSummary(
        labels=list(ordered.labels), bias_mean=means, bias_variance=np.ones(k),
        rank=_ranks_desc(means), criminality_mean=criminality, criminality_variance=1.0,
        prior_kind=PriorKind.DEPENDENT, sweeps=1, alpha=alpha, gamma=gamma,
    )
    for method in ("accuracy", "likelihood"):
        assert (predictive_score(summary, shuffled, method)
                == predictive_score(summary, ordered, method)), method


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.booleans(), min_size=1, max_size=30), min_size=1, max_size=4),
       st.randoms(use_true_random=False), st.sampled_from([PriorKind.INDEPENDENT,
                                                           PriorKind.DEPENDENT]),
       st.integers(0, 2**32 - 1))
def test_anchored_run_gibbs_ignores_row_order(outcomes, shuffler, prior, seed):
    # the anchored chain sees only each group's counts of positive and
    # negative stops, so the canonical file's rows in any order give the
    # same trace and summary as the rows in cell order
    group = np.repeat(np.arange(len(outcomes)), [len(o) for o in outcomes])
    outcome = [o for rows in outcomes for o in rows]
    buf = io.BytesIO()
    write_dataset_csv(dataset_from_rows(group, outcome, [f"g{k}" for k in range(len(outcomes))]),
                      buf)
    header, *rows = buf.getvalue().splitlines(keepends=True)
    shuffler.shuffle(rows)
    config = ModelConfig(seed=seed, prior=prior, sweeps=6, burn_in=2)
    want_summary, want = run_gibbs(read_dataset_csv(io.BytesIO(buf.getvalue())), config)
    shuffled = read_dataset_csv(io.BytesIO(b"".join([header, *rows])))
    got_summary, got = run_gibbs(shuffled, config)
    for name in ("means", "variances", "cross_cov"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got_summary.to_json() == want_summary.to_json()
    assert np.array_equal(got_summary.bias_mean, want_summary.bias_mean)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=4), st.floats(0.1, 10.0),
       st.sampled_from([1.0, -1.0]), st.integers(0, 2**32 - 1))
@example(ratios=[-12.0, 0.0, 12.0], sd=1.0, sign=1.0, seed=0)
@example(ratios=[-12.0, 0.0, 12.0], sd=3.0, sign=-1.0, seed=0)
def test_truncated_normal_support_moments_and_scalar_path(ratios, sd, sign, seed):
    # |mean|/sd up to 12: the normal and the exponential proposals, alone and
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


@settings(max_examples=200, deadline=None)
@given(st.floats(0.02, 2.0), st.floats(0.02, 2.0), st.floats(-2.0, 2.0),
       st.lists(st.floats(-37.0, 2.0), min_size=2, max_size=30))
@example(1.0, 1.0, 0.512, np.linspace(-14.0, -5.8, 200).tolist())
def test_outcome_probability_never_rises_with_the_bias(alpha, gamma, c, hs):
    # a group stopped on weaker grounds has no higher a hit rate: at each
    # stop threshold h the probability lies in [0, 1], and it does not rise
    # with beta by more than 8 ulps (on the outcome threshold 0, P- steps by
    # up to 5 where Owen's T sum hands over to its tail, at h r = -1); the
    # example is where a bivariate Owen's T sum once rose by up to 1.3e-4
    model = CellModel(alpha, gamma)
    h = np.unique(hs)
    p = model.outcome_probability(h * model.sa - c, c)
    assert ((0.0 <= p) & (p <= 1.0)).all()
    assert (np.diff(p) <= 8 * np.spacing(p[:-1])).all()
