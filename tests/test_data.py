import hashlib
import io
import math
import mmap
import os
import tracemalloc

import numpy as np
import pytest

from latentbias import (
    DataError,
    Dataset,
    DomainError,
    EthnicityMapping,
    SchemeKind,
    TrueParams,
    balance,
    coarsen_outcome,
    default_mapping,
    filter_force,
    parse_records,
    read_dataset_csv,
    split,
    synthesize,
    write_dataset_csv,
)
from latentbias.data import stream_bytes
from latentbias.gaussians import ndtr
from latentbias.manifest import sha256_file
from conftest import (
    GUILTY_LENIENT,
    NATIONAL_TABLE,
    LONDON_FORCE,
    NOT_GUILTY,
    dataset_from_rows,
    named_cells,
)


def _parse(text, scheme_kind=SchemeKind.GUILTY_NOT_GUILTY, mapping=None):
    mapping = mapping or default_mapping()
    return parse_records(io.StringIO(text), mapping, scheme_kind)


HEADER = "force,officer_defined_ethnicity,self_defined_ethnicity,outcome\n"


def _ds(groups, outcomes, forces=None):
    """Dataset over labels g0..gK; ``forces`` (one name per row) become the
    force table, so each row is a cell of its own."""
    labels = [f"g{i}" for i in range(max(groups, default=-1) + 1)]
    if forces is None:
        return dataset_from_rows(groups, outcomes, labels)
    return dataset_from_rows(groups, outcomes, labels, np.arange(len(forces)), tuple(forces))


# --- the dataset type --------------------------------------------------------------

def test_dataset_checks_shape_sign_integers_and_tables():
    ds = Dataset(np.array([[[1], [2]], [[0], [3]]]), ("a", "b"))
    assert len(ds) == 6 and ds.forces == ("",) and ds.counts.dtype == np.intp
    assert ds.outcome_counts().tolist() == [[1, 2], [0, 3]]
    assert not ds.counts.flags.writeable
    two_forces = Dataset(np.arange(8, dtype=np.uint8).reshape(2, 2, 2), ("a", "b"), ("f", "g"))
    assert two_forces.counts.ravel().tolist() == list(range(8))
    assert two_forces.outcome_counts().tolist() == [[1, 5], [9, 13]]
    for counts, labels, forces, message in (
            (np.zeros((2, 2, 1), dtype=int), ("a",), ("",), "shape"),      # one label too few
            (np.zeros((1, 3, 1), dtype=int), ("a",), ("",), "shape"),      # three outcomes
            (np.zeros((1, 2), dtype=int), ("a",), ("",), "shape"),         # no force axis
            (np.zeros((1, 2, 1), dtype=int), ("a",), ("f", "g"), "shape"),  # one force too few
            (np.array([[[1], [-1]]]), ("a",), ("",), "non-negative"),
            (np.zeros((1, 2, 1)), ("a",), ("",), "integers"),             # floats
            (np.zeros((1, 2, 1), dtype=bool), ("a",), ("",), "integers"),
            (np.zeros((2, 2, 1), dtype=int), ("a", "a"), ("",), "labels must be unique"),
            (np.zeros((1, 2, 2), dtype=int), ("a",), ("f", "f"), "forces must be unique")):
        with pytest.raises(DomainError, match=message):
            Dataset(counts, labels, forces)


# --- outcome coarsening -----------------------------------------------------------

def test_lenient_strings_are_negative_under_charges():
    for s in GUILTY_LENIENT:
        assert coarsen_outcome(s, SchemeKind.LENIENT_SEVERE, default_mapping()) is False


def test_arrest_is_severe():
    assert coarsen_outcome("Arrest", SchemeKind.LENIENT_SEVERE, default_mapping()) is True


def test_unknown_string_is_severe_under_charges():
    assert coarsen_outcome(
        "Some brand-new outcome", SchemeKind.LENIENT_SEVERE, default_mapping()
    ) is True


def test_empty_and_unknown_negative_under_guilty():
    kind, mapping = SchemeKind.GUILTY_NOT_GUILTY, default_mapping()
    assert coarsen_outcome("", kind, mapping) is False
    assert coarsen_outcome("Some brand-new outcome", kind, mapping) is False
    assert coarsen_outcome("  Arrest  ", kind, mapping) is True


def test_coarsening_total_on_arbitrary_text():
    kind, mapping = SchemeKind.GUILTY_NOT_GUILTY, default_mapping()
    rng = np.random.default_rng(0)
    for _ in range(200):
        junk = "".join(chr(32 + int(c)) for c in rng.integers(0, 90, size=12))
        assert coarsen_outcome(junk, kind, mapping) in (False, True)


def test_lenient_severe_requires_lenient_set():
    mapping = EthnicityMapping(lenient_set=frozenset())
    with pytest.raises(DomainError, match="nonempty lenient set"):
        _parse(HEADER, SchemeKind.LENIENT_SEVERE, mapping)


# --- parsing -----------------------------------------------------------------------

def test_parse_empty_file_with_header():
    records, report = _parse(HEADER)
    assert len(records) == 0
    assert report.rows_total == 0
    assert report.rows_kept == 0


def test_parse_missing_column_is_hard_error():
    with pytest.raises(DataError) as exc:
        _parse("force,officer_defined_ethnicity,self_defined_ethnicity\nx,White,,\n")
    assert "outcome" in str(exc.value)


def test_parse_basic_row_and_precedence():
    text = HEADER + (
        "ForceA,White,Black,Arrest\n"          # officer label wins
        "ForceA,,Black,Arrest\n"               # fallback to self-defined
        "ForceA,Asian,,Nothing found - no further action\n"
    )
    records, report = _parse(text)
    assert records.outcome_counts().tolist() == [[0, 1], [0, 1], [1, 0], [0, 0]]
    assert records.labels == default_mapping().group_labels
    assert records.forces == ("ForceA",)
    assert report.rows_kept == 3


def test_parse_self_precedence_mode():
    mapping = EthnicityMapping(precedence="self")
    text = HEADER + "ForceA,White,Black,Arrest\n"
    records, _report = parse_records(io.StringIO(text), mapping, SchemeKind.GUILTY_NOT_GUILTY)
    assert records.outcome_counts().tolist() == [[0, 0], [0, 1], [0, 0], [0, 0]]


def test_parse_drops_and_counts_bad_rows():
    text = HEADER + (
        "ForceA,White,,Arrest\n"
        "ForceA,,,Arrest\n"        # no ethnicity at all
        "ForceA,White,,\n"         # no outcome
        "ForceA,White\n"           # short row
    )
    records, report = _parse(text)
    assert len(records) == 1
    assert report.rows_total == 4
    assert report.rows_kept == 1
    assert report.dropped["missing ethnicity"] == 1
    assert report.dropped["missing outcome"] == 1
    assert report.dropped["malformed row"] == 1
    assert report.rows_kept + report.rows_dropped == report.rows_total


def test_parse_unparseable_row_is_data_error_with_line_number():
    # any row the strict CSV parser rejects ends the ingest, naming its line,
    # whatever the length of the field: an oversized field, text after a
    # closing quote, and a quote still open at the end of the input
    for bad, line in ((f"ForceA,{'x' * 200_000},,Arrest\n", 3),
                      ('ForceA,"White"x,,Arrest\n', 3),
                      ('ForceA,"White,,Arrest\n', 3)):
        text = HEADER + "ForceA,White,,Arrest\n" + bad + "ForceB,Black,,Arrest\n"
        with pytest.raises(DataError, match=f"^line {line}: "):
            _parse(text)


def test_parse_error_names_the_line_the_record_began():
    # a record from line 4 (after a blank line 3) breaks its quoted field onto
    # line 5 and has text after the closing quote there; a stream that can
    # seek is read again, while a pipe or a list of lines names the line the
    # parser stopped on
    text = (HEADER + "ForceA,White,,Arrest\n\n" + 'ForceA,"Wh\nite"x,,Arrest\n'
            + "ForceB,Black,,Arrest\n")
    read_end, write_end = os.pipe()
    os.write(write_end, text.encode())
    os.close(write_end)
    with open(read_end, encoding="utf-8", newline="") as pipe:
        for stream, line in ((io.StringIO(text), 4), (pipe, 5),
                             (io.StringIO(text).readlines(), 5)):
            with pytest.raises(DataError, match=f"^line {line}: "):
                parse_records(stream, default_mapping(), SchemeKind.GUILTY_NOT_GUILTY)


def test_parse_blank_lines_short_rows_and_duplicate_columns():
    # blank lines are not rows; a row too short to reach a required column
    # is malformed; an unused column may be named twice, a required one not
    with pytest.raises(DataError, match="^line 1: the header names 'outcome' more than once$"):
        _parse("outcome,force,officer_defined_ethnicity,self_defined_ethnicity,outcome\n"
               "Arrest,ForceA,White,,Arrest\n")
    text = (
        "note,force,officer_defined_ethnicity,self_defined_ethnicity,outcome,note\n"
        "\n"
        "ignored,ForceA,White,,Arrest\n"
        "\n"
        "Arrest,ForceA,White,\n"
        "\n"
    )
    records, report = _parse(text)
    assert report.rows_total == 2
    assert report.dropped == {"malformed row": 1}
    assert records.outcome_counts().sum(axis=0).tolist() == [0, 1]
    assert report.unknown_outcomes == 0


def test_parse_unmapped_ethnicity_goes_to_fallback_with_warning():
    text = HEADER + "ForceA,Martian,,Arrest\n"
    records, report = _parse(text)
    assert records.outcome_counts()[:, 1].tolist() == [0, 0, 0, 1]  # Other/Mixed
    assert report.unmapped_ethnicities == 1
    assert any("Martian" in w for w in report.warnings)
    # the report shows the first 20 warnings and counts the rest from the tally
    records, report = _parse(HEADER + "ForceA,Martian,,Arrest\n" * 250)
    assert report.unmapped_ethnicities == 250
    text = report.to_text()
    assert text.count("  warning: unmapped ethnicity 'Martian'") == 20
    assert text.endswith("  ... 230 more warnings\n")


def test_parse_charges_excludes_not_guilty():
    text = HEADER + (
        "ForceA,White,,Community resolution\n"
        "ForceA,White,,Arrest\n"
        f"ForceA,White,,{NOT_GUILTY}\n"
    )
    records, report = _parse(text, SchemeKind.LENIENT_SEVERE)
    assert len(records) == 2
    assert records.outcome_counts()[0].tolist() == [1, 1]  # lenient, severe
    assert report.dropped["not guilty (excluded from severity dataset)"] == 1


def test_mapping_json_roundtrip():
    mapping = default_mapping()
    back = EthnicityMapping.from_json(mapping.to_json())
    assert back.mapping == mapping.mapping
    assert back.lenient_set == mapping.lenient_set
    assert back.guilty_set == mapping.guilty_set
    assert back.group_labels == mapping.group_labels
    with pytest.raises(DataError):
        EthnicityMapping.from_json("{не json")


# --- national fixture --------------------------------------------------------------

def test_national_fixture_counts(national_records):
    _records, report, _mapping = national_records
    assert report.rows_total == 16224
    assert report.rows_kept == 16224
    for label, total, guilty, _lt, _lg in NATIONAL_TABLE:
        assert report.group_counts[label] == total
        assert report.group_positive[label] == guilty


def test_london_filter_matches_table(national_records):
    records, _report, _mapping = national_records
    london = filter_force(records, LONDON_FORCE)
    assert london.labels == records.labels and london.forces == (LONDON_FORCE,)
    assert np.array_equal(london.counts[:, :, 0],
                          records.counts[:, :, records.forces.index(LONDON_FORCE)])
    for gid, (label, _t, _g, lon_total, lon_guilty) in enumerate(NATIONAL_TABLE):
        assert london.outcome_counts()[gid].tolist() == [lon_total - lon_guilty, lon_guilty]


def test_filter_force_absent_is_empty(national_records):
    records, _report, _mapping = national_records
    none = filter_force(records, "No Such Force")
    assert len(none) == 0 and none.labels == records.labels and none.forces == ()


# --- balancing -----------------------------------------------------------------------

def test_balance_counts(national_records):
    records, _report, _mapping = national_records
    rng = np.random.default_rng(1)
    balanced = balance(records, 500, rng)
    assert len(balanced) == 2000
    assert balanced.outcome_counts().sum(axis=1).tolist() == [500] * 4


def test_balance_passthrough_at_group_size():
    records = _ds([0] * 5 + [1] * 9, [True] * 5 + [False] * 9)
    rng = np.random.default_rng(2)
    balanced = balance(records, 5, rng)
    assert balanced.outcome_counts().sum(axis=1).tolist() == [5, 5]
    assert balanced.outcome_counts()[0].tolist() == [0, 5]  # the whole group kept


def test_balance_minimum():
    records = _ds([0, 0, 1, 1], [True] * 4)
    balanced = balance(records, 1, np.random.default_rng(0))
    assert len(balanced) == 2


def test_balance_insufficient_names_group():
    records = _ds([0] * 3 + [1] * 10, [True] * 13)
    with pytest.raises(DomainError, match="^group 'g0' has 3 records, need 5$"):
        balance(records, 5, np.random.default_rng(0))


def test_balance_deterministic():
    records = _ds([i % 3 for i in range(600)], [bool(i % 2) for i in range(600)],
                  [str(i) for i in range(600)])
    a = balance(records, 50, np.random.default_rng(9))
    b = balance(records, 50, np.random.default_rng(9))
    assert (a.labels, a.forces) == (records.labels, records.forces)
    assert np.array_equal(a.counts, b.counts)
    assert a.outcome_counts().sum(axis=1).tolist() == [50] * 3
    assert np.all(a.counts <= records.counts)


def test_balance_inclusion_frequencies_uniform():
    # skewed group: every record's inclusion frequency stays within 3
    # standard errors of n/size over repeated seeded runs
    records = _ds([0] * 40, [bool(i % 2) for i in range(40)], [str(i) for i in range(40)])
    runs, keep = 600, 10
    counts = np.zeros(40)
    for s in range(runs):
        chosen = balance(records, keep, np.random.default_rng(s))
        # each row is the one stop of the force its position names
        counts += chosen.counts[0].sum(axis=0)
    p = keep / 40
    se = math.sqrt(p * (1 - p) / runs)
    freq = counts / runs
    assert np.all(np.abs(freq - p) < 3.5 * se + 1e-9)


# --- splitting ------------------------------------------------------------------------

def test_split_90_10():
    records = _ds([0] * 100, [bool(i % 2) for i in range(100)])
    train, test = split(records, 0.1, np.random.default_rng(0))
    assert len(train) == 90 and len(test) == 10


def test_split_stratified_exact():
    records = _ds([0] * 40 + [1] * 20, [True] * 60)
    _train, test = split(records, 0.1, np.random.default_rng(1))
    assert test.outcome_counts().sum(axis=1).tolist() == [4, 2]


def test_split_disjoint_exhaustive_deterministic():
    records = _ds([i % 3 for i in range(97)], [bool(i % 2) for i in range(97)],
                  [str(i) for i in range(97)])
    train, test = split(records, 0.25, np.random.default_rng(5))
    train2, test2 = split(records, 0.25, np.random.default_rng(5))
    assert np.array_equal(train.counts, train2.counts) and np.array_equal(test.counts, test2.counts)
    assert len(train) + len(test) == 97
    # each row is a cell of its own: together the sides hold every row once
    assert np.array_equal(train.counts + test.counts, records.counts)
    assert test.outcome_counts().sum(axis=1).tolist() == [8, 8, 8]  # round(0.25 * 33 or 32)
    for side in (train, test):
        assert (side.labels, side.forces) == (records.labels, records.forces)


def test_split_inclusion_frequencies_uniform():
    # every record's frequency on the test side stays within the tolerance
    # of test_balance_inclusion_frequencies_uniform of the test fraction
    records = _ds([0] * 40, [bool(i % 2) for i in range(40)], [str(i) for i in range(40)])
    runs, fraction = 600, 0.25
    counts = np.zeros(40)
    for s in range(runs):
        _train, test = split(records, fraction, np.random.default_rng(s))
        # each row is the one stop of the force its position names
        counts += test.counts[0].sum(axis=0)
    se = math.sqrt(fraction * (1 - fraction) / runs)
    assert np.all(np.abs(counts / runs - fraction) < 3.5 * se + 1e-9)


def test_split_validates_fraction():
    records = _ds([0] * 10, [True] * 10)
    for frac in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(DomainError):
            split(records, frac, np.random.default_rng(0))
    with pytest.raises(DomainError):
        split(_ds([0], [True]), 0.5, np.random.default_rng(0))


# --- synthetic generator ----------------------------------------------------------------

def test_synthesize_saturated_stop():
    params = TrueParams(beta=(10.0, 10.0), population=(5000, 5000))
    records, report = synthesize(params, np.random.default_rng(0))
    assert len(records) == 10000
    assert records.outcome_counts().sum(axis=1).tolist() == [5000, 5000]
    assert records.labels == ("group0", "group1")
    positive = int(records.outcome_counts()[:, 1].sum())
    assert positive / len(records) == pytest.approx(0.5, abs=0.02)


def test_synthesize_never_stopped():
    params = TrueParams(beta=(-10.0,), population=(20000,))
    records, report = synthesize(params, np.random.default_rng(1))
    assert len(records) == 0
    assert report.stopped == (0,)


def test_synthesize_no_groups():
    records, report = synthesize(TrueParams(beta=()), np.random.default_rng(0))
    assert len(records) == 0 and records.labels == ()
    assert report.stopped == () and report.positive == ()


def test_synthesize_stop_rates_match_closed_form():
    beta = (0.0, 0.5, 1.0, 1.5)
    params = TrueParams(beta=beta, population=(100_000,) * 4)
    _records, report = synthesize(params, np.random.default_rng(2))
    for k, b in enumerate(beta):
        want = ndtr(b / math.sqrt(2.0))
        assert report.stop_rate(k) == pytest.approx(want, abs=0.01)


def test_synthesize_respects_alpha():
    params = TrueParams(beta=(1.0,), alpha=3.0, population=(200_000,))
    _records, report = synthesize(params, np.random.default_rng(3))
    want = ndtr(1.0 / math.sqrt(4.0))
    assert report.stop_rate(0) == pytest.approx(want, abs=0.01)


@pytest.mark.parametrize("field", ["alpha", "gamma"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
def test_true_params_rejects_bad_noise(field, value):
    with pytest.raises(DomainError, match="positive and finite"):
        TrueParams(beta=(0.0,), **{field: value})


@pytest.mark.parametrize("beta", [(math.nan, 0.0), (math.inf, 0.0), (0.0, -math.inf)])
def test_true_params_rejects_a_non_finite_beta(beta):
    # NaN once drew no stops for its group and inf stopped everyone
    with pytest.raises(DomainError, match="beta entries must be finite"):
        TrueParams(beta=beta)


@pytest.mark.parametrize("population", [(2.7,), (3.0,), (True,), (np.bool_(True),), (0,),
                                        (np.int64(-4),), ("5",)])
def test_true_params_rejects_a_population_that_is_not_a_positive_integer(population):
    # 2.7 was once floored to 2 and True read as 1
    with pytest.raises(DomainError, match="positive integers"):
        TrueParams(beta=(0.0,), population=population)


def test_true_params_accepts_numpy_integer_populations():
    params = TrueParams(beta=(np.float64(0.5),), population=(np.int32(7),))
    assert params.population == (7,) and type(params.population[0]) is int
    assert params.beta == (0.5,)


# --- canonical CSV ------------------------------------------------------------------------

def test_dataset_csv_roundtrip():
    params = TrueParams(beta=(0.0, 1.0), population=(300, 300))
    records, _report = synthesize(params, np.random.default_rng(4))
    buf = io.BytesIO()
    write_dataset_csv(records, buf)
    assert buf.getvalue().splitlines()[0] == b"group,stopped,outcome,force"
    back = read_dataset_csv(io.BytesIO(buf.getvalue()))
    assert back.labels == ("group0", "group1")
    assert back.forces == ("synthetic",)
    assert np.array_equal(back.counts, records.counts)


def test_dataset_csv_quotes_force_names():
    records = dataset_from_rows([1, 0], [True, False], ("b", "a"), [0, 1],
                                ("Police Service, PSNI", ""))
    buf = io.BytesIO()
    write_dataset_csv(records, buf)
    # cell (2·group + outcome)·2 + force: 1 for the second row, 6 for the first
    assert buf.getvalue() == b'group,stopped,outcome,force\nb,1,0,\na,1,1,"Police Service, PSNI"\n'
    back = read_dataset_csv(io.BytesIO(buf.getvalue()))
    assert back.labels == ("a", "b")  # codes follow sorted label order
    assert back.forces == ("", "Police Service, PSNI")  # forces in order of first appearance
    assert back.counts.tolist() == [[[0, 0], [0, 1]], [[1, 0], [0, 0]]]


def test_dataset_csv_reads_past_a_byte_order_mark(tmp_path):
    # spreadsheet software saves UTF-8 with a leading BOM; the header is
    # still the header, from a mapped file and from a stream read whole
    records = dataset_from_rows([1, 0, 0], [True, False, True], ("b", "a"), [0, 1, 0], ("f", "g"))
    buf = io.BytesIO()
    write_dataset_csv(records, buf)
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + buf.getvalue())
    plain = read_dataset_csv(io.BytesIO(buf.getvalue()))
    with open(path, "rb") as fh:
        mapped = read_dataset_csv(fh)
    for back in (mapped, read_dataset_csv(io.BytesIO(path.read_bytes()))):
        assert (back.labels, back.forces) == (plain.labels, plain.forces) == (("a", "b"), ("g", "f"))
        assert np.array_equal(back.counts, plain.counts)


@pytest.mark.parametrize(
    "bad_row",
    ["a,yes,1,f", "a,2,1,f", "a,true,0,f", "a,1,yes,f", "a,1,2,f", "a,1,true,f", "a,1",
     "a,0,,f", "a,0,0,f", "a,1,,f"],
)
def test_dataset_csv_rejects_bad_flags_with_line_number(bad_row):
    text = "group,stopped,outcome,force\na,1,1,f\nb,1,0,f\n" + bad_row + "\n"
    with pytest.raises(DataError, match="^line 4: "):
        read_dataset_csv(io.BytesIO(text.encode()))


def test_dataset_csv_error_names_the_physical_line():
    # blank lines and a quoted line break still count as lines of the file,
    # and a bad record that spans lines is named by the line it began on,
    # also after good records that share its first line
    for text, line in (("group,stopped,outcome,force\n\n\na,1,1,f\na,1,x,f\n", 5),
                       ('group,stopped,outcome,force\n"a\n\nb",1,1,f\na,1,x,f\n', 5),
                       ('group,stopped,outcome,force\n"a\nb",1,x,f\n', 2),
                       ('group,stopped,outcome,force\n"a\nb",1,1,f\n"a\nb",1,0,"g\nh"\n'
                        '"a\nb",1,x,f\n', 7)):
        with pytest.raises(DataError, match=f"^line {line}: "):
            read_dataset_csv(io.BytesIO(text.encode()))


def test_dataset_csv_parse_error_names_the_line_the_record_began():
    # a quote left open on line 3, and text after a quote closed on line 4 of
    # a record that began on line 3
    for text in ('group,stopped,outcome,force\na,1,1,f\na,1,1,"f\na,1,1,f\n\n',
                 'group,stopped,outcome,force\na,1,1,f\n"a\nb"x,1,1,f\na,1,1,f\n'):
        with pytest.raises(DataError, match="^line 3: "):
            read_dataset_csv(io.BytesIO(text.encode()))


def test_dataset_csv_unparseable_row_is_data_error_with_line_number():
    text = "group,stopped,outcome,force\na,1,1,f\n" + f"a,1,1,{'x' * 200_000}\n"
    with pytest.raises(DataError, match="^line 3: field larger than field limit"):
        read_dataset_csv(io.BytesIO(text.encode()))


def _same_dataset(a, b):
    """``a`` is what reading ``b`` as written gives: the same count in every
    cell named by label and force, the labels present sorted and the forces
    present in order of first appearance, which is cell order."""
    cells = named_cells(b)
    return (a.labels == tuple(sorted({label for label, _o, _f in cells}))
            and a.forces == tuple(dict.fromkeys(force for _l, _o, force in cells))
            and named_cells(a) == cells)


def test_dataset_csv_reads_blank_lines_and_a_record_over_two_lines():
    records = dataset_from_rows([1, 0, 2, 1, 0], [True, False, True, True, False],
                                ("a", "b", "c\nd"), [0, 1, 1, 0, 1], ("Police, PSNI", "f"))
    buf = io.BytesIO()
    write_dataset_csv(records, buf)
    header, rows = buf.getvalue().split(b"\n", 1)
    raw = header + b"\n\n" + rows + b"\n"  # with blank lines, and a record over two lines
    assert _same_dataset(read_dataset_csv(io.BytesIO(raw)), records)


def test_dataset_csv_roundtrips_many_records_that_span_lines():
    # every record spans two lines, so the file takes the row path: one
    # parse in file order, a row at a time from the decoded bytes
    rng = np.random.default_rng(15)
    n = 20_000
    records = dataset_from_rows(rng.integers(0, 3, n), rng.random(n) < 0.5,
                                ("a\nb", "c\nd", "e\n"), rng.integers(0, 2, n), ("f", "g\nh"))
    buf = io.BytesIO()
    write_dataset_csv(records, buf)
    back = read_dataset_csv(io.BytesIO(buf.getvalue()))
    assert back.labels == ("a\nb", "c\nd", "e\n") and back.forces == ("f", "g\nh")
    assert np.array_equal(back.counts, records.counts)


def _read_peak(stream):
    """The dataset read from ``stream`` and the peak of memory the read allocated."""
    tracemalloc.start()
    try:
        back = read_dataset_csv(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return back, peak


def _many_stops():
    params = TrueParams(beta=(0.4, 0.0, -0.4, -0.8), population=(112_000,) * 4)
    records, _report = synthesize(params, np.random.default_rng(15))
    buf = io.BytesIO()
    write_dataset_csv(records, buf)
    assert len(records) > 200_000
    return records, buf.getvalue()


def test_dataset_csv_binary_read_holds_no_list_of_lines():
    # about 214k stops on 8 distinct lines: the read walks the 8 runs and
    # holds the file's bytes (about 4.2 MB) and copies of a run's line up to
    # half the run, not every line of the file (about 24 MB)
    records, raw = _many_stops()
    back, peak = _read_peak(io.BytesIO(raw))
    assert np.array_equal(back.counts, records.counts)
    assert peak < 14e6, f"read peaked at {peak / 1e6:.1f} MB"


def test_dataset_csv_rejects_wrong_schema():
    with pytest.raises(DataError):
        read_dataset_csv(io.BytesIO(b"a,b\n1,2\n"))


@pytest.mark.parametrize("header, named", [("group,stopped,outcome,force,group", "'group'"),
                                           ("force,group,stopped,force,outcome", "'force'")])
def test_dataset_csv_rejects_a_column_named_twice(header, named):
    text = header + "\na,1,1,f,b\n"
    with pytest.raises(DataError, match=f"^line 1: the header names {named} more than once"):
        read_dataset_csv(io.BytesIO(text.encode()))


@pytest.mark.parametrize("text, message", [
    ("group,stopped,outcome,force\nb,1,1,f\na,1,0\n", "line 3: row has 3 fields, need 4"),
    ("group,stopped,outcome,force\na,1\n", "line 2: row has 2 fields, need 4"),
    ("stopped,group,note,outcome,force\n1,a,n\n", "line 2: row has 3 fields, need 5")])
def test_dataset_csv_short_row_names_its_field_count(text, message):
    with pytest.raises(DataError, match=f"^{message}$"):
        read_dataset_csv(io.BytesIO(text.encode()))


def _with_endings(text, ending):
    return text.replace("\n", ending).encode()


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
def test_dataset_csv_reads_binary_lines_as_text_lines(ending):
    # a binary read ends lines at LF only, so a CR-only file is one binary
    # line, which a csv reader fed those lines rejects as a line break in an
    # unquoted field; it must read as the text does
    records = dataset_from_rows([1, 0, 2, 1, 0], [True, False, True, True, False],
                                ("a", "b", "c"), [0, 1, 1, 0, 1], ("Police, PSNI", "f"))
    buf = io.BytesIO()
    write_dataset_csv(records, buf)
    raw = _with_endings(buf.getvalue().decode(), ending)
    assert _same_dataset(read_dataset_csv(io.BytesIO(raw)), records)
    bad = _with_endings("group,stopped,outcome,force\na,1,1,f\n\na,1,x,f\n", ending)
    with pytest.raises(DataError, match="^line 4: every row must be a stop"):
        read_dataset_csv(io.BytesIO(bad))


def test_dataset_csv_binary_error_names_the_text_line():
    # a header that spans lines or recurs, and a quoted CR that text mode
    # ends a line at, in the header and in a row
    for text, line in (('group,stopped,outcome,force,"no\nte"\na,1,1,f,n\na,1,x,f,n\n', 4),
                       ('group,stopped,outcome,force\na,1,1,f\ngroup,stopped,outcome,force\n',
                        3),
                       ('group,stopped,outcome,"x\ry",force\na,1,1,n,f\na,1,x,n,f\n', 4),
                       ('group,stopped,outcome,force\na,1,1,"f\rg"\na,1,x,f\n', 4)):
        with pytest.raises(DataError, match=f"^line {line}: every row must be a stop"):
            read_dataset_csv(io.BytesIO(text.encode()))
    text = 'group,stopped,outcome,force,"no\nte"\na,1,1,f,n\nb,1,0,g,n\n'
    back = read_dataset_csv(io.BytesIO(text.encode()))
    assert back.labels == ("a", "b") and back.forces == ("f", "g")
    assert back.counts.tolist() == [[[0, 0], [1, 0]], [[0, 1], [0, 0]]]


def test_dataset_csv_binary_lines_decode_as_strict_utf8():
    back = read_dataset_csv(io.BytesIO("group,stopped,outcome,force\né,1,1,中\n".encode()))
    assert back.labels == ("é",) and back.forces == ("中",)
    for raw in (b"group,stopped,outcome,force\na,1,0,\xff\n", b"group,stopped,\xffoutcome\n"):
        with pytest.raises(UnicodeDecodeError):
            read_dataset_csv(io.BytesIO(raw))


def test_dataset_csv_without_rows():
    # an empty input has no header, and a header alone, with or without its
    # newline, is an empty dataset
    with pytest.raises(DataError, match="^canonical dataset CSV needs columns"):
        read_dataset_csv(io.BytesIO(b""))
    for raw in (b"group,stopped,outcome,force\n", b"group,stopped,outcome,force"):
        back = read_dataset_csv(io.BytesIO(raw))
        assert (back.labels, back.forces, len(back)) == ((), (), 0)
        assert back.counts.shape == (0, 2, 0) and back.counts.dtype == np.intp


def _canonical_bytes(labels=("a", "b"), forces=("f", "Police, PSNI")) -> bytes:
    records = dataset_from_rows([0, 1, 1, 0, 1, 0], [True, False, True, True, False, False],
                                labels, [0, 1, 1, 0, 0, 1], forces)
    buf = io.BytesIO()
    write_dataset_csv(records, buf)
    return buf.getvalue()


def _shuffled(raw: bytes) -> bytes:
    header, *rows = raw.splitlines(keepends=True)
    np.random.default_rng(2).shuffle(rows)
    return header + b"".join(rows)


# files the reader maps, one per path through it: runs in cell order, lines
# counted one by one, a last line without LF, the row path (a quoted line
# break, CR line endings), an undecodable byte, and a file too empty to map
_MAPPED_FILES = {
    "cell order": _canonical_bytes(),
    "shuffled": _shuffled(_canonical_bytes()),
    "no final LF": _canonical_bytes()[:-1],
    "quoted line break": _canonical_bytes(labels=("a\nb", "c")),
    "CR endings": _canonical_bytes().replace(b"\n", b"\r"),
    "non-UTF-8": _canonical_bytes().replace(b"a,1,1,f", b"a,1,1,\xff", 1),
    "empty": b"",
}


def _fd_count() -> int | None:
    """The number of this process's open file descriptors, ``None`` where
    ``/proc/self/fd`` does not list them."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def _read_result(stream):
    """The tally ``read_dataset_csv`` reads from ``stream``, or the type and
    text of the error it raises."""
    try:
        back = read_dataset_csv(stream)
    except (DataError, UnicodeDecodeError) as exc:
        return type(exc), str(exc)
    return back.labels, back.forces, back.counts.tolist()


@pytest.mark.parametrize("raw", _MAPPED_FILES.values(), ids=_MAPPED_FILES)
def test_mapped_file_reads_as_its_bytes_do(tmp_path, raw):
    # the file is read through a mapping of it; the bytes in memory are read
    # as they are: the same tally or the same error, and no descriptor is
    # left open by the mapping
    path = tmp_path / "dataset.csv"
    path.write_bytes(raw)
    with open(path, "rb") as fh:
        before = _fd_count()
        mapped = _read_result(fh)
        assert _fd_count() == before
    assert mapped == _read_result(io.BytesIO(raw))


@pytest.mark.parametrize("raw", [b"", _canonical_bytes()], ids=["empty", "nonempty"])
def test_sha256_file_hashes_the_file_and_leaves_no_descriptor(tmp_path, raw):
    path = tmp_path / "input.csv"
    path.write_bytes(raw)
    before = _fd_count()
    assert sha256_file(path) == hashlib.sha256(path.read_bytes()).hexdigest()
    assert _fd_count() == before


def test_stream_bytes_maps_a_file_at_its_start_and_reads_anything_else(tmp_path):
    path = tmp_path / "input.csv"
    path.write_bytes(b"group\n")
    with open(path, "rb") as fh, stream_bytes(fh) as data:
        assert isinstance(data, mmap.mmap) and data[:] == b"group\n"
    assert data.closed
    with open(path, "rb") as fh:
        fh.seek(2)
        with stream_bytes(fh) as data:
            assert data == b"oup\n"
    read_end, write_end = os.pipe()
    os.write(write_end, b"group\n")
    os.close(write_end)
    with open(read_end, "rb") as pipe, stream_bytes(pipe) as data:
        assert data == b"group\n"
    with stream_bytes(io.BytesIO(b"group\n")) as data:
        assert data == b"group\n"
    path.write_bytes(b"")
    with open(path, "rb") as fh, stream_bytes(fh) as data:
        assert data == b""
