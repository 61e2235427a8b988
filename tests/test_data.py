import io
import math

import numpy as np
import pytest

from latentbias import (
    ColumnSpec,
    DataError,
    DomainError,
    EthnicityMapping,
    SchemeKind,
    StopRecord,
    TrueParams,
    balance,
    coarsen_outcome,
    default_mapping,
    filter_force,
    parse_records,
    read_dataset_csv,
    split,
    std_normal_cdf,
    synthesize,
    write_dataset_csv,
)
from latentbias.data import OutcomeScheme

from conftest import (
    GUILTY_LENIENT,
    NATIONAL_TABLE,
    LONDON_FORCE,
    NOT_GUILTY,
)


def _parse(text, scheme_kind=SchemeKind.GUILTY_NOT_GUILTY, mapping=None):
    mapping = mapping or default_mapping()
    return parse_records(io.StringIO(text), mapping, mapping.scheme(scheme_kind), ColumnSpec())


HEADER = "force,officer_defined_ethnicity,self_defined_ethnicity,outcome\n"


# --- outcome coarsening -----------------------------------------------------------

def test_lenient_strings_are_negative_under_charges():
    scheme = default_mapping().scheme(SchemeKind.LENIENT_SEVERE)
    for s in GUILTY_LENIENT:
        assert coarsen_outcome(s, scheme) is False


def test_arrest_is_severe():
    scheme = default_mapping().scheme(SchemeKind.LENIENT_SEVERE)
    assert coarsen_outcome("Arrest", scheme) is True


def test_unknown_string_is_severe_under_charges():
    scheme = default_mapping().scheme(SchemeKind.LENIENT_SEVERE)
    assert coarsen_outcome("Some brand-new outcome", scheme) is True


def test_empty_and_unknown_negative_under_guilty():
    scheme = default_mapping().scheme(SchemeKind.GUILTY_NOT_GUILTY)
    assert coarsen_outcome("", scheme) is False
    assert coarsen_outcome("Some brand-new outcome", scheme) is False
    assert coarsen_outcome("  Arrest  ", scheme) is True


def test_coarsening_total_on_arbitrary_text():
    scheme = default_mapping().scheme(SchemeKind.GUILTY_NOT_GUILTY)
    rng = np.random.default_rng(0)
    for _ in range(200):
        junk = "".join(chr(32 + int(c)) for c in rng.integers(0, 90, size=12))
        assert coarsen_outcome(junk, scheme) in (False, True)


def test_lenient_severe_requires_lenient_set():
    with pytest.raises(DomainError):
        OutcomeScheme(kind=SchemeKind.LENIENT_SEVERE, lenient_set=frozenset())


# --- parsing -----------------------------------------------------------------------

def test_parse_empty_file_with_header():
    records, report = _parse(HEADER)
    assert records == []
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
    assert [r.group for r in records] == [0, 1, 2]
    assert [r.outcome for r in records] == [True, True, False]
    assert report.rows_kept == 3


def test_parse_self_precedence_mode():
    mapping = EthnicityMapping(precedence="self")
    text = HEADER + "ForceA,White,Black,Arrest\n"
    records, _report = parse_records(
        io.StringIO(text), mapping, mapping.scheme(SchemeKind.GUILTY_NOT_GUILTY), ColumnSpec()
    )
    assert records[0].group == 1


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


def test_parse_unmapped_ethnicity_goes_to_fallback_with_warning():
    text = HEADER + "ForceA,Martian,,Arrest\n"
    records, report = _parse(text)
    assert records[0].group == 3  # Other/Mixed
    assert report.unmapped_ethnicities == 1
    assert any("Martian" in w for w in report.warnings)


def test_parse_charges_excludes_not_guilty():
    text = HEADER + (
        "ForceA,White,,Community resolution\n"
        "ForceA,White,,Arrest\n"
        f"ForceA,White,,{NOT_GUILTY}\n"
    )
    records, report = _parse(text, SchemeKind.LENIENT_SEVERE)
    assert len(records) == 2
    assert [r.outcome for r in records] == [False, True]  # lenient, severe
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
    for gid, (label, _t, _g, lon_total, lon_guilty) in enumerate(NATIONAL_TABLE):
        got = [r for r in london if r.group == gid]
        assert len(got) == lon_total
        assert sum(1 for r in got if r.outcome) == lon_guilty


def test_filter_force_absent_is_empty(national_records):
    records, _report, _mapping = national_records
    assert filter_force(records, "No Such Force") == []


# --- balancing -----------------------------------------------------------------------

def test_balance_counts(national_records):
    records, _report, _mapping = national_records
    rng = np.random.default_rng(1)
    balanced = balance(records, 500, rng)
    assert len(balanced) == 2000
    for g in range(4):
        assert sum(1 for r in balanced if r.group == g) == 500


def test_balance_passthrough_at_group_size():
    records = [StopRecord(group=0, outcome=True)] * 5 + [StopRecord(group=1, outcome=False)] * 9
    rng = np.random.default_rng(2)
    balanced = balance(records, 5, rng)
    assert sum(1 for r in balanced if r.group == 0) == 5
    assert sum(1 for r in balanced if r.group == 1) == 5


def test_balance_minimum():
    records = [StopRecord(group=g, outcome=True) for g in (0, 0, 1, 1)]
    balanced = balance(records, 1, np.random.default_rng(0))
    assert len(balanced) == 2


def test_balance_insufficient_names_group():
    records = [StopRecord(group=0, outcome=True)] * 3 + [StopRecord(group=1, outcome=True)] * 10
    with pytest.raises(DomainError) as exc:
        balance(records, 5, np.random.default_rng(0))
    assert "group 0" in str(exc.value)


def test_balance_deterministic():
    records = [StopRecord(group=i % 3, outcome=bool(i % 2)) for i in range(600)]
    a = balance(records, 50, np.random.default_rng(9))
    b = balance(records, 50, np.random.default_rng(9))
    assert a == b


def test_balance_inclusion_frequencies_uniform():
    # skewed group: every record's inclusion frequency stays within 3
    # standard errors of n/size over repeated seeded runs
    records = [StopRecord(group=0, outcome=bool(i % 2)) for i in range(40)]
    runs, keep = 600, 10
    counts = np.zeros(40)
    for s in range(runs):
        chosen = balance(records, keep, np.random.default_rng(s))
        # identify chosen records by identity in the list
        ids = set()
        it = iter(range(40))
        for rec in chosen:
            for i in it:
                if records[i] is rec:
                    ids.add(i)
                    break
        for i in ids:
            counts[i] += 1
    p = keep / 40
    se = math.sqrt(p * (1 - p) / runs)
    freq = counts / runs
    assert np.all(np.abs(freq - p) < 3.5 * se + 1e-9)


# --- splitting ------------------------------------------------------------------------

def test_split_90_10():
    records = [StopRecord(group=0, outcome=bool(i % 2)) for i in range(100)]
    train, test = split(records, 0.1, np.random.default_rng(0))
    assert len(train) == 90 and len(test) == 10


def test_split_stratified_exact():
    records = [StopRecord(group=0, outcome=True)] * 40 + [StopRecord(group=1, outcome=True)] * 20
    _train, test = split(records, 0.1, np.random.default_rng(1))
    assert sum(1 for r in test if r.group == 0) == 4
    assert sum(1 for r in test if r.group == 1) == 2


def test_split_disjoint_exhaustive_deterministic():
    records = [StopRecord(group=i % 3, outcome=bool(i % 2), force=str(i)) for i in range(97)]
    t1 = split(records, 0.25, np.random.default_rng(5))
    t2 = split(records, 0.25, np.random.default_rng(5))
    assert t1 == t2
    train, test = t1
    assert len(train) + len(test) == 97
    forces = sorted(r.force for r in train + test)
    assert forces == sorted(str(i) for i in range(97))


def test_split_validates_fraction():
    records = [StopRecord(group=0, outcome=True)] * 10
    for frac in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(DomainError):
            split(records, frac, np.random.default_rng(0))
    with pytest.raises(DomainError):
        split(records[:1], 0.5, np.random.default_rng(0))


# --- synthetic generator ----------------------------------------------------------------

def test_synthesize_saturated_stop():
    params = TrueParams(beta=(10.0, 10.0), population=(5000, 5000))
    records, report = synthesize(params, np.random.default_rng(0))
    assert len(records) == 10000
    positive = sum(1 for r in records if r.outcome)
    assert positive / len(records) == pytest.approx(0.5, abs=0.02)


def test_synthesize_never_stopped():
    params = TrueParams(beta=(-10.0,), population=(20000,))
    records, report = synthesize(params, np.random.default_rng(1))
    assert records == []
    assert report.stopped == (0,)


def test_synthesize_stop_rates_match_closed_form():
    beta = (0.0, 0.5, 1.0, 1.5)
    params = TrueParams(beta=beta, population=(100_000,) * 4)
    _records, report = synthesize(params, np.random.default_rng(2))
    for k, b in enumerate(beta):
        want = std_normal_cdf(b / math.sqrt(2.0))
        assert report.stop_rate(k) == pytest.approx(want, abs=0.01)


def test_synthesize_respects_alpha():
    params = TrueParams(beta=(1.0,), alpha=3.0, population=(200_000,))
    _records, report = synthesize(params, np.random.default_rng(3))
    want = std_normal_cdf(1.0 / math.sqrt(4.0))
    assert report.stop_rate(0) == pytest.approx(want, abs=0.01)


# --- canonical CSV ------------------------------------------------------------------------

def test_dataset_csv_roundtrip():
    params = TrueParams(beta=(0.0, 1.0), population=(300, 300))
    records, _report = synthesize(params, np.random.default_rng(4))
    from latentbias import EthnicGroup

    groups = [EthnicGroup(0, "group0"), EthnicGroup(1, "group1")]
    buf = io.StringIO()
    write_dataset_csv(records, groups, buf)
    back_records, back_groups = read_dataset_csv(io.StringIO(buf.getvalue()))
    assert [g.label for g in back_groups] == ["group0", "group1"]
    assert len(back_records) == len(records)
    for a, b in zip(records, back_records):
        assert (a.group, a.stopped, a.outcome, a.force) == (b.group, b.stopped, b.outcome, b.force)


@pytest.mark.parametrize(
    "bad_row",
    ["a,yes,1,f", "a,2,1,f", "a,true,0,f", "a,1,yes,f", "a,1,2,f", "a,1,true,f", "a,1"],
)
def test_dataset_csv_rejects_bad_flags_with_line_number(bad_row):
    text = "group,stopped,outcome,force\na,1,1,f\nb,1,0,f\n" + bad_row + "\n"
    with pytest.raises(DataError, match="^line 4: "):
        read_dataset_csv(io.StringIO(text))


def test_dataset_csv_accepts_empty_outcome_for_non_stop():
    records, _groups = read_dataset_csv(io.StringIO("group,stopped,outcome,force\na,0,,f\n"))
    assert (records[0].stopped, records[0].outcome) == (False, None)


def test_dataset_csv_rejects_wrong_schema():
    with pytest.raises(DataError):
        read_dataset_csv(io.StringIO("a,b\n1,2\n"))
