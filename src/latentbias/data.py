"""Ingestion and dataset operations for stop-and-search records.

Raw input is RFC 4180 CSV with a header row naming at least the four
columns in :data:`RAW_COLUMNS`: the force, the officer-defined ethnicity,
the self-defined ethnicity, and the outcome text. Outcome strings are
matched exactly after whitespace trimming and case-sensitively.

Two outcome schemes exist (:class:`SchemeKind`). ``GuiltyNotGuilty`` marks
a record positive when its outcome string is in the guilty set (unknown
strings count negative and are tallied in the ingest report).
``LenientSevere`` applies to records already guilty-positive - everything
else is dropped from the dataset - and marks a record positive ("severe")
exactly when the outcome is NOT in the lenient set. :func:`coarsen_outcome`
is the one place this rule lives.

The ethnicity mapping and the guilty, lenient and not-guilty sets travel
together in one :class:`EthnicityMapping`, read from one JSON
configuration file, so an ingest run is fully specified by its inputs and
the scheme.

Every layer holds its stops as one :class:`Dataset`, a tally: the number
of stops in each (group, outcome, force) cell, in one ``(K, 2, F)``
integer array, plus the label and force tables. Nothing reads a stop's
place in a file: :func:`balance` and :func:`split` draw each group's cells
as a uniform subsample of its stops would, and :func:`filter_force` keeps
one force's column.

:func:`parse_records` tokenises a raw export once. C-level iterators
intern each row's four :data:`RAW_COLUMNS` fields to a key id, so no
Python runs per row, and each distinct key is resolved once in Python.
The key holds no other column, so dates and other unused fields, which
make almost every line of a real export distinct, do not multiply it.

Both readers parse strictly: any CSV parser error (a quote still open at
the end of the input, text after a closing quote, a field over the
parser's size limit) raises :class:`~latentbias.errors.DataError` naming
the line on which the rejected record began, whatever the field's length:
for a quote left open, the line of the quote, not the end of the input.
Ingest only drops and counts rows with too few fields.

The canonical dataset CSV has one line per stop, so a file has at most
2·K·F distinct lines for K groups and F forces. :func:`write_dataset_csv`
writes the stops in cell order to a binary stream, each cell present as
one run of its line's bytes in one write. :func:`read_dataset_csv` reads
one input form, a binary stream, through a read-only mapping of its file
where it has one (:func:`stream_bytes`, which the manifest's hash shares),
so the file's bytes are read in the page cache and never copied. It
counts the copies of every distinct line, counting each run of one line
with a few comparisons, up to the first line that recurs after a
different line. It then has two paths, one parse per distinct line or one
parse in file order of the decoded bytes, split into lines as text mode
splits them; its docstring has the details.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
import mmap
import re
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import count, repeat
from operator import add, itemgetter
from typing import BinaryIO, Iterable, Sequence, TextIO

import numpy as np

from .errors import DataError, DomainError
from .model import CellModel, require_positive_finite

__all__ = [
    "Dataset",
    "SchemeKind",
    "EthnicityMapping",
    "IngestReport",
    "TrueParams",
    "SynthReport",
    "default_mapping",
    "coarsen_outcome",
    "parse_records",
    "balance",
    "filter_force",
    "split",
    "synthesize",
    "write_dataset_csv",
    "read_dataset_csv",
    "stream_bytes",
]

DEFAULT_GROUP_LABELS = ("White", "Black", "Asian", "Other/Mixed")

# header names of the raw columns ingest reads: force, officer-defined
# ethnicity, self-defined ethnicity, outcome text
RAW_COLUMNS = ("force", "officer_defined_ethnicity", "self_defined_ethnicity", "outcome")

# unmapped-ethnicity warnings kept in (and printed by) an ingest report
_WARNINGS_KEPT = 20

# the five lenient outcome strings; severe is everything else guilty
DEFAULT_LENIENT = frozenset(
    {
        "Khat or Cannabis Warning",
        "Local resolution",
        "Community resolution",
        "A no further action disposal",
        "Suspected substances seized - No further action",
    }
)

# outcomes that confirm an offence (includes the lenient responses - those
# are lenient *sanctions*, not clearances)
DEFAULT_GUILTY = frozenset(
    {
        "Arrest",
        "Summons / charged by post",
        "Caution (simple or conditional)",
        "Penalty Notice for Disorder",
        "Offender given drugs possession warning",
        "Offender given penalty notice",
        "Offender cautioned",
        "Article found - Detailed outcome unavailable",
    }
    | set(DEFAULT_LENIENT)
)

# the keys a mapping file may hold
_MAPPING_KEYS = frozenset(
    {"precedence", "group_labels", "ethnicity", "lenient", "guilty", "not_guilty"})

# recognised clearances; anything else outside the guilty set is tallied
# as an unknown outcome string in the ingest report
DEFAULT_NOT_GUILTY = frozenset(
    {
        "Nothing found - no further action",
        "No further action",
        "False or inaccurate report",
    }
)

_DEFAULT_ETHNICITY_MAP = {
    "White": "White",
    "Black": "Black",
    "Asian": "Asian",
    "Other": "Other/Mixed",
    "Mixed": "Other/Mixed",
    "White - English/Welsh/Scottish/Northern Irish/British": "White",
    "White - Irish": "White",
    "White - Gypsy or Irish Traveller": "White",
    "White - Any other White background": "White",
    "Black/African/Caribbean/Black British - African": "Black",
    "Black/African/Caribbean/Black British - Caribbean": "Black",
    "Black/African/Caribbean/Black British - Any other Black/African/Caribbean background": "Black",
    "Asian/Asian British - Indian": "Asian",
    "Asian/Asian British - Pakistani": "Asian",
    "Asian/Asian British - Bangladeshi": "Asian",
    "Asian/Asian British - Chinese": "Asian",
    "Asian/Asian British - Any other Asian background": "Asian",
    "Mixed/Multiple ethnic groups - White and Black Caribbean": "Other/Mixed",
    "Mixed/Multiple ethnic groups - White and Black African": "Other/Mixed",
    "Mixed/Multiple ethnic groups - White and Asian": "Other/Mixed",
    "Mixed/Multiple ethnic groups - Any other Mixed/Multiple ethnic background": "Other/Mixed",
    "Other ethnic group - Arab": "Other/Mixed",
    "Other ethnic group - Any other ethnic group": "Other/Mixed",
}


@dataclass(frozen=True, eq=False)
class Dataset:
    """Stop-and-search events as a tally, one count per (group, outcome,
    force) cell.

    ``counts[g, o, f]`` is the number of stops of group ``labels[g]`` at
    force ``forces[f]`` with outcome ``o`` (1 is positive), an integer array
    of shape ``(K, 2, F)``; its C-order ravel is the canonical writer's cell
    order, ``(2·group + outcome)·F + force``. Every stop counted is a stop:
    the model never observes anyone who was not stopped. The constructor
    checks the shape, that the counts are non-negative integers and that
    the label and force tables are unique, once, so every layer can trust
    them; it keeps a read-only copy of the counts.
    """

    counts: np.ndarray
    labels: tuple
    forces: tuple = ("",)

    def __post_init__(self):
        labels, forces = tuple(self.labels), tuple(self.forces)
        for name, table in (("labels", labels), ("forces", forces)):
            if len(set(table)) != len(table):
                raise DomainError(f"{name} must be unique, got {list(table)}")
        counts = np.asarray(self.counts)
        if counts.dtype.kind not in "iu":
            raise DomainError(f"counts must be integers, got dtype {counts.dtype}")
        if counts.shape != (len(labels), 2, len(forces)):
            raise DomainError(f"counts must have shape (K, 2, F) = "
                              f"{(len(labels), 2, len(forces))}, got {counts.shape}")
        counts = counts.astype(np.intp)
        if counts.size and counts.min() < 0:
            raise DomainError("counts must be non-negative")
        counts.flags.writeable = False
        for name, value in (("counts", counts), ("labels", labels), ("forces", forces)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return int(self.counts.sum())

    def outcome_counts(self) -> np.ndarray:
        """``(K, 2)`` integer table of stops per group code: negative
        outcomes in column 0, positive in column 1."""
        return self.counts.sum(axis=2)


def _tallied(cells: dict, labels, forces) -> Dataset:
    """The dataset over ``labels`` and ``forces`` whose ``(group code,
    outcome, force code)`` cells hold the stop counts of ``cells``."""
    counts = np.zeros((len(labels), 2, len(forces)), dtype=np.intp)
    for cell, n in cells.items():
        counts[cell] = n
    return Dataset(counts, labels, forces)


class SchemeKind(enum.Enum):
    GUILTY_NOT_GUILTY = "guilty"
    LENIENT_SEVERE = "charges"

    @classmethod
    def from_string(cls, name: str) -> "SchemeKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise DomainError(f"unknown scheme {name!r} (choose guilty or charges)") from None


@dataclass(frozen=True)
class EthnicityMapping:
    """Raw ethnicity strings to group labels, plus the outcome sets.

    ``precedence`` selects which label field wins: the officer-defined
    label by default, falling back to the self-defined one when blank.
    Unmapped strings route to the last group (Other/Mixed by convention)
    and are tallied as warnings, so the mapping is total. The guilty,
    lenient and not-guilty sets are the only outcome sets ingest reads;
    the guilty set must be nonempty.
    """

    mapping: dict = field(default_factory=lambda: dict(_DEFAULT_ETHNICITY_MAP))
    precedence: str = "officer"
    group_labels: tuple = DEFAULT_GROUP_LABELS
    lenient_set: frozenset = DEFAULT_LENIENT
    guilty_set: frozenset = DEFAULT_GUILTY
    negative_set: frozenset = DEFAULT_NOT_GUILTY

    def __post_init__(self):
        if self.precedence not in ("officer", "self"):
            raise DomainError(f"precedence must be 'officer' or 'self', got {self.precedence!r}")
        if not self.group_labels:
            raise DomainError("the group label list must be nonempty")
        if len(set(self.group_labels)) != len(self.group_labels):
            raise DomainError("group labels must be unique")
        bad = set(self.mapping.values()) - set(self.group_labels)
        if bad:
            raise DomainError(f"mapping targets unknown groups: {sorted(bad)}")
        if not self.guilty_set:
            raise DomainError("the guilty-positive set must be nonempty")

    @property
    def fallback_group(self) -> str:
        return self.group_labels[-1]

    def to_json(self) -> str:
        return json.dumps(
            {
                "precedence": self.precedence,
                "group_labels": list(self.group_labels),
                "ethnicity": dict(self.mapping),
                "lenient": sorted(self.lenient_set),
                "guilty": sorted(self.guilty_set),
                "not_guilty": sorted(self.negative_set),
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "EthnicityMapping":
        """The mapping a JSON file holds: ``group_labels``, ``lenient``,
        ``guilty`` and the optional ``not_guilty`` as lists of strings, and
        ``ethnicity`` as an object mapping strings to strings.

        Raises:
            DataError: if the text is not such an object; a value of the
                wrong type is named by its key, never coerced, and so is
                every key outside those five and ``precedence``.
        """
        try:
            d = json.loads(text)
            unknown = sorted(set(d) - _MAPPING_KEYS) if isinstance(d, dict) else []
            if unknown:
                raise DataError("invalid mapping file: unknown "
                                f"{'key' if len(unknown) == 1 else 'keys'} "
                                + ", ".join(map(repr, unknown)))
            ethnicity = d["ethnicity"]
            lists = {key: d[key] for key in ("group_labels", "lenient", "guilty")}
            lists["not_guilty"] = d.get("not_guilty", list(DEFAULT_NOT_GUILTY))
            precedence = d.get("precedence", "officer")
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise DataError(f"invalid mapping file: {exc}") from None
        for key, values in lists.items():
            if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
                raise DataError(f"invalid mapping file: {key!r} must be a list of strings")
        if not isinstance(ethnicity, dict) or not all(
                isinstance(v, str) for v in ethnicity.values()):
            raise DataError("invalid mapping file: 'ethnicity' must map strings to strings")
        return cls(mapping=ethnicity, precedence=precedence,
                   group_labels=tuple(lists["group_labels"]),
                   lenient_set=frozenset(lists["lenient"]), guilty_set=frozenset(lists["guilty"]),
                   negative_set=frozenset(lists["not_guilty"]))


def default_mapping() -> EthnicityMapping:
    return EthnicityMapping()


def coarsen_outcome(raw_outcome: str, kind: SchemeKind, mapping: EthnicityMapping) -> bool:
    """Coarsen an outcome string to the binary of scheme ``kind``, using
    the mapping's guilty or lenient set.

    Never raises: unknown strings are negative under GuiltyNotGuilty and
    positive (severe) under LenientSevere, per the "all other responses"
    rule. Matching is exact after trimming, case-sensitive.
    """
    text = (raw_outcome or "").strip()
    if kind is SchemeKind.GUILTY_NOT_GUILTY:
        return text in mapping.guilty_set
    return text not in mapping.lenient_set


@dataclass
class IngestReport:
    """Row accounting and per-group tallies for one ingest run.

    ``warnings`` keeps the first few unmapped-ethnicity warnings;
    ``unmapped_ethnicities`` counts them all.
    """

    rows_total: int = 0
    rows_kept: int = 0
    dropped: dict = field(default_factory=dict)
    group_counts: dict = field(default_factory=dict)
    group_positive: dict = field(default_factory=dict)
    unknown_outcomes: int = 0
    unmapped_ethnicities: int = 0
    warnings: list = field(default_factory=list)

    def drop(self, reason: str, rows: int) -> None:
        self.dropped[reason] = self.dropped.get(reason, 0) + rows

    @property
    def rows_dropped(self) -> int:
        return sum(self.dropped.values())

    def positive_percent(self, label: str) -> float:
        n = self.group_counts.get(label, 0)
        return 100.0 * self.group_positive.get(label, 0) / n if n else 0.0

    def to_text(self) -> str:
        lines = [
            "ingest report",
            f"  rows total:   {self.rows_total}",
            f"  rows kept:    {self.rows_kept}",
            f"  rows dropped: {self.rows_dropped}",
        ]
        for reason in sorted(self.dropped):
            lines.append(f"    - {reason}: {self.dropped[reason]}")
        lines.append(f"  unknown outcome strings: {self.unknown_outcomes}")
        lines.append(f"  unmapped ethnicities:    {self.unmapped_ethnicities}")
        lines.append("  group         kept  positive  positive%")
        for label in self.group_counts:
            n = self.group_counts[label]
            pos = self.group_positive.get(label, 0)
            lines.append(f"  {label:<12} {n:>6} {pos:>9} {self.positive_percent(label):>9.2f}")
        for w in self.warnings:
            lines.append(f"  warning: {w}")
        if self.unmapped_ethnicities > len(self.warnings):
            lines.append(f"  ... {self.unmapped_ethnicities - len(self.warnings)} more warnings")
        return "\n".join(lines) + "\n"


def parse_records(
    stream: Iterable[str] | TextIO, mapping: EthnicityMapping, kind: SchemeKind
) -> tuple[Dataset, IngestReport]:
    """Parse raw CSV rows into a dataset labelled by the mapping's groups,
    with outcomes coarsened by scheme ``kind`` from the mapping's sets.

    Hard errors (a required column missing or named twice, unparseable
    header, or any row the strict CSV parser rejects) raise
    :class:`~latentbias.errors.DataError`, and LenientSevere with an empty
    lenient set raises :class:`~latentbias.errors.DomainError`; rows with
    too few fields are dropped and counted as malformed, never aborting
    the ingest. Blank lines are skipped. Under the LenientSevere scheme, rows
    that are not guilty-positive are excluded (the severity dataset covers
    confirmed offences only). The report's kept-row and per-group tallies
    are those of the returned dataset.

    A parser error names the line on which the rejected record began. The
    row pipeline does not track lines, so after an error a seekable stream
    is read again up to that record; any other input names the line the
    parser stopped on instead. The CLI reads a pipe whole into memory
    first, so every input it parses can be read again.

    Cost: the rows are tokenised once, and C-level iterators intern each
    row's four :data:`RAW_COLUMNS` fields to a key id, with no Python per
    row. Each distinct key is then resolved once in Python, and its row
    count is added into its cell; the key ids of the rows serve only to put
    the warnings in row order. The key holds no other column, so dates and
    other unused fields do not multiply it.
    """
    if kind is SchemeKind.LENIENT_SEVERE and not mapping.lenient_set:
        raise DomainError("LenientSevere scheme needs a nonempty lenient set")
    seekable = getattr(stream, "seekable", None)
    origin = stream.tell() if seekable is not None and seekable() else None
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
    _require_named_once(header, RAW_COLUMNS)
    i_force, i_officer, i_self, i_outcome = (position[c] for c in RAW_COLUMNS)
    i_first, i_second = (
        (i_officer, i_self) if mapping.precedence == "officer" else (i_self, i_officer)
    )
    # each nonblank row, padded so that a short row reads None in its last
    # needed column, is interned by (force, first label, second label,
    # outcome); ids follow the keys' first appearance
    pad = [None] * (max(i_force, i_first, i_second, i_outcome) + 1)
    keys = defaultdict(count().__next__)
    try:
        ids = np.fromiter(map(keys.__getitem__,
                              map(itemgetter(i_force, i_first, i_second, i_outcome),
                                  map(add, filter(None, reader), repeat(pad)))),
                          dtype=np.intp)
    except csv.Error as exc:
        # read a seekable stream again up to the rejected record, named by its first line
        if origin is not None:
            stream.seek(origin)
            for _row in _csv_rows(stream):
                pass
        raise DataError(f"line {reader.line_num}: {exc}") from None
    label_to_id = {label: i for i, label in enumerate(mapping.group_labels)}
    report = IngestReport(rows_total=ids.size)
    # (group code, positive, force code) -> rows
    cells: dict[tuple, int] = defaultdict(int)
    warning_of: dict[int, str] = {}
    force_ids: dict[str, int] = {}
    # keys in id order, so the first kept key of a force is its first kept row
    for k, (key, rows) in enumerate(zip(keys, np.bincount(ids, minlength=len(keys)).tolist())):
        if None in key:
            report.drop("malformed row", rows)
            continue
        force, first, second, outcome_text = key
        eth = first.strip() or second.strip()
        if not eth:
            report.drop("missing ethnicity", rows)
            continue
        outcome_text = outcome_text.strip()
        if not outcome_text:
            report.drop("missing outcome", rows)
            continue
        label = mapping.mapping.get(eth)
        if label is None:
            label = mapping.fallback_group
            report.unmapped_ethnicities += rows
            warning_of[k] = f"unmapped ethnicity {eth!r} -> {label}"
        if kind is SchemeKind.LENIENT_SEVERE:
            if not coarsen_outcome(outcome_text, SchemeKind.GUILTY_NOT_GUILTY, mapping):
                report.drop("not guilty (excluded from severity dataset)", rows)
                continue
        elif outcome_text not in mapping.guilty_set and outcome_text not in mapping.negative_set:
            report.unknown_outcomes += rows
        cells[label_to_id[label], int(coarsen_outcome(outcome_text, kind, mapping)),
              force_ids.setdefault(force.strip(), len(force_ids))] += rows
    # the key ids of the rows order the warnings
    unmapped = np.zeros(len(keys), dtype=bool)
    unmapped[list(warning_of)] = True
    report.warnings = [warning_of[k] for k in ids[unmapped[ids]][:_WARNINGS_KEPT].tolist()]
    dataset = _tallied(cells, mapping.group_labels, tuple(force_ids))
    counts = dataset.outcome_counts()
    report.rows_kept = len(dataset)
    report.group_counts = dict(zip(dataset.labels, counts.sum(axis=1).tolist()))
    report.group_positive = dict(zip(dataset.labels, counts[:, 1].tolist()))
    return dataset, report


def _draw_stops(dataset: Dataset, size, rng: np.random.Generator) -> np.ndarray:
    """The cells of ``size(n)`` stops of each group present, of its n, drawn
    as a uniform without-replacement subsample of its stops: a multivariate
    hypergeometric draw over its cells, group by group in code order."""
    drawn = np.zeros_like(dataset.counts)
    for group, cells in enumerate(dataset.counts):
        if cells.any():
            drawn[group] = rng.multivariate_hypergeometric(
                cells.ravel(), size(int(cells.sum()))).reshape(cells.shape)
    return drawn


def balance(dataset: Dataset, n_per_group: int, rng: np.random.Generator) -> Dataset:
    """Exactly n stops of each group present, a uniform without-replacement
    subsample of its stops."""
    if n_per_group < 1:
        raise DomainError("n_per_group must be >= 1")
    for label, n in zip(dataset.labels, dataset.outcome_counts().sum(axis=1).tolist()):
        if 0 < n < n_per_group:
            raise DomainError(f"group {label!r} has {n} records, need {n_per_group}")
    counts = _draw_stops(dataset, lambda n: n_per_group, rng)
    return Dataset(counts, dataset.labels, dataset.forces)


def filter_force(dataset: Dataset, force: str) -> Dataset:
    """The stops whose force equals ``force`` exactly, with that force alone
    in the force table (an empty table when no stop has it)."""
    if force not in dataset.forces:
        return Dataset(dataset.counts[:, :, :0], dataset.labels, ())
    f = dataset.forces.index(force)
    return Dataset(dataset.counts[:, :, f : f + 1], dataset.labels, (force,))


def split(
    dataset: Dataset, test_fraction: float, rng: np.random.Generator
) -> tuple[Dataset, Dataset]:
    """Disjoint, exhaustive train/test split, stratified by group.

    Each group contributes ``round(fraction * n)`` stops to the test side,
    a uniform without-replacement subsample of its n stops, so every
    group's test share is within one stop of the target; the train side
    holds the rest, cell for cell. Deterministic given the generator state.
    """
    if not (0.0 < test_fraction < 1.0):
        raise DomainError(f"test_fraction must be in (0,1), got {test_fraction}")
    if len(dataset) < 2:
        raise DomainError("dataset must have at least 2 records")
    test = _draw_stops(dataset, lambda n: int(math.floor(test_fraction * n + 0.5)), rng)
    return (Dataset(dataset.counts - test, dataset.labels, dataset.forces),
            Dataset(test, dataset.labels, dataset.forces))


@dataclass(frozen=True)
class TrueParams:
    """Ground-truth parameters for the synthetic generator: finite biases and
    positive integer populations, 10,000 a group by default."""

    beta: tuple
    alpha: float = 1.0
    gamma: float = 1.0
    population: tuple = ()

    def __post_init__(self):
        require_positive_finite(alpha=self.alpha, gamma=self.gamma)
        beta = tuple(float(b) for b in self.beta)
        if not all(map(math.isfinite, beta)):
            raise DomainError(f"beta entries must be finite, got {beta}")
        pop = self.population if self.population else (10_000,) * len(beta)
        if len(pop) != len(beta):
            raise DomainError("population must have one entry per group")
        # int() would floor a float, and a bool is an int to Python
        if not all(isinstance(p, (int, np.integer)) and not isinstance(p, bool) and p >= 1
                   for p in pop):
            raise DomainError(f"population entries must be positive integers, got {pop}")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "population", tuple(int(p) for p in pop))


@dataclass
class SynthReport:
    """Per-group emission statistics from one synthetic draw."""

    population: tuple
    stopped: tuple
    positive: tuple

    def stop_rate(self, k: int) -> float:
        return self.stopped[k] / self.population[k]


def synthesize(
    params: TrueParams, rng: np.random.Generator, labels: Sequence[str] | None = None
) -> tuple[Dataset, SynthReport]:
    """Draw a dataset from the generative process.

    Each group's population is drawn by
    :meth:`~latentbias.model.CellModel.draw_counts` at ``params``' noise
    variances, with criminality N(0, 1), group by group; a record is emitted
    only for a stopped individual. The stops are tallied per group, labelled
    ``labels`` (default ``group0``, ``group1``, ...), at the one force
    ``synthetic``.
    """
    k = len(params.beta)
    if labels is None:
        labels = [f"group{g}" for g in range(k)]
    elif len(labels) != k:
        raise DomainError("labels must have one entry per group")
    model = CellModel(params.alpha, params.gamma)
    draws = [model.draw_counts(beta, pop, rng)
             for beta, pop in zip(params.beta, params.population)]
    counts = np.array([[n - p, p] for n, p in draws], dtype=np.intp)
    dataset = Dataset(counts.reshape(k, 2, 1), labels, ("synthetic",))
    return dataset, SynthReport(
        population=params.population,
        stopped=tuple(n for n, _ in draws),
        positive=tuple(p for _, p in draws),
    )


_CANONICAL_COLUMNS = ("group", "stopped", "outcome", "force")
_OUTCOME_TEXT = frozenset({"0", "1"})


def csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted when it holds a comma, a quote, CR or
    LF (``csv.writer`` with a LF terminator leaves CR bare, unreadable)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_dataset_csv(dataset: Dataset, stream: BinaryIO) -> None:
    """Canonical dataset CSV, as UTF-8 bytes to a binary stream (a file
    opened with ``"wb"``): ``group,stopped,outcome,force``, one row per
    stop, so ``stopped`` is always ``1`` and ``outcome`` is ``0`` or ``1``.

    The rows come in cell order, ascending ``(2·group + outcome)·F + force``
    for F forces, the C-order ravel of ``dataset.counts``. A row is fixed by
    its cell, so each cell present is formatted and encoded once and written
    as one run, its line's bytes repeated by the cell's count: one write
    per cell, and no text of the whole file is built. Only the forces of
    cells present are formatted, however many forces the table holds.
    """
    stream.write((",".join(_CANONICAL_COLUMNS) + "\n").encode())
    n_forces = len(dataset.forces)
    tally = dataset.counts.ravel()
    present = np.flatnonzero(tally)
    group_outcome, force = np.divmod(present, n_forces)
    starts = [csv_field(label) + end for label in dataset.labels for end in (",1,0,", ",1,1,")]
    for go, f, n in zip(group_outcome.tolist(), force.tolist(), tally[present].tolist()):
        stream.write((starts[go] + csv_field(dataset.forces[f]) + "\n").encode() * n)


def _csv_rows(lines: Iterable[str]):
    """``(line, row)`` for each row that the strict ``csv.reader`` reads from
    ``lines``, where ``line`` is the line on which the row began, the first
    of ``lines`` being line 1. A parser error raises
    :class:`~latentbias.errors.DataError` naming the line on which the
    rejected record began."""
    reader = csv.reader(lines, strict=True)
    begins = 1
    try:
        for row in reader:
            yield begins, row
            begins = 1 + reader.line_num
    except csv.Error as exc:
        raise DataError(f"line {begins}: {exc}") from None


def _stops(rows, columns: itemgetter, width: int):
    """``(group, positive, force)`` for each canonical row of ``rows``, the
    ``(line, row)`` pairs of :func:`_csv_rows`, ``None`` for a blank one.

    Raises:
        DataError: naming the line of the first row that has fewer than
            ``width`` fields, or that is not a stop (``stopped`` 1) with a
            ``0``/``1`` outcome.
    """
    for line, row in rows:
        if not row:
            yield None
            continue
        if len(row) < width:
            raise DataError(f"line {line}: row has {len(row)} fields, need {width}")
        group, stopped, outcome, force = columns(row)
        if stopped != "1" or outcome not in _OUTCOME_TEXT:
            raise DataError(f"line {line}: every row must be a stop (stopped 1) with outcome "
                            f"0 or 1, got stopped={stopped!r} outcome={outcome!r}")
        yield group, outcome == "1", force


def _require_named_once(header: list, names) -> None:
    """Raise :class:`DataError` if ``header`` names any of ``names`` more than once."""
    twice = [name for name in names if header.count(name) > 1]
    if twice:
        raise DataError(f"line 1: the header names {', '.join(map(repr, twice))} "
                        "more than once")


def _header_columns(header: list | None) -> tuple[itemgetter, int]:
    """The getter of the canonical columns from a row with ``header``, and
    the number of fields a row needs.

    Raises:
        DataError: if a canonical column is missing or named twice.
    """
    if header is None or not set(_CANONICAL_COLUMNS).issubset(header):
        raise DataError("canonical dataset CSV needs columns group,stopped,outcome,force")
    _require_named_once(header, _CANONICAL_COLUMNS)
    cols = [header.index(name) for name in _CANONICAL_COLUMNS]
    return itemgetter(*cols), max(cols) + 1


# a CR that ends no line read in binary: text mode ends a line there
_BARE_CR = re.compile(r"\r(?!\n|\Z)")


def _distinct_stops(lines: dict) -> list | None:
    """The stop of each distinct line of ``lines`` (raw line to copies, the
    header first) parsed alone, ``None`` for the header and for a blank
    line; ``None`` in place of the list when the fast path does not hold:
    the header must occur once, no line may hold a bare CR, the header must
    name the canonical columns, and every other line must be blank or one
    good record."""
    distinct = [line.decode() for line in lines]
    if next(iter(lines.values()), 0) != 1 or any(map(_BARE_CR.search, distinct)):
        return None
    try:
        # each line parsed alone is one row or a parser error
        (_line, header), *rows = [pair for line in distinct for pair in _csv_rows((line,))]
        return [None, *_stops(rows, *_header_columns(header))]
    except DataError:
        return None


def _line_runs(data) -> tuple[dict, int]:
    """The runs of one line repeated that ``data`` (``bytes`` or a mapping)
    begins with, its lines ending at LF (the last may lack its LF): each
    run's line mapped to its number of copies, in file order, and the
    offset where the runs stop, at the first line that recurs after a
    different line or at the end of ``data``.

    A run of n copies costs O(log n) steps: its length is found by checking
    that twice as many copies follow the run while they match, then half as
    many. A check is a ``find`` confined to the copies' span, which a
    mapping has and ``startswith`` it lacks.
    """
    runs = {}
    pos = 0
    while pos < len(data):
        line = data[pos:data.find(b"\n", pos) + 1 or len(data)]
        if line in runs:
            break
        run, step, width = 1, 1, len(line)
        while _holds(data, line * step, pos + run * width):
            run += step
            step *= 2
        while step > 1:
            step //= 2
            if _holds(data, line * step, pos + run * width):
                run += step
        runs[line] = run
        pos += run * width
    return runs, pos


def _holds(data, pattern: bytes, at: int) -> bool:
    """Whether ``data`` holds ``pattern`` at offset ``at``."""
    return data.find(pattern, at, at + len(pattern)) == at


@contextmanager
def stream_bytes(stream: BinaryIO):
    """The bytes of a binary ``stream`` from its position to its end, to be
    read and not kept: a read-only mapping of its file when the stream is a
    file at its start, so the bytes come from the page cache with no copy,
    and otherwise its bytes read whole (a pipe, an empty file, which cannot
    be mapped, or a stream with no file such as :class:`io.BytesIO`). The
    mapping holds a duplicate of the file's descriptor and is closed on
    exit, so nothing taken from it may hold its buffer past then."""
    try:
        mapping = None if stream.tell() else mmap.mmap(stream.fileno(), 0,
                                                        access=mmap.ACCESS_READ)
    except (OSError, ValueError):
        mapping = None
    if mapping is None:
        yield stream.read()
        return
    with mapping:
        yield mapping


def read_dataset_csv(stream: BinaryIO) -> Dataset:
    """Load a canonical dataset CSV from a binary stream of UTF-8 (a file
    or pipe opened with ``"rb"``) as the tally of its stops; group codes
    follow sorted label order and force codes the order in which forces
    first appear.

    A file is read through a read-only mapping of it, which the read walks
    and counts in the page cache without copying it; anything that cannot
    be mapped (a pipe, an empty file, an :class:`io.BytesIO`) is read whole
    (:func:`stream_bytes`). The counts are the same either way, and the
    mapping is closed before the read returns.

    Every line, split at LF, the header included, is counted raw, the
    distinct lines in order of first appearance, so the header comes
    first, and each distinct line is decoded once. A run of n copies of one
    line, as :func:`write_dataset_csv` writes each cell, is counted with
    O(log n) comparisons; from the first line that recurs after a
    different line, the rest is counted a line at a time.

    Fast path: when the header occurs once, no distinct line holds a bare
    CR, the header parsed alone names the canonical columns, and every
    other distinct line parsed alone is blank or one good record, each
    distinct line's copies are added to its stop's cell. A file of N stops
    then costs one parse per distinct line (the header and at most 2·K·F
    others, for K groups and F forces) plus a few comparisons per run, or
    one dict update per line after the runs, and the read holds no list of
    lines. Row path: otherwise (a record that spans lines, a bad row, a
    header that spans lines, recurs or follows a byte-order mark, a CR-only
    file), the bytes, decoded past a leading BOM, are parsed in file order,
    a row at a time, the header first, split into lines at CR, LF and CRLF
    as text mode (``newline=""``) splits them, blank lines skipped, and the
    stops counted; line numbers are those of the file read as text.

    Raises:
        DataError: if a column is missing or named twice, a row has fewer
            fields than the header needs, a row is not a stop (``stopped``
            other than ``1``) with a ``0``/``1`` outcome, or the strict
            CSV parser rejects a row (a quote still open at the end of the
            input included). The first such row in file order is reported,
            and the message names the physical line on which it began:
            every line of the file counts, blank lines and the lines
            inside a quoted field included.
        UnicodeDecodeError: if the bytes are not valid UTF-8.
    """
    with stream_bytes(stream) as data:
        runs, pos = _line_runs(data)
        lines = Counter(runs)
        lines.update(io.BytesIO(data[pos:]))
        stops = _distinct_stops(lines)
        if stops is None:
            # row path: every line parsed in file order, the stops counted
            rows = _csv_rows(io.StringIO(str(data, "utf-8-sig"), newline=""))
            columns, width = _header_columns(next(rows, (1, None))[1])
            counted = Counter(_stops(rows, columns, width)).items()
        else:
            counted = zip(stops, lines.values())
    counted = [(stop, n) for stop, n in counted if stop]
    label_ids = {label: i for i, label in enumerate(sorted({stop[0] for stop, _n in counted}))}
    force_ids: dict[str, int] = {}
    cells: dict[tuple, int] = defaultdict(int)
    for (label, positive, force), n in counted:
        cells[label_ids[label], int(positive), force_ids.setdefault(force, len(force_ids))] += n
    return _tallied(cells, tuple(label_ids), tuple(force_ids))
