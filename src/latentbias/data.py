"""Ingestion and dataset operations for stop-and-search records.

Raw input is RFC 4180 CSV with a header row. Four columns are required
(names configurable): the force, the officer-defined ethnicity, the
self-defined ethnicity, and the outcome text. Outcome strings are matched
exactly after whitespace trimming and case-sensitively.

Two outcome schemes exist. ``GuiltyNotGuilty`` marks a record positive
when its outcome string is in the configured guilty set (unknown strings
count negative and are tallied as warnings). ``LenientSevere`` applies to
records already guilty-positive - everything else is dropped from the
dataset - and marks a record positive ("severe") exactly when the outcome
is NOT in the lenient set.

The ethnicity mapping, the lenient set, and the guilty set travel in one
JSON configuration file so an ingest run is fully specified by its inputs.
"""

from __future__ import annotations

import csv
import enum
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TextIO

import numpy as np

from .errors import DataError, DomainError
from .model import EthnicGroup, StopRecord, validate_groups

__all__ = [
    "SchemeKind",
    "OutcomeScheme",
    "EthnicityMapping",
    "ColumnSpec",
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
]

DEFAULT_GROUP_LABELS = ("White", "Black", "Asian", "Other/Mixed")

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
class OutcomeScheme:
    """Outcome coarsening rule plus the string sets it needs."""

    kind: SchemeKind
    lenient_set: frozenset = DEFAULT_LENIENT
    guilty_set: frozenset = DEFAULT_GUILTY

    def __post_init__(self):
        if self.kind is SchemeKind.LENIENT_SEVERE and not self.lenient_set:
            raise DomainError("LenientSevere scheme needs a nonempty lenient set")
        if not self.guilty_set:
            raise DomainError("the guilty-positive set must be nonempty")


@dataclass(frozen=True)
class EthnicityMapping:
    """Raw ethnicity strings to group labels, plus the outcome sets.

    ``precedence`` selects which label field wins: the officer-defined
    label by default, falling back to the self-defined one when blank.
    Unmapped strings route to the last group (Other/Mixed by convention)
    and are tallied as warnings, so the mapping is total.
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
        if len(set(self.group_labels)) != len(self.group_labels):
            raise DomainError("group labels must be unique")
        bad = set(self.mapping.values()) - set(self.group_labels)
        if bad:
            raise DomainError(f"mapping targets unknown groups: {sorted(bad)}")

    @property
    def fallback_group(self) -> str:
        return self.group_labels[-1]

    def groups(self) -> list[EthnicGroup]:
        out = [EthnicGroup(i, label) for i, label in enumerate(self.group_labels)]
        validate_groups(out)
        return out

    def scheme(self, kind: SchemeKind) -> OutcomeScheme:
        return OutcomeScheme(kind=kind, lenient_set=self.lenient_set, guilty_set=self.guilty_set)

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
        try:
            d = json.loads(text)
            return cls(
                mapping=dict(d["ethnicity"]),
                precedence=d.get("precedence", "officer"),
                group_labels=tuple(d["group_labels"]),
                lenient_set=frozenset(d["lenient"]),
                guilty_set=frozenset(d["guilty"]),
                negative_set=frozenset(d.get("not_guilty", DEFAULT_NOT_GUILTY)),
            )
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise DataError(f"invalid mapping file: {exc}") from None


def default_mapping() -> EthnicityMapping:
    return EthnicityMapping()


@dataclass(frozen=True)
class ColumnSpec:
    """Header names of the required raw CSV columns."""

    force: str = "force"
    officer_ethnicity: str = "officer_defined_ethnicity"
    self_ethnicity: str = "self_defined_ethnicity"
    outcome: str = "outcome"

    def required(self) -> tuple:
        return (self.force, self.officer_ethnicity, self.self_ethnicity, self.outcome)


def coarsen_outcome(raw_outcome: str, scheme: OutcomeScheme) -> bool:
    """Coarsen an outcome string to the scheme's binary.

    Never raises: unknown strings are negative under GuiltyNotGuilty and
    positive (severe) under LenientSevere, per the "all other responses"
    rule. Matching is exact after trimming, case-sensitive.
    """
    text = (raw_outcome or "").strip()
    if scheme.kind is SchemeKind.GUILTY_NOT_GUILTY:
        return text in scheme.guilty_set
    return text not in scheme.lenient_set


@dataclass
class IngestReport:
    """Row accounting and per-group tallies for one ingest run."""

    rows_total: int = 0
    rows_kept: int = 0
    dropped: dict = field(default_factory=dict)
    group_counts: dict = field(default_factory=dict)
    group_positive: dict = field(default_factory=dict)
    unknown_outcomes: int = 0
    unmapped_ethnicities: int = 0
    warnings: list = field(default_factory=list)

    def drop(self, reason: str) -> None:
        self.dropped[reason] = self.dropped.get(reason, 0) + 1

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
        for w in self.warnings[:20]:
            lines.append(f"  warning: {w}")
        if len(self.warnings) > 20:
            lines.append(f"  ... {len(self.warnings) - 20} more warnings")
        return "\n".join(lines) + "\n"


def parse_records(
    stream: Iterable[str] | TextIO,
    mapping: EthnicityMapping,
    scheme: OutcomeScheme,
    columns: ColumnSpec = ColumnSpec(),
) -> tuple[list[StopRecord], IngestReport]:
    """Parse raw CSV rows into stop records.

    Hard errors (missing required column) raise
    :class:`~latentbias.errors.DataError`; malformed or incomplete rows
    are dropped and counted, never aborting the ingest. Under the
    LenientSevere scheme, rows that are not guilty-positive are excluded
    (the severity dataset covers confirmed offences only).
    """
    reader = csv.DictReader(stream)
    if reader.fieldnames is None:
        raise DataError("input has no header row")
    missing = [c for c in columns.required() if c not in reader.fieldnames]
    if missing:
        raise DataError(f"missing required column(s): {', '.join(missing)}")

    label_to_id = {label: i for i, label in enumerate(mapping.group_labels)}
    guilty_scheme = OutcomeScheme(
        SchemeKind.GUILTY_NOT_GUILTY, mapping.lenient_set, mapping.guilty_set
    )
    report = IngestReport(group_counts={label: 0 for label in mapping.group_labels},
                          group_positive={label: 0 for label in mapping.group_labels})
    records: list[StopRecord] = []
    for row in reader:
        report.rows_total += 1
        try:
            if any(row.get(c) is None for c in columns.required()):
                report.drop("malformed row")
                continue
            officer = (row[columns.officer_ethnicity] or "").strip()
            self_def = (row[columns.self_ethnicity] or "").strip()
            first, second = (
                (officer, self_def) if mapping.precedence == "officer" else (self_def, officer)
            )
            eth = first or second
            if not eth:
                report.drop("missing ethnicity")
                continue
            outcome_text = (row[columns.outcome] or "").strip()
            if not outcome_text:
                report.drop("missing outcome")
                continue
            label = mapping.mapping.get(eth)
            if label is None:
                label = mapping.fallback_group
                report.unmapped_ethnicities += 1
                if len(report.warnings) < 200:
                    report.warnings.append(f"unmapped ethnicity {eth!r} -> {label}")
            if scheme.kind is SchemeKind.LENIENT_SEVERE:
                if not coarsen_outcome(outcome_text, guilty_scheme):
                    report.drop("not guilty (excluded from severity dataset)")
                    continue
            elif outcome_text not in scheme.guilty_set and outcome_text not in mapping.negative_set:
                report.unknown_outcomes += 1
            outcome = coarsen_outcome(outcome_text, scheme)
            records.append(
                StopRecord(
                    group=label_to_id[label],
                    stopped=True,
                    outcome=outcome,
                    force=(row[columns.force] or "").strip(),
                    raw_outcome=outcome_text,
                )
            )
            report.rows_kept += 1
            report.group_counts[label] += 1
            if outcome:
                report.group_positive[label] += 1
        except csv.Error:
            report.drop("malformed row")
    return records, report


def balance(
    dataset: Sequence[StopRecord], n_per_group: int, rng: np.random.Generator
) -> list[StopRecord]:
    """Uniform without-replacement subsample to exactly n per group."""
    if n_per_group < 1:
        raise DomainError("n_per_group must be >= 1")
    by_group: dict[int, list[int]] = {}
    for i, rec in enumerate(dataset):
        by_group.setdefault(rec.group, []).append(i)
    chosen: list[int] = []
    for group in sorted(by_group):
        idx = by_group[group]
        if len(idx) < n_per_group:
            raise DomainError(
                f"group {group} has {len(idx)} records, need {n_per_group}"
            )
        pick = rng.choice(len(idx), size=n_per_group, replace=False)
        chosen.extend(idx[j] for j in pick)
    chosen.sort()
    return [dataset[i] for i in chosen]


def filter_force(dataset: Sequence[StopRecord], force: str) -> list[StopRecord]:
    """Records whose force field equals ``force`` exactly."""
    return [rec for rec in dataset if rec.force == force]


def split(
    dataset: Sequence[StopRecord], test_fraction: float, rng: np.random.Generator
) -> tuple[list[StopRecord], list[StopRecord]]:
    """Disjoint, exhaustive train/test split, stratified by group.

    Each group contributes ``round(fraction * n)`` records to the test
    side, so every group's test share is within one record of the target.
    Deterministic given the generator state.
    """
    if not (0.0 < test_fraction < 1.0):
        raise DomainError(f"test_fraction must be in (0,1), got {test_fraction}")
    if len(dataset) < 2:
        raise DomainError("dataset must have at least 2 records")
    by_group: dict[int, list[int]] = {}
    for i, rec in enumerate(dataset):
        by_group.setdefault(rec.group, []).append(i)
    test_idx: set[int] = set()
    for group in sorted(by_group):
        idx = by_group[group]
        n_test = int(math.floor(test_fraction * len(idx) + 0.5))
        perm = rng.permutation(len(idx))
        test_idx.update(idx[j] for j in perm[:n_test])
    train = [rec for i, rec in enumerate(dataset) if i not in test_idx]
    test = [rec for i, rec in enumerate(dataset) if i in test_idx]
    return train, test


@dataclass(frozen=True)
class TrueParams:
    """Ground-truth parameters for the synthetic generator."""

    beta: tuple
    alpha: float = 1.0
    gamma: float = 1.0
    population: tuple = ()

    def __post_init__(self):
        if self.alpha <= 0 or self.gamma <= 0:
            raise DomainError("alpha and gamma must be positive")
        pop = self.population if self.population else tuple([10_000] * len(self.beta))
        if len(pop) != len(self.beta):
            raise DomainError("population must have one entry per group")
        if any(p < 1 for p in pop):
            raise DomainError("population entries must be positive")
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
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
) -> tuple[list[StopRecord], SynthReport]:
    """Draw records from the generative process.

    Per individual: criminality ``C ~ N(0,1)``; stopped when
    ``C + beta_k + N(0, alpha) > 0``; a record is emitted only for stopped
    individuals, with a positive outcome when ``C + N(0, gamma) > 0``.
    Records come out in group blocks; expected stop rate per group is
    ``Phi(beta_k / sqrt(1 + alpha))``.
    """
    k = len(params.beta)
    if labels is not None and len(labels) != k:
        raise DomainError("labels must have one entry per group")
    records: list[StopRecord] = []
    stopped = []
    positive = []
    sqrt_a = math.sqrt(params.alpha)
    sqrt_g = math.sqrt(params.gamma)
    for g in range(k):
        pop = params.population[g]
        crim = rng.standard_normal(pop)
        is_stopped = crim + params.beta[g] + sqrt_a * rng.standard_normal(pop) > 0
        crim_stopped = crim[is_stopped]
        outcome = crim_stopped + sqrt_g * rng.standard_normal(crim_stopped.size) > 0
        stopped.append(int(is_stopped.sum()))
        positive.append(int(outcome.sum()))
        for pos in outcome:
            records.append(
                StopRecord(
                    group=g,
                    stopped=True,
                    outcome=bool(pos),
                    force="synthetic",
                    raw_outcome="positive" if pos else "negative",
                )
            )
    return records, SynthReport(
        population=params.population, stopped=tuple(stopped), positive=tuple(positive)
    )


def write_dataset_csv(
    records: Sequence[StopRecord], groups: Sequence[EthnicGroup], stream: TextIO
) -> None:
    """Canonical dataset CSV: ``group,stopped,outcome,force``."""
    labels = {g.id: g.label for g in groups}
    stream.write("group,stopped,outcome,force\n")
    writer = csv.writer(stream, lineterminator="\n")
    for rec in records:
        writer.writerow(
            [
                labels[rec.group],
                "1" if rec.stopped else "0",
                "" if rec.outcome is None else ("1" if rec.outcome else "0"),
                rec.force,
            ]
        )


_FLAG_TEXT = frozenset({"0", "1"})
_OUTCOME_TEXT = frozenset({"0", "1", ""})


def read_dataset_csv(stream: Iterable[str] | TextIO) -> tuple[list[StopRecord], list[EthnicGroup]]:
    """Load a canonical dataset CSV; group ids follow sorted label order.

    Raises:
        DataError: if a column is missing, or a row's ``stopped`` is not
            ``0``/``1`` or its ``outcome`` not ``0``/``1``/empty.
    """
    reader = csv.DictReader(stream)
    required = {"group", "stopped", "outcome", "force"}
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise DataError("canonical dataset CSV needs columns group,stopped,outcome,force")
    rows = list(reader)
    labels = sorted({row["group"] for row in rows})
    label_to_id = {label: i for i, label in enumerate(labels)}
    records = []
    # line numbers count one line per row, as write_dataset_csv writes them
    for line, row in enumerate(rows, start=2):
        stopped_text, outcome_text = row["stopped"], row["outcome"]
        if stopped_text not in _FLAG_TEXT or outcome_text not in _OUTCOME_TEXT:
            raise DataError(
                f"line {line}: stopped must be 0 or 1 and outcome 0, 1 or empty, "
                f"got stopped={stopped_text!r} outcome={outcome_text!r}"
            )
        records.append(
            StopRecord(
                group=label_to_id[row["group"]],
                stopped=stopped_text == "1",
                outcome=None if outcome_text == "" else outcome_text == "1",
                force=row["force"],
            )
        )
    groups = [EthnicGroup(i, label) for i, label in enumerate(labels)]
    return records, groups
