"""Command-line interface.

Subcommands: ``ingest``, ``fit``, ``rank``, ``score``, ``plot``. Every
command writes exactly one ``manifest.json`` into its output directory and
is fully reproducible: identical inputs and flags give byte-identical
outputs (the manifest's wall-time field aside).

Exit codes: 0 success, 2 input or configuration error, 3 numerical
divergence of a chain.
"""

from __future__ import annotations

import argparse
import io
import re
import sys
import time
from pathlib import Path

import numpy

from . import __version__
from .data import (
    Dataset,
    EthnicityMapping,
    SchemeKind,
    balance,
    default_mapping,
    filter_force,
    parse_records,
    read_dataset_csv,
    write_dataset_csv,
)
from .errors import DataError, DivergenceError, DomainError, LatentBiasError
from .inference import (
    PosteriorSummary,
    read_trace_csv,
    run_gibbs,
    write_trace_csv,
)
from .likelihood import predictive_score
from .manifest import sha256_file, write_manifest
from .model import ModelConfig, PriorKind
from .plotting import render_trace_svg
from .ranking import matches_from_dataset, trueskill_gibbs, write_ranking_csv
from .seeds import DOMAIN_BALANCE, DOMAIN_FIT, DOMAIN_RANK, derive_rng, derive_seed

LONDON_MET_FORCE = "Metropolitan Police"
PRESETS = ("national", "augmented", "charges", "london-met")
# the options that name an input file, which the manifest hashes
FILE_OPTIONS = ("input", "mapping", "summary", "test", "trace")
# the lone surrogates an undecodable byte reads as under "surrogateescape"
_UNDECODED = re.compile("[\udc80-\udcff]")


def _read_input(path: str, read, *args, binary: bool = False):
    """``read(stream, *args)`` on the UTF-8 text of the file at ``path``, a
    leading byte-order mark dropped, or with ``binary`` on its bytes, which
    ``read`` decodes as UTF-8. An input that cannot seek (a pipe) is read
    whole first, so that it can be read again as a file is.

    Raises:
        DataError: if the input is not valid UTF-8; the message names the
            input and the physical line of the first undecodable byte.
    """
    with open(path, "rb") as fh:
        stream = fh if fh.seekable() else io.BytesIO(fh.read())
        # held until the stream is read again: a wrapper closes its stream when collected
        text = None if binary else io.TextIOWrapper(stream, encoding="utf-8-sig", newline="")
        try:
            return read(stream if binary else text, *args)
        except UnicodeDecodeError as exc:
            reason = exc.reason
        stream.seek(0)
        lines = io.StringIO(stream.read().decode("utf-8", "surrogateescape"), newline="")
    line = next((n for n, raw in enumerate(lines, start=1) if _UNDECODED.search(raw)), None)
    where = "" if line is None else f"line {line}: "
    raise DataError(f"{path}: {where}not valid UTF-8 ({reason})")


def _load_mapping(path: str | None) -> EthnicityMapping:
    if path is None:
        return default_mapping()
    return EthnicityMapping.from_json(_read_input(path, lambda fh: fh.read()))


class _RunDir:
    """A command's output directory, created on entry, and its wall clock.

    :meth:`finish` writes the one ``manifest.json`` every command leaves.
    """

    def __init__(self, args):
        self.args = args
        self.path = Path(args.out_dir)
        self.path.mkdir(parents=True, exist_ok=True)
        self._t0 = time.perf_counter()

    def finish(self, outputs: dict, **extra) -> None:
        """Write the manifest from the parsed options: each input file given
        by its path and digest under ``inputs``, every other option but
        ``--out-dir`` under ``config``; then the outputs, the wall time, the
        library, Python and numpy versions (a run's bytes are reproducible on
        one environment) and each ``extra`` key whose value is not ``None``."""
        options = {name: value for name, value in vars(self.args).items()
                   if name not in ("command", "func", "out_dir")}
        doc = {
            "command": self.args.command,
            "config": {name: value for name, value in options.items()
                       if name not in FILE_OPTIONS},
            "inputs": {name: {"path": path, "sha256": sha256_file(path)}
                       for name, path in options.items()
                       if name in FILE_OPTIONS and path is not None},
            "outputs": {name: str(path) for name, path in outputs.items()},
            "wall_time_s": round(time.perf_counter() - self._t0, 6),
            "library_version": __version__,
            "python_version": "{}.{}.{}".format(*sys.version_info),
            "numpy_version": numpy.__version__,
            **{name: value for name, value in extra.items() if value is not None},
        }
        write_manifest(doc, self.path / "manifest.json")


def cmd_ingest(args) -> int:
    run = _RunDir(args)
    mapping = _load_mapping(args.mapping)
    kind = SchemeKind.from_string(args.scheme)
    dataset, report = _read_input(args.input, parse_records, mapping, kind)
    dataset_path = run.path / "dataset.csv"
    with open(dataset_path, "wb") as fh:
        write_dataset_csv(dataset, fh)
    report_path = run.path / "report.txt"
    report_path.write_text(report.to_text(), encoding="utf-8")
    run.finish({"dataset": dataset_path, "report": report_path},
               rows_kept=report.rows_kept, rows_dropped=report.rows_dropped)
    sys.stdout.write(report.to_text())
    return 0


def _read_dataset(path: str) -> Dataset:
    return _read_input(path, read_dataset_csv, binary=True)


def _load_fit_dataset(args) -> Dataset:
    """Dataset for ``fit``, honouring ``--preset``."""
    if args.preset is None:
        return _read_dataset(args.input)
    mapping = _load_mapping(args.mapping)
    kind = SchemeKind.LENIENT_SEVERE if args.preset == "charges" else SchemeKind.GUILTY_NOT_GUILTY
    dataset, _report = _read_input(args.input, parse_records, mapping, kind)
    if args.preset == "augmented":
        dataset = balance(dataset, 1000, derive_rng(args.seed, DOMAIN_BALANCE))
    elif args.preset == "london-met":
        dataset = filter_force(dataset, LONDON_MET_FORCE)
    return dataset


def cmd_fit(args) -> int:
    if args.chains < 1:
        raise DomainError(f"--chains must be >= 1, got {args.chains}")
    if args.mapping is not None and args.preset is None:
        raise DomainError("--mapping needs --preset: a canonical dataset is already mapped")
    run = _RunDir(args)
    dataset = _load_fit_dataset(args)
    prior = PriorKind.from_string(args.prior)
    anchoring = None if args.anchoring is None else args.anchoring == "on"
    outputs = {}
    summary = None
    divergence = None
    for chain in range(args.chains):
        config = ModelConfig(
            seed=derive_seed(args.seed, DOMAIN_FIT, chain),
            alpha=args.alpha,
            gamma=args.gamma,
            prior=prior,
            sweeps=args.sweeps,
            burn_in=args.burn_in,
            anchoring=anchoring,
        )
        name = "trace.csv" if args.chains == 1 else f"trace_chain{chain}.csv"
        trace_path = run.path / name
        try:
            chain_summary, trace = run_gibbs(dataset, config)
        except DivergenceError as exc:
            if exc.trace is not None and exc.trace.sweeps > 0:
                with open(trace_path, "w", encoding="utf-8") as fh:
                    write_trace_csv(exc.trace, fh)
                outputs[f"trace_{chain}"] = trace_path
            divergence = {"chain": chain, "sweep": exc.sweep, "message": str(exc)}
            sys.stderr.write(f"fit: chain {chain} diverged at sweep {exc.sweep}\n")
            break
        with open(trace_path, "w", encoding="utf-8") as fh:
            write_trace_csv(trace, fh)
        outputs[f"trace_{chain}"] = trace_path
        if chain == 0:
            summary = chain_summary
    if summary is not None and divergence is None:
        summary_csv = run.path / "summary.csv"
        with open(summary_csv, "w", encoding="utf-8") as fh:
            summary.to_csv(fh)
        (run.path / "summary.json").write_text(summary.to_json() + "\n", encoding="utf-8")
        outputs["summary_csv"] = summary_csv
        outputs["summary_json"] = run.path / "summary.json"
    run.finish(outputs, divergence=divergence)
    if divergence is not None:
        return 3
    for idx in summary.ranked_indices():
        sys.stdout.write(
            f"{int(summary.rank[idx])}  {summary.labels[idx]:<12} "
            f"mean={summary.bias_mean[idx]:+.5f}  var={summary.bias_variance[idx]:.5f}\n"
        )
    return 0


def cmd_rank(args) -> int:
    run = _RunDir(args)
    labels, wins, losses = matches_from_dataset(_read_dataset(args.input))
    means, variances = trueskill_gibbs(
        wins,
        losses,
        iterations=args.iterations,
        seed=derive_seed(args.seed, DOMAIN_RANK, 0),
        anchor_common=args.anchor_common,
    )
    ranking_path = run.path / "ranking.csv"
    with open(ranking_path, "w", encoding="utf-8") as fh:
        write_ranking_csv(labels, means, variances, fh)
    run.finish({"ranking": ranking_path})
    sys.stdout.write(ranking_path.read_text(encoding="utf-8"))
    return 0


def cmd_score(args) -> int:
    run = _RunDir(args)
    summary = PosteriorSummary.from_json(_read_input(args.summary, lambda fh: fh.read()))
    score = predictive_score(summary, _read_dataset(args.test), args.method)
    line = f"{100.0 * score:.1f}\n"
    (run.path / "score.txt").write_text(line, encoding="utf-8")
    run.finish({"score": run.path / "score.txt"}, score_percent=round(100.0 * score, 4))
    sys.stdout.write(line)
    return 0


def cmd_plot(args) -> int:
    run = _RunDir(args)
    trace = _read_input(args.trace, read_trace_csv)
    svg = render_trace_svg(trace)
    plot_path = run.path / "plot.svg"
    plot_path.write_text(svg, encoding="utf-8")
    run.finish({"plot": plot_path})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latentbias",
        description="Latent group-bias inference for stop-and-search records.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="raw CSV -> canonical dataset + report")
    p.add_argument("--input", required=True)
    p.add_argument("--mapping", default=None, help="mapping JSON (default: shipped mapping)")
    p.add_argument("--scheme", default="guilty", choices=["guilty", "charges"])
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("fit", help="run the Gibbs sampler")
    p.add_argument("--input", required=True, help="canonical dataset CSV (raw CSV with --preset)")
    p.add_argument("--mapping", default=None, help="mapping JSON for --preset's raw CSV")
    p.add_argument("--preset", default=None, choices=list(PRESETS))
    p.add_argument("--prior", default="dependent", choices=[k.value for k in PriorKind])
    p.add_argument("--sweeps", type=int, default=500)
    p.add_argument("--burn-in", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--anchoring", default=None, choices=["on", "off"])
    p.add_argument("--chains", type=int, default=1)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("rank", help="skill-ranking baseline")
    p.add_argument("--input", required=True)
    p.add_argument("--iterations", type=int, default=500)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--anchor-common", action="store_true")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("score", help="score a fitted summary on held-out records")
    p.add_argument("--summary", required=True, help="summary.json from fit")
    p.add_argument("--test", required=True, help="canonical test dataset CSV")
    p.add_argument("--method", default="accuracy", choices=["accuracy", "likelihood"])
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("plot", help="render a trace CSV as SVG")
    p.add_argument("--trace", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (LatentBiasError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
