"""SHA-256 digests of every CLI output on the benchmark's two raw exports.

Usage::

    python tools/golden_digests.py OUT_DIR

Generates the ``national-cli`` and ``export-200k`` inputs with
``perfbench/workloads.py`` (seed 1) under ``OUT_DIR``, which must be new or
empty. On each it runs ``ingest`` under both schemes, ``fit`` three ways
(``dependent``; ``independent --anchoring off``; ``free``, whose default
unanchored chain may stop with exit 3 and a partial trace), ``rank`` with
and without ``--anchor-common``, and ``score`` by both methods on the
``dependent`` and the ``--anchoring off`` summaries, all through ``python -m
latentbias.cli`` on the sources next to this script, and then ``plot`` on
every trace a ``fit`` step wrote (a chain that diverges at sweep 0 writes
none). It then derives
``export-200k-variety``, the ``export-200k`` rows with every line made
distinct as in a real export, and ingests it under both schemes; its
ingest outputs must equal ``export-200k``'s, and its exit codes go in a
file of its own. Last,
``national-cli-quoted`` ingests ``national-cli``'s rows with the default
mapping's group labels renamed to hold a comma, a quote and a line break,
so its canonical CSV takes the reader's row path; it runs ``fit``
(``dependent``), ``rank`` and ``score`` by both methods on its own
``dataset.csv`` and ``plot`` on its trace, and its exit codes also go in a
file of its own. Then ``export-200k-shuffled`` holds ``export-200k``'s
ingested ``dataset.csv`` with its stop lines in a seeded random order, the
header kept first, so the reader counts its lines one by one where it
walks the written file's runs; it runs ``fit`` (``dependent``, and
``independent --anchoring off``, whose chain must not depend on the row
order either) and ``rank``, whose outputs must equal ``export-200k``'s
apart from the manifests, which name and hash the input, and its exit
codes go in a file of its own. Then ``national-cli-piped`` runs
``national-cli``'s ``ingest``, ``fit`` (``dependent``) and ``rank`` with
``--input /dev/stdin``, each fed its input's bytes through a real pipe,
which the CLI cannot map and reads whole; their outputs and logs must
equal ``national-cli``'s apart from the manifests, which record the pipe
with a null digest, and the script checks that they do: it names each
file that differs on stderr and exits 1 after printing. Its exit codes go
in a file of its own. Last, ``national-cli-low-noise`` and
``export-200k-low-noise`` fit each workload's ingested dataset at
``--alpha 0.3 --gamma 0.3``, where the cell model's correlation parameter
``r`` is about 1.2, ``dependent`` and ``independent --anchoring off``, and
score each summary by likelihood on the workload's test set: the anchored
target takes Owen's T through its reflection, and the unanchored score the
log-space integral off the outcome threshold 0. Their exit codes go in a
file of their own. It prints
``sha256  relpath`` for every file the commands write, for each command's
stdout and stderr, and for the files of exit codes. Commands run with
``OUT_DIR`` as working directory and relative paths, and each manifest is
hashed without ``wall_time_s``, so two runs of one tree print the same
lines, and a diff of the lines printed by two trees names exactly the
outputs a change moved.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
import workloads  # noqa: E402
from latentbias import default_mapping  # noqa: E402

SEED = 1
# workload -> (sweeps, burn-in, ranking iterations), the benchmark's own
RUN_LENGTHS = {
    "national-cli": (workloads.NATIONAL_SWEEPS, workloads.NATIONAL_BURN_IN,
                     workloads.NATIONAL_ITERATIONS),
    "export-200k": (workloads.EXPORT_SWEEPS, workloads.EXPORT_BURN_IN,
                    workloads.EXPORT_ITERATIONS),
}
VARIETY = "export-200k-variety"
# columns a real export carries and ingest never reads
VARIETY_COLUMNS = ("type", "latitude", "longitude", "object_of_search")
VARIETY_SEARCHES = ("Person search", "Person and Vehicle search", "Vehicle search")
VARIETY_OBJECTS = ("Controlled drugs", "Offensive weapons", "Stolen goods",
                   "Article for use in theft")
QUOTED = "national-cli-quoted"
# default group label -> the label national-cli-quoted gives it
QUOTED_LABELS = {"Black": "Black, African", "Asian": 'Asian "South"', "Other/Mixed": "Other\nMixed"}
# workload -> its fits and likelihood scores at low noise, r > 1
LOW_NOISE = {name: f"{name}-low-noise" for name in RUN_LENGTHS}
SHUFFLED = "export-200k-shuffled"
PIPED = "national-cli-piped"
# the national-cli steps national-cli-piped runs on a pipe
PIPED_STEPS = ("ingest", "fit", "rank")
# one BLAS thread, so a matrix product sums in one order on every host
ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def ingest_steps(name: str) -> list[tuple[str, list[str]]]:
    """``(step, argv)`` pairs ingesting ``name/raw.csv`` under both schemes."""
    raw = f"{name}/raw.csv"
    return [("ingest", ["ingest", "--input", raw]),
            ("ingest-charges", ["ingest", "--input", raw, "--scheme", "charges"])]


def commands(name: str) -> list[tuple[str, list[str]]]:
    """``(step, argv)`` pairs for one workload, paths relative to OUT_DIR."""
    sweeps, burn_in, iterations = (str(v) for v in RUN_LENGTHS[name])
    test, dataset = f"{name}/test.csv", f"{name}/ingest/dataset.csv"
    fit = ["fit", "--input", dataset, "--sweeps", sweeps, "--burn-in", burn_in,
           "--seed", str(SEED)]
    rank = ["rank", "--input", dataset, "--iterations", iterations, "--seed", str(SEED)]
    return ingest_steps(name) + [
        ("fit", fit + ["--prior", "dependent"]),
        ("fit-indep-off", fit + ["--prior", "independent", "--anchoring", "off"]),
        ("fit-free", fit + ["--prior", "free"]),
        ("rank", rank),
        ("rank-anchored", rank + ["--anchor-common"]),
    ] + [
        (f"score-{method}{suffix}", ["score", "--summary", f"{name}/{fit}/summary.json",
                                     "--test", test, "--method", method])
        # the anchored summary's criminality mean is exactly 0; the unanchored
        # one's is not, which takes scoring's orthant off the outcome threshold 0
        for fit, suffix in (("fit", ""), ("fit-indep-off", "-indep-off"))
        for method in ("likelihood", "accuracy")
    ]


def plot_steps(name: str, out: Path) -> list[tuple[str, list[str]]]:
    """``(step, argv)`` pairs plotting each ``name/fit*/trace.csv`` under
    ``out``, run after the fits that write them."""
    return [(f"plot-{path.parent.name}", ["plot", "--trace", path.relative_to(out).as_posix()])
            for path in sorted((out / name).glob("fit*/trace.csv"))]


def write_variety(source: Path, target: Path) -> None:
    """``source``'s raw rows with every line made distinct: each full row
    gets a unique timestamp in its date column and values in
    :data:`VARIETY_COLUMNS`; short rows stay as they are."""
    with open(source, newline="", encoding="utf-8") as src, \
            open(target, "w", newline="", encoding="utf-8") as dst:
        reader = csv.reader(src)
        writer = csv.writer(dst, lineterminator="\n")
        header = next(reader)
        date = header.index("date")
        writer.writerow(header + list(VARIETY_COLUMNS))
        for i, row in enumerate(reader):
            if len(row) == len(header):
                minute, second = divmod(i, 60)
                hour, minute = divmod(minute, 60)
                day, hour = divmod(hour, 24)
                row[date] = f"2024-03-{1 + day:02d}T{hour:02d}:{minute:02d}:{second:02d}"
                row += [VARIETY_SEARCHES[i % 3], f"{51 + i * 7919 % 100_000 / 1e5:.5f}",
                        f"{-(i * 104_729 % 100_000) / 1e5:.5f}", VARIETY_OBJECTS[i % 4]]
            writer.writerow(row)


def write_quoted_mapping(path: Path) -> None:
    """The default mapping with its group labels renamed by :data:`QUOTED_LABELS`."""
    doc = json.loads(default_mapping().to_json())
    doc["group_labels"] = [QUOTED_LABELS.get(label, label) for label in doc["group_labels"]]
    doc["ethnicity"] = {eth: QUOTED_LABELS.get(label, label)
                        for eth, label in doc["ethnicity"].items()}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")


def quoted_steps() -> list[tuple[str, list[str]]]:
    """``(step, argv)`` pairs for ``national-cli-quoted``: ingest
    ``national-cli/raw.csv`` with the renamed labels, then fit, rank and
    score on the dataset that writes."""
    sweeps, burn_in, iterations = (str(v) for v in RUN_LENGTHS["national-cli"])
    dataset = f"{QUOTED}/ingest/dataset.csv"
    return [
        ("ingest", ["ingest", "--input", "national-cli/raw.csv",
                    "--mapping", f"{QUOTED}/mapping.json"]),
        ("fit", ["fit", "--input", dataset, "--prior", "dependent", "--sweeps", sweeps,
                 "--burn-in", burn_in, "--seed", str(SEED)]),
        ("rank", ["rank", "--input", dataset, "--iterations", iterations, "--seed", str(SEED)]),
    ] + [
        (f"score-{method}", ["score", "--summary", f"{QUOTED}/fit/summary.json", "--test",
                             dataset, "--method", method])
        for method in ("likelihood", "accuracy")
    ]


def low_noise_steps(name: str) -> list[tuple[str, list[str]]]:
    """``(step, argv)`` pairs for ``LOW_NOISE[name]``: ``name``'s ``fit``
    and ``fit-indep-off`` at ``--alpha 0.3 --gamma 0.3``, each scored by
    likelihood on ``name``'s test set."""
    low = LOW_NOISE[name]
    fits = [(step, [*argv, "--alpha", "0.3", "--gamma", "0.3"]) for step, argv in commands(name)
            if step in ("fit", "fit-indep-off")]
    return fits + [
        (f"score-likelihood{suffix}", ["score", "--summary", f"{low}/{fit}/summary.json",
                                       "--test", f"{name}/test.csv", "--method", "likelihood"])
        for fit, suffix in (("fit", ""), ("fit-indep-off", "-indep-off"))
    ]


def write_shuffled(source: Path, target: Path) -> None:
    """``source``'s header line, then its other lines in a random order
    seeded by :data:`SEED`; lines end at LF, as the reader splits them."""
    with open(source, "rb") as fh:
        header, *rows = fh.readlines()
    random.Random(SEED).shuffle(rows)
    target.write_bytes(header + b"".join(rows))


def shuffled_steps() -> list[tuple[str, list[str]]]:
    """``(step, argv)`` pairs for ``export-200k-shuffled``: ``export-200k``'s
    ``fit`` (``dependent`` and ``independent --anchoring off``) and ``rank``
    on the shuffled dataset."""
    source, shuffled = "export-200k/ingest/dataset.csv", f"{SHUFFLED}/dataset.csv"
    return [(step, [shuffled if arg == source else arg for arg in argv])
            for step, argv in commands("export-200k") if step in ("fit", "fit-indep-off", "rank")]


def piped_steps() -> tuple[list[tuple[str, list[str]]], dict[str, str]]:
    """``(step, argv)`` pairs for ``national-cli-piped``: the
    :data:`PIPED_STEPS` of ``national-cli`` with ``--input /dev/stdin``, and
    each step's input path, whose bytes go to it through a pipe."""
    steps, stdin = [], {}
    for step, argv in commands("national-cli"):
        if step in PIPED_STEPS:
            i = argv.index("--input") + 1
            steps.append((step, [*argv[:i], "/dev/stdin", *argv[i + 1:]]))
            stdin[step] = argv[i]
    return steps, stdin


def piped_mismatches(out: Path) -> list[str]:
    """The outputs and logs of ``national-cli-piped``'s steps that differ
    from ``national-cli``'s, or that only one of them has, manifests aside."""
    def files(name: str, step: str) -> dict[str, bytes]:
        paths = {f"{step}/{p.name}": p for p in (out / name / step).iterdir()
                 if p.name != "manifest.json"}
        paths.update((f"logs/{step}.{log}", out / name / "logs" / f"{step}.{log}")
                     for log in ("stdout", "stderr"))
        return {rel: path.read_bytes() for rel, path in paths.items()}

    differ = []
    for step in PIPED_STEPS:
        piped, source = files(PIPED, step), files("national-cli", step)
        differ += [f"{PIPED}/{rel}" for rel in sorted(piped.keys() | source.keys())
                   if piped.get(rel) != source.get(rel)]
    return differ


def run_steps(name: str, steps, out: Path, env: dict, stdin: dict | None = None) -> str:
    """Run each ``(step, argv)`` of workload ``name`` with outputs in
    ``name/step``, keep its stdout and stderr under ``name/logs``, and
    return the lines of its exit codes. A step named in ``stdin`` is fed
    the bytes of the file at its path through a pipe."""
    (out / name / "logs").mkdir(parents=True, exist_ok=True)
    exit_codes = []
    for step, cli_argv in steps:
        fed = (out / stdin[step]).read_bytes() if stdin and step in stdin else None
        proc = subprocess.run([sys.executable, "-m", "latentbias.cli", *cli_argv,
                               "--out-dir", f"{name}/{step}"],
                              cwd=out, env=env, input=fed, capture_output=True)
        (out / name / "logs" / f"{step}.stdout").write_bytes(proc.stdout)
        (out / name / "logs" / f"{step}.stderr").write_bytes(proc.stderr)
        exit_codes.append(f"{name}/{step} {proc.returncode}\n")
    return "".join(exit_codes)


def digest(path: Path) -> str:
    if path.name == "manifest.json":
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc.pop("wall_time_s", None)
        data = json.dumps(doc, indent=2, sort_keys=True).encode("utf-8")
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.stderr.write("usage: python tools/golden_digests.py OUT_DIR\n")
        return 2
    out = Path(argv[0]).resolve()
    if out.exists() and any(out.iterdir()):
        sys.stderr.write(f"error: {out} is not empty\n")
        return 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **ENV)
    exit_codes = []
    for name in RUN_LENGTHS:
        (out / name).mkdir(parents=True)
        generate, _commands = workloads.WORKLOADS[name]
        generate(SEED, out / name)
        exit_codes.append(run_steps(name, commands(name), out, env))
        exit_codes.append(run_steps(name, plot_steps(name, out), out, env))
    (out / "exit_codes.txt").write_text("".join(exit_codes), encoding="utf-8")
    (out / VARIETY).mkdir()
    write_variety(out / "export-200k" / "raw.csv", out / VARIETY / "raw.csv")
    (out / VARIETY / "exit_codes.txt").write_text(
        run_steps(VARIETY, ingest_steps(VARIETY), out, env), encoding="utf-8")
    (out / QUOTED).mkdir()
    write_quoted_mapping(out / QUOTED / "mapping.json")
    quoted_exit_codes = run_steps(QUOTED, quoted_steps(), out, env)
    (out / QUOTED / "exit_codes.txt").write_text(
        quoted_exit_codes + run_steps(QUOTED, plot_steps(QUOTED, out), out, env),
        encoding="utf-8")
    (out / SHUFFLED).mkdir()
    write_shuffled(out / "export-200k" / "ingest" / "dataset.csv", out / SHUFFLED / "dataset.csv")
    (out / SHUFFLED / "exit_codes.txt").write_text(
        run_steps(SHUFFLED, shuffled_steps(), out, env), encoding="utf-8")
    (out / PIPED).mkdir()
    steps, stdin = piped_steps()
    (out / PIPED / "exit_codes.txt").write_text(
        run_steps(PIPED, steps, out, env, stdin), encoding="utf-8")
    for name, low in LOW_NOISE.items():
        (out / low).mkdir()
        (out / low / "exit_codes.txt").write_text(
            run_steps(low, low_noise_steps(name), out, env), encoding="utf-8")
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{digest(path)}  {path.relative_to(out).as_posix()}")
    differ = piped_mismatches(out)
    for name in differ:
        sys.stderr.write(f"error: {name} differs from the file-input run's\n")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
