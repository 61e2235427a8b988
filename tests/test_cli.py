import argparse
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import latentbias
from latentbias import (Dataset, PosteriorSummary, TrueParams, default_mapping,
                        predictive_score, read_dataset_csv, read_trace_csv, synthesize,
                        write_dataset_csv, write_trace_csv)
from latentbias import ranking
from latentbias.cli import build_parser, main

HEADER = "force,officer_defined_ethnicity,self_defined_ethnicity,outcome,date\n"


@pytest.fixture()
def raw_csv(tmp_path):
    rng = np.random.default_rng(12)
    rows = [HEADER.strip()]
    eths = ("White", "Black", "Asian", "Other")
    for i in range(600):
        eth = eths[i % 4]
        guilty = rng.random() < 0.55
        outcome = "Arrest" if guilty else "Nothing found - no further action"
        force = "Metropolitan Police" if i % 3 == 0 else "West Midlands Police"
        rows.append(f"{force},{eth},,{outcome},2024-03-03")
    path = tmp_path / "raw.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


@pytest.fixture()
def canonical_csv(tmp_path):
    params = TrueParams(beta=(0.0, 0.8), population=(400, 400))
    dataset, _ = synthesize(params, np.random.default_rng(3), labels=("alpha", "beta"))
    path = tmp_path / "dataset.csv"
    with open(path, "wb") as fh:
        write_dataset_csv(dataset, fh)
    return path


def test_cli_pipeline_runs_without_scipy(raw_csv, tmp_path):
    # a fresh interpreter where importing scipy fails (this process has it
    # from the test oracles): every step, both scores and the plot, and the
    # unanchored chains, the free one to its divergence and partial trace
    src = str(Path(latentbias.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = tmp_path / "run"
    dataset, summary = out / "ingest" / "dataset.csv", out / "fit" / "summary.json"
    fit = ["fit", "--input", str(dataset), "--sweeps", "30", "--burn-in", "5", "--seed", "3"]
    steps = [
        (["ingest", "--input", str(raw_csv), "--out-dir", str(out / "ingest")], 0),
        ([*fit, "--out-dir", str(out / "fit")], 0),
        ([*fit, "--prior", "independent", "--anchoring", "off",
          "--out-dir", str(out / "fit-indep-off")], 0),
        ([*fit, "--prior", "free", "--out-dir", str(out / "fit-free")], 3),
        (["rank", "--input", str(dataset), "--iterations", "20", "--seed", "3",
          "--out-dir", str(out / "rank")], 0),
        *((["score", "--summary", str(summary), "--test", str(dataset), "--method", method,
            "--out-dir", str(out / f"score-{method}")], 0) for method in ("accuracy", "likelihood")),
        (["plot", "--trace", str(out / "fit" / "trace.csv"), "--out-dir", str(out / "plot")], 0),
    ]
    code = ("import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from latentbias.cli import main\n"
            "for argv, want in json.loads(sys.argv[1]):\n"
            "    if main(argv) != want:\n"
            "        sys.exit(f'{argv[0]} did not exit {want}')\n")
    done = subprocess.run([sys.executable, "-c", code, json.dumps(steps)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert (out / "fit-indep-off" / "summary.json").exists()
    assert (out / "fit-free" / "trace.csv").exists()
    assert not (out / "fit-free" / "summary.json").exists()
    assert (out / "plot" / "plot.svg").exists()


def _manifest(path: Path) -> dict:
    return json.loads((path / "manifest.json").read_text(encoding="utf-8"))


def test_ingest_writes_dataset_report_manifest(raw_csv, tmp_path, capsys):
    out = tmp_path / "ing"
    assert main(["ingest", "--input", str(raw_csv), "--scheme", "guilty", "--out-dir", str(out)]) == 0
    assert (out / "dataset.csv").exists()
    assert (out / "report.txt").exists()
    doc = _manifest(out)
    assert doc["command"] == "ingest"
    assert doc["rows_kept"] == 600
    assert "sha256" in doc["inputs"]["input"]
    assert "rows kept" in capsys.readouterr().out


def test_ingest_reads_a_raw_export_with_a_byte_order_mark(raw_csv, tmp_path):
    # as spreadsheet software saves UTF-8: the first column is still "force"
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + raw_csv.read_bytes())
    for path, out in ((raw_csv, tmp_path / "plain"), (bom, tmp_path / "bom")):
        assert main(["ingest", "--input", str(path), "--out-dir", str(out)]) == 0
    for name in ("dataset.csv", "report.txt"):
        assert (tmp_path / "bom" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_ingest_missing_column_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("force,officer_defined_ethnicity,self_defined_ethnicity\na,White,\n")
    out = tmp_path / "o"
    assert main(["ingest", "--input", str(bad), "--out-dir", str(out)]) == 2
    assert "outcome" in capsys.readouterr().err


@pytest.mark.parametrize("empty_set, argv, message", [
    ("guilty", ["ingest"], "the guilty-positive set must be nonempty"),
    ("lenient", ["ingest", "--scheme", "charges"],
     "LenientSevere scheme needs a nonempty lenient set"),
    ("lenient", ["fit", "--preset", "charges", "--seed", "1"],
     "LenientSevere scheme needs a nonempty lenient set"),
])
def test_mapping_with_empty_outcome_set_exit_2(raw_csv, tmp_path, capsys, empty_set, argv,
                                               message):
    doc = json.loads(default_mapping().to_json())
    doc[empty_set] = []
    mapping = tmp_path / "mapping.json"
    mapping.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "o"
    assert main(argv + ["--input", str(raw_csv), "--mapping", str(mapping),
                        "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("changes, message", [
    ({"guilty": "Arrest"}, "'guilty' must be a list of strings"),
    ({"group_labels": [1, 2], "ethnicity": {"White": 1, "Black": 2}},
     "'group_labels' must be a list of strings"),
    ({"ethnicity": [["White", "White"]]}, "'ethnicity' must map strings to strings"),
    # a misspelt key never falls back to its default
    ({"not_gulity": ["Arrest"]}, "unknown key 'not_gulity'"),
    ({"precednce": "self", "not_gulity": []}, "unknown keys 'not_gulity', 'precednce'"),
])
def test_mapping_with_mistyped_value_exit_2(raw_csv, tmp_path, capsys, changes, message):
    # never coerced: a string is not a set of its characters, nor a list of
    # pairs an object
    doc = json.loads(default_mapping().to_json())
    doc.update(changes)
    mapping = tmp_path / "mapping.json"
    mapping.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["ingest", "--input", str(raw_csv), "--mapping", str(mapping),
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: invalid mapping file: {message}\n"
    assert not (out / "manifest.json").exists()


def test_mapping_with_no_group_labels_exit_2(raw_csv, tmp_path, capsys):
    # no group for an unmapped ethnicity to fall back to
    doc = json.loads(default_mapping().to_json())
    doc.update(group_labels=[], ethnicity={})
    mapping = tmp_path / "mapping.json"
    mapping.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["ingest", "--input", str(raw_csv), "--mapping", str(mapping),
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "error: the group label list must be nonempty\n"
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("argv", [
    ["fit", "--seed", "-1"],
    ["rank", "--seed", "-5"],
    # the augmented preset's balancing draw, before the fit derives its chain seed
    ["fit", "--preset", "augmented", "--seed", "-1"],
])
def test_negative_seed_exit_2(raw_csv, canonical_csv, tmp_path, capsys, argv):
    source = raw_csv if "--preset" in argv else canonical_csv
    out = tmp_path / "o"
    assert main(argv + ["--input", str(source), "--out-dir", str(out)]) == 2
    seed = argv[argv.index("--seed") + 1]
    assert capsys.readouterr().err == f"error: seed must be a non-negative integer, got {seed}\n"
    assert not (out / "manifest.json").exists()


def test_ingest_unreadable_input_exit_2(tmp_path):
    assert main(["ingest", "--input", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path / "o")]) == 2


def test_ingest_non_utf8_input_exit_2(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_bytes(HEADER.encode() + b"ForceA,White,,Arrest\nForceA,Bl\xffck,,Arrest\n")
    assert main(["ingest", "--input", str(raw), "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{raw}: line 3: not valid UTF-8" in err


def test_fit_non_utf8_dataset_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"group,stopped,outcome,force\na,1,1,f\n\na,1,0,\xff\n")
    assert main(["fit", "--input", str(bad), "--seed", "1", "--out-dir", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{bad}: line 4: not valid UTF-8" in err


def _pipe_holding(data: bytes) -> int:
    """The read end of a pipe whose write end has written ``data`` and closed."""
    read_end, write_end = os.pipe()
    os.write(write_end, data)
    os.close(write_end)
    return read_end


@pytest.mark.parametrize("argv, data, line", [
    (["ingest"], HEADER.encode() + b"ForceA,White,,Arrest\nForceA,Bl\xffck,,Arrest\n", 3),
    (["fit", "--seed", "1"], b"group,stopped,outcome,force\na,1,1,f\n\na,1,0,\xff\n", 4),
], ids=["ingest", "fit"])
def test_non_utf8_input_on_a_pipe_exit_2(tmp_path, capsys, argv, data, line):
    # a pipe is read whole before it is parsed, so it is read again to find
    # the line of the first bad byte, as a file is
    read_end = _pipe_holding(data)
    try:
        path = f"/dev/fd/{read_end}"
        assert main([*argv, "--input", path, "--out-dir", str(tmp_path / "o")]) == 2
    finally:
        os.close(read_end)
    assert capsys.readouterr() == (
        "", f"error: {path}: line {line}: not valid UTF-8 (invalid start byte)\n")


def test_piped_ingest_names_the_line_the_bad_record_began(tmp_path, capsys):
    # a record that opens on line 4 and breaks its quoted field onto line 5
    # is named by line 4, from a pipe as from a file
    data = (HEADER + "ForceA,White,,Arrest,d\nForceA,Black,,Arrest,d\n"
            'ForceA,"Whi\nte"x,,Arrest,d\n').encode()
    raw = tmp_path / "raw.csv"
    raw.write_bytes(data)
    read_end = _pipe_holding(data)
    try:
        for path in (str(raw), f"/dev/fd/{read_end}"):
            assert main(["ingest", "--input", path, "--out-dir", str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err == "error: line 4: ',' expected after '\"'\n"
    finally:
        os.close(read_end)


def test_piped_input_is_recorded_without_a_digest(raw_csv, tmp_path):
    # a pipe has been read when the manifest is written, so its digest is
    # null, not the digest of no bytes; the outputs are those of the file
    read_end = _pipe_holding(raw_csv.read_bytes())
    try:
        path = f"/dev/fd/{read_end}"
        assert main(["ingest", "--input", path, "--out-dir", str(tmp_path / "pipe")]) == 0
    finally:
        os.close(read_end)
    assert main(["ingest", "--input", str(raw_csv), "--out-dir", str(tmp_path / "file")]) == 0
    piped = json.loads((tmp_path / "pipe" / "manifest.json").read_text())
    assert piped["inputs"]["input"] == {"path": path, "sha256": None}
    for name in ("dataset.csv", "report.txt"):
        assert (tmp_path / "pipe" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()


def test_unanchored_fits_ignore_the_row_order_of_the_file(canonical_csv, tmp_path, capsys):
    # the same stops with their lines shuffled, the header first: the
    # unanchored chain reads the tally, so every output but the manifest is
    # the same byte for byte
    header, *rows = canonical_csv.read_bytes().splitlines(keepends=True)
    np.random.default_rng(5).shuffle(rows)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_bytes(header + b"".join(rows))
    assert shuffled.read_bytes() != canonical_csv.read_bytes()
    for flags in (["--prior", "independent", "--anchoring", "off"], ["--prior", "free"]):
        results = []
        for path in (canonical_csv, shuffled):
            out = tmp_path / f"{flags[1]}-{path.stem}"
            code = main(["fit", "--input", str(path), *flags, "--sweeps", "40", "--burn-in", "5",
                         "--seed", "7", "--out-dir", str(out)])
            files = {f.name: f.read_bytes() for f in out.iterdir() if f.name != "manifest.json"}
            results.append((code, capsys.readouterr(), files))
        assert results[0] == results[1], flags
        code, _output, files = results[0]
        assert "trace.csv" in files
        if code == 0:
            assert {"summary.csv", "summary.json"} <= set(files)


@pytest.mark.parametrize("ending", [b"\r\n", b"\r"])
def test_crlf_and_cr_datasets_give_the_lf_outputs(canonical_csv, tmp_path, ending):
    # the canonical file is read as bytes; other line endings change nothing
    other = tmp_path / "other.csv"
    other.write_bytes(canonical_csv.read_bytes().replace(b"\n", ending))
    outputs = []
    for path, out in ((canonical_csv, tmp_path / "lf"), (other, tmp_path / "other")):
        assert main(["fit", "--input", str(path), "--sweeps", "30", "--burn-in", "5",
                     "--seed", "3", "--out-dir", str(out / "fit")]) == 0
        assert main(["rank", "--input", str(path), "--iterations", "20", "--seed", "3",
                     "--out-dir", str(out / "rank")]) == 0
        for method in ("accuracy", "likelihood"):
            assert main(["score", "--summary", str(out / "fit" / "summary.json"),
                         "--test", str(path), "--method", method,
                         "--out-dir", str(out / f"score-{method}")]) == 0
        outputs.append({file.relative_to(out): file.read_bytes() for file in out.rglob("*")
                        if file.is_file() and file.name != "manifest.json"})
    assert len(outputs[0]) == 6
    assert outputs[0] == outputs[1]


def test_fit_dataset_naming_a_column_twice_exit_2(tmp_path, capsys):
    path = tmp_path / "twice.csv"
    path.write_text("group,stopped,outcome,force,group\na,1,1,f,b\n", encoding="utf-8")
    assert main(["fit", "--input", str(path), "--seed", "1", "--out-dir", str(tmp_path / "x")]) == 2
    assert "line 1: the header names 'group' more than once" in capsys.readouterr().err


def test_ingest_header_naming_a_column_twice_exit_2(tmp_path, capsys):
    raw = tmp_path / "twice.csv"
    raw.write_text(HEADER.strip() + ",force\nA,White,,Arrest,2024-03-03,B\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["ingest", "--input", str(raw), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "error: line 1: the header names 'force' more than once\n"
    assert not (out / "manifest.json").exists()


def test_ingest_empty_file_ok(tmp_path):
    raw = tmp_path / "empty.csv"
    raw.write_text(HEADER)
    out = tmp_path / "o"
    assert main(["ingest", "--input", str(raw), "--out-dir", str(out)]) == 0
    assert (out / "dataset.csv").read_text().strip() == "group,stopped,outcome,force"


def test_fit_outputs_and_determinism(canonical_csv, tmp_path):
    args = ["fit", "--input", str(canonical_csv), "--prior", "dependent",
            "--sweeps", "30", "--burn-in", "5", "--seed", "11"]
    out1, out2 = tmp_path / "f1", tmp_path / "f2"
    assert main(args + ["--out-dir", str(out1)]) == 0
    assert main(args + ["--out-dir", str(out2)]) == 0
    for name in ("trace.csv", "summary.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    m1, m2 = _manifest(out1), _manifest(out2)
    m1.pop("wall_time_s"), m2.pop("wall_time_s")
    m1.pop("outputs"), m2.pop("outputs")  # differ by directory path only
    assert m1 == m2
    lines = (out1 / "summary.csv").read_text().splitlines()
    assert lines[0] == "rank,label,bias_mean,bias_variance"
    assert len(lines) == 3


def test_fit_divergence_exit_3(canonical_csv, tmp_path, capsys):
    out = tmp_path / "f"
    code = main([
        "fit", "--input", str(canonical_csv), "--prior", "free", "--anchoring", "off",
        "--sweeps", "100", "--burn-in", "5", "--seed", "4", "--out-dir", str(out),
    ])
    assert code == 3
    doc = _manifest(out)
    assert doc["divergence"]["sweep"] >= 0
    assert "diverged" in capsys.readouterr().err


def test_fit_multiple_chains(canonical_csv, tmp_path):
    out = tmp_path / "f"
    assert main([
        "fit", "--input", str(canonical_csv), "--sweeps", "20", "--burn-in", "4",
        "--seed", "2", "--chains", "2", "--out-dir", str(out),
    ]) == 0
    assert (out / "trace_chain0.csv").exists()
    assert (out / "trace_chain1.csv").exists()
    # chains are independent streams
    assert (out / "trace_chain0.csv").read_bytes() != (out / "trace_chain1.csv").read_bytes()


def test_fit_bad_prior_exit_2(canonical_csv, tmp_path):
    # argparse rejects unknown choices with SystemExit(2)
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--input", str(canonical_csv), "--prior", "bogus",
              "--seed", "1", "--out-dir", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_fit_invalid_config_exit_2(canonical_csv, tmp_path):
    assert main([
        "fit", "--input", str(canonical_csv), "--sweeps", "10", "--burn-in", "10",
        "--seed", "1", "--out-dir", str(tmp_path / "x"),
    ]) == 2
    assert main([
        "fit", "--input", str(canonical_csv), "--chains", "0",
        "--seed", "1", "--out-dir", str(tmp_path / "y"),
    ]) == 2


@pytest.mark.parametrize("value, flag, method", [
    pytest.param(value, flag, method, id=f"{value}-{flag}" + (f"-score-{method}" if method else ""))
    for method in (None, "accuracy", "likelihood")
    for value in ("nan", "inf")
    for flag in ("--alpha", "--gamma")
])
def test_fit_non_finite_noise_exit_2(canonical_csv, tmp_path, capsys, flag, value, method):
    # method None runs fit with the bad value; otherwise score does, on a
    # good fit's summary.json edited to record it (JSON's NaN and Infinity)
    if method is None:
        argv = ["fit", "--input", str(canonical_csv), "--seed", "1", flag, value]
    else:
        fit_dir = tmp_path / "f"
        assert main(["fit", "--input", str(canonical_csv), "--sweeps", "8", "--burn-in", "2",
                     "--seed", "1", "--out-dir", str(fit_dir)]) == 0
        summary = fit_dir / "summary.json"
        doc = json.loads(summary.read_text(encoding="utf-8"))
        summary.write_text(json.dumps({**doc, flag[2:]: float(value)}), encoding="utf-8")
        argv = ["score", "--summary", str(summary), "--test", str(canonical_csv),
                "--method", method]
    assert main(argv + ["--out-dir", str(tmp_path / "x")]) == 2
    assert "positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "x" / "manifest.json").exists()


def test_tiny_noise_fits_and_scores(canonical_csv, tmp_path, capsys):
    # (1 + alpha)(1 + gamma) rounds to 1 at this noise: a result, not a traceback
    tiny = ["--alpha", "1e-17", "--gamma", "1e-17"]
    fit_dir = tmp_path / "f"
    assert main(["fit", "--input", str(canonical_csv), "--prior", "independent",
                 "--sweeps", "20", "--burn-in", "4", "--seed", "1",
                 "--out-dir", str(fit_dir)] + tiny) == 0
    doc = json.loads((fit_dir / "summary.json").read_text(encoding="utf-8"))
    assert np.isfinite(doc["bias_mean"] + doc["bias_variance"]).all()
    assert (doc["alpha"], doc["gamma"]) == (1e-17, 1e-17)
    for method in ("accuracy", "likelihood"):
        capsys.readouterr()
        assert main(["score", "--summary", str(fit_dir / "summary.json"),
                     "--test", str(canonical_csv), "--method", method,
                     "--out-dir", str(tmp_path / method)]) == 0
        out = capsys.readouterr()
        assert np.isfinite(float(out.out)) and out.err == ""


@pytest.mark.parametrize("prior", ["dependent", "free"])
@pytest.mark.parametrize("alpha, gamma", [("0.7", "1.6"), ("1", "1.2")])
def test_fit_gamma_above_alpha_exit_2(canonical_csv, tmp_path, capsys, prior, alpha, gamma):
    # the posterior precision is not positive definite here: a
    # configuration error, not a crash
    out = tmp_path / "x"
    assert main(["fit", "--input", str(canonical_csv), "--prior", prior, "--alpha", alpha,
                 "--gamma", gamma, "--seed", "1", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{prior} prior" in err and f"alpha={alpha}, gamma={gamma}" in err
    assert not (out / "manifest.json").exists()


def test_csv_field_over_parser_limit(tmp_path, capsys):
    # ingest, fit and rank name the line and exit 2
    raw = tmp_path / "raw.csv"
    raw.write_text(HEADER + f"ForceA,White,,Arrest\nForceA,{'x' * 200_000},,Arrest\n"
                   "ForceA,Black,,Nothing found - no further action\n", encoding="utf-8")
    assert main(["ingest", "--input", str(raw), "--out-dir", str(tmp_path / "i")]) == 2
    assert "line 3: field larger than field limit" in capsys.readouterr().err
    assert not (tmp_path / "i" / "manifest.json").exists()
    bad = tmp_path / "bad.csv"
    bad.write_text(f"group,stopped,outcome,force\na,1,1,f\na,1,0,{'x' * 200_000}\n",
                   encoding="utf-8")
    for command in ("fit", "rank"):
        assert main([command, "--input", str(bad), "--seed", "1",
                     "--out-dir", str(tmp_path / command)]) == 2
        assert "line 3: field larger than field limit" in capsys.readouterr().err


def test_ingest_unterminated_quote_exit_2(tmp_path, capsys):
    # a quote opened in the unused date column would swallow the rows after it
    raw = tmp_path / "raw.csv"
    raw.write_text(HEADER + 'F,White,,Arrest,"2024\nF,White,,Arrest,x\nG,Black,,Arrest,y\n',
                   encoding="utf-8")
    assert main(["ingest", "--input", str(raw), "--out-dir", str(tmp_path / "i")]) == 2
    assert capsys.readouterr().err.strip() == "error: line 2: unexpected end of data"
    assert not (tmp_path / "i" / "dataset.csv").exists()


def test_fit_unterminated_quote_exit_2(tmp_path, capsys):
    # a force left open would swallow the records after it into its name
    bad = tmp_path / "bad.csv"
    bad.write_text('group,stopped,outcome,force\nA,1,0,"x\nA,1,0,y\nB,1,1,z\n', encoding="utf-8")
    assert main(["fit", "--input", str(bad), "--seed", "1", "--out-dir", str(tmp_path / "f")]) == 2
    assert capsys.readouterr().err.strip() == "error: line 2: unexpected end of data"


def test_fit_bad_outcome_flag_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("group,stopped,outcome,force\na,1,1,f\na,1,yes,f\n", encoding="utf-8")
    assert main(["fit", "--input", str(bad), "--seed", "1", "--out-dir", str(tmp_path / "x")]) == 2
    assert "line 3" in capsys.readouterr().err


def test_rank_outputs(canonical_csv, tmp_path, capsys):
    out = tmp_path / "r"
    assert main(["rank", "--input", str(canonical_csv), "--iterations", "100",
                 "--seed", "5", "--out-dir", str(out)]) == 0
    lines = (out / "ranking.csv").read_text().splitlines()
    assert lines[0] == "rank,label,mean,variance"
    assert len(lines) == 4  # two groups + the common player
    assert "Criminality" in capsys.readouterr().out


def test_rank_single_group_two_rows(tmp_path):
    dataset = Dataset(np.array([[[25], [25]]]), ("only",))
    path = tmp_path / "one.csv"
    with open(path, "wb") as fh:
        write_dataset_csv(dataset, fh)
    out = tmp_path / "r1"
    assert main(["rank", "--input", str(path), "--iterations", "50",
                 "--seed", "1", "--out-dir", str(out)]) == 0
    assert len((out / "ranking.csv").read_text().splitlines()) == 3


def test_rank_empty_dataset_exit_2(tmp_path, capsys):
    # the ranking itself rejects a dataset with no stops, before any output
    path = tmp_path / "empty.csv"
    path.write_text("group,stopped,outcome,force\n")
    assert main(["rank", "--input", str(path), "--seed", "1",
                 "--out-dir", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == "error: matches must be nonempty\n"
    assert not (tmp_path / "r" / "ranking.csv").exists()
    assert not (tmp_path / "r" / "manifest.json").exists()


def test_rank_deterministic(canonical_csv, tmp_path):
    o1, o2 = tmp_path / "r1", tmp_path / "r2"
    args = ["rank", "--input", str(canonical_csv), "--iterations", "80", "--seed", "9"]
    assert main(args + ["--out-dir", str(o1)]) == 0
    assert main(args + ["--out-dir", str(o2)]) == 0
    assert (o1 / "ranking.csv").read_bytes() == (o2 / "ranking.csv").read_bytes()


def test_score_command(canonical_csv, tmp_path, capsys):
    fit_dir = tmp_path / "f"
    assert main(["fit", "--input", str(canonical_csv), "--sweeps", "20", "--burn-in", "4",
                 "--seed", "2", "--out-dir", str(fit_dir)]) == 0
    capsys.readouterr()  # flush the fit summary
    out = tmp_path / "s"
    assert main(["score", "--summary", str(fit_dir / "summary.json"),
                 "--test", str(canonical_csv), "--out-dir", str(out)]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed == (out / "score.txt").read_text().strip()
    float(printed)  # one-decimal percentage
    assert "." in printed
    doc = _manifest(out)
    assert "score_percent" in doc


def test_score_defaults_to_the_recorded_noise_and_rejects_a_mismatch(
        canonical_csv, tmp_path, capsys):
    # score takes alpha and gamma from summary.json, and has no flag to restate them
    fit_dir = tmp_path / "f"
    assert main(["fit", "--input", str(canonical_csv), "--sweeps", "20", "--burn-in", "4",
                 "--seed", "2", "--alpha", "2", "--gamma", "0.5",
                 "--out-dir", str(fit_dir)]) == 0
    summary = fit_dir / "summary.json"
    doc = json.loads(summary.read_text())
    assert (doc["alpha"], doc["gamma"]) == (2.0, 0.5)
    unit = tmp_path / "unit.json"
    unit.write_text(json.dumps({**doc, "alpha": 1.0, "gamma": 1.0}))
    with open(canonical_csv, "rb") as fh:
        test = read_dataset_csv(fh)
    percents = []
    for path in (summary, unit):
        out = tmp_path / f"s-{path.stem}"
        assert main(["score", "--summary", str(path), "--test", str(canonical_csv),
                     "--method", "likelihood", "--out-dir", str(out)]) == 0
        want = predictive_score(PosteriorSummary.from_json(path.read_text()), test, "likelihood")
        percents.append(_manifest(out)["score_percent"])
        assert percents[-1] == round(100.0 * want, 4)
    assert percents[0] != percents[1]
    capsys.readouterr()
    for flag in ("--alpha", "--gamma"):
        out = tmp_path / f"bad{flag}"
        with pytest.raises(SystemExit) as exc:
            main(["score", "--summary", str(summary), "--test", str(canonical_csv),
                  flag, "1", "--out-dir", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        assert not out.exists()


def test_score_reads_a_summary_without_recorded_noise(canonical_csv, tmp_path, capsys):
    # a summary.json written before alpha and gamma were recorded, or with
    # them null, scores at the fit's default of 1
    fit_dir = tmp_path / "f"
    assert main(["fit", "--input", str(canonical_csv), "--sweeps", "20", "--burn-in", "4",
                 "--seed", "2", "--out-dir", str(fit_dir)]) == 0
    summary = fit_dir / "summary.json"
    doc = json.loads(summary.read_text())
    assert (doc["alpha"], doc["gamma"]) == (1.0, 1.0)
    old, null = tmp_path / "old.json", tmp_path / "null.json"
    old.write_text(json.dumps({k: v for k, v in doc.items() if k not in ("alpha", "gamma")}))
    null.write_text(json.dumps({**doc, "alpha": None, "gamma": None}))
    base = ["score", "--test", str(canonical_csv), "--method", "likelihood"]
    capsys.readouterr()
    scores = []
    for path in (summary, old, null):
        assert main(base + ["--summary", str(path),
                            "--out-dir", str(tmp_path / f"s{len(scores)}")]) == 0
        scores.append(capsys.readouterr().out)
    assert scores[0] == scores[1] == scores[2]


def test_score_schema_mismatch_exit_2(canonical_csv, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"nope\": 1}")
    assert main(["score", "--summary", str(bad), "--test", str(canonical_csv),
                 "--out-dir", str(tmp_path / "s")]) == 2


@pytest.mark.parametrize("method", ["likelihood", "accuracy"])
def test_score_inconsistent_summary_exit_2(canonical_csv, tmp_path, capsys, method):
    fit_dir = tmp_path / "f"
    assert main(["fit", "--input", str(canonical_csv), "--sweeps", "20", "--burn-in", "4",
                 "--seed", "2", "--out-dir", str(fit_dir)]) == 0
    doc = json.loads((fit_dir / "summary.json").read_text(encoding="utf-8"))
    capsys.readouterr()
    for i, (changes, message) in enumerate([
        ({"bias_mean": doc["bias_mean"][:1]}, "'bias_mean' needs 2 entries, one per label, got 1"),
        ({"rank": [1, 2, 3]}, "'rank' needs 2 entries, one per label, got 3"),
        ({"bias_mean": [math.nan, 0.5]}, "'bias_mean' must be finite"),
        ({"bias_variance": [1.0, 0.0]}, "'bias_variance' must be positive and finite"),
        ({"bias_variance": [math.inf, 1.0]}, "'bias_variance' must be positive and finite"),
        ({"rank": [1, 1]}, "'rank' must be a permutation of 1..2"),
        ({"rank": [2, 3]}, "'rank' must be a permutation of 1..2"),
        ({"rank": [1.9, 2.2]}, "'rank' must be a permutation of 1..2"),
        ({"labels": ["a", "a"]}, "label 'a' is repeated"),
        # a string is not read as a list of its characters
        ({"labels": "ab"}, "'labels' must be a list of strings"),
        ({"labels": [1, 2]}, "'labels' must be a list of strings"),
        ({"criminality_mean": math.nan}, "'criminality_mean' must be finite"),
        ({"criminality_mean": math.inf}, "'criminality_mean' must be finite"),
        *(({"criminality_variance": v}, "'criminality_variance' must be positive and finite")
          for v in (-1.0, 0.0, math.inf)),
        ({"sweeps": 2.7}, "'sweeps' must be an integer >= 1"),
        ({"sweeps": 0}, "'sweeps' must be an integer >= 1"),
        *(({name: v}, f"{name!r} must be positive and finite")
          for name, v in (("alpha", math.nan), ("alpha", -1.0), ("gamma", math.inf),
                          ("gamma", 0.0))),
        *(({"prior_kind": v}, "'prior_kind' must be a string")
          for v in (5, None, ["dependent"], True)),
        # a bool or a numeric string is not read as a number
        *(({name: v}, f"{name!r} must be a number")
          for name, v in (("sweeps", "10"), ("sweeps", True), ("alpha", "1.0"), ("alpha", True),
                          ("criminality_mean", False))),
        *(({name: v}, f"{name!r} must be a list of numbers")
          for name, v in (("bias_mean", ["0.1", "0.2"]), ("rank", ["2", "1"]),
                          ("rank", [True, 2]), ("bias_variance", [True, True]))),
    ]):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(json.dumps({**doc, **changes}), encoding="utf-8")
        out = tmp_path / f"s{i}"
        assert main(["score", "--summary", str(bad), "--test", str(canonical_csv),
                     "--method", method, "--out-dir", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: not a posterior summary: {message}\n")
        assert not (out / "score.txt").exists() and not (out / "manifest.json").exists()


def test_score_unknown_group_label_exit_2(canonical_csv, tmp_path):
    fit_dir = tmp_path / "f"
    assert main(["fit", "--input", str(canonical_csv), "--sweeps", "20", "--burn-in", "4",
                 "--seed", "2", "--out-dir", str(fit_dir)]) == 0
    other = tmp_path / "other.csv"
    other.write_text("group,stopped,outcome,force\nmystery,1,1,x\n")
    assert main(["score", "--summary", str(fit_dir / "summary.json"),
                 "--test", str(other), "--out-dir", str(tmp_path / "s")]) == 2


def test_score_remaps_group_labels(canonical_csv, tmp_path, capsys):
    # a test file whose sorted-label ids differ from the summary's order must
    # still score against the right bias coordinates
    fit_dir = tmp_path / "f"
    assert main(["fit", "--input", str(canonical_csv), "--sweeps", "20", "--burn-in", "4",
                 "--seed", "2", "--out-dir", str(fit_dir)]) == 0
    subset = tmp_path / "subset.csv"
    subset.write_text(
        "group,stopped,outcome,force\n"
        "beta,1,1,x\nbeta,1,0,x\nalpha,1,1,x\nalpha,1,1,x\n"
    )
    capsys.readouterr()
    assert main(["score", "--summary", str(fit_dir / "summary.json"),
                 "--test", str(subset), "--method", "likelihood",
                 "--out-dir", str(tmp_path / "s")]) == 0
    assert 0.0 <= float(capsys.readouterr().out.strip()) <= 100.0


def test_plot_svg_deterministic_and_degenerate(canonical_csv, tmp_path):
    fit_dir = tmp_path / "f"
    assert main(["fit", "--input", str(canonical_csv), "--sweeps", "12", "--burn-in", "2",
                 "--seed", "2", "--out-dir", str(fit_dir)]) == 0
    p1, p2 = tmp_path / "p1", tmp_path / "p2"
    assert main(["plot", "--trace", str(fit_dir / "trace.csv"), "--out-dir", str(p1)]) == 0
    assert main(["plot", "--trace", str(fit_dir / "trace.csv"), "--out-dir", str(p2)]) == 0
    svg1 = (p1 / "plot.svg").read_bytes()
    assert svg1 == (p2 / "plot.svg").read_bytes()
    assert svg1.startswith(b"<svg")
    assert svg1.count(b"<polyline") == 2
    # single-sweep trace still renders
    trace_lines = (fit_dir / "trace.csv").read_text().splitlines()
    single = tmp_path / "single.csv"
    single.write_text("\n".join(trace_lines[:2]) + "\n")
    p3 = tmp_path / "p3"
    assert main(["plot", "--trace", str(single), "--out-dir", str(p3)]) == 0
    assert b"<circle" in (p3 / "plot.svg").read_bytes()


def test_plot_malformed_trace_exit_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("sweep,x\n0,1\n")
    assert main(["plot", "--trace", str(bad), "--out-dir", str(tmp_path / "p")]) == 2
    nonnumeric = tmp_path / "nn.csv"
    nonnumeric.write_text(
        "sweep,beta_0_mean,C_mean,beta_0_var,C_var,cov_C_beta_0\n0,a,b,c,d,e\n"
    )
    assert main(["plot", "--trace", str(nonnumeric), "--out-dir", str(tmp_path / "p2")]) == 2


_TRACE_HEADER = "sweep,beta_0_mean,C_mean,beta_0_var,C_var,cov_C_beta_0\n"


@pytest.mark.parametrize("text, message", [
    ("sweep,C_mean,C_var\n0,0,1\n", "no bias column before C_mean"),
    (_TRACE_HEADER + "0,nan,0,1,1,0\n", "non-finite value"),
    (_TRACE_HEADER + "0,0.5,0,inf,1,0\n", "non-finite value"),
    (_TRACE_HEADER + "0,0.5,0,1,1,0\n1,0.5,0,1,1,-inf\n", "non-finite value"),
    (_TRACE_HEADER + "0,0.5,0,1,1,0\n1,0.5,0,2,1,0\n", "disagree on the variance report"),
    ("sweep,foo,C_mean,bar,baz,qux\n0,1,0,1,1,0\n", "bad header for K = 1, want " + _TRACE_HEADER),
    ("sweep,beta_1_mean,beta_0_mean,C_mean,beta_0_var,beta_1_var,C_var,cov_C_beta_0,"
     "cov_C_beta_1\n0,1,2,0,1,1,1,0,0\n", "bad header for K = 2"),
], ids=["no-bias-column", "nan-mean", "inf-variance", "minus-inf-cov", "report-disagrees",
        "foreign-header", "columns-out-of-order"])
def test_plot_undrawable_trace_exit_2(tmp_path, capsys, text, message):
    trace = tmp_path / "trace.csv"
    trace.write_text(text, encoding="utf-8")
    out = tmp_path / "p"
    assert main(["plot", "--trace", str(trace), "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "plot.svg").exists()


@pytest.mark.parametrize("flags", [[], ["--prior", "independent", "--anchoring", "off"]],
                         ids=["anchored", "unanchored"])
def test_trace_csv_round_trips_byte_for_byte(canonical_csv, tmp_path, flags):
    out = tmp_path / "f"
    assert main(["fit", "--input", str(canonical_csv), "--sweeps", "25", "--burn-in", "5",
                 "--seed", "7", *flags, "--out-dir", str(out)]) == 0
    written = (out / "trace.csv").read_text(encoding="utf-8")
    again = io.StringIO()
    write_trace_csv(read_trace_csv(io.StringIO(written)), again)
    assert again.getvalue() == written


def test_rank_divergence_exit_3(canonical_csv, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ranking, "DIVERGENCE_MEAN_LIMIT", 0.0)
    out = tmp_path / "r"
    assert main(["rank", "--input", str(canonical_csv), "--iterations", "20", "--seed", "1",
                 "--out-dir", str(out)]) == 3
    assert capsys.readouterr() == ("", "error: ranking chain diverged at iteration 0\n")
    assert list(out.iterdir()) == []


def test_preset_augmented(raw_csv, tmp_path, capsys):
    out = tmp_path / "aug"
    # 600 rows -> 150 per group; augmented preset wants 1000 each, so this
    # must fail loudly, naming the first short group by its label
    assert main(["fit", "--input", str(raw_csv), "--preset", "augmented",
                 "--sweeps", "10", "--burn-in", "2", "--seed", "1",
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "error: group 'White' has 150 records, need 1000\n"


def test_preset_london_met(raw_csv, tmp_path):
    out = tmp_path / "lm"
    assert main(["fit", "--input", str(raw_csv), "--preset", "london-met",
                 "--sweeps", "10", "--burn-in", "2", "--seed", "1",
                 "--out-dir", str(out)]) == 0
    # 600 rows, every third is Metropolitan Police
    trace = (out / "trace.csv").read_text().splitlines()
    assert len(trace) == 11


def test_preset_charges(raw_csv, tmp_path):
    out = tmp_path / "ch"
    assert main(["fit", "--input", str(raw_csv), "--preset", "charges",
                 "--sweeps", "10", "--burn-in", "2", "--seed", "1",
                 "--out-dir", str(out)]) == 0
    doc = _manifest(out)
    assert doc["config"]["preset"] == "charges"


def test_fit_mapping_without_preset_exit_2(canonical_csv, tmp_path, capsys):
    # only a preset's raw CSV is mapped: a mapping given with a canonical
    # dataset is an error before anything is written, not ignored
    out = tmp_path / "f"
    assert main(["fit", "--input", str(canonical_csv), "--mapping", str(tmp_path / "none.json"),
                 "--seed", "1", "--out-dir", str(out)]) == 2
    assert capsys.readouterr() == (
        "", "error: --mapping needs --preset: a canonical dataset is already mapped\n")
    assert not out.exists()


def _options(command: str) -> set[str]:
    """The names of ``command``'s parsed options, ``--out-dir`` aside."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions if a.dest not in ("help", "out_dir")}


def test_each_manifest_records_exactly_the_parsed_options(raw_csv, tmp_path):
    # every option but --out-dir is in config or, naming an input file, in
    # inputs with the file's digest, next to the versions of the library,
    # Python and numpy; each run gives every file option
    mapping = tmp_path / "mapping.json"
    mapping.write_text(default_mapping().to_json(), encoding="utf-8")
    dataset = tmp_path / "ingest" / "dataset.csv"
    runs = [
        ["ingest", "--input", raw_csv, "--mapping", mapping, "--scheme", "charges"],
        ["fit", "--input", raw_csv, "--mapping", mapping, "--preset", "national",
         "--prior", "independent", "--sweeps", "12", "--burn-in", "2", "--seed", "3",
         "--alpha", "1.5", "--gamma", "0.5", "--anchoring", "on", "--chains", "1"],
        ["rank", "--input", dataset, "--iterations", "10", "--seed", "3", "--anchor-common"],
        ["score", "--summary", tmp_path / "fit" / "summary.json", "--test", dataset,
         "--method", "likelihood"],
        ["plot", "--trace", tmp_path / "fit" / "trace.csv"],
    ]
    for argv in runs:
        argv = [str(arg) for arg in argv] + ["--out-dir", str(tmp_path / argv[0])]
        assert main(argv) == 0, argv[0]
        parsed = vars(build_parser().parse_args(argv))
        doc = _manifest(tmp_path / argv[0])
        config, inputs = doc["config"], doc["inputs"]
        assert doc["command"] == argv[0]
        assert doc["library_version"] == latentbias.__version__
        assert doc["python_version"] == "{}.{}.{}".format(*sys.version_info)
        assert doc["numpy_version"] == np.__version__
        assert set(config) | set(inputs) == _options(argv[0]) and not set(config) & set(inputs)
        for name, value in config.items():
            assert value == parsed[name], name
            assert not (isinstance(value, str) and Path(value).is_file()), name
        for name, entry in inputs.items():
            digest = hashlib.sha256(Path(parsed[name]).read_bytes()).hexdigest()
            assert entry == {"path": parsed[name], "sha256": digest}, name


def test_project_version_is_the_package_version(capsys):
    # pyproject.toml reads its version from latentbias.__version__, which
    # --version prints and every manifest records
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools calls [tool.setuptools] beta
        project = pyprojecttoml.read_configuration(
            Path(__file__).resolve().parents[1] / "pyproject.toml", expand=True)["project"]
    assert project["version"] == latentbias.__version__
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"latentbias {latentbias.__version__}\n"
