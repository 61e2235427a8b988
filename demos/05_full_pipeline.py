"""End-to-end pipeline through the CLI entry points.

Builds a raw CSV, then drives ingest -> fit -> rank -> score -> plot
exactly as the command line would, leaving every artifact (plus one
manifest per step) under demo_out/.

Run:  python demos/05_full_pipeline.py
"""

from pathlib import Path

import numpy as np

from latentbias import TrueParams, split, synthesize, write_dataset_csv
from latentbias.cli import main

OUT = Path("demo_out")
OUT.mkdir(exist_ok=True)

# synthesize a canonical dataset and hold out 10% for scoring
rng = np.random.default_rng(99)
params = TrueParams(beta=(0.0, 0.6, 1.2), population=(1200,) * 3)
dataset, _report = synthesize(params, rng)
train, test = split(dataset, 0.1, np.random.default_rng(100))
with open(OUT / "train.csv", "wb") as fh:
    write_dataset_csv(train, fh)
with open(OUT / "test.csv", "wb") as fh:
    write_dataset_csv(test, fh)
print(f"train {len(train)} records, test {len(test)} records")

steps = [
    ["fit", "--input", str(OUT / "train.csv"), "--prior", "dependent",
     "--sweeps", "300", "--burn-in", "60", "--seed", "42",
     "--out-dir", str(OUT / "fit")],
    ["rank", "--input", str(OUT / "train.csv"), "--iterations", "300",
     "--seed", "42", "--out-dir", str(OUT / "rank")],
    ["score", "--summary", str(OUT / "fit" / "summary.json"),
     "--test", str(OUT / "test.csv"), "--out-dir", str(OUT / "score")],
    ["score", "--summary", str(OUT / "fit" / "summary.json"),
     "--test", str(OUT / "test.csv"), "--method", "likelihood",
     "--out-dir", str(OUT / "score_likelihood")],
    ["plot", "--trace", str(OUT / "fit" / "trace.csv"),
     "--out-dir", str(OUT / "plot")],
]
for argv in steps:
    print(f"\n$ latentbias {' '.join(argv)}")
    code = main(argv)
    assert code == 0, f"step failed with exit code {code}"

print(f"\nartifacts under {OUT}/: fit/, rank/, score/, score_likelihood/, plot/")
print("every directory carries a manifest.json pinning inputs by SHA-256")
