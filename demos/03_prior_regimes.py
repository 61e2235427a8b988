"""The three prior regimes on identical data.

INDEPENDENT never couples bias and criminality, so each group's reported
anchored variance scales like (1 + N) / (1 + n_k): thin groups look wide.
DEPENDENT adds the cross-precision, which ties every bias to the
criminality coordinate and compresses all the reported variances to about
1. Both are the fixed report in ``bias_variance``, not the spread of the
bias draws, which under anchoring is the same for both. FREE runs the same
joint structure without the drift correction; its coupled mean update
amplifies any bias/outcome evidence mismatch by roughly N/(K+1) per sweep
and the chain blows past the divergence guard within a few sweeps.

Run:  python demos/03_prior_regimes.py
"""

import numpy as np

from latentbias import (
    DivergenceError,
    ModelConfig,
    PriorKind,
    TrueParams,
    run_gibbs,
    synthesize,
)

rng = np.random.default_rng(3)
params = TrueParams(beta=(0.0, 0.5, 1.0, 1.5), population=(1400,) * 4)
dataset, _report = synthesize(params, rng)
counts = dataset.outcome_counts().sum(axis=1)
print(f"dataset: {len(dataset)} records, per-group counts {counts.tolist()}\n")

results = {}
for kind in (PriorKind.INDEPENDENT, PriorKind.DEPENDENT):
    config = ModelConfig(seed=5, prior=kind, sweeps=300, burn_in=60)
    summary, _trace = run_gibbs(dataset, config)
    results[kind] = summary
    print(f"{kind.value:>12}: bias variances {np.round(summary.bias_variance, 3)}")

n = counts.astype(float)
print(f"{'(1+N)/(1+n_k)':>12}: {np.round((1 + n.sum()) / (1 + n), 3)}  <- independent prediction")

shrunk = np.all(
    results[PriorKind.DEPENDENT].bias_variance <= results[PriorKind.INDEPENDENT].bias_variance
)
print(f"\ndependent variances <= independent everywhere: {bool(shrunk)}")

print("\nFREE regime (no drift correction):")
config = ModelConfig(seed=5, prior=PriorKind.FREE, sweeps=1000, burn_in=100)
try:
    run_gibbs(dataset, config)
    print("  ...unexpectedly stable")
except DivergenceError as exc:
    print(f"  diverged at sweep {exc.sweep} as documented; "
          f"partial trace holds {exc.trace.sweeps} sweeps")
    mags = np.abs(exc.trace.means[:, 4])
    print(f"  |criminality mean| over recorded sweeps: {np.round(mags, 2)}")

print("\nSame FREE structure with the drift correction forced on:")
config = ModelConfig(seed=5, prior=PriorKind.FREE, sweeps=300, burn_in=60, anchoring=True)
summary, trace = run_gibbs(dataset, config)
print(f"  stable; criminality mean row is identically "
      f"{set(trace.means[:, 4].tolist())}")
print(f"  bias means {np.round(summary.bias_mean, 3)}")
