"""Tour of the Gaussian toolkit: one-sided truncated-normal sampling.

Run:  python demos/01_gaussian_toolkit.py
"""

import numpy as np

from latentbias import sample_truncated_normal, truncated_moments

rng = np.random.default_rng(2024)

print("One-sided truncated normals")
print("---------------------------")
print("Sampling N(mean, 1) restricted to x > 0; empirical vs closed-form moments:\n")
print(f"{'mean':>6} {'emp mean':>10} {'exact':>8} {'emp var':>9} {'exact':>8}")
for mean in (-4.0, -1.0, 0.0, 1.5):
    draws = sample_truncated_normal(np.full(200_000, mean), 1.0, rng)
    m, v = truncated_moments(mean, 1.0)
    print(f"{mean:>6.1f} {draws.mean():>10.4f} {m:>8.4f} {draws.var():>9.4f} {v:>8.4f}")

print("\nEven at mean = -8 (kept mass ~6e-16) the sampler stays in support:")
far = sample_truncated_normal(np.full(10_000, -8.0), 1.0, rng)
print(f"  min draw {far.min():.3g}, mean {far.mean():.4f}, "
      f"closed form {truncated_moments(-8.0, 1.0)[0]:.4f}")
