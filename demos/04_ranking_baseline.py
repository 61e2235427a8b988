"""Skill-ranking baseline on a reconstruction of the national table.

Every record is one match against a common "Criminality" player: positive
outcome, the common player wins; negative, the group's player wins. Groups
whose members are searched fruitlessly more often accumulate wins and rank
higher - a first-order read of the same signal the full model uses.

Run:  python demos/04_ranking_baseline.py
"""

import numpy as np

from latentbias import COMMON_LABEL, trueskill_gibbs

TABLE = (
    ("White", 9374, 4208),
    ("Black", 4168, 1463),
    ("Asian", 2146, 854),
    ("Other/Mixed", 536, 219),
)

# each group wins on its negative stops and loses on its positive ones
labels = [COMMON_LABEL, *(label for label, *_rest in TABLE)]
wins = np.array([total - positive for _label, total, positive in TABLE])
losses = np.array([positive for _label, _total, positive in TABLE])
print(f"{wins.sum() + losses.sum()} matches, {len(labels)} players\n")

means, variances = trueskill_gibbs(wins, losses, iterations=500, seed=0)
print("raw skills (shared comparative level left in):")
print(f"{'rank':>4} {'player':>13} {'mean':>9} {'variance':>9}")
for position, i in enumerate(np.argsort(-means, kind="stable"), start=1):
    print(f"{position:>4} {labels[i]:>13} {means[i]:>9.4f} {variances[i]:>9.4f}")

means, variances = trueskill_gibbs(wins, losses, iterations=500, seed=0, anchor_common=True)
print("\nanchored on the common player (exposes per-player information):")
print(f"{'player':>13} {'mean':>9} {'variance':>9}")
for label, mean, variance in zip(labels, means, variances):
    print(f"{label:>13} {mean:>9.4f} {variance:>9.4f}")
print("\nnote the smallest group (Other/Mixed) carries the widest anchored variance")
