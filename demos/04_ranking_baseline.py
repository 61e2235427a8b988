"""Skill-ranking baseline on a reconstruction of the national table.

Every record is one match against a common "Criminality" player: positive
outcome, the common player wins; negative, the group's player wins. Groups
whose members are searched fruitlessly more often accumulate wins and rank
higher - a first-order read of the same signal the full model uses.

Run:  python demos/04_ranking_baseline.py
"""

import numpy as np

from latentbias import Dataset, matches_from_dataset, trueskill_gibbs

TABLE = (
    ("White", 9374, 4208),
    ("Black", 4168, 1463),
    ("Asian", 2146, 854),
    ("Other/Mixed", 536, 219),
)

rng = np.random.default_rng(1)
outcomes = []
for label, total, positive in TABLE:
    group_outcomes = np.zeros(total, dtype=bool)
    group_outcomes[:positive] = True
    rng.shuffle(group_outcomes)
    outcomes.append(group_outcomes)
dataset = Dataset(
    np.repeat(np.arange(len(TABLE)), [total for _label, total, _pos in TABLE]),
    np.concatenate(outcomes),
    [label for label, *_rest in TABLE],
)

labels, winners, losers = matches_from_dataset(dataset)
print(f"{winners.size} matches, {len(labels)} players\n")

means, variances = trueskill_gibbs(winners, losers, len(labels), iterations=500, seed=0)
print("raw skills (shared comparative level left in):")
print(f"{'rank':>4} {'player':>13} {'mean':>9} {'variance':>9}")
for position, i in enumerate(np.argsort(-means, kind="stable"), start=1):
    print(f"{position:>4} {labels[i]:>13} {means[i]:>9.4f} {variances[i]:>9.4f}")

means, variances = trueskill_gibbs(winners, losers, len(labels), iterations=500, seed=0,
                                   anchor_common=True)
print("\nanchored on the common player (exposes per-player information):")
print(f"{'player':>13} {'mean':>9} {'variance':>9}")
for label, mean, variance in zip(labels, means, variances):
    print(f"{label:>13} {mean:>9.4f} {variance:>9.4f}")
print("\nnote the smallest group (Other/Mixed) carries the widest anchored variance")
