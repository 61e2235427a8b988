"""Skill-ranking baseline on a reconstruction of the national table.

Every record is one match against a common "Criminality" player: positive
outcome, the common player wins; negative, the group's player wins. Groups
whose members are searched fruitlessly more often accumulate wins and rank
higher - a first-order read of the same signal the full model uses.

Run:  python demos/04_ranking_baseline.py
"""

import numpy as np

from latentbias import Dataset, matches_from_dataset, rank, trueskill_gibbs

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

players, winners, losers = matches_from_dataset(dataset)
print(f"{winners.size} matches, {len(players)} players\n")

skills = trueskill_gibbs(winners, losers, players, iterations=500, seed=0)
print("raw skills (shared comparative level left in):")
print(f"{'rank':>4} {'player':>13} {'mean':>9} {'variance':>9}")
for position, player in enumerate(rank(skills), start=1):
    print(f"{position:>4} {player.label:>13} {skills.mean(player.id):>9.4f} "
          f"{skills.variance(player.id):>9.4f}")

anchored = trueskill_gibbs(winners, losers, players, iterations=500, seed=0, anchor_common=True)
print("\nanchored on the common player (exposes per-player information):")
print(f"{'player':>13} {'mean':>9} {'variance':>9}")
for player in anchored.players:
    print(f"{player.label:>13} {anchored.mean(player.id):>9.4f} "
          f"{anchored.variance(player.id):>9.4f}")
print("\nnote the smallest group (Other/Mixed) carries the widest anchored variance")
