#!/usr/bin/env python3
"""Tabular agent picking models and training locations for all users.

The action is joint: one integer encodes every user's (offload, model)
pair, so the table captures resource coupling through the shared
budgets.  Rewards are the negated total cost with resources filled in
optimally for the chosen action.  On a small instance the greedy policy
provably lands on the enumerated optimum; this script shows the route.
"""

from fedkd import DEFAULT_TABLE, QConfig, acc_pair, default_scenario
from fedkd.model import Scenario
from fedkd.qlearn import (
    action_count,
    action_values,
    decode_action,
    exhaustive_optimum,
    train_fixed_scenario,
)

base = default_scenario()
sc = Scenario(users=base.users[:2], server=base.server, channel=base.channel,
              catalog=base.catalog[:2], teacher=base.teacher, weights=base.weights)
accs = [acc_pair(DEFAULT_TABLE, m.name, "KD", "noniid") for m in sc.catalog]
n_actions = action_count(sc)
print(f"instance: {sc.n_users} users x {len(sc.catalog)} models -> {n_actions} joint actions")

# Every action scored at once, as `fedkd train-q` scores them before training
# when they number no more than its episodes.
values = action_values(sc, accs).tolist()
print("\nreward of every action (negated total cost, optimal resources):")
scored = []
for a, r in enumerate(values):
    scored.append((r, a, decode_action(a, sc.n_users, len(sc.catalog))))
for r, a, dec in sorted(scored, reverse=True)[:5]:
    models = [sc.catalog[m].name for m in dec.m]
    print(f"  action {a:>2}  x={dec.x}  m={models}  reward {r:+.4f}")

best_dec, best_val = exhaustive_optimum(sc, accs)
print(f"\nenumeration says: x={best_dec.x}, "
      f"models={[sc.catalog[m].name for m in best_dec.m]}, objective {best_val:.4f}")

cfg = QConfig(episodes=5000)
q, state = train_fixed_scenario(sc, accs, cfg, 0)
greedy = q.greedy_action(state, n_actions)
print(f"\nafter {cfg.episodes} one-shot episodes (epsilon {cfg.epsilon0} -> "
      f"{cfg.epsilon_floor}):")
print(f"  greedy action {greedy} decodes to {decode_action(greedy, 2, 2)}")
print(f"  matches enumeration: {decode_action(greedy, 2, 2) == best_dec}")

print("\nlearned values at the visited state (action / value / visits):")
rows = sorted(((a, v, n) for s, a, v, n in q.entries() if s == state),
              key=lambda t: -t[1])
for a, v, n in rows[:8]:
    print(f"  {a:>2}  {v:+8.4f}  {n:>4}")
