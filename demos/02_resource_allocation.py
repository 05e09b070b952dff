#!/usr/bin/env python3
"""Optimal server CPU and bandwidth splits for a fixed set of choices.

Once every user has picked a student model and a training location, the
remaining problem is convex and separates per resource.  The CPU budget
always binds and splits proportionally to the square root of each user's
compute-delay weight; bandwidth has per-user interior optima that get
squeezed by a common multiplier when the budget is tight.  A dynamic
program over the discretized budget simplex double-checks the closed
forms.
"""

import numpy as np

from fedkd import allocate, build_problem, default_scenario, grid_oracle
from fedkd.allocator import fb_objective, fb_objective_via_delays, kkt_residual
from fedkd.model import Decision

sc = default_scenario()
dec = Decision(x=(0, 1, 0, 1), m=(0, 1, 2, 3))

prob = build_problem(sc, dec)
print("per-user weights (decision-dependent):")
for i, (c, d) in enumerate(zip(prob.c, prob.d)):
    where = "local " if dec.x[i] else "server"
    print(f"  user {i}: {sc.catalog[dec.m[i]].name:<12} {where}  c={c:.4f}  d={d:.4f}")

res = allocate(sc, dec)
print("\nclosed-form optimum:")
print("  f =", [f"{v:.3f}" for v in res.allocation.f], f"(sum {sum(res.allocation.f):.3f} / {sc.server.f_ser})")
print("  b =", [f"{v:.3f}" for v in res.allocation.b], f"(sum {sum(res.allocation.b):.3f} / {sc.server.b_max})")
print(f"  objective (f/b part) = {res.objective_fb:.6f}")
print(f"  KKT residual         = {kkt_residual(prob, res.allocation.f, res.allocation.b):.2e}")

print("\ncross-checks:")
direct = fb_objective_via_delays(sc, dec, res.allocation)
print(f"  re-evaluated through the delay formulas: {direct:.6f}")
for steps in (20, 50, 200):
    grid = grid_oracle(sc, dec, steps=steps)
    print(f"  grid search, {steps:>3} steps per budget: {grid.objective_fb:.6f}"
          f"  (gap {grid.objective_fb - res.objective_fb:+.2e})")

print("\nequal-split comparison:")
n = sc.n_users
equal = fb_objective(prob, [sc.server.f_ser / n] * n, [sc.server.b_max / n] * n)
print(f"  equal split objective = {equal:.6f}  "
      f"(optimum saves {equal - res.objective_fb:.6f})")

print("\nscale invariance: doubling every compute weight leaves the split unchanged")
doubled = np.array(build_problem(sc, dec).c) * 2
from fedkd.allocator import allocate_share

print("  f (original) =", [f"{v:.4f}" for v in allocate_share(list(prob.c), 0.0, sc.server.f_ser)])
print("  f (doubled)  =", [f"{v:.4f}" for v in allocate_share(list(doubled), 0.0, sc.server.f_ser)])
