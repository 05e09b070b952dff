"""Optimal continuous resource allocation for a fixed discrete decision.

With the offload flags and model choices pinned, the remaining objective
separates into a CPU part and a bandwidth part:

    sum_i c_i / f_i                     subject to  sum f_i <= f_ser
    sum_i (d_i / b_i + delta_b * b_i)   subject to  sum b_i <= b_max

Both are one convex problem, sum_i w_i / s_i + price * s_i subject to
sum_i s_i <= budget, whose closed form is allocate_share; the CPU part
is its zero-price case.  Substituting the optima back gives the optimal
cost of a decision as a function of three per-user sums
(cost_from_sums):

    sum_i const_i + (sum_i sqrt c_i)^2 / f_ser + bw(sum_i sqrt d_i)

The decision layer scores actions from those sums and never computes a
split.  The split of a chosen decision is allocate_share, once per
resource, so it is the split that cost_from_sums priced.  The scalar
route for one decision, cost_from_sums over build_problem's terms, is a
test oracle in tests/oracles.py.

grid_oracle is the independent check: an exact search over the discretized
budget simplex, organized as a dynamic program so it stays tractable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    Allocation,
    Decision,
    Scenario,
    channel_gain,
    delays,
    tx_rate,
    user_efficiency,
)

#: kkt_residual treats the bandwidth multiplier lambda as active (so the
#: budget must bind) when it exceeds this fraction of delta_b + lambda;
#: below it, rounding in the shares cannot tell lambda from zero.
ACTIVE_MULTIPLIER_RTOL = 1e-9


@dataclass(frozen=True)
class AllocProblem:
    """Coefficients of the f/b-dependent objective for one decision.

    c[i] weights the server-CPU delay (teacher forward plus, for server
    training, the student update); d[i] weights the transmit delay
    (parameter sync plus, for local training, the teacher-output download),
    already divided by the per-MHz spectral efficiency log2(1 + SNR_i).
    constant collects the decision-only terms (local student-update delay
    and the purchased-compute cost) so the full fixed-decision objective is
    constant + fb_objective(f, b).
    """

    c: tuple[float, ...]
    d: tuple[float, ...]
    delta_b: float
    f_ser: float
    b_max: float
    constant: float


@dataclass(frozen=True)
class AllocResult:
    allocation: Allocation
    objective_fb: float     # f/b-dependent objective at the returned point
    problem: AllocProblem   # the decision's problem that the split solves


def digit_factors(sc: Scenario, x: int, m: int) -> tuple[float, float, float, float]:
    """The user-independent factors (alpha_d x mu, beta_c server_mu,
    alpha_d server_mu, alpha_d (x theta_l + theta_s)) of picking (x, m).

    build_problem divides the first by the user's f_loc and the last by
    its spectral efficiency; they depend on the template alone, so the
    decision layer builds them once per run (qlearn.digit_table).
    """
    w = sc.weights
    if w.alpha_d <= 0:
        raise ValueError(
            "alpha_d must be > 0 to allocate resources: with no delay "
            "weight every c_i and d_i vanishes and the split is arbitrary")
    model = sc.catalog[m]
    server_mu = sc.teacher.mu_t + (1 - x) * model.mu
    return (w.alpha_d * x * model.mu, w.beta_c * server_mu, w.alpha_d * server_mu,
            w.alpha_d * (x * sc.teacher.theta_l + model.theta_s))


def _left_to_right(values) -> float:
    """values added one by one from 0.0, the order in which the decision
    layer's scorers and the cost oracle in tests/oracles.py add the
    users' terms.  The builtin sum of floats is compensated from
    Python 3.12 on, so it can differ from them in the last bits."""
    total = 0.0
    for v in values:
        total += v
    return total


def efficiencies(sc: Scenario) -> list[float]:
    """user_efficiency of each of sc's users at its own distance: the one
    check that a scenario's own users can transmit, made before any of its
    decisions is scored."""
    return [user_efficiency(u, u.d, sc.channel) for u in sc.users]


def build_problem(sc: Scenario, dec: Decision) -> AllocProblem:
    """Reduce a scenario plus decision to the two separable subproblems.
    User i's pick (x, m) has digit_factors (a, b, c_i, num); at its own
    f_loc and spectral efficiency eff its terms are const_i = a / f_loc + b,
    its share of AllocProblem.constant, c_i and d_i = num / eff.  A user
    that cannot transmit is refused by efficiencies."""
    dec.validate(sc)
    consts, c, d = [], [], []
    for u, x, m, e in zip(sc.users, dec.x, dec.m, efficiencies(sc)):
        a, b, c_i, num = digit_factors(sc, x, m)
        consts.append(a / u.f_loc + b)
        c.append(c_i)
        d.append(num / e)
    return AllocProblem(c=tuple(c), d=tuple(d), delta_b=sc.weights.delta_b,
                        f_ser=sc.server.f_ser, b_max=sc.server.b_max,
                        constant=_left_to_right(consts))


def cost_from_sums(sc: Scenario, s_const, s_root_c, s_root_d):
    """Optimal fixed-decision cost from the sums over users of const_i,
    sqrt(c_i) and sqrt(d_i); elementwise when the sums are numpy arrays.

    Substituting the closed-form splits, the CPU part costs
    S_c^2 / f_ser.  The bandwidth part costs S_d^2 / b_max + delta_b * b_max
    when its budget binds (S_d >= b_max * sqrt(delta_b), always when
    delta_b = 0) and 2 * sqrt(delta_b) * S_d at the interior optimum.
    """
    f_ser, b_max, delta_b = sc.server.f_ser, sc.server.b_max, sc.weights.delta_b
    root_price = math.sqrt(delta_b)
    binds = s_root_d >= b_max * root_price
    # Multiplying by the 0/1 mask picks one branch exactly, for a Python
    # bool and a numpy bool array alike.
    bandwidth = (binds * (s_root_d * s_root_d / b_max + delta_b * b_max)
                 + (1 - binds) * (2.0 * root_price * s_root_d))
    return s_const + s_root_c * s_root_c / f_ser + bandwidth


def allocate_share(weights, price: float, budget: float) -> list[float]:
    """Minimize sum w_i / s_i + price * s_i over sum s_i <= budget.

    Stationarity gives s_i(lambda) = sqrt(w_i / (price + lambda)), so
    every share is proportional to sqrt(w_i).  With S = sum_j sqrt(w_j),
    the unconstrained point s_i = sqrt(w_i / price) fits the budget when
    S < budget * sqrt(price), the branch test of cost_from_sums; otherwise
    the budget binds and s_i = budget * sqrt(w_i) / S.  price = 0, the
    server CPU, always binds, because the unconstrained optimum is
    infinite.
    """
    w = list(weights)
    if not w:
        raise ValueError("allocate_share needs at least one weight")
    for i, wi in enumerate(w):
        if not 0 < wi < math.inf:
            raise ValueError(f"weights[{i}] must be finite and > 0, got {wi!r}")
    if not 0 <= price < math.inf:
        raise ValueError(f"price must be finite and >= 0, got {price!r}")
    if not 0 < budget < math.inf:
        raise ValueError(f"budget must be finite and > 0, got {budget!r}")
    roots = [math.sqrt(wi) for wi in w]
    total = _left_to_right(roots)
    root_price = math.sqrt(price)
    if total >= budget * root_price:
        return [budget * r / total for r in roots]
    return [r / root_price for r in roots]


def fb_objective(prob: AllocProblem, f, b) -> float:
    """The f/b-dependent objective sum c/f + sum (d/b + delta_b * b), each
    sum added left to right."""
    return (_left_to_right(ci / fi for ci, fi in zip(prob.c, f))
            + _left_to_right(di / bi + prob.delta_b * bi for di, bi in zip(prob.d, b)))


def kkt_residual(prob: AllocProblem, f, b) -> float:
    """Max relative violation of stationarity and complementary slackness.

    Stationarity requires c_i / f_i^2 to share one multiplier nu across
    users, and d_i / b_i^2 to share delta_b + lambda.  Complementarity
    requires the CPU budget to bind (nu > 0 always) and the bandwidth
    budget to bind whenever lambda > 0.  `fedkd allocate` reports it;
    allocate itself does not compute it.
    """
    f = np.asarray(f, dtype=float)
    b = np.asarray(b, dtype=float)
    nu_per_user = np.asarray(prob.c) / f ** 2
    nu = float(nu_per_user.mean())
    res = float(np.abs(nu_per_user - nu).max() / nu)
    res = max(res, abs(float(f.sum()) - prob.f_ser) / prob.f_ser)

    mult_per_user = np.asarray(prob.d) / b ** 2
    mult = float(mult_per_user.mean())       # delta_b + lambda
    res = max(res, float(np.abs(mult_per_user - mult).max() / mult))
    lam = mult - prob.delta_b
    if lam > ACTIVE_MULTIPLIER_RTOL * max(1.0, mult):   # budget constraint active
        res = max(res, abs(float(b.sum()) - prob.b_max) / prob.b_max)
    else:                                    # interior: only feasibility
        res = max(res, max(0.0, float(b.sum()) - prob.b_max) / prob.b_max)
    return res


def allocate(sc: Scenario, dec: Decision) -> AllocResult:
    """Closed-form optimal allocation for a fixed decision."""
    prob = build_problem(sc, dec)
    f = allocate_share(prob.c, 0.0, prob.f_ser)
    b = allocate_share(prob.d, prob.delta_b, prob.b_max)
    return AllocResult(
        allocation=Allocation(f=tuple(f), b=tuple(b)),
        objective_fb=fb_objective(prob, f, b),
        problem=prob,
    )


def fb_objective_via_delays(sc: Scenario, dec: Decision, al: Allocation) -> float:
    """Independent route to the f/b-dependent objective through the delay
    formulas, for cross-checking allocate()'s algebra."""
    w = sc.weights
    total = 0.0
    for i, u in enumerate(sc.users):
        xi, mi = dec.x[i], sc.catalog[dec.m[i]]
        rate = tx_rate(al.b[i], u.p, channel_gain(u.d, sc.channel), sc.channel)
        dl = delays(u.f_loc, mi, sc.teacher, xi, al.f[i], rate)
        fb_delay = dl.t_tea + dl.t_model + xi * dl.t_label + (1 - xi) * dl.t_stu
        total += w.alpha_d * fb_delay + w.delta_b * al.b[i]
    return total


def _grid_min(costs: np.ndarray, exact_total: bool) -> tuple[float, list[int]]:
    """Exact minimum of sum_i costs[i][k_i] over unit counts k_i >= 1 with
    sum k_i <= steps (or == steps), via a min-plus dynamic program.

    costs[i][k] is user i's cost at k+1 units.  Returns (value, units).
    """
    n, steps = costs.shape
    inf = float("inf")
    # best[k] = minimal cost of splitting exactly k units among users 0..i
    best = np.full(steps + 1, inf)
    best[1:] = costs[0]
    choice = []
    for i in range(1, n):
        cur = np.full(steps + 1, inf)
        pick = np.zeros(steps + 1, dtype=int)
        for k in range(i + 1, steps + 1):
            # user i takes j units (1..k-i), previous users take k-j
            j = np.arange(1, k - i + 1)
            vals = costs[i][j - 1] + best[k - j]
            a = int(np.argmin(vals))
            cur[k] = vals[a]
            pick[k] = a + 1
        best = cur
        choice.append(pick)

    if exact_total:
        k_star = steps
    else:
        k_star = int(np.argmin(best))
    value = float(best[k_star])

    units = [0] * n
    k = k_star
    for i in range(n - 1, 0, -1):
        units[i] = int(choice[i - 1][k])
        k -= units[i]
    units[0] = k
    return value, units


def grid_oracle(sc: Scenario, dec: Decision, steps: int) -> AllocResult:
    """Exhaustive search over the discretized budget simplex.

    Each resource is split into `steps` equal units; every feasible integer
    split (at least one unit per user) is covered exactly by the dynamic
    program.  Used in tests to bound allocate() from above.
    """
    if steps < 10:
        raise ValueError(f"steps must be >= 10, got {steps}")
    prob = build_problem(sc, dec)
    n = sc.n_users
    if n > steps:
        raise ValueError(f"{n} users cannot share {steps} grid units")

    df = prob.f_ser / steps
    db = prob.b_max / steps
    k = np.arange(1, steps + 1, dtype=float)
    f_costs = np.asarray(prob.c)[:, None] / (k * df)[None, :]
    b_costs = (np.asarray(prob.d)[:, None] / (k * db)[None, :]
               + prob.delta_b * (k * db)[None, :])

    # CPU objective is strictly decreasing in every share: budget binds.
    f_val, f_units = _grid_min(f_costs, exact_total=True)
    b_val, b_units = _grid_min(b_costs, exact_total=False)

    f = [u * df for u in f_units]
    b = [u * db for u in b_units]
    return AllocResult(
        allocation=Allocation(f=tuple(f), b=tuple(b)),
        objective_fb=f_val + b_val,
        problem=prob,
    )
