"""Test-only reference routes.

Each function here is a second, independent or scalar, route to a value
the package computes one way only; the tests compare the two.  None of
them is called by the package.

The decision layer:

    left_to_right        a float sum in the order the package adds terms
    grid_oracle          allocate's split by exact search over a grid of
                         each budget, a min-plus dynamic program (_grid_min)
    decision_cost        closed-form cost of one decision, over build_problem
    decision_reward      minus that cost plus the decision's accuracy reward
    reward               decision_reward of one joint action
    encode_decision      the inverse of qlearn.decode_action
    decode_spec          an experiment action's validated Decision and
                         Allocation, from its method's digits
    action_reward        one action's reward under an experiment method
    method_accs          an experiment method's published accuracies, by
                         acc_pair, not through experiment.method_spec
    score_at_allocate    the scalar route: allocate's split, then objective
    brute_force_optimum  score_at_allocate over every action
    epsilon_at           one episode's exploration rate
    select_action        one epsilon-greedy pick
    GeneratorDraws       a numpy Generator behind qlearn.StreamReader's reads
    train_every_episode  train_loop without its skip of idle greedy steps,
                         drawing from the Generator itself; it steps
                         the table with QTable.step, as train_loop does
    value, visits        one Q-table entry, read through its public entries

The distillation math and the accuracy table:

    softened_probs       softmax of logits / T
    kl_divergence        KL(p || q) over the last axis
    fedsgd_gradient      the aggregate gradient one fedsgd_round steps by
    load_table           the reader of dump-oracle's format, for round trips
    check_complete       every accuracy record a run may look up exists
"""

import csv
import math

import numpy as np

from fedkd.accuracy import (
    DEFAULT_TABLE,
    DISTRIBUTIONS,
    METHODS,
    AccuracyTable,
    acc_pair,
    lookup_acc,
)
from fedkd.allocator import AllocResult, allocate, build_problem, cost_from_sums
from fedkd.kd import fedsgd_round
from fedkd.model import Allocation, Decision, InfeasibleError, objective
from fedkd.qlearn import INFEASIBLE_REWARD, QTable, action_count, decode_action


def left_to_right(values):
    """values added one by one from 0.0, not compensated as the builtin
    sum of floats is from Python 3.12 on."""
    total = 0.0
    for v in values:
        total += v
    return total


def _grid_min(costs, exact_total):
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


def grid_oracle(sc, dec, steps):
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


def decision_cost(sc, dec):
    """constant + fb_objective at the optimal split, without computing the
    split: cost_from_sums of build_problem's constant and of the sums of
    sqrt(c_i) and sqrt(d_i), each added left to right."""
    prob = build_problem(sc, dec)
    return cost_from_sums(sc, prob.constant, left_to_right(math.sqrt(c) for c in prob.c),
                          left_to_right(math.sqrt(d) for d in prob.d))


def decision_reward(sc, dec, acc_by_model):
    """Negated total cost of a decision under the optimal resource split.

    acc_by_model[m] = (acc_own, acc_avg) fractions for catalog entry m.
    An infeasible decision earns INFEASIBLE_REWARD; any other error
    propagates.  The accuracy rewards are added left to right."""
    try:
        cost = decision_cost(sc, dec)
    except InfeasibleError:
        return INFEASIBLE_REWARD
    w = sc.weights
    gains = [w.eta_o * own + w.eta_a * avg for own, avg in acc_by_model]
    return -(cost - left_to_right(gains[m] for m in dec.m))


def reward(sc, a, acc_by_model):
    """decision_reward of joint action a (infeasible: INFEASIBLE_REWARD)."""
    return decision_reward(sc, decode_action(a, sc.n_users, len(sc.catalog)), acc_by_model)


def encode_decision(dec, n_models):
    """Pack per-user (x_i, m_i) digits into one base-(2 |M|) integer."""
    radix = 2 * n_models
    a = 0
    for xi, mi in zip(reversed(dec.x), reversed(dec.m)):
        a = a * radix + (xi * n_models + mi)
    return a


def decode_spec(sc, spec, a):
    """(decision, split, within budget) of action a on sc under a method's
    digits (experiment.MethodSpec), decoded one user at a time; a None
    split stands for the optimal one.  q-only's digits give each user
    f_units / spec.levels of the server CPU and b_units / spec.levels of
    the bandwidth.  The budgets are checked on the integer unit counts:
    summing the float shares can overshoot a budget they exactly meet by
    one ulp."""
    radix, picks = len(spec.digits), []
    for _ in range(sc.n_users):
        picks.append(spec.digits[a % radix])
        a //= radix
    x, m, *units = zip(*picks)
    if not units:
        return Decision(x=x, m=m), None, True
    levels, server = spec.levels, sc.server
    al = Allocation(f=tuple(k * server.f_ser / levels for k in units[0]),
                    b=tuple(k * server.b_max / levels for k in units[1]))
    return Decision(x=x, m=m), al, sum(units[0]) <= levels and sum(units[1]) <= levels


def action_reward(sc, spec, a, accs):
    """Reward of action a on a full scenario under a method's digits
    (decode_spec), which the training rewards equal bit for bit.

    Minus the cost at the optimal split (from its closed form) when the
    digits leave it open, else minus the scalar objective at the decoded
    split.  An action over a budget, or one whose decision is infeasible,
    earns INFEASIBLE_REWARD; any other error propagates."""
    dec, al, feasible = decode_spec(sc, spec, a)
    if not feasible:
        return INFEASIBLE_REWARD
    if al is None:
        return decision_reward(sc, dec, accs)
    try:
        return -objective(sc, dec, al, [accs[mi][0] for mi in dec.m],
                          [accs[mi][1] for mi in dec.m])
    except InfeasibleError:
        return INFEASIBLE_REWARD


def method_accs(cfg):
    """Per model of cfg.scenario's catalog, the (acc_own, acc_avg) that
    cfg.method scores with: the FL records for fl-min and fl-max, which
    train without distillation, the KD records for the other methods,
    at cfg.distribution."""
    kind = "FL" if cfg.method in ("fl-min", "fl-max") else "KD"
    return [acc_pair(DEFAULT_TABLE, m.name, kind, cfg.distribution)
            for m in cfg.scenario.catalog]


def score_at_allocate(sc, dec, accs):
    """The scalar route: optimal split from allocate, then objective."""
    al = allocate(sc, dec).allocation
    return objective(sc, dec, al, [accs[m][0] for m in dec.m], [accs[m][1] for m in dec.m])


def brute_force_optimum(sc, accs):
    """Allocate and score every action in turn; strict < keeps the lowest
    action index among ties, as exhaustive_optimum does."""
    best_dec, best_val = None, math.inf
    for a in range(action_count(sc)):
        dec = decode_action(a, sc.n_users, len(sc.catalog))
        val = score_at_allocate(sc, dec, accs)
        if val < best_val:
            best_dec, best_val = dec, val
    return best_dec, best_val


def epsilon_at(cfg, episode):
    """The exploration rate of one episode under QConfig cfg."""
    return max(cfg.epsilon_floor, cfg.epsilon0 * cfg.epsilon_decay ** episode)


def select_action(q, s, epsilon, rng, n_actions):
    """Epsilon-greedy: uniform with probability epsilon, else table argmax."""
    if epsilon > 0 and rng.random() < epsilon:
        return int(rng.integers(n_actions))
    return q.greedy_action(s, n_actions)


class GeneratorDraws:
    """The reads a sampler makes of qlearn.StreamReader, each one call of
    the numpy Generator rng, so numpy itself gives every value."""

    def __init__(self, rng):
        self.rng = rng

    def random(self):
        return self.rng.random()

    def uniforms(self, k):
        return self.rng.random(k).tolist()

    def integers(self, n):
        return int(self.rng.integers(n))


def train_every_episode(sampler, cfg, rng, n_actions, reward_fn):
    """train_loop's table the long way: every episode draws its pair from
    sampler(GeneratorDraws(rng)), picks with select_action at epsilon_at
    and steps the table toward the reward at cfg.lr, so every greedy step
    calls greedy_action, reward_fn and QTable.step, and every draw is one
    call of rng."""
    q = QTable()
    draws = GeneratorDraws(rng)
    for ep in range(cfg.episodes):
        s, draw = sampler(draws)
        a = select_action(q, s, epsilon_at(cfg, ep), rng, n_actions)
        q.step(s, a, reward_fn(draw, a), cfg.lr)
    return q


def _entry(q, s, a):
    for key, b, v, n in q.entries():
        if key == s and b == a:
            return v, n
    return 0.0, 0


def value(q, s, a):
    """Q(s, a) of table q; a missing entry reads 0."""
    return _entry(q, s, a)[0]


def visits(q, s, a):
    """Visits of entry (s, a) of table q; a missing entry reads 0."""
    return _entry(q, s, a)[1]


def softened_probs(logits, temperature):
    """Softmax of logits / T, log-sum-exp stabilized."""
    if not 0 < temperature < math.inf:
        raise ValueError(f"temperature must be finite and > 0, got {temperature}")
    z = np.atleast_2d(np.asarray(logits, dtype=float)) / temperature
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    return probs if np.ndim(logits) == 2 else probs[0]


def kl_divergence(p, q):
    """KL(p || q) in nats over the last axis, with 0 * log 0 = 0."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    terms = np.where(p > 0, p * (np.log(np.where(p > 0, p, 1.0))
                                 - np.log(np.where(p > 0, q, 1.0))), 0.0)
    return terms.sum(axis=-1)


def fedsgd_gradient(p, parts):
    """Per parameter array, p minus one fedsgd_round of it at lr = 1: the
    size-weighted mean of the clients' gradients, up to one rounding of p."""
    stepped = fedsgd_round(p, parts, lr=1.0)
    return [before - after for before, after in zip(p.arrays(), stepped.arrays())]


def load_table(fh):
    """Read the format dump-oracle writes:
    model,method,distribution,testset,topk,percent."""
    reader = csv.reader(fh)
    header = next(reader, None)
    if header != ["model", "method", "distribution", "testset", "topk", "percent"]:
        raise ValueError(f"unexpected accuracy-table header: {header}")
    records = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 6:
            raise ValueError(f"accuracy-table line {lineno}: expected 6 fields, got {len(row)}")
        key = (row[0], row[1], row[2], row[3], int(row[4]))
        if key in records:
            raise ValueError(f"accuracy-table line {lineno}: duplicate key {key}")
        records[key] = float(row[5])
    return AccuracyTable(records=records)


def check_complete(table, models, methods=METHODS):
    """Raise if any configuration the runner may request is missing."""
    for model in models:
        for method in methods:
            for dist in DISTRIBUTIONS:
                lookup_acc(table, model, method, dist, "full", 1)
            lookup_acc(table, model, method, "noniid", "private", 1)
