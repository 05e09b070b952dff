"""Test-only reference routes.

Each function here is a second, independent or scalar, route to a value
the package computes one way only; the tests compare the two.  None of
them is called by the package.

The decision layer:

    left_to_right        a float sum in the order the package adds terms
    decision_cost        closed-form cost of one decision, over build_problem
    decision_reward      minus that cost plus the decision's accuracy reward
    reward               decision_reward of one joint action
    encode_decision      the inverse of qlearn.decode_action
    decode_spec          an experiment action's validated Decision and
                         Allocation, from its method's digits
    action_reward        one action's reward under an experiment method
    score_at_allocate    the scalar route: allocate's split, then objective
    brute_force_optimum  score_at_allocate over every action
    epsilon_at           one episode's exploration rate
    select_action        one epsilon-greedy pick
    GeneratorDraws       a numpy Generator behind qlearn.StreamReader's reads
    train_every_episode  train_loop without its skip of idle greedy steps,
                         drawing from the Generator itself
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

from fedkd.accuracy import DISTRIBUTIONS, METHODS, AccuracyTable, lookup_acc
from fedkd.allocator import allocate, build_problem, cost_from_sums
from fedkd.kd import fedsgd_round
from fedkd.model import Allocation, Decision, InfeasibleError, objective
from fedkd.qlearn import INFEASIBLE_REWARD, QTable, action_count, decode_action, update


def left_to_right(values):
    """values added one by one from 0.0, not compensated as the builtin
    sum of floats is from Python 3.12 on."""
    total = 0.0
    for v in values:
        total += v
    return total


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
    and updates, so every greedy step calls greedy_action, reward_fn and
    update, and every draw is one call of rng."""
    q = QTable()
    draws = GeneratorDraws(rng)
    for ep in range(cfg.episodes):
        s, draw = sampler(draws)
        a = select_action(q, s, epsilon_at(cfg, ep), rng, n_actions)
        update(q, s, a, reward_fn(draw, a), cfg)
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
