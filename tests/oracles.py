"""Test-only reference routes of the decision layer.

Each function here is a second, independent or scalar, route to a value
the package computes one way only; the tests compare the two.  None of
them is called by the package.

    left_to_right        a float sum in the order the package adds terms
    decision_cost        closed-form cost of one decision, over build_problem
    decision_reward      minus that cost plus the decision's accuracy reward
    reward               decision_reward of one joint action
    encode_decision      the inverse of qlearn.decode_action
    action_reward        one action's reward under an experiment method
    score_at_allocate    the scalar route: allocate's split, then objective
    brute_force_optimum  score_at_allocate over every action
    epsilon_at           one episode's exploration rate
    select_action        one epsilon-greedy pick
    train_every_episode  train_loop without its skip of idle greedy steps
    value, visits        one Q-table entry, read through its public entries
"""

import math

from fedkd.allocator import allocate, build_problem, cost_from_sums
from fedkd.model import InfeasibleError, objective
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


def action_reward(sc, spec, a, accs):
    """Reward of action a on a full scenario under a method's decoder
    (experiment.MethodSpec), which the training rewards equal bit for bit.

    Minus the cost at the optimal split (from its closed form) when the
    decoder leaves it open, else minus the scalar objective at the decoded
    split.  An action over a budget, or one whose decision is infeasible,
    earns INFEASIBLE_REWARD; any other error propagates."""
    dec, al, feasible = spec.decode(sc, a)
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


def train_every_episode(sampler, cfg, rng, n_actions, reward_fn):
    """train_loop's table the long way: every episode draws its pair,
    picks with select_action at epsilon_at and updates, so every greedy
    step calls greedy_action, reward_fn and update."""
    q = QTable()
    for ep in range(cfg.episodes):
        s, draw = sampler(rng)
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
