"""Tabular Q-learning over the joint discrete action (x, m) for all users.

Each episode is one-shot: a draw of the users' parameters arrives with
its state key, the agent picks a joint offload/model action for every
user, and the reward is the negated total cost with the continuous
resources split optimally, which the allocator's closed form gives
without computing the split.  The successor state is terminal, so the
update moves Q(s, a) toward the reward alone: there is no bootstrap term
and no discount.

A training draw (`Draw`) holds what the rewards read of an episode's
users: each user's CPU frequency and the spectral efficiency of the one
channel gain per user that `make_draw` computes and that also gives the
state key.  `digit_reward` scores a Draw: it builds the
user-independent factors of every (x, m) digit once per template, and
an action's reward adds, for each user's picked digit, the terms those
factors give at the user's f_loc and efficiency; the experiment's q-only
scorer reads the same Draw.  `fixed_scenario_reward` scores train-q's one
scenario from its terms of every digit, tabulated once, and
`exhaustive_optimum` scores every action from the same tables.  An
infeasible action earns INFEASIBLE_REWARD on every route.

The table is a hash map and missing entries read as 0, which doubles as
optimistic initialization when rewards are negative.  The greedy argmax
honors that convention without enumerating the action space, so very
large action encodings (q-only's resource grid) remain usable.  Each row
caches its best stored entry and its first unstored action, both kept up
to date on write, so a greedy step costs O(1) amortized; only a write
that lowers the cached best makes the next greedy step rescan that row's
stored entries once.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .allocator import cost_from_sums, decision_cost, digit_factors
from .model import Decision, InfeasibleError, Scenario, channel_gain, spectral_efficiency

logger = logging.getLogger(__name__)

#: Reward assigned to actions whose induced subproblem is infeasible.
INFEASIBLE_REWARD = -1e6

#: exhaustive_optimum refuses action spaces larger than this.
EXHAUSTIVE_CAP = 10 ** 6

StateKey = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class QConfig:
    lr: float = 0.2                 # update step size in (0, 1]
    epsilon0: float = 1.0
    epsilon_decay: float = 0.999
    epsilon_floor: float = 0.05
    episodes: int = 5000
    f_bins: int = 4                 # quantization of each user's local CPU
    h_bins: int = 4                 # quantization of each user's log10 gain
    f_range: tuple[float, float] = (0.5, 2.0)
    h_log_range: tuple[float, float] = (-9.6, -6.8)  # log10 gain for d in [10, 100] m

    def __post_init__(self) -> None:
        if not 0.0 < self.lr <= 1.0:
            raise ValueError(f"lr must be in (0, 1], got {self.lr}")
        for name in ("epsilon0", "epsilon_decay", "epsilon_floor"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.f_bins < 1 or self.h_bins < 1:
            raise ValueError("state bins must be >= 1")
        if self.episodes < 0:
            raise ValueError(f"episodes must be >= 0, got {self.episodes}")

    def epsilon_at(self, episode: int) -> float:
        return max(self.epsilon_floor, self.epsilon0 * self.epsilon_decay ** episode)


class _Row(dict):
    """One state's stored entries, action -> [value, visits], plus the
    cached argmax: the best stored action and its value (best_a is None
    when a write lowered the best, until the next greedy step rescans),
    and the first unstored action index, which only moves forward."""

    __slots__ = ("best_a", "best_v", "first_free")


class QTable:
    """Hash-table from (state, action) to (value, visits); missing reads 0."""

    def __init__(self) -> None:
        self._rows: dict[StateKey, _Row] = {}

    def __len__(self) -> int:
        return sum(len(row) for row in self._rows.values())

    @property
    def states(self) -> int:
        return len(self._rows)

    def value(self, s: StateKey, a: int) -> float:
        entry = self._rows.get(s, {}).get(a)
        return entry[0] if entry is not None else 0.0

    def visits(self, s: StateKey, a: int) -> int:
        entry = self._rows.get(s, {}).get(a)
        return entry[1] if entry is not None else 0

    def set(self, s: StateKey, a: int, value: float, visits: int) -> None:
        """Store an entry; a non-finite value is refused, since it would
        break the ordering the cached argmax relies on."""
        if not math.isfinite(value):
            raise ValueError(f"Q-value must be finite, got {value!r} "
                             f"(state {s}, action {a})")
        row = self._rows.get(s)
        if row is None:
            row = self._rows[s] = _Row()
            row.best_a, row.best_v, row.first_free = a, value, 0
        row[a] = [value, visits]
        if row.best_a is not None:
            if value > row.best_v or (value == row.best_v and a <= row.best_a):
                row.best_a, row.best_v = a, value
            elif a == row.best_a:
                row.best_a = None
        while row.first_free in row:
            row.first_free += 1

    def entries(self) -> Iterator[tuple[StateKey, int, float, int]]:
        for s, row in self._rows.items():
            for a, (v, n) in row.items():
                yield s, a, v, n

    def greedy_action(self, s: StateKey, action_count: int) -> int:
        """Argmax over the full action set with lowest-index tie-breaking.

        The row's cached best stored entry competes with its cached first
        unstored index, which stands in for every zero-valued unexplored
        action.  O(1) amortized: a row whose best was lowered since the
        last call is rescanned once, in O(stored entries), and cached.
        """
        row = self._rows.get(s)
        if not row:
            return 0
        if row.best_a is None:
            best_a, best_v = None, -math.inf
            for a, (v, _) in row.items():
                if v > best_v or (v == best_v and a < best_a):
                    best_a, best_v = a, v
            row.best_a, row.best_v = best_a, best_v
        if len(row) < action_count and (
                row.best_v < 0.0 or (row.best_v == 0.0 and row.first_free < row.best_a)):
            return row.first_free
        return row.best_a

    def save(self, path) -> None:
        """Flat record file: one tab-separated row per stored entry."""
        lines = ["state\taction\tvalue\tvisits\n"]
        for s, a, v, n in sorted(self.entries()):
            flat = ",".join(str(i) for pair in s for i in pair)
            lines.append(f"{flat}\t{a}\t{v!r}\t{n}\n")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines)

    @classmethod
    def load(cls, path) -> "QTable":
        table = cls()
        with open(path, encoding="utf-8") as fh:
            next(fh)  # header
            for lineno, line in enumerate(fh, start=2):
                try:
                    flat, a, v, n = line.rstrip("\n").split("\t")
                    ints = [int(tok) for tok in flat.split(",")]
                    s = tuple(zip(ints[0::2], ints[1::2]))
                    table.set(s, int(a), float(v), int(n))
                except ValueError as exc:
                    raise ValueError(f"{path}, line {lineno}: {exc}") from None
        return table


def _quantize(value: float, lo: float, hi: float, bins: int) -> int:
    """Uniform bin index over [lo, hi); hi itself maps to the top bin.

    Values strictly outside the range clamp to the boundary bin and are
    logged, since they indicate a sampler/config mismatch.
    """
    if bins == 1:
        return 0
    if value < lo or value > hi:
        logger.warning("state component %g outside configured range [%g, %g]; clamped",
                       value, lo, hi)
    idx = int(math.floor((value - lo) / (hi - lo) * bins))
    return min(max(idx, 0), bins - 1)


def _user_state(f_loc: float, h: float, cfg: QConfig) -> tuple[int, int]:
    return (_quantize(f_loc, cfg.f_range[0], cfg.f_range[1], cfg.f_bins),
            _quantize(math.log10(h), cfg.h_log_range[0], cfg.h_log_range[1], cfg.h_bins))


def encode_state(sc: Scenario, cfg: QConfig) -> StateKey:
    """Quantized (f_loc bin, gain bin) per user; gain binned in log10."""
    return tuple(_user_state(u.f_loc, channel_gain(u.d, sc.channel), cfg) for u in sc.users)


class Draw(NamedTuple):
    """One training episode's users: CPU frequency and spectral_efficiency
    per user; everything else the rewards read is the template's."""

    f_loc: tuple[float, ...]
    eff: tuple[float, ...]


def make_draw(template: Scenario, f_loc: Sequence[float], d: Sequence[float],
              cfg: QConfig) -> tuple[StateKey, Draw]:
    """(state key, Draw) of template's users at CPU frequencies f_loc and
    distances d.  Each user's channel gain is computed once and gives both
    its state-key component, as in encode_state, and its efficiency, as in
    user_terms."""
    ch = template.channel
    key, eff = [], []
    for u, f, dist in zip(template.users, f_loc, d):
        h = channel_gain(dist, ch)
        key.append(_user_state(f, h, cfg))
        eff.append(spectral_efficiency(u.p, h, ch))
    return tuple(key), Draw(tuple(f_loc), tuple(eff))


def action_count(sc: Scenario) -> int:
    """Size of the joint offload/model action space, (2 |M|)^N."""
    return (2 * len(sc.catalog)) ** sc.n_users


def encode_decision(dec: Decision, n_models: int) -> int:
    """Pack per-user (x_i, m_i) digits into one base-(2 |M|) integer."""
    radix = 2 * n_models
    a = 0
    for xi, mi in zip(reversed(dec.x), reversed(dec.m)):
        a = a * radix + (xi * n_models + mi)
    return a


def decode_action(a: int, n_users: int, n_models: int) -> Decision:
    radix = 2 * n_models
    x, m = [], []
    for _ in range(n_users):
        digit = a % radix
        a //= radix
        x.append(digit // n_models)
        m.append(digit % n_models)
    return Decision(x=tuple(x), m=tuple(m))


def select_action(q: QTable, s: StateKey, epsilon: float,
                  rng: np.random.Generator, n_actions: int) -> int:
    """Epsilon-greedy: uniform with probability epsilon, else table argmax."""
    if epsilon > 0 and rng.random() < epsilon:
        return int(rng.integers(n_actions))
    return q.greedy_action(s, n_actions)


def _model_gains(sc: Scenario, acc_by_model: Sequence[tuple[float, float]]) -> list[float]:
    """Accuracy reward eta_o * acc_own + eta_a * acc_avg of each catalog entry."""
    w = sc.weights
    return [w.eta_o * own + w.eta_a * avg for own, avg in acc_by_model]


def decision_reward(sc: Scenario, dec: Decision,
                    acc_by_model: Sequence[tuple[float, float]]) -> float:
    """Negated total cost of a decision under the optimal resource split.

    acc_by_model[m] = (acc_own, acc_avg) fractions for catalog entry m,
    typically from the published-accuracy table.  Infeasible decisions
    earn INFEASIBLE_REWARD so the agent learns to avoid them; any other
    error propagates.
    """
    try:
        cost = decision_cost(sc, dec)
    except InfeasibleError:
        return INFEASIBLE_REWARD
    gains = _model_gains(sc, acc_by_model)
    return -(cost - sum(gains[mi] for mi in dec.m))


def reward(sc: Scenario, a: int, acc_by_model: Sequence[tuple[float, float]]) -> float:
    """decision_reward of joint action a (infeasible: INFEASIBLE_REWARD)."""
    return decision_reward(sc, decode_action(a, sc.n_users, len(sc.catalog)), acc_by_model)


def joint_digits(n_models: int) -> tuple[tuple[int, int], ...]:
    """(x, m) of each digit k = x * |M| + m of the joint action."""
    return tuple(divmod(k, n_models) for k in range(2 * n_models))


def _digit_factors(sc: Scenario, acc_by_model: Sequence[tuple[float, float]],
                   digits: Sequence[tuple[int, int]]
                   ) -> list[tuple[float, float, float, float, float]]:
    """Per digit (x, m): (alpha_d x mu, beta_c server_mu,
    sqrt(alpha_d server_mu), alpha_d (x theta_l + theta_s), accuracy reward)."""
    gains = _model_gains(sc, acc_by_model)
    factors = []
    for x, m in digits:
        a, b, c, num = digit_factors(sc, x, m)
        factors.append((a, b, math.sqrt(c), num, gains[m]))
    return factors


def _digit_terms(sc: Scenario, acc_by_model: Sequence[tuple[float, float]]
                 ) -> list[list[tuple[float, float, float, float]]]:
    """terms[i][k] = (const_i, sqrt(c_i), sqrt(d_i), accuracy reward) of
    user i picking joint digit k, equal to user_terms bit for bit.  Raises
    InfeasibleError for a user with zero spectral efficiency, whatever it
    picks."""
    factors = _digit_factors(sc, acc_by_model, joint_digits(len(sc.catalog)))
    ch = sc.channel
    terms = []
    for u in sc.users:
        eff = spectral_efficiency(u.p, channel_gain(u.d, ch), ch)
        if eff <= 0:
            raise InfeasibleError(f"user {u.id} has zero spectral efficiency")
        terms.append([(a / u.f_loc + b, root_c, math.sqrt(num / eff), g)
                      for a, b, root_c, num, g in factors])
    return terms


def digit_reward(template: Scenario, acc_by_model: Sequence[tuple[float, float]],
                 digits: Sequence[tuple[int, int]]) -> Callable[[Draw, int], float]:
    """decision_reward as a reward_fn(draw, a) for train_loop: the base
    len(digits) digits of action a, lowest first, pick each user's (x, m)
    from digits.

    The user-independent factors of every digit are built once.  For a
    Draw of template's users, the reward adds each user's terms of its
    picked digit: alpha_d x mu / f_loc + beta_c server_mu,
    sqrt(alpha_d server_mu) and sqrt(alpha_d (x theta_l + theta_s) / eff).

    The terms are added user by user, in decision_cost's order and with
    user_terms' operations, and the picked gains go through the builtin
    sum, as in decision_reward, so every reward equals decision_reward bit
    for bit on any interpreter (from Python 3.12 on, sum() of floats is
    compensated).  A user with zero spectral efficiency makes every action
    earn INFEASIBLE_REWARD; any other error (alpha_d = 0 included)
    propagates, here at construction.
    """
    radix = len(digits)
    factors = _digit_factors(template, acc_by_model, digits)

    def reward_fn(draw: Draw, a: int) -> float:
        s_const = s_root_c = s_root_d = 0.0
        gains = []
        for f_loc, eff in zip(draw.f_loc, draw.eff):
            if eff <= 0:
                return INFEASIBLE_REWARD
            fa, fb, root_c, num, g = factors[a % radix]
            a //= radix
            s_const += fa / f_loc + fb
            s_root_c += root_c
            s_root_d += math.sqrt(num / eff)
            gains.append(g)
        return -(cost_from_sums(template, s_const, s_root_c, s_root_d) - sum(gains))

    return reward_fn


def fixed_scenario_reward(sc: Scenario, acc_by_model: Sequence[tuple[float, float]]
                          ) -> Callable[[Scenario, int], float]:
    """reward(sc, a, acc_by_model) as a reward_fn(sc, a) for train_loop on
    the one scenario sc, the only draw it accepts.  Each user's terms of
    every joint digit are tabulated once, as exhaustive_optimum's are, and
    the picked rows are added as digit_reward adds its terms, so it equals
    reward bit for bit.  A user with zero spectral efficiency makes every
    action earn INFEASIBLE_REWARD."""
    radix = 2 * len(sc.catalog)
    try:
        terms = _digit_terms(sc, acc_by_model)
    except InfeasibleError:
        terms = None

    def reward_fn(draw: Scenario, a: int) -> float:
        if draw is not sc:
            raise ValueError("fixed_scenario_reward scores only the scenario it was built for")
        if terms is None:
            return INFEASIBLE_REWARD
        s_const = s_root_c = s_root_d = 0.0
        gains = []
        for row in terms:
            const, root_c, root_d, g = row[a % radix]
            a //= radix
            s_const += const
            s_root_c += root_c
            s_root_d += root_d
            gains.append(g)
        return -(cost_from_sums(sc, s_const, s_root_c, s_root_d) - sum(gains))

    return reward_fn


def update(q: QTable, s: StateKey, a: int, r: float, cfg: QConfig) -> float:
    """One tabular update toward the reward of a one-shot episode.

        Q(s, a) <- Q(s, a) + lr * (r - Q(s, a))
    """
    if not math.isfinite(r):
        raise ValueError(f"reward must be finite, got {r}")
    old = q.value(s, a)
    new = old + cfg.lr * (r - old)
    q.set(s, a, new, q.visits(s, a) + 1)
    return new


def train_loop(sampler: Callable[[np.random.Generator], tuple[StateKey, object]],
               cfg: QConfig, rng: np.random.Generator, n_actions: int,
               reward_fn: Callable[[object, int], float]) -> QTable:
    """Train a table agent over actions 0..n_actions-1 on a distribution
    of draws; every agent in the package trains here.

    Each episode takes a (state key, draw) pair from sampler(rng), picks
    an action epsilon-greedily for that key and moves its entry toward
    reward_fn(draw, action).  The sampler owns the key: make_draw computes
    it from the same channel gains as the draw's efficiencies, and train-q
    encodes its one Scenario once and returns the same pair every episode.
    A draw is whatever reward_fn scores: a Draw for digit_reward, the one
    Scenario for fixed_scenario_reward.  Fully deterministic for a fixed
    rng seed.
    """
    q = QTable()
    for ep in range(cfg.episodes):
        s, draw = sampler(rng)
        a = select_action(q, s, cfg.epsilon_at(ep), rng, n_actions)
        update(q, s, a, reward_fn(draw, a), cfg)
    return q


def exhaustive_optimum(sc: Scenario, acc_by_model: Sequence[tuple[float, float]]
                       ) -> tuple[Decision, float]:
    """Score every decision in closed form and return the minimizer.

    This is the reference the trained agent is compared against; it
    refuses action spaces larger than EXHAUSTIVE_CAP.  User i's digit
    k = x * |M| + m indexes the per-user tables of _digit_terms, so the
    sums over users for every action come from one broadcast add per user,
    and each action's value equals -decision_reward.  Ties go to the
    lowest action index.
    """
    n = action_count(sc)
    if n > EXHAUSTIVE_CAP:
        raise ValueError(
            f"action space {n} exceeds the enumeration cap {EXHAUSTIVE_CAP}; "
            "reduce users or catalog size")
    # (4, N, 2|M|): const, sqrt c, sqrt d, gain
    tables = np.array(_digit_terms(sc, acc_by_model))
    tables = tables.transpose(2, 0, 1)
    # Action a = sum_i k_i * (2|M|)^i: user i enters as the leading digit.
    sums = tables[:, 0, :]
    for i in range(1, sc.n_users):
        sums = (tables[:, i, :, None] + sums[:, None, :]).reshape(4, -1)
    values = cost_from_sums(sc, sums[0], sums[1], sums[2]) - sums[3]
    best = int(np.argmin(values))
    return decode_action(best, sc.n_users, len(sc.catalog)), float(values[best])
