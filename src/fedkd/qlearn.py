"""Tabular Q-learning over joint actions that give each user one digit,
such as its offload flag x and model m.

Each episode is one-shot: a draw of the users' parameters arrives with
its state key, the agent picks one action for all users, and the reward
is the negated total cost at the optimal resource split, which the
allocator's closed form gives without computing the split, plus the
accuracy reward.  The successor state is terminal, so the update
(QTable.step) moves Q(s, a) toward the reward r alone, with no bootstrap
term and no discount: Q(s, a) <- Q(s, a) + lr * (r - Q(s, a)).

    draw_builder, scenario_draw   uniforms or a Scenario's users to
                                  (state key, Draw), one quantizer
    digit_table                   the rows (Digit) of (x, m) digits
    decode                        the one radix decoder, action to rows
    digit_reward, _enumerated     one action's, or every action's,
                                  reward on a Draw
    QTable, StreamReader          the sparse table; the seeded draws
    train_loop                    the one training loop
    train_fixed_scenario,         train-q's agent and its reference on
    exhaustive_optimum            one scenario

Every route adds the users' terms left to right, so all of them agree bit
for bit, with each other and with the scalar oracles in tests/oracles.py.
A user that cannot transmit makes every action infeasible; it is refused
where its draws are built (draw_builder, scenario_draw, _own_draw), so
every Draw scored here can transmit.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .allocator import cost_from_sums, digit_factors, efficiencies
from .model import (
    Decision,
    Scenario,
    channel_gain,
    check_count,
    is_real,
    spectral_efficiency,
    user_efficiency,
)

logger = logging.getLogger(__name__)

_CLAMPED = "state component %g outside configured range [%g, %g]; clamped"

#: Reward of an action whose induced subproblem is infeasible: q-only's
#: actions that overrun a budget.
INFEASIBLE_REWARD = -1e6

#: action_values, exhaustive_optimum and the exhaustive method refuse
#: action spaces larger than this.
EXHAUSTIVE_CAP = 10 ** 6

#: Learned methods refuse action spaces larger than this: training samples
#: an action with StreamReader.integers(n), which takes n < 2**63.
SAMPLE_CAP = 2 ** 63 - 1

StateKey = tuple[tuple[int, int], ...]


def check_counts(config, least: dict[str, int]) -> None:
    """Refuse each named field of config that is not an integer or is below
    its least value, naming the field (model.check_count); store each
    accepted one as a Python int."""
    for name, lo in least.items():
        object.__setattr__(config, name, check_count(name, getattr(config, name), lo))


@dataclass(frozen=True)
class QConfig:
    """The agent's learning schedule and its state.

    A user's state is its (f_loc bin, gain bin).  f_loc_range and d_range
    are where the experiment draws each user's CPU frequency (GHz) and
    distance (m), and what draw_builder bins: f_loc in f_bins equal parts
    of f_loc_range, the log10 channel gain in h_bins equal parts of the
    gains at the two ends of d_range, so the state ranges follow the
    template's channel.  A zero-width range takes one bin.
    """

    lr: float = 0.2                 # update step size in (0, 1]
    epsilon0: float = 1.0
    epsilon_decay: float = 0.999
    epsilon_floor: float = 0.05
    episodes: int = 5000
    f_bins: int = 4                 # quantization of each user's local CPU
    h_bins: int = 4                 # quantization of each user's log10 gain
    f_loc_range: tuple[float, float] = (0.5, 2.0)
    d_range: tuple[float, float] = (10.0, 100.0)

    def __post_init__(self) -> None:
        if not (is_real(self.lr) and 0.0 < self.lr <= 1.0):
            raise ValueError(f"lr must be a number in (0, 1], got {self.lr!r}")
        for name in ("epsilon0", "epsilon_decay", "epsilon_floor"):
            v = getattr(self, name)
            if not (is_real(v) and 0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be a number in [0, 1], got {v!r}")
        check_counts(self, {"episodes": 0, "f_bins": 1, "h_bins": 1})
        for name, bins in (("f_loc_range", "f_bins"), ("d_range", "h_bins")):
            pair = getattr(self, name)
            ok = isinstance(pair, (tuple, list)) and len(pair) == 2 and all(map(is_real, pair))
            if not (ok and 0 < pair[0] <= pair[1] < math.inf):
                raise ValueError(f"{name} must be numbers (lo, hi) with 0 < lo <= hi < inf, "
                                 f"got {pair!r}")
            lo, hi = pair
            if lo == hi and getattr(self, bins) > 1:
                raise ValueError(f"{name} {(lo, hi)} has zero width, so {bins} must be 1, "
                                 f"got {getattr(self, bins)}")

    def epsilons(self) -> Iterator[float]:
        """max(epsilon_floor, epsilon0 * epsilon_decay ** ep) of every
        episode, ep = 0 .. episodes - 1, without a call per episode: the
        decaying values while they exceed the floor, then the floor.
        decay ** ep does not grow with ep for a decay in [0, 1], so once a
        value is at or below the floor every later one is too.  The
        per-episode formula is a test oracle in tests/oracles.py, which
        this equals bit for bit."""
        floor, eps0, decay = self.epsilon_floor, self.epsilon0, self.epsilon_decay
        above = itertools.takewhile(functools.partial(operator.lt, floor),
                                    (eps0 * decay ** ep for ep in itertools.count()))
        return itertools.islice(itertools.chain(above, itertools.repeat(floor)),
                                self.episodes)


class _Row(dict):
    """One state's stored entries, action -> [value, visits], plus the
    cached argmax: the best stored action and its value (best_a is None
    when a write lowered the best, until the next greedy step rescans),
    and the first unstored action index, which only moves forward."""

    __slots__ = ("best_a", "best_v", "first_free")


class QTable:
    """Hash-table from (state, action) to (value, visits).  A missing
    entry reads 0: a first visit stores lr times its target, and a greedy
    step prefers an unexplored action only to a stored best below 0, so
    on the stock prices' positive rewards an action explored once sits at
    lr times its reward.  greedy_action honors the zero read without
    enumerating the action space, so very large action spaces stay usable."""

    _HEADER = "state\taction\tvalue\tvisits\n"     # save's first line

    def __init__(self) -> None:
        self._rows: dict[StateKey, _Row] = {}

    def __len__(self) -> int:
        return sum(len(row) for row in self._rows.values())

    @property
    def states(self) -> int:
        return len(self._rows)

    def set(self, s: StateKey, a: int, value: float, visits: int) -> None:
        """Store an entry; a non-finite value is refused, since it would
        break the ordering the cached argmax relies on."""
        self._store(self._rows.get(s), s, a, value, visits)

    def step(self, s: StateKey, a: int, target: float, lr: float) -> bool:
        """Move entry (s, a) a step lr toward target and count the visit:
        value <- value + lr * (target - value), visits <- visits + 1, with
        a missing entry read as (0, 0).  Returns whether the stored value
        changed: False only for an entry that was stored before and keeps
        its bits, whose write then only counts the visit.  The row is
        looked up once; a non-finite result is refused as in set."""
        row = self._rows.get(s)
        entry = row.get(a) if row is not None else None
        old, visits = entry if entry is not None else (0.0, 0)
        value = old + lr * (target - old)
        # == alone would take -0.0 for 0.0.
        if entry is not None and value == old and (
                value or math.copysign(1.0, value) == math.copysign(1.0, old)):
            entry[1] = visits + 1
            return False
        self._store(row, s, a, value, visits + 1)
        return True

    def add_visits(self, s: StateKey, a: int, n: int) -> None:
        """Count n more visits of the stored entry (s, a); its value stays."""
        self._rows[s][a][1] += n

    def _store(self, row: _Row | None, s: StateKey, a: int, value: float, visits: int) -> None:
        """Write entry (s, a) into row, state s's row or None when s has
        none yet, and keep the row's cached argmax up to date."""
        if not math.isfinite(value):
            raise ValueError(f"Q-value must be finite, got {value!r} "
                             f"(state {s}, action {a})")
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
        """Flat record file: one tab-separated row per stored entry, by
        state, then by action."""
        lines = [self._HEADER]
        for s in sorted(self._rows):
            flat = ",".join(str(i) for pair in s for i in pair)
            lines.extend(f"{flat}\t{a}\t{v!r}\t{n}\n"
                         for a, (v, n) in sorted(self._rows[s].items()))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines)

    @classmethod
    def load(cls, path) -> "QTable":
        """The table save wrote.  A missing header, a row other than bin
        pairs, an action, a finite value and visits, none negative, or a
        second row of one (state, action) is refused with a ValueError
        naming the file and line."""
        table = cls()
        with open(path, encoding="utf-8") as fh:
            header = fh.readline()
            if header != cls._HEADER:
                raise ValueError(f"{path}, line 1: not save's header: {header!r}")
            for lineno, line in enumerate(fh, start=2):
                try:
                    flat, a, v, n = line.rstrip("\n").split("\t")
                    ints = [int(tok) for tok in flat.split(",")]
                    if len(ints) % 2 or min(*ints, int(a), int(n)) < 0:
                        raise ValueError(f"not bin pairs, action, value, visits >= 0: {line!r}")
                    s, a = tuple(zip(ints[0::2], ints[1::2])), int(a)
                    if a in table._rows.get(s, ()):
                        raise ValueError(f"a second record of state {s}, action {a}")
                    table.set(s, a, float(v), int(n))
                except ValueError as exc:
                    raise ValueError(f"{path}, line {lineno}: {exc}") from None
        return table


class Draw(NamedTuple):
    """One training episode's users: CPU frequency and spectral_efficiency
    per user; everything else the rewards read is the template's."""

    f_loc: tuple[float, ...]
    eff: tuple[float, ...]


def _quantizer(template: Scenario, cfg: QConfig, f_map: tuple[float, float],
               d_map: tuple[float, float]
               ) -> Callable[[Sequence[float]], tuple[StateKey, Draw]]:
    """build(v) -> (state key, Draw) of template's users from 2 N values v:
    user i's CPU frequency is f_at + f_scale * v[2i] and its distance
    d_at + d_scale * v[2i + 1], for (f_at, f_scale) = f_map and
    (d_at, d_scale) = d_map.  The one state quantizer, behind draw_builder
    and scenario_draw.

    Each user's channel gain is computed once and gives both its
    spectral efficiency and its key component, the (f_loc bin, gain bin)
    of f_loc over cfg.f_loc_range and of log10 of the gain over the gain
    range: log10(channel_gain(d, template.channel)) at the far and the
    near end of cfg.d_range, derived once, here.  The bin of value in
    [lo, hi] is floor((value - lo) / (hi - lo) * bins), hi itself in the
    top bin; with one bin it is 0.  A value strictly outside its range
    takes the nearer end's bin, by no division that could overflow, and
    is logged: a user outside the ranges the experiment draws from, such
    as a train-q scenario's.  The ranges, their widths (hi - lo, the same
    double on every call) and the users' powers are read once, here.
    Refused: a gain that rounds to 0 over d_range, and one that rounds to
    one value there (a zero-width gain range) with more than one gain bin.
    """
    ch = template.channel
    powers = [u.p for u in template.users]
    f_lo, f_hi = cfg.f_loc_range
    d_lo, d_hi = cfg.d_range
    gains = [channel_gain(d, ch) for d in (d_hi, d_lo)]     # the far end gives the low end
    if not gains[0] > 0:
        raise ValueError(f"channel gain at d = {d_hi} m, the far end of d_range, rounds to 0")
    h_lo, h_hi = map(math.log10, gains)
    if h_lo == h_hi and cfg.h_bins > 1:
        raise ValueError(f"d_range {cfg.d_range} gives one log10 gain, {h_lo}, on this "
                         f"channel, so h_bins must be 1, got {cfg.h_bins}")
    f_span, h_span = f_hi - f_lo, h_hi - h_lo
    f_bins, h_bins = cfg.f_bins, cfg.h_bins
    f_top, h_top = f_bins - 1, h_bins - 1
    (f_at, f_scale), (d_at, d_scale) = f_map, d_map
    # Draw's generated __new__ only forwards to this; calling it directly
    # saves a Python frame per draw.  The math functions are bound once.
    new, floor, log10 = tuple.__new__, math.floor, math.log10

    def build(v: Sequence[float]) -> tuple[StateKey, Draw]:
        key, f_loc, eff = [], [], []
        values = iter(v)
        for p, vf, vd in zip(powers, values, values):
            f = f_at + f_scale * vf
            h = channel_gain(d_at + d_scale * vd, ch)
            f_bin = h_bin = 0
            if f_top:
                if f_lo <= f <= f_hi:
                    f_bin = floor((f - f_lo) / f_span * f_bins)
                    f_bin = f_top if f_bin > f_top else f_bin
                else:
                    logger.warning(_CLAMPED, f, f_lo, f_hi)
                    f_bin = 0 if f < f_lo else f_top
            if h_top:
                g = log10(h)
                if h_lo <= g <= h_hi:
                    h_bin = floor((g - h_lo) / h_span * h_bins)
                    h_bin = h_top if h_bin > h_top else h_bin
                else:
                    logger.warning(_CLAMPED, g, h_lo, h_hi)
                    h_bin = 0 if g < h_lo else h_top
            key.append((f_bin, h_bin))
            f_loc.append(f)
            eff.append(spectral_efficiency(p, h, ch))
        return tuple(key), new(Draw, (tuple(f_loc), tuple(eff)))

    return build


def draw_builder(template: Scenario, cfg: QConfig
                 ) -> Callable[[Sequence[float]], tuple[StateKey, Draw]]:
    """build(u) -> (state key, Draw) of template's users drawn from 2 N
    uniforms u in [0, 1): user i's CPU frequency is lo + (hi - lo) * u[2i]
    over cfg.f_loc_range and its distance lo + (hi - lo) * u[2i + 1] over
    cfg.d_range, each binned by the one state quantizer (_quantizer).
    Those are the values of per-user rng.uniform(lo, hi) calls in the same
    order, f_loc first, wherever numpy forms uniform without a fused
    multiply-add.  Made once per template and QConfig: the experiment's
    training and evaluation draws both come from it.

    A template user whose spectral efficiency rounds to 0 at the largest
    distance the map gives, d_lo + (d_hi - d_lo), or is infinite at d_lo,
    is refused here, by model.user_efficiency: the gain falls with
    distance and rounding is monotone, so every draw of an accepted
    template has a finite, positive efficiency."""
    (f_lo, f_hi), (d_lo, d_hi) = cfg.f_loc_range, cfg.d_range
    build = _quantizer(template, cfg, (f_lo, f_hi - f_lo), (d_lo, d_hi - d_lo))
    for u in template.users:
        for d in (d_lo + (d_hi - d_lo), d_lo):
            user_efficiency(u, d, template.channel)
    return build


def scenario_draw(sc: Scenario, cfg: QConfig) -> tuple[StateKey, Draw]:
    """The (state key, Draw) of sc's own users, through the quantizer of
    draw_builder: each value v enters as 0.0 + 1.0 * v, which is v itself
    for every positive float.  A user that cannot transmit at its own
    distance is refused first, by allocator.efficiencies; its gain is then
    positive, so it has a log10 gain to bin."""
    efficiencies(sc)
    values = [v for u in sc.users for v in (u.f_loc, u.d)]
    return _quantizer(sc, cfg, (0.0, 1.0), (0.0, 1.0))(values)


def encode_state(sc: Scenario, cfg: QConfig) -> StateKey:
    """Quantized (f_loc bin, gain bin) per user, as draw_builder keys them."""
    return scenario_draw(sc, cfg)[0]


def action_count(sc: Scenario) -> int:
    """Size of the joint offload/model action space, (2 |M|)^N."""
    return (2 * len(sc.catalog)) ** sc.n_users


def action_space(sc: Scenario, digits: Sequence, cap: int) -> int:
    """len(digits) ** N, the action count of a method whose actions give
    each of sc's N users one of digits.  A count above cap (SAMPLE_CAP for
    a learned method, EXHAUSTIVE_CAP for an enumeration) is refused with
    a ValueError naming the users and the catalog size."""
    n = len(digits) ** sc.n_users
    if n > cap:
        raise ValueError(f"action space {n} of {sc.n_users} users and a "
                         f"{len(sc.catalog)}-model catalog exceeds the cap {cap}; "
                         "reduce users or catalog size")
    return n


def decode(table: Sequence, a: int, n_users: int) -> list:
    """The entries of table that action a gives n_users users: its digits
    in base len(table), lowest first, user 0's first."""
    radix, rows = len(table), []
    for _ in range(n_users):
        a, k = divmod(a, radix)
        rows.append(table[k])
    return rows


def decode_action(a: int, n_users: int, n_models: int) -> Decision:
    """The Decision of joint action a, whose digits are joint_digits'."""
    picks = decode(joint_digits(n_models), a, n_users)
    return Decision(x=tuple(x for x, _ in picks), m=tuple(m for _, m in picks))


def joint_digits(n_models: int) -> tuple[tuple[int, int], ...]:
    """(x, m) of each digit k = x * |M| + m of the joint action."""
    return tuple(divmod(k, n_models) for k in range(2 * n_models))


class Digit(NamedTuple):
    """One row of a method's digit table: a user whose digit picks it
    trains model m, on its own CPU when x = 1, for accuracy reward gain,
    at digit_factors' user-independent factors of its cost:
    const_i = fa / f_loc + fb, the CPU weight c_i = c and the bandwidth
    weight d_i = num / eff."""

    x: int
    m: int
    gain: float
    fa: float
    fb: float
    c: float
    num: float


def digit_table(template: Scenario, acc_by_model: Sequence[tuple[float, float]],
                digits: Sequence[tuple[int, int]]) -> tuple[Digit, ...]:
    """The row of each (x, m) digit on template, built once per run;
    alpha_d = 0 raises here (digit_factors).  gain is
    eta_o acc_own + eta_a acc_avg of acc_by_model[m]."""
    w = template.weights
    gains = [w.eta_o * own + w.eta_a * avg for own, avg in acc_by_model]
    return tuple(Digit(x, m, gains[m], *digit_factors(template, x, m)) for x, m in digits)


def digit_reward(template: Scenario, table: Sequence[Digit]) -> Callable[[Draw, int], float]:
    """Minus the cost at the optimal split, plus the accuracy reward, as a
    reward_fn(draw, a) for train_loop: the base len(table) digits of
    action a, lowest first, pick each user's row of table.

    For a Draw of template's users, the reward adds each user's terms of
    its picked row: fa / f_loc + fb, sqrt(c) and sqrt(num / eff).  The
    terms and the picked gains are added user by user, left to right,
    with build_problem's operations, so every reward equals the scalar
    oracle in tests/oracles.py bit for bit.  Every Draw can transmit
    (draw_builder), so every action has a finite reward.
    """
    radix = len(table)
    factors = [(r.fa, r.fb, math.sqrt(r.c), r.num, r.gain) for r in table]

    def reward_fn(draw: Draw, a: int) -> float:
        s_const = s_root_c = s_root_d = s_gain = 0.0
        for f_loc, eff in zip(draw.f_loc, draw.eff):
            fa, fb, root_c, num, g = factors[a % radix]
            a //= radix
            s_const += fa / f_loc + fb
            s_root_c += root_c
            s_root_d += math.sqrt(num / eff)
            s_gain += g
        return -(cost_from_sums(template, s_const, s_root_c, s_root_d) - s_gain)

    return reward_fn


#: Raw outputs a StreamReader pulls from its bit generator at a time.
STREAM_BLOCK = 256

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


class StreamReader:
    """The draws of numpy's Generator(PCG64(seed)), read from the bit
    generator's raw outputs in blocks; seed is an int or a SeedSequence.

    random(), uniforms(k) and integers(n) return what rng.random(),
    rng.random(k).tolist() and int(rng.integers(n)) of that Generator
    would, in the same order.  A uniform is (u >> 11) * 2**-53 of one raw
    output u; the uniforms of a block are converted at once.  An integer
    below n is numpy's Lemire draw: for n <= 2**32 it reads 32-bit halves,
    low half first, and the high half waits in a one-value buffer, as in
    PCG64's own, which uniforms skip; above that it reads whole outputs.
    n == 1 reads nothing.  A seed other than a SeedSequence must be an
    int >= 0 (model.check_count); None, numpy's OS-entropy seed, is refused.
    """

    __slots__ = ("_raw_block", "_raw", "_u", "_i", "_has32", "_half")

    def __init__(self, seed: int | np.random.SeedSequence) -> None:
        if not isinstance(seed, np.random.SeedSequence):
            seed = check_count("seed", seed, 0)
        self._raw_block = np.random.PCG64(seed).random_raw
        self._raw = np.empty(0, np.uint64)
        self._u: list[float] = []
        self._i = STREAM_BLOCK      # the next unread index of the block
        self._has32, self._half = False, 0

    def _refill(self) -> None:
        raw = self._raw = self._raw_block(STREAM_BLOCK)
        # The raw outputs stay an array: a list of a block's Python ints,
        # refilled through a training run, raised the fleet workload's
        # peak RSS by about 0.17 MB; integer draws are the rare reads.
        self._u = ((raw >> 11) * 2.0 ** -53).tolist()
        self._i = 0

    def random(self) -> float:
        i = self._i
        if i == STREAM_BLOCK:
            self._refill()
            i = 0
        self._i = i + 1
        return self._u[i]

    def uniforms(self, k: int) -> list[float]:
        i = self._i
        if i + k <= STREAM_BLOCK:
            self._i = i + k
            return self._u[i:i + k]
        out = self._u[i:]
        while len(out) < k:
            self._refill()
            self._i = min(k - len(out), STREAM_BLOCK)
            out += self._u[:self._i]
        return out

    def _next64(self) -> int:
        i = self._i
        if i == STREAM_BLOCK:
            self._refill()
            i = 0
        self._i = i + 1
        return self._raw.item(i)

    def _next32(self) -> int:
        if self._has32:
            self._has32 = False
            return self._half
        u = self._next64()
        self._has32, self._half = True, u >> 32
        return u & _MASK32

    def integers(self, n: int) -> int:
        """A uniform integer in [0, n) for 1 <= n < 2**63, as numpy's
        bounded draw gives it: the high w bits of n times a w-bit draw,
        redrawn while the low w bits are under (2**w - n) % n, with w = 32
        below n = 2**32, which takes a 32-bit draw itself, and w = 64
        above."""
        n = operator.index(n)
        if not 1 <= n < 1 << 63:
            raise ValueError(f"integers(n) takes 1 <= n < 2**63, got {n}")
        if n == 1:
            return 0
        if n == 1 << 32:
            return self._next32()
        if n < 1 << 32:
            m = self._next32() * n
            if m & _MASK32 < n:
                threshold = ((1 << 32) - n) % n
                while m & _MASK32 < threshold:
                    m = self._next32() * n
            return m >> 32
        m = self._next64() * n
        if m & _MASK64 < n:
            threshold = ((1 << 64) - n) % n
            while m & _MASK64 < threshold:
                m = self._next64() * n
        return m >> 64


def train_loop(sampler: Callable[[StreamReader], tuple[StateKey, object]],
               cfg: QConfig, seed: int | np.random.SeedSequence, n_actions: int,
               reward_fn: Callable[[object, int], float]) -> QTable:
    """Train a table agent over actions 0..n_actions-1 on a distribution
    of draws; every agent in the package trains here.

    The training reads every draw from one StreamReader(seed).  Each
    episode takes a (state key, draw) pair from sampler(draws), which
    reads its uniforms from the reader (draws.random(),
    draws.uniforms(k)), picks an action epsilon-greedily for that key
    (with probability epsilon, from cfg.epsilons(), a uniform
    draws.integers draw, else the table's greedy action) and moves its
    entry toward reward_fn(draw, action) with QTable.step at cfg.lr.  A
    non-finite reward is refused there, before anything is written.
    The sampler owns the key: draw_builder computes it from the same
    channel gains as the draw's efficiencies, and train_fixed_scenario's
    sampler returns one pair every episode.  A draw is whatever reward_fn
    scores, a Draw for digit_reward and the experiment's scorers; the
    reward must depend on the draw and the action alone.

    A greedy step whose update leaves a stored value with its bits
    changes only that entry's visit count.  Until another step runs, a
    greedy step on the same key and draw objects (`is`) would pick the
    same action, earn the same reward and again change nothing, so those
    steps only count their visits: the loop still draws each episode's
    exploration, and the first exploring step, or a step on another pair,
    ends the run.  A sampler that redraws every episode never repeats a
    pair.  The table and its saved bytes are those of a loop that updates
    every episode drawing from Generator(PCG64(seed)), the test oracle in
    tests/oracles.py.  Fully deterministic for a fixed seed.
    """
    q = QTable()
    unarmed = object()
    idle_s = idle_draw = unarmed    # the last greedy step that changed no value
    idle_a = repeats = 0            # its action, and the greedy steps skipped since
    draws = StreamReader(seed)
    random, integers, lr = draws.random, draws.integers, cfg.lr
    for epsilon in cfg.epsilons():
        s, draw = sampler(draws)
        if epsilon > 0 and random() < epsilon:
            a, greedy = integers(n_actions), False
        elif draw is idle_draw and s is idle_s:
            repeats += 1
            continue
        else:
            a, greedy = q.greedy_action(s, n_actions), True
        if repeats:
            q.add_visits(idle_s, idle_a, repeats)
            repeats = 0
        if q.step(s, a, reward_fn(draw, a), lr) or not greedy:
            idle_s = idle_draw = unarmed
        else:
            idle_s, idle_draw, idle_a = s, draw, a
    if repeats:
        q.add_visits(idle_s, idle_a, repeats)
    return q


def train_fixed_scenario(sc: Scenario, acc_by_model: Sequence[tuple[float, float]],
                         cfg: QConfig, seed: int | np.random.SeedSequence
                         ) -> tuple[QTable, StateKey]:
    """train_loop on the one scenario sc, the agent of `fedkd train-q`,
    with its draws from StreamReader(seed); returns the table and sc's
    state key.

    Every episode sees sc's key and scores the action on the Draw of sc's
    users (scenario_draw).  With no more actions than episodes (and at
    most EXHAUSTIVE_CAP), every action is scored once, as action_values
    scores it, and an episode's reward is one list lookup.  Otherwise
    digit_reward scores the Draw each episode.  Both give every action
    the same reward bit for bit.

    Scoring one action in the vector is far cheaper than a digit_reward
    call; capping the vector at one action per episode keeps its one-time
    cost a small fraction of the loop it shortens and its memory (a float
    per action) in proportion to the run.  Once the values settle, most
    greedy episodes are counted without a reward (see train_loop).  A
    configuration error (alpha_d = 0, say), a user that cannot transmit
    (scenario_draw) or more actions than SAMPLE_CAP raises before the
    first episode.
    """
    key, draw = scenario_draw(sc, cfg)
    digits = joint_digits(len(sc.catalog))
    n_actions = action_space(sc, digits, SAMPLE_CAP)
    table = digit_table(sc, acc_by_model, digits)
    if n_actions <= min(cfg.episodes, EXHAUSTIVE_CAP):
        values = _enumerated(sc, draw, table).tolist()

        def reward_fn(_draw: Draw, a: int) -> float:
            return values[a]
    else:
        reward_fn = digit_reward(sc, table)
    return train_loop(lambda _draws: (key, draw), cfg, seed, n_actions, reward_fn), key


def _own_draw(sc: Scenario) -> Draw:
    """The Draw of sc's own users, unquantized; a user that cannot
    transmit is refused (allocator.efficiencies)."""
    return Draw(tuple(u.f_loc for u in sc.users), tuple(efficiencies(sc)))


def _enumerated(sc: Scenario, draw: Draw, table: Sequence[Digit]) -> np.ndarray:
    """Every action's reward on draw, a Draw of sc's users, indexed by
    action, for digit table table: each user's terms of every row, with
    build_problem's operations, then one broadcast add per user.  The one
    enumeration: the exhaustive method's policy is its argmax,
    action_values (whose argmax exhaustive_optimum takes) and
    train_fixed_scenario's reward vector its values.  Refuses more than
    EXHAUSTIVE_CAP actions."""
    action_space(sc, table, EXHAUSTIVE_CAP)
    n = sc.n_users
    consts = [[r.fa / f_loc + r.fb for r in table] for f_loc in draw.f_loc]
    root_d = [[math.sqrt(r.num / eff) for r in table] for eff in draw.eff]
    # (4, N, K): const, sqrt c, sqrt d, gain
    tables = np.array([consts, [[math.sqrt(r.c) for r in table]] * n, root_d,
                       [[r.gain for r in table]] * n])
    # Action a = sum_i k_i * K^i: user i enters as the leading digit, so
    # every sum adds the users' terms left to right, as the scalar routes
    # do.
    sums = tables[:, 0, :]
    for i in range(1, n):
        sums = (tables[:, i, :, None] + sums[:, None, :]).reshape(4, -1)
    return -(cost_from_sums(sc, sums[0], sums[1], sums[2]) - sums[3])


def action_values(sc: Scenario, acc_by_model: Sequence[tuple[float, float]]) -> np.ndarray:
    """digit_reward of every joint action a on sc's own users, as one
    array indexed by a and equal to it, and to the oracle reward in
    tests/oracles.py, bit for bit.  A user that cannot transmit, which the
    oracle scores INFEASIBLE_REWARD on every action, is refused with an
    InfeasibleError naming it (_own_draw).
    """
    table = digit_table(sc, acc_by_model, joint_digits(len(sc.catalog)))
    return _enumerated(sc, _own_draw(sc), table)


def exhaustive_optimum(sc: Scenario, acc_by_model: Sequence[tuple[float, float]]
                       ) -> tuple[Decision, float]:
    """The minimizer of the cost and its value: the lowest-index argmax of
    action_values, the reference the trained agent is compared against.
    A user that cannot transmit is refused as there."""
    values = action_values(sc, acc_by_model)
    best = int(np.argmax(values))
    return decode_action(best, sc.n_users, len(sc.catalog)), -float(values[best])
