"""Experiment orchestration: the optimizing methods and the baselines.

One experiment trains a single method and evaluates it greedily on a
fixed, seed-determined set of scenario draws, so different methods run
on identical draws when given the same seed and template:

    proposed    joint offload/model agent + convex resource allocation
    q-only      one agent over offload, model, and a quantized resource
                grid per user; no convex step, budget violations penalized
    fl-min      smallest model for everyone (conventional federated
                accuracies), agent picks offloading only, convex resources
    fl-max      as fl-min with the largest model
    exhaustive  full enumeration reference (no learning)

Each method is an entry of one table (`method_spec`): its action count,
what an action means, and which published accuracies score it.  One
pipeline runs them all: train the agent (exhaustive enumerates instead),
decode the chosen action on each draw, let the convex allocator fill in
the split where the action leaves it open, and evaluate.

Training redraws every user's CPU frequency and distance each episode,
as one uniform call, and never builds a Scenario for it: the agent sees
a qlearn.Draw with its state key (`training_sampler`).  proposed, fl-min
and fl-max score it with qlearn.digit_reward over their action digits;
q-only decodes against the template and builds the redrawn Scenario only
for an action within budget, which the scalar objective then scores.
The evaluation draws are full Scenarios from `sample_scenario`.

Per trial the report records the realized objective, the mean per-epoch
delay across users, accuracy means, model-selection frequencies, and the
raw per-user decision and resources.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .accuracy import DEFAULT_TABLE, AccuracyTable, acc_pair
from .allocator import allocate
from .model import (
    Allocation,
    Decision,
    InfeasibleError,
    Scenario,
    channel_gain,
    delays,
    objective,
    tx_rate,
)
from .qlearn import (
    INFEASIBLE_REWARD,
    Draw,
    QConfig,
    StateKey,
    decision_reward,
    digit_reward,
    encode_decision,
    encode_state,
    exhaustive_optimum,
    joint_digits,
    make_draw,
    train_loop,
)

METHODS = ("proposed", "q-only", "fl-min", "fl-max", "exhaustive")

#: Guard against action encodings too large to sample from; the sparse
#: table itself never enumerates the space.
ACTION_SPACE_CAP = 10 ** 12

#: Experiment-time agent defaults: coarser state bins than the module
#: default so the training budget covers the state space reasonably.
EXPERIMENT_QCONFIG = QConfig(f_bins=2, h_bins=2, episodes=5000)


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: Scenario
    method: str = "proposed"
    seed: int = 0
    trials: int = 200
    distribution: str = "noniid"
    q: QConfig = EXPERIMENT_QCONFIG
    resource_levels: int = 8            # q-only grid levels per resource
    f_loc_range: tuple[float, float] = (0.5, 2.0)
    d_range: tuple[float, float] = (10.0, 100.0)
    table: AccuracyTable = DEFAULT_TABLE

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.trials < 0:
            raise ValueError(f"trials must be >= 0, got {self.trials}")
        if self.resource_levels < 1:
            raise ValueError("resource_levels must be >= 1")
        # Training draws skip UserSpec's checks, so the ranges are checked here.
        for name in ("f_loc_range", "d_range"):
            lo, hi = getattr(self, name)
            if not 0 < lo <= hi < math.inf:
                raise ValueError(f"{name} must satisfy 0 < lo <= hi < inf, got {(lo, hi)}")


@dataclass(frozen=True)
class TrialResult:
    trial: int
    objective: float
    avg_delay_s: float
    acc_own: float              # mean over users
    acc_avg: float              # mean over users
    freq: tuple[float, ...]     # per-model selection fraction, sums to 1
    x: tuple[int, ...]
    m: tuple[int, ...]
    f: tuple[float, ...]
    b: tuple[float, ...]


@dataclass
class Report:
    method: str
    seed: int
    n_users: int
    model_names: tuple[str, ...]
    trials: list = field(default_factory=list)

    def model_frequencies(self) -> tuple[float, ...]:
        if not self.trials:
            return tuple(0.0 for _ in self.model_names)
        stacked = np.array([t.freq for t in self.trials])
        return tuple(float(v) for v in stacked.mean(axis=0))

    def mean(self, attr: str) -> float:
        if not self.trials:
            return float("nan")
        return float(np.mean([getattr(t, attr) for t in self.trials]))


def sample_scenario(template: Scenario, rng: np.random.Generator,
                    f_loc_range=(0.5, 2.0), d_range=(10.0, 100.0)) -> Scenario:
    """Redraw each user's CPU frequency and distance; all else fixed."""
    users = tuple(
        dataclasses.replace(u,
                            f_loc=float(rng.uniform(*f_loc_range)),
                            d=float(rng.uniform(*d_range)))
        for u in template.users)
    return dataclasses.replace(template, users=users)


def training_sampler(cfg: ExperimentConfig
                     ) -> Callable[[np.random.Generator], tuple[StateKey, Draw]]:
    """train_loop's sampler for cfg: one rng.uniform call redraws every
    user's (f_loc, d) pair, the same stream and values as sample_scenario's
    per-user calls, and qlearn.make_draw gives the state key and Draw."""
    template, q = cfg.scenario, cfg.q
    lo = np.array([cfg.f_loc_range[0], cfg.d_range[0]])
    hi = np.array([cfg.f_loc_range[1], cfg.d_range[1]])
    size = (template.n_users, 2)

    def sample(rng: np.random.Generator) -> tuple[StateKey, Draw]:
        f_loc, d = rng.uniform(lo, hi, size).T.tolist()
        return make_draw(template, f_loc, d, q)

    return sample


def _redrawn(template: Scenario, draw: Draw) -> Scenario:
    """The template with the draw's per-user CPU frequencies and distances."""
    users = tuple(dataclasses.replace(u, f_loc=f, d=dist)
                  for u, f, dist in zip(template.users, draw.f_loc, draw.d))
    return dataclasses.replace(template, users=users)


def _acc_by_model(cfg: ExperimentConfig, acc_method: str) -> list[tuple[float, float]]:
    return [acc_pair(cfg.table, m.name, acc_method, cfg.distribution)
            for m in cfg.scenario.catalog]


def _evaluate(sc: Scenario, dec: Decision, al: Allocation, accs,
              trial: int, penalized: bool) -> TrialResult:
    n, n_models = sc.n_users, len(sc.catalog)
    acc_own = [accs[mi][0] for mi in dec.m]
    acc_avg = [accs[mi][1] for mi in dec.m]
    obj = -INFEASIBLE_REWARD if penalized else objective(sc, dec, al, acc_own, acc_avg)
    totals = []
    for i, u in enumerate(sc.users):
        rate = tx_rate(al.b[i], u.p, channel_gain(u.d, sc.channel), sc.channel)
        totals.append(delays(u, sc.catalog[dec.m[i]], sc.teacher, dec.x[i],
                             al.f[i], rate).total())
    counts = np.bincount(dec.m, minlength=n_models)
    return TrialResult(
        trial=trial,
        objective=float(obj),
        avg_delay_s=float(np.mean(totals)),
        acc_own=float(np.mean(acc_own)),
        acc_avg=float(np.mean(acc_avg)),
        freq=tuple(float(c) / n for c in counts),
        x=dec.x, m=dec.m, f=al.f, b=al.b,
    )


# ---------------------------------------------------------------------------
# the method table


@dataclass(frozen=True)
class MethodSpec:
    """What an action means to one method: decode(sc, a) gives (decision,
    split, feasible), where a None split stands for the optimal one.
    digits, for the methods that leave the split open, lists the (x, m)
    each base-len(digits) digit of an action gives its user."""

    n_actions: int
    decode: Callable[[Scenario, int], tuple[Decision, Allocation | None, bool]]
    accuracy: str           # "KD" or "FL": the published accuracies that score it
    learned: bool = True    # False: enumerate every action instead of training
    digits: tuple[tuple[int, int], ...] | None = None


def _qonly_radix(n_models: int, levels: int) -> int:
    return 2 * n_models * levels * levels


def qonly_action_count(sc: Scenario, levels: int) -> int:
    return _qonly_radix(len(sc.catalog), levels) ** sc.n_users


def decode_qonly(a: int, sc: Scenario, levels: int) -> tuple[Decision, Allocation, bool]:
    """-> (Decision, Allocation, within_budget) of q-only action a.

    Per user the action holds digits x, m, and one grid level for each
    resource; level k means (k + 1) / levels of the full budget, so the
    split may exceed a budget.  Feasibility is decided on the integer
    level counts: summing the float shares can overshoot a budget they
    exactly meet by one ulp.
    """
    n_models = len(sc.catalog)
    radix = _qonly_radix(n_models, levels)
    x, m, f_units, b_units = [], [], [], []
    for _ in range(sc.n_users):
        digit = a % radix
        a //= radix
        x.append(digit % 2)
        digit //= 2
        m.append(digit % n_models)
        digit //= n_models
        f_units.append(digit % levels + 1)
        b_units.append(digit // levels + 1)
    al = Allocation(f=tuple(k * sc.server.f_ser / levels for k in f_units),
                    b=tuple(k * sc.server.b_max / levels for k in b_units))
    within_budget = sum(f_units) <= levels and sum(b_units) <= levels
    return Decision(x=tuple(x), m=tuple(m)), al, within_budget


def _digit_spec(digits: tuple[tuple[int, int], ...], n_users: int, accuracy: str,
                learned: bool = True) -> MethodSpec:
    """A method whose action is one digit per user, lowest first, and
    whose split is the optimal one."""
    radix = len(digits)

    def decode(sc: Scenario, a: int):
        picks = []
        for _ in range(sc.n_users):
            picks.append(digits[a % radix])
            a //= radix
        x, m = zip(*picks)
        return Decision(x=x, m=m), None, True

    return MethodSpec(radix ** n_users, decode, accuracy, learned, digits)


def method_spec(cfg: ExperimentConfig) -> MethodSpec:
    """The table entry of cfg.method.  proposed and exhaustive share the
    joint offload/model action; q-only adds a resource grid level per user;
    fl-min/fl-max pin the smallest or largest model, leaving offload bits."""
    template = cfg.scenario
    n = template.n_users
    if cfg.method in ("proposed", "exhaustive"):
        return _digit_spec(joint_digits(len(template.catalog)), n, "KD",
                           learned=cfg.method == "proposed")
    if cfg.method == "q-only":
        levels = cfg.resource_levels
        if n > levels:
            raise ValueError(
                f"q-only needs at least one grid level per user: "
                f"{n} users but {levels} levels; raise resource_levels")
        n_actions = qonly_action_count(template, levels)
        if n_actions > ACTION_SPACE_CAP:
            raise ValueError(
                f"q-only action space {n_actions} exceeds {ACTION_SPACE_CAP}; "
                "reduce resource_levels, users, or catalog size")
        return MethodSpec(n_actions, lambda sc, a: decode_qonly(a, sc, levels), "KD")
    mus = [m.mu for m in template.catalog]
    m_fixed = mus.index(min(mus) if cfg.method == "fl-min" else max(mus))
    return _digit_spec(((0, m_fixed), (1, m_fixed)), n, "FL")


def _split_reward(sc: Scenario, dec: Decision, al: Allocation, accs) -> float:
    """Minus the scalar objective at a given split; infeasible: INFEASIBLE_REWARD."""
    try:
        return -objective(sc, dec, al, [accs[mi][0] for mi in dec.m],
                          [accs[mi][1] for mi in dec.m])
    except InfeasibleError:
        return INFEASIBLE_REWARD


def action_reward(sc: Scenario, spec: MethodSpec, a: int, accs) -> float:
    """Reward of action a on a full scenario under a method's decoder: the
    reference that the training rewards (training_reward) equal bit for bit.

    Minus the cost at the decoded split, or at the optimal split (from
    its closed form) when the decoder leaves it open.  An action over a
    budget, or one whose decision is infeasible, earns INFEASIBLE_REWARD;
    any other error propagates.
    """
    dec, al, feasible = spec.decode(sc, a)
    if not feasible:
        return INFEASIBLE_REWARD
    if al is None:
        return decision_reward(sc, dec, accs)
    return _split_reward(sc, dec, al, accs)


def training_reward(cfg: ExperimentConfig, spec: MethodSpec, accs
                    ) -> Callable[[Draw, int], float]:
    """reward_fn(draw, a) of a training Draw, equal to action_reward on
    the draw's Scenario.  Methods with digits score it with
    qlearn.digit_reward.  q-only decodes against the template, whose
    budgets and sizes every draw shares, and builds the redrawn Scenario
    only for an action within budget."""
    if spec.digits is not None:
        return digit_reward(cfg.scenario, accs, spec.digits)
    template = cfg.scenario

    def reward_fn(draw: Draw, a: int) -> float:
        dec, al, feasible = spec.decode(template, a)
        if not feasible:
            return INFEASIBLE_REWARD
        return _split_reward(_redrawn(template, draw), dec, al, accs)

    return reward_fn


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Train the configured method and evaluate it on seeded draws.

    Training takes its draws from training_sampler and its rewards from
    training_reward: no Scenario per episode, except q-only's actions
    within budget.  The evaluation draws are Scenarios from
    sample_scenario and depend only on (scenario template, seed, trials),
    never on the method, so reports from different methods compare like
    for like.  Identical configs produce identical reports.
    """
    template = cfg.scenario
    spec = method_spec(cfg)
    accs = _acc_by_model(cfg, spec.accuracy)

    eval_ss, train_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    eval_rng = np.random.Generator(np.random.PCG64(eval_ss))
    draws = [sample_scenario(template, eval_rng, cfg.f_loc_range, cfg.d_range)
             for _ in range(cfg.trials)]

    if spec.learned:
        q = train_loop(training_sampler(cfg), cfg.q,
                       np.random.Generator(np.random.PCG64(train_ss)),
                       spec.n_actions, training_reward(cfg, spec, accs))

        def policy(draw: Scenario) -> int:
            return q.greedy_action(encode_state(draw, cfg.q), spec.n_actions)
    else:
        def policy(draw: Scenario) -> int:
            return encode_decision(exhaustive_optimum(draw, accs)[0], len(draw.catalog))

    report = Report(method=cfg.method, seed=cfg.seed, n_users=template.n_users,
                    model_names=tuple(m.name for m in template.catalog))
    for t, draw in enumerate(draws):
        dec, al, feasible = spec.decode(draw, policy(draw))
        if al is None:
            al = allocate(draw, dec).allocation
        report.trials.append(_evaluate(draw, dec, al, accs, t, not feasible))
    return report


# ---------------------------------------------------------------------------
# report emission


def _fmt(v) -> str:
    return repr(float(v))


def report_rows(report: Report) -> list[list[str]]:
    """Header plus one row per trial, all cells pre-formatted."""
    header = ["trial", "method", "objective", "avg_delay_s", "acc_own", "acc_avg"]
    header += [f"freq_{name}" for name in report.model_names]
    header += [f"x{i}" for i in range(report.n_users)]
    header += [f"m{i}" for i in range(report.n_users)]
    header += [f"f{i}" for i in range(report.n_users)]
    header += [f"b{i}" for i in range(report.n_users)]
    rows = [header]
    for t in report.trials:
        row = [str(t.trial), report.method, _fmt(t.objective), _fmt(t.avg_delay_s),
               _fmt(t.acc_own), _fmt(t.acc_avg)]
        row += [_fmt(v) for v in t.freq]
        row += [str(v) for v in t.x]
        row += [str(v) for v in t.m]
        row += [_fmt(v) for v in t.f]
        row += [_fmt(v) for v in t.b]
        rows.append(row)
    return rows


def summary_dict(report: Report) -> dict:
    def mean_or_none(attr: str):
        return report.mean(attr) if report.trials else None

    return {
        "method": report.method,
        "seed": report.seed,
        "trials": len(report.trials),
        "objective_mean": mean_or_none("objective"),
        "avg_delay_s_mean": mean_or_none("avg_delay_s"),
        "acc_own_mean": mean_or_none("acc_own"),
        "acc_avg_mean": mean_or_none("acc_avg"),
        "model_frequencies": {name: freq for name, freq in
                              zip(report.model_names, report.model_frequencies())},
    }


def emit_report(report: Report, out_dir) -> tuple[Path, Path]:
    """Write trials.csv and summary.json under out_dir; deterministic bytes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trials_path = out / "trials.csv"
    with open(trials_path, "w", encoding="utf-8", newline="") as fh:
        for row in report_rows(report):
            fh.write(",".join(row) + "\n")
    summary_path = out / "summary.json"
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        json.dump(summary_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return trials_path, summary_path
