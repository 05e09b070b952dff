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

Each method is an entry of one table (`method_spec`): the per-user
digits an action is made of, and which published accuracies score it.
One pipeline runs them all: train the agent (exhaustive enumerates
instead), decode the chosen action on each draw, let the convex allocator
fill in the split where the action leaves it open, and evaluate.

Training and evaluation draw the users alike: 2 N uniforms, one read of
train_loop's qlearn.StreamReader for a training draw and one
rng.random(2 * N) call for an evaluation draw, which a
qlearn.draw_builder of the template maps straight to the state key and a
qlearn.Draw, every user's CPU frequency and spectral efficiency.
Neither builds a Scenario for a draw (`training_sampler`,
`run_experiment`); `sample_scenario` draws the same users as a Scenario
for the checks.
Both draw over the agent's QConfig.f_loc_range and d_range, the ranges
its state quantizer bins, so no draw leaves the state ranges.
qlearn.digit_reward scores the (x, m) digits of proposed, fl-min and
fl-max.  A trial reads only its Draw: exhaustive enumerates the Draw's
per-user terms, allocator.optimal_split gives the split where an action
leaves it open, and one per-user pass, `_price`, prices a Draw as
objective does: q-only's training reward and every trial's objective
and delays come from it.

Per trial the report records the realized objective, the mean per-epoch
delay across users, accuracy means, model-selection frequencies, and the
raw per-user decision and resources.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .accuracy import DEFAULT_TABLE, acc_pair
from .allocator import optimal_split
from .model import (
    Allocation,
    Decision,
    DelayBreakdown,
    InfeasibleError,
    Scenario,
    delays,
    user_cost,
)
from .qlearn import (
    INFEASIBLE_REWARD,
    Draw,
    QConfig,
    StateKey,
    StreamReader,
    _enumerated,
    digit_reward,
    draw_builder,
    joint_digits,
    train_loop,
)

METHODS = ("proposed", "q-only", "fl-min", "fl-max", "exhaustive")

#: Guard against action encodings too large to sample from; the sparse
#: table itself never enumerates the space.
ACTION_SPACE_CAP = 10 ** 12

#: Experiment-time agent defaults: coarser state bins than the module
#: default so the training budget covers the state space reasonably.
EXPERIMENT_QCONFIG = QConfig(f_bins=2, h_bins=2, episodes=5000)

#: q-only's grid levels per resource: a user's share of the server CPU
#: and of the bandwidth is a whole number of 1/RESOURCE_LEVELS of it.
RESOURCE_LEVELS = 8


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: Scenario
    method: str = "proposed"
    seed: int = 0
    trials: int = 200
    distribution: str = "noniid"
    q: QConfig = EXPERIMENT_QCONFIG

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.trials < 0:
            raise ValueError(f"trials must be >= 0, got {self.trials}")


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
                    f_loc_range=QConfig.f_loc_range, d_range=QConfig.d_range) -> Scenario:
    """Redraw each user's CPU frequency and distance uniformly over the
    ranges, by default QConfig's, from one rng.random(2 * N) call; all
    else fixed.  User i takes uniforms 2i (f_loc) and 2i + 1 (d), each
    lo + (hi - lo) * u: the values of a draw_builder built on the ranges.
    The experiment builds no Scenario per draw; this is the Scenario route
    its trials are checked against."""
    (f_lo, f_hi), (d_lo, d_hi) = f_loc_range, d_range
    u = rng.random(2 * template.n_users).tolist()
    users = tuple(dataclasses.replace(user, f_loc=f_lo + (f_hi - f_lo) * uf,
                                      d=d_lo + (d_hi - d_lo) * ud)
                  for user, uf, ud in zip(template.users, u[0::2], u[1::2]))
    return dataclasses.replace(template, users=users)


def training_sampler(cfg: ExperimentConfig
                     ) -> Callable[[StreamReader], tuple[StateKey, Draw]]:
    """train_loop's sampler for cfg: one draws.uniforms(2 * N) read per
    episode, the same stream and values as sample_scenario's, which
    qlearn.draw_builder maps straight to the state key and Draw.  The
    users are drawn over the ranges the quantizer bins, so no draw
    clamps."""
    build, size = draw_builder(cfg.scenario, cfg.q), 2 * cfg.scenario.n_users

    def sample(draws: StreamReader) -> tuple[StateKey, Draw]:
        return build(draws.uniforms(size))

    return sample


def _price(template: Scenario, draw: Draw, picks, accs) -> tuple[float, list[DelayBreakdown]]:
    """(cost, delays) of draw's users at picks, each user's (x, m, f, b):
    delays at rate b * eff, tx_rate's value, priced by user_cost and added
    left to right from 0.0, as objective adds them; a zero rate raises."""
    catalog, teacher = template.catalog, template.teacher
    total, dls = 0.0, []
    for (x, m, f, b), f_loc, eff in zip(picks, draw.f_loc, draw.eff):
        dl = delays(f_loc, catalog[m], teacher, x, f, b * eff)
        total += user_cost(template, x, f, b, dl, *accs[m])
        dls.append(dl)
    return total, dls


def _trial_results(template: Scenario, accs, evaluated) -> list[TrialResult]:
    """One TrialResult per evaluated trial (dec, al, objective, delays):
    the row means of every trial come from one np.mean(axis=1) call over
    a C-contiguous array, whose rows numpy adds as it adds each row's own
    list (left to right below 8 values, pairwise from 8), so each equals
    np.mean of the row bit for bit; tests/test_evaluator.py checks that
    at every user count up to 40 and beyond."""
    if not evaluated:
        return []
    n, n_models = template.n_users, len(template.catalog)
    stats = np.array([row for dec, _, _, dls in evaluated
                      for row in ([dl.total() for dl in dls], [accs[m][0] for m in dec.m],
                                  [accs[m][1] for m in dec.m])]).mean(axis=1).tolist()
    results = []
    for t, (dec, al, objective, _) in enumerate(evaluated):
        counts = [0] * n_models
        for m in dec.m:
            counts[m] += 1
        results.append(TrialResult(
            trial=t, objective=objective, avg_delay_s=stats[3 * t],
            acc_own=stats[3 * t + 1], acc_avg=stats[3 * t + 2],
            freq=tuple(c / n for c in counts), x=dec.x, m=dec.m, f=al.f, b=al.b))
    return results


# ---------------------------------------------------------------------------
# the method table


@dataclass(frozen=True)
class MethodSpec:
    """What an action means to one method.  Digit i of an action in base
    len(digits), lowest first, gives user i its entry of digits: (x, m),
    whose split is the optimal one, or, for q-only, (x, m, f_units,
    b_units): that many 1/levels of the server CPU and of the bandwidth."""

    digits: tuple[tuple[int, ...], ...]
    n_actions: int          # len(digits) ** users
    accuracy: str           # "KD" or "FL": the published accuracies that score it
    learned: bool = True    # False: enumerate every action instead of training

    @functools.cached_property
    def levels(self) -> int:    # q-only's grid levels: its largest unit count
        return max(d[2] for d in self.digits)

    def decode(self, sc: Scenario, a: int) -> tuple[Decision, Allocation | None, bool]:
        """(decision, split, within budget) of action a on sc; a None split
        stands for the optimal one.  The budgets are checked on the integer
        level counts: summing the float shares can overshoot a budget they
        exactly meet by one ulp."""
        radix, picks = len(self.digits), []
        for _ in range(sc.n_users):
            picks.append(self.digits[a % radix])
            a //= radix
        x, m, *units = zip(*picks)
        if not units:
            return Decision(x=x, m=m), None, True
        levels, server = self.levels, sc.server
        al = Allocation(f=tuple(k * server.f_ser / levels for k in units[0]),
                        b=tuple(k * server.b_max / levels for k in units[1]))
        return Decision(x=x, m=m), al, sum(units[0]) <= levels and sum(units[1]) <= levels


def method_spec(cfg: ExperimentConfig) -> MethodSpec:
    """The table entry of cfg.method.  proposed and exhaustive share the
    joint offload/model digits; q-only adds a resource grid level per user,
    in its encoding order (x fastest, then m, f_units, b_units); fl-min and
    fl-max pin the smallest or largest model, leaving offload bits."""
    template = cfg.scenario
    n, n_models = template.n_users, len(template.catalog)
    if cfg.method in ("proposed", "exhaustive"):
        digits = joint_digits(n_models)
        return MethodSpec(digits, len(digits) ** n, "KD", learned=cfg.method == "proposed")
    if cfg.method == "q-only":
        levels = RESOURCE_LEVELS
        if n > levels:
            raise ValueError(
                f"q-only needs at least one grid level per user: "
                f"{n} users but {levels} levels; use at most {levels} users")
        grid = range(1, levels + 1)
        digits = tuple((x, m, kf, kb) for kb in grid for kf in grid
                       for m in range(n_models) for x in (0, 1))
        n_actions = len(digits) ** n
        if n_actions > ACTION_SPACE_CAP:
            raise ValueError(
                f"q-only action space {n_actions} exceeds {ACTION_SPACE_CAP}; "
                "reduce users or catalog size")
        return MethodSpec(digits, n_actions, "KD")
    mus = [m.mu for m in template.catalog]
    m_fixed = mus.index(min(mus) if cfg.method == "fl-min" else max(mus))
    return MethodSpec(((0, m_fixed), (1, m_fixed)), 2 ** n, "FL")


def _grid_reward(template: Scenario, spec: MethodSpec, accs
                 ) -> Callable[[Draw, int], float]:
    """q-only's reward_fn(draw, a), equal bit for bit to the scalar
    oracle in tests/oracles.py on the draw's Scenario.  Each digit's
    shares are computed once.  An action earns INFEASIBLE_REWARD as soon
    as its level counts exceed a budget; within budget, it is minus
    _price's cost of the users' (x, m, f, b), as in objective.
    Accuracies outside [0, 1] are refused here, at construction."""
    for col, name in enumerate(("acc_own", "acc_avg")):    # objective's check, per model
        if not all(0.0 <= acc[col] <= 1.0 for acc in accs):
            raise ValueError(f"{name} entries must be in [0, 1]")
    levels, radix, server = spec.levels, len(spec.digits), template.server
    rows = [(kf, kb, (x, m, kf * server.f_ser / levels, kb * server.b_max / levels))
            for x, m, kf, kb in spec.digits]

    def reward_fn(draw: Draw, a: int) -> float:
        picks, f_used, b_used = [], 0, 0
        for _ in draw.eff:
            kf, kb, pick = rows[a % radix]
            a //= radix
            f_used += kf
            b_used += kb
            if f_used > levels or b_used > levels:
                return INFEASIBLE_REWARD
            picks.append(pick)
        try:
            return -_price(template, draw, picks, accs)[0]
        except InfeasibleError:
            return INFEASIBLE_REWARD

    return reward_fn


def training_reward(cfg: ExperimentConfig, spec: MethodSpec, accs
                    ) -> Callable[[Draw, int], float]:
    """reward_fn(draw, a) of a training Draw, equal bit for bit to the
    scalar oracle in tests/oracles.py on the draw's Scenario, built
    once per template: qlearn.digit_reward for (x, m) digits, _grid_reward
    for q-only's."""
    if len(spec.digits[0]) == 2:
        return digit_reward(cfg.scenario, accs, spec.digits)
    return _grid_reward(cfg.scenario, spec, accs)


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Train the configured method and evaluate it on seeded draws.

    Training takes its draws from training_sampler and its rewards from
    training_reward.  Each trial reads eval_rng.random(2 * N), the draw
    sample_scenario would make over cfg.q.f_loc_range and cfg.q.d_range,
    and the run's one qlearn.draw_builder maps it to the state key, which
    the policy reads, and the Draw, which the rest of the trial reads:
    exhaustive enumerates _digit_terms built on it, allocator.optimal_split
    gives the split where the action leaves it open, and _price the
    objective and delays.  No Scenario, allocate call or channel gain
    beyond the builder's is made per trial.  The draws depend only on
    (template, seed, trials, those ranges), never on the method, so
    reports from different methods compare like for like.  Identical
    configs produce identical reports.
    """
    template = cfg.scenario
    spec = method_spec(cfg)
    accs = [acc_pair(DEFAULT_TABLE, m.name, spec.accuracy, cfg.distribution)
            for m in template.catalog]

    eval_ss, train_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    if spec.learned:
        q = train_loop(training_sampler(cfg), cfg.q,
                       np.random.Generator(np.random.PCG64(train_ss)),
                       spec.n_actions, training_reward(cfg, spec, accs))

    eval_rng = np.random.Generator(np.random.PCG64(eval_ss))
    build, size = draw_builder(template, cfg.q), 2 * template.n_users
    evaluated = []
    for _ in range(cfg.trials):
        key, draw = build(eval_rng.random(size).tolist())
        a = (q.greedy_action(key, spec.n_actions) if spec.learned
             else int(np.argmax(_enumerated(template, draw, accs))))
        dec, al, feasible = spec.decode(template, a)
        if al is None:
            al = optimal_split(template, dec, draw.f_loc, draw.eff)
        cost, dls = _price(template, draw, zip(dec.x, dec.m, al.f, al.b), accs)
        evaluated.append((dec, al, cost if feasible else -INFEASIBLE_REWARD, dls))
    return Report(method=cfg.method, seed=cfg.seed, n_users=template.n_users,
                  model_names=tuple(m.name for m in template.catalog),
                  trials=_trial_results(template, accs, evaluated))


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
