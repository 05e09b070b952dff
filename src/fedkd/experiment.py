"""Experiment orchestration: the optimizing methods and the baselines.

One experiment trains a single method and evaluates it greedily on a
fixed, seed-determined set of draws, so different methods run on
identical draws when given the same seed and template:

    proposed    joint offload/model agent + convex resource allocation
    q-only      one agent over offload, model, and a quantized resource
                grid per user; no convex step, an action over a budget
                earns the infeasibility penalty
    fl-min      smallest model for everyone (conventional federated
                accuracies), agent picks offloading only, convex resources
    fl-max      as fl-min with the largest model
    exhaustive  full enumeration reference (no learning)

Each method is one entry of `method_spec`, and one pipeline runs them
all (`run_experiment`).  Per trial the report records the realized
objective, the mean per-epoch delay across users, accuracy means,
model-selection frequencies, and the raw per-user decision and resources.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .accuracy import DEFAULT_TABLE, DISTRIBUTIONS, acc_pair, canon_distribution
from .allocator import allocate_share
from .model import (
    DelayBreakdown,
    Scenario,
    delays,
    user_cost,
)
from .qlearn import (
    EXHAUSTIVE_CAP,
    INFEASIBLE_REWARD,
    SAMPLE_CAP,
    Draw,
    QConfig,
    StreamReader,
    _enumerated,
    action_space,
    check_counts,
    decode,
    digit_reward,
    digit_table,
    draw_builder,
    joint_digits,
    train_loop,
)

METHODS = ("proposed", "q-only", "fl-min", "fl-max", "exhaustive")

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
        check_counts(self, {"seed": 0, "trials": 0})
        d = self.distribution
        if not (isinstance(d, str) and canon_distribution(d) in DISTRIBUTIONS):
            raise ValueError(f"distribution must be one of {DISTRIBUTIONS}, got {d!r}")


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


def _split(template: Scenario, rows: list, draw: Draw, levels: int
           ) -> tuple[tuple[float, ...], tuple[float, ...], bool]:
    """(f, b, within budget) of draw's users at their picked rows.

    With levels > 0 grid levels, the rows are q-only's digits
    (x, m, kf, kb), which fix the shares kf * f_ser / levels and
    kb * b_max / levels; the budgets are checked on the integer unit
    counts, because summing the float shares can overshoot a budget they
    exactly meet by one ulp.  Otherwise the rows are qlearn.Digits, which
    leave the split open: allocate's, with no Scenario of those users,
    from allocate_share over the rows' c at price 0 and over num / eff at
    delta_b, build_problem's c_i and d_i, so the same bits and the split
    that cost_from_sums priced.  Every eff is positive: draw_builder
    refuses a template user that cannot transmit."""
    server = template.server
    if levels:
        _, _, kf, kb = zip(*rows)
        return (tuple(k * server.f_ser / levels for k in kf),
                tuple(k * server.b_max / levels for k in kb),
                sum(kf) <= levels and sum(kb) <= levels)
    d = [row.num / eff for row, eff in zip(rows, draw.eff)]
    return (tuple(allocate_share([row.c for row in rows], 0.0, server.f_ser)),
            tuple(allocate_share(d, template.weights.delta_b, server.b_max)), True)


def _trial_results(template: Scenario, accs, evaluated) -> list[TrialResult]:
    """One TrialResult per evaluated trial (x, m, f, b, objective, delays):
    the row means of every trial come from one np.mean(axis=1) call over
    a C-contiguous array, whose rows numpy adds as it adds each row's own
    list (left to right below 8 values, pairwise from 8), so each equals
    np.mean of the row bit for bit; tests/test_evaluator.py checks that
    at every user count up to 40 and beyond."""
    if not evaluated:
        return []
    n, n_models = template.n_users, len(template.catalog)
    stats = np.array([row for _, ms, _, _, _, dls in evaluated
                      for row in ([dl.total() for dl in dls], [accs[m][0] for m in ms],
                                  [accs[m][1] for m in ms])]).mean(axis=1).tolist()
    results = []
    for t, (x, ms, f, b, objective, _) in enumerate(evaluated):
        results.append(TrialResult(
            trial=t, objective=objective, avg_delay_s=stats[3 * t],
            acc_own=stats[3 * t + 1], acc_avg=stats[3 * t + 2],
            freq=tuple(ms.count(k) / n for k in range(n_models)), x=x, m=ms, f=f, b=b))
    return results


# ---------------------------------------------------------------------------
# the method table


@dataclass(frozen=True)
class MethodSpec:
    """What an action means to one method.  Digit i of an action in base
    len(digits), lowest first, gives user i its entry of digits: (x, m),
    whose split is the optimal one, or, for q-only, (x, m, f_units,
    b_units): that many 1/levels of the server CPU and of the bandwidth.
    rows[k] is what digit k picks, the row _split and _price read; the
    run reads rows only, digits is the encoding tests/oracles.py decodes."""

    digits: tuple[tuple[int, ...], ...]
    n_actions: int          # len(digits) ** users
    accs: tuple             # per model (acc_own, acc_avg), the published KD or FL ones
    rows: tuple             # q-only's digits themselves, else their qlearn.digit_table
    reward_fn: Callable[[Draw, int], float] | None   # training reward; None: enumerate
    levels: int = 0         # q-only's grid levels per resource; 0: the split is open


def method_spec(cfg: ExperimentConfig) -> MethodSpec:
    """The table entry of cfg.method, the one place that decides what a
    method is.  proposed and exhaustive share the joint offload/model
    digits and the KD accuracies; exhaustive trains nothing and
    enumerates every action instead.  q-only adds a resource grid level
    per user, in its encoding order (x fastest, then m, f_units,
    b_units), and trains on _grid_reward.  fl-min and fl-max pin the
    smallest or largest model, leaving offload bits, with the FL
    accuracies.  Where the split is open, training scores with
    qlearn.digit_reward on the rows.  Each reward equals the scalar
    oracle in tests/oracles.py on the draw's Scenario bit for bit.  An
    action space too large to sample (learned methods) or to enumerate
    (exhaustive) is refused here, by qlearn.action_space."""
    template = cfg.scenario
    n, n_models = template.n_users, len(template.catalog)
    levels, kind = 0, "KD"
    if cfg.method == "q-only":
        levels = RESOURCE_LEVELS
        if n > levels:
            raise ValueError(
                f"q-only needs at least one grid level per user: "
                f"{n} users but {levels} levels; use at most {levels} users")
        grid = range(1, levels + 1)
        digits = tuple((x, m, kf, kb) for kb in grid for kf in grid
                       for m in range(n_models) for x in (0, 1))
    elif cfg.method in ("fl-min", "fl-max"):
        mus = [m.mu for m in template.catalog]
        m_fixed = mus.index(min(mus) if cfg.method == "fl-min" else max(mus))
        digits, kind = ((0, m_fixed), (1, m_fixed)), "FL"
    else:
        digits = joint_digits(n_models)
    learned = cfg.method != "exhaustive"
    n_actions = action_space(template, digits, SAMPLE_CAP if learned else EXHAUSTIVE_CAP)
    accs = tuple(acc_pair(DEFAULT_TABLE, m.name, kind, cfg.distribution)
                 for m in template.catalog)
    if levels:
        return MethodSpec(digits, n_actions, accs, digits,
                          _grid_reward(template, digits, levels, accs), levels)
    rows = digit_table(template, accs, digits)
    return MethodSpec(digits, n_actions, accs, rows,
                      digit_reward(template, rows) if learned else None)


def _grid_reward(template: Scenario, digits, levels: int, accs
                 ) -> Callable[[Draw, int], float]:
    """q-only's reward_fn(draw, a), equal bit for bit to the scalar
    oracle in tests/oracles.py on the draw's Scenario.  An action earns
    INFEASIBLE_REWARD as soon as its digits' unit counts exceed a budget;
    within budget, it is minus _price's cost of the digits' (x, m) at the
    shares _split gives them, as in objective.  No rate b * eff is 0
    there: a share is at least b_max / levels, which Scenario keeps at
    least RESOURCE_FLOOR / levels, and draw_builder refuses a user whose
    efficiency is 0.  Accuracies outside [0, 1] are refused here, at
    construction."""
    for col, name in enumerate(("acc_own", "acc_avg")):    # objective's check, per model
        if not all(0.0 <= acc[col] <= 1.0 for acc in accs):
            raise ValueError(f"{name} entries must be in [0, 1]")
    f_ser, b_max, radix = template.server.f_ser, template.server.b_max, len(digits)
    units = [(kf, kb, (x, m, kf * f_ser / levels, kb * b_max / levels))
             for x, m, kf, kb in digits]

    def reward_fn(draw: Draw, a: int) -> float:
        picks, f_used, b_used = [], 0, 0
        for _ in draw.eff:
            kf, kb, pick = units[a % radix]
            a //= radix
            f_used += kf
            b_used += kb
            if f_used > levels or b_used > levels:
                return INFEASIBLE_REWARD
            picks.append(pick)
        return -_price(template, draw, picks, accs)[0]

    return reward_fn


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Train the configured method and evaluate it on seeded draws.

    The method's table entry (method_spec) is built once, and so is the
    run's one qlearn.draw_builder, which serves training and evaluation.
    SeedSequence(cfg.seed) spawns eval_ss and train_ss.  Each training
    episode reads uniforms(2 * N) of StreamReader(train_ss) and scores
    with the entry's reward_fn.  Each trial reads uniforms(2 * N) of one
    StreamReader(eval_ss), the draw sample_scenario would make with
    Generator(PCG64(eval_ss)) over cfg.q.f_loc_range and cfg.q.d_range;
    the builder maps it to the state key, which the policy reads, and the
    Draw, which the rest of the trial reads: exhaustive enumerates the
    rows' terms on it, the chosen action decodes into its users' rows,
    _split gives the split they fix or leave open, and _price the
    objective and delays.  No Scenario, Decision, Allocation, allocate
    call or channel gain beyond the builder's is made per trial.  The
    draws depend only on (template, seed, trials, those ranges), never
    on the method, so reports from different methods compare like for
    like.  Identical configs produce identical reports.  A template user
    that cannot transmit is refused when the builder is made, before any
    training.
    """
    template = cfg.scenario
    spec = method_spec(cfg)
    build, size = draw_builder(template, cfg.q), 2 * template.n_users
    eval_ss, train_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    if spec.reward_fn is not None:
        q = train_loop(lambda draws: build(draws.uniforms(size)), cfg.q, train_ss,
                       spec.n_actions, spec.reward_fn)

    evals = StreamReader(eval_ss)
    evaluated = []
    for _ in range(cfg.trials):
        key, draw = build(evals.uniforms(size))
        a = (q.greedy_action(key, spec.n_actions) if spec.reward_fn is not None
             else int(np.argmax(_enumerated(template, draw, spec.rows))))
        rows = decode(spec.rows, a, template.n_users)
        f, b, within = _split(template, rows, draw, spec.levels)
        x, m = tuple(r[0] for r in rows), tuple(r[1] for r in rows)    # every row starts (x, m)
        cost, dls = _price(template, draw, zip(x, m, f, b), spec.accs)
        evaluated.append((x, m, f, b, cost if within else -INFEASIBLE_REWARD, dls))
    return Report(method=cfg.method, seed=cfg.seed, n_users=template.n_users,
                  model_names=tuple(m.name for m in template.catalog),
                  trials=_trial_results(template, spec.accs, evaluated))


# ---------------------------------------------------------------------------
# report emission


def _fmt(v) -> str:
    return repr(float(v))


def report_rows(report: Report) -> list[list[str]]:
    """Header plus one row per trial, all cells pre-formatted."""
    header = ["trial", "method", "objective", "avg_delay_s", "acc_own", "acc_avg"]
    header += [f"freq_{name}" for name in report.model_names]
    header += [f"{col}{i}" for col in "xmfb" for i in range(report.n_users)]
    rows = [header]
    for t in report.trials:
        row = [str(t.trial), report.method, _fmt(t.objective), _fmt(t.avg_delay_s),
               _fmt(t.acc_own), _fmt(t.acc_avg)]
        row += [_fmt(v) for v in t.freq]
        row += [str(v) for v in t.x + t.m]
        row += [_fmt(v) for v in t.f + t.b]
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
