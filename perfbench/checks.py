"""Output checks for the benchmark's operations.

Each factory returns check(out_dir, value), which raises AssertionError
naming the first wrong output.  The checks re-derive what they can from
independent routes: trial rows are re-scored with the scalar
``model.objective`` on the redrawn scenarios, budgets go through
``Allocation.validate``, the enumerated optimum is compared with random
decisions, and kd-demo accuracies are compared with the values the seed
commit produced (``golden_kd.json``) and recomputed from the saved
parameters.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

import numpy as np

from fedkd import kd, qlearn
from fedkd.allocator import allocate
from fedkd.experiment import sample_scenario
from fedkd.model import Allocation, Decision, objective

GOLDEN_KD = Path(__file__).with_name("golden_kd.json")

#: Relative tolerance for re-derived floats.  The program and the check
#: take the same arithmetic route today (exact agreement); the slack lets
#: a later evaluator that sums in another order pass.
RTOL = 1e-9

#: Random decisions the enumerated optimum must not exceed.
OPTIMUM_PROBES = 64


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=1e-12)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def _decision_value(sc, dec, accs) -> float:
    al = allocate(sc, dec).allocation
    return objective(sc, dec, al, [accs[m][0] for m in dec.m], [accs[m][1] for m in dec.m])


# ---------------------------------------------------------------------------
# fleet: experiment reports


def _expected_objective(row: dict, sc, method: str, dec, al_f, al_b, accs) -> float:
    """The objective a trial row must carry: -penalty for a q-only split
    over a budget, otherwise the scalar objective of the row's decision."""
    over = sum(al_f) > sc.server.f_ser or sum(al_b) > sc.server.b_max
    if method == "q-only" and over:
        return -qlearn.INFEASIBLE_REWARD
    al = Allocation(f=al_f, b=al_b)
    try:
        al.validate(sc.server)
    except ValueError as exc:
        raise AssertionError(f"trial {row['trial']}: {exc}") from None
    return objective(sc, dec, al, [accs[m][0] for m in dec.m], [accs[m][1] for m in dec.m])


def experiment_check(template, method: str, seed: int, trials: int, accs_by_method):
    accs = accs_by_method["FL" if method.startswith("fl-") else "KD"]
    n, names = template.n_users, [m.name for m in template.catalog]
    mus = [m.mu for m in template.catalog]
    fixed_m = {"fl-min": mus.index(min(mus)), "fl-max": mus.index(max(mus))}.get(method)
    header = (["trial", "method", "objective", "avg_delay_s", "acc_own", "acc_avg"]
              + [f"freq_{name}" for name in names]
              + [f"{c}{i}" for c in "xmfb" for i in range(n)])
    # The evaluation draws depend only on (template, seed, trials).
    eval_ss, _ = np.random.SeedSequence(seed).spawn(2)
    eval_rng = np.random.Generator(np.random.PCG64(eval_ss))
    draws = [sample_scenario(template, eval_rng) for _ in range(trials)]

    def check(out: Path, rc) -> None:
        _require(rc == 0, f"{method}: exit code {rc}")
        with open(out / "trials.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        _require(rows and rows[0] == header, f"{method}: trials.csv header {rows[:1]}")
        _require(len(rows) == trials + 1, f"{method}: {len(rows) - 1} rows, expected {trials}")
        parsed = []
        for i, cells in enumerate(rows[1:]):
            _require(len(cells) == len(header), f"{method}: row {i} has {len(cells)} cells")
            row = dict(zip(header, cells))
            _require(row["trial"] == str(i) and row["method"] == method,
                     f"{method}: row {i} labelled {row['trial']}/{row['method']}")
            for key in header[2:]:
                row[key] = float(row[key])
            sc = draws[i]
            x = [int(row[f"x{u}"]) for u in range(n)]
            m = [int(row[f"m{u}"]) for u in range(n)]
            dec = Decision(x=x, m=m)
            dec.validate(sc)
            if fixed_m is not None:
                _require(all(v == fixed_m for v in m), f"{method}: row {i} models {m}")
            f = tuple(row[f"f{u}"] for u in range(n))
            b = tuple(row[f"b{u}"] for u in range(n))
            want = _expected_objective(row, sc, method, dec, f, b, accs)
            _require(_close(row["objective"], want),
                     f"{method}: row {i} objective {row['objective']!r}, re-scored {want!r}")
            al = Allocation(f=f, b=b)
            totals = []
            for u, user in enumerate(sc.users):
                rate = b[u] * math.log2(1.0 + user.p * (sc.channel.g0 / user.d ** sc.channel.gamma)
                                        / sc.channel.n0)
                mod = sc.catalog[m[u]]
                t_stu = mod.mu / user.f_loc if x[u] else mod.mu / al.f[u]
                t_label = sc.teacher.theta_l / rate if x[u] else 0.0
                totals.append(sc.teacher.mu_t / al.f[u] + t_stu + t_label + mod.theta_s / rate)
            _require(_close(row["avg_delay_s"], sum(totals) / n),
                     f"{method}: row {i} avg_delay_s {row['avg_delay_s']!r}")
            _require(_close(row["acc_own"], sum(accs[v][0] for v in m) / n)
                     and _close(row["acc_avg"], sum(accs[v][1] for v in m) / n),
                     f"{method}: row {i} accuracy means")
            for k, name in enumerate(names):
                _require(row[f"freq_{name}"] == m.count(k) / n,
                         f"{method}: row {i} freq_{name}")
            parsed.append(row)

        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        _require(summary["method"] == method and summary["seed"] == seed
                 and summary["trials"] == trials, f"{method}: summary header {summary}")
        for key in ("objective", "avg_delay_s", "acc_own", "acc_avg"):
            mean = sum(r[key] for r in parsed) / trials
            _require(_close(summary[f"{key}_mean"], mean),
                     f"{method}: summary {key}_mean {summary[f'{key}_mean']!r}, rows give {mean!r}")
        for name in names:
            mean = sum(r[f"freq_{name}"] for r in parsed) / trials
            _require(_close(summary["model_frequencies"][name], mean),
                     f"{method}: summary frequency of {name}")

    return check


# ---------------------------------------------------------------------------
# cell: train-q and the enumerated optimum


def train_q_check(sc, seed: int, episodes: int):
    state = qlearn.encode_state(sc, qlearn.QConfig())
    n_models = len(sc.catalog)

    def check(out: Path, rc) -> None:
        _require(rc == 0, f"train-q: exit code {rc}")
        summary = json.loads((out / "train_summary.json").read_text(encoding="utf-8"))
        _require(summary["episodes"] == episodes and summary["seed"] == seed,
                 f"train-q: summary header {summary}")
        table = qlearn.QTable.load(out / "qtable.tsv")
        _require(summary["entries"] == len(table) and summary["states"] == table.states,
                 f"train-q: summary counts {summary['entries']}/{summary['states']}, "
                 f"table {len(table)}/{table.states}")
        _require(sum(n for *_, n in table.entries()) == episodes,
                 "train-q: table visits do not add up to the episodes")
        greedy = qlearn.decode_action(
            table.greedy_action(state, qlearn.action_count(sc)), sc.n_users, n_models)
        _require(summary["greedy_x"] == list(greedy.x) and summary["greedy_m"] == list(greedy.m),
                 f"train-q: greedy decision {summary['greedy_x']}/{summary['greedy_m']} "
                 f"but the saved table gives {greedy}")
        _require(summary["greedy_models"] == [sc.catalog[m].name for m in greedy.m],
                 "train-q: greedy model names")

    return check


def exhaustive_check(sc, accs, seed: int, train_q_label: str):
    """Checks the optimum, and the train-q decision of the same repetition
    (in the sibling directory train_q_label) against it; writes the
    optimum and the gap to ``optimum.json``."""
    rng = random.Random(f"optimum-probes:{seed}")
    n_models = len(sc.catalog)
    probes = [Decision(x=[rng.randrange(2) for _ in sc.users],
                       m=[rng.randrange(n_models) for _ in sc.users])
              for _ in range(OPTIMUM_PROBES)]
    probe_values = [_decision_value(sc, d, accs) for d in probes]

    def check(out: Path, result) -> None:
        dec, best = result
        _require(_close(best, _decision_value(sc, dec, accs)),
                 f"exhaustive: reported {best!r} but {dec} scores otherwise")
        worse = [v for v in probe_values if v < best and not _close(v, best)]
        _require(not worse, f"exhaustive: {len(worse)} random decisions beat the optimum {best!r}")
        summary = json.loads((out.parent / train_q_label / "train_summary.json")
                             .read_text(encoding="utf-8"))
        greedy = _decision_value(sc, Decision(x=summary["greedy_x"], m=summary["greedy_m"]), accs)
        _require(greedy >= best or _close(greedy, best),
                 f"exhaustive: train-q's decision {greedy!r} beats the optimum {best!r}")
        out.mkdir(parents=True, exist_ok=True)
        (out / "optimum.json").write_text(json.dumps(
            {"x": list(dec.x), "m": list(dec.m), "objective": best,
             "greedy_objective": greedy, "gap_to_opt": greedy - best},
            indent=2, sort_keys=True) + "\n", encoding="utf-8")

    return check


# ---------------------------------------------------------------------------
# distill: kd-demo


ROLES = ("teacher", "student_hard", "student_kd", "student_simkd")


def kd_demo_check(kd_seed: int, epochs: int):
    golden = json.loads(GOLDEN_KD.read_text(encoding="utf-8"))
    _require(golden["epochs"] == epochs, f"golden accuracies are for {golden['epochs']} epochs")
    want = golden["accuracies"][str(kd_seed)]

    def check(out: Path, rc) -> None:
        _require(rc == 0, f"kd-demo: exit code {rc}")
        metrics = json.loads((out / "kd_metrics.json").read_text(encoding="utf-8"))
        _require(metrics["seed"] == kd_seed and metrics["epochs"] == epochs,
                 f"kd-demo: metrics header {metrics['seed']}/{metrics['epochs']}")
        for role in ROLES:
            for testset in ("full_test", "own_test"):
                acc = metrics[role][testset]
                _require(0.0 <= acc <= 1.0, f"kd-demo: {role}.{testset}={acc} outside [0, 1]")
                _require(acc == want[role][testset],
                         f"kd-demo: {role}.{testset}={acc!r}, seed commit gave "
                         f"{want[role][testset]!r}")
        # The reported accuracies must be those of the saved parameters.
        spec = kd.BlobSpec.from_json((out / "blob_spec.json").read_text(encoding="utf-8"))
        _, test_set = kd.make_train_test(spec, train_per_class=60, test_per_class=60)
        own_test = test_set.restrict_labels(metrics["partition_labels"][0])
        params = {role: kd.NetParams.from_json((out / f"{role}_params.json")
                                               .read_text(encoding="utf-8"))
                  for role in ROLES}
        proj = kd.Projector(json.loads((out / "projector.json").read_text(encoding="utf-8"))["w"])
        for role in ROLES:
            override = (params["teacher"], proj) if role == "student_simkd" else None
            for testset, data in (("full_test", test_set), ("own_test", own_test)):
                acc = kd.measure_accuracy(params[role], data, override)
                _require(acc == metrics[role][testset],
                         f"kd-demo: saved {role} parameters score {acc!r} on {testset}, "
                         f"metrics say {metrics[role][testset]!r}")

    return check
