"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v tests/test_acceptance.py` (or `-s` to see the lines
interleaved).  Tolerances are fixed here and never loosened at runtime.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from fedkd.accuracy import DEFAULT_TABLE, acc_pair, lookup_acc
from fedkd.allocator import allocate, allocate_share, build_problem, kkt_residual
from fedkd.experiment import EXPERIMENT_QCONFIG, ExperimentConfig, run_experiment
from fedkd.kd import (
    BlobSpec,
    LossSpec,
    NetArch,
    Projector,
    ToyDataset,
    hard_grads,
    init_net,
    kd_loss,
    make_train_test,
    measure_accuracy,
    net_eval,
    simkd_grads,
    simkd_loss,
    split_by_label,
    train_teacher,
    distill_student,
)
from fedkd.model import Decision, default_scenario
from fedkd.qlearn import (
    QConfig,
    action_count,
    decode_action,
    exhaustive_optimum,
    train_fixed_scenario,
)

from conftest import finite_difference, make_scenario, rel_err
from oracles import fedsgd_gradient, grid_oracle, kl_divergence, softened_probs
from test_accuracy import FULL_SET, PRIVATE_SET


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _random_instance(seed: int):
    rng = np.random.Generator(np.random.PCG64(seed))
    sc = make_scenario(seed=seed)
    dec = Decision(x=tuple(int(v) for v in rng.integers(2, size=4)),
                   m=tuple(int(v) for v in rng.integers(4, size=4)))
    return sc, dec


def test_criterion_1_allocator_beats_grid_oracle_within_budget():
    start = time.perf_counter()
    worst_gap, worst_kkt = -math.inf, 0.0
    for seed in range(100):
        sc, dec = _random_instance(seed)
        res = allocate(sc, dec)
        grid = grid_oracle(sc, dec, steps=200)
        gap = (res.objective_fb - grid.objective_fb) / abs(grid.objective_fb)
        worst_gap = max(worst_gap, gap)
        worst_kkt = max(worst_kkt, kkt_residual(build_problem(sc, dec), res.allocation.f,
                                                res.allocation.b))
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-3 and worst_kkt < 1e-8 and elapsed < 5.0
    _report("criterion 1 (allocator vs grid oracle)", ok,
            f"worst relative gap {worst_gap:.2e} (<=1e-3), "
            f"worst KKT residual {worst_kkt:.2e} (<1e-8), {elapsed:.2f}s (<5s)")


def test_criterion_2_closed_form_compute_split():
    f = allocate_share([1.0, 4.0], 0.0, 3.0)
    asym_ok = abs(f[0] - 1.0) <= 1e-9 and abs(f[1] - 2.0) <= 1e-9
    sym = allocate_share([2.2, 2.2, 2.2, 2.2], 0.0, 10.0)
    sym_ok = sym == [2.5, 2.5, 2.5, 2.5]
    _report("criterion 2 (closed-form splits)", asym_ok and sym_ok,
            f"c=(1,4),F=3 -> {tuple(round(v, 12) for v in f)}; symmetric split exact={sym_ok}")


def test_criterion_3_agent_reaches_enumerated_optimum():
    start = time.perf_counter()
    cfg = QConfig(episodes=5000, epsilon_floor=0.05)
    matches = 0
    for seed in range(20):
        sc = make_scenario(n_users=2, n_models=2, seed=1000 + seed)
        accs = [acc_pair(DEFAULT_TABLE, m.name, "KD", "noniid") for m in sc.catalog]
        best_dec, _ = exhaustive_optimum(sc, accs)
        q, key = train_fixed_scenario(sc, accs, cfg, seed)
        a = q.greedy_action(key, action_count(sc))
        matches += decode_action(a, 2, 2) == best_dec
    elapsed = time.perf_counter() - start
    ok = matches >= 19 and elapsed < 30.0
    _report("criterion 3 (small-instance optimality)", ok,
            f"greedy matched enumeration in {matches}/20 seeds (>=19), "
            f"{elapsed:.2f}s (<30s)")


def test_criterion_4_method_ordering_and_baseline_frequencies():
    reports = {}
    for method in ("proposed", "q-only", "fl-min", "fl-max"):
        cfg = ExperimentConfig(scenario=default_scenario(), method=method,
                               seed=2024, trials=200, q=EXPERIMENT_QCONFIG)
        reports[method] = run_experiment(cfg)
    means = {m: r.mean("objective") for m, r in reports.items()}
    ordered = (means["proposed"] <= means["q-only"] <= means["fl-min"]
               <= means["fl-max"])
    freq_min = reports["fl-min"].model_frequencies()
    freq_max = reports["fl-max"].model_frequencies()
    names = reports["fl-min"].model_names
    pins = (freq_min[names.index("VGG-8")] == 1.0
            and freq_max[names.index("ResNet-26x4")] == 1.0)
    _report("criterion 4 (method ordering over 200 trials)", ordered and pins,
            "mean objectives " + ", ".join(f"{m}={v:.4f}" for m, v in means.items())
            + f"; fl-min VGG-8 freq={freq_min[names.index('VGG-8')]:.2f}, "
              f"fl-max ResNet-26x4 freq={freq_max[names.index('ResNet-26x4')]:.2f}")


def test_criterion_5_published_accuracy_fidelity():
    mismatches = []
    for model, by_cfg in FULL_SET.items():
        for (method, dist), (t1, t5) in by_cfg.items():
            if method == "STU":
                continue  # the optimizer consumes KD and FL columns
            for topk, pct in ((1, t1), (5, t5)):
                got = lookup_acc(DEFAULT_TABLE, model, method, dist, "full", topk)
                if got != pct / 100.0:
                    mismatches.append((model, method, dist, topk))
    for model, by_method in PRIVATE_SET.items():
        for method, (t1, t5) in by_method.items():
            for topk, pct in ((1, t1), (5, t5)):
                got = lookup_acc(DEFAULT_TABLE, model, method, "noniid", "private", topk)
                if got != pct / 100.0:
                    mismatches.append((model, method, "private", topk))
    spot = lookup_acc(DEFAULT_TABLE, "VGG-8", "KD", "iid", "full", 1) == 62.71 / 100.0
    _report("criterion 5 (published accuracy fidelity)", not mismatches and spot,
            f"all full-set KD/FL entries and all private-set entries exact; "
            f"mismatches={mismatches}")


def test_criterion_6_distillation_gradients_and_identities():
    rng = np.random.Generator(np.random.PCG64(606))
    worst = 0.0
    for _ in range(10):
        zs = rng.normal(size=(6, 5)) * 2
        zt = rng.normal(size=(6, 5)) * 2
        y = rng.integers(5, size=6)
        t = float(rng.uniform(1.0, 6.0))
        _, grad = kd_loss(zs, zt, y, t)
        worst = max(worst, rel_err(grad, finite_difference(
            lambda: kd_loss(zs, zt, y, t)[0], zs)))
    for _ in range(10):
        ft = rng.normal(size=(5, 7))
        fs = rng.normal(size=(5, 4))
        proj = Projector(rng.normal(size=(4, 7)))
        _, g_fs, g_p = simkd_loss(ft, fs, proj)
        worst = max(worst, rel_err(g_fs, finite_difference(
            lambda: simkd_loss(ft, fs, proj)[0], fs)))
        worst = max(worst, rel_err(g_p, finite_difference(
            lambda: simkd_loss(ft, fs, proj)[0], proj.w)))
    for _ in range(10):
        ds = ToyDataset(rng.normal(size=(8, 3)), rng.integers(4, size=8), 4)
        p = init_net(NetArch((6, 5), 4), 3, 4, rng)
        _, g = hard_grads(p, ds)
        for arr, garr in zip(p.arrays(), g.arrays()):
            worst = max(worst, rel_err(garr, finite_difference(
                lambda: hard_grads(p, ds)[0], arr)))
        teacher = init_net(NetArch((6,), 5), 3, 4, rng)
        t_features, _ = net_eval(teacher, ds.inputs)
        proj = Projector(rng.normal(size=(4, 5)))
        _, g2, gp2 = simkd_grads(p, proj, t_features, ds)
        for arr, garr in zip(p.arrays(), g2.arrays()):
            worst = max(worst, rel_err(garr, finite_difference(
                lambda: simkd_grads(p, proj, t_features, ds)[0], arr)))
        worst = max(worst, rel_err(gp2, finite_difference(
            lambda: simkd_grads(p, proj, t_features, ds)[0], proj.w)))

    kl_ok = True
    for _ in range(50):
        pvec = rng.dirichlet(np.ones(6))
        qvec = rng.dirichlet(np.ones(6))
        kl_ok &= kl_divergence(pvec, qvec) >= 0.0
        kl_ok &= abs(kl_divergence(pvec, pvec)) <= 1e-9
    probs = softened_probs(rng.normal(size=(50, 9)) * 40, 3.0)
    norm_ok = bool(np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12)
    f = rng.normal(size=(4, 6))
    zero_ok = simkd_loss(f, f.copy(), Projector(np.eye(6)))[0] == 0.0

    ok = worst < 1e-4 and kl_ok and norm_ok and zero_ok
    _report("criterion 6 (distillation math)", ok,
            f"worst gradient rel err {worst:.2e} (<1e-4), KL sign/zero ok={kl_ok}, "
            f"softmax normalized ok={norm_ok}, identity feature match zero={zero_ok}")


def test_criterion_7_federated_round_equals_central_gradient():
    rng = np.random.Generator(np.random.PCG64(707))
    worst = 0.0
    for _ in range(20):
        sizes = [int(rng.integers(2, 40)) for _ in range(int(rng.integers(2, 5)))]
        parts = [ToyDataset(rng.normal(size=(s, 3)), rng.integers(4, size=s), 4)
                 for s in sizes]
        union = ToyDataset(np.concatenate([p.inputs for p in parts]),
                           np.concatenate([p.labels for p in parts]), 4)
        p = init_net(NetArch((5,), 4), 3, 4, rng)
        _, g_union = hard_grads(p, union)
        for a, b in zip(fedsgd_gradient(p, parts), g_union.arrays()):
            worst = max(worst, rel_err(a, b))
    ok = worst <= 1e-10
    _report("criterion 7 (federated = centralized gradient)", ok,
            f"worst aggregation rel err {worst:.2e} (<=1e-10) over random partitions")


def test_criterion_8_toy_distillation_ordering():
    start = time.perf_counter()
    hard_full, sim_full, gaps_ok = [], [], True
    for seed in range(10):
        spec = BlobSpec(seed=seed)
        train_set, test_set = make_train_test(spec, 60, 60)
        groups = [(0, 1), (2, 3)]
        parts = split_by_label(train_set, groups)
        teacher = train_teacher(parts, epochs=600, lr=0.5, arch=NetArch((32,), 16),
                                seed=seed)
        private = parts[0]
        own_test = test_set.restrict_labels(groups[0])
        arch = NetArch((32,), 8)
        hard = train_teacher([private], epochs=600, lr=0.5, arch=arch, seed=seed + 1)
        sim, proj = distill_student(teacher, arch, private, LossSpec("simkd"),
                                    epochs=600, lr=0.1, seed=seed + 1)
        h_full = measure_accuracy(hard, test_set)
        h_own = measure_accuracy(hard, own_test)
        s_full = measure_accuracy(sim, test_set, (teacher, proj))
        s_own = measure_accuracy(sim, own_test, (teacher, proj))
        hard_full.append(h_full)
        sim_full.append(s_full)
        gaps_ok &= h_own >= h_full and s_own >= s_full
    elapsed = time.perf_counter() - start
    mean_hard = float(np.mean(hard_full))
    mean_sim = float(np.mean(sim_full))
    ok = (mean_sim > mean_hard and mean_hard > 0.40 and mean_sim > 0.40
          and gaps_ok and elapsed < 120.0)
    _report("criterion 8 (toy distillation ordering)", ok,
            f"mean full-test: feature-matching {mean_sim:.3f} > hard-only {mean_hard:.3f}"
            f" > random 0.25; own>=full per seed={gaps_ok}; {elapsed:.1f}s (<120s)")


CLI_RUNS = [
    ("allocate", ["allocate", "--config", "{cfg}", "--out", "{out}"]),
    ("train-q", ["train-q", "--seed", "5", "--episodes", "200", "--out", "{out}"]),
    ("experiment", ["experiment", "--method", "fl-min", "--seed", "5", "--trials", "5",
                    "--episodes", "200", "--out", "{out}"]),
    ("kd-demo", ["kd-demo", "--seed", "5", "--epochs", "150", "--out", "{out}"]),
    ("dump-oracle", ["dump-oracle", "--out", "{out}"]),
]


def test_criterion_9_cli_byte_determinism(tmp_path):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps({"decision": {"x": [0, 1, 0, 1], "m": [0, 1, 2, 3]}}))
    failures = []
    for name, template in CLI_RUNS:
        outs = []
        for attempt in range(2):
            out = tmp_path / f"{name}-{attempt}"
            argv = [arg.format(cfg=cfg_path, out=out) for arg in template]
            proc = subprocess.run([sys.executable, "-m", "fedkd.cli", *argv],
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                failures.append(f"{name}: exit {proc.returncode}: {proc.stderr.strip()}")
                break
            outs.append(out)
        if len(outs) == 2:
            names = sorted(p.name for p in outs[0].iterdir())
            if names != sorted(p.name for p in outs[1].iterdir()):
                failures.append(f"{name}: file sets differ")
            for fname in names:
                if (outs[0] / fname).read_bytes() != (outs[1] / fname).read_bytes():
                    failures.append(f"{name}/{fname}: bytes differ")
    _report("criterion 9 (CLI determinism)", not failures,
            f"all five subcommands byte-identical across reruns; failures={failures}")
