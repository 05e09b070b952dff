"""Self-tests of the benchmark harness (not part of the package's suite).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from fedkd import cli, model, qlearn  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ---------------------------------------------------------------------------
# tracer


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    t = tracing.Tracer(clock)
    t.command = "cmd"
    t.enter("a.outer")          # 0 .. 10
    clock.now = 1.0
    t.enter("b.mid")            # 1 .. 7
    clock.now = 2.0
    t.enter("c.leaf")           # 2 .. 5
    clock.now = 5.0
    t.exit()
    clock.now = 7.0
    t.exit()
    clock.now = 8.0
    t.enter("c.leaf")           # 8 .. 9, directly under outer
    clock.now = 9.0
    t.exit()
    clock.now = 10.0
    t.exit()

    assert t.spans[("cmd", "b.mid", "c.leaf")] == [1, 3.0, 3.0]
    assert t.spans[("cmd", "a.outer", "c.leaf")] == [1, 1.0, 1.0]
    assert t.spans[("cmd", "a.outer", "b.mid")] == [1, 6.0, 3.0]
    assert t.spans[("cmd", None, "a.outer")] == [1, 10.0, 3.0]
    tot = t.totals()
    assert tot["c.leaf"] == [2, 4.0, 4.0]
    # Self times partition the root span exactly.
    assert sum(v[2] for v in tot.values()) == 10.0
    assert t.layer_self_s() == {"a": 3.0, "b": 3.0, "c": 4.0}


def test_span_closes_when_the_wrapped_function_raises():
    clock = FakeClock()
    t = tracing.Tracer(clock)

    def boom():
        clock.now += 2.0
        raise ValueError("x")

    wrapped = tracing.wrap(t, "m.boom", boom)
    t.enter("m.outer")
    with pytest.raises(ValueError):
        wrapped()
    clock.now += 1.0
    t.exit()
    assert t.totals()["m.boom"] == [1, 2.0, 2.0]
    assert t.totals()["m.outer"] == [1, 3.0, 1.0]


def _snapshot(modules):
    snap = {name: dict(vars(mod)) for name, mod in modules.items()}
    snap["QTable"] = dict(vars(modules["fedkd.qlearn"].QTable))
    return snap


def test_install_wraps_every_binding_site_and_restore_puts_back_originals(tmp_path):
    state = workloads.setup("fleet", 0, tmp_path)
    modules = state["modules"]
    before = _snapshot(modules)
    t = tracing.Tracer()
    originals = tracing.install(t, modules)
    try:
        exp, ql, pkg = (modules[n] for n in ("fedkd.experiment", "fedkd.qlearn", "fedkd"))
        assert exp.allocate is ql.allocate is pkg.allocate
        assert exp.allocate is not before["fedkd.allocator"]["allocate"]
        assert modules["fedkd.cli"].cmd_experiment is before["fedkd.cli"]["cmd_experiment"]
        t.run_command("experiment-fl-max", modules["fedkd.cli"].main,
                      ["experiment", "--method", "fl-max", "--seed", "1", "--trials", "3",
                       "--episodes", "40", "--out", str(tmp_path / "exp")])
    finally:
        tracing.restore(originals)
    after = _snapshot(modules)
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys(), name
        for attr, value in attrs.items():
            assert after[name][attr] is value, f"{name}.{attr}"

    layer = tracing.per_layer(t, reps=1)
    assert layer["qlearn.reward_evals_per_episode"] == 1.0
    # fl-max's reward_fn is defined in experiment, so its time is charged there.
    spans = t.totals()
    assert spans["experiment.reward_fn"][0] == 40 and "qlearn.reward_fn" not in spans
    assert "cli.self_s" not in layer
    assert layer["allocator.allocate.calls"] == 43          # 40 episodes + 3 trials
    assert layer["model.objective.calls"] == 43
    assert layer["cli.main.self_s"] > 0
    assert layer["kd.hard_grads.calls"] == 0


def test_matmul_flops_of_the_kd_kernels():
    import numpy as np
    from fedkd import kd

    p = kd.init_net(kd.NetArch((32,), 8), 8, 4, np.random.default_rng(0))
    ds = kd.ToyDataset(np.zeros((10, 8)), np.zeros(10, dtype=int), 4)
    fwd = 2 * 10 * (8 * 32 + 32 * 8 + 8 * 4)
    assert tracing.matmul_flops("kd.net_eval", (p, ds.inputs)) == fwd
    assert tracing.matmul_flops("kd.hard_grads", (p, ds)) == 3 * fwd
    proj = kd.Projector(np.zeros((8, 16)))
    assert tracing.matmul_flops("kd.simkd_grads", (p, proj, None, ds)) == (
        fwd + 6 * 10 * 8 * 16 + 4 * 10 * (8 * 32 + 32 * 8))


# ---------------------------------------------------------------------------
# output checks fail on corrupted output


@pytest.fixture(scope="module")
def fleet_state(tmp_path_factory):
    return workloads.setup("fleet", 0, tmp_path_factory.mktemp("inputs"))


def _run_experiment(state, method, out):
    argv = ["experiment", "--config", str(state["config_paths"][0]), "--method", method,
            "--seed", "5", "--trials", "6", "--episodes", "60", "--out", str(out)]
    rc = cli.main(argv)
    return rc, checks.experiment_check(state["scenarios"][0], method, 5, 6, state["accs"])


def _edit_csv(path: Path, row: int, column: str, value: str) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row + 1][rows[0].index(column)] = value
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for r in rows:
            fh.write(",".join(r) + "\n")


@pytest.mark.parametrize("method", ["proposed", "fl-min"])
def test_experiment_check_passes_then_catches_tampered_rows(fleet_state, tmp_path, method):
    out = tmp_path / method
    rc, check = _run_experiment(fleet_state, method, out)
    check(out, rc)
    with pytest.raises(AssertionError, match="exit code"):
        check(out, 1)

    trials = out / "trials.csv"
    original = trials.read_bytes()
    with open(trials, encoding="utf-8") as fh:
        objective = float(list(csv.reader(fh))[3][2])
    _edit_csv(trials, 2, "objective", repr(objective * (1 + 1e-6)))
    with pytest.raises(AssertionError, match="row 2 objective"):
        check(out, 0)

    trials.write_bytes(original)
    _edit_csv(trials, 1, "f0", "9.5")                # over the 10 GHz budget
    with pytest.raises(AssertionError, match="exceeds server budget"):
        check(out, 0)

    trials.write_bytes(original)
    summary = json.loads((out / "summary.json").read_text())
    summary["acc_own_mean"] += 1e-3
    (out / "summary.json").write_text(json.dumps(summary))
    with pytest.raises(AssertionError, match="acc_own_mean"):
        check(out, 0)


def test_qonly_check_requires_the_penalty_on_split_over_budget(fleet_state, tmp_path):
    out = tmp_path / "q-only"
    rc, check = _run_experiment(fleet_state, "q-only", out)
    check(out, rc)
    _edit_csv(out / "trials.csv", 0, "b0", "9.75")    # over the 10 MHz budget
    with pytest.raises(AssertionError, match="row 0 objective"):
        check(out, 0)


def test_exhaustive_check_passes_then_catches_a_wrong_optimum(tmp_path):
    state = workloads.setup("cell", 3, tmp_path / "inputs")
    sc, accs = state["scenarios"][0], state["accs"]["KD"]
    out = tmp_path / "rep"
    assert cli.main(["train-q", "--config", str(state["config_paths"][0]), "--seed", "1",
                     "--episodes", "300", "--out", str(out / "train-q")]) == 0
    checks.train_q_check(sc, 1, 300)(out / "train-q", 0)
    check = checks.exhaustive_check(sc, accs, 3, "train-q")
    dec, best = qlearn.exhaustive_optimum(sc, accs)
    check(out / "exhaustive", (dec, best))
    assert json.loads((out / "exhaustive" / "optimum.json").read_text())["gap_to_opt"] >= 0

    with pytest.raises(AssertionError, match="scores otherwise"):
        check(out / "exhaustive", (dec, best - 1.0))
    # A true value, but of the worst uniform decision: not the optimum.
    uniform = [model.Decision(x=[x] * 4, m=[m] * 4) for x in (0, 1) for m in range(4)]
    worst = max(uniform, key=lambda d: checks._decision_value(sc, d, accs))
    with pytest.raises(AssertionError, match="beat"):
        check(out / "exhaustive", (worst, checks._decision_value(sc, worst, accs)))


def test_kd_demo_check_catches_a_wrong_accuracy(tmp_path):
    kd_seed = 7
    out = tmp_path / "kd"
    rc = cli.main(["kd-demo", "--seed", str(kd_seed), "--epochs", str(workloads.KD_EPOCHS),
                   "--out", str(out)])
    check = checks.kd_demo_check(kd_seed, workloads.KD_EPOCHS)
    check(out, rc)

    path = out / "kd_metrics.json"
    original = path.read_text()
    metrics = json.loads(original)
    metrics["student_kd"]["full_test"] += 1.0 / 240
    path.write_text(json.dumps(metrics))
    with pytest.raises(AssertionError, match="seed commit gave"):
        check(out, 0)

    metrics["student_kd"]["full_test"] = 1.5
    path.write_text(json.dumps(metrics))
    with pytest.raises(AssertionError, match=r"outside \[0, 1\]"):
        check(out, 0)

    # Metrics that match the record but not the saved parameters.
    path.write_text(original)
    params = json.loads((out / "student_hard_params.json").read_text())
    params["b_out"] = [10.0 * i for i in range(len(params["b_out"]))]
    (out / "student_hard_params.json").write_text(json.dumps(params))
    with pytest.raises(AssertionError, match="saved student_hard parameters"):
        check(out, 0)


def test_inputs_depend_only_on_the_seed():
    for wl in workloads.WORKLOADS:
        assert workloads.draw_inputs(wl, 4) == workloads.draw_inputs(wl, 4)
