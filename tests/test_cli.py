import inspect
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from fedkd import accuracy, allocator, cli, config, experiment, kd, qlearn
from fedkd.cli import build_parser, kd_demo, main
from fedkd.kd import DivergenceError
from fedkd.model import BUDGET_RTOL, InfeasibleError, default_scenario


def write_config(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestAllocate:
    def test_writes_allocation_and_prints(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"decision": {"x": [0, 1, 0, 1], "m": [0, 1, 2, 3]}})
        assert main(["allocate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "allocation.json").read_text())
        assert len(payload["f"]) == 4
        assert sum(payload["f"]) <= 10.0 * (1 + 1e-9)
        assert payload["kkt_residual"] < 1e-8
        assert json.loads(capsys.readouterr().out) == payload

    def test_derives_the_problem_once(self, tmp_path, monkeypatch, capsys):
        """allocation.json's split, objectives and KKT residual all come
        from one build_problem call, under either module's name for it."""
        calls, real = [], allocator.build_problem

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(allocator, "build_problem", counting)
        monkeypatch.setattr(cli, "build_problem", counting, raising=False)
        cfg = write_config(tmp_path, {"decision": {"x": [0, 1, 0, 1], "m": [0, 1, 2, 3]}})
        assert main(["allocate", "--config", cfg]) == 0
        assert len(calls) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["objective_fixed_decision"] == (
            payload["objective_fb"] + real(*calls[0]).constant)

    @pytest.mark.parametrize("b_max", [4e-6, 5e-6])
    def test_a_budget_at_the_bound_is_split_exactly(self, tmp_path, capsys, b_max):
        """At and just above the least b_max a Scenario of the stock users
        accepts, 4e-6, the bandwidth shares sum to the budget and the KKT
        residual is at rounding level: no share is lifted to a floor."""
        cfg = write_config(tmp_path, {"server": {"b_max": b_max},
                                      "decision": {"x": [1, 1, 1, 1], "m": [0, 1, 2, 3]}})
        assert main(["allocate", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(math.fsum(payload["b"]) - b_max) <= BUDGET_RTOL * b_max
        assert payload["kkt_residual"] <= 1e-12

    def test_missing_decision_fails_with_diagnostic(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {})
        assert main(["allocate", "--config", cfg]) == 1
        assert "decision" in capsys.readouterr().err

    def test_bad_config_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"users": [{"f_loc": -1, "d": 5}],
                                      "decision": {"x": [0], "m": [0]}})
        assert main(["allocate", "--config", cfg]) == 1
        assert "users[0]" in capsys.readouterr().err

    def test_fractional_model_index_is_an_error_line_and_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"decision": {"x": [0, 1, 0, 1], "m": [0.5, 1, 2, 3]}})
        assert main(["allocate", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: decision.m[0]: expected an integer, got float\n"
        assert captured.out == ""


@pytest.mark.parametrize("command", ["allocate", "train-q"])
def test_overflowing_channel_gain_is_an_error_line_and_exit_1(tmp_path, capsys, command):
    """A user so far away that d ** gamma overflows a float."""
    cfg = write_config(tmp_path, {"users": [{"f_loc": 1.0, "d": 1e300}],
                                  "decision": {"x": [0], "m": [0]}})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: distance 1e+300 m overflows d ** gamma")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, n_users, actions", [
    (["experiment", "--method", "proposed"], 21, 8 ** 21),
    (["train-q"], 21, 8 ** 21),
    (["experiment", "--method", "fl-min"], 63, 2 ** 63),
    (["experiment", "--method", "exhaustive"], 7, 8 ** 7),
], ids=["proposed", "train-q", "fl-min", "exhaustive"])
def test_an_action_space_too_large_is_refused_before_any_work(tmp_path, capsys, argv, n_users,
                                                              actions):
    """2^63 or more actions cannot be sampled in training, and exhaustive
    enumerates at most EXHAUSTIVE_CAP: each is one error line naming the
    users and the catalog size, before any training or trial."""
    cfg = write_config(tmp_path, {"users": [{"f_loc": 1.0, "d": 50.0}] * n_users})
    out = tmp_path / "out"
    argv = argv + ["--config", cfg, "--episodes", "5", "--out", str(out)]
    if argv[0] == "experiment":
        argv += ["--trials", "0"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: action space {actions} of {n_users} users and a "
                          "4-model catalog exceeds the cap ")
    assert err.count("\n") == 1
    assert not out.exists()


#: User 1's spectral efficiency rounds to 0 beyond about 26 m: at its own
#: 50 m and at 100 m, the far end of the experiment's d_range.
WEAK = {"users": [{"f_loc": 1.0, "d": 20.0}, {"f_loc": 1.0, "d": 50.0, "p": 1e-21}]}


@pytest.mark.parametrize("argv, d", [
    *(pytest.param(["experiment", "--method", m, "--trials", t], "100.0", id=f"{m}-{t}")
      for m in experiment.METHODS for t in ("1", "2")),
    pytest.param(["train-q"], "50.0", id="train-q"),
])
def test_a_user_that_cannot_transmit_is_refused_before_any_training(tmp_path, capsys,
                                                                    monkeypatch, argv, d):
    """Whatever the trials happen to draw, every method and train-q refuse
    the weak user by name, as one error line and exit 1, before any
    training or trial; the scorers refuse the scenario the same way."""
    for module in (qlearn, experiment):
        monkeypatch.setattr(module, "train_loop", lambda *a: pytest.fail("trained"))
    monkeypatch.setattr(experiment, "_split", lambda *a: pytest.fail("a trial ran"))
    cfg = write_config(tmp_path, WEAK)
    out = tmp_path / "out"
    assert main(argv + ["--config", cfg, "--episodes", "200", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: user 1 has zero spectral efficiency at d = {d} m\n"
    assert not out.exists()
    sc = config.scenario_from_dict(WEAK)
    accs = [accuracy.acc_pair(accuracy.DEFAULT_TABLE, m.name, "KD", "noniid")
            for m in sc.catalog]
    for scorer in (qlearn.action_values, qlearn.exhaustive_optimum):
        with pytest.raises(InfeasibleError, match="^user 1 has zero spectral efficiency "
                                                  "at d = 50.0 m$"):
            scorer(sc, accs)


@pytest.mark.parametrize("command", ["train-q", "experiment"])
def test_a_model_without_an_accuracy_record_is_its_message_and_exit_1(tmp_path, capsys,
                                                                     command):
    """The lookup raises a KeyError, whose str() would quote the message."""
    cfg = write_config(tmp_path, {"catalog": [{"name": "LeNet", "mu": 5.0, "theta_s": 50.0}]})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--episodes", "5", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: no accuracy record for model='LeNet' method=KD distribution=noniid "
        "testset=full topk=1\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train-q", "experiment", "kd-demo"])
def test_negative_seed_is_an_error_line_naming_the_option(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([command, "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert not out.exists()


class TestTrainQ:
    def test_writes_table_and_summary(self, tmp_path):
        out = tmp_path / "q"
        assert main(["train-q", "--seed", "3", "--episodes", "200",
                     "--out", str(out)]) == 0
        assert (out / "qtable.tsv").exists()
        summary = json.loads((out / "train_summary.json").read_text())
        assert summary["episodes"] == 200
        assert len(summary["greedy_m"]) == 4

    def test_truncated_config_names_the_file_and_says_it_is_not_json(self, tmp_path, capsys):
        cfg = tmp_path / "truncated.json"
        cfg.write_text('{"users": [\n', encoding="utf-8")
        assert main(["train-q", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: scenario config {cfg} is not valid JSON: ")
        assert err.count("\n") == 1

    def test_a_user_that_is_not_an_object_is_an_error_line_and_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "users.json"
        cfg.write_text('{"users": [5]}', encoding="utf-8")
        out = tmp_path / "q"
        assert main(["train-q", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: users[0]: expected an object, got int\n"
        assert not out.exists()

    def test_a_repeated_user_id_is_an_error_line_and_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"users": [{"id": 0, "f_loc": 1.0, "d": 50.0},
                                                {"id": 0, "f_loc": 1.0, "d": 50.0}]})
        out = tmp_path / "q"
        assert main(["train-q", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: users[1].id: duplicate id 0\n"
        assert not out.exists()

    def test_negative_episodes_is_an_error_line_and_exit_1(self, tmp_path, capsys):
        out = tmp_path / "q"
        assert main(["train-q", "--episodes", "-5", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: episodes must be >= 0, got -5\n"
        assert not out.exists()

    @pytest.mark.parametrize("episodes", ["0", "3000"])
    def test_state_is_encoded_once(self, tmp_path, monkeypatch, episodes):
        """Each of the four stock users' state components is computed once:
        one call of the state quantizer bins the stock users' f_loc values,
        which scenario_draw hands it as they are."""
        quantizer, encoded = qlearn._quantizer, []

        def counting(*args):
            build = quantizer(*args)

            def counted(values):
                encoded.extend(values[0::2])
                return build(values)
            return counted

        monkeypatch.setattr(qlearn, "_quantizer", counting)
        assert main(["train-q", "--episodes", episodes, "--out", str(tmp_path / "q")]) == 0
        assert encoded == [u.f_loc for u in default_scenario().users]

    def test_a_user_whose_gain_rounds_to_zero_is_an_error_line_and_exit_1(self, tmp_path,
                                                                        capsys):
        """The gain at the far end of d_range is positive, but the user's
        own gain rounds to 0, so it cannot transmit, and it would have no
        log10 gain to bin."""
        cfg = write_config(tmp_path, {"channel": {"g0": 1e-300},
                                      "users": [{"f_loc": 1.0, "d": 1e9}]})
        out = tmp_path / "q"
        assert main(["train-q", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: user 0 has zero spectral efficiency at d = 1000000000.0 m\n")
        assert not out.exists()

    def test_zero_delay_weight_fails_even_without_episodes(self, tmp_path, capsys):
        # the per-user terms are built before training starts
        cfg = write_config(tmp_path, {"weights": {"alpha_d": 0.0}})
        assert main(["train-q", "--config", cfg, "--episodes", "0",
                     "--out", str(tmp_path / "q")]) == 1
        assert "alpha_d must be > 0" in capsys.readouterr().err


class TestExperiment:
    def test_runs_and_emits(self, tmp_path):
        out = tmp_path / "exp"
        assert main(["experiment", "--method", "fl-max", "--seed", "1", "--trials", "4",
                     "--episodes", "150", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["trials"] == 4
        assert summary["model_frequencies"]["ResNet-26x4"] == 1.0

    def test_negative_episodes_is_an_error_line_and_exit_1(self, tmp_path, capsys):
        out = tmp_path / "exp"
        assert main(["experiment", "--trials", "2", "--episodes", "-3",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: episodes must be >= 0, got -3\n"
        assert not out.exists()

    def test_a_repeated_catalog_name_is_an_error_line_and_exit_1(self, tmp_path, capsys):
        model = {"name": "VGG-8", "mu": 6.83, "theta_s": 150.0}
        cfg = write_config(tmp_path, {"catalog": [model, {**model, "mu": 18.96}]})
        out = tmp_path / "exp"
        assert main(["experiment", "--config", cfg, "--trials", "5", "--episodes", "50",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: catalog[1].name: duplicate name 'VGG-8'\n"
        assert not out.exists()

    def test_unknown_method_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["experiment", "--method", "annealing", "--out", str(tmp_path)])


class TestKdDemo:
    def test_metrics_and_snapshots(self, tmp_path):
        out = tmp_path / "kd"
        assert main(["kd-demo", "--seed", "0", "--epochs", "200",
                     "--out", str(out)]) == 0
        metrics = json.loads((out / "kd_metrics.json").read_text())
        assert set(metrics) >= {"teacher", "student_hard", "student_kd", "student_simkd"}
        for name in ("teacher_params", "student_simkd_params"):
            payload = json.loads((out / f"{name}.json").read_text())
            assert {"weights", "biases", "w_out", "b_out"} <= set(payload)

    def test_divergence_is_an_error_line_and_exit_1(self, tmp_path, capsys, monkeypatch):
        def diverging(seed, epochs):
            raise DivergenceError("kd distillation diverged at epoch 3: loss=nan")

        monkeypatch.setattr(cli, "kd_demo", diverging)
        assert main(["kd-demo", "--out", str(tmp_path / "kd")]) == 1
        assert capsys.readouterr().err == (
            "error: kd distillation diverged at epoch 3: loss=nan\n")

    @pytest.mark.parametrize("epochs", ["0", "-3"])
    def test_non_positive_epochs_fail_before_training_and_leave_no_directory(
            self, tmp_path, capsys, monkeypatch, epochs):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(kd, "train_teacher", no_training)
        out = tmp_path / "kd"
        assert main(["kd-demo", "--epochs", epochs, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: epochs must be >= 1, got {epochs}\n"
        assert not out.exists()

    def test_diverging_run_leaves_no_directory(self, tmp_path, monkeypatch):
        def diverging(seed, epochs):
            raise DivergenceError("teacher training diverged at epoch 0: loss=nan")

        monkeypatch.setattr(cli, "kd_demo", diverging)
        assert main(["kd-demo", "--out", str(tmp_path / "kd")]) == 1
        assert not (tmp_path / "kd").exists()

    def test_other_runtime_errors_propagate(self, tmp_path, monkeypatch):
        def broken(seed, epochs):
            raise RuntimeError("not a divergence")

        monkeypatch.setattr(cli, "kd_demo", broken)
        with pytest.raises(RuntimeError, match="not a divergence"):
            main(["kd-demo", "--out", str(tmp_path / "kd")])

    def test_demo_orderings_at_full_settings(self):
        res = kd_demo(seed=0, epochs=600)
        m = res["metrics"]
        assert m["student_simkd"]["full_test"] > m["student_hard"]["full_test"]
        assert m["student_simkd"]["own_test"] >= m["student_simkd"]["full_test"]


def serial_kd_runs(seed, epochs):
    """kd-demo's four runs, called one after another in this process."""
    spec = kd.BlobSpec(seed=seed)
    train_set, _ = kd.make_train_test(spec, train_per_class=60, test_per_class=60)
    parts = kd.split_by_label(train_set, [(0, 1), (2, 3)])
    student_arch = kd.NetArch((32,), 8)
    teacher = kd.train_teacher(parts, epochs=max(epochs, 400), lr=0.5,
                               arch=kd.NetArch((32,), 16), seed=seed)
    hard = kd.train_teacher([parts[0]], epochs=epochs, lr=0.5, arch=student_arch,
                            seed=seed + 1)
    student_kd, _ = kd.distill_student(teacher, student_arch, parts[0],
                                       kd.LossSpec("kd", temperature=4.0),
                                       epochs=epochs, lr=0.5, seed=seed + 1)
    simkd, proj = kd.distill_student(teacher, student_arch, parts[0], kd.LossSpec("simkd"),
                                     epochs=epochs, lr=0.1, seed=seed + 1)
    return {"teacher": teacher, "student_hard": hard, "student_kd": student_kd,
            "student_simkd": simkd}, proj


def failing(monkeypatch, fail):
    """Patch kd so that each of kd-demo's runs named in fail (name ->
    exception type) raises it at its start, naming the run and the process
    it ran in."""
    for fn in ("train_teacher", "distill_student"):
        original = getattr(kd, fn)

        def patched(*args, _fn=fn, _original=original, **kwargs):
            bound = inspect.signature(_original).bind(*args, **kwargs).arguments
            if _fn == "train_teacher":
                name = "teacher" if bound["arch"].feature_dim == 16 else "hard"
            else:
                name = bound["loss"].variant
            if name in fail:
                raise fail[name](f"{name} failed in process {os.getpid()}")
            return _original(*args, **kwargs)

        monkeypatch.setattr(kd, fn, patched)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestKdDemoForked:
    @pytest.mark.parametrize("seed, epochs", [(0, 1), (5, 12), (11, 30)])
    def test_outputs_equal_the_runs_called_in_series(self, seed, epochs):
        res = kd_demo(seed=seed, epochs=epochs)
        want, proj = serial_kd_runs(seed, epochs)
        for role, params in want.items():
            assert res[role].flat.tobytes() == params.flat.tobytes(), role
        assert res["projector"].w.tobytes() == proj.w.tobytes()
        assert_no_child_left()

    def test_a_divergence_in_the_hard_student_child_is_an_error_line(self, tmp_path, capsys,
                                                                     monkeypatch):
        failing(monkeypatch, {"hard": DivergenceError})
        out = tmp_path / "kd"
        assert main(["kd-demo", "--epochs", "5", "--out", str(out)]) == 1
        line = re.fullmatch(r"error: hard failed in process (\d+)\n", capsys.readouterr().err)
        assert line and int(line[1]) != os.getpid()
        assert not out.exists()
        assert_no_child_left()

    @pytest.mark.parametrize("fail, raised", [
        ({"teacher", "hard", "kd", "simkd"}, "teacher"),
        ({"hard", "kd", "simkd"}, "hard"),
        ({"hard"}, "hard"),
        ({"kd", "simkd"}, "kd"),
        ({"simkd"}, "simkd"),
    ])
    def test_the_first_failing_run_in_serial_order_raises(self, monkeypatch, fail, raised):
        failing(monkeypatch, dict.fromkeys(fail, DivergenceError))
        with pytest.raises(DivergenceError, match=rf"^{raised} failed in process \d+$"):
            kd_demo(seed=2, epochs=5)
        assert_no_child_left()

    @pytest.mark.parametrize("exc", [DivergenceError, KeyboardInterrupt])
    @pytest.mark.parametrize("run", ["teacher", "kd"])    # beside the hard, the simkd child
    def test_a_failure_in_this_process_leaves_no_child_behind(self, monkeypatch, run, exc):
        failing(monkeypatch, {run: exc})
        with pytest.raises(exc, match=rf"^{run} failed in process {os.getpid()}$"):
            kd_demo(seed=0, epochs=600)    # the child's run is still training
        assert_no_child_left()

    def test_a_child_that_dies_without_a_result_raises_and_does_not_hang(self, monkeypatch):
        parent = os.getpid()
        original = kd.train_teacher

        def dying(parts, *args, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            return original(parts, *args, **kwargs)

        monkeypatch.setattr(kd, "train_teacher", dying)
        with pytest.raises(RuntimeError,
                           match=r"^child \d+ ended without a result \(wait status 768\)$"):
            kd_demo(seed=0, epochs=5)
        assert_no_child_left()

    @pytest.mark.parametrize("kwargs, message", [
        ({"epochs": True}, "epochs must be an integer, got True"),
        ({"epochs": 2.5}, "epochs must be an integer, got 2.5"),
        ({"epochs": 0}, "epochs must be >= 1, got 0"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": "3"}, "seed must be an integer, got '3'"),
    ])
    def test_bad_arguments_are_refused_by_name_before_any_run_or_fork(self, monkeypatch,
                                                                      kwargs, message):
        def refused(*args, **kw):
            raise AssertionError("a run or a fork started")

        for fn in ("train_teacher", "distill_student", "make_train_test"):
            monkeypatch.setattr(kd, fn, refused)
        monkeypatch.setattr(os, "fork", refused)
        with pytest.raises(ValueError) as err:
            kd_demo(**{"seed": 0, "epochs": 5, **kwargs})
        assert str(err.value) == message

    def test_numpy_integer_arguments_give_the_int_results(self):
        res = kd_demo(seed=np.int64(3), epochs=np.int32(2))
        assert res["metrics"] == kd_demo(seed=3, epochs=2)["metrics"]
        assert type(res["metrics"]["seed"]) is int and type(res["metrics"]["epochs"]) is int

    def test_importing_the_cli_loads_no_process_pool_and_no_signal_module(self):
        code = ("import sys, fedkd.cli; "
                "print(sorted(m for m in ('multiprocessing', 'concurrent.futures', 'signal') "
                "if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True)
        assert proc.stdout == "[]\n"


class TestDumpOracle:
    def test_dump_matches_builtin(self, tmp_path, capsys):
        import io

        from fedkd.accuracy import DEFAULT_TABLE
        from oracles import load_table
        assert main(["dump-oracle", "--out", str(tmp_path)]) == 0
        text = (tmp_path / "accuracy_table.csv").read_text()
        assert load_table(io.StringIO(text)).records == DEFAULT_TABLE.records


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        subactions = next(a for a in parser._actions if a.dest == "command")
        assert set(subactions.choices) == {"allocate", "train-q", "experiment",
                                           "kd-demo", "dump-oracle"}

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run([sys.executable, "-m", "fedkd.cli", "dump-oracle"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("model,method,distribution,testset,topk,percent")
