import dataclasses
import math
import re

import numpy as np
import pytest

from fedkd import experiment, model
from fedkd.accuracy import DEFAULT_TABLE, acc_pair
from fedkd.experiment import (
    EXPERIMENT_QCONFIG,
    ExperimentConfig,
    Report,
    TrialResult,
    emit_report,
    method_spec,
    report_rows,
    run_experiment,
    sample_scenario,
    summary_dict,
    training_reward,
)
from fedkd.model import ServerSpec, default_scenario
from fedkd.qlearn import INFEASIBLE_REWARD, QConfig, decode, scenario_draw
from conftest import make_scenario
from oracles import action_reward, decode_spec


def quick_cfg(method, trials=12, episodes=600, seed=5, **kw):
    return ExperimentConfig(scenario=default_scenario(), method=method, seed=seed,
                            trials=trials,
                            q=dataclasses.replace(EXPERIMENT_QCONFIG, episodes=episodes),
                            **kw)


@pytest.mark.parametrize("method", ["exhaustive", "proposed"])
def test_evaluation_computes_each_users_delays_once(method, monkeypatch):
    """One pricing pass per trial gives both the objective and the mean
    delay: model.delays runs once per user of each trial, under either
    module's name for it.  proposed trains on digit_reward, which calls no
    delays."""
    calls, real = [], model.delays

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (model, experiment):
        monkeypatch.setattr(module, "delays", counting)
    cfg = quick_cfg(method, trials=7, episodes=300)
    run_experiment(cfg)
    assert len(calls) == cfg.trials * cfg.scenario.n_users


class TestSampling:
    def test_draws_only_vary_users(self, rng):
        template = default_scenario()
        draw = sample_scenario(template, rng)
        assert draw.catalog == template.catalog
        assert draw.server == template.server
        assert draw.users != template.users
        assert all(0.5 <= u.f_loc <= 2.0 and 10.0 <= u.d <= 100.0 for u in draw.users)

    def test_point_ranges_give_static_draws(self, rng):
        template = default_scenario()
        a = sample_scenario(template, rng, (1.0, 1.0), (50.0, 50.0))
        b = sample_scenario(template, rng, (1.0, 1.0), (50.0, 50.0))
        assert a == b

    @pytest.mark.parametrize("f_loc_range, d_range", [((0.5, 2.0), (10.0, 100.0)),
                                                      ((0.3, 2.6), (6.0, 140.0))])
    def test_draws_equal_per_user_uniform_calls(self, f_loc_range, d_range):
        """2000 draws equal rng.uniform calls from the same seed bit for
        bit, f_loc then d for each user in turn."""
        template = default_scenario()
        rng, ref_rng = (np.random.Generator(np.random.PCG64(13)) for _ in range(2))
        for _ in range(2000):
            draw = sample_scenario(template, rng, f_loc_range, d_range)
            for u in draw.users:
                assert u.f_loc == float(ref_rng.uniform(*f_loc_range))
                assert u.d == float(ref_rng.uniform(*d_range))


class TestRanges:
    """QConfig's draw ranges, which the sampler and the state quantizer
    share, and the counts that go with them."""

    @pytest.mark.parametrize("field", ["f_loc_range", "d_range"])
    @pytest.mark.parametrize("bad", [(-1.0, 2.0), (math.nan, 2.0), (2.0, 1.0), (0.5, math.inf),
                                     "ab", (0.5,), (0.5, 1.0, 2.0), (True, 2.0), ("1", "2"),
                                     5.0])
    def test_bad_range_rejected_naming_the_field(self, field, bad):
        """Also a range that is not a pair of numbers, which would fail
        with an unpacking or comparison error that names nothing."""
        with pytest.raises(ValueError, match=f"^{field} must be numbers \\(lo, hi\\) with "
                                             f"0 < lo <= hi < inf, got {re.escape(repr(bad))}$"):
            QConfig(**{field: bad})

    @pytest.mark.parametrize("field", ["f_loc_range", "d_range"])
    def test_degenerate_range_accepted(self, field):
        cfg = QConfig(f_bins=1, h_bins=1, **{field: (1.5, 1.5)})
        assert getattr(cfg, field) == (1.5, 1.5)

    @pytest.mark.parametrize("field, bins", [("f_loc_range", "f_bins"), ("d_range", "h_bins")])
    def test_degenerate_range_with_more_bins_rejected(self, field, bins):
        with pytest.raises(ValueError, match=f"{field} .* zero width, so {bins} must be 1"):
            QConfig(**{"f_bins": 1, "h_bins": 1, bins: 2, field: (1.5, 1.5)})

    @pytest.mark.parametrize("field", ["episodes", "f_bins", "h_bins"])
    @pytest.mark.parametrize("bad", [2.5, True, "3"])
    def test_non_integer_count_rejected_naming_the_field(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            QConfig(**{field: bad})

    @pytest.mark.parametrize("field, interval", [
        ("lr", "(0, 1]"), ("epsilon0", "[0, 1]"), ("epsilon_decay", "[0, 1]"),
        ("epsilon_floor", "[0, 1]")])
    @pytest.mark.parametrize("bad", [True, "0.5", None, 1.5])
    def test_bad_rate_rejected_naming_the_field(self, field, interval, bad):
        """lr = True would train as lr = 1; a string or None would fail
        with a TypeError that names nothing."""
        with pytest.raises(ValueError, match=f"^{field} must be a number in "
                                             f"{re.escape(interval)}, got {re.escape(repr(bad))}$"):
            QConfig(**{field: bad})

    @pytest.mark.parametrize("field", ["f_bins", "h_bins"])
    def test_no_bins_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 1, got 0"):
            QConfig(**{field: 0})


def qonly_spec(sc, levels=experiment.RESOURCE_LEVELS):
    """q-only's method table with levels grid levels per resource."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "RESOURCE_LEVELS", levels)
        return method_spec(ExperimentConfig(scenario=sc, method="q-only"))


class TestQOnlyCoding:
    def test_decode_covers_levels(self):
        """Every action's rows, q-only's digits as qlearn.decode gives
        them, and the split the trials take from them hold the decision,
        the shares and the budget check of the oracle decoder."""
        sc = make_scenario(n_users=2, n_models=2)
        levels = 4
        spec = qonly_spec(sc, levels)
        assert spec.n_actions == (2 * 2 * levels * levels) ** 2
        seen_f = set()
        for a in range(spec.n_actions):
            dec, al, within = decode_spec(sc, spec, a)
            rows = decode(spec.digits, a, 2)
            assert [r[:2] for r in rows] == list(zip(dec.x, dec.m))
            assert experiment._split(sc, rows, None, spec.levels) == (al.f, al.b, within)
            assert len(al.f) == len(al.b) == 2
            seen_f.update(al.f)
        expected = {(k + 1) * sc.server.f_ser / levels for k in range(levels)}
        assert seen_f == expected

    @staticmethod
    def _action(units, levels, n_models):
        """q-only action giving user i (x=0, m=0) and units[i] levels of both
        resources."""
        radix = 2 * n_models * levels * levels
        a = 0
        for k in reversed(units):
            a = a * radix + 2 * n_models * ((k - 1) + levels * (k - 1))
        return a

    def test_digits_keep_the_action_encoding(self):
        """Digit x + 2 (m + |M| (f_units - 1 + levels (b_units - 1))) of a
        user picks (x, m, f_units, b_units)."""
        sc = make_scenario(n_users=1, n_models=3)
        levels = 4
        spec = qonly_spec(sc, levels)
        assert spec.levels == levels == max(d[2] for d in spec.digits)
        for k, digit in enumerate(spec.digits):
            x, rest = k % 2, k // 2
            m, rest = rest % 3, rest // 3
            assert digit == (x, m, rest % levels + 1, rest // levels + 1)
        assert decode_spec(sc, spec, self._action((3,), levels, 3))[1].f == (
            3 * sc.server.f_ser / 4,)

    @pytest.mark.parametrize("budget, levels, units", [
        (7.0, 6, (1, 1, 3, 1)),     # float shares sum to 7.000000000000001
        (3.3, 7, (1, 4, 1, 1)),     # and to 3.3000000000000003
    ])
    def test_split_meeting_the_budget_exactly_is_feasible(self, budget, levels, units):
        sc = make_scenario()
        sc = dataclasses.replace(sc, server=ServerSpec(f_ser=budget, b_max=budget))
        spec = qonly_spec(sc, levels)
        a = self._action(units, levels, len(sc.catalog))
        dec, al, within_budget = decode_spec(sc, spec, a)
        assert sum(al.f) > budget and sum(al.b) > budget   # the float sums overshoot
        assert within_budget
        accs = [(0.5, 0.5)] * 4
        assert action_reward(sc, spec, a, accs) != INFEASIBLE_REWARD
        over = self._action(units[:-1] + (units[-1] + 1,), levels, len(sc.catalog))
        assert not decode_spec(sc, spec, over)[2]
        assert action_reward(sc, spec, over, accs) == INFEASIBLE_REWARD
        cfg = ExperimentConfig(scenario=sc, method="q-only")
        reward_fn = training_reward(sc, spec, spec.digits, accs)
        _, draw = scenario_draw(sc, cfg.q)
        assert reward_fn(draw, a) == action_reward(sc, spec, a, accs)
        assert reward_fn(draw, over) == INFEASIBLE_REWARD

    def test_action_zero_is_minimal_and_feasible(self):
        sc = default_scenario()
        dec, al, _ = decode_spec(sc, qonly_spec(sc), 0)
        assert dec.x == (0,) * 4 and dec.m == (0,) * 4
        assert sum(al.f) <= sc.server.f_ser and sum(al.b) <= sc.server.b_max


class TestRunExperiment:
    def test_reports_are_deterministic(self, tmp_path):
        reps = [run_experiment(quick_cfg("proposed", trials=6, episodes=300))
                for _ in range(2)]
        assert report_rows(reps[0]) == report_rows(reps[1])

    def test_a_catalog_that_names_a_model_twice_never_reaches_a_report(self):
        # Keyed by name, the report would keep one VGG-8 frequency and drop the other.
        catalog = (model.ModelSpec("VGG-8", 6.83, 150.0), model.ModelSpec("VGG-8", 18.96, 186.0))
        with pytest.raises(ValueError, match=r"^Scenario\.catalog: duplicate name 'VGG-8'$"):
            run_experiment(dataclasses.replace(
                quick_cfg("proposed", trials=5, episodes=200, seed=47),
                scenario=dataclasses.replace(default_scenario(), catalog=catalog)))

    def test_methods_share_eval_draws(self):
        a = run_experiment(quick_cfg("fl-min", trials=5, episodes=200))
        b = run_experiment(quick_cfg("fl-max", trials=5, episodes=200))
        # same seeds -> same user draws -> same per-trial delay denominators
        assert a.trials[0].trial == b.trials[0].trial == 0
        assert len(a.trials) == len(b.trials) == 5

    def test_fl_baselines_pin_their_models(self):
        rep_min = run_experiment(quick_cfg("fl-min", trials=8, episodes=300))
        rep_max = run_experiment(quick_cfg("fl-max", trials=8, episodes=300))
        freqs_min = rep_min.model_frequencies()
        freqs_max = rep_max.model_frequencies()
        assert freqs_min[0] == 1.0 and sum(freqs_min) == pytest.approx(1.0)
        assert freqs_max[3] == 1.0 and sum(freqs_max) == pytest.approx(1.0)

    def test_fl_baselines_use_conventional_accuracies(self):
        rep = run_experiment(quick_cfg("fl-min", trials=3, episodes=100))
        # VGG-8 under label-partitioned training: private 4.47%, full 1.12%
        assert rep.trials[0].acc_own == pytest.approx(0.0447)
        assert rep.trials[0].acc_avg == pytest.approx(0.0112)

    def test_frequencies_sum_to_one_per_trial(self):
        rep = run_experiment(quick_cfg("proposed", trials=10, episodes=400))
        for t in rep.trials:
            assert sum(t.freq) == pytest.approx(1.0, abs=1e-9)

    def test_proposed_dominates_baselines_in_mean(self):
        reps = {m: run_experiment(quick_cfg(m, trials=15, episodes=1500))
                for m in ("proposed", "fl-min", "fl-max")}
        assert reps["proposed"].mean("objective") <= reps["fl-min"].mean("objective")
        assert reps["proposed"].mean("objective") <= reps["fl-max"].mean("objective")

    def test_proposed_beats_qonly_on_most_draws(self):
        a = run_experiment(quick_cfg("proposed", trials=20, episodes=1500))
        b = run_experiment(quick_cfg("q-only", trials=20, episodes=1500))
        wins = sum(x.objective <= y.objective for x, y in zip(a.trials, b.trials))
        assert wins >= 18

    def test_larger_models_take_longer(self):
        rep_min = run_experiment(quick_cfg("fl-min", trials=10, episodes=300))
        rep_max = run_experiment(quick_cfg("fl-max", trials=10, episodes=300))
        assert rep_max.mean("avg_delay_s") >= rep_min.mean("avg_delay_s")

    def test_trained_agent_matches_enumeration_on_static_small_scenario(self):
        sc = make_scenario(n_users=2, n_models=2, seed=19)
        cfg = ExperimentConfig(
            scenario=sc, method="proposed", seed=3, trials=2,
            q=dataclasses.replace(EXPERIMENT_QCONFIG, episodes=5000, f_bins=1, h_bins=1,
                                  f_loc_range=(sc.users[0].f_loc, sc.users[0].f_loc),
                                  d_range=(sc.users[0].d, sc.users[0].d)))
        # collapse the sampler so training and evaluation see one scenario
        users = tuple(dataclasses.replace(u, f_loc=sc.users[0].f_loc, d=sc.users[0].d)
                      for u in sc.users)
        static = dataclasses.replace(sc, users=users)
        cfg = dataclasses.replace(cfg, scenario=static)
        ref = run_experiment(dataclasses.replace(cfg, method="exhaustive"))
        got = run_experiment(cfg)
        gap = got.mean("objective") - ref.mean("objective")
        assert gap <= 1e-6

    def test_exhaustive_is_no_worse_than_a_learned_method_on_every_draw(self):
        # All three score with the KD accuracies, so objectives compare.
        ref = run_experiment(quick_cfg("exhaustive", trials=25))
        for method in ("proposed", "q-only"):
            rep = run_experiment(quick_cfg(method, trials=25, episodes=500))
            for opt, got in zip(ref.trials, rep.trials, strict=True):
                assert opt.objective <= got.objective + 1e-9 * abs(got.objective), \
                    (method, got.trial)

    def test_qonly_level_guards(self, monkeypatch):
        monkeypatch.setattr(experiment, "RESOURCE_LEVELS", 2)
        with pytest.raises(ValueError, match="grid level.*use at most 2 users"):
            run_experiment(quick_cfg("q-only", trials=1, episodes=10))
        # 2 * 4 * 90 * 90 = 64800 digits per user: 64800^4 > 2^63 actions
        monkeypatch.setattr(experiment, "RESOURCE_LEVELS", 90)
        with pytest.raises(ValueError, match="exceeds.*reduce users or catalog size"):
            run_experiment(quick_cfg("q-only", trials=1, episodes=10))

    def test_qonly_takes_as_many_users_as_the_other_learned_methods(self):
        """q-only samples its actions as they do, so it is capped at
        qlearn.SAMPLE_CAP too: 512^6 = 2^54 actions on the stock catalog."""
        def spec(n_users):
            return method_spec(ExperimentConfig(scenario=make_scenario(n_users, seed=0),
                                                method="q-only"))

        assert spec(6).n_actions == 2 ** 54
        with pytest.raises(ValueError, match="exceeds the cap"):
            spec(7)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            quick_cfg("genetic")

    @pytest.mark.parametrize("field", ["seed", "trials"])
    @pytest.mark.parametrize("bad", [True, 2.5, "3", None])
    def test_non_integer_seed_or_trials_rejected_naming_the_field(self, field, bad):
        """Refused at the config, before it can run one trial
        (trials=True), reach summary.json ("seed": true) or fail inside
        the run (trials=2.5)."""
        with pytest.raises(ValueError, match=f"{field} must be an integer, got "):
            ExperimentConfig(scenario=default_scenario(), **{field: bad})

    @pytest.mark.parametrize("field", ["seed", "trials"])
    def test_negative_seed_or_trials_rejected_naming_the_field(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 0, got -1"):
            ExperimentConfig(scenario=default_scenario(), **{field: -1})

    def test_numpy_integer_counts_accepted(self):
        cfg = ExperimentConfig(scenario=default_scenario(), seed=np.int64(3), trials=np.int32(2))
        assert (cfg.seed, cfg.trials) == (3, 2)
        assert type(cfg.seed) is type(cfg.trials) is int

    def test_numpy_integer_seed_writes_the_same_report(self, tmp_path):
        for name, seed, trials in (("int", 3, 2), ("numpy", np.int64(3), np.int32(2))):
            cfg = quick_cfg("fl-min", seed=seed, trials=trials, episodes=50)
            emit_report(run_experiment(cfg), tmp_path / name)
        for name in ("trials.csv", "summary.json"):
            assert ((tmp_path / "int" / name).read_bytes()
                    == (tmp_path / "numpy" / name).read_bytes())

    @pytest.mark.parametrize("bad", ["nope", "non_iid", "", None, 3])
    def test_unknown_distribution_rejected_naming_the_field(self, bad):
        with pytest.raises(ValueError, match="^distribution must be one of"):
            ExperimentConfig(scenario=default_scenario(), distribution=bad)

    @pytest.mark.parametrize("spelling", ["iid", "IID", "noniid", "non-iid", "Non-IID"])
    def test_distribution_accepted_as_acc_pair_accepts_it(self, spelling):
        cfg = ExperimentConfig(scenario=default_scenario(), distribution=spelling)
        acc_pair(DEFAULT_TABLE, "VGG-8", "KD", cfg.distribution)


class TestEmission:
    def test_empty_report_emits_header_only(self, tmp_path):
        report = Report(method="proposed", seed=0, n_users=4,
                        model_names=("A", "B"), trials=[])
        trials_path, summary_path = emit_report(report, tmp_path)
        lines = trials_path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("trial,method,objective,avg_delay_s,acc_own,acc_avg,"
                                   "freq_A,freq_B")
        assert summary_dict(report)["objective_mean"] is None

    def test_reemission_is_byte_identical(self, tmp_path):
        rep = run_experiment(quick_cfg("fl-max", trials=4, episodes=200))
        emit_report(rep, tmp_path / "a")
        emit_report(rep, tmp_path / "b")
        for name in ("trials.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_column_order_and_row_count(self, tmp_path):
        rep = run_experiment(quick_cfg("fl-min", trials=3, episodes=100))
        rows = report_rows(rep)
        assert rows[0][:6] == ["trial", "method", "objective", "avg_delay_s",
                               "acc_own", "acc_avg"]
        assert len(rows) == 4
        n_models, n_users = 4, 4
        assert len(rows[0]) == 6 + n_models + 4 * n_users

    def test_summary_frequencies_sum_to_one(self):
        rep = run_experiment(quick_cfg("proposed", trials=6, episodes=300))
        freqs = summary_dict(rep)["model_frequencies"]
        assert sum(freqs.values()) == pytest.approx(1.0, abs=1e-9)
