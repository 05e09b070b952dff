"""The closed-form decision evaluator against its scalar oracles.

exhaustive_optimum and the oracle decision_cost (tests/oracles.py) score
decisions from per-user sums without computing a split; allocate +
objective is the independent route they must agree with, on random
instances that reach both bandwidth branches and a zero bandwidth price.
action_values, which train-q trains on, must equal the oracle reward bit
for bit on every action, and the rewards the experiment methods train on
must equal the oracle action_reward on the same seeded draws.  Every
trial row of every method equals objective and the delay formulas on the
Scenario its seed draws, bit for bit.  The allocator's symmetries and
monotonicities and the config round-trip are checked on the same random
instances.
"""

import collections
import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings, strategies as st

import fedkd
from fedkd.accuracy import DEFAULT_TABLE, acc_pair
from fedkd.allocator import allocate, build_problem, kkt_residual
from fedkd import allocator, experiment, qlearn
from fedkd.config import dump_scenario, load_scenario
from fedkd.experiment import (
    ExperimentConfig,
    method_spec,
    run_experiment,
    sample_scenario,
)
from fedkd.model import (
    DEFAULT_CATALOG,
    Allocation,
    Decision,
    DelayBreakdown,
    InfeasibleError,
    ModelSpec,
    ObjectiveWeights,
    Scenario,
    ServerSpec,
    TeacherSpec,
    UserSpec,
    channel_gain,
    default_scenario,
    delays,
    objective,
    tx_rate,
)
from fedkd.qlearn import (
    EXHAUSTIVE_CAP,
    INFEASIBLE_REWARD,
    QConfig,
    QTable,
    action_count,
    action_values,
    digit_reward,
    digit_table,
    exhaustive_optimum,
    joint_digits,
    StreamReader,
    scenario_draw,
    train_loop,
)

from conftest import experiment_sampler, make_scenario
from oracles import (
    action_reward,
    brute_force_optimum,
    decision_cost,
    decision_reward,
    decode_spec,
    encode_decision,
    method_accs,
    reward,
    score_at_allocate,
)

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, database=None)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def instances(draw, n_users=st.integers(1, 4), n_models=st.integers(1, 4)):
    """(scenario, decision, accuracies) with the bandwidth price set so the
    decision lands on a chosen branch: zero price, binding budget, or
    interior optimum.  Other decisions of the same scenario fall on either
    side of the threshold."""
    n, n_m = draw(n_users), draw(n_models)
    users = tuple(UserSpec(id=i, f_loc=draw(_floats(0.5, 2.0)), d=draw(_floats(10.0, 100.0)),
                           p=draw(_floats(0.01, 1.0)))
                  for i in range(n))
    catalog = tuple(ModelSpec(name=f"m{j}", mu=draw(_floats(1.0, 20.0)),
                              theta_s=draw(_floats(10.0, 200.0)))
                    for j in range(n_m))
    weights = ObjectiveWeights(alpha_d=draw(_floats(1e-3, 1.0)), beta_c=draw(_floats(0.0, 0.01)),
                               delta_b=0.0, eta_o=draw(_floats(0.0, 1.0)),
                               eta_a=draw(_floats(0.0, 1.0)))
    sc = Scenario(users=users,
                  server=ServerSpec(f_ser=draw(_floats(1.0, 50.0)), b_max=draw(_floats(1.0, 50.0))),
                  channel=default_scenario().channel, catalog=catalog,
                  teacher=TeacherSpec(mu_t=draw(_floats(1.0, 20.0)),
                                      theta_l=draw(_floats(1.0, 50.0))),
                  weights=weights)
    dec = Decision(x=draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                   m=draw(st.lists(st.integers(0, n_m - 1), min_size=n, max_size=n)))
    accs = [(draw(_floats(0.0, 1.0)), draw(_floats(0.0, 1.0))) for _ in range(n_m)]

    branch = draw(st.sampled_from(["zero-price", "binding", "interior"]))
    if branch != "zero-price":
        # The budget binds iff S_d >= b_max * sqrt(delta_b), S_d = sum sqrt(d_i).
        s_d = sum(math.sqrt(d) for d in build_problem(sc, dec).d)
        ratio = draw(_floats(0.2, 0.95) if branch == "binding" else _floats(1.05, 5.0))
        delta_b = (ratio * s_d / sc.server.b_max) ** 2
        sc = dataclasses.replace(sc, weights=dataclasses.replace(weights, delta_b=delta_b))
    return sc, dec, accs, branch


@seed(20231103)
@PROPERTY_SETTINGS
@given(instances())
def test_evaluator_equals_objective_at_allocate(inst):
    sc, dec, accs, branch = inst
    res = allocate(sc, dec)
    budget_used = sum(res.allocation.b) / sc.server.b_max
    if branch == "interior":
        assert budget_used < 1.0
    else:
        assert budget_used == pytest.approx(1.0, rel=1e-12)
    assert kkt_residual(build_problem(sc, dec), res.allocation.f, res.allocation.b) < 1e-8
    zeros = [0.0] * sc.n_users
    assert decision_cost(sc, dec) == pytest.approx(
        objective(sc, dec, res.allocation, zeros, zeros), rel=1e-9)
    assert decision_reward(sc, dec, accs) == pytest.approx(-score_at_allocate(sc, dec, accs),
                                                           rel=1e-9, abs=1e-12)


@seed(20231104)
@PROPERTY_SETTINGS
@given(instances(n_users=st.integers(1, 3), n_models=st.integers(1, 3)))
def test_enumeration_matches_brute_force(inst):
    sc, _, accs, _ = inst
    dec, val = exhaustive_optimum(sc, accs)
    ref_dec, ref_val = brute_force_optimum(sc, accs)
    assert val == pytest.approx(ref_val, rel=1e-9, abs=1e-12)
    assert val == -reward(sc, encode_decision(dec, len(sc.catalog)), accs)
    if dec != ref_dec:
        # Only a tie (identical users, say) may split the two routes.
        assert score_at_allocate(sc, dec, accs) == pytest.approx(ref_val, rel=1e-12, abs=1e-12)


def _assert_action_values_equal_reward(sc, accs):
    """Every action's value, as exact float bits (signed zeros differ)."""
    values = action_values(sc, accs)
    assert values.shape == (action_count(sc),)
    assert [v.hex() for v in values.tolist()] == [
        reward(sc, a, accs).hex() for a in range(action_count(sc))]


@seed(20231105)
@settings(max_examples=80, deadline=None, database=None)
@given(instances(n_users=st.integers(1, 3), n_models=st.integers(1, 3)))
def test_action_values_equal_reward_bit_for_bit(inst):
    sc, _, accs, _ = inst
    _assert_action_values_equal_reward(sc, accs)


def test_action_values_equal_reward_bit_for_bit_on_the_stock_scenario():
    sc = default_scenario()
    _assert_action_values_equal_reward(
        sc, [acc_pair(DEFAULT_TABLE, m.name, "KD", "noniid") for m in sc.catalog])


def test_gains_add_left_to_right_on_every_route():
    """Gains 1.0, 1e-16, 1e-16 sum to 1.0 left to right but to 1 + 2^-52
    when compensated, as the builtin sum is from Python 3.12 on; every
    route must give the left-to-right reward.  The delay price is tiny, so
    the two sums still differ after the cost is subtracted."""
    weights = ObjectiveWeights(alpha_d=1e-9, beta_c=0.0, delta_b=0.0, eta_o=1.0, eta_a=0.0)
    sc = make_scenario(n_users=3, n_models=3, weights=weights)
    accs = [(1.0, 0.0), (1e-16, 0.0), (1e-16, 0.0)]
    dec = Decision(x=(0, 0, 0), m=(0, 1, 2))
    a = encode_decision(dec, 3)
    cost = decision_cost(sc, dec)
    left_to_right = -(cost - ((1.0 + 1e-16) + 1e-16))
    assert left_to_right != -(cost - math.fsum(g for g, _ in accs))
    _, draw = scenario_draw(sc, QConfig())
    assert decision_reward(sc, dec, accs) == left_to_right
    assert reward(sc, a, accs) == left_to_right
    assert digit_reward(sc, digit_table(sc, accs, joint_digits(3)))(draw, a) == left_to_right
    assert action_values(sc, accs)[a] == left_to_right


@pytest.mark.parametrize("draw", [None, 7])
def test_stock_sized_enumeration_matches_brute_force(draw):
    sc = default_scenario() if draw is None else make_scenario(seed=draw)
    accs = [acc_pair(DEFAULT_TABLE, m.name, "KD", "noniid") for m in sc.catalog]
    dec, val = exhaustive_optimum(sc, accs)
    ref_dec, ref_val = brute_force_optimum(sc, accs)
    assert dec == ref_dec
    assert val == pytest.approx(ref_val, rel=1e-9)


def test_ties_go_to_the_lowest_action_index():
    # Two copies of one model, under two names, tie exactly; m = 0 has the
    # lower indices.
    sc = make_scenario(n_users=2, n_models=1)
    twin = dataclasses.replace(sc.catalog[0], name=sc.catalog[0].name + " twin")
    sc = dataclasses.replace(sc, catalog=(sc.catalog[0], twin))
    accs = [acc_pair(DEFAULT_TABLE, sc.catalog[0].name, "KD", "noniid")] * 2
    dec, _ = exhaustive_optimum(sc, accs)
    assert dec.m == (0, 0)
    assert dec == brute_force_optimum(sc, accs)[0]


def _stranded_user_scenario():
    """User 1 is so far away that its spectral efficiency rounds to zero."""
    sc = make_scenario(n_users=2)
    far = dataclasses.replace(sc.users[1], d=1e10)
    return dataclasses.replace(sc, users=(sc.users[0], far))


def _rewards(sc, accs):
    """reward, action_values and the fixed-model baseline's reward of
    action 0."""
    fl_min = method_spec(ExperimentConfig(scenario=sc, method="fl-min"))
    return {"reward": lambda: reward(sc, 0, accs),
            "vector": lambda: action_values(sc, accs)[0],
            "xonly": lambda: action_reward(sc, fl_min, 0, accs)}


_STRANDED = r"^user 1 has zero spectral efficiency at d = 10000000000.0 m$"


@pytest.mark.parametrize("route", ["reward", "vector", "xonly"])
def test_infeasible_decision_earns_the_penalty(route):
    """The scalar oracles score a decision of a stranded user as the
    penalty; action_values refuses the scenario, as exhaustive_optimum
    does, naming the user and its distance."""
    sc = _stranded_user_scenario()
    accs = [acc_pair(DEFAULT_TABLE, m.name, "KD", "noniid") for m in sc.catalog]
    if route == "vector":
        with pytest.raises(InfeasibleError, match=_STRANDED):
            _rewards(sc, accs)[route]()
    else:
        assert _rewards(sc, accs)[route]() == INFEASIBLE_REWARD
    with pytest.raises(InfeasibleError, match=_STRANDED):
        exhaustive_optimum(sc, accs)


def _refused_before_any_trial(monkeypatch, method):
    """run_experiment of method with d_range (1e10, 1e10), where the users
    have no efficiency at any draw: the draw builder refuses the template
    before any training or trial."""
    monkeypatch.setattr(experiment, "train_loop", lambda *a: pytest.fail("trained"))
    monkeypatch.setattr(experiment, "_split", lambda *a: pytest.fail("a trial ran"))
    cfg = ExperimentConfig(scenario=make_scenario(n_users=2), method=method, trials=1,
                           q=QConfig(h_bins=1, d_range=(1e10, 1e10), episodes=20))
    with pytest.raises(InfeasibleError, match="^user 0 has zero spectral efficiency at "
                                              "d = 10000000000.0 m$"):
        run_experiment(cfg)


def test_exhaustive_method_refuses_a_stranded_evaluation_draw(monkeypatch):
    _refused_before_any_trial(monkeypatch, "exhaustive")


def test_proposed_method_refuses_a_stranded_evaluation_draw(monkeypatch):
    _refused_before_any_trial(monkeypatch, "proposed")


def test_action_values_refuse_a_stranded_user():
    """The oracle scores every action of a stranded user as the penalty,
    so no action is feasible: action_values refuses the scenario instead
    of returning a vector of penalties."""
    sc = _stranded_user_scenario()
    accs = [acc_pair(DEFAULT_TABLE, m.name, "KD", "noniid") for m in sc.catalog]
    assert {reward(sc, a, accs) for a in range(action_count(sc))} == {INFEASIBLE_REWARD}
    with pytest.raises(InfeasibleError, match=_STRANDED):
        action_values(sc, accs)


@pytest.mark.parametrize("method", ["proposed", "q-only", "fl-min", "fl-max"])
def test_a_stranded_template_is_refused_before_training(method, monkeypatch):
    """A template user with p = 1e-21 W has no efficiency beyond about
    26 m, so none at 100 m, the far end of d_range: run_experiment refuses
    it before train_loop is called."""
    sc = make_scenario(n_users=2)
    sc = dataclasses.replace(sc, users=(sc.users[0], dataclasses.replace(sc.users[1], p=1e-21)))
    monkeypatch.setattr(experiment, "train_loop", lambda *a: pytest.fail("trained"))
    with pytest.raises(InfeasibleError, match=r"^user 1 has zero spectral efficiency "
                                              r"at d = 100.0 m$"):
        run_experiment(ExperimentConfig(scenario=sc, method=method, trials=0))


@pytest.mark.parametrize("route", ["reward", "vector", "xonly"])
def test_other_value_errors_propagate(route):
    # alpha_d = 0 is a configuration error, not an infeasible decision
    weights = ObjectiveWeights(alpha_d=0.0, beta_c=0.001, delta_b=0.001, eta_o=1.0, eta_a=0.25)
    sc = make_scenario(n_users=2, weights=weights)
    accs = [acc_pair(DEFAULT_TABLE, m.name, "KD", "noniid") for m in sc.catalog]
    with pytest.raises(ValueError, match="alpha_d") as info:
        _rewards(sc, accs)[route]()
    assert not isinstance(info.value, InfeasibleError)


def test_qonly_scoring_errors_other_than_infeasibility_propagate():
    # An accuracy outside [0, 1] is a caller's bug, not an infeasible action.
    sc = make_scenario(n_users=2)
    spec = method_spec(ExperimentConfig(scenario=sc, method="q-only"))
    with pytest.raises(ValueError, match="acc_own") as info:
        action_reward(sc, spec, 0, [(1.5, 0.5)] * len(sc.catalog))
    assert not isinstance(info.value, InfeasibleError)


@pytest.mark.parametrize("accs, name", [((1.5, 0.5), "acc_own"), ((0.5, -0.1), "acc_avg")])
def test_qonly_scorer_refuses_accuracies_outside_the_unit_interval_when_built(accs, name):
    sc = make_scenario(n_users=2)
    cfg = ExperimentConfig(scenario=sc, method="q-only")
    accs = [accs] * len(sc.catalog)
    with pytest.raises(ValueError, match=name) as info:
        spec = method_spec(cfg)
        experiment._grid_reward(sc, spec.rows, spec.levels, accs)
    assert not isinstance(info.value, InfeasibleError)


# ---------------------------------------------------------------------------
# the training rewards of the experiment methods


def _qonly_within_budget(spec, n_users, n_models, pick):
    """A q-only action within both budgets: each resource's level counts
    are drawn until they fit, and x and m uniformly."""
    units, levels = [], spec.levels
    for _ in range(2):
        k = pick.integers(1, levels + 1, size=n_users)
        while k.sum() > levels:
            k = pick.integers(1, levels + 1, size=n_users)
        units.append(k.tolist())
    a = 0
    for kf, kb in reversed(list(zip(*units))):
        digit = (int(pick.integers(2)), int(pick.integers(n_models)), kf, kb)
        a = a * len(spec.digits) + spec.digits.index(digit)
    return a


def _reward_at(sc, spec, accs):
    """spec's training reward, built from the pieces method_spec builds
    it from, at accuracies accs of the caller's choice."""
    if spec.levels:
        return experiment._grid_reward(sc, spec.digits, spec.levels, accs)
    return qlearn.digit_reward(sc, qlearn.digit_table(sc, accs, spec.digits))


@seed(20231106)
@settings(max_examples=60, deadline=None, database=None)
@given(instances(n_users=st.integers(1, 3), n_models=st.integers(1, 3)),
       st.integers(0, 2 ** 32 - 1), st.booleans())
def test_training_rewards_equal_action_reward_bit_for_bit_on_seeded_draws(inst, draw_seed,
                                                                          stranded):
    """Each learning method's training reward of a Draw equals action_reward
    on the Scenario that sample_scenario draws from the same seed, for
    random templates: unequal p, zero and positive bandwidth prices, a
    one-model catalog.  Both the run's reward, at its published
    accuracies, and the same construction at the drawn accuracies in
    [0, 1] are checked.  q-only also scores 64 actions within both
    budgets, which uniform actions seldom are.  A template with a user
    whose spectral efficiency rounds to zero (stranded) has no feasible
    action on any draw, by the oracle, and its sampler is refused."""
    sc, _, accs, _ = inst
    sc = _stock_named(sc)
    if stranded:
        weak = dataclasses.replace(sc.users[0], p=1e-300)
        sc = dataclasses.replace(sc, users=(weak,) + sc.users[1:])
    for method in ("proposed", "fl-min", "fl-max", "q-only"):
        cfg = ExperimentConfig(scenario=sc, method=method)
        spec = method_spec(cfg)
        rewards = [(spec.reward_fn, spec.accs), (_reward_at(sc, spec, accs), accs)]
        ref_rng, pick = (np.random.Generator(np.random.PCG64(draw_seed)) for _ in range(2))
        if stranded:
            with pytest.raises(InfeasibleError, match="^user 0 has zero spectral efficiency "
                                                      "at d = 100.0 m$"):
                experiment_sampler(cfg)
            ref = sample_scenario(sc, ref_rng, cfg.q.f_loc_range, cfg.q.d_range)
            assert {action_reward(ref, spec, a, accs) for a in
                    pick.integers(spec.n_actions, size=64).tolist()} == {INFEASIBLE_REWARD}
            continue
        sampler = experiment_sampler(cfg)
        draws = StreamReader(draw_seed)
        for _ in range(2):
            _, draw = sampler(draws)
            ref = sample_scenario(sc, ref_rng, cfg.q.f_loc_range, cfg.q.d_range)
            actions = (list(range(spec.n_actions)) if spec.n_actions <= 64
                       else pick.integers(spec.n_actions, size=64).tolist())
            if method == "q-only":
                within = [_qonly_within_budget(spec, sc.n_users, len(sc.catalog), pick)
                          for _ in range(64)]
                assert all(decode_spec(ref, spec, a)[2] for a in within)
                actions += within
            for reward_fn, reward_accs in rewards:
                got = [reward_fn(draw, a) for a in actions]
                assert [r.hex() for r in got] == [
                    action_reward(ref, spec, a, reward_accs).hex() for a in actions]
                if method == "q-only":
                    assert INFEASIBLE_REWARD not in got[-64:]


def _count_constructions(monkeypatch):
    """A Counter of the Scenario, Decision and Allocation objects built
    from now on, by class name."""
    built = collections.Counter()
    for cls in (Scenario, Decision, Allocation):
        def counting(self, *args, _init=cls.__init__, **kwargs):
            built[type(self).__name__] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    return built


def test_qonly_training_builds_no_scenario_decision_or_allocation(monkeypatch):
    """Counts the constructor calls while train_loop runs with q-only's
    reward on the stock template, long enough that the greedy phase scores
    many actions within both budgets."""
    cfg = ExperimentConfig(scenario=default_scenario(), method="q-only")
    q = dataclasses.replace(cfg.q, episodes=4000)
    spec = method_spec(cfg)
    reward_fn = spec.reward_fn
    sampler = experiment_sampler(cfg)
    built = _count_constructions(monkeypatch)
    scored = []

    def scoring(draw, a):
        scored.append(reward_fn(draw, a))
        return scored[-1]

    train_loop(sampler, q, 3, spec.n_actions, scoring)
    assert not built
    assert sum(r != INFEASIBLE_REWARD for r in scored) > 1000
    decode_spec(cfg.scenario, spec, 0)    # the counters do see the oracle decoder
    assert built == {"Decision": 1, "Allocation": 1}


@pytest.mark.parametrize("method", experiment.METHODS)
def test_experiment_builds_no_scenario_decision_or_allocation(method, monkeypatch):
    """Counts the constructor calls of a whole run_experiment, training
    and trials: every pick stays rows of the method's digit table from the
    reward to the trial row."""
    cfg = ExperimentConfig(scenario=default_scenario(), method=method, seed=6, trials=25,
                           q=dataclasses.replace(experiment.EXPERIMENT_QCONFIG, episodes=300))
    built = _count_constructions(monkeypatch)
    assert len(run_experiment(cfg).trials) == cfg.trials
    assert not built


@pytest.mark.parametrize("method", experiment.METHODS)
def test_each_run_builds_its_rows_once(method, monkeypatch):
    """A method whose split is left open builds one qlearn.Digit per digit
    in a whole run, training and trials together; q-only's digits are
    its rows, so it builds none."""
    cfg = ExperimentConfig(scenario=default_scenario(), method=method, seed=6, trials=25,
                           q=dataclasses.replace(experiment.EXPERIMENT_QCONFIG, episodes=300))
    spec = method_spec(cfg)
    built, real = [], qlearn.Digit
    monkeypatch.setattr(qlearn, "Digit", lambda *a, **kw: built.append(a) or real(*a, **kw))
    assert len(run_experiment(cfg).trials) == cfg.trials
    assert len(built) == (0 if spec.levels else len(spec.digits))
    assert (method == "q-only") == (spec.levels == experiment.RESOURCE_LEVELS > 0)


@pytest.mark.parametrize("method", experiment.METHODS)
def test_each_run_makes_one_draw_builder(method, monkeypatch):
    """Training and the trials read their draws through the run's one
    qlearn.draw_builder."""
    made, real = [], experiment.draw_builder
    monkeypatch.setattr(experiment, "draw_builder",
                        lambda *a: made.append(a) or real(*a))
    cfg = ExperimentConfig(scenario=default_scenario(), method=method, seed=6, trials=5,
                           q=dataclasses.replace(experiment.EXPERIMENT_QCONFIG, episodes=200))
    assert len(run_experiment(cfg).trials) == cfg.trials
    assert made == [(cfg.scenario, cfg.q)]


# ---------------------------------------------------------------------------
# the trial rows against the scalar oracle


def _over_budget(spec, sc, al):
    """Whether q-only's grid levels of al exceed a budget, counted in
    whole levels as its decoder counts them."""
    levels = spec.levels
    return any(sum(round(v * levels / budget) for v in shares) > levels
               for shares, budget in ((al.f, sc.server.f_ser), (al.b, sc.server.b_max)))


@seed(20231112)
@settings(max_examples=40, deadline=None, database=None)
@given(instances(), st.integers(0, 2 ** 32 - 1), st.sampled_from(["noniid", "iid"]))
def test_trial_rows_equal_the_scalar_oracle_bit_for_bit(inst, run_seed, distribution):
    """Every method's report on a random template: each row's objective
    equals objective at the row's (x, m, f, b) on the Scenario that
    sample_scenario draws from the run's seed (1e6 for a q-only row over a
    budget), and its avg_delay_s the mean of the users' delays at
    tx_rate.  A trained q-only agent seldom picks an action over a
    budget, so q-only runs once more with uniform random greedy picks."""
    sc = inst[0]
    # The accuracy table knows the stock model names only.
    sc = dataclasses.replace(sc, catalog=tuple(
        dataclasses.replace(m, name=stock.name) for m, stock in zip(sc.catalog, DEFAULT_CATALOG)))
    q = dataclasses.replace(experiment.EXPERIMENT_QCONFIG, episodes=150)
    pick = np.random.Generator(np.random.PCG64(run_seed))
    for method, at_random in [(m, False) for m in experiment.METHODS] + [("q-only", True)]:
        cfg = ExperimentConfig(scenario=sc, method=method, seed=run_seed, trials=3,
                               distribution=distribution, q=q)
        spec = method_spec(cfg)
        accs = method_accs(cfg)
        eval_ss = np.random.SeedSequence(run_seed).spawn(2)[0]
        eval_rng = np.random.Generator(np.random.PCG64(eval_ss))
        with pytest.MonkeyPatch.context() as mp:
            if at_random:
                mp.setattr(QTable, "greedy_action", lambda _, key, n: int(pick.integers(n)))
            rows = run_experiment(cfg).trials
        assert len(rows) == cfg.trials
        for row in rows:
            draw = sample_scenario(sc, eval_rng, q.f_loc_range, q.d_range)
            dec, al = Decision(x=row.x, m=row.m), Allocation(f=row.f, b=row.b)
            if method == "q-only" and _over_budget(spec, draw, al):
                assert row.objective == -INFEASIBLE_REWARD
            else:
                assert row.objective == objective(draw, dec, al, [accs[m][0] for m in dec.m],
                                                  [accs[m][1] for m in dec.m])
            ch = draw.channel
            assert row.avg_delay_s == float(np.mean([
                delays(u.f_loc, draw.catalog[mi], draw.teacher, xi, fi,
                       tx_rate(bi, u.p, channel_gain(u.d, ch), ch)).total()
                for u, xi, mi, fi, bi in zip(draw.users, dec.x, dec.m, al.f, al.b)]))


@pytest.mark.parametrize("distribution", ["noniid", "iid"])
@pytest.mark.parametrize("method", experiment.METHODS)
def test_each_method_scores_with_its_published_accuracies(method, distribution):
    """fl-min and fl-max score with the FL records, the other methods
    with the KD ones, at the run's distribution."""
    cfg = ExperimentConfig(scenario=default_scenario(), method=method,
                           distribution=distribution)
    assert method_spec(cfg).accs == tuple(method_accs(cfg))


def _stock_named(sc):
    """sc with its catalog renamed to the stock models, the only names the
    accuracy table knows."""
    return dataclasses.replace(sc, catalog=tuple(
        dataclasses.replace(m, name=stock.name) for m, stock in zip(sc.catalog, DEFAULT_CATALOG)))


@pytest.mark.parametrize("users", [(1, 4), (9, 12)])
@seed(20231113)
@settings(max_examples=10, deadline=None, database=None)
@given(data=st.data())
def test_trial_splits_equal_allocate_on_the_sampled_scenario(users, data):
    """The split of every trial row of proposed, exhaustive, fl-min and
    fl-max is allocate's on the Scenario that sample_scenario draws from
    the run's seed, bit for bit, and exhaustive's decision is
    exhaustive_optimum's there.  From 9 users on, numpy's mean adds a
    row's values pairwise: the row means still equal np.mean's.
    exhaustive keeps one model when the joint actions exceed the cap."""
    sc = _stock_named(data.draw(instances(n_users=st.integers(*users)))[0])
    run_seed = data.draw(st.integers(0, 2 ** 32 - 1))
    q = dataclasses.replace(experiment.EXPERIMENT_QCONFIG, episodes=100)
    for method in ("proposed", "exhaustive", "fl-min", "fl-max"):
        template = sc
        if method == "exhaustive" and action_count(sc) > EXHAUSTIVE_CAP:
            template = dataclasses.replace(sc, catalog=sc.catalog[:1])
        cfg = ExperimentConfig(scenario=template, method=method, seed=run_seed, trials=3, q=q)
        accs = method_accs(cfg)
        eval_ss = np.random.SeedSequence(run_seed).spawn(2)[0]
        eval_rng = np.random.Generator(np.random.PCG64(eval_ss))
        for row in run_experiment(cfg).trials:
            draw = sample_scenario(template, eval_rng, q.f_loc_range, q.d_range)
            dec = Decision(x=row.x, m=row.m)
            if method == "exhaustive":
                assert dec == exhaustive_optimum(draw, accs)[0]
            al = allocate(draw, dec).allocation
            assert [v.hex() for v in row.f + row.b] == [v.hex() for v in al.f + al.b]
            assert row.objective == objective(draw, dec, al, [accs[m][0] for m in dec.m],
                                              [accs[m][1] for m in dec.m])
            ch = draw.channel
            assert row.avg_delay_s == float(np.mean([
                delays(u.f_loc, draw.catalog[mi], draw.teacher, xi, fi,
                       tx_rate(bi, u.p, channel_gain(u.d, ch), ch)).total()
                for u, xi, mi, fi, bi in zip(draw.users, dec.x, dec.m, al.f, al.b)]))
            assert (row.acc_own, row.acc_avg) == tuple(
                float(np.mean([accs[m][k] for m in dec.m])) for k in (0, 1))


@pytest.mark.parametrize("method", experiment.METHODS)
def test_evaluation_builds_no_scenario_and_calls_no_allocate(method, monkeypatch):
    """Every trial is evaluated from the builder's Draw: run_experiment
    calls neither sample_scenario nor allocate, under any module's name
    for them, and constructs no Scenario."""
    cfg = ExperimentConfig(scenario=default_scenario(), method=method, seed=4, trials=20,
                           q=dataclasses.replace(experiment.EXPERIMENT_QCONFIG, episodes=200))
    calls = collections.Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for module in (experiment, allocator, fedkd):
        for name in ("sample_scenario", "allocate"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    monkeypatch.setattr(Scenario, "__init__", counting("Scenario", Scenario.__init__))
    assert len(run_experiment(cfg).trials) == cfg.trials
    assert not calls


@pytest.mark.parametrize("n", list(range(1, 41)) + [64, 129, 300])
def test_row_means_equal_numpy_mean_of_each_row(n):
    """The trial rows' means over n users, computed for all trials at once,
    equal np.mean of each row's list bit for bit: left to right below 8
    users, pairwise from 8.  freq counts each model's users."""
    rnd = random.Random(n)
    template = dataclasses.replace(default_scenario(), users=tuple(
        UserSpec(id=i, f_loc=1.0, d=50.0) for i in range(n)))
    n_models = len(template.catalog)
    accs = [(rnd.random(), rnd.random()) for _ in range(n_models)]

    def positive():
        return rnd.random() * 10 ** rnd.uniform(-3, 3)

    evaluated = []
    for _ in range(7):
        dec = Decision(x=[rnd.randrange(2) for _ in range(n)],
                       m=[rnd.randrange(n_models) for _ in range(n)])
        al = Allocation(f=[positive() for _ in range(n)], b=[positive() for _ in range(n)])
        dls = [DelayBreakdown(*(positive() for _ in range(4))) for _ in range(n)]
        evaluated.append((dec.x, dec.m, al.f, al.b, positive(), dls))
    rows = experiment._trial_results(template, accs, evaluated)
    assert len(rows) == len(evaluated)
    for t, (row, (x, m, f, b, cost, dls)) in enumerate(zip(rows, evaluated)):
        dec = Decision(x=x, m=m)
        assert (row.trial, row.objective, row.x, row.m, row.f, row.b) == (t, cost, x, m, f, b)
        assert row.avg_delay_s == float(np.mean([dl.total() for dl in dls]))
        assert row.acc_own == float(np.mean([accs[m][0] for m in dec.m]))
        assert row.acc_avg == float(np.mean([accs[m][1] for m in dec.m]))
        assert row.freq == tuple(float(c) / n for c in np.bincount(dec.m, minlength=n_models))


# ---------------------------------------------------------------------------
# allocator symmetries and monotonicities, config round-trip


def _shares(sc, dec):
    al = allocate(sc, dec).allocation
    return al.f, al.b


@seed(20231107)
@PROPERTY_SETTINGS
@given(instances(), st.randoms(use_true_random=False))
def test_permuting_users_permutes_the_split(inst, rnd):
    sc, dec, _, _ = inst
    perm = list(range(sc.n_users))
    rnd.shuffle(perm)
    moved = dataclasses.replace(sc, users=tuple(sc.users[i] for i in perm))
    f, b = _shares(sc, dec)
    pf, pb = _shares(moved, Decision(x=[dec.x[i] for i in perm], m=[dec.m[i] for i in perm]))
    assert pf == pytest.approx([f[i] for i in perm], rel=1e-12)
    assert pb == pytest.approx([b[i] for i in perm], rel=1e-12)


@seed(20231108)
@PROPERTY_SETTINGS
@given(instances(), _floats(0.1, 10.0))
def test_scaling_f_ser_scales_f(inst, k):
    sc, dec, _, _ = inst
    scaled = dataclasses.replace(sc, server=dataclasses.replace(sc.server,
                                                                f_ser=k * sc.server.f_ser))
    f, b = _shares(sc, dec)
    kf, kb = _shares(scaled, dec)
    assert kf == pytest.approx([k * v for v in f], rel=1e-12)
    assert kb == b


@seed(20231109)
@PROPERTY_SETTINGS
@given(instances(), _floats(0.1, 1.0))
def test_scaling_a_binding_b_max_scales_b(inst, k):
    """A budget that binds still binds when it shrinks (S_d >= b_max sqrt(delta_b))."""
    sc, dec, _, branch = inst
    assume(branch != "interior")
    scaled = dataclasses.replace(sc, server=dataclasses.replace(sc.server,
                                                                b_max=k * sc.server.b_max))
    f, b = _shares(sc, dec)
    kf, kb = _shares(scaled, dec)
    assert kb == pytest.approx([k * v for v in b], rel=1e-12)
    assert sum(kb) == pytest.approx(scaled.server.b_max, rel=1e-12)
    assert kf == f


@seed(20231110)
@PROPERTY_SETTINGS
@given(instances(n_users=st.integers(1, 3), n_models=st.integers(1, 3)),
       _floats(1.0, 10.0), _floats(1.0, 10.0))
def test_optimum_never_rises_with_more_server_resources(inst, kf, kb):
    sc, _, accs, _ = inst
    _, base = exhaustive_optimum(sc, accs)
    for server in (ServerSpec(f_ser=kf * sc.server.f_ser, b_max=sc.server.b_max),
                   ServerSpec(f_ser=sc.server.f_ser, b_max=kb * sc.server.b_max),
                   ServerSpec(f_ser=kf * sc.server.f_ser, b_max=kb * sc.server.b_max)):
        _, richer = exhaustive_optimum(dataclasses.replace(sc, server=server), accs)
        assert richer <= base + 1e-12 * abs(base)


@seed(20231111)
@PROPERTY_SETTINGS
@given(instances())
def test_config_dump_load_round_trips_random_scenarios(inst):
    sc = inst[0]
    assert load_scenario(dump_scenario(sc)) == sc
