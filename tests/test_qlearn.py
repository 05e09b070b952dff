import dataclasses
import json
import logging
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from fedkd import experiment, qlearn
from fedkd.accuracy import DEFAULT_TABLE, acc_pair
from fedkd.cli import main
from fedkd.config import scenario_from_dict
from fedkd.experiment import (
    ExperimentConfig,
    method_rows,
    method_spec,
    run_experiment,
    sample_scenario,
    training_reward,
    training_sampler,
)
from fedkd.model import (
    DEFAULT_CATALOG,
    ChannelSpec,
    Decision,
    InfeasibleError,
    ObjectiveWeights,
    Scenario,
    TeacherSpec,
    UserSpec,
    channel_gain,
    default_scenario,
    spectral_efficiency,
)
from fedkd.qlearn import (
    EXHAUSTIVE_CAP,
    QConfig,
    QTable,
    StreamReader,
    action_count,
    action_values,
    decode_action,
    digit_table,
    draw_builder,
    encode_state,
    exhaustive_optimum,
    scenario_draw,
    train_fixed_scenario,
    train_loop,
    update,
)

from conftest import make_scenario
from oracles import (
    GeneratorDraws,
    action_reward,
    decode_spec,
    encode_decision,
    epsilon_at,
    reward,
    select_action,
    train_every_episode,
    value,
    visits,
)


def kd_accs(sc):
    return [acc_pair(DEFAULT_TABLE, m.name, "KD", "noniid") for m in sc.catalog]


def method_reward(cfg, spec, accs):
    """cfg's training reward, on the rows of its method spec."""
    return training_reward(cfg.scenario, spec, method_rows(cfg.scenario, spec, accs), accs)


def train_static(sc, cfg, seed, accs):
    """The joint offload/model agent trained on one fixed scenario."""
    key = encode_state(sc, cfg)
    return train_loop(lambda _draws: (key, sc), cfg, seed, action_count(sc),
                      lambda draw, a: reward(draw, a, accs))


def stored_row(q, s):
    return {a: v for key, a, v, _ in q.entries() if key == s}


def scan_best(row):
    """Best stored (action, value) by a full scan, lowest index on ties."""
    best_a, best_v = None, -math.inf
    for a, v in row.items():
        if v > best_v or (v == best_v and a < best_a):
            best_a, best_v = a, v
    return best_a, best_v


def scan_greedy(q, s, n):
    """Reference greedy argmax: scan every stored entry of the row, and let
    the first unstored index stand for every unexplored action, which
    reads 0.  Lowest index wins ties."""
    row = stored_row(q, s)
    if not row:
        return 0
    best_a, best_v = scan_best(row)
    if len(row) < n:
        first_free = 0
        while first_free in row:
            first_free += 1
        if best_v < 0.0 or (best_v == 0.0 and first_free < best_a):
            return first_free
    return best_a


def step_by_lookups(q, s, a, target, lr):
    """The Q-update through value, visits and set, three lookups; returns
    whether the stored value changed, compared by its hex digits."""
    stored = a in stored_row(q, s)
    old = value(q, s, a)
    new = old + lr * (target - old)
    q.set(s, a, new, visits(q, s, a) + 1)
    return not stored or new.hex() != old.hex()


class ScanTable(QTable):
    """QTable whose greedy step is the reference scan and whose update goes
    through value, visits and set; counts the writes that lower the best
    stored entry of their row."""

    def __init__(self):
        super().__init__()
        self.lowered_best = 0

    def greedy_action(self, s, action_count):
        return scan_greedy(self, s, action_count)

    def step(self, s, a, target, lr):
        return step_by_lookups(self, s, a, target, lr)

    def set(self, s, a, value, visits):
        row = stored_row(self, s)
        if row and scan_best(row)[0] == a and value < row[a]:
            self.lowered_best += 1
        super().set(s, a, value, visits)


def train_both(monkeypatch, run):
    """Entries of run() with the production table and with ScanTable."""
    tables = []
    for cls in (QTable, ScanTable):
        monkeypatch.setattr(qlearn, "QTable", cls)
        tables.append(run())
    monkeypatch.undo()
    assert type(tables[0]) is QTable and type(tables[1]) is ScanTable
    return tables


ORACLE_LOG = logging.getLogger("test_qlearn.oracle")


def _quantize(value, lo, hi, bins):
    """Reference bin of value over [lo, hi): one call per component that
    reads its range afresh; hi maps to the top bin, and a value strictly
    outside the range is clamped to the boundary bin and logged."""
    if bins == 1:
        return 0
    if value < lo or value > hi:
        ORACLE_LOG.warning("state component %g outside configured range [%g, %g]; clamped",
                           value, lo, hi)
    idx = int(math.floor((value - lo) / (hi - lo) * bins))
    return min(max(idx, 0), bins - 1)


def _user_state(f_loc, h, ch, cfg):
    """Reference (f_loc bin, gain bin) of a user with gain h on channel ch:
    the gain range is log10 of g0 / d^gamma at the far and the near end of
    cfg.d_range."""
    (f_lo, f_hi), (d_lo, d_hi) = cfg.f_loc_range, cfg.d_range
    h_lo, h_hi = (math.log10(ch.g0 / d ** ch.gamma) for d in (d_hi, d_lo))
    return (_quantize(f_loc, f_lo, f_hi, cfg.f_bins),
            _quantize(math.log10(h), h_lo, h_hi, cfg.h_bins))


def oracle_key(f_loc, d, ch, cfg):
    """The reference state key of users at f_loc and d on channel ch."""
    return tuple(_user_state(f, channel_gain(dist, ch), ch, cfg) for f, dist in zip(f_loc, d))


def scenario_key(sc, cfg):
    return oracle_key([u.f_loc for u in sc.users], [u.d for u in sc.users], sc.channel, cfg)


def at(sc, f_loc, d):
    """sc with its users at CPU frequencies f_loc and distances d."""
    return dataclasses.replace(sc, users=tuple(
        dataclasses.replace(u, f_loc=f, d=dist) for u, f, dist in zip(sc.users, f_loc, d)))


def builder_and_oracle(caplog, sc, cfg, f_loc, d):
    """(key, clamp messages) of the state quantizer, reached through
    scenario_draw, and of the oracle for sc's users at f_loc and d."""
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        key, _ = scenario_draw(at(sc, f_loc, d), cfg)
        ref = oracle_key(f_loc, d, sc.channel, cfg)

    def messages(name):
        return [rec.getMessage() for rec in caplog.records if rec.name == name]

    return (key, messages("fedkd.qlearn")), (ref, messages(ORACLE_LOG.name))


class TestEncodeState:
    def test_single_bin_collapses_everything(self):
        cfg = QConfig(f_bins=1, h_bins=1)
        a = encode_state(make_scenario(seed=1), cfg)
        b = encode_state(make_scenario(seed=2), cfg)
        assert a == b

    def test_midpoint_maps_to_upper_bin(self):
        cfg = QConfig(f_bins=2, h_bins=2, f_loc_range=(0.5, 2.0))
        sc = make_scenario(n_users=1)
        user = sc.users[0].__class__(id=0, f_loc=1.25, d=sc.users[0].d)
        sc = sc.__class__(users=(user,), server=sc.server, channel=sc.channel,
                          catalog=sc.catalog, teacher=sc.teacher, weights=sc.weights)
        (f_bin, _), = encode_state(sc, cfg)
        assert f_bin == 1

    def test_sub_resolution_scenarios_share_a_key(self):
        cfg = QConfig(f_bins=4, h_bins=4)
        sc1 = make_scenario(n_users=1)
        u = sc1.users[0]
        sc2 = sc1.__class__(users=(u.__class__(id=0, f_loc=u.f_loc + 1e-6, d=u.d),),
                            server=sc1.server, channel=sc1.channel, catalog=sc1.catalog,
                            teacher=sc1.teacher, weights=sc1.weights)
        assert encode_state(sc1, cfg) == encode_state(sc2, cfg)

    def test_out_of_range_clamps_and_logs(self, caplog):
        cfg = QConfig(f_bins=4, h_bins=4, f_loc_range=(0.5, 2.0))
        sc = make_scenario(n_users=1)
        u = sc.users[0]
        sc = sc.__class__(users=(u.__class__(id=0, f_loc=99.0, d=u.d),),
                          server=sc.server, channel=sc.channel, catalog=sc.catalog,
                          teacher=sc.teacher, weights=sc.weights)
        with caplog.at_level(logging.WARNING, logger="fedkd.qlearn"):
            (f_bin, _), = encode_state(sc, cfg)
        assert f_bin == 3
        assert any("clamped" in rec.message for rec in caplog.records)

    def test_default_user_spread_hits_distinct_bins(self):
        key = encode_state(make_scenario(), QConfig())
        assert len(set(key)) > 1


#: The stock channel, whose gain range over the stock d_range is
#: (-9.6, -6.8), and two others.
CHANNELS = (ChannelSpec(), ChannelSpec(g0=1e-3), ChannelSpec(g0=3e-5, gamma=3.5))


class TestDrawBuilder:
    """The state quantizer's keys equal the per-component oracle's bit for
    bit, and it logs a clamp exactly when the oracle does; draw_builder
    maps uniforms through it as scenario_draw maps a sampled Scenario."""

    @pytest.mark.parametrize("ch", CHANNELS)
    def test_uniforms_map_as_the_sampled_scenario(self, ch):
        """draw_builder's (key, Draw) of 2 N uniforms equals scenario_draw's
        of the Scenario sample_scenario draws from the same generator state,
        at the stock ranges and at wider ones."""
        sc = dataclasses.replace(custom_template(), channel=ch)
        for cfg in (QConfig(f_bins=3, h_bins=3),
                    QConfig(f_loc_range=(0.3, 2.6), d_range=(6.0, 140.0))):
            build = draw_builder(sc, cfg)
            rng, ref_rng = (np.random.Generator(np.random.PCG64(17)) for _ in range(2))
            for _ in range(2000):
                key, draw = build(rng.random(2 * sc.n_users).tolist())
                ref_key, ref = scenario_draw(
                    sample_scenario(sc, ref_rng, cfg.f_loc_range, cfg.d_range), cfg)
                assert key == ref_key
                assert [v.hex() for v in draw.f_loc + draw.eff] == [
                    v.hex() for v in ref.f_loc + ref.eff]

    @pytest.mark.parametrize("f_bins, h_bins", [(4, 4), (2, 2), (3, 5), (1, 1), (1, 4), (4, 1)])
    def test_random_values(self, caplog, f_bins, h_bins):
        cfg = QConfig(f_bins=f_bins, h_bins=h_bins)
        rng = np.random.Generator(np.random.PCG64(f_bins * 10 + h_bins))
        for ch in CHANNELS:
            sc = dataclasses.replace(default_scenario(), channel=ch)
            clamped = 0
            for _ in range(500):
                # wider than the state ranges, so some components clamp
                f_loc = rng.uniform(0.2, 2.4, sc.n_users).tolist()
                d = rng.uniform(5.0, 160.0, sc.n_users).tolist()
                got, ref = builder_and_oracle(caplog, sc, cfg, f_loc, d)
                assert got == ref
                clamped += bool(ref[1])
            assert clamped > 0 or (f_bins == 1 and h_bins == 1)

    @pytest.mark.parametrize("bins", [1, 4])
    @pytest.mark.parametrize("end", ["lo", "hi", "below lo", "above hi"])
    @pytest.mark.parametrize("component", ["f_loc", "gain"])
    def test_range_ends(self, caplog, component, end, bins):
        """f_loc at the ends of f_loc_range and one ulp beyond them, or d at
        the ends of d_range and a millionth beyond them, on each channel;
        the far end of d_range is the low end of the gain range.  One bin
        never logs."""
        cfg = QConfig(f_bins=bins, h_bins=bins, f_loc_range=(0.7, 1.9), d_range=(15.0, 80.0))
        lo, hi = cfg.f_loc_range if component == "f_loc" else cfg.d_range
        if component == "f_loc":
            beyond_lo, beyond_hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        else:
            beyond_lo, beyond_hi = lo * (1 - 1e-6), hi * (1 + 1e-6)
        value = {"lo": lo, "hi": hi, "below lo": beyond_lo, "above hi": beyond_hi}[end]
        f, dist = (value, 37.0) if component == "f_loc" else (1.3, value)
        for ch in CHANNELS:
            sc = dataclasses.replace(make_scenario(n_users=1), channel=ch)
            got, ref = builder_and_oracle(caplog, sc, cfg, [f], [dist])
            assert got == ref
            f_bin, h_bin = ref[0][0]
            low_end = end in ("lo", "below lo")
            if component == "f_loc":
                assert f_bin == (0 if low_end else bins - 1)
            else:
                assert h_bin == (bins - 1 if low_end else 0)
            assert len(ref[1]) == (bins > 1 and end in ("below lo", "above hi"))

    def test_gain_range_of_one_value_takes_one_bin(self):
        """A path-loss exponent so small that the gain rounds to one value
        over d_range leaves no width to bin."""
        sc = dataclasses.replace(make_scenario(n_users=1), channel=ChannelSpec(gamma=1e-20))
        with pytest.raises(ValueError, match="d_range .* gives one log10 gain.*h_bins must be 1"):
            draw_builder(sc, QConfig(h_bins=2))
        assert draw_builder(sc, QConfig(h_bins=1))([1 / 3, 0.5])[0] == ((1, 0),)
        assert scenario_draw(at(sc, [1.0], [50.0]), QConfig(h_bins=1))[0] == ((1, 0),)

    @pytest.mark.parametrize("h_bins", [1, 2])
    def test_a_gain_that_rounds_to_zero_over_d_range_is_refused(self, h_bins):
        """g0 = 1e-320 leaves no gain at 100 m; log10 would fail with an
        error that names nothing."""
        sc = dataclasses.replace(make_scenario(n_users=1), channel=ChannelSpec(g0=1e-320))
        with pytest.raises(ValueError, match="gain at d = 100.0 m, the far end of d_range, "
                                             "rounds to 0"):
            draw_builder(sc, QConfig(h_bins=h_bins))

    @pytest.mark.parametrize("h_bins", [1, 2])
    def test_a_user_whose_own_gain_rounds_to_zero_is_refused(self, h_bins):
        """g0 = 1e-300 leaves a gain at the far end of d_range, 100 m, but
        none at a train-q user's 1e9 m, so it cannot transmit there;
        scenario_draw names the user and its distance.  n0 = 1e-300 leaves
        user 0 a positive efficiency at 50 m."""
        sc = dataclasses.replace(at(make_scenario(n_users=2), [1.0, 1.0], [50.0, 1e9]),
                                 channel=ChannelSpec(g0=1e-300, n0=1e-300))
        with pytest.raises(InfeasibleError, match=r"^user 1 has zero spectral efficiency "
                                                  r"at d = 1000000000.0 m$"):
            scenario_draw(sc, QConfig(h_bins=h_bins))

    @seed(20240301)
    @settings(max_examples=150, deadline=None, database=None)
    @given(st.floats(3e-20, 6e-20), st.floats(80.0, 125.0),
           st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=2, max_size=2))
    def test_an_accepted_template_can_transmit_on_every_draw(self, p, d_hi, u):
        """Powers near the point where the efficiency at the far end of
        d_range rounds to 0 on the stock channel (about 4.4e-20 W at
        100 m): an accepted template's draws, the farthest one included,
        all have a positive efficiency, and a refused one has none at the
        far end of the map."""
        sc = make_scenario(n_users=1)
        sc = dataclasses.replace(sc, users=(dataclasses.replace(sc.users[0], p=p),))
        cfg = QConfig(d_range=(10.0, d_hi))
        far = 10.0 + (d_hi - 10.0)
        try:
            build = draw_builder(sc, cfg)
        except InfeasibleError as exc:
            assert str(exc) == f"user 0 has zero spectral efficiency at d = {far} m"
            assert spectral_efficiency(p, channel_gain(far, sc.channel), sc.channel) == 0
            return
        for v in (u, [u[0], 1.0 - 2.0 ** -53]):
            assert build(v)[1].eff[0] > 0


class TestActionCoding:
    def test_roundtrip_bijection(self):
        n_users, n_models = 3, 2
        seen = set()
        for a in range((2 * n_models) ** n_users):
            dec = decode_action(a, n_users, n_models)
            assert encode_decision(dec, n_models) == a
            seen.add((dec.x, dec.m))
        assert len(seen) == (2 * n_models) ** n_users

    def test_action_count(self):
        assert action_count(make_scenario()) == (2 * 4) ** 4
        assert action_count(make_scenario(n_users=2, n_models=2)) == 16


class TestSelectAction:
    def test_greedy_picks_unique_max(self, rng):
        q = QTable()
        s = ((0, 0),)
        q.set(s, 3, 1.5, 1)
        q.set(s, 7, 0.9, 1)
        for _ in range(25):
            assert select_action(q, s, 0.0, rng, 16) == 3

    def test_empty_table_greedy_returns_first_action(self, rng):
        assert select_action(QTable(), ((0, 0),), 0.0, rng, 16) == 0

    def test_all_negative_values_prefer_unvisited(self, rng):
        q = QTable()
        s = ((0, 0),)
        q.set(s, 0, -4.0, 1)
        q.set(s, 1, -2.0, 1)
        assert select_action(q, s, 0.0, rng, 16) == 2

    def test_fully_visited_negative_row_picks_best(self, rng):
        q = QTable()
        s = ((0, 0),)
        for a in range(4):
            q.set(s, a, -1.0 * (a + 1), 1)
        assert select_action(q, s, 0.0, rng, 4) == 0

    def test_tie_breaks_to_lowest_index(self, rng):
        q = QTable()
        s = ((0, 0),)
        q.set(s, 5, 2.0, 1)
        q.set(s, 2, 2.0, 1)
        assert select_action(q, s, 0.0, rng, 16) == 2

    def test_epsilon_one_is_uniform(self):
        rng = np.random.Generator(np.random.PCG64(99))
        n, draws = 8, 100_000
        counts = np.zeros(n)
        q = QTable()
        for _ in range(draws):
            counts[select_action(q, ((0, 0),), 1.0, rng, n)] += 1
        expected = draws / n
        sigma = math.sqrt(draws * (1 / n) * (1 - 1 / n))
        assert np.abs(counts - expected).max() <= 3 * sigma


class TestReward:
    def test_accuracy_dominates_at_zero_cost_weights(self):
        weights = ObjectiveWeights(alpha_d=1e-9, beta_c=0, delta_b=0, eta_o=1.0, eta_a=0.25)
        sc = make_scenario(n_users=1, weights=weights)
        accs = kd_accs(sc)
        scores = [(accs[m][0] + 0.25 * accs[m][1], m) for m in range(4)]
        best_m = max(scores)[1]
        rewards = [reward(sc, encode_decision(Decision(x=(0,), m=(m,)), 4), accs)
                   for m in range(4)]
        assert int(np.argmax(rewards)) == best_m

    def test_inactive_label_payload_does_not_matter(self):
        # with both users on the server, the teacher-output payload never ships
        sc1 = make_scenario(n_users=2)
        sc2 = sc1.__class__(users=sc1.users, server=sc1.server, channel=sc1.channel,
                            catalog=sc1.catalog, teacher=TeacherSpec(mu_t=sc1.teacher.mu_t,
                                                                     theta_l=999.0),
                            weights=sc1.weights)
        a = encode_decision(Decision(x=(0, 0), m=(1, 2)), 4)
        accs = kd_accs(sc1)
        assert reward(sc1, a, accs) == reward(sc2, a, accs)

    def test_purity(self):
        sc = make_scenario(seed=6)
        accs = kd_accs(sc)
        a = encode_decision(Decision(x=(1, 0, 1, 0), m=(2, 1, 0, 3)), 4)
        assert reward(sc, a, accs) == reward(sc, a, accs)

    def test_matches_exhaustive_best(self):
        sc = make_scenario(n_users=1, n_models=2)
        accs = kd_accs(sc)
        best_dec, best_val = exhaustive_optimum(sc, accs)
        a = encode_decision(best_dec, 2)
        assert reward(sc, a, accs) == pytest.approx(-best_val, rel=1e-12)
        others = [reward(sc, idx, accs) for idx in range(action_count(sc))]
        assert max(others) == pytest.approx(-best_val, rel=1e-12)


class TestUpdate:
    def test_full_overwrite(self):
        q = QTable()
        cfg = QConfig(lr=1.0)
        q.set(((0, 0),), 0, 123.0, 1)
        assert update(q, ((0, 0),), 0, 7.0, cfg) is True
        assert value(q, ((0, 0),), 0) == 7.0

    def test_half_step_toward_terminal_reward(self):
        q = QTable()
        cfg = QConfig(lr=0.5)
        assert update(q, ((0, 0),), 0, 1.0, cfg) is True
        assert value(q, ((0, 0),), 0) == 0.5

    @pytest.mark.parametrize("lr", [0.2, 1.0])
    def test_a_stored_value_that_keeps_its_bits_only_counts_the_visit(self, lr):
        q = QTable()
        s = ((0, 0),)
        q.set(s, 2, -0.75, 3)
        assert update(q, s, 2, -0.75, QConfig(lr=lr)) is False
        assert list(q.entries()) == [(s, 2, -0.75, 4)]

    def test_a_new_entry_changes_the_table_even_at_its_old_reading(self):
        q = QTable()
        assert update(q, ((0, 0),), 1, 0.0, QConfig()) is True
        assert list(q.entries()) == [(((0, 0),), 1, 0.0, 1)]

    def test_a_signed_zero_that_flips_is_a_change(self):
        """-0.0 + lr * (-0.0 - -0.0) is +0.0: equal as a float, other bits."""
        q = QTable()
        s = ((0, 0),)
        q.set(s, 0, -0.0, 1)
        assert update(q, s, 0, -0.0, QConfig(lr=1.0)) is True
        (stored,) = [v for *_, v, _ in q.entries()]
        assert stored.hex() == "0x0.0p+0"
        assert update(q, s, 0, -0.0, QConfig(lr=1.0)) is False

    def test_add_visits_keeps_the_value(self):
        q = QTable()
        s = ((1, 0),)
        q.set(s, 5, 0.25, 2)
        q.add_visits(s, 5, 40)
        assert list(q.entries()) == [(s, 5, 0.25, 42)]
        assert q.greedy_action(s, 8) == 5

    def test_visits_increment(self):
        q = QTable()
        cfg = QConfig()
        update(q, ((0, 0),), 4, 1.0, cfg)
        update(q, ((0, 0),), 4, 1.0, cfg)
        assert visits(q, ((0, 0),), 4) == 2

    def test_geometric_contraction_to_reward(self):
        q = QTable()
        cfg = QConfig(lr=0.2)
        s, r = ((0, 0),), 0.7
        for _ in range(1000):
            update(q, s, 0, r, cfg)
        assert abs(value(q, s, 0) - r) < 1e-9

    def test_step_equals_value_visits_set_over_random_updates(self):
        """step reads its row once; the table it leaves, whether it says
        the value changed and every greedy action equal the three-lookup
        route's."""
        n = 6
        for seed in range(20):
            rng = np.random.Generator(np.random.PCG64(seed))
            fast, slow = QTable(), QTable()
            for _ in range(300):
                s = FUZZ_STATES[int(rng.integers(len(FUZZ_STATES)))]
                a = int(rng.integers(n))
                target = float(rng.choice([0.0, -0.0, -1.0, rng.normal(scale=2.0)]))
                lr = float(rng.choice([1.0, 0.5, 0.2]))
                got, want = fast.step(s, a, target, lr), step_by_lookups(slow, s, a, target, lr)
                assert got is want
                assert ([(key, b, v.hex(), k) for key, b, v, k in fast.entries()]
                        == [(key, b, v.hex(), k) for key, b, v, k in slow.entries()])
                for state in FUZZ_STATES:
                    assert (fast.greedy_action(state, n) == slow.greedy_action(state, n)
                            == scan_greedy(slow, state, n))

    def test_nonfinite_reward_rejected(self):
        with pytest.raises(ValueError):
            update(QTable(), ((0, 0),), 0, float("nan"), QConfig())


class TestTrain:
    def test_zero_episodes_gives_empty_table(self):
        sc = make_scenario(n_users=2, n_models=2)
        q = train_static(sc, QConfig(episodes=0), 0, kd_accs(sc))
        assert len(q) == 0

    def test_same_seed_is_bitwise_identical(self):
        sc = make_scenario(n_users=2, n_models=2)
        cfg = QConfig(episodes=400)
        runs = []
        for _ in range(2):
            runs.append(sorted(train_static(sc, cfg, 31, kd_accs(sc)).entries()))
        assert runs[0] == runs[1]

    def test_static_scenario_greedy_matches_exhaustive(self):
        sc = make_scenario(n_users=2, n_models=2, seed=17)
        accs = kd_accs(sc)
        best_dec, _ = exhaustive_optimum(sc, accs)
        cfg = QConfig(episodes=5000)
        q = train_static(sc, cfg, 5, accs)
        a = q.greedy_action(encode_state(sc, cfg), action_count(sc))
        assert decode_action(a, 2, 2) == best_dec

    def test_table_growth_bound(self):
        sc = make_scenario(n_users=2, n_models=2)
        cfg = QConfig(episodes=1000)
        q = train_static(sc, cfg, 8, kd_accs(sc))
        assert len(q) <= q.states * action_count(sc)

    @pytest.mark.parametrize("episodes", [-1, -5])
    def test_negative_episodes_rejected(self, episodes):
        with pytest.raises(ValueError, match=f"episodes must be >= 0, got {episodes}"):
            QConfig(episodes=episodes)

    def test_epsilon_schedule(self):
        cfg = QConfig(epsilon0=1.0, epsilon_decay=0.9, epsilon_floor=0.05)
        assert epsilon_at(cfg, 0) == 1.0
        assert epsilon_at(cfg, 1) == pytest.approx(0.9)
        assert epsilon_at(cfg, 1000) == 0.05

    @pytest.mark.parametrize("fields", [
        {}, {"episodes": 0}, {"episodes": 1}, {"epsilon_decay": 0.0}, {"epsilon_decay": 1.0},
        {"epsilon_floor": 0.0}, {"epsilon_floor": 1.0}, {"epsilon0": 0.0},
        {"epsilon_decay": 0.5, "epsilon_floor": 0.0, "episodes": 1200},
        {"epsilon_decay": 0.0, "epsilon_floor": 0.0}, {"epsilon_decay": 1.0, "epsilon_floor": 1.0},
    ])
    def test_epsilons_equal_epsilon_at_every_episode(self, fields):
        """Stock and edge schedules; at decay 0.5 and floor 0 the decaying
        values underflow to 0.0 before the last episode."""
        cfg = QConfig(**{"episodes": 8000, **fields})
        got = list(cfg.epsilons())
        assert [(type(e), e.hex()) for e in got] == [
            (type(e), e.hex()) for e in (epsilon_at(cfg, ep) for ep in range(cfg.episodes))]


class TestExhaustive:
    def test_single_decision_space(self):
        sc = make_scenario(n_users=1, n_models=1)
        dec, _ = exhaustive_optimum(sc, kd_accs(sc))
        assert dec == Decision(x=(0,), m=(0,)) or dec == Decision(x=(1,), m=(0,))

    def test_accuracy_weighted_argmax(self):
        weights = ObjectiveWeights(alpha_d=1e-9, beta_c=0, delta_b=0, eta_o=1.0, eta_a=0.0)
        sc = make_scenario(n_users=2, weights=weights)
        accs = kd_accs(sc)
        best_own = int(np.argmax([a for a, _ in accs]))
        dec, _ = exhaustive_optimum(sc, accs)
        assert dec.m == (best_own, best_own)

    def test_cap_refusal(self):
        sc = make_scenario(n_users=7, seed=0)
        assert action_count(sc) == 8 ** 7 > EXHAUSTIVE_CAP
        with pytest.raises(ValueError, match="cap"):
            exhaustive_optimum(sc, kd_accs(sc))


class TestQTableIO:
    def test_save_load_roundtrip(self, tmp_path):
        q = QTable()
        q.set(((0, 1), (2, 3)), 17, -1.25, 4)
        q.set(((1, 1), (0, 0)), 3, 0.5, 1)
        path = tmp_path / "table.tsv"
        q.save(path)
        loaded = QTable.load(path)
        assert sorted(loaded.entries()) == sorted(q.entries())

    @pytest.mark.parametrize("text, where", [
        ("", r"line 1: not save's header"),
        ("state\tvalue\n0,0\t1\t-0.5\t2\n", r"line 1: not save's header"),
        ("state\taction\tvalue\tvisits\n0,0\t1\t-0.5\t2\n1,2,3\t0\t-1.0\t1\n",
         r"line 3: not bin pairs"),
        ("state\taction\tvalue\tvisits\n0,0\t-1\t-0.5\t2\n", r"line 2: not bin pairs"),
        ("state\taction\tvalue\tvisits\n0,0\t1\t-0.5\t-2\n", r"line 2: not bin pairs"),
        ("state\taction\tvalue\tvisits\n0,0\t1\t-0.5\t2\n0,0\t1\t-9.0\t7\n",
         r"line 3: a second record of state \(\(0, 0\),\), action 1$"),
    ], ids=["empty", "header", "odd-state", "negative-action", "negative-visits",
            "repeated-entry"])
    def test_load_refuses_a_malformed_file_naming_the_file_line(self, tmp_path, text, where):
        path = tmp_path / "table.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, {where}"):
            QTable.load(path)

    def test_save_writes_entries_sorted_by_state_then_action(self, tmp_path):
        """Each state's key is formatted once, with the same bytes as one
        record per sorted entry."""
        q = QTable()
        rng = np.random.Generator(np.random.PCG64(6))
        for _ in range(300):
            s = tuple((int(rng.integers(3)), int(rng.integers(12))) for _ in range(2))
            q.set(s, int(rng.integers(40)), float(rng.choice([-0.0, 0.1, rng.normal()])),
                  int(rng.integers(1, 9)))
        q.save(tmp_path / "table.tsv")
        want = "state\taction\tvalue\tvisits\n" + "".join(
            f"{','.join(str(i) for pair in s for i in pair)}\t{a}\t{v!r}\t{n}\n"
            for s, a, v, n in sorted(q.entries()))
        assert (tmp_path / "table.tsv").read_bytes() == want.encode("utf-8")
        assert q.states > 10

    def test_save_is_deterministic(self, tmp_path):
        q = QTable()
        q.set(((0, 0),), 2, 1.0, 1)
        q.set(((0, 0),), 1, 2.0, 3)
        q.save(tmp_path / "a.tsv")
        q.save(tmp_path / "b.tsv")
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()


def train_encoding_every_episode(sampler, cfg, rng, n_actions, reward_fn):
    """Reference training loop over a Scenario sampler that computes the
    state key afresh every episode; also returns the scenarios the sampler
    drew."""
    draws = []

    def keyed(r):
        sc = sampler(r)
        draws.append(sc)
        return scenario_key(sc, cfg), sc

    return train_every_episode(keyed, cfg, rng, n_actions, reward_fn), draws


def wide_scenario():
    """20 users and one model: 2^20 joint actions, above the enumeration cap."""
    users = tuple(UserSpec(id=i, f_loc=0.5 + 0.07 * i, d=10.0 + 4.5 * i) for i in range(20))
    return dataclasses.replace(default_scenario(), users=users, catalog=DEFAULT_CATALOG[:1])


class TestFixedScenarioTraining:
    # 4096 actions: enumerated at 5000 episodes, scored per episode at 3000.
    @pytest.mark.parametrize("sc, episodes", [(make_scenario(seed=12), 5000),
                                              (make_scenario(seed=12), 3000),
                                              (wide_scenario(), 200)],
                             ids=["enumerated", "more-actions-than-episodes", "above-cap"])
    def test_trains_like_reward(self, sc, episodes, monkeypatch):
        """With no more actions than episodes the rewards are lookups into
        one enumeration on scenario_draw's Draw, which is not built again,
        otherwise digit_reward's; either way the table equals reward's."""
        accs = kd_accs(sc)
        cfg = QConfig(episodes=episodes)
        key = encode_state(sc, cfg)
        enumerated, enumerate_ = [], qlearn._enumerated
        monkeypatch.setattr(qlearn, "_enumerated",
                            lambda *a, **kw: enumerated.append(1) or enumerate_(*a, **kw))
        monkeypatch.setattr(qlearn, "_own_draw", lambda sc: pytest.fail("Draw rebuilt"))
        q, got_key = train_fixed_scenario(sc, accs, cfg, 4)
        assert enumerated == ([1] if action_count(sc) <= episodes else [])
        ref = train_loop(lambda _draws: (key, sc), cfg, 4, action_count(sc),
                         lambda draw, a: reward(draw, a, accs))
        assert got_key == key
        assert list(q.entries()) == list(ref.entries())
        assert len(q) > 100

    def test_the_wide_scenario_is_above_the_cap(self):
        assert action_count(wide_scenario()) == 2 ** 20 > EXHAUSTIVE_CAP

    def test_train_q_runs_above_the_enumeration_cap(self, tmp_path):
        users = [{"f_loc": 0.5 + 0.2 * i, "d": 10.0 + 12.0 * i} for i in range(7)]
        doc = {"users": users}
        assert action_count(scenario_from_dict(doc)) == 8 ** 7 > EXHAUSTIVE_CAP
        path = tmp_path / "seven.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "q"
        assert main(["train-q", "--config", str(path), "--seed", "1", "--episodes", "25",
                     "--out", str(out)]) == 0
        table = QTable.load(out / "qtable.tsv")
        (state,) = {s for s, _, _, _ in table.entries()}
        assert len(state) == 7
        assert sum(n for *_, n in table.entries()) == 25
        summary = json.loads((out / "train_summary.json").read_text(encoding="utf-8"))
        assert len(summary["greedy_x"]) == 7


def hex_entries(q):
    return [(s, a, v.hex(), n) for s, a, v, n in q.entries()]


def saved_bytes(q, path):
    q.save(path)
    return path.read_bytes()


class TestSkippedGreedySteps:
    """train_loop counts the visits of greedy steps that cannot change a
    value; its tables equal train_every_episode's, which picks, scores and
    updates every episode: every value and visit count, in the same
    order, and the same saved bytes.  train_loop reads its seed through a
    StreamReader; the oracle draws from Generator(PCG64(seed)) itself."""

    def assert_trains_like_every_episode(self, tmp_path, sampler, cfg, seed, n, reward_fn):
        got = train_loop(sampler, cfg, seed, n, reward_fn)
        want = train_every_episode(sampler, cfg, pcg64(seed), n, reward_fn)
        assert hex_entries(got) == hex_entries(want)
        assert saved_bytes(got, tmp_path / "got.tsv") == saved_bytes(want, tmp_path / "want.tsv")
        assert sum(n for *_, n in got.entries()) == cfg.episodes

    def fixed(self, tmp_path, sc, cfg, seed):
        """train_fixed_scenario against the reference loop on the scorer
        it picks: the reward vector, or digit_reward per episode."""
        accs = kd_accs(sc)
        key, draw = qlearn.scenario_draw(sc, cfg)
        n = action_count(sc)
        if n <= cfg.episodes:
            values = action_values(sc, accs).tolist()

            def reward_fn(_draw, a):
                return values[a]
        else:
            reward_fn = qlearn.digit_reward(
                sc, digit_table(sc, accs, qlearn.joint_digits(len(sc.catalog))))
        got, _ = train_fixed_scenario(sc, accs, cfg, seed)
        want = train_every_episode(lambda _draws: (key, draw), cfg, pcg64(seed), n, reward_fn)
        assert hex_entries(got) == hex_entries(want)
        assert saved_bytes(got, tmp_path / "got.tsv") == saved_bytes(want, tmp_path / "want.tsv")

    @pytest.mark.parametrize("lr", [0.2, 1.0])
    @pytest.mark.parametrize("schedule", [{}, {"epsilon0": 0.0}, {"epsilon_floor": 0.0},
                                          {"epsilon_decay": 0.99, "epsilon_floor": 0.0}])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_fixed_scenarios(self, tmp_path, lr, schedule, seed):
        sc = make_scenario(n_users=2 + seed % 3, n_models=2 + seed % 2, seed=100 + seed)
        self.fixed(tmp_path, sc, QConfig(lr=lr, episodes=2500, **schedule), seed)

    @pytest.mark.parametrize("lr", [0.2, 1.0])
    def test_digit_reward_route(self, tmp_path, lr):
        """4096 actions and 2000 episodes: digit_reward scores each step."""
        sc = make_scenario(seed=12)
        cfg = QConfig(lr=lr, episodes=2000, epsilon_decay=0.99)
        assert action_count(sc) > cfg.episodes
        self.fixed(tmp_path, sc, cfg, 3)

    @pytest.mark.parametrize("lr", [0.2, 1.0])
    def test_negative_rewards_store_new_actions_on_greedy_steps(self, tmp_path, lr):
        """Every reward is negative, so an unexplored action (read as 0)
        beats every stored one and greedy steps keep storing new entries."""
        sc = make_scenario(n_users=3, n_models=2,
                           weights=ObjectiveWeights(eta_o=0.0, eta_a=0.0), seed=8)
        cfg = QConfig(lr=lr, episodes=3000)
        self.fixed(tmp_path, sc, cfg, 5)
        q, _ = train_fixed_scenario(sc, kd_accs(sc), cfg, 5)
        assert len(q) == action_count(sc)

    @pytest.mark.parametrize("method", ["proposed", "q-only"])
    def test_redrawing_sampler(self, tmp_path, method):
        cfg = ExperimentConfig(scenario=default_scenario(), method=method, seed=4,
                               q=QConfig(f_bins=2, h_bins=2, episodes=1500, lr=1.0))
        spec = method_spec(cfg)
        accs = [acc_pair(DEFAULT_TABLE, m.name, spec.accuracy, cfg.distribution)
                for m in cfg.scenario.catalog]
        self.assert_trains_like_every_episode(
            tmp_path, training_sampler(cfg), cfg.q, 6, spec.n_actions,
            method_reward(cfg, spec, accs))

    def test_samplers_that_mix_keys_and_draws(self, tmp_path):
        """A skip armed on one (key, draw) pair serves neither another draw
        under the same key nor the same draw under another key, and equal
        keys that are new objects never arm it.  The two draws differ in
        sign, so a wrongly skipped step changes which action is greedy."""
        sc = make_scenario(n_users=2, n_models=2, seed=3)
        other = make_scenario(n_users=2, n_models=2, seed=3,
                              weights=ObjectiveWeights(eta_o=0.0, eta_a=0.0))
        cfg = QConfig(episodes=3000, lr=1.0)
        key, key2 = encode_state(sc, cfg), ((0, 0), (0, 0))
        assert key != key2
        accs, n = kd_accs(sc), action_count(sc)
        values = {id(d): action_values(d, accs).tolist() for d in (sc, other)}
        assert max(values[id(other)]) < 0.0 < min(values[id(sc)])

        def reward_fn(draw, a):
            return values[id(draw)][a]

        for sampler in (lambda r: (key, sc if r.random() < 0.5 else other),
                        lambda r: (key if r.random() < 0.5 else key2, sc),
                        lambda r: (tuple(list(key)), sc if r.random() < 0.9 else other),
                        lambda _r: (tuple(list(key)), sc)):
            self.assert_trains_like_every_episode(tmp_path, sampler, cfg, 2, n, reward_fn)

    def test_stock_train_q_scores_few_episodes(self, monkeypatch):
        """A stock 20000-episode train-q calls its reward for fewer than one
        episode in five, and greedy_action for fewer still."""
        calls = {"reward": 0, "greedy": 0}
        train = qlearn.train_loop

        def counting_train_loop(sampler, cfg, seed, n_actions, reward_fn):
            def counted(draw, a):
                calls["reward"] += 1
                return reward_fn(draw, a)
            return train(sampler, cfg, seed, n_actions, counted)

        greedy = QTable.greedy_action

        def counting_greedy(self, s, n):
            calls["greedy"] += 1
            return greedy(self, s, n)

        monkeypatch.setattr(qlearn, "train_loop", counting_train_loop)
        monkeypatch.setattr(QTable, "greedy_action", counting_greedy)
        sc = default_scenario()
        cfg = QConfig(episodes=20000)
        q, _ = train_fixed_scenario(sc, kd_accs(sc), cfg, 7)
        assert sum(n for *_, n in q.entries()) == cfg.episodes
        assert 0 < calls["reward"] < 0.2 * cfg.episodes
        assert 0 < calls["greedy"] < calls["reward"]


def pcg64(seed):
    """numpy's Generator on PCG64(seed), the oracle of StreamReader(seed)."""
    return np.random.Generator(np.random.PCG64(seed))


def seeded(kind, seed):
    """A seed of either kind StreamReader takes: seed itself, or the
    training child of SeedSequence(seed), as run_experiment spawns it."""
    return seed if kind == "int" else np.random.SeedSequence(seed).spawn(2)[1]


SEED_KINDS = ("int", "SeedSequence")

#: Bounds n of integers(n): n == 1 draws nothing, n <= 2**32 reads 32-bit
#: halves (n == 2**32 without Lemire's product), above that whole
#: outputs.  2**31 + 1 and 2**62 + 1 reject about half and a quarter of
#: their first products; 1296 = 6**4 and 4096 = 8**4 are action counts.
BOUNDS = (1, 2, 3, 7, 1296, 4096, 2 ** 31 + 1, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1,
          2 ** 36, 2 ** 62 + 1, 2 ** 63 - 1)


class TestStreamReader:
    """StreamReader(seed) against the same calls of numpy's own
    Generator(PCG64(seed)), for int and SeedSequence seeds: every value."""

    @pytest.mark.parametrize("kind", SEED_KINDS)
    @pytest.mark.parametrize("n", BOUNDS)
    def test_integers(self, n, kind):
        for seed in range(5):
            draws, ref = StreamReader(seeded(kind, seed)), pcg64(seeded(kind, seed))
            got = [draws.integers(n) for _ in range(600)]
            assert got == [int(ref.integers(n)) for _ in range(600)]
            assert draws.random() == ref.random()

    def test_rejections_happen(self):
        """1000 draws below 2**31 + 1 read more than 1000 halves: the next
        uniform is not the one of raw output 500."""
        draws, halves = StreamReader(1), pcg64(1)
        for _ in range(1000):
            draws.integers(2 ** 31 + 1)
        halves.bit_generator.advance(500)
        assert draws.random() != halves.random()

    @pytest.mark.parametrize("kind", SEED_KINDS)
    def test_uniforms(self, kind):
        for seed in range(5):
            draws, ref = StreamReader(seeded(kind, seed)), pcg64(seeded(kind, seed))
            got = [draws.random() for _ in range(300)]
            got += draws.uniforms(0) + draws.uniforms(5) + draws.uniforms(1000)
            want = [ref.random() for _ in range(300)] + ref.random(1005).tolist()
            assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize("kind", SEED_KINDS)
    @pytest.mark.parametrize("seed", range(8))
    def test_interleaved_reads_across_blocks(self, seed, kind):
        """A random mix of every read, many blocks long; the integer
        draws leave a 32-bit half in the buffer across uniforms, which
        skip it, and a later 32-bit draw reads it."""
        ops = random.Random(seed)
        draws = StreamReader(seeded(kind, seed))
        oracle = GeneratorDraws(pcg64(seeded(kind, seed)))
        for _ in range(400):
            op = ops.choice(("random", "uniforms", "integers"))
            arg = (() if op == "random" else (ops.randrange(0, 3 * qlearn.STREAM_BLOCK),)
                   if op == "uniforms" else (ops.choice(BOUNDS),))
            assert getattr(draws, op)(*arg) == getattr(oracle, op)(*arg)

    @pytest.mark.parametrize("n", [0, -3, 2 ** 63])
    def test_integers_out_of_range_are_refused(self, n):
        with pytest.raises(ValueError, match=str(n)):
            StreamReader(0).integers(n)

    def test_a_none_seed_is_refused(self):
        """numpy would seed from OS entropy; the run would not repeat."""
        with pytest.raises(ValueError, match="seed .*got None"):
            StreamReader(None)
        with pytest.raises(ValueError, match="seed .*got None"):
            train_loop(lambda _draws: (((0, 0),), None), QConfig(episodes=3), None, 4,
                       lambda draw, a: 0.0)


class TestSeeds:
    """A seed crosses the training API, and the runs equal the oracles in
    tests/oracles.py drawing from Generator(PCG64(seed)) themselves."""

    @pytest.mark.parametrize("seed", [0, 7, 2 ** 40 + 3, np.random.SeedSequence(5)])
    def test_train_fixed_scenario(self, seed):
        sc = make_scenario(n_users=3, n_models=2, seed=21)
        accs, cfg = kd_accs(sc), QConfig(episodes=1500)
        key = encode_state(sc, cfg)
        got, got_key = train_fixed_scenario(sc, accs, cfg, seed)
        want = train_every_episode(lambda _draws: (key, sc), cfg, pcg64(seed), action_count(sc),
                                   lambda draw, a: reward(draw, a, accs))
        assert got_key == key
        assert hex_entries(got) == hex_entries(want)

    @pytest.mark.parametrize("method", ["proposed", "q-only"])
    @pytest.mark.parametrize("seed", [0, 2 ** 40 + 3])
    def test_run_experiment(self, monkeypatch, method, seed):
        """SeedSequence(seed) spawns eval_ss and train_ss.  The run's table
        equals the every-episode oracle's on the Scenarios sample_scenario
        draws from Generator(PCG64(train_ss)), and each trial picks that
        table's greedy action on the Scenario it draws from
        Generator(PCG64(eval_ss))."""
        sc = default_scenario()
        cfg = ExperimentConfig(scenario=sc, method=method, seed=seed, trials=30,
                               q=QConfig(f_bins=2, h_bins=2, episodes=500))
        spec = method_spec(cfg)
        accs = [acc_pair(DEFAULT_TABLE, m.name, spec.accuracy, cfg.distribution)
                for m in sc.catalog]
        trained = []
        monkeypatch.setattr(experiment, "train_loop",
                            lambda *args: trained.append(train_loop(*args)) or trained[-1])
        rows = run_experiment(cfg).trials
        eval_ss, train_ss = np.random.SeedSequence(seed).spawn(2)
        want, _ = train_encoding_every_episode(
            lambda draws: sample_scenario(sc, draws.rng, cfg.q.f_loc_range, cfg.q.d_range),
            cfg.q, pcg64(train_ss), spec.n_actions,
            lambda draw, a: action_reward(draw, spec, a, accs))
        assert hex_entries(trained[0]) == hex_entries(want)
        eval_rng, keys = pcg64(eval_ss), set()
        for row in rows:
            draw = sample_scenario(sc, eval_rng, cfg.q.f_loc_range, cfg.q.d_range)
            key = scenario_key(draw, cfg.q)
            keys.add(key)
            dec = decode_spec(draw, spec, want.greedy_action(key, spec.n_actions))[0]
            assert (row.x, row.m) == (dec.x, dec.m)
        assert len(keys) > 1


def custom_template():
    """Three users with unequal p, a two-model subset of the stock catalog
    and a zero bandwidth price, so the bandwidth budget always binds."""
    users = tuple(UserSpec(id=i, f_loc=1.0, d=50.0, p=p) for i, p in enumerate((0.05, 0.1, 0.4)))
    base = default_scenario()
    return Scenario(users=users, server=base.server, channel=base.channel,
                    catalog=(DEFAULT_CATALOG[0], DEFAULT_CATALOG[3]), teacher=base.teacher,
                    weights=ObjectiveWeights(delta_b=0.0))


class TestTrainingDraws:
    @pytest.mark.parametrize("template", ["stock", "custom"])
    @pytest.mark.parametrize("method", ["proposed", "q-only", "fl-min", "fl-max"])
    def test_training_equals_redrawn_scenarios_encoded_every_episode(self, method, template):
        sc = default_scenario() if template == "stock" else custom_template()
        cfg = ExperimentConfig(scenario=sc, method=method, seed=3,
                               q=QConfig(f_bins=2, h_bins=2, episodes=500))
        spec = method_spec(cfg)
        accs = [acc_pair(DEFAULT_TABLE, m.name, spec.accuracy, cfg.distribution)
                for m in sc.catalog]
        ref, _ = train_encoding_every_episode(
            lambda draws: sample_scenario(sc, draws.rng, cfg.q.f_loc_range, cfg.q.d_range),
            cfg.q, np.random.Generator(np.random.PCG64(9)), spec.n_actions,
            lambda draw, a: action_reward(draw, spec, a, accs))
        q = train_loop(training_sampler(cfg), cfg.q, 9, spec.n_actions,
                       method_reward(cfg, spec, accs))
        assert list(q.entries()) == list(ref.entries())
        assert q.states > 1

    def test_every_draw_gets_its_own_key_from_one_gain_per_user(self, monkeypatch):
        """20000 sampler draws equal per-user rng.uniform calls from the same
        seed bit for bit, f_loc then d for each user in turn, with the
        oracle's key, at the stock ranges and at wider ones."""
        gains = []

        def counting_gain(d, ch):
            gains.append(d)
            return channel_gain(d, ch)

        monkeypatch.setattr(qlearn, "channel_gain", counting_gain)
        sc = custom_template()
        for f_loc_range, d_range in [((0.5, 2.0), (10.0, 100.0)), ((0.3, 2.6), (6.0, 140.0))]:
            cfg = ExperimentConfig(scenario=sc, q=QConfig(f_bins=3, h_bins=3,
                                                          f_loc_range=f_loc_range,
                                                          d_range=d_range))
            ref_rng = np.random.Generator(np.random.PCG64(11))
            refs = [tuple(zip(*((float(ref_rng.uniform(*f_loc_range)),
                                 float(ref_rng.uniform(*d_range))) for _ in sc.users)))
                    for _ in range(20000)]
            ref_keys = [oracle_key(f_loc, d, sc.channel, cfg.q) for f_loc, d in refs]
            sampler = training_sampler(cfg)
            gains.clear()
            draws = StreamReader(11)
            for k, ((f_loc, d), ref_key) in enumerate(zip(refs, ref_keys)):
                key, draw = sampler(draws)
                assert key == ref_key
                assert draw.f_loc == f_loc
                assert draw.eff == tuple(
                    spectral_efficiency(u.p, channel_gain(dist, sc.channel), sc.channel)
                    for u, dist in zip(sc.users, d))
                assert gains[k * sc.n_users:] == list(d)
            assert len(set(ref_keys)) > 1

    @pytest.mark.parametrize("ch", CHANNELS[1:])
    def test_experiment_on_another_channel_bins_without_clamping(self, caplog, ch):
        """The gain range follows the template's channel: neither training
        nor evaluation clamps a state component, and the gain bins of the
        training draws spread over every bin."""
        sc = dataclasses.replace(default_scenario(), channel=ch)
        cfg = ExperimentConfig(scenario=sc, seed=2, trials=20,
                               q=QConfig(f_bins=2, h_bins=2, episodes=800))
        with caplog.at_level(logging.WARNING, logger="fedkd.qlearn"):
            run_experiment(cfg)
        assert not caplog.records
        sampler = training_sampler(cfg)
        draws = StreamReader(4)
        h_bins = {h_bin for _ in range(200) for _, h_bin in sampler(draws)[0]}
        assert h_bins == {0, 1}

    @pytest.mark.parametrize("method", ["proposed", "fl-min", "fl-max"])
    def test_zero_delay_weight_still_raises_for_the_convex_methods(self, method):
        weights = ObjectiveWeights(alpha_d=0.0)
        cfg = ExperimentConfig(scenario=make_scenario(n_users=2, weights=weights),
                               method=method, trials=2, q=QConfig(episodes=10))
        with pytest.raises(ValueError, match="alpha_d must be > 0"):
            run_experiment(cfg)

    def test_zero_delay_weight_still_runs_q_only(self):
        weights = ObjectiveWeights(alpha_d=0.0)
        cfg = ExperimentConfig(scenario=make_scenario(n_users=2, weights=weights),
                               method="q-only", trials=2, q=QConfig(episodes=50))
        assert len(run_experiment(cfg).trials) == 2


FUZZ_STATES = (((0, 0),), ((0, 1),), ((1, 1),))


def fuzz_write(rng, q, n):
    """A random (state, action, value) write biased toward the cases the
    cached argmax must get right: signed zeros, ties, a lowered best."""
    s = FUZZ_STATES[int(rng.integers(len(FUZZ_STATES)))]
    row = stored_row(q, s)
    kind = int(rng.integers(6))
    if kind == 0 and row:  # lower the current best
        a, v = scan_best(row)
        return s, a, v - float(rng.choice([0.0, 0.5, 3.0]))
    a = int(rng.integers(n))
    if kind == 1:
        return s, a, float(rng.choice([0.0, -0.0]))
    if kind == 2 and row:  # tie with a stored value
        return s, a, row[int(rng.choice(list(row)))]
    if kind == 3:
        return s, a, float(rng.integers(-2, 3))
    return s, a, float(rng.normal(scale=2.0))


class TestCachedArgmax:
    @pytest.mark.parametrize("n", [1, 2, 4, 16])
    def test_random_writes_agree_with_the_scan(self, n):
        def write_and_check(s, a, v):
            q.set(s, a, v, 1)
            for state in FUZZ_STATES:
                assert q.greedy_action(state, n) == scan_greedy(q, state, n)

        for seed in range(40):
            rng = np.random.Generator(np.random.PCG64(seed))
            q = QTable()
            for _ in range(4 * n + 20):
                write_and_check(*fuzz_write(rng, q, n))
            for a in rng.permutation(n):  # fill the first row completely
                write_and_check(FUZZ_STATES[0], int(a), float(rng.normal()))
            assert len(stored_row(q, FUZZ_STATES[0])) == n
            for _ in range(2 * n):
                write_and_check(*fuzz_write(rng, q, n))

    def test_static_stock_scenario_trains_identically(self, monkeypatch):
        sc = default_scenario()
        accs = kd_accs(sc)
        cfg = QConfig(episodes=1500)
        fast, slow = train_both(monkeypatch, lambda: train_static(sc, cfg, 3, accs))
        assert list(fast.entries()) == list(slow.entries())

    def test_filled_row_with_lowered_best_trains_identically(self, monkeypatch):
        # every reward is negative, so greedy steps fill the row, then keep
        # lowering the best entry and the row is rescanned
        weights = ObjectiveWeights(eta_o=0.0, eta_a=0.0)
        sc = make_scenario(n_users=2, n_models=2, weights=weights, seed=4)
        accs = kd_accs(sc)
        cfg = QConfig(episodes=3000)
        fast, slow = train_both(monkeypatch, lambda: train_static(sc, cfg, 5, accs))
        assert list(fast.entries()) == list(slow.entries())
        assert len(fast) == action_count(sc)
        assert slow.lowered_best > 100

    def test_redrawn_scenarios_train_identically(self, monkeypatch):
        cfg = ExperimentConfig(scenario=default_scenario(), seed=7)
        spec = method_spec(cfg)
        accs = [acc_pair(DEFAULT_TABLE, m.name, "KD", cfg.distribution)
                for m in cfg.scenario.catalog]
        qcfg = QConfig(f_bins=2, h_bins=2, episodes=1500)

        cfg = dataclasses.replace(cfg, q=qcfg)

        def run():
            return train_loop(training_sampler(cfg), qcfg, 7, spec.n_actions,
                              method_reward(cfg, spec, accs))

        fast, slow = train_both(monkeypatch, run)
        assert list(fast.entries()) == list(slow.entries())
        assert fast.states > 1

    def test_loaded_table_has_the_same_greedy_actions(self, tmp_path):
        sc = make_scenario(n_users=2, n_models=2)
        accs = kd_accs(sc)
        n = action_count(sc)
        cfg = QConfig(episodes=600)

        def sampler(draws):
            u = draws.uniforms(2 * sc.n_users)
            draw = dataclasses.replace(sc, users=tuple(
                dataclasses.replace(user, f_loc=0.5 + 1.5 * f, d=10.0 + 90.0 * d)
                for user, f, d in zip(sc.users, u[0::2], u[1::2])))
            return encode_state(draw, cfg), draw

        q = train_loop(sampler, cfg, 2, n, lambda draw, a: reward(draw, a, accs))
        q.save(tmp_path / "table.tsv")
        loaded = QTable.load(tmp_path / "table.tsv")
        states = {s for s, _, _, _ in q.entries()}
        assert len(states) > 1
        for s in states:
            assert loaded.greedy_action(s, n) == q.greedy_action(s, n) == scan_greedy(q, s, n)


class TestNonFiniteValues:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_set_refuses_and_names_the_entry(self, bad):
        q = QTable()
        s = ((1, 2),)
        q.set(s, 0, -1.0, 1)
        with pytest.raises(ValueError, match=r"\(\(1, 2\),\).*action 3") as err:
            q.set(s, 3, bad, 1)
        assert repr(bad) in str(err.value)
        assert list(q.entries()) == [(s, 0, -1.0, 1)]
        assert q.greedy_action(s, 4) == 1

    def test_step_refuses_a_non_finite_result_and_keeps_the_entry(self):
        q = QTable()
        s = ((1, 2),)
        q.set(s, 0, -1e308, 1)
        with pytest.raises(ValueError, match=r"finite, got inf .*action 0"):
            q.step(s, 0, 1e308, 1.0)
        assert list(q.entries()) == [(s, 0, -1e308, 1)]

    def test_load_names_the_file_line(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text("state\taction\tvalue\tvisits\n"
                        "0,0\t1\t-0.5\t2\n"
                        "0,0\t2\tnan\t1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"line 3: .*nan"):
            QTable.load(path)
