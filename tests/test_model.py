import numpy as np
import pytest

from fedkd.model import (
    Allocation,
    ChannelSpec,
    Decision,
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

from conftest import make_scenario

CH = ChannelSpec(g0=1e-4, gamma=2.8, n0=1e-13)


class TestChannelGain:
    def test_unit_distance(self):
        assert channel_gain(1.0, CH) == 1e-4

    def test_ten_meters(self):
        # frozen from a 50-digit evaluation of 1e-4 / 10^2.8
        assert channel_gain(10.0, CH) == pytest.approx(1.5848931924611136e-07, rel=1e-12)

    def test_power_law_ratio(self):
        ratio = channel_gain(100.0, CH) / channel_gain(10.0, CH)
        assert ratio == pytest.approx(10 ** -2.8, rel=1e-12)

    def test_monotone_decreasing(self):
        assert channel_gain(10.0, CH) > channel_gain(10.001, CH)

    def test_gain_times_power_recovers_g0(self, rng):
        for _ in range(200):
            d = float(rng.uniform(1.0, 1000.0))
            assert channel_gain(d, CH) * d ** CH.gamma == pytest.approx(CH.g0, rel=1e-12)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            channel_gain(0.0, CH)
        with pytest.raises(ValueError):
            channel_gain(-3.0, CH)

    def test_overflowing_distance_refused_naming_distance_and_gamma(self):
        # 1e300 ** 2.8 overflows a float
        with pytest.raises(ValueError, match=r"distance 1e\+300 m .*gamma = 2\.8"):
            channel_gain(1e300, CH)


class TestTxRate:
    def test_unit_snr(self):
        # p*h/n0 = 1 -> log2(2) = 1, so the rate equals the bandwidth
        assert tx_rate(7.0, 0.1, 1e-12, CH) == pytest.approx(7.0, rel=1e-12)

    def test_zero_bandwidth(self):
        assert tx_rate(0.0, 0.5, 1e-6, CH) == 0.0

    def test_zero_power(self):
        assert tx_rate(5.0, 0.0, 1e-6, CH) == 0.0

    def test_reference_value(self):
        # frozen from a 50-digit evaluation of 10 * log2(1 + 1e4)
        assert tx_rate(10.0, 0.1, 1e-8, CH) == pytest.approx(132.87856641840543, rel=1e-12)

    def test_exact_linearity_in_bandwidth(self, rng):
        for _ in range(50):
            b = float(rng.uniform(0.1, 10.0))
            h = float(rng.uniform(1e-10, 1e-6))
            assert tx_rate(2 * b, 0.1, h, CH) == pytest.approx(2 * tx_rate(b, 0.1, h, CH),
                                                               rel=1e-15)

    def test_monotone_in_power_and_gain(self):
        base = tx_rate(5.0, 0.1, 1e-8, CH)
        assert tx_rate(5.0, 0.2, 1e-8, CH) > base
        assert tx_rate(5.0, 0.1, 2e-8, CH) > base


    @pytest.mark.parametrize("b, p, h, message", [
        (-1.5, 0.1, 1e-8, "bandwidth must be >= 0, got -1.5"),
        (float("nan"), 0.1, 1e-8, "bandwidth must be >= 0, got nan"),
        (5.0, -0.25, 1e-8, "power must be >= 0, got -0.25"),
        (5.0, 0.1, 0.0, "channel gain must be > 0, got 0.0"),
        (5.0, 0.1, -2e-09, "channel gain must be > 0, got -2e-09"),
    ])
    def test_error_messages_name_the_value(self, b, p, h, message):
        with pytest.raises(ValueError) as err:
            tx_rate(b, p, h, CH)
        assert str(err.value) == message


class TestDelays:
    F_LOC = 1.0
    M = ModelSpec(name="m", mu=6.83, theta_s=150.0)
    T = TeacherSpec(mu_t=30.0, theta_l=20.0)

    def test_teacher_delay(self):
        dl = delays(self.F_LOC, self.M, self.T, xi=0, fi=5.0, rate_i=10.0)
        assert dl.t_tea == 6.0

    def test_local_student_delay_at_unit_frequency(self):
        dl = delays(self.F_LOC, self.M, self.T, xi=1, fi=5.0, rate_i=10.0)
        assert dl.t_stu == pytest.approx(6.83, rel=1e-15)

    def test_server_training_sends_no_labels(self):
        dl = delays(self.F_LOC, self.M, self.T, xi=0, fi=5.0, rate_i=10.0)
        assert dl.t_label == 0.0

    def test_local_training_sends_labels(self):
        dl = delays(self.F_LOC, self.M, self.T, xi=1, fi=5.0, rate_i=10.0)
        assert dl.t_label == pytest.approx(2.0)
        assert dl.t_model == pytest.approx(15.0)

    def test_server_branch_ignores_local_frequency(self):
        a = delays(0.123, self.M, self.T, xi=0, fi=5.0, rate_i=10.0)
        b = delays(1.9, self.M, self.T, xi=0, fi=5.0, rate_i=10.0)
        assert a == b

    def test_local_branch_ignores_server_share_for_student(self):
        a = delays(self.F_LOC, self.M, self.T, xi=1, fi=2.0, rate_i=10.0)
        b = delays(self.F_LOC, self.M, self.T, xi=1, fi=8.0, rate_i=10.0)
        assert a.t_stu == b.t_stu
        assert a.t_tea != b.t_tea  # the teacher always runs on the share

    def test_zero_rate_is_infeasible(self):
        with pytest.raises(InfeasibleError):
            delays(self.F_LOC, self.M, self.T, xi=0, fi=5.0, rate_i=0.0)

    def test_nonpositive_share_rejected(self):
        with pytest.raises(ValueError):
            delays(self.F_LOC, self.M, self.T, xi=0, fi=0.0, rate_i=10.0)

    @pytest.mark.parametrize("fi, rate_i, error, message", [
        (0.0, 10.0, ValueError, "server CPU share must be > 0, got 0.0"),
        (-0.5, 10.0, ValueError, "server CPU share must be > 0, got -0.5"),
        (float("nan"), 10.0, ValueError, "server CPU share must be > 0, got nan"),
        (5.0, 0.0, InfeasibleError, "transmit rate 0.0 yields infinite delay"),
        (5.0, -3.25, InfeasibleError, "transmit rate -3.25 yields infinite delay"),
    ])
    def test_error_messages_name_the_value(self, fi, rate_i, error, message):
        with pytest.raises(error) as err:
            delays(self.F_LOC, self.M, self.T, xi=1, fi=fi, rate_i=rate_i)
        assert str(err.value) == message

    def test_total_sums_components(self):
        dl = delays(self.F_LOC, self.M, self.T, xi=1, fi=5.0, rate_i=10.0)
        assert dl.total() == pytest.approx(dl.t_tea + dl.t_stu + dl.t_label + dl.t_model)


def _single_user_scenario(weights: ObjectiveWeights) -> Scenario:
    # p*h/n0 = 1 so the rate equals the allocated bandwidth exactly
    ch = ChannelSpec(g0=1e-13, gamma=1.0, n0=1e-13)
    return Scenario(
        users=(UserSpec(id=0, f_loc=1.0, d=1.0, p=1.0),),
        server=ServerSpec(f_ser=5.0, b_max=40.0),
        channel=ch,
        catalog=(ModelSpec(name="m", mu=34.15, theta_s=20.0),),
        teacher=TeacherSpec(mu_t=30.0, theta_l=7.0),
        weights=weights,
    )


class TestObjective:
    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            ObjectiveWeights(alpha_d=0, beta_c=0, delta_b=0, eta_o=0, eta_a=0)

    def test_accuracy_only_reduction(self):
        sc = make_scenario(weights=ObjectiveWeights(alpha_d=0, beta_c=0, delta_b=0,
                                                    eta_o=1.0, eta_a=0))
        dec = Decision(x=(0, 0, 0, 0), m=(0, 1, 2, 3))
        al = Allocation(f=(2.5,) * 4, b=(2.5,) * 4)
        acc_own = [0.9019, 0.8, 0.7, 0.6]
        val = objective(sc, dec, al, acc_own, [0.5] * 4)
        assert val == pytest.approx(-sum(acc_own), rel=1e-12)

    def test_single_user_delay_sum(self):
        # t_tea = 30/5 = 6, t_stu = 34.15/5 = 6.83, t_model = 20/40 = 0.5,
        # x = 0 so no label transfer: objective = 6 + 6.83 + 0.5 = 13.33
        sc = _single_user_scenario(ObjectiveWeights(alpha_d=1.0, beta_c=0, delta_b=0,
                                                    eta_o=0, eta_a=0))
        val = objective(sc, Decision(x=(0,), m=(0,)), Allocation(f=(5.0,), b=(40.0,)),
                        [0.0], [0.0])
        assert val == pytest.approx(13.33, abs=1e-12)

    def test_compute_cost_term_is_allocation_independent(self):
        # t_tea * f = mu_t and (1 - x) * t_stu * f = (1 - x) * mu exactly
        sc = _single_user_scenario(ObjectiveWeights(alpha_d=0, beta_c=1.0, delta_b=0,
                                                    eta_o=0, eta_a=0))
        dec = Decision(x=(0,), m=(0,))
        a = objective(sc, dec, Allocation(f=(1.0,), b=(40.0,)), [0.0], [0.0])
        b = objective(sc, dec, Allocation(f=(4.5,), b=(40.0,)), [0.0], [0.0])
        assert a == pytest.approx(30.0 + 34.15, rel=1e-12)
        assert b == pytest.approx(a, rel=1e-12)

    def test_local_training_pays_teacher_compute_only(self):
        sc = _single_user_scenario(ObjectiveWeights(alpha_d=0, beta_c=1.0, delta_b=0,
                                                    eta_o=0, eta_a=0))
        val = objective(sc, Decision(x=(1,), m=(0,)), Allocation(f=(5.0,), b=(40.0,)),
                        [0.0], [0.0])
        assert val == pytest.approx(30.0, rel=1e-12)

    def test_strictly_decreasing_in_share_through_delay(self, rng):
        sc = make_scenario()
        dec = Decision(x=(0, 1, 0, 1), m=(0, 1, 2, 3))
        accs = [0.5] * 4
        for _ in range(20):
            f = rng.uniform(0.5, 2.0, size=4)
            b = rng.uniform(0.5, 2.0, size=4)
            base = objective(sc, dec, Allocation(f=tuple(f), b=tuple(b)), accs, accs)
            i = int(rng.integers(4))
            f2 = f.copy()
            f2[i] += 0.5
            bumped = objective(sc, dec, Allocation(f=tuple(f2), b=tuple(b)), accs, accs)
            assert bumped < base

    def test_mismatched_lengths_rejected(self):
        sc = make_scenario()
        dec = Decision(x=(0, 0, 0, 0), m=(0, 0, 0, 0))
        al = Allocation(f=(2.5,) * 4, b=(2.5,) * 4)
        with pytest.raises(ValueError):
            objective(sc, dec, al, [0.5] * 3, [0.5] * 4)
        with pytest.raises(ValueError):
            objective(sc, dec, Allocation(f=(2.5,) * 3, b=(2.5,) * 3), [0.5] * 4, [0.5] * 4)


class TestTypeInvariants:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ChannelSpec(g0=-1.0)
        with pytest.raises(ValueError):
            UserSpec(id=0, f_loc=0.0, d=10.0)
        with pytest.raises(ValueError):
            ModelSpec(name="m", mu=-1.0, theta_s=1.0)
        with pytest.raises(ValueError):
            TeacherSpec(mu_t=0.0)
        with pytest.raises(ValueError):
            ServerSpec(f_ser=-5.0)

    @pytest.mark.parametrize("x, m", [((0,), (0.5,)), ((0,), ("1",)), ((True,), (0,)),
                                      ((0,), (False,)), ((0.0,), (0,)), ("0", (0,))])
    def test_decision_refuses_non_integer_entries(self, x, m):
        with pytest.raises(ValueError, match="entries must be integers"):
            Decision(x=x, m=m)

    def test_decision_accepts_python_and_numpy_integers(self):
        dec = Decision(x=[np.int64(1), 0], m=np.array([3, 2]))
        assert dec == Decision(x=(1, 0), m=(3, 2))
        assert all(type(v) is int for v in dec.x + dec.m)

    def test_decision_validation(self):
        sc = make_scenario()
        with pytest.raises(ValueError):
            Decision(x=(0, 2, 0, 0), m=(0, 0, 0, 0))
        with pytest.raises(ValueError):
            Decision(x=(0, 0), m=(0, 0, 0))
        dec = Decision(x=(0, 0, 0, 0), m=(0, 0, 0, 9))
        with pytest.raises(ValueError):
            dec.validate(sc)

    def test_allocation_validation(self):
        with pytest.raises(ValueError):
            Allocation(f=(0.0, 1.0), b=(1.0, 1.0))
        al = Allocation(f=(9.0, 9.0), b=(1.0, 1.0))
        with pytest.raises(ValueError):
            al.validate(ServerSpec(f_ser=10.0, b_max=10.0))

    def test_validation_messages_name_the_values(self):
        sc = make_scenario()
        cases = [
            (lambda: UserSpec(id=3, f_loc=0.0, d=10.0), "UserSpec.f_loc must be > 0 (user 3)"),
            (lambda: UserSpec(id=3, f_loc=1.0, d=-1.0), "UserSpec.d must be > 0 (user 3)"),
            (lambda: UserSpec(id=3, f_loc=1.0, d=1.0, p=0.0), "UserSpec.p must be > 0 (user 3)"),
            (lambda: ModelSpec(name="m7", mu=0.0, theta_s=1.0), "ModelSpec.mu must be > 0 (m7)"),
            (lambda: ModelSpec(name="m7", mu=1.0, theta_s=0.0),
             "ModelSpec.theta_s must be > 0 (m7)"),
            (lambda: Decision(x=(0,), m=(0,)).validate(sc),
             "Decision covers 1 users, scenario has 4"),
            (lambda: Allocation(f=(9.0, 2.5), b=(1.0, 1.0)).validate(ServerSpec(f_ser=10.0)),
             "sum(f)=11.5 exceeds server budget 10.0"),
            (lambda: Allocation(f=(1.0, 1.0), b=(8.0, 2.5)).validate(ServerSpec(b_max=10.0)),
             "sum(b)=10.5 exceeds bandwidth budget 10.0"),
            (lambda: objective(sc, Decision(x=(0,) * 4, m=(0,) * 4),
                               Allocation(f=(1.0,) * 3, b=(1.0,) * 3), [0.5] * 4, [0.5] * 4),
             "Allocation covers 3 users, expected 4"),
            (lambda: objective(sc, Decision(x=(0,) * 4, m=(0,) * 4),
                               Allocation(f=(1.0,) * 4, b=(1.0,) * 4), [0.5] * 3, [0.5] * 4),
             "accuracy lists must have one entry per user (4)"),
        ]
        for build, message in cases:
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == message

    def test_scenario_requires_users_and_catalog(self):
        sc = default_scenario()
        with pytest.raises(ValueError):
            Scenario(users=(), server=sc.server, channel=sc.channel,
                     catalog=sc.catalog, teacher=sc.teacher, weights=sc.weights)
        with pytest.raises(ValueError):
            Scenario(users=sc.users, server=sc.server, channel=sc.channel,
                     catalog=(), teacher=sc.teacher, weights=sc.weights)

    def test_scenario_hashable_for_reward_caching(self):
        assert hash(default_scenario()) == hash(default_scenario())
