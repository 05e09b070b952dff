import dataclasses
import math
import re

import numpy as np
import pytest

from fedkd import allocator
from fedkd.allocator import (
    allocate,
    allocate_share,
    build_problem,
    cost_from_sums,
    fb_objective,
    fb_objective_via_delays,
    grid_oracle,
    kkt_residual,
)
from fedkd.model import BUDGET_RTOL, RESOURCE_FLOOR, Decision, ObjectiveWeights, ServerSpec

from conftest import make_scenario
from oracles import decision_cost, left_to_right


def random_instance(seed, n_users=4):
    rng = np.random.Generator(np.random.PCG64(seed))
    sc = make_scenario(n_users=n_users, seed=seed)
    dec = Decision(x=tuple(int(v) for v in rng.integers(2, size=n_users)),
                   m=tuple(int(v) for v in rng.integers(len(sc.catalog), size=n_users)))
    return sc, dec


class TestBuildProblem:
    def test_server_training_adds_student_compute(self):
        sc = make_scenario(n_users=1)
        on_server = build_problem(sc, Decision(x=(0,), m=(2,)))
        local = build_problem(sc, Decision(x=(1,), m=(2,)))
        w, mu = sc.weights.alpha_d, sc.catalog[2].mu
        assert on_server.c[0] == pytest.approx(w * (sc.teacher.mu_t + mu))
        assert local.c[0] == pytest.approx(w * sc.teacher.mu_t)

    def test_local_training_adds_label_payload(self):
        sc = make_scenario(n_users=1)
        on_server = build_problem(sc, Decision(x=(0,), m=(2,)))
        local = build_problem(sc, Decision(x=(1,), m=(2,)))
        ratio = local.d[0] / on_server.d[0]
        expected = (sc.teacher.theta_l + sc.catalog[2].theta_s) / sc.catalog[2].theta_s
        assert ratio == pytest.approx(expected, rel=1e-12)

    def test_zero_delay_weight_rejected(self):
        weights = ObjectiveWeights(alpha_d=0.0, beta_c=0.001, delta_b=0.001,
                                   eta_o=1.0, eta_a=0.25)
        sc = make_scenario(weights=weights)
        with pytest.raises(ValueError):
            build_problem(sc, Decision(x=(0,) * 4, m=(0,) * 4))

    def test_constant_plus_fb_matches_fixed_decision_objective(self):
        # the reported constant covers exactly the terms the split leaves out
        sc, dec = random_instance(5)
        prob = build_problem(sc, dec)
        res = allocate(sc, dec)
        from fedkd.model import objective
        full = objective(sc, dec, res.allocation, [0.0] * 4, [0.0] * 4)
        assert full == pytest.approx(prob.constant + res.objective_fb, rel=1e-9)


# Each 1e-16 is below half an ulp of 1.0, so added left to right these
# terms sum to 1.0; the correctly rounded sum, which a compensated sum such
# as the builtin sum of Python 3.12+ gives, is 1.0000000000000002.
TERMS = (1.0, 1e-16, 1e-16)


class TestLeftToRightSums:
    """The allocator adds per-user terms left to right, in the oracle
    decision_cost's order, so it agrees with it and cost_from_sums on every
    Python version.  A compensated sum stands in for the builtin here, as
    on Python 3.12+."""

    @pytest.fixture(autouse=True)
    def compensated_builtin_sum(self, monkeypatch):
        monkeypatch.setattr(allocator, "sum", math.fsum, raising=False)

    def test_the_terms_tell_the_two_sums_apart(self):
        assert left_to_right(TERMS) == 1.0 != math.fsum(TERMS)
        roots = [math.sqrt(t * t) for t in TERMS]
        assert left_to_right(roots) != math.fsum(roots)

    def test_build_problem_constant(self, monkeypatch):
        """Model m's factors make a user's const_i TERMS[m] and its c_i 1."""
        sc = make_scenario(n_users=3)
        monkeypatch.setattr(allocator, "digit_factors",
                            lambda sc, x, m: (0.0, TERMS[m], 1.0, 1.0))
        dec = Decision(x=(0, 0, 0), m=(0, 1, 2))
        prob = build_problem(sc, dec)
        assert prob.constant == left_to_right(TERMS)
        assert prob.c == (1.0, 1.0, 1.0)
        assert decision_cost(sc, dec) == (
            cost_from_sums(sc, prob.constant, 3.0, left_to_right(math.sqrt(d) for d in prob.d)))

    def test_allocate_compute(self):
        c = [t * t for t in TERMS]
        roots = [math.sqrt(ci) for ci in c]
        total = left_to_right(roots)
        assert allocate_share(c, 0.0, 5.0) == [5.0 * r / total for r in roots]

    def test_fb_objective(self):
        """Unit shares and a zero price make each sum's terms TERMS."""
        prob = allocator.AllocProblem(c=TERMS, d=TERMS, delta_b=0.0, f_ser=3.0, b_max=3.0,
                                      constant=0.0)
        ones = [1.0] * len(TERMS)
        assert fb_objective(prob, ones, ones) == left_to_right(TERMS) + left_to_right(TERMS)

    def test_allocate_bandwidth_takes_the_branch_of_cost_from_sums(self):
        """The left-to-right sum of the roots is below the budget threshold
        b_max * sqrt(delta_b), the correctly rounded one is at or above it:
        the split stays interior, as cost_from_sums' test decides.  At this
        price the binding split differs in the last bit."""
        d = [t * t for t in TERMS]
        roots = [math.sqrt(di) for di in d]
        delta_b, b_max = float.fromhex("0x1.c71c71c71c721p-4"), 3.0
        root_price = math.sqrt(delta_b)
        assert left_to_right(roots) < b_max * root_price <= math.fsum(roots)
        interior = [r / root_price for r in roots]
        assert interior != [b_max * r / math.fsum(roots) for r in roots]
        assert allocate_share(d, delta_b, b_max) == interior


class TestAllocateCompute:
    """allocate_share at price 0, the server CPU split."""

    def test_symmetric_equal_split(self):
        assert allocate_share([3.7] * 4, 0.0, 10.0) == pytest.approx([2.5] * 4)

    def test_one_to_four_ratio(self):
        f = allocate_share([1.0, 4.0], 0.0, 3.0)
        assert f[0] == pytest.approx(1.0, abs=1e-9)
        assert f[1] == pytest.approx(2.0, abs=1e-9)

    def test_single_user_takes_everything(self):
        assert allocate_share([0.42], 0.0, 7.5) == pytest.approx([7.5])

    def test_budget_binds(self, rng):
        for _ in range(20):
            c = rng.uniform(0.1, 5.0, size=5)
            f = allocate_share(list(c), 0.0, 10.0)
            assert sum(f) == pytest.approx(10.0, rel=1e-12)

    def test_scale_covariance(self, rng):
        c = list(rng.uniform(0.1, 5.0, size=4))
        base = allocate_share(c, 0.0, 10.0)
        scaled = allocate_share([37.5 * ci for ci in c], 0.0, 10.0)
        assert scaled == pytest.approx(base, rel=1e-9)

    def test_contract_errors(self):
        with pytest.raises(ValueError):
            allocate_share([], 0.0, 10.0)
        with pytest.raises(ValueError):
            allocate_share([1.0, -2.0], 0.0, 10.0)
        with pytest.raises(ValueError):
            allocate_share([1.0], 0.0, 0.0)


class TestAllocateBandwidth:
    """allocate_share at a bandwidth price delta_b >= 0."""

    def test_symmetric_binding_split(self):
        b = allocate_share([9.0, 9.0], 1e-9, 10.0)
        assert b == pytest.approx([5.0, 5.0], rel=1e-6)

    def test_interior_optimum(self):
        # sqrt(1/1) = 1 fits well inside the budget
        assert allocate_share([1.0], 1.0, 10.0) == pytest.approx([1.0], rel=1e-12)

    def test_one_to_four_with_negligible_price(self):
        b = allocate_share([1.0, 4.0], 1e-6, 3.0)
        assert b[0] == pytest.approx(1.0, rel=1e-4)
        assert b[1] == pytest.approx(2.0, rel=1e-4)

    def test_zero_price_budget_binds(self, rng):
        for _ in range(20):
            d = list(rng.uniform(0.1, 5.0, size=4))
            b = allocate_share(d, 0.0, 10.0)
            assert sum(b) == pytest.approx(10.0, rel=1e-8)

    def test_contract_errors(self):
        with pytest.raises(ValueError):
            allocate_share([], 1.0, 10.0)
        with pytest.raises(ValueError):
            allocate_share([1.0, 0.0], 1.0, 10.0)
        with pytest.raises(ValueError):
            allocate_share([1.0], -0.5, 10.0)


@pytest.mark.parametrize("weights, price, budget, name", [
    ([1.0], 0.0, math.inf, "budget"),
    ([1.0], math.nan, 10.0, "price"),
    ([1.0], 0.0, math.nan, "budget"),
    ([1.0], math.inf, 10.0, "price"),
    ([math.nan, 1.0], 0.0, 10.0, "weights[0]"),
    ([1.0, math.inf], 1e-3, 10.0, "weights[1]"),
])
def test_non_finite_inputs_are_refused_by_name(weights, price, budget, name):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be finite"):
        allocate_share(weights, price, budget)


@pytest.mark.parametrize("seed", range(20))
def test_the_split_fits_its_budgets_from_the_scenario_bound_up(seed):
    """allocate's split is the one cost_from_sums prices, with no share
    lifted to a floor: on every budget from the least a Scenario accepts,
    len(users) * RESOURCE_FLOOR, up to 1e3, the CPU shares sum to f_ser,
    the bandwidth shares to b_max where its budget binds (and below it
    elsewhere), and the KKT residual is at rounding level."""
    sc, dec = random_instance(seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    bound = sc.n_users * RESOURCE_FLOOR
    budgets = [bound, 1e3, *(bound * (1e3 / bound) ** rng.random(6))]
    for f_ser, b_max in zip(budgets, rng.permutation(budgets)):
        res = allocate(dataclasses.replace(sc, server=ServerSpec(f_ser, b_max)), dec)
        f, b, prob = res.allocation.f, res.allocation.b, res.problem
        assert abs(math.fsum(f) - f_ser) <= BUDGET_RTOL * f_ser
        root_d = left_to_right(math.sqrt(d) for d in prob.d)
        if root_d >= b_max * math.sqrt(prob.delta_b):
            assert abs(math.fsum(b) - b_max) <= BUDGET_RTOL * b_max
        else:
            assert math.fsum(b) < b_max
        assert kkt_residual(prob, f, b) <= 1e-12


class TestAllocate:
    def test_identical_users_get_equal_shares(self):
        sc = make_scenario()
        users = tuple(u.__class__(id=i, f_loc=1.0, d=50.0) for i, u in enumerate(sc.users))
        sc = sc.__class__(users=users, server=sc.server, channel=sc.channel,
                          catalog=sc.catalog, teacher=sc.teacher, weights=sc.weights)
        res = allocate(sc, Decision(x=(0,) * 4, m=(1,) * 4))
        assert res.allocation.f == pytest.approx([res.allocation.f[0]] * 4, rel=1e-12)
        assert res.allocation.b == pytest.approx([res.allocation.b[0]] * 4, rel=1e-12)

    def test_beats_equal_split(self):
        sc, dec = random_instance(3)
        res = allocate(sc, dec)
        prob = build_problem(sc, dec)
        n = sc.n_users
        equal = fb_objective(prob, [sc.server.f_ser / n] * n, [sc.server.b_max / n] * n)
        assert res.objective_fb <= equal + 1e-12

    def test_objective_matches_delay_route(self):
        for seed in range(20):
            sc, dec = random_instance(seed)
            res = allocate(sc, dec)
            direct = fb_objective_via_delays(sc, dec, res.allocation)
            assert res.objective_fb == pytest.approx(direct, rel=1e-9)

    def test_kkt_stationarity_and_budgets(self):
        for seed in range(20):
            sc, dec = random_instance(seed)
            res = allocate(sc, dec)
            prob = build_problem(sc, dec)
            f = np.array(res.allocation.f)
            nu = np.asarray(prob.c) / f ** 2
            assert np.abs(nu - nu.mean()).max() / nu.mean() < 1e-8
            assert sum(res.allocation.f) <= sc.server.f_ser * (1 + 1e-9)
            assert sum(res.allocation.b) <= sc.server.b_max * (1 + 1e-9)
            assert kkt_residual(prob, res.allocation.f, res.allocation.b) < 1e-8

    def test_dominates_grid_oracle(self):
        for seed in range(30):
            sc, dec = random_instance(seed)
            res = allocate(sc, dec)
            grid = grid_oracle(sc, dec, steps=60)
            assert res.objective_fb <= grid.objective_fb * (1 + 1e-12)


class TestGridOracle:
    def test_single_user_recovers_full_budget(self):
        sc, _ = random_instance(0, n_users=1)
        dec = Decision(x=(0,), m=(1,))
        grid = grid_oracle(sc, dec, steps=50)
        assert grid.allocation.f[0] == pytest.approx(sc.server.f_ser, rel=1e-12)

    def test_two_user_ratio_within_one_step(self):
        sc = make_scenario(n_users=2)
        # pick a decision, then check the oracle lands next to the closed form
        dec = Decision(x=(0, 0), m=(0, 3))
        steps = 80
        exact = allocate_share(list(build_problem(sc, dec).c), 0.0, sc.server.f_ser)
        grid = grid_oracle(sc, dec, steps=steps)
        step = sc.server.f_ser / steps
        assert abs(grid.allocation.f[0] - exact[0]) <= step + 1e-12
        assert abs(grid.allocation.f[1] - exact[1]) <= step + 1e-12

    def test_refinement_never_worsens(self):
        sc, dec = random_instance(9)
        coarse = grid_oracle(sc, dec, steps=40)
        fine = grid_oracle(sc, dec, steps=80)
        assert fine.objective_fb <= coarse.objective_fb + 1e-12

    def test_budgets_respected(self):
        sc, dec = random_instance(4)
        grid = grid_oracle(sc, dec, steps=37)
        assert sum(grid.allocation.f) <= sc.server.f_ser * (1 + 1e-12)
        assert sum(grid.allocation.b) <= sc.server.b_max * (1 + 1e-12)

    def test_step_floor(self):
        sc, dec = random_instance(1)
        with pytest.raises(ValueError):
            grid_oracle(sc, dec, steps=9)

    def test_more_users_than_steps_rejected(self):
        sc, dec = random_instance(2, n_users=12)
        with pytest.raises(ValueError):
            grid_oracle(sc, dec, steps=10)
