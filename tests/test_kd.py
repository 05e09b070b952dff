import copy
import itertools
import json
import math
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from fedkd import cli, kd
from fedkd.kd import (
    VARIANTS,
    BlobSpec,
    DivergenceError,
    LossSpec,
    NetArch,
    NetParams,
    Projector,
    ToyDataset,
    distill_student,
    fedsgd_round,
    hard_grads,
    init_net,
    kd_grads,
    kd_loss,
    make_train_test,
    measure_accuracy,
    net_eval,
    simkd_grads,
    simkd_loss,
    split_by_label,
    train_teacher,
)

from conftest import finite_difference, rel_err
from oracles import fedsgd_gradient, kl_divergence, softened_probs


def random_dataset(rng, n=8, features=3, classes=4):
    return ToyDataset(rng.normal(size=(n, features)), rng.integers(classes, size=n), classes)


class TestNetEval:
    def test_zero_params_give_zero_outputs(self):
        p = NetParams((np.zeros((3, 4)),), (np.zeros(4),), np.zeros((4, 2)), np.zeros(2))
        features, logits = net_eval(p, np.ones((5, 3)))
        assert np.all(features == 0.0)
        assert np.all(logits == 0.0)

    def test_single_layer_hand_computation(self):
        # 1-d input through w=0.7, b=0.1, classifier w=2, b=-0.3
        p = NetParams((np.array([[0.7]]),), (np.array([0.1]),),
                      np.array([[2.0]]), np.array([-0.3]))
        x = 0.4
        features, logits = net_eval(p, [[x]])
        expected_feature = math.tanh(0.7 * x + 0.1)
        assert features[0, 0] == pytest.approx(expected_feature, rel=1e-15)
        assert logits[0, 0] == pytest.approx(2.0 * expected_feature - 0.3, rel=1e-15)

    def test_shape_mismatch_rejected(self, rng):
        p = init_net(NetArch((4,), 3), in_dim=5, num_classes=2, rng=rng)
        with pytest.raises(ValueError):
            net_eval(p, np.ones((2, 4)))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            NetParams((np.zeros((3, 4)), np.zeros((5, 2))),
                      (np.zeros(4), np.zeros(2)), np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            NetParams((np.full((3, 4), np.nan),), (np.zeros(4),),
                      np.zeros((4, 2)), np.zeros(2))


class TestSoftenedProbs:
    def test_equal_logits_are_uniform(self):
        probs = softened_probs(np.zeros((2, 5)), 3.0)
        assert probs == pytest.approx(np.full((2, 5), 0.2), rel=1e-15)

    def test_closed_form_two_classes(self):
        probs = softened_probs(np.array([0.0, math.log(3.0)]), 1.0)
        assert probs == pytest.approx([0.25, 0.75], rel=1e-12)

    def test_high_temperature_limit(self):
        probs = softened_probs(np.array([[5.0, -3.0, 1.0]]), 1e6)
        assert np.abs(probs - 1 / 3).max() < 1e-5

    def test_normalization(self, rng):
        logits = rng.normal(size=(20, 7)) * 30
        probs = softened_probs(logits, 2.5)
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12

    def test_shift_invariance(self, rng):
        logits = rng.normal(size=(4, 6))
        assert softened_probs(logits + 123.4, 2.0) == pytest.approx(
            softened_probs(logits, 2.0), abs=1e-12)

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValueError):
            softened_probs(np.zeros(3), 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_temperature_rejected(self, bad):
        with pytest.raises(ValueError, match="temperature") as err:
            softened_probs(np.zeros(3), bad)
        assert repr(bad) in str(err.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_loss_spec_temperature_rejected(self, bad):
        with pytest.raises(ValueError, match="temperature") as err:
            LossSpec("kd", temperature=bad)
        assert repr(bad) in str(err.value)


class TestKLDivergence:
    def test_point_mass_against_uniform(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2), rel=1e-12)

    def test_nonnegative(self, rng):
        for _ in range(50):
            p = rng.dirichlet(np.ones(6))
            q = rng.dirichlet(np.ones(6))
            assert kl_divergence(p, q) >= 0.0

    def test_zero_on_equal(self, rng):
        p = rng.dirichlet(np.ones(5))
        assert abs(kl_divergence(p, p)) < 1e-9


class TestKDLoss:
    def test_matching_logits_reduce_to_hard_loss(self):
        logits = np.array([[4.0, -1.0, 0.5], [0.2, 3.0, -2.0]])
        y = np.array([0, 1])
        loss, _ = kd_loss(logits, logits.copy(), y, temperature=3.0)
        # hard CE computed independently from first principles
        hard = 0.0
        for i in range(2):
            z = logits[i]
            hard += -(z[y[i]] - math.log(sum(math.exp(v) for v in z)))
        assert loss == pytest.approx(hard / 2, rel=1e-12)

    def test_soft_term_is_the_scaled_kl_of_the_softened_distributions(self, rng):
        for _ in range(30):
            zs = rng.normal(size=(4, 5)) * 3
            zt = rng.normal(size=(4, 5)) * 3
            y = rng.integers(5, size=4)
            t = float(rng.uniform(0.5, 8.0))
            hard, _ = kd_loss(zs, zs, y, t)
            kl = kl_divergence(softened_probs(zt, t), softened_probs(zs, t)).mean()
            assert kd_loss(zs, zt, y, t)[0] == pytest.approx(hard + t * t * kl, rel=1e-12)

    def test_soft_term_is_nonnegative(self, rng):
        for _ in range(30):
            zs = rng.normal(size=(4, 5)) * 3
            zt = rng.normal(size=(4, 5)) * 3
            y = rng.integers(5, size=4)
            t = float(rng.uniform(0.5, 8.0))
            loss, _ = kd_loss(zs, zt, y, t)
            hard, _ = kd_loss(zs, zs, y, 1.0)  # teacher == student kills the soft term
            assert loss >= hard - 1e-12

    def test_gradient_matches_finite_differences(self, rng):
        worst = 0.0
        for _ in range(10):
            zs = rng.normal(size=(6, 5)) * 2
            zt = rng.normal(size=(6, 5)) * 2
            y = rng.integers(5, size=6)
            t = float(rng.uniform(1.0, 6.0))
            _, grad = kd_loss(zs, zt, y, t)
            approx = finite_difference(lambda: kd_loss(zs, zt, y, t)[0], zs)
            worst = max(worst, rel_err(grad, approx))
        assert worst < 1e-4

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            kd_loss(np.zeros((2, 3)), np.zeros((2, 4)), [0, 1], 2.0)
        with pytest.raises(ValueError):
            kd_loss(np.zeros((2, 3)), np.zeros((2, 3)), [0], 2.0)


class TestSimKDLoss:
    def test_identity_projection_of_equal_features_is_zero(self, rng):
        f = rng.normal(size=(4, 6))
        loss, _, _ = simkd_loss(f, f.copy(), Projector(np.eye(6)))
        assert loss == 0.0

    def test_hand_computed_distance(self):
        loss, _, _ = simkd_loss(np.array([1.0, 2.0]), np.array([0.0, 0.0]),
                                Projector(np.eye(2)))
        assert loss == pytest.approx(5.0, rel=1e-15)

    def test_gradients_match_finite_differences(self, rng):
        worst = 0.0
        for _ in range(10):
            ft = rng.normal(size=(5, 7))
            fs = rng.normal(size=(5, 4))
            proj = Projector(rng.normal(size=(4, 7)))
            _, g_fs, g_p = simkd_loss(ft, fs, proj)
            worst = max(worst, rel_err(g_fs, finite_difference(
                lambda: simkd_loss(ft, fs, proj)[0], fs)))
            worst = max(worst, rel_err(g_p, finite_difference(
                lambda: simkd_loss(ft, fs, proj)[0], proj.w)))
        assert worst < 1e-4

    def test_dimension_checks(self, rng):
        with pytest.raises(ValueError):
            simkd_loss(np.zeros((2, 3)), np.zeros((2, 4)), Projector(np.eye(3)))


class TestNetworkGradients:
    def test_hard_loss_full_net(self, rng):
        worst = 0.0
        for _ in range(10):
            ds = random_dataset(rng)
            p = init_net(NetArch((6, 5), 4), 3, 4, rng)
            _, g = hard_grads(p, ds)
            for arr, garr in zip(p.arrays(), g.arrays()):
                approx = finite_difference(lambda: hard_grads(p, ds)[0], arr)
                worst = max(worst, rel_err(garr, approx))
        assert worst < 1e-4

    def test_kd_loss_full_net(self, rng):
        worst = 0.0
        for _ in range(10):
            ds = random_dataset(rng)
            teacher = init_net(NetArch((6,), 4), 3, 4, rng)
            _, t_logits = net_eval(teacher, ds.inputs)
            p = init_net(NetArch((6, 5), 4), 3, 4, rng)
            _, g = kd_grads(p, t_logits, ds, 3.0)
            for arr, garr in zip(p.arrays(), g.arrays()):
                approx = finite_difference(lambda: kd_grads(p, t_logits, ds, 3.0)[0], arr)
                worst = max(worst, rel_err(garr, approx))
        assert worst < 1e-4

    def test_simkd_encoder_and_projector(self, rng):
        worst = 0.0
        for _ in range(10):
            ds = random_dataset(rng)
            teacher = init_net(NetArch((6,), 5), 3, 4, rng)
            t_features, _ = net_eval(teacher, ds.inputs)
            p = init_net(NetArch((6,), 4), 3, 4, rng)
            proj = Projector(rng.normal(size=(4, 5)))
            _, g, g_proj = simkd_grads(p, proj, t_features, ds)
            for arr, garr in zip(p.arrays(), g.arrays()):
                approx = finite_difference(
                    lambda: simkd_grads(p, proj, t_features, ds)[0], arr)
                worst = max(worst, rel_err(garr, approx))
            worst = max(worst, rel_err(g_proj, finite_difference(
                lambda: simkd_grads(p, proj, t_features, ds)[0], proj.w)))
        assert worst < 1e-4

    def test_simkd_leaves_classifier_untouched(self, rng):
        ds = random_dataset(rng)
        teacher = init_net(NetArch((6,), 5), 3, 4, rng)
        t_features, _ = net_eval(teacher, ds.inputs)
        p = init_net(NetArch((6,), 4), 3, 4, rng)
        _, g, _ = simkd_grads(p, Projector(rng.normal(size=(4, 5))), t_features, ds)
        assert np.all(g.w_out == 0.0)
        assert np.all(g.b_out == 0.0)


class TestFedSGD:
    def test_identical_partitions_equal_single_client_step(self, rng):
        ds = random_dataset(rng, n=12)
        p = init_net(NetArch((5,), 4), 3, 4, rng)
        merged = fedsgd_round(p.copy(), [ds, ds, ds], lr=0.3)
        single = fedsgd_round(p.copy(), [ds], lr=0.3)
        for a, b in zip(merged.arrays(), single.arrays()):
            assert rel_err(a, b) < 1e-12

    def test_equal_partitions_average_gradients(self, rng):
        d1 = random_dataset(rng, n=10)
        d2 = random_dataset(rng, n=10)
        p = init_net(NetArch((5,), 4), 3, 4, rng)
        _, g1 = hard_grads(p, d1)
        _, g2 = hard_grads(p, d2)
        stepped = fedsgd_round(p.copy(), [d1, d2], lr=1.0)
        for before, after, ga, gb in zip(p.arrays(), stepped.arrays(),
                                         g1.arrays(), g2.arrays()):
            assert rel_err(before - after, (ga + gb) / 2) < 1e-12

    def test_size_weighted_aggregate_equals_union_gradient(self, rng):
        for _ in range(10):
            sizes = [int(rng.integers(2, 30)) for _ in range(3)]
            parts = [random_dataset(rng, n=s) for s in sizes]
            union = ToyDataset(np.concatenate([q.inputs for q in parts]),
                               np.concatenate([q.labels for q in parts]), 4)
            p = init_net(NetArch((5,), 4), 3, 4, rng)
            _, g_union = hard_grads(p, union)
            for a, b in zip(fedsgd_gradient(p, parts), g_union.arrays()):
                assert rel_err(a, b) < 1e-10

    def test_empty_partition_excluded_with_warning(self, rng, caplog):
        import logging
        d1 = random_dataset(rng, n=10)
        p = init_net(NetArch((5,), 4), 3, 4, rng)
        sliced = ToyDataset(d1.inputs[:1], d1.labels[:1], 4)

        class Hollow:
            def __len__(self):
                return 0

        with caplog.at_level(logging.WARNING, logger="fedkd.kd"):
            fedsgd_round(p, [d1, Hollow()], lr=0.1)
        assert any("empty" in rec.message for rec in caplog.records)

    def test_step_to_non_finite_parameters_raises_divergence_error(self, rng):
        # a large classifier makes the encoder gradient overflow at lr=1e308
        ds = random_dataset(rng, n=10)
        p = init_net(NetArch((5,), 4), 3, 4, rng)
        p = NetParams(p.weights, p.biases, 1e3 * p.w_out, p.b_out)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="^fedsgd_round diverged"):
                fedsgd_round(p, [ds], lr=1e308)

    @pytest.mark.parametrize("misfit, why", [
        (lambda rng: random_dataset(rng, features=4), "4 features and 4 classes"),
        (lambda rng: ToyDataset(np.zeros((2, 3)), [0, 5], 6), "3 features and 6 classes"),
        (lambda rng: ToyDataset(np.zeros((2, 3)), [0, 3], 6), "3 features and 6 classes"),
    ], ids=["features", "classes-labels-reach-4", "classes-labels-below-4"])
    @pytest.mark.parametrize("run", [
        lambda parts, rng: fedsgd_round(init_net(NetArch((5,), 4), 3, 4, rng), parts, 0.1),
        lambda parts, rng: train_teacher(parts, epochs=2, lr=0.1, arch=NetArch((5,), 4)),
    ], ids=["fedsgd_round", "train_teacher"])
    def test_partition_that_does_not_fit_the_network_refused_by_index(self, rng, misfit,
                                                                      why, run):
        parts = [random_dataset(rng), _Empty(), misfit(rng)]
        with pytest.raises(ValueError, match=f"^partition 2 has {why}, not 3 and 4$"):
            run(parts, rng)


DIVERGED = (r" diverged at epoch \d+: (loss=nan|loss=inf|the trained parameters are not "
            r"finite) \(lr=[^ ]+\)$")


class TestOneDivergenceRule:
    """Every training run refuses divergence in one format, on a
    non-finite loss and on a last step to non-finite parameters."""

    INF = ToyDataset(np.array([[np.inf, -np.inf, 0.0], [-np.inf, np.inf, 0.0]]),
                     np.array([0, 1]), 4)

    @staticmethod
    def runs(rng, data, lr, scale=1.0):
        """(message prefix, run) of each training entry point on data."""
        teacher = train_teacher([random_dataset(rng, n=20)], epochs=5, lr=0.5, seed=0)
        p = init_net(NetArch((8,), 4), 3, 4, rng)
        p = NetParams(p.weights, p.biases, scale * p.w_out, p.b_out)
        yield "fedsgd_round", lambda: fedsgd_round(p, [data], lr)
        yield "teacher training", lambda: train_teacher([data], epochs=1, lr=lr)
        for variant in VARIANTS:
            yield (f"{variant} distillation",
                   lambda v=variant: distill_student(teacher, NetArch((8,), 4), data,
                                                     LossSpec(v), epochs=1, lr=lr))

    def check(self, prefix, run, reason):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                run()
        message = str(err.value)
        assert re.match("^" + prefix + DIVERGED, message), message
        assert reason in message

    def test_non_finite_loss(self, rng):
        for prefix, run in self.runs(rng, self.INF, 0.1):
            self.check(prefix, run, "at epoch 0: loss=nan (lr=0.1)")

    def test_last_step_to_non_finite_parameters(self, rng):
        # inputs and classifier large enough that the one step overflows
        # while the loss before it is finite
        big = random_dataset(rng, n=20)
        big = ToyDataset(1e3 * big.inputs, big.labels, 4)
        for prefix, run in self.runs(rng, big, np.finfo(float).max, scale=1e3):
            self.check(prefix, run, "at epoch 0: the trained parameters are not finite")


class TestTrainTeacher:
    def test_separable_blobs_reach_high_accuracy(self):
        spec = BlobSpec(num_classes=2, num_features=4, seed=3)
        train_set, _ = make_train_test(spec, 40, 10)
        p = train_teacher([train_set], epochs=200, lr=0.5, arch=NetArch((8,), 4), seed=0)
        assert measure_accuracy(p, train_set) >= 0.95

    def test_zero_epochs_rejected(self, rng):
        with pytest.raises(ValueError):
            train_teacher([random_dataset(rng)], epochs=0, lr=0.1)

    def test_seed_determinism(self, rng):
        ds = random_dataset(rng, n=20)
        a = train_teacher([ds], epochs=30, lr=0.3, seed=11)
        b = train_teacher([ds], epochs=30, lr=0.3, seed=11)
        for x, y in zip(a.arrays(), b.arrays()):
            assert np.array_equal(x, y)

    def test_divergence_raises_with_diagnostics(self):
        bad = ToyDataset(np.array([[np.inf, -np.inf], [-np.inf, np.inf]]),
                         np.array([0, 1]), 2)
        with np.errstate(invalid="ignore"):
            with pytest.raises(DivergenceError, match="teacher training diverged"):
                train_teacher([bad], epochs=3, lr=0.5, arch=NetArch((4,), 3), seed=0)

    def test_loss_decreases_on_solvable_data(self):
        spec = BlobSpec(num_classes=2, num_features=4, seed=5)
        train_set, _ = make_train_test(spec, 30, 10)
        init = train_teacher([train_set], epochs=1, lr=0.0, arch=NetArch((8,), 4), seed=1)
        final = train_teacher([train_set], epochs=200, lr=0.5, arch=NetArch((8,), 4), seed=1)
        loss_init, _ = hard_grads(init, train_set)
        loss_final, _ = hard_grads(final, train_set)
        assert loss_final < loss_init

    def test_parameters_are_validated_once_per_run(self, rng, monkeypatch):
        calls = []
        check = NetParams.__post_init__

        def counted(self):
            calls.append(1)
            check(self)

        monkeypatch.setattr(NetParams, "__post_init__", counted)
        ds = random_dataset(rng, n=20)
        counts = []
        for epochs in (5, 50):
            calls.clear()
            train_teacher([ds, ds], epochs=epochs, lr=0.3, arch=NetArch((6,), 4), seed=1)
            counts.append(len(calls))
        assert counts[0] == counts[1] >= 1

    def test_last_step_to_non_finite_parameters_raises_divergence_error(self):
        # inputs scaled so that one first-layer gradient exceeds 1: the
        # first step overflows, and the loss was finite before it
        train_set, _ = make_train_test(BlobSpec(seed=0), 60, 60)
        big = ToyDataset(1e3 * train_set.inputs, train_set.labels, train_set.num_classes)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="^teacher training diverged"):
                train_teacher([big], epochs=1, lr=np.finfo(float).max, seed=0)


class TestDistillStudent:
    def test_zero_epochs_returns_initialization(self, rng):
        ds = random_dataset(rng, n=10)
        teacher = train_teacher([ds], epochs=5, lr=0.2, seed=2)
        arch = NetArch((5,), 4)
        student, _ = distill_student(teacher, arch, ds, LossSpec("kd", temperature=2.0),
                                     epochs=0, lr=0.5, seed=9)
        fresh = init_net(arch, 3, 4, np.random.Generator(np.random.PCG64(9)))
        for a, b in zip(student.arrays(), fresh.arrays()):
            assert np.array_equal(a, b)

    def test_hard_variant_rejected(self, rng):
        ds = random_dataset(rng)
        teacher = train_teacher([ds], epochs=2, lr=0.2, seed=0)
        with pytest.raises(ValueError):
            distill_student(teacher, NetArch((5,), 4), ds, LossSpec("hard"), 5, 0.1)

    def test_capacity_matched_feature_regression_fits(self):
        # over-parameterized width relative to the sample count lets plain
        # gradient descent interpolate the teacher's features
        spec = BlobSpec(seed=0)
        train_set, _ = make_train_test(spec, train_per_class=5, test_per_class=5)
        arch = NetArch((64,), 16)
        teacher = train_teacher([train_set], epochs=150, lr=0.5, arch=arch, seed=0)
        student, proj = distill_student(teacher, arch, train_set, LossSpec("simkd"),
                                        epochs=20_000, lr=0.12, seed=1)
        t_features, _ = net_eval(teacher, train_set.inputs)
        s_features, _ = net_eval(student, train_set.inputs)
        loss, _, _ = simkd_loss(t_features, s_features, proj)
        assert loss < 1e-3

    @pytest.mark.parametrize("variant", ["kd", "simkd"])
    def test_divergence_raises_divergence_error(self, rng, variant):
        teacher = train_teacher([random_dataset(rng)], epochs=2, lr=0.2,
                                arch=NetArch((4,), 3), seed=0)
        bad = ToyDataset(np.array([[np.inf, -np.inf, 0.0], [-np.inf, np.inf, 0.0]]),
                         np.array([0, 1]), 4)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(DivergenceError, match=f"^{variant} distillation diverged"):
                distill_student(teacher, NetArch((4,), 3), bad, LossSpec(variant), 3, 0.1)

    # The loss is finite at the only epoch; the step after it overflows.  In
    # the last case a one-layer encoder saturated by large inputs gets
    # exactly zero gradients, so only the projector overflows.
    @pytest.mark.parametrize("variant, hidden, scale, lr", [
        ("simkd", (8,), 1.0, 1e308),
        ("kd", (8,), 1e3, np.finfo(float).max),
        ("simkd", (), 1e3, 1e308),
    ], ids=["simkd", "kd", "simkd-projector-only"])
    def test_last_step_to_non_finite_parameters_raises_divergence_error(self, variant,
                                                                        hidden, scale, lr):
        train_set, _ = make_train_test(BlobSpec(seed=0), 60, 60)
        teacher = train_teacher([train_set], epochs=5, lr=0.5, seed=0)
        data = ToyDataset(scale * train_set.inputs, train_set.labels, train_set.num_classes)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match=f"^{variant} distillation diverged"):
                distill_student(teacher, NetArch(hidden, 4), data, LossSpec(variant),
                                epochs=1, lr=lr)

    def test_simkd_keeps_classifier_at_init(self, rng):
        ds = random_dataset(rng, n=10)
        teacher = train_teacher([ds], epochs=5, lr=0.2, seed=2)
        arch = NetArch((5,), 4)
        student, _ = distill_student(teacher, arch, ds, LossSpec("simkd"), 50, 0.05, seed=9)
        fresh = init_net(arch, 3, 4, np.random.Generator(np.random.PCG64(9)))
        assert np.array_equal(student.w_out, fresh.w_out)


class TestLearningRate:
    @pytest.mark.parametrize("lr", [math.nan, math.inf, -0.1])
    @pytest.mark.parametrize("entry", ["train_teacher", "distill_student", "fedsgd_round"])
    def test_non_finite_or_negative_lr_rejected(self, rng, entry, lr):
        ds = random_dataset(rng, n=10)
        p = init_net(NetArch((5,), 4), 3, 4, rng)
        run = {
            "train_teacher": lambda: train_teacher([ds], epochs=3, lr=lr),
            "distill_student": lambda: distill_student(p, NetArch((5,), 4), ds,
                                                       LossSpec("kd"), epochs=3, lr=lr),
            "fedsgd_round": lambda: fedsgd_round(p, [ds], lr=lr),
        }[entry]
        with pytest.raises(ValueError, match="^lr must be finite and >= 0"):
            run()


class TestKdDemo:
    GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden_kd.json"

    @pytest.mark.parametrize("seed", [0, 1])
    def test_metrics_equal_the_recorded_golden_values(self, seed):
        golden = json.loads(self.GOLDEN.read_text(encoding="utf-8"))
        assert golden["epochs"] == 600
        metrics = cli.kd_demo(seed=seed, epochs=600)["metrics"]
        for role, accs in golden["accuracies"][str(seed)].items():
            assert metrics[role] == accs, role


class TestNonIIDGap:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_label_partition_limits_full_coverage(self, seed):
        # thresholds fixed from pilot runs at these exact settings
        spec = BlobSpec(seed=seed)
        train_set, test_set = make_train_test(spec, 60, 60)
        parts = split_by_label(train_set, [(0, 1), (2, 3)])
        arch = NetArch((32,), 8)
        hard = train_teacher([parts[0]], epochs=600, lr=0.5, arch=arch, seed=seed + 1)
        own_test = test_set.restrict_labels((0, 1))
        assert measure_accuracy(hard, test_set) <= 0.55
        assert measure_accuracy(hard, own_test) >= 0.9


class TestMeasureAccuracy:
    def test_perfect_predictions(self):
        # classifier matrix routes feature sign directly to the right class
        p = NetParams((np.array([[5.0]]),), (np.zeros(1),),
                      np.array([[-1.0, 1.0]]), np.zeros(2))
        ds = ToyDataset(np.array([[-2.0], [2.0], [3.0]]), np.array([0, 1, 1]), 2)
        assert measure_accuracy(p, ds) == 1.0

    def test_constant_predictor_matches_label_frequency(self, rng):
        p = NetParams((np.zeros((2, 3)),), (np.zeros(3),), np.zeros((3, 2)), np.zeros(2))
        labels = rng.integers(2, size=10_000)
        ds = ToyDataset(rng.normal(size=(10_000, 2)), labels, 2)
        acc = measure_accuracy(p, ds)  # all-zero logits always argmax to class 0
        expected = float((labels == 0).mean())
        assert acc == expected
        assert abs(acc - 0.5) <= 3 * 0.005  # binomial 3-sigma around a fair coin

    def test_classifier_override_routes_through_projector(self, rng):
        ds = random_dataset(rng, n=6)
        teacher = init_net(NetArch((5,), 7), 3, 4, rng)
        student = init_net(NetArch((5,), 4), 3, 4, rng)
        proj = Projector(rng.normal(size=(4, 7)))
        features, _ = net_eval(student, ds.inputs)
        expected = (features @ proj.w @ teacher.w_out + teacher.b_out).argmax(axis=1)
        acc = measure_accuracy(student, ds, (teacher, proj))
        assert acc == float((expected == ds.labels).mean())

    def test_recomputation_matches_manual_indicator(self, rng):
        spec = BlobSpec(num_classes=3, num_features=4, seed=7)
        train_set, _ = make_train_test(spec, 20, 5)
        p = train_teacher([train_set], epochs=100, lr=0.5, arch=NetArch((8,), 4), seed=0)
        _, logits = net_eval(p, train_set.inputs)
        manual = sum(int(np.argmax(row) == y) for row, y in zip(logits, train_set.labels))
        assert measure_accuracy(p, train_set) == pytest.approx(manual / len(train_set))


class TestDatasets:
    def test_validation(self):
        with pytest.raises(ValueError):
            ToyDataset(np.zeros((0, 3)), np.zeros(0, dtype=int), 2)
        with pytest.raises(ValueError):
            ToyDataset(np.zeros((3, 2)), np.array([0, 1, 5]), 2)

    def test_split_by_label_is_disjoint(self, rng):
        spec = BlobSpec(seed=1)
        ds, _ = make_train_test(spec, 10, 5)
        parts = split_by_label(ds, [(0, 1), (2, 3)])
        assert set(np.unique(parts[0].labels)) == {0, 1}
        assert set(np.unique(parts[1].labels)) == {2, 3}
        assert len(parts[0]) + len(parts[1]) == len(ds)

    def test_generator_determinism(self):
        spec = BlobSpec(seed=5)
        a_train, a_test = make_train_test(spec, 12, 6)
        b_train, b_test = make_train_test(spec, 12, 6)
        assert np.array_equal(a_train.inputs, b_train.inputs)
        assert np.array_equal(a_test.labels, b_test.labels)

    def test_blob_spec_json_roundtrip(self):
        spec = BlobSpec(num_classes=3, num_features=5, center_scale=2.0, noise=0.7, seed=4)
        assert BlobSpec.from_json(spec.to_json()) == spec

    def test_net_params_json_roundtrip(self, rng):
        p = init_net(NetArch((4, 3), 2), 5, 3, rng)
        q = NetParams.from_json(p.to_json())
        for a, b in zip(p.arrays(), q.arrays()):
            assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# a per-array reference for the flat-buffer training runs
#
# Every gradient and step below allocates new arrays, each FedSGD client
# runs its own forward pass, the aggregate sums per client and per array,
# and kd recomputes the teacher's softened targets every epoch.
# Parameters are lists in NetParams.arrays() order with k encoder layers.
# Given a list `losses`, a run appends each epoch's loss to it.


def _ref_forward(arrays, k, x):
    hs = [x]
    for w, b in zip(arrays[:k], arrays[k:2 * k]):
        hs.append(np.tanh(hs[-1] @ w + b))
    return hs, hs[-1] @ arrays[-2] + arrays[-1]


def _ref_log_softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def _ref_cross_entropy(logits, labels):
    n = len(logits)
    log_p = _ref_log_softmax(logits)
    loss = -log_p[np.arange(n), labels].mean()
    onehot = np.zeros_like(logits)
    onehot[np.arange(n), labels] = 1.0
    return float(loss), (np.exp(log_p) - onehot) / n


def _ref_backprop(arrays, k, hs, dlogits=None, dfeatures=None):
    if dlogits is not None:
        gw_out = hs[-1].T @ dlogits
        gb_out = dlogits.sum(axis=0)
        dh = dlogits @ arrays[-2].T
    else:
        gw_out = np.zeros_like(arrays[-2])
        gb_out = np.zeros_like(arrays[-1])
        dh = dfeatures
    gws, gbs = [], []
    for layer in reversed(range(k)):
        dz = dh * (1.0 - hs[layer + 1] ** 2)
        gws.append(hs[layer].T @ dz)
        gbs.append(dz.sum(axis=0))
        dh = dz @ arrays[layer].T
    return [*reversed(gws), *reversed(gbs), gw_out, gb_out]


def _ref_step(arrays, grads, lr):
    return [a - lr * ga for a, ga in zip(arrays, grads)]


def _ref_aggregate(arrays, k, parts, losses=None):
    used = [part for part in parts if len(part) > 0]
    total = sum(len(part) for part in used)
    agg, loss_sum = None, 0.0
    for part in used:
        w = len(part) / total
        hs, logits = _ref_forward(arrays, k, part.inputs)
        loss, dlogits = _ref_cross_entropy(logits, part.labels)
        loss_sum += w * loss
        terms = [w * a for a in _ref_backprop(arrays, k, hs, dlogits=dlogits)]
        agg = terms if agg is None else [x + t for x, t in zip(agg, terms)]
    if losses is not None:
        losses.append(loss_sum)
    return agg


def _ref_init(arch, data, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    p = init_net(arch, data.inputs.shape[1], data.num_classes, rng)
    return [a.copy() for a in p.arrays()], len(p.weights), rng


def _ref_train_teacher(parts, epochs, lr, arch, seed, losses=None):
    used = [part for part in parts if len(part) > 0]
    arrays, k, _ = _ref_init(arch, used[0], seed)
    for _ in range(epochs):
        arrays = _ref_step(arrays, _ref_aggregate(arrays, k, used, losses), lr)
    return arrays


def _ref_distill(teacher, arch, data, variant, temperature, epochs, lr, seed, losses=None):
    losses = [] if losses is None else losses
    student, k, rng = _ref_init(arch, data, seed)
    t_hs, t_logits = _ref_forward(teacher.arrays(), len(teacher.weights), data.inputs)
    if variant == "kd":
        t = temperature
        for _ in range(epochs):
            hs, z_s = _ref_forward(student, k, data.inputs)
            hard, d_hard = _ref_cross_entropy(z_s, data.labels)
            log_p_st = _ref_log_softmax(z_s / t)
            log_p_tt = _ref_log_softmax(t_logits / t)
            p_tt = np.exp(log_p_tt)
            soft = (p_tt * (log_p_tt - log_p_st)).sum(axis=1).mean()
            losses.append(float(hard + t * t * soft))
            dlogits = d_hard + t * (np.exp(log_p_st) - p_tt) / len(z_s)
            student = _ref_step(student, _ref_backprop(student, k, hs, dlogits=dlogits), lr)
        return student, None
    w = rng.normal(size=(arch.feature_dim, teacher.feature_dim)) / np.sqrt(arch.feature_dim)
    for _ in range(epochs):
        hs, _ = _ref_forward(student, k, data.inputs)
        f_s = hs[-1]
        diff = f_s @ w - t_hs[-1]
        losses.append(float((diff ** 2).sum() / len(f_s)))
        dpred = 2.0 * diff / len(f_s)
        grads = _ref_backprop(student, k, hs, dfeatures=dpred @ w.T)
        student = _ref_step(student, grads, lr)
        w = w - lr * (f_s.T @ dpred)
    return student, w


class _Empty:
    """A partition that holds no samples."""

    def __len__(self):
        return 0


def _assert_bytes_equal(params, ref_arrays):
    arrays = params.arrays()
    assert len(arrays) == len(ref_arrays)
    for a, b in zip(arrays, ref_arrays):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _oracle_parts(seed):
    rng = np.random.default_rng(seed)
    return [random_dataset(rng, n=7), random_dataset(rng, n=13), _Empty(),
            random_dataset(rng, n=4)]


ORACLE_ARCHS = [NetArch((6,), 4), NetArch((6, 5), 4)]


class TestPerArrayOracle:
    """The flat-buffer runs equal the per-array reference bit for bit."""

    @pytest.mark.parametrize("arch", ORACLE_ARCHS, ids=["1-hidden", "2-hidden"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_train_teacher(self, arch, seed):
        parts = _oracle_parts(seed)
        p = train_teacher(parts, epochs=25, lr=0.3, arch=arch, seed=seed)
        _assert_bytes_equal(p, _ref_train_teacher(parts, 25, 0.3, arch, seed))

    @pytest.mark.parametrize("arch", ORACLE_ARCHS, ids=["1-hidden", "2-hidden"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fedsgd_round(self, arch, seed):
        parts = _oracle_parts(seed)
        rng = np.random.Generator(np.random.PCG64(seed))
        p = init_net(arch, 3, 4, rng)
        arrays = [a.copy() for a in p.arrays()]
        stepped = fedsgd_round(p, parts, lr=0.4)
        _assert_bytes_equal(stepped, _ref_step(
            arrays, _ref_aggregate(arrays, len(p.weights), parts), 0.4))

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("arch", ORACLE_ARCHS, ids=["1-hidden", "2-hidden"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_distill_student(self, variant, arch, seed):
        parts = _oracle_parts(seed)
        teacher = train_teacher(parts, epochs=10, lr=0.3, arch=NetArch((7,), 5), seed=seed)
        data = parts[1]
        lr = 0.5 if variant == "kd" else 0.1
        student, proj = distill_student(teacher, arch, data, LossSpec(variant, 3.0),
                                        epochs=25, lr=lr, seed=seed + 1)
        ref, ref_w = _ref_distill(teacher, arch, data, variant, 3.0, 25, lr, seed + 1)
        _assert_bytes_equal(student, ref)
        if variant == "kd":
            assert proj is None
        else:
            assert proj.w.tobytes() == ref_w.tobytes()


def _bits(values):
    return np.array(values, dtype=float).tobytes()


class TestEpochLosses:
    """Each run's per-epoch losses, which the divergence rule reads, equal
    the per-array reference's bit for bit."""

    @staticmethod
    def recorded(monkeypatch):
        """The losses that every _descend epoch gets from its step."""
        losses, descend = [], kd._descend

        def recording(what, params, step, epochs, lr):
            def record():
                loss, grads = step()
                losses.append(loss)
                return loss, grads
            return descend(what, params, record, epochs, lr)

        monkeypatch.setattr(kd, "_descend", recording)
        return losses

    # the teacher on unequal and empty partitions; the hard student on one
    @pytest.mark.parametrize("run", ["teacher", "hard"])
    @pytest.mark.parametrize("arch", ORACLE_ARCHS, ids=["1-hidden", "2-hidden"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hard_label_runs(self, monkeypatch, run, arch, seed):
        parts = _oracle_parts(seed) if run == "teacher" else _oracle_parts(seed)[1:2]
        got = self.recorded(monkeypatch)
        train_teacher(parts, epochs=25, lr=0.3, arch=arch, seed=seed)
        want = []
        _ref_train_teacher(parts, 25, 0.3, arch, seed, want)
        assert len(got) == 25
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("arch", ORACLE_ARCHS, ids=["1-hidden", "2-hidden"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_students(self, monkeypatch, variant, arch, seed):
        parts = _oracle_parts(seed)
        teacher = train_teacher(parts, epochs=10, lr=0.3, arch=NetArch((7,), 5), seed=seed)
        lr = 0.5 if variant == "kd" else 0.1
        got = self.recorded(monkeypatch)
        distill_student(teacher, arch, parts[1], LossSpec(variant, 3.0), epochs=25, lr=lr,
                        seed=seed + 1)
        want = []
        _ref_distill(teacher, arch, parts[1], variant, 3.0, 25, lr, seed + 1, want)
        assert len(got) == 25
        assert _bits(got) == _bits(want)


class TestOnePassPerRun:
    def test_a_run_builds_one_pass_and_its_clients_share_each_forward(self, rng,
                                                                      monkeypatch):
        built, forwards = [], []
        init, forward = kd._Pass.__init__, kd._Pass.forward
        monkeypatch.setattr(kd._Pass, "__init__",
                            lambda self, *a, **k: built.append(1) or init(self, *a, **k))
        monkeypatch.setattr(kd._Pass, "forward",
                            lambda self: forwards.append(len(self.hs[0])) or forward(self))
        parts = [random_dataset(rng, n=7), random_dataset(rng, n=1), _Empty(),
                 random_dataset(rng, n=5)]
        teacher = train_teacher(parts, epochs=6, lr=0.3, arch=NetArch((5,), 4))
        assert (len(built), forwards) == (1, [13] * 6)
        built.clear()
        forwards.clear()
        distill_student(teacher, NetArch((5,), 4), parts[0], LossSpec("simkd"), 4, 0.1)
        # the teacher's features, then the student's steps
        assert (len(built), forwards) == (2, [7] * 5)

    def test_a_one_sample_client_matches_the_reference_to_rounding(self, rng):
        # numpy computes a one-row product as a vector product, whose
        # rounding can differ from the same row inside the shared pass
        parts = [random_dataset(rng, n=7), random_dataset(rng, n=1), random_dataset(rng, n=5)]
        p = train_teacher(parts, epochs=30, lr=0.3, arch=NetArch((6,), 4), seed=1)
        ref = _ref_train_teacher(parts, 30, 0.3, NetArch((6,), 4), 1)
        for a, b in zip(p.arrays(), ref):
            assert rel_err(a, b) < 1e-12

    def test_simkd_steps_compute_no_logits(self, rng):
        ds = random_dataset(rng, n=6)
        p = init_net(NetArch((5,), 4), 3, 4, rng)
        head = kd._Match(rng.normal(size=(6, 2)), Projector(rng.normal(size=(4, 2))),
                         (6, 4))
        assert kd._Pass(p, ds.inputs, head).logits is None


SPECIALS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0, 5e-324, 1e308]


class TestStepShortcuts:
    """The two reductions the step computes its own way give numpy's bits."""

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_row_max_chain_equals_max_over_rows_on_every_special_row(self, width):
        # every row of specials: nan, +-inf, ties and +-0 in every position
        z = np.array(list(itertools.product(SPECIALS, repeat=width)))
        assert kd._row_max(z).tobytes() == z.max(axis=1).tobytes()

    @pytest.mark.parametrize("width", [5, 8, 16])
    def test_row_max_chain_equals_max_over_rows_on_random_rows(self, rng, width):
        z = rng.choice(np.array(SPECIALS + [2.0, -2.0]), size=(5000, width))
        z[::3] = rng.normal(size=(len(z[::3]), width))
        assert kd._row_max(z).tobytes() == z.max(axis=1).tobytes()

    def test_add_reduce_over_n_is_the_mean(self, rng):
        for n in [*range(1, 300), 511, 1024, 4097]:
            v = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8, size=n)
            assert (np.add.reduce(v) / n).tobytes() == v.mean().tobytes()


class TestRunArguments:
    """Epoch counts, step sizes and temperatures are refused by name."""

    @staticmethod
    def run(entry, rng, **kwargs):
        ds = random_dataset(rng, n=10)
        args = {"epochs": 3, "lr": 0.1, **kwargs}
        if entry == "train_teacher":
            return train_teacher([ds], arch=NetArch((5,), 4), **args)
        teacher = init_net(NetArch((5,), 4), 3, 4, rng)
        return distill_student(teacher, NetArch((5,), 4), ds, LossSpec("kd"), **args)

    @pytest.mark.parametrize("epochs, shown", [(2.5, "2.5"), (True, "True"), (False, "False"),
                                               ("3", "'3'"), (None, "None"),
                                               (np.float64(3.0), repr(np.float64(3.0)))])
    @pytest.mark.parametrize("entry", ["train_teacher", "distill_student"])
    def test_an_epoch_count_that_is_not_an_integer_is_refused(self, rng, entry, epochs,
                                                              shown):
        message = re.escape(f"epochs must be an integer, got {shown}")
        with pytest.raises(ValueError, match=message):
            self.run(entry, rng, epochs=epochs)

    @pytest.mark.parametrize("entry, least", [("train_teacher", 1), ("distill_student", 0)])
    def test_an_epoch_count_below_the_least_is_refused(self, rng, entry, least):
        with pytest.raises(ValueError, match=f"^epochs must be >= {least}, got {least - 1}$"):
            self.run(entry, rng, epochs=least - 1)

    @pytest.mark.parametrize("entry", ["train_teacher", "distill_student"])
    def test_numpy_integer_epochs_step_as_many_epochs(self, entry):
        def flat(run):
            return (run[0] if isinstance(run, tuple) else run).flat

        a = self.run(entry, np.random.default_rng(5), epochs=np.int64(3))
        b = self.run(entry, np.random.default_rng(5), epochs=3)
        assert flat(a).tobytes() == flat(b).tobytes()

    @pytest.mark.parametrize("lr", [True, "0.1", None])
    @pytest.mark.parametrize("entry", ["train_teacher", "distill_student"])
    def test_a_step_size_that_is_not_a_number_is_refused(self, rng, entry, lr):
        message = f"^lr must be finite and >= 0, got {re.escape(repr(lr))}$"
        with pytest.raises(ValueError, match=message):
            self.run(entry, rng, lr=lr)

    @pytest.mark.parametrize("temperature", [True, False, "2.0", None])
    def test_a_temperature_that_is_not_a_number_is_refused(self, temperature):
        with pytest.raises(ValueError, match=f"^temperature must be finite and > 0, got "
                                             f"{re.escape(repr(temperature))}$"):
            LossSpec("kd", temperature=temperature)

    @pytest.mark.parametrize("temperature", [2, 0.5, np.float64(4.0)])
    def test_a_real_temperature_is_accepted(self, temperature):
        assert LossSpec("kd", temperature=temperature).temperature == temperature


class TestBufferOwnership:
    def test_fields_are_views_of_one_buffer_in_arrays_order(self, rng):
        p = init_net(NetArch((4, 3), 2), 5, 3, rng)
        assert np.array_equal(p.flat, np.concatenate([a.ravel() for a in p.arrays()]))
        for a in p.arrays():
            assert np.shares_memory(a, p.flat)
        p.w_out[0, 0] = 7.0
        assert 7.0 in p.flat

    def test_constructor_copies_its_arrays(self, rng):
        w = rng.normal(size=(3, 2))
        p = NetParams((w,), (np.zeros(2),), np.ones((2, 2)), np.zeros(2))
        assert not np.shares_memory(w, p.flat)
        before = w.copy()
        p.weights[0][...] = 0.0
        assert np.array_equal(w, before)

    def test_fedsgd_round_leaves_global_params_unchanged(self, rng):
        p = init_net(NetArch((5, 3), 4), 3, 4, rng)
        before = [a.tobytes() for a in p.arrays()]
        stepped = fedsgd_round(p, [random_dataset(rng, n=9), random_dataset(rng, n=5)], lr=0.5)
        assert [a.tobytes() for a in p.arrays()] == before
        assert not np.shares_memory(stepped.flat, p.flat)

    def test_successive_gradients_are_independent(self, rng):
        p = init_net(NetArch((5,), 4), 3, 4, rng)
        ds = random_dataset(rng, n=10)
        _, g1 = hard_grads(p, ds)
        kept = g1.flat.copy()
        _, g2 = hard_grads(p, random_dataset(rng, n=6))
        assert not np.shares_memory(g1.flat, g2.flat)
        g2.flat[:] = 123.0
        for a in g2.arrays():
            a[...] = -1.0
        assert np.array_equal(g1.flat, kept)

    def test_run_outputs_share_no_memory(self, rng):
        ds = random_dataset(rng, n=12)
        a = train_teacher([ds], epochs=5, lr=0.3, arch=NetArch((5,), 4), seed=1)
        b = train_teacher([ds], epochs=5, lr=0.3, arch=NetArch((5,), 4), seed=1)
        assert not np.shares_memory(a.flat, b.flat)
        outputs = [a.flat, b.flat]
        for variant in VARIANTS:
            for _ in range(2):
                student, proj = distill_student(a, NetArch((5,), 4), ds, LossSpec(variant),
                                                epochs=5, lr=0.1, seed=2)
                for earlier in outputs:
                    assert not np.shares_memory(student.flat, earlier)
                    if proj is not None:
                        assert not np.shares_memory(proj.w, earlier)
                outputs.append(student.flat)
                if proj is not None:
                    outputs.append(proj.w)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda p: pickle.loads(pickle.dumps(p))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_clones_keep_the_fields_views_of_their_own_buffer(self, rng, clone):
        p = init_net(NetArch((4,), 3), 2, 2, rng)
        _, g = hard_grads(p, random_dataset(rng, n=5, features=2, classes=2))
        g.w_out[0, 0] = math.inf    # an overflowed gradient clones too
        for original in (p, g):
            q = clone(original)
            assert q.flat.tobytes() == original.flat.tobytes()
            assert not np.shares_memory(original.flat, q.flat)
            q.flat[:] = 0.0
            assert all(np.all(a == 0.0) for a in q.arrays())

    def test_simkd_gradient_of_the_classifier_is_zero(self, rng):
        p = init_net(NetArch((5,), 3), 3, 4, rng)
        ds = random_dataset(rng, n=8)
        proj = Projector(rng.normal(size=(3, 2)))
        _, g, _ = simkd_grads(p, proj, rng.normal(size=(8, 2)), ds)
        assert np.all(g.w_out == 0.0) and np.all(g.b_out == 0.0)
        assert np.any(g.weights[0] != 0.0)

    def test_train_teacher_warns_about_empty_partitions_and_refuses_only_empty(
            self, rng, caplog):
        import logging
        ds = random_dataset(rng, n=6)
        with caplog.at_level(logging.WARNING, logger="fedkd.kd"):
            train_teacher([ds, _Empty()], epochs=2, lr=0.1, arch=NetArch((4,), 3))
        assert any("empty" in rec.message for rec in caplog.records)
        with pytest.raises(ValueError, match="empty"):
            train_teacher([_Empty(), _Empty()], epochs=2, lr=0.1)

    def test_copy_is_independent(self, rng):
        p = init_net(NetArch((4,), 3), 2, 2, rng)
        before = p.flat.copy()
        q = p.copy()
        assert np.array_equal(q.flat, before)
        q.flat += 1.0
        assert not np.shares_memory(p.flat, q.flat)
        assert np.array_equal(p.flat, before)


class TestBoundaryChecks:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1.5])
    def test_non_integral_labels_rejected(self, bad):
        with pytest.raises(ValueError, match="labels"):
            ToyDataset(np.zeros((2, 3)), np.array([0.0, bad]), 2)

    def test_integral_float_labels_accepted(self):
        ds = ToyDataset(np.zeros((2, 3)), np.array([0.0, 1.0]), 2)
        assert ds.labels.dtype.kind == "i"
        assert ds.labels.tolist() == [0, 1]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_projector_rejected(self, bad):
        w = np.ones((3, 2))
        w[1, 0] = bad
        with pytest.raises(ValueError, match="Projector.w"):
            Projector(w)

    def test_finite_projector_accepted(self):
        assert Projector(np.full((3, 2), 1.5)).w[2, 1] == 1.5

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_kd_loss_labels_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match="labels"):
            kd_loss(np.zeros((2, 3)), np.zeros((2, 3)), [0, bad], 2.0)
