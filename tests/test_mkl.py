"""Elastic-net multiple-kernel training: updates, objectives, models."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from enmkl.errors import DataError
from enmkl.io import dump_json
from enmkl.kernels import (
    KernelStack,
    StackPreprocessor,
    bit_symmetric,
    build_linear_cross_kernels,
    build_linear_kernels,
    weighted_sum,
)
from enmkl import mkl
from enmkl.mkl import (
    SELECTION_THRESHOLD,
    MklModel,
    PrimalModel,
    _update_beta,
    _update_lambda,
    compute_block_norms,
    enmkl_objective,
    predict_model,
    recover_primal_weights,
    selected_kernel_count,
    train_enmkl_krr,
    train_enmkl_svm,
    train_model,
    train_sum_baseline,
)
from enmkl.model import model_from_dict, model_to_dict
from enmkl.solvers import predict, solve_krr_dual, solve_svm_dual

from helpers import (
    _same_bits,
    lambda_form_objective,
    lambda_form_penalty,
    make_classification_data,
    make_regression_data,
    mkl_svm_grid_oracle,
    random_labels,
    random_psd_kernel,
    train_enmkl_reference,
)


def _stack_from_matrices(*matrices, names=None):
    values = np.array(matrices, dtype=float)
    ids = tuple(f"s{i}" for i in range(values.shape[1]))
    names = names or tuple(f"g{j}" for j in range(values.shape[0]))
    return KernelStack(values, ids, ids, names, (1,) * values.shape[0])


def _preprocessed_stack(data):
    return StackPreprocessor().fit(build_linear_kernels(data)).train_stack_


class TestWeightUpdates:
    """The loop's closed-form steps, on the float arrays the loop holds."""

    def test_lambda_equal_norms(self):
        np.testing.assert_allclose(_update_lambda(np.array([1.0, 1.0]), mu=1.0), [0.5, 0.5])
        np.testing.assert_allclose(_update_lambda(np.array([1.0, 1.0]), mu=0.25), [1.0, 1.0])

    def test_lambda_proportional_to_norms(self):
        np.testing.assert_allclose(_update_lambda(np.array([3.0, 1.0]), mu=1.0), [0.75, 0.25])

    def test_lambda_constraint_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = rng.uniform(0.0, 5.0, size=rng.integers(1, 6))
            if w.sum() == 0:
                continue
            mu = float(rng.uniform(0.05, 1.0))
            lam = _update_lambda(w, mu)
            assert np.sqrt(mu) * lam.sum() == pytest.approx(1.0, abs=1e-12)

    def test_lambda_zero_block_stays_zero(self):
        np.testing.assert_allclose(_update_lambda(np.array([2.0, 0.0]), mu=1.0), [1.0, 0.0])

    def test_beta_reduces_to_lambda_at_mu_one(self):
        lam = np.array([0.75, 0.25])
        np.testing.assert_allclose(_update_beta(lam, mu=1.0), lam, atol=1e-15)

    def test_beta_hand_computed_mixed_case(self):
        # mu = 0.25, lambda = 1: 1 / (0.5 / 1 + 0.75) = 0.8.
        np.testing.assert_allclose(_update_beta(np.array([1.0, 1.0]), mu=0.25), [0.8, 0.8])

    def test_beta_on_floats_is_the_array_formula_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for mu in (0.05, 0.5, 1.0):
            lam = np.where(rng.random(12) < 0.3, 0.0, rng.uniform(0.0, 3.0, 12))
            safe = np.where(lam > 0, lam, 1.0)
            expected = np.where(lam > 0, 1.0 / (np.sqrt(mu) / safe + (1.0 - mu)), 0.0)
            assert _same_bits(_update_beta(lam, mu), expected), mu

    def test_beta_zero_lambda_gives_zero_weight(self):
        beta = _update_beta(np.array([0.5, 0.0]), mu=0.7)
        assert beta[1] == 0.0
        assert beta[0] > 0

    def test_beta_monotone_in_lambda(self):
        lam = np.linspace(0.05, 2.0, 25)
        beta = _update_beta(lam, mu=0.4)
        assert (np.diff(beta) > 0).all()


class TestBlockNorms:
    def test_identity_kernel_classification(self):
        stack = _stack_from_matrices(np.eye(2))
        w = compute_block_norms(
            stack, [1.0, 1.0], labels=np.array([1.0, -1.0]), beta=[1.0]
        )
        np.testing.assert_allclose(w, [np.sqrt(2.0)], atol=1e-15)

    def test_scales_linearly_with_beta(self):
        stack = _stack_from_matrices(np.eye(3), 2.0 * np.eye(3))
        alpha = np.array([1.0, 2.0, 3.0])
        w1 = compute_block_norms(stack, alpha, beta=[1.0, 1.0])
        w2 = compute_block_norms(stack, alpha, beta=[2.0, 2.0])
        np.testing.assert_allclose(w2, 2.0 * w1, rtol=1e-14)

    def test_regression_uses_raw_alpha(self):
        stack = _stack_from_matrices(np.eye(2))
        w = compute_block_norms(stack, [0.5, -0.5], beta=[1.0])
        np.testing.assert_allclose(w, [np.sqrt(0.5)], atol=1e-15)

    @settings(max_examples=30)
    @given(
        n=st.integers(2, 140),
        m=st.integers(1, 6),
        labeled=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batched_products_are_the_per_kernel_products(self, n, m, labeled, seed):
        # One batched matmul takes every K_j q; each must be K_j @ q bit for
        # bit, and each norm beta_j * sqrt(q' K_j q) as numpy computes it.
        rng = np.random.default_rng(seed)
        stack = _stack_from_matrices(*[random_psd_kernel(rng, n) for _ in range(m)])
        alpha = rng.uniform(0.0, 2.0, size=n)
        labels = random_labels(rng, n) if labeled else None
        beta = rng.uniform(0.0, 1.0, size=m)
        products = np.empty((m, n))
        w = compute_block_norms(stack, alpha, labels=labels, beta=beta, products=products)
        q = alpha if labels is None else alpha * labels
        for j, k in enumerate(stack.values):
            kq = k @ q
            assert _same_bits(products[j], kq), j
            assert w[j].hex() == (beta[j] * np.sqrt(max(float(q @ kq), 0.0))).hex(), j

    def test_indefinite_kernel_rejected_with_name(self):
        stack = _stack_from_matrices([[0.0, 1.0], [1.0, 0.0]], names=("flip",))
        with pytest.raises(DataError, match="'flip'"):
            compute_block_norms(stack, [1.0, -1.0], beta=[1.0])

    def test_roundoff_negative_form_clamped(self):
        # A PSD kernel whose quadratic form underflows to a tiny negative
        # value must yield a zero norm, not an error.
        v = np.array([1.0, 1.0 + 1e-9])
        stack = _stack_from_matrices(np.outer(v, v))
        w = compute_block_norms(stack, [1.0, -1.0], beta=[1.0])
        assert w[0] >= 0.0


class TestObjectives:
    def test_zero_coefficients_classification(self):
        stack = _stack_from_matrices(np.eye(2))
        y = np.array([1.0, -1.0])
        value = enmkl_objective(stack, y, [0.0, 0.0], 0.0, [1.0], mu=0.5, C=2.0,
                                task="classification")
        assert value == pytest.approx(4.0, abs=1e-15)

    def test_margin_solution_classification(self):
        # alpha = [1, 1] on the identity kernel puts both points exactly on
        # the margin; objective reduces to the penalty 0.5 * (sum w)^2 = 1.
        stack = _stack_from_matrices(np.eye(2))
        y = np.array([1.0, -1.0])
        value = enmkl_objective(stack, y, [1.0, 1.0], 0.0, [1.0], mu=1.0, C=10.0,
                                task="classification")
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_ridge_solution_value(self):
        stack = _stack_from_matrices(np.eye(2))
        y = np.array([1.0, -1.0])
        value = enmkl_objective(stack, y, [0.5, -0.5], 0.0, [1.0], mu=1.0, C=1.0,
                                task="regression")
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_two_forms_agree_at_closed_form_scales(self):
        rng = np.random.default_rng(50)
        for _ in range(15):
            n = int(rng.integers(3, 8))
            m = int(rng.integers(1, 4))
            mats = []
            for _ in range(m):
                X = rng.normal(size=(n, n + 1))
                mats.append(X @ X.T)
            stack = _stack_from_matrices(*mats)
            mu = float(rng.uniform(0.05, 1.0))
            C = float(rng.uniform(0.1, 5.0))
            beta = rng.uniform(0.0, 2.0, size=m)
            beta[int(rng.integers(m))] = 1.0
            alpha = rng.normal(size=n)
            bias = float(rng.normal())
            if rng.integers(2):
                task, targets = "regression", rng.normal(size=n)
            else:
                task = "classification"
                targets = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
                alpha = np.abs(alpha)
            a = enmkl_objective(stack, targets, alpha, bias, beta, mu, C, task)
            b = lambda_form_objective(stack, targets, alpha, bias, beta, mu, C, task)
            assert a == pytest.approx(b, rel=1e-10, abs=1e-10)

    @settings(max_examples=200)
    @given(
        w=st.integers(1, 40).flatmap(
            lambda m: arrays(np.float64, m, elements=st.just(0.0) | st.floats(1e-6, 1e6))
        ),
        mu=st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_closed_form_penalty_is_the_lambda_form(self, w, mu):
        # A state with no loss: the objective is the penalty alone.
        zero = np.zeros(1)
        closed = mkl._objective(zero, w, zero, 0.0, mu, 1.0, "regression")
        assert closed == pytest.approx(lambda_form_penalty(w, mu), rel=1e-12, abs=0)
        assert mkl._objective(zero, np.zeros_like(w), zero, 0.0, mu, 1.0, "regression") == 0.0

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_history_is_the_objective_of_each_solve(self, monkeypatch, task):
        # With Anderson off every solve is accepted, so the i-th history entry
        # is the objective at the i-th solve's (alpha, bias) and weights.
        make = make_classification_data if task == "classification" else make_regression_data
        data = make(n=30, seed=39, group_specs=[("a", 3, "signal"), ("b", 3, "noise"),
                                                ("c", 2, "noise")])
        stack = _preprocessed_stack(data)
        monkeypatch.setattr(mkl._Anderson, "step", lambda self, x, g: (g, False))
        solve, states = mkl._solve, []

        def recording(stack, beta, *args):
            alpha, bias = solve(stack, beta, *args)
            states.append((np.array(beta), np.array(alpha), bias))
            return alpha, bias

        monkeypatch.setattr(mkl, "_solve", recording)
        model = train_model(stack, data.targets, task, "enmkl", 1.0, 0.5)
        assert model.converged and len(model.objective_history) == len(states) > 2
        for i, ((beta, alpha, bias), value) in enumerate(zip(states, model.objective_history)):
            expected = enmkl_objective(stack, data.targets, alpha, bias, beta, 0.5, 1.0, task)
            assert value == pytest.approx(expected, rel=1e-12, abs=0), i


class TestTrainerStructure:
    def test_single_kernel_reduces_to_plain_svm(self):
        data = make_classification_data(n=20, seed=1, group_specs=[("g", 3, "signal")])
        stack = _preprocessed_stack(data)
        model = train_enmkl_svm(stack, data.targets, C=1.0, mu=0.5, solver_tol=1e-8)
        plain = solve_svm_dual(stack.values[0], data.targets, 1.0, tol=1e-8)
        np.testing.assert_allclose(model.beta, [1.0], atol=1e-15)
        np.testing.assert_allclose(model.alpha, plain.alpha, atol=1e-10)
        assert model.bias == pytest.approx(plain.bias, abs=1e-10)
        assert model.converged and model.iterations == 1

    def test_single_kernel_reduces_to_plain_ridge(self):
        data = make_regression_data(n=18, seed=2, group_specs=[("g", 3, "signal")])
        stack = _preprocessed_stack(data)
        model = train_enmkl_krr(stack, data.targets, C=1.0, mu=0.5)
        plain = solve_krr_dual(stack.values[0], data.targets, 1.0)
        np.testing.assert_allclose(model.beta, [1.0], atol=1e-15)
        np.testing.assert_allclose(model.alpha, plain.alpha, atol=1e-12)

    def test_duplicated_kernels_share_weight(self):
        data = make_classification_data(
            n=24, seed=3, group_specs=[("a", 4, "signal"), ("b", 4, ("dup", 0))]
        )
        stack = _preprocessed_stack(data)
        model = train_enmkl_svm(stack, data.targets, C=1.0, mu=0.5, solver_tol=1e-8)
        assert model.beta[0] == pytest.approx(model.beta[1], abs=1e-10)

    def test_zero_kernel_weight_is_a_fixed_point(self):
        data = make_classification_data(n=20, seed=4, group_specs=[("sig", 3, "signal")])
        base = _preprocessed_stack(data)
        stack = KernelStack(
            np.array([base.values[0], np.zeros((20, 20))]),
            data.sample_ids, data.sample_ids, ("sig", "dead"), (3, 1),
        )
        model = train_enmkl_svm(stack, data.targets, C=1.0, mu=0.7)
        np.testing.assert_allclose(model.beta, [1.0, 0.0], atol=1e-15)

    def test_update_chain_fixed_point_algebra(self):
        # One pass of norms -> lambda -> beta, applied at a converged
        # model's state, must return the weights it started from.
        data = make_classification_data(
            n=26, seed=5, group_specs=[("a", 3, "signal"), ("b", 3, "noise")]
        )
        stack = _preprocessed_stack(data)
        model = train_enmkl_svm(
            stack, data.targets, C=1.0, mu=0.6, conv_tol=1e-10, solver_tol=1e-10
        )
        assert model.converged
        raw_beta = model.beta * model.beta_raw_sum
        raw_alpha = model.alpha / model.beta_raw_sum
        w = compute_block_norms(stack, raw_alpha, labels=model.train_labels, beta=raw_beta)
        beta_next = _update_beta(_update_lambda(w, model.mu), model.mu)
        np.testing.assert_allclose(beta_next, raw_beta, atol=1e-7)

    def test_final_rescale_preserves_decisions(self):
        data = make_classification_data(
            n=22, seed=6, group_specs=[("a", 3, "signal"), ("b", 2, "noise")]
        )
        stack = _preprocessed_stack(data)
        model = train_enmkl_svm(stack, data.targets, C=2.0, mu=0.4, solver_tol=1e-8)
        assert model.beta.sum() == pytest.approx(1.0, abs=1e-12)
        raw_beta = model.beta * model.beta_raw_sum
        raw_alpha = model.alpha / model.beta_raw_sum
        final = predict_model(model, stack)
        q = raw_alpha * model.train_labels
        raw = sum(b * k for b, k in zip(raw_beta, stack.values)) @ q + model.bias
        np.testing.assert_allclose(final, raw, atol=1e-12)

    def test_objective_history_monotone(self):
        data = make_classification_data(
            n=30, seed=7, group_specs=[("a", 4, "signal"), ("b", 4, "noise"), ("c", 2, "noise")]
        )
        stack = _preprocessed_stack(data)
        model = train_enmkl_svm(stack, data.targets, C=1.0, mu=0.8, solver_tol=1e-8)
        history = np.array(model.objective_history)
        assert len(history) == model.iterations
        drops = np.diff(history)
        assert (drops <= 1e-8 * max(1.0, abs(history[0]))).all()

    def test_krr_history_monotone(self):
        data = make_regression_data(
            n=24, seed=8, group_specs=[("a", 3, "signal"), ("b", 3, "noise")]
        )
        stack = _preprocessed_stack(data)
        model = train_enmkl_krr(stack, data.targets, C=5.0, mu=0.9)
        history = np.array(model.objective_history)
        drops = np.diff(history)
        assert (drops <= 1e-8 * max(1.0, abs(history[0]))).all()

    def test_degenerate_zero_stack_flags_and_falls_back(self):
        n = 10
        ids = tuple(f"s{i}" for i in range(n))
        stack = KernelStack(np.zeros((2, n, n)), ids, ids, ("a", "b"), (1, 1), centered=True)
        rng = np.random.default_rng(9)
        model = train_enmkl_krr(stack, rng.normal(size=n), C=1.0, mu=0.5)
        assert model.degenerate
        assert not model.converged
        np.testing.assert_allclose(model.beta, [0.5, 0.5])

    def test_mu_zero_routes_to_baseline_message(self):
        data = make_classification_data(n=10, seed=10, group_specs=[("g", 2, "signal")])
        stack = _preprocessed_stack(data)
        with pytest.raises(ValueError, match="baseline"):
            train_enmkl_svm(stack, data.targets, C=1.0, mu=0.0)

    @pytest.mark.parametrize("mu", [None, -0.5, 1.5, float("nan")])
    def test_mu_outside_its_range_is_refused_by_name(self, mu):
        data = make_classification_data(n=10, seed=10, group_specs=[("g", 2, "signal")])
        stack = _preprocessed_stack(data)
        with pytest.raises(ValueError, match=r"mu must lie in \(0, 1\], got "):
            train_model(stack, data.targets, "classification", "enmkl", 1.0, mu=mu)

    def test_sparsity_increases_with_mu(self):
        data = make_classification_data(
            n=30, seed=11,
            group_specs=[("a", 4, "signal"), ("b", 4, "noise"), ("c", 4, "noise")],
        )
        stack = _preprocessed_stack(data)
        sparse = train_enmkl_svm(stack, data.targets, C=1.0, mu=1.0, solver_tol=1e-7)
        smooth = train_enmkl_svm(stack, data.targets, C=1.0, mu=0.1, solver_tol=1e-7)
        assert selected_kernel_count(sparse.beta) <= selected_kernel_count(smooth.beta)
        # The l2 end keeps every kernel in play.
        assert selected_kernel_count(smooth.beta) == 3


class TestTrainerValidation:
    @pytest.mark.parametrize("conv_tol", [np.nan, -1.0, 0.0, np.inf])
    def test_rejects_conv_tol_that_is_not_positive(self, conv_tol):
        # A tolerance of zero or less can never be met: the fit would spend
        # every allowed solve and end unconverged. An infinite one is met by
        # the first step, which would pass a one-step fit off as converged.
        specs = [("a", 2, "signal"), ("b", 2, "noise")]
        data = make_classification_data(n=12, seed=11, group_specs=specs)
        with pytest.raises(ValueError, match="conv_tol"):
            train_enmkl_svm(
                _preprocessed_stack(data), data.targets, C=1.0, mu=0.5,
                conv_tol=conv_tol, max_iter=30,
            )
        data = make_regression_data(n=12, seed=11, group_specs=specs)
        with pytest.raises(ValueError, match="conv_tol"):
            train_enmkl_krr(
                _preprocessed_stack(data), data.targets, C=1.0, mu=0.5,
                conv_tol=conv_tol, max_iter=30,
            )


class TestCopiedKernel:
    """At mu < 1 the squared-norm part of the penalty is strictly convex, so
    an exact copy of kernel j gets j's weight. Every per-kernel step sees the
    same inputs for both, so the weights agree bit for bit."""

    @pytest.mark.parametrize("task", ["classification", "regression"])
    @settings(max_examples=40)
    @given(data=st.data())
    def test_copy_gets_the_same_weight(self, task, data):
        m = data.draw(st.integers(1, 5))
        kinds = ["signal"] + [data.draw(st.sampled_from(["signal", "noise"])) for _ in range(m - 1)]
        specs = [(f"g{k}", data.draw(st.integers(1, 4)), kind) for k, kind in enumerate(kinds)]
        n = 2 * data.draw(st.integers(4, 20))
        seed = data.draw(st.integers(0, 2**16))
        make = make_classification_data if task == "classification" else make_regression_data
        dataset = make(n=n, seed=seed, group_specs=specs)
        stack = _preprocessed_stack(dataset)
        j = data.draw(st.integers(0, m - 1))
        copied = KernelStack(
            np.concatenate([stack.values, stack.values[j:j + 1]]),
            stack.row_ids, stack.col_ids,
            stack.group_names + ("copy",), stack.group_sizes + (stack.group_sizes[j],),
            centered=stack.centered, normalized=stack.normalized,
        )
        C = 10.0 ** data.draw(st.floats(-2.0, 2.0))
        mu = data.draw(st.sampled_from([0.1, 0.5, 0.9]))
        train = train_enmkl_svm if task == "classification" else train_enmkl_krr
        model = train(copied, dataset.targets, C, mu)
        pair = model.beta[[j, m]]
        assert pair.view(np.uint64)[0] == pair.view(np.uint64)[1], pair


class TestAgainstGridOracle:
    def test_svm_two_kernel_weights_match_grid(self):
        data = make_classification_data(
            n=24, seed=12, group_specs=[("a", 3, "signal"), ("b", 3, "noise")]
        )
        stack = _preprocessed_stack(data)
        for mu in (0.3, 1.0):
            model = train_enmkl_svm(
                stack, data.targets, C=1.0, mu=mu, conv_tol=1e-7, solver_tol=1e-8
            )
            oracle_beta, oracle_obj = mkl_svm_grid_oracle(
                stack, data.targets, C=1.0, mu=mu, step=0.005
            )
            trained_obj = lambda_form_objective(
                stack, data.targets,
                model.alpha / model.beta_raw_sum, model.bias,
                model.beta * model.beta_raw_sum, mu, 1.0, "classification",
            )
            # The grid minimum upper-bounds the true optimum; training must
            # land at least as low, give or take grid resolution.
            assert trained_obj <= oracle_obj + 1e-3 * max(1.0, abs(oracle_obj))
            np.testing.assert_allclose(model.beta, oracle_beta, atol=0.03)

    def test_krr_two_kernel_weights_match_grid(self):
        data = make_regression_data(
            n=22, seed=13, group_specs=[("a", 3, "signal"), ("b", 3, "noise")]
        )
        stack = _preprocessed_stack(data)
        mu, C = 0.5, 2.0
        model = train_enmkl_krr(stack, data.targets, C=C, mu=mu, conv_tol=1e-8)
        y = data.targets
        n = stack.n_rows
        best = None
        for u1 in np.arange(0.0, 1.0 + 0.0025, 0.005):
            u = np.array([u1, 1.0 - u1])
            with np.errstate(divide="ignore", invalid="ignore"):
                beta = np.where(u > 0, u / (mu + (1.0 - mu) * u), 0.0)
            K = sum(b * k for b, k in zip(beta, stack.values))
            y_c = y - y.mean()
            alpha = np.linalg.solve(K + n / (2.0 * C) * np.eye(n), y_c)
            w = np.array([
                beta[j] * np.sqrt(max(float(alpha @ stack.values[j] @ alpha), 0.0))
                for j in range(2)
            ])
            residual = y_c - K @ alpha
            obj = (
                0.5 * mu * float(w.sum()) ** 2
                + 0.5 * (1.0 - mu) * float(w @ w)
                + (C / n) * float(residual @ residual)
            )
            if best is None or obj < best[0]:
                best = (obj, beta / beta.sum())
        oracle_obj, oracle_beta = best
        trained_obj = lambda_form_objective(
            stack, y, model.alpha / model.beta_raw_sum, model.bias,
            model.beta * model.beta_raw_sum, mu, C, "regression",
        )
        assert trained_obj <= oracle_obj + 1e-3 * max(1.0, abs(oracle_obj))
        np.testing.assert_allclose(model.beta, oracle_beta, atol=0.03)


class TestBaseline:
    def test_matches_plain_solve_on_uniform_mixture(self):
        data = make_classification_data(
            n=20, seed=14, group_specs=[("a", 2, "signal"), ("b", 2, "noise"), ("c", 2, "noise")]
        )
        stack = _preprocessed_stack(data)
        model = train_sum_baseline(stack, data.targets, "classification", C=1.0,
                                   solver_tol=1e-8)
        mixture = weighted_sum(stack, np.full(3, 1.0 / 3.0))
        np.testing.assert_allclose(mixture, sum(k for k in stack.values) / 3.0, atol=1e-14)
        plain = solve_svm_dual(mixture, data.targets, 1.0, tol=1e-8)
        np.testing.assert_array_equal(model.alpha, plain.alpha)
        assert model.bias == plain.bias
        np.testing.assert_allclose(model.beta, np.full(3, 1.0 / 3.0))
        assert model.mu == 0.0 and model.converged and model.iterations == 1

    def test_cold_solve_is_the_dense_solve_in_hex(self, monkeypatch):
        # Rows come from the stack, never from a built mixture, with the same
        # bits. One kernel differs from its transpose within tolerance: the
        # stack holds its symmetric part, and a dense solve on a kernel like
        # it solves on that kernel's symmetric part.
        solves = []
        monkeypatch.setattr(mkl.solvers, "solve_svm_dual",
                            lambda *a, **k: solves.append(solve_svm_dual(*a, **k)) or solves[-1])
        rng = np.random.default_rng(16)
        data = make_classification_data(
            n=40, seed=16, group_specs=[("a", 2, "signal"), ("b", 3, "noise"), ("c", 2, "noise")]
        )
        values = np.array(_preprocessed_stack(data).values)
        values[1] += 3e-11 * rng.uniform(-1.0, 1.0, size=values[1].shape)
        stack = _stack_from_matrices(*values)
        assert not bit_symmetric(values[1])
        assert _same_bits(stack.values[1], values[1] / 2.0 + values[1].T / 2.0)
        mixture = weighted_sum(stack, np.full(3, 1.0 / 3.0))
        near = sum(values) / 3.0
        assert not bit_symmetric(near)
        for C in (0.1, 1.0, 100.0):
            model = train_sum_baseline(stack, data.targets, "classification", C, solver_tol=1e-6)
            plain = solve_svm_dual(mixture, data.targets, C, tol=1e-6)
            assert [a.hex() for a in model.alpha.tolist()] == [a.hex() for a in plain.alpha.tolist()]
            assert (model.bias.hex(), solves[-1].iterations) == (plain.bias.hex(), plain.iterations)
            dense = solve_svm_dual(near, data.targets, C, tol=1e-6)
            halves = solve_svm_dual(near / 2.0 + near.T / 2.0, data.targets, C, tol=1e-6)
            assert [a.hex() for a in dense.alpha.tolist()] == [a.hex() for a in halves.alpha.tolist()]
            assert (dense.bias.hex(), dense.iterations) == (halves.bias.hex(), halves.iterations)

    def test_svm_fits_build_no_combined_kernel(self, monkeypatch):
        calls = []
        monkeypatch.setattr(mkl, "weighted_sum", lambda *a: calls.append(a) or weighted_sum(*a))
        data = make_classification_data(
            n=30, seed=17, group_specs=[("a", 2, "signal"), ("b", 2, "noise"), ("c", 2, "noise")]
        )
        stack = _preprocessed_stack(data)
        model = train_enmkl_svm(stack, data.targets, 1.0, 0.5)
        assert model.iterations > 1
        train_sum_baseline(stack, data.targets, "classification", 1.0)
        assert calls == []
        # Ridge regression still builds it for its linear solve.
        train_sum_baseline(stack, data.targets, "regression", 1.0)
        assert len(calls) == 1

    def test_regression_baseline(self):
        data = make_regression_data(n=16, seed=15, group_specs=[("a", 2, "signal"), ("b", 2, "noise")])
        stack = _preprocessed_stack(data)
        model = train_sum_baseline(stack, data.targets, "regression", C=1.0)
        mixture = weighted_sum(stack, np.full(2, 0.5))
        plain = solve_krr_dual(mixture, data.targets, 1.0)
        np.testing.assert_array_equal(model.alpha, plain.alpha)
        assert model.bias == plain.target_offset


class TestStartFromBaseline:
    """A fit started from the sum baseline is the cold fit, bit for bit."""

    @staticmethod
    def _json(model):
        return json.dumps(model_to_dict(model), sort_keys=True)

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_started_fit_equals_cold_fit(self, task):
        specs = [("a", 3, "signal"), ("b", 2, "noise"), ("c", 2, "signal")]
        make = make_classification_data if task == "classification" else make_regression_data
        data = make(n=24, seed=28, group_specs=specs)
        stack = _preprocessed_stack(data)
        opts = dict(conv_tol=1e-7, max_iter=60, solver_tol=1e-5, max_updates=10**6)
        for C in (0.05, 3.0):
            start = train_sum_baseline(
                stack, data.targets, task, C, solver_tol=1e-5, max_updates=10**6
            )
            for mu in (0.2, 0.7, 1.0):
                cold = train_model(stack, data.targets, task, "enmkl", C, mu, **opts)
                started = train_model(
                    stack, data.targets, task, "enmkl", C, mu, start=start, **opts
                )
                assert cold.iterations > 1 and len(cold.objective_history) > 1
                assert self._json(started) == self._json(cold)

    def test_start_of_another_fit_rejected(self):
        data = make_classification_data(
            n=16, seed=29, group_specs=[("a", 2, "signal"), ("b", 2, "noise")]
        )
        stack = _preprocessed_stack(data)
        start = train_sum_baseline(stack, data.targets, "classification", 1.0)
        enmkl = train_enmkl_svm(stack, data.targets, 1.0, 0.5)
        other = _preprocessed_stack(data.subset(data.sample_ids[:-1]))
        for bad, C, target_stack in ((start, 2.0, stack), (enmkl, 1.0, stack),
                                     (start, 1.0, other)):
            targets = data.targets[: target_stack.n_rows]
            with pytest.raises(ValueError, match="start must be the sum-baseline model"):
                train_enmkl_svm(target_stack, targets, C, 0.5, start=bad)


def _model_json(model):
    return json.dumps(model_to_dict(model), sort_keys=True)


class TestAcceleratedLoop:
    """The Anderson-accelerated weight loop against the frozen plain loop."""

    OPTS = dict(conv_tol=1e-7, max_iter=1000, solver_tol=1e-7)

    @staticmethod
    def _slack(task, C, objective):
        # The safeguard's slack: SMO noise for SVM, round-off for ridge.
        if task == "classification":
            return TestAcceleratedLoop.OPTS["solver_tol"] * max(1.0, C)
        return 1e-9 * max(1.0, abs(objective))

    @staticmethod
    def _anderson_reference(history):
        """The step an Anderson mixer takes after the (x, g) pairs of
        ``history``: the ridge problem as an augmented least-squares system
        over the last ``ANDERSON_DEPTH`` differences, by ``lstsq``. Returns
        the next iterate, the weights before the rescaling, and how many
        differences it used; None in place of both arrays for the plain step."""
        kept = history[-(mkl.ANDERSON_DEPTH + 1):]
        (x, g), k = kept[-1], len(kept) - 1
        dr = np.diff([b - a for a, b in kept], axis=0)
        dg = np.diff([b for _, b in kept], axis=0)
        ridge = 1e-10 * float((dr * dr).sum())
        if not ridge > 0:
            return None, None, k
        system = np.vstack([dr.T, np.sqrt(ridge) * np.eye(k)])
        c = np.linalg.lstsq(system, np.concatenate([g - x, np.zeros(k)]), rcond=None)[0]
        unscaled = np.where(g == 0.0, 0.0, np.maximum(g - c @ dg, mkl.ANDERSON_FLOOR * g))
        return unscaled * (g.sum() / unscaled.sum()), unscaled, k

    def test_anderson_step_is_the_ridge_least_squares_step(self):
        rng = np.random.default_rng(37)
        floored = 0
        for trial in range(150):
            m = int(rng.integers(2, 41))
            mixer, history = mkl._Anderson(), []
            # A noisy map that shrinks some entries toward zero and keeps
            # others, as the weight update does, and zeroes a few.
            # Steps 4 and 5 have more history than ANDERSON_DEPTH differences.
            x, rate = rng.uniform(0.1, 1.0, m), rng.uniform(0.2, 1.0, m)
            for step in range(9):
                if step == 6:
                    mixer.clear()
                    history = []
                g = np.abs(rate * x + rng.normal(scale=0.02, size=m))
                g[rng.random(m) < 0.1] = 0.0
                g[0] = max(g[0], 0.5)
                if step == 7:  # the residual of the step before: a zero difference
                    x, g = history[-1]
                history.append((x, g))
                out, extrapolated = mixer.step(x, g)
                expected, unscaled, k = self._anderson_reference(history)
                label = f"trial {trial}, m={m}, step {step}"
                # The first step since a clear, and the repeat, have no nonzero difference.
                assert expected is None or step not in (0, 6, 7), label
                if expected is None:
                    assert not extrapolated and out is g, label
                    x = g
                    continue
                assert extrapolated, label
                # The normal equations square the differences' condition: with
                # k >= m they are rank deficient and only the ridge of 1e-10 of
                # their trace bounds it, so round-off grows up to 1e10-fold.
                rtol = 1e-12 if k < m else 1e-5
                scale = float(np.abs(expected).max())
                np.testing.assert_allclose(out, expected, rtol=0, atol=rtol * scale, err_msg=label)
                assert (out[g == 0.0] == 0.0).all() and (out[g > 0.0] > 0.0).all(), label
                assert abs(out.sum() - g.sum()) <= 1e-12 * g.sum(), label
                # The floor before the rescaling, as a floor on the result.
                positive, lowest = g > 0.0, mkl.ANDERSON_FLOOR * g.sum() / unscaled.sum()
                assert (out[positive] >= (1 - rtol) * lowest * g[positive]).all(), label
                floored += int((unscaled[positive] == mkl.ANDERSON_FLOOR * g[positive]).any())
                x = out
        assert floored >= 20  # the floor binds on enough steps to be tested

    @pytest.mark.parametrize("mu", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_no_worse_than_plain_loop(self, task, mu):
        make = make_classification_data if task == "classification" else make_regression_data
        rng = np.random.default_rng(int(100 * mu) + (task == "regression"))
        for _ in range(3):
            n = 2 * int(rng.integers(8, 16))
            specs = [("g0", int(rng.integers(2, 5)), "signal")] + [
                (f"g{j}", int(rng.integers(2, 5)), "signal" if rng.random() < 0.3 else "noise")
                for j in range(1, int(rng.integers(2, 6)))
            ]
            C = float(rng.choice([0.1, 1.0, 10.0]))
            data = make(n=n, seed=int(rng.integers(1 << 30)), group_specs=specs)
            stack = _preprocessed_stack(data)
            ref = train_enmkl_reference(stack, data.targets, task, C, mu, **self.OPTS)
            fit = train_model(stack, data.targets, task, "enmkl", C, mu, **self.OPTS)
            label = f"n={n}, m={stack.m}, C={C}"
            assert fit.converged, label
            ref_objective = ref.objective_history[-1]
            assert fit.objective_history[-1] <= ref_objective + self._slack(
                task, C, ref_objective
            ), label
            if ref.converged:
                support = fit.beta > SELECTION_THRESHOLD
                np.testing.assert_array_equal(support, ref.beta > SELECTION_THRESHOLD, label)
            again = train_model(stack, data.targets, task, "enmkl", C, mu, **self.OPTS)
            assert _model_json(again) == _model_json(fit)

    def test_rejected_extrapolation(self, monkeypatch):
        # Ridge regression at mu = 1 with six noise kernels: an extrapolated
        # step raises the objective, is rejected, and the fit still drops
        # kernels only where a plain step gave them zero weight.
        specs = [("s0", 2, "signal"), ("s1", 2, "signal")] + [
            (f"n{j}", 2, "noise") for j in range(6)
        ]
        data = make_regression_data(n=30, seed=2, group_specs=specs, target_noise=0.5)
        stack = _preprocessed_stack(data)
        solves = []
        norms = mkl.compute_block_norms

        def recording(stack, alpha, labels=None, *, beta, **options):
            w = norms(stack, alpha, labels=labels, beta=beta, **options)
            solves.append((np.array(beta), w))
            return w

        monkeypatch.setattr(mkl, "compute_block_norms", recording)
        model = train_enmkl_krr(stack, data.targets, C=1.0, mu=1.0)
        assert model.converged
        assert len(solves) == model.iterations
        assert len(model.objective_history) < model.iterations
        history = np.array(model.objective_history)
        slack = 1e-9 * max(1.0, abs(history[0]))
        assert (np.diff(history) <= slack).all()
        assert (model.beta == 0.0).any()
        for (beta, w), (beta_next, _) in zip(solves, solves[1:]):
            # At mu = 1 the update's weights sum to one; extrapolations keep that.
            assert abs(beta_next.sum() - 1.0) <= 1e-12
            step = _update_beta(_update_lambda(w, 1.0), 1.0)
            step[step < mkl.BETA_DROP_TOL] = 0.0
            assert set(np.flatnonzero(beta_next == 0)) <= set(np.flatnonzero(step == 0))


class TestNewtonWarmStartInTheLoop:
    """The weight loop's warm solves start with Newton steps on their free
    multipliers, which ``solvers.NEWTON_ROUNDS = 0`` switches off."""

    # Tight enough that both fits below stop near the same optimum.
    OPTS = dict(conv_tol=1e-7, max_iter=1000, solver_tol=1e-7)

    @pytest.mark.parametrize("C, mu", [(1.0, 0.5), (10.0, 1.0), (1.0, 1.0)])
    def test_fewer_smo_updates_same_kernels(self, monkeypatch, C, mu):
        specs = [("s0", 3, "signal"), ("s1", 3, "signal")] + [
            (f"n{j}", 3, "noise") for j in range(4)
        ]
        data = make_classification_data(n=40, seed=0, group_specs=specs, shift=1.0)
        stack = _preprocessed_stack(data)
        solve, updates = mkl.solvers.solve_svm_dual, []

        def counting(*args, **kwargs):
            solution = solve(*args, **kwargs)
            updates.append(solution.iterations)
            return solution

        monkeypatch.setattr(mkl.solvers, "solve_svm_dual", counting)
        stepped = train_enmkl_svm(stack, data.targets, C=C, mu=mu, **self.OPTS)
        stepped_updates = sum(updates)
        updates.clear()
        monkeypatch.setattr(mkl.solvers, "NEWTON_ROUNDS", 0)
        plain = train_enmkl_svm(stack, data.targets, C=C, mu=mu, **self.OPTS)
        assert stepped.converged and plain.converged
        assert stepped_updates < sum(updates)
        np.testing.assert_array_equal(
            stepped.beta > SELECTION_THRESHOLD, plain.beta > SELECTION_THRESHOLD
        )
        # Each fit stops within conv_tol of a step of its own path; the paths
        # differ by SMO's stopping points, which leaves the weights this close.
        np.testing.assert_allclose(stepped.beta, plain.beta, rtol=0, atol=SELECTION_THRESHOLD)


class TestIncrementalProducts:
    """Above ``WHOLE_KERNEL_MAX_N`` samples, when at most a quarter of the
    multipliers moved, the weight loop updates each ``K_j q`` from the moved
    ones in place of the batched product."""

    @pytest.mark.parametrize("n", [129, 200, 300])
    def test_products_are_the_batched_products(self, monkeypatch, n):
        specs = [("s0", 3, "signal"), ("s1", 3, "signal")] + [
            (f"n{j}", 3, "noise") for j in range(3)
        ]
        data = make_classification_data(n=n, seed=n, group_specs=specs, shift=0.5)
        stack = _preprocessed_stack(data)
        norms, matmul = mkl.compute_block_norms, np.matmul
        batched, in_place = [], []

        def counting(*args, **kwargs):
            batched.append(args)
            return matmul(*args, **kwargs)

        def checking(stack, alpha, labels=None, *, beta, products=None, previous=None):
            before = len(batched)
            w = norms(stack, alpha, labels, beta=beta, products=products, previous=previous)
            in_place.append(len(batched) == before)
            # Every iterate's products, against a fresh batched product.
            fresh = matmul(stack.values, alpha * labels)
            scale = np.abs(fresh).max(axis=1, keepdims=True)
            assert (np.abs(products - fresh) <= 1e-12 * scale).all(), len(in_place)
            return w

        monkeypatch.setattr(np, "matmul", counting)
        monkeypatch.setattr(mkl, "compute_block_norms", checking)
        model = train_enmkl_svm(stack, data.targets, C=1.0, mu=0.5)
        assert model.converged
        assert len(in_place) == model.iterations
        assert any(in_place) and not in_place[0]


def _draw_weight_loop_problem(data, sizes=st.integers(8, 40)):
    """A classification problem the weight loop solves to tight tolerances:
    2-6 kernels on ``sizes`` samples (8-40), each the Gram matrix of d_j
    random features (kernel 0 of full rank, so the combined kernel is
    positive definite and alpha unique), labels that follow kernel 0's first
    feature, and (C, mu)."""
    n, m = data.draw(sizes), data.draw(st.integers(2, 6))
    C, mu = data.draw(st.sampled_from([0.1, 1.0, 10.0])), data.draw(st.sampled_from([0.3, 0.7, 1.0]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    features = [rng.normal(size=(n, n + 2))] + [
        rng.normal(size=(n, int(rng.integers(2, n + 3)))) for _ in range(m - 1)
    ]
    y = np.where(features[0][:, 0] + 0.5 * rng.normal(size=n) > 0, 1.0, -1.0)
    y[0], y[1] = 1.0, -1.0
    ids = tuple(f"s{i}" for i in range(n))
    stack = KernelStack(
        np.array([X @ X.T / X.shape[1] for X in features]), ids, ids,
        tuple(f"g{j}" for j in range(m)), tuple(X.shape[1] for X in features),
    )
    return stack, y, C, mu


class TestWeightLoopMetamorphic:
    """Derandomized properties of the SVM weight loop at tight tolerances:
    its weights do not depend on the warm-start machinery, on the order of
    the kernels, or on the order of the samples."""

    # The update cap turns an SMO solve that stalls into a failure.
    OPTS = dict(conv_tol=1e-8, max_iter=2000, solver_tol=1e-8, max_updates=200_000)

    def _fit(self, stack, y, C, mu):
        return train_enmkl_svm(stack, y, C, mu, **self.OPTS)

    @settings(max_examples=30)
    @given(data=st.data())
    def test_beta_does_not_depend_on_the_warm_start_machinery(self, data):
        stack, y, C, mu = _draw_weight_loop_problem(data)
        fit = self._fit(stack, y, C, mu)
        assert fit.converged
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mkl.solvers, "NEWTON_ROUNDS", 0)
            unstepped = self._fit(stack, y, C, mu)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mkl._Anderson, "step", lambda self, x, g: (g, False))
            plain = self._fit(stack, y, C, mu)
        assert unstepped.converged
        # Plain steps shrink a vanishing weight by a factor near one per
        # step; where max_iter ends them first they are no reference.
        for other in (unstepped, plain) if plain.converged else (unstepped,):
            np.testing.assert_allclose(other.beta, fit.beta, rtol=0, atol=SELECTION_THRESHOLD)
            np.testing.assert_array_equal(
                other.beta > SELECTION_THRESHOLD, fit.beta > SELECTION_THRESHOLD
            )

    @settings(max_examples=4)
    @given(data=st.data())
    def test_beta_above_whole_kernel_max_n_does_not_depend_on_the_warm_start_machinery(
        self, data
    ):
        # Above WHOLE_KERNEL_MAX_N samples the steps read rows, and the
        # products are updated from the moved multipliers: against no steps
        # and the batched products at every iterate.
        low = mkl.solvers.WHOLE_KERNEL_MAX_N + 1
        stack, y, C, mu = _draw_weight_loop_problem(data, st.integers(low, low + 31))
        fit = self._fit(stack, y, C, mu)
        norms = mkl.compute_block_norms
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mkl.solvers, "NEWTON_ROUNDS", 0)
            patch.setattr(
                mkl, "compute_block_norms", lambda *args, previous=None, **kw: norms(*args, **kw)
            )
            plain = self._fit(stack, y, C, mu)
        assert fit.converged and plain.converged
        np.testing.assert_allclose(plain.beta, fit.beta, rtol=0, atol=SELECTION_THRESHOLD)
        np.testing.assert_array_equal(
            plain.beta > SELECTION_THRESHOLD, fit.beta > SELECTION_THRESHOLD
        )

    @settings(max_examples=30)
    @given(data=st.data())
    def test_permuting_the_kernels_permutes_beta(self, data):
        stack, y, C, mu = _draw_weight_loop_problem(data)
        order = data.draw(st.permutations(range(stack.m)))
        permuted = KernelStack(
            stack.values[order], stack.row_ids, stack.col_ids,
            tuple(stack.group_names[j] for j in order), tuple(stack.group_sizes[j] for j in order),
        )
        fit, other = self._fit(stack, y, C, mu), self._fit(permuted, y, C, mu)
        assert fit.converged and other.converged
        np.testing.assert_allclose(other.beta, fit.beta[order], rtol=0, atol=1e-6)
        # The decision values: the kernel expansion, and the bias where a
        # multiplier clearly inside the box pins it. Without one, any point
        # of an interval is an optimal bias, and SMO's stopping point picks it.
        values, permuted_values = predict_model(fit, stack), predict_model(other, permuted)
        atol = 1e-6 * max(1.0, float(np.abs(values).max()))
        np.testing.assert_allclose(
            permuted_values - other.bias, values - fit.bias, rtol=0, atol=atol
        )
        top = C * fit.beta_raw_sum  # the box of the model's rescaled alpha
        if ((fit.alpha > 1e-6 * top) & (fit.alpha < (1.0 - 1e-6) * top)).any():
            assert abs(other.bias - fit.bias) <= atol

    @settings(max_examples=30)
    @given(data=st.data())
    def test_permuting_the_samples_permutes_alpha(self, data):
        stack, y, C, mu = _draw_weight_loop_problem(data)
        order = list(data.draw(st.permutations(range(stack.n_rows))))
        ids = tuple(stack.row_ids[i] for i in order)
        permuted = KernelStack(
            stack.values[:, order][:, :, order], ids, ids, stack.group_names, stack.group_sizes
        )
        fit, other = self._fit(stack, y, C, mu), self._fit(permuted, y[order], C, mu)
        assert fit.converged and other.converged
        assert other.sample_ids == ids
        top = C * fit.beta_raw_sum  # the box of the model's rescaled alpha
        np.testing.assert_allclose(other.alpha, fit.alpha[order], rtol=0, atol=1e-6 * top)
        np.testing.assert_allclose(other.beta, fit.beta, rtol=0, atol=1e-6)


class TestRidgeTargetScale:
    """Ridge regression on targets times 2**k is the same fit with alpha and
    the offset times 2**k, bit for bit: the objective scales by 4**k, and so
    does the safeguard's slack. Each problem rejects extrapolated iterates
    at k = 0, where an absolute slack below an objective of 1 would accept them."""

    SPECS = [("a", 3, "signal"), ("b", 3, "noise"), ("c", 2, "noise"),
             ("d", 4, "signal"), ("e", 2, "noise")]
    PROBLEMS = [(0, 10.0, 1.0), (2, 1.0, 0.5), (7, 1.0, 0.5)]  # (data seed, C, mu)

    @classmethod
    def _fit(cls, seed, C, mu, k):
        data = make_regression_data(n=30, seed=seed, group_specs=cls.SPECS)
        stack = build_linear_kernels(data, True, True)
        return train_enmkl_krr(stack, data.targets * 2.0 ** k, C, mu)

    @pytest.fixture(scope="class")
    def unscaled(self):
        fits = {problem: self._fit(*problem, 0) for problem in self.PROBLEMS}
        for fit in fits.values():
            assert fit.iterations > len(fit.objective_history)  # a rejected iterate
        return fits

    @settings(max_examples=40)
    @given(problem=st.sampled_from(PROBLEMS), k=st.integers(-60, 60))
    def test_fit_scales_with_the_targets(self, unscaled, problem, k):
        fit, scaled = unscaled[problem], self._fit(*problem, k)
        assert _same_bits(scaled.beta, fit.beta)
        assert _same_bits(scaled.alpha, fit.alpha * 2.0 ** k)
        assert scaled.bias == fit.bias * 2.0 ** k
        assert (scaled.iterations, scaled.converged) == (fit.iterations, fit.converged)


class TestTrainModel:
    """``train_model`` picks the trainer the CLI and nested CV ask for."""

    @staticmethod
    def _same(a, b):
        assert model_to_dict(a) == model_to_dict(b)

    def test_dispatch_matches_each_trainer(self):
        opts = dict(conv_tol=1e-6, max_iter=50, solver_tol=1e-6, max_updates=10**6)
        data = make_classification_data(
            n=16, seed=25, group_specs=[("a", 2, "signal"), ("b", 2, "noise")]
        )
        stack = _preprocessed_stack(data)
        self._same(
            train_model(stack, data.targets, "classification", "enmkl", 2.0, 0.5, **opts),
            train_enmkl_svm(stack, data.targets, 2.0, 0.5, **opts),
        )
        self._same(
            train_model(stack, data.targets, "classification", "sum-baseline", 2.0, **opts),
            train_sum_baseline(
                stack, data.targets, "classification", 2.0, solver_tol=1e-6, max_updates=10**6
            ),
        )
        data = make_regression_data(
            n=16, seed=26, group_specs=[("a", 2, "signal"), ("b", 2, "noise")]
        )
        stack = _preprocessed_stack(data)
        self._same(
            train_model(stack, data.targets, "regression", "enmkl", 2.0, 0.5, **opts),
            train_enmkl_krr(stack, data.targets, 2.0, 0.5, conv_tol=1e-6, max_iter=50),
        )
        self._same(
            train_model(stack, data.targets, "regression", "sum-baseline", 2.0),
            train_sum_baseline(stack, data.targets, "regression", 2.0),
        )

    def test_unknown_trainer_rejected(self):
        data = make_classification_data(n=10, seed=27, group_specs=[("g", 2, "signal")])
        with pytest.raises(ValueError, match="unknown trainer"):
            train_model(_preprocessed_stack(data), data.targets, "classification", "svm", 1.0, 0.5)

    @pytest.mark.parametrize("trainer", ["enmkl", "sum-baseline"])
    def test_unknown_task_rejected(self, trainer):
        # Not a ridge fit reported as "regression": each trainer checks the task.
        data = make_classification_data(n=10, seed=27, group_specs=[("g", 2, "signal")])
        with pytest.raises(ValueError, match="task must be one of"):
            train_model(_preprocessed_stack(data), data.targets, "clasification", trainer, 1.0, 0.5)


class TestPrediction:
    def _trained(self, seed=16):
        data = make_classification_data(
            n=24, seed=seed, group_specs=[("a", 3, "signal"), ("b", 3, "noise")]
        )
        raw = build_linear_kernels(data)
        pre = StackPreprocessor().fit(raw)
        model = train_enmkl_svm(pre.train_stack_, data.targets, C=1.0, mu=0.5)
        return data, pre, model

    def test_train_stack_self_predictions(self):
        data, pre, model = self._trained()
        decisions = predict_model(model, pre.train_stack_)
        assert decisions.shape == (24,)
        # Re-derive through the generic dual predictor on the mixed kernel.
        mixed = sum(b * k for b, k in zip(model.beta, pre.train_stack_.values))
        np.testing.assert_allclose(
            decisions,
            predict(model.alpha, model.bias, mixed, labels=model.train_labels),
            atol=1e-12,
        )

    def test_rejects_group_name_mismatch(self):
        data, pre, model = self._trained()
        stack = pre.train_stack_
        renamed = KernelStack(
            stack.values, stack.row_ids, stack.col_ids, ("x", "y"), stack.group_sizes,
            centered=stack.centered, normalized=stack.normalized,
        )
        with pytest.raises(ValueError, match="group names"):
            predict_model(model, renamed)

    def test_rejects_preprocessing_mismatch(self):
        data, pre, model = self._trained()
        raw = build_linear_kernels(data)
        with pytest.raises(ValueError, match="preprocessing"):
            predict_model(model, raw)


class TestPrimalRecovery:
    def test_zero_alpha_gives_zero_weights(self):
        data = make_classification_data(n=12, seed=17, group_specs=[("g", 3, "signal")])
        stack = _preprocessed_stack(data)
        model = MklModel(
            beta=np.array([1.0]),
            alpha=np.zeros(12),
            bias=0.25,
            task="classification",
            mu=1.0,
            C=1.0,
            iterations=1,
            converged=True,
            group_names=("g",),
            sample_ids=data.sample_ids,
            train_labels=data.targets,
            group_sizes=(3,),
            centered=True,
            normalized=True,
        )
        primal = recover_primal_weights(model, data)
        np.testing.assert_array_equal(primal.weights[0], np.zeros(3))
        np.testing.assert_allclose(primal.decision_values(data.features), np.full(12, 0.25))

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_dual_and_primal_agree_on_held_out_rows(self, task):
        if task == "classification":
            data = make_classification_data(
                n=26, seed=18, group_specs=[("a", 3, "signal"), ("b", 4, "noise")]
            )
        else:
            data = make_regression_data(
                n=26, seed=18, group_specs=[("a", 3, "signal"), ("b", 4, "noise")]
            )
        rng = np.random.default_rng(19)
        test_X = rng.normal(size=(7, data.n_features))
        test_ids = tuple(f"t{i}" for i in range(7))

        raw = build_linear_kernels(data)
        pre = StackPreprocessor().fit(raw)
        if task == "classification":
            model = train_enmkl_svm(pre.train_stack_, data.targets, C=1.0, mu=0.6,
                                    solver_tol=1e-8)
        else:
            model = train_enmkl_krr(pre.train_stack_, data.targets, C=1.0, mu=0.6)

        raw_cross, sims = build_linear_cross_kernels(data, test_X, test_ids)
        cross = pre.transform_cross(raw_cross, sims)
        dual = predict_model(model, cross)

        primal = recover_primal_weights(model, data)
        np.testing.assert_allclose(primal.decision_values(test_X), dual, atol=1e-10)

    def test_block_norms_match_between_routes(self):
        data = make_classification_data(
            n=20, seed=20, group_specs=[("a", 3, "signal"), ("b", 2, "noise")]
        )
        stack = _preprocessed_stack(data)
        model = train_enmkl_svm(stack, data.targets, C=1.0, mu=0.5, solver_tol=1e-8)
        primal = recover_primal_weights(model, data)
        # The primal block norm must equal beta_j * sqrt(q' K_j q), the same
        # quantity the kernel-route norms are built from.
        q = model.alpha * model.train_labels
        for j, block in enumerate(primal.weights):
            expected = model.beta[j] * np.sqrt(max(q @ stack.values[j] @ q, 0.0))
            assert np.linalg.norm(block) == pytest.approx(expected, abs=1e-10)

    def test_unsupported_kernel_kind_guard(self):
        data = make_classification_data(n=10, seed=21, group_specs=[("g", 2, "signal")])
        stack = _preprocessed_stack(data)
        model = train_enmkl_svm(stack, data.targets, C=1.0, mu=1.0)
        bent = model_from_dict({**model_to_dict(model), "kernel_kind": "rbf"})
        with pytest.raises(NotImplementedError, match="linear"):
            recover_primal_weights(bent, data)

    def test_primal_round_trip_through_dict(self):
        data = make_classification_data(n=14, seed=22, group_specs=[("g", 3, "signal")])
        stack = _preprocessed_stack(data)
        model = train_enmkl_svm(stack, data.targets, C=1.0, mu=1.0)
        primal = recover_primal_weights(model, data)
        clone = PrimalModel.from_dict(primal.to_dict())
        for got, want in zip(clone.weights, primal.weights):
            np.testing.assert_array_equal(got, want)
        rng = np.random.default_rng(23)
        X = rng.normal(size=(5, data.n_features))
        np.testing.assert_array_equal(
            clone.decision_values(X), primal.decision_values(X)
        )


class TestSelection:
    def test_counts_weights_above_threshold(self):
        assert selected_kernel_count([0.6, 0.4, 0.0]) == 2
        assert selected_kernel_count([1.0]) == 1
        assert selected_kernel_count([0.5, 0.5, 9e-6]) == 2

    def test_custom_threshold(self):
        assert selected_kernel_count([0.6, 0.4], threshold=0.5) == 1


class TestModelSerialization:
    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_exact_round_trip(self, task):
        if task == "classification":
            data = make_classification_data(
                n=18, seed=24, group_specs=[("a", 3, "signal"), ("b", 2, "noise")]
            )
            model = train_enmkl_svm(
                _preprocessed_stack(data), data.targets, C=0.5, mu=0.3
            )
        else:
            data = make_regression_data(
                n=18, seed=24, group_specs=[("a", 3, "signal"), ("b", 2, "noise")]
            )
            model = train_enmkl_krr(
                _preprocessed_stack(data), data.targets, C=0.5, mu=0.3
            )
        payload = json.loads(json.dumps(model_to_dict(model)))
        clone = model_from_dict(payload)
        np.testing.assert_array_equal(clone.beta, model.beta)
        np.testing.assert_array_equal(clone.alpha, model.alpha)
        assert clone.bias == model.bias
        assert clone.beta_raw_sum == model.beta_raw_sum
        assert clone.objective_history == model.objective_history
        assert clone.group_names == model.group_names
        assert clone.sample_ids == model.sample_ids
        assert clone.task == model.task
        assert clone.mu == model.mu and clone.C == model.C
        assert clone.degenerate == model.degenerate
        if task == "classification":
            np.testing.assert_array_equal(clone.train_labels, model.train_labels)

    @pytest.mark.parametrize("task", ["classification", "regression"])
    @given(data=st.data())
    def test_json_round_trip_reproduces_any_model(self, task, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        m = data.draw(st.integers(1, 5))
        n = data.draw(st.integers(1, 8))
        raw = data.draw(arrays(np.float64, m, elements=st.floats(0.0, 1e6)))
        raw[data.draw(st.integers(0, m - 1))] += 1.0  # at least one kernel weighted
        model = MklModel(
            beta=raw / raw.sum(),
            alpha=data.draw(arrays(np.float64, n, elements=finite)),
            bias=data.draw(finite),
            task=task,
            mu=data.draw(st.floats(0.0, 1.0, exclude_min=True)),
            C=data.draw(st.floats(0.0, 1e12, exclude_min=True)),
            iterations=data.draw(st.integers(1, 10**6)),
            converged=data.draw(st.booleans()),
            group_names=data.draw(st.lists(st.text(), min_size=m, max_size=m, unique=True)),
            sample_ids=data.draw(st.lists(st.text(), min_size=n, max_size=n, unique=True)),
            train_labels=data.draw(arrays(np.float64, n, elements=st.sampled_from([-1.0, 1.0])))
            if task == "classification"
            else None,
            group_sizes=data.draw(
                st.none() | st.lists(st.integers(1, 10**6), min_size=m, max_size=m)
            ),
            degenerate=data.draw(st.booleans()),
            centered=data.draw(st.booleans()),
            normalized=data.draw(st.booleans()),
            beta_raw_sum=data.draw(st.floats(0.0, 1e12, exclude_min=True)),
            objective_history=data.draw(st.lists(finite, max_size=5)),
        )
        clone = model_from_dict(json.loads(dump_json(model_to_dict(model))))
        for field in dataclasses.fields(MklModel):
            got, want = getattr(clone, field.name), getattr(model, field.name)
            if isinstance(want, np.ndarray):
                assert np.array_equal(got, want), field.name
            else:
                assert got == want, field.name

    def test_model_invariants_enforced(self):
        with pytest.raises(ValueError, match="sum to one"):
            MklModel(
                beta=np.array([0.5, 0.4]),
                alpha=np.zeros(2),
                bias=0.0,
                task="regression",
                mu=0.5,
                C=1.0,
                iterations=1,
                converged=True,
                group_names=("a", "b"),
                sample_ids=("s0", "s1"),
            )
