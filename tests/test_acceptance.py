"""Acceptance gate: ten end-to-end behavioral criteria.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s`` or in
captured output) and enforces the tolerances stated in its docstring.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from enmkl.errors import DataError
from enmkl.evaluation import HyperGrid, make_fold_plan, nested_cv
from enmkl.kernels import (
    StackPreprocessor,
    build_linear_cross_kernels,
    build_linear_kernels,
)
from enmkl.mkl import (
    _update_beta,
    _update_lambda,
    compute_block_norms,
    enmkl_objective,
    predict_model,
    recover_primal_weights,
    selected_kernel_count,
    train_enmkl_krr,
    train_enmkl_svm,
)
from enmkl.solvers import solve_krr_dual, solve_svm_dual

from helpers import (
    lambda_form_objective,
    make_classification_data,
    make_regression_data,
    mkl_svm_grid_oracle,
    oracle_feature_pipeline,
    random_labels,
    random_psd_kernel,
    svm_dual_bruteforce,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def _preprocessed(data):
    return StackPreprocessor().fit(build_linear_kernels(data)).train_stack_


def test_criterion_01_svm_solver_against_bruteforce_oracle():
    """SMO objective within 1e-4 of enumeration on 50 random problems;
    analytic two-point solutions within 1e-6; all inside 10 seconds."""
    with criterion(1, "SVM dual matches brute-force oracle"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        for trial in range(50):
            n = int(rng.integers(4, 7))
            K = random_psd_kernel(rng, n)
            y = random_labels(rng, n)
            C = float(rng.choice([0.1, 1.0, 10.0]))
            _, oracle_obj = svm_dual_bruteforce(K, y, C)
            sol = solve_svm_dual(K, y, C, tol=1e-7)
            assert abs(sol.objective - oracle_obj) <= 1e-4, (
                f"trial {trial}: objective {sol.objective} vs oracle {oracle_obj}"
            )

        free = solve_svm_dual(np.eye(2), np.array([1.0, -1.0]), C=10.0, tol=1e-8)
        np.testing.assert_allclose(free.alpha, [1.0, 1.0], atol=1e-6)
        assert abs(free.bias) <= 1e-6
        clipped = solve_svm_dual(np.eye(2), np.array([1.0, -1.0]), C=0.5, tol=1e-8)
        np.testing.assert_allclose(clipped.alpha, [0.5, 0.5], atol=1e-6)

        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_02_krr_residual_and_interpolation():
    """Ridge dual residual below 1e-8 * max(1, ||y||_inf) on 100 random
    systems; near-interpolation at C = 1e8 within 1e-5; under 5 seconds."""
    with criterion(2, "KRR solves its linear system"):
        start = time.perf_counter()
        rng = np.random.default_rng(2025)
        for _ in range(100):
            n = int(rng.integers(3, 16))
            K = random_psd_kernel(rng, n)
            y = rng.normal(scale=rng.uniform(0.5, 3.0), size=n)
            C = float(rng.uniform(0.01, 100.0))
            sol = solve_krr_dual(K, y, C)
            residual = (K + n / (2.0 * C) * np.eye(n)) @ sol.alpha - (y - y.mean())
            bound = 1e-8 * max(1.0, np.abs(y).max())
            assert np.abs(residual).max() <= bound

        K = random_psd_kernel(np.random.default_rng(7), 8)
        y = np.random.default_rng(8).normal(size=8)
        sol = solve_krr_dual(K, y, C=1e8)
        fitted = K @ sol.alpha + sol.target_offset
        assert np.abs(fitted - y).max() <= 1e-5

        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_03_weight_update_identities():
    """Across 1000 random draws the scale variables satisfy their constraint
    to 1e-12 and the mu = 1 endpoint collapses the two updates."""
    with criterion(3, "closed-form update identities hold"):
        rng = np.random.default_rng(2026)
        for _ in range(1000):
            m = int(rng.integers(1, 8))
            w = rng.uniform(0.0, 5.0, size=m)
            if w.sum() <= 0:
                w[0] = 1.0
            mu = float(rng.uniform(1e-6, 1.0))
            lam = _update_lambda(w, mu)
            assert abs(np.sqrt(mu) * lam.sum() - 1.0) <= 1e-12
            lam_sparse = _update_lambda(w, 1.0)
            beta_sparse = _update_beta(lam_sparse, 1.0)
            assert np.abs(beta_sparse - lam_sparse).max() <= 1e-12


def test_criterion_04_objective_monotonicity():
    """Objective histories never rise by more than 10x the inner solver
    tolerance on 20 random multi-kernel problems, both trainers."""
    with criterion(4, "training objective is monotone"):
        rng = np.random.default_rng(2027)
        for trial in range(20):
            n = int(rng.integers(20, 41))
            if n % 2:
                n += 1
            m = int(rng.integers(2, 6))
            specs = [("g0", int(rng.integers(2, 5)), "signal")]
            for j in range(1, m):
                kind = "signal" if rng.random() < 0.4 else "noise"
                specs.append((f"g{j}", int(rng.integers(2, 5)), kind))
            seed = 3000 + trial
            mu = float(rng.uniform(0.1, 1.0))
            C = float(rng.choice([0.5, 1.0, 2.0]))
            if trial % 2 == 0:
                data = make_classification_data(n=n, seed=seed, group_specs=specs)
                solver_tol = 1e-6
                model = train_enmkl_svm(
                    _preprocessed(data), data.targets, C=C, mu=mu, solver_tol=solver_tol
                )
                slack = 10.0 * solver_tol
            else:
                data = make_regression_data(n=n, seed=seed, group_specs=specs)
                model = train_enmkl_krr(_preprocessed(data), data.targets, C=C, mu=mu)
                slack = 1e-9 * max(1.0, abs(model.objective_history[0]))
            history = np.array(model.objective_history)
            rises = np.diff(history)
            assert (rises <= slack).all(), (
                f"trial {trial}: max rise {rises.max():.3e} over slack {slack:.1e}"
            )


def test_criterion_05_objective_form_equivalence():
    """At converged states the scale-variable objective with closed-form
    lambda equals the block-norm form within 1e-10, both tasks."""
    with criterion(5, "objective forms coincide at solutions"):
        for trial in range(8):
            specs = [("a", 3, "signal"), ("b", 3, "noise"), ("c", 2, "noise")]
            mu = (0.2, 0.5, 0.8, 1.0)[trial % 4]
            if trial < 4:
                data = make_classification_data(n=24, seed=4000 + trial, group_specs=specs)
                stack = _preprocessed(data)
                model = train_enmkl_svm(
                    stack, data.targets, C=1.0, mu=mu, solver_tol=1e-8
                )
                task = "classification"
            else:
                data = make_regression_data(n=24, seed=4000 + trial, group_specs=specs)
                stack = _preprocessed(data)
                model = train_enmkl_krr(stack, data.targets, C=1.0, mu=mu)
                task = "regression"
            alpha = model.alpha / model.beta_raw_sum
            beta = model.beta * model.beta_raw_sum
            a = enmkl_objective(stack, data.targets, alpha, model.bias, beta, mu, 1.0, task)
            b = lambda_form_objective(stack, data.targets, alpha, model.bias, beta, mu, 1.0, task)
            assert abs(a - b) <= 1e-10, f"trial {trial}: {a!r} vs {b!r}"


def test_criterion_06_two_kernel_simplex_grid_oracle():
    """Converged weights sit within 0.05 per coordinate of an exhaustive
    0.01-step search over the two-kernel weight line, 10 instances."""
    with criterion(6, "weights match the simplex-grid oracle"):
        rng = np.random.default_rng(2028)
        for trial in range(10):
            n = int(rng.integers(10, 13))
            if n % 2:
                n += 1
            data = make_classification_data(
                n=n, seed=5000 + trial,
                group_specs=[("a", 3, "signal"), ("b", 3, "noise")],
            )
            stack = _preprocessed(data)
            mu = float(rng.choice([0.3, 0.6, 1.0]))
            model = train_enmkl_svm(
                stack, data.targets, C=1.0, mu=mu, conv_tol=1e-7, solver_tol=1e-8
            )
            oracle_beta, _ = mkl_svm_grid_oracle(stack, data.targets, 1.0, mu, step=0.01)
            assert np.abs(model.beta - oracle_beta).max() <= 0.05, (
                f"trial {trial} (mu={mu}): {model.beta} vs {oracle_beta}"
            )


def test_criterion_07_elastic_net_grouping():
    """Duplicated informative kernels receive equal weight (1e-6) at
    mu = 0.3, and the l2-leaning mix keeps at least as many kernels as the
    pure l1 end, across 10 seeds."""
    with criterion(7, "elastic net groups correlated kernels"):
        for seed in range(10):
            data = make_classification_data(
                n=30, seed=6000 + seed,
                group_specs=[
                    ("dup_a", 3, "signal"),
                    ("dup_b", 3, ("dup", 0)),
                    ("noise_a", 3, "noise"),
                    ("noise_b", 3, "noise"),
                ],
            )
            stack = _preprocessed(data)
            grouped = train_enmkl_svm(stack, data.targets, C=1.0, mu=0.3, solver_tol=1e-7)
            assert abs(grouped.beta[0] - grouped.beta[1]) <= 1e-6, (
                f"seed {seed}: duplicated kernels got {grouped.beta[:2]}"
            )
            sparse = train_enmkl_svm(stack, data.targets, C=1.0, mu=1.0, solver_tol=1e-7)
            assert selected_kernel_count(grouped.beta) >= selected_kernel_count(sparse.beta), (
                f"seed {seed}: {grouped.beta} vs {sparse.beta}"
            )


def test_criterion_08_sparsity_at_the_l1_end():
    """With one informative kernel among nine noise kernels, mu = 1 puts
    over 0.9 of the weight on the informative one and keeps at most three
    kernels, across 10 seeds; every fit converges."""
    with criterion(8, "l1 end is sparse and finds the signal"):
        for seed in range(10):
            specs = [("signal", 3, "signal")] + [
                (f"noise{j}", 2, "noise") for j in range(9)
            ]
            data = make_classification_data(
                n=60, seed=7000 + seed, group_specs=specs, shift=2.5
            )
            stack = _preprocessed(data)
            model = train_enmkl_svm(
                stack, data.targets, C=1.0, mu=1.0,
                solver_tol=1e-7, conv_tol=1e-7, max_iter=1000,
            )
            assert model.converged, f"seed {seed}: {model.iterations} iterations"
            assert model.beta[0] > 0.9, f"seed {seed}: signal weight {model.beta[0]:.4f}"
            count = selected_kernel_count(model.beta)
            assert count <= 3, f"seed {seed}: {count} kernels selected"


def test_criterion_09_primal_recovery():
    """Recovered primal weights reproduce held-out dual predictions within
    1e-6 and the per-kernel block norms within 1e-8."""
    with criterion(9, "primal recovery matches the dual model"):
        for task in ("classification", "regression"):
            maker = (
                make_classification_data if task == "classification" else make_regression_data
            )
            data = maker(
                n=26, seed=8000, group_specs=[("a", 3, "signal"), ("b", 4, "noise")]
            )
            rng = np.random.default_rng(8001)
            test_X = rng.normal(size=(8, data.n_features))
            test_ids = tuple(f"t{i}" for i in range(8))

            raw = build_linear_kernels(data)
            pre = StackPreprocessor().fit(raw)
            if task == "classification":
                model = train_enmkl_svm(
                    pre.train_stack_, data.targets, C=1.0, mu=0.5, solver_tol=1e-8
                )
            else:
                model = train_enmkl_krr(pre.train_stack_, data.targets, C=1.0, mu=0.5)

            raw_cross, sims = build_linear_cross_kernels(data, test_X, test_ids)
            dual = predict_model(model, pre.transform_cross(raw_cross, sims))
            primal = recover_primal_weights(model, data)
            assert np.abs(primal.decision_values(test_X) - dual).max() <= 1e-6

            q = model.alpha if task == "regression" else model.alpha * model.train_labels
            for j, block in enumerate(primal.weights):
                kernel_form = q @ pre.train_stack_.values[j] @ q
                expected = model.beta[j] * np.sqrt(max(kernel_form, 0.0))
                assert abs(np.linalg.norm(block) - expected) <= 1e-8


def test_criterion_10_pipeline_integrity():
    """Nested CV is byte-reproducible under a fixed seed, Gram-matrix
    preprocessing matches the raw-feature oracle to 1e-8, and the
    elastic-net regressor pools no worse than the unweighted-sum baseline."""
    with criterion(10, "end-to-end pipeline holds together"):
        data = make_regression_data(
            n=30, seed=9000,
            group_specs=[("signal", 3, "signal"), ("noise_a", 5, "noise"), ("noise_b", 5, "noise")],
        )

        # Preprocessing equivalence on this dataset, train and cross.
        rng = np.random.default_rng(9001)
        test_X = rng.normal(size=(5, data.n_features))
        raw = build_linear_kernels(data)
        pre = StackPreprocessor().fit(raw)
        raw_cross, sims = build_linear_cross_kernels(
            data, test_X, tuple(f"t{i}" for i in range(5))
        )
        cross = pre.transform_cross(raw_cross, sims)
        group_cols = [data.group_columns(j) for j in range(data.n_groups)]
        oracle = oracle_feature_pipeline(data.features, group_cols, test_X)
        for j, (oracle_train, oracle_cross) in enumerate(oracle):
            assert np.abs(pre.train_stack_.values[j] - oracle_train).max() <= 1e-8
            assert np.abs(cross.values[j] - oracle_cross).max() <= 1e-8

        # Byte-reproducible cross-validation and the baseline comparison.
        plan = make_fold_plan(data.sample_ids, 3, 2, seed=5)
        grid = HyperGrid(c_values=(1.0, 10.0), mu_values=(0.5, 1.0))
        report_a = nested_cv(data, "regression", plan, grid=grid)
        report_b = nested_cv(data, "regression", plan, grid=grid)
        bytes_a = json.dumps(report_a.to_dict(), sort_keys=True).encode()
        bytes_b = json.dumps(report_b.to_dict(), sort_keys=True).encode()
        assert bytes_a == bytes_b

        baseline = nested_cv(data, "regression", plan, grid=grid, trainer="sum-baseline")
        enmkl_mse = report_a.pooled_metrics["mse"]
        baseline_mse = baseline.pooled_metrics["mse"]
        assert enmkl_mse <= baseline_mse, (
            f"pooled MSE {enmkl_mse:.4f} vs baseline {baseline_mse:.4f}"
        )
