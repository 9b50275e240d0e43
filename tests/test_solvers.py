"""Single-kernel dual solvers: SVM working-set optimization and ridge."""

import contextlib
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enmkl import solvers
from enmkl.errors import ConvergenceError, DataError
from enmkl.kernels import SYMMETRY_TOL, KernelStack, weighted_sum
from enmkl.solvers import (
    DEFAULT_SVM_TOL,
    predict,
    solve_krr_dual,
    solve_svm_dual,
)

from helpers import random_labels, random_psd_kernel, smo_reference, svm_dual_bruteforce

TIGHT = 1e-8


class TestBruteforceOracleSelfCheck:
    """The enumeration oracle must reproduce cases solvable by hand before
    it is trusted as a reference for the iterative solver."""

    def test_identity_kernel_unconstrained(self):
        K = np.eye(2)
        y = np.array([1.0, -1.0])
        alpha, objective = svm_dual_bruteforce(K, y, C=10.0)
        np.testing.assert_allclose(alpha, [1.0, 1.0], atol=1e-9)
        assert objective == pytest.approx(1.0, abs=1e-9)

    def test_identity_kernel_box_active(self):
        K = np.eye(2)
        y = np.array([1.0, -1.0])
        alpha, objective = svm_dual_bruteforce(K, y, C=0.5)
        np.testing.assert_allclose(alpha, [0.5, 0.5], atol=1e-9)
        assert objective == pytest.approx(0.75, abs=1e-9)

    def test_three_point_case(self):
        # Two close +1 points and one -1 point in 1-d; only the nearest
        # pair of opposite-label points should carry weight at large C.
        X = np.array([[0.0], [0.2], [1.0]])
        K = X @ X.T
        y = np.array([-1.0, -1.0, 1.0])
        alpha, objective = svm_dual_bruteforce(K, y, C=100.0)
        # Margin pair is x=0.2 and x=1.0: w = 2/(1.0-0.2) = 2.5,
        # alpha = w / (1.0 - 0.2) = 3.125, objective = w^2/2... via duality
        # objective = 2*3.125 - 0.5 * w^2 with w = 2.5 -> 3.125.
        np.testing.assert_allclose(alpha, [0.0, 3.125, 3.125], atol=1e-7)
        assert objective == pytest.approx(3.125, abs=1e-7)


class TestSvmAnalyticCases:
    def test_identity_kernel_free_solution(self):
        sol = solve_svm_dual(np.eye(2), np.array([1.0, -1.0]), C=10.0, tol=1e-6)
        np.testing.assert_allclose(sol.alpha, [1.0, 1.0], atol=1e-6)
        assert sol.bias == pytest.approx(0.0, abs=1e-6)
        assert sol.objective == pytest.approx(1.0, abs=1e-6)

    def test_identity_kernel_bounded_solution(self):
        sol = solve_svm_dual(np.eye(2), np.array([1.0, -1.0]), C=0.5, tol=1e-6)
        np.testing.assert_allclose(sol.alpha, [0.5, 0.5], atol=1e-6)
        assert sol.objective == pytest.approx(0.75, abs=1e-6)

    def test_vanishing_c_saturates_box(self):
        C = 1e-6
        sol = solve_svm_dual(np.eye(2), np.array([1.0, -1.0]), C=C, tol=1e-9)
        np.testing.assert_allclose(sol.alpha, [C, C], atol=1e-12)

    def test_separable_pair_on_a_line(self):
        # x = 0 (y=-1) and x = 2 (y=+1): margin width 2 -> w = 1,
        # f(x) = x - 1, alpha = 0.5 each.
        X = np.array([[0.0], [2.0]])
        sol = solve_svm_dual(X @ X.T, np.array([-1.0, 1.0]), C=10.0, tol=1e-8)
        np.testing.assert_allclose(sol.alpha, [0.5, 0.5], atol=1e-7)
        assert sol.bias == pytest.approx(-1.0, abs=1e-6)
        assert sol.objective == pytest.approx(0.5, abs=1e-7)


class TestSvmAgainstBruteforce:
    @pytest.mark.parametrize("C", [0.1, 1.0, 10.0])
    def test_random_problems(self, C):
        for seed in range(8):
            rng = np.random.default_rng(300 + seed)
            n = int(rng.integers(4, 9))
            K = random_psd_kernel(rng, n)
            y = random_labels(rng, n)
            expected_alpha, expected_obj = svm_dual_bruteforce(K, y, C)
            sol = solve_svm_dual(K, y, C, tol=1e-9)
            scale = max(1.0, abs(expected_obj))
            assert sol.objective == pytest.approx(expected_obj, abs=1e-7 * scale)
            np.testing.assert_allclose(sol.alpha, expected_alpha, atol=1e-5)

    def test_duplicated_sample_objective_matches(self):
        # A repeated training point makes the dual solution non-unique, but
        # the optimal objective value is still well defined.
        rng = np.random.default_rng(400)
        X = rng.normal(size=(5, 3))
        X = np.vstack([X, X[0]])
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, 1.0])
        K = X @ X.T
        _, expected_obj = svm_dual_bruteforce(K, y, C=1.0)
        sol = solve_svm_dual(K, y, C=1.0, tol=1e-9)
        assert sol.objective == pytest.approx(expected_obj, abs=1e-7)



def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _symmetric_part(K):
    return K / 2.0 + K.T / 2.0


@contextlib.contextmanager
def _newton_steps_off():
    """Warm starts go to SMO's loop as they are given: no Newton steps."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "NEWTON_ROUNDS", 0)
        yield


def _assert_same_as_reference(K, y, C, tol=1e-3, alpha0=None, reference=None):
    """``solve_svm_dual`` on K, with a warm start's Newton steps off, is the
    reference loop on ``reference`` (K by default), bit for bit."""
    with _newton_steps_off():
        sol = solve_svm_dual(K, y, C, tol=tol, alpha0=alpha0)
    alpha, bias, objective, iterations = smo_reference(
        K if reference is None else reference, y, C, tol=tol, alpha0=alpha0
    )
    assert np.array_equal(sol.alpha, alpha)
    assert np.array_equal(sol.bias, bias)
    assert np.array_equal(sol.objective, objective)
    assert sol.iterations == iterations


class TestSvmMatchesReferenceExactly:
    """``solve_svm_dual`` replays the reference SMO loop bit for bit, from
    cold starts and, with the Newton steps off, from warm ones."""

    @pytest.mark.parametrize("C", [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3])
    def test_cold_start(self, C):
        for seed in range(6):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.integers(5, 40))
            K = random_psd_kernel(rng, n)
            y = random_labels(rng, n)
            for tol in (1e-3, 1e-8):
                _assert_same_as_reference(K, y, C, tol=tol)

    @pytest.mark.parametrize("C", [1e-3, 0.1, 1.0])
    def test_rank_deficient_kernel(self, C):
        for seed in range(6):
            rng = np.random.default_rng(1050 + seed)
            n = int(rng.integers(5, 40))
            K = random_psd_kernel(rng, n, rank=max(2, n // 3))
            y = random_labels(rng, n)
            for tol in (1e-3, 1e-8):
                _assert_same_as_reference(K, y, C, tol=tol)

    @pytest.mark.parametrize("C", [1e-3, 1.0, 1e3])
    def test_warm_start(self, C):
        for seed in range(6):
            rng = np.random.default_rng(1100 + seed)
            n = int(rng.integers(5, 50))
            K = random_psd_kernel(rng, n)
            y = random_labels(rng, n)
            # A feasible start from a neighbouring problem, as the trainer's
            # outer loop passes, and the scaled solution of another C.
            other = solve_svm_dual(K + random_psd_kernel(rng, n, rank=3), y, C)
            _assert_same_as_reference(K, y, C, alpha0=other.alpha)
            smaller = solve_svm_dual(K, y, C / 10.0)
            _assert_same_as_reference(K, y, C, alpha0=smaller.alpha * 10.0)

    @pytest.mark.parametrize("C", [1e-2, 1.0, 10.0])
    def test_duplicated_samples(self, C):
        # Repeated rows tie gradients, and a pair of copies with equal labels
        # has zero curvature, which falls back to the flat-pair constant.
        for seed in range(6):
            rng = np.random.default_rng(1200 + seed)
            X = rng.normal(size=(12, 3))
            X = np.vstack([X, X[:6], X[:2]])
            K = X @ X.T
            y = random_labels(rng, X.shape[0])
            y[12:18] = y[:6]
            y[18] = -y[0]
            _assert_same_as_reference(K, y, C)
            _assert_same_as_reference(K, y, C, tol=1e-9)

    def test_asymmetric_raw_array_within_tolerance(self):
        for seed in range(6):
            rng = np.random.default_rng(1300 + seed)
            n = 20
            K = random_psd_kernel(rng, n)
            # Off-symmetric noise below the 1e-10 relative acceptance bound.
            K = K + 0.4e-10 * np.abs(K).max() * rng.uniform(-1.0, 1.0, size=(n, n))
            assert not np.array_equal(K, K.T)
            y = random_labels(rng, n)
            # The solver takes K's symmetric part, as a train stack does.
            _assert_same_as_reference(K, y, 1.0, tol=1e-8, reference=_symmetric_part(K))

    @pytest.mark.parametrize("C", [1e-2, 0.1, 1.0])
    def test_many_distinct_first_indices(self, C):
        # Hundreds of samples: many distinct first indices i, each of whose
        # curvature rows is made once and then reused within the call.
        for seed, n in enumerate((200, 263)):
            rng = np.random.default_rng(1500 + seed)
            K = random_psd_kernel(rng, n)
            y = random_labels(rng, n)
            _assert_same_as_reference(K, y, C)
            warm = solve_svm_dual(K + random_psd_kernel(rng, n, rank=5), y, C)
            _assert_same_as_reference(K, y, C, alpha0=warm.alpha)

    def test_fortran_ordered_kernel(self):
        for seed in range(4):
            rng = np.random.default_rng(1600 + seed)
            n = int(rng.integers(10, 60))
            K = np.asfortranarray(random_psd_kernel(rng, n))
            assert not K.flags.c_contiguous
            y = random_labels(rng, n)
            _assert_same_as_reference(K, y, 1.0, tol=1e-8)

    def test_transpose_differing_only_by_a_signed_zero(self):
        # K == K.T holds, but not bit for bit: the solver takes K's symmetric
        # part, whose mirrored zeros are both 0.0.
        for seed in range(4):
            rng = np.random.default_rng(1700 + seed)
            n = 25
            K = random_psd_kernel(rng, n)
            K[3, 7], K[7, 3] = 0.0, -0.0
            K[0, n - 1], K[n - 1, 0] = -0.0, 0.0
            assert np.array_equal(K, K.T)
            assert not np.array_equal(K.view(np.uint64), K.T.view(np.uint64))
            y = random_labels(rng, n)
            for C in (0.1, 10.0):
                _assert_same_as_reference(K, y, C, tol=1e-8, reference=_symmetric_part(K))

    def test_second_index_scores_that_underflow(self):
        # With entries near 1e307 the curvatures are so large that, in the
        # last updates, every candidate's b^2 / a rounds to 0: the candidate
        # mask alone must then pick j. Without it the loop stalls on a pair
        # that is not violating.
        rng = np.random.default_rng(0)
        K = 1e306 * random_psd_kernel(rng, 20)
        y = random_labels(rng, 20)
        sol = solve_svm_dual(K, y, 1.0, tol=1e-8, max_updates=100_000)
        alpha, bias, objective, iterations = smo_reference(K, y, 1.0, tol=1e-8)
        assert np.array_equal(_bits(sol.alpha), _bits(alpha))
        assert (_bits(sol.bias), _bits(sol.objective)) == (_bits(bias), _bits(objective))
        assert sol.iterations == iterations == 287

    def test_kernel_matrix_input(self):
        rng = np.random.default_rng(1400)
        K = random_psd_kernel(rng, 30)
        y = random_labels(rng, 30)
        ids = tuple(f"s{i}" for i in range(30))
        stack = KernelStack(np.array([np.eye(30), K]), ids, ids, ("a", "b"), (1, 1))
        # A read-only slice of a stack's values.
        sol = solve_svm_dual(stack.values[1], y, 1.0, tol=1e-6)
        alpha, bias, objective, iterations = smo_reference(K, y, 1.0, tol=1e-6)
        assert np.array_equal(sol.alpha, alpha)
        assert (sol.bias, sol.objective, sol.iterations) == (bias, objective, iterations)


class TestSvmMatchesReferenceProperty:
    """Random problems: ``solve_svm_dual`` equals the reference bit for bit.

    Warm starts from a perturbed kernel's solution and C across six decades
    make alpha_t enter and leave the bounds often, which rewrites the masked
    gradient rows entry by entry. The Newton steps are off, so a warm start
    reaches SMO's loop as it is given.
    """

    @settings(max_examples=60)
    @given(
        n=st.integers(2, 60),
        log_c=st.floats(-3.0, 3.0),
        tol=st.sampled_from([1e-3, 1e-8]),
        warm=st.booleans(),
        signed_zero=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_alpha_bias_objective_updates(self, n, log_c, tol, warm, signed_zero, seed):
        rng = np.random.default_rng(seed)
        C = 10.0**log_c
        K = random_psd_kernel(rng, n)
        y = random_labels(rng, n)
        reference = K
        if signed_zero:
            # Equal to its transpose only as floats: the solver takes its
            # symmetric part.
            s, t = rng.choice(n, size=2, replace=False)
            K[s, t], K[t, s] = 0.0, -0.0
            reference = _symmetric_part(K)
        alpha0 = None
        if warm:
            nudge = random_psd_kernel(rng, n, rank=2)
            alpha0 = solve_svm_dual(K + nudge, y, C, tol=tol).alpha
        # A cap far above what these problems need turns a loop that stalls
        # into a failure.
        with _newton_steps_off():
            sol = solve_svm_dual(K, y, C, tol=tol, max_updates=100_000, alpha0=alpha0)
        alpha, bias, objective, iterations = smo_reference(
            reference, y, C, tol=tol, alpha0=alpha0
        )
        assert np.array_equal(_bits(sol.alpha), _bits(alpha))
        assert _bits(sol.bias) == _bits(bias)
        assert _bits(sol.objective) == _bits(objective)
        assert sol.iterations == iterations


def _random_stack(rng, n, m, asymmetric=None):
    """A train stack of m random PSD kernels; kernel ``asymmetric``, if
    given, differs from its transpose within SYMMETRY_TOL before the stack
    takes its symmetric part."""
    values = np.array([random_psd_kernel(rng, n) for _ in range(m)])
    if asymmetric is not None:
        k = values[asymmetric]
        k += 0.4 * SYMMETRY_TOL * np.abs(k).max() * rng.uniform(-1.0, 1.0, size=(n, n))
    ids = tuple(f"s{i}" for i in range(n))
    return KernelStack(values, ids, ids, tuple(f"g{j}" for j in range(m)), (1,) * m)


class TestStackRows:
    """SMO on a stack reads ``sum_j w_j K_j``: up to ``WHOLE_KERNEL_MAX_N``
    samples built whole at the first update, with every pair curvature, and
    above that row by row when first needed. Either way every value equals
    the built ``weighted_sum`` bit for bit, and a row is also the column that
    SMO's gradient update reads."""

    @settings(max_examples=40)
    @given(
        n=st.one_of(
            st.integers(2, 40),
            st.integers(solvers.WHOLE_KERNEL_MAX_N - 3, solvers.WHOLE_KERNEL_MAX_N + 3),
        ),
        weights=st.lists(st.sampled_from([0.0, 0.1, 1.0 / 3.0, 0.7, 2.5]), min_size=1, max_size=6)
        .filter(lambda w: any(w)),
        asymmetric=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_and_columns_match_the_weighted_sum(self, n, weights, asymmetric, seed):
        rng = np.random.default_rng(seed)
        m = len(weights)
        stack = _random_stack(rng, n, m, int(rng.integers(m)) if asymmetric else None)
        # Signed zeros, which a sum must not turn into -0.0.
        values = np.array(stack.values)
        values[:, 0, 1] = values[:, 1, 0] = rng.choice([0.0, -0.0], size=m)
        stack = KernelStack(values, stack.row_ids, stack.col_ids, stack.group_names,
                            stack.group_sizes)
        built = weighted_sum(stack, weights)
        whole, diag, rows, matvec = solvers._stack_rows(stack, np.array(weights))
        assert _bits(whole()).tolist() == _bits(built).tolist()
        assert _bits(diag()).tolist() == _bits(np.diagonal(built)).tolist()
        y = random_labels(rng, n)
        update_rows, ds, curvatures = solvers._update_parts(whole, diag, rows, y)
        assert [d.hex() for d in ds] == [d.hex() for d in np.diagonal(built).tolist()]
        for t in rng.permutation(n).tolist():
            for getter in (rows, update_rows):
                assert _bits(getter(t)).tolist() == _bits(built[t]).tolist()
                assert _bits(getter(t)).tolist() == _bits(built[:, t]).tolist()
            # The textbook K_tt + K_ii - 2 y_t y_i K_ti, flat pairs set to tau.
            d = np.diagonal(built)
            expected = (d[t] + d) - (2.0 * y[t] * y) * built[t]
            expected[expected <= 0] = solvers._TAU
            assert _bits(curvatures(t)).tolist() == _bits(expected).tolist()
        v = rng.normal(size=n)
        np.testing.assert_allclose(matvec(v), built @ v, rtol=1e-12, atol=1e-12 * n)

    @pytest.mark.parametrize("n", [30, 90])
    def test_warm_small_stack_solve_is_the_dense_solve_in_hex(self, monkeypatch, n):
        # Warm-started as the weight loop starts it: alpha0 from the solve at
        # the previous weights, kq0 = sum_j w_j (K_j q) from its block norms'
        # batched products. The whole-kernel route on the stack, the dense
        # solve on the built sum, and, with WHOLE_KERNEL_MAX_N = 0, the
        # stack's row-by-row route take the same Newton steps on the same
        # rows and agree. With the steps off (NEWTON_ROUNDS = 0), the
        # row-by-row route agrees with the dense solve.
        rng = np.random.default_rng(2100 + n)
        stack = _random_stack(rng, n, 4)
        y = random_labels(rng, n)
        for C in (0.1, 10.0):
            alpha0 = solve_svm_dual(stack, y, C, weights=[0.25] * 4).alpha
            weights = np.array([0.5, 0.0, 0.25, 1.5])
            kq0 = weights @ np.matmul(stack.values, alpha0 * y)
            dense = weighted_sum(stack, weights)
            stepped, steps, _ = _stepped_solve(monkeypatch, stack, y, weights, C, 1e-3, alpha0, kq0)
            solutions = [
                stepped,
                solve_svm_dual(dense, y, C, alpha0=alpha0, kq0=kq0),
            ]
            with monkeypatch.context() as patch:
                patch.setattr(solvers, "WHOLE_KERNEL_MAX_N", 0)
                rowwise, row_steps, _ = _stepped_solve(
                    patch, stack, y, weights, C, 1e-3, alpha0, kq0
                )
                solutions.append(rowwise)
                with _newton_steps_off():
                    solutions.append(
                        solve_svm_dual(stack, y, C, alpha0=alpha0, kq0=kq0, weights=weights)
                    )
            with _newton_steps_off():
                solutions.append(solve_svm_dual(dense, y, C, alpha0=alpha0, kq0=kq0))
            hexes = [
                ([a.hex() for a in s.alpha.tolist()], s.bias.hex(), s.objective.hex(), s.iterations)
                for s in solutions
            ]
            assert steps and steps[0] is not None
            assert row_steps and row_steps[0] is not None
            assert solutions[3].iterations > 0
            assert hexes[1] == hexes[0] and hexes[2] == hexes[0], C
            assert hexes[4] == hexes[3], C

    @pytest.mark.parametrize("asymmetric", [None, 1])
    def test_cold_solve_is_the_dense_solve(self, asymmetric):
        for seed in range(4):
            rng = np.random.default_rng(1800 + seed)
            n = int(rng.integers(10, 60))
            stack = _random_stack(rng, n, 4, asymmetric)
            weights = np.array([0.5, 0.0, 0.25, 1.5])
            y = random_labels(rng, n)
            for C in (0.01, 1.0, 100.0):
                dense = solve_svm_dual(weighted_sum(stack, weights), y, C, tol=1e-8)
                rowwise = solve_svm_dual(stack, y, C, tol=1e-8, weights=weights)
                assert _bits(rowwise.alpha).tolist() == _bits(dense.alpha).tolist()
                assert (rowwise.bias.hex(), rowwise.objective.hex(), rowwise.iterations) == (
                    dense.bias.hex(), dense.objective.hex(), dense.iterations
                )

    def test_objective_from_the_gradient_matches_the_dense_formula(self):
        for seed in range(12):
            rng = np.random.default_rng(1900 + seed)
            n = int(rng.integers(5, 80))
            stack = _random_stack(rng, n, 3)
            weights = np.array([0.2, 0.0, 0.9])
            K = weighted_sum(stack, weights)
            y = random_labels(rng, n)
            C = 10.0 ** rng.uniform(-3.0, 3.0)
            warm = solve_svm_dual(K + random_psd_kernel(rng, n, rank=2), y, C).alpha
            for sol in (
                solve_svm_dual(K, y, C, tol=1e-6),
                solve_svm_dual(stack, y, C, tol=1e-6, weights=weights),
                solve_svm_dual(stack, y, C, tol=1e-6, weights=weights, alpha0=warm),
            ):
                coef = sol.alpha * y
                dense = float(sol.alpha.sum() - 0.5 * coef @ (K @ coef))
                assert abs(sol.objective - dense) <= 1e-12 * abs(dense), (seed, C)

    def test_weights_and_stack_are_checked(self):
        rng = np.random.default_rng(2001)
        stack = _random_stack(rng, 6, 2)
        y = random_labels(rng, 6)
        for weights, message in (
            ([1.0], "expected 2 weights"), ([1.0, -0.5], "nonnegative"),
            ([0.0, 0.0], "positive"), ([1.0, np.nan], "non-finite"),
        ):
            with pytest.raises(ValueError, match=message):
                solve_svm_dual(stack, y, 1.0, weights=weights)
        cross = KernelStack(stack.values[:, :5], stack.row_ids[:5], stack.col_ids, ("a", "b"),
                            (1, 1))
        with pytest.raises(ValueError, match="not a cross stack"):
            solve_svm_dual(cross, y[:5], 1.0, weights=[1.0, 1.0])

    def test_a_combined_kernel_that_overflows_is_a_data_error(self):
        rng = np.random.default_rng(2000)
        k = random_psd_kernel(rng, 8)
        ids = tuple(f"s{i}" for i in range(8))
        stack = KernelStack(np.array([k, k]) * (1e308 / np.abs(k).max()), ids, ids,
                            ("a", "b"), (1, 1))
        y = random_labels(rng, 8)
        # Refused before any arithmetic that would warn.
        with np.errstate(all="raise"), pytest.raises(DataError, match="kernel overflows"):
            solve_svm_dual(stack, y, 1.0, weights=[1.0, 1.0])

    @pytest.mark.parametrize("top", [1e308, 4.5e307])
    def test_a_kernel_whose_pair_curvatures_overflow_is_a_data_error(self, top):
        # Each entry is finite, but K_ii + K_tt - 2 K_it can reach 4 * max|K|,
        # which is not: refused up front, dense or from a one-kernel stack.
        rng = np.random.default_rng(2001)
        k = random_psd_kernel(rng, 8)
        k *= top / np.abs(k).max()
        ids = tuple(f"s{i}" for i in range(8))
        stack = KernelStack(k[None], ids, ids, ("a",), (1,))
        y = random_labels(rng, 8)
        for args, options in (((k,), {}), ((stack,), {"weights": [1.0]})):
            with np.errstate(all="raise"), pytest.raises(DataError, match="pair curvatures"):
                solve_svm_dual(*args, y, 1.0, **options)


def _loop_start(rng, n, m, kind, C, tol=DEFAULT_SVM_TOL):
    """A warm start as the weight loop hands one to the step: a stack of m
    kernels ("full" rank, "low-rank", or "duplicated" samples, with equal
    labels on the copies), labels, new weights, the solve at other weights,
    and ``kq0`` from the batched products of the block norms."""
    if kind == "duplicated":
        base = rng.normal(size=(n - n // 4, 3 * m))
        X = np.vstack([base, base[: n // 4]])
        values = np.array([X[:, 3 * j:3 * j + 3] @ X[:, 3 * j:3 * j + 3].T for j in range(m)])
    else:
        rank = (lambda: int(rng.integers(1, 4))) if kind == "low-rank" else (lambda: None)
        values = np.array([random_psd_kernel(rng, n, rank=rank()) for _ in range(m)])
    ids = tuple(f"s{i}" for i in range(n))
    stack = KernelStack(values, ids, ids, tuple(f"g{j}" for j in range(m)), (1,) * m)
    y = random_labels(rng, n)
    if kind == "duplicated":
        y[n - n // 4:] = y[: n // 4]
    weights = rng.uniform(0.0, 1.0, m)
    weights[0] += 0.1
    previous = rng.uniform(0.1, 1.0, m)
    alpha0 = solve_svm_dual(stack, y, C, tol=tol, weights=previous, max_updates=10**5).alpha
    return stack, y, weights, alpha0, weights @ np.matmul(stack.values, alpha0 * y)


def _dual_objective(stack, weights, y, alpha):
    q = alpha * y
    return float(alpha.sum() - 0.5 * q @ weighted_sum(stack, weights) @ q)


def _violation(y, C, alpha, kq):
    """SMO's stop-rule quantity m - M at ``alpha``, from ``kq``."""
    g = -y * (y * kq - 1.0)
    up = np.where(y > 0, alpha < C, alpha > 0)
    low = np.where(y > 0, alpha > 0, alpha < C)
    return g[up].max() - g[low].min()


def _stepped_solve(monkeypatch, stack, y, weights, C, tol, alpha0, kq0):
    """The solve from a weight-loop start, what each Newton step returned
    (``(alpha, kq)``, or None for a step not taken), and the alpha that
    SMO's loop started from."""
    steps, starts = [], []
    step, smo = solvers._newton_step, solvers._smo

    def recording_step(*args):
        steps.append(step(*args))
        return steps[-1]

    def recording_smo(parts, y, ys, C, tol, max_updates, alpha, *rest):
        starts.append(alpha.copy())
        return smo(parts, y, ys, C, tol, max_updates, alpha, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_newton_step", recording_step)
        patch.setattr(solvers, "_smo", recording_smo)
        sol = solve_svm_dual(stack, y, C, tol=tol, alpha0=alpha0, kq0=kq0, weights=weights)
    return sol, steps, starts[0]


class TestNewtonWarmStart:
    """A warm start's Newton steps hand SMO's loop a feasible start no worse
    than alpha0, or alpha0 itself; SMO still certifies the answer."""

    KINDS = ("full", "low-rank", "duplicated")

    @classmethod
    def _table(cls):
        """90 weight-loop starts: n 4-40, 1-4 kernels of each kind, C 0.01-100."""
        for seed in range(90):
            rng = np.random.default_rng(2500 + seed)
            n, m = int(rng.integers(4, 41)), int(rng.integers(1, 5))
            C = float(rng.choice([0.01, 0.1, 1.0, 10.0, 100.0]))
            yield seed, C, _loop_start(rng, n, m, cls.KINDS[seed % 3], C)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_start_is_feasible_and_no_worse(self, monkeypatch):
        moved = 0
        for seed, C, (stack, y, weights, alpha0, kq0) in self._table():
            n = y.size
            sol, steps, start = _stepped_solve(
                monkeypatch, stack, y, weights, C, 1e-3, alpha0, kq0
            )
            taken = [step for step in steps if step is not None]
            if not taken:
                assert _bits(start).tolist() == _bits(alpha0).tolist(), seed
                continue
            moved += 1
            assert _bits(start).tolist() == _bits(taken[-1][0]).tolist(), seed
            # Every step, from the one before it.
            before, previous = _dual_objective(stack, weights, y, alpha0), alpha0
            for alpha, kq in taken:
                assert ((alpha >= 0.0) & (alpha <= C)).all(), seed
                # A multiplier the step blocks on is set to its bound, not left
                # a rounding error inside the box.
                near = (alpha != previous) & ((alpha < 1e-12 * C) | (alpha > C * (1.0 - 1e-12)))
                assert ((alpha == 0.0) | (alpha == C))[near].all(), seed
                # SMO's own equality check, which it would refuse the start by.
                assert abs(float(alpha @ y)) <= 1e-8 * max(1.0, float(alpha.sum())), seed
                after = _dual_objective(stack, weights, y, alpha)
                assert after >= before - 1e-12 * max(1.0, abs(before)), seed
                expected = weighted_sum(stack, weights) @ (alpha * y)
                np.testing.assert_allclose(
                    kq, expected, rtol=0, atol=1e-12 * np.abs(kq0).max() * n
                )
                before, previous = after, alpha
            assert _violation(y, C, sol.alpha, weights @ np.matmul(stack.values, sol.alpha * y)) \
                <= 1e-3 + 1e-9
        # Most starts are moved; a table where none were would test nothing.
        assert moved >= 60

    def test_the_maximal_violating_pair_joins_the_free_set(self, monkeypatch):
        # From the second step on, SMO's maximal violating pair joins the
        # free set, so a multiplier at a bound can come free before SMO runs.
        joined, step = [], solvers._newton_step

        def recording(K, y, C, alpha, kq, g, free):
            at_bound = (alpha[free] == 0.0) | (alpha[free] == C)
            result = step(K, y, C, alpha, kq, g, free)
            joined.append(bool(at_bound.any()) and result is not None)
            return result

        monkeypatch.setattr(solvers, "_newton_step", recording)
        for _, C, (stack, y, weights, alpha0, kq0) in self._table():
            solve_svm_dual(stack, y, C, alpha0=alpha0, kq0=kq0, weights=weights)
        assert sum(joined) >= 30

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "case", ["duplicated-pair", "near-duplicated-pair", "rank-one", "last-is-a-copy"]
    )
    def test_singular_system_returns_alpha0(self, monkeypatch, case):
        # Every multiplier free at C/2, which balanced labels make feasible,
        # and far from optimal: the free set's kernel is singular, or nearly,
        # on the subspace sum(e) = 0, so the first step is not taken and
        # SMO's loop starts at alpha0. The duplicated pair's Cholesky ends on
        # a pivot of round-off size; rank-one's and last-is-a-copy's fails
        # outright. A pair 1e-7 apart ends on a pivot that small, which LU
        # solves without complaint: only the pivot test refuses it.
        rng = np.random.default_rng(2601)
        X = rng.normal(size=(8, 10))
        if case == "rank-one":
            X = X[:, :1]
        elif case == "duplicated-pair":
            X[5] = X[1]
        elif case == "near-duplicated-pair":
            X[5] = X[1] + 1e-7 * rng.normal(size=10)
        else:
            X[7] = X[3]  # the free sample the reduced system eliminates
        ids = tuple(f"s{i}" for i in range(8))
        stack = KernelStack(np.array([X @ X.T]), ids, ids, ("g",), (X.shape[1],))
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        C, weights = 1.0, np.array([0.7])
        alpha0 = np.full(8, C / 2)
        assert float(alpha0 @ y) == 0.0
        kq0 = weights @ np.matmul(stack.values, alpha0 * y)
        assert _violation(y, C, alpha0, kq0) > 1e-3
        _, steps, start = _stepped_solve(monkeypatch, stack, y, weights, C, 1e-3, alpha0, kq0)
        assert steps == [None]
        assert _bits(start).tolist() == _bits(alpha0).tolist()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_start_within_tol_returns_alpha0(self, monkeypatch):
        for seed in range(30):
            rng = np.random.default_rng(2700 + seed)
            n, m = int(rng.integers(4, 41)), int(rng.integers(1, 4))
            C = float(rng.choice([0.1, 1.0, 10.0]))
            stack, y, weights, _, _ = _loop_start(rng, n, m, self.KINDS[seed % 3], C)
            # Solved at a tenth of the tolerance, so the recomputed gradient's
            # round-off cannot carry the violation above it.
            alpha0 = solve_svm_dual(stack, y, C, tol=1e-4, weights=weights).alpha
            kq0 = weights @ np.matmul(stack.values, alpha0 * y)
            assert _violation(y, C, alpha0, kq0) <= 1e-3
            with monkeypatch.context() as patch:
                # The solve returns without building K: no step, no update.
                patch.setattr(solvers, "_update_parts", None)
                sol, steps, start = _stepped_solve(
                    patch, stack, y, weights, C, 1e-3, alpha0, kq0
                )
            assert steps == [] and sol.iterations == 0, seed
            assert _bits(start).tolist() == _bits(alpha0).tolist()
            assert _bits(sol.alpha).tolist() == _bits(alpha0).tolist()

    def test_smo_from_the_step_matches_the_bruteforce_qp(self, monkeypatch):
        # Criterion 01's oracle and tolerance: the objective within 1e-4.
        moved = 0
        for seed in range(45):
            rng = np.random.default_rng(2800 + seed)
            n, m = int(rng.integers(4, 7)), int(rng.integers(1, 4))
            C = float(rng.choice([0.1, 1.0, 10.0]))
            stack, y, weights, alpha0, kq0 = _loop_start(rng, n, m, self.KINDS[seed % 3], C)
            sol, steps, _ = _stepped_solve(monkeypatch, stack, y, weights, C, 1e-7, alpha0, kq0)
            moved += any(step is not None for step in steps)
            _, oracle = svm_dual_bruteforce(weighted_sum(stack, weights), y, C)
            assert abs(sol.objective - oracle) <= 1e-4, seed
        assert moved >= 20

    def test_large_problems_take_steps(self, monkeypatch):
        # Above WHOLE_KERNEL_MAX_N samples the steps read the free set's rows,
        # computed one at a time, in place of the whole kernel.
        rng = np.random.default_rng(2900)
        n = solvers.WHOLE_KERNEL_MAX_N + 1
        stack, y, weights, alpha0, kq0 = _loop_start(rng, n, 2, "full", 1.0)
        assert _violation(y, 1.0, alpha0, kq0) > 1e-3
        sol, steps, start = _stepped_solve(
            monkeypatch, stack, y, weights, 1.0, 1e-3, alpha0, kq0
        )
        taken = [step for step in steps if step is not None]
        assert taken
        assert _bits(start).tolist() == _bits(taken[-1][0]).tolist()
        assert _violation(y, 1.0, sol.alpha, weights @ np.matmul(stack.values, sol.alpha * y)) \
            <= 1e-3 + 1e-9

    def test_large_problems_compute_each_row_once(self, monkeypatch):
        # The steps and SMO's updates read one cache of rows: a warm solve
        # that steps and then updates computes no row of K twice.
        stack, y, weights, alpha0, kq0 = _binary_warm_start(200, 1.0)
        assert _violation(y, 1.0, alpha0, kq0) > 1e-3
        computed, stack_rows = [], solvers._stack_rows

        def counting_rows(stack, weights):
            whole, diag, rows, matvec = stack_rows(stack, weights)

            def row(t):
                computed.append(t)
                return rows(t)

            return whole, diag, row, matvec

        monkeypatch.setattr(solvers, "_stack_rows", counting_rows)
        sol, steps, _ = _stepped_solve(monkeypatch, stack, y, weights, 1.0, 1e-3, alpha0, kq0)
        assert any(step is not None for step in steps)
        assert sol.iterations > 0
        assert computed and len(computed) == len(set(computed))


def _binary_warm_start(n, C):
    """A weight-loop warm start on ten kernels of eight binary features each,
    whose integer entries no summation order rounds."""
    rng = np.random.default_rng(3100 + n)
    m = 10
    X = rng.integers(0, 2, size=(n, 8 * m)).astype(np.float64)
    values = np.array([X[:, 8 * j:8 * j + 8] @ X[:, 8 * j:8 * j + 8].T for j in range(m)])
    ids = tuple(f"s{i}" for i in range(n))
    stack = KernelStack(values, ids, ids, tuple(f"g{j}" for j in range(m)), (8,) * m)
    y = random_labels(rng, n)
    alpha0 = solve_svm_dual(stack, y, C, weights=rng.uniform(0.1, 1.0, m)).alpha
    weights = rng.uniform(0.1, 1.0, m)
    return stack, y, weights, alpha0, weights @ np.matmul(stack.values, alpha0 * y)


class TestLargeWarmSolvesKeepTheirBits:
    """Above ``WHOLE_KERNEL_MAX_N`` samples a warm solve takes Newton steps on
    the free set's rows before SMO's updates. The digests of alpha, bias,
    objective and update count pin that route; each solve is also checked
    against the reference SMO loop from the same start, within criterion
    01's objective tolerance."""

    DIGESTS = {
        (129, 0.1): "24806674c1ab2045fb8174481a72682411083866b2f2c4e8c712a235aeeda407",
        (129, 1.0): "62f28fa752b3a17f75f302101b0a03b53bc9bab9b0855c50ebab1cc19f493985",
        (200, 0.1): "96b6f6595c34eb121a995e94115b8394ddcda9eaae614388b1a16284402e341d",
        (200, 1.0): "3c9f2c9ad6ee36a9d33417ef5b0147cd1f48538373f37d4f84f6f262361a89c2",
    }

    @pytest.mark.parametrize("n, C", sorted(DIGESTS))
    def test_warm_stack_solve_digest(self, monkeypatch, n, C):
        stack, y, weights, alpha0, kq0 = _binary_warm_start(n, C)
        # A start the steps move: it breaks the stop rule, with many
        # multipliers free.
        assert _violation(y, C, alpha0, kq0) > 1e-3
        assert ((alpha0 > 0) & (alpha0 < C)).sum() >= 30
        sol, steps, _ = _stepped_solve(monkeypatch, stack, y, weights, C, 1e-3, alpha0, kq0)
        assert any(step is not None for step in steps)
        _, _, objective, _ = smo_reference(weighted_sum(stack, weights), y, C, alpha0=alpha0)
        assert abs(sol.objective - objective) <= 1e-4
        text = " ".join(
            [*(a.hex() for a in sol.alpha.tolist()), sol.bias.hex(), sol.objective.hex(),
             str(sol.iterations)]
        )
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[n, C]


class TestSvmSolutionInvariants:
    def _solve(self, seed, n=10, C=1.0, tol=1e-6):
        rng = np.random.default_rng(seed)
        K = random_psd_kernel(rng, n)
        y = random_labels(rng, n)
        return K, y, C, solve_svm_dual(K, y, C, tol=tol)

    def test_box_and_equality_constraints(self):
        for seed in range(10):
            _, y, C, sol = self._solve(500 + seed)
            assert sol.alpha.min() >= 0.0
            assert sol.alpha.max() <= C
            assert abs(sol.alpha @ y) < 1e-9

    def test_free_vectors_sit_on_the_margin(self):
        for seed in range(10):
            K, y, C, sol = self._solve(600 + seed, tol=1e-8)
            coef = sol.alpha * y
            margins = y * (K @ coef + sol.bias)
            free = (sol.alpha > 1e-7) & (sol.alpha < C - 1e-7)
            if free.any():
                np.testing.assert_allclose(margins[free], 1.0, atol=1e-6)

    def test_deterministic(self):
        K, y, C, first = self._solve(700)
        _, _, _, second = self._solve(700)
        np.testing.assert_array_equal(first.alpha, second.alpha)
        assert first.bias == second.bias
        assert first.iterations == second.iterations

    def test_warm_start_reaches_same_solution(self):
        rng = np.random.default_rng(701)
        K = random_psd_kernel(rng, 12)
        y = random_labels(rng, 12)
        cold = solve_svm_dual(K, y, C=2.0, tol=1e-9)
        warm = solve_svm_dual(K, y, C=2.0, tol=1e-9, alpha0=cold.alpha)
        assert warm.iterations <= 1
        assert warm.objective == pytest.approx(cold.objective, abs=1e-10)

    def test_warm_start_from_other_problem(self):
        rng = np.random.default_rng(702)
        K = random_psd_kernel(rng, 10)
        y = random_labels(rng, 10)
        cold = solve_svm_dual(K, y, C=1.0, tol=1e-9)
        # A feasible but unrelated start must not change the answer.
        other = solve_svm_dual(2.0 * K, y, C=1.0, tol=1e-9)
        warm = solve_svm_dual(K, y, C=1.0, tol=1e-9, alpha0=other.alpha)
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)

    def test_objective_matches_its_own_alpha(self):
        K, y, _, sol = self._solve(703, tol=1e-8)
        coef = sol.alpha * y
        recomputed = sol.alpha.sum() - 0.5 * coef @ K @ coef
        assert sol.objective == pytest.approx(recomputed, abs=1e-12)

    def test_solutions_hold_plain_values_and_read_only_alpha(self):
        K, y, _, cold = self._solve(704)
        warm = solve_svm_dual(K, y, 1.0, alpha0=cold.alpha)
        ridge = solve_krr_dual(K, y, 1.0)
        for sol in (cold, warm):
            assert type(sol.bias) is float and type(sol.objective) is float
            assert type(sol.iterations) is int
        assert type(ridge.target_offset) is float
        for alpha in (cold.alpha, warm.alpha, ridge.alpha):
            assert alpha.dtype == np.float64 and alpha.shape == (len(y),)
            assert not alpha.flags.writeable


class TestSvmValidation:
    def test_rejects_asymmetric_kernel(self):
        with pytest.raises(ValueError, match="not symmetric"):
            solve_svm_dual(np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([1.0, -1.0]), 1.0)

    def test_rejects_single_class(self):
        with pytest.raises(DataError, match="single class"):
            solve_svm_dual(np.eye(2), np.array([1.0, 1.0]), 1.0)

    def test_rejects_non_binary_labels(self):
        for bad in (0.0, 2.0, np.nan):
            with pytest.raises(DataError, match="-1/\\+1"):
                solve_svm_dual(np.eye(3), np.array([1.0, -1.0, bad]), 1.0)

    def test_rejects_bad_c(self):
        for C in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="C must be"):
                solve_svm_dual(np.eye(2), np.array([1.0, -1.0]), C)

    def test_rejects_infeasible_warm_start(self):
        with pytest.raises(ValueError, match="box"):
            solve_svm_dual(
                np.eye(2), np.array([1.0, -1.0]), 1.0, alpha0=np.array([2.0, 2.0])
            )

    def test_rejects_non_finite_warm_start(self):
        # NaN passes the box and equality checks, which are comparisons;
        # the loop would then never meet its stopping rule.
        K = np.eye(6)
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        for bad in (np.nan, np.inf, -np.inf):
            for alpha0 in ([bad, bad, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 0.0, bad]):
                with pytest.raises(ValueError, match="non-finite"):
                    solve_svm_dual(K, y, 1.0, alpha0=np.array(alpha0))

    def test_update_cap_raises_convergence_error(self):
        rng = np.random.default_rng(800)
        K = random_psd_kernel(rng, 20)
        y = random_labels(rng, 20)
        with pytest.raises(ConvergenceError, match="exceeded 1 updates"):
            solve_svm_dual(K, y, C=10.0, tol=1e-12, max_updates=1)


def _refusal(call):
    """The message of the ValueError ``call()`` raises, or None."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


class TestOneTrainKernelCheck:
    """``KernelStack`` and both solvers check a train kernel by one rule."""

    N = 12
    Y = np.array([1.0 if (i * 5) % 3 else -1.0 for i in range(N)])

    @classmethod
    def _kernel(cls, case):
        # Integer features keep every entry, and every perturbation below, exact.
        X = np.array([[(3 * i + 5 * j) % 7 - 3 for j in range(4)] for i in range(cls.N)])
        K = (X @ X.T).astype(np.float64) + np.eye(cls.N)
        if case in ("nan", "+inf", "-inf"):
            K[1, 2] = K[2, 1] = float(case)
        elif case == "asymmetric":
            K[0, 1] += 1e-6  # 1e-6 / max|K| = 5e-8, above SYMMETRY_TOL
        elif case == "within_tolerance":
            # At most 2 * 2**-32 / max|K| = 2e-11 apart, and differing bits.
            for i in range(cls.N):
                for j in range(i + 1, cls.N):
                    K[i, j] += ((i * 7 + j * 3) % 5 - 2) * 2.0 ** -32
        elif case == "signed_zero":
            K[0, 1], K[1, 0] = 0.0, -0.0
        return K

    @pytest.mark.parametrize(
        "case, expected",
        [
            ("nan", "kernel contains non-finite entries"),
            ("+inf", "kernel contains non-finite entries"),
            ("-inf", "kernel contains non-finite entries"),
            ("asymmetric", "train kernel is not symmetric"),
            ("within_tolerance", None),
            ("signed_zero", None),
        ],
    )
    def test_stack_and_solvers_agree(self, case, expected):
        K = self._kernel(case)
        ids = tuple(f"s{i}" for i in range(self.N))
        outcomes = [
            _refusal(lambda: KernelStack(K[None], ids, ids, ("g",), (1,))),
            _refusal(lambda: solve_svm_dual(K, self.Y, 0.1)),
            _refusal(lambda: solve_krr_dual(K, np.arange(self.N, dtype=np.float64), 1.0)),
        ]
        assert outcomes == [expected] * 3

    def test_smo_keeps_its_bits_on_an_accepted_asymmetric_kernel(self, monkeypatch):
        """An accepted kernel that is not symmetric bit for bit is solved on
        its symmetric part ``K/2 + K.T/2``, dense or from a one-kernel stack,
        with the bits pinned here; SMO on K's own rows would give others."""
        K = self._kernel("within_tolerance")
        ids = tuple(f"s{i}" for i in range(self.N))
        stack = KernelStack(K[None], ids, ids, ("g",), (1,))
        for sol in (
            solve_svm_dual(K, self.Y, 0.1, tol=1e-12),
            solve_svm_dual(stack, self.Y, 0.1, tol=1e-12, weights=[1.0]),
            solve_svm_dual(K / 2.0 + K.T / 2.0, self.Y, 0.1, tol=1e-12),
        ):
            assert [a.hex() for a in sol.alpha.tolist()] == [
                "0x1.999999999999ap-4", "0x1.0ed1fdd61530bp-11", "0x1.999999999999ap-4",
                "0x1.999999999999ap-4", "0x1.839486a802c9dp-5", "0x1.1c9caf7e1a619p-8",
                "0x1.999999999999ap-4", "0x1.999999999999ap-4", "0x1.0ed1fdd08b465p-11",
                "0x1.999999999999ap-4", "0x1.999999999999ap-4", "0x1.839486acd29b7p-5",
            ]
            assert (sol.bias.hex(), sol.iterations) == ("0x1.9291258b6938ap-1", 41)
        monkeypatch.setattr(solvers, "check_kernel", lambda k: (k, float(np.abs(k).max())))
        rows = solve_svm_dual(K, self.Y, 0.1, tol=1e-12)
        assert rows.alpha.tolist() != sol.alpha.tolist()


class TestKrr:
    def test_identity_kernel(self):
        # (K + n/(2C) I) alpha = y - mean(y): here (2 I) alpha = [1, -1].
        sol = solve_krr_dual(np.eye(2), np.array([1.0, -1.0]), C=1.0)
        np.testing.assert_allclose(sol.alpha, [0.5, -0.5], atol=1e-12)
        assert sol.target_offset == pytest.approx(0.0, abs=1e-15)

    def test_constant_targets_give_zero_alpha(self):
        sol = solve_krr_dual(np.eye(3), np.full(3, 7.5), C=1.0)
        np.testing.assert_allclose(sol.alpha, np.zeros(3), atol=1e-12)
        assert sol.target_offset == pytest.approx(7.5)

    def test_large_c_interpolates(self):
        rng = np.random.default_rng(900)
        K = random_psd_kernel(rng, 6)
        y = rng.normal(size=6)
        sol = solve_krr_dual(K, y, C=1e9)
        fitted = K @ sol.alpha + sol.target_offset
        np.testing.assert_allclose(fitted, y, atol=1e-5)

    def test_linear_system_residual(self):
        for seed in range(6):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.integers(4, 12))
            K = random_psd_kernel(rng, n)
            y = rng.normal(size=n)
            C = float(rng.uniform(0.05, 20.0))
            sol = solve_krr_dual(K, y, C)
            residual = (K + n / (2.0 * C) * np.eye(n)) @ sol.alpha - (y - y.mean())
            np.testing.assert_allclose(residual, np.zeros(n), atol=1e-9)

    def test_singular_kernel_falls_back(self):
        # Rank-1 kernel keeps the regularized system solvable; the solver
        # must not fail on a kernel that is singular by itself.
        v = np.array([1.0, 2.0, 3.0])
        K = np.outer(v, v)
        sol = solve_krr_dual(K, np.array([1.0, 2.0, 2.5]), C=1.0)
        assert np.isfinite(sol.alpha).all()

    def test_exactly_singular_system_takes_least_squares(self):
        # K = v v' - n/(2C) I makes the ridge system exactly v v' (powers of
        # two keep every step of the LU elimination exact), so the LU solve
        # meets a zero pivot and the minimum-norm least-squares solution,
        # v (v' y_c) / |v|^4, must come back instead.
        v = np.array([1.0, 2.0, 4.0])
        n, C = 3, 1.5
        K = np.outer(v, v) - n / (2.0 * C) * np.eye(n)
        y = np.array([1.0, 2.0, 6.0])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(K + n / (2.0 * C) * np.eye(n), y - y.mean())
        sol = solve_krr_dual(K, y, C)
        y_c = y - y.mean()
        np.testing.assert_allclose(sol.alpha, v * (v @ y_c) / (v @ v) ** 2, atol=1e-14)
        assert sol.target_offset == pytest.approx(3.0)

    def test_rejects_non_finite_targets(self):
        with pytest.raises(ValueError, match="non-finite"):
            solve_krr_dual(np.eye(2), np.array([1.0, np.nan]), 1.0)


class TestPredict:
    def test_linear_decision_values(self):
        alpha = np.array([0.5, 0.5])
        labels = np.array([-1.0, 1.0])
        k_cross = np.array([[0.0, 2.0], [1.0, 1.0]])
        values = predict(alpha, -1.0, k_cross, labels=labels)
        np.testing.assert_allclose(values, [0.0, -1.0], atol=1e-15)

    def test_regression_path_has_no_labels(self):
        alpha = np.array([1.0, -1.0])
        values = predict(alpha, 0.25, np.array([[3.0, 1.0]]))
        np.testing.assert_allclose(values, [2.25], atol=1e-15)

    def test_rejects_width_mismatch(self):
        with pytest.raises(ValueError, match="train columns"):
            predict(np.array([1.0]), 0.0, np.array([[1.0, 2.0]]))

