"""Metrics, fold plans, and nested cross-validation."""

import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from enmkl import evaluation
from enmkl.errors import ConvergenceError, DataError
from enmkl.evaluation import (
    CvReport,
    FoldPlan,
    HyperGrid,
    _pick_best,
    auc,
    balanced_accuracy,
    make_fold_plan,
    mse,
    nested_cv,
    pearson_correlation,
)
from enmkl.kernels import (
    GroupedDataset,
    StackPreprocessor,
    bit_symmetric,
    build_linear_cross_kernels,
    build_linear_kernels,
    feature_blocks,
    group_feature_means,
)
from enmkl.mkl import predict_model, recover_primal_weights, train_enmkl_svm

from helpers import (
    make_classification_data,
    make_fold_plan_reference,
    make_regression_data,
    nested_cv_reference,
)


class TestBalancedAccuracy:
    def test_unequal_class_recalls(self):
        predicted = np.array([1.0, 1.0, 1.0, -1.0])
        truth = np.array([1.0, 1.0, -1.0, -1.0])
        assert balanced_accuracy(predicted, truth) == pytest.approx(0.75)

    def test_perfect_and_inverted(self):
        truth = np.array([1.0, -1.0, 1.0, -1.0])
        assert balanced_accuracy(truth, truth) == 1.0
        assert balanced_accuracy(-truth, truth) == 0.0

    def test_ignores_class_imbalance(self):
        # 9 of 10 in one class; majority voting scores only 0.5.
        truth = np.array([1.0] * 9 + [-1.0])
        predicted = np.ones(10)
        assert balanced_accuracy(predicted, truth) == pytest.approx(0.5)

    def test_sign_relabeling_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            truth = np.where(rng.random(12) < 0.5, 1.0, -1.0)
            if np.unique(truth).size < 2:
                continue
            predicted = np.where(rng.random(12) < 0.5, 1.0, -1.0)
            assert balanced_accuracy(predicted, truth) == pytest.approx(
                balanced_accuracy(-predicted, -truth)
            )

    def test_single_class_truth_rejected(self):
        with pytest.raises(DataError, match="both classes"):
            balanced_accuracy(np.array([1.0, -1.0]), np.array([1.0, 1.0]))


class TestAuc:
    def test_three_of_four_pairs_ordered(self):
        decisions = np.array([0.9, 0.4, 0.3, 0.1])
        truth = np.array([1.0, -1.0, 1.0, -1.0])
        assert auc(decisions, truth) == pytest.approx(0.75)

    def test_perfect_ranking(self):
        decisions = np.array([2.0, 1.0, -1.0, -2.0])
        truth = np.array([1.0, 1.0, -1.0, -1.0])
        assert auc(decisions, truth) == 1.0

    def test_all_tied_scores_half(self):
        decisions = np.zeros(6)
        truth = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        assert auc(decisions, truth) == pytest.approx(0.5)

    def test_single_crossed_tie(self):
        # One positive tied with one negative: that pair counts 1/2.
        decisions = np.array([1.0, 0.5, 0.5])
        truth = np.array([1.0, 1.0, -1.0])
        assert auc(decisions, truth) == pytest.approx(0.75)

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            decisions = rng.normal(size=14)
            truth = np.where(rng.random(14) < 0.5, 1.0, -1.0)
            if np.unique(truth).size < 2:
                continue
            base = auc(decisions, truth)
            assert auc(3.0 * decisions + 7.0, truth) == pytest.approx(base)
            assert auc(np.tanh(decisions), truth) == pytest.approx(base)

    def test_complement_under_negation(self):
        decisions = np.array([0.9, 0.4, 0.3, 0.1])
        truth = np.array([1.0, -1.0, 1.0, -1.0])
        assert auc(-decisions, truth) == pytest.approx(1.0 - 0.75)

    def test_matches_scipy_rank_sum_exactly(self):
        from scipy.stats import rankdata

        rng = np.random.default_rng(91)
        for trial in range(300):
            n = int(rng.integers(2, 40))
            decisions = rng.normal(size=n)
            if trial % 2:
                # Coarse rounding makes ties within and across classes.
                decisions = np.round(decisions, 1)
            truth = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            truth[0], truth[1] = 1.0, -1.0
            pos = truth > 0
            n_pos, n_neg = int(pos.sum()), int((~pos).sum())
            rank_sum = float(rankdata(decisions)[pos].sum())
            expected = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
            assert auc(decisions, truth) == expected


class TestRegressionMetrics:
    def test_mse_hand_case(self):
        assert mse([1.0, 2.0, 3.0], [1.0, 1.0, 4.0]) == pytest.approx(2.0 / 3.0)

    def test_mse_zero_on_exact(self):
        values = np.array([0.5, -1.5, 2.0])
        assert mse(values, values) == 0.0

    def test_pearson_exact_linear(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert pearson_correlation(2.0 * x + 1.0, x) == pytest.approx(1.0)
        assert pearson_correlation(-x, x) == pytest.approx(-1.0)

    def test_pearson_zero_variance_rejected(self):
        with pytest.raises(DataError, match="zero variance"):
            pearson_correlation(np.ones(4), np.array([1.0, 2.0, 3.0, 4.0]))

    def test_pearson_symmetric(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=10), rng.normal(size=10)
        assert pearson_correlation(a, b) == pytest.approx(pearson_correlation(b, a))


class TestHyperGrid:
    def test_defaults_span_the_documented_ranges(self):
        grid = HyperGrid()
        np.testing.assert_allclose(grid.c_values, [10.0 ** e for e in range(-3, 4)])
        np.testing.assert_allclose(grid.mu_values, [i / 10 for i in range(1, 11)])

    def test_rejects_empty_axes(self):
        with pytest.raises(ValueError, match="empty"):
            HyperGrid(c_values=())

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="positive"):
            HyperGrid(c_values=(0.0,))
        with pytest.raises(ValueError):
            HyperGrid(mu_values=(1.5,))


class TestFoldPlans:
    def test_equal_sized_partition(self):
        ids = [f"s{i}" for i in range(10)]
        plan = make_fold_plan(ids, k_outer=5, k_inner=2, seed=3)
        test_sets = [set(test) for _, test in plan.outer_folds]
        assert all(len(t) == 2 for t in test_sets)
        assert set().union(*test_sets) == set(ids)

    def test_deterministic_and_seed_sensitive(self):
        ids = [f"s{i}" for i in range(15)]
        a = make_fold_plan(ids, 3, 2, seed=7)
        b = make_fold_plan(ids, 3, 2, seed=7)
        c = make_fold_plan(ids, 3, 2, seed=8)
        assert a.outer_folds == b.outer_folds
        assert a.inner_folds == b.inner_folds
        assert a.outer_folds != c.outer_folds

    def test_fold_ids_keep_dataset_order(self):
        ids = [f"s{i:02d}" for i in range(12)]
        position = {i: p for p, i in enumerate(ids)}
        plan = make_fold_plan(ids, 4, 2, seed=5)
        for train, test in plan.outer_folds:
            assert list(train) == sorted(train, key=position.__getitem__)
            assert list(test) == sorted(test, key=position.__getitem__)

    def test_stratification_keeps_both_classes(self):
        ids = [f"s{i}" for i in range(12)]
        labels = [1.0] * 6 + [-1.0] * 6
        plan = make_fold_plan(ids, 3, 2, seed=0, labels=labels)
        label_of = dict(zip(ids, labels))
        for _, test in plan.outer_folds:
            seen = {label_of[i] for i in test}
            assert seen == {1.0, -1.0}
            assert len(test) == 4

    def test_stratified_inner_folds_too(self):
        ids = [f"s{i}" for i in range(16)]
        labels = [1.0] * 8 + [-1.0] * 8
        plan = make_fold_plan(ids, 4, 3, seed=1, labels=labels)
        label_of = dict(zip(ids, labels))
        for inner in plan.inner_folds:
            for _, val in inner:
                assert {label_of[i] for i in val} == {1.0, -1.0}

    def test_blocks_never_split(self):
        ids = [f"s{i}" for i in range(12)]
        blocks = [f"b{i // 2}" for i in range(12)]
        plan = make_fold_plan(ids, 3, 2, blocks=blocks, seed=2)
        block_of = dict(zip(ids, blocks))
        for (train, test), inner in zip(plan.outer_folds, plan.inner_folds):
            assert {block_of[i] for i in train}.isdisjoint({block_of[i] for i in test})
            assert len(test) == 4
            for in_train, in_val in inner:
                assert {block_of[i] for i in in_train}.isdisjoint(
                    {block_of[i] for i in in_val}
                )

    def test_blocks_accept_mapping_or_sequence(self):
        ids = [f"s{i}" for i in range(8)]
        blocks = [f"b{i // 2}" for i in range(8)]
        a = make_fold_plan(ids, 2, 2, blocks=blocks, seed=4)
        b = make_fold_plan(ids, 2, 2, blocks=dict(zip(ids, blocks)), seed=4)
        assert a.outer_folds == b.outer_folds

    def test_too_few_units_rejected(self):
        ids = [f"s{i}" for i in range(13)]
        blocks = [f"b{i % 4}" for i in range(13)]
        with pytest.raises(ValueError, match="exceeds the 4 available blocks"):
            make_fold_plan(ids, 5, 2, blocks=blocks)
        with pytest.raises(ValueError, match="exceeds the 13 available samples"):
            make_fold_plan(ids, 14, 2)

    def test_inner_folds_partition_outer_train(self):
        ids = [f"s{i}" for i in range(20)]
        plan = make_fold_plan(ids, 4, 3, seed=6)
        for (train, _), inner in zip(plan.outer_folds, plan.inner_folds):
            vals = [set(v) for _, v in inner]
            assert set().union(*vals) == set(train)
            assert sum(len(v) for v in vals) == len(train)
            for in_train, in_val in inner:
                assert set(in_train) | set(in_val) == set(train)
                assert not set(in_train) & set(in_val)

    def test_plan_validation_catches_leakage(self):
        # An inner training set that reaches outside its outer fold's
        # training ids must be rejected outright.
        ids = ("a", "b", "c", "d")
        with pytest.raises(ValueError, match="inner folds must cover exactly"):
            FoldPlan(
                sample_ids=ids,
                outer_folds=((("a", "b"), ("c", "d")), (("c", "d"), ("a", "b"))),
                inner_folds=(
                    ((("a", "c"), ("b",)), (("b", "c"), ("a",))),
                    ((("c",), ("d",)), (("d",), ("c",))),
                ),
            )


def _check_folds(splits, whole, block_of, class_of, k):
    """Assert that the k (train, held-out) pairs ``splits`` split ``whole``:
    the held-out sets partition it, each train set is the rest, no side is
    empty, no block lies on both sides, and, when ``class_of`` is given, each
    class's held-out count differs by at most one across the folds."""
    assert len(splits) == k
    held_ids = [i for _, held in splits for i in held]
    assert sorted(held_ids) == sorted(whole)
    for train, held in splits:
        assert train and held
        assert set(train) == set(whole) - set(held) and len(train) + len(held) == len(whole)
        if block_of is not None:
            assert {block_of[i] for i in train}.isdisjoint(block_of[i] for i in held)
    if class_of is not None:
        for label in {class_of[i] for i in whole}:
            counts = [sum(class_of[i] == label for i in held) for _, held in splits]
            assert max(counts) - min(counts) <= 1, (label, counts)


@settings(max_examples=100)
@given(data=st.data())
def test_fold_plans_keep_their_invariants(data):
    ids = data.draw(st.lists(st.text(min_size=1, max_size=4), min_size=4, max_size=60,
                             unique=True), label="ids")
    n = len(ids)
    blocks = data.draw(st.none() | st.lists(st.integers(0, n // 2), min_size=n, max_size=n),
                       label="blocks")
    labels = data.draw(st.none() | st.lists(st.sampled_from([-1.0, 1.0]), min_size=n,
                                            max_size=n), label="labels")
    k_outer = data.draw(st.integers(2, 5), label="k_outer")
    k_inner = data.draw(st.integers(2, 5), label="k_inner")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")

    def make():
        return make_fold_plan(ids, k_outer, k_inner, blocks=blocks, seed=seed, labels=labels)

    try:
        plan = make()
    except DataError as exc:  # too few samples or blocks for the folds
        assert "exceeds the" in str(exc)
        return
    block_of = None if blocks is None else dict(zip(ids, blocks))
    # Without blocks every sample is a unit; without labels they are one class.
    class_of = None if blocks is not None else dict(zip(ids, labels or [0.0] * n))
    _check_folds(plan.outer_folds, ids, block_of, class_of, k_outer)
    for (train, _), inner in zip(plan.outer_folds, plan.inner_folds):
        _check_folds(inner, train, block_of, class_of, k_inner)
    again = make()
    assert (again.outer_folds, again.inner_folds) == (plan.outer_folds, plan.inner_folds)


# sha256 of json.dumps([outer_folds, inner_folds]) of plans over 23 ids,
# recorded before the nested split was written as one routine; the labels
# are ignored when blocks are given.
_IDS = [f"s{i:02d}" for i in range(23)]
_LABELS = [1.0 if i % 3 else -1.0 for i in range(23)]
_BLOCKS = [f"b{(i * 7) % 9}" for i in range(23)]
_GOLDEN_PLANS = {
    "plain": (
        dict(k_outer=5, k_inner=3, seed=11),
        "293e7984e20748e17abb05311ba22b3dcfc8ff5b425b5c78c296a0442eb0bef6",
    ),
    "stratified": (
        dict(k_outer=4, k_inner=3, seed=12, labels=_LABELS),
        "da7c4de3706f7c8a13b24d16995c49def9ab08561eac379bb3bd77c8876072ce",
    ),
    "blocks-dict": (
        dict(k_outer=3, k_inner=2, seed=13, blocks=dict(zip(_IDS, _BLOCKS))),
        "b9d3f30997274e79f216642aa5b946da5335b5ed6ef0118a00fd5a8a198d5cfd",
    ),
    "blocks-sequence": (
        dict(k_outer=4, k_inner=2, seed=14, blocks=_BLOCKS),
        "468b5fa7bb544cefab6be9443d85abec36897f007aca6bbe388ab491ae322f21",
    ),
    "blocks-labels": (
        dict(k_outer=3, k_inner=2, seed=15, blocks=_BLOCKS, labels=_LABELS),
        "576ad7af380829e73a8ef8e472663c1e6258419984ccfda1d4d520d20bf1b7f8",
    ),
}


@pytest.mark.parametrize("name", list(_GOLDEN_PLANS))
def test_fold_plans_keep_their_digests(name):
    kwargs, digest = _GOLDEN_PLANS[name]
    plan = make_fold_plan(_IDS, **kwargs)
    text = json.dumps([plan.outer_folds, plan.inner_folds])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_large_blocked_plan_is_the_per_block_scan_plan():
    # 4,000 samples in two-sample blocks: grouping the ids in one pass gives
    # the plan that scanning every sample for each block gave.
    ids = [f"s{i:04d}" for i in range(4000)]
    blocks = [f"b{(i * 7919) % 2000}" for i in range(4000)]
    plan = make_fold_plan(ids, 5, 5, blocks=blocks, seed=3)
    reference = make_fold_plan_reference(ids, 5, 5, blocks=blocks, seed=3)
    assert (plan.outer_folds, plan.inner_folds) == (reference.outer_folds, reference.inner_folds)


@pytest.mark.parametrize("nan", [float("nan"), np.nan, np.float64("nan")])
def test_block_label_unequal_to_itself_is_refused(nan):
    blocks = {"a": "x", "b": nan, "c": "y", "d": "y"}
    with pytest.raises(ValueError, match=r"^sample 'b' has block label nan, which is not equal"):
        make_fold_plan(["a", "b", "c", "d"], 2, 2, blocks=blocks)


# A valid plan over a, b, c, d: outer folds ab|cd and cd|ab, each training
# pair split one sample per inner fold. Each malformed plan below changes one
# part of it: name -> (replaced fields, the whole ValueError message).
_AB, _CD = ("a", "b"), ("c", "d")
_INNER = (((("a",), ("b",)), (("b",), ("a",))), ((("c",), ("d",)), (("d",), ("c",))))


def _inner_of_fold_0(*folds):
    return {"inner_folds": (tuple(folds), _INNER[1])}


_MALFORMED_PLANS = {
    "repeated-id": ({"sample_ids": ("a", "b", "c", "c")}, "sample ids must be unique"),
    "inner-split-missing": ({"inner_folds": _INNER[:1]}, "need one inner split per outer fold"),
    "outer-empty-test": (
        {"outer_folds": ((_AB + _CD, ()), (_CD, _AB))},
        "every outer fold needs nonempty train and test sets",
    ),
    "outer-overlap": (
        {"outer_folds": ((("a", "b", "c"), _CD), (_CD, _AB))}, "outer train and test sets overlap"
    ),
    "outer-not-covering": (
        {"outer_folds": ((("a",), _CD), (_CD, _AB))}, "outer folds must cover exactly all samples"
    ),
    "outer-tests-overlap": (
        {"outer_folds": ((_AB, _CD), (_AB, _CD))}, "outer test sets must be disjoint"
    ),
    "outer-block-split": (
        {"blocks": {"a": "x", "b": "y", "c": "y", "d": "z"}},
        "block 'y' is split across a fold boundary",
    ),
    "outer-tests-not-covering": (
        {"outer_folds": ((_AB, _CD),), "inner_folds": _INNER[:1]},
        "outer test sets must cover all samples",
    ),
    "inner-empty-validation": (
        _inner_of_fold_0((_AB, ()), (("b",), ("a",))),
        "every inner fold needs nonempty train and validation sets",
    ),
    "inner-overlap": (
        _inner_of_fold_0((_AB, ("b",)), (("b",), ("a",))),
        "inner train and validation sets overlap",
    ),
    "inner-not-covering": (
        _inner_of_fold_0((("a", "c"), ("b",)), (("b",), ("a",))),
        "inner folds must cover exactly the outer training set",
    ),
    "inner-validations-overlap": (
        _inner_of_fold_0((("a",), ("b",)), (("a",), ("b",))),
        "inner validation sets must be disjoint",
    ),
    "inner-block-split": (
        {"blocks": {"a": "x", "b": "x", "c": "y", "d": "y"}},
        "block 'x' is split across a fold boundary",
    ),
    "inner-validations-not-covering": (
        _inner_of_fold_0((("a",), ("b",))),
        "inner validation sets must cover the outer training set",
    ),
}


def test_the_unmalformed_plan_is_valid():
    plan = FoldPlan(sample_ids=("a", "b", "c", "d"), outer_folds=((_AB, _CD), (_CD, _AB)),
                    inner_folds=_INNER, blocks={"a": "x", "b": "y", "c": "z", "d": "w"})
    assert plan.k_outer == 2


@pytest.mark.parametrize("name", list(_MALFORMED_PLANS))
def test_malformed_fold_plan_refused(name):
    fields, message = _MALFORMED_PLANS[name]
    plan = dict(sample_ids=("a", "b", "c", "d"), outer_folds=((_AB, _CD), (_CD, _AB)),
                inner_folds=_INNER)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FoldPlan(**{**plan, **fields})


class TestPickBest:
    def test_higher_accuracy_wins(self):
        scores = {(1.0, 0.2): 0.9, (0.1, 1.0): 0.8}
        assert _pick_best(scores, "classification") == (1.0, 0.2)

    def test_tie_goes_to_larger_mu(self):
        scores = {(1.0, 0.5): 0.8, (1.0, 1.0): 0.8}
        assert _pick_best(scores, "classification") == (1.0, 1.0)

    def test_remaining_tie_goes_to_smaller_c(self):
        scores = {(1.0, 1.0): 0.8, (0.1, 1.0): 0.8}
        assert _pick_best(scores, "classification") == (0.1, 1.0)

    def test_regression_minimizes(self):
        scores = {(1.0, 0.5): 0.2, (1.0, 1.0): 0.4}
        assert _pick_best(scores, "regression") == (1.0, 0.5)

    def test_baseline_candidates_have_no_mu(self):
        scores = {(1.0, None): 0.8, (0.1, None): 0.8}
        assert _pick_best(scores, "classification") == (0.1, None)


def _single_class_inner_folds():
    """Data and a hand-built plan in which two of outer fold 0's three inner
    validation sets hold one class only and contribute no score."""
    data = make_classification_data(
        n=12, seed=36, group_specs=[("g", 2, "signal")]
    )
    pos = [i for i, t in zip(data.sample_ids, data.targets) if t > 0]
    neg = [i for i, t in zip(data.sample_ids, data.targets) if t < 0]
    outer_train = tuple(pos[:4] + neg[:4])
    outer_test = tuple(pos[4:] + neg[4:])

    def inner(val, within):
        return (tuple(i for i in within if i not in set(val)), tuple(val))

    plan = FoldPlan(
        sample_ids=tuple(data.sample_ids),
        outer_folds=(
            (outer_train, outer_test),
            (outer_test, outer_train),
        ),
        inner_folds=(
            (
                inner(pos[:3], outer_train),
                inner([pos[3], neg[0]], outer_train),
                inner(neg[1:4], outer_train),
            ),
            (
                inner([pos[4], neg[4]], outer_test),
                inner([pos[5]], outer_test),
                inner([neg[5]], outer_test),
            ),
        ),
    )
    return data, plan


class TestNestedCv:
    def _data(self, seed=30):
        return make_classification_data(
            n=24, seed=seed,
            group_specs=[("sig", 3, "signal"), ("noise", 3, "noise")],
        )

    def test_single_candidate_matches_manual_composition(self):
        data = self._data()
        plan = make_fold_plan(data.sample_ids, 3, 2, seed=9, labels=data.targets)
        grid = HyperGrid(c_values=(1.0,), mu_values=(0.5,))
        report = nested_cv(data, "classification", plan, grid=grid, solver_tol=1e-6)

        for outcome, (train_ids, test_ids) in zip(report.folds, plan.outer_folds):
            train_data = data.subset(train_ids)
            eval_data = data.subset(test_ids)
            stack = build_linear_kernels(train_data, center=True, normalize=True)
            model = train_enmkl_svm(stack, train_data.targets, C=1.0, mu=0.5, solver_tol=1e-6)
            primal = recover_primal_weights(model, train_data)
            decisions = primal.decision_values(eval_data.features, eval_data.sample_ids)
            np.testing.assert_array_equal(outcome.decision_values, decisions)
            assert outcome.selected_c == 1.0 and outcome.selected_mu == 0.5
            np.testing.assert_array_equal(outcome.beta, model.beta)

    def test_each_sample_scored_exactly_once(self):
        data = self._data(31)
        plan = make_fold_plan(data.sample_ids, 4, 2, seed=10, labels=data.targets)
        grid = HyperGrid(c_values=(1.0,), mu_values=(1.0,))
        report = nested_cv(data, "classification", plan, grid=grid)
        pooled_ids = [i for o in report.folds for i in o.test_ids]
        assert sorted(pooled_ids) == sorted(data.sample_ids)

    def test_report_is_deterministic(self):
        data = self._data(32)
        plan = make_fold_plan(data.sample_ids, 3, 2, seed=11, labels=data.targets)
        grid = HyperGrid(c_values=(0.1, 1.0), mu_values=(0.5, 1.0))
        a = nested_cv(data, "classification", plan, grid=grid)
        b = nested_cv(data, "classification", plan, grid=grid)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_regression_report(self):
        data = make_regression_data(
            n=24, seed=33, group_specs=[("sig", 3, "signal"), ("noise", 3, "noise")]
        )
        plan = make_fold_plan(data.sample_ids, 3, 2, seed=12)
        grid = HyperGrid(c_values=(1.0, 10.0), mu_values=(0.5,))
        report = nested_cv(data, "regression", plan, grid=grid)
        assert set(report.pooled_metrics) == {"mse", "pearson_r"}
        assert report.pooled_metrics["mse"] >= 0.0
        assert len(report.folds) == 3

    def test_baseline_trainer_ignores_mu(self):
        data = self._data(34)
        plan = make_fold_plan(data.sample_ids, 3, 2, seed=13, labels=data.targets)
        grid = HyperGrid(c_values=(1.0,), mu_values=(0.2, 0.9))
        report = nested_cv(data, "classification", plan, grid=grid, trainer="sum-baseline")
        for outcome in report.folds:
            assert outcome.selected_mu is None
            np.testing.assert_allclose(outcome.beta, np.full(2, 0.5))

    def test_mu_zero_candidate_rejected_with_hint(self):
        data = self._data(35)
        plan = make_fold_plan(data.sample_ids, 3, 2, seed=14, labels=data.targets)
        grid = HyperGrid(c_values=(1.0,), mu_values=(0.0, 0.5))
        with pytest.raises(ValueError, match="sum-baseline"):
            nested_cv(data, "classification", plan, grid=grid)

    def test_single_class_inner_fold_skipped_not_fatal(self):
        data, plan = _single_class_inner_folds()
        grid = HyperGrid(c_values=(1.0,), mu_values=(1.0,))
        report = nested_cv(data, "classification", plan, grid=grid)
        assert len(report.folds) == 2

    @pytest.mark.parametrize("mu_values, where", [
        ((0.5, 1.0), "outer fold 0, inner fold 0: C=1 sum baseline: "),
        ((0.5,), "outer fold 0: C=1 mu=0.5: "),
    ], ids=["inner", "outer"])
    def test_failed_fit_says_where(self, mu_values, where):
        # Two candidates are scored on the inner folds first; one is not.
        data = self._data(36)
        plan = make_fold_plan(data.sample_ids, 3, 2, seed=14, labels=data.targets)
        grid = HyperGrid(c_values=(1.0,), mu_values=mu_values)
        with pytest.raises(ConvergenceError) as failure:
            nested_cv(data, "classification", plan, grid=grid, max_updates=1)
        assert str(failure.value).startswith(where + "SMO exceeded 1 updates")

    def test_plan_dataset_mismatch_rejected(self):
        data = self._data(37)
        plan = make_fold_plan([f"x{i}" for i in range(24)], 3, 2, seed=15)
        with pytest.raises(ValueError, match="does not cover"):
            nested_cv(data, "classification", plan)

    def test_report_round_trip_preserves_structure(self):
        data = self._data(38)
        plan = make_fold_plan(data.sample_ids, 3, 2, seed=16, labels=data.targets)
        grid = HyperGrid(c_values=(1.0,), mu_values=(1.0,))
        report = nested_cv(data, "classification", plan, grid=grid)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["task"] == "classification"
        assert payload["trainer"] == "enmkl"
        assert len(payload["folds"]) == 3
        assert payload["selected_count"] == report.selected_count
        np.testing.assert_allclose(payload["mean_beta"], report.mean_beta)


def _report_json(report) -> str:
    # JSON keeps every float's bits (``-0.0`` included), unlike ``==``.
    return json.dumps(report.to_dict(), sort_keys=True)


class TestNestedCvMatchesReference:
    """The partition-by-partition pass equals the candidate-by-candidate loop."""

    GRID = HyperGrid(c_values=(0.01, 1.0, 100.0), mu_values=(0.3, 1.0))

    def _check(self, data, task, plan, grid=GRID, trainer="enmkl", **options):
        report = nested_cv(data, task, plan, grid=grid, trainer=trainer, baseline=True, **options)
        reference = nested_cv_reference(data, task, plan, grid=grid, trainer=trainer, **options)
        assert _report_json(report) == _report_json(reference)
        baseline = nested_cv_reference(data, task, plan, grid=grid, trainer="sum-baseline", **options)
        assert _report_json(report.baseline) == _report_json(baseline)
        plain = nested_cv(data, task, plan, grid=grid, trainer=trainer, **options)
        assert plain.baseline is None and _report_json(plain) == _report_json(reference)
        return report

    # Seed 42: the two trainers pick the same C on every outer fold; 41: a
    # different C on every fold; 44: the same on two folds, not on the third.
    @pytest.mark.parametrize("seed,same_c", [(42, 3), (41, 0), (44, 2)])
    def test_classification_with_baseline(self, seed, same_c):
        data = make_classification_data(
            n=30, seed=seed, shift=0.8,
            group_specs=[("a", 3, "signal"), ("b", 3, "noise"), ("c", 2, "signal")],
        )
        plan = make_fold_plan(data.sample_ids, 3, 2, seed=seed, labels=data.targets)
        report = self._check(data, "classification", plan)
        picks = zip(report.folds, report.baseline.folds)
        assert sum(a.selected_c == b.selected_c for a, b in picks) == same_c

    def test_regression(self):
        data = make_regression_data(
            n=24, seed=33, group_specs=[("sig", 3, "signal"), ("noise", 3, "noise")]
        )
        plan = make_fold_plan(data.sample_ids, 3, 2, seed=12)
        self._check(data, "regression", plan, conv_tol=1e-6, max_iter=50)

    def test_blocks(self):
        data = make_classification_data(
            n=30, seed=45, group_specs=[("a", 3, "signal"), ("b", 2, "noise")]
        )
        blocks = [f"b{i // 3}" for i in range(30)]
        plan = make_fold_plan(data.sample_ids, 3, 2, blocks=blocks, seed=5)
        self._check(data, "classification", plan, solver_tol=1e-5, center=False)

    def test_inner_fold_that_loses_a_class(self):
        data, plan = _single_class_inner_folds()
        self._check(data, "classification", plan, normalize=False)

    def test_sum_baseline_trainer(self):
        data = make_classification_data(
            n=24, seed=34, group_specs=[("sig", 3, "signal"), ("noise", 3, "noise")]
        )
        plan = make_fold_plan(data.sample_ids, 3, 2, seed=13, labels=data.targets)
        report = self._check(data, "classification", plan, trainer="sum-baseline")
        assert _report_json(report.baseline) == _report_json(report)

    # One C: the baseline selection has one candidate and skips the inner
    # folds, while the enmkl selection still scores its two mu values there.
    ONE_C = HyperGrid(c_values=(1.0,), mu_values=(0.3, 1.0))

    def test_one_c_grid_classification(self):
        data = make_classification_data(
            n=30, seed=42, shift=0.8,
            group_specs=[("a", 3, "signal"), ("b", 3, "noise"), ("c", 2, "signal")],
        )
        plan = make_fold_plan(data.sample_ids, 3, 2, seed=42, labels=data.targets)
        self._check(data, "classification", plan, grid=self.ONE_C)

    def test_one_c_grid_regression(self):
        data = make_regression_data(
            n=24, seed=33, group_specs=[("sig", 3, "signal"), ("noise", 3, "noise")]
        )
        plan = make_fold_plan(data.sample_ids, 3, 2, seed=12)
        self._check(data, "regression", plan, grid=self.ONE_C, conv_tol=1e-6, max_iter=50)


class TestPartitionStackMatchesKernelRoute:
    """A cv partition's train stack, ``build_linear_kernels`` with its steps
    on, is built from its preprocessed feature rows. It equals the kernel-space route, ``StackPreprocessor.fit`` on the
    raw kernels, to within 1e-12 of the raw kernel's scale, and bit for bit
    with both steps off. It is bit-symmetric, with a diagonal of exactly 1
    when normalized. The held-out rows' products with the training rows equal
    ``transform_cross`` on the raw cross kernels to the same tolerance.

    The scale is what the kernel route adds and cancels: the largest raw
    inner product of the group (train kernel, cross kernel, held-out
    self-similarity), divided by the two preprocessed norms when it
    normalizes. A common offset makes it large, as the kernel route's error.
    """

    @pytest.mark.parametrize(
        "center, normalize", [(True, True), (True, False), (False, True), (False, False)]
    )
    @settings(max_examples=40)
    @given(data=st.data())
    def test_partition_stack_matches_kernel_route(self, center, normalize, data):
        n = data.draw(st.integers(4, 14), label="n")
        dims = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3), label="dims")
        specs = [(f"g{j}", d, "signal" if j == 0 else "noise") for j, d in enumerate(dims)]
        base = make_regression_data(
            n=n, seed=data.draw(st.integers(0, 2**16), label="seed"), group_specs=specs
        )
        scale = data.draw(st.sampled_from([1e-3, 1.0, 1e3]), label="scale")
        offset = data.draw(st.sampled_from([0.0, 1.0, 1e3]), label="offset")
        dataset = dataclasses.replace(base, features=(base.features + offset) * scale)
        n_eval = data.draw(st.integers(1, n - 2), label="n_eval")
        train_data = dataset.subset(dataset.sample_ids[n_eval:])
        eval_data = dataset.subset(dataset.sample_ids[:n_eval])

        # What cv runs on a partition: the train stack, and both sides' rows
        # preprocessed with the training group means for scoring.
        stack = build_linear_kernels(train_data, center, normalize)
        means = group_feature_means(train_data)
        train_blocks, eval_blocks = (
            feature_blocks(part, means, center, normalize) for part in (train_data, eval_data)
        )

        raw = build_linear_kernels(train_data)
        pre = StackPreprocessor(center=center, normalize=normalize).fit(raw)
        raw_cross, sims = build_linear_cross_kernels(
            train_data, eval_data.features, eval_data.sample_ids
        )
        cross = pre.transform_cross(raw_cross, sims).values
        assert (stack.centered, stack.normalized) == (center, normalize)
        if not (center or normalize):
            assert stack.values.tobytes() == pre.train_stack_.values.tobytes()
        for j, (k, train_block, eval_block) in enumerate(
            zip(stack.values, train_blocks, eval_blocks)
        ):
            assert bit_symmetric(k)
            if normalize:
                assert (np.diagonal(k) == 1.0).all()
            raw_scale = max(
                np.abs(raw.values[j]).max(), np.abs(raw_cross.values[j]).max(), sims[j].max()
            )
            train_norms, eval_norms = 1.0, 1.0
            if normalize:
                cols = train_data.group_columns(j)
                train_rows, eval_rows = train_data.features[:, cols], eval_data.features[:, cols]
                if center:
                    mean = train_rows.mean(axis=0)
                    train_rows, eval_rows = train_rows - mean, eval_rows - mean
                train_norms = np.linalg.norm(train_rows, axis=1)
                eval_norms = np.linalg.norm(eval_rows, axis=1)
            tol = 1e-12 * raw_scale / np.multiply.outer(train_norms, train_norms)
            assert (np.abs(k - pre.train_stack_.values[j]) <= tol).all()
            tol = 1e-12 * raw_scale / np.multiply.outer(eval_norms, train_norms)
            assert (np.abs(eval_block @ train_block.T - cross[j]) <= tol).all()


class TestHeldOutScoredThroughPrimalWeights:
    """A partition's held-out samples are scored as ``predict`` scores new
    rows, through primal weights. Each candidate's decision values equal
    ``recover_primal_weights(model, train).decision_values(held-out rows)``
    bit for bit, and the cross-kernel route (``build_linear_cross_kernels``,
    ``transform_cross``, ``predict_model``), an independent oracle that works
    on Gram matrices, to within 1e-12 of the decision values' scale.

    That scale is the size of what the oracle adds and cancels:
    ``|bias| + sum_j beta_j sum_i |coef_i| A_jt / (n_jt n_ji)`` for held-out
    sample t. A_jt is the largest raw inner product the oracle's centering
    subtracts from in group j (t's row of the raw cross kernel, t's
    self-similarity, the raw train kernel), and n_jt, n_ji are the norms the
    oracle divides by when it normalizes (1 when it does not). The oracle
    centers after taking inner products, so a held-out slice near the train
    mean, or features with a large common offset, cost it relative accuracy
    in proportion to A_jt / n_jt^2. The feature route centers first and does
    not lose it.
    """

    CANDIDATES = [(0.1, None), (0.1, 0.5), (1.0, None), (1.0, 1.0), (10.0, 0.3)]

    @pytest.mark.parametrize("task", ["classification", "regression"])
    @pytest.mark.parametrize(
        "center, normalize", [(True, True), (True, False), (False, True), (False, False)]
    )
    @settings(max_examples=30)
    @given(data=st.data())
    def test_decisions_match_both_routes(self, task, center, normalize, data):
        n = data.draw(st.integers(8, 20), label="n")
        dims = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3), label="dims")
        specs = [(f"g{j}", d, "signal" if j == 0 else "noise") for j, d in enumerate(dims)]
        make = make_classification_data if task == "classification" else make_regression_data
        base = make(n=n, seed=data.draw(st.integers(0, 2**16), label="seed"), group_specs=specs)
        scale = data.draw(st.sampled_from([1e-3, 1.0, 1e3]), label="scale")
        dataset = GroupedDataset(
            base.features * scale, base.groups, base.group_names, base.targets, base.sample_ids
        )
        order = data.draw(st.permutations(dataset.sample_ids), label="order")
        n_eval = data.draw(st.integers(1, n - 4), label="n_eval")
        train_ids, eval_ids = order[n_eval:], order[:n_eval]
        train_data, eval_data = dataset.subset(train_ids), dataset.subset(eval_ids)
        if task == "classification":
            assume(len(set(train_data.targets.tolist())) == 2)
        keys = data.draw(
            st.lists(st.sampled_from(self.CANDIDATES), min_size=1, max_size=3, unique=True),
            label="keys",
        )

        fitted = evaluation._partition_decisions(
            dataset, train_ids, eval_ids, keys, task, center, normalize,
            conv_tol=1e-4, max_iter=200, solver_tol=1e-3, max_updates=10**6,
        )

        pre = StackPreprocessor(center=center, normalize=normalize).fit(
            build_linear_kernels(train_data)
        )
        raw_cross, sims = build_linear_cross_kernels(
            train_data, eval_data.features, eval_data.sample_ids
        )
        cross = pre.transform_cross(raw_cross, sims)
        assert list(fitted) == keys
        for decisions, model in fitted.values():
            primal = recover_primal_weights(model, train_data)
            expected = primal.decision_values(eval_data.features, eval_data.sample_ids)
            assert decisions.tobytes() == expected.tobytes()
            oracle = predict_model(model, cross)
            scale = self._oracle_scale(train_data, eval_data, model, center, normalize)
            assert (np.abs(decisions - oracle) <= 1e-12 * scale).all()

    @staticmethod
    def _oracle_scale(train_data, eval_data, model, center, normalize):
        coef = np.abs(model.alpha if model.train_labels is None else model.alpha * model.train_labels)
        scale = np.full(eval_data.n_samples, abs(model.bias))
        for j, beta in enumerate(model.beta):
            cols = train_data.group_columns(j)
            train, held = train_data.features[:, cols], eval_data.features[:, cols]
            raw = np.maximum(np.abs(held @ train.T).max(axis=1), np.abs(train @ train.T).max())
            raw = np.maximum(raw, np.einsum("ij,ij->i", held, held))
            if normalize:
                if center:
                    mean = train.mean(axis=0)
                    train, held = train - mean, held - mean
                scale += beta * raw / np.linalg.norm(held, axis=1) * (
                    coef / np.linalg.norm(train, axis=1)
                ).sum()
            else:
                scale += beta * raw * coef.sum()
        return scale


class TestOneCandidateFitsNoInnerFold:
    """A selection with one distinct candidate has nothing to choose, so only
    the outer partitions are built. The reports still equal the reference,
    which fits and scores every inner fold."""

    ONE = HyperGrid(c_values=(1.0,), mu_values=(0.5,))

    @pytest.mark.parametrize(
        "task,trainer,grid,baseline",
        [
            ("classification", "enmkl", ONE, False),
            ("regression", "enmkl", ONE, False),
            ("classification", "sum-baseline", HyperGrid(c_values=(1.0,), mu_values=(0.2, 0.9)), False),
            ("classification", "enmkl", ONE, True),
            ("classification", "enmkl", HyperGrid(c_values=(1.0, 1.0), mu_values=(0.5,)), False),
        ],
        ids=["enmkl", "regression", "sum-baseline", "with-baseline", "duplicate-C"],
    )
    def test_only_outer_partitions_are_built(self, monkeypatch, task, trainer, grid, baseline):
        from enmkl import evaluation

        specs = [("sig", 3, "signal"), ("noise", 3, "noise")]
        if task == "classification":
            data = make_classification_data(n=24, seed=30, group_specs=specs)
            plan = make_fold_plan(data.sample_ids, 3, 2, seed=9, labels=data.targets)
        else:
            data = make_regression_data(n=24, seed=33, group_specs=specs)
            plan = make_fold_plan(data.sample_ids, 3, 2, seed=12)
        builds = []
        build = evaluation.build_linear_kernels
        monkeypatch.setattr(
            evaluation, "build_linear_kernels", lambda *a: builds.append(1) or build(*a)
        )
        report = nested_cv(data, task, plan, grid=grid, trainer=trainer, baseline=baseline)
        assert len(builds) == plan.k_outer

        reference = nested_cv_reference(data, task, plan, grid=grid, trainer=trainer)
        assert _report_json(report) == _report_json(reference)
        if baseline:
            reference = nested_cv_reference(data, task, plan, grid=grid, trainer="sum-baseline")
            assert _report_json(report.baseline) == _report_json(reference)
