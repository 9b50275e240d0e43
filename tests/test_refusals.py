"""What each library entry point refuses, and how.

Every case calls one public entry point with one malformed argument and
pins the exception type and a substring of its message. A value the package
builds itself is checked once, where it enters; these cases hold each such
entry check to its type and its wording. The SVM solver's label, C, weight,
warm-start and update-cap refusals are pinned in ``test_solvers.py``.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from enmkl import mkl
from enmkl.errors import ConvergenceError, DataError
from enmkl.evaluation import (
    FoldPlan,
    HyperGrid,
    auc,
    balanced_accuracy,
    make_fold_plan,
    mse,
    nested_cv,
    pearson_correlation,
)
from enmkl.kernels import KernelStack, build_linear_kernels, weighted_sum
from enmkl.solvers import solve_krr_dual, solve_svm_dual

from helpers import make_classification_data, make_regression_data

_SPECS = [("sig", 3, "signal"), ("noise", 2, "noise")]


@pytest.fixture(scope="module")
def w():
    data = make_classification_data(n=12, seed=70, group_specs=_SPECS)
    ridge = make_regression_data(n=12, seed=70, group_specs=_SPECS)
    stack = build_linear_kernels(data, True, True)
    y = data.targets
    K = weighted_sum(stack, [0.5, 0.5])
    huge = KernelStack(
        np.stack([np.eye(4), 1e308 * np.eye(4)]), ("a", "b", "c", "d"), ("a", "b", "c", "d"),
        ("g0", "g1"), (1, 1),
    )
    baseline = mkl.train_sum_baseline(stack, y, "classification", 1.0)
    plan = make_fold_plan(data.sample_ids, 2, 2, seed=0, labels=y)
    return SimpleNamespace(
        data=data, ridge=ridge, stack=stack, raw_stack=build_linear_kernels(data),
        ridge_stack=build_linear_kernels(ridge, True, True),
        y=y, t=ridge.targets, K=K, huge=huge, baseline=baseline, plan=plan,
    )


def _unbalanced(w):
    alpha = np.zeros(len(w.y))
    alpha[int(np.flatnonzero(w.y > 0)[0])] = 0.5
    return alpha


def _one_class_inner_plan(w):
    """A valid plan whose inner folds of outer fold 0 each train on one class."""
    ids = w.data.sample_ids
    test, train = ids[:4], ids[4:]
    pos = tuple(i for i, t in zip(ids[4:], w.y[4:]) if t > 0)
    neg = tuple(i for i in train if i not in pos)
    return FoldPlan(
        ids, ((train, test), (test, train)),
        (((pos, neg), (neg, pos)), ((test[:2], test[2:]), (test[2:], test[:2]))),
    )


# name -> (call on the workspace, exception type, message substring)
_CASES = {
    # solvers.solve_svm_dual
    "svm-kernel-1d": (lambda w: solve_svm_dual(np.ones(3), [1, -1, 1], 1.0),
                      ValueError, "kernel must be a 2-d array"),
    "svm-kernel-nan": (lambda w: solve_svm_dual(np.full((2, 2), np.nan), [1, -1], 1.0),
                       ValueError, "kernel contains non-finite entries"),
    "svm-kernel-not-square": (lambda w: solve_svm_dual(np.ones((2, 3)), [1, -1], 1.0),
                              ValueError, "train kernel must be square"),
    "svm-kernel-curvature-overflow": (
        lambda w: solve_svm_dual(1e308 * np.eye(2), [1, -1], 1.0),
        DataError, "the kernel overflows: SMO's pair curvatures reach 4 * max|K|",
    ),
    "svm-weights-curvature-overflow": (
        lambda w: solve_svm_dual(w.huge, [1, -1, 1, -1], 1.0, weights=[0.5, 0.5]),
        DataError, "SMO's pair curvatures reach 4 * sum_j beta_j max|K_j|",
    ),
    "svm-labels-length": (lambda w: solve_svm_dual(w.K, w.y[:-1], 1.0),
                          ValueError, "labels must hold one value per kernel row"),
    **{
        f"svm-tol={tol}": (lambda w, tol=tol: solve_svm_dual(w.K, w.y, 1.0, tol=tol),
                           ValueError, "tol must be a positive finite number")
        for tol in (0.0, np.nan, np.inf)
    },
    "svm-alpha0-length": (lambda w: solve_svm_dual(w.K, w.y, 1.0, alpha0=np.zeros(3)),
                          ValueError, "alpha0 must hold one value per sample"),
    "svm-alpha0-equality": (lambda w: solve_svm_dual(w.K, w.y, 1.0, alpha0=_unbalanced(w)),
                            ValueError, "alpha0 violates the equality constraint"),
    # solvers.solve_krr_dual
    "krr-kernel-1d": (lambda w: solve_krr_dual(np.ones(3), [1.0, 2.0, 3.0], 1.0),
                      ValueError, "kernel must be a 2-d array"),
    "krr-kernel-inf": (lambda w: solve_krr_dual(np.full((2, 2), np.inf), [1.0, 2.0], 1.0),
                       ValueError, "kernel contains non-finite entries"),
    "krr-kernel-asymmetric": (lambda w: solve_krr_dual([[1.0, 0.5], [0.0, 1.0]], [1.0, 2.0], 1.0),
                              ValueError, "train kernel is not symmetric"),
    "krr-targets-length": (lambda w: solve_krr_dual(w.K, w.t[:-1], 1.0),
                           ValueError, "targets must hold one value per kernel row"),
    **{
        f"krr-C={C}": (lambda w, C=C: solve_krr_dual(w.K, w.t, C),
                       ValueError, "C must be a positive finite number")
        for C in (0.0, np.nan, np.inf)
    },
    "krr-C-too-small": (lambda w: solve_krr_dual(w.K, w.t, 5e-324),
                        DataError, "C = 5e-324 is too small for 12 samples"),
    "krr-alpha-overflow": (lambda w: solve_krr_dual(np.zeros((2, 2)), [0.0, 2000.0], 1e307),
                           DataError, "C = 1e+307 is too large for this kernel"),
    # kernels.weighted_sum
    "sum-weights-length": (lambda w: weighted_sum(w.stack, [1.0, 0.0, 0.0]),
                           ValueError, "expected 2 weights"),
    "sum-weights-inf": (lambda w: weighted_sum(w.stack, [np.inf, 1.0]),
                        ValueError, "kernel weights contain non-finite values"),
    "sum-weights-negative": (lambda w: weighted_sum(w.stack, [1.0, -0.5]),
                             ValueError, "kernel weights must be nonnegative"),
    "sum-weights-zero": (lambda w: weighted_sum(w.stack, [0.0, 0.0]),
                         ValueError, "at least one kernel weight must be positive"),
    "sum-overflow": (lambda w: weighted_sum(w.huge, [1.0, 2.0]),
                     DataError, "the combined kernel overflows"),
    # mkl.train_enmkl_svm
    **{
        f"enmkl-svm-mu={mu}": (lambda w, mu=mu: mkl.train_enmkl_svm(w.stack, w.y, 1.0, mu),
                               ValueError, "mu must lie in (0, 1]")
        for mu in (None, 0.0, 1.5, np.nan)
    },
    **{
        f"enmkl-svm-C={C}": (lambda w, C=C: mkl.train_enmkl_svm(w.stack, w.y, C, 0.5),
                             ValueError, "C must be a positive finite number")
        for C in (0.0, np.nan, np.inf)
    },
    **{
        f"enmkl-svm-conv_tol={tol}": (
            lambda w, tol=tol: mkl.train_enmkl_svm(w.stack, w.y, 1.0, 0.5, conv_tol=tol),
            ValueError, "conv_tol must be a positive finite number",
        )
        for tol in (0.0, np.nan)
    },
    "enmkl-svm-max_iter=0": (lambda w: mkl.train_enmkl_svm(w.stack, w.y, 1.0, 0.5, max_iter=0),
                             ValueError, "max_iter must be at least 1"),
    "enmkl-svm-solver_tol=0": (
        lambda w: mkl.train_enmkl_svm(w.stack, w.y, 1.0, 0.5, solver_tol=0.0),
        ValueError, "tol must be a positive finite number",
    ),
    "enmkl-svm-max_updates=1": (
        lambda w: mkl.train_enmkl_svm(w.stack, w.y, 1.0, 0.5, max_updates=1),
        ConvergenceError, "SMO exceeded 1 updates",
    ),
    "enmkl-svm-labels-length": (lambda w: mkl.train_enmkl_svm(w.stack, w.y[1:], 1.0, 0.5),
                                ValueError, "targets must hold one value per train sample"),
    "enmkl-svm-labels-values": (lambda w: mkl.train_enmkl_svm(w.stack, w.t, 1.0, 0.5),
                                DataError, "classification labels must be -1/+1"),
    "enmkl-svm-start-C": (
        lambda w: mkl.train_enmkl_svm(w.stack, w.y, 2.0, 0.5, start=w.baseline),
        ValueError, "start must be the sum-baseline model of this stack, task and C",
    ),
    "enmkl-svm-start-stack": (
        lambda w: mkl.train_enmkl_svm(w.raw_stack, w.y, 1.0, 0.5, start=w.baseline),
        ValueError, "start must be the sum-baseline model of this stack, task and C",
    ),
    # mkl.train_enmkl_krr
    "enmkl-krr-mu=0": (lambda w: mkl.train_enmkl_krr(w.ridge_stack, w.t, 1.0, 0.0),
                       ValueError, "mu must lie in (0, 1]"),
    **{
        f"enmkl-krr-C={C}": (lambda w, C=C: mkl.train_enmkl_krr(w.ridge_stack, w.t, C, 0.5),
                             ValueError, "C must be a positive finite number")
        for C in (0.0, np.nan, np.inf)
    },
    "enmkl-krr-conv_tol=inf": (
        lambda w: mkl.train_enmkl_krr(w.ridge_stack, w.t, 1.0, 0.5, conv_tol=np.inf),
        ValueError, "conv_tol must be a positive finite number",
    ),
    "enmkl-krr-max_iter=0": (
        lambda w: mkl.train_enmkl_krr(w.ridge_stack, w.t, 1.0, 0.5, max_iter=0),
        ValueError, "max_iter must be at least 1",
    ),
    "enmkl-krr-targets-length": (lambda w: mkl.train_enmkl_krr(w.ridge_stack, w.t[1:], 1.0, 0.5),
                                 ValueError, "targets must hold one value per train sample"),
    "enmkl-krr-targets-nan": (
        lambda w: mkl.train_enmkl_krr(w.ridge_stack, np.r_[np.nan, w.t[1:]], 1.0, 0.5),
        ValueError, "targets contain non-finite values",
    ),
    "enmkl-krr-start-task": (
        lambda w: mkl.train_enmkl_krr(w.stack, w.t, 1.0, 0.5, start=w.baseline),
        ValueError, "start must be the sum-baseline model of this stack, task and C",
    ),
    # mkl.train_sum_baseline
    "baseline-task": (lambda w: mkl.train_sum_baseline(w.stack, w.y, "ranking", 1.0),
                      ValueError, "task must be one of"),
    "baseline-targets-length": (
        lambda w: mkl.train_sum_baseline(w.stack, w.y[1:], "classification", 1.0),
        ValueError, "targets must hold one value per train sample",
    ),
    "baseline-labels-one-class": (
        lambda w: mkl.train_sum_baseline(w.stack, np.ones(len(w.y)), "classification", 1.0),
        DataError, "classification labels contain a single class",
    ),
    **{
        f"baseline-{task}-C={C}": (
            lambda w, task=task, C=C: mkl.train_sum_baseline(
                w.stack if task == "classification" else w.ridge_stack,
                w.y if task == "classification" else w.t, task, C,
            ),
            ValueError, "C must be a positive finite number",
        )
        for task in ("classification", "regression")
        for C in (0.0, np.nan)
    },
    # mkl.train_model
    "model-trainer": (lambda w: mkl.train_model(w.stack, w.y, "classification", "lasso", 1.0, 0.5),
                      ValueError, "unknown trainer 'lasso'"),
    **{
        f"model-{trainer}-task": (
            lambda w, trainer=trainer: mkl.train_model(w.stack, w.y, "ranking", trainer, 1.0, 0.5),
            ValueError, "task must be one of",
        )
        for trainer in ("enmkl", "sum-baseline")
    },
    "model-enmkl-mu-missing": (
        lambda w: mkl.train_model(w.stack, w.y, "classification", "enmkl", 1.0),
        ValueError, "mu must lie in (0, 1]",
    ),
    "model-enmkl-C": (
        lambda w: mkl.train_model(w.ridge_stack, w.t, "regression", "enmkl", -1.0, 0.5),
        ValueError, "C must be a positive finite number",
    ),
    # evaluation.nested_cv
    "cv-task": (lambda w: nested_cv(w.data, "ranking", w.plan, HyperGrid((1.0,), (0.5,))),
                ValueError, "'ranking'"),
    "cv-trainer": (
        lambda w: nested_cv(w.data, "classification", w.plan, HyperGrid((1.0,), (0.5,)), "lasso"),
        ValueError, "unknown trainer 'lasso'",
    ),
    "cv-plan-ids": (
        lambda w: nested_cv(w.data.subset(w.data.sample_ids[1:]), "classification", w.plan,
                            HyperGrid((1.0,), (0.5,))),
        ValueError, "fold plan does not cover the dataset's sample ids",
    ),
    "cv-labels-values": (
        lambda w: nested_cv(w.ridge, "classification", w.plan, HyperGrid((1.0,), (0.5,))),
        DataError, "classification labels must be -1/+1",
    ),
    "cv-mu=0": (
        lambda w: nested_cv(w.data, "classification", w.plan, HyperGrid((1.0,), (0.0, 0.5))),
        ValueError, "mu = 0.0 is outside (0, 1]",
    ),
    "cv-no-usable-inner-fold": (
        lambda w: nested_cv(w.data, "classification", _one_class_inner_plan(w), HyperGrid()),
        DataError, "no inner fold of outer fold 0 could score any candidate",
    ),
    # evaluation.make_fold_plan
    "plan-repeated-id": (lambda w: make_fold_plan(["a", "b", "c", "c"], 2, 2),
                         ValueError, "sample ids must be unique"),
    "plan-k_outer=1": (lambda w: make_fold_plan(["a", "b", "c", "d"], 1, 2),
                       ValueError, "k_outer and k_inner must both be at least 2"),
    "plan-k_inner=1": (lambda w: make_fold_plan(["a", "b", "c", "d"], 2, 1),
                       ValueError, "k_outer and k_inner must both be at least 2"),
    "plan-blocks-length": (lambda w: make_fold_plan(["a", "b", "c", "d"], 2, 2, blocks=[1, 2]),
                           ValueError, "blocks must hold one label per sample"),
    "plan-labels-length": (lambda w: make_fold_plan(["a", "b", "c", "d"], 2, 2, labels=[1, -1]),
                           ValueError, "labels must hold one value per sample"),
    "plan-too-many-outer": (lambda w: make_fold_plan(["a", "b", "c"], 4, 2),
                            DataError, "k_outer = 4 exceeds the 3 available samples"),
    "plan-too-many-inner": (
        lambda w: make_fold_plan(["a", "b", "c", "d"], 2, 3),
        DataError, "k_inner = 3 exceeds the 2 training samples of outer fold 0",
    ),
    "plan-too-many-outer-blocks": (
        lambda w: make_fold_plan(["a", "b", "c", "d"], 3, 2, blocks=["x", "x", "y", "y"]),
        DataError, "k_outer = 3 exceeds the 2 available blocks",
    ),
    # evaluation's metrics
    **{
        f"{metric.__name__}-{kind}": (
            lambda w, metric=metric, a=a, b=b: metric(a, b), ValueError, message,
        )
        for metric, message in (
            (balanced_accuracy, "predicted and true labels must be parallel 1-d arrays"),
            (auc, "decision values and labels must be parallel 1-d arrays"),
            (mse, "predictions and targets must be parallel 1-d arrays"),
            (pearson_correlation, "predictions and targets must be parallel 1-d arrays"),
        )
        for kind, a, b in (
            ("lengths", [1.0, -1.0, 1.0], [1.0, -1.0]),
            ("2-d", [[1.0, -1.0]], [[1.0, -1.0]]),
            ("0-d", 1.0, 1.0),
        )
    },
    "balanced_accuracy-one-class": (lambda w: balanced_accuracy([1.0, -1.0], [1.0, 1.0]),
                                    DataError, "balanced accuracy needs both classes"),
    "auc-one-class": (lambda w: auc([0.3, -0.2], [-1.0, -1.0]),
                      DataError, "AUC needs both classes in the true labels"),
    "pearson_correlation-constant": (
        lambda w: pearson_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]),
        DataError, "correlation is undefined when either side has zero variance",
    ),
}


@pytest.mark.parametrize("name", list(_CASES))
def test_entry_refusal(w, name):
    call, kind, message = _CASES[name]
    with pytest.raises(kind) as info:
        call(w)
    assert type(info.value) is kind
    assert message in str(info.value)
