"""Metrics, fold planning, and nested cross-validation.

Hyperparameters (C and the elastic-net mixing value) are selected on inner
folds only; outer folds measure generalization. Fold plans are built once,
up front, from sample ids, optional block labels (samples sharing a block
never straddle a train/test boundary), and optional class labels for
stratification. All randomness flows through one integer seed, so a plan,
and everything downstream of it, is reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, named
from . import mkl, solvers
from .io import record_dict
from .kernels import GroupedDataset, build_linear_kernels, feature_blocks, group_feature_means
# Unused here since cv scores through primal weights; perfbench/tracer.py wraps it at this name.
from .kernels import build_linear_cross_kernels  # noqa: F401

# Default hyperparameter grid: seven decades of C and ten mixing values.
DEFAULT_C_VALUES = tuple(10.0 ** e for e in range(-3, 4))
DEFAULT_MU_VALUES = tuple(i / 10 for i in range(1, 11))


def balanced_accuracy(predicted, truth) -> float:
    """Mean of per-class recalls; insensitive to class imbalance."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape or predicted.ndim != 1:
        raise ValueError("predicted and true labels must be parallel 1-d arrays")
    classes = sorted(set(truth.tolist()))
    if len(classes) < 2:
        raise DataError("balanced accuracy needs both classes in the true labels")
    recalls = [float(np.mean(predicted[truth == c] == c)) for c in classes]
    return float(np.mean(recalls))


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks of ``scores``, ties sharing the mean of their ranks.

    Matches ``scipy.stats.rankdata`` (method "average") exactly: each tie
    group's mean rank is a half-integer, computed without round-off. A NaN
    score makes every rank NaN.
    """
    n = scores.size
    if np.isnan(scores).any():
        return np.full(n, np.nan)
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], n]
    ranks = np.empty(n)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def auc(decision_values, truth) -> float:
    """Area under the ROC curve via the rank-sum formulation.

    Equals the probability that a random positive (+1) sample scores higher
    than a random negative one; tied scores count one half.
    """
    scores = np.asarray(decision_values, dtype=np.float64)
    truth = np.asarray(truth)
    if scores.shape != truth.shape or scores.ndim != 1:
        raise ValueError("decision values and labels must be parallel 1-d arrays")
    pos = truth > 0
    n_pos = int(pos.sum())
    n_neg = int(scores.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC needs both classes in the true labels")
    ranks = _average_ranks(scores)
    rank_sum = float(ranks[pos].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def mse(predicted, truth) -> float:
    """Mean squared error."""
    predicted = np.asarray(predicted, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if predicted.shape != truth.shape or predicted.ndim != 1:
        raise ValueError("predictions and targets must be parallel 1-d arrays")
    diff = predicted - truth
    return float(diff @ diff) / diff.size


def pearson_correlation(predicted, truth) -> float:
    """Pearson correlation between predictions and targets.

    Raises :class:`DataError` when either side has zero variance; a
    constant vector has no defined correlation.
    """
    predicted = np.asarray(predicted, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if predicted.shape != truth.shape or predicted.ndim != 1:
        raise ValueError("predictions and targets must be parallel 1-d arrays")
    a = predicted - predicted.mean()
    b = truth - truth.mean()
    va = float(a @ a)
    vb = float(b @ b)
    if va <= 0 or vb <= 0:
        raise DataError("correlation is undefined when either side has zero variance")
    return float(a @ b) / np.sqrt(va * vb)


@dataclass(frozen=True)
class HyperGrid:
    """Candidate hyperparameter values for nested selection."""

    c_values: tuple[float, ...] = DEFAULT_C_VALUES
    mu_values: tuple[float, ...] = DEFAULT_MU_VALUES

    def __post_init__(self):
        c_values = tuple(float(c) for c in self.c_values)
        mu_values = tuple(float(m) for m in self.mu_values)
        if not c_values or not mu_values:
            raise ValueError("the hyperparameter grid must not be empty")
        if any(not (np.isfinite(c) and c > 0) for c in c_values):
            raise ValueError("all C values must be positive and finite")
        if any(not (0.0 <= m <= 1.0) for m in mu_values):
            raise ValueError("all mu values must lie in [0, 1]")
        object.__setattr__(self, "c_values", c_values)
        object.__setattr__(self, "mu_values", mu_values)


@dataclass(frozen=True)
class FoldPlan:
    """A frozen nested cross-validation layout over sample ids.

    ``outer_folds[k]`` is a (train_ids, test_ids) pair; the test sets
    partition all samples. ``inner_folds[k]`` subdivides outer fold k's
    training ids into (train_ids, validation_ids) pairs. When ``blocks``
    is recorded, no block is split across any train/evaluation boundary.
    """

    sample_ids: tuple[str, ...]
    outer_folds: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    inner_folds: tuple[tuple[tuple[tuple[str, ...], tuple[str, ...]], ...], ...]
    blocks: dict | None = None
    seed: int = 0

    def __post_init__(self):
        all_ids = set(self.sample_ids)
        if len(all_ids) != len(self.sample_ids):
            raise ValueError("sample ids must be unique")
        if len(self.outer_folds) != len(self.inner_folds):
            raise ValueError("need one inner split per outer fold")
        seen = set()
        for train, test in self.outer_folds:
            train_set, test_set = set(train), set(test)
            if not test_set or not train_set:
                raise ValueError("every outer fold needs nonempty train and test sets")
            if train_set & test_set:
                raise ValueError("outer train and test sets overlap")
            if train_set | test_set != all_ids:
                raise ValueError("every outer fold must cover all samples")
            if seen & test_set:
                raise ValueError("outer test sets must be disjoint")
            seen |= test_set
            self._check_blocks(train_set, test_set)
        if seen != all_ids:
            raise ValueError("outer test sets must cover all samples")
        for (outer_train, _), inner in zip(self.outer_folds, self.inner_folds):
            outer_train_set = set(outer_train)
            covered = set()
            for train, val in inner:
                train_set, val_set = set(train), set(val)
                if not val_set or not train_set:
                    raise ValueError("every inner fold needs nonempty train and validation sets")
                if train_set & val_set:
                    raise ValueError("inner train and validation sets overlap")
                if train_set | val_set != outer_train_set:
                    raise ValueError("inner folds must cover exactly the outer training set")
                if covered & val_set:
                    raise ValueError("inner validation sets must be disjoint")
                covered |= val_set
                self._check_blocks(train_set, val_set)
            if covered != outer_train_set:
                raise ValueError("inner validation sets must cover the outer training set")

    def _check_blocks(self, train_set: set, eval_set: set) -> None:
        if self.blocks is None:
            return
        train_blocks = {self.blocks[i] for i in train_set}
        eval_blocks = {self.blocks[i] for i in eval_set}
        shared = train_blocks & eval_blocks
        if shared:
            raise ValueError(f"block {sorted(shared)[0]!r} is split across a fold boundary")

    @property
    def k_outer(self) -> int:
        return len(self.outer_folds)


def _deal_into_folds(units: list, k: int, rng, labels_of=None) -> list[list]:
    """Shuffle units, then deal them into k folds.

    With ``labels_of``, units are dealt class by class so every fold gets a
    near-proportional share of each class; the running counter keeps fold
    sizes within one of each other either way.
    """
    order = [units[i] for i in rng.permutation(len(units))]
    folds = [[] for _ in range(k)]
    counter = 0
    if labels_of is None:
        groups = [order]
    else:
        by_label: dict = {}
        for u in order:
            by_label.setdefault(labels_of(u), []).append(u)
        groups = [by_label[key] for key in sorted(by_label)]
    for group in groups:
        for u in group:
            folds[counter % k].append(u)
            counter += 1
    return folds


def make_fold_plan(
    sample_ids,
    k_outer: int,
    k_inner: int,
    blocks=None,
    seed: int = 0,
    labels=None,
) -> FoldPlan:
    """Build a deterministic nested fold plan.

    Args:
        sample_ids: unique sample identifiers.
        k_outer: number of outer folds (>= 2).
        k_inner: number of inner folds per outer fold (>= 2).
        blocks: optional block label per sample (a parallel sequence or an
            id -> block mapping). Splitting then happens over blocks, and
            co-blocked samples always land on the same side of a boundary.
        seed: RNG seed; equal seeds give equal plans.
        labels: optional class label per sample. Without blocks, folds are
            stratified so each keeps both classes where possible.
    """
    ids = tuple(str(i) for i in sample_ids)
    if len(set(ids)) != len(ids):
        raise ValueError("sample ids must be unique")
    if k_outer < 2 or k_inner < 2:
        raise ValueError("k_outer and k_inner must both be at least 2")

    block_of = None
    if blocks is not None:
        if hasattr(blocks, "keys"):
            block_of = {str(i): blocks[i] if i in blocks else blocks[str(i)] for i in ids}
        else:
            blocks = list(blocks)
            if len(blocks) != len(ids):
                raise ValueError("blocks must hold one label per sample")
            block_of = dict(zip(ids, blocks))

    label_of = None
    if labels is not None and block_of is None:
        labels = list(labels)
        if len(labels) != len(ids):
            raise ValueError("labels must hold one value per sample")
        label_of = dict(zip(ids, labels)).__getitem__

    position = {i: p for p, i in enumerate(ids)}

    def in_dataset_order(members) -> tuple[str, ...]:
        return tuple(sorted(members, key=position.__getitem__))

    if block_of is None:
        units = list(ids)
        members_of = {i: (i,) for i in ids}
    else:
        units = sorted(set(block_of.values()), key=str)
        members_of = {b: tuple(i for i in ids if block_of[i] == b) for b in units}

    if k_outer > len(units):
        raise DataError(
            f"k_outer = {k_outer} exceeds the {len(units)} available "
            + ("blocks" if block_of is not None else "samples")
        )

    rng = np.random.default_rng([int(seed), 0])
    outer_unit_folds = _deal_into_folds(units, k_outer, rng, label_of)

    outer = []
    inner_all = []
    for fold_index, test_units in enumerate(outer_unit_folds):
        test_ids = {i for u in test_units for i in members_of[u]}
        test_set = set(test_units)
        train_units = [u for u in units if u not in test_set]
        train_ids = {i for u in train_units for i in members_of[u]}
        outer.append((in_dataset_order(train_ids), in_dataset_order(test_ids)))

        if k_inner > len(train_units):
            raise DataError(
                f"k_inner = {k_inner} exceeds the {len(train_units)} training "
                + ("blocks" if block_of is not None else "samples")
                + f" of outer fold {fold_index}"
            )
        inner_rng = np.random.default_rng([int(seed), 1 + fold_index])
        inner_unit_folds = _deal_into_folds(train_units, k_inner, inner_rng, label_of)
        inner = []
        for val_units in inner_unit_folds:
            val_ids = {i for u in val_units for i in members_of[u]}
            inner_train_ids = train_ids - val_ids
            inner.append((in_dataset_order(inner_train_ids), in_dataset_order(val_ids)))
        inner_all.append(tuple(inner))

    return FoldPlan(
        sample_ids=ids,
        outer_folds=tuple(outer),
        inner_folds=tuple(inner_all),
        blocks=block_of,
        seed=int(seed),
    )


@dataclass(frozen=True)
class FoldOutcome:
    """What one outer fold produced: selection, model summary, metrics."""

    fold_index: int
    selected_c: float
    selected_mu: float | None
    metrics: dict
    beta: np.ndarray
    iterations: int
    converged: bool
    degenerate: bool
    test_ids: tuple[str, ...]
    decision_values: np.ndarray
    true_targets: np.ndarray

    def to_dict(self) -> dict:
        return record_dict(self)


@dataclass(frozen=True)
class CvReport:
    """Aggregate outcome of one nested cross-validation run.

    Pooled metrics are computed over the concatenated outer-fold test
    predictions (every sample appears exactly once). ``mean_beta`` averages
    the per-fold kernel weights and feeds the selected-kernel count.
    ``baseline`` holds the sum baseline's report when it was scored in the
    same run; it is not part of :meth:`to_dict`.
    """

    task: str
    trainer: str
    group_names: tuple[str, ...]
    group_sizes: tuple[int, ...]
    folds: tuple[FoldOutcome, ...]
    pooled_metrics: dict
    mean_beta: np.ndarray
    selected_count: int
    seed: int
    baseline: CvReport | None = None

    def to_dict(self) -> dict:
        return record_dict(self, skip=("baseline",))


def _partition_decisions(
    data: GroupedDataset,
    train_ids,
    eval_ids,
    keys,
    task: str,
    center: bool,
    normalize: bool,
    conv_tol: float,
    max_iter: int,
    solver_tol: float,
    max_updates: int,
) -> dict:
    """Fit every candidate key on one id set; decision values on another.

    ``keys`` are (C, mu) pairs, where mu None is the sum baseline. The
    partition's train stack is built from its centered, normalized training
    rows (:func:`build_linear_kernels` with the steps on), so no kernel-space
    preprocessing pass runs, and every candidate fits on it. A slice that
    cannot be normalized is refused, naming the sample and the group. The
    baseline's solve is the first iteration of every enmkl fit at its C, so
    when more than one key needs it, it is fitted once and each enmkl fit
    starts from it.

    The evaluation samples are scored through primal weights, as ``predict``
    scores new rows: the training and evaluation rows are preprocessed with
    the training group means, and each candidate's decision values are
    ``recover_primal_weights(model, train).decision_values(evaluation rows)``
    bit for bit. Nothing leaks, and no cross kernel is built. Returns
    ``{key: (decision values, model)}``.
    """
    train_data = data.subset(train_ids)
    eval_data = data.subset(eval_ids)
    stack, targets = build_linear_kernels(train_data, center, normalize), train_data.targets
    models = {}
    for C in dict.fromkeys(c for c, _ in keys):
        mus = [mu for c, mu in keys if c == C and mu is not None]
        for mu in ([None] if (C, None) in keys or len(mus) > 1 else []) + mus:
            with named(f"C={C:g} " + ("sum baseline" if mu is None else f"mu={mu:g}")):
                models[(C, mu)] = mkl.train_model(
                    stack, targets, task, "sum-baseline" if mu is None else "enmkl", C, mu,
                    conv_tol=conv_tol, max_iter=max_iter, solver_tol=solver_tol,
                    max_updates=max_updates, start=models.get((C, None)),
                )
    means = group_feature_means(train_data)
    train_blocks, eval_blocks = (
        feature_blocks(part, means, center, normalize) for part in (train_data, eval_data)
    )
    fitted = {}
    for key in keys:
        model = models[key]
        weights = mkl.primal_weights(model, train_blocks)
        decisions = mkl.primal_decisions(model.bias, weights, eval_blocks, eval_data.n_samples)
        fitted[key] = (decisions, model)
    return fitted


def _score(decisions: np.ndarray, truth: np.ndarray, task: str) -> float:
    if task == "classification":
        predicted = np.where(decisions >= 0, 1.0, -1.0)
        return balanced_accuracy(predicted, truth)
    return mse(decisions, truth)


def _pick_best(scores: dict, task: str):
    """Best candidate under the tie rules: larger mu, then smaller C."""
    sign = -1.0 if task == "classification" else 1.0  # maximize vs minimize

    def sort_key(item):
        (c, mu), score = item
        mu_key = -1.0 if mu is None else -mu
        return (sign * score, mu_key, c)

    return min(scores.items(), key=sort_key)[0]


def _cv_report(
    data: GroupedDataset, task: str, trainer: str, outcomes, seed: int, baseline=None
) -> CvReport:
    pooled_decisions = np.concatenate([o.decision_values for o in outcomes])
    pooled_truth = np.concatenate([o.true_targets for o in outcomes])
    mean_beta = np.mean([o.beta for o in outcomes], axis=0)
    return CvReport(
        task=task,
        trainer=trainer,
        group_names=data.group_names,
        group_sizes=data.group_sizes,
        folds=tuple(outcomes),
        pooled_metrics=_fold_metrics(pooled_decisions, pooled_truth, task),
        mean_beta=mean_beta,
        selected_count=mkl.selected_kernel_count(mean_beta),
        seed=seed,
        baseline=baseline,
    )


def nested_cv(
    data: GroupedDataset,
    task: str,
    plan: FoldPlan,
    grid: HyperGrid | None = None,
    trainer: str = "enmkl",
    center: bool = True,
    normalize: bool = True,
    conv_tol: float = mkl.DEFAULT_CONV_TOL,
    max_iter: int = mkl.DEFAULT_MAX_ITER,
    solver_tol: float = solvers.DEFAULT_SVM_TOL,
    max_updates: int = solvers.DEFAULT_MAX_UPDATES,
    baseline: bool = False,
) -> CvReport:
    """Run nested cross-validation and pool outer-fold test predictions.

    For each outer fold, every (C, mu) candidate is scored on the inner
    folds (mean balanced accuracy for classification, mean squared error
    for regression); the winner is refitted on the full outer training set
    and evaluated on the held-out outer test samples. Inner folds that lose
    a class to the split are skipped for scoring. A selection with one
    distinct candidate is not scored: its inner folds are checked, not fitted.
    The ``sum-baseline`` trainer ignores the mu axis of the grid.

    Ties in the inner score go to the larger mu (sparser weights), then to
    the smaller C.

    With ``baseline``, the sum-baseline trainer is selected and scored on
    the same folds in the same pass, and its report is returned as the
    result's ``baseline``; it equals a separate run with that trainer.
    Each partition's preprocessed kernels are built once for all candidates
    of both trainers.
    """
    if task not in ("classification", "regression"):
        raise ValueError(f"unknown task {task!r}")
    if trainer not in ("enmkl", "sum-baseline"):
        raise ValueError(f"unknown trainer {trainer!r}")
    grid = grid or HyperGrid()
    if set(plan.sample_ids) != set(data.sample_ids):
        raise ValueError("fold plan does not cover the dataset's sample ids")
    if task == "classification":
        data.require_binary_targets()
    base_keys = [(c, None) for c in grid.c_values]
    if trainer == "enmkl":
        for mu in grid.mu_values:
            if not 0.0 < mu <= 1.0:
                raise ValueError(
                    f"mu = {mu!r} is outside (0, 1]; "
                    "use the sum-baseline trainer for the mu = 0 endpoint"
                )
        selections = [[(c, mu) for c in grid.c_values for mu in grid.mu_values]]
    else:
        selections = [base_keys]
    if baseline:
        selections.append(base_keys)
    # One list of distinct candidates per report. A list of one has nothing
    # to choose, so the inner folds fit only the union of the longer lists.
    selections = [list(dict.fromkeys(keys)) for keys in selections]
    inner_keys = list(dict.fromkeys(key for keys in selections if len(keys) > 1 for key in keys))

    target_of = {i: t for i, t in zip(data.sample_ids, data.targets)}
    fit_args = dict(
        task=task, center=center, normalize=normalize,
        conv_tol=conv_tol, max_iter=max_iter,
        solver_tol=solver_tol, max_updates=max_updates,
    )

    outcomes = [[] for _ in selections]
    for fold_index, (outer_train, outer_test) in enumerate(plan.outer_folds):
        fold_scores: dict = {}
        usable = False
        for inner_index, (inner_train, inner_val) in enumerate(plan.inner_folds[fold_index]):
            truth = np.array([target_of[i] for i in inner_val])
            if task == "classification":
                train_truth = np.array([target_of[i] for i in inner_train])
                # A split can strand one class; such folds cannot score.
                if len(set(train_truth.tolist())) < 2 or len(set(truth.tolist())) < 2:
                    continue
            usable = True
            if not inner_keys:
                continue
            with named(f"outer fold {fold_index}, inner fold {inner_index}"):
                fitted = _partition_decisions(data, inner_train, inner_val, inner_keys, **fit_args)
            for key, (decisions, _) in fitted.items():
                fold_scores.setdefault(key, []).append(_score(decisions, truth, task))
        if not usable:
            raise DataError(
                f"no inner fold of outer fold {fold_index} could score any candidate"
            )
        best = [
            keys[0] if len(keys) == 1
            else _pick_best({key: float(np.mean(fold_scores[key])) for key in keys}, task)
            for keys in selections
        ]

        with named(f"outer fold {fold_index}"):
            fitted = _partition_decisions(data, outer_train, outer_test, best, **fit_args)
            truth = np.array([target_of[i] for i in outer_test])
            for fold_outcomes, (best_c, best_mu) in zip(outcomes, best):
                decisions, model = fitted[(best_c, best_mu)]
                fold_outcomes.append(
                    FoldOutcome(
                        fold_index=fold_index,
                        selected_c=float(best_c),
                        selected_mu=None if best_mu is None else float(best_mu),
                        metrics=_fold_metrics(decisions, truth, task),
                        beta=model.beta,
                        iterations=model.iterations,
                        converged=model.converged,
                        degenerate=model.degenerate,
                        test_ids=tuple(outer_test),
                        decision_values=decisions,
                        true_targets=truth,
                    )
                )

    base = _cv_report(data, task, "sum-baseline", outcomes[1], plan.seed) if baseline else None
    return _cv_report(data, task, trainer, outcomes[0], plan.seed, base)


def _fold_metrics(decisions: np.ndarray, truth: np.ndarray, task: str) -> dict:
    if task == "classification":
        predicted = np.where(decisions >= 0, 1.0, -1.0)
        return {
            "balanced_accuracy": balanced_accuracy(predicted, truth),
            "auc": auc(decisions, truth),
        }
    try:
        r = pearson_correlation(decisions, truth)
    except DataError:
        r = None  # constant predictions or targets leave r undefined
    return {"mse": mse(decisions, truth), "pearson_r": r}
