"""Elastic-net multiple kernel learning with analytical weight updates.

The model learns a convex combination ``K = sum_j beta_j K_j`` jointly with
an SVM or kernel ridge regression on the combined kernel. A mixing
parameter ``mu`` in (0, 1] interpolates between sparsity-inducing l1
regularization of the kernel weights (mu = 1) and a uniform l2 blend
(mu -> 0). Training alternates between

1. solving the single-kernel dual on the current combined kernel, and
2. closed-form updates of the per-kernel weights from the block norms

    ||w_j||   = beta_j * sqrt(q' K_j q)          (q = alpha * y, or alpha)
    lambda_j  = ||w_j|| / (sqrt(mu) * sum_k ||w_k||)
    beta_j    = 1 / (sqrt(mu) / lambda_j + (1 - mu))

until the unit-sum-normalized weights stop moving. After the loop, alpha is
rescaled by ``sum_j beta_j`` and beta normalized to the unit simplex; the
rescaled pair produces bit-for-bit identical decision values.

Steps 1-2 are a fixed-point map, and iterated plainly its tail is geometric:
weights on their way to zero shrink by a near-constant factor per step. The
loop accelerates it with type-II Anderson extrapolation (Walker & Ni 2011)
of the scale variables lambda, from its last ``ANDERSON_DEPTH`` residual
differences. An extrapolated lambda keeps the plain step's sum, so every
iterate is a weight vector the update can produce. It keeps a kernel the
plain step zeroed at zero and gives any other at least ``ANDERSON_FLOOR``
of its plain-step value, so extrapolation never drops a kernel. The
safeguard keeps an extrapolated iterate only if its objective is at most
the best accepted objective plus the solver's noise (``solver_tol * max(1,
C)`` for the SVM, relative 1e-9 for ridge regression). A rejected iterate
clears the memory, and the loop takes the plain step from the last accepted
iterate instead.

``conv_tol`` keeps its meaning: the loop stops at an accepted iterate whose
plain step moves the normalized weights by at most ``conv_tol``, and returns
that step's weights with the iterate's alpha. ``iterations`` counts inner
solves, rejected ones included, so ``max_iter`` bounds the work;
``objective_history`` holds the objectives of accepted iterates only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DataError
from . import solvers
from .io import record_dict
from .kernels import (
    GroupedDataset,
    KernelStack,
    group_feature_means,
    preprocess_feature_rows,
    weighted_sum,
)

DEFAULT_CONV_TOL = 1e-4
DEFAULT_MAX_ITER = 200
# Weights this small are fixed to zero: beta_j = 0 is a fixed point of the
# update chain, so dropping the kernel from the weighted sum is inert.
BETA_DROP_TOL = 1e-12
# A kernel counts as selected when its normalized weight exceeds this.
SELECTION_THRESHOLD = 1e-5
# Anderson acceleration of the weight update: how many residual differences
# it keeps, and the least share of its plain step an extrapolated weight keeps.
ANDERSON_DEPTH = 3
ANDERSON_FLOOR = 1e-2

_TASKS = ("classification", "regression")


def _check_mu(mu: float) -> float:
    mu = float(mu)
    if not (np.isfinite(mu) and 0.0 < mu <= 1.0):
        raise ValueError(
            f"mu must lie in (0, 1], got {mu!r}; "
            "mu = 0 corresponds to the unweighted-sum baseline (train_sum_baseline)"
        )
    return mu


def _check_task(task: str) -> str:
    if task not in _TASKS:
        raise ValueError(f"task must be one of {_TASKS}, got {task!r}")
    return task


@dataclass(frozen=True)
class MklModel:
    """A trained multiple-kernel model.

    ``beta`` lives on the unit simplex and ``alpha`` is already rescaled to
    match, so decision values on a preprocessed cross stack are
    ``weighted_sum(stack, beta) @ coef + bias`` with ``coef = alpha *
    train_labels`` for classification and ``alpha`` for regression. For
    regression ``bias`` holds the training-target mean.

    ``beta_raw_sum`` preserves the pre-normalization weight total, so the
    raw pairing ``(alpha / beta_raw_sum, beta * beta_raw_sum)`` can be
    reconstructed. ``degenerate`` marks the all-zero-block-norm failure mode
    where uniform weights are returned.
    """

    beta: np.ndarray
    alpha: np.ndarray
    bias: float
    task: str
    mu: float
    C: float
    iterations: int
    converged: bool
    group_names: tuple[str, ...]
    sample_ids: tuple[str, ...]
    train_labels: np.ndarray | None = None
    group_sizes: tuple[int, ...] | None = None
    degenerate: bool = False
    centered: bool = True
    normalized: bool = True
    kernel_kind: str = "linear"
    beta_raw_sum: float = 1.0
    objective_history: tuple[float, ...] = ()

    def __post_init__(self):
        beta = np.array(self.beta, dtype=np.float64, copy=True)
        alpha = np.array(self.alpha, dtype=np.float64, copy=True)
        task = _check_task(self.task)
        if beta.ndim != 1 or beta.shape[0] != len(self.group_names):
            raise ValueError("beta must hold one weight per group")
        if (beta < 0).any():
            raise ValueError("kernel weights must be nonnegative")
        if abs(float(beta.sum()) - 1.0) > 1e-10:
            raise ValueError("kernel weights must sum to one")
        if alpha.ndim != 1 or alpha.shape[0] != len(self.sample_ids):
            raise ValueError("alpha must hold one coefficient per train sample")
        labels = self.train_labels
        if task == "classification":
            if labels is None:
                raise ValueError("classification models must carry their train labels")
            labels = np.array(labels, dtype=np.float64, copy=True)
            if labels.shape != alpha.shape:
                raise ValueError("train labels must be parallel to alpha")
            labels.setflags(write=False)
        elif labels is not None:
            raise ValueError("regression models do not carry train labels")
        sizes = self.group_sizes
        if sizes is not None:
            sizes = tuple(int(s) for s in sizes)
            if len(sizes) != len(self.group_names):
                raise ValueError("group_sizes must be parallel to group_names")
        beta.setflags(write=False)
        alpha.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "bias", float(self.bias))
        object.__setattr__(self, "task", task)
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "C", float(self.C))
        object.__setattr__(self, "iterations", int(self.iterations))
        object.__setattr__(self, "converged", bool(self.converged))
        object.__setattr__(self, "group_names", tuple(str(g) for g in self.group_names))
        object.__setattr__(self, "sample_ids", tuple(str(s) for s in self.sample_ids))
        object.__setattr__(self, "train_labels", labels)
        object.__setattr__(self, "group_sizes", sizes)
        object.__setattr__(self, "degenerate", bool(self.degenerate))
        object.__setattr__(self, "centered", bool(self.centered))
        object.__setattr__(self, "normalized", bool(self.normalized))
        object.__setattr__(self, "kernel_kind", str(self.kernel_kind))
        object.__setattr__(self, "beta_raw_sum", float(self.beta_raw_sum))
        object.__setattr__(
            self, "objective_history", tuple(float(v) for v in self.objective_history)
        )


def compute_block_norms(stack: KernelStack, alpha, labels=None, *, beta) -> np.ndarray:
    """Per-kernel primal block norms from the dual coefficients.

    ``||w_j|| = beta_j * sqrt(q' K_j q)`` with ``q = alpha * labels`` for
    classification and ``q = alpha`` for regression. Tiny negative quadratic
    forms (round-off on PSD kernels) are clamped to zero; anything below
    ``-1e-8 * ||q||^2`` means the kernel is not PSD and is rejected.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (stack.n_rows,):
        raise ValueError("alpha must hold one coefficient per train sample")
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (stack.m,):
        raise ValueError("beta must hold one weight per kernel")
    q = alpha
    if labels is not None:
        labels = np.asarray(labels, dtype=np.float64)
        if labels.shape != alpha.shape:
            raise ValueError("labels must be parallel to alpha")
        q = alpha * labels
    q_scale = float(q @ q)
    norms = np.empty(stack.m)
    for j, k in enumerate(stack.values):
        form = float(q @ (k @ q))
        if form < -1e-8 * max(q_scale, 1e-300):
            raise DataError(
                f"kernel '{stack.group_names[j]}' is not positive semidefinite "
                f"(q'Kq = {form!r})"
            )
        norms[j] = beta[j] * np.sqrt(max(form, 0.0))
    return norms


def update_lambda(w_norms, mu: float) -> np.ndarray:
    """Closed-form scale variables: ``lambda_j = ||w_j|| / (sqrt(mu) * sum)``.

    This is the minimizer of the weighted-norm objective over the constraint
    set ``sqrt(mu) * sum(lambda) = 1``, so the returned vector always
    satisfies that identity.
    """
    mu = _check_mu(mu)
    w = np.asarray(w_norms, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError("block norms must be a 1-d array")
    if (w < 0).any():
        raise ValueError("block norms must be nonnegative")
    total = float(w.sum())
    if total <= 0:
        raise ValueError("all block norms are zero; lambda is undefined")
    return w / (np.sqrt(mu) * total)


def update_beta(lambdas, mu: float) -> np.ndarray:
    """Closed-form raw kernel weights from the scale variables.

    ``beta_j = 1 / (sqrt(mu) / lambda_j + (1 - mu))``, with ``beta_j = 0``
    where ``lambda_j = 0`` (the limit of the formula). At mu = 1 this
    reduces to ``beta = lambda``.
    """
    mu = _check_mu(mu)
    lam = np.asarray(lambdas, dtype=np.float64)
    if lam.ndim != 1:
        raise ValueError("lambdas must be a 1-d array")
    if (lam < 0).any():
        raise ValueError("lambdas must be nonnegative")
    safe = np.where(lam > 0, lam, 1.0)
    return np.where(lam > 0, 1.0 / (np.sqrt(mu) / safe + (1.0 - mu)), 0.0)


def _slack_loss(combined, targets, alpha, bias, C, task, labels):
    """The loss term of the training objective, given the combined kernel."""
    if task == "classification":
        decisions = solvers.predict(alpha, bias, combined, labels=labels)
        slack = np.maximum(0.0, 1.0 - targets * decisions)
        return C * float(slack.sum())
    decisions = solvers.predict(alpha, 0.0, combined)
    residual = (targets - bias) - decisions
    return (C / combined.shape[0]) * float(residual @ residual)


def _objective(combined, w, lam, targets, alpha, bias, mu, C, task, labels) -> float:
    """The elastic-net objective from one state's combined kernel, block norms
    and their closed-form scales ``lam`` (None when every block norm is zero)."""
    penalty = 0.5 * (1.0 - mu) * float(w @ w)
    if lam is not None:
        pos = lam > 0
        penalty += 0.5 * np.sqrt(mu) * float((w[pos] ** 2 / lam[pos]).sum())
    return penalty + _slack_loss(combined, targets, alpha, bias, C, task, labels)


def enmkl_objective(
    stack: KernelStack, targets, alpha, bias: float, beta, mu: float, C: float, task: str
) -> float:
    """The elastic-net training objective at a model state.

    Evaluates ``1/2 sum_j (sqrt(mu)/lambda_j) ||w_j||^2 + (1-mu)/2 sum_j
    ||w_j||^2`` plus the task's loss, with the scale variables ``lambda`` at
    their closed-form optimum for the current block norms. Slacks are
    recomputed from the decision values, so any (alpha, bias, beta) triple
    can be scored. With every block norm zero the penalty vanishes and only
    the loss remains.
    """
    mu = _check_mu(mu)
    task = _check_task(task)
    targets = np.asarray(targets, dtype=np.float64)
    labels = targets if task == "classification" else None
    w = compute_block_norms(stack, alpha, labels=labels, beta=beta)
    combined = weighted_sum(stack, beta)
    lam = update_lambda(w, mu) if float(w.sum()) > 0 else None
    return _objective(combined, w, lam, targets, alpha, bias, mu, C, task, labels)


def _normalized(beta: np.ndarray) -> np.ndarray:
    total = float(beta.sum())
    if total <= 0:
        raise ValueError("kernel weights sum to zero")
    return beta / total


def _train_targets(stack: KernelStack, targets, task: str):
    """Float targets, one per train sample, and the -1/+1 labels of a classifier.

    Returns ``(targets, labels)``; ``labels`` is ``targets`` for
    classification, where both classes must be present, and None otherwise.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != (stack.n_rows,):
        raise ValueError("targets must hold one value per train sample")
    if task != "classification":
        return targets, None
    values = set(targets.tolist())
    if not values <= {-1.0, 1.0} or len(values) != 2:
        raise DataError("classification targets must be -1/+1 with both classes present")
    return targets, targets


def _solve(combined, targets, labels, C, solver_tol, max_updates, alpha0=None):
    """``(alpha, bias)`` of one SVM solve on ``combined``, or of one ridge
    solve when ``labels`` is None (the bias is then the target offset)."""
    if labels is not None:
        sol = solvers.solve_svm_dual(
            combined, labels, C, tol=solver_tol, max_updates=max_updates, alpha0=alpha0
        )
        return sol.alpha, sol.bias
    sol = solvers.solve_krr_dual(combined, targets, C)
    return sol.alpha, sol.target_offset


def _stack_model(stack: KernelStack, labels, **values) -> MklModel:
    """A model of ``values`` that records the ids, groups, preprocessing flags
    and train ``labels`` of the stack it was fitted on."""
    return MklModel(
        group_names=stack.group_names,
        sample_ids=stack.row_ids,
        train_labels=labels,
        group_sizes=stack.group_sizes,
        centered=stack.centered,
        normalized=stack.normalized,
        **values,
    )


def _dot(a: list, b: list) -> float:
    return sum(x * y for x, y in zip(a, b))


def _ridge_least_squares(cols: list, rhs: list) -> list | None:
    """``argmin_c ||rhs - sum_i c_i cols_i||``, from the normal equations with
    a ridge of 1e-10 of their trace, by Cholesky in Python floats.

    None when there are no columns or they are all zero.
    """
    k = len(cols)
    gram = [[_dot(a, b) for b in cols] for a in cols]
    ridge = 1e-10 * sum(gram[i][i] for i in range(k))
    if not ridge > 0:
        return None
    low = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1):
            value = gram[i][j] - sum(low[i][p] * low[j][p] for p in range(j))
            if i == j:
                low[i][i] = math.sqrt(max(value, 0.0) + ridge)
            else:
                low[i][j] = value / low[j][j]
    z: list[float] = []
    for i, col in enumerate(cols):
        z.append((_dot(col, rhs) - _dot(low[i][:i], z)) / low[i][i])
    c = [0.0] * k
    for i in reversed(range(k)):
        c[i] = (z[i] - sum(low[p][i] * c[p] for p in range(i + 1, k))) / low[i][i]
    return c


class _Anderson:
    """Type-II Anderson extrapolation of a fixed-point map (Walker & Ni 2011,
    *Anderson acceleration for fixed-point iterations*), without a safeguard.

    :meth:`step` takes an iterate ``x`` and its plain step ``g = T(x)``. It
    keeps the differences of the last ``ANDERSON_DEPTH + 1`` residuals
    ``r = g - x`` and plain steps, fits ``r`` by the residual differences in
    least squares, and moves ``g`` by the same combination of step
    differences. The result is then made positive and rescaled to the sum
    of ``g``: an entry ``g`` zeroed stays zero, and any other keeps at least
    ``ANDERSON_FLOOR`` of its ``g`` before the rescaling, so an
    extrapolation never drops a kernel.
    """

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self._last = None
        self._dr: list[list[float]] = []
        self._dg: list[list[float]] = []

    def step(self, x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, bool]:
        """The next iterate, and whether it is extrapolated rather than ``g``."""
        gs = g.tolist()
        r = [b - a for a, b in zip(x.tolist(), gs)]
        if self._last is not None:
            g0, r0 = self._last
            self._dr.append([b - a for a, b in zip(r0, r)])
            self._dg.append([b - a for a, b in zip(g0, gs)])
            if len(self._dr) > ANDERSON_DEPTH:
                del self._dr[0], self._dg[0]
        self._last = (gs, r)
        c = _ridge_least_squares(self._dr, r)
        if c is None:
            return g, False
        nxt = [
            0.0 if gj == 0.0
            else max(gj - _dot(c, [d[j] for d in self._dg]), ANDERSON_FLOOR * gj)
            for j, gj in enumerate(gs)
        ]
        scale = sum(gs) / sum(nxt)
        return np.array([v * scale for v in nxt]), True


def _train_enmkl(
    stack: KernelStack,
    targets: np.ndarray,
    task: str,
    C: float,
    mu: float,
    conv_tol: float,
    max_iter: int,
    solver_tol: float,
    max_updates: int,
    start: MklModel | None,
) -> MklModel:
    mu = _check_mu(mu)
    task = _check_task(task)
    C = float(C)
    if not (np.isfinite(C) and C > 0):
        raise ValueError("C must be a positive finite number")
    if not conv_tol > 0:
        raise ValueError("conv_tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    targets, labels = _train_targets(stack, targets, task)
    if start is not None and (
        (start.mu, start.task, start.C) != (0.0, task, C)
        or start.sample_ids != stack.row_ids
        or start.group_names != stack.group_names
        or (start.centered, start.normalized) != (stack.centered, stack.normalized)
    ):
        raise ValueError("start must be the sum-baseline model of this stack, task and C")

    m = stack.m
    beta = np.full(m, 1.0 / m)
    # The scale variables of the current weights: beta = update_beta(lam_x),
    # or, for the uniform start, the lambda of the same direction.
    lam_x = np.full(m, 1.0 / (m * math.sqrt(mu)))
    warm = None
    history: list[float] = []
    converged = False
    degenerate = False
    iterations = 0
    mixer = _Anderson()
    extrapolated = False
    best = np.inf
    accepted = None  # (alpha, bias, plain step's beta, its lambda), last accepted iterate

    for _ in range(max_iter):
        iterations += 1
        combined = weighted_sum(stack, beta)
        if start is not None:
            # Iteration 1 solves on the beta = 1/m kernel: the baseline's solve.
            alpha, bias, start = start.alpha, start.bias, None
        else:
            alpha, bias = _solve(combined, targets, labels, C, solver_tol, max_updates, warm)
        warm = alpha

        w = compute_block_norms(stack, alpha, labels=labels, beta=beta)
        if not (w > 0).any():
            history.append(
                _objective(combined, w, None, targets, alpha, bias, mu, C, task, labels)
            )
            degenerate = True
            break
        lam = update_lambda(w, mu)
        objective = _objective(combined, w, lam, targets, alpha, bias, mu, C, task, labels)
        if extrapolated:
            # The solver noise an accepted objective may rise by: SMO stops at
            # a KKT violation of solver_tol, and the loss term scales it by C;
            # the ridge solve is exact up to round-off.
            if task == "classification":
                slack = solver_tol * max(1.0, C)
            else:
                slack = 1e-9 * max(1.0, abs(best))
            if objective > best + slack:
                # Rejected: restart the memory at the last accepted plain step.
                mixer.clear()
                _, _, beta, lam_x = accepted
                extrapolated = False
                continue
        history.append(objective)
        best = min(best, objective)
        beta_new = update_beta(lam, mu)
        beta_new = np.where(beta_new < BETA_DROP_TOL, 0.0, beta_new)
        lam_new = np.where(beta_new > 0, lam, 0.0)
        accepted = (alpha, bias, beta_new, lam_new)
        delta = float(np.abs(_normalized(beta_new) - _normalized(beta)).max())
        if delta <= conv_tol:
            converged = True
            break
        # Extrapolating lambda, which keeps its sum, puts every iterate on
        # weights the update can produce, like the plain steps.
        lam_x, extrapolated = mixer.step(lam_x, lam_new)
        beta = update_beta(lam_x, mu) if extrapolated else beta_new

    if degenerate:
        # No block carries weight; fall back to uniform mixing and flag it.
        beta_final = np.full(m, 1.0 / m)
        raw_sum = 1.0
        converged = False
    else:
        alpha, bias, beta, _ = accepted
        raw_sum = float(beta.sum())
        beta_final = beta / raw_sum

    return _stack_model(
        stack,
        labels,
        beta=beta_final,
        alpha=alpha * raw_sum,
        bias=bias,
        task=task,
        mu=mu,
        C=C,
        iterations=iterations,
        converged=converged,
        degenerate=degenerate,
        beta_raw_sum=raw_sum,
        objective_history=tuple(history),
    )


def train_enmkl_svm(
    stack: KernelStack,
    labels,
    C: float,
    mu: float,
    conv_tol: float = DEFAULT_CONV_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    solver_tol: float = solvers.DEFAULT_SVM_TOL,
    max_updates: int = solvers.DEFAULT_MAX_UPDATES,
    start: MklModel | None = None,
) -> MklModel:
    """Train an elastic-net MKL SVM classifier on a train stack.

    Alternates SMO solves with the closed-form weight updates, accelerated
    as the module docstring describes, until one update moves the
    normalized weights by at most ``conv_tol`` in every coordinate, or
    ``max_iter`` solves are spent (reported via ``converged``, not an
    error). The inner solver warm-starts from the previous solve's
    coefficients.

    The first iteration solves on the uniform mixture, which is what
    :func:`train_sum_baseline` fits. ``start``, that baseline's model on
    this stack with the same C, ``solver_tol`` and ``max_updates``, stands
    in for that solve; the result is the same model bit for bit. Its C,
    task, sample ids, groups and preprocessing flags are checked; the SMO
    settings are not recorded on a model, so keeping them equal is the
    caller's duty, and a baseline fitted with other settings gives another
    model without an error.
    """
    return _train_enmkl(
        stack, labels, "classification", C, mu, conv_tol, max_iter, solver_tol, max_updates,
        start,
    )


def train_enmkl_krr(
    stack: KernelStack,
    targets,
    C: float,
    mu: float,
    conv_tol: float = DEFAULT_CONV_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    start: MklModel | None = None,
) -> MklModel:
    """Train elastic-net MKL kernel ridge regression on a train stack.

    ``start`` is as for :func:`train_enmkl_svm`: the sum baseline's model
    on this stack with the same C, used as the first iteration's solve.
    """
    return _train_enmkl(
        stack, targets, "regression", C, mu, conv_tol, max_iter,
        solvers.DEFAULT_SVM_TOL, solvers.DEFAULT_MAX_UPDATES, start,
    )


def train_sum_baseline(
    stack: KernelStack,
    targets,
    task: str,
    C: float,
    solver_tol: float = solvers.DEFAULT_SVM_TOL,
    max_updates: int = solvers.DEFAULT_MAX_UPDATES,
) -> MklModel:
    """Single-kernel baseline on the uniform kernel mixture.

    Fixes ``beta_j = 1/m`` and runs one plain SVM or ridge solve; the
    stored ``mu`` of 0 marks the model as the unweighted-sum baseline.
    """
    task = _check_task(task)
    targets, labels = _train_targets(stack, targets, task)
    beta = np.full(stack.m, 1.0 / stack.m)
    combined = weighted_sum(stack, beta)
    alpha, bias = _solve(combined, targets, labels, C, solver_tol, max_updates)
    return _stack_model(
        stack, labels, beta=beta, alpha=alpha, bias=bias, task=task, mu=0.0, C=float(C),
        iterations=1, converged=True,
    )


def train_model(
    stack: KernelStack,
    targets,
    task: str,
    trainer: str,
    C: float,
    mu: float | None = None,
    conv_tol: float = DEFAULT_CONV_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    solver_tol: float = solvers.DEFAULT_SVM_TOL,
    max_updates: int = solvers.DEFAULT_MAX_UPDATES,
    start: MklModel | None = None,
) -> MklModel:
    """Fit the named trainer, ``"enmkl"`` or ``"sum-baseline"``, for a task.

    Options a trainer does not use are ignored: the baseline has no ``mu``,
    no outer loop and no ``start``, and ridge regression has no SMO
    settings. ``start`` is the enmkl fit's first iteration, as for
    :func:`train_enmkl_svm`, and must come from the same ``solver_tol``
    and ``max_updates``, which are not checked.
    """
    if trainer == "sum-baseline":
        return train_sum_baseline(
            stack, targets, task, C, solver_tol=solver_tol, max_updates=max_updates
        )
    if trainer != "enmkl":
        raise ValueError(f"unknown trainer {trainer!r}")
    if task == "classification":
        return train_enmkl_svm(
            stack, targets, C, mu, conv_tol=conv_tol, max_iter=max_iter,
            solver_tol=solver_tol, max_updates=max_updates, start=start,
        )
    return train_enmkl_krr(
        stack, targets, C, mu, conv_tol=conv_tol, max_iter=max_iter, start=start
    )


def predict_model(model: MklModel, stack: KernelStack) -> np.ndarray:
    """Decision values of a trained model on a (cross or train) stack.

    The stack must carry the same groups, the same train samples as
    columns, and the same preprocessing state the model was trained on.
    """
    if stack.group_names != model.group_names:
        raise ValueError("stack group names do not match the model")
    if stack.col_ids != model.sample_ids:
        raise ValueError("stack columns do not match the model's train samples")
    if stack.centered != model.centered or stack.normalized != model.normalized:
        raise ValueError(
            "stack preprocessing flags do not match the model "
            f"(model: centered={model.centered}, normalized={model.normalized})"
        )
    combined = weighted_sum(stack, model.beta)
    return solvers.predict(model.alpha, model.bias, combined, labels=model.train_labels)


def selected_kernel_count(beta, threshold: float = SELECTION_THRESHOLD) -> int:
    """How many kernels carry normalized weight above the threshold."""
    beta = np.asarray(beta, dtype=np.float64)
    if beta.ndim != 1:
        raise ValueError("beta must be a 1-d array")
    return int(np.sum(beta > threshold))


@dataclass(frozen=True)
class PrimalModel:
    """Explicit per-group weight vectors recovered from a dual model.

    Self-contained for prediction from raw feature rows: it carries the
    group column indices, the train feature means, and the preprocessing
    flags needed to replay the pipeline in feature space.
    """

    weights: tuple[np.ndarray, ...]
    group_names: tuple[str, ...]
    group_columns: tuple[np.ndarray, ...]
    feature_means: tuple[np.ndarray, ...]
    bias: float
    centered: bool
    normalized: bool
    n_features: int

    def decision_values(self, features, sample_ids=None) -> np.ndarray:
        """Predict from raw feature rows via the recovered primal weights."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.n_features:
            raise ValueError(f"features must have {self.n_features} columns")
        processed = preprocess_feature_rows(
            features,
            list(self.group_columns),
            list(self.feature_means),
            self.centered,
            self.normalized,
            sample_ids=sample_ids,
        )
        out = np.full(features.shape[0], self.bias)
        for cols, w in zip(self.group_columns, self.weights):
            out += processed[:, cols] @ w
        return out

    def to_dict(self) -> dict:
        return record_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PrimalModel":
        """The model a :meth:`to_dict` record holds.

        ``decision_values`` pairs the per-group lists entry by entry, so a
        record whose lists differ in length, whose weight or mean vector does
        not match its group's columns, or whose columns lie outside
        ``n_features`` is refused with a ``ValueError``.
        """
        model = cls(
            weights=tuple(np.asarray(w, dtype=np.float64) for w in d["weights"]),
            group_names=tuple(str(g) for g in d["group_names"]),
            group_columns=tuple(np.asarray(c, dtype=np.int64) for c in d["group_columns"]),
            feature_means=tuple(np.asarray(m, dtype=np.float64) for m in d["feature_means"]),
            bias=float(d["bias"]),
            centered=bool(d["centered"]),
            normalized=bool(d["normalized"]),
            n_features=int(d["n_features"]),
        )
        groups = (model.group_names, model.group_columns, model.weights, model.feature_means)
        if len(set(map(len, groups))) != 1:
            raise ValueError(
                "primal group_names, group_columns, weights and feature_means differ in length"
            )
        for name, cols, w, mu in zip(*groups):
            if cols.ndim != 1 or w.shape != cols.shape or mu.shape != cols.shape:
                raise ValueError(
                    f"group '{name}': weights and feature_means must hold one value "
                    "per group column"
                )
            if cols.size and (cols.min() < 0 or cols.max() >= model.n_features):
                raise ValueError(
                    f"group '{name}': a column lies outside the {model.n_features} features"
                )
        return model


def recover_primal_weights(model: MklModel, train_data: GroupedDataset) -> PrimalModel:
    """Reconstruct the explicit primal weight vectors of a linear MKL model.

    For linear kernels the group-j weight vector is ``w_j = beta_j * sum_i
    coef_i * psi_j(x_i)`` where ``psi_j`` applies the train preprocessing to
    the group-j feature slice and ``coef = alpha * y`` (classification) or
    ``alpha`` (regression). Decision values from these vectors match the
    dual path exactly, up to round-off.
    """
    if model.kernel_kind != "linear":
        raise NotImplementedError(
            f"primal recovery is only defined for linear kernels, not {model.kernel_kind!r}"
        )
    if train_data.sample_ids != model.sample_ids:
        raise ValueError("train data sample ids do not match the model")
    if train_data.group_names != model.group_names:
        raise ValueError("train data group names do not match the model")
    means = group_feature_means(train_data)
    group_cols = [train_data.group_columns(j) for j in range(train_data.n_groups)]
    processed = preprocess_feature_rows(
        train_data.features,
        group_cols,
        means,
        model.centered,
        model.normalized,
        sample_ids=train_data.sample_ids,
    )
    coef = model.alpha if model.train_labels is None else model.alpha * model.train_labels
    weights = []
    for j, cols in enumerate(group_cols):
        weights.append(model.beta[j] * (processed[:, cols].T @ coef))
    return PrimalModel(
        weights=tuple(weights),
        group_names=model.group_names,
        group_columns=tuple(group_cols),
        feature_means=tuple(np.asarray(m) for m in means),
        bias=model.bias,
        centered=model.centered,
        normalized=model.normalized,
        n_features=train_data.n_features,
    )


def model_to_dict(model: MklModel) -> dict:
    """A JSON-ready mapping of the model; floats survive round trips exactly."""
    return record_dict(model)


def model_from_dict(d: dict) -> MklModel:
    """Rebuild a model from :func:`model_to_dict` output."""
    return MklModel(**{f.name: d[f.name] for f in fields(MklModel)})
