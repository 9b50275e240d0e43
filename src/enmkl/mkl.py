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

The SVM solve reads the combined kernel from the stack: SMO builds a small
one whole, and computes a large one's rows as it needs them (see
:mod:`enmkl.solvers`). ``K q = sum_j beta_j K_j q`` for the loss term and the
next warm start comes from the products the block norms take, in one
batched product. Ridge regression builds the combined kernel for its linear
solve.

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
import operator
from dataclasses import dataclass, fields

import numpy as np

from .errors import DataError
from . import solvers
from .io import record_dict
from .kernels import (
    GroupedDataset,
    KernelStack,
    check_labels,
    feature_blocks,
    group_feature_means,
    preprocess_slices,
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


def _check_mu(mu: float | None) -> float:
    if mu is not None:
        mu = float(mu)
    if mu is None or not (np.isfinite(mu) and 0.0 < mu <= 1.0):
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


def compute_block_norms(stack, alpha, labels=None, *, beta, products=None) -> np.ndarray:
    """Per-kernel primal block norms from the dual coefficients.

    ``||w_j|| = beta_j * sqrt(q' K_j q)`` with ``q = alpha * labels`` for
    classification and ``q = alpha`` for regression. Tiny negative quadratic
    forms (round-off on PSD kernels) are clamped to zero; anything below
    ``-1e-8 * ||q||^2`` means the kernel is not PSD and is rejected. The
    shapes are the caller's to keep: ``alpha`` and ``labels`` hold one value
    per train sample, ``beta`` one weight per kernel; ``products``, if
    given, is an (m, n) array that receives each ``K_j q``.
    """
    q = np.asarray(alpha, dtype=np.float64)
    if labels is not None:
        q = q * labels
    q_scale = float(q @ q)
    # One batched product takes every K_j q; each is the gemv of K_j @ q.
    products = np.matmul(stack.values, q, out=products)
    norms = []
    weights = np.asarray(beta, dtype=np.float64).tolist()
    for name, b, v in zip(stack.group_names, weights, products):
        form = float(q @ v)
        if form < -1e-8 * max(q_scale, 1e-300):
            raise DataError(f"kernel '{name}' is not positive semidefinite (q'Kq = {form!r})")
        norms.append(b * math.sqrt(max(form, 0.0)))
    return np.array(norms)


def _update_lambda(w: np.ndarray, mu: float) -> np.ndarray:
    """Closed-form scale variables: ``lambda_j = ||w_j|| / (sqrt(mu) * sum)``.

    This is the minimizer of the weighted-norm objective over the constraint
    set ``sqrt(mu) * sum(lambda) = 1``, so the returned vector always
    satisfies that identity. The block norms ``w`` are not all zero.
    """
    return w / (np.sqrt(mu) * float(w.sum()))


def _update_beta(lam: np.ndarray, mu: float) -> np.ndarray:
    """Closed-form raw kernel weights from the scale variables.

    ``beta_j = 1 / (sqrt(mu) / lambda_j + (1 - mu))``, with ``beta_j = 0``
    where ``lambda_j = 0`` (the limit of the formula). At mu = 1 this
    reduces to ``beta = lambda``.
    """
    root, rest = math.sqrt(mu), 1.0 - mu
    return np.array([1.0 / (root / x + rest) if x > 0 else 0.0 for x in lam.tolist()])


def _slack_loss(kq, targets, bias, C, task):
    """The loss term of the training objective, given ``K q`` (see
    :func:`compute_block_norms` for q)."""
    if task == "classification":
        slack = np.maximum(0.0, 1.0 - targets * (kq + bias))
        return C * float(slack.sum())
    residual = (targets - bias) - kq
    return (C / kq.shape[0]) * float(residual @ residual)


def _objective(kq, w, lam, targets, bias, mu, C, task) -> float:
    """The elastic-net objective from one state's ``K q`` (see
    :func:`_slack_loss`), block norms and their closed-form scales ``lam``
    (None when every block norm is zero)."""
    penalty = 0.5 * (1.0 - mu) * float(w @ w)
    if lam is not None:
        pos = lam > 0
        penalty += 0.5 * np.sqrt(mu) * float((w[pos] ** 2 / lam[pos]).sum())
    return penalty + _slack_loss(kq, targets, bias, C, task)


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
    combined = weighted_sum(stack, beta)  # refuses a beta of the wrong length
    w = compute_block_norms(stack, alpha, labels=labels, beta=beta)
    lam = _update_lambda(w, mu) if float(w.sum()) > 0 else None
    kq = combined @ np.asarray(alpha if labels is None else alpha * labels, dtype=np.float64)
    return _objective(kq, w, lam, targets, bias, mu, C, task)


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
    check_labels(targets)
    return targets, targets


def _solve(stack, beta, combined, targets, labels, C, solver_tol, max_updates,
           alpha0=None, products=None):
    """``(alpha, bias)`` of one SVM solve on ``sum_j beta_j K_j`` from the
    stack, warm-started at ``alpha0`` with its block norms' ``products``, or
    of one ridge solve on ``combined`` when ``labels`` is None (the bias is
    then the target offset)."""
    if labels is not None:
        kq0 = None if alpha0 is None else beta @ products
        sol = solvers.solve_svm_dual(
            stack, labels, C, tol=solver_tol, max_updates=max_updates, alpha0=alpha0,
            weights=beta, kq0=kq0,
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
    return sum(map(operator.mul, a, b))


def _ridge_least_squares(cols: list, gram: list, rhs: list) -> list | None:
    """``argmin_c ||rhs - sum_i c_i cols_i||``, from the normal equations with
    a ridge of 1e-10 of their trace, by Cholesky in Python floats. ``gram``
    holds the columns' dot products, ``gram[i][j] = _dot(cols[i], cols[j])``.

    None when there are no columns or they are all zero.
    """
    k = len(cols)
    ridge = 1e-10 * sum(gram[i][i] for i in range(k))
    if not ridge > 0:
        return None
    low = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1):
            value = gram[i][j] - _dot(low[i][:j], low[j][:j])
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
    extrapolation never drops a kernel. The Gram matrix of the residual
    differences is kept from step to step: a step adds one row and column
    and drops the oldest.
    """

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self._last = None
        self._dr: list[list[float]] = []
        self._dg: list[list[float]] = []
        self._gram: list[list[float]] = []

    def step(self, x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, bool]:
        """The next iterate, and whether it is extrapolated rather than ``g``."""
        gs = g.tolist()
        r = [b - a for a, b in zip(x.tolist(), gs)]
        if self._last is not None:
            g0, r0 = self._last
            dr = [b - a for a, b in zip(r0, r)]
            self._dr.append(dr)
            self._dg.append([b - a for a, b in zip(g0, gs)])
            # x * y == y * x, so _dot is symmetric bit for bit.
            row = [_dot(d, dr) for d in self._dr]
            for old, value in zip(self._gram, row):
                old.append(value)
            self._gram.append(row)
            if len(self._dr) > ANDERSON_DEPTH:
                del self._dr[0], self._dg[0], self._gram[0]
                for old in self._gram:
                    del old[0]
        self._last = (gs, r)
        c = _ridge_least_squares(self._dr, self._gram, r)
        if c is None:
            return g, False
        shifts = [_dot(c, column) for column in zip(*self._dg)]
        nxt = [
            0.0 if gj == 0.0 else max(gj - shift, ANDERSON_FLOOR * gj)
            for gj, shift in zip(gs, shifts)
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
    if not (np.isfinite(conv_tol) and conv_tol > 0):
        raise ValueError("conv_tol must be a positive finite number")
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
    # The scale variables of the current weights: beta = _update_beta(lam_x),
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
    # The SVM's K_j q, kept from the block norms to the next solve.
    products = None if labels is None else np.empty((m, stack.n_rows))

    for _ in range(max_iter):
        iterations += 1
        combined = weighted_sum(stack, beta) if labels is None else None
        if start is not None:
            # Iteration 1 solves on the beta = 1/m kernel: the baseline's solve.
            alpha, bias, start = start.alpha, start.bias, None
        else:
            alpha, bias = _solve(
                stack, beta, combined, targets, labels, C, solver_tol, max_updates, warm, products
            )
        warm = alpha

        if labels is None:
            w, kq = compute_block_norms(stack, alpha, beta=beta), combined @ alpha
        else:
            w = compute_block_norms(stack, alpha, labels=labels, beta=beta, products=products)
            kq = beta @ products
        if not (w > 0).any():
            history.append(_objective(kq, w, None, targets, bias, mu, C, task))
            degenerate = True
            break
        lam = _update_lambda(w, mu)
        objective = _objective(kq, w, lam, targets, bias, mu, C, task)
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
        beta_new = _update_beta(lam, mu)
        beta_new = np.where(beta_new < BETA_DROP_TOL, 0.0, beta_new)
        lam_new = np.where(beta_new > 0, lam, 0.0)
        accepted = (alpha, bias, beta_new, lam_new)
        delta = float(np.abs(beta_new / beta_new.sum() - beta / beta.sum()).max())
        if delta <= conv_tol:
            converged = True
            break
        # Extrapolating lambda, which keeps its sum, puts every iterate on
        # weights the update can produce, like the plain steps.
        lam_x, extrapolated = mixer.step(lam_x, lam_new)
        beta = _update_beta(lam_x, mu) if extrapolated else beta_new

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
    combined = weighted_sum(stack, beta) if labels is None else None
    alpha, bias = _solve(stack, beta, combined, targets, labels, C, solver_tol, max_updates)
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


# No command calls this since cv scores through primal weights; perfbench/tracer.py wraps it.
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
        blocks = preprocess_slices(
            features, self.group_columns, self.feature_means, self.centered, self.normalized,
            sample_ids=sample_ids, group_names=self.group_names,
        )
        return primal_decisions(self.bias, self.weights, blocks, features.shape[0])

    def to_dict(self) -> dict:
        return record_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PrimalModel":
        """The model a :meth:`to_dict` record holds.

        ``decision_values`` pairs the per-group lists entry by entry, so a
        record whose lists differ in length, whose weight or mean vector does
        not match its group's columns, or whose columns lie outside
        ``n_features``, repeat, or overlap another group's is refused with a
        ``ValueError``.
        """
        model = cls(
            weights=tuple(np.asarray(w, dtype=np.float64) for w in d["weights"]),
            group_names=tuple(str(g) for g in d["group_names"]),
            group_columns=tuple(np.asarray(c, dtype=np.int64) for c in d["group_columns"]),
            feature_means=tuple(np.asarray(m, dtype=np.float64) for m in d["feature_means"]),
            bias=_finite_float(d["bias"], "bias"),
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
        columns = [c for cols in model.group_columns for c in cols.tolist()]
        if len(set(columns)) != len(columns):
            raise ValueError("a primal group column repeats or belongs to two groups")
        return model


def primal_weights(model: MklModel, train_blocks: list[np.ndarray]) -> list[np.ndarray]:
    """Each group's primal weight vector ``w_j = beta_j * B_j' coef``.

    ``train_blocks[j]`` is B_j, the model's train samples' preprocessed
    group-j feature slice, and ``coef = alpha * y`` (classification) or
    ``alpha`` (regression).
    """
    coef = model.alpha if model.train_labels is None else model.alpha * model.train_labels
    return [b * (block.T @ coef) for b, block in zip(model.beta, train_blocks)]


def primal_decisions(bias: float, weights, blocks: list[np.ndarray], n: int) -> np.ndarray:
    """Decision values ``bias + sum_j B_j w_j`` of n preprocessed feature rows,
    whose group-j slice is ``blocks[j]`` (B_j), under primal weights ``weights``."""
    out = np.full(n, bias)
    for block, w in zip(blocks, weights):
        out += block @ w
    return out


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
    blocks = feature_blocks(train_data, means, model.centered, model.normalized)
    return PrimalModel(
        weights=tuple(primal_weights(model, blocks)),
        group_names=model.group_names,
        group_columns=tuple(train_data.group_columns(j) for j in range(train_data.n_groups)),
        feature_means=tuple(np.asarray(m) for m in means),
        bias=model.bias,
        centered=model.centered,
        normalized=model.normalized,
        n_features=train_data.n_features,
    )


def model_to_dict(model: MklModel) -> dict:
    """A JSON-ready mapping of the model; floats survive round trips exactly."""
    return record_dict(model)


def _finite_float(value, name: str) -> float:
    """``float(value)``, or a ValueError naming the field unless it is finite."""
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"'{name}' must be a finite number")
    return number


def model_from_dict(d: dict) -> MklModel:
    """Rebuild a model from :func:`model_to_dict` output; every float field
    must hold a finite number."""
    values = {f.name: d[f.name] for f in fields(MklModel)}
    for name in ("bias", "mu", "C", "beta_raw_sum"):
        values[name] = _finite_float(values[name], name)
    values["objective_history"] = [
        _finite_float(v, "objective_history") for v in values["objective_history"]
    ]
    return MklModel(**values)
