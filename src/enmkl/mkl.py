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

until the unit-sum-normalized weights stop moving. At these scales the
objective's penalty is ``mu/2 (sum_j ||w_j||)^2 + (1-mu)/2 sum_j ||w_j||^2``,
which is how it is evaluated. After the loop, alpha is rescaled by
``sum_j beta_j`` and beta normalized to the unit simplex; the rescaled pair
produces bit-for-bit identical decision values.

For both tasks, ``K q = sum_j beta_j K_j q`` for the loss term comes from
the products ``K_j q`` the block norms take, in one batched product. Above
``solvers.WHOLE_KERNEL_MAX_N`` samples, where at most a quarter of q moved
since the last solve, as between warm SVM solves, each product is updated
from the moved entries instead. The SVM solve reads the combined kernel
from the stack: SMO builds a small one whole, and computes a large one's
rows as it needs them (see :mod:`enmkl.solvers`). Its next warm start reads
the same products: a warm solve first moves the previous alpha by Newton
steps on its free multipliers at the new weights, and SMO finishes from
there. Ridge regression builds the combined kernel only for its linear
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
C)`` for the SVM, ``1e-9 * |best|`` for ridge regression, whose objective
scales with the targets' square). A rejected iterate clears the memory, and
the loop takes the plain step from the last accepted iterate instead.

``conv_tol`` keeps its meaning: the loop stops at an accepted iterate whose
plain step moves the normalized weights by at most ``conv_tol``, and returns
that step's weights with the iterate's alpha. ``iterations`` counts inner
solves, rejected ones included, so ``max_iter`` bounds the work;
``objective_history`` holds the objectives of accepted iterates only.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError
from . import solvers
from .kernels import (
    GroupedDataset,
    KernelStack,
    check_labels,
    feature_blocks,
    group_feature_means,
    weighted_sum,
)
from .model import MklModel, PrimalModel, check_task

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


def _check_mu(mu: float | None) -> float:
    if mu is not None:
        mu = float(mu)
    if mu is None or not (np.isfinite(mu) and 0.0 < mu <= 1.0):
        raise ValueError(
            f"mu must lie in (0, 1], got {mu!r}; "
            "mu = 0 corresponds to the unweighted-sum baseline (train_sum_baseline)"
        )
    return mu


def compute_block_norms(
    stack, alpha, labels=None, *, beta, products=None, previous=None
) -> np.ndarray:
    """Per-kernel primal block norms from the dual coefficients.

    ``||w_j|| = beta_j * sqrt(q' K_j q)`` with ``q = alpha * labels`` for
    classification and ``q = alpha`` for regression. Tiny negative quadratic
    forms (round-off on PSD kernels) are clamped to zero; anything below
    ``-1e-8 * ||q||^2`` means the kernel is not PSD and is rejected. The
    shapes are the caller's to keep: ``alpha`` and ``labels`` hold one value
    per train sample, ``beta`` one weight per kernel; ``products``, if
    given, is an (m, n) array that receives each ``K_j q``. If it holds them
    for ``previous``, an earlier alpha, on more than
    ``solvers.WHOLE_KERNEL_MAX_N`` samples, and at most a quarter of q's
    entries moved since, each ``K_j q`` is updated from the moved entries.
    """
    q = np.asarray(alpha, dtype=np.float64)
    if labels is not None:
        q = q * labels
    q_scale = float(q @ q)
    moved = None
    if previous is not None and stack.n_rows > solvers.WHOLE_KERNEL_MAX_N:
        dq = q - (previous if labels is None else previous * labels)
        moved = np.flatnonzero(dq)
    if moved is not None and 4 * moved.size <= q.size:
        # K_j q += K_j[T]' dq_T (K_j is symmetric), one kernel at a time: an
        # (m, |T|, n) gather of every kernel's rows would raise peak memory.
        dq = dq[moved]
        for product, values in zip(products, stack.values):
            product += dq @ values[moved]
    else:
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
    with np.errstate(divide="ignore"):
        return 1.0 / (math.sqrt(mu) / lam + (1.0 - mu))


def _objective(kq, w, targets, bias, mu, C, task) -> float:
    """The elastic-net objective from one state's ``K q`` (see
    :func:`compute_block_norms` for q) and block norms ``w``: the penalty
    ``mu/2 (sum_j ||w_j||)^2 + (1-mu)/2 sum_j ||w_j||^2`` plus the loss."""
    total = float(w.sum())
    penalty = 0.5 * mu * total * total + 0.5 * (1.0 - mu) * float(w @ w)
    if task == "classification":
        return penalty + C * float(np.maximum(0.0, 1.0 - targets * (kq + bias)).sum())
    residual = (targets - bias) - kq
    return penalty + (C / kq.shape[0]) * float(residual @ residual)


def enmkl_objective(
    stack: KernelStack, targets, alpha, bias: float, beta, mu: float, C: float, task: str
) -> float:
    """The elastic-net training objective at a model state.

    Evaluates ``mu/2 (sum_j ||w_j||)^2 + (1-mu)/2 sum_j ||w_j||^2`` plus the
    task's loss: the weighted-norm penalty ``1/2 sum_j (sqrt(mu)/lambda_j)
    ||w_j||^2 + (1-mu)/2 sum_j ||w_j||^2`` at the scale variables' closed-form
    optimum for the current block norms. Slacks are recomputed from the
    decision values, so any (alpha, bias, beta) triple can be scored. With
    every block norm zero the penalty vanishes and only the loss remains.
    """
    mu = _check_mu(mu)
    task = check_task(task)
    targets = np.asarray(targets, dtype=np.float64)
    labels = targets if task == "classification" else None
    combined = weighted_sum(stack, beta)  # refuses a beta of the wrong length
    w = compute_block_norms(stack, alpha, labels=labels, beta=beta)
    kq = combined @ np.asarray(alpha if labels is None else alpha * labels, dtype=np.float64)
    return _objective(kq, w, targets, bias, mu, C, task)


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


def _solve(stack, beta, targets, labels, C, solver_tol, max_updates, alpha0=None, products=None):
    """``(alpha, bias)`` of one solve on ``sum_j beta_j K_j``: an SVM solve
    that reads the stack, warm-started at ``alpha0`` with its block norms'
    ``products``, or, when ``labels`` is None, a ridge solve on the combined
    kernel it builds (the bias is then the target offset)."""
    if labels is not None:
        kq0 = None if alpha0 is None else beta @ products
        sol = solvers.solve_svm_dual(
            stack, labels, C, tol=solver_tol, max_updates=max_updates, alpha0=alpha0,
            weights=beta, kq0=kq0,
        )
        return sol.alpha, sol.bias
    sol = solvers.solve_krr_dual(weighted_sum(stack, beta), targets, C)
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


class _Anderson:
    """Type-II Anderson extrapolation of a fixed-point map (Walker & Ni 2011),
    without a safeguard. :meth:`step` takes an iterate ``x`` and its plain
    step ``g = T(x)``, fits the residual ``g - x`` by the differences of the
    last ``ANDERSON_DEPTH + 1`` residuals in least squares (the normal
    equations with a ridge of 1e-10 of their trace), and moves ``g`` by the
    same combination of plain-step differences. Zeros of ``g`` stay zero,
    other entries keep at least ``ANDERSON_FLOOR`` of ``g``, and the result
    is then rescaled to the sum of ``g``.
    """

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self._kept: list[tuple[np.ndarray, np.ndarray]] = []  # (g, g - x) of the last steps

    def step(self, x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, bool]:
        """The next iterate, and whether it is extrapolated rather than ``g``."""
        self._kept = [*self._kept[-ANDERSON_DEPTH:], (g, g - x)]
        kept = np.array(self._kept)
        dg, dr = (kept[1:] - kept[:-1]).transpose(1, 0, 2)
        gram = dr @ dr.T
        ridge = 1e-10 * gram.trace()
        if not ridge > 0:  # no differences yet, or all of them zero
            return g, False
        gram.flat[:: len(gram) + 1] += ridge
        c = np.linalg.solve(gram, dr @ kept[-1, 1])
        nxt = np.where(g == 0.0, 0.0, np.maximum(g - c @ dg, ANDERSON_FLOOR * g))
        return nxt * (g.sum() / nxt.sum()), True


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
    # Each solve checks C; the trainers pass task as a literal.
    mu, C = _check_mu(mu), float(C)
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
    # Each K_j q of the last solve's alpha, from the block norms: K q for the
    # objective, and the SVM's next warm start.
    products = np.empty((m, stack.n_rows))

    for _ in range(max_iter):
        iterations += 1
        if start is not None:
            # Iteration 1 solves on the beta = 1/m kernel: the baseline's solve.
            alpha, bias, start = start.alpha, start.bias, None
        else:
            alpha, bias = _solve(
                stack, beta, targets, labels, C, solver_tol, max_updates, warm, products
            )
        previous, warm = warm, alpha

        w = compute_block_norms(
            stack, alpha, labels, beta=beta, products=products, previous=previous
        )
        objective = _objective(beta @ products, w, targets, bias, mu, C, task)
        if not (w > 0).any():
            history.append(objective)
            degenerate = True
            break
        if extrapolated:
            # The solver noise an accepted objective may rise by: SMO stops at
            # a KKT violation of solver_tol, and the loss term scales it by C;
            # the ridge solve is exact up to round-off, relative to an
            # objective that scales with the targets' square.
            if task == "classification":
                slack = solver_tol * max(1.0, C)
            else:
                slack = 1e-9 * abs(best)
            if objective > best + slack:
                # Rejected: restart the memory at the last accepted plain step.
                mixer.clear()
                _, _, beta, lam_x = accepted
                extrapolated = False
                continue
        history.append(objective)
        best = min(best, objective)
        lam = _update_lambda(w, mu)
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
    coefficients, first moved by Newton steps on the free multipliers
    (see :mod:`enmkl.solvers`).

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
    task = check_task(task)
    targets, labels = _train_targets(stack, targets, task)
    beta = np.full(stack.m, 1.0 / stack.m)
    alpha, bias = _solve(stack, beta, targets, labels, C, solver_tol, max_updates)
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
    if check_task(task) == "classification":
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


def primal_weights(model: MklModel, train_blocks: list[np.ndarray]) -> list[np.ndarray]:
    """Each group's primal weight vector ``w_j = beta_j * B_j' coef``.

    ``train_blocks[j]`` is B_j, the model's train samples' preprocessed
    group-j feature slice, and ``coef = alpha * y`` (classification) or
    ``alpha`` (regression).
    """
    coef = model.alpha if model.train_labels is None else model.alpha * model.train_labels
    return [b * (block.T @ coef) for b, block in zip(model.beta, train_blocks)]


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
