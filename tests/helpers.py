"""Shared test fixtures: independent oracles and synthetic data builders.

The oracles deliberately avoid the library's own code paths wherever they
check one: the QP oracle enumerates active sets instead of running SMO, and
the preprocessing oracle works on raw feature rows instead of Gram-matrix
identities.
"""

import itertools

import numpy as np

from enmkl import mkl
from enmkl.errors import DataError
from enmkl.evaluation import CvReport, FoldOutcome, HyperGrid, _fold_metrics, _pick_best, _score
from enmkl.kernels import (
    GroupedDataset,
    KernelStack,
    build_linear_kernels,
    weighted_sum,
)
from enmkl.mkl import _check_mu, _check_task, _slack_loss, compute_block_norms
from enmkl.solvers import DEFAULT_MAX_UPDATES, DEFAULT_SVM_TOL, solve_krr_dual, solve_svm_dual


def svm_dual_bruteforce(K, y, C):
    """Globally solve the SVM dual by enumerating active sets.

    Every variable is assigned lower (0), upper (C), or free; for each of
    the 3^n patterns the equality-constrained stationarity system is solved
    for the free block and feasible candidates are scored by the dual
    objective. The best feasible candidate is the global optimum of the
    concave problem. Returns (alpha, objective).
    """
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    Q = (y[:, None] * y[None, :]) * K
    best_obj = -np.inf
    best_alpha = None
    for pattern in itertools.product((0, 1, 2), repeat=n):
        pattern = np.array(pattern)
        lower = pattern == 0
        upper = pattern == 1
        free = pattern == 2
        alpha = np.zeros(n)
        alpha[upper] = C
        nf = int(free.sum())
        if nf:
            # Stationarity over the free block plus the equality constraint:
            # [Q_FF  y_F] [a_F]   [e_F - Q_FU a_U]
            # [y_F'   0 ] [nu ] = [-y_U' a_U     ]
            A = np.zeros((nf + 1, nf + 1))
            A[:nf, :nf] = Q[np.ix_(free, free)]
            A[:nf, nf] = y[free]
            A[nf, :nf] = y[free]
            rhs = np.zeros(nf + 1)
            rhs[:nf] = 1.0 - Q[np.ix_(free, upper)] @ alpha[upper]
            rhs[nf] = -float(y[upper] @ alpha[upper])
            sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
            if np.abs(A @ sol - rhs).max() > 1e-7 * max(1.0, np.abs(rhs).max()):
                continue  # inconsistent system, not a stationary pattern
            a_free = sol[:nf]
            if (a_free < -1e-9).any() or (a_free > C + 1e-9).any():
                continue
            alpha[free] = np.clip(a_free, 0.0, C)
        if abs(float(y @ alpha)) > 1e-8 * max(1.0, C * n):
            continue
        obj = float(alpha.sum() - 0.5 * alpha @ Q @ alpha)
        if obj > best_obj:
            best_obj = obj
            best_alpha = alpha
    return best_alpha, best_obj


# Fallback curvature for numerically flat working pairs, as in the solver.
_TAU = 1e-12


def smo_reference(K, y, C, tol=1e-3, max_updates=10_000_000, alpha0=None):
    """The SMO loop exactly as first written: one numpy pass per update.

    A frozen copy, kept as a bit-for-bit reference for ``solve_svm_dual``,
    which computes the same updates from precomputed sign-folded tables.
    Inputs are assumed valid. Returns (alpha, bias, objective, iterations).
    """
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = K.shape[0]
    C = float(C)
    if alpha0 is None:
        alpha = np.zeros(n)
        grad = -np.ones(n)  # grad of 1/2 a'Qa - e'a at a = 0
    else:
        alpha = np.clip(np.array(alpha0, dtype=np.float64, copy=True), 0.0, C)
        grad = y * (K @ (alpha * y)) - 1.0

    diag = np.diagonal(K)
    updates = 0
    while True:
        minus_y_grad = -y * grad
        up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
        low = ((y < 0) & (alpha < C)) | ((y > 0) & (alpha > 0))
        # Initial feasible points always populate both sets (both classes
        # present), so the selection below is well defined.
        up_vals = np.where(up, minus_y_grad, -np.inf)
        i = int(np.argmax(up_vals))
        m_val = up_vals[i]
        low_vals = np.where(low, minus_y_grad, np.inf)
        M_val = float(np.min(low_vals))
        if m_val - M_val <= tol:
            break
        if updates >= max_updates:
            raise AssertionError(f"SMO exceeded {max_updates} updates")

        # Second-order choice of j: among violating candidates, maximize the
        # guaranteed objective decrease -b^2 / a for the pair (i, t).
        cand = low & (minus_y_grad < m_val)
        b_it = m_val - minus_y_grad
        a_it = diag[i] + diag - 2.0 * y[i] * y * K[i]
        a_it = np.where(a_it > 0, a_it, _TAU)
        gain = np.where(cand, -(b_it * b_it) / a_it, np.inf)
        j = int(np.argmin(gain))

        # Two-variable subproblem, clipped to the box (LIBSVM update rules).
        Qii, Qjj = diag[i], diag[j]
        Qij = y[i] * y[j] * K[i, j]
        ai_old, aj_old = alpha[i], alpha[j]
        if y[i] != y[j]:
            quad = Qii + Qjj + 2.0 * Qij
            if quad <= 0:
                quad = _TAU
            delta = (-grad[i] - grad[j]) / quad
            diff = ai_old - aj_old
            ai, aj = ai_old + delta, aj_old + delta
            if diff > 0:
                if aj < 0:
                    aj, ai = 0.0, diff
            else:
                if ai < 0:
                    ai, aj = 0.0, -diff
            if diff > 0:
                if ai > C:
                    ai, aj = C, C - diff
            else:
                if aj > C:
                    aj, ai = C, C + diff
        else:
            quad = Qii + Qjj - 2.0 * Qij
            if quad <= 0:
                quad = _TAU
            delta = (grad[i] - grad[j]) / quad
            total = ai_old + aj_old
            ai, aj = ai_old - delta, aj_old + delta
            if total > C:
                if ai > C:
                    ai, aj = C, total - C
            else:
                if aj < 0:
                    aj, ai = 0.0, total
            if total > C:
                if aj > C:
                    aj, ai = C, total - C
            else:
                if ai < 0:
                    ai, aj = 0.0, total
        dai, daj = ai - ai_old, aj - aj_old
        alpha[i], alpha[j] = ai, aj
        grad += (y * K[:, i] * y[i]) * dai + (y * K[:, j] * y[j]) * daj
        updates += 1

    free = (alpha > 0) & (alpha < C)
    if free.any():
        bias = float(np.mean(minus_y_grad[free]))
    else:
        bias = (m_val + M_val) / 2.0

    # The dual value from the final gradient, as LIBSVM computes it:
    # sum(a) - 1/2 a'Qa = 1/2 a'(1 - grad).
    objective = 0.5 * float(alpha @ (1.0 - grad))
    return alpha, bias, objective, updates


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def kernel_csv_reference(values, row_ids, col_ids):
    """Kernel CSV text as the original writer built it: one ``repr`` per value.

    The line builder of the first ``io.write_kernel_csv``, kept verbatim
    (with its ``_format_float`` inlined) as an exact-bytes oracle.
    """
    lines = ["id," + ",".join(col_ids)]
    for rid, row in zip(row_ids, values):
        lines.append(rid + "," + ",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def weighted_sum_reference(values, beta):
    """``sum_j beta_j * K_j`` as first written: one whole-matrix pass per kernel.

    A frozen copy of the sequential loop, kept as a bit-for-bit reference
    for ``weighted_sum``, which adds the same products in row blocks.
    """
    acc = np.zeros(np.shape(values)[1:])
    for b, k in zip(np.asarray(beta, dtype=np.float64), values):
        if b != 0.0:
            acc += b * k
    return acc


def preprocess_fit_plain(raw_values, center, normalize):
    """Train-kernel preprocessing in ``StackPreprocessor.fit``'s arithmetic,
    written out whole, with one temporary per step.

    A bit-for-bit reference for the row-blocked fit: a kernel that is not
    symmetric bit for bit is replaced by ``K/2 + K.T/2`` first, as a train
    ``KernelStack`` does, centering uses the column means on both sides, and
    normalization divides by the outer product of the square-rooted
    self-similarities. Returns (kernels, [(col_means, grand, self_sim)]).
    """
    out = np.empty_like(raw_values)
    stats = []
    for j, k in enumerate(raw_values):
        if not _same_bits(k, k.T):
            k = k / 2.0 + k.T / 2.0
        col_means = k.mean(axis=0)
        grand = col_means.mean()
        self_sim = np.diagonal(k).copy()
        if center:
            self_sim = self_sim - (col_means + col_means) + grand
            k = k - (col_means[:, None] + col_means[None, :]) + grand
        if normalize:
            scale = np.sqrt(self_sim)
            k = k / np.outer(scale, scale)
            np.fill_diagonal(k, 1.0)
        out[j] = k
        stats.append((col_means, float(grand), self_sim))
    return out, stats


def preprocess_fit_reference(raw_values, center, normalize):
    """Train-kernel preprocessing as first written, one temporary per step.

    A frozen copy of ``StackPreprocessor.fit``'s first arithmetic: row and
    column means, then averages with the transpose. The one-pass fit agrees
    with it to a few units in the last place. Returns (kernels,
    [(col_means, grand, self_sim)]).
    """
    out = np.empty_like(raw_values)
    stats = []
    for j, k in enumerate(raw_values):
        col_means = k.mean(axis=0)
        grand = float(k.mean())
        if center:
            k = k - k.mean(axis=1, keepdims=True) - col_means + grand
            k = (k + k.T) / 2.0
        self_sim = np.diagonal(k).copy()
        if normalize:
            scale = np.sqrt(self_sim)
            k = k / np.outer(scale, scale)
            k = (k + k.T) / 2.0
            np.fill_diagonal(k, 1.0)
        out[j] = k
        stats.append((col_means, grand, self_sim))
    return out, stats


def transform_cross_reference(raw_values, raw_self_sims, stats, center, normalize):
    """Cross-kernel preprocessing as first written; ``stats`` as returned by
    :func:`preprocess_fit_plain` or :func:`preprocess_fit_reference`. A
    frozen bit-for-bit reference for ``StackPreprocessor.transform_cross``."""
    out = np.empty_like(raw_values)
    for j, (k, (col_means, grand, self_sim), sims) in enumerate(
        zip(raw_values, stats, raw_self_sims)
    ):
        if center:
            row_means = k.mean(axis=1)
            k = k - row_means[:, None] - col_means[None, :] + grand
            sims = sims - 2.0 * row_means + grand
        if normalize:
            k = k / np.outer(np.sqrt(sims), np.sqrt(self_sim))
        out[j] = k
    return out


def nested_cv_reference(
    data, task, plan, grid=None, trainer="enmkl", center=True, normalize=True, **fit_options
):
    """Nested cross-validation as first written: candidate by candidate.

    A frozen copy of the loop ``evaluation.nested_cv`` ran before it went
    partition by partition. Every (C, mu) candidate rebuilds each
    partition's preprocessed kernels and fits cold, and a baseline report is
    a second run with ``trainer="sum-baseline"``. ``fit_options`` are
    ``mkl.train_model``'s ``conv_tol``, ``max_iter``, ``solver_tol`` and
    ``max_updates``. Kept as the reference the new pass must equal. The
    kernels are built from the centered, normalized feature rows, as
    ``build_linear_kernels`` builds them with its steps on; the kernel-space
    ``StackPreprocessor.fit`` this loop first took agrees to round-off
    (``TestPartitionStackMatchesKernelRoute``). The evaluation samples are
    scored as ``predict`` scores new rows, through ``recover_primal_weights``;
    the cross-kernel route this loop first took agrees to round-off
    (``TestHeldOutScoredThroughPrimalWeights``).
    """
    grid = grid or HyperGrid()
    if task == "classification":
        data.require_binary_targets()
    if trainer == "enmkl":
        candidates = [(c, mu) for c in grid.c_values for mu in grid.mu_values]
    else:
        candidates = [(c, None) for c in grid.c_values]

    def fit_and_decide(train_ids, eval_ids, C, mu):
        train_data = data.subset(train_ids)
        eval_data = data.subset(eval_ids)
        stack = build_linear_kernels(train_data, center, normalize)
        model = mkl.train_model(stack, train_data.targets, task, trainer, C, mu, **fit_options)
        primal = mkl.recover_primal_weights(model, train_data)
        return primal.decision_values(eval_data.features, eval_data.sample_ids), model

    target_of = {i: t for i, t in zip(data.sample_ids, data.targets)}
    outcomes = []
    for fold_index, (outer_train, outer_test) in enumerate(plan.outer_folds):
        scores = {}
        for C, mu in candidates:
            fold_scores = []
            for inner_train, inner_val in plan.inner_folds[fold_index]:
                truth = np.array([target_of[i] for i in inner_val])
                if task == "classification":
                    train_truth = np.array([target_of[i] for i in inner_train])
                    if np.unique(train_truth).size < 2 or np.unique(truth).size < 2:
                        continue
                decisions, _ = fit_and_decide(inner_train, inner_val, C, mu)
                fold_scores.append(_score(decisions, truth, task))
            if fold_scores:
                scores[(C, mu)] = float(np.mean(fold_scores))
        if not scores:
            raise DataError(
                f"no inner fold of outer fold {fold_index} could score any candidate"
            )
        best_c, best_mu = _pick_best(scores, task)
        decisions, model = fit_and_decide(outer_train, outer_test, best_c, best_mu)
        truth = np.array([target_of[i] for i in outer_test])
        outcomes.append(
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
        seed=plan.seed,
    )


def train_enmkl_reference(
    stack, targets, task, C, mu, conv_tol=mkl.DEFAULT_CONV_TOL, max_iter=mkl.DEFAULT_MAX_ITER,
    solver_tol=DEFAULT_SVM_TOL, max_updates=DEFAULT_MAX_UPDATES,
):
    """The kernel-weight loop as first written: the plain fixed-point map.

    A frozen copy of ``mkl._train_enmkl`` before Anderson acceleration
    (without its ``start`` option). Each iteration solves on the current
    weights, takes the closed-form update, and stops once the normalized
    weights move by ``conv_tol`` or less. Kept as the reference the
    accelerated loop is checked against.
    """
    mu = _check_mu(mu)
    task = _check_task(task)
    C = float(C)
    targets, labels = mkl._train_targets(stack, targets, task)

    m = stack.m
    beta = np.full(m, 1.0 / m)
    warm = None
    history = []
    converged = degenerate = False
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        combined = weighted_sum(stack, beta)
        if task == "classification":
            sol = solve_svm_dual(
                combined, labels, C, tol=solver_tol, max_updates=max_updates, alpha0=warm
            )
            alpha, bias = sol.alpha, sol.bias
        else:
            sol = solve_krr_dual(combined, targets, C)
            alpha, bias = sol.alpha, sol.target_offset
        warm = alpha

        w = compute_block_norms(stack, alpha, labels=labels, beta=beta)
        lam = mkl._update_lambda(w, mu) if float(w.sum()) > 0 else None
        kq = combined @ (alpha if labels is None else alpha * labels)
        history.append(mkl._objective(kq, w, lam, targets, bias, mu, C, task))
        if lam is None:
            degenerate = True
            break
        beta_new = mkl._update_beta(lam, mu)
        beta_new = np.where(beta_new < mkl.BETA_DROP_TOL, 0.0, beta_new)
        delta = float(np.abs(beta_new / beta_new.sum() - beta / beta.sum()).max())
        beta = beta_new
        if delta <= conv_tol:
            converged = True
            break

    if degenerate:
        beta_final, raw_sum, converged = np.full(m, 1.0 / m), 1.0, False
    else:
        raw_sum = float(beta.sum())
        beta_final = beta / raw_sum
    return mkl.MklModel(
        beta=beta_final,
        alpha=alpha * raw_sum,
        bias=bias,
        task=task,
        mu=mu,
        C=C,
        iterations=iterations,
        converged=converged,
        group_names=stack.group_names,
        sample_ids=stack.row_ids,
        train_labels=labels,
        group_sizes=stack.group_sizes,
        degenerate=degenerate,
        centered=stack.centered,
        normalized=stack.normalized,
        beta_raw_sum=raw_sum,
        objective_history=tuple(history),
    )


def blocknorm_objective(
    stack: KernelStack, targets, alpha, bias: float, beta, mu: float, C: float, task: str
) -> float:
    """The equivalent block-norm form of the training objective.

    ``mu/2 (sum_j ||w_j||)^2 + (1-mu)/2 sum_j ||w_j||^2`` plus the loss.
    With the scale variables at their closed-form optimum the two forms
    coincide; keeping both on separate code paths lets tests check the
    identity numerically.
    """
    mu = _check_mu(mu)
    task = _check_task(task)
    targets = np.asarray(targets, dtype=np.float64)
    labels = targets if task == "classification" else None
    w = compute_block_norms(stack, alpha, labels=labels, beta=beta)
    total = float(w.sum())
    penalty = 0.5 * mu * total * total + 0.5 * (1.0 - mu) * float(w @ w)
    q = np.asarray(alpha, dtype=np.float64) if labels is None else alpha * labels
    return penalty + _slack_loss(weighted_sum(stack, beta) @ q, targets, bias, C, task)


def oracle_feature_pipeline(train_X, group_cols, test_X=None, center=True, normalize=True):
    """Preprocess feature rows directly and recompute inner products.

    Returns per-group (train_kernel, cross_kernel) pairs; cross kernels are
    None when no test rows are given. Statistics come from the train rows
    only.
    """
    pairs = []
    for cols in group_cols:
        tr = np.array(train_X[:, cols], dtype=float)
        te = None if test_X is None else np.array(test_X[:, cols], dtype=float)
        if center:
            mean = tr.mean(axis=0)
            tr = tr - mean
            if te is not None:
                te = te - mean
        if normalize:
            tr = tr / np.linalg.norm(tr, axis=1, keepdims=True)
            if te is not None:
                te = te / np.linalg.norm(te, axis=1, keepdims=True)
        pairs.append((tr @ tr.T, None if te is None else te @ tr.T))
    return pairs


def mkl_svm_grid_oracle(stack, y, C, mu, step=0.01, svm_tol=1e-7):
    """Grid search over the two-kernel weight line for the best objective.

    Walks the constraint simplex of the scale variables (u = sqrt(mu) *
    lambda, which sums to one), maps each point through the closed-form
    weight formula, solves the inner SVM on the weighted kernel, and scores
    the block-norm objective at the achieved solution. Returns
    (unit-sum-normalized weights, objective) of the best grid point.
    """
    assert stack.m == 2
    y = np.asarray(y, dtype=float)
    best = None
    for u1 in np.arange(0.0, 1.0 + step / 2, step):
        u = np.array([u1, 1.0 - u1])
        with np.errstate(divide="ignore", invalid="ignore"):
            beta = np.where(u > 0, u / (mu + (1.0 - mu) * u), 0.0)
        K = sum(b * k for b, k in zip(beta, stack.values) if b > 0)
        sol = solve_svm_dual(K, y, C, tol=svm_tol)
        q = sol.alpha * y
        w = np.array(
            [beta[j] * np.sqrt(max(float(q @ stack.values[j] @ q), 0.0)) for j in range(2)]
        )
        decisions = K @ q + sol.bias
        slack = np.maximum(0.0, 1.0 - y * decisions)
        obj = (
            0.5 * mu * float(w.sum()) ** 2
            + 0.5 * (1.0 - mu) * float(w @ w)
            + C * float(slack.sum())
        )
        if best is None or obj < best[0]:
            best = (obj, beta / beta.sum())
    return best[1], best[0]


def _group_features(rng, n, dims, kind, y, shift):
    if kind == "signal":
        direction = rng.uniform(0.6, 1.4, size=dims)
        return y[:, None] * shift * direction[None, :] + rng.normal(size=(n, dims))
    if kind == "noise":
        return rng.normal(size=(n, dims))
    raise ValueError(kind)


def make_classification_data(n=30, seed=0, group_specs=None, shift=1.5):
    """Balanced -1/+1 dataset with named signal/noise/duplicate groups.

    group_specs is a list of (name, dims, kind) where kind is "signal",
    "noise", or ("dup", earlier_index) for an exact copy of a previous
    group's columns.
    """
    if group_specs is None:
        group_specs = [("sig", 4, "signal"), ("noise", 5, "noise")]
    rng = np.random.default_rng(seed)
    y = np.array([1.0, -1.0] * (n // 2) + ([1.0] if n % 2 else []))
    blocks = []
    for name, dims, kind in group_specs:
        if isinstance(kind, tuple) and kind[0] == "dup":
            blocks.append(blocks[kind[1]].copy())
        else:
            blocks.append(_group_features(rng, n, dims, kind, y, shift))
    features = np.hstack(blocks)
    groups = np.concatenate(
        [np.full(b.shape[1], j, dtype=np.int64) for j, b in enumerate(blocks)]
    )
    return GroupedDataset(
        features=features,
        groups=groups,
        group_names=tuple(name for name, _, _ in group_specs),
        targets=y,
        sample_ids=tuple(f"s{i:03d}" for i in range(n)),
    )


def make_regression_data(n=30, seed=0, group_specs=None, target_noise=0.2):
    """Regression dataset whose targets come from the signal groups only."""
    if group_specs is None:
        group_specs = [("sig", 4, "signal"), ("noise", 5, "noise")]
    rng = np.random.default_rng(seed)
    blocks = []
    contributions = []
    for name, dims, kind in group_specs:
        if isinstance(kind, tuple) and kind[0] == "dup":
            block = blocks[kind[1]].copy()
            kind_label = "dup"
        else:
            block = rng.normal(size=(n, dims))
            kind_label = kind
        blocks.append(block)
        if kind_label == "signal":
            weights = rng.uniform(0.5, 1.5, size=block.shape[1])
            contributions.append(block @ weights)
    if not contributions:
        raise ValueError("need at least one signal group")
    targets = np.sum(contributions, axis=0) + target_noise * rng.normal(size=n)
    features = np.hstack(blocks)
    groups = np.concatenate(
        [np.full(b.shape[1], j, dtype=np.int64) for j, b in enumerate(blocks)]
    )
    return GroupedDataset(
        features=features,
        groups=groups,
        group_names=tuple(name for name, _, _ in group_specs),
        targets=targets,
        sample_ids=tuple(f"s{i:03d}" for i in range(n)),
    )


def random_psd_kernel(rng, n, rank=None):
    """A random PSD Gram matrix from Gaussian feature rows."""
    rank = rank or n + 2
    X = rng.normal(size=(n, rank))
    return X @ X.T


def random_labels(rng, n):
    """Random -1/+1 labels guaranteed to contain both classes."""
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    y[0], y[1] = 1.0, -1.0
    return y
