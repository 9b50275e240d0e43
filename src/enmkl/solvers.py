"""Single-kernel dual solvers: soft-margin SVM and kernel ridge regression.

These are the inner solvers the kernel-weight optimization alternates with.
The SVM dual

    max_a  sum_i a_i - 1/2 a' Q a,   Q_ij = y_i y_j K_ij,
    s.t.   0 <= a_i <= C,  sum_i a_i y_i = 0

is solved by sequential minimal optimization with maximal-violating-pair
selection and a second-order working-set heuristic. Kernel ridge regression
solves the regularized linear system ``(K + n/(2C) I) a = y - mean(y)``
directly.

SMO reads K a row at a time and its column t as row t, as LIBSVM does: every
train kernel is bit-symmetric. K is the kernel array given, or ``sum_j w_j K_j``
from a train stack and weights. Up to ``WHOLE_KERNEL_MAX_N`` samples, a solve's
first update builds that sum whole, by one einsum over the kernels of nonzero
weight, with every pair curvature, and rows are views of it; above, a row and
its curvatures are computed when first needed. Either way K is bit for bit what
:func:`~enmkl.kernels.weighted_sum` builds, and a solve that makes no update
builds nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ConvergenceError, DataError
from .kernels import check_kernel, check_labels, check_weights, weight_bound

# Fallback curvature for numerically flat working pairs, as in LIBSVM.
_TAU = 1e-12

DEFAULT_SVM_TOL = 1e-3
DEFAULT_MAX_UPDATES = 10_000_000
# Up to this many samples, SMO builds the combined kernel and its pair
# curvatures whole at a solve's first update rather than row by row.
WHOLE_KERNEL_MAX_N = 128


@dataclass(frozen=True)
class SvmDualSolution:
    """Optimal dual variables of the soft-margin SVM.

    ``alpha`` satisfies the box constraints exactly (updates clip to the
    bounds) and the equality constraint up to round-off. ``objective`` is the
    dual value ``sum(alpha) - 1/2 alpha' Q alpha`` and ``iterations`` counts
    two-variable updates.
    """

    alpha: np.ndarray
    bias: float
    objective: float
    iterations: int

    def __post_init__(self):
        alpha = np.array(self.alpha, dtype=np.float64, copy=True)
        if alpha.ndim != 1 or not np.isfinite(alpha).all():
            raise ValueError("alpha must be a finite 1-d array")
        alpha.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "bias", float(self.bias))
        object.__setattr__(self, "objective", float(self.objective))
        object.__setattr__(self, "iterations", int(self.iterations))


@dataclass(frozen=True)
class KrrDualSolution:
    """Dual coefficients of kernel ridge regression on centered targets.

    Predictions are ``K_cross @ alpha + target_offset`` where
    ``target_offset`` is the training-target mean.
    """

    alpha: np.ndarray
    target_offset: float

    def __post_init__(self):
        alpha = np.array(self.alpha, dtype=np.float64, copy=True)
        if alpha.ndim != 1 or not np.isfinite(alpha).all():
            raise ValueError("alpha must be a finite 1-d array")
        alpha.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "target_offset", float(self.target_offset))


def _check_curvature_bound(bound: float, what: str) -> None:
    """Refuse a kernel whose entry magnitudes are at most ``bound`` (named
    ``what`` in the message) when ``4 * bound`` is not finite: SMO's pair
    curvatures ``K_ii + K_tt - 2 K_it`` could then overflow."""
    if not math.isfinite(4.0 * bound):
        raise DataError(
            f"the kernel overflows: SMO's pair curvatures reach 4 * {what} = 4 * {bound!r}"
        )


def _stack_rows(stack, weights):
    """Getters of the combined kernel ``K = sum_j w_j K_j`` of a train stack,
    from the kernels of nonzero weight alone: the whole K, its diagonal, its
    row t, and ``K v`` as ``sum_j w_j (K_j v)``. einsum adds in kernel order
    from zero, as :func:`~enmkl.kernels.weighted_sum` does, so K, its diagonal
    and its rows are that sum's bit for bit, and a row is also its column:
    every kernel of a train stack is bit-symmetric."""
    if stack.row_ids != stack.col_ids:
        raise ValueError("weights combine the kernels of a train stack, not a cross stack")
    w = check_weights(stack, weights)
    _check_curvature_bound(weight_bound(stack, w), "sum_j beta_j max|K_j|")
    idx = [j for j, b in enumerate(w.tolist()) if b]
    b, values = w[idx], stack.values
    used = slice(None) if len(idx) == stack.m else idx  # a slice takes views, not copies
    return (
        lambda: np.einsum("j,jkl->kl", b, values[used]),
        lambda: np.einsum("j,jk->k", b, np.diagonal(values, axis1=1, axis2=2)[used]),
        lambda t: np.einsum("j,jk->k", b, values[used, t]),
        lambda v: b @ np.array([values[j] @ v for j in idx]),
    )


def _update_parts(whole, diag, rows, y):
    """What SMO's updates read of K: a row getter, the diagonal as floats, and
    a getter of row i of the pair curvatures ``K_ii + K_tt - 2 y_i y_t K_it``
    (flat pairs set to _TAU), given getters of the whole K, its diagonal and
    its rows. Up to ``WHOLE_KERNEL_MAX_N`` samples K is built whole, every
    curvature with it, and rows are views; above, a row and its curvatures
    are computed when first asked for and kept. Products with +-1 and 2 are
    exact, so both routes give the same curvatures bit for bit."""
    if y.shape[0] <= WHOLE_KERNEL_MAX_N:
        K = whole()
        diag = np.diagonal(K)
        curvs = np.add.outer(diag, diag)
        curvs -= K * np.multiply.outer(y, 2.0 * y)
        curvs[~(curvs > 0)] = _TAU
        return K.__getitem__, diag.tolist(), curvs.__getitem__
    diag, two_y, rows = diag(), 2.0 * y, cache(rows)

    @cache
    def curvatures(i):
        curv = (diag[i] + diag) - rows(i) * (y[i] * two_y)
        curv[~(curv > 0)] = _TAU
        return curv

    return rows, diag.tolist(), curvatures


def solve_svm_dual(
    k,
    y,
    C: float,
    tol: float = DEFAULT_SVM_TOL,
    max_updates: int = DEFAULT_MAX_UPDATES,
    alpha0: np.ndarray | None = None,
    *,
    weights=None,
    kq0: np.ndarray | None = None,
) -> SvmDualSolution:
    """Solve the soft-margin SVM dual by SMO.

    Args:
        k: train kernel, a square array; with ``weights``, a train
            :class:`~enmkl.kernels.KernelStack` to solve on ``sum_j weights_j K_j``.
        y: -1/+1 labels, both classes present.
        C: box constraint, > 0.
        tol: stop once the maximal KKT violation ``m(a) - M(a)`` drops to
            this value or below.
        max_updates: hard cap on two-variable updates; exceeding it raises
            :class:`ConvergenceError`.
        alpha0: optional feasible, finite warm start (defaults to zero).
        weights: the stack's kernel weights, as ``check_weights`` accepts.
        kq0: the kernel times ``alpha0 * y`` if the caller has it.

    Returns:
        The dual solution. The bias is the mean of ``-y_i * grad_i`` over
        free support vectors; with no free support vector it falls back to
        the midpoint of the remaining KKT interval. The objective is taken
        from the final gradient, as LIBSVM does.
    """
    if weights is None:
        K, bound = check_kernel(k)
        _check_curvature_bound(bound, "max|K|")
        n, rows, matvec = K.shape[0], K.__getitem__, K.__matmul__
        whole, diag = (lambda: K), (lambda: np.diagonal(K))
    else:
        n = k.n_rows
        whole, diag, rows, matvec = _stack_rows(k, weights)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (n,):
        raise ValueError("labels must hold one value per kernel row")
    ys = check_labels(y)
    C = float(C)
    if not (math.isfinite(C) and C > 0):
        raise ValueError("C must be a positive finite number")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be a positive finite number")

    # The rows of G are g = -y * grad where alpha_t may move up (else -inf)
    # and where it may move down (else +inf). Every alpha_t in the box can
    # move one way, so each g_t sits in one row or both. One in-place add
    # moves both rows and leaves the infinities infinite, so an entry is
    # rewritten only when its flag flips.
    pos = y > 0
    if alpha0 is None:
        alpha = np.zeros(n)
        g = y  # -y * grad, where grad = -1 at a = 0
        up_mask, low_mask = pos, ~pos
    else:
        alpha = np.array(alpha0, dtype=np.float64, copy=True)
        if alpha.shape != (n,):
            raise ValueError("alpha0 must hold one value per sample")
        # argmin and argmax land on the first NaN if there is one.
        lo, hi = alpha.item(alpha.argmin()), alpha.item(alpha.argmax())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("alpha0 contains non-finite values")
        if lo < -1e-12 or hi > C + 1e-12:
            raise ValueError("alpha0 violates the box constraints")
        if lo < 0.0 or hi > C:
            # Inside the box np.clip returns alpha as it is, -0.0 included.
            alpha, kq0 = np.clip(alpha, 0.0, C), None
        # alpha >= 0 here, so its sum is its 1-norm.
        if abs(float(alpha @ y)) > 1e-8 * max(1.0, float(alpha.sum())):
            raise ValueError("alpha0 violates the equality constraint")
        if kq0 is None:
            kq0 = matvec(alpha * y)
        g = -y * (y * kq0 - 1.0)
        below, above = alpha < C, alpha > 0
        up_mask, low_mask = np.where(pos, below, above), np.where(pos, above, below)
    G = np.array([np.where(up_mask, g, -np.inf), np.where(low_mask, g, np.inf)])
    g_up, g_low = G

    # The first update fetches what updates read of K (_update_parts).
    # Scalar bookkeeping runs on Python floats and bools; floats are the
    # same doubles, and every value is bit for bit what the textbook update
    # on grad computes.
    curvatures = None
    score, step, step_j = np.empty((3, n))
    # Scalars reach the ufuncs as 0-d arrays, which numpy takes in faster
    # than Python floats; the doubles and the arithmetic are the same.
    m_box, s_box, zero = np.empty(()), np.empty(()), np.zeros(())
    a = alpha.tolist()
    up, low = up_mask.tolist(), low_mask.tolist()
    updates = 0
    while True:
        # Initial feasible points always populate both sets (both classes
        # present), so the selection below is well defined.
        i = int(g_up.argmax())
        m_val = g_up.item(i)
        M_val = g_low.item(g_low.argmin())
        if m_val - M_val <= tol:
            break
        if updates >= max_updates:
            raise ConvergenceError(
                f"SMO exceeded {max_updates} updates "
                f"(KKT violation {m_val - M_val:.3e}, tol {tol:.3e})"
            )
        if curvatures is None:
            rows, ds, curvatures = _update_parts(whole, diag, rows, y)
        curv = curvatures(i)

        # Second-order choice of j: among violating candidates (t in low with
        # g_t < m), maximize the guaranteed objective decrease b^2 / a for the
        # pair (i, t), b = m - g_t. Clamping b at 0 scores every other t 0,
        # and the M index scores (m - M)^2 / a with m - M > tol > 0. Only
        # when that quotient underflows (huge curvatures) or a score is NaN
        # can the best score fail to be positive; the candidate mask decides.
        m_box[()] = m_val
        np.subtract(m_box, g_low, out=score)
        np.maximum(score, zero, out=score)
        score *= score
        score /= curv
        j = int(score.argmax())
        if not score.item(j) > 0.0:
            j = int(np.where(g_low < m_val, score, -np.inf).argmax())

        # Two-variable subproblem, clipped to the box (LIBSVM update rules).
        # i is in up and j in low, so g_i = m and g_j = g_low[j].
        yi, yj = ys[i], ys[j]
        Qii, Qjj = ds[i], ds[j]
        row_i = rows(i)
        Qij = yi * yj * row_i.item(j)
        grad_i, grad_j = -yi * m_val, -yj * g_low.item(j)
        ai_old, aj_old = a[i], a[j]
        if yi != yj:
            quad = Qii + Qjj + 2.0 * Qij
            if quad <= 0:
                quad = _TAU
            delta = (-grad_i - grad_j) / quad
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
            delta = (grad_i - grad_j) / quad
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
        # g += K[:, i] * s_i + K[:, j] * s_j, with the textbook update's
        # operands in its order, on both rows; K[:, t] is K[t].
        s_box[()] = -yi * (ai - ai_old)
        np.multiply(row_i, s_box, out=step)
        s_box[()] = -yj * (aj - aj_old)
        np.multiply(rows(j), s_box, out=step_j)
        step += step_j
        G += step
        for t, at in ((i, ai), (j, aj)):
            a[t] = at
            can_up, can_down = (at < C, at > 0) if ys[t] > 0 else (at > 0, at < C)
            if can_up != up[t] or can_down != low[t]:
                gt = g_up.item(t) if up[t] else g_low.item(t)
                up[t], low[t] = can_up, can_down
                g_up[t] = gt if can_up else -np.inf
                g_low[t] = gt if can_down else np.inf
        updates += 1

    g = np.where(up, g_up, g_low)
    alpha = np.array(a)
    g_free = g[(alpha > 0) & (alpha < C)]
    if g_free.size:
        bias = g_free.sum().item() / g_free.size  # np.mean, bit for bit
    else:
        bias = (m_val + M_val) / 2.0

    # sum(a) - 1/2 a'Qa = 1/2 a'(1 - grad), and 1 - grad = 1 + y * g.
    objective = 0.5 * float(alpha @ (1.0 + y * g))
    return SvmDualSolution(alpha=alpha, bias=bias, objective=objective, iterations=updates)


def solve_krr_dual(k, y, C: float) -> KrrDualSolution:
    """Solve kernel ridge regression in its dual form.

    Targets are centered by their mean, then ``(K + n/(2C) I) a = y_c`` is
    solved by LU factorization. The ridge term keeps the system nonsingular
    for any PSD kernel; where the factorization still meets an exactly
    singular system, the minimum-norm least-squares solution takes over.
    """
    K, _ = check_kernel(k)
    y = np.asarray(y, dtype=np.float64)
    n = K.shape[0]
    if y.shape != (n,):
        raise ValueError("targets must hold one value per kernel row")
    if not np.isfinite(y).all():
        raise ValueError("targets contain non-finite values")
    C = float(C)
    if not (np.isfinite(C) and C > 0):
        raise ValueError("C must be a positive finite number")
    if n / (2.0 * C) == np.inf:
        raise DataError(f"C = {C!r} is too small for {n} samples: the ridge n/(2C) overflows")

    offset = float(y.mean())
    y_c = y - offset
    A = K + (n / (2.0 * C)) * np.eye(n)
    try:
        alpha = np.linalg.solve(A, y_c)
    except np.linalg.LinAlgError:
        alpha = np.linalg.lstsq(A, y_c, rcond=None)[0]
    return KrrDualSolution(alpha=alpha, target_offset=offset)


# Only mkl.predict_model calls this now; perfbench/tracer.py wraps it.
def predict(alpha, bias: float, k_cross, labels=None) -> np.ndarray:
    """Decision values ``K_cross @ coef + bias`` for a dual model.

    For SVM models pass the train labels so that ``coef = alpha * y``; for
    ridge regression leave ``labels`` as None and pass the target offset as
    ``bias``. ``k_cross`` has test samples as rows and train samples as
    columns (the train kernel itself works for in-sample values).
    """
    values = np.asarray(k_cross, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("cross kernel must be a 2-d array")
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.ndim != 1:
        raise ValueError("alpha must be a 1-d array")
    if values.shape[1] != alpha.shape[0]:
        raise ValueError(
            f"cross kernel has {values.shape[1]} train columns "
            f"but alpha has {alpha.shape[0]} entries"
        )
    coef = alpha
    if labels is not None:
        labels = np.asarray(labels, dtype=np.float64)
        if labels.shape != alpha.shape:
            raise ValueError("labels must be parallel to alpha")
        coef = alpha * labels
    return values @ coef + float(bias)
