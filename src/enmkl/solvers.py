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
first Newton step or update builds that sum whole, by one einsum over the
kernels of nonzero weight, its first update every pair curvature, and rows
are views of it; above, a row is computed when a Newton step or an update
first needs it and kept for the rest of the solve, and its curvatures when
an update first needs them. Either way K is bit for bit what
:func:`~enmkl.kernels.weighted_sum` builds, and a solve that neither updates
nor takes a Newton step builds nothing.

A warm start first takes Newton steps (:func:`_newton_step`) on the rows of
K its updates read: on its free multipliers, those strictly inside the box,
with the others fixed and the equality constraint kept, stopped at the box.
From the second step on, SMO's maximal violating
pair joins the free set, as in SimpleSVM (Vishwanathan, Smola & Murty 2003),
and the steps repeat while the free set changes, at most ``NEWTON_ROUNDS``
times. They stop when the start meets SMO's stop rule, when fewer than two
multipliers are free, when their kernel is singular on the step's subspace,
or when a step would not raise the dual objective. SMO's loop (:func:`_smo`)
then starts from where they end, and certifies what it returns at its
tolerance.
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
# curvatures whole rather than row by row.
WHOLE_KERNEL_MAX_N = 128
# The most Newton steps a warm start takes before SMO's loop.
NEWTON_ROUNDS = 8


@dataclass(frozen=True)
class SvmDualSolution:
    """Optimal dual variables of the soft-margin SVM.

    ``alpha`` satisfies the box constraints exactly (updates clip to the
    bounds) and the equality constraint up to round-off. ``objective`` is the
    dual value ``sum(alpha) - 1/2 alpha' Q alpha`` and ``iterations`` counts
    SMO's two-variable updates; the Newton steps of a warm start count none.
    ``alpha`` is the solver's own array, read-only.
    """

    alpha: np.ndarray
    bias: float
    objective: float
    iterations: int


@dataclass(frozen=True)
class KrrDualSolution:
    """Dual coefficients of kernel ridge regression on centered targets.

    Predictions are ``K_cross @ alpha + target_offset`` where
    ``target_offset`` is the training-target mean. ``alpha`` is the
    solver's own array, read-only.
    """

    alpha: np.ndarray
    target_offset: float


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
    curvature with it, and rows are views; above, rows come from ``rows``,
    which the solve caches, and a row's curvatures are computed when first
    asked for and kept. Products with +-1 and 2 are
    exact, so both routes give the same curvatures bit for bit. The whole
    route hands out rows from lists of row views, which index faster than
    the arrays."""
    if y.shape[0] <= WHOLE_KERNEL_MAX_N:
        K = whole()
        diag = np.diagonal(K)
        curvs = diag[:, None] + diag
        curvs -= K * (y[:, None] * (2.0 * y))
        curvs[~(curvs > 0)] = _TAU
        return list(K).__getitem__, diag.tolist(), list(curvs).__getitem__
    diag, two_y = diag(), 2.0 * y

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
    # One K and one row cache per solve, which the steps and SMO's updates share.
    whole, rows = cache(whole), cache(rows)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (n,):
        raise ValueError("labels must hold one value per kernel row")
    ys = check_labels(y)
    C = float(C)
    if not (math.isfinite(C) and C > 0):
        raise ValueError("C must be a positive finite number")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be a positive finite number")

    if alpha0 is None:
        # g = y exactly, and no multiplier is free, so no Newton step.
        alpha, kq0 = np.zeros(n), np.zeros(n)
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
    # g_up and g_low hold g = -y * grad where alpha_t may move up (else
    # -inf) and where it may move down (else +inf). Every alpha_t in the box
    # can move one way, so each g_t sits in one of them or both. In-place
    # adds leave the infinities infinite, so an entry is rewritten only when
    # its flag flips. Newton steps first move a start that breaks the stop
    # rule (module docstring).
    pos, rounds, free = y > 0, 0, None
    while True:
        g = -y * (y * kq0 - 1.0)
        below, above = alpha < C, alpha > 0
        up_mask, low_mask = np.where(pos, below, above), np.where(pos, above, below)
        g_up, g_low = np.where(up_mask, g, -np.inf), np.where(low_mask, g, np.inf)
        if rounds == NEWTON_ROUNDS:
            break
        i, j = g_up.argmax(), g_low.argmin()
        if g_up[i] - g_low[j] <= tol:
            break
        last, free = free, below & above
        if rounds:
            free[[i, j]] = True
        free = free.nonzero()[0]
        if free.size < 2 or (last is not None and np.array_equal(free, last)):
            break
        if n <= WHOLE_KERNEL_MAX_N:
            K_F = whole()[free]
        else:
            K_F = np.array([rows(i) for i in free.tolist()])
        moved = _newton_step(K_F, y, C, alpha, kq0, g, free)
        if moved is None:
            break
        (alpha, kq0), rounds = moved, rounds + 1
    return _smo(
        lambda: _update_parts(whole, diag, rows, y), y, ys, C, tol, max_updates,
        alpha, g_up, g_low, up_mask, low_mask,
    )


def _smo(parts, y, ys, C, tol, max_updates, alpha, g_up, g_low, up_mask, low_mask):
    """SMO's update loop and its finish, from a feasible ``alpha`` with ``g =
    -y * grad`` in ``g_up`` and ``g_low`` as :func:`solve_svm_dual` sets them
    up; ``ys`` is ``y`` as floats, and ``parts()`` gives what updates read of
    K (:func:`_update_parts`)."""
    n = y.shape[0]
    # The first update fetches what updates read of K.
    # Scalar bookkeeping runs on Python floats and bools; floats are the
    # same doubles, and every value is bit for bit what the textbook update
    # on grad computes.
    curvatures = None
    score, step, step_j = np.empty((3, n))
    # Scalars reach the ufuncs as 0-d arrays, which numpy takes in faster
    # than Python floats; the doubles and the arithmetic are the same.
    m_box, s_box, zero = np.empty(()), np.empty(()), np.zeros(())
    # The loop calls these through locals, bound once per solve.
    up_argmax, up_item, low_argmin, low_item = g_up.argmax, g_up.item, g_low.argmin, g_low.item
    score_argmax, score_item = score.argmax, score.item
    subtract, maximum, multiply, divide, add = (
        np.subtract, np.maximum, np.multiply, np.divide, np.add
    )
    a = alpha.tolist()
    up, low = up_mask.tolist(), low_mask.tolist()
    updates = 0
    while True:
        # Initial feasible points always populate both sets (both classes
        # present), so the selection below is well defined.
        i = int(up_argmax())
        m_val = up_item(i)
        M_val = low_item(low_argmin())
        if m_val - M_val <= tol:
            break
        if updates >= max_updates:
            raise ConvergenceError(
                f"SMO exceeded {max_updates} updates "
                f"(KKT violation {m_val - M_val:.3e}, tol {tol:.3e})"
            )
        if curvatures is None:
            rows, ds, curvatures = parts()
        curv = curvatures(i)

        # Second-order choice of j: among violating candidates (t in low with
        # g_t < m), maximize the guaranteed objective decrease b^2 / a for the
        # pair (i, t), b = m - g_t. Clamping b at 0 scores every other t 0,
        # and the M index scores (m - M)^2 / a with m - M > tol > 0. Only
        # when that quotient underflows (huge curvatures) or a score is NaN
        # can the best score fail to be positive; the candidate mask decides.
        m_box[()] = m_val
        subtract(m_box, g_low, out=score)
        maximum(score, zero, out=score)
        multiply(score, score, out=score)
        divide(score, curv, out=score)
        j = int(score_argmax())
        if not score_item(j) > 0.0:
            j = int(np.where(g_low < m_val, score, -np.inf).argmax())

        # Two-variable subproblem, clipped to the box (LIBSVM update rules).
        # i is in up and j in low, so g_i = m and g_j = g_low[j].
        yi, yj = ys[i], ys[j]
        Qii, Qjj = ds[i], ds[j]
        row_i = rows(i)
        Qij = yi * yj * row_i.item(j)
        grad_i, grad_j = -yi * m_val, -yj * low_item(j)
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
        # operands in its order, in g_up and g_low; K[:, t] is K[t].
        s_box[()] = -yi * (ai - ai_old)
        multiply(row_i, s_box, out=step)
        s_box[()] = -yj * (aj - aj_old)
        multiply(rows(j), s_box, out=step_j)
        add(step, step_j, out=step)
        add(g_up, step, out=g_up)
        add(g_low, step, out=g_low)
        # alpha_i, then alpha_j: a flag, and the row entries it guards,
        # change only when the value reaches or leaves a bound.
        a[i] = ai
        can_up, can_down = (ai < C, ai > 0) if yi > 0 else (ai > 0, ai < C)
        if can_up != up[i] or can_down != low[i]:
            gt = up_item(i) if up[i] else low_item(i)
            up[i], low[i] = can_up, can_down
            g_up[i] = gt if can_up else -np.inf
            g_low[i] = gt if can_down else np.inf
        a[j] = aj
        can_up, can_down = (aj < C, aj > 0) if yj > 0 else (aj > 0, aj < C)
        if can_up != up[j] or can_down != low[j]:
            gt = up_item(j) if up[j] else low_item(j)
            up[j], low[j] = can_up, can_down
            g_up[j] = gt if can_up else -np.inf
            g_low[j] = gt if can_down else np.inf
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
    alpha.setflags(write=False)
    return SvmDualSolution(alpha=alpha, bias=bias, objective=objective, iterations=updates)


def _newton_step(K_F, y, C: float, alpha, kq, g, free):
    """``(alpha, kq)`` moved by the SVM dual's Newton step on the multipliers
    ``free``, or None where it would not help. ``K_F`` holds the kernel's
    rows ``free``, ``kq`` is ``K @ (alpha * y)`` and ``g`` is ``-y * grad``,
    as SMO keeps it.

    Over F = ``free``, the step solves ``max_e g_F'e - 1/2 e'K_FF e`` subject
    to ``sum(e) = 0`` for the change e of ``alpha * y``, and moves by ``t
    e``, with t <= 1 the largest step the box allows; the multiplier that
    blocks it is set to its bound exactly. It is None when K_FF is singular
    on that subspace, when its solution is not finite or t is not positive,
    when the dual objective would not rise, and when the moved multipliers
    would fail SMO's equality check.
    """
    K_FF = K_F[:, free]
    # e = (u, -sum(u)) keeps sum(e) = 0, and u solves H u = r for the reduced
    # Hessian H = Z'K_FF Z, Z = [I; -1']. A Cholesky pivot of H near zero
    # shows K_FF singular on that subspace, as duplicated samples make it.
    H = K_FF[:-1, :-1] - K_FF[:-1, -1:] - K_FF[-1:, :-1] + K_FF[-1, -1]
    gf, yf, a = g[free], y[free], alpha[free]
    try:
        pivots = np.diagonal(np.linalg.cholesky(H))
        if not pivots.min() ** 2 > 1e-10 * H.diagonal().max():
            return None
        with np.errstate(all="ignore"):  # an overflow leaves e non-finite
            u = np.linalg.solve(H, gf[:-1] - gf[-1])
            e = np.concatenate((u, [-u.sum()]))
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(e).all():
        return None
    d = yf * e
    room = np.where(d > 0, C - a, a)
    ratios = np.divide(room, np.abs(d), out=np.ones_like(d), where=np.abs(d) > room)
    k = int(ratios.argmin())
    t = ratios.item(k)
    if not t > 0.0:
        return None
    moved = np.clip(a + t * d, 0.0, C)
    if t < 1.0:
        moved[k] = C if d[k] > 0 else 0.0
    step = (moved - a) * yf
    if not float(gf @ step) - 0.5 * float(step @ K_FF @ step) > 0.0:
        return None
    alpha = alpha.copy()
    alpha[free] = moved
    if abs(float(alpha @ y)) > 1e-8 * max(1.0, float(alpha.sum())):
        return None
    return alpha, kq + step @ K_F


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
    if not np.isfinite(alpha).all():
        raise DataError(f"C = {C!r} is too large for this kernel: the ridge solve overflows")
    alpha.setflags(write=False)
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
