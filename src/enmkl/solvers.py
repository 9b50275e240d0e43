"""Single-kernel dual solvers: soft-margin SVM and kernel ridge regression.

These are the inner solvers the kernel-weight optimization alternates with.
The SVM dual

    max_a  sum_i a_i - 1/2 a' Q a,   Q_ij = y_i y_j K_ij,
    s.t.   0 <= a_i <= C,  sum_i a_i y_i = 0

is solved by sequential minimal optimization with maximal-violating-pair
selection and a second-order working-set heuristic. Kernel ridge regression
solves the regularized linear system ``(K + n/(2C) I) a = y - mean(y)``
directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .kernels import SYMMETRY_TOL

# Fallback curvature for numerically flat working pairs, as in LIBSVM.
_TAU = 1e-12

DEFAULT_SVM_TOL = 1e-3
DEFAULT_MAX_UPDATES = 10_000_000


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


def _kernel_values(k, name: str = "kernel") -> np.ndarray:
    arr = np.asarray(k, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array")
    return arr


def _train_kernel_values(k) -> tuple[np.ndarray, bool]:
    """The values of a train kernel, checked to be square, finite and symmetric,
    and whether they equal their transpose bit for bit (-0.0 == 0.0 as floats)."""
    values = _kernel_values(k)
    n = values.shape[0]
    if values.shape != (n, n):
        raise ValueError("train kernel must be square")
    if not np.isfinite(values).all():
        raise ValueError("kernel contains non-finite entries")
    bits = values.view(np.uint64)
    exact = np.array_equal(bits, bits.T)
    if not exact:
        scale = max(1.0, float(np.abs(values).max()))
        if float(np.abs(values - values.T).max()) > SYMMETRY_TOL * scale:
            raise ValueError("train kernel is not symmetric")
    return values, exact


def _check_labels(y: np.ndarray) -> None:
    if not ((y == 1.0) | (y == -1.0)).all():
        raise ValueError("labels must be -1/+1")
    if not ((y > 0).any() and (y < 0).any()):
        raise ValueError("labels contain a single class; need both -1 and +1")


def solve_svm_dual(
    k,
    y,
    C: float,
    tol: float = DEFAULT_SVM_TOL,
    max_updates: int = DEFAULT_MAX_UPDATES,
    alpha0: np.ndarray | None = None,
) -> SvmDualSolution:
    """Solve the soft-margin SVM dual by SMO.

    Args:
        k: train kernel, a square array.
        y: -1/+1 labels, both classes present.
        C: box constraint, > 0.
        tol: stop once the maximal KKT violation ``m(a) - M(a)`` drops to
            this value or below.
        max_updates: hard cap on two-variable updates; exceeding it raises
            :class:`ConvergenceError`.
        alpha0: optional feasible warm start (defaults to zero).

    Returns:
        The dual solution. The bias is the mean of ``-y_i * grad_i`` over
        free support vectors; with no free support vector it falls back to
        the midpoint of the remaining KKT interval.
    """
    K, exact = _train_kernel_values(k)
    y = np.asarray(y, dtype=np.float64)
    n = K.shape[0]
    if y.shape != (n,):
        raise ValueError("labels must hold one value per kernel row")
    _check_labels(y)
    C = float(C)
    if not (np.isfinite(C) and C > 0):
        raise ValueError("C must be a positive finite number")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive")

    if alpha0 is None:
        alpha = np.zeros(n)
        grad = -np.ones(n)  # grad of 1/2 a'Qa - e'a at a = 0
    else:
        alpha = np.array(alpha0, dtype=np.float64, copy=True)
        if alpha.shape != (n,):
            raise ValueError("alpha0 must hold one value per sample")
        if (alpha < -1e-12).any() or (alpha > C + 1e-12).any():
            raise ValueError("alpha0 violates the box constraints")
        alpha = np.clip(alpha, 0.0, C)
        if abs(float(alpha @ y)) > 1e-8 * max(1.0, float(np.abs(alpha).sum())):
            raise ValueError("alpha0 violates the equality constraint")
        grad = y * (K @ (alpha * y)) - 1.0

    # The loop keeps g = -y * grad. Row i of the pair curvatures diag_i +
    # diag_t - 2 y_i y_t K_it (flat pairs set to _TAU) is made when i is first
    # chosen. Row t of ``cols`` is K[:, t]: K itself if it equals K.T bit for
    # bit, else a copy of K.T. Products with +-1 and 2 are exact, so every
    # value is bit for bit what the textbook update on grad computes.
    diag = np.diagonal(K)
    cols = K if exact else np.ascontiguousarray(K.T)
    curv_rows = {}
    g = -y * grad
    up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
    low = ((y < 0) & (alpha < C)) | ((y > 0) & (alpha > 0))
    # Scalar bookkeeping runs on Python floats, which are the same doubles.
    a = alpha.tolist()
    ys = y.tolist()
    ds = diag.tolist()
    updates = 0
    while True:
        # Initial feasible points always populate both sets (both classes
        # present), so the selection below is well defined.
        up_vals = np.where(up, g, -np.inf)
        i = int(up_vals.argmax())
        m_val = float(up_vals[i])
        low_vals = np.where(low, g, np.inf)
        M_val = float(low_vals.min())
        if m_val - M_val <= tol:
            break
        if updates >= max_updates:
            raise ConvergenceError(
                f"SMO exceeded {max_updates} updates "
                f"(KKT violation {m_val - M_val:.3e}, tol {tol:.3e})"
            )

        # Second-order choice of j: among violating candidates, maximize the
        # guaranteed objective decrease b^2 / a for the pair (i, t).
        curv = curv_rows.get(i)
        if curv is None:
            curv = curv_rows[i] = (diag[i] + diag) - (2.0 * y[i] * y) * K[i]
            curv[~(curv > 0)] = _TAU
        b_it = m_val - g
        gain = np.where(low_vals < m_val, b_it * b_it / curv, -np.inf)
        j = int(gain.argmax())

        # Two-variable subproblem, clipped to the box (LIBSVM update rules).
        yi, yj = ys[i], ys[j]
        Qii, Qjj = ds[i], ds[j]
        Qij = yi * yj * K.item(i, j)
        grad_i, grad_j = -yi * g.item(i), -yj * g.item(j)
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
        a[i], a[j] = ai, aj
        g += cols[i] * (-yi * (ai - ai_old)) + cols[j] * (-yj * (aj - aj_old))
        up[i], low[i] = (ai < C, ai > 0) if yi > 0 else (ai > 0, ai < C)
        up[j], low[j] = (aj < C, aj > 0) if yj > 0 else (aj > 0, aj < C)
        updates += 1

    alpha = np.array(a)
    free = (alpha > 0) & (alpha < C)
    if free.any():
        bias = float(np.mean(g[free]))
    else:
        bias = (m_val + M_val) / 2.0

    coef = alpha * y
    objective = float(alpha.sum() - 0.5 * coef @ (K @ coef))
    return SvmDualSolution(alpha=alpha, bias=bias, objective=objective, iterations=updates)


def solve_krr_dual(k, y, C: float) -> KrrDualSolution:
    """Solve kernel ridge regression in its dual form.

    Targets are centered by their mean, then ``(K + n/(2C) I) a = y_c`` is
    solved by LU factorization. The ridge term keeps the system nonsingular
    for any PSD kernel; where the factorization still meets an exactly
    singular system, the minimum-norm least-squares solution takes over.
    """
    K, _ = _train_kernel_values(k)
    y = np.asarray(y, dtype=np.float64)
    n = K.shape[0]
    if y.shape != (n,):
        raise ValueError("targets must hold one value per kernel row")
    if not np.isfinite(y).all():
        raise ValueError("targets contain non-finite values")
    C = float(C)
    if not (np.isfinite(C) and C > 0):
        raise ValueError("C must be a positive finite number")

    offset = float(y.mean())
    y_c = y - offset
    A = K + (n / (2.0 * C)) * np.eye(n)
    try:
        alpha = np.linalg.solve(A, y_c)
    except np.linalg.LinAlgError:
        alpha = np.linalg.lstsq(A, y_c, rcond=None)[0]
    return KrrDualSolution(alpha=alpha, target_offset=offset)


def predict(alpha, bias: float, k_cross, labels=None) -> np.ndarray:
    """Decision values ``K_cross @ coef + bias`` for a dual model.

    For SVM models pass the train labels so that ``coef = alpha * y``; for
    ridge regression leave ``labels`` as None and pass the target offset as
    ``bias``. ``k_cross`` has test samples as rows and train samples as
    columns (the train kernel itself works for in-sample values).
    """
    values = _kernel_values(k_cross, "cross kernel")
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
