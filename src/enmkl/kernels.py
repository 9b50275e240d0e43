"""Linear kernels over grouped features, and their preprocessing.

Each feature group (for example one brain region's voxels) contributes one
Gram matrix. The matrices of one dataset are carried together in a
:class:`KernelStack` so that centering, normalization, and weighted
combination stay aligned with sample identifiers and group names.

:class:`StackPreprocessor` centers and normalizes Gram matrices directly, for
callers that hold only kernels. Both steps are exactly equivalent to
transforming the underlying feature rows (subtracting per-group train means,
scaling each sample's group slice to unit norm) and recomputing inner
products. That feature-space view is what :func:`preprocess_slices`
implements, one group slice at a time, and :func:`build_linear_kernels`
builds every kernel as the Gram matrix of such slices; the test suite checks
the two routes against each other.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import DataError, named

# Tolerances behind the type invariants. Train kernels must be symmetric to
# within SYMMETRY_TOL relative to their largest entry; a kernel flagged
# normalized must have a unit diagonal within UNIT_DIAG_TOL; one flagged
# centered must have row and column means within CENTERED_MEAN_TOL of its
# largest entry, since centering's round-off grows with the kernel's scale.
# Both relative tolerances apply to at least 1.
SYMMETRY_TOL = 1e-10
UNIT_DIAG_TOL = 1e-10
CENTERED_MEAN_TOL = 1e-8

# The magnitude at and above which doubling a float64 overflows.
_HALF_MAX = 2.0 ** 1023
_TOO_LARGE = "preprocessing makes entries of 2**1023 or more, whose sums can be non-finite"

# Rows per block of the passes that stream an n x n kernel through cache.
_ROWS = 64


def _as_float_matrix(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def bit_symmetric(k: np.ndarray) -> bool:
    """Whether ``k`` is a square matrix equal to its transpose bit for bit,
    where -0.0 and 0.0 differ (as their strings do). Each strip of rows right
    of the diagonal is compared with the strip of columns below it, in cache."""
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        return False
    bits = k.view(np.uint64)
    return all(
        np.array_equal(bits[a:a + _ROWS, a:], bits[a:, a:a + _ROWS].T)
        for a in range(0, len(bits), _ROWS)
    )


def check_kernel(k, train: bool = True) -> tuple[np.ndarray, float]:
    """Refuse a kernel that is not a 2-d array of finite floats, or a ``train``
    kernel that is not square and symmetric within SYMMETRY_TOL of its largest
    magnitude (or of 1). Returns the kernel as a float64 array and its largest
    entry magnitude; a train kernel that is not :func:`bit_symmetric` comes
    back as its symmetric part ``K/2 + K.T/2``, a new array: all of it that
    training's quadratic forms see.
    """
    k = np.asarray(k, dtype=np.float64)
    if k.ndim != 2:
        raise ValueError("kernel must be a 2-d array")
    low, high = k.min(initial=0.0).item(), k.max(initial=0.0).item()
    # min and max are NaN when any entry is, so this also tests finiteness.
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ValueError("kernel contains non-finite entries")
    magnitude = max(high, -low)
    if not train or bit_symmetric(k):
        return k, magnitude
    if k.shape[0] != k.shape[1]:
        raise ValueError("train kernel must be square")
    if float(np.abs(k - k.T).max()) > SYMMETRY_TOL * max(1.0, magnitude):
        raise ValueError("train kernel is not symmetric")
    k = k / 2.0 + k.T / 2.0  # a + b == b + a bit for bit, signed zeros included
    return k, float(np.abs(k).max(initial=0.0))


@dataclass(frozen=True)
class KernelStack:
    """The Gram matrices of one dataset, one per feature group.

    ``values[j]`` is group j's kernel: rows are labeled by ``row_ids`` and
    columns by ``col_ids``. When the two agree the stack holds train
    kernels, and each must be symmetric; otherwise it holds cross kernels
    (test rows against train columns). ``centered`` and ``normalized``
    record which preprocessing steps were applied, and their numeric
    invariants are checked here for train kernels. ``group_sizes`` records
    how many feature columns fed each kernel (informational).

    ``values`` is kept as a read-only C-contiguous float64 array of shape
    ``(m, n_rows, n_cols)``. An array already in that form is taken without
    a copy, so the caller must not write to it afterwards. A train kernel
    that is not :func:`bit_symmetric` is stored as the symmetric part that
    :func:`check_kernel` returns, in a copy, never in the caller's array.
    ``magnitudes[j]`` is kernel j's largest entry magnitude. ``_symmetric`` is
    for the builders in this module, whose train kernels are bit-symmetric by
    construction, and centered by construction where flagged: it skips the
    transposed symmetry scan and the centered means' check (centering's
    round-off scales with the raw kernel, which that check cannot see); every
    other check still runs.
    """

    values: np.ndarray
    row_ids: tuple[str, ...]
    col_ids: tuple[str, ...]
    group_names: tuple[str, ...]
    group_sizes: tuple[int, ...]
    centered: bool = False
    normalized: bool = False
    _symmetric: InitVar[bool] = False
    magnitudes: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self, _symmetric):
        values = np.ascontiguousarray(self.values, dtype=np.float64).view()
        row_ids = tuple(str(i) for i in self.row_ids)
        col_ids = tuple(str(i) for i in self.col_ids)
        names = tuple(str(g) for g in self.group_names)
        sizes = tuple(int(s) for s in self.group_sizes)
        if values.ndim != 3:
            raise ValueError(f"kernel values must be a 3-d array, got shape {values.shape}")
        if not values.shape[0]:
            raise ValueError("a kernel stack needs at least one kernel")
        if not (values.shape[0] == len(names) == len(sizes)):
            raise ValueError("kernels, group_names, and group_sizes must have equal length")
        if len(set(names)) != len(names):
            raise ValueError("group names must be unique")
        if values.shape[1:] != (len(row_ids), len(col_ids)):
            raise ValueError(
                f"kernel shape {values.shape[1:]} does not match "
                f"{len(row_ids)} row ids and {len(col_ids)} column ids"
            )
        train = row_ids == col_ids
        magnitudes, given = [], values
        for j, raw in enumerate(given):
            k, magnitude = check_kernel(raw, train=train and not _symmetric)
            if k is not raw:  # a symmetric part, stored in a copy of the given array
                values = given.copy() if values is given else values
                values[j] = k
            magnitudes.append(magnitude)
            if not train:
                continue
            if self.normalized:
                if float(np.abs(np.diagonal(k) - 1.0).max(initial=0.0)) > UNIT_DIAG_TOL:
                    raise ValueError("kernel flagged normalized does not have a unit diagonal")
            elif self.centered and not _symmetric:
                # Normalization rescales rows unevenly, so zero means are
                # only checkable before it; afterwards the flag just records
                # that centering happened earlier in the pipeline.
                worst = max(
                    float(np.abs(k.mean(axis=axis)).max(initial=0.0)) for axis in (0, 1)
                )
                if worst > CENTERED_MEAN_TOL * max(1.0, magnitude):
                    raise ValueError("kernel flagged centered has nonzero row or column means")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "row_ids", row_ids)
        object.__setattr__(self, "col_ids", col_ids)
        object.__setattr__(self, "group_names", names)
        object.__setattr__(self, "group_sizes", sizes)
        object.__setattr__(self, "centered", bool(self.centered))
        object.__setattr__(self, "normalized", bool(self.normalized))
        object.__setattr__(self, "magnitudes", tuple(magnitudes))

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n_rows(self) -> int:
        return self.values.shape[1]

    @property
    def n_cols(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True)
class GroupedDataset:
    """Feature rows plus a partition of the columns into named groups.

    Attributes:
        features: (n_samples, n_features) float64 matrix.
        groups: (n_features,) int array mapping each column to a group index.
        group_names: one name per group, unique, in group-index order.
        targets: (n_samples,) float64 vector. Class labels are -1/+1 for
            classification; real values for regression.
        sample_ids: unique identifier per row.
        feature_names: optional column names, parallel to ``features``.
    """

    features: np.ndarray
    groups: np.ndarray
    group_names: tuple[str, ...]
    targets: np.ndarray
    sample_ids: tuple[str, ...]
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        features = _as_float_matrix(self.features, "features")
        groups = np.array(self.groups, dtype=np.int64, copy=True)
        names = tuple(str(g) for g in self.group_names)
        targets = np.array(self.targets, dtype=np.float64, copy=True)
        ids = tuple(str(i) for i in self.sample_ids)
        n, p = features.shape
        if groups.shape != (p,):
            raise ValueError("groups must map every feature column to a group index")
        if len(set(names)) != len(names):
            raise ValueError("group names must be unique")
        if groups.size and (groups.min() < 0 or groups.max() >= len(names)):
            raise ValueError("group indices must lie in [0, number of groups)")
        for j, name in enumerate(names):
            if not np.any(groups == j):
                raise DataError(f"group '{name}' has no feature columns")
        if targets.shape != (n,):
            raise ValueError("targets must hold one value per sample")
        if not np.isfinite(targets).all():
            raise ValueError("targets contain non-finite values")
        if len(ids) != n:
            raise ValueError("sample_ids must hold one id per row")
        if len(set(ids)) != len(ids):
            seen = set()
            dup = next(i for i in ids if i in seen or seen.add(i))
            raise DataError(f"duplicate sample id '{dup}'")
        fnames = self.feature_names
        if fnames is not None:
            fnames = tuple(str(f) for f in fnames)
            if len(fnames) != p:
                raise ValueError("feature_names must hold one name per column")
        features.setflags(write=False)
        groups.setflags(write=False)
        targets.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "group_names", names)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "sample_ids", ids)
        object.__setattr__(self, "feature_names", fnames)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_groups(self) -> int:
        return len(self.group_names)

    @property
    def group_sizes(self) -> tuple[int, ...]:
        return tuple(int(np.sum(self.groups == j)) for j in range(self.n_groups))

    def group_columns(self, j: int) -> np.ndarray:
        """Column indices belonging to group ``j``, in column order."""
        return np.flatnonzero(self.groups == j)

    def subset(self, ids) -> "GroupedDataset":
        """A new dataset holding the given samples, in the given order."""
        index = {sid: i for i, sid in enumerate(self.sample_ids)}
        try:
            rows = np.array([index[str(i)] for i in ids], dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"unknown sample id {exc.args[0]!r}") from None
        return GroupedDataset(
            features=self.features[rows],
            groups=self.groups,
            group_names=self.group_names,
            targets=self.targets[rows],
            sample_ids=tuple(str(i) for i in ids),
            feature_names=self.feature_names,
        )

    def require_binary_targets(self) -> None:
        """Check that targets are -1/+1 with both classes present."""
        check_labels(self.targets)


def check_labels(labels) -> list[float]:
    """``labels`` as Python floats, refused with a DataError unless every one
    is -1 or +1 and both classes are present."""
    values = np.asarray(labels, dtype=np.float64).tolist()
    kinds = set(values)
    if not kinds <= {-1.0, 1.0}:
        raise DataError(f"classification labels must be -1/+1, got {sorted(kinds)}")
    if len(kinds) != 2:
        raise DataError("classification labels contain a single class; need both -1 and +1")
    return values


def linear_gram(block: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the linear kernel ``block @ block.T`` of one group into ``out``.

    ``block`` is the group's (n, d) feature slice and ``out`` an (n, n)
    float64 array; ``out`` is returned. BLAS returns such a product
    symmetric bit for bit, and averaging it with its transpose then changes
    no bit. So it is averaged only when it is not symmetric, or when an
    entry's magnitude is 2**1023 or more, which the average doubles to inf.
    A kernel that overflows is refused with a DataError, not a numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(block, block.T, out=out)
        # min and max are NaN when any entry is, so this also tests finiteness.
        if bit_symmetric(out) and -_HALF_MAX < out.min() and out.max() < _HALF_MAX:
            return out
        np.divide(np.add(out, out.T), 2.0, out=out)
    if not (np.isfinite(out.min()) and np.isfinite(out.max())):
        raise DataError("kernel overflows to non-finite entries")
    return out


class LinearKernelStream:
    """A dataset's raw linear kernels, computed one at a time as they are read.

    It has the ids, group names and sizes and flags of the raw train
    :class:`KernelStack` that :func:`build_linear_kernels` returns, and
    iterating ``values`` yields the same kernels in group order: each the
    :func:`linear_gram` of one raw group slice, into one reused (n, n) buffer.
    A yielded kernel holds only until the next is asked for, so a writer that
    stores each before asking for the next holds one slice and one kernel.
    """

    centered = normalized = False

    def __init__(self, data: GroupedDataset):
        self.data = data
        self.row_ids = self.col_ids = data.sample_ids
        self.group_names, self.group_sizes = data.group_names, data.group_sizes

    @property
    def values(self):
        data, out = self.data, np.empty((self.data.n_samples, self.data.n_samples))
        for j, name in enumerate(data.group_names):
            with named(f"group '{name}'"):
                linear_gram(data.features[:, data.group_columns(j)], out)
            yield out


def build_linear_kernels(
    data: GroupedDataset, center: bool = False, normalize: bool = False
) -> KernelStack:
    """One linear kernel per feature group of the train samples ``data``.

    Kernel j is the :func:`linear_gram` of the group-j slices that
    :func:`feature_blocks` returns with ``data``'s own group means; an
    overflow names the group. With both steps off these are the raw slices
    and the raw kernels. With a step on, a normalized diagonal is set to
    exactly 1: the result of :meth:`StackPreprocessor.fit` on the raw kernels
    up to round-off, with no precision lost to a large common offset. The
    kernels are bit-symmetric, and centered by construction where flagged.
    """
    values = np.empty((data.n_groups, data.n_samples, data.n_samples))
    blocks = feature_blocks(data, group_feature_means(data), center, normalize)
    for name, block, out in zip(data.group_names, blocks, values):
        with named(f"group '{name}'"):
            linear_gram(block, out)
        if normalize:
            np.fill_diagonal(out, 1.0)
    return KernelStack(
        values, data.sample_ids, data.sample_ids, data.group_names, data.group_sizes,
        centered=center, normalized=normalize, _symmetric=True,
    )


def build_linear_cross_kernels(
    train: GroupedDataset, test_features, test_ids
) -> tuple[KernelStack, list[np.ndarray]]:
    """Raw test-against-train kernels, plus each test sample's self-similarity.

    Returns a cross stack (rows = test samples, columns = train samples) and,
    per group, the raw ``<x, x>`` of every test sample. The self-similarities
    are what :meth:`StackPreprocessor.transform_cross` needs to replay
    normalization on unseen samples.
    """
    test_features = _as_float_matrix(test_features, "test features")
    test_ids = tuple(str(i) for i in test_ids)
    if test_features.shape[0] != len(test_ids):
        raise ValueError("test features and test ids disagree on sample count")
    if test_features.shape[1] != train.n_features:
        raise ValueError(
            f"test features have {test_features.shape[1]} columns, "
            f"train data has {train.n_features}"
        )
    values = np.empty((train.n_groups, len(test_ids), train.n_samples))
    self_sims = []
    for j in range(train.n_groups):
        cols = train.group_columns(j)
        test_block = test_features[:, cols]
        np.matmul(test_block, train.features[:, cols].T, out=values[j])
        self_sims.append(np.einsum("ij,ij->i", test_block, test_block))
    stack = KernelStack(values, test_ids, train.sample_ids, train.group_names, train.group_sizes)
    return stack, self_sims


def _check_self_similarities(s: np.ndarray, ids: tuple[str, ...], group: str) -> None:
    """Refuse, naming the sample and the group, a self-similarity that is not
    positive: that sample's slice cannot be normalized."""
    bad = np.flatnonzero(s <= 0.0)
    if bad.size:
        i = int(bad[0])
        raise DataError(
            f"sample '{ids[i]}' has non-positive self-similarity {float(s[i])!r} "
            f"in feature group '{group}' and cannot be normalized"
        )


def check_weights(stack: KernelStack, beta) -> np.ndarray:
    """``beta`` as float64 kernel weights of ``stack``: one per kernel, finite,
    nonnegative, and at least one strictly positive."""
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (stack.m,):
        raise ValueError(f"expected {stack.m} weights, got shape {beta.shape}")
    # On Python floats: a solve checks its few weights in a microsecond or two.
    values = beta.tolist()
    if not all(map(math.isfinite, values)):
        raise ValueError("kernel weights contain non-finite values")
    if min(values) < 0:
        raise ValueError("kernel weights must be nonnegative")
    if not max(values) > 0:
        raise ValueError("at least one kernel weight must be positive")
    return beta


def weight_bound(stack: KernelStack, beta: np.ndarray) -> float:
    """``sum_j beta_j max|K_j|``, which no entry of the weighted sum exceeds (inf on overflow)."""
    return sum(b * m for b, m in zip(beta.tolist(), stack.magnitudes))


def weighted_sum(stack: KernelStack, beta) -> np.ndarray:
    """The combined kernel ``sum_j beta_j * K_j``, as an (n_rows, n_cols) array.

    Weights are as :func:`check_weights` accepts. Exact zeros are skipped, so
    kernels dropped by the optimizer cost nothing. A sum that could overflow,
    where :func:`weight_bound` is not finite, is refused with a DataError.
    """
    beta = check_weights(stack, beta)
    bound = weight_bound(stack, beta)
    if not math.isfinite(bound):
        raise DataError(f"the combined kernel overflows: sum_j beta_j max|K_j| = {bound!r}")
    acc = np.zeros((stack.n_rows, stack.n_cols))
    for b, k in zip(beta.tolist(), stack.values):
        if b != 0.0:
            acc += b * k
    return acc


@dataclass
class GroupKernelStats:
    """Per-group statistics fitted on a raw train kernel.

    ``col_means`` and ``grand_mean`` come from the raw train kernel and drive
    test-row centering. ``self_sim`` is the train diagonal under the fitted
    centering state and drives normalization of cross kernels.
    """

    col_means: np.ndarray
    grand_mean: float
    self_sim: np.ndarray


class StackPreprocessor:
    """Fits centering/normalization on a raw train stack and replays it.

    The pipeline order is fixed: center first (when enabled), then
    normalize. Statistics are always taken from the train kernels, so
    transforming a cross stack never peeks at test data.

    Example:
        pre = StackPreprocessor().fit(raw_train_stack)
        k_train = pre.train_stack_
        k_cross = pre.transform_cross(raw_cross_stack, raw_test_self_sims)
    """

    def __init__(self, center: bool = True, normalize: bool = True):
        self.center = bool(center)
        self.normalize = bool(normalize)
        self.stats_: list[GroupKernelStats] | None = None
        self.train_stack_: KernelStack | None = None

    def fit(self, raw_stack: KernelStack, out: np.ndarray | None = None) -> "StackPreprocessor":
        """Fit on ``raw_stack`` and preprocess it into ``train_stack_``.

        One read of each kernel K takes its column means c. A second, in
        blocks of ``_ROWS`` rows, writes ``((K_ab - (c_a + c_b)) + g) / (sc_a *
        sc_b)``, leaving out a step that is off, where g is the mean of c and
        sc the square root of the diagonal s under the same centering; a
        normalized diagonal is then set to 1. The sum and the product commute,
        and every kernel of a train stack is bit-symmetric, so the result is
        too. With both steps off the raw kernels are copied. A step that
        makes entries of 2**1023 or more is refused with a DataError.

        The preprocessed kernels go into ``out``, a new array by default, or
        a float64 array of the stack's shape. It may be the writable buffer
        behind ``raw_stack.values`` itself: each kernel's reductions are taken
        before the pass that writes its rows, so the result is the same bits,
        and the raw stack holds the preprocessed values afterwards.
        """
        if raw_stack.centered or raw_stack.normalized:
            raise DataError("fit expects a raw (uncentered, unnormalized) train stack")
        if raw_stack.row_ids != raw_stack.col_ids:
            raise ValueError("fit expects a train stack")
        ids, raw = raw_stack.row_ids, raw_stack.values
        if out is None:
            out = np.empty_like(raw)
        elif np.may_share_memory(out, raw) and out.ctypes.data != raw.ctypes.data:
            raise ValueError("out must be the stack's own buffer or not overlap it")
        n, step = raw.shape[1], self.center or self.normalize
        sums, scales = np.empty((2, min(n, _ROWS), n))
        stats = []
        try:
            with np.errstate(over="raise", invalid="raise"):
                for k, dest, group in zip(raw, out, raw_stack.group_names):
                    col_means = k.mean(axis=0)
                    grand = col_means.mean()
                    self_sim = np.diagonal(k).copy()
                    if self.center:
                        # Double centering equals subtracting the train mean from
                        # the underlying features.
                        self_sim = (self_sim - (col_means + col_means)) + grand
                    stats.append(GroupKernelStats(col_means, float(grand), self_sim))
                    if not step:
                        dest[...] = k
                        continue
                    if self.normalize:
                        _check_self_similarities(self_sim, ids, group)
                        scale = np.sqrt(self_sim)
                    for a in range(0, n, _ROWS):
                        b = min(a + _ROWS, n)
                        rows, into = k[a:b], dest[a:b]
                        if self.center:
                            t = np.add(col_means[a:b, None], col_means, out=sums[: b - a])
                            np.subtract(rows, t, out=t)
                            rows = np.add(t, grand, out=t if self.normalize else into)
                        if self.normalize:
                            t = np.multiply(scale[a:b, None], scale, out=scales[: b - a])
                            np.divide(rows, t, out=into)
                    if self.normalize:
                        np.fill_diagonal(dest, 1.0)
        except FloatingPointError:
            raise DataError(_TOO_LARGE) from None
        self.stats_ = stats
        self.train_stack_ = KernelStack(
            out, ids, ids, raw_stack.group_names, raw_stack.group_sizes,
            centered=self.center, normalized=self.normalize, _symmetric=True,
        )
        if step and max(self.train_stack_.magnitudes) >= _HALF_MAX:
            raise DataError(_TOO_LARGE)
        return self

    # No command calls this since cv scores through primal weights; perfbench/tracer.py wraps it.
    def transform_cross(
        self, raw_cross: KernelStack, raw_self_sims: list[np.ndarray]
    ) -> KernelStack:
        """Apply the fitted pipeline to a raw cross stack.

        ``raw_self_sims`` holds, per group, each test sample's raw
        ``<x, x>``; under centering these are converted to centered
        self-similarities via the fitted train statistics.
        """
        if self.train_stack_ is None:
            raise ValueError("preprocessor has not been fitted")
        if raw_cross.group_names != self.train_stack_.group_names:
            raise ValueError("cross stack group names do not match the fitted stack")
        if len(raw_self_sims) != raw_cross.m:
            raise ValueError("need one self-similarity vector per group")
        if raw_cross.centered or raw_cross.normalized:
            raise ValueError("transform_cross expects raw cross kernels")
        if raw_cross.col_ids != self.train_stack_.row_ids:
            raise ValueError("cross stack columns do not match the fitted train samples")
        out = np.empty_like(raw_cross.values)
        buf = np.empty(raw_cross.values.shape[1:])
        for k, dest, st, sims, group in zip(
            raw_cross.values, out, self.stats_, raw_self_sims, raw_cross.group_names
        ):
            sims = np.asarray(sims, dtype=np.float64)
            if sims.shape != (raw_cross.n_rows,):
                raise ValueError("self-similarities must hold one value per test sample")
            if self.center:
                # Test rows are centered with the *train* statistics: subtract
                # each test row's mean over train columns and the train
                # kernel's column means, add back the train grand mean.
                row_means = k.mean(axis=1)
                k = np.subtract(k, row_means[:, None], out=dest)
                k -= st.col_means[None, :]
                k += st.grand_mean
                # <x_c, x_c> = <x, x> - 2 * mean_t <x, x_t> + grand mean
                sims = sims - 2.0 * row_means + st.grand_mean
            if self.normalize:
                _check_self_similarities(sims, raw_cross.row_ids, group)
                np.divide(k, np.outer(np.sqrt(sims), np.sqrt(st.self_sim), out=buf), out=dest)
            elif not self.center:
                dest[...] = k
        return KernelStack(
            out, raw_cross.row_ids, raw_cross.col_ids, raw_cross.group_names,
            raw_cross.group_sizes, centered=self.center, normalized=self.normalize,
        )


def group_feature_means(data: GroupedDataset) -> list[np.ndarray]:
    """Per-group column means of the train features, in group order."""
    return [data.features[:, data.group_columns(j)].mean(axis=0) for j in range(data.n_groups)]


def feature_blocks(
    data: GroupedDataset, means, centered: bool, normalized: bool
) -> list[np.ndarray]:
    """Each group's slice of ``data``'s feature rows, centered with the train
    group ``means`` and normalized as the model's kernels were."""
    return preprocess_slices(
        data.features, [data.group_columns(j) for j in range(data.n_groups)], means,
        centered, normalized, sample_ids=data.sample_ids, group_names=data.group_names,
    )


def preprocess_slices(
    features, group_columns, group_means, center: bool, normalize: bool,
    sample_ids=None, group_names=None,
) -> list[np.ndarray]:
    """Replay the kernel pipeline on each group's slice of the feature rows.

    Per group: cut the slice ``features[:, columns]``, subtract the supplied
    train means (when centering), then scale each sample's slice to unit
    Euclidean norm (when normalizing). Returns the slices in group order; with
    both steps off they are the raw ones. Inner products of the returned
    slices reproduce the centered/normalized kernels exactly, which is what
    makes primal weights comparable to the dual model. A slice whose norm is
    zero or overflows is a DataError that names the sample and the group (by
    index if ``group_names`` is None).
    """
    features = np.asarray(features, dtype=np.float64)
    slices = []
    for g, cols, mu in zip(group_names or range(len(group_columns)), group_columns, group_means):
        block = features[:, cols]
        if center:
            block = block - np.asarray(mu, dtype=np.float64)[None, :]
        if normalize:
            with np.errstate(over="ignore"):
                norms = np.linalg.norm(block, axis=1)
            bad = np.flatnonzero(~(norms > 0.0) | (norms == np.inf))
            if bad.size:
                i = int(bad[0])
                label = sample_ids[i] if sample_ids is not None else str(i)
                raise DataError(
                    f"sample '{label}' has {'zero' if norms[i] == 0 else 'overflowing'} "
                    f"norm in feature group '{g}' and cannot be normalized"
                )
            block = block / norms[:, None]
        slices.append(block)
    return slices
