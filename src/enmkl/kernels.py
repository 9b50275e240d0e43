"""Linear kernels over grouped features, and their preprocessing.

Each feature group (for example one brain region's voxels) contributes one
Gram matrix. The matrices of one dataset are carried together in a
:class:`KernelStack` so that centering, normalization, and weighted
combination stay aligned with sample identifiers and group names.

Centering and normalization operate on Gram matrices directly, but both are
exactly equivalent to transforming the underlying feature rows (subtracting
per-group train means, scaling each sample's group slice to unit norm) and
recomputing inner products. That feature-space view is what
:func:`preprocess_feature_rows` implements; the test suite checks the two
routes against each other.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .errors import DataError

# Tolerances behind the type invariants. Train kernels must be symmetric to
# within SYMMETRY_TOL relative to their largest entry; a kernel flagged
# normalized must have a unit diagonal within UNIT_DIAG_TOL; one flagged
# centered must have row and column means below CENTERED_MEAN_TOL.
SYMMETRY_TOL = 1e-10
UNIT_DIAG_TOL = 1e-10
CENTERED_MEAN_TOL = 1e-8

# The magnitude at and above which doubling a float64 overflows.
_HALF_MAX = 2.0 ** 1023


def _as_float_matrix(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


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
    a copy, so the caller must not write to it afterwards.

    ``_symmetric`` is for the builders in this module whose train kernels
    are symmetric by construction: it skips the transposed symmetry scan,
    and every other check still runs.
    """

    values: np.ndarray
    row_ids: tuple[str, ...]
    col_ids: tuple[str, ...]
    group_names: tuple[str, ...]
    group_sizes: tuple[int, ...]
    centered: bool = False
    normalized: bool = False
    _symmetric: InitVar[bool] = False

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
        for k in values:
            # The extremes are NaN or inf exactly when an entry is; two
            # reductions, with no n x n temporary.
            high, low = float(k.max(initial=0.0)), float(k.min(initial=0.0))
            if not (np.isfinite(high) and np.isfinite(low)):
                raise ValueError("kernel contains non-finite entries")
            if not train:
                continue
            if not _symmetric and not np.array_equal(k, k.T):
                scale = max(1.0, high, -low)  # 1 or the largest magnitude
                if float(np.abs(k - k.T).max(initial=0.0)) > SYMMETRY_TOL * scale:
                    raise ValueError("train kernel is not symmetric")
            if self.normalized:
                if float(np.abs(np.diagonal(k) - 1.0).max(initial=0.0)) > UNIT_DIAG_TOL:
                    raise ValueError("kernel flagged normalized does not have a unit diagonal")
            elif self.centered:
                # Normalization rescales rows unevenly, so zero means are
                # only checkable before it; afterwards the flag just records
                # that centering happened earlier in the pipeline.
                worst = max(
                    float(np.abs(k.mean(axis=axis)).max(initial=0.0)) for axis in (0, 1)
                )
                if worst > CENTERED_MEAN_TOL:
                    raise ValueError("kernel flagged centered has nonzero row or column means")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "row_ids", row_ids)
        object.__setattr__(self, "col_ids", col_ids)
        object.__setattr__(self, "group_names", names)
        object.__setattr__(self, "group_sizes", sizes)
        object.__setattr__(self, "centered", bool(self.centered))
        object.__setattr__(self, "normalized", bool(self.normalized))

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
        values = set(self.targets.tolist())
        if not values <= {-1.0, 1.0}:
            raise DataError(f"classification targets must be -1/+1, got {sorted(values)}")
        if len(values) != 2:
            raise DataError("classification targets contain a single class")


def linear_gram(block: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the linear kernel ``block @ block.T`` of one group into ``out``.

    ``block`` is the group's (n, d) feature slice and ``out`` an (n, n)
    float64 array; ``out`` is returned. BLAS returns such a product
    symmetric bit for bit, and averaging it with its transpose then changes
    no bit. So it is averaged only when it is not symmetric, or when an
    entry's magnitude is 2**1023 or more, which the average doubles to inf.
    A kernel with a non-finite entry is refused.
    """
    np.matmul(block, block.T, out=out)
    bits = out.view(np.uint64)
    # min and max are NaN when any entry is, so this also tests finiteness.
    if np.array_equal(bits, bits.T) and -_HALF_MAX < out.min() and out.max() < _HALF_MAX:
        return out
    np.divide(np.add(out, out.T), 2.0, out=out)
    if not (np.isfinite(out.min()) and np.isfinite(out.max())):
        raise ValueError("kernel contains non-finite entries")
    return out


class LinearKernelStream:
    """A dataset's raw linear kernels, computed one at a time as they are read.

    It has the ids, group names and sizes and flags of the raw train
    :class:`KernelStack` that :func:`build_linear_kernels` returns, and
    iterating ``values`` yields the same kernels in group order. Each is
    computed into one reused (n, n) buffer, so a yielded kernel holds only
    until the next one is asked for: a writer that stores each kernel before
    asking for the next holds one kernel in memory, not m.
    """

    centered = normalized = False

    def __init__(self, data: GroupedDataset):
        self.data = data
        self.row_ids = self.col_ids = data.sample_ids
        self.group_names, self.group_sizes = data.group_names, data.group_sizes

    @property
    def values(self):
        data, out = self.data, np.empty((self.data.n_samples, self.data.n_samples))
        return (
            linear_gram(data.features[:, data.group_columns(j)], out)
            for j in range(data.n_groups)
        )


def build_linear_kernels(data: GroupedDataset) -> KernelStack:
    """Compute one raw linear kernel per feature group.

    Kernel j holds the inner products of the group-j feature slices:
    ``K_j[a, b] = <x_a[group j], x_b[group j]>``. Building the m kernels is
    independent across groups.
    """
    n = data.n_samples
    values = np.empty((data.n_groups, n, n))
    for j in range(data.n_groups):
        linear_gram(data.features[:, data.group_columns(j)], values[j])
    return KernelStack(
        values, data.sample_ids, data.sample_ids, data.group_names, data.group_sizes,
        _symmetric=True,
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


def _check_self_similarities(s: np.ndarray, ids: tuple[str, ...]) -> None:
    bad = np.flatnonzero(s <= 0.0)
    if bad.size:
        i = int(bad[0])
        raise DataError(
            f"sample '{ids[i]}' has non-positive self-similarity {s[i]!r}; "
            "a zero-norm sample cannot be normalized"
        )


def weighted_sum(stack: KernelStack, beta) -> np.ndarray:
    """The combined kernel ``sum_j beta_j * K_j``, as an (n_rows, n_cols) array.

    Weights must be nonnegative with at least one strictly positive entry.
    Exact zeros are skipped, so kernels dropped by the optimizer cost
    nothing.
    """
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (stack.m,):
        raise ValueError(f"expected {stack.m} weights, got shape {beta.shape}")
    if not np.isfinite(beta).all():
        raise ValueError("kernel weights contain non-finite values")
    if (beta < 0).any():
        raise ValueError("kernel weights must be nonnegative")
    if not (beta > 0).any():
        raise ValueError("at least one kernel weight must be positive")
    acc = np.zeros((stack.n_rows, stack.n_cols))
    # Rows in blocks of about 256 KiB per kernel: a block of the sum stays in
    # cache while each kernel is added to it, in kernel order, as before.
    terms = [(b, k) for b, k in zip(beta.tolist(), stack.values) if b != 0.0]
    step = max(1, (256 << 10) // (8 * max(1, stack.n_cols)))
    part = np.empty((min(step, stack.n_rows), stack.n_cols))
    for start in range(0, stack.n_rows, step):
        block = acc[start:start + step]
        tmp = part[: len(block)]
        for b, k in terms:
            block += np.multiply(b, k[start:start + step], tmp)
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

    def to_dict(self) -> dict:
        return {
            "col_means": self.col_means.tolist(),
            "grand_mean": self.grand_mean,
            "self_sim": self.self_sim.tolist(),
        }


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

        The preprocessed kernels go into ``out``, a new array by default, or
        a float64 array of the stack's shape. It may be the writable buffer
        behind ``raw_stack.values`` itself: each kernel's reductions are taken
        before its first write, so the result is the same bits, and the raw
        stack holds the preprocessed values afterwards.
        """
        if raw_stack.centered or raw_stack.normalized:
            raise ValueError("fit expects a raw (uncentered, unnormalized) train stack")
        if raw_stack.row_ids != raw_stack.col_ids:
            raise ValueError("fit expects a train stack")
        ids, raw = raw_stack.row_ids, raw_stack.values
        if out is None:
            out = np.empty_like(raw)
        elif np.may_share_memory(out, raw) and out.ctypes.data != raw.ctypes.data:
            raise ValueError("out must be the stack's own buffer or not overlap it")
        buf = np.empty(raw.shape[1:])
        stats = []
        for k, dest in zip(raw, out):
            col_means = k.mean(axis=0)
            grand = float(k.mean())
            if self.center:
                # Double centering, K - rowmean - colmean + grandmean, equals
                # subtracting the train mean from the underlying features.
                np.subtract(k, k.mean(axis=1, keepdims=True), out=buf)
                buf -= col_means
                buf += grand
                k = np.divide(np.add(buf, buf.T, out=dest), 2.0, out=dest)
            self_sim = np.diagonal(k).copy()
            if self.normalize:
                # K'[a, b] = K[a, b] / sqrt(s_a * s_b) with s the diagonal.
                _check_self_similarities(self_sim, ids)
                scale = np.sqrt(self_sim)
                np.divide(k, np.outer(scale, scale, out=buf), out=dest)
                # A centered kernel equals its transpose bit for bit, and so do
                # its quotients by the symmetric outer(scale, scale): averaging
                # them with their transpose returns them unchanged unless the
                # doubling overflows. A raw kernel keeps the average, which
                # costs about what a test of its bit symmetry would.
                if not (self.center and -_HALF_MAX < dest.min() and dest.max() < _HALF_MAX):
                    np.divide(np.add(dest, dest.T, out=buf), 2.0, out=dest)
                np.fill_diagonal(dest, 1.0)  # exactly 1 by definition
            elif not self.center:
                dest[...] = k
            stats.append(GroupKernelStats(col_means, grand, self_sim))
        self.stats_ = stats
        # Each kernel above is a symmetric average, a quotient of one by the
        # symmetric outer(scale, scale), or a copy of a checked raw kernel.
        self.train_stack_ = KernelStack(
            out, ids, ids, raw_stack.group_names, raw_stack.group_sizes,
            centered=self.center, normalized=self.normalize, _symmetric=True,
        )
        return self

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
        for k, dest, st, sims in zip(raw_cross.values, out, self.stats_, raw_self_sims):
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
                _check_self_similarities(sims, raw_cross.row_ids)
                np.divide(k, np.outer(np.sqrt(sims), np.sqrt(st.self_sim), out=buf), out=dest)
            elif not self.center:
                dest[...] = k
        return KernelStack(
            out, raw_cross.row_ids, raw_cross.col_ids, raw_cross.group_names,
            raw_cross.group_sizes, centered=self.center, normalized=self.normalize,
        )

    def stats_to_dict(self) -> dict:
        if self.train_stack_ is None:
            raise ValueError("preprocessor has not been fitted")
        return {
            "center": self.center,
            "normalize": self.normalize,
            "groups": [
                {"name": name, **st.to_dict()}
                for name, st in zip(self.train_stack_.group_names, self.stats_)
            ],
        }


def group_feature_means(data: GroupedDataset) -> list[np.ndarray]:
    """Per-group column means of the train features, in group order."""
    return [data.features[:, data.group_columns(j)].mean(axis=0) for j in range(data.n_groups)]


def preprocess_feature_rows(
    features,
    group_columns: list[np.ndarray],
    group_means: list[np.ndarray] | None,
    center: bool,
    normalize: bool,
    sample_ids=None,
) -> np.ndarray:
    """Replay the kernel pipeline directly on feature rows.

    Per group: subtract the supplied train means (when centering), then scale
    each sample's group slice to unit Euclidean norm (when normalizing).
    Inner products of the returned rows reproduce the centered/normalized
    kernels exactly, which is what makes primal weights comparable to the
    dual model.
    """
    out = np.array(features, dtype=np.float64, copy=True)
    if out.ndim != 2:
        raise ValueError("features must be a 2-d array")
    if group_means is None:
        group_means = [None] * len(group_columns)
    for cols, mu in zip(group_columns, group_means):
        block = out[:, cols]
        if center:
            if mu is None:
                raise ValueError("centering requires per-group train means")
            block = block - np.asarray(mu, dtype=np.float64)[None, :]
        if normalize:
            norms = np.linalg.norm(block, axis=1)
            bad = np.flatnonzero(norms <= 0.0)
            if bad.size:
                i = int(bad[0])
                label = sample_ids[i] if sample_ids is not None else str(i)
                raise DataError(
                    f"sample '{label}' has zero norm in a feature group and cannot be normalized"
                )
            block = block / norms[:, None]
        out[:, cols] = block
    return out
