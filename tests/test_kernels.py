"""Kernel construction, preprocessing, and combination."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from enmkl.errors import DataError
from enmkl.kernels import (
    SYMMETRY_TOL,
    GroupedDataset,
    KernelStack,
    StackPreprocessor,
    bit_symmetric,
    build_linear_cross_kernels,
    build_linear_kernels,
    check_labels,
    group_feature_means,
    linear_gram,
    weighted_sum,
)
from enmkl.model import preprocess_slices

from helpers import (
    _same_bits,
    oracle_feature_pipeline,
    preprocess_fit_plain,
    preprocess_fit_reference,
    random_psd_kernel,
    transform_cross_reference,
    weighted_sum_reference,
)


def _dataset(features, groups, names, ids=None):
    features = np.asarray(features, dtype=float)
    n = features.shape[0]
    ids = ids or tuple(f"s{i}" for i in range(n))
    return GroupedDataset(
        features=features,
        groups=np.asarray(groups),
        group_names=names,
        targets=np.zeros(n),
        sample_ids=ids,
    )


def _stack(*matrices, ids=None, **flags):
    """A train stack holding the given square matrices, one group each."""
    values = np.array(matrices, dtype=float)
    ids = ids or tuple(f"s{i}" for i in range(values.shape[1]))
    names = tuple(f"g{j}" for j in range(values.shape[0]))
    return KernelStack(values, ids, ids, names, (1,) * len(names), **flags)


def _cross_stack(values, row_ids, col_ids):
    return KernelStack(np.array([values], dtype=float), row_ids, col_ids, ("g0",), (1,))


def _random_grouped(rng, n, dims=(3, 4, 2)):
    features = rng.normal(size=(n, sum(dims)))
    groups = np.concatenate([np.full(d, j) for j, d in enumerate(dims)])
    names = tuple(f"g{j}" for j in range(len(dims)))
    return _dataset(features, groups, names)


def _centered(values):
    """The train kernel after centering alone, through the preprocessor."""
    pre = StackPreprocessor(center=True, normalize=False).fit(_stack(values))
    return pre.train_stack_.values[0]


def _normalized(values):
    """The train kernel after normalization alone, through the preprocessor."""
    pre = StackPreprocessor(center=False, normalize=True).fit(_stack(values))
    return pre.train_stack_.values[0]


class TestKernelStackInvariants:
    def test_rejects_asymmetric_train_kernel(self):
        with pytest.raises(ValueError, match="not symmetric"):
            _stack([[1.0, 2.0], [3.0, 1.0]])

    def test_rejects_false_normalized_claim(self):
        with pytest.raises(ValueError, match="unit diagonal"):
            _stack([[2.0, 0.0], [0.0, 2.0]], normalized=True)

    def test_rejects_false_centered_claim(self):
        with pytest.raises(ValueError, match="nonzero row or column means"):
            _stack([[1.0, 1.0], [1.0, 1.0]], centered=True)

    # Centering's round-off grows with the kernel's scale, so the check on the
    # flag is relative to the kernel's largest entry.
    @pytest.mark.parametrize("scale", [1e5, 1e6, 1e8])
    def test_centered_claim_checked_relative_to_the_kernel_scale(self, scale):
        data = _random_grouped(np.random.default_rng(5), 50, dims=(5,))
        data = _dataset(data.features * scale, data.groups, data.group_names)
        raw = build_linear_kernels(data)
        fitted = StackPreprocessor(center=True, normalize=False).fit(raw).train_stack_
        assert fitted.centered
        k = fitted.values[0]
        assert max(np.abs(k.mean(axis=0)).max(), np.abs(k.mean(axis=1)).max()) > 1e-8
        # The raw kernel at the same scale does not have zero means.
        with pytest.raises(ValueError, match="nonzero row or column means"):
            _stack(raw.values[0], centered=True)
        # Nor does the centered one once a relative 1e-7 shifts its entries.
        with pytest.raises(ValueError, match="nonzero row or column means"):
            _stack(k + 1e-7 * np.abs(k).max(), centered=True)

    # At a large common offset, centering's round-off scales with the raw
    # kernel, which the centered one no longer shows: fit's output, centered
    # by construction, skips the check; the same values given as a library
    # stack flagged centered are still checked, and refused.
    @pytest.mark.parametrize("offset", [1e4, 1e6])
    def test_fit_output_skips_the_centered_check_it_passes_by_construction(self, offset):
        data = _random_grouped(np.random.default_rng(6), 50, dims=(5,))
        data = _dataset(data.features + offset, data.groups, data.group_names)
        fitted = StackPreprocessor(center=True, normalize=False).fit(
            build_linear_kernels(data)
        ).train_stack_
        assert fitted.centered
        with pytest.raises(ValueError, match="nonzero row or column means"):
            _stack(fitted.values[0], centered=True)

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match="non-finite"):
            _stack([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            _stack([[1.0, -np.inf], [-np.inf, 1.0]])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                _cross_stack([[1.0, bad, -3.0]], ("t0",), ("s0", "s1", "s2"))

    def test_cross_kernel_needs_no_symmetry(self):
        k = _cross_stack([[1.0, 2.0, 3.0]], ("t0",), ("s0", "s1", "s2"))
        assert k.row_ids != k.col_ids
        assert k.n_rows == 1 and k.n_cols == 3

    def test_values_are_immutable(self):
        k = _stack(np.eye(2))
        with pytest.raises(ValueError):
            k.values[0, 0, 0] = 5.0

    def test_every_kernel_is_checked(self):
        with pytest.raises(ValueError, match="not symmetric"):
            _stack(np.eye(2), [[1.0, 2.0], [3.0, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            _stack(np.eye(2), [[1.0, np.inf], [np.inf, 1.0]])
        with pytest.raises(ValueError, match="unit diagonal"):
            _stack(np.eye(2), 2.0 * np.eye(2), normalized=True)

    def test_asymmetry_within_tolerance_accepted(self):
        # The tolerance scales with the largest magnitude, whatever its sign.
        for diagonal in (4.0, -4.0):
            values = np.array([[diagonal, 1.0], [1.0 + 3e-10, diagonal]])
            _stack(values)
            with pytest.raises(ValueError, match="not symmetric"):
                _stack(values + [[0.0, 0.0], [2e-9, 0.0]])

    def test_shape_must_match_ids(self):
        with pytest.raises(
            ValueError, match=r"kernel shape \(2, 2\) does not match 3 row ids and 3 column ids"
        ):
            _stack(np.eye(2), ids=("a", "b", "c"))

    def test_names_and_sizes_checked(self):
        ids = ("a", "b")
        values = np.array([np.eye(2), np.eye(2)])
        with pytest.raises(ValueError, match="unique"):
            KernelStack(values, ids, ids, ("g", "g"), (1, 1))
        with pytest.raises(ValueError, match="equal length"):
            KernelStack(values, ids, ids, ("g",), (1,))
        with pytest.raises(ValueError, match="at least one kernel"):
            KernelStack(np.empty((0, 2, 2)), ids, ids, (), ())

    def test_one_c_contiguous_float64_array(self):
        ready = np.array([np.eye(3), 2.0 * np.eye(3)])
        stack = _stack(*ready)
        assert stack.values.shape == (2, 3, 3)
        assert stack.values.dtype == np.float64 and stack.values.flags.c_contiguous
        # An array already in that form is kept, not copied.
        kept = KernelStack(ready, stack.row_ids, stack.col_ids, ("a", "b"), (1, 1))
        assert np.shares_memory(kept.values, ready)
        transposed = KernelStack(
            np.asfortranarray(ready), stack.row_ids, stack.col_ids, ("a", "b"), (1, 1)
        )
        assert transposed.values.flags.c_contiguous
        np.testing.assert_array_equal(transposed.values, ready)

    def test_symmetric_flag_skips_only_the_symmetry_scan(self):
        ids, asymmetric = ("a", "b"), np.array([[[1.0, 2.0], [3.0, 1.0]]])
        with pytest.raises(ValueError, match="not symmetric"):
            KernelStack(asymmetric, ids, ids, ("g",), (1,))
        KernelStack(asymmetric, ids, ids, ("g",), (1,), _symmetric=True)
        with pytest.raises(ValueError, match="non-finite"):
            KernelStack(np.array([[[1.0, np.inf], [np.inf, 1.0]]]), ids, ids, ("g",), (1,),
                        _symmetric=True)
        with pytest.raises(ValueError, match="unit diagonal"):
            KernelStack(2.0 * np.eye(2)[None], ids, ids, ("g",), (1,), normalized=True,
                        _symmetric=True)

    @pytest.mark.parametrize(
        "center,normalize", [(True, True), (True, False), (False, True), (False, False)]
    )
    def test_exact_records_bit_symmetry_through_preprocessing(self, center, normalize):
        # Every kernel of a train stack equals its transpose bit for bit, so
        # SMO reads its columns as its rows: one symmetric only within
        # tolerance is stored as K/2 + K.T/2, and preprocessing keeps that.
        rng = np.random.default_rng(40)
        k = random_psd_kernel(rng, 12)
        near = k + 1e-12 * rng.uniform(-1.0, 1.0, size=k.shape)
        assert bit_symmetric(k) and not bit_symmetric(near)
        raw = _stack(k, near)
        assert _same_bits(raw.values[0], k)
        assert _same_bits(raw.values[1], near / 2.0 + near.T / 2.0)
        fitted = StackPreprocessor(center=center, normalize=normalize).fit(raw).train_stack_
        built = build_linear_kernels(_random_grouped(rng, 9, dims=(2, 3)))
        for stack in (raw, fitted, built):
            assert all(bit_symmetric(v) for v in stack.values)
        test_X = rng.normal(size=(4, 5))
        cross, _ = build_linear_cross_kernels(_random_grouped(rng, 9, dims=(2, 3)), test_X, "abcd")
        for stack in (raw, fitted, built, cross):
            np.testing.assert_array_equal(stack.magnitudes, np.abs(stack.values).max(axis=(1, 2)))

    def test_ids_and_names_become_strings(self):
        stack = KernelStack(np.ones((1, 1, 1)), [7], [7], [3], [1.0])
        assert stack.row_ids == ("7",) and stack.col_ids == ("7",)
        assert stack.group_names == ("3",) and stack.group_sizes == (1,)


_STRIP = 64  # rows per strip of bit_symmetric's compare


@st.composite
def _near_symmetric(draw):
    """A square matrix symmetric bit for bit but for one drawn change, or a
    non-square one. Indices lean to the rows on either side of a strip edge."""
    n = draw(st.one_of(st.sampled_from([1, 63, 64, 65, 200]), st.integers(1, 150)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = rng.normal(size=(n, n))
    k = k + k.T  # a commutative sum: symmetric bit for bit
    edges = [b + d for b in range(_STRIP, n, _STRIP) for d in (-1, 0)]

    def index():
        if edges and draw(st.booleans()):
            return draw(st.sampled_from(edges))
        return draw(st.integers(0, n - 1))

    i, j = index(), index()
    bits = k.view(np.uint64)
    change = draw(st.sampled_from(["none", "flip", "signed-zero", "nan", "shape"]))
    if change == "flip":
        bits[i, j] ^= np.uint64(1) << np.uint64(draw(st.integers(0, 63)))
    elif change == "signed-zero":
        k[i, j], k[j, i] = -0.0, 0.0
    elif change == "nan":
        # Quiet NaNs whose payloads may differ.
        bits[i, j] = np.uint64(0x7FF8000000000000 + draw(st.integers(0, 3)))
        bits[j, i] = np.uint64(0x7FF8000000000000 + draw(st.integers(0, 3)))
    elif change == "shape":
        cut = draw(st.integers(0, n - 1))
        k = k[:, :cut] if draw(st.booleans()) else k[:cut]
        k = np.ascontiguousarray(k) if draw(st.booleans()) else k
    return k


class TestBitSymmetric:
    """The strip-by-strip compare agrees with one whole transposed compare."""

    @given(_near_symmetric())
    def test_agrees_with_a_whole_transposed_compare(self, k):
        bits = k.view(np.uint64)
        with np.errstate(all="raise"):
            assert bit_symmetric(k) == np.array_equal(bits, bits.T)

    @pytest.mark.parametrize("n", [65, 129, 200])
    def test_one_flipped_bit_beside_each_strip_edge(self, n):
        k = np.arange(float(n * n)).reshape(n, n)
        k = k + k.T
        assert bit_symmetric(k)
        for row in (b + d for b in range(_STRIP, n, _STRIP) for d in (-1, 0)):
            pairs = ((row, row - 1), (row - 1, row), (row, 0), (0, row), (row, n - 1), (n - 1, row))
            for i, j in (pair for pair in pairs if pair[0] != pair[1]):
                flipped = k.copy()
                flipped.view(np.uint64)[i, j] ^= np.uint64(1)
                assert not bit_symmetric(flipped), (i, j)

    def test_signed_zeros_nan_payloads_and_shapes(self):
        k = np.zeros((3, 3))
        k[0, 2] = -0.0
        assert not bit_symmetric(k) and bit_symmetric(np.zeros((3, 3)))
        k = np.full((2, 2), np.nan)
        assert bit_symmetric(k)
        k.view(np.uint64)[0, 1] += np.uint64(1)
        assert not bit_symmetric(k)
        for shape in ((2, 3), (3, 2), (0, 1), (4,)):
            assert not bit_symmetric(np.zeros(shape))
        assert bit_symmetric(np.zeros((0, 0))) and bit_symmetric(np.ones((1, 1)))


class TestTrainStackSymmetricPart:
    """A train stack keeps each kernel that is bit-symmetric as it is and
    stores every other one as its symmetric part, in a copy of its own."""

    @given(
        n=st.integers(1, 30),
        perturbed=st.lists(st.booleans(), min_size=1, max_size=5),
        signed_zero=st.booleans(),
        fortran=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_kernel_bit_symmetric_and_the_input_kept(
        self, n, perturbed, signed_zero, fortran, seed
    ):
        rng = np.random.default_rng(seed)
        values = np.array([random_psd_kernel(rng, n) for _ in perturbed])
        for k, change in zip(values, perturbed):
            if change:
                # Off its transpose by at most 0.8 * SYMMETRY_TOL * max|K|.
                k += 0.4 * SYMMETRY_TOL * np.abs(k).max() * rng.uniform(-1.0, 1.0, size=(n, n))
                if signed_zero and n > 1:
                    s, t = rng.choice(n, size=2, replace=False)
                    k[s, t], k[t, s] = -0.0, 0.0
        if fortran:
            values = np.asfortranarray(values)  # taken by copy, not as it is
        given_bits = values.copy()
        ids, m = tuple(f"s{i}" for i in range(n)), len(perturbed)
        stack = KernelStack(values, ids, ids, tuple(f"g{j}" for j in range(m)), (1,) * m)
        assert _same_bits(values, given_bits)  # the caller's array is never written
        for k, raw in zip(stack.values, given_bits):
            assert bit_symmetric(k)
            expected = raw if bit_symmetric(raw) else raw / 2.0 + raw.T / 2.0
            assert _same_bits(k, expected)
        np.testing.assert_array_equal(stack.magnitudes, np.abs(stack.values).max(axis=(1, 2)))


class TestGroupedDataset:
    def test_empty_group_error_names_the_group(self):
        with pytest.raises(DataError, match="'unused'"):
            _dataset(np.ones((2, 2)), [0, 0], ("used", "unused"))

    def test_duplicate_sample_id_rejected(self):
        with pytest.raises(DataError, match="duplicate sample id 'a'"):
            _dataset(np.ones((2, 1)), [0], ("g",), ids=("a", "a"))

    def test_subset_reorders_rows(self):
        data = _dataset([[1.0], [2.0], [3.0]], [0], ("g",))
        sub = data.subset(["s2", "s0"])
        np.testing.assert_array_equal(sub.features[:, 0], [3.0, 1.0])
        assert sub.sample_ids == ("s2", "s0")

    def test_subset_unknown_id(self):
        data = _dataset([[1.0]], [0], ("g",))
        with pytest.raises(ValueError, match="unknown sample id"):
            data.subset(["nope"])


class TestBuildLinearKernels:
    def test_two_samples_one_group(self):
        data = _dataset([[1.0, 2.0], [3.0, 4.0]], [0, 0], ("g",))
        stack = build_linear_kernels(data)
        np.testing.assert_allclose(stack.values[0], [[5.0, 11.0], [11.0, 25.0]], atol=0)

    def test_zero_features_give_zero_kernel(self):
        data = _dataset(np.zeros((3, 2)), [0, 0], ("g",))
        stack = build_linear_kernels(data)
        np.testing.assert_array_equal(stack.values[0], np.zeros((3, 3)))

    def test_two_single_column_groups(self):
        data = _dataset([[1.0, 2.0], [3.0, 4.0]], [0, 1], ("a", "b"))
        stack = build_linear_kernels(data)
        assert stack.values.shape == (2, 2, 2)
        np.testing.assert_allclose(stack.values[0], [[1.0, 3.0], [3.0, 9.0]])
        np.testing.assert_allclose(stack.values[1], [[4.0, 8.0], [8.0, 16.0]])
        assert stack.group_sizes == (1, 1)

    def test_kernels_carry_sample_ids(self):
        data = _dataset(np.eye(3), [0, 0, 0], ("g",), ids=("x", "y", "z"))
        stack = build_linear_kernels(data)
        assert stack.row_ids == ("x", "y", "z")

    def test_matches_explicit_inner_products(self):
        rng = np.random.default_rng(7)
        data = _random_grouped(rng, 12)
        stack = build_linear_kernels(data)
        for j in range(data.n_groups):
            block = data.features[:, data.group_columns(j)]
            np.testing.assert_allclose(stack.values[j], block @ block.T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n,d", [(60, 1), (60, 7), (250, 3), (250, 40)])
    def test_gram_equals_the_averaged_product(self, n, d):
        # BLAS returns block @ block.T symmetric bit for bit, so skipping the
        # average must leave every bit of (g + g.T) / 2.
        rng = np.random.default_rng(n + d)
        block = np.ascontiguousarray(rng.normal(size=(n, d)) * rng.uniform(1e-3, 1e3))
        g = block @ block.T
        expected = (g + g.T) / 2.0
        got = linear_gram(block, np.empty((n, n)))
        assert got.tobytes() == expected.tobytes()

    def test_gram_averages_an_asymmetric_product(self):
        rng = np.random.default_rng(11)
        block = rng.normal(size=(5, 3))
        real = np.matmul

        def skewed(a, b, out):
            real(a, b, out=out)
            out[0, 1] = np.nextafter(out[0, 1], np.inf)
            return out

        with mock.patch.object(np, "matmul", skewed):
            got = linear_gram(block, np.empty((5, 5)))
        g = skewed(block, block.T, np.empty((5, 5)))
        assert got.tobytes() == ((g + g.T) / 2.0).tobytes()
        assert np.array_equal(got.view(np.uint64), got.T.view(np.uint64))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_gram_entry_whose_double_overflows(self, sign):
        # Entries of +-2**1023 are finite, but the average doubles them to inf,
        # and the kernel is refused as it always was.
        big = 2.0 ** 511
        block = np.array([[big, big], [sign * big, sign * big], [1.0, 0.0]])
        assert np.isfinite(block @ block.T).all()
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            linear_gram(block, np.empty((3, 3)))

    def test_cross_kernels_fill_one_array(self):
        rng = np.random.default_rng(8)
        data = _random_grouped(rng, 6)
        test_X = rng.normal(size=(2, data.n_features))
        stack, sims = build_linear_cross_kernels(data, test_X, ("t0", "t1"))
        assert stack.values.shape == (3, 2, 6)
        assert stack.row_ids == ("t0", "t1") and stack.col_ids == data.sample_ids
        for j in range(data.n_groups):
            cols = data.group_columns(j)
            np.testing.assert_array_equal(
                stack.values[j], test_X[:, cols] @ data.features[:, cols].T
            )
            np.testing.assert_allclose(sims[j], (test_X[:, cols] ** 2).sum(axis=1))


class TestCenterTrainKernel:
    """Centering of train kernels, through ``StackPreprocessor.fit``."""

    def test_constant_features_center_to_zero(self):
        np.testing.assert_allclose(_centered(np.ones((3, 3))), np.zeros((3, 3)), atol=1e-15)

    def test_zero_mean_features_unchanged(self):
        # 1-d features {-1, +1} already have zero mean.
        k = [[1.0, -1.0], [-1.0, 1.0]]
        np.testing.assert_allclose(_centered(k), k, atol=1e-15)

    def test_identity_kernel(self):
        np.testing.assert_allclose(
            _centered(np.eye(2)), [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15
        )

    def test_rejects_cross_kernel(self):
        k = _cross_stack([[1.0, 2.0]], ("t0",), ("s0", "s1"))
        with pytest.raises(ValueError, match="train stack"):
            StackPreprocessor(center=True, normalize=False).fit(k)

    def test_rejects_double_centering(self):
        pre = StackPreprocessor(center=True, normalize=False).fit(_stack(np.eye(2)))
        assert pre.train_stack_.centered and not pre.train_stack_.normalized
        with pytest.raises(ValueError, match="raw"):
            StackPreprocessor(center=True, normalize=False).fit(pre.train_stack_)

    def test_row_and_column_means_vanish(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(8, 5))
        centered = _centered(X @ X.T)
        assert np.abs(centered.mean(axis=0)).max() < 1e-12
        assert np.abs(centered.mean(axis=1)).max() < 1e-12

    def test_idempotent_in_values(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(6, 3))
        once = _centered(X @ X.T)
        # Re-centering the already-centered values must not change them.
        again = _centered(once)
        np.testing.assert_allclose(again, once, atol=1e-12)


class TestCenterTestKernel:
    """Centering of cross kernels, through ``StackPreprocessor.transform_cross``."""

    def _center_cross(self, train_X, test_X):
        data = _dataset(train_X, [0] * train_X.shape[1], ("g",))
        pre = StackPreprocessor(center=True, normalize=False).fit(build_linear_kernels(data))
        test_ids = tuple(f"t{i}" for i in range(test_X.shape[0]))
        cross = pre.transform_cross(*build_linear_cross_kernels(data, test_X, test_ids))
        assert cross.centered and not cross.normalized
        return pre, cross

    def test_duplicated_train_sample_matches_train_row(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(6, 4))
        pre, cross = self._center_cross(X, X[[2]])
        np.testing.assert_allclose(
            cross.values[0, 0], pre.train_stack_.values[0, 2], atol=1e-12
        )

    def test_one_dimensional_example_matches_feature_oracle(self):
        # Train features {0, 2}, test feature {1}: centering by the train
        # mean sends the test point to zero, so the centered row vanishes.
        train_X = np.array([[0.0], [2.0]])
        test_X = np.array([[1.0]])
        _, cross = self._center_cross(train_X, test_X)
        (_, oracle_cross), = oracle_feature_pipeline(
            train_X, [np.array([0])], test_X, center=True, normalize=False
        )
        np.testing.assert_allclose(cross.values[0], oracle_cross, atol=1e-12)
        np.testing.assert_allclose(cross.values[0], [[0.0, 0.0]], atol=1e-12)

    def test_rejects_mismatched_ids(self):
        pre = StackPreprocessor(center=True, normalize=False).fit(
            _stack(np.eye(2), ids=("a", "b"))
        )
        with pytest.raises(ValueError, match="do not match"):
            pre.transform_cross(_cross_stack([[1.0, 0.0]], ("t0",), ("a", "c")), [[1.0]])
        with pytest.raises(ValueError, match="do not match"):
            pre.transform_cross(_cross_stack([[1.0]], ("t0",), ("a",)), [[1.0]])

    def test_rejects_centered_train_kernel(self):
        # Centering statistics come from raw values, never centered ones.
        centered = _stack(_centered(np.eye(3)), centered=True)
        with pytest.raises(ValueError, match="uncentered"):
            StackPreprocessor(center=True, normalize=False).fit(centered)

    def test_rejects_preprocessed_cross_kernel(self):
        pre = StackPreprocessor().fit(_stack(np.eye(2)))
        cross = KernelStack(np.ones((1, 1, 2)), ("t0",), ("s0", "s1"), ("g0",), (1,),
                            centered=True)
        with pytest.raises(ValueError, match="raw cross kernels"):
            pre.transform_cross(cross, [[1.0]])


class TestNormalizeKernel:
    """Normalization, through ``StackPreprocessor`` with centering off."""

    def test_hand_computed_train_case(self):
        np.testing.assert_allclose(
            _normalized([[4.0, 2.0], [2.0, 9.0]]),
            [[1.0, 1.0 / 3.0], [1.0 / 3.0, 1.0]],
            atol=1e-15,
        )

    def test_identity_unchanged(self):
        np.testing.assert_array_equal(_normalized(np.eye(3)), np.eye(3))

    def test_unit_diagonal_exact(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(7, 4))
        np.testing.assert_array_equal(np.diagonal(_normalized(X @ X.T)), np.ones(7))
        # Also after centering, where the diagonal is computed, not given.
        pre = StackPreprocessor().fit(_stack(X @ X.T))
        assert pre.train_stack_.centered and pre.train_stack_.normalized
        np.testing.assert_array_equal(np.diagonal(pre.train_stack_.values[0]), np.ones(7))

    def test_zero_self_similarity_names_sample(self):
        values = np.diag([1.0, 0.0, 2.0])
        with pytest.raises(DataError, match="'s1'"):
            _normalized(values)

    def test_cross_kernel_requires_both_diagonals(self):
        pre = StackPreprocessor(center=False, normalize=True).fit(_stack(np.eye(2)))
        cross = _cross_stack([[1.0, 2.0]], ("t0",), ("s0", "s1"))
        with pytest.raises(ValueError, match="self-similarity vector per group"):
            pre.transform_cross(cross, [])
        with pytest.raises(ValueError, match="one value per test sample"):
            pre.transform_cross(cross, [[1.0, 2.0]])

    def test_cross_kernel_normalization(self):
        pre = StackPreprocessor(center=False, normalize=True).fit(
            _stack(np.diag([1.0, 9.0]))
        )
        cross = _cross_stack([[2.0, 6.0]], ("t0",), ("s0", "s1"))
        normalized = pre.transform_cross(cross, [np.array([4.0])])
        assert normalized.normalized and not normalized.centered
        np.testing.assert_allclose(normalized.values[0], [[1.0, 1.0]], atol=1e-15)

    def test_rejects_double_normalization(self):
        pre = StackPreprocessor(center=False, normalize=True).fit(_stack(np.eye(2)))
        with pytest.raises(ValueError, match="unnormalized"):
            StackPreprocessor(center=False, normalize=True).fit(pre.train_stack_)


class TestWeightedSum:
    def test_single_kernel_identity_weight(self):
        stack = _stack([[2.0, 1.0], [1.0, 3.0]])
        combined = weighted_sum(stack, [1.0])
        np.testing.assert_array_equal(combined, stack.values[0])

    def test_equal_weights_of_identical_kernels(self):
        k = [[2.0, 1.0], [1.0, 3.0]]
        combined = weighted_sum(_stack(k, k), [0.5, 0.5])
        np.testing.assert_allclose(combined, k, atol=1e-15)

    def test_hand_computed_mixture(self):
        combined = weighted_sum(
            _stack([[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]),
            [0.25, 0.75],
        )
        np.testing.assert_allclose(combined, [[0.25, 0.75], [0.75, 0.25]], atol=1e-15)

    def test_rejects_negative_weight(self):
        stack = _stack(np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="nonnegative"):
            weighted_sum(stack, [1.0, -0.1])

    def test_rejects_all_zero_weights(self):
        stack = _stack(np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="at least one"):
            weighted_sum(stack, [0.0, 0.0])

    def test_rejects_length_mismatch(self):
        stack = _stack(np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="2 weights"):
            weighted_sum(stack, [1.0])

    def test_linear_in_the_weights(self):
        rng = np.random.default_rng(21)
        mats = [m @ m.T for m in (rng.normal(size=(5, 5)) for _ in range(3))]
        stack = _stack(*mats)
        b1 = rng.uniform(0.1, 1.0, size=3)
        b2 = rng.uniform(0.1, 1.0, size=3)
        lhs = weighted_sum(stack, b1 + b2)
        rhs = weighted_sum(stack, b1) + weighted_sum(stack, b2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_zero_weight_skips_kernel_exactly(self):
        stack = _stack([[1.0, 0.0], [0.0, 1.0]], [[5.0, 5.0], [5.0, 5.0]])
        combined = weighted_sum(stack, [1.0, 0.0])
        np.testing.assert_array_equal(combined, np.eye(2))

    def test_sums_in_kernel_order_bit_for_bit(self):
        rng = np.random.default_rng(22)
        mats = [m @ m.T for m in (rng.normal(size=(6, 6)) for _ in range(4))]
        beta = np.array([0.3, 0.0, 0.1 + 1e-9, 0.6])
        expected = weighted_sum_reference(mats, beta)
        combined = weighted_sum(_stack(*mats), beta)
        assert combined.view(np.int64).tolist() == expected.view(np.int64).tolist()

    def test_refuses_a_sum_that_could_overflow(self):
        # Every entry is finite, but sum_j beta_j max|K_j| is not: refused
        # before any arithmetic on the kernels.
        k = 1e308 * np.eye(3)
        with np.errstate(all="raise"):
            with pytest.raises(DataError, match=r"sum_j beta_j max\|K_j\| = inf"):
                weighted_sum(_stack(k, k), [1.0, 1.0])
            with pytest.raises(DataError, match="combined kernel overflows"):
                weighted_sum(_stack(k), [2.0])
            np.testing.assert_array_equal(weighted_sum(_stack(k, k), [0.5, 0.5]), k)

    def test_cross_stack_gives_a_plain_rectangular_array(self):
        stack = KernelStack(
            np.arange(12.0).reshape(2, 2, 3), ("t0", "t1"), ("a", "b", "c"), ("g", "h"), (1, 1)
        )
        combined = weighted_sum(stack, [0.5, 0.5])
        assert type(combined) is np.ndarray and combined.shape == (2, 3)
        np.testing.assert_array_equal(combined, 0.5 * stack.values[0] + 0.5 * stack.values[1])


class TestWeightedSumMatchesReference:
    """The row-blocked sum is bit for bit the sequential whole-matrix loop."""

    def _check(self, stack, beta):
        assert _same_bits(weighted_sum(stack, beta), weighted_sum_reference(stack.values, beta))

    def _train(self, rng, m, n):
        return _stack(*(random_psd_kernel(rng, n) for _ in range(m)))

    def _cross(self, rng, m, n_rows, n_cols):
        values = rng.normal(size=(m, n_rows, n_cols)) * rng.uniform(0.1, 10.0, size=(m, 1, 1))
        values[:, 0, :2] = -0.0  # negative zeros must survive where the loop keeps them
        rows = tuple(f"t{i}" for i in range(n_rows))
        cols = tuple(f"s{i}" for i in range(n_cols))
        names = tuple(f"g{j}" for j in range(m))
        return KernelStack(values, rows, cols, names, (1,) * m)

    def test_rows_not_a_multiple_of_the_block(self):
        # 300 columns give blocks of 109 rows: two full ones and one of 82.
        rng = np.random.default_rng(30)
        self._check(self._train(rng, 4, 300), rng.uniform(0.01, 1.0, size=4))

    def test_rows_wider_than_the_block_budget(self):
        # More than 256 KiB per row: every block holds a single row.
        rng = np.random.default_rng(31)
        self._check(self._cross(rng, 2, 3, 33_000), np.array([0.7, 0.3]))

    def test_cross_stacks(self):
        rng = np.random.default_rng(32)
        for n_rows, n_cols in ((70, 130), (130, 70), (1, 500), (500, 1)):
            self._check(self._cross(rng, 3, n_rows, n_cols), rng.uniform(0.01, 1.0, size=3))

    def test_zero_weights_anywhere(self):
        rng = np.random.default_rng(33)
        stack = self._train(rng, 5, 150)
        for beta in ([0.0, 0.2, 0.0, 0.5, 0.3], [0.4, 0.0, 0.0, 0.0, 0.0], [0.0] * 4 + [1e-9]):
            self._check(stack, np.array(beta))

    def test_single_kernel(self):
        rng = np.random.default_rng(34)
        self._check(self._train(rng, 1, 257), np.array([0.37]))
        self._check(self._cross(rng, 1, 40, 90), np.array([2.5]))


def _within_four_ulps(got, expected, raw, self_sim, normalize):
    """Whether ``got`` is within 4 ulps of ``raw``'s largest magnitude of
    ``expected``, entry by entry; on normalized kernels that tolerance goes
    through the division by ``sqrt(s_a * s_b)`` to first order."""
    unit = np.spacing(np.abs(raw).max())
    if normalize:
        scale = np.sqrt(self_sim)
        unit = unit * (
            1.0 / np.outer(scale, scale)
            + np.abs(expected) * (1.0 / self_sim[:, None] + 1.0 / self_sim[None, :])
        )
    return bool((np.abs(got - expected) <= 4.0 * unit).all())


class TestPreprocessingMatchesReference:
    """``fit`` gives bit for bit the plain whole-matrix rewrite of its arithmetic,
    within a few ulps the first-written arithmetic, and ``transform_cross``
    bit for bit its first-written arithmetic. Run with every floating-point
    error raised, so an overflow or invalid operation in the row-blocked
    pass cannot pass silently."""

    @pytest.fixture(autouse=True)
    def _float_errors_raise(self):
        with np.errstate(all="raise"):
            yield

    @pytest.mark.parametrize(
        "center,normalize", [(True, True), (True, False), (False, True), (False, False)]
    )
    def test_train_stats_and_cross(self, center, normalize):
        # n = 150 spans two full row blocks and a partial one.
        for seed, (n, n_test) in enumerate(((50, 7), (9, 30), (120, 1), (150, 4))):
            rng = np.random.default_rng(500 + seed)
            data = _random_grouped(rng, n, dims=(3, 5, 1, 8))
            test_X = rng.normal(size=(n_test, data.n_features))
            raw = build_linear_kernels(data)
            raw_cross, sims = build_linear_cross_kernels(
                data, test_X, tuple(f"t{i}" for i in range(n_test))
            )

            raw_bits = raw.values.copy()
            pre = StackPreprocessor(center=center, normalize=normalize).fit(raw)
            assert _same_bits(raw.values, raw_bits)  # without out, the raw stack is kept
            expected, stats = preprocess_fit_plain(raw.values, center, normalize)
            # In place: the output overwrites the buffer behind the raw stack.
            buffer = raw.values.copy()
            in_place = StackPreprocessor(center=center, normalize=normalize).fit(
                KernelStack(buffer, raw.row_ids, raw.col_ids, raw.group_names, raw.group_sizes),
                out=buffer,
            )
            assert np.shares_memory(in_place.train_stack_.values, buffer)
            for fitted in (pre, in_place):
                assert _same_bits(fitted.train_stack_.values, expected)
                assert all(bit_symmetric(v) for v in fitted.train_stack_.values)
                for got, (col_means, grand, self_sim) in zip(fitted.stats_, stats):
                    assert _same_bits(got.col_means, col_means)
                    assert _same_bits(got.grand_mean, grand)
                    assert _same_bits(got.self_sim, self_sim)

            first, first_stats = preprocess_fit_reference(raw.values, center, normalize)
            for j, (got, st) in enumerate(zip(pre.stats_, first_stats)):
                assert _within_four_ulps(
                    pre.train_stack_.values[j], first[j], raw.values[j], got.self_sim, normalize
                )
                for value, first_value in zip((got.grand_mean, got.self_sim), st[1:]):
                    assert _within_four_ulps(value, first_value, raw.values[j], None, False)

            cross = pre.transform_cross(raw_cross, sims)
            expected = transform_cross_reference(raw_cross.values, sims, stats, center, normalize)
            assert _same_bits(cross.values, expected)

    def test_raw_kernels_symmetric_within_tolerance(self):
        # Raw kernels that equal their transpose under == but not bit for bit:
        # one entry a unit in the last place off its mirror, and a -0.0
        # mirrored by 0.0. The stack takes their symmetric part, and each
        # step, or the copy with both off, starts from it.
        rng = np.random.default_rng(510)
        off_by_ulp = random_psd_kernel(rng, 9)
        off_by_ulp = (off_by_ulp + off_by_ulp.T) / 2.0
        off_by_ulp[2, 5] = np.nextafter(off_by_ulp[2, 5], np.inf)
        signed_zero = np.eye(4) + 0.5
        signed_zero[0, 3], signed_zero[3, 0] = -0.0, 0.0
        for raw in (off_by_ulp, signed_zero):
            assert not bit_symmetric(raw)
            assert _same_bits(_stack(raw).values[0], raw / 2.0 + raw.T / 2.0)
            for center, normalize in ((False, True), (True, False), (True, True), (False, False)):
                pre = StackPreprocessor(center=center, normalize=normalize).fit(_stack(raw))
                got = pre.train_stack_.values
                expected, _ = preprocess_fit_plain(raw[None], center, normalize)
                assert _same_bits(got, expected)
                assert bit_symmetric(got[0])

    def test_out_overlapping_the_raw_values_one_entry_off(self):
        rng = np.random.default_rng(511)
        raw = _stack(random_psd_kernel(rng, 6), random_psd_kernel(rng, 6))
        memory = np.concatenate([[0.0], raw.values.ravel()])
        shifted = KernelStack(memory[1:].reshape(raw.values.shape), raw.row_ids, raw.col_ids,
                              raw.group_names, raw.group_sizes)
        with pytest.raises(ValueError, match="out must be"):
            StackPreprocessor().fit(shifted, out=memory[:-1].reshape(raw.values.shape))

    @pytest.mark.parametrize("center", [True, False])
    def test_normalized_entry_whose_double_overflows(self, center):
        # A symmetric kernel, not PSD, whose normalized entries are finite but
        # some of them above 2**1023 (1e308 raw, 1.4e308 centered): the
        # reference's average doubles those to inf, and the fit refuses them
        # as bad data.
        e, h = 1e-200, 1e108
        raw = np.array([[e, h, -h, -e], [h, e, -e, -h], [-h, -e, e, h], [-e, -h, h, e]])
        with np.errstate(over="ignore"):
            expected, _ = preprocess_fit_reference(raw[None], center, True)
            assert np.isinf(expected).any()
            with pytest.raises(DataError, match="non-finite"):
                StackPreprocessor(center=center, normalize=True).fit(_stack(raw))

    @pytest.mark.parametrize("center", [True, False])
    def test_normalized_entry_that_overflows_is_a_data_error(self, center):
        # The same kernel at 1e109: the division itself overflows. The fit
        # stops at that floating-point error, whatever the caller's errstate,
        # and refuses the stack alike.
        e, h = 1e-200, 1e109
        raw = np.array([[e, h, -h, -e], [h, e, -e, -h], [-h, -e, e, h], [-e, -h, h, e]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DataError, match=r"entries of 2\*\*1023 or more"):
                StackPreprocessor(center=center, normalize=True).fit(_stack(raw))


class TestPipelineAgainstFeatureOracle:
    """The Gram-matrix pipeline must match recomputing from raw features."""

    @pytest.mark.parametrize("center,normalize", [(True, True), (True, False), (False, True)])
    def test_train_and_cross_kernels(self, center, normalize):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            data = _random_grouped(rng, 10)
            test_X = rng.normal(size=(4, data.n_features))
            test_ids = tuple(f"t{i}" for i in range(4))

            raw = build_linear_kernels(data)
            pre = StackPreprocessor(center=center, normalize=normalize).fit(raw)
            raw_cross, sims = build_linear_cross_kernels(data, test_X, test_ids)
            cross = pre.transform_cross(raw_cross, sims)

            group_cols = [data.group_columns(j) for j in range(data.n_groups)]
            oracle = oracle_feature_pipeline(
                data.features, group_cols, test_X, center=center, normalize=normalize
            )
            for j, (oracle_train, oracle_cross) in enumerate(oracle):
                np.testing.assert_allclose(pre.train_stack_.values[j], oracle_train, atol=1e-8)
                np.testing.assert_allclose(cross.values[j], oracle_cross, atol=1e-8)

    def test_feature_row_helper_matches_oracle(self):
        rng = np.random.default_rng(42)
        data = _random_grouped(rng, 9)
        group_cols = [data.group_columns(j) for j in range(data.n_groups)]
        means = [data.features[:, c].mean(axis=0) for c in group_cols]
        slices = preprocess_slices(data.features, group_cols, means, center=True, normalize=True)
        oracle = oracle_feature_pipeline(data.features, group_cols, None)
        for block, (oracle_train, _) in zip(slices, oracle):
            np.testing.assert_allclose(block @ block.T, oracle_train, atol=1e-10)

    @pytest.mark.parametrize("center", [False, True])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_interleaved_groups_match_oracle(self, center, normalize):
        # The two groups' columns alternate, so neither is a contiguous block.
        rng = np.random.default_rng(43)
        data = _dataset(rng.normal(size=(9, 6)) + 3.0, [0, 1, 0, 1, 1, 0], ("a", "b"))
        group_cols = [data.group_columns(j) for j in range(data.n_groups)]
        slices = preprocess_slices(
            data.features, group_cols, group_feature_means(data), center, normalize
        )
        stack = build_linear_kernels(data, center, normalize)
        oracle = oracle_feature_pipeline(data.features, group_cols, None, center, normalize)
        for j, (cols, (oracle_train, _)) in enumerate(zip(group_cols, oracle)):
            np.testing.assert_allclose(slices[j] @ slices[j].T, oracle_train, atol=1e-10)
            np.testing.assert_allclose(stack.values[j], oracle_train, atol=1e-10)
            if not (center or normalize):
                assert _same_bits(slices[j], data.features[:, cols])

    def test_check_labels(self):
        values = check_labels(np.array([1.0, -1.0, 1.0]))
        assert values == [1.0, -1.0, 1.0] and all(type(v) is float for v in values)
        with pytest.raises(DataError, match="must be -1/\\+1"):
            check_labels([1.0, 0.0])
        with pytest.raises(DataError, match="single class"):
            check_labels([-1.0, -1.0])

    def test_preprocessing_preserves_psd(self):
        for seed in range(5):
            rng = np.random.default_rng(200 + seed)
            data = _random_grouped(rng, 8)
            pre = StackPreprocessor().fit(build_linear_kernels(data))
            for k in pre.train_stack_.values:
                eigenvalues = np.linalg.eigvalsh(k)
                assert eigenvalues.min() >= -1e-8

    def test_zero_norm_sample_error_names_it(self):
        # Centering makes both identical samples zero vectors in the group.
        features = np.array([[1.0, 5.0], [1.0, 7.0]])
        data = _dataset(features, [0, 1], ("flat", "ok"), ids=("a", "b"))
        raw = build_linear_kernels(data)
        with pytest.raises(DataError, match="'a'"):
            StackPreprocessor().fit(raw)
