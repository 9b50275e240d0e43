"""File formats and the command-line surface."""

import contextlib
import csv
import dataclasses
import hashlib
import io as stdio
import json
import math
import os
import re
import shlex
import shutil
import struct
import subprocess
import sys
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import enmkl
from enmkl import io
from enmkl.cli import build_parser, main
from enmkl.errors import DataError
from enmkl.evaluation import make_fold_plan
from enmkl.mkl import predict_model
from enmkl.model import model_from_dict
from enmkl.kernels import (
    KernelStack,
    LinearKernelStream,
    StackPreprocessor,
    build_linear_cross_kernels,
    build_linear_kernels,
)

from helpers import (
    _same_bits,
    kernel_csv_reference,
    make_classification_data,
    make_regression_data,
    random_labels,
    random_psd_kernel,
)


def _write(path, text):
    path.write_text(text)
    return str(path)


def _write_features(tmp_path, data, features=None):
    """The feature and group CSVs of ``data``, with ``features`` in place of its rows."""
    features = data.features if features is None else features
    names = [f"f{j}" for j in range(data.n_features)]
    lines = ["id," + ",".join(names)]
    for i, sid in enumerate(data.sample_ids):
        lines.append(sid + "," + ",".join(repr(float(v)) for v in features[i]))
    group_lines = ["feature,group"]
    for j, name in enumerate(names):
        group_lines.append(f"{name},{data.group_names[data.groups[j]]}")
    return (
        _write(tmp_path / "features.csv", "\n".join(lines) + "\n"),
        _write(tmp_path / "groups.csv", "\n".join(group_lines) + "\n"),
    )


def _workspace(tmp_path, task="classification", n=20, seed=60):
    """Feature, group, and target CSVs for a two-group dataset."""
    if task == "classification":
        data = make_classification_data(
            n=n, seed=seed, group_specs=[("sig", 3, "signal"), ("noise", 2, "noise")]
        )
    else:
        data = make_regression_data(
            n=n, seed=seed, group_specs=[("sig", 3, "signal"), ("noise", 2, "noise")]
        )
    features, groups = _write_features(tmp_path, data)
    target_lines = ["id,target"]
    for sid, t in zip(data.sample_ids, data.targets):
        if task == "classification":
            target_lines.append(f"{sid},{'control' if t > 0 else 'case'}")
        else:
            target_lines.append(f"{sid},{repr(float(t))}")
    targets = _write(tmp_path / "targets.csv", "\n".join(target_lines) + "\n")
    return data, features, groups, targets


class TestAtomicWrites:
    def test_writes_content_without_tmp_leftovers(self, tmp_path):
        target = tmp_path / "out.txt"
        io.atomic_write_text(target, "payload\n")
        assert target.read_text() == "payload\n"
        assert not [p for p in tmp_path.iterdir() if p.name != "out.txt"]

    def test_overwrites_in_place(self, tmp_path):
        target = tmp_path / "out.txt"
        io.atomic_write_text(target, "first")
        io.atomic_write_text(target, "second")
        assert target.read_text() == "second"

    def test_failed_write_keeps_target_and_leaves_no_tmp(self, tmp_path):
        target = tmp_path / "out.txt"
        io.atomic_write_text(target, "old")
        with pytest.raises(TypeError):
            io.atomic_write_bytes(target, b"partial", None)  # None is no buffer
        assert target.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_open_or_replace_names_the_target(self, tmp_path, monkeypatch):
        missing = tmp_path / "nodir" / "out.txt"
        with pytest.raises(FileNotFoundError) as info:
            io.atomic_write_text(missing, "new")
        assert str(info.value) == f"[Errno 2] No such file or directory: '{missing}'"
        target = tmp_path / "out.txt"
        io.atomic_write_text(target, "old")

        def replace(src, dst):
            raise PermissionError(13, "Permission denied", str(src), str(dst))

        monkeypatch.setattr(io.os, "replace", replace)
        with pytest.raises(PermissionError) as info:
            io.atomic_write_text(target, "new")
        assert str(info.value) == f"[Errno 13] Permission denied: '{target}'"
        assert target.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestJsonConventions:
    def test_sorted_keys_and_trailing_newline(self):
        text = io.dump_json({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_floats_survive_round_trip(self):
        values = [0.1, 1.0 / 3.0, 1e-17, 2.0 ** 53, -1.5e300]
        loaded = json.loads(io.dump_json({"v": values}))
        assert loaded["v"] == values

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_floats_are_not_written(self, tmp_path, value):
        # The readers refuse the NaN and Infinity that json would write.
        with pytest.raises(ValueError, match="not JSON compliant"):
            io.write_json(tmp_path / "x.json", {"v": [1.0, value]})
        assert list(tmp_path.iterdir()) == []

    def test_parse_error_carries_location(self, tmp_path):
        path = _write(tmp_path / "bad.json", '{\n  "a": oops\n}\n')
        with pytest.raises(DataError, match=r"bad\.json:2: invalid JSON"):
            io.read_json(path)


class TestFeatureCsv:
    def test_round_trip(self, tmp_path):
        path = _write(
            tmp_path / "f.csv", "id,a,b\ns0,1.5,-2.0\ns1,0.25,3.0\n"
        )
        ids, names, matrix = io.read_features_csv(path)
        assert ids == ("s0", "s1")
        assert names == ("a", "b")
        np.testing.assert_array_equal(matrix, [[1.5, -2.0], [0.25, 3.0]])

    def test_duplicate_sample_id_names_line(self, tmp_path):
        path = _write(tmp_path / "f.csv", "id,a\ns0,1.0\ns0,2.0\n")
        with pytest.raises(DataError, match=r"f\.csv:3: duplicate sample id 's0'"):
            io.read_features_csv(path)

    def test_bad_float_names_line(self, tmp_path):
        path = _write(tmp_path / "f.csv", "id,a\ns0,1.0\ns1,xyz\n")
        with pytest.raises(DataError, match=r"f\.csv:3:.*'xyz'"):
            io.read_features_csv(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = _write(tmp_path / "f.csv", "id,a\n\ns0,1.0\n\n")
        ids, _, _ = io.read_features_csv(path)
        assert ids == ("s0",)

    def test_empty_file_rejected(self, tmp_path):
        path = _write(tmp_path / "f.csv", "")
        with pytest.raises(DataError, match="empty"):
            io.read_features_csv(path)


class TestGroupMapCsv:
    def _load(self, tmp_path, group_map):
        features = _write(tmp_path / "f.csv", "id,f0,f1,f2\ns0,1.0,2.0,3.0\n")
        return io.load_grouped_dataset(features, _write(tmp_path / "g.csv", group_map))

    def test_appearance_order(self, tmp_path):
        data = self._load(tmp_path, "feature,group\nf0,beta\nf1,alpha\nf2,beta\n")
        assert data.group_names == ("beta", "alpha")
        np.testing.assert_array_equal(data.groups, [0, 1, 0])

    def test_double_mapping_rejected(self, tmp_path):
        with pytest.raises(DataError, match=r"g\.csv:3: duplicate feature 'f0'"):
            self._load(tmp_path, "feature,group\nf0,a\nf0,b\nf1,a\nf2,a\n")

    def test_empty_group_rejected(self, tmp_path):
        with pytest.raises(DataError, match=r"g\.csv:3: empty group name"):
            self._load(tmp_path, "feature,group\nf0,a\nf1, \nf2,a\n")


class TestTargets:
    def test_classification_maps_sorted_labels(self, tmp_path):
        path = _write(tmp_path / "t.csv", "id,target\ns0,case\ns1,control\n")
        targets, mapping = io.parse_targets(path, ("s0", "s1"), "classification")
        assert mapping == {"case": -1.0, "control": 1.0}
        np.testing.assert_array_equal(targets, [-1.0, 1.0])

    def test_three_labels_rejected(self, tmp_path):
        path = _write(tmp_path / "t.csv", "id,target\ns0,a\ns1,b\ns2,c\n")
        with pytest.raises(DataError, match="exactly 2 distinct labels"):
            io.parse_targets(path, ("s0", "s1", "s2"), "classification")

    def test_missing_sample_rejected(self, tmp_path):
        path = _write(tmp_path / "t.csv", "id,target\ns0,1.0\n")
        with pytest.raises(DataError, match="no target for sample 's1'"):
            io.parse_targets(path, ("s0", "s1"), "regression")

    def test_regression_parses_floats_with_lines(self, tmp_path):
        path = _write(tmp_path / "t.csv", "id,target\ns0,1.5\ns1,bad\n")
        with pytest.raises(DataError, match=r"t\.csv:3"):
            io.parse_targets(path, ("s0", "s1"), "regression")


class TestKernelFiles:
    def _kernel(self, seed=61, n=5):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 3))
        return X @ X.T, tuple(f"s{i}" for i in range(n))

    def test_csv_round_trip_is_exact(self, tmp_path):
        values, ids = self._kernel()
        path = tmp_path / "k.csv"
        io.write_kernel_csv(path, values, ids, ids)
        row_ids, col_ids, loaded = io.read_features_csv(path)
        np.testing.assert_array_equal(loaded, values)
        assert row_ids == ids and col_ids == ids

    def test_binary_round_trip_is_exact(self, tmp_path):
        values, ids = self._kernel(62)
        path = tmp_path / "k.bin"
        io.write_kernel_binary(path, values, ids, ids)
        np.testing.assert_array_equal(io.read_kernel_binary(path, ids, ids), values)

    @pytest.mark.parametrize(
        "layout", ["c", "fortran", "strided", "float32", "big_endian", "negative_zero"]
    )
    def test_binary_layout_byte_for_byte(self, tmp_path, layout):
        values, _ = self._kernel(65, n=6)
        values = {
            "c": values,
            "fortran": np.asfortranarray(values),
            "strided": values[::2, 1::3],
            "float32": values.astype(np.float32),
            "big_endian": values.astype(">f8"),
            "negative_zero": np.array([[1.0, -0.0, 0.0], [-0.0, 2.0, -0.0]]),
        }[layout]
        row_ids, col_ids = _ids("r", values.shape[0]), _ids("c", values.shape[1])
        expected = (
            b"ENMKLKR2"
            + struct.pack("<QQ", *values.shape)
            + hashlib.sha256(json.dumps([list(row_ids), list(col_ids)]).encode()).digest()
            + values.astype("<f8").tobytes()
        )
        path = tmp_path / "k.bin"
        io.write_kernel_binary(path, values, row_ids, col_ids)
        assert path.read_bytes() == expected

    def test_binary_magic_checked(self, tmp_path):
        path = tmp_path / "k.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(DataError, match="magic"):
            io.read_kernel_binary(path, ("s0",), ("s0",))

    def test_binary_truncation_detected(self, tmp_path):
        values, ids = self._kernel(63)
        path = tmp_path / "k.bin"
        io.write_kernel_binary(path, values, ids, ids)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError):
            io.read_kernel_binary(path, ids, ids)

    def test_binary_header_checked_against_ids(self, tmp_path):
        values, ids = self._kernel(64)
        path = tmp_path / "k.bin"
        io.write_kernel_binary(path, values, ids, ids)
        with pytest.raises(DataError) as info:
            io.read_kernel_binary(path, ids[:-1], ids[:-1])
        assert str(info.value) == (
            f"{path}: header says 5x5, but the stack has 4 row ids and 4 column ids"
        )


def _mirror_upper(a):
    """The symmetric matrix whose upper triangle is ``a``'s, copied bit for bit."""
    return np.where(np.triu(np.ones(a.shape, dtype=bool)), a, a.T)


def _ids(prefix, n):
    return tuple(f"{prefix}{i}" for i in range(n))


class TestKernelCsvCodec:
    """The kernel CSV writer against the one-``repr``-per-value reference."""

    def _assert_reference_bytes(self, tmp_path, values, row_ids, col_ids):
        path = tmp_path / "k.csv"
        io.write_kernel_csv(path, values, row_ids, col_ids)
        assert path.read_text() == kernel_csv_reference(values, row_ids, col_ids)
        _, _, loaded = io.read_features_csv(path)
        np.testing.assert_array_equal(loaded.view(np.int64), values.view(np.int64))
        return path.read_text()

    def test_symmetric_train_kernels(self, tmp_path):
        data = make_regression_data(
            n=12, seed=67, group_specs=[("a", 3, "signal"), ("b", 1, "noise")]
        )
        stack = build_linear_kernels(data)
        for values in stack.values:
            self._assert_reference_bytes(tmp_path, values, stack.row_ids, stack.col_ids)

    def test_cross_kernels(self, tmp_path):
        data = make_classification_data(n=9, seed=68, group_specs=[("a", 3, "signal")])
        test_X = np.random.default_rng(69).normal(size=(4, 3))
        stack, _ = build_linear_cross_kernels(data, test_X, _ids("t", 4))
        self._assert_reference_bytes(tmp_path, stack.values[0], stack.row_ids, stack.col_ids)

    def test_square_cross_kernel_keeps_its_own_values(self, tmp_path):
        values = np.random.default_rng(70).normal(size=(3, 3))
        self._assert_reference_bytes(tmp_path, values, _ids("t", 3), _ids("s", 3))

    def test_mirrored_signed_zeros_keep_their_signs(self, tmp_path):
        values = np.array([[1.0, -0.0, 0.5], [0.0, 2.0, -0.0], [0.5, -0.0, 3.0]])
        text = self._assert_reference_bytes(tmp_path, values, _ids("s", 3), _ids("s", 3))
        assert text.splitlines()[1:3] == ["s0,1.0,-0.0,0.5", "s1,0.0,2.0,-0.0"]

    def test_subnormals(self, tmp_path):
        tiny = np.array([5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e-310, -4.9e-322, 0.0])
        upper = np.resize(tiny, (6, 6)) * np.arange(1, 7)[:, None]
        self._assert_reference_bytes(tmp_path, _mirror_upper(upper), _ids("s", 6), _ids("s", 6))
        self._assert_reference_bytes(tmp_path, upper, _ids("t", 6), _ids("s", 6))

    def test_repr_exponent_switches(self, tmp_path):
        edges = []
        for edge in (1e16, 1e-4):
            for x in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)):
                edges += [x, -x]
        upper = np.resize(np.array(edges), (5, 5))
        text = self._assert_reference_bytes(
            tmp_path, _mirror_upper(upper), _ids("s", 5), _ids("s", 5)
        )
        assert "1e+16" in text and "9999999999999998.0" in text
        assert "0.0001" in text and "9.999999999999999e-05" in text

    @given(
        values=arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 6)),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        ),
        symmetric=st.booleans(),
    )
    def test_round_trip_is_bit_exact(self, tmp_path_factory, values, symmetric):
        # tmp_path_factory, not tmp_path: one directory serves every example.
        tmp_path = tmp_path_factory.getbasetemp()
        if symmetric:
            n = min(values.shape)
            values = _mirror_upper(values[:n, :n])
            row_ids = col_ids = _ids("s", n)
        else:
            row_ids, col_ids = _ids("r", values.shape[0]), _ids("c", values.shape[1])
        self._assert_reference_bytes(tmp_path, values, row_ids, col_ids)


def _read_csv_stack(path):
    """Read the CSV kernel file ``path`` as the one kernel of a train stack,
    as ``train`` reads it."""
    path = Path(path)
    ids = [f"r{i}" for i in range(len(path.read_text().splitlines()) - 1)]
    manifest = {
        "manifest_version": io.MANIFEST_VERSION, "kind": "train", "format": "csv",
        "centered": False, "normalized": False, "sample_ids": ids, "col_ids": ids,
        "groups": [{"name": "g", "size": 1, "data_file": path.name}], "sources": {},
    }
    io.write_json(path.with_name("stack.json"), manifest)
    return io.read_stack(path.with_name("stack.json"))


class TestCsvParseErrors:
    """Row-level parsing reports the same first bad value as per-value parsing,
    in a features file and in a kernel file read as part of a stack."""

    READERS = {
        "kernel": (_read_csv_stack, "id,c0,c1,c2\n"),
        "features": (io.read_features_csv, "id,f0,f1,f2\n"),
    }

    def _error(self, tmp_path, reader, body):
        read, header = self.READERS[reader]
        path = tmp_path / "x.csv"
        path.write_text(header + body)
        with pytest.raises(DataError) as info:
            read(path)
        return str(info.value).replace(str(path), "FILE")

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_non_number_mid_row(self, tmp_path, reader):
        body = "r0,1.0,2.0,3.0\n\nr1,1.0,abc,3.0\n"
        assert self._error(tmp_path, reader, body) == "FILE:4: not a number: 'abc'"

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_infinity_mid_row(self, tmp_path, reader):
        body = "r0,1.0,2.0,3.0\nr1,1.0,-inf,3.0\n"
        assert self._error(tmp_path, reader, body) == "FILE:3: non-finite value: '-inf'"

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_earlier_row_nan_beats_later_non_number(self, tmp_path, reader):
        body = "r0,1.0,nan,3.0\nr1,1.0,abc,3.0\n"
        assert self._error(tmp_path, reader, body) == "FILE:2: non-finite value: 'nan'"

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_first_bad_value_in_row_wins(self, tmp_path, reader):
        assert (
            self._error(tmp_path, reader, "r0,1.0,inf,abc\n")
            == "FILE:2: non-finite value: 'inf'"
        )
        assert (
            self._error(tmp_path, reader, "r0,x,inf,abc\n") == "FILE:2: not a number: 'x'"
        )


class TestNotUtf8:
    """Bytes that are not UTF-8 are a data error naming the file and line."""

    def test_features_csv(self, tmp_path, capsys):
        _, features, groups, _ = _workspace(tmp_path)
        lines = Path(features).read_bytes().split(b"\n")
        lines[3] += b"\xff"
        Path(features).write_bytes(b"\n".join(lines))
        assert main([
            "kernels", "--features", features, "--groups", groups,
            "--out", str(tmp_path / "stack"),
        ]) == 2
        assert capsys.readouterr().err == f"error: {features}:4: not UTF-8 text\n"

    def test_stack_json(self, tmp_path, capsys):
        _, features, groups, targets = _workspace(tmp_path)
        assert main([
            "kernels", "--features", features, "--groups", groups,
            "--out", str(tmp_path / "stack"),
        ]) == 0
        stack = tmp_path / "stack" / "stack.json"
        raw = stack.read_bytes()
        stack.write_bytes(raw + b"\xff")
        assert main([
            "train", "--stack", str(stack), "--targets", targets,
            "--task", "classification", "--C", "1.0", "--mu", "0.5",
            "--out", str(tmp_path / "m.json"),
        ]) == 2
        line = raw.count(b"\n") + 1
        assert capsys.readouterr().err == f"error: {stack}:{line}: not UTF-8 text\n"


def _perturb_csv(text, kind, data):
    """``text`` with one perturbation of ``kind``, placed where ``data`` draws.

    Returns the new text and the 1-based numbers of the lines it changed
    (none for a change of line ends or an inserted blank line).
    """
    if kind == "crlf":
        return text.replace("\n", "\r\n"), set()
    lines = text.split("\n")[:-1]
    if kind == "blank":
        blank = data.draw(st.sampled_from(["", " ", "\t", "  \t "]))
        lines.insert(data.draw(st.integers(0, len(lines))), blank)
        return "\n".join(lines) + "\n", set()
    cells = [line.split(",") for line in lines]

    def pick(*options):
        return data.draw(st.sampled_from(options))

    if kind in ("duplicate_id", "empty_id", "duplicate_name", "empty_name"):
        # A sample id or a column name emptied, or copied from another.
        if kind.endswith("_id"):
            spots = [(i, 0) for i in range(1, len(cells))]
        else:
            spots = [(0, j) for j in range(1, len(cells[0]))]
        i, j = data.draw(st.sampled_from(spots))
        if kind.startswith("empty"):
            cells[i][j] = pick("", " ", "\t")
            changed = {i + 1}
        else:
            k, m = data.draw(st.sampled_from(spots))
            cells[i][j] = cells[k][m]
            changed = {i + 1, k + 1}
        return "\n".join(",".join(row) for row in cells) + "\n", changed
    i = data.draw(st.integers(0, len(cells) - 1))
    fields = cells[i]
    j = data.draw(st.integers(0, len(fields) - 1))
    if kind == "quote":
        fields[j] = f'"{fields[j]}"'
    elif kind == "hash":
        fields[j] = pick("#", "#" + fields[j], fields[j] + "#", fields[j] + " # note")
    elif kind == "underscore":
        fields[j] = pick("1_0", "1_000.5", "2e1_0", "_1", "1__0", "1_")
    elif kind == "padded":
        fields[j] = pick(" ", "  ", "\t") + fields[j] + pick("", " ", "\t ")
    elif kind == "non_finite":
        fields[j] = pick("nan", "-nan", "inf", "-inf", "Infinity", "1e400")
    elif kind == "drop_field":
        del fields[j]
    elif kind == "add_field":
        fields.insert(j, pick("1.0", ""))
    elif kind == "empty_field":
        fields[j] = ""
    return "\n".join(",".join(row) for row in cells) + "\n", {i + 1}


# Perturbations of the values and the layout, and of the ids and names.
_CSV_VALUE_KINDS = (
    "none", "quote", "crlf", "blank", "hash", "underscore", "padded",
    "non_finite", "drop_field", "add_field", "empty_field",
)
_CSV_ID_KINDS = ("none", "duplicate_id", "empty_id", "duplicate_name", "empty_name")


def _csv_tables(kinds):
    return dict(
        values=arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(1, 5)),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        ),
        kind=st.sampled_from(kinds),
        data=st.data(),
    )


def _write_perturbed_table(path, values, kind, data, prefixes=("r", "c")):
    """An ``id,<names>`` CSV of ``values``, its ids and names drawn from
    ``prefixes``, perturbed by ``kind``; returns the numbers of the lines the
    perturbation changed."""
    row_prefix, col_prefix = prefixes
    io.write_kernel_csv(
        path, values, _ids(row_prefix, values.shape[0]), _ids(col_prefix, values.shape[1])
    )
    text, changed = _perturb_csv(path.read_text(), kind, data)
    path.write_bytes(text.encode())
    return changed


def _csv_outcome(path):
    """Ids and value bits of a parse, or the type and message of its error."""
    try:
        row_ids, col_ids, values = io.read_features_csv(path)
    except Exception as exc:
        return type(exc), str(exc)
    return row_ids, col_ids, values.dtype.str, values.shape, values.tobytes()


def _row_route_outcome(path):
    with mock.patch.object(io, "_read_table_c", return_value=None):
        return _csv_outcome(path)


def _assert_routes_agree(path, kind):
    expected = _row_route_outcome(path)
    if kind == "none":
        # A clean file never reaches the row route.
        assert io._read_table_c(path) is not None
        with mock.patch.object(io, "_read_csv_rows", side_effect=AssertionError):
            assert _csv_outcome(path) == expected
    assert _csv_outcome(path) == expected


class TestKernelCsvRoutes:
    """numpy's C reader and the csv row route read every ``id,<names>``
    table, kernel or features file, alike: here a kernel file whose values
    or layout are perturbed."""

    @settings(max_examples=300)
    @given(**_csv_tables(_CSV_VALUE_KINDS))
    def test_routes_agree(self, tmp_path_factory, values, kind, data):
        path = tmp_path_factory.getbasetemp() / "routes.csv"
        _write_perturbed_table(path, values, kind, data)
        _assert_routes_agree(path, kind)

    @settings(max_examples=300)
    @given(**_csv_tables(_CSV_VALUE_KINDS + _CSV_ID_KINDS[1:]))
    def test_refusals_name_file_and_line(self, tmp_path_factory, values, kind, data):
        # A fault in the header or a row is reported at that line; copying an
        # id or a name reports either copy's line, and a header whose field
        # count changed may be reported at the first data row.
        path = tmp_path_factory.getbasetemp() / "refused.csv"
        changed = _write_perturbed_table(path, values, kind, data)
        try:
            io.read_features_csv(path)
        except DataError as exc:
            message = str(exc)
        else:
            return
        match = re.match(re.escape(str(path)) + r":(\d+): ", message)
        assert match, message
        assert int(match[1]) in changed | ({2} if 1 in changed else set()), message

    @pytest.mark.parametrize("text", [
        pytest.param("id,c0\nr0,1.5\x1c\n", id="separator-numpy-strips-float-refuses"),
        pytest.param("id,c0\nr0,1.5,2.5\n", id="field-more-than-header"),
        pytest.param("id,c0\n\nr0,1.5\n", id="blank-line-shifts-line-numbers"),
        pytest.param("id,c0\n", id="no-data-rows"),
        pytest.param("id\nr0\n", id="no-value-column"),
        pytest.param("", id="empty"),
        pytest.param("id,c0\nr" + "0" * 131072 + ",1.5\n", id="field-over-csv-size-limit"),
    ])
    def test_refused_files_take_the_row_route(self, tmp_path, text):
        path = tmp_path / "k.csv"
        path.write_bytes(text.encode())
        assert io._read_table_c(path) is None
        assert _csv_outcome(path) == _row_route_outcome(path)


class TestFeatureCsvRoutes:
    """The routes agree on a features file whose sample ids or feature names
    are emptied or copied."""

    @settings(max_examples=300)
    @given(**_csv_tables(_CSV_ID_KINDS))
    def test_routes_agree(self, tmp_path_factory, values, kind, data):
        path = tmp_path_factory.getbasetemp() / "features.csv"
        _write_perturbed_table(path, values, kind, data, prefixes=("s", "f"))
        _assert_routes_agree(path, kind)


class TestStackFiles:
    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_train_stack_round_trip(self, tmp_path, fmt):
        data = make_classification_data(
            n=8, seed=64, group_specs=[("a", 2, "signal"), ("b", 2, "noise")]
        )
        stack = build_linear_kernels(data)
        out = tmp_path / "stack"
        manifest_path = io.write_stack(out, stack, fmt)
        loaded, _ = io.read_stack(manifest_path)
        assert io.read_json(manifest_path)["kind"] == "train"
        assert loaded.group_names == stack.group_names
        assert loaded.row_ids == stack.row_ids
        assert loaded.values.flags.c_contiguous and not loaded.values.flags.writeable
        assert not (loaded.centered or loaded.normalized)
        np.testing.assert_array_equal(loaded.values, stack.values)

        preprocessed = StackPreprocessor().fit(stack).train_stack_
        manifest_path = io.write_stack(tmp_path / "preprocessed", preprocessed, fmt)
        loaded, _ = io.read_stack(manifest_path)
        manifest = io.read_json(manifest_path)
        assert manifest["centered"] is True and manifest["normalized"] is True
        assert loaded.centered and loaded.normalized
        np.testing.assert_array_equal(loaded.values, preprocessed.values)

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_stream_writes_the_stack_bytes(self, tmp_path, fmt):
        data = make_classification_data(
            n=9, seed=67, group_specs=[("a", 2, "signal"), ("b", 3, "noise")]
        )
        io.write_stack(tmp_path / "stack", build_linear_kernels(data), fmt)
        io.write_stack(tmp_path / "stream", LinearKernelStream(data), fmt)
        files = sorted(p.name for p in (tmp_path / "stack").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "stream").iterdir())
        for name in files:
            assert (tmp_path / "stack" / name).read_bytes() == (tmp_path / "stream" / name).read_bytes()

    def test_cross_stack_not_written(self, tmp_path):
        data = make_classification_data(n=8, seed=65, group_specs=[("a", 2, "signal")])
        cross, _ = build_linear_cross_kernels(data, data.features[:3], ("t0", "t1", "t2"))
        with pytest.raises(ValueError, match="train stacks only"):
            io.write_stack(tmp_path / "cross", cross, "csv")
        assert not (tmp_path / "cross").exists()

    def test_manifest_structure(self, tmp_path):
        data = make_classification_data(n=6, seed=66, group_specs=[("a", 2, "signal")])
        stack = build_linear_kernels(data)
        manifest_path = io.write_stack(tmp_path / "stack", stack, "csv")
        manifest = io.read_json(manifest_path)
        assert manifest["manifest_version"] == 2
        assert manifest["kind"] == "train" and manifest["format"] == "csv"
        assert manifest["centered"] is False and manifest["normalized"] is False
        assert manifest["sample_ids"] == list(data.sample_ids)
        # A CSV kernel file's entry records the sha256 of its bytes.
        digest = io.sha256_file(tmp_path / "stack" / "kernel_000.csv")
        assert manifest["groups"] == [
            {"name": "a", "size": 2, "data_file": "kernel_000.csv", "sha256": digest}
        ]
        assert sorted(p.name for p in (tmp_path / "stack").iterdir()) == [
            "kernel_000.csv", "stack.json"
        ]
        assert not list((tmp_path / "stack").glob("*.meta.json"))
        # A binary file carries its ids' digest in its header and no sha256.
        manifest = io.read_json(io.write_stack(tmp_path / "binary", stack, "binary"))
        assert manifest["groups"] == [{"name": "a", "size": 2, "data_file": "kernel_000.bin"}]


class TestPredictionsCsv:
    def test_classification_output(self, tmp_path):
        path = tmp_path / "p.csv"
        io.write_predictions_csv(
            path, ("s0", "s1"), np.array([0.5, -0.25]), labels=["case", "control"]
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "id,decision_value,predicted_label"
        assert lines[1] == "s0,0.5,case"

    def test_regression_output(self, tmp_path):
        path = tmp_path / "p.csv"
        io.write_predictions_csv(path, ("s0",), np.array([1.25]))
        lines = path.read_text().splitlines()
        assert lines == ["id,prediction", "s0,1.25"]


class TestQuotedFields:
    """The CSV writers quote an id, a group name or a class label that holds a
    comma or a quote, so every command reads back what another wrote."""

    def test_round_trip_through_the_commands(self, tmp_path, capsys):
        data = make_classification_data(
            n=20, seed=61, group_specs=[("sig", 3, "signal"), ('b,"x"', 2, "noise")]
        )
        ids = [f"s,{i}" if i % 2 else f's"{i}' for i in range(data.n_samples)]
        names = [f"f{j}" for j in range(data.n_features)]
        classes = {-1.0: 'case,"a"', 1.0: "control,b"}
        sources = tmp_path / "sources"
        sources.mkdir()

        def write(path, rows):
            with open(path, "w", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows(rows)
            return str(path)

        def read(path):
            with open(path, newline="") as fh:
                return list(csv.reader(fh))

        features = write(sources / "features.csv", [["id", *names], *(
            [sid, *map(repr, row)] for sid, row in zip(ids, data.features.tolist()))])
        groups = write(sources / "groups.csv", [["feature", "group"], *(
            [name, data.group_names[g]] for name, g in zip(names, data.groups))])
        targets = write(tmp_path / "targets.csv", [["id", "target"], *(
            [sid, classes[t]] for sid, t in zip(ids, data.targets))])
        stack = str(tmp_path / "stack" / "stack.json")
        assert main(["kernels", "--features", features, "--groups", groups,
                     "--format", "csv", "--out", str(tmp_path / "stack")]) == 0
        for j in range(2):
            rows = read(tmp_path / "stack" / f"kernel_{j:03d}.csv")
            assert rows[0] == ["id", *ids] and [row[0] for row in rows[1:]] == ids

        def train(out):
            return main(["train", "--stack", stack, "--targets", targets,
                         "--task", "classification", "--C", "1", "--mu", "0.5",
                         "--out", str(tmp_path / out)])

        sources.rename(tmp_path / "moved")  # the kernel route parses the kernel files
        assert train("kernel_route.json") == 0
        (tmp_path / "moved").rename(sources)
        assert train("model.json") == 0
        model = json.loads((tmp_path / "model.json").read_text())
        assert model["model"]["sample_ids"] == ids
        assert json.loads((tmp_path / "kernel_route.json").read_text())["model"]["sample_ids"] == ids

        pred = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(tmp_path / "model.json"),
                     "--features", features, "--out", str(pred)]) == 0
        rows = read(pred)
        assert rows[0] == ["id", "decision_value", "predicted_label"]
        assert [row[0] for row in rows[1:]] == ids
        assert all(label == classes[1.0 if float(d) >= 0 else -1.0] for _, d, label in rows[1:])

        weights = tmp_path / "weights.csv"
        assert main(["report", "--model", str(tmp_path / "model.json"), "--csv", str(weights)]) == 0
        assert sorted(row[0] for row in read(weights)[1:]) == sorted(data.group_names)
        assert main(["cv", "--features", features, "--groups", groups, "--targets", targets,
                     "--task", "classification", "--C", "1", "--mu", "0.5", "--k-outer", "2",
                     "--k-inner", "2", "--out", str(tmp_path / "cv")]) == 0
        rows = read(tmp_path / "cv" / "weights.csv")
        assert sorted(row[0] for row in rows[1:]) == sorted(data.group_names)
        assert all(len(row) == 3 for row in rows)


class TestKernelsCommand:
    def test_builds_identical_stacks_on_rerun(self, tmp_path, capsys):
        _, features, groups, _ = _workspace(tmp_path)
        for name in ("run1", "run2"):
            code = main([
                "kernels", "--features", features, "--groups", groups,
                "--out", str(tmp_path / name),
            ])
            assert code == 0
        capsys.readouterr()
        first = sorted((tmp_path / "run1").iterdir())
        second = sorted((tmp_path / "run2").iterdir())
        assert [p.name for p in first] == [p.name for p in second]
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes()

    def test_binary_format(self, tmp_path, capsys):
        _, features, groups, _ = _workspace(tmp_path)
        code = main([
            "kernels", "--features", features, "--groups", groups,
            "--format", "binary", "--out", str(tmp_path / "stack"),
        ])
        assert code == 0
        manifest = io.read_json(tmp_path / "stack" / "stack.json")
        assert manifest["format"] == "binary"
        assert all(e["data_file"].endswith(".bin") for e in manifest["groups"])
        assert len(manifest["sources"]["features_sha256"]) == 64

    def test_holds_one_kernel(self, tmp_path, capsys):
        # A stack of 8 kernels at n=300 is 5.5 MiB: the bound allows one
        # kernel and 2 MiB.
        m, n = 8, 300
        data = make_classification_data(
            n=n, seed=71, group_specs=[(f"g{j}", 4, "signal" if j < 2 else "noise") for j in range(m)]
        )
        features, groups = _write_features(tmp_path, data)
        tracemalloc.start()
        try:
            assert main([
                "kernels", "--features", features, "--groups", groups,
                "--format", "binary", "--out", str(tmp_path / "stack"),
            ]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n + (2 << 20)
        loaded, _ = io.read_stack(tmp_path / "stack" / "stack.json")
        assert loaded.values.tobytes() == build_linear_kernels(data).values.tobytes()

    def test_overflowing_kernel_leaves_no_manifest(self, tmp_path, capsys):
        data, features, groups, _ = _workspace(tmp_path)
        out = tmp_path / "stack"
        args = ["kernels", "--features", features, "--groups", groups, "--out", str(out)]
        assert main(args) == 0
        assert (out / "stack.json").is_file()
        capsys.readouterr()
        # The second group's kernel overflows; the first is written over the
        # old one, so the old manifest must not survive to pair them.
        huge = data.features.copy()
        huge[:, data.group_columns(1)] *= 1e200
        _write_features(tmp_path, data, huge)
        # The overflow is reported once, as the error naming the group and
        # the features file, and not as a numpy warning first.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == 2
        group = data.group_names[1]
        assert capsys.readouterr().err == (
            f"error: {features}: group '{group}': kernel overflows to non-finite entries\n"
        )
        assert not (out / "stack.json").exists()

    def test_unmapped_feature_exits_2(self, tmp_path, capsys):
        _, features, _, _ = _workspace(tmp_path)
        groups = _write(tmp_path / "partial.csv", "feature,group\nf0,a\n")
        code = main([
            "kernels", "--features", features, "--groups", groups,
            "--out", str(tmp_path / "stack"),
        ])
        assert code == 2
        assert "f1" in capsys.readouterr().err


class TestTrainAndPredict:
    def _build_stack(self, tmp_path, features, groups):
        assert main([
            "kernels", "--features", features, "--groups", groups,
            "--out", str(tmp_path / "stack"),
        ]) == 0
        return str(tmp_path / "stack" / "stack.json")

    def test_full_chain_and_path_agreement(self, tmp_path, capsys):
        data, features, groups, targets = _workspace(tmp_path)
        stack = self._build_stack(tmp_path, features, groups)
        model_path = str(tmp_path / "model.json")
        code = main([
            "train", "--stack", stack, "--targets", targets,
            "--task", "classification", "--C", "1.0", "--mu", "0.5",
            "--out", model_path,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "kernel weights" in out and "sig" in out

        payload = io.read_json(model_path)
        assert payload["format_version"] == 1
        assert payload["label_mapping"] == {"case": -1.0, "control": 1.0}
        assert payload["primal"] is not None

        # Feature route: primal weights on the raw feature rows.
        primal_out = str(tmp_path / "pred_features.csv")
        assert main([
            "predict", "--model", model_path, "--features", features,
            "--out", primal_out,
        ]) == 0

        # Kernel route, in process: the stored dual model on a cross stack
        # whose test rows are the train samples.
        pre = StackPreprocessor().fit(build_linear_kernels(data))
        cross = pre.transform_cross(*build_linear_cross_kernels(
            data, data.features, tuple(f"t_{i}" for i in data.sample_ids)
        ))
        dual = predict_model(model_from_dict(payload["model"]), cross)

        lines = open(primal_out).read().splitlines()[1:]
        primal = np.array([float(l.split(",")[1]) for l in lines])
        np.testing.assert_allclose(primal, dual, atol=1e-6)
        assert {l.split(",")[2] for l in lines} <= {"case", "control"}

    def test_regression_chain(self, tmp_path, capsys):
        data, features, groups, targets = _workspace(tmp_path, task="regression")
        stack = self._build_stack(tmp_path, features, groups)
        model_path = str(tmp_path / "model.json")
        assert main([
            "train", "--stack", stack, "--targets", targets,
            "--task", "regression", "--C", "1.0", "--mu", "0.5",
            "--out", model_path,
        ]) == 0
        pred_out = str(tmp_path / "pred.csv")
        assert main([
            "predict", "--model", model_path, "--features", features,
            "--out", pred_out,
        ]) == 0
        lines = open(pred_out).read().splitlines()
        assert lines[0] == "id,prediction"
        assert len(lines) == 21

    def test_baseline_trainer(self, tmp_path, capsys):
        _, features, groups, targets = _workspace(tmp_path)
        stack = self._build_stack(tmp_path, features, groups)
        assert main([
            "train", "--stack", stack, "--targets", targets,
            "--task", "classification", "--C", "1.0",
            "--trainer", "sum-baseline", "--out", str(tmp_path / "m.json"),
        ]) == 0
        payload = io.read_json(tmp_path / "m.json")
        np.testing.assert_allclose(payload["model"]["beta"], [0.5, 0.5])

    def test_predict_into_a_directory_leaves_no_tmp(self, tmp_path, capsys):
        _, features, groups, targets = _workspace(tmp_path)
        stack = self._build_stack(tmp_path, features, groups)
        model_path = str(tmp_path / "model.json")
        assert main([
            "train", "--stack", stack, "--targets", targets,
            "--task", "classification", "--C", "1.0", "--mu", "0.5",
            "--out", model_path,
        ]) == 0
        (tmp_path / "dirout").mkdir()
        assert main([
            "predict", "--model", model_path, "--features", features,
            "--out", str(tmp_path / "dirout"),
        ]) == 2
        assert "Is a directory" in capsys.readouterr().err
        assert not (tmp_path / "dirout.tmp").exists()

    def test_primal_missing_when_sources_moved(self, tmp_path, capsys):
        data, features, groups, targets = _workspace(tmp_path)
        stack = self._build_stack(tmp_path, features, groups)
        os.rename(features, str(tmp_path / "gone.csv"))
        model_path = str(tmp_path / "model.json")
        assert main([
            "train", "--stack", stack, "--targets", targets,
            "--task", "classification", "--C", "1.0", "--mu", "1.0",
            "--out", model_path,
        ]) == 0
        assert io.read_json(model_path)["primal"] is None
        os.rename(str(tmp_path / "gone.csv"), features)
        code = main([
            "predict", "--model", model_path, "--features", features,
            "--out", str(tmp_path / "p.csv"),
        ])
        assert code == 2
        assert "no primal weights" in capsys.readouterr().err

    def test_changed_kernel_file_detected(self, tmp_path, capsys):
        _, features, groups, targets = _workspace(tmp_path)
        stack = self._build_stack(tmp_path, features, groups)
        kernel_file = tmp_path / "stack" / "kernel_000.csv"
        # The file's first "0" is in its header: column id s000 becomes s100.
        kernel_file.write_text(kernel_file.read_text().replace("0", "1", 1))
        capsys.readouterr()
        code = main([
            "train", "--stack", stack, "--targets", targets,
            "--task", "classification", "--C", "1.0", "--mu", "1.0",
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {kernel_file}: kernel ids do not match the manifest\n"
        )

    def test_edited_kernel_file_is_trained_on(self, tmp_path, capsys):
        """A kernel file rewritten with valid, different values no longer has
        its recorded sha256, so train reads the stack's kernel files, sources
        in place or not, and fits the edited kernel."""
        _, features, groups, targets = _workspace(tmp_path)
        stack = self._build_stack(tmp_path, features, groups)
        # Normalization would undo the doubling.
        args = ["train", "--stack", stack, "--targets", targets, "--task", "classification",
                "--C", "1.0", "--mu", "0.5", "--no-normalize", "--out"]
        assert main(args + [str(tmp_path / "intact.json")]) == 0
        path = tmp_path / "stack" / "kernel_000.csv"
        rows, cols, values = io.read_features_csv(path)
        io.write_kernel_csv(path, 2 * values, rows, cols)
        assert main(args + [str(tmp_path / "edited.json")]) == 0
        os.rename(features, tmp_path / "moved.csv")
        assert main(args + [str(tmp_path / "moved.json")]) == 0
        intact, edited, moved = (
            io.read_json(tmp_path / f"{name}.json") for name in ("intact", "edited", "moved")
        )
        assert edited["primal"] is not None and moved["primal"] is None
        for payload in (edited, moved):
            del payload["features"], payload["primal"]
        assert io.dump_json(edited) == io.dump_json(moved)
        assert edited["model"]["beta"] != intact["model"]["beta"]

    def _train(self, tmp_path, *flags):
        """The model.json trained, with its feature files in place, on ``_workspace``."""
        data, features, groups, targets = _workspace(tmp_path)
        stack = self._build_stack(tmp_path, features, groups)
        model_path = tmp_path / "model.json"
        assert main([
            "train", "--stack", stack, "--targets", targets,
            "--task", "classification", "--C", "1.0", "--mu", "0.5",
            "--out", str(model_path), *flags,
        ]) == 0
        return data, features, stack, model_path

    def test_model_holds_only_what_readers_read(self, tmp_path, capsys):
        _, _, _, model_path = self._train(tmp_path, "--no-normalize")
        payload = io.read_json(model_path)
        assert payload["preprocessing"] == {"center": True, "normalize": False}
        assert payload["features"] == {"feature_names": [f"f{j}" for j in range(5)]}

    def test_model_with_preprocessing_statistics_still_loads(self, tmp_path, capsys):
        """A model file that also holds the train kernels' statistics and the
        features' group index, as earlier versions wrote them, predicts and
        reports exactly as the trimmed file does."""
        data, features, stack, model_path = self._train(tmp_path)
        payload = io.read_json(model_path)
        pre = StackPreprocessor().fit(io.read_stack(stack)[0])
        payload["preprocessing"]["groups"] = [
            {
                "name": name, "col_means": st.col_means.tolist(),
                "grand_mean": st.grand_mean, "self_sim": st.self_sim.tolist(),
            }
            for name, st in zip(pre.train_stack_.group_names, pre.stats_)
        ]
        payload["features"]["group_index"] = data.groups.tolist()
        old_path = tmp_path / "old_model.json"
        io.write_json(old_path, payload)

        preds, reports = [], []
        for path in (model_path, old_path):
            pred = tmp_path / f"pred_{path.stem}.csv"
            assert main(["predict", "--model", str(path), "--features", features,
                         "--out", str(pred)]) == 0
            capsys.readouterr()
            assert main(["report", "--model", str(path)]) == 0
            preds.append(pred.read_bytes())
            reports.append(capsys.readouterr().out)
        assert preds[0] == preds[1]
        assert reports[0] == reports[1]


def _route_case(task, seed):
    """Features of 12-20 samples in 1-3 groups of 1-3 columns, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    specs = [(f"g{j}", int(rng.integers(1, 4)), "noise" if j else "signal")
             for j in range(int(rng.integers(1, 4)))]
    make = make_classification_data if task == "classification" else make_regression_data
    return make(n=int(rng.integers(12, 21)), seed=seed, group_specs=specs)


class TestTrainRoutes:
    """``train`` on an intact CSV stack builds its kernels from the source rows
    (the feature route); with the sources moved away it reads and preprocesses
    the kernel files (the kernel route). The two fit the same model."""

    # Over 6 more seeds per task and centered or normalized flag pair, the
    # largest beta difference was 2.3e-9 (classification, whose SMO paths
    # may part at a last bit) and 2.2e-12 (regression).
    BETA_TOL = {"classification": 1e-5, "regression": 1e-10}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "flags", [[], ["--no-center"], ["--no-normalize"], ["--no-center", "--no-normalize"]],
        ids=["default", "no-center", "no-normalize", "raw"],
    )
    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_feature_route_fits_the_kernel_route_model(self, tmp_path, capsys, task, flags, seed):
        data = _route_case(task, 100 * seed + len(flags))
        features, groups = _write_features(tmp_path, data)
        targets = _write(tmp_path / "targets.csv", "id,target\n" + "".join(
            f"{sid},{t!r}\n" for sid, t in zip(data.sample_ids, data.targets.tolist())
        ))
        stack = tmp_path / "stack" / "stack.json"
        assert main(["kernels", "--features", features, "--groups", groups,
                     "--out", str(stack.parent)]) == 0

        def train(name):
            assert main([
                "train", "--stack", str(stack), "--targets", targets, "--task", task,
                "--C", "1", "--mu", "0.5", "--solver-tol", "1e-8", "--conv-tol", "1e-8",
                "--out", str(tmp_path / name), *flags,
            ]) == 0
            return (tmp_path / name).read_bytes()

        with mock.patch.object(io, "read_stack", side_effect=AssertionError("kernel route")):
            feature_route = train("features.json")
        raw = flags == ["--no-center", "--no-normalize"]
        if raw:
            # The feature route builds the raw Grams of the kernel files, bit
            # for bit: a manifest without the files' digests takes the kernel
            # route, its sources in place, to the same model file.
            manifest = json.loads(stack.read_text())
            for entry in manifest["groups"]:
                del entry["sha256"]
            stack.write_text(json.dumps(manifest))
            assert train("undigested.json") == feature_route
        os.rename(features, tmp_path / "moved.csv")
        moved = json.loads(train("moved.json"))
        assert moved["primal"] is None

        got = json.loads(feature_route)
        if raw:
            del got["features"], got["primal"], moved["features"], moved["primal"]
            assert io.dump_json(got) == io.dump_json(moved)
        else:
            np.testing.assert_allclose(
                got["model"]["beta"], moved["model"]["beta"], rtol=0, atol=self.BETA_TOL[task]
            )


class TestTrainInPlace:
    """``train`` preprocesses into the buffer it read the raw kernels into."""

    def _train(self, stack, targets, out, flags):
        assert main([
            "train", "--stack", stack, "--targets", targets, "--task", "classification",
            "--C", "1.0", "--mu", "0.5", "--out", str(out), *flags,
        ]) == 0

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    @pytest.mark.parametrize(
        "flags", [[], ["--no-center"], ["--no-normalize"], ["--no-center", "--no-normalize"]],
        ids=["default", "no-center", "no-normalize", "raw"],
    )
    def test_same_bits_as_a_separate_raw_stack(self, tmp_path, capsys, monkeypatch, fmt, flags):
        _, features, groups, targets = _workspace(tmp_path)
        stack = str(tmp_path / "stack" / "stack.json")
        assert main([
            "kernels", "--features", features, "--groups", groups,
            "--format", fmt, "--out", str(tmp_path / "stack"),
        ]) == 0
        options = {"center": "--no-center" not in flags, "normalize": "--no-normalize" not in flags}

        separate, _ = io.read_stack(stack)
        raw_bits = separate.values.copy()
        expected = StackPreprocessor(**options).fit(separate)
        assert np.array_equal(separate.values.view(np.uint64), raw_bits.view(np.uint64))
        raw, buffer = io.read_stack(stack)
        assert np.shares_memory(raw.values, buffer) and buffer.flags.writeable
        got = StackPreprocessor(**options).fit(raw, out=buffer)
        assert np.shares_memory(got.train_stack_.values, buffer)
        assert got.train_stack_.values.tobytes() == expected.train_stack_.values.tobytes()
        assert len(got.stats_) == len(expected.stats_)
        for a, b in zip(got.stats_, expected.stats_):
            assert _same_bits(a.col_means, b.col_means)
            assert _same_bits(a.grand_mean, b.grand_mean)
            assert _same_bits(a.self_sim, b.self_sim)

        # With its sources moved away, train reads and preprocesses the stack's
        # kernel files; an intact CSV stack would build its kernels from them.
        os.rename(features, tmp_path / "moved.csv")
        self._train(stack, targets, tmp_path / "in_place.json", flags)
        fit = StackPreprocessor.fit
        monkeypatch.setattr(StackPreprocessor, "fit", lambda pre, raw, out=None: fit(pre, raw))
        self._train(stack, targets, tmp_path / "separate.json", flags)
        assert (tmp_path / "in_place.json").read_bytes() == (tmp_path / "separate.json").read_bytes()

    def test_train_holds_one_stack(self, tmp_path, capsys):
        # Two stacks of 8 kernels at n=300 are 11 MiB: the bound allows one,
        # 6 more n x n arrays and 2 MiB.
        m, n = 8, 300
        data = make_classification_data(
            n=n, seed=70, group_specs=[(f"g{j}", 4, "signal" if j < 2 else "noise") for j in range(m)]
        )
        stack = io.write_stack(tmp_path / "stack", build_linear_kernels(data), "binary")
        targets = _write(tmp_path / "targets.csv", "id,target\n" + "".join(
            f"{sid},{t:g}\n" for sid, t in zip(data.sample_ids, data.targets)
        ))
        tracemalloc.start()
        try:
            self._train(str(stack), targets, tmp_path / "model.json", [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * m * n * n + 6 * 8 * n * n + (2 << 20)

    def test_feature_route_holds_no_more_than_binary(self, tmp_path, capsys):
        # The data above, written by kernels with its sources in place: the
        # CSV stack's kernels are built from the feature rows, not parsed.
        m, n = 8, 300
        data = make_classification_data(
            n=n, seed=70, group_specs=[(f"g{j}", 4, "signal" if j < 2 else "noise") for j in range(m)]
        )
        features, groups = _write_features(tmp_path, data)
        targets = _write(tmp_path / "targets.csv", "id,target\n" + "".join(
            f"{sid},{t:g}\n" for sid, t in zip(data.sample_ids, data.targets)
        ))
        peaks = {}
        for fmt in ("csv", "binary"):
            assert main(["kernels", "--features", features, "--groups", groups,
                         "--format", fmt, "--out", str(tmp_path / fmt)]) == 0
            tracemalloc.start()
            try:
                self._train(str(tmp_path / fmt / "stack.json"), targets, tmp_path / f"{fmt}.json", [])
                peaks[fmt] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["csv"] <= peaks["binary"]


def _src_env():
    """The environment with this checkout's package first on the import path."""
    src = str(Path(enmkl.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


_SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_cli_import_leaves_scipy_unloaded():
    # scipy.stats alone costs most of a command's start-up.
    code = f"import sys, enmkl.cli; print({_SCIPY_MODULES})"
    out = subprocess.run(
        [sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_ridge_commands_leave_scipy_unloaded(tmp_path):
    # Ridge solves run on numpy.linalg: no command loads scipy at all.
    _, features, groups, targets = _workspace(tmp_path, task="regression", n=12)
    stack = tmp_path / "stack"
    common = ["--targets", targets, "--task", "regression", "--C", "1.0", "--mu", "0.5"]
    commands = [
        ["kernels", "--features", features, "--groups", groups, "--out", str(stack)],
        ["train", "--stack", str(stack / "stack.json"), *common,
         "--out", str(tmp_path / "model.json")],
        ["cv", "--features", features, "--groups", groups, *common,
         "--k-outer", "2", "--k-inner", "2", "--out", str(tmp_path / "cv")],
    ]
    code = (
        "import json, sys; from enmkl.cli import main; "
        "codes = [main(args) for args in json.loads(sys.argv[1])]; "
        f"print(json.dumps([codes, {_SCIPY_MODULES}]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        env=_src_env(), capture_output=True, text=True, check=True,
    )
    assert json.loads(out.stdout.splitlines()[-1]) == [[0, 0, 0], []]
    assert io.read_json(tmp_path / "model.json")["model"]["task"] == "regression"


_NUMPY_MA_MODULES = "sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma'])"


def test_classification_commands_leave_numpy_ma_unloaded(tmp_path):
    # np.unique imports numpy.ma; the class checks use sets instead.
    _, features, groups, targets = _workspace(tmp_path, n=16)
    stack = tmp_path / "stack"
    common = ["--targets", targets, "--task", "classification", "--C", "1.0", "--mu", "0.5"]
    commands = [
        ["kernels", "--features", features, "--groups", groups, "--out", str(stack)],
        ["train", "--stack", str(stack / "stack.json"), *common,
         "--out", str(tmp_path / "model.json")],
        ["cv", "--features", features, "--groups", groups, *common,
         "--k-outer", "2", "--k-inner", "2", "--out", str(tmp_path / "cv")],
    ]
    code = (
        "import json, sys; from enmkl.cli import main; "
        "codes = [main(args) for args in json.loads(sys.argv[1])]; "
        f"print(json.dumps([codes, {_NUMPY_MA_MODULES}]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        env=_src_env(), capture_output=True, text=True, check=True,
    )
    assert json.loads(out.stdout.splitlines()[-1]) == [[0, 0, 0], []]
    assert io.read_json(tmp_path / "model.json")["model"]["task"] == "classification"


_STARTUP_MODULES = {"enmkl", "enmkl.cli", "enmkl.errors"}
_IO_MODULES = _STARTUP_MODULES | {"enmkl.io"}
_MODEL_MODULES = _IO_MODULES | {"enmkl.model"}
_FIT_MODULES = _MODEL_MODULES | {"enmkl.kernels", "enmkl.mkl", "enmkl.solvers"}
_LOADED_BY_COMMAND = (
    "import json, runpy, sys\n"
    "sys.argv = ['enmkl', *sys.argv[1:]]\n"
    "try:\n"
    "    runpy.run_module('enmkl', run_name='__main__')\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'enmkl')]))"
)


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    # --help runs no numpy code; report --report only io's; kernels no model,
    # solver, fit or cv code; predict and report --model only the model's and
    # io's; train no cv code.
    _, features, groups, targets = _workspace(tmp_path, n=16)
    fit = ["--targets", targets, "--task", "classification", "--C", "1.0", "--mu", "0.5"]
    model, cv = str(tmp_path / "model.json"), tmp_path / "cv"
    assert main(["kernels", "--features", features, "--groups", groups,
                 "--out", str(tmp_path / "stack")]) == 0
    assert main(["train", "--stack", str(tmp_path / "stack" / "stack.json"), *fit,
                 "--out", model]) == 0
    assert main(["cv", "--features", features, "--groups", groups, *fit,
                 "--k-outer", "2", "--k-inner", "2", "--out", str(cv)]) == 0
    report = io.read_json(cv / "report.json")
    report["mean_beta"][0] = float("nan")
    malformed = _write(tmp_path / "malformed.json", json.dumps(report))
    cases = {
        "help": (["--help"], _STARTUP_MODULES),
        "kernels": (["kernels", "--features", features, "--groups", groups,
                     "--out", str(tmp_path / "stack2")], _IO_MODULES | {"enmkl.kernels"}),
        "report-report": (["report", "--report", str(cv / "report.json")], _IO_MODULES),
        "report-malformed-report": (["report", "--report", malformed], _IO_MODULES),
        "train": (["train", "--stack", str(tmp_path / "stack" / "stack.json"), *fit,
                   "--out", str(tmp_path / "model2.json")], _FIT_MODULES),
        "predict": (["predict", "--model", model, "--features", features,
                     "--out", str(tmp_path / "pred.csv")], _MODEL_MODULES),
        "report-model": (["report", "--model", model], _MODEL_MODULES),
        "cv": (["cv", "--features", features, "--groups", groups, *fit, "--k-outer", "2",
                "--k-inner", "2", "--out", str(tmp_path / "cv2")],
               _FIT_MODULES | {"enmkl.evaluation"}),
    }
    # One fresh interpreter per command, all at once.
    children = {
        name: subprocess.Popen(
            [sys.executable, "-c", _LOADED_BY_COMMAND, *argv],
            env=_src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for name, (argv, _) in cases.items()
    }
    for name, (_, allowed) in cases.items():
        out, err = children[name].communicate(timeout=60)
        code, loaded = json.loads(out.splitlines()[-1])
        assert code == (2 if name == "report-malformed-report" else 0), (name, err)
        assert set(loaded) == allowed, name


def test_help_and_refusals_of_the_command_line_load_no_numpy(tmp_path):
    # Each is answered from the command line and the file system alone:
    # numpy's import is most of a command's start-up.
    folder, file = tmp_path / "folder", _write(tmp_path / "file.csv", "id,a\n")
    folder.mkdir()
    written = _write(folder / "report.json", "{}")
    missing = str(tmp_path / "nodir" / "out")
    fit = ["--targets", "t.csv", "--task", "classification", "--C", "1"]
    train = ["train", "--stack", "stack.json", *fit]
    cv = ["cv", "--features", "f.csv", "--groups", "g.csv", *fit]
    cases = [
        (0, ["--help"]),
        *((0, [command, "--help"]) for command in ("kernels", "train", "predict", "cv", "report")),
        (1, ["predict", "--model", "m.json", "--out", "p.csv"]),
        (1, [*train, "--out", "m.json"]),
        (1, [*train, "--trainer", "sum-baseline", "--mu", "0.5", "--out", "m.json"]),
        (1, [*cv, "--grid", "--out", "cv"]),
        (1, ["report"]),
        (1, ["report", "--model", "m.json", "--report", "r.json"]),
        (1, [*train, "--mu", "0.5", "--C", "0", "--out", "m.json"]),
        (2, [*train, "--mu", "0.5", "--out", missing]),
        (2, [*train, "--mu", "0.5", "--out", str(folder)]),
        (2, ["predict", "--model", "m.json", "--features", "f.csv", "--out", str(folder)]),
        (2, ["report", "--model", "m.json", "--csv", missing]),
        (2, ["kernels", "--features", "f.csv", "--groups", "g.csv", "--out", file]),
        (2, [*cv, "--mu", "0.5", "--out", str(Path(file) / "cv")]),
        (2, ["predict", "--model", file, "--features", "f.csv", "--out", file]),
        (2, ["cv", "--features", str(written), "--groups", "g.csv", *fit, "--mu", "0.5",
             "--out", str(folder)]),
    ]
    script = _LOADED_BY_COMMAND + "\nprint(json.dumps('numpy' in sys.modules))"
    for expected, argv in cases:
        out = subprocess.run([sys.executable, "-c", script, *argv], env=_src_env(),
                             capture_output=True, text=True)
        *printed, loaded, numpy = out.stdout.splitlines()
        code, modules = json.loads(loaded)
        assert code == expected, (argv, out.stderr)
        assert set(modules) <= _STARTUP_MODULES and not json.loads(numpy), argv
        # A refusal prints nothing but its one error line.
        assert expected == 0 or (printed == [] and len(out.stderr.splitlines()) == 1), argv


@pytest.mark.parametrize("task", ["classification", "regression"])
def test_fit_options_left_out_take_the_library_defaults(tmp_path, capsys, monkeypatch, task):
    # The CLI passes on only the fit options given; naming the library's
    # defaults explicitly must change no output byte.
    specs = [(f"g{j}", 5, "signal" if j < 2 else "noise") for j in range(6)]
    make = make_classification_data if task == "classification" else make_regression_data
    data = make(n=100, seed=61, group_specs=specs)
    features, groups = _write_features(tmp_path, data)
    targets = _write(tmp_path / "targets.csv", "id,target\n" + "".join(
        f"{sid},{t!r}\n" for sid, t in zip(data.sample_ids, data.targets.tolist())
    ))
    assert main(["kernels", "--features", features, "--groups", groups,
                 "--out", str(tmp_path / "stack")]) == 0
    capsys.readouterr()
    fit = ["--targets", targets, "--task", task]
    defaults = ["--conv-tol", "1e-4", "--max-iter", "200", "--solver-tol", "1e-3",
                "--smo-max-updates", "10000000"]

    def run(folder, options):
        folder.mkdir()
        monkeypatch.chdir(folder)
        assert main(["train", "--stack", str(tmp_path / "stack" / "stack.json"), *fit,
                     "--C", "1", "--mu", "0.5", *options, "--out", "model.json"]) == 0
        assert main(["cv", "--features", features, "--groups", groups, *fit,
                     "--C", "0.1,10", "--mu", "0.5,1", "--k-outer", "3", "--k-inner", "2",
                     "--baseline", *options, "--out", "cv"]) == 0
        files = {p.relative_to(folder): p.read_bytes() for p in folder.rglob("*") if p.is_file()}
        return capsys.readouterr(), files

    left_out, named = run(tmp_path / "left_out", []), run(tmp_path / "named", defaults)
    assert len(left_out[1]) == 4  # model.json and the three cv files
    assert left_out == named


def _run_cli(*args):
    """Run ``python -m enmkl`` in a child process, as a user would."""
    return subprocess.run(
        [sys.executable, "-m", "enmkl", *args], env=_src_env(), capture_output=True, text=True
    )


class TestMalformedStackAndModel:
    """Broken manifests, kernel files and model files exit 2 and name the file."""

    def _stack(self, tmp_path, fmt="csv"):
        _, features, groups, targets = _workspace(tmp_path, n=12)
        assert main([
            "kernels", "--features", features, "--groups", groups,
            "--format", fmt, "--out", str(tmp_path / "stack"),
        ]) == 0
        return tmp_path / "stack", features, targets

    def _train(self, tmp_path, stack_dir, targets):
        return _run_cli(
            "train", "--stack", str(stack_dir / "stack.json"), "--targets", targets,
            "--task", "classification", "--C", "1.0", "--mu", "1.0",
            "--out", str(tmp_path / "model.json"),
        )

    def _assert_data_error(self, result, file_name):
        assert result.returncode == 2, result.stderr
        assert file_name in result.stderr
        assert "Traceback" not in result.stderr

    def _edit_json(self, path, edit):
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj))

    def test_manifest_without_centered_flag(self, tmp_path, capsys):
        stack_dir, _, targets = self._stack(tmp_path)
        self._edit_json(stack_dir / "stack.json", lambda m: m.pop("centered"))
        result = self._train(tmp_path, stack_dir, targets)
        self._assert_data_error(result, "stack.json")
        assert "missing 'centered'" in result.stderr

    def test_ill_typed_manifest_flag(self, tmp_path, capsys):
        stack_dir, _, targets = self._stack(tmp_path)
        self._edit_json(stack_dir / "stack.json", lambda m: m.update(centered="no"))
        result = self._train(tmp_path, stack_dir, targets)
        self._assert_data_error(result, "stack.json")
        assert "'centered' must be true or false" in result.stderr

    @pytest.mark.parametrize("version", [1, None, "2"], ids=["v1", "missing", "string"])
    def test_manifest_of_another_version(self, tmp_path, capsys, version):
        stack_dir, _, targets = self._stack(tmp_path)
        if version is None:
            edit = lambda m: m.pop("manifest_version")
        else:
            edit = lambda m: m.update(manifest_version=version)
        self._edit_json(stack_dir / "stack.json", edit)
        result = self._train(tmp_path, stack_dir, targets)
        self._assert_data_error(result, "stack.json")
        assert "rerun the kernels command" in result.stderr

    def test_cross_manifest_refused(self, tmp_path, capsys):
        stack_dir, _, targets = self._stack(tmp_path)
        self._edit_json(stack_dir / "stack.json", lambda m: m.update(kind="cross"))
        result = self._train(tmp_path, stack_dir, targets)
        self._assert_data_error(result, "stack.json")
        assert "not a train stack (kind 'cross')" in result.stderr

    def test_manifest_ids_disagreeing_with_csv_kernel(self, tmp_path, capsys):
        stack_dir, _, targets = self._stack(tmp_path)
        # Both id lists, as a train stack's are equal (reversing one is refused on its own).
        self._edit_json(stack_dir / "stack.json",
                        lambda m: (m["sample_ids"].reverse(), m["col_ids"].reverse()))
        result = self._train(tmp_path, stack_dir, targets)
        self._assert_data_error(result, "kernel_000.csv")
        assert "kernel ids do not match the manifest" in result.stderr

    def test_ill_typed_manifest_ids(self, tmp_path, capsys):
        stack_dir, _, targets = self._stack(tmp_path)
        self._edit_json(stack_dir / "stack.json", lambda m: m.update(sample_ids="s0"))
        self._assert_data_error(self._train(tmp_path, stack_dir, targets), "stack.json")

    def test_model_without_alpha(self, tmp_path, capsys):
        stack_dir, features, targets = self._stack(tmp_path)
        assert self._train(tmp_path, stack_dir, targets).returncode == 0
        model = tmp_path / "model.json"
        self._edit_json(model, lambda payload: payload["model"].pop("alpha"))
        result = _run_cli(
            "predict", "--model", str(model), "--features", features,
            "--out", str(tmp_path / "p.csv"),
        )
        self._assert_data_error(result, "model.json")
        assert "'alpha'" in result.stderr

    @pytest.mark.parametrize("version", [None, 2, True], ids=["missing", "v2", "bool"])
    def test_model_of_another_format_version(self, tmp_path, capsys, version):
        stack_dir, features, targets = self._stack(tmp_path)
        assert self._train(tmp_path, stack_dir, targets).returncode == 0
        model = tmp_path / "model.json"
        if version is None:
            edit = lambda payload: payload.pop("format_version")
        else:
            edit = lambda payload: payload.update(format_version=version)
        self._edit_json(model, edit)
        result = _run_cli(
            "predict", "--model", str(model), "--features", features,
            "--out", str(tmp_path / "p.csv"),
        )
        self._assert_data_error(result, "model.json")
        assert "format_version" in result.stderr
        assert not (tmp_path / "p.csv").exists()

    def test_ill_typed_model_sections(self, tmp_path, capsys):
        stack_dir, features, targets = self._stack(tmp_path)
        assert self._train(tmp_path, stack_dir, targets).returncode == 0
        model = tmp_path / "model.json"
        self._edit_json(model, lambda payload: payload["model"].update(beta="heavy"))
        assert main(["report", "--model", str(model)]) == 2
        assert "model.json" in capsys.readouterr().err
        self._edit_json(model, lambda payload: payload.update(model=[]))
        assert main(["report", "--model", str(model)]) == 2
        assert "model.json" in capsys.readouterr().err

    def test_ill_typed_label_mapping(self, tmp_path, capsys):
        stack_dir, features, targets = self._stack(tmp_path)
        assert self._train(tmp_path, stack_dir, targets).returncode == 0
        model = tmp_path / "model.json"
        self._edit_json(model, lambda payload: payload.update(label_mapping=[1]))
        result = _run_cli(
            "predict", "--model", str(model), "--features", features,
            "--out", str(tmp_path / "p.csv"),
        )
        self._assert_data_error(result, "model.json")
        assert "label_mapping" in result.stderr

    @pytest.mark.parametrize("edit", [
        lambda primal: primal["weights"].pop(),
        lambda primal: primal["group_names"].append("extra"),
        lambda primal: primal["weights"][0].pop(),
        lambda primal: primal["feature_means"][1].append(0.0),
        lambda primal: primal["group_columns"][1].__setitem__(0, primal["n_features"]),
        lambda primal: primal["group_columns"][0].__setitem__(0, -1),
        lambda primal: primal["group_columns"][0].__setitem__(1, primal["group_columns"][0][0]),
    ], ids=["short-weights", "extra-name", "short-weight-vector", "long-means",
            "column-past-the-end", "negative-column", "repeated-column"])
    def test_inconsistent_primal_lists(self, tmp_path, capsys, edit):
        # decision_values pairs these lists entry by entry, so a model with
        # a group cut short would predict without it.
        stack_dir, features, targets = self._stack(tmp_path)
        assert main([
            "train", "--stack", str(stack_dir / "stack.json"), "--targets", targets,
            "--task", "classification", "--C", "1.0", "--mu", "0.5",
            "--out", str(tmp_path / "model.json"),
        ]) == 0
        model = tmp_path / "model.json"
        self._edit_json(model, lambda payload: edit(payload["primal"]))
        capsys.readouterr()
        code = main([
            "predict", "--model", str(model), "--features", features,
            "--out", str(tmp_path / "p.csv"),
        ])
        assert code == 2
        assert f"error: {model}: malformed model file (" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    # 200,000 ids would ask for a stack of hundreds of GiB: the file must be
    # refused before any array of the manifest's size is allocated.
    @pytest.mark.parametrize("n_ids", [11, 200_000])
    def test_binary_header_disagreeing_with_manifest_ids(self, tmp_path, capsys, n_ids):
        stack_dir, _, targets = self._stack(tmp_path, "binary")
        ids = [f"id{i}" for i in range(n_ids)]
        self._edit_json(stack_dir / "stack.json", lambda m: m.update(sample_ids=ids, col_ids=ids))
        result = self._train(tmp_path, stack_dir, targets)
        self._assert_data_error(result, "kernel_000.bin")
        assert result.stderr.startswith(f"error: {stack_dir / 'kernel_000.bin'}: ")
        assert "12x12" in result.stderr and f"{n_ids} row ids" in result.stderr

    def test_binary_kernel_with_swapped_manifest_ids(self, tmp_path, capsys):
        # Same ids, same count, two of them swapped: without the header's id
        # digest the targets would pair with the wrong kernel rows.
        stack_dir, _, targets = self._stack(tmp_path, "binary")

        def swap(manifest):
            for key in ("sample_ids", "col_ids"):
                ids = manifest[key]
                ids[0], ids[1] = ids[1], ids[0]

        self._edit_json(stack_dir / "stack.json", swap)
        result = self._train(tmp_path, stack_dir, targets)
        self._assert_data_error(result, "kernel_000.bin")
        assert "kernel ids do not match the manifest" in result.stderr
        assert not (tmp_path / "model.json").exists()

    def test_asymmetric_kernel_names_its_file(self, tmp_path, capsys):
        stack_dir, _, targets = self._stack(tmp_path)
        path = stack_dir / "kernel_001.csv"
        rows, cols, values = io.read_features_csv(path)
        values[2, 5] += 1.0
        io.write_kernel_csv(path, values, rows, cols)
        result = self._train(tmp_path, stack_dir, targets)
        self._assert_data_error(result, "kernel_001.csv")
        assert result.stderr == f"error: {path}: train kernel is not symmetric\n"

    def test_non_finite_binary_kernel_names_its_file(self, tmp_path, capsys):
        stack_dir, _, targets = self._stack(tmp_path, "binary")
        path = stack_dir / "kernel_001.bin"
        raw = bytearray(path.read_bytes())
        raw[56 + 8 * 13:56 + 8 * 14] = struct.pack("<d", float("nan"))
        path.write_bytes(bytes(raw))
        result = self._train(tmp_path, stack_dir, targets)
        self._assert_data_error(result, "kernel_001.bin")
        assert result.stderr == f"error: {path}: kernel contains non-finite entries\n"

    def test_binary_kernel_in_the_first_format(self, tmp_path, capsys):
        # The first format: old magic, two uint64 dims, then the values.
        stack_dir, _, targets = self._stack(tmp_path, "binary")
        for path in stack_dir.glob("kernel_*.bin"):
            raw = path.read_bytes()
            path.write_bytes(b"ENMKLKRN" + raw[8:24] + raw[56:])
        result = self._train(tmp_path, stack_dir, targets)
        self._assert_data_error(result, "kernel_000.bin")
        assert "rerun the kernels command" in result.stderr

    def test_repeated_row_id_in_a_csv_kernel(self, tmp_path, capsys):
        stack_dir, _, targets = self._stack(tmp_path)
        path = stack_dir / "kernel_001.csv"
        lines = path.read_text().splitlines()
        rows = io.read_features_csv(path)[0]
        lines[4] = rows[2] + lines[4][len(rows[3]):]
        path.write_text("\n".join(lines) + "\n")
        result = self._train(tmp_path, stack_dir, targets)
        self._assert_data_error(result, "kernel_001.csv")
        assert result.stderr == f"error: {path}:5: duplicate sample id '{rows[2]}'\n"
        assert not (tmp_path / "model.json").exists()


def _edit_manifest(edit):
    """A refusal case: ``train`` on a copy of the stack whose manifest ``edit`` changed."""

    def case(ws, folder):
        shutil.copytree(ws.root / "stack", folder / "stack")
        manifest = json.loads((folder / "stack" / "stack.json").read_text())
        edit(manifest)
        (folder / "stack" / "stack.json").write_text(json.dumps(manifest))
        return ws.train(folder / "stack" / "stack.json"), "stack.json"

    return case


def _renamed_col_ids_case(ws, folder):
    """``train`` on a copy of the CSV stack whose column ids were renamed
    alike in the manifest and in every kernel file's header, which made it
    a cross stack that reached the preprocessing fit."""
    stack = folder / "stack"
    shutil.copytree(ws.root / "stack", stack)
    manifest = json.loads((stack / "stack.json").read_text())
    manifest["col_ids"] = ["x" + i for i in manifest["col_ids"]]
    (stack / "stack.json").write_text(json.dumps(manifest))
    for kernel in stack.glob("kernel_*.csv"):
        header, rest = kernel.read_text().split("\n", 1)
        kernel.write_text(",".join(["id", *manifest["col_ids"]]) + "\n" + rest)
    return ws.train(stack / "stack.json"), (
        f"error: {stack / 'stack.json'}: 'col_ids' must equal 'sample_ids' in a train stack"
    )


def _stray_sample_case(ws, folder):
    """``train`` on a stack whose recorded sources are intact but lack one of
    its samples: the kernels of the workspace's rows with 's003' renamed
    'x003', written with the workspace's features and groups as sources, and
    targets that hold 'x003'."""
    data = io.load_grouped_dataset(ws.features, ws.groups)
    ids = tuple("x003" if i == "s003" else i for i in data.sample_ids)
    stack = build_linear_kernels(dataclasses.replace(data, sample_ids=ids))
    manifest = io.write_stack(folder, stack, "csv", sources=(ws.features, ws.groups))
    targets = _write(folder / "t.csv", Path(ws.targets).read_text().replace("s003,", "x003,"))
    argv = ws.train(manifest)
    argv[argv.index("--targets") + 1] = targets
    return argv, f"error: {manifest}: unknown sample id 'x003' in {Path(ws.features).resolve()}"


def _listed_input_case(listed):
    """A refusal case: ``train --out`` names a file that a copy of the stack's
    manifest lists: its first ``kernel`` file, or the ``source`` features CSV,
    copied beside it and recorded in the manifest in place of the original."""

    def case(ws, folder):
        shutil.copytree(ws.root / "stack", folder / "stack")
        manifest_path = folder / "stack" / "stack.json"
        if listed == "kernel":
            out = folder / "stack" / "kernel_000.csv"
        else:
            out = (folder / "features.csv").resolve()
            shutil.copy(ws.features, out)
            manifest = json.loads(manifest_path.read_text())
            manifest["sources"]["features_file"] = str(out)
            manifest_path.write_text(json.dumps(manifest))
        return ws.train(manifest_path, out), (
            f"error: --out {out}: would overwrite {out}, an input listed in --stack {manifest_path}"
        )

    return case


def _overflowing_targets_case(command, scaled):
    """A refusal case: ``command`` on regression targets whose sum of squares
    overflows, the ridge workspace's targets mapped by ``scaled(t, i)``."""

    def case(ws, folder):
        rows = list(csv.reader(Path(ws.ridge_targets).read_text().splitlines()))[1:]
        targets = _write(folder / "t.csv", "id,target\n" + "".join(
            f"{sid},{scaled(float(t), i)!r}\n" for i, (sid, t) in enumerate(rows)))
        fit = ["--task", "regression", "--C", "10", "--mu", "1.0"]
        argv = (
            ["train", "--stack", str(ws.root / "ridge" / "stack.json"), "--targets", targets,
             *fit, "--out", str(folder / "m.json")]
            if command == "train" else
            ["cv", "--features", ws.ridge_features, "--groups", ws.ridge_groups,
             "--targets", targets, *fit, "--k-outer", "2", "--k-inner", "2",
             "--out", str(folder / "cv")]
        )
        return argv, f"error: {targets}: regression targets too large: their sum of squares overflows"

    return case


def _unparsable_manifest(text):
    """A refusal case: ``train`` on a manifest that json.loads refuses with
    something other than a JSONDecodeError."""

    def case(ws, folder):
        return ws.train(_write(folder / "stack.json", text)), "stack.json: invalid JSON"

    return case


def _wide_field_case(ws, folder):
    """``kernels`` on features whose first value has 200,000 digits, more
    than the csv module reads in one field."""
    lines = Path(ws.features).read_text().splitlines()
    sid, _, rest = lines[1].partition(",")
    lines[1] = sid + ",1" + "0" * 199_999 + rest[rest.index(","):]
    wide = _write(folder / "wide.csv", "\n".join(lines) + "\n")
    argv = ["kernels", "--features", wide, "--groups", ws.groups, "--out", str(folder / "stack")]
    return argv, f"{wide}:2: field larger than field limit"


def _overflowing_decision_case(ws, folder):
    """``predict`` on a copy of the trained model whose primal weights are all
    1e308: finite, so the model loads, but some decision values overflow."""
    payload = json.loads((ws.root / "model.json").read_text())
    payload["primal"]["weights"] = [[1e308] * len(w) for w in payload["primal"]["weights"]]
    model = _write(folder / "m.json", json.dumps(payload))
    argv = ["predict", "--model", model, "--features", ws.features, "--out", str(folder / "p.csv")]
    return argv, f"{ws.features}: sample 's002' has no finite decision value"


def _model_case(command, edit, message):
    """A refusal case: ``predict`` or ``report`` on a copy of the trained model
    that ``edit`` changed, refused with ``message`` after the copy's path."""

    def case(ws, folder):
        payload = json.loads((ws.root / "model.json").read_text())
        edit(payload)
        model = _write(folder / "m.json", json.dumps(payload))
        argv = (
            ["predict", "--model", model, "--features", ws.features, "--out", str(folder / "p.csv")]
            if command == "predict" else ["report", "--model", model]
        )
        return argv, f"{model}: {message}"

    return case


def _model_field_case(command, section, key, value, must="be a finite number"):
    """A refusal case: ``predict`` or ``report`` on a copy of the trained model
    whose ``section`` (``model`` or ``primal``) holds ``value`` at ``key``, or
    ``value(old value)`` when ``value`` is a function, refused because the
    field must ``must``: by default a float field or array that does not
    convert to finite floats."""

    def edit(payload):
        old = payload[section][key]
        payload[section][key] = value(old) if callable(value) else value

    return _model_case(command, edit, f"malformed model file ('{key}' must {must})")


def _overlapping_primal_columns_case(ws, folder):
    """``predict`` on a copy of the trained model whose second primal group
    starts with the first group's first column."""
    payload = json.loads((ws.root / "model.json").read_text())
    columns = payload["primal"]["group_columns"]
    columns[1][0] = columns[0][0]
    model = _write(folder / "m.json", json.dumps(payload))
    argv = ["predict", "--model", model, "--features", ws.features, "--out", str(folder / "p.csv")]
    return argv, f"{model}: malformed model file (a primal group column repeats"


def _quoted_newline_case(ws, folder):
    """``kernels`` on features whose second row's id is a quoted "s\\n1": the
    bad value on the next row is on physical line 4, not record 3."""
    features = _write(folder / "f.csv", 'id,a\n"s\n1",1.0\ns2,x\n')
    groups = _write(folder / "g.csv", "feature,group\na,g\n")
    argv = ["kernels", "--features", features, "--groups", groups, "--out", str(folder / "s")]
    return argv, f"{features}:4: not a number: 'x'"


def _overflow_kernels(case):
    """The kernels of one train-stack refusal: ``fit`` (a 4x4 kernel whose
    normalized entries reach 1e308), ``svm`` (1e308 * I, whose SMO pair
    curvatures overflow) or ``ridge`` (three kernels whose weighted sum
    overflows)."""
    if case == "fit":
        e, h = 1e-200, 1e108
        return [np.array([[e, h, -h, -e], [h, e, -e, -h], [-h, -e, e, h], [-e, -h, h, e]])]
    if case == "svm":
        return [1e308 * np.eye(8)]
    p = random_psd_kernel(np.random.default_rng(0), 6)
    p /= np.abs(p).max()
    return [p * 1e308, np.eye(6) * 1e308, p * 0.5e308]


def _stack_case(case, task, message, *flags):
    """A refusal case: ``train`` on a binary stack of ``_overflow_kernels(case)``,
    refused with ``message`` after the stack's path."""

    def run(ws, folder):
        kernels = _overflow_kernels(case)
        ids = tuple(f"s{i}" for i in range(len(kernels[0])))
        names = tuple(f"g{j}" for j in range(len(kernels)))
        manifest = io.write_stack(folder, KernelStack(np.array(kernels), ids, ids, names,
                                                      (1,) * len(kernels)), "binary")
        targets = _write(folder / "t.csv", "id,target\n" + "".join(
            f"{sid},{(-1) ** i}\n" for i, sid in enumerate(ids)))
        argv = ["train", "--stack", str(manifest), "--targets", targets, "--task", task,
                "--C", "1", "--mu", "0.5" if task == "classification" else "0.1", *flags,
                "--out", str(ws.root / "m.json")]
        return argv, f"error: {manifest}: {message}"

    return run


_RIDGE_OVERFLOW = "the combined kernel overflows: sum_j beta_j max|K_j| = inf"


def _flagged_centered_case(ws, folder):
    """A refusal case: ``train`` on the raw stack, its manifest flagged centered."""
    argv, _ = _edit_manifest(lambda m: m.update(centered=True))(ws, folder)
    return argv, "kernel flagged centered has nonzero row or column means"


def _zero_heldout_slice_case(ws, folder):
    """A refusal case: ``cv`` whose first partition, outer fold 0 (one
    candidate fits no inner fold), holds out a sample whose 'noise' slice
    equals the train mean, so that centering leaves it zero. Every train
    slice stays nonzero, so the held-out sample is the one refused."""
    data, _, groups, targets = _workspace(folder)
    plan = make_fold_plan(data.sample_ids, 2, 2, seed=0, labels=data.targets)
    train_ids, test_ids = plan.outer_folds[0]
    # Nonzero train values summing to 0 exactly; held-out values 0, 1, 1, ...
    signs = (-1.0) ** np.arange(len(train_ids))
    if len(train_ids) % 2:
        signs[-3:] = 1.0, 1.0, -2.0
    values = dict(zip(train_ids, signs))
    values.update(zip(test_ids, [0.0] + [1.0] * (len(test_ids) - 1)))
    features = data.features.copy()
    features[:, data.group_columns(1)] = [[values[i]] * 2 for i in data.sample_ids]
    features_csv, _ = _write_features(folder, data, features)
    argv = ["cv", "--features", features_csv, "--groups", groups, "--targets", targets,
            "--task", "classification", "--C", "1", "--mu", "0.5",
            "--k-outer", "2", "--k-inner", "2", "--out", str(ws.root / "cv")]
    return argv, (f"error: outer fold 0: sample '{test_ids[0]}' has zero norm in feature "
                  "group 'noise' and cannot be normalized")


def _cv_overflow_case(ws, folder):
    """A refusal case: ``cv`` on features whose 'noise' slices overflow their
    norms. Its first partition, outer fold 0 (one candidate fits no inner
    fold), is refused at its first training sample."""
    data, *_ = _workspace(folder)  # the workspace's own data, with its ids
    train_ids = make_fold_plan(data.sample_ids, 2, 2, seed=0, labels=data.targets).outer_folds[0][0]
    return ws.cv(ws.huge), (f"error: outer fold 0: sample '{train_ids[0]}' has overflowing norm "
                            "in feature group 'noise' and cannot be normalized")


def _zero_centered_train_slice_case(ws, folder):
    """A refusal case: ``cv`` whose first partition, outer fold 0, holds as
    its first training sample a 'noise' slice equal to the training mean, so
    that centering leaves it zero and normalizing it is refused."""
    data, *_ = _workspace(folder)
    train_ids = make_fold_plan(data.sample_ids, 2, 2, seed=0, labels=data.targets).outer_folds[0][0]
    # 0 for the first training sample and nonzero values summing to 0 exactly
    # for the rest, so that the training mean is 0; held-out values 1.
    signs = (-1.0) ** np.arange(len(train_ids) - 1)
    if len(signs) % 2:
        signs[-3:] = 1.0, 1.0, -2.0
    values = dict.fromkeys(data.sample_ids, 1.0)
    values.update(zip(train_ids, [0.0, *signs]))
    features = data.features.copy()
    features[:, data.group_columns(1)] = [[values[i]] * 2 for i in data.sample_ids]
    features_csv, _ = _write_features(folder, data, features)
    return ws.cv(features_csv), (f"error: outer fold 0: sample '{train_ids[0]}' has zero norm in "
                                 "feature group 'noise' and cannot be normalized")


def _zero_self_similarity_case(ws, folder):
    """A refusal case: ``train --no-center`` on the kernels of features whose
    sample 's005' has an all-zero 'noise' slice, so that its raw
    self-similarity is 0.0 and normalizing it is refused."""
    data = make_classification_data(
        n=20, seed=60, group_specs=[("sig", 3, "signal"), ("noise", 2, "noise")]
    )
    features = data.features.copy()
    features[5, data.group_columns(1)] = 0.0
    stack = build_linear_kernels(dataclasses.replace(data, features=features))
    manifest = io.write_stack(folder, stack, "binary")
    return ws.train(manifest) + ["--no-center"], (
        f"error: {manifest}: sample 's005' has non-positive self-similarity 0.0 in feature "
        "group 'noise' and cannot be normalized"
    )


def _option_case(command, flag, value):
    def case(ws, folder):
        argv = ws.train(ws.root / "stack" / "stack.json") if command == "train" else ws.cv()
        return argv + [flag, value], f"argument {flag}: "

    return case


def _out_case(command, flag, where):
    """A refusal case: ``command`` whose output ``flag`` names a file in a
    ``missing`` folder, an existing ``folder``, or, for a folder, a ``file``."""

    def case(ws, folder):
        out = {"missing": folder / "no" / "out", "folder": folder,
               "file": Path(ws.features)}[where]
        argv = {
            "train": ws.train(ws.root / "stack" / "stack.json")[:-2],
            "predict": ["predict", "--model", str(ws.root / "model.json"),
                        "--features", ws.features],
            "report": ["report", "--model", str(ws.root / "model.json")],
            "kernels": ["kernels", "--features", ws.features, "--groups", ws.groups],
        }[command]
        fault = {"missing": f"No such directory: {folder / 'no'}", "folder": "Is a directory",
                 "file": f"{out} exists and is not a directory"}[where]
        return [*argv, flag, str(out)], f"error: {flag} {out}: {fault}"

    return case


def _input_case(command):
    """A refusal case: ``command`` whose output would overwrite one of its
    inputs, a copy of the workspace's file in the case's folder. A file
    output is that copy; a folder output (kernels, cv) holds it under the
    name of a file the command writes there."""

    def case(ws, folder):
        model = str(ws.root / "model.json")
        argv, flag, option, source, target = {
            "kernels": (["kernels", "--features", ws.features, "--groups", ws.groups,
                         "--out", folder / "stack"],
                        "--out", "--features", ws.features, folder / "stack" / "kernel_000.csv"),
            "train": (ws.train(ws.root / "stack" / "stack.json"),
                      "--out", "--targets", ws.targets, folder / "t.csv"),
            "predict": (["predict", "--model", model, "--features", ws.features, "--out", "p"],
                        "--out", "--model", model, folder / "m.json"),
            "cv": (ws.cv(), "--out", "--groups", ws.groups, folder / "cv" / "weights.csv"),
            "report": (["report", "--model", model, "--csv", "w"],
                       "--csv", "--model", model, folder / "m.json"),
        }[command]
        target.parent.mkdir(exist_ok=True)
        shutil.copy(source, target)
        out = target.parent if command in ("kernels", "cv") else target
        argv = [str(a) for a in argv]
        argv[argv.index(option) + 1], argv[argv.index(flag) + 1] = str(target), str(out)
        return argv, f"error: {flag} {out}: would overwrite the input {option} {target}"

    return case


# name -> (exit code, case); a case maps the workspace and a folder of its
# own to the command line and to text its error line must hold.
_REFUSALS = {
    **{
        f"{command}{flag}={value}": (1, _option_case(command, flag, value))
        for command in ("train", "cv")
        for flag in ("--C", "--conv-tol", "--solver-tol")
        for value in ("inf", "nan", "0")
        if not (command == "cv" and flag == "--C")
    },
    **{
        f"cv--C={value}": (1, _option_case("cv", "--C", value))
        for value in ("1,inf", "nan", "1,0")
    },
    "cv--seed=-1": (1, _option_case("cv", "--seed", "-1")),
    "train--out-in-a-missing-folder": (2, _out_case("train", "--out", "missing")),
    "train--out-a-folder": (2, _out_case("train", "--out", "folder")),
    "predict--out-a-folder": (2, _out_case("predict", "--out", "folder")),
    "report--csv-in-a-missing-folder": (2, _out_case("report", "--csv", "missing")),
    "kernels--out-a-file": (2, _out_case("kernels", "--out", "file")),
    **{
        f"{command}-output-overwrites-an-input": (2, _input_case(command))
        for command in ("kernels", "train", "predict", "cv", "report")
    },
    "sources-a-list": (2, _edit_manifest(lambda m: m.update(sources=["x"]))),
    "features_file-5": (2, _edit_manifest(lambda m: m["sources"].update(features_file=5))),
    "repeated-group-name": (
        2, _edit_manifest(lambda m: m["groups"][1].update(name=m["groups"][0]["name"]))
    ),
    "no-groups": (2, _edit_manifest(lambda m: m.update(groups=[]))),
    "kernel-sha256-5": (2, _edit_manifest(lambda m: m["groups"][0].update(sha256=5))),
    "size--1": (2, _edit_manifest(lambda m: m["groups"][1].update(size=-1))),
    "col_ids-renamed": (2, _renamed_col_ids_case),
    **{
        f"sources-without-{key}": (2, _edit_manifest(lambda m, key=key: m["sources"].pop(key)))
        for key in ("features_sha256", "groups_sha256")
    },
    "stack-sample-not-in-sources": (2, _stray_sample_case),
    "train--out-a-kernel-file": (2, _listed_input_case("kernel")),
    "train--out-a-source": (2, _listed_input_case("source")),
    "train-targets-times-1e155": (2, _overflowing_targets_case("train", lambda t, i: t * 1e155)),
    "cv-targets-times-1e155": (2, _overflowing_targets_case("cv", lambda t, i: t * 1e155)),
    "train-targets-alternating-1e308": (
        2, _overflowing_targets_case("train", lambda t, i: 1e308 if i % 2 else -1e308)
    ),
    "cv-targets-alternating-1e308": (
        2, _overflowing_targets_case("cv", lambda t, i: 1e308 if i % 2 else -1e308)
    ),
    # An integer of more than 4300 digits is a ValueError, deep nesting a RecursionError.
    "huge-int-manifest": (2, _unparsable_manifest('{"manifest_version": ' + "9" * 5000 + "}")),
    "deep-manifest": (2, _unparsable_manifest("[" * 100_000 + "]" * 100_000)),
    "more-outer-folds-than-samples": (
        2, lambda ws, _: (ws.cv() + ["--k-outer", "21"], f"{ws.features}: k_outer = 21")
    ),
    "kernels-overflow": (
        2, lambda ws, folder: (
            ["kernels", "--features", ws.huge, "--groups", ws.groups, "--out", str(folder)],
            f"{ws.huge}: group 'noise': kernel overflows",
        ),
    ),
    "cv-overflow": (2, _cv_overflow_case),
    "cv-zero-centered-train-slice": (2, _zero_centered_train_slice_case),
    "ridge-C-too-small": (
        2, lambda ws, folder: (
            ["train", "--stack", str(ws.root / "ridge" / "stack.json"), "--targets",
             ws.ridge_targets, "--task", "regression", "--C", "5e-324", "--mu", "0.5",
             "--out", str(folder / "m.json")],
            "C = 5e-324 is too small for 20 samples",
        ),
    ),
    "fit-overflow": (
        2, _stack_case("fit", "classification", "preprocessing makes entries of 2**1023",
                       "--no-center")
    ),
    "svm-curvature-overflow": (
        2, _stack_case("svm", "classification", "the kernel overflows: SMO's pair curvatures",
                       "--no-center", "--no-normalize")
    ),
    "ridge-sum-overflow": (
        2, _stack_case("ridge", "regression", _RIDGE_OVERFLOW, "--no-center", "--no-normalize")
    ),
    "centered-flag-on-raw-kernels": (2, _flagged_centered_case),
    "cv-zero-centered-heldout-slice": (2, _zero_heldout_slice_case),
    "train-zero-self-similarity": (2, _zero_self_similarity_case),
    "csv-field-over-limit": (2, _wide_field_case),
    "csv-quoted-newline": (2, _quoted_newline_case),
    **{
        f"report-{key}={label}": (2, _model_field_case("report", "model", key, value))
        for key, label, value in (
            ("bias", "400-digits", 10 ** 400), ("bias", "NaN", float("nan")),
            ("mu", "400-digits", 10 ** 400), ("C", "Infinity", float("inf")),
            ("beta_raw_sum", "400-digits", -10 ** 400),
            ("objective_history", "400-digits", [1.0, 10 ** 400]),
            ("beta", "NaN", lambda beta: [float("nan"), *beta[1:]]),
            ("alpha", "Infinity", lambda alpha: [*alpha[:-1], float("inf")]),
            ("train_labels", "NaN", lambda labels: [float("nan"), *labels[1:]]),
        )
    },
    "predict-bias=400-digits": (2, _model_field_case("predict", "model", "bias", 10 ** 400)),
    **{
        f"predict-primal-{key}={label}": (2, _model_field_case("predict", "primal", key, value))
        for key, label, value in (
            ("bias", "400-digits", 10 ** 400),
            ("weights", "NaN", lambda w: [[float("nan"), *w[0][1:]], *w[1:]]),
            ("feature_means", "Infinity", lambda m: [[float("inf"), *m[0][1:]], *m[1:]]),
        )
    },
    # A flag must be JSON true or false and a count a JSON integer, not a
    # string, a float or a bool that bool() or int() would take.
    **{
        f"{command}-{section}-{key}={label}": (
            2, _model_field_case(command, section, key, value, must)
        )
        for command, section, key, label, value, must in (
            ("report", "model", "converged", "no", "no", "be true or false"),
            ("report", "model", "iterations", "2.5", 2.5, "be an integer"),
            ("report", "model", "group_sizes", "1.5", lambda sizes: [1.5, *sizes[1:]],
             "be a list of integers"),
            ("predict", "primal", "centered", "false", "false", "be true or false"),
            ("predict", "primal", "n_features", "true", True, "be an integer"),
            ("predict", "primal", "group_columns", "1.5",
             lambda columns: [[1.5, *columns[0][1:]], *columns[1:]], "be a list of integers"),
        )
    },
    "predict-features-a-list": (
        2, _model_case("predict", lambda p: p.update(features=[1]), "malformed model file ('features'")
    ),
    "predict-feature_names-5": (
        2, _model_case("predict", lambda p: p["features"].update(feature_names=5),
                       "malformed model file ('features' must hold 'feature_names'")
    ),
    **{
        f"{command}-label_mapping-a=5-b=7": (
            2, _model_case(command, lambda p: p.update(label_mapping={"a": 5, "b": 7}),
                           "malformed model file ('label_mapping' must map two class labels")
        )
        for command in ("predict", "report")
    },
    "report-malformed-primal": (
        2, _model_case("report", lambda p: p["primal"]["weights"].pop(),
                       "malformed model file (primal group_names, group_columns, weights")
    ),
    "predict-overlapping-primal-columns": (2, _overlapping_primal_columns_case),
    "predict-overflowing-decision": (2, _overflowing_decision_case),
    "predict-overflowing-norm": (
        2, lambda ws, folder: (
            ["predict", "--model", str(ws.root / "model.json"), "--features", ws.huge,
             "--out", str(folder / "p.csv")],
            f"{ws.huge}: sample 's000' has overflowing norm in feature group 'noise'",
        ),
    ),
}


class TestRefusalTable:
    """Each malformed option or input, run as a user runs it, exits 1 or 2
    with one ``error:`` line that names the option or file: no traceback,
    and no numpy warning before it."""

    @pytest.fixture(scope="class")
    def ws(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("refusals")
        data, features, groups, targets = _workspace(root)
        assert main(["kernels", "--features", features, "--groups", groups,
                     "--out", str(root / "stack")]) == 0
        huge = data.features.copy()
        huge[:, data.group_columns(1)] *= 1e200
        (root / "huge").mkdir()
        huge_features, _ = _write_features(root / "huge", data, huge)
        (root / "ridge").mkdir()
        _, ridge_features, ridge_groups, ridge_targets = _workspace(root / "ridge", "regression")
        assert main(["kernels", "--features", ridge_features, "--groups", ridge_groups,
                     "--out", str(root / "ridge")]) == 0

        def train(stack, out=root / "m.json"):
            return ["train", "--stack", str(stack), "--targets", targets,
                    "--task", "classification", "--C", "1", "--mu", "0.5",
                    "--out", str(out)]

        # The model that predicts on the overflowing rows.
        assert main(train(root / "stack" / "stack.json", root / "model.json")) == 0

        def cv(features=features):
            return ["cv", "--features", features, "--groups", groups, "--targets", targets,
                    "--task", "classification", "--C", "1", "--mu", "0.5",
                    "--k-outer", "2", "--k-inner", "2", "--out", str(root / "cv")]

        return SimpleNamespace(root=root, features=features, groups=groups, targets=targets,
                               huge=huge_features, ridge_features=ridge_features,
                               ridge_groups=ridge_groups, ridge_targets=ridge_targets,
                               train=train, cv=cv)

    @pytest.fixture(scope="class")
    def results(self, ws):
        """Every case's child process, two at a time: start-up is most of each."""

        def run(name):
            folder = ws.root / "cases" / name
            folder.mkdir(parents=True)
            argv, names = _REFUSALS[name][1](ws, folder)
            return _run_cli(*argv), names

        with ThreadPoolExecutor(max_workers=2) as pool:
            return dict(zip(_REFUSALS, pool.map(run, _REFUSALS)))

    @pytest.mark.parametrize("name", list(_REFUSALS))
    def test_refused_with_one_error_line(self, ws, results, name):
        result, names = results[name]
        assert result.returncode == _REFUSALS[name][0], result.stderr
        assert len(result.stderr.splitlines()) == 1, result.stderr
        assert result.stderr.startswith("error: ") and names in result.stderr
        assert "Traceback" not in result.stderr and "Warning" not in result.stderr
        assert not (ws.root / "m.json").exists() and not (ws.root / "cv").exists()
        assert not (ws.root / "cases" / name / "p.csv").is_file()


class TestRegressionTargetScale:
    """``cv`` on regression targets times 2**k reports the fits of the
    unscaled targets: the same folds, selections and weights, every mse
    times 4**k, and the same Pearson r. At 2**260 the product
    of the two variances overflows, at 2**-340 it underflows, and the ridge
    fits' objectives fall far below 1 there."""

    SPECS = [("a", 3, "signal"), ("b", 3, "noise"), ("c", 2, "noise"),
             ("d", 4, "signal"), ("e", 2, "noise")]

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("scale")
        data = make_regression_data(n=40, seed=0, group_specs=self.SPECS)
        features, groups = _write_features(root, data)

        def run(k):
            targets = _write(root / f"t{k}.csv", "id,target\n" + "".join(
                f"{sid},{float(t) * 2.0 ** k!r}\n" for sid, t in zip(data.sample_ids, data.targets)))
            out = root / f"cv{k}"
            assert main([
                "cv", "--features", features, "--groups", groups, "--targets", targets,
                "--task", "regression", "--C", "10", "--mu", "1.0", "--k-outer", "2",
                "--k-inner", "2", "--out", str(out),
            ]) == 0
            return json.loads((out / "report.json").read_text())

        return run

    @pytest.mark.parametrize("k", [260, -340])
    def test_scaled_targets_report_the_same_fits(self, run, capsys, k):
        base, scaled = run(0), run(k)
        assert capsys.readouterr().err == ""
        assert scaled["mean_beta"] == base["mean_beta"]
        assert scaled["selected_count"] == base["selected_count"]
        pairs = [(scaled["pooled_metrics"], base["pooled_metrics"])]
        for fold, base_fold in zip(scaled["folds"], base["folds"]):
            assert fold["beta"] == base_fold["beta"]
            assert (fold["selected_c"], fold["iterations"]) == (
                base_fold["selected_c"], base_fold["iterations"]
            )
            pairs.append((fold["metrics"], base_fold["metrics"]))
        for metrics, base_metrics in pairs:
            assert metrics["mse"] == base_metrics["mse"] * 4.0 ** k
            assert metrics["pearson_r"] == base_metrics["pearson_r"]


class TestTargetsAtTheOverflowBoundary:
    """Regression targets are refused exactly where their sum of squares
    overflows float64. One power of ten below that, ``train`` and ``cv``
    exit 0, every JSON number they write is finite, and their own readers
    take the files back."""

    @staticmethod
    def _scaled(folder, targets, scale):
        rows = list(csv.reader(Path(targets).read_text().splitlines()))[1:]
        return _write(folder / f"t{scale:g}.csv", "id,target\n" + "".join(
            f"{sid},{float(t) * scale!r}\n" for sid, t in rows))

    @pytest.fixture(scope="class")
    def ws(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("overflow")
        _, features, groups, targets = _workspace(root, "regression", n=40, seed=62)
        assert main(["kernels", "--features", features, "--groups", groups,
                     "--out", str(root / "stack")]) == 0
        values = [float(t) for _, t in list(csv.reader(Path(targets).read_text().splitlines()))[1:]]

        def sum_of_squares(scale):  # as the targets file scaled by ``scale`` holds them
            return sum((v * scale) * (v * scale) for v in values)

        scale = 1e150
        while math.isfinite(sum_of_squares(scale * 10)):
            scale *= 10
        return SimpleNamespace(root=root, features=features, groups=groups, targets=targets,
                               scale=scale)

    def _commands(self, ws, folder, scale):
        folder.mkdir()
        targets = self._scaled(folder, ws.targets, scale)
        fit = ["--task", "regression", "--C", "10", "--mu", "1.0"]
        return targets, {
            "train": ["train", "--stack", str(ws.root / "stack" / "stack.json"),
                      "--targets", targets, *fit, "--out", str(folder / "m.json")],
            "cv": ["cv", "--features", ws.features, "--groups", ws.groups, "--targets", targets,
                   *fit, "--k-outer", "2", "--k-inner", "2", "--out", str(folder / "cv")],
        }

    @staticmethod
    def _finite_json(path):
        def refuse(constant):
            raise AssertionError(f"{path} holds {constant}")

        return json.loads(Path(path).read_text(), parse_constant=refuse)

    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_largest_finite_scale_is_accepted(self, ws, tmp_path, capsys, command):
        _, argv = self._commands(ws, tmp_path / "ok", ws.scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv[command]) == 0
        if command == "train":
            model = tmp_path / "ok" / "m.json"
            self._finite_json(model)
            assert main(["predict", "--model", str(model), "--features", ws.features,
                         "--out", str(tmp_path / "p.csv")]) == 0
            assert main(["report", "--model", str(model)]) == 0
        else:
            report = tmp_path / "ok" / "cv" / "report.json"
            self._finite_json(report)
            assert main(["report", "--report", str(report)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_ten_times_that_is_refused(self, ws, tmp_path, capsys, command):
        targets, argv = self._commands(ws, tmp_path / "over", ws.scale * 10)
        assert main(argv[command]) == 2
        assert capsys.readouterr().err == (
            f"error: {targets}: regression targets too large: their sum of squares overflows\n"
        )
        assert not (tmp_path / "over" / "m.json").exists()
        assert not (tmp_path / "over" / "cv").exists()


class TestLargeFeatureScales:
    """Large feature scales and offsets. Without normalization, the train
    stack's centered flag is checked relative to each kernel's scale, so a
    correct fit is accepted and both commands exit 0. ``cv`` centers each
    partition's feature rows before it takes products, so a common offset
    costs its kernels no precision, with normalization on too."""

    @staticmethod
    def _kernels_train_and_cv(tmp_path, features, groups, targets):
        assert main([
            "kernels", "--features", features, "--groups", groups,
            "--out", str(tmp_path / "stack"),
        ]) == 0
        assert main([
            "train", "--stack", str(tmp_path / "stack" / "stack.json"), "--targets", targets,
            "--task", "classification", "--C", "1", "--mu", "0.5", "--no-normalize",
            "--out", str(tmp_path / "m.json"),
        ]) == 0
        assert main([
            "cv", "--features", features, "--groups", groups, "--targets", targets,
            "--task", "classification", "--C", "1", "--mu", "0.5", "--k-outer", "2",
            "--k-inner", "2", "--no-normalize", "--out", str(tmp_path / "cv"),
        ]) == 0

    @pytest.mark.parametrize("scale", [1e5, 1e6, 1e8])
    def test_train_and_cv_without_normalization(self, tmp_path, capsys, scale):
        data, _, groups, targets = _workspace(tmp_path, n=30, seed=61)
        features, _ = _write_features(tmp_path, data, data.features * scale)
        self._kernels_train_and_cv(tmp_path, features, groups, targets)
        assert capsys.readouterr().err == ""

    # Unit spread plus a common offset: centering's round-off scales with the
    # raw kernel, not with the centered one that the fit hands on.
    @pytest.mark.parametrize("offset", [1e4, 1e6])
    def test_train_and_cv_without_normalization_at_an_offset(self, tmp_path, capsys, offset):
        data, _, groups, targets = _workspace(tmp_path, n=30, seed=61)
        features, _ = _write_features(tmp_path, data, data.features + offset)
        self._kernels_train_and_cv(tmp_path, features, groups, targets)
        assert capsys.readouterr().err == ""

    @staticmethod
    def _trained_beta(folder, data, offset):
        folder.mkdir()
        features, groups = _write_features(folder, data, data.features + offset)
        targets = _write(folder / "targets.csv", "id,target\n" + "".join(
            f"{i},{'pos' if t > 0 else 'neg'}\n" for i, t in zip(data.sample_ids, data.targets)))
        assert main(["kernels", "--features", features, "--groups", groups,
                     "--out", str(folder / "stack")]) == 0
        assert main([
            "train", "--stack", str(folder / "stack" / "stack.json"), "--targets", targets,
            "--task", "classification", "--C", "1", "--mu", "0.5", "--solver-tol", "1e-6",
            "--out", str(folder / "m.json"),
        ]) == 0
        return json.loads((folder / "m.json").read_text())["model"]["beta"]

    # The data of the cv case below. train builds an intact CSV stack's kernels
    # from the source rows, centered before the products are taken, so an
    # offset costs it no precision: beta stayed within 5e-8 of the unshifted
    # run's. From the kernel files, beta moved by 2e-3 at 1e7 and at 1e8 a
    # self-similarity came out 0.
    @pytest.mark.parametrize("offset", [1e6, 1e7, 1e8])
    def test_train_at_an_offset_matches_the_unshifted_run(self, tmp_path, capsys, offset):
        data = make_classification_data(
            n=40, seed=61, shift=0.7, group_specs=[("sig", 3, "signal"), ("noise", 3, "noise")]
        )
        expected = self._trained_beta(tmp_path / "unshifted", data, 0.0)
        got = self._trained_beta(tmp_path / "shifted", data, offset)
        assert capsys.readouterr().err == ""
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-6)

    @staticmethod
    def _cv_report(folder, data, offset):
        folder.mkdir()
        features, groups = _write_features(folder, data, data.features + offset)
        targets = _write(folder / "targets.csv", "id,target\n" + "".join(
            f"{i},{'pos' if t > 0 else 'neg'}\n" for i, t in zip(data.sample_ids, data.targets)))
        assert main([
            "cv", "--features", features, "--groups", groups, "--targets", targets,
            "--task", "classification", "--C", "1", "--mu", "0.5", "--k-outer", "2",
            "--k-inner", "2", "--solver-tol", "1e-6", "--out", str(folder / "cv"),
        ]) == 0
        return json.loads((folder / "cv" / "report.json").read_text())

    # Unit normals plus a common offset, centered and normalized. Centering a
    # kernel after its products are taken loses about 1e-16 of the offset's
    # square (beta moved by 4e-4 at 1e6; at 1e7 and 1e8 a kernel came out
    # indefinite or a self-similarity 0). Centering the rows first keeps beta
    # within 2e-7 of the unshifted run's at this solver tolerance;
    # MEAN_BETA_TOL leaves a margin of 50.
    MEAN_BETA_TOL = 1e-5

    @pytest.mark.parametrize("offset", [1e6, 1e7, 1e8])
    def test_cv_at_an_offset_matches_the_unshifted_run(self, tmp_path, capsys, offset):
        data = make_classification_data(
            n=40, seed=61, shift=0.7, group_specs=[("sig", 3, "signal"), ("noise", 3, "noise")]
        )
        expected = self._cv_report(tmp_path / "unshifted", data, 0.0)
        capsys.readouterr()
        got = self._cv_report(tmp_path / "shifted", data, offset)
        assert capsys.readouterr().err == ""
        assert got["pooled_metrics"] == pytest.approx(expected["pooled_metrics"], abs=1e-12)
        np.testing.assert_allclose(
            got["mean_beta"], expected["mean_beta"], rtol=0, atol=self.MEAN_BETA_TOL
        )


class TestExitCodes:
    def test_usage_errors_exit_1(self, tmp_path, capsys):
        _, features, groups, targets = _workspace(tmp_path)
        # enmkl without --mu
        assert main([
            "train", "--stack", "x", "--targets", targets,
            "--task", "classification", "--C", "1.0",
            "--out", str(tmp_path / "m.json"),
        ]) == 1
        # --mu outside (0, 1]
        code = main([
            "train", "--stack", "x", "--targets", targets,
            "--task", "classification", "--C", "1.0", "--mu", "0.0",
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == 1
        assert "sum-baseline" in capsys.readouterr().err
        # unknown flag
        assert main(["kernels", "--bogus"]) == 1
        # predict without --features
        assert main([
            "predict", "--model", "m.json", "--out", "p.csv",
        ]) == 1

    def test_a_kernel_whose_smo_curvatures_overflow_exits_2_at_once(self, tmp_path, capsys):
        # Entries up to 1e308 are finite, but SMO's pair curvatures
        # K_ii + K_tt - 2 K_it would overflow: refused before the first update.
        rng = np.random.default_rng(2002)
        k = random_psd_kernel(rng, 8)
        ids = tuple(f"s{i}" for i in range(8))
        io.write_stack(tmp_path, KernelStack((k * (1e308 / np.abs(k).max()))[None], ids, ids,
                                             ("g",), (1,)))
        y = random_labels(rng, 8)
        targets = _write(tmp_path / "t.csv", "id,target\n" + "".join(
            f"{i},{t:g}\n" for i, t in zip(ids, y)))
        start = time.perf_counter()
        code = main([
            "train", "--stack", str(tmp_path / "stack.json"), "--targets", targets,
            "--task", "classification", "--C", "1", "--mu", "0.5", "--no-center",
            "--no-normalize", "--out", str(tmp_path / "m.json"),
        ])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {tmp_path / 'stack.json'}: the kernel overflows: SMO's pair curvatures"
        )
        assert not (tmp_path / "m.json").exists()

    def test_a_ridge_fit_whose_combined_kernel_overflows_exits_2(self, tmp_path, capsys):
        # Each kernel is finite, but at the second iterate sum_j beta_j
        # max|K_j| is not: refused before the sum, with no overflow or invalid
        # operation on the way. (The first iterate's block norms underflow,
        # alpha being about 1e-308, which is harmless and which numpy ignores
        # by default.)
        argv, line = _stack_case(
            "ridge", "regression", _RIDGE_OVERFLOW, "--no-center", "--no-normalize"
        )(SimpleNamespace(root=tmp_path), tmp_path)
        with np.errstate(all="raise", under="ignore"):
            assert main(argv) == 2
        assert capsys.readouterr().err == line + "\n"
        assert not (tmp_path / "m.json").exists()

    def test_predict_needs_features(self, capsys):
        assert main(["predict", "--model", "m.json", "--out", "p.csv"]) == 1
        assert "the following arguments are required: --features" in capsys.readouterr().err

    def test_predict_from_a_kernel_stack_exits_1(self, capsys):
        # Prediction goes through the primal weights only; --stack is no option.
        assert main([
            "predict", "--model", "m.json", "--features", "f.csv", "--stack", "x",
            "--out", "p.csv",
        ]) == 1
        assert "unrecognized arguments: --stack x" in capsys.readouterr().err

    # Each option's range is checked as argparse converts it, before any file
    # is opened: a value that slipped through would exit 2 on the missing files.
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--C", "0"), ("--C", "-1"), ("--C", "nan"), ("--C", "inf"), ("--C", "x"),
            ("--mu", "0"), ("--mu", "1.5"), ("--mu", "nan"),
            ("--conv-tol", "0"), ("--conv-tol", "nan"), ("--conv-tol", "inf"),
            ("--solver-tol", "-1e-3"), ("--solver-tol", "nan"), ("--solver-tol", "inf"),
            ("--max-iter", "0"), ("--smo-max-updates", "0"), ("--max-iter", "1.5"),
        ],
    )
    def test_out_of_range_train_option_exits_1(self, tmp_path, capsys, flag, value):
        options = {"--C": "1.0", "--mu": "0.5", flag: value}
        code = main([
            "train", "--stack", str(tmp_path / "none.json"), "--targets", "none.csv",
            "--task", "classification", *(t for item in options.items() for t in item),
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == 1
        assert f"argument {flag}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--C", "1,0"), ("--C", "nan"), ("--C", "1,inf"), ("--C", "1,x"),
            ("--mu", "0.5,0"), ("--mu", "nan,1"), ("--mu", "1.5"),
            ("--k-outer", "1"), ("--k-inner", "0"),
            ("--conv-tol", "-1"), ("--conv-tol", "inf"), ("--solver-tol", "nan"),
            ("--max-iter", "0"), ("--smo-max-updates", "-5"), ("--seed", "-1"),
        ],
    )
    def test_out_of_range_cv_option_exits_1(self, tmp_path, capsys, flag, value):
        code = main([
            "cv", "--features", "none.csv", "--groups", "none.csv", "--targets", "none.csv",
            "--task", "classification", flag, value, "--out", str(tmp_path / "cv"),
        ])
        assert code == 1
        assert f"argument {flag}: " in capsys.readouterr().err
        assert not (tmp_path / "cv").exists()

    def test_edge_values_still_parse(self):
        parser = build_parser()
        train = parser.parse_args([
            "train", "--stack", "s", "--targets", "t", "--task", "regression",
            "--C", "1.7976931348623157e308", "--mu", "5e-324", "--conv-tol", "1e-300",
            "--solver-tol", "1.7976931348623157e308",
            "--max-iter", "1", "--smo-max-updates", "1", "--out", "m",
        ])
        assert (train.C, train.mu, train.conv_tol, train.solver_tol) == (
            sys.float_info.max, 5e-324, 1e-300, sys.float_info.max
        )
        assert (train.max_iter, train.max_updates) == (1, 1)
        assert parser.parse_args([
            "train", "--stack", "s", "--targets", "t", "--task", "regression",
            "--C", "1e-300", "--mu", "1", "--out", "m",
        ]).mu == 1.0
        cv = parser.parse_args([
            "cv", "--features", "f", "--groups", "g", "--targets", "t",
            "--task", "regression", "--C", "1e-300,1.7976931348623157e308", "--mu", "1,5e-324",
            "--k-outer", "2", "--k-inner", "2", "--out", "o",
        ])
        assert cv.C == (1e-300, sys.float_info.max) and cv.mu == (1.0, 5e-324)
        assert (cv.k_outer, cv.k_inner) == (2, 2)

    def test_a_library_value_error_is_a_bug_not_a_data_error(self, tmp_path, monkeypatch, capsys):
        # Only a DataError or an OSError exits 2: a plain ValueError from inside
        # the library propagates, so it is not passed off as bad input.
        _, features, groups, _ = _workspace(tmp_path)

        def boom(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(enmkl.kernels, "linear_gram", boom)
        with pytest.raises(ValueError, match="boom"):
            main(["kernels", "--features", features, "--groups", groups,
                  "--out", str(tmp_path / "stack")])
        assert capsys.readouterr().err == ""

    def test_data_errors_exit_2(self, tmp_path, capsys):
        _, features, groups, targets = _workspace(tmp_path)
        bad = _write(tmp_path / "bad.csv", "id,a\ns0,notanumber\n")
        code = main([
            "kernels", "--features", bad, "--groups", groups,
            "--out", str(tmp_path / "stack"),
        ])
        assert code == 2
        assert "bad.csv:2" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main([
            "kernels", "--features", str(tmp_path / "nope.csv"),
            "--groups", str(tmp_path / "nope2.csv"),
            "--out", str(tmp_path / "stack"),
        ]) == 2

    def test_solver_stall_exits_3(self, tmp_path, capsys):
        _, features, groups, targets = _workspace(tmp_path)
        assert main([
            "kernels", "--features", features, "--groups", groups,
            "--out", str(tmp_path / "stack"),
        ]) == 0
        code = main([
            "train", "--stack", str(tmp_path / "stack" / "stack.json"),
            "--targets", targets, "--task", "classification",
            "--C", "1.0", "--mu", "1.0", "--smo-max-updates", "1",
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == 3
        assert "exceeded" in capsys.readouterr().err

    def test_more_outer_folds_than_samples_exits_2(self, tmp_path, capsys):
        _, features, groups, targets = _workspace(tmp_path)
        code = main([
            "cv", "--features", features, "--groups", groups, "--targets", targets,
            "--task", "classification", "--C", "1.0", "--mu", "1.0",
            "--k-outer", "21", "--out", str(tmp_path / "cv"),
        ])
        assert code == 2
        assert "k_outer = 21 exceeds the 20 available samples" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "kernels" in capsys.readouterr().out


class TestCvCommand:
    def test_report_files_and_determinism(self, tmp_path, capsys):
        _, features, groups, targets = _workspace(tmp_path, n=18, seed=67)
        common = [
            "cv", "--features", features, "--groups", groups,
            "--targets", targets, "--task", "classification",
            "--C", "1.0", "--mu", "0.5,1.0",
            "--k-outer", "3", "--k-inner", "2", "--seed", "4",
            "--baseline",
        ]
        assert main(common + ["--out", str(tmp_path / "cv1")]) == 0
        out = capsys.readouterr().out
        assert "pooled:" in out and "baseline" in out
        assert main(common + ["--out", str(tmp_path / "cv2")]) == 0
        capsys.readouterr()

        report1 = (tmp_path / "cv1" / "report.json").read_bytes()
        report2 = (tmp_path / "cv2" / "report.json").read_bytes()
        assert report1 == report2
        assert (tmp_path / "cv1" / "report_baseline.json").exists()

        weights = (tmp_path / "cv1" / "weights.csv").read_text().splitlines()
        assert weights[0] == "group,mean_weight,n_features"
        assert len(weights) == 3

    def test_failed_fit_leaves_no_out_folder(self, tmp_path, capsys):
        _, features, groups, targets = _workspace(tmp_path, n=18, seed=67)
        out = tmp_path / "cvout"
        assert main([
            "cv", "--features", features, "--groups", groups,
            "--targets", targets, "--task", "classification",
            "--C", "1.0", "--mu", "0.5", "--k-outer", "3", "--k-inner", "2",
            "--smo-max-updates", "1", "--out", str(out),
        ]) == 3
        # One candidate: no inner fold is fitted, so the first outer fit fails.
        assert capsys.readouterr().err.startswith(
            "error: outer fold 0: C=1 mu=0.5: SMO exceeded 1 updates"
        )
        assert not out.exists()

    @pytest.mark.parametrize("where", ["under_a_file", "a_file"])
    def test_out_that_cannot_be_a_folder_is_refused_before_the_fits(
        self, tmp_path, capsys, monkeypatch, where
    ):
        from enmkl import cli

        _, features, groups, targets = _workspace(tmp_path, n=18, seed=67)
        blocker = tmp_path / "cvfile"
        blocker.write_text("not a folder\n")
        out = blocker / "sub" if where == "under_a_file" else blocker
        fits = []
        monkeypatch.setattr(cli, "nested_cv", lambda *a, **k: fits.append(1))
        before = sorted(tmp_path.rglob("*"))
        assert main([
            "cv", "--features", features, "--groups", groups,
            "--targets", targets, "--task", "classification",
            "--C", "1.0", "--mu", "0.5", "--k-outer", "3", "--k-inner", "2",
            "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert f"--out {out}: {blocker} exists and is not a directory" in err
        assert fits == []
        assert sorted(tmp_path.rglob("*")) == before
        assert blocker.read_text() == "not a folder\n"

    def test_work_per_partition(self, tmp_path, capsys, monkeypatch):
        """``cv --baseline`` builds each partition's kernels once and solves
        each (partition, C) beta = 1/m problem once, all through the
        functions a tracer wraps: ``cli.nested_cv``, the kernel builders
        ``evaluation`` calls, ``StackPreprocessor``, the three trainers and
        the SMO solver. The kernels are built from preprocessed feature rows,
        so ``StackPreprocessor.fit`` never runs, and held-out samples are
        scored through primal weights, so no cross kernel is built or
        transformed."""
        from enmkl import cli, evaluation, kernels, mkl, solvers

        log = {"cv": 0, "build": 0, "build_cross": 0, "fit": 0, "transform": 0}
        fits, smo, open_fits = [], [], []

        def wrap(owner, name, record):
            inner = getattr(owner, name)

            def wrapper(*args, **kwargs):
                record(*args, **kwargs)
                return inner(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        def counter(key):
            return lambda *args, **kwargs: log.__setitem__(key, log[key] + 1)

        def fitter(kind):
            inner = getattr(mkl, kind)

            def wrapper(stack, targets, *args, **kwargs):
                open_fits.append(kind)
                try:
                    model = inner(stack, targets, *args, **kwargs)
                finally:
                    open_fits.pop()
                fits.append((kind, stack.row_ids, model.C, kwargs.get("start"), model))
                return model

            monkeypatch.setattr(mkl, kind, wrapper)

        wrap(cli, "nested_cv", counter("cv"))
        wrap(evaluation, "build_linear_kernels", counter("build"))
        wrap(evaluation, "build_linear_cross_kernels", counter("build_cross"))
        wrap(kernels.StackPreprocessor, "fit", counter("fit"))
        wrap(kernels.StackPreprocessor, "transform_cross", counter("transform"))
        wrap(solvers, "solve_svm_dual",
             lambda *a, alpha0=None, **k: smo.append((alpha0 is None, list(open_fits))))
        for kind in ("train_enmkl_svm", "train_enmkl_krr", "train_sum_baseline"):
            fitter(kind)

        k_outer, k_inner, c_values, mu_values = 3, 2, (0.1, 10.0), (0.5, 1.0)
        _, features, groups, targets = _workspace(tmp_path, n=24, seed=69)
        assert main([
            "cv", "--features", features, "--groups", groups,
            "--targets", targets, "--task", "classification",
            "--C", "0.1,10", "--mu", "0.5,1.0", "--k-outer", str(k_outer),
            "--k-inner", str(k_inner), "--seed", "5", "--baseline",
            "--out", str(tmp_path / "cv"),
        ]) == 0
        capsys.readouterr()

        partitions = k_outer * k_inner + k_outer
        assert log == {
            "cv": 1, "build": partitions, "build_cross": 0, "fit": 0, "transform": 0,
        }
        # The outer partitions fit the Cs that enmkl and the baseline picked.
        folds = [
            json.loads((tmp_path / "cv" / name).read_text())["folds"]
            for name in ("report.json", "report_baseline.json")
        ]
        outer_cs = sum(len({a["selected_c"], b["selected_c"]}) for a, b in zip(*folds))
        # A beta = 1/m solve is a baseline fit or a cold enmkl fit: one per (partition, C).
        cold = [(ids, C) for kind, ids, C, start, _ in fits
                if kind == "train_sum_baseline" or start is None]
        assert len(cold) == len(set(cold)) == k_outer * k_inner * len(c_values) + outer_cs
        enmkl_fits = [f for f in fits if f[0] == "train_enmkl_svm"]
        assert len(enmkl_fits) == k_outer * k_inner * len(c_values) * len(mu_values) + k_outer
        assert len(fits) - len(enmkl_fits) == k_outer * k_inner * len(c_values) + k_outer
        # Every SMO solve runs inside a wrapped fit, and the solves add up to
        # one per baseline fit plus one per enmkl iteration not started.
        assert all(inside for _, inside in smo)
        assert sum(is_cold for is_cold, _ in smo) == len(cold)
        assert len(smo) == sum(
            1 if kind == "train_sum_baseline" else model.iterations - (start is not None)
            for kind, _, _, start, model in fits
        )

    def test_failing_baseline_refit_writes_no_report(self, tmp_path, capsys, monkeypatch):
        """Both reports come from one pass: when the baseline's outer refit
        fails, ``cv --baseline`` exits 3 and writes neither report, nor its
        ``--out`` folder."""
        from enmkl import mkl
        from enmkl.errors import ConvergenceError

        inner = mkl.train_sum_baseline
        outer_rows = 12  # n=18, k_outer=3; inner partitions hold 6 rows

        def failing(stack, *args, **kwargs):
            if stack.n_rows == outer_rows:
                raise ConvergenceError("SMO exceeded 1 updates (baseline refit)")
            return inner(stack, *args, **kwargs)

        monkeypatch.setattr(mkl, "train_sum_baseline", failing)
        _, features, groups, targets = _workspace(tmp_path, n=18, seed=67)
        out_dir = tmp_path / "cv"
        assert main([
            "cv", "--features", features, "--groups", groups,
            "--targets", targets, "--task", "classification",
            "--C", "1.0", "--mu", "0.5,1.0", "--k-outer", "3", "--k-inner", "2",
            "--seed", "4", "--baseline", "--out", str(out_dir),
        ]) == 3
        captured = capsys.readouterr()
        assert "baseline refit" in captured.err
        assert captured.out == ""
        assert not out_dir.exists()

    def test_one_candidate_still_needs_a_usable_inner_fold(self, tmp_path, capsys):
        """A one-candidate run fits no inner fold, but its inner folds are
        still checked: when each inner fold of outer fold 0 strands a class,
        ``nested_cv`` refuses and ``cv`` exits 2, as with a longer grid."""
        from enmkl.evaluation import FoldPlan, HyperGrid, nested_cv

        data, features, groups, targets = _workspace(tmp_path, n=18, seed=67)
        pos = [i for i, t in zip(data.sample_ids, data.targets) if t > 0]
        neg = [i for i, t in zip(data.sample_ids, data.targets) if t < 0]
        train0, test0 = tuple(pos[:6] + neg[:6]), tuple(pos[6:] + neg[6:])
        plan = FoldPlan(
            sample_ids=tuple(data.sample_ids),
            outer_folds=((train0, test0), (test0, train0)),
            inner_folds=(
                # Each inner fold of outer fold 0 trains on one class only.
                ((tuple(neg[:6]), tuple(pos[:6])), (tuple(pos[:6]), tuple(neg[:6]))),
                (
                    ((pos[7], pos[8], neg[7], neg[8]), (pos[6], neg[6])),
                    ((pos[6], neg[6]), (pos[7], pos[8], neg[7], neg[8])),
                ),
            ),
        )
        grid = HyperGrid(c_values=(1.0,), mu_values=(0.5,))
        message = "no inner fold of outer fold 0 could score any candidate"
        with pytest.raises(DataError, match=message):
            nested_cv(data, "classification", plan, grid=grid)

        # On the CLI, class-pure blocks strand every inner fold the same way.
        block_of = {i: "n" for i in neg} | {i: "p1" for i in pos[:5]} | {i: "p2" for i in pos[5:]}
        blocks = _write(tmp_path / "blocks.csv", "id,block\n" + "".join(
            f"{sid},{block_of[sid]}\n" for sid in data.sample_ids
        ))
        out = tmp_path / "cv"
        assert main([
            "cv", "--features", features, "--groups", groups,
            "--targets", targets, "--task", "classification",
            "--C", "1.0", "--mu", "0.5", "--k-outer", "3", "--k-inner", "2",
            "--blocks", blocks, "--out", str(out),
        ]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_grid_flag_conflicts_with_explicit_values(self, tmp_path, capsys):
        _, features, groups, targets = _workspace(tmp_path)
        assert main([
            "cv", "--features", features, "--groups", groups,
            "--targets", targets, "--task", "classification",
            "--grid", "--C", "1.0", "--out", str(tmp_path / "cv"),
        ]) == 1

    def test_blocks_flag(self, tmp_path, capsys):
        data, features, groups, targets = _workspace(tmp_path, n=16, seed=68)
        block_lines = ["id,block"] + [
            f"{sid},b{i // 2}" for i, sid in enumerate(data.sample_ids)
        ]
        blocks = _write(tmp_path / "blocks.csv", "\n".join(block_lines) + "\n")
        assert main([
            "cv", "--features", features, "--groups", groups,
            "--targets", targets, "--task", "classification",
            "--C", "1.0", "--mu", "1.0",
            "--k-outer", "2", "--k-inner", "2", "--blocks", blocks,
            "--out", str(tmp_path / "cv"),
        ]) == 0
        capsys.readouterr()

    def test_mu_zero_in_grid_exits_1(self, tmp_path, capsys):
        _, features, groups, targets = _workspace(tmp_path)
        code = main([
            "cv", "--features", features, "--groups", groups,
            "--targets", targets, "--task", "classification",
            "--C", "1.0", "--mu", "0.0,0.5", "--out", str(tmp_path / "cv"),
        ])
        assert code == 1
        assert "baseline" in capsys.readouterr().err


class TestReportCommand:
    def test_prints_model_weights(self, tmp_path, capsys):
        _, features, groups, targets = _workspace(tmp_path)
        assert main([
            "kernels", "--features", features, "--groups", groups,
            "--out", str(tmp_path / "stack"),
        ]) == 0
        assert main([
            "train", "--stack", str(tmp_path / "stack" / "stack.json"),
            "--targets", targets, "--task", "classification",
            "--C", "1.0", "--mu", "1.0", "--out", str(tmp_path / "m.json"),
        ]) == 0
        capsys.readouterr()
        assert main(["report", "--model", str(tmp_path / "m.json")]) == 0
        out = capsys.readouterr().out
        assert "kernel weights" in out and "sig" in out

    def test_prints_cv_report_and_writes_csv(self, tmp_path, capsys):
        _, features, groups, targets = _workspace(tmp_path, n=18, seed=69)
        assert main([
            "cv", "--features", features, "--groups", groups,
            "--targets", targets, "--task", "classification",
            "--C", "1.0", "--mu", "1.0", "--k-outer", "3", "--k-inner", "2",
            "--out", str(tmp_path / "cv"),
        ]) == 0
        capsys.readouterr()
        csv_out = str(tmp_path / "w.csv")
        assert main([
            "report", "--report", str(tmp_path / "cv" / "report.json"),
            "--csv", csv_out,
        ]) == 0
        assert "pooled:" in capsys.readouterr().out
        assert open(csv_out).readline().strip() == "group,mean_weight,n_features"

    @pytest.mark.parametrize("task,extra", [("classification", ["--baseline"]), ("regression", [])])
    def test_reprints_what_cv_printed_and_wrote(self, tmp_path, capsys, task, extra):
        # report --report renders a report file as cv rendered the report it
        # wrote: the printout up to the baseline comparison, and weights.csv.
        _, features, groups, targets = _workspace(tmp_path, task, n=18, seed=69)
        cv = tmp_path / "cv"
        assert main([
            "cv", "--features", features, "--groups", groups, "--targets", targets,
            "--task", task, "--C", "0.5,2", "--mu", "0.5,1", "--k-outer", "3", "--k-inner", "2",
            *extra, "--out", str(cv),
        ]) == 0
        printed = capsys.readouterr().out.partition("\nsum-baseline comparison")[0]
        printed = printed.removesuffix(f"wrote report to {cv / 'report.json'}\n")
        csv_out = tmp_path / "w.csv"
        assert main(["report", "--report", str(cv / "report.json"), "--csv", str(csv_out)]) == 0
        assert capsys.readouterr().out == printed + f"wrote weights to {csv_out}\n"
        assert csv_out.read_bytes() == (cv / "weights.csv").read_bytes()
        if extra:
            assert main(["report", "--report", str(cv / "report_baseline.json")]) == 0
            assert "trainer: sum-baseline" in capsys.readouterr().out

    def test_requires_exactly_one_input(self, capsys):
        assert main(["report"]) == 1
        assert main(["report", "--model", "a", "--report", "b"]) == 1

    def test_wrong_file_kind_exits_2(self, tmp_path, capsys):
        path = _write(tmp_path / "x.json", '{"not": "a model"}\n')
        assert main(["report", "--model", str(path)]) == 2

    _REPORT = {
        "task": "classification", "trainer": "enmkl", "seed": 0,
        "group_names": ["a", "b"], "group_sizes": [2, 3], "mean_beta": [0.25, 0.75],
        "selected_count": 2, "pooled_metrics": {"accuracy": 0.5},
        "folds": [{"fold_index": 0, "selected_c": 1.0, "selected_mu": 0.5,
                   "metrics": {"accuracy": 0.5}}],
    }

    def test_hand_written_report_prints(self, tmp_path, capsys):
        path = _write(tmp_path / "r.json", json.dumps(self._REPORT))
        assert main(["report", "--report", path, "--csv", str(tmp_path / "w.csv")]) == 0
        out = capsys.readouterr().out
        assert "fold 0: C=1 mu=0.5  accuracy=0.5000" in out and "b  " in out
        assert (tmp_path / "w.csv").read_text() == (
            "group,mean_weight,n_features\nb,0.75,3\na,0.25,2\n"
        )

    @staticmethod
    def _fold(**changes):
        """An edit of ``_REPORT``'s copy that sets these keys of its first fold."""
        return lambda report: report["folds"][0].update(changes)

    @pytest.mark.parametrize(
        "payload,message",
        [
            ({"pooled_metrics": {}}, "missing 'task'"),
            (5, "not a cross-validation report"),
            ([], "not a cross-validation report"),
            (lambda report: report["folds"][0].pop("selected_c"), "folds[0]: missing 'selected_c'"),
            ({**_REPORT, "mean_beta": ["x", 0.75]}, "'mean_beta' must hold one finite number"),
            ({**_REPORT, "mean_beta": [0.25]}, "'mean_beta' must hold one finite number"),
            ({**_REPORT, "pooled_metrics": []}, "'pooled_metrics' must be an object"),
            ({**_REPORT, "mean_beta": [float("nan"), 0.75]}, "'mean_beta' must hold one finite"),
            ({**_REPORT, "mean_beta": [float("inf"), 0.75]}, "'mean_beta' must hold one finite"),
            ({**_REPORT, "mean_beta": [10 ** 400, 0.75]}, "'mean_beta' must hold one finite"),
            ({**_REPORT, "group_sizes": ["x", 3]}, "'group_sizes' must hold one positive integer"),
            (_fold(selected_c=True), "folds[0]: 'selected_c' must be a finite number"),
            (_fold(selected_c=-1), "folds[0]: 'selected_c' must be positive"),
            (_fold(selected_mu=0), "folds[0]: 'selected_mu' must be null or lie in (0, 1]"),
            (_fold(selected_mu=1.5), "folds[0]: 'selected_mu' must be null or lie in"),
            (_fold(metrics={"accuracy": [0.5]}), "folds[0]: 'metrics' must map names"),
            ({**_REPORT, "pooled_metrics": {"accuracy": "x"}}, "'pooled_metrics' must map names"),
            ({**_REPORT, "task": 5}, "'task' must be a string"),
            ({**_REPORT, "selected_count": -3}, "'selected_count' must lie in [0, 2]"),
            ({**_REPORT, "folds": []}, "'folds' must not be empty"),
            ({**_REPORT, "group_names": ["a", "a"]}, "'group_names' must be one or more distinct strings"),
        ],
    )
    def test_report_of_the_wrong_shape_exits_2(self, tmp_path, payload, message):
        if callable(payload):
            edit, payload = payload, json.loads(json.dumps(self._REPORT))
            edit(payload)
        path = _write(tmp_path / "r.json", json.dumps(payload))
        result = _run_cli("report", "--report", path, "--csv", str(tmp_path / "w.csv"))
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: {path}: {message}")
        assert len(result.stderr.splitlines()) == 1
        assert "Traceback" not in result.stderr
        assert result.stdout == ""
        assert not (tmp_path / "w.csv").exists()


def test_readme_library_snippet_runs_as_written():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    data = make_classification_data(
        n=20, seed=90, group_specs=[("pathway_a", 3, "signal"), ("pathway_b", 2, "noise")]
    )
    names = {
        "X": data.features, "group_index": data.groups, "y": data.targets,
        "ids": data.sample_ids,
    }
    printed = stdio.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(snippet, names)
    assert names["pre"].train_stack_.values.shape == (2, 20, 20)
    weights = eval(printed.getvalue(), {"np": np})
    assert sorted(weights) == ["pathway_a", "pathway_b"]
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-10)


def _readme_commands() -> list[str]:
    """Every ``python3 -m enmkl`` command of README.md's ``sh`` blocks, in
    order, with its backslash continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("python3 -m enmkl "):
                commands.append(line)
    return commands


def test_readme_walkthrough_runs_in_order(tmp_path):
    commands = _readme_commands()
    assert {shlex.split(c)[3] for c in commands} == {"kernels", "train", "predict", "cv", "report"}
    _workspace(tmp_path, n=30, seed=91)  # features.csv, groups.csv, targets.csv
    new = make_classification_data(
        n=6, seed=92, group_specs=[("sig", 3, "signal"), ("noise", 2, "noise")]
    )
    (tmp_path / "new_rows.csv").write_text("".join(
        [f"id,{','.join(f'f{j}' for j in range(new.n_features))}\n"]
        + [f"new{i}," + ",".join(map(repr, row)) + "\n" for i, row in enumerate(new.features.tolist())]
    ))
    for command in commands:
        result = subprocess.run(
            [sys.executable, *shlex.split(command)[1:]],
            cwd=tmp_path, env=_src_env(), capture_output=True, text=True,
        )
        assert result.returncode == 0, (command, result.stderr)
    assert len((tmp_path / "pred.csv").read_text().splitlines()) == 1 + 6
    assert (tmp_path / "weights.csv").read_text().startswith("group,mean_weight,n_features\n")


def test_tracer_still_wraps_train(tmp_path):
    """The benchmark's tracer wraps package functions by name; a rename or a
    deletion breaks ``perfbench/run.py --trace 1``."""
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    # The SVM never builds the combined kernel; ridge regression builds it.
    for task, wrapped in (
        ("classification", {"solvers.smo"}),
        ("regression", {"kernels.weighted_sum", "solvers.krr"}),
    ):
        folder = tmp_path / task
        folder.mkdir()
        _, features, groups, targets = _workspace(folder, task, n=12)
        assert main([
            "kernels", "--features", features, "--groups", groups, "--out", str(folder / "stack"),
        ]) == 0

        def span_names():
            spans = folder / "spans.json"
            result = subprocess.run(
                [sys.executable, str(tracer), str(spans), "run0", "train",
                 "--stack", str(folder / "stack" / "stack.json"), "--targets", targets,
                 "--task", task, "--C", "1.0", "--mu", "0.5", "--out", str(folder / "model.json")],
                env=_src_env(), capture_output=True, text=True,
            )
            assert result.returncode == 0, result.stderr
            return {span["name"] for span in json.loads(spans.read_text())}

        # An intact stack: its kernels are built from the source rows, and
        # its kernel files are hashed, not read.
        names = span_names()
        assert {"kernels.build", "io.sha256", "mkl.fit"} | wrapped <= names
        assert not {"io.read_stack", "kernels.preprocess_fit"} & names
        # Sources moved away: the kernel files are read and preprocessed.
        os.rename(features, folder / "moved.csv")
        names = span_names()
        assert {"mkl.fit", "kernels.preprocess_fit", "io.read_stack"} | wrapped <= names


def test_tracer_still_wraps_predict(tmp_path):
    """As above, for the names ``predict`` and ``report --model`` go through.
    ``PrimalModel`` is defined in ``enmkl.model``; the tracer wraps its
    method through the name ``enmkl.mkl.PrimalModel``, the same class."""
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    _, features, groups, targets = _workspace(tmp_path, n=12)
    model = str(tmp_path / "model.json")
    assert main(["kernels", "--features", features, "--groups", groups,
                 "--out", str(tmp_path / "stack")]) == 0
    assert main(["train", "--stack", str(tmp_path / "stack" / "stack.json"), "--targets", targets,
                 "--task", "classification", "--C", "1.0", "--mu", "0.5", "--out", model]) == 0
    for argv, wrapped in (
        (["predict", "--model", model, "--features", features, "--out", str(tmp_path / "p.csv")],
         {"cli.predict", "io.read_json", "io.read_features", "mkl.primal_decision",
          "io.write_predictions"}),
        (["report", "--model", model], {"io.read_json"}),
    ):
        spans = tmp_path / "spans.json"
        result = subprocess.run([sys.executable, str(tracer), str(spans), "run0", *argv],
                                env=_src_env(), capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert wrapped <= {span["name"] for span in json.loads(spans.read_text())}, argv


def test_tracer_still_wraps_cv(tmp_path):
    """As above, for the names a ``cv --baseline`` run goes through."""
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    _, features, groups, targets = _workspace(tmp_path, n=12)
    spans = tmp_path / "spans.json"
    result = subprocess.run(
        [sys.executable, str(tracer), str(spans), "run0", "cv",
         "--features", features, "--groups", groups, "--targets", targets,
         "--task", "classification", "--C", "1.0", "--mu", "0.5",
         "--k-outer", "2", "--k-inner", "2", "--baseline", "--out", str(tmp_path / "cv")],
        env=_src_env(), capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    names = {span["name"] for span in json.loads(spans.read_text())}
    # Held-out samples are scored through primal weights, so cv builds,
    # transforms and sums no cross kernel. The tracer still wraps those names,
    # and it fails to start, here as in every run, if one of them is gone.
    assert {
        "cli.cv", "evaluation.fold_plan", "evaluation.nested_cv", "io.load_dataset",
        "io.write_json", "kernels.build", "mkl.fit", "mkl.block_norms", "solvers.smo",
    } <= names
    # cv builds each partition's kernels from preprocessed feature rows, so no
    # kernel-space preprocessing runs; train still fits one (see above).
    assert "kernels.preprocess_fit" not in names
