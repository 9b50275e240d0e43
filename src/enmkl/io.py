"""File formats: feature/target CSVs, kernel files, manifests, CV reports, JSON.

All writes are atomic (write to a temporary sibling, then rename), and all
formatting is deterministic: floats are written with Python's shortest
round-trip representation, JSON keys are sorted, and no timestamps are
embedded. Rerunning a command on unchanged inputs reproduces its outputs
byte for byte.

Parse errors raise :class:`DataError` with the offending file and line
number in the message.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import struct
import sys
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError

if TYPE_CHECKING:  # io imports kernels in the functions that use it, for predict's start-up
    from .kernels import KernelStack, LinearKernelStream

# Binary kernels start with this magic; a file with any other start, such as
# the first format's, which had no id digest, is refused.
KERNEL_BINARY_MAGIC = b"ENMKLKR2"
MANIFEST_VERSION = 2


def atomic_write_bytes(path, *chunks) -> None:
    """Write the bytes-like ``chunks``, in order, so that the target file is
    never seen half-written.

    They go to a temporary sibling that then replaces the target; a write or
    replace that fails removes the sibling and re-raises, naming the target.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def dump_json(obj) -> str:
    """Deterministic JSON: sorted keys, two-space indent, lossless floats.

    A NaN or infinite float is a ValueError: JSON has no such number, and
    the readers refuse the ``NaN`` and ``Infinity`` that ``json`` would write.
    """
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def record_dict(record, skip=()) -> dict:
    """The fields of dataclass ``record`` but those in ``skip``, JSON-ready.

    Arrays become ``tolist()`` lists, tuples and lists become lists, dicts
    keep their keys, and nested dataclasses recurse; other values stay.
    """

    def plain(value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        if is_dataclass(value):
            return record_dict(value)
        if isinstance(value, (tuple, list)):
            return [plain(v) for v in value]
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return value

    return {f.name: plain(getattr(record, f.name)) for f in fields(record) if f.name not in skip}


def write_json(path, obj) -> None:
    atomic_write_text(path, dump_json(obj))


def _read_text(path: Path) -> str:
    """The file's UTF-8 text; other bytes are a DataError naming their line."""
    raw = path.read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw[:exc.start].count(b"\n") + 1
        raise DataError(f"{path}:{line}: not UTF-8 text") from None


def read_json(path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{path}: file not found")
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from None
    except (ValueError, RecursionError) as exc:  # an integer too long for int(), or deep nesting
        raise DataError(f"{path}: invalid JSON ({exc})") from None


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_csv_rows(path) -> list[tuple[int, list[str]]]:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{path}: file not found")
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            # line_num, not a row count: a quoted field may span lines.
            for row in reader:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue  # skip blank lines
                rows.append((reader.line_num, row))
    except UnicodeDecodeError:
        _read_text(path)  # raises the DataError that names the line
        raise
    except csv.Error as exc:  # a field over the csv module's size limit, say
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: file is empty")
    return rows


def _parse_float(path, lineno: int, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"{path}:{lineno}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise DataError(f"{path}:{lineno}: non-finite value: {text!r}")
    return value


def _parse_row(path, lineno: int, fields) -> list[float]:
    """The floats of one row's fields, in one ``float`` pass per row.

    A row that holds a non-number or a non-finite value is parsed again
    field by field, so the error names its first bad value exactly as
    :func:`_parse_float` words it.
    """
    try:
        values = list(map(float, fields))
    except ValueError:
        values = None
    if values is not None and all(map(math.isfinite, values)):
        return values
    return [_parse_float(path, lineno, text) for text in fields]


def _keyed_rows(path, rows, n_fields: int, key_name: str):
    """Yield each ``(line number, fields)`` row as ``(line number, key, other
    fields)``, in file order, once it has ``n_fields`` fields and a new,
    non-empty key; ``key_name`` words the errors."""
    seen = set()
    for lineno, row in rows:
        if len(row) != n_fields:
            raise DataError(f"{path}:{lineno}: expected {n_fields} fields, got {len(row)}")
        key = row[0].strip()
        if not key:
            raise DataError(f"{path}:{lineno}: empty {key_name}")
        if key in seen:
            raise DataError(f"{path}:{lineno}: duplicate {key_name} '{key}'")
        seen.add(key)
        yield lineno, key, row[1:]


def read_features_csv(path):
    """Parse an ``id,<name>,...`` table, a features CSV or a kernel CSV: a
    header, then one row of numbers per id.

    Returns (row ids, column names, float64 values). Ids and names must be
    non-empty and unique. numpy's C reader (:func:`_read_table_c`) parses the
    file where it can; a file it refuses, or whose ids or names break that
    rule, goes row by row through the csv module, which names what is wrong.
    """
    parsed = _read_table_c(path)
    if parsed and all(len(set(names)) == len(names) and all(names) for names in parsed[:2]):
        return parsed
    rows = _read_csv_rows(path)
    header_line, header = rows[0]
    if len(header) < 2:
        raise DataError(f"{path}:{header_line}: need an id column and at least one value column")
    col_names = tuple(h.strip() for h in header[1:])
    if len(set(col_names)) != len(col_names):
        raise DataError(f"{path}:{header_line}: duplicate column name in header")
    if not all(col_names):
        raise DataError(f"{path}:{header_line}: empty column name in header")
    ids, data = [], []
    for lineno, sid, fields in _keyed_rows(path, rows[1:], len(header), "sample id"):
        ids.append(sid)
        data.append(_parse_row(path, lineno, fields))
    if not ids:
        raise DataError(f"{path}: no data rows")
    return tuple(ids), col_names, np.array(data, dtype=np.float64)


def read_column_csv(path, value_name: str = "value", key_name: str = "sample id"):
    """Parse a ``key,value`` CSV into (key -> (raw string, line number)).

    Keys are non-empty and unique and keep their file order; ``key_name``
    and ``value_name`` word the errors.
    """
    rows = _keyed_rows(path, _read_csv_rows(path)[1:], 2, key_name)
    out = {key: (fields[0].strip(), lineno) for lineno, key, fields in rows}
    if not out:
        raise DataError(f"{path}: no {value_name} rows")
    return out


def parse_targets(targets_path, sample_ids, task: str):
    """Targets for the given samples, in the given order.

    Classification maps the two distinct raw labels onto -1/+1 in sorted
    order and returns the mapping; regression parses real values and
    returns None for the mapping. Regression targets whose sum of squares
    overflows float64 are refused: the fits square and sum them.
    """
    raw = read_column_csv(targets_path, "target")
    for sid in sample_ids:
        if sid not in raw:
            raise DataError(f"{targets_path}: no target for sample '{sid}'")
    if task == "classification":
        distinct = sorted({raw[sid][0] for sid in sample_ids})
        if len(distinct) != 2:
            raise DataError(
                f"{targets_path}: classification needs exactly 2 distinct labels, "
                f"got {len(distinct)}: {distinct[:5]}"
            )
        label_mapping = {distinct[0]: -1.0, distinct[1]: 1.0}
        targets = np.array([label_mapping[raw[sid][0]] for sid in sample_ids])
        return targets, label_mapping
    values = []
    for sid in sample_ids:
        text, lineno = raw[sid]
        values.append(_parse_float(targets_path, lineno, text))
    if not math.isfinite(sum(v * v for v in values)):
        raise DataError(
            f"{targets_path}: regression targets too large: their sum of squares overflows"
        )
    return np.array(values), None


def load_grouped_dataset(
    features_path, groups_path, targets_path=None, task: str | None = None
):
    """Assemble a :class:`GroupedDataset` from feature, group, and target CSVs.

    The group map is a ``feature,group`` CSV; groups keep the order in which
    they first appear in it. Every feature column must appear in the group
    map, and every group in the map must match at least one present column.
    Targets, when given, are read by :func:`parse_targets` (classification
    labels become -1/+1); without them every target is 0.
    """
    from .kernels import GroupedDataset

    sample_ids, feature_names, features = read_features_csv(features_path)
    mapping = {}
    for name, (group, lineno) in read_column_csv(groups_path, "map", key_name="feature").items():
        if not group:
            raise DataError(f"{groups_path}:{lineno}: empty group name")
        mapping[name] = group
    group_order = tuple(dict.fromkeys(mapping.values()))
    for name in feature_names:
        if name not in mapping:
            raise DataError(
                f"{features_path}: feature column '{name}' is missing from the group map"
            )
    present = {mapping[name] for name in feature_names}
    for group in group_order:
        if group not in present:
            raise DataError(
                f"{groups_path}: group '{group}' has no feature columns in {features_path}"
            )
    group_index = {g: j for j, g in enumerate(group_order)}
    groups = np.array([group_index[mapping[name]] for name in feature_names], dtype=np.int64)

    targets = np.zeros(len(sample_ids))
    if targets_path is not None:
        targets, _ = parse_targets(targets_path, sample_ids, task)

    return GroupedDataset(
        features=features,
        groups=groups,
        group_names=group_order,
        targets=targets,
        sample_ids=sample_ids,
        feature_names=feature_names,
    )


def read_blocks(path, sample_ids) -> dict:
    """Block label per sample id from an ``id,block`` CSV."""
    raw = read_column_csv(path, "block")
    out = {}
    for sid in sample_ids:
        if sid not in raw:
            raise DataError(f"{path}: no block for sample '{sid}'")
        out[sid] = raw[sid][0]
    return out


def csv_field(text: str) -> str:
    """``text`` as one CSV field: wrapped in double quotes, with each inner
    quote doubled, when it holds a comma, a quote, CR or LF; else unchanged."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_kernel_csv(path, values: np.ndarray, row_ids, col_ids) -> str:
    """One ``id,<col ids>`` header, then one row of ``values`` per row id.

    Returns the sha256 hex digest of the bytes written, hashed in memory.
    A kernel that equals its transpose bit for bit has each value of its
    upper triangle formatted once, with the lower triangle's strings
    mirrored from it. The bit test matters: ``-0.0 == 0.0`` but their
    strings differ, so such a kernel takes the full-matrix path.
    """
    from .kernels import bit_symmetric

    rows = values.tolist()
    if bit_symmetric(values):
        cells = []
        for i, row in enumerate(rows):
            cells.append([above[i] for above in cells] + list(map(float.__repr__, row[i:])))
    else:
        cells = [list(map(float.__repr__, row)) for row in rows]
    lines = ["id," + ",".join(map(csv_field, col_ids))]
    for rid, row in zip(map(csv_field, row_ids), cells):
        lines.append(rid + "," + ",".join(row))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    atomic_write_bytes(path, data)
    return hashlib.sha256(data).hexdigest()


def _read_table_c(path):
    """The parse by one float64 ``np.loadtxt`` call, whose number parser is
    ``float``'s, or None where the row route must decide: a quote, "\\r", NUL or
    one of the separators \\x1c-\\x1f that numpy strips around a number but
    ``float`` refuses; a field count unlike the header's; a field over the csv
    size limit; a value numpy refuses or reads as non-finite."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeError):
        return None
    lines = text.removesuffix("\n").split("\n")
    commas, limit = lines[0].count(","), csv.field_size_limit()
    if (
        len(lines) < 2 or not commas
        or any(c in text for c in '"\r\x00\x1c\x1d\x1e\x1f')
        or any(line.count(",") != commas for line in lines)
        or any(len(line) > limit and max(map(len, line.split(","))) > limit for line in lines)
    ):
        return None
    try:
        values = np.loadtxt(lines[1:], delimiter=",", comments=None, usecols=range(1, commas + 1), ndmin=2)
    except ValueError:
        return None
    row_ids = tuple(line.partition(",")[0].strip() for line in lines[1:])
    col_ids = tuple(h.strip() for h in lines[0].split(",")[1:])
    return (row_ids, col_ids, values) if np.isfinite(values).all() else None


def _ids_digest(row_ids, col_ids) -> bytes:
    """sha256 of a kernel's row and column ids, in order."""
    return hashlib.sha256(json.dumps([list(row_ids), list(col_ids)]).encode()).digest()


def write_kernel_binary(path, values: np.ndarray, row_ids, col_ids) -> None:
    """Binary kernel layout: 8-byte magic, two uint64 dims, the 32-byte
    sha256 of the row and column ids, then float64 values, row-major."""
    rows, cols = values.shape
    header = KERNEL_BINARY_MAGIC + struct.pack("<QQ", rows, cols) + _ids_digest(row_ids, col_ids)
    # A C-contiguous little-endian float64 kernel goes to the file from its
    # own buffer; any other is converted once.
    atomic_write_bytes(path, header, np.ascontiguousarray(values, dtype="<f8"))


def read_kernel_binary(path, row_ids, col_ids, out=None) -> np.ndarray:
    """The values of a binary kernel whose rows and columns carry these ids.

    The header must match the id counts and the ids' digest, and the file
    the size the header gives; the payload is read into ``out``
    (C-contiguous ``<f8``) or a new array, and returned.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{path}: file not found")
    magic = len(KERNEL_BINARY_MAGIC)
    header = magic + 16 + 32
    with path.open("rb") as fh:
        head = fh.read(header)
        if len(head) < header or not head.startswith(KERNEL_BINARY_MAGIC):
            raise DataError(
                f"{path}: not a kernel binary file (bad magic); rerun the kernels command"
            )
        rows, cols = struct.unpack("<QQ", head[magic:magic + 16])
        if (rows, cols) != (len(row_ids), len(col_ids)):
            raise DataError(
                f"{path}: header says {rows}x{cols}, but the stack has "
                f"{len(row_ids)} row ids and {len(col_ids)} column ids"
            )
        if head[magic + 16:] != _ids_digest(row_ids, col_ids):
            raise DataError(
                f"{path}: kernel ids do not match the manifest (the header's id "
                "digest differs: ids reordered or changed); rerun the kernels command"
            )
        expected = header + rows * cols * 8
        size = os.fstat(fh.fileno()).st_size
        if size == expected:
            out = np.empty((rows, cols), dtype="<f8") if out is None else out
            size = header + fh.readinto(out)
        if size != expected:
            raise DataError(f"{path}: expected {expected} bytes for a {rows}x{cols} kernel, got {size}")
    return out


def write_stack(
    out_dir, stack: KernelStack | LinearKernelStream, fmt: str = "csv", *,
    sources: tuple | None = None,
) -> Path:
    """Write a train kernel stack plus manifest into a directory.

    One data file per group; the manifest ties them together and records
    the ids, the preprocessing flags, the resolved path and sha256 of the
    ``sources`` (the features and groups CSVs), and each CSV kernel file's
    sha256 (a binary file carries its ids' digest). Returns the manifest
    path. ``stack`` may also be a :class:`LinearKernelStream`, whose kernels
    are computed one at a time: each is written before the next is computed.
    An existing manifest is removed before the first kernel file is written
    and the new one is written last, so a run that fails part way leaves no
    manifest that pairs old and new kernel files.
    """
    if fmt not in ("csv", "binary"):
        raise ValueError(f"unknown kernel format {fmt!r}")
    if stack.row_ids != stack.col_ids:
        raise ValueError("write_stack writes train stacks only")
    write_kernel = write_kernel_csv if fmt == "csv" else write_kernel_binary
    recorded = {}
    for key, path in zip(("features", "groups"), sources or ()):
        recorded[f"{key}_file"] = str(Path(path).resolve())
        recorded[f"{key}_sha256"] = sha256_file(path)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "stack.json"
    manifest_path.unlink(missing_ok=True)
    groups = []
    for j, (name, size, kernel) in enumerate(
        zip(stack.group_names, stack.group_sizes, stack.values)
    ):
        data_file = f"kernel_{j:03d}.{'csv' if fmt == 'csv' else 'bin'}"
        digest = write_kernel(out_dir / data_file, kernel, stack.row_ids, stack.col_ids)
        groups.append({"name": name, "size": size, "data_file": data_file})
        if digest is not None:
            groups[-1]["sha256"] = digest
    manifest = {
        "manifest_version": MANIFEST_VERSION,
        "kind": "train",
        "format": fmt,
        "centered": stack.centered,
        "normalized": stack.normalized,
        "sample_ids": list(stack.row_ids),
        "col_ids": list(stack.col_ids),
        "groups": groups,
        "sources": recorded,
    }
    write_json(manifest_path, manifest)
    return manifest_path


def has_version(obj, key: str, version: int) -> bool:
    """Whether decoded JSON ``obj`` is an object whose ``key`` is the integer ``version``."""
    value = obj.get(key) if isinstance(obj, dict) else None
    return type(value) is int and value == version


_JSON_KINDS = {str: "a string", int: "an integer", bool: "true or false", list: "a list",
               dict: "an object", float: "a finite number"}


def _finite_number(value) -> bool:
    """Whether a decoded JSON value is an integer or float (not a bool) within float range."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _json_value(where: str, obj, key: str, kind: type):
    """``obj[key]`` of a decoded JSON object, of exactly type ``kind`` (``float``: a finite number).

    A missing or ill-typed value is a :class:`DataError` that starts with
    ``where``, so it names the file it came from.
    """
    if not isinstance(obj, dict) or key not in obj:
        raise DataError(f"{where}: missing '{key}'")
    value = obj[key]
    if not (_finite_number(value) if kind is float else type(value) is kind):
        raise DataError(f"{where}: '{key}' must be {_JSON_KINDS[kind]}")
    return value


def _json_ids(where: str, obj, key: str) -> tuple[str, ...]:
    ids = _json_value(where, obj, key, list)
    if not all(type(i) is str for i in ids):
        raise DataError(f"{where}: '{key}' must be a list of strings")
    return tuple(ids)


@dataclass(frozen=True)
class StackManifest:
    """A stack manifest that passed :func:`read_manifest`'s checks.

    ``files`` are the kernel files' paths, and ``digests`` their recorded
    sha256, None where the manifest records none (every binary file, and CSV
    files written before the digest). ``sources`` pairs the features and the
    groups CSV's path with its sha256; it is None without both paths.
    """

    path: Path
    fmt: str
    row_ids: tuple[str, ...]  # the column ids too: a train stack's kernels are square
    centered: bool
    normalized: bool
    group_names: tuple[str, ...]
    group_sizes: tuple[int, ...]
    files: tuple[Path, ...]
    digests: tuple[str | None, ...]
    sources: tuple[tuple[str, str], tuple[str, str]] | None


def read_manifest(manifest_path) -> StackManifest:
    """Check a manifest written by :func:`write_stack`, reading no kernel file.

    A manifest of another version or of any kind but ``"train"``, with
    ``col_ids`` other than its ``sample_ids``, with a source file but not its
    sha256, or with a missing or ill-typed key, is a DataError naming it.
    """
    manifest_path = Path(manifest_path)
    manifest = read_json(manifest_path)
    where = str(manifest_path)
    if not has_version(manifest, "manifest_version", MANIFEST_VERSION):
        raise DataError(
            f"{where}: not a version {MANIFEST_VERSION} stack manifest; "
            "rerun the kernels command to rebuild the stack"
        )
    kind = _json_value(where, manifest, "kind", str)
    fmt = _json_value(where, manifest, "format", str)
    if kind != "train":
        raise DataError(f"{where}: not a train stack (kind {kind!r}); rerun the kernels command")
    if fmt not in ("csv", "binary"):
        raise DataError(f"{where}: unknown kernel format {fmt!r}")
    row_ids = _json_ids(where, manifest, "sample_ids")
    if _json_ids(where, manifest, "col_ids") != row_ids:
        raise DataError(f"{where}: 'col_ids' must equal 'sample_ids' in a train stack")
    centered, normalized = (
        _json_value(where, manifest, key, bool) for key in ("centered", "normalized")
    )
    names, sizes, files, digests = [], [], [], []
    for j, entry in enumerate(_json_value(where, manifest, "groups", list)):
        entry_where = f"{where}: groups[{j}]"
        names.append(_json_value(entry_where, entry, "name", str))
        sizes.append(_json_value(entry_where, entry, "size", int))
        if sizes[j] < 1:
            raise DataError(f"{entry_where}: 'size' must be at least 1, got {sizes[j]}")
        files.append(manifest_path.parent / _json_value(entry_where, entry, "data_file", str))
        recorded = "sha256" in entry  # CSV kernel files' entries only
        digests.append(_json_value(entry_where, entry, "sha256", str) if recorded else None)
    sources = _json_value(where, manifest, "sources", dict)
    features, groups, *source_digests = (
        _json_value(where, sources, key, str) if key in sources else None
        for key in ("features_file", "groups_file", "features_sha256", "groups_sha256")
    )
    for path, digest in zip((features, groups), source_digests):
        if path is not None and digest is None:
            raise DataError(
                f"{where}: 'sources' names {path} without its sha256; rerun the kernels command"
            )
    return StackManifest(
        manifest_path, fmt, row_ids, centered, normalized,
        tuple(names), tuple(sizes), tuple(files), tuple(digests),
        tuple(zip((features, groups), source_digests)) if features and groups else None,
    )


def read_stack(manifest):
    """Load a kernel stack written by :func:`write_stack`.

    ``manifest`` is the manifest's path or what :func:`read_manifest`
    returned for it. Returns (stack, values): ``values`` is
    the writable array the kernel files were read into, behind
    ``stack.values`` unless the stack stored a kernel's symmetric part in a
    copy, for a caller that overwrites it once it is done with the stack.
    Each kernel file must carry the manifest's ids (a binary file's header,
    their counts and digest) and is read into its slice.
    """
    from .kernels import KernelStack

    if not isinstance(manifest, StackManifest):
        manifest = read_manifest(manifest)
    row_ids = col_ids = manifest.row_ids
    paths = manifest.files
    values = np.empty((0, len(row_ids), len(col_ids)))
    for j, path in enumerate(paths):
        if manifest.fmt == "csv":
            kernel_rows, kernel_cols, kernel = read_features_csv(path)
            if kernel_rows != row_ids or kernel_cols != col_ids:
                raise DataError(f"{path}: kernel ids do not match the manifest")
        else:
            kernel = read_kernel_binary(path, row_ids, col_ids, out=values[j] if j else None)
        if not j:
            # Allocated only once a kernel file has matched the manifest's ids,
            # so a manifest listing bogus ids fails on them, not on memory.
            values = np.empty((len(paths),) + kernel.shape, dtype="<f8")
        values[j] = kernel  # a no-op for a kernel read straight into its slice
    names, sizes = manifest.group_names, manifest.group_sizes
    flags = {"centered": manifest.centered, "normalized": manifest.normalized}
    try:
        stack = KernelStack(values, row_ids, col_ids, names, sizes, **flags)
    except ValueError as exc:
        # Name the first kernel file that fails the stack's checks on its own.
        for j, path in enumerate(paths):
            try:
                KernelStack(values[j:j + 1], row_ids, col_ids, names[j:j + 1], sizes[j:j + 1], **flags)
            except ValueError:
                raise DataError(f"{path}: {exc}") from None
        raise DataError(f"{manifest.path}: {exc}") from None
    return stack, values


def write_predictions_csv(path, sample_ids, decisions, labels=None) -> None:
    """Prediction rows: decision values plus, for classification, labels."""
    decisions = np.asarray(decisions, dtype=np.float64).tolist()
    sample_ids = map(csv_field, sample_ids)
    if labels is None:
        lines = ["id,prediction"]
        for sid, d in zip(sample_ids, decisions):
            lines.append(f"{sid},{float.__repr__(d)}")
    else:
        lines = ["id,decision_value,predicted_label"]
        for sid, d, l in zip(sample_ids, decisions, labels):
            lines.append(f"{sid},{float.__repr__(d)},{csv_field(l)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def beta_table(group_names, beta, group_sizes=None, header="kernel weights") -> str:
    order = sorted(range(len(beta)), key=lambda j: (-beta[j], group_names[j]))
    sizes = [""] * len(beta) if group_sizes is None else [f"  ({n} features)" for n in group_sizes]
    return "\n".join([header, *(f"  {group_names[j]:<24s} {beta[j]:.6f}{sizes[j]}" for j in order)])


def weights_csv(names, sizes, beta) -> str:
    """The weights CSV, heaviest group first; ``beta`` holds Python floats, not numpy's."""
    order = sorted(range(len(names)), key=lambda j: (-beta[j], names[j]))
    rows = (f"{csv_field(names[j])},{beta[j]!r},{sizes[j]}" for j in order)
    return "\n".join(["group,mean_weight,n_features", *rows]) + "\n"


def _metrics_text(metrics) -> str:
    return "  ".join(
        f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}" for k, v in sorted(metrics.items())
    )


def _cv_report_text(report) -> str:
    """The printout of a CV report record, as ``cv`` and ``report --report`` print it."""
    lines = [f"task: {report['task']}   trainer: {report['trainer']}"]
    for fold in report["folds"]:
        metrics = _metrics_text(fold["metrics"])
        mu = "-" if fold["selected_mu"] is None else f"{fold['selected_mu']:g}"
        lines.append(f"  fold {fold['fold_index']}: C={fold['selected_c']:g} mu={mu}  {metrics}")
    lines.append(f"pooled: {_metrics_text(report['pooled_metrics'])}")
    lines.append(f"selected kernels: {report['selected_count']} of {len(report['group_names'])}")
    lines.append(beta_table(report["group_names"], report["mean_beta"], report["group_sizes"],
                            header="mean kernel weights"))
    return "\n".join(lines)


def write_cv_report(out_dir, report: dict, baseline: dict | None) -> str:
    """Write ``CvReport.to_dict()`` records into ``out_dir``: ``report.json``, ``weights.csv``
    and, given a baseline, ``report_baseline.json``. Returns the printout, comparison included."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "report.json", report)
    weights = weights_csv(report["group_names"], report["group_sizes"], report["mean_beta"])
    atomic_write_text(out_dir / "weights.csv", weights)
    text = _cv_report_text(report)
    if baseline is not None:
        write_json(out_dir / "report_baseline.json", baseline)
        text += "\n\nsum-baseline comparison"
        for key, value in sorted(baseline["pooled_metrics"].items()):
            main, base = ("n/a" if v is None else f"{v:.4f}"
                          for v in (report["pooled_metrics"].get(key), value))
            text += f"\n  {key}: enmkl={main}  baseline={base}"
    return text


def _json_metrics(where: str, obj, key: str) -> None:
    if not all(v is None or _finite_number(v) for v in _json_value(where, obj, key, dict).values()):
        raise DataError(f"{where}: '{key}' must map names to finite numbers or null")


def read_cv_report(path) -> tuple[str, str]:
    """The printout and the weights CSV of a :func:`write_cv_report` report file; every
    field they read is checked first, and a fault is a DataError naming the file and field."""
    report, where = read_json(path), str(path)
    if not isinstance(report, dict) or "pooled_metrics" not in report:
        raise DataError(f"{where}: not a cross-validation report")
    _json_value(where, report, "task", str)
    _json_value(where, report, "trainer", str)
    names = _json_ids(where, report, "group_names")
    if not names or len(set(names)) != len(names):
        raise DataError(f"{where}: 'group_names' must be one or more distinct strings")
    sizes = _json_value(where, report, "group_sizes", list)
    if len(sizes) != len(names) or not all(type(s) is int and s > 0 for s in sizes):
        raise DataError(f"{where}: 'group_sizes' must hold one positive integer per group")
    beta = _json_value(where, report, "mean_beta", list)
    if len(beta) != len(names) or not all(map(_finite_number, beta)):
        raise DataError(f"{where}: 'mean_beta' must hold one finite number per group")
    if not 0 <= _json_value(where, report, "selected_count", int) <= len(names):
        raise DataError(f"{where}: 'selected_count' must lie in [0, {len(names)}]")
    _json_metrics(where, report, "pooled_metrics")
    if not _json_value(where, report, "folds", list):
        raise DataError(f"{where}: 'folds' must not be empty")
    for i, fold in enumerate(report["folds"]):
        at = f"{where}: folds[{i}]"
        _json_value(at, fold, "fold_index", int)
        if _json_value(at, fold, "selected_c", float) <= 0:
            raise DataError(f"{at}: 'selected_c' must be positive")
        mu = fold.get("selected_mu", "missing")
        if mu is not None and not (_finite_number(mu) and 0 < mu <= 1):
            raise DataError(f"{at}: 'selected_mu' must be null or lie in (0, 1]")
        _json_metrics(at, fold, "metrics")
    return _cv_report_text(report), weights_csv(names, sizes, beta)
