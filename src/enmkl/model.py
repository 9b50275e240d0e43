"""Trained models: what a fit produces, its file, and its scoring of new rows.

:class:`MklModel` is the dual model a fit returns, and :class:`PrimalModel`
its per-group weight vectors, which score raw feature rows through
:func:`preprocess_slices`. The model file holds both. This module needs
numpy and :mod:`enmkl.io` only, so the commands that read or apply a stored
model load no kernel, solver or fitting code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DataError
from . import io

MODEL_FORMAT_VERSION = 1

_TASKS = ("classification", "regression")


def check_task(task: str) -> str:
    if task not in _TASKS:
        raise ValueError(f"task must be one of {_TASKS}, got {task!r}")
    return task


@dataclass(frozen=True)
class MklModel:
    """A trained multiple-kernel model.

    ``beta`` lives on the unit simplex and ``alpha`` is already rescaled to
    match, so decision values on a preprocessed cross stack are
    ``weighted_sum(stack, beta) @ coef + bias`` with ``coef = alpha *
    train_labels`` for classification and ``alpha`` for regression. For
    regression ``bias`` holds the training-target mean.

    ``beta_raw_sum`` preserves the pre-normalization weight total, so the
    raw pairing ``(alpha / beta_raw_sum, beta * beta_raw_sum)`` can be
    reconstructed. ``degenerate`` marks the all-zero-block-norm failure mode
    where uniform weights are returned.
    """

    beta: np.ndarray
    alpha: np.ndarray
    bias: float
    task: str
    mu: float
    C: float
    iterations: int
    converged: bool
    group_names: tuple[str, ...]
    sample_ids: tuple[str, ...]
    train_labels: np.ndarray | None = None
    group_sizes: tuple[int, ...] | None = None
    degenerate: bool = False
    centered: bool = True
    normalized: bool = True
    kernel_kind: str = "linear"
    beta_raw_sum: float = 1.0
    objective_history: tuple[float, ...] = ()

    def __post_init__(self):
        beta = np.array(self.beta, dtype=np.float64, copy=True)
        alpha = np.array(self.alpha, dtype=np.float64, copy=True)
        task = check_task(self.task)
        if beta.ndim != 1 or beta.shape[0] != len(self.group_names):
            raise ValueError("beta must hold one weight per group")
        if (beta < 0).any():
            raise ValueError("kernel weights must be nonnegative")
        if abs(float(beta.sum()) - 1.0) > 1e-10:
            raise ValueError("kernel weights must sum to one")
        if alpha.ndim != 1 or alpha.shape[0] != len(self.sample_ids):
            raise ValueError("alpha must hold one coefficient per train sample")
        labels = self.train_labels
        if task == "classification":
            if labels is None:
                raise ValueError("classification models must carry their train labels")
            labels = np.array(labels, dtype=np.float64, copy=True)
            if labels.shape != alpha.shape:
                raise ValueError("train labels must be parallel to alpha")
            labels.setflags(write=False)
        elif labels is not None:
            raise ValueError("regression models do not carry train labels")
        sizes = self.group_sizes
        if sizes is not None:
            sizes = tuple(int(s) for s in sizes)
            if len(sizes) != len(self.group_names):
                raise ValueError("group_sizes must be parallel to group_names")
        beta.setflags(write=False)
        alpha.setflags(write=False)
        values = dict(
            beta=beta, alpha=alpha, bias=float(self.bias), task=task, mu=float(self.mu),
            C=float(self.C), iterations=int(self.iterations), converged=bool(self.converged),
            group_names=tuple(str(g) for g in self.group_names),
            sample_ids=tuple(str(s) for s in self.sample_ids),
            train_labels=labels, group_sizes=sizes, degenerate=bool(self.degenerate),
            centered=bool(self.centered), normalized=bool(self.normalized),
            kernel_kind=str(self.kernel_kind), beta_raw_sum=float(self.beta_raw_sum),
            objective_history=tuple(float(v) for v in self.objective_history),
        )
        for name, value in values.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class PrimalModel:
    """Explicit per-group weight vectors recovered from a dual model.

    Self-contained for prediction from raw feature rows: it carries the
    group column indices, the train feature means, and the preprocessing
    flags needed to replay the pipeline in feature space.
    """

    weights: tuple[np.ndarray, ...]
    group_names: tuple[str, ...]
    group_columns: tuple[np.ndarray, ...]
    feature_means: tuple[np.ndarray, ...]
    bias: float
    centered: bool
    normalized: bool
    n_features: int

    def decision_values(self, features, sample_ids=None) -> np.ndarray:
        """Predict from raw feature rows via the recovered primal weights. A
        decision value that is not finite is a DataError naming the first such
        sample (by index if ``sample_ids`` is None)."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.n_features:
            raise ValueError(f"features must have {self.n_features} columns")
        blocks = preprocess_slices(
            features, self.group_columns, self.feature_means, self.centered, self.normalized,
            sample_ids=sample_ids, group_names=self.group_names,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            decisions = primal_decisions(self.bias, self.weights, blocks, features.shape[0])
        bad = np.flatnonzero(~np.isfinite(decisions))
        if bad.size:
            i = int(bad[0])
            label = sample_ids[i] if sample_ids is not None else str(i)
            raise DataError(f"sample '{label}' has no finite decision value ({decisions[i]})")
        return decisions

    def to_dict(self) -> dict:
        return io.record_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PrimalModel":
        """The model a :meth:`to_dict` record holds.

        ``decision_values`` pairs the per-group lists entry by entry, so a
        record whose lists differ in length, whose weight or mean vector does
        not match its group's columns, or whose columns lie outside
        ``n_features``, repeat, or overlap another group's is refused with a
        ``ValueError``, as are flags, counts and columns of another JSON type.
        """
        model = cls(
            weights=tuple(_finite(w, "weights") for w in d["weights"]),
            group_names=tuple(str(g) for g in d["group_names"]),
            group_columns=tuple(_integers(c, "group_columns") for c in d["group_columns"]),
            feature_means=tuple(_finite(m, "feature_means") for m in d["feature_means"]),
            bias=float(_finite(d["bias"], "bias")),
            centered=_exact(d["centered"], "centered", bool),
            normalized=_exact(d["normalized"], "normalized", bool),
            n_features=_exact(d["n_features"], "n_features", int),
        )
        groups = (model.group_names, model.group_columns, model.weights, model.feature_means)
        if len(set(map(len, groups))) != 1:
            raise ValueError(
                "primal group_names, group_columns, weights and feature_means differ in length"
            )
        for name, cols, w, mu in zip(*groups):
            if cols.ndim != 1 or w.shape != cols.shape or mu.shape != cols.shape:
                raise ValueError(
                    f"group '{name}': weights and feature_means must hold one value "
                    "per group column"
                )
            if cols.size and (cols.min() < 0 or cols.max() >= model.n_features):
                raise ValueError(
                    f"group '{name}': a column lies outside the {model.n_features} features"
                )
        columns = [c for cols in model.group_columns for c in cols.tolist()]
        if len(set(columns)) != len(columns):
            raise ValueError("a primal group column repeats or belongs to two groups")
        return model


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


def primal_decisions(bias: float, weights, blocks: list[np.ndarray], n: int) -> np.ndarray:
    """Decision values ``bias + sum_j B_j w_j`` of n preprocessed feature rows,
    whose group-j slice is ``blocks[j]`` (B_j), under primal weights ``weights``."""
    out = np.full(n, bias)
    for block, w in zip(blocks, weights):
        out += block @ w
    return out


def model_to_dict(model: MklModel) -> dict:
    """A JSON-ready mapping of the model; floats survive round trips exactly."""
    return io.record_dict(model)


def _finite(values, name: str) -> np.ndarray:
    """``values``, a number or nested lists of them, as a float64 array; a
    ValueError naming the field unless every entry is finite."""
    try:
        array = np.asarray(values, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        array = np.array(math.inf)
    if not np.isfinite(array).all():
        raise ValueError(f"'{name}' must be a finite number")
    return array


def _exact(value, name: str, kind: type):
    """``value`` if its type is exactly ``kind``, bool or int as JSON decodes
    them (a bool is no int); otherwise a ValueError naming the field."""
    if type(value) is not kind:
        raise ValueError(f"'{name}' must be {'true or false' if kind is bool else 'an integer'}")
    return value


def _integers(values, name: str) -> np.ndarray:
    """``values``, a list of ints (no bools), as an int64 array; else a ValueError naming it."""
    if type(values) is not list or not all(type(v) is int for v in values):
        raise ValueError(f"'{name}' must be a list of integers")
    return np.asarray(values, dtype=np.int64)


def model_from_dict(d: dict) -> MklModel:
    """Rebuild a model from :func:`model_to_dict` output; every float field
    and array must hold finite numbers, every flag be a bool and every count
    an int, as JSON decodes them."""
    values = {f.name: d[f.name] for f in fields(MklModel)}
    for name in ("bias", "mu", "C", "beta_raw_sum", "alpha", "beta", "train_labels",
                 "objective_history"):
        if values[name] is not None:  # train_labels of a regression model
            values[name] = _finite(values[name], name)
    for name in ("converged", "degenerate", "centered", "normalized"):
        _exact(values[name], name, bool)
    _exact(values["iterations"], "iterations", int)
    if values["group_sizes"] is not None:
        _integers(values["group_sizes"], "group_sizes")
    return MklModel(**values)


def write_model_file(path, model: MklModel, label_mapping, feature_names, primal) -> None:
    """Write a model file. ``label_mapping`` (raw class label to -1.0 or 1.0) is None for
    regression; ``feature_names`` and ``primal`` are None without the feature files."""
    io.write_json(path, {
        "format_version": MODEL_FORMAT_VERSION,
        "model": model_to_dict(model),
        "preprocessing": {"center": model.centered, "normalize": model.normalized},
        "label_mapping": label_mapping,
        "features": None if feature_names is None else {"feature_names": list(feature_names)},
        "primal": None if primal is None else primal.to_dict(),
    })


def read_model_file(path):
    """(model, primal model or None, feature names or None, class labels) of a
    :func:`write_model_file` file, every section checked; the class labels are a
    classifier's raw labels of -1 and +1, None for regression. Any fault is a DataError."""
    payload = io.read_json(path)
    if not isinstance(payload, dict) or "model" not in payload:
        raise DataError(f"{path}: not a model file")
    if not io.has_version(payload, "format_version", MODEL_FORMAT_VERSION):
        raise DataError(
            f"{path}: model file is not format_version {MODEL_FORMAT_VERSION}; "
            "rerun the train command"
        )
    labels, features, primal = map(payload.get, ("label_mapping", "features", "primal"))
    try:
        model = model_from_dict(payload["model"])
        if model.task == "regression" and labels is not None:
            raise ValueError("'label_mapping' must be null for a regression model")
        raw = {v: k for k, v in labels.items() if type(v) is float} if type(labels) is dict else {}
        if model.task == "classification" and (set(raw) != {-1.0, 1.0} or len(labels) != 2):
            raise ValueError("'label_mapping' must map two class labels to -1.0 and 1.0")
        if features is not None:
            features = features.get("feature_names") if isinstance(features, dict) else None
            if type(features) is not list or not all(type(name) is str for name in features):
                raise TypeError("'features' must hold 'feature_names', a list of strings")
            features = tuple(features)
        primal = None if primal is None else PrimalModel.from_dict(primal)
    except KeyError as exc:
        raise DataError(f"{path}: model file is missing {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: malformed model file ({exc})") from None
    return model, primal, features, (raw[-1.0], raw[1.0]) if raw else None
