"""Workload definitions, seeded input generation and output checks.

Inputs come only from the seed, through the synthetic builders in
``tests/helpers.py`` (used read-only). The program under test sees nothing
but the CSV files written here.

Every workload reports every end-to-end metric, so every workload runs the
same four CLI commands per pass, in this order: ``kernels -> train ->
predict --features`` on held-out rows, then ``cv``. The workloads differ in
task, size, kernel file format and CV grid, so that each stresses different
layers (see ``why``): the chains run ``cv`` with one candidate and 2x2
folds, and ``cv-grid`` runs its chain on the same 100 samples.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from helpers import make_classification_data, make_regression_data, oracle_feature_pipeline

# The labels written to targets.csv; the CLI maps them to -1/+1 in sorted order.
NEGATIVE, POSITIVE = "neg", "pos"
DECISION_RTOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    task: str
    n_train: int
    n_heldout: int
    n_groups: int
    group_dims: int
    n_signal: int
    # Class-mean shift for classification, target noise for regression.
    difficulty: float
    kernel_format: str
    train_args: tuple[str, ...]
    cv_args: tuple[str, ...]
    # Held-out accuracy (classification) or Pearson r (regression) must exceed this.
    floor: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="svm-chain",
            why=(
                "classification at n=1000, m=10 on binary kernels, plus a one-candidate 2x2 cv: "
                "SMO and the per-iteration stack work (weighted sum, objective) dominate, parsing "
                "stays small"
            ),
            task="classification",
            n_train=1000,
            n_heldout=200,
            n_groups=10,
            group_dims=10,
            n_signal=3,
            # Weak enough that SMO has work; seeds then need 6-11 outer iterations.
            difficulty=0.25,
            kernel_format="binary",
            train_args=("--C", "1", "--mu", "0.5"),
            cv_args=("--C", "1", "--mu", "0.5", "--k-outer", "2", "--k-inner", "2"),
            floor=0.8,
        ),
        Workload(
            name="krr-csv-chain",
            why=(
                "regression at n=200, m=40 small groups on CSV kernels: stack writes and reads "
                "dominate, KRR replaces SMO, and most loaded kernels end at beta=0"
            ),
            task="regression",
            n_train=200,
            n_heldout=50,
            n_groups=40,
            group_dims=3,
            n_signal=4,
            difficulty=0.5,
            kernel_format="csv",
            train_args=("--C", "10", "--mu", "1.0"),
            cv_args=("--C", "10", "--mu", "1.0", "--k-outer", "2", "--k-inner", "2"),
            floor=0.6,
        ),
        Workload(
            name="cv-grid",
            why=(
                "nested cv over a 3x3 C-mu grid, 5x3 folds and --baseline at n=100, m=6: many "
                "small SMO-bound fits with preprocessing redone per fit; its chain steps are "
                "start-up bound"
            ),
            task="classification",
            n_train=100,
            n_heldout=40,
            n_groups=6,
            group_dims=5,
            n_signal=2,
            difficulty=0.5,
            kernel_format="csv",
            train_args=("--C", "1", "--mu", "0.5"),
            cv_args=(
                "--C", "0.001,1,1000", "--mu", "0.1,0.5,1.0",
                "--k-outer", "5", "--k-inner", "3", "--baseline",
            ),
            floor=0.7,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Generated input files plus the arrays the checks compare against."""

    folder: Path
    train_ids: tuple[str, ...]
    heldout_ids: tuple[str, ...]
    train_x: np.ndarray
    heldout_x: np.ndarray
    heldout_y: np.ndarray
    group_names: tuple[str, ...]
    group_cols: tuple[np.ndarray, ...]
    sha256: dict

    def path(self, name: str) -> str:
        return str(self.folder / name)


def _write_features(path: Path, ids, names, rows) -> None:
    lines = ["id," + ",".join(names)]
    lines += [sid + "," + ",".join(repr(float(v)) for v in row) for sid, row in zip(ids, rows)]
    path.write_text("\n".join(lines) + "\n")


def make_inputs(workload: Workload, seed: int, folder: Path) -> Inputs:
    """Write features, groups, targets and held-out rows generated from ``seed``."""
    n = workload.n_train + workload.n_heldout
    specs = [
        (f"grp{j:02d}", workload.group_dims, "signal" if j < workload.n_signal else "noise")
        for j in range(workload.n_groups)
    ]
    if workload.task == "classification":
        data = make_classification_data(n=n, seed=seed, group_specs=specs, shift=workload.difficulty)
        target_text = [POSITIVE if t > 0 else NEGATIVE for t in data.targets]
    else:
        data = make_regression_data(
            n=n, seed=seed, group_specs=specs, target_noise=workload.difficulty
        )
        target_text = [repr(float(t)) for t in data.targets]

    train, heldout = slice(0, workload.n_train), slice(workload.n_train, n)
    names = [f"{data.group_names[g]}_f{k}" for k, g in enumerate(data.groups)]
    folder.mkdir(parents=True, exist_ok=True)
    _write_features(folder / "features.csv", data.sample_ids[train], names, data.features[train])
    _write_features(folder / "heldout.csv", data.sample_ids[heldout], names, data.features[heldout])
    (folder / "groups.csv").write_text(
        "feature,group\n"
        + "".join(f"{name},{data.group_names[g]}\n" for name, g in zip(names, data.groups))
    )
    (folder / "targets.csv").write_text(
        "id,target\n"
        + "".join(f"{sid},{t}\n" for sid, t in zip(data.sample_ids[train], target_text[train]))
    )
    files = ("features.csv", "heldout.csv", "groups.csv", "targets.csv")
    return Inputs(
        folder=folder,
        train_ids=tuple(data.sample_ids[train]),
        heldout_ids=tuple(data.sample_ids[heldout]),
        train_x=data.features[train],
        heldout_x=data.features[heldout],
        heldout_y=data.targets[heldout],
        group_names=data.group_names,
        group_cols=tuple(data.group_columns(j) for j in range(data.n_groups)),
        sha256={f: hashlib.sha256((folder / f).read_bytes()).hexdigest() for f in files},
    )


def pass_commands(workload: Workload, inputs: Inputs, seed: int) -> list[tuple[str, list[str]]]:
    """The CLI argument lists of one pass, relative to the pass directory."""
    features, groups, targets = (
        inputs.path("features.csv"), inputs.path("groups.csv"), inputs.path("targets.csv")
    )
    return [
        ("kernels", ["kernels", "--features", features, "--groups", groups,
                     "--out", "stack", "--format", workload.kernel_format]),
        ("train", ["train", "--stack", "stack/stack.json", "--targets", targets,
                   "--task", workload.task, *workload.train_args, "--out", "model.json"]),
        ("predict", ["predict", "--model", "model.json",
                     "--features", inputs.path("heldout.csv"), "--out", "pred.csv"]),
        ("cv", ["cv", "--features", features, "--groups", groups, "--targets", targets,
                "--task", workload.task, *workload.cv_args, "--seed", str(seed), "--out", "cv"]),
    ]


def _oracle_decisions(model_payload: dict, inputs: Inputs) -> np.ndarray:
    """Held-out decision values from the model's alpha, beta and bias alone.

    Kernels come from ``oracle_feature_pipeline``, which preprocesses the
    feature rows directly instead of going through the package's kernels.
    """
    model = model_payload["model"]
    pre = model_payload["preprocessing"]
    col_of = dict(zip(inputs.group_names, inputs.group_cols))
    pairs = oracle_feature_pipeline(
        inputs.train_x,
        [col_of[name] for name in model["group_names"]],
        inputs.heldout_x,
        center=pre["center"],
        normalize=pre["normalize"],
    )
    coef = np.asarray(model["alpha"])
    if model["train_labels"] is not None:
        coef = coef * np.asarray(model["train_labels"])
    out = np.full(len(inputs.heldout_ids), float(model["bias"]))
    for beta, (_, cross) in zip(model["beta"], pairs):
        out += beta * (cross @ coef)
    return out


def check_predictions(workload: Workload, inputs: Inputs, pass_dir: Path) -> list[str]:
    """Compare ``predict`` output with the oracle and the quality floor."""
    payload = json.loads((pass_dir / "model.json").read_text())
    lines = (pass_dir / "pred.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    if [r[0] for r in rows] != list(inputs.heldout_ids):
        return ["pred.csv ids differ from heldout.csv"]
    if tuple(payload["model"]["sample_ids"]) != inputs.train_ids:
        return ["model train samples differ from features.csv"]
    decisions = np.array([float(r[1]) for r in rows])
    errors = []
    expected = _oracle_decisions(payload, inputs)
    scale = float(np.abs(expected).max())
    worst = float(np.abs(decisions - expected).max())
    if not worst <= DECISION_RTOL * scale:
        errors.append(f"predict differs from the oracle by {worst:.3e} (scale {scale:.3e})")
    if workload.task == "classification":
        labels = [r[2] for r in rows]
        if labels != [POSITIVE if d >= 0 else NEGATIVE for d in decisions]:
            errors.append("predicted labels disagree with the decision signs")
        truth = [POSITIVE if t > 0 else NEGATIVE for t in inputs.heldout_y]
        quality = float(np.mean([a == b for a, b in zip(labels, truth)]))
        quality_name = "held-out accuracy"
    else:
        quality = float(np.corrcoef(decisions, inputs.heldout_y)[0, 1])
        quality_name = "held-out pearson r"
    if not quality > workload.floor:
        errors.append(f"{quality_name} {quality:.4f} is not above {workload.floor}")
    return errors


def check_report(workload: Workload, inputs: Inputs, pass_dir: Path) -> list[str]:
    """Outer test ids cover every sample once; the pooled score clears the floor."""
    errors = []
    report = json.loads((pass_dir / "cv" / "report.json").read_text())
    test_ids = [sid for fold in report["folds"] for sid in fold["test_ids"]]
    if sorted(test_ids) != sorted(inputs.train_ids):
        errors.append("outer test ids do not cover every sample exactly once")
    key = "balanced_accuracy" if workload.task == "classification" else "pearson_r"
    quality = report["pooled_metrics"][key]
    if quality is None or not quality > workload.floor:
        errors.append(f"cv pooled {key} {quality} is not above {workload.floor}")
    return errors


def report_digest(pass_dir: Path) -> str:
    """Hash of every report the ``cv`` command wrote, for rerun identity."""
    digest = hashlib.sha256()
    for path in sorted((pass_dir / "cv").glob("report*.json")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()
