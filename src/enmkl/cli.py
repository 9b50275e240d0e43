"""Command-line interface.

Subcommands cover the full workflow: ``kernels`` turns feature CSVs into
per-group Gram matrices, ``train`` fits a model on a kernel stack,
``predict`` scores new samples, ``cv`` runs nested cross-validation, and
``report`` renders stored models or reports as tables.

Exit codes: 0 on success, 1 for usage errors, 2 for data errors, 3 when a
solver fails to converge.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import io, mkl, solvers
from .errors import ConvergenceError, DataError, UsageError, named
from .evaluation import (
    DEFAULT_C_VALUES,
    DEFAULT_MU_VALUES,
    HyperGrid,
    make_fold_plan,
    nested_cv,
)
# cmd_train looks build_linear_kernels up here, where perfbench/tracer.py wraps it.
from .kernels import LinearKernelStream, StackPreprocessor, build_linear_kernels


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures raise instead of exiting 2."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _checked(convert, refuse, message: str):
    """An argparse ``type=``: ``convert(text)``, refused when ``refuse(value)``.

    The refusal is an :class:`argparse.ArgumentTypeError` with ``message``
    formatted with the value, so ``_Parser.error`` turns it into a usage
    error. The converter keeps ``convert``'s name: text that does not parse
    is reported as for a plain ``type=float`` or ``type=int``.
    """

    def parse(text):
        value = convert(text)
        if refuse(value):
            raise argparse.ArgumentTypeError(message.format(value))
        return value

    parse.__name__ = convert.__name__
    return parse


def _float_list(convert):
    """An argparse ``type=`` for one or comma-separated values, each read by ``convert``."""

    def parse(text):
        try:
            return tuple(map(convert, text.split(",")))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expects a number or comma-separated numbers, got {text!r}"
            ) from None

    return parse


_POSITIVE = _checked(float, lambda v: not 0 < v < np.inf, "must be positive and finite, got {!r}")
_MU = _checked(
    float,
    lambda mu: not 0.0 < mu <= 1.0,
    "must lie in (0, 1], got {!r}; use '--trainer sum-baseline' for the "
    "unweighted-sum (mu = 0) model",
)
_FOLDS = _checked(int, lambda k: k < 2, "must be at least 2, got {!r}")
_LIMIT = _checked(int, lambda n: n < 1, "must be at least 1, got {!r}")
_SEED = _checked(int, lambda s: s < 0, "must be non-negative, got {!r}")


def _beta_table(group_names, beta, group_sizes=None, header="kernel weights") -> str:
    order = sorted(range(len(beta)), key=lambda j: (-beta[j], group_names[j]))
    lines = [header]
    for j in order:
        size = "" if group_sizes is None else f"  ({group_sizes[j]} features)"
        lines.append(f"  {group_names[j]:<24s} {beta[j]:.6f}{size}")
    return "\n".join(lines)


def cmd_kernels(args) -> None:
    data, _ = io.load_grouped_dataset(args.features, args.groups)
    sources = {
        "features_file": str(Path(args.features).resolve()),
        "groups_file": str(Path(args.groups).resolve()),
        "features_sha256": io.sha256_file(args.features),
        "groups_sha256": io.sha256_file(args.groups),
    }
    with named(args.features):
        manifest_path = io.write_stack(
            args.out, LinearKernelStream(data), fmt=args.format, sources=sources
        )
    print(f"wrote {data.n_groups} kernels over {data.n_samples} samples to {manifest_path}")


def _recoverable_sources(where: str, manifest: dict):
    """Feature/group paths recorded at kernel-build time, when still intact."""
    sources = io._json_value(where, manifest, "sources", dict)
    features, groups, *digests = (
        io._json_value(where, sources, key, str) if key in sources else None
        for key in ("features_file", "groups_file", "features_sha256", "groups_sha256")
    )
    if not features or not groups:
        return None
    if not (Path(features).is_file() and Path(groups).is_file()):
        return None
    for path, recorded in zip((features, groups), digests):
        if recorded and io.sha256_file(path) != recorded:
            raise DataError(
                f"{path}: contents changed since the kernel stack was built; "
                "rerun the kernels command"
            )
    return features, groups


def _written_from(manifest: io.StackManifest, data) -> bool:
    """Whether the raw CSV stack of ``manifest`` is what ``kernels`` wrote from
    ``data``: the same samples and groups, and each kernel file's bytes those
    its recorded sha256 was taken of. The kernel files are hashed, not
    parsed; a missing one is left for the kernel route to name."""
    return (
        manifest.row_ids == manifest.col_ids == data.sample_ids
        and manifest.group_names == data.group_names
        and manifest.group_sizes == data.group_sizes
        and all(
            path.is_file() and io.sha256_file(path) == digest
            for path, digest in zip(manifest.files, manifest.digests)
        )
    )


def cmd_train(args) -> None:
    if args.trainer == "enmkl" and args.mu is None:
        raise UsageError("--mu is required when training the enmkl model")
    if args.trainer == "sum-baseline" and args.mu is not None:
        raise UsageError("--mu does not apply to the sum baseline")

    manifest = io.read_manifest(args.stack)
    sources = _recoverable_sources(args.stack, manifest.raw)
    center, normalize = not args.no_center, not args.no_normalize
    raw_csv = manifest.fmt == "csv" and not (manifest.centered or manifest.normalized)
    data = raw_stack = None
    if sources is not None and raw_csv and None not in manifest.digests:
        data, _ = io.load_grouped_dataset(*sources)
    if data is not None and _written_from(manifest, data):
        row_ids = data.sample_ids
    else:
        raw_stack, _, buffer = io.read_stack(manifest)
        row_ids = raw_stack.row_ids
    targets, label_mapping = io.parse_targets(args.targets, row_ids, args.task)
    with named(args.stack):
        if raw_stack is None:
            # The feature route: the kernels of the source rows, centered
            # before the products are taken, as cv builds its partitions'.
            stack = build_linear_kernels(data, center, normalize)
        else:
            stack = StackPreprocessor(center, normalize).fit(raw_stack, out=buffer).train_stack_
            del raw_stack  # the fit overwrote the values it was read into
        model = mkl.train_model(
            stack, targets, args.task, args.trainer, args.C, args.mu,
            conv_tol=args.conv_tol, max_iter=args.max_iter,
            solver_tol=args.solver_tol, max_updates=args.smo_max_updates,
        )

    payload = {
        "format_version": io.MODEL_FORMAT_VERSION,
        "model": mkl.model_to_dict(model),
        "preprocessing": {"center": center, "normalize": normalize},
        "label_mapping": None
        if label_mapping is None
        else {str(raw): value for raw, value in label_mapping.items()},
        "features": None,
        "primal": None,
    }

    if sources is not None:
        if data is None:
            data, _ = io.load_grouped_dataset(*sources)
        train_data = data.subset(stack.row_ids)
        primal = mkl.recover_primal_weights(model, train_data)
        payload["features"] = {"feature_names": list(train_data.feature_names)}
        payload["primal"] = primal.to_dict()

    io.write_json(args.out, payload)
    if not model.converged:
        flavor = "degenerate (all block norms zero)" if model.degenerate else "not converged"
        print(f"warning: weight optimization {flavor} after {model.iterations} iterations")
    print(_beta_table(model.group_names, model.beta, model.group_sizes))
    print(f"wrote model to {args.out}")


def _model_section(path, payload: dict, key: str, decode):
    """``decode(payload[key])`` for one section of a model file.

    A missing or ill-typed key, or a number that is not a finite float,
    becomes a :class:`DataError` naming the file.
    """
    try:
        return decode(payload[key])
    except KeyError as exc:
        raise DataError(f"{path}: model file is missing {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: malformed model file ({exc})") from None


def _load_model_payload(path):
    payload = io.read_json(path)
    if not isinstance(payload, dict) or "model" not in payload:
        raise DataError(f"{path}: not a model file")
    if not io.has_version(payload, "format_version", io.MODEL_FORMAT_VERSION):
        raise DataError(
            f"{path}: model file is not format_version {io.MODEL_FORMAT_VERSION}; "
            "rerun the train command"
        )
    return payload, _model_section(path, payload, "model", mkl.model_from_dict)


def _label_names(mapping) -> dict:
    """Raw label per -1/+1 class from a model file's ``label_mapping``."""
    if not isinstance(mapping, dict):
        raise TypeError("'label_mapping' must be an object")
    return {float(v): str(k) for k, v in mapping.items()}


def _predicted_labels(path, model, payload, decisions):
    """A classifier's raw label per decision value; None for regression."""
    if model.task != "classification":
        return None
    reverse = {}
    if payload.get("label_mapping") is not None:
        reverse = _model_section(path, payload, "label_mapping", _label_names)
    return [
        reverse.get(1.0 if d >= 0 else -1.0, "+1" if d >= 0 else "-1") for d in decisions
    ]


def cmd_predict(args) -> None:
    payload, model = _load_model_payload(args.model)
    if payload.get("primal") is None:
        raise DataError(
            f"{args.model}: model carries no primal weights (the feature files the "
            "kernel stack was built from were not in place at train time); rerun "
            "kernels and train with the feature files in place"
        )
    sample_ids, feature_names, features = io.read_features_csv(args.features)
    stored = payload.get("features") or {}
    if tuple(stored.get("feature_names", ())) != feature_names:
        raise DataError(
            f"{args.features}: feature columns do not match the model's training features"
        )
    primal = _model_section(args.model, payload, "primal", mkl.PrimalModel.from_dict)
    with named(args.features):
        decisions = primal.decision_values(features, sample_ids=sample_ids)
    labels = _predicted_labels(args.model, model, payload, decisions)
    io.write_predictions_csv(args.out, sample_ids, decisions, labels)
    print(f"wrote {len(sample_ids)} predictions to {args.out}")


def _weights_csv(report_dict) -> str:
    names = report_dict["group_names"]
    sizes = report_dict["group_sizes"]
    beta = report_dict["mean_beta"]
    order = sorted(range(len(names)), key=lambda j: (-beta[j], names[j]))
    lines = ["group,mean_weight,n_features"]
    lines += [f"{names[j]},{beta[j]!r},{sizes[j]}" for j in order]
    return "\n".join(lines) + "\n"


def _metrics_text(metrics) -> str:
    return "  ".join(
        f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}" for k, v in sorted(metrics.items())
    )


def _report_text(report_dict) -> str:
    lines = [f"task: {report_dict['task']}   trainer: {report_dict['trainer']}"]
    names = report_dict["group_names"]
    for fold in report_dict["folds"]:
        metrics = _metrics_text(fold["metrics"])
        mu = "-" if fold["selected_mu"] is None else f"{fold['selected_mu']:g}"
        lines.append(f"  fold {fold['fold_index']}: C={fold['selected_c']:g} mu={mu}  {metrics}")
    lines.append(f"pooled: {_metrics_text(report_dict['pooled_metrics'])}")
    lines.append(f"selected kernels: {report_dict['selected_count']} of {len(names)}")
    lines.append(_beta_table(names, report_dict["mean_beta"], report_dict["group_sizes"],
                             header="mean kernel weights"))
    return "\n".join(lines)


def _load_report(path) -> tuple[str, str]:
    """The printout and the weights CSV of a CV report file, or a DataError naming it."""
    report_dict = io.read_json(path)
    if not isinstance(report_dict, dict) or "pooled_metrics" not in report_dict:
        raise DataError(f"{path}: not a cross-validation report")
    try:
        return _report_text(report_dict), _weights_csv(report_dict)
    except KeyError as exc:
        raise DataError(f"{path}: report file is missing {exc}") from None
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed report file ({exc})") from None


def cmd_cv(args) -> None:
    if args.grid and (args.C is not None or args.mu is not None):
        raise UsageError("--grid replaces --C/--mu; pass one or the other")

    # --out is made only after the fits, so a failed cv leaves no folder; an
    # --out that cannot become a folder is refused before them.
    out_dir = Path(args.out)
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise DataError(f"--out {out_dir}: {existing} exists and is not a directory")

    data, _ = io.load_grouped_dataset(args.features, args.groups, args.targets, args.task)
    blocks = io.read_blocks(args.blocks, data.sample_ids) if args.blocks else None
    labels = data.targets if args.task == "classification" else None
    with named(args.blocks or args.features):
        plan = make_fold_plan(
            data.sample_ids, args.k_outer, args.k_inner,
            blocks=blocks, seed=args.seed, labels=labels,
        )
    grid = HyperGrid(
        c_values=DEFAULT_C_VALUES if args.C is None else args.C,
        mu_values=DEFAULT_MU_VALUES if args.mu is None else args.mu,
    )
    common = dict(
        center=not args.no_center, normalize=not args.no_normalize,
        conv_tol=args.conv_tol, max_iter=args.max_iter,
        solver_tol=args.solver_tol, max_updates=args.smo_max_updates,
    )

    report = nested_cv(
        data, args.task, plan, grid, trainer=args.trainer,
        baseline=args.baseline and args.trainer != "sum-baseline", **common,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    report_dict = report.to_dict()
    io.write_json(out_dir / "report.json", report_dict)
    io.atomic_write_text(out_dir / "weights.csv", _weights_csv(report_dict))
    print(_report_text(report_dict))

    base = report.baseline
    if base is not None:
        io.write_json(out_dir / "report_baseline.json", base.to_dict())
        print("\nsum-baseline comparison")
        for key, value in sorted(base.pooled_metrics.items()):
            main_value = report.pooled_metrics.get(key)
            main_text = "n/a" if main_value is None else f"{main_value:.4f}"
            base_text = "n/a" if value is None else f"{value:.4f}"
            print(f"  {key}: enmkl={main_text}  baseline={base_text}")
    print(f"wrote report to {out_dir / 'report.json'}")


def cmd_report(args) -> None:
    if (args.model is None) == (args.report is None):
        raise UsageError("report needs exactly one of --model or --report")
    if args.model is not None:
        payload, model = _load_model_payload(args.model)
        status = "converged" if model.converged else "not converged"
        print(
            f"task: {model.task}   mu: {model.mu:g}   C: {model.C:g}   "
            f"iterations: {model.iterations} ({status})"
        )
        print(_beta_table(model.group_names, model.beta, model.group_sizes))
        if args.csv:
            report_like = {
                "group_names": list(model.group_names),
                "group_sizes": list(model.group_sizes or [0] * len(model.group_names)),
                "mean_beta": model.beta.tolist(),
            }
            io.atomic_write_text(args.csv, _weights_csv(report_like))
            print(f"wrote weights to {args.csv}")
    else:
        text, weights = _load_report(args.report)
        print(text)
        if args.csv:
            io.atomic_write_text(args.csv, weights)
            print(f"wrote weights to {args.csv}")


def _add_solver_options(parser) -> None:
    parser.add_argument("--conv-tol", type=_POSITIVE, default=mkl.DEFAULT_CONV_TOL,
                        help="weight-update convergence tolerance")
    parser.add_argument("--max-iter", type=_LIMIT, default=mkl.DEFAULT_MAX_ITER,
                        help="maximum alternating iterations")
    parser.add_argument("--solver-tol", type=_POSITIVE, default=solvers.DEFAULT_SVM_TOL,
                        help="inner SVM KKT tolerance")
    parser.add_argument("--smo-max-updates", type=_LIMIT, default=solvers.DEFAULT_MAX_UPDATES,
                        help="hard cap on SMO pair updates")
    parser.add_argument("--no-center", action="store_true",
                        help="skip kernel centering")
    parser.add_argument("--no-normalize", action="store_true",
                        help="skip kernel normalization")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="enmkl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    p = sub.add_parser("kernels", help="build per-group linear kernels from feature CSVs")
    p.add_argument("--features", required=True, help="features CSV (id column first)")
    p.add_argument("--groups", required=True, help="feature-to-group map CSV")
    p.add_argument("--out", required=True, help="output directory for the kernel stack")
    p.add_argument("--format", choices=("csv", "binary"), default="csv",
                   help="kernel file format")
    p.set_defaults(func=cmd_kernels)

    p = sub.add_parser("train", help="train a model on a kernel stack")
    p.add_argument("--stack", required=True, help="stack manifest from the kernels command")
    p.add_argument("--targets", required=True, help="targets CSV (id,target)")
    p.add_argument("--task", required=True, choices=("classification", "regression"))
    p.add_argument("--C", type=_POSITIVE, required=True, help="regularization weight")
    p.add_argument("--mu", type=_MU, default=None,
                   help="elastic-net mixing value in (0, 1]")
    p.add_argument("--trainer", choices=("enmkl", "sum-baseline"), default="enmkl")
    p.add_argument("--out", required=True, help="output model JSON path")
    _add_solver_options(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score samples with a trained model")
    p.add_argument("--model", required=True, help="model JSON from the train command")
    p.add_argument("--features", required=True,
                   help="features CSV; uses the recovered primal weights")
    p.add_argument("--out", required=True, help="output predictions CSV")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("cv", help="nested cross-validation with hyperparameter selection")
    p.add_argument("--features", required=True)
    p.add_argument("--groups", required=True)
    p.add_argument("--targets", required=True)
    p.add_argument("--task", required=True, choices=("classification", "regression"))
    p.add_argument("--trainer", choices=("enmkl", "sum-baseline"), default="enmkl")
    p.add_argument("--C", type=_float_list(_POSITIVE), default=None,
                   help="C value or comma-separated C grid (default: 1e-3..1e3)")
    p.add_argument("--mu", type=_float_list(_MU), default=None,
                   help="mu value or comma-separated mu grid (default: 0.1..1.0)")
    p.add_argument("--grid", action="store_true",
                   help="use the default hyperparameter grid (explicit form)")
    p.add_argument("--k-outer", type=_FOLDS, default=5, help="outer folds")
    p.add_argument("--k-inner", type=_FOLDS, default=5, help="inner folds")
    p.add_argument("--blocks", default=None,
                   help="CSV mapping sample ids to blocks that must not be split")
    p.add_argument("--seed", type=_SEED, default=0, help="fold-plan RNG seed")
    p.add_argument("--baseline", action="store_true",
                   help="also run the sum baseline and print a comparison")
    p.add_argument("--out", required=True, help="output directory")
    _add_solver_options(p)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("report", help="print a stored model or CV report")
    p.add_argument("--model", default=None, help="model JSON")
    p.add_argument("--report", default=None, help="CV report JSON")
    p.add_argument("--csv", default=None, help="also write the weight table as CSV")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return 0
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (None, 0) else 1
    except (UsageError, DataError, OSError, ConvergenceError) as exc:
        # Only these are input faults; any other exception is a bug.
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, UsageError) else 3 if isinstance(exc, ConvergenceError) else 2


def entry() -> None:
    sys.exit(main())
