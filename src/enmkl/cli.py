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
import math
import sys
from pathlib import Path

# A command checks its options and output paths first, then imports the
# modules it runs, so --help and every refusal of them load no numpy,
# report --report loads only io, and predict and report --model only io and
# model: no kernel, solver, fit or cv code.
from .errors import ConvergenceError, DataError, UsageError, named


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


_POSITIVE = _checked(float, lambda v: not 0 < v < math.inf, "must be positive and finite, got {!r}")
_MU = _checked(
    float,
    lambda mu: not 0.0 < mu <= 1.0,
    "must lie in (0, 1], got {!r}; use '--trainer sum-baseline' for the "
    "unweighted-sum (mu = 0) model",
)
_FOLDS = _checked(int, lambda k: k < 2, "must be at least 2, got {!r}")
_LIMIT = _checked(int, lambda n: n < 1, "must be at least 1, got {!r}")
_SEED = _checked(int, lambda s: s < 0, "must be non-negative, got {!r}")


def _check_out(args, flag: str, inputs, writes=()) -> None:
    """Refuse, before any work, the output of option ``flag``: a file that is
    a directory or whose directory is missing, or, given ``writes`` (glob
    patterns of the files written into it), a directory at or under a file;
    and either when a file it would write is the file of an option in ``inputs``.
    The message names the paths as given."""
    path = getattr(args, flag[2:])
    out = Path(path)
    written = [p for pattern in writes for p in out.glob(pattern)] if writes else [out]
    if writes:
        existing = next(p for p in (out, *out.parents) if p.exists())
        fault = None if existing.is_dir() else f"{existing} exists and is not a directory"
    elif out.is_dir():
        fault = "Is a directory"
    else:
        fault = None if out.parent.is_dir() else f"No such directory: {out.parent}"
    if fault:
        raise DataError(f"{flag} {path}: {fault}")
    for option in inputs:
        given = getattr(args, option[2:])
        if given and Path(given).is_file() and any(
            p.is_file() and p.samefile(given) for p in written
        ):
            raise DataError(f"{flag} {path}: would overwrite the input {option} {given}")


def cmd_kernels(args) -> None:
    kernel_files = "kernel_[0-9]*." + ("csv" if args.format == "csv" else "bin")
    _check_out(args, "--out", ("--features", "--groups"), writes=("stack.json", kernel_files))
    from . import io
    from .kernels import LinearKernelStream

    data = io.load_grouped_dataset(args.features, args.groups)
    with named(args.features):
        manifest_path = io.write_stack(
            args.out, LinearKernelStream(data), fmt=args.format,
            sources=(args.features, args.groups),
        )
    print(f"wrote {data.n_groups} kernels over {data.n_samples} samples to {manifest_path}")


def _recoverable_sources(manifest: io.StackManifest):
    """Feature/group paths recorded at kernel-build time, when still intact."""
    from . import io

    if manifest.sources is None or not all(Path(path).is_file() for path, _ in manifest.sources):
        return None
    for path, recorded in manifest.sources:
        if io.sha256_file(path) != recorded:
            raise DataError(
                f"{path}: contents changed since the kernel stack was built; "
                "rerun the kernels command"
            )
    return tuple(path for path, _ in manifest.sources)


def _written_from(manifest: io.StackManifest, data) -> bool:
    """Whether ``manifest`` is a raw CSV stack that ``kernels`` wrote from
    ``data``: not preprocessed, the same samples and groups, and each kernel
    file's bytes those its recorded sha256 was taken of. The kernel files are
    hashed, not parsed; a missing one is left for the kernel route to name."""
    from . import io

    return (
        manifest.fmt == "csv" and not (manifest.centered or manifest.normalized)
        and None not in manifest.digests and manifest.row_ids == data.sample_ids
        and manifest.group_names == data.group_names
        and manifest.group_sizes == data.group_sizes
        and all(
            path.is_file() and io.sha256_file(path) == digest
            for path, digest in zip(manifest.files, manifest.digests)
        )
    )


def _fit_options(args) -> dict:
    """The fit options given, under their library keywords, which are their
    destinations; the library's own defaults apply to the rest."""
    keys = ("conv_tol", "max_iter", "solver_tol", "max_updates")
    return {key: getattr(args, key) for key in keys if hasattr(args, key)}


def cmd_train(args) -> None:
    if args.trainer == "enmkl" and args.mu is None:
        raise UsageError("--mu is required when training the enmkl model")
    if args.trainer == "sum-baseline" and args.mu is not None:
        raise UsageError("--mu does not apply to the sum baseline")
    _check_out(args, "--out", ("--stack", "--targets"))
    from . import io, mkl
    from .model import write_model_file
    from .kernels import StackPreprocessor

    manifest = io.read_manifest(args.stack)
    out = Path(args.out)
    for listed in (*manifest.files, *(path for path, _ in manifest.sources or ())):
        if out.is_file() and Path(listed).is_file() and out.samefile(listed):
            raise DataError(
                f"--out {args.out}: would overwrite {listed}, an input listed in --stack {args.stack}"
            )
    sources = _recoverable_sources(manifest)
    center, normalize = not args.no_center, not args.no_normalize
    data = None if sources is None else io.load_grouped_dataset(*sources)
    raw_stack = None
    if data is not None and _written_from(manifest, data):
        row_ids = data.sample_ids
    else:
        raw_stack, buffer = io.read_stack(manifest)
        row_ids = raw_stack.row_ids
        if data is not None:
            # The source rows of the stack's samples, which the primal
            # weights are recovered from.
            try:
                data = data.subset(row_ids)
            except ValueError as exc:
                raise DataError(
                    f"{args.stack}: {exc} in {sources[0]}; rerun the kernels command"
                ) from None
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
            stack, targets, args.task, args.trainer, args.C, args.mu, **_fit_options(args)
        )

    feature_names = primal = None
    if data is not None:
        primal = mkl.recover_primal_weights(model, data)
        feature_names = data.feature_names
    write_model_file(args.out, model, label_mapping, feature_names, primal)
    if not model.converged:
        flavor = "degenerate (all block norms zero)" if model.degenerate else "not converged"
        print(f"warning: weight optimization {flavor} after {model.iterations} iterations")
    print(io.beta_table(model.group_names, model.beta, model.group_sizes))
    print(f"wrote model to {args.out}")


def cmd_predict(args) -> None:
    _check_out(args, "--out", ("--model", "--features"))
    from . import io, model

    _, primal, feature_names, class_labels = model.read_model_file(args.model)
    if primal is None:
        raise DataError(
            f"{args.model}: model carries no primal weights (the feature files the "
            "kernel stack was built from were not in place at train time); rerun "
            "kernels and train with the feature files in place"
        )
    sample_ids, names, features = io.read_features_csv(args.features)
    if names != feature_names:
        raise DataError(
            f"{args.features}: feature columns do not match the model's training features"
        )
    with named(args.features):
        decisions = primal.decision_values(features, sample_ids=sample_ids)
    labels = None if class_labels is None else [class_labels[d >= 0] for d in decisions.tolist()]
    io.write_predictions_csv(args.out, sample_ids, decisions, labels)
    print(f"wrote {len(sample_ids)} predictions to {args.out}")


# Tracer-only: perfbench/tracer.py wraps these three at this name, and tests
# patch them here. They go once the tracer wraps the functions they forward to.
def build_linear_kernels(*args, **kwargs):
    from . import kernels

    return kernels.build_linear_kernels(*args, **kwargs)


def make_fold_plan(*args, **kwargs):
    from . import evaluation

    return evaluation.make_fold_plan(*args, **kwargs)


def nested_cv(*args, **kwargs):
    from . import evaluation

    return evaluation.nested_cv(*args, **kwargs)


def cmd_cv(args) -> None:
    if args.grid and (args.C is not None or args.mu is not None):
        raise UsageError("--grid replaces --C/--mu; pass one or the other")
    # --out is made only after the fits, so a failed cv leaves no folder.
    _check_out(args, "--out", ("--features", "--groups", "--targets", "--blocks"),
               writes=("report.json", "weights.csv", "report_baseline.json"))
    from . import evaluation, io

    out_dir = Path(args.out)
    data = io.load_grouped_dataset(args.features, args.groups, args.targets, args.task)
    blocks = io.read_blocks(args.blocks, data.sample_ids) if args.blocks else None
    labels = data.targets if args.task == "classification" else None
    with named(args.blocks or args.features):
        plan = make_fold_plan(
            data.sample_ids, args.k_outer, args.k_inner,
            blocks=blocks, seed=args.seed, labels=labels,
        )
    grid = evaluation.HyperGrid(
        c_values=evaluation.DEFAULT_C_VALUES if args.C is None else args.C,
        mu_values=evaluation.DEFAULT_MU_VALUES if args.mu is None else args.mu,
    )

    report = nested_cv(
        data, args.task, plan, grid, trainer=args.trainer,
        center=not args.no_center, normalize=not args.no_normalize,
        baseline=args.baseline and args.trainer != "sum-baseline", **_fit_options(args),
    )
    base = None if report.baseline is None else report.baseline.to_dict()
    print(io.write_cv_report(out_dir, report.to_dict(), base))
    print(f"wrote report to {out_dir / 'report.json'}")


def cmd_report(args) -> None:
    if (args.model is None) == (args.report is None):
        raise UsageError("report needs exactly one of --model or --report")
    if args.csv:
        _check_out(args, "--csv", ("--model", "--report"))
    from . import io

    if args.model is not None:
        from .model import read_model_file

        model, *_ = read_model_file(args.model)
        status = "converged" if model.converged else "not converged"
        names, sizes = model.group_names, model.group_sizes or [0] * len(model.group_names)
        text = (
            f"task: {model.task}   mu: {model.mu:g}   C: {model.C:g}   "
            f"iterations: {model.iterations} ({status})\n"
            + io.beta_table(names, model.beta, model.group_sizes)
        )
        weights = io.weights_csv(names, sizes, model.beta.tolist())
    else:
        text, weights = io.read_cv_report(args.report)
    print(text)
    if args.csv:
        io.atomic_write_text(args.csv, weights)
        print(f"wrote weights to {args.csv}")


def _add_solver_options(parser) -> None:
    # No default: an option left out is absent from the namespace (_fit_options).
    unset = argparse.SUPPRESS
    parser.add_argument("--conv-tol", type=_POSITIVE, default=unset,
                        help="weight-update convergence tolerance")
    parser.add_argument("--max-iter", type=_LIMIT, default=unset,
                        help="maximum alternating iterations")
    parser.add_argument("--solver-tol", type=_POSITIVE, default=unset,
                        help="inner SVM KKT tolerance")
    parser.add_argument("--smo-max-updates", type=_LIMIT, default=unset, dest="max_updates",
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
