"""Layer tracing for the enmkl benchmark, applied from outside the package.

Run as a script, this file stands in for ``python -m enmkl``::

    python3 perfbench/tracer.py SPANS.json RUN_ID <enmkl CLI arguments...>

It replaces the public functions of ``enmkl.cli``, ``enmkl.io``,
``enmkl.kernels``, ``enmkl.solvers``, ``enmkl.mkl`` and
``enmkl.evaluation`` with wrappers that record one span per call, then
runs the CLI and writes the spans to SPANS.json when it exits. Each
function is wrapped at the name its caller looks up: ``cli.py`` imports
``build_linear_kernels`` by name, so the wrapper goes on
``enmkl.cli.build_linear_kernels``, while ``mkl.py`` reaches the solvers
through the module, so the wrapper goes on ``enmkl.solvers.solve_svm_dual``.
No file of the package is changed.

A span is ``{name, start, end, parent, run}`` plus the counts measured at
that boundary. ``start``/``end`` come from ``time.perf_counter``, which is
CLOCK_MONOTONIC on Linux and so shares its origin across processes.
``parent`` is the index of the enclosing span in the same process, or -1.

:func:`summarize` turns the spans of one benchmark pass into the per-layer
metrics; self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

COMPUTED_BYTES_PER_FLOAT = 8


class SpanRecorder:
    """Keeps spans in memory and tracks the enclosing span per call."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name, fn, counts=None):
        """Return ``fn`` wrapped so each call records a span called ``name``.

        ``counts(args, kwargs, result)`` may return a dict of counts that is
        stored on the span once the call returns.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "start": 0.0,
                "end": 0.0,
                "parent": self._open[-1] if self._open else -1,
                "run": self.run_id,
            }
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counts is not None:
                span.update(counts(args, kwargs, result))
            return result

        return traced

    def write(self, path) -> None:
        Path(path).write_text(json.dumps(self.spans))


def _smo_counts(args, kwargs, solution):
    return {"updates": int(solution.iterations)}


def _fit_counts(args, kwargs, model):
    return {"iterations": int(model.iterations), "converged": bool(model.converged)}


def _weighted_sum_counts(args, kwargs, combined):
    stack, beta = args[0], args[1]
    used = sum(1 for b in beta if b != 0.0)
    # Computed, not measured: every used kernel is read once and the
    # combined matrix is written once.
    cells = stack.n_rows * stack.n_cols
    return {"bytes": COMPUTED_BYTES_PER_FLOAT * cells * (used + 1)}


def _preprocess_counts(args, kwargs, fitted):
    raw_stack = args[1]
    digest = hashlib.sha256("\n".join(raw_stack.row_ids).encode()).hexdigest()
    return {"partition": digest}


def _write_stack_counts(args, kwargs, manifest_path):
    folder = Path(manifest_path).parent
    return {"bytes": sum(p.stat().st_size for p in folder.iterdir() if p.is_file())}


def install(recorder: SpanRecorder) -> None:
    """Wrap the package's public functions at the names their callers use."""
    import enmkl.cli as cli
    import enmkl.evaluation as evaluation
    import enmkl.io as io
    import enmkl.kernels as kernels
    import enmkl.mkl as mkl
    import enmkl.solvers as solvers

    targets = [
        (cli, "cmd_kernels", "cli.kernels", None),
        (cli, "cmd_train", "cli.train", None),
        (cli, "cmd_predict", "cli.predict", None),
        (cli, "cmd_cv", "cli.cv", None),
        (io, "load_grouped_dataset", "io.load_dataset", None),
        (io, "read_features_csv", "io.read_features", None),
        (io, "parse_targets", "io.parse_targets", None),
        (io, "write_stack", "io.write_stack", _write_stack_counts),
        (io, "read_stack", "io.read_stack", None),
        (io, "write_json", "io.write_json", None),
        (io, "read_json", "io.read_json", None),
        (io, "sha256_file", "io.sha256", None),
        (io, "write_predictions_csv", "io.write_predictions", None),
        (cli, "build_linear_kernels", "kernels.build", None),
        (evaluation, "build_linear_kernels", "kernels.build", None),
        (evaluation, "build_linear_cross_kernels", "kernels.build_cross", None),
        (kernels.StackPreprocessor, "fit", "kernels.preprocess_fit", _preprocess_counts),
        (kernels.StackPreprocessor, "transform_cross", "kernels.transform_cross", None),
        (mkl, "weighted_sum", "kernels.weighted_sum", _weighted_sum_counts),
        (solvers, "solve_svm_dual", "solvers.smo", _smo_counts),
        (solvers, "solve_krr_dual", "solvers.krr", None),
        (solvers, "predict", "solvers.predict", None),
        (mkl, "train_enmkl_svm", "mkl.fit", _fit_counts),
        (mkl, "train_enmkl_krr", "mkl.fit", _fit_counts),
        (mkl, "train_sum_baseline", "mkl.fit", _fit_counts),
        (mkl, "enmkl_objective", "mkl.objective", None),
        (mkl, "compute_block_norms", "mkl.block_norms", None),
        (mkl, "predict_model", "mkl.predict", None),
        (mkl, "recover_primal_weights", "mkl.recover_primal", None),
        (mkl.PrimalModel, "decision_values", "mkl.primal_decision", None),
        (cli, "make_fold_plan", "evaluation.fold_plan", None),
        (cli, "nested_cv", "evaluation.nested_cv", None),
    ]
    for owner, attr, name, counts in targets:
        setattr(owner, attr, recorder.wrap(name, getattr(owner, attr), counts))


def _duration(span: dict) -> float:
    return (span["end"] - span["start"]) / span.get("slowdown", 1.0)


def summarize(spans: list[dict]) -> dict:
    """Per-layer metrics of one benchmark pass from all of its spans.

    ``spans`` may come from several processes; ``parent`` indices refer to
    the spans of the same run id, in the order that process recorded them.
    A span's optional ``slowdown`` (see ``probe.py``) rescales its duration
    to the probe's reference CPU speed.
    """
    total = defaultdict(float)
    calls = Counter()
    child_time = defaultdict(float)  # keyed by (run, index)
    by_run = defaultdict(list)
    for span in spans:
        by_run[span["run"]].append(span)
    for run, run_spans in by_run.items():
        for span in run_spans:
            duration = _duration(span)
            total[span["name"]] += duration
            calls[span["name"]] += 1
            if span["parent"] >= 0:
                child_time[(run, span["parent"])] += duration

    def self_time(name):
        return sum(
            _duration(span) - child_time[(run, i)]
            for run, run_spans in by_run.items()
            for i, span in enumerate(run_spans)
            if span["name"] == name
        )

    def count_sum(name, key):
        return sum(s.get(key, 0) for s in spans if s["name"] == name)

    fits = [s for s in spans if s["name"] == "mkl.fit"]
    partitions = [s["partition"] for s in spans if s["name"] == "kernels.preprocess_fit"]
    smo_updates = count_sum("solvers.smo", "updates")
    return {
        "solvers.smo_s": (total["solvers.smo"], "s"),
        "solvers.smo_calls": (calls["solvers.smo"], "count"),
        "solvers.smo_updates": (smo_updates, "count"),
        "solvers.smo_us_per_update": (
            1e6 * total["solvers.smo"] / smo_updates if smo_updates else 0.0, "us"
        ),
        "solvers.krr_s": (total["solvers.krr"], "s"),
        "solvers.krr_calls": (calls["solvers.krr"], "count"),
        "kernels.weighted_sum_s": (total["kernels.weighted_sum"], "s"),
        "kernels.weighted_sum_calls": (calls["kernels.weighted_sum"], "count"),
        "kernels.weighted_sum_bytes": (
            count_sum("kernels.weighted_sum", "bytes"), "bytes_computed"
        ),
        "mkl.objective_s": (total["mkl.objective"], "s"),
        "mkl.block_norms_s": (total["mkl.block_norms"], "s"),
        "mkl.fit_s": (total["mkl.fit"], "s"),
        "mkl.fit_self_s": (self_time("mkl.fit"), "s"),
        "mkl.fits": (len(fits), "count"),
        "mkl.outer_iterations": (sum(s["iterations"] for s in fits), "count"),
        "mkl.unconverged_fits": (sum(not s["converged"] for s in fits), "count"),
        "kernels.build_s": (total["kernels.build"], "s"),
        "kernels.build_cross_s": (total["kernels.build_cross"], "s"),
        "kernels.preprocess_fit_s": (total["kernels.preprocess_fit"], "s"),
        "kernels.preprocess_fit_calls": (len(partitions), "count"),
        "kernels.transform_cross_s": (total["kernels.transform_cross"], "s"),
        "evaluation.nested_cv_s": (total["evaluation.nested_cv"], "s"),
        "evaluation.self_s": (self_time("evaluation.nested_cv"), "s"),
        "evaluation.preprocess_useful_ratio": (
            len(set(partitions)) / len(partitions) if partitions else 0.0, "ratio"
        ),
        "io.write_stack_s": (total["io.write_stack"], "s"),
        "io.read_stack_s": (total["io.read_stack"], "s"),
        "io.load_dataset_s": (total["io.load_dataset"], "s"),
        "io.write_json_s": (total["io.write_json"], "s"),
        "io.stack_bytes": (count_sum("io.write_stack", "bytes"), "bytes"),
    }


def main(argv: list[str]) -> int:
    spans_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    recorder = SpanRecorder(run_id)
    install(recorder)
    import enmkl.cli

    try:
        return enmkl.cli.main(cli_args)
    finally:
        recorder.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
