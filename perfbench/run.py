"""End-to-end and per-layer benchmark of the enmkl command-line interface.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload svm-chain --seed 1 --seconds 20 --trace 0

The benchmark writes seeded inputs under ``.perfbench_work/``, then drives
the CLI in subprocesses: a closed loop with one CLI child at a time, from
this single process. One pass runs ``kernels -> train -> predict -> cv``
(see ``workloads.py``); passes repeat until ``--seconds`` have been
measured. Every output is checked, and every command that exits nonzero or
fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics: the median time of each
command over the passes, the median of several ``python -m enmkl --help``
start-ups as ``setup_s``, and the highest peak RSS of any child. Times are
wall times divided by the CPU slowdown that ``probe.py`` measured while the
child ran, i.e. wall seconds at the probe's reference speed; the raw wall
medians are printed beside them.

``--trace 1`` alternates plain passes with passes run through
``tracer.py`` and reports the per-layer metrics of the traced passes, plus
the tracing overhead. Count metrics must repeat exactly between passes.
The spans of the run are kept in
``.perfbench_work/<workload>-seed<seed>.spans.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every check passed, 1 when one failed and 2 when the checkout lacks
the package or the test helpers.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads, here and in every child.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from probe import SpeedProbe
from tracer import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".perfbench_work"

COMMANDS = ("kernels", "train", "predict", "cv")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 100.0

# Which end-to-end metric, on which workload, each per-layer metric should move.
LAYER_MAP = (
    (
        ("solvers.smo_s", "solvers.smo_calls", "solvers.smo_updates",
         "solvers.smo_us_per_update"),
        "cv_s on cv-grid and train_s on svm-chain; no change on krr-csv-chain",
    ),
    (("solvers.krr_s", "solvers.krr_calls"), "train_s on krr-csv-chain"),
    (
        ("kernels.weighted_sum_s", "kernels.weighted_sum_calls", "kernels.weighted_sum_bytes",
         "mkl.objective_s", "mkl.block_norms_s", "mkl.fit_s", "mkl.fit_self_s"),
        "train_s and peak_rss_mib on svm-chain, cv_s on cv-grid",
    ),
    (
        ("kernels.build_s", "kernels.build_cross_s", "kernels.preprocess_fit_s",
         "kernels.preprocess_fit_calls", "kernels.transform_cross_s", "evaluation.nested_cv_s",
         "evaluation.self_s", "evaluation.preprocess_useful_ratio"),
        "cv_s, most on cv-grid; no change on kernels_s, train_s, predict_s",
    ),
    (
        ("mkl.fits", "mkl.outer_iterations", "mkl.unconverged_fits"),
        "cv_s on cv-grid and train_s on both chains",
    ),
    (
        ("io.write_stack_s", "io.read_stack_s", "io.load_dataset_s", "io.write_json_s",
         "io.stack_bytes"),
        "kernels_s and train_s on krr-csv-chain; small on svm-chain",
    ),
    (("trace.overhead_s",), "none: traced minus untraced pass time"),
)


@dataclass
class Child:
    label: str
    wall_s: float
    slowdown: float
    rss_mib: float
    returncode: int

    @property
    def time_s(self) -> float:
        """Wall time at the probe's reference CPU speed."""
        return self.wall_s / self.slowdown


class Runner:
    """Starts CLI children one at a time and counts attempts and failures."""

    def __init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.attempted = 0
        self.failures: list[str] = []
        # Digest of the cv reports -> first pass that wrote them.
        self.report_digests: dict[str, str] = {}

    def run(self, argv: list[str], cwd: Path, label: str) -> Child:
        """Run one child to completion; wall time and peak RSS come from ``wait4``."""
        self.attempted += 1
        log_path = cwd / f"{label}.log"
        with open(log_path, "wb") as log, SpeedProbe() as probe:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=log, stderr=log)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        child = Child(label, wall, probe.slowdown, usage.ru_maxrss / 1024.0, proc.returncode)
        if child.returncode != 0:
            tail = log_path.read_text(errors="replace")[-400:].strip()
            self.fail(f"{label} exited {child.returncode}: {tail}")
        return child

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAILED: {message}", file=sys.stderr)


def machine_info(cpu: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')}-{blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def run_pass(runner, workload, inputs, seed, folder: Path, traced: bool):
    """One pass of the workload's commands. Returns (children, spans)."""
    from workloads import check_predictions, check_report, pass_commands, report_digest

    folder.mkdir(parents=True)
    children, spans = [], []
    for label, cli_args in pass_commands(workload, inputs, seed):
        if traced:
            spans_file = folder / f"{label}.spans.json"
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans_file),
                    f"{folder.name}/{label}", *cli_args]
        else:
            argv = [sys.executable, "-m", "enmkl", *cli_args]
        child = runner.run(argv, folder, label)
        children.append(child)
        if child.returncode != 0:
            break
        if traced:
            for span in json.loads(spans_file.read_text()):
                span["slowdown"] = child.slowdown
                spans.append(span)
        errors = []
        if label == "predict":
            errors = check_predictions(workload, inputs, folder)
        elif label == "cv":
            errors = check_report(workload, inputs, folder)
            runner.report_digests.setdefault(report_digest(folder), folder.name)
            if len(runner.report_digests) > 1:
                errors.append("cv reports differ between passes of one run")
        if errors:
            runner.fail(f"{folder.name} {label}: " + "; ".join(errors))
            break
    shutil.rmtree(folder)
    return children, spans


def median_metric(values, unit, raw=None):
    metric = {"value": statistics.median(values), "unit": unit, "samples": len(values)}
    if raw is not None:
        metric["raw_wall"] = statistics.median(raw)
    return metric


def time_metric(children):
    return median_metric([c.time_s for c in children], "s", raw=[c.wall_s for c in children])


def measure_end_to_end(runner, workload, inputs, seed, seconds, work: Path) -> dict:
    setup = [
        runner.run([sys.executable, "-m", "enmkl", "--help"], work, f"setup{i}")
        for i in range(SETUP_SAMPLES)
    ]
    metrics = {"setup_s": time_metric(setup)}

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        children, _ = run_pass(runner, workload, inputs, seed, work / f"pass{len(passes)}", False)
        passes.append(children)
        if runner.failures:
            return metrics
    for label in COMMANDS:
        metrics[f"{label}_s"] = time_metric([c for p in passes for c in p if c.label == label])
    rss = [c.rss_mib for p in passes for c in p]
    metrics["peak_rss_mib"] = {"value": max(rss), "unit": "MiB", "samples": len(rss)}
    return metrics


def measure_layers(runner, workload, inputs, seed, seconds, work: Path, spans_out: Path) -> dict:
    plain, traced, summaries, all_spans = [], [], [], []
    start = time.perf_counter()
    while not summaries or time.perf_counter() - start < seconds:
        for is_traced in (False, True):
            folder = work / f"pass{len(plain) + len(traced)}"
            children, spans = run_pass(runner, workload, inputs, seed, folder, is_traced)
            if runner.failures:
                return {}
            (traced if is_traced else plain).append(sum(c.time_s for c in children))
        summaries.append(summarize(spans))
        all_spans += spans

    spans_out.write_text("".join(json.dumps(s) + "\n" for s in all_spans))
    metrics = {}
    for name, (value, unit) in summaries[0].items():
        values = [s[name][0] for s in summaries]
        if unit in ("s", "us"):
            metrics[name] = median_metric(values, unit)
        else:
            if len(set(values)) > 1:
                runner.fail(f"count {name} differs between traced passes: {values}")
            metrics[name] = {"value": value, "unit": unit, "samples": len(values)}
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s", "samples": len(traced)}
    return metrics


def print_report(args, workload, info, inputs, metrics, runner) -> None:
    print(f"enmkl benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"why: {workload.why}")
    print("load: closed loop, one CLI child at a time from one generator process")
    for name, digest in inputs.sha256.items():
        print(f"input {name} sha256={digest}")
    for name, m in metrics.items():
        value = m["value"]
        text = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        line = f"  {name:<36s} {text} {m['unit']:<15s} n={m['samples']}"
        if "raw_wall" in m:
            line += f"  (median of n; raw wall median {m['raw_wall']:.6f} s)"
        print(line)
    if args.trace:
        print("layer -> end-to-end metric and workload it should move:")
        for names, target in LAYER_MAP:
            print(f"  {', '.join(names)}\n      -> {target}")
    failed = len(runner.failures)
    rate = failed / runner.attempted if runner.attempted else 0.0
    print(f"  error_rate {rate:.4f} ({failed} failed of {runner.attempted} commands attempted)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "enmkl" / "cli.py").is_file() or not (TESTS / "helpers.py").is_file():
        print(f"error: {ROOT} lacks src/enmkl or tests/helpers.py", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]
    # Imported only now: they need the package and the test helpers on sys.path.
    from workloads import WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    # The children inherit this CPU, the one the speed probe samples.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    work = WORK / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        info = machine_info(cpu)
        inputs = make_inputs(workload, args.seed, work / "inputs")
        runner = Runner()
        # Untimed warm-up: compiles the package's bytecode and warms the page cache.
        runner.run([sys.executable, "-m", "enmkl", "--help"], work, "warmup")
        if args.trace:
            spans_out = WORK / f"{workload.name}-seed{args.seed}.spans.jsonl"
            metrics = measure_layers(runner, workload, inputs, args.seed, args.seconds,
                                     work, spans_out)
        else:
            metrics = measure_end_to_end(runner, workload, inputs, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print_report(args, workload, info, inputs, metrics, runner)
    correct = not runner.failures
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
