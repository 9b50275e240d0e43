"""Elastic-net multiple kernel learning for SVM and kernel ridge regression.

Learns a sparse-to-uniform convex combination of per-group linear kernels
jointly with the predictor, using closed-form kernel-weight updates
alternated with standard single-kernel dual solvers.

Each public name loads its module on first use (PEP 562), so ``import
enmkl`` and the CLI commands that need no solver load no solver code.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it.
_HOME = {
    "ConvergenceError": "errors",
    "CvReport": "evaluation",
    "DataError": "errors",
    "EnmklError": "errors",
    "FoldPlan": "evaluation",
    "GroupedDataset": "kernels",
    "HyperGrid": "evaluation",
    "KernelStack": "kernels",
    "KrrDualSolution": "solvers",
    "MklModel": "model",
    "PrimalModel": "model",
    "StackPreprocessor": "kernels",
    "SvmDualSolution": "solvers",
    "UsageError": "errors",
    "auc": "evaluation",
    "balanced_accuracy": "evaluation",
    "build_linear_cross_kernels": "kernels",
    "build_linear_kernels": "kernels",
    "make_fold_plan": "evaluation",
    "model_from_dict": "model",
    "model_to_dict": "model",
    "mse": "evaluation",
    "nested_cv": "evaluation",
    "pearson_correlation": "evaluation",
    "predict": "solvers",
    "predict_model": "mkl",
    "recover_primal_weights": "mkl",
    "selected_kernel_count": "mkl",
    "solve_krr_dual": "solvers",
    "solve_svm_dual": "solvers",
    "train_enmkl_krr": "mkl",
    "train_enmkl_svm": "mkl",
    "train_sum_baseline": "mkl",
    "weighted_sum": "kernels",
}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
