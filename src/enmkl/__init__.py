"""Elastic-net multiple kernel learning for SVM and kernel ridge regression.

Learns a sparse-to-uniform convex combination of per-group linear kernels
jointly with the predictor, using closed-form kernel-weight updates
alternated with standard single-kernel dual solvers.
"""

from .errors import ConvergenceError, DataError, EnmklError, UsageError
from .kernels import (
    GroupedDataset,
    KernelStack,
    StackPreprocessor,
    build_linear_cross_kernels,
    build_linear_kernels,
    weighted_sum,
)
from .solvers import (
    KrrDualSolution,
    SvmDualSolution,
    predict,
    solve_krr_dual,
    solve_svm_dual,
)
from .mkl import (
    MklModel,
    PrimalModel,
    model_from_dict,
    model_to_dict,
    predict_model,
    recover_primal_weights,
    selected_kernel_count,
    train_enmkl_krr,
    train_enmkl_svm,
    train_sum_baseline,
)
from .evaluation import (
    CvReport,
    FoldPlan,
    HyperGrid,
    auc,
    balanced_accuracy,
    make_fold_plan,
    mse,
    nested_cv,
    pearson_correlation,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "CvReport",
    "DataError",
    "EnmklError",
    "FoldPlan",
    "GroupedDataset",
    "HyperGrid",
    "KernelStack",
    "KrrDualSolution",
    "MklModel",
    "PrimalModel",
    "StackPreprocessor",
    "SvmDualSolution",
    "UsageError",
    "auc",
    "balanced_accuracy",
    "build_linear_cross_kernels",
    "build_linear_kernels",
    "make_fold_plan",
    "model_from_dict",
    "model_to_dict",
    "mse",
    "nested_cv",
    "pearson_correlation",
    "predict",
    "predict_model",
    "recover_primal_weights",
    "selected_kernel_count",
    "solve_krr_dual",
    "solve_svm_dual",
    "train_enmkl_krr",
    "train_enmkl_svm",
    "train_sum_baseline",
    "weighted_sum",
]
