"""Coupled matrix-tensor factorization with a multi-kernel max-margin classifier.

Two stages: each (tensor, matrix) sample is jointly factorized with shared
third/second-mode components (:mod:`cstm.acmtf`), then a kernel machine over
the individual and shared factors is trained by solving a dual quadratic
program (:mod:`cstm.stm`).  :mod:`cstm.experiments` ships the synthetic
benchmark harness and :mod:`cstm.cli` the command-line front end.
"""

from .acmtf import (
    AcmtfFactors,
    AcmtfHyperParams,
    CoupledSample,
    NumericalError,
    acmtf_decompose,
    acmtf_decompose_many,
    acmtf_gradient,
    acmtf_objective,
)
from .experiments import (
    ExperimentConfig,
    MetricsRow,
    MetricsSummary,
    SimCaseSpec,
    compute_metrics,
    gen_case,
    run_experiment,
    stratified_split,
)
from .kernels import (
    CoupledKernelSpec,
    KernelSpec,
    coupled_kernel,
    cp_kernel,
    gram_matrix,
    vector_kernel,
)
from .stm import (
    QpProblem,
    StmModel,
    decision,
    default_lambda,
    fit,
    matrix_to_kruskal,
    solve_qp,
    solve_qp_many,
)
from .tensor_core import (
    KruskalTensor,
    cp_als,
    cp_als_many,
    unfold,
)

__version__ = "0.1.0"
