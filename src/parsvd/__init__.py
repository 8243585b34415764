"""Parallel Gram-based SVD, baseline solvers, latency model, MIMO harness."""

from .gram_svd import (
    DcDiagnostics,
    EigenDecomposition,
    HermitianMatrix,
    SvdResult,
    TridiagonalReal,
    dc_eigen,
    gram,
    householder_vector,
    recover_svd,
    svd_4step,
    svd_4step_stack,
    tridiagonalize,
    tridiagonalize_stack,
    truncated_dc_eigen,
)
from .matrix_core import fro_norm

__all__ = [
    "DcDiagnostics",
    "EigenDecomposition",
    "HermitianMatrix",
    "SvdResult",
    "TridiagonalReal",
    "dc_eigen",
    "fro_norm",
    "gram",
    "householder_vector",
    "recover_svd",
    "svd_4step",
    "svd_4step_stack",
    "tridiagonalize",
    "tridiagonalize_stack",
    "truncated_dc_eigen",
]
