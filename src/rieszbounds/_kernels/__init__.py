"""Correctly rounded accumulation kernels; the design and its proofs are in
:mod:`rieszbounds._kernels.pykernels`."""

from .pykernels import (BACKEND, Runs, exact_sum, head_sum, power_sum,
                        prefix_sums, riesz_grid, riesz_sum, runs_of)

__all__ = ["BACKEND", "riesz_sum", "riesz_grid", "power_sum", "head_sum",
           "exact_sum", "prefix_sums", "Runs", "runs_of"]
