"""repro — reproduction of "A Novel Data Transformation and Execution
Strategy for Accelerating Sparse Matrix Multiplication on GPUs"
(Jiang, Hong & Agrawal, PPoPP 2020).

The paper accelerates SpMM and SDDMM on GPUs by **reordering the rows of
the sparse matrix** so that rows with similar column sets become
neighbours, letting Adaptive Sparse Tiling (ASpT) capture far more
non-zeros in shared-memory-friendly dense tiles and improving L2 temporal
locality for the remainder.  The reordering is computed with MinHash/LSH
candidate generation plus hierarchical clustering of the candidate pairs
(paper Alg. 3).

Quick start::

    import numpy as np
    from repro import build_plan, ReorderConfig
    from repro.datasets import hidden_clusters

    S = hidden_clusters(64, 32, 2048, 24, seed=0)   # a shuffled-cluster matrix
    plan = build_plan(S, ReorderConfig(panel_height=32))
    X = np.random.default_rng(0).normal(size=(S.n_cols, 512))
    Y = plan.spmm(X)                                # == S @ X, faster layout

    from repro.gpu import GPUExecutor
    ex = GPUExecutor()                              # modelled P100
    print(ex.spmm_cost(plan.cost_view(), 512, "aspt").gflops)

Package map::

    repro.sparse      CSR/CSC/COO containers, ops, MatrixMarket I/O
    repro.similarity  Jaccard, MinHash, LSH
    repro.clustering  Alg. 3 hierarchical clustering of rows
    repro.aspt        adaptive sparse tiling
    repro.kernels     functional SpMM/SDDMM kernels
    repro.gpu         P100 memory-hierarchy performance model
    repro.reorder     the paper's pipeline (Fig. 5), heuristics, autotuner
    repro.baselines   cuSPARSE/BIDMach stand-ins, vertex reordering
    repro.datasets    synthetic corpus generators
    repro.experiments tables/figures reproduction harness
"""

from repro.aspt import TiledMatrix, tile_matrix
from repro.gpu import GPUExecutor, P100, DeviceSpec
from repro.kernels import sddmm, spmm
from repro.reorder import (
    AutotuneResult,
    ExecutionPlan,
    ReorderConfig,
    autotune,
    build_plan,
)
from repro.sparse import COOMatrix, CSCMatrix, CSRMatrix, read_matrix_market

__version__ = "1.0.0"

__all__ = [
    "TiledMatrix",
    "tile_matrix",
    "GPUExecutor",
    "P100",
    "DeviceSpec",
    "sddmm",
    "spmm",
    "AutotuneResult",
    "ExecutionPlan",
    "ReorderConfig",
    "autotune",
    "build_plan",
    "COOMatrix",
    "CSCMatrix",
    "CSRMatrix",
    "read_matrix_market",
    "__version__",
]
