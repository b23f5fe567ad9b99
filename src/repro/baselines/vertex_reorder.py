"""Vertex reordering baselines (from scratch).

The paper's §5.2 runs METIS — a graph-partitioning vertex reordering — on
every matrix and shows that *all* of them slow down for SpMM, supporting
the argument that vertex reordering (which permutes the dense operand's
rows for spatial locality) is the wrong tool for SpMM, where locality must
be *temporal* over whole dense rows.

The METIS stand-in here, :func:`bisection_order`, runs on the
symmetrised pattern graph: recursive graph bisection via BFS level sets,
the closest from-scratch analogue of METIS's multilevel partitioning
(vertices of the same part get contiguous labels).  It returns a
permutation intended to be applied *symmetrically*
(:func:`apply_symmetric_order`): rows and columns are relabelled together,
exactly what reordering a graph's vertices means.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import permute_csr_columns, permute_csr_rows
from repro.util.arrayops import rank_of_permutation
from repro.util.validation import check_positive

__all__ = [
    "symmetrized_adjacency",
    "bisection_order",
    "apply_symmetric_order",
]


def symmetrized_adjacency(csr: CSRMatrix) -> CSRMatrix:
    """Pattern of ``A + A^T`` without the diagonal, as canonical CSR.

    Vertex orderings operate on the undirected graph underlying the
    matrix; requires a square matrix.
    """
    if csr.n_rows != csr.n_cols:
        raise ValidationError(
            f"vertex reordering requires a square matrix, got {csr.shape}"
        )
    n = csr.n_rows
    rows = np.concatenate([csr.row_ids(), csr.colidx])
    cols = np.concatenate([csr.colidx, csr.row_ids()])
    off_diag = rows != cols
    rows, cols = rows[off_diag], cols[off_diag]
    from repro.sparse.coo import COOMatrix
    from repro.sparse.conversions import coo_to_csr

    sym = coo_to_csr(
        COOMatrix((n, n), rows, cols, np.ones(rows.size, dtype=np.float64))
    )
    return sym.pattern()


def bisection_order(csr: CSRMatrix, *, leaf_size: int = 64) -> np.ndarray:
    """Recursive-bisection vertex ordering (METIS stand-in).

    Each subgraph is split by a BFS level-set bisection: grow a region from
    a minimum-degree seed until half the vertices are absorbed; the region
    and its complement recurse independently.  Vertices of the same final
    part receive contiguous new labels — the property graph-partitioning
    reorderings rely on for locality.
    """
    check_positive("leaf_size", leaf_size)
    adj = symmetrized_adjacency(csr)
    n = adj.n_rows
    degrees = adj.row_lengths()

    out: list[np.ndarray] = []
    stack: list[np.ndarray] = [np.arange(n, dtype=np.int64)]
    while stack:
        nodes = stack.pop()
        if nodes.size <= leaf_size:
            out.append(nodes)
            continue
        allowed = np.zeros(n, dtype=bool)
        allowed[nodes] = True
        seed = int(nodes[np.argmin(degrees[nodes])])
        visited = ~allowed
        visited = visited.copy()
        region: list[int] = []
        queue = [seed]
        visited[seed] = True
        half = nodes.size // 2
        head = 0
        while head < len(queue) and len(region) < half:
            v = queue[head]
            head += 1
            region.append(v)
            neighbours = adj.row_cols(v)
            fresh = neighbours[~visited[neighbours]]
            visited[fresh] = True
            queue.extend(fresh.tolist())
        region_arr = np.asarray(region, dtype=np.int64)
        in_region = np.zeros(n, dtype=bool)
        in_region[region_arr] = True
        rest = nodes[~in_region[nodes]]
        if region_arr.size == 0 or rest.size == 0:
            out.append(nodes)  # degenerate split (tiny component) — stop
            continue
        # LIFO order keeps the final concatenation depth-first, i.e.
        # hierarchically contiguous.
        stack.append(rest)
        stack.append(region_arr)
    return np.concatenate(out) if out else np.arange(n, dtype=np.int64)


def apply_symmetric_order(csr: CSRMatrix, order: np.ndarray) -> CSRMatrix:
    """Relabel vertices: permute rows *and* columns by the same ordering.

    ``order[k]`` is the old vertex placed at new position ``k``; column
    relabelling therefore uses the inverse permutation.
    """
    permuted = permute_csr_rows(csr, order)
    return permute_csr_columns(permuted, rank_of_permutation(np.asarray(order, dtype=np.int64)))
