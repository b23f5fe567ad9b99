"""Fixture: every RD105 nnz-scratch allocation and RD109 in-loop lease fires."""

import numpy as np


def spmm_scratch(csr, X):
    """RD105 twice: per-call nnz-proportional scratch, no workspace."""
    products = np.zeros(csr.nnz, dtype=np.float64)
    gathered = np.empty((4, csr.nnz))
    return products, gathered


def kw_shape(csr):
    """RD105: shape passed as a keyword argument."""
    return np.empty(shape=(csr.nnz, 2))


def bare_name(nnz):
    """RD105: a bare ``nnz`` variable counts too."""
    return np.zeros(nnz)


def per_panel(ws, panels, K):
    """RD109: one lease per panel, all held until the lease ends."""
    for cols in panels:
        buffer = ws.scratch((cols.size, K))
        buffer[:] = 0.0


def while_body(workspace, n):
    """RD109: a ``while`` body counts too, also inside a nested block."""
    while n:
        if n % 2:
            workspace.scratch(n)
        n -= 1


def comprehension_in_loop(ws, groups):
    """RD109: a comprehension evaluated once per iteration of a loop."""
    for shapes in groups:
        _ = [ws.scratch(s) for s in shapes]
