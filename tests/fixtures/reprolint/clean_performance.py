"""Fixture: RD105 and RD109 stay silent — scratch is pooled, small,
one-time, or leased once before the loop."""

import numpy as np

nnz = 128
TABLE = np.zeros(nnz)  # module level: allocated once at import, not per call


def pooled(csr, X, *, workspace=None):
    """Allowed: the function threads ``workspace`` (pool handles reuse)."""
    return np.zeros(csr.nnz, dtype=np.float64)


def outer(csr, *, workspace=None):
    """Allowed: an enclosing function already accepts ``workspace``."""

    def inner():
        return np.empty(csr.nnz)

    return inner()


def row_sized(csr, K):
    """Allowed: output-shaped, not nnz-proportional."""
    return np.zeros((csr.n_rows, K))


def lease_then_slice(ws, panels, K):
    """Allowed: one lease sized to the largest panel, sliced per panel."""
    buffers = ws.scratch((max(cols.size for cols in panels), K))
    for cols in panels:
        buffers[: cols.size] = 0.0


def comprehension(ws, shapes):
    """Allowed: comprehensions are not flagged."""
    return [ws.scratch(s) for s in shapes]


def loop_defines_helper(ws, shapes):
    """Allowed: a nested def's body is not run by the loop."""
    helpers = []
    for s in shapes:

        def lease(s=s):
            return ws.scratch(s)

        helpers.append(lease)
    return helpers


def loop_header(ws, n):
    """Allowed: a ``for`` header is evaluated once, not per iteration."""
    for row in ws.scratch(n):
        row += 1.0
