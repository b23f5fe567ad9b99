"""MinHash signatures of sparse-matrix rows.

MinHash approximates Jaccard similarity: for a random hash function ``h``
over the column universe, :math:`\\Pr[\\min h(S_i) = \\min h(S_j)] =
J(S_i, S_j)`.  A *signature* stacks ``siglen`` independent minima, so the
fraction of agreeing signature positions is an unbiased estimator of the
Jaccard similarity (Leskovec, Rajaraman & Ullman, "Mining of Massive
Datasets", ch. 3 — the paper's reference [28]).

Implementation notes (this is the embarrassingly parallel half of the
paper's preprocessing, which they parallelise with OpenMP): hash functions
are the classic universal family ``h(c) = (a*c + b) mod p`` with a
Mersenne prime ``p = 2^31 - 1``.  Products stay below :math:`2^{62}` so
plain ``int64`` arithmetic is exact.  Two implementations compute the same
bits.  The numpy reference evaluates the functions in blocks of
:data:`HASH_BLOCK`, each block one ``O(nnz)`` vectorised pass reduced per
row by ``np.minimum.reduceat``.  ``backend="cc"`` runs ``repro_minhash``
from the compiled ``cc`` library (:mod:`repro.kernels.backends`), which
walks one row at a time, keeps a running minimum per function and reduces
``a*c + b`` with two Mersenne folds; the library's load-time bit check
holds it to the reference, and it degrades to the reference where it
cannot load.
"""

from __future__ import annotations

import numpy as np

from repro.observability.tracing import span
from repro.resilience.faults import fault_point
from repro.sparse.csr import CSRMatrix
from repro.util.rng import as_generator
from repro.util.validation import check_positive

__all__ = ["minhash_signatures", "MERSENNE_PRIME", "EMPTY_ROW_SENTINEL"]

#: Hash functions evaluated per blocked pass.  Bounds the ``(block, nnz)``
#: scratch while amortising the per-function NumPy call overhead; 32
#: functions x a corpus-scale nnz stays well inside the last-level cache.
HASH_BLOCK = 32

#: Modulus of the universal hash family.  2**31 - 1 keeps a*c + b < 2**62.
MERSENNE_PRIME = np.int64(2**31 - 1)

#: Signature value assigned to empty rows.  Equal to the modulus, hence
#: unreachable by any real hash value, so empty rows never collide with
#: non-empty rows (and deliberately *do* collide with each other — grouping
#: empty rows together is harmless).
EMPTY_ROW_SENTINEL = np.int64(MERSENNE_PRIME)


def minhash_signatures(
    csr: CSRMatrix, siglen: int, seed=None, *, deadline=None, backend: str | None = None
) -> np.ndarray:
    """Compute MinHash signatures for every row of ``csr``.

    Parameters
    ----------
    csr:
        Input matrix; each row's support set is hashed.
    siglen:
        Number of hash functions (the paper's ``siglen``; they use 128).
    seed:
        Anything accepted by :func:`repro.util.rng.as_generator`.
    deadline:
        Optional :class:`repro.resilience.Deadline`, polled once per hash
        block on the numpy reference and once before the compiled pass
        (between complete passes, so cancellation never leaves partial
        state).
    backend:
        Optional backend name (see :mod:`repro.kernels.backends`).
        ``None``/``"numpy"`` run the numpy reference; ``"cc"`` runs the
        compiled library's MinHash (bit-equal to the reference),
        degrading to the reference when it cannot load.

    Returns
    -------
    numpy.ndarray
        ``int64`` array of shape ``(n_rows, siglen)``.
    """
    siglen = check_positive("siglen", siglen)
    fault_point("clustering.minhash")
    kernel = None
    if backend is not None and backend != "numpy":
        from repro.kernels.backends import load_backend

        kernel = load_backend(backend).minhash
    with span("minhash", rows=csr.n_rows, nnz=csr.nnz, siglen=siglen):
        return signatures(csr, siglen, seed, deadline=deadline, kernel=kernel)


def signatures(csr: CSRMatrix, siglen: int, seed, *, deadline=None,
               kernel=None) -> np.ndarray:
    """:func:`minhash_signatures` without its fault site and span.

    ``kernel`` is a compiled MinHash (``LoadedBackend.minhash``) or
    ``None`` for the numpy reference; the loader's bit check calls this
    with both on one probe.
    """
    rng = as_generator(seed)
    n_rows = csr.n_rows
    out = np.empty((n_rows, siglen), dtype=np.int64)
    if n_rows == 0:
        return out

    p = MERSENNE_PRIME
    # a must be non-zero mod p for the family to be universal.
    a = rng.integers(1, int(p), size=siglen, dtype=np.int64)
    b = rng.integers(0, int(p), size=siglen, dtype=np.int64)
    if deadline is not None:
        deadline.check("minhash")
    if kernel is not None:
        kernel(csr, a, b, out)  # writes the sentinel into empty rows too
        return out

    cols = csr.colidx % p  # column universe folded into the field
    lengths = csr.row_lengths()
    empty = lengths == 0
    nonempty = np.flatnonzero(lengths > 0)
    if nonempty.size:
        starts = np.ascontiguousarray(csr.rowptr[:-1][nonempty])
        # Hash functions are evaluated in blocks of HASH_BLOCK: one
        # broadcast multiply-add-mod produces a (block, nnz) matrix whose
        # *rows* are contiguous, so the per-row segment minima reduce
        # along contiguous memory.  ``a*c + b < 2**62``, so the blocked
        # int64 arithmetic is exact — signatures are identical to the
        # one-function-at-a-time evaluation.
        block = max(1, min(HASH_BLOCK, siglen))
        hashed = np.empty((block, csr.nnz), dtype=np.int64)
        for k0 in range(0, siglen, block):
            if deadline is not None and k0:
                deadline.check("minhash")
            k1 = min(k0 + block, siglen)
            h = hashed[: k1 - k0]
            np.multiply(a[k0:k1, None], cols[None, :], out=h)
            h += b[k0:k1, None]
            h %= p
            out[nonempty, k0:k1] = np.minimum.reduceat(h, starts, axis=1).T
    if empty.any():
        out[empty, :] = EMPTY_ROW_SENTINEL
    return out
