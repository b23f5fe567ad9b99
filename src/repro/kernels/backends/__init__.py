"""Kernel backends: the numpy reference and the compiled ``cc`` library.

``cc`` (the default, :data:`DEFAULT_BACKEND`)
    The CSR SpMM loop, the MinHash pass and Alg. 3's merge loop in C,
    built once by the system compiler (``$CC``, default ``cc``) into an
    on-disk cache and loaded with :mod:`ctypes`
    (:mod:`repro.kernels.backends.cc_backend`).  The SpMM sums in
    ``np.add.reduceat``'s order, so it is **bitwise identical** to
    :func:`repro.kernels.spmm`; the MinHash is bitwise identical to the
    numpy reference of :func:`repro.similarity.minhash_signatures`, and
    the merge loop makes the decisions of the reference loop of
    :func:`repro.clustering.cluster_rows`.  Unavailable without a
    compiler.
``numpy``
    The uncompiled reference: :meth:`repro.kernels.state.CsrState.multiply`,
    the one-shot kernels, the numpy MinHash and the Python merge loop.
    Always available, it compiles nothing, and every degradation lands
    here.

Selection is by name — ``ReorderConfig.backend``, ``ServeConfig.backend``,
``repro run/serve/bench --backend``, ``KernelSession(backend=...)``,
``spmm(backend=...)``, ``minhash_signatures(backend=...)``,
``cluster_rows(backend=...)`` — and always goes through
:func:`load_backend`, the one place backend work happens.
It checks that a compiler is found, fetches the compiled library from a
process-wide cache (building it on the first miss, under the
``backend.compile`` span and fault site, and checking all three entry
points against the references on fixed probes before caching it) and,
when any step fails, degrades to ``numpy`` through :func:`degrade`: one
``kernels.backend_fallback`` count, one
:class:`~repro.errors.DegradedExecution` warning and one ``backend:<name>->numpy:
...`` provenance entry.  An unknown name is a
:class:`~repro.errors.ConfigError`.  See ``docs/BACKENDS.md`` for the full
contract.

The compiled SpMM is called ``fn(state, X, out, ws)``: it *fully
overwrites* ``out`` with ``state.csr @ X`` (zeroing empty rows, and
writing row ``r`` to ``out[state.row_order[r]]`` when the state has a
row order); ``state`` is a :class:`repro.kernels.state.CsrState` and
``ws`` a workspace (a leased :class:`~repro.util.workspace.Workspace` or
a :class:`~repro.util.workspace.DirectWorkspace`), so pooled and direct
calls stay bitwise identical.
"""

from __future__ import annotations

import threading
import warnings
from typing import Callable, NamedTuple

import numpy as np

from repro.errors import BackendUnavailable, ConfigError, DegradedExecution
from repro.kernels.backends import cc_backend
from repro.kernels.spmm import spmm
from repro.kernels.state import CsrState
from repro.observability.metrics import METRICS
from repro.observability.tracing import span
from repro.resilience.faults import fault_point
from repro.sparse.csr import CSRMatrix
from repro.util.log import get_logger
from repro.util.workspace import DirectWorkspace

__all__ = [
    "DEFAULT_BACKEND",
    "BACKENDS",
    "LoadedBackend",
    "check_backend",
    "load_backend",
    "degrade",
]

_log = get_logger("kernels.backends")

# Canonical declarations of the backend instruments, so the catalogue is
# complete even before any backend compiles or degrades.
_COMPILES = METRICS.counter(
    "kernels.backend_compile", "compiled-kernel artifacts built (cache misses)"
)
_FALLBACKS = METRICS.counter(
    "kernels.backend_fallback", "backend requests degraded to the numpy reference"
)

#: The backend configs, the CLI and sessions use unless told otherwise:
#: bit-equal to the numpy reference, and degrading to it where no C
#: compiler is found.
DEFAULT_BACKEND = "cc"

#: Every backend name, the degradation target first.
BACKENDS = ("numpy", "cc")

#: The compiled library once loaded in this process.  Loading is
#: idempotent, so a racing double load is tolerated and the first wins.
_LOADED: dict[str, "LoadedBackend"] = {}
_LOADED_LOCK = threading.Lock()


class LoadedBackend(NamedTuple):
    """What :func:`load_backend` resolved a backend name to."""

    #: The backend that runs: the requested one, or ``"numpy"`` after a
    #: degradation.
    backend: str
    #: The compiled SpMM; ``None`` runs the numpy reference.
    spmm: Callable | None = None
    #: ``()``, or the one ``backend:<name>->numpy: <reason>`` entry of a
    #: degradation.
    provenance: tuple = ()
    #: The compiled MinHash ``fn(csr, a, b, out)``; ``None`` runs the
    #: numpy reference.
    minhash: Callable | None = None
    #: The compiled Alg. 3 merge loop
    #: ``fn(csr, key, left, right, threshold_size, measure)``; ``None``
    #: runs the Python reference.
    cluster: Callable | None = None


def check_backend(name: str) -> None:
    """Raise :class:`~repro.errors.ConfigError` unless ``name`` is a backend.

    A name check only, never an availability probe: a typo fails loudly,
    a missing compiler degrades later, in :func:`load_backend`.
    """
    if name not in BACKENDS:
        raise ConfigError(
            f"unknown kernel backend {name!r}; expected one of: {', '.join(BACKENDS)}"
        )


def load_backend(name: str) -> LoadedBackend:
    """Resolve ``name`` to the kernels that run it, degrading to numpy.

    ``"numpy"`` compiles nothing.  ``"cc"`` needs a compiler on the path;
    a warm in-process load is a dict lookup that never reaches the
    ``backend.compile`` fault site, and a cold one builds (or reuses) the
    library on disk, checks its bits once (:func:`_bits_match`) and counts
    on ``kernels.backend_compile``.  A missing compiler, a failed build
    (including the injected fault) or a failed bit check degrades through
    :func:`degrade`, so this never raises over availability.
    """
    check_backend(name)
    if name == "numpy":
        return LoadedBackend("numpy")
    try:
        cc_backend.compiler()
    except BackendUnavailable as exc:
        return degrade(name, str(exc))
    with _LOADED_LOCK:
        loaded = _LOADED.get(name)
    if loaded is not None:
        return loaded
    try:
        with span("backend.compile", backend=name, kernel="spmm,minhash,cluster"):
            fault_point("backend.compile")
            spmm_fn, minhash_fn, cluster_fn = cc_backend.load_kernels()
            exact = (
                _bits_match(spmm_fn)
                and _minhash_bits_match(minhash_fn)
                and _cluster_bits_match(cluster_fn)
            )
    except BackendUnavailable as exc:
        return degrade(name, f"compile failed: {exc}")
    if not exact:
        return degrade(name, "bit check failed")
    _COMPILES.inc()
    with _LOADED_LOCK:
        return _LOADED.setdefault(
            name, LoadedBackend(name, spmm_fn, minhash=minhash_fn, cluster=cluster_fn)
        )


def _bits_match(fn: Callable) -> bool:
    """Whether the compiled SpMM ``fn`` gives :func:`repro.kernels.spmm`'s
    bits on a fixed probe.

    The probe's rows hold 1, 5, 9, 100 and 300 products, so the products
    after a row's first reach every branch of ``pairwise`` in
    ``cc_spmm.c``: none, fewer than 8, exactly 8, up to 128, and above 128
    with its split.  K=67 is one 64-column block plus a tail.  Values and
    operand span 1e-8 to 1e8 and hold a signed zero, so a library whose
    compiler reassociates the sums (``-ffast-math`` in ``$CC``, say)
    gives other bits.  The operand is the outer product of two random
    vectors, which keeps the check, reference included, under a
    millisecond.
    """
    rng = np.random.default_rng(0)
    lengths = np.array([1, 5, 9, 100, 300])
    n_cols, K = 300, 67
    columns = rng.permutation(n_cols)
    colidx = np.concatenate([np.sort(columns[:n]) for n in lengths])

    def spread(size, decades):
        return rng.uniform(-1.0, 1.0, size) * 10.0 ** rng.uniform(-decades, decades, size)

    values = spread(colidx.size, 8)
    values[0] = -0.0  # the one product of the one-entry row
    X = np.outer(spread(n_cols, 4), spread(K, 4))
    probe = CSRMatrix(
        (lengths.size, n_cols), np.concatenate([[0], np.cumsum(lengths)]), colidx, values
    )
    out = np.empty((probe.n_rows, K), dtype=np.float64)
    fn(CsrState(probe), X, out, DirectWorkspace())
    return np.array_equal(out.view(np.uint64), spmm(probe, X).view(np.uint64))


def _minhash_bits_match(fn: Callable) -> bool:
    """Whether the compiled MinHash ``fn`` gives the numpy reference's
    signatures on a fixed probe.

    The probe has empty rows (first, middle and last), column ids on both
    sides of the modulus ``2**31 - 1`` and up to ``2**62 - 1``, where
    ``a*c`` would wrap 64 bits without the ``% p`` fold, and an odd
    ``siglen``.
    """
    from repro.similarity.minhash import MERSENNE_PRIME, signatures

    p = int(MERSENNE_PRIME)
    rows = [[], [0, 1, 5], [], [p - 1, p, p + 1, 2 * p + 3], [7, 2**40 + 9, 2**62 - 1], []]
    colidx = np.array([c for row in rows for c in row], dtype=np.int64)
    rowptr = np.concatenate([[0], np.cumsum([len(row) for row in rows])])
    probe = CSRMatrix(
        (len(rows), 2**62),
        rowptr.astype(np.int64),
        colidx,
        np.ones(colidx.size, dtype=np.float64),
    )
    compiled = signatures(probe, 7, 0, kernel=fn)
    return np.array_equal(compiled, signatures(probe, 7, 0))


def _cluster_probe() -> tuple[CSRMatrix, np.ndarray]:
    """The clustering bit check's matrix and candidate pairs.

    48 rows of 0 to 11 columns out of 40, empty and repeated rows among
    them.  The 256 candidates are 250 distinct row pairs, some reversed,
    four of them listed twice, and two self pairs; many score zero.
    Under every measure, ``threshold_size=6`` merges, retires clusters
    and requeues pairs, more requeued pairs wait at once than the C
    heap's first allocation (8) holds, and the requeues grow the
    seen-pair set, which ``repro_cluster`` sizes for the 256 stream pairs.
    """
    rng = np.random.default_rng(0)
    n_rows, n_cols = 48, 40
    rows = [np.sort(rng.choice(n_cols, rng.integers(0, 12), replace=False))
            for _ in range(n_rows - 4)]
    rows += [rows[1], rows[1], rows[7], np.empty(0, dtype=np.int64)]
    probe = CSRMatrix.from_arrays(
        (n_rows, n_cols),
        np.concatenate([[0], np.cumsum([row.size for row in rows])]),
        np.concatenate(rows),
    )
    upper = np.array(np.triu_indices(n_rows, 1)).T
    pairs = upper[rng.permutation(len(upper))[:250]]
    pairs = np.where(rng.random((len(pairs), 1)) < 0.3, pairs[:, ::-1], pairs)
    return probe, np.concatenate([pairs, pairs[:4], [[5, 5], [30, 30]]])


def _cluster_bits_match(fn: Callable) -> bool:
    """Whether the compiled merge loop ``fn`` makes the Python reference's
    decisions on :func:`_cluster_probe`, under every measure: every field
    of the :class:`~repro.clustering.ClusteringResult` must match."""
    from repro.clustering.hierarchical import cluster
    from repro.similarity.measures import MEASURES, similarity_for_pairs

    probe, pairs = _cluster_probe()
    for measure in MEASURES:
        sims = similarity_for_pairs(probe, pairs, measure)
        want = cluster(probe, pairs, sims, 6, measure)
        got = cluster(probe, pairs, sims, 6, measure, kernel=fn)
        if not (
            np.array_equal(got.order, want.order)
            and np.array_equal(got.cluster_of, want.cluster_of)
            and (got.n_clusters, got.n_merges, got.n_retired, got.n_requeued)
            == (want.n_clusters, want.n_merges, want.n_retired, want.n_requeued)
        ):
            return False
    return True


def degrade(name: str, reason: str) -> LoadedBackend:
    """Run a request for backend ``name`` on the numpy reference instead.

    Counts ``kernels.backend_fallback``, logs, warns with
    :class:`~repro.errors.DegradedExecution` and returns the numpy
    backend with the provenance entry ``backend:<name>->numpy: <reason>``.
    """
    _FALLBACKS.inc()
    _log.warning("kernel backend %s degraded to numpy: %s", name, reason)
    warnings.warn(
        f"kernel backend {name!r} degraded to the numpy reference "
        f"({reason}); results unchanged",
        DegradedExecution,
        stacklevel=3,
    )
    return LoadedBackend("numpy", provenance=(f"backend:{name}->numpy: {reason}",))
