"""The ``cc`` backend: the CSR SpMM loop and MinHash built by the system C compiler.

:func:`load_kernels` builds ``cc_spmm.c`` into a shared library, loads it
with :mod:`ctypes` and returns its two entry points.  ``repro_spmm`` is
one loop per row that adds each product straight into K-wide
accumulators in ``np.add.reduceat``'s order (see
:mod:`repro.kernels.state`), so its results are **bitwise identical** to
:func:`repro.kernels.spmm`; it is the default backend and is held to the
same single oracle as the numpy reference.  ``repro_minhash`` computes
the round-1 MinHash signatures bit-equal to the numpy reference of
:func:`repro.similarity.minhash_signatures`.

Build and cache
---------------
The compiler is ``$CC`` (default ``cc``), run with
``-O3 -march=native -ffp-contract=off -shared -fPIC``;
``-ffp-contract=off`` keeps every product rounded before it is added.
The kernel takes K and the CSR arrays as arguments, so one library serves
every matrix, operand width and process.  It is built once per (source
digest, compiler ``--version``, every word of ``$CC``, the resolved
compiler path, flags, host CPU) — the extra words of ``$CC`` (say
``-ffast-math``) reach the build, and the CPU is in the key because of
``-march=native`` — into ``$XDG_CACHE_HOME/repro/cc``
(default ``~/.cache/repro/cc``), never into the checkout.  A build goes to
a temporary file that ``os.replace`` moves into place, next to a
``.sha256`` of its bytes; a library whose bytes do not match is rebuilt
before it is loaded, so a truncated file is never mapped.

Degradation
-----------
A missing compiler (:func:`compiler` raises) and every other failure —
a non-zero compiler exit or a timeout, an unwritable cache, a library
that fails to load — raise :class:`~repro.errors.BackendUnavailable`,
which :func:`repro.kernels.backends.load_backend` turns into a
degradation to ``numpy`` with a ``backend:cc->numpy: ...`` provenance
entry.

The loop runs with the GIL released (a :class:`ctypes.CDLL` call), on
float64 operands directly and on float32 operands widened exactly to
float64 once, into scratch from the caller's per-call workspace lease.
Other operand dtypes run :meth:`repro.kernels.state.CsrState.multiply`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.errors import BackendUnavailable, ShapeError
from repro.kernels.state import DEFAULT_CHUNK_K, CsrState
from repro.sparse.csr import CSRMatrix
from repro.util.hashing import stable_digest
from repro.util.workspace import Workspace

__all__ = ["cache_dir", "compiler", "load_kernels"]

_SOURCE = Path(__file__).with_name("cc_spmm.c")

#: Compiler flags.  ``-ffp-contract=off`` forbids fusing a multiply and an
#: add into one rounding, which would change bits.
_FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")

#: Seconds a compiler run may take before the build counts as failed.
_TIMEOUT_S = 120.0

#: Bytes kept for a saved ``fenv_t``: glibc's is 28 bytes on x86-64 and
#: 8 on aarch64, so this leaves room on every platform.
_FENV_BYTES = 512

#: /proc/cpuinfo keys that name what ``-march=native`` compiles for.
_CPU_KEYS = (
    "vendor_id", "cpu family", "model", "model name", "flags",
    "CPU implementer", "CPU architecture", "CPU variant", "CPU part", "Features",
)


def compiler() -> list[str]:
    """The compiler command: ``$CC`` split like a shell word list, else ``cc``.

    Raises :class:`BackendUnavailable` when the command cannot be found.
    """
    name = os.environ.get("CC") or "cc"
    try:
        argv = shlex.split(name)
    except ValueError as exc:  # an unbalanced quote
        raise BackendUnavailable(f"cannot parse CC={name!r}: {exc}") from exc
    if not argv or shutil.which(argv[0]) is None:
        raise BackendUnavailable(f"C compiler {name!r} not found (set CC)")
    return argv


def cache_dir() -> Path:
    """Where built libraries live: ``$XDG_CACHE_HOME/repro/cc``."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro" / "cc"


def _host_cpu() -> str:
    """The machine and, where the OS reports them, its CPU model and flags."""
    lines = []
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            first_cpu = fh.read().split("\n\n", 1)[0]
    except OSError:
        first_cpu = ""
    for line in first_cpu.splitlines():
        key = line.partition(":")[0].strip()
        if key in _CPU_KEYS:
            lines.append(" ".join(line.split()))
    return "\n".join([platform.machine(), *lines])


def _run(argv: list[str]) -> str:
    """Run a compiler command; any failure is :class:`BackendUnavailable`."""
    try:
        proc = subprocess.run(
            argv, capture_output=True, text=True, timeout=_TIMEOUT_S, check=False
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise BackendUnavailable(f"{argv[0]} failed to run: {exc}") from exc
    if proc.returncode != 0:
        detail = (proc.stderr or proc.stdout).strip()[-400:]
        raise BackendUnavailable(f"{argv[0]} exited {proc.returncode}: {detail}")
    return proc.stdout


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _intact(library: Path, digest: Path) -> bool:
    """Whether ``library`` exists with exactly the bytes ``digest`` records."""
    try:
        return _sha256(library) == digest.read_text(encoding="ascii").strip()
    except (OSError, UnicodeDecodeError):
        return False


def _replace_atomically(path: Path, write) -> None:
    """``write(tmp)`` into a temporary file beside ``path``, then move it there."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    os.close(fd)
    try:
        write(Path(tmp))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _library_path() -> Path:
    """Build the library unless the cache holds an intact one; return its path."""
    cc = compiler()
    version = _run([*cc, "--version"])
    key = stable_digest(
        _SOURCE.read_bytes(),
        version.encode(),
        # Every word of $CC reaches the build, so each can change the bits.
        "\0".join(cc).encode(),
        os.path.realpath(shutil.which(cc[0]) or cc[0]).encode(),
        " ".join(_FLAGS).encode(),
        _host_cpu().encode(),
    )
    library = cache_dir() / f"spmm-{key}.so"
    digest = library.with_name(library.name + ".sha256")
    if _intact(library, digest):
        return library
    library.parent.mkdir(parents=True, exist_ok=True)

    def build(tmp: Path) -> None:
        _run([*cc, *_FLAGS, "-o", str(tmp), str(_SOURCE)])
        _replace_atomically(
            digest, lambda d: d.write_text(_sha256(tmp) + "\n", encoding="ascii")
        )

    _replace_atomically(library, build)
    return library


def _open_library(path: Path) -> ctypes.CDLL:
    """``ctypes.CDLL(path)``, leaving the thread's floating-point
    environment as it found it (see the module docstring)."""
    libm = ctypes.CDLL(None)  # fegetenv/fesetenv, from the loaded libm
    saved = ctypes.create_string_buffer(_FENV_BYTES)
    if libm.fegetenv(saved) != 0:
        raise BackendUnavailable("cannot save the floating-point environment")
    try:
        return ctypes.CDLL(str(path))
    finally:
        libm.fesetenv(saved)


def _load_library():
    """The ``(repro_spmm, repro_minhash)`` entry points of the cached library."""
    try:
        library = _library_path()
    except OSError as exc:  # unreadable source, unwritable cache dir
        raise BackendUnavailable(f"cannot build the cc library: {exc}") from exc
    try:
        loaded = _open_library(library)
        spmm, minhash = loaded.repro_spmm, loaded.repro_minhash
    except (OSError, AttributeError) as exc:
        raise BackendUnavailable(f"cannot load {library}: {exc}") from exc
    spmm.argtypes = [ctypes.c_int64, ctypes.c_int64] + [ctypes.c_void_p] * 6
    spmm.restype = None
    minhash.argtypes = [ctypes.c_int64, ctypes.c_int64] + [ctypes.c_void_p] * 5
    minhash.restype = None
    return spmm, minhash


def _spmm_fn(kernel):
    """Adapt the C entry point to the compiled SpMM calling convention."""

    def spmm(state: CsrState, X: np.ndarray, out: np.ndarray, ws: Workspace) -> None:
        if X.dtype == np.float32:
            wide = ws.scratch(X.shape, dtype=np.float64)
            np.copyto(wide, X)  # exact: every float32 is a float64
            X = wide
        elif X.dtype != np.float64:
            state.multiply(X, out, ws, DEFAULT_CHUNK_K)
            return
        csr = state.csr
        # The loop reads and writes by pointer: check what it assumes.
        if X.ndim != 2 or X.shape[0] != csr.n_cols or not X.flags.c_contiguous:
            raise ShapeError(
                f"X must be a C-contiguous ({csr.n_cols}, K) array, got {X.shape}"
            )
        K = X.shape[1]
        if (
            out.dtype != np.float64
            or out.shape != (csr.n_rows, K)
            or not out.flags.c_contiguous
            or not out.flags.writeable
        ):
            raise ShapeError(
                f"out must be a writable C-contiguous float64 ({csr.n_rows}, {K}) "
                f"array, got {out.dtype} {out.shape}"
            )
        order = state.row_order
        kernel(
            csr.n_rows,
            K,
            state.rowptr.ctypes.data,
            state.colidx.ctypes.data,
            state.values.ctypes.data,
            X.ctypes.data,
            None if order is None else order.ctypes.data,
            out.ctypes.data,
        )

    return spmm


def _minhash_fn(kernel):
    """Adapt the C entry point to the compiled MinHash calling convention:
    ``fn(csr, a, b, out)`` fills the ``(n_rows, siglen)`` signatures of
    ``csr`` under the hash family ``(a, b)``."""

    def minhash(csr: CSRMatrix, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
        # The loop reads and writes by pointer: check what it assumes
        # (rowptr in bounds and non-decreasing, columns non-negative).
        csr._check_structure()
        rowptr = np.ascontiguousarray(csr.rowptr, dtype=np.int64)
        colidx = np.ascontiguousarray(csr.colidx, dtype=np.int64)
        a = np.ascontiguousarray(a, dtype=np.int64)
        b = np.ascontiguousarray(b, dtype=np.int64)
        siglen = a.size
        if b.shape != (siglen,):
            raise ShapeError(f"a and b must hold {siglen} values, got {b.shape}")
        if (
            out.dtype != np.int64
            or out.shape != (csr.n_rows, siglen)
            or not out.flags.c_contiguous
            or not out.flags.writeable
        ):
            raise ShapeError(
                f"out must be a writable C-contiguous int64 ({csr.n_rows}, {siglen}) "
                f"array, got {out.dtype} {out.shape}"
            )
        kernel(
            csr.n_rows,
            siglen,
            rowptr.ctypes.data,
            colidx.ctypes.data,
            a.ctypes.data,
            b.ctypes.data,
            out.ctypes.data,
        )

    return minhash


def load_kernels():
    """The compiled ``(spmm, minhash)``, from one load of the cached
    library, building it first where the cache holds none.

    Raises :class:`~repro.errors.BackendUnavailable` for every build or
    load failure.
    """
    spmm, minhash = _load_library()
    return _spmm_fn(spmm), _minhash_fn(minhash)
