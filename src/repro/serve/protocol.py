"""The wire protocol of ``repro serve``: JSON lines plus raw dense frames.

One JSON object per line in each direction, UTF-8, ``\\n``-terminated.
Requests carry an ``op`` plus op-specific fields; every response echoes
the request ``id`` (when given) and carries a ``status`` from the table
below.  The protocol is dependency-free and language-neutral: any client
that can open a socket, print JSON and write bytes can talk to the server.

Dense frames
------------
The two dense arrays, a ``spmm`` request's ``x`` and an ``ok`` response's
``result``, travel as frames (since protocol 2).  On the message line the
field holds a header, ``{"shape": [rows, K], "dtype": "<f8", "nbytes":
8*rows*K}``, and exactly ``nbytes`` raw little-endian float64 bytes, row
after row, follow the line's ``\\n``.  Nothing else carries a frame.  A
server reads an operand's body before it answers, so a refused request
still consumes its body; a header whose ``nbytes`` is not a count, or
exceeds the server's line bound, is answered with ``error`` and closes
the connection, since the stream can no longer be split into messages.

Request ops
-----------
``ping``
    Liveness probe; responds ``{"status": "ok", "pong": true}``.
``upload``
    Register a sparse matrix (COO triples) and get its content
    fingerprint back for later fingerprint-only ``spmm`` requests.
``spmm``
    Multiply: either ``fingerprint`` (a previously uploaded matrix) or an
    inline ``matrix``, plus the dense operand ``x`` (an ``n_cols x K``
    frame of finite values), optional ``deadline_s`` and ``tenant``.
``delta``
    Stream a :class:`~repro.streaming.DeltaBatch` into a previously
    uploaded matrix: the registry entry is replaced by the mutated
    matrix (responding with its new fingerprint) and warm sessions
    pinned to the old fingerprint are invalidated, so no later request
    can multiply through pre-delta values.
``health``
    Readiness report: pool occupancy, quota state, breaker state, drain
    flag.
``metrics``
    A :meth:`repro.observability.MetricsRegistry.snapshot` of the server
    process.
``drain``
    Stop admitting work, wait for in-flight requests, shut down.

Response statuses
-----------------
=====================  ====================================================
``ok``                 result computed (``result`` heads the output frame)
``rejected_overload``  admission bound hit; retry against a less loaded
                       server (explicit rejection, never silent queueing)
``rejected_quota``     the tenant's token bucket is empty
``deadline_exceeded``  the request deadline expired before a result was
                       complete (partial work was cancelled)
``not_found``          unknown fingerprint (upload the matrix first)
``draining``           server is shutting down; no new work admitted
``error``              malformed request or internal failure (``error``
                       holds the message)
=====================  ====================================================

Fingerprints are *content* digests — shape, pattern **and values** — so a
fingerprint names exactly one multiply operator (unlike the plan store's
pattern fingerprint, which deliberately ignores values because reordering
decisions do).
"""

from __future__ import annotations

import json

import numpy as np

from repro.errors import FormatError, ShapeError, ValidationError
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.util.hashing import digest_arrays, stable_digest
from repro.util.validation import check_dense, finite_real

__all__ = [
    "PROTOCOL_VERSION",
    "FRAME_DTYPE",
    "STATUS_OK",
    "STATUS_REJECTED_OVERLOAD",
    "STATUS_REJECTED_QUOTA",
    "STATUS_DEADLINE_EXCEEDED",
    "STATUS_NOT_FOUND",
    "STATUS_DRAINING",
    "STATUS_ERROR",
    "REQUEST_OPS",
    "encode_message",
    "decode_message",
    "matrix_to_wire",
    "matrix_from_wire",
    "dense_from_wire",
    "dense_to_frame",
    "dense_from_frame",
    "frame_nbytes",
    "frame_shape",
    "delta_to_wire",
    "delta_from_wire",
    "matrix_fingerprint",
]

#: Wire-protocol version, echoed by ``ping``/``health`` so clients can
#: detect incompatible servers instead of mis-parsing them.  Version 2
#: moved the dense operand and result from nested lists to frames.
PROTOCOL_VERSION = 2

#: The one element type of a dense frame: little-endian float64.
FRAME_DTYPE = "<f8"

STATUS_OK = "ok"
STATUS_REJECTED_OVERLOAD = "rejected_overload"
STATUS_REJECTED_QUOTA = "rejected_quota"
STATUS_DEADLINE_EXCEEDED = "deadline_exceeded"
STATUS_NOT_FOUND = "not_found"
STATUS_DRAINING = "draining"
STATUS_ERROR = "error"

#: Ops a server accepts (anything else gets an ``error`` response).
REQUEST_OPS = ("ping", "upload", "spmm", "delta", "health", "metrics", "drain")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def encode_message(obj: dict) -> bytes:
    """Serialise one protocol message as a compact JSON line.

    An ndarray value is written as nested lists: the JSON form of a
    response whose ``result`` a client has read, not what the wire carries.
    """
    return (
        json.dumps(obj, separators=(",", ":"), sort_keys=True, default=_jsonable)
        + "\n"
    ).encode("utf-8")


def decode_message(line: bytes | str) -> dict:
    """Parse one protocol line into a dict.

    Raises :class:`repro.errors.FormatError` on anything that is not a
    single JSON object — the server maps that to an ``error`` response
    rather than dropping the connection.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"protocol line is not valid UTF-8: {exc}") from exc
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise FormatError(f"protocol line is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FormatError(
            f"protocol message must be a JSON object, got {type(obj).__name__}"
        )
    return obj


# ----------------------------------------------------------------------
# Matrix / operand wire formats
# ----------------------------------------------------------------------

def _is_count(value) -> bool:
    """Whether a decoded JSON value is a non-negative ``int`` (JSON
    ``true`` decodes to ``True``, an ``int`` that is no count)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _is_shape(value) -> bool:
    """Whether a decoded JSON value is two counts."""
    return (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(_is_count(n) for n in value)
    )


def _triples_from_wire(obj: dict, what: str) -> tuple:
    """The ``rows``/``cols``/``values`` arrays of an upload or delta payload.

    ``np.asarray`` would read a JSON ``true``/``false`` as 1 or 0, a
    string as the number it spells and a fractional index truncated, so
    ``rows`` and ``cols`` must hold JSON integers and ``values`` JSON
    numbers, none of them ``NaN`` or ``±Infinity``.
    """
    for name, kinds, noun in (
        ("rows", {int}, "integers"),
        ("cols", {int}, "integers"),
        ("values", {int, float}, "numbers"),
    ):
        if isinstance(obj[name], list) and not set(map(type, obj[name])) <= kinds:
            raise FormatError(f"{what} {name} must be JSON {noun}")
    try:
        rows = np.asarray(obj["rows"], dtype=np.int64)
        cols = np.asarray(obj["cols"], dtype=np.int64)
        values = np.asarray(obj["values"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{what} triples are not numeric arrays: {exc}") from exc
    if not np.isfinite(values).all():
        raise FormatError(f"{what} values must be finite numbers")
    return rows, cols, values


def matrix_to_wire(csr: CSRMatrix) -> dict:
    """Encode a CSR matrix as the COO-triple upload payload."""
    coo = csr.to_coo()
    rows, cols, values = coo.rows, coo.cols, coo.values
    return {
        "shape": [int(csr.n_rows), int(csr.n_cols)],
        "rows": [int(r) for r in rows],
        "cols": [int(c) for c in cols],
        "values": [float(v) for v in values],
    }


def matrix_from_wire(obj) -> CSRMatrix:
    """Decode an upload payload into a validated :class:`CSRMatrix`."""
    if not isinstance(obj, dict):
        raise FormatError(
            f"matrix payload must be an object, got {type(obj).__name__}"
        )
    missing = [k for k in ("shape", "rows", "cols", "values") if k not in obj]
    if missing:
        raise FormatError(f"matrix payload missing field(s): {', '.join(missing)}")
    shape = obj["shape"]
    if not _is_shape(shape):
        raise FormatError(f"matrix shape must be two non-negative ints, got {shape}")
    rows, cols, values = _triples_from_wire(obj, "matrix")
    if not (rows.shape == cols.shape == values.shape) or rows.ndim != 1:
        raise FormatError(
            "matrix rows/cols/values must be 1-D and equally long, got "
            f"{rows.shape}/{cols.shape}/{values.shape}"
        )
    # COOMatrix.from_arrays validates the index ranges.
    return COOMatrix.from_arrays(tuple(shape), rows, cols, values).to_csr()


def dense_from_wire(obj, *, rows: int) -> np.ndarray:
    """Decode a ``rows x K`` dense matrix sent as nested JSON lists.

    The protocol-1 form of ``x``; no server path reads it since frames
    replaced it.  As for upload ``values``, every entry must be a finite
    JSON number: ``np.asarray`` would read ``true`` as 1.0 and keep a
    ``NaN``.
    """
    if isinstance(obj, list) and not all(
        not isinstance(row, list) or set(map(type, row)) <= {int, float}
        for row in obj
    ):
        raise FormatError("dense operand entries must be JSON numbers")
    try:
        x = np.asarray(obj, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"dense operand is not a numeric matrix: {exc}") from exc
    if x.ndim != 2:
        raise ShapeError(f"dense operand must be 2-D, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise FormatError("dense operand entries must be finite numbers")
    return check_dense("x", x, rows=rows)


def dense_to_frame(a) -> tuple:
    """The ``(header, body)`` frame of a 2-D float64 array."""
    a = np.asarray(a, dtype=FRAME_DTYPE)
    if a.ndim != 2:
        raise ShapeError(f"a dense frame is 2-D, got shape {a.shape}")
    rows, k = a.shape
    header = {"shape": [rows, k], "dtype": FRAME_DTYPE, "nbytes": 8 * rows * k}
    return header, a.tobytes()


def frame_nbytes(header) -> int:
    """The body length a frame header declares.

    Raises :class:`FormatError` unless ``nbytes`` is a non-negative JSON
    integer; a reader cannot find the next message without it.
    """
    nbytes = header.get("nbytes") if isinstance(header, dict) else None
    if not _is_count(nbytes):
        raise FormatError(
            f"frame nbytes must be a non-negative int, got {nbytes!r}"
        )
    return nbytes


def frame_shape(header) -> tuple:
    """The ``(rows, K)`` of a frame header whose fields agree.

    ``shape`` must be two non-negative JSON integers, ``dtype`` exactly
    ``"<f8"`` and ``nbytes`` ``8 * rows * K``; else :class:`FormatError`.
    """
    nbytes = frame_nbytes(header)
    shape = header.get("shape")
    if not _is_shape(shape):
        raise FormatError(f"frame shape must be two non-negative ints, got {shape!r}")
    if header.get("dtype") != FRAME_DTYPE:
        raise FormatError(
            f"frame dtype must be {FRAME_DTYPE!r}, got {header.get('dtype')!r}"
        )
    rows, k = shape
    if nbytes != 8 * rows * k:
        raise FormatError(
            f"frame nbytes {nbytes} does not match shape {shape} (8 bytes each)"
        )
    return rows, k


def dense_from_frame(header, body, *, rows: int) -> np.ndarray:
    """Decode the dense operand ``x``: a ``rows x K`` frame of finite values.

    Raises :class:`FormatError` for a header :func:`frame_shape` refuses,
    a body that is not ``nbytes`` long or a non-finite entry, and
    :class:`ShapeError` when the frame does not have ``rows`` rows.  The
    array is a read-only view of ``body``.
    """
    n, k = frame_shape(header)
    if len(body) != 8 * n * k:
        raise FormatError(f"frame body holds {len(body)} bytes, header says {8 * n * k}")
    if n != rows:
        raise ShapeError(f"x must have {rows} rows, got {n}")
    x = np.frombuffer(body, dtype=FRAME_DTYPE).reshape(n, k)
    if not np.isfinite(x).all():
        raise FormatError("dense operand entries must be finite numbers")
    return x.astype(np.float64, copy=False)


def delta_to_wire(delta) -> dict:
    """Encode a :class:`~repro.streaming.DeltaBatch` as a ``delta`` payload."""
    return {
        "rows": [int(r) for r in delta.rows],
        "cols": [int(c) for c in delta.cols],
        "values": [float(v) for v in delta.values],
        "new_rows": int(delta.new_rows),
        "mode": delta.mode,
        "timestamp": float(delta.timestamp),
    }


def delta_from_wire(obj):
    """Decode a ``delta`` payload into a validated ``DeltaBatch``."""
    from repro.streaming import DeltaBatch

    if not isinstance(obj, dict):
        raise FormatError(
            f"delta payload must be an object, got {type(obj).__name__}"
        )
    missing = [k for k in ("rows", "cols", "values") if k not in obj]
    if missing:
        raise FormatError(f"delta payload missing field(s): {', '.join(missing)}")
    rows, cols, values = _triples_from_wire(obj, "delta")
    new_rows = obj.get("new_rows", 0)
    mode = obj.get("mode", "add")
    timestamp = obj.get("timestamp", 0.0)
    if not _is_count(new_rows):
        raise FormatError(f"delta new_rows must be a non-negative int, got {new_rows!r}")
    if not finite_real(timestamp):
        raise FormatError(f"delta timestamp must be a finite number, got {timestamp!r}")
    try:
        # DeltaBatch validates shapes, dtypes and the mode/new_rows combination.
        return DeltaBatch(
            rows=rows,
            cols=cols,
            values=values,
            new_rows=new_rows,
            mode=mode,
            timestamp=float(timestamp),
        )
    except (TypeError, ValueError, ValidationError) as exc:
        raise FormatError(f"invalid delta payload: {exc}") from exc


def matrix_fingerprint(csr: CSRMatrix) -> str:
    """Content fingerprint of a matrix: shape, pattern **and values**.

    Two matrices with equal fingerprints produce bitwise-equal SpMM
    results, so the fingerprint is a safe name for a warm session.  The
    value bytes enter as little-endian float64, making the digest
    reproducible across machines.
    """
    values = np.ascontiguousarray(csr.values, dtype=np.float64)
    return stable_digest(
        int(csr.n_rows).to_bytes(8, "little"),
        int(csr.n_cols).to_bytes(8, "little"),
        digest_arrays(csr.rowptr, csr.colidx).encode("ascii"),
        values.astype("<f8", copy=False).tobytes(),
    )
