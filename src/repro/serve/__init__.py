"""`repro serve` — a fault-tolerant multi-tenant SpMM service.

The paper's economic argument is that the cost of data transformation
(reordering + tiling) is amortised when the same sparse matrix is
multiplied many times — a *serving* workload.  This package turns the
library into that long-running service: clients submit
``(matrix fingerprint | matrix upload, dense batch, deadline, tenant)``
requests over a newline-delimited-JSON TCP/UNIX-socket protocol
(:mod:`repro.serve.protocol`) and get results computed on a bounded LRU
pool of warm :class:`~repro.kernels.KernelSession`, one per matrix
(:mod:`repro.serve.pool`).

The robustness stack, layer by layer:

* **admission control + per-tenant token-bucket quotas**
  (:mod:`repro.serve.admission`) — overload produces explicit
  ``rejected_overload`` / ``rejected_quota`` responses instead of
  unbounded queueing;
* **deadline propagation** — the request deadline threads into the
  existing cooperative :class:`~repro.resilience.Deadline` through plan
  build and the K-chunked multiply, with partial-work cancellation at
  chunk boundaries; a build that would miss the batch's budget walks
  down the degradation ladder, and the response's ``rung`` names the
  rung it settled at (a degraded plan serves its batch and is not
  pooled);
* **compile circuit breaker** (:mod:`repro.serve.breaker`) around the
  ``cc`` backend's C build — repeated compile failures trip it to the
  numpy backend;
* **request coalescing** (:mod:`repro.serve.coalesce`) — concurrent
  requests against the same fingerprint batch into one K-chunked
  multiply with per-request result slicing, bitwise-identical to serial
  execution;
* **health / readiness / drain** — ``health`` and ``metrics`` protocol
  ops backed by the process-global metrics registry, plus a SIGTERM
  graceful-drain path.

See ``docs/SERVING.md`` for the protocol spec and the tuning knobs, and
``tests/chaos/test_serve_load.py`` for the SLO-gated chaos load tests.
"""

from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.breaker import CircuitBreaker
from repro.serve.client import ServeClient, parse_address
from repro.serve.coalesce import Coalescer
from repro.serve.config import ServeConfig
from repro.serve.pool import SessionPool
from repro.serve.protocol import (
    STATUS_DEADLINE_EXCEEDED,
    STATUS_DRAINING,
    STATUS_ERROR,
    STATUS_NOT_FOUND,
    STATUS_OK,
    STATUS_REJECTED_OVERLOAD,
    STATUS_REJECTED_QUOTA,
    decode_message,
    dense_from_wire,
    encode_message,
    matrix_fingerprint,
    matrix_from_wire,
    matrix_to_wire,
)
from repro.serve.server import SpmmServer, run_server
from repro.serve.testing import ServerThread

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "Coalescer",
    "ServeClient",
    "ServeConfig",
    "ServerThread",
    "SessionPool",
    "SpmmServer",
    "TokenBucket",
    "decode_message",
    "dense_from_wire",
    "encode_message",
    "matrix_fingerprint",
    "matrix_from_wire",
    "matrix_to_wire",
    "parse_address",
    "run_server",
    "STATUS_OK",
    "STATUS_ERROR",
    "STATUS_NOT_FOUND",
    "STATUS_DRAINING",
    "STATUS_DEADLINE_EXCEEDED",
    "STATUS_REJECTED_OVERLOAD",
    "STATUS_REJECTED_QUOTA",
]
