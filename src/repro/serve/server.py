"""The asyncio SpMM server behind ``repro serve``.

One event loop owns the sockets and all bookkeeping; kernels and plan
builds run on a bounded :class:`~concurrent.futures.ThreadPoolExecutor`
so the loop never blocks on numpy (rule RD108 enforces this shape).  A
request travels::

    accept -> decode -> admission -> deadline check -> matrix resolve
           -> coalesce -> [executor] pin-or-build -> K-chunked multiply
           -> slice -> respond

Warm sessions are keyed by the matrix fingerprint alone: every request
for a matrix builds with the server's one reorder config, and only the
deadline-budgeted build ladder can settle a plan below ``full``.

Every failure mode has an explicit, typed outcome (see
:mod:`repro.serve.protocol`); the chaos suite asserts the server never
crashes and never returns a wrong answer under injected faults at every
registered site (:data:`repro.resilience.FAULT_SITES`).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import signal
import threading
import time
from collections import OrderedDict
from dataclasses import replace

import numpy as np

from repro.errors import FormatError, ReproError, ShapeError
from repro.observability.metrics import METRICS
from repro.reorder import build_plan
from repro.resilience import Deadline, ResiliencePolicy
from repro.resilience.faults import fault_point
from repro.serve.admission import AdmissionController
from repro.serve.breaker import CircuitBreaker
from repro.serve.coalesce import Coalescer
from repro.serve.config import ServeConfig, positive_seconds
from repro.serve.pool import SessionPool
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    REQUEST_OPS,
    STATUS_DEADLINE_EXCEEDED,
    STATUS_DRAINING,
    STATUS_ERROR,
    STATUS_NOT_FOUND,
    STATUS_OK,
    decode_message,
    delta_from_wire,
    dense_from_wire,
    encode_message,
    matrix_fingerprint,
    matrix_from_wire,
)

__all__ = ["SpmmServer", "run_server"]

#: Uploaded matrices the registry holds; past it the least recently used
#: one is evicted (``serve.matrix_evict``) and its fingerprint answers
#: ``not_found``.
MAX_MATRICES = 64

#: Longest protocol line the reader buffers; a longer one is answered
#: with an error and its connection closed.
MAX_LINE_BYTES = 64 * 1024 * 1024


class _Member:
    """One request riding a coalesced batch."""

    __slots__ = ("x", "deadline")

    def __init__(self, x, deadline):
        self.x = x
        self.deadline = deadline


class SpmmServer:
    """The long-running SpMM service (see module docstring).

    Parameters
    ----------
    config:
        A :class:`~repro.serve.ServeConfig` (defaults apply when omitted).
    clock:
        Injectable monotonic clock shared by deadlines, quotas and the
        breaker, so every time-dependent behaviour is testable.
    """

    def __init__(self, config: ServeConfig | None = None, *, clock=time.monotonic):
        self.config = config or ServeConfig()
        self._clock = clock
        cfg = self.config
        self.pool = SessionPool(cfg.pool_sessions)
        self.admission = AdmissionController(
            max_inflight=cfg.max_inflight,
            quota_rate=cfg.quota_rate,
            quota_burst=cfg.quota_burst,
            tenant_quotas=cfg.tenant_quotas,
            clock=clock,
        )
        self.breaker = CircuitBreaker(
            threshold=cfg.breaker_threshold, reset_s=cfg.breaker_reset_s, clock=clock
        )
        self.coalescer = Coalescer()
        self._plan_cache = None
        if cfg.plan_cache_dir is not None:
            from repro.planstore import PlanStore

            self._plan_cache = PlanStore(cache_dir=cfg.plan_cache_dir)
        self._matrices: OrderedDict = OrderedDict()  # fingerprint -> CSRMatrix
        self._matrices_lock = threading.Lock()
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=cfg.workers, thread_name_prefix="repro-serve"
        )
        self._loop = None
        self._server = None
        self._port = None
        self._conns: set = set()
        self._draining = False
        self._shutdown_task = None
        self._closed = None  # asyncio.Event, created in start()
        self._requests = METRICS.counter("serve.requests", "protocol requests handled")
        self._errors = METRICS.counter("serve.errors", "requests answered with error")
        self._matrix_evicts = METRICS.counter(
            "serve.matrix_evict", "uploaded matrices evicted from the registry"
        )
        self._deltas = METRICS.counter(
            "serve.deltas", "streaming delta requests applied"
        )
        self._latency = METRICS.histogram(
            "serve.latency_s", "admitted spmm latency in seconds"
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listen socket and begin accepting connections."""
        self._loop = asyncio.get_running_loop()
        self._closed = asyncio.Event()
        addr = self.config.address()
        if isinstance(addr, str):
            self._server = await asyncio.start_unix_server(
                self._on_conn, path=addr, limit=MAX_LINE_BYTES
            )
        else:
            host, port = addr
            self._server = await asyncio.start_server(
                self._on_conn, host, port, limit=MAX_LINE_BYTES
            )
            # Cache now: the sockets list empties once the listener closes,
            # but clients still need the address to observe the drain.
            self._port = self._server.sockets[0].getsockname()[1]
        # SIGTERM -> graceful drain.  Unavailable off the main thread and
        # on non-UNIX loops; the drain op covers those cases.
        with contextlib.suppress(
            NotImplementedError, RuntimeError, ValueError, OSError
        ):
            self._loop.add_signal_handler(signal.SIGTERM, self._begin_shutdown)

    @property
    def port(self) -> int | None:
        """The bound TCP port (meaningful with ``port=0``)."""
        return self._port

    def _begin_shutdown(self) -> None:
        if self._shutdown_task is None:
            self._shutdown_task = self._loop.create_task(self.shutdown())

    async def shutdown(self, *, drain: bool = True) -> None:
        """Stop admitting work, optionally drain in-flight, close down."""
        if self._draining and self._closed.is_set():
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain:
            give_up = self._clock() + self.config.drain_timeout_s
            while self.admission.in_flight > 0 and self._clock() < give_up:
                await asyncio.sleep(0.005)
        for writer in list(self._conns):
            writer.close()
        self._executor.shutdown(wait=True)
        self.pool.clear()
        if self.config.unix_path is not None:
            import os

            with contextlib.suppress(OSError):
                os.unlink(self.config.unix_path)
        self._closed.set()

    async def wait_closed(self) -> None:
        """Block until :meth:`shutdown` (drain op / SIGTERM) completes."""
        await self._closed.wait()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _on_conn(self, reader, writer) -> None:
        try:
            # A connection reset before its first read: the client sees
            # EOF, nothing was processed, and it may resend.
            fault_point("serve.accept")
            self._conns.add(writer)
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Line longer than the protocol bound.
                    await self._send(
                        writer,
                        {
                            "status": STATUS_ERROR,
                            "error": "protocol line exceeds "
                            f"{MAX_LINE_BYTES} bytes",
                        },
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                response = await self._handle_line(line)
                await self._send(writer, response)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            self._conns.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _send(self, writer, response: dict) -> None:
        writer.write(encode_message(response))
        with contextlib.suppress(ConnectionError):
            await writer.drain()

    async def _handle_line(self, line: bytes) -> dict:
        self._requests.inc()
        try:
            msg = decode_message(line)
        except FormatError as exc:
            self._errors.inc()
            return {"status": STATUS_ERROR, "error": str(exc)}
        rid = msg.get("id")
        try:
            response = await self._dispatch(msg)
        except (ReproError, ShapeError) as exc:
            self._errors.inc()
            response = {
                "status": STATUS_ERROR,
                "error": f"{type(exc).__name__}: {exc}",
            }
        except Exception as exc:
            # The connection loop must survive anything a request does.
            self._errors.inc()
            response = {
                "status": STATUS_ERROR,
                "error": f"internal {type(exc).__name__}: {exc}",
            }
        if rid is not None:
            response.setdefault("id", rid)
        return response

    async def _dispatch(self, msg: dict) -> dict:
        op = msg.get("op")
        if op == "ping":
            return {"status": STATUS_OK, "pong": True, "version": PROTOCOL_VERSION}
        if op == "upload":
            return await self._op_upload(msg)
        if op == "spmm":
            return await self._op_spmm(msg)
        if op == "delta":
            return await self._op_delta(msg)
        if op == "health":
            return self._op_health()
        if op == "metrics":
            return {"status": STATUS_OK, "metrics": METRICS.snapshot()}
        if op == "drain":
            self._begin_shutdown()
            return {"status": STATUS_OK, "draining": True}
        return {
            "status": STATUS_ERROR,
            "error": f"unknown op {op!r}; expected one of {', '.join(REQUEST_OPS)}",
        }

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------
    def _register_matrix(self, fingerprint: str, csr) -> None:
        with self._matrices_lock:
            self._matrices[fingerprint] = csr
            self._matrices.move_to_end(fingerprint)
            while len(self._matrices) > MAX_MATRICES:
                self._matrices.popitem(last=False)
                self._matrix_evicts.inc()

    def _lookup_matrix(self, fingerprint: str):
        with self._matrices_lock:
            csr = self._matrices.get(fingerprint)
            if csr is not None:
                self._matrices.move_to_end(fingerprint)
            return csr

    async def _op_upload(self, msg: dict) -> dict:
        if self._draining:
            return {"status": STATUS_DRAINING}
        if "matrix" not in msg:
            return {"status": STATUS_ERROR, "error": "upload needs a matrix field"}
        csr = await self._loop.run_in_executor(
            self._executor, matrix_from_wire, msg["matrix"]
        )
        fingerprint = matrix_fingerprint(csr)
        self._register_matrix(fingerprint, csr)
        return {
            "status": STATUS_OK,
            "fingerprint": fingerprint,
            "shape": [csr.n_rows, csr.n_cols],
            "nnz": int(csr.nnz),
        }

    async def _op_delta(self, msg: dict) -> dict:
        """Stream a delta into a registered matrix (see the protocol docs).

        The mutated matrix replaces the old registry entry under its new
        content fingerprint, and the warm session pinned to the old
        fingerprint is invalidated.  A later ``spmm`` against the new
        fingerprint builds its plan from scratch, unless a plan store
        (``plan_cache_dir``) holds the pattern-keyed decisions of a
        value-only delta.
        """
        if self._draining:
            return {"status": STATUS_DRAINING}
        fingerprint = msg.get("fingerprint")
        if fingerprint is None or "delta" not in msg:
            return {
                "status": STATUS_ERROR,
                "error": "delta needs a fingerprint and a delta payload",
            }
        csr = self._lookup_matrix(fingerprint)
        if csr is None:
            return {
                "status": STATUS_NOT_FOUND,
                "error": f"no matrix with fingerprint {fingerprint!r}; "
                "upload it first",
            }
        delta = delta_from_wire(msg["delta"])

        def mutate():
            fault_point("streaming.update")
            return delta.apply_to(csr)

        csr_new = await self._loop.run_in_executor(self._executor, mutate)
        new_fingerprint = matrix_fingerprint(csr_new)
        with self._matrices_lock:
            self._matrices.pop(fingerprint, None)
        self._register_matrix(new_fingerprint, csr_new)
        invalidated = int(self.pool.invalidate(fingerprint))
        self._deltas.inc()
        return {
            "status": STATUS_OK,
            "fingerprint": new_fingerprint,
            "previous_fingerprint": fingerprint,
            "shape": [csr_new.n_rows, csr_new.n_cols],
            "nnz": int(csr_new.nnz),
            "sessions_invalidated": invalidated,
        }

    def _op_health(self) -> dict:
        return {
            "status": STATUS_OK,
            "version": PROTOCOL_VERSION,
            "ready": self._server is not None and not self._draining,
            "draining": self._draining,
            "pool": self.pool.occupancy(),
            "admission": self.admission.snapshot(),
            "breaker": self.breaker.snapshot(),
            "matrices": len(self._matrices),
        }

    async def _op_spmm(self, msg: dict) -> dict:
        if self._draining:
            return {"status": STATUS_DRAINING}
        tenant = str(msg.get("tenant", "default"))
        rejection = self.admission.admit(tenant)
        if rejection is not None:
            return {"status": rejection}
        t0 = self._clock()
        try:
            return await self._admitted_spmm(msg)
        finally:
            self.admission.release()
            self._latency.observe(self._clock() - t0)

    async def _admitted_spmm(self, msg: dict) -> dict:
        # Deadline: checked before any decode, started after it.
        deadline_s = msg.get("deadline_s", self.config.default_deadline_s)
        if deadline_s is not None and not positive_seconds(deadline_s):
            return {
                "status": STATUS_ERROR,
                "error": "deadline_s must be a positive finite number, "
                f"got {deadline_s!r}",
            }
        # Resolve the operator matrix.
        fingerprint = msg.get("fingerprint")
        if fingerprint is not None:
            csr = self._lookup_matrix(fingerprint)
            if csr is None:
                return {
                    "status": STATUS_NOT_FOUND,
                    "error": f"no matrix with fingerprint {fingerprint!r}; "
                    "upload it first",
                }
        elif "matrix" in msg:
            csr = await self._loop.run_in_executor(
                self._executor, matrix_from_wire, msg["matrix"]
            )
            fingerprint = matrix_fingerprint(csr)
            self._register_matrix(fingerprint, csr)
        else:
            return {
                "status": STATUS_ERROR,
                "error": "spmm needs a fingerprint or an inline matrix",
            }
        if "x" not in msg:
            return {"status": STATUS_ERROR, "error": "spmm needs a dense operand x"}
        x = await self._loop.run_in_executor(
            self._executor, lambda: dense_from_wire(msg["x"], rows=csr.n_cols)
        )

        # Per-request budget on the server's clock.
        deadline = None
        if deadline_s is not None:
            deadline = Deadline.after(float(deadline_s), clock=self._clock)

        async def execute(key, members):
            return await self._loop.run_in_executor(
                self._executor, self._run_batch, key, csr, members
            )

        return await self.coalescer.submit(
            fingerprint, _Member(x, deadline), execute
        )

    # ------------------------------------------------------------------
    # Executor-side work (sync; never runs on the event loop)
    # ------------------------------------------------------------------
    def _run_batch(self, key, csr, members) -> list:
        entry = self.pool.pin(key)
        if entry is None:
            entry = self._build_entry(key, csr, members)
        try:
            return self._multiply_members(entry, csr.n_rows, members)
        finally:
            self.pool.unpin(entry)

    def _build_entry(self, key, csr, members):
        """Build a plan + session for ``key`` and pool it (returned pinned).

        A plan the batch's budget degraded is not pooled (see
        :meth:`SessionPool.put`): it serves this batch only.
        """
        requested = self.config.backend
        compiling = requested != "numpy" and self.breaker.allow()
        build_backend = requested if compiling else "numpy"
        # Build budget: the most patient member bounds the build, so a
        # batch never builds longer than anyone could still use.
        budgets = [m.deadline.remaining() for m in members if m.deadline is not None]
        budget = None
        if len(budgets) == len(members) and budgets:
            budget = max(0.0, max(budgets))
        policy = ResiliencePolicy(deadline_s=budget)
        compiled = False
        try:
            plan = build_plan(
                csr,
                replace(self.config.reorder_config(), backend=build_backend),
                cache=self._plan_cache,
                resilience=policy,
            )
            session = plan.session(chunk_k=self.config.chunk_k)
            compiled = session.backend == requested
        finally:
            # Settle the breaker whatever the build does: a half-open
            # trial that never reports would refuse every later compile,
            # so a build that raises counts as a failed one.
            if compiling:
                if compiled:
                    self.breaker.record_success()
                else:
                    self.breaker.record_failure()
        return self.pool.put(
            key, session, provenance=plan.provenance, backend=session.backend
        )

    def _multiply_members(self, entry, n_rows, members) -> list:
        """One K-chunked multiply over the concatenated batch operand.

        Output column ``j`` depends only on input column ``j`` with an
        accumulation order independent of neighbouring columns, so the
        concatenation + per-member slicing is bitwise-identical to
        serving each member alone (asserted by the chaos suite).  Member
        deadlines are polled at chunk boundaries; an expired member's
        remaining columns are cancelled, not computed.
        """
        widths = [m.x.shape[1] for m in members]
        ends = list(np.cumsum(widths))
        starts = [e - w for e, w in zip(ends, widths)]
        total_k = ends[-1] if ends else 0
        X = members[0].x if len(members) == 1 else np.hstack([m.x for m in members])
        out = np.empty((n_rows, total_k), dtype=np.float64)
        expired = [False] * len(members)
        chunk = self.config.chunk_k
        for col in range(0, total_k, chunk):
            stop = min(col + chunk, total_k)
            for i, member in enumerate(members):
                if (
                    not expired[i]
                    and member.deadline is not None
                    and ends[i] > col  # columns still outstanding
                    and member.deadline.expired()
                ):
                    expired[i] = True
            owners = [i for i in range(len(members)) if starts[i] < stop and ends[i] > col]
            if all(expired[i] for i in owners):
                continue  # partial-work cancellation: nobody wants these columns
            out[:, col:stop] = self._run_chunk(entry, X, col, stop)
        results = []
        for i, member in enumerate(members):
            if expired[i] or (member.deadline is not None and member.deadline.expired()):
                results.append(
                    {
                        "status": STATUS_DEADLINE_EXCEEDED,
                        "rung": entry.rung,
                        "error": "deadline expired before the result was complete",
                    }
                )
                continue
            results.append(
                {
                    "status": STATUS_OK,
                    "result": out[:, starts[i] : ends[i]].tolist(),
                    "rung": entry.rung,
                    "degraded": entry.degraded,
                    "provenance": list(entry.provenance),
                    "backend": entry.backend,
                    "coalesced": len(members) > 1,
                }
            )
        return results

    def _run_chunk(self, entry, X, col, stop) -> np.ndarray:
        # session.run returns a per-thread pinned buffer that the next
        # run overwrites; the caller copies it into the batch output.
        block = np.ascontiguousarray(X[:, col:stop])
        return entry.session.run(block)


async def _serve_forever(config: ServeConfig) -> None:
    server = SpmmServer(config)
    await server.start()
    await server.wait_closed()


def run_server(config: ServeConfig | None = None) -> None:
    """Run a server until a drain request or SIGTERM stops it."""
    asyncio.run(_serve_forever(config or ServeConfig()))
