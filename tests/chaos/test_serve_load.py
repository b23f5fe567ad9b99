"""Chaos load tests for ``repro serve``.

Contract: a multi-tenant server under sustained fault injection — every
registered site, including ``serve.accept``, which resets a connection
before its first read — must hold four properties at any injection
rate:

* **zero crashes** — the server thread survives the whole run and every
  request eventually gets a response or an explicit connection error;
* **zero wrong answers** — every ``ok`` result is bitwise-identical to a
  fault-free reference built with the *settled* ladder config that the
  response's provenance reports;
* **bounded latency** — client-observed p95 stays under a generous bound
  (no unbounded queueing: overload is rejected, not buffered);
* **monotone degradation provenance** — a response's ladder history only
  ever walks down the ladder, failures first, one final ``ok``.

CI runs this file at two ``(REPRO_CHAOS_RATE, REPRO_CHAOS_SEED)`` points
(see the ``serve-load`` lane); when ``REPRO_SERVE_TRACE_DIR`` is set a
per-request JSONL trace is written there for artifact upload.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from repro.datasets import hidden_clusters
from repro.errors import ReproIOError
from repro.kernels import KernelSession, spmm
from repro.reorder import ReorderConfig, build_plan
from repro.resilience import FAULT_SITES, FaultInjector, ladder_rungs
from repro.serve import ServeClient, ServeConfig
from repro.serve.protocol import (
    STATUS_DEADLINE_EXCEEDED,
    STATUS_DRAINING,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED_OVERLOAD,
    STATUS_REJECTED_QUOTA,
)
from repro.serve.testing import ServerThread


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _write_trace(name, records):
    """Dump per-request records as JSONL when the CI artifact dir is set."""
    trace_dir = os.environ.get("REPRO_SERVE_TRACE_DIR")
    if not trace_dir:
        return
    os.makedirs(trace_dir, exist_ok=True)
    with open(os.path.join(trace_dir, f"{name}.jsonl"), "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


class _ChaosClient:
    """A :class:`ServeClient` that reconnects through injected accept faults.

    ``serve.accept`` resets a connection before its first read, so a
    request observing EOF was never processed — resending is safe.
    """

    def __init__(self, address, attempts=60):
        self.address = address
        self.attempts = attempts
        self._client = None

    def request(self, send):
        last = None
        for _ in range(self.attempts):
            try:
                if self._client is None:
                    self._client = ServeClient(self.address, timeout=60.0)
                return send(self._client)
            except ReproIOError as exc:
                last = exc
                self.close()
        raise last

    def close(self):
        if self._client is not None:
            try:
                self._client.close()
            except OSError:
                pass
            self._client = None


def _settled_label(provenance):
    """The ladder rung the build actually settled on (last ``: ok``)."""
    settled = [p.split(":", 1)[0] for p in provenance if p.endswith(": ok")]
    return settled[-1] if settled else "full"


def _assert_monotone_provenance(provenance):
    """Failures first, strictly down the ladder, exactly one final ok."""
    labels = [p.split(":", 1)[0] for p in provenance]
    rungs = [label for label, _ in ladder_rungs(ReorderConfig())]
    order = [rungs.index(label) for label in labels]
    assert order == sorted(set(order)), f"non-monotone ladder walk: {provenance}"
    for line in provenance[:-1]:
        assert not line.endswith(": ok"), f"ok before the settle: {provenance}"
    if provenance:
        assert provenance[-1].endswith(": ok"), f"unsettled: {provenance}"


class _ReferenceOracle:
    """Fault-free reference: one numpy CSR session per matrix.

    The server keeps one warm session per matrix; a build under a tight
    deadline may settle below ``full`` (recorded in provenance), and the
    response's ``rung`` must name the rung it settled at.  Every rung
    multiplies in one pass over its reordered matrix plus a row scatter,
    which is bit-equal to the unreordered multiply, so one session per
    matrix is the reference for all of them — bitwise equality is the
    wrong-answer detector.
    """

    def __init__(self, config):
        self.config = config
        self._sessions = {}

    def verify(self, fingerprint, matrix, response, x):
        settled = _settled_label(response.get("provenance", ()))
        assert response["rung"] == settled, (
            f"rung {response['rung']!r} is not the settled rung {settled!r}"
        )
        if fingerprint not in self._sessions:
            self._sessions[fingerprint] = KernelSession(
                matrix, chunk_k=self.config.chunk_k
            )
        got = np.asarray(response["result"], dtype=np.float64)
        np.testing.assert_array_equal(got, self._sessions[fingerprint].run(x))


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def matrices():
    """Three distinct operators: distinct fingerprints churn the pool."""
    return [
        hidden_clusters(10, 6, 96, 6, noise=0.1, seed=seed)
        for seed in (11, 12, 13)
    ]


# ---------------------------------------------------------------------------
# The main load test: every fault site at the configured chaos rate
# ---------------------------------------------------------------------------


class TestServeLoadUnderChaos:
    THREADS = 5
    REQUESTS = 16

    def test_load_survives_full_fault_matrix(
        self, tmp_path, chaos_rate, chaos_seed, matrices
    ):
        config = ServeConfig(
            port=0,
            workers=2,
            panel_height=8,
            chunk_k=16,
            pool_sessions=2,  # smaller than the key universe: evictions
            max_inflight=32,
            quota_rate=1000.0,
            quota_burst=1000.0,
            plan_cache_dir=str(tmp_path / "plans"),
        )
        oracle = _ReferenceOracle(config)
        records = []
        errors = []
        lock = threading.Lock()

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with ServerThread(config) as thread:
                with ServeClient(thread.address) as client:
                    fingerprints = [
                        client.upload(m)["fingerprint"] for m in matrices
                    ]
                by_fingerprint = dict(zip(fingerprints, matrices))

                barrier = threading.Barrier(self.THREADS)

                def worker(worker_id):
                    rng = np.random.default_rng(10_000 + worker_id)
                    chaos = _ChaosClient(thread.address)
                    barrier.wait()
                    try:
                        for j in range(self.REQUESTS):
                            pick = int(rng.integers(len(matrices)))
                            matrix = matrices[pick]
                            k = int(rng.integers(1, 33))
                            x = rng.normal(size=(matrix.n_cols, k))
                            kwargs = {
                                "tenant": ("alpha", "beta")[j % 2],
                            }
                            if j % 5 == 4:
                                kwargs["matrix"] = matrix  # inline upload path
                            else:
                                kwargs["fingerprint"] = fingerprints[pick]
                            if j % 6 == 5:
                                kwargs["deadline_s"] = 0.002  # cancellation path
                            elif j % 6 == 2:
                                kwargs["deadline_s"] = 30.0
                            t0 = time.monotonic()
                            response = chaos.request(
                                lambda c: c.spmm(x, **kwargs)
                            )
                            latency = time.monotonic() - t0
                            with lock:
                                records.append(
                                    {
                                        "worker": worker_id,
                                        "seq": j,
                                        "fingerprint": fingerprints[pick],
                                        "x": x,
                                        "response": response,
                                        "latency_s": latency,
                                    }
                                )
                    except Exception as exc:  # pragma: no cover - reporting
                        errors.append(f"worker {worker_id}: {exc!r}")
                    finally:
                        chaos.close()

                with FaultInjector(
                    rate=chaos_rate, seed=chaos_seed, sites=list(FAULT_SITES)
                ) as injector:
                    threads = [
                        threading.Thread(target=worker, args=(i,))
                        for i in range(self.THREADS)
                    ]
                    for t in threads:
                        t.start()
                    for t in threads:
                        t.join()

                # Injector gone: the server must still be fully healthy.
                with ServeClient(thread.address) as client:
                    health = client.health()
                    metrics = client.metrics()["metrics"]
                assert health["ready"] is True
                assert health["draining"] is False

        _write_trace(
            f"serve_load_rate{chaos_rate}_seed{chaos_seed}",
            [
                {
                    key: value
                    for key, value in r.items()
                    if key not in ("x", "response")
                }
                | {
                    "status": r["response"].get("status"),
                    "rung": r["response"].get("rung"),
                }
                for r in records
            ],
        )

        # Zero crashes: every request resolved, the thread wound down.
        assert errors == []
        assert len(records) == self.THREADS * self.REQUESTS
        assert not thread._thread.is_alive()

        statuses = {}
        for record in records:
            status = record["response"].get("status")
            statuses[status] = statuses.get(status, 0) + 1
        allowed = {
            STATUS_OK,
            STATUS_DEADLINE_EXCEEDED,
            STATUS_REJECTED_OVERLOAD,
            STATUS_REJECTED_QUOTA,
            STATUS_ERROR,
        }
        assert set(statuses) <= allowed, f"unexpected statuses: {statuses}"
        # Progress under chaos: the healthy majority really was served.
        assert statuses.get(STATUS_OK, 0) > len(records) // 2, statuses

        # Zero wrong answers + monotone provenance, response by response.
        for record in records:
            response = record["response"]
            if response.get("status") != STATUS_OK:
                assert "result" not in response
                continue
            _assert_monotone_provenance(response.get("provenance", []))
            oracle.verify(
                record["fingerprint"],
                by_fingerprint[record["fingerprint"]],
                response,
                record["x"],
            )

        # Bounded p95: overload rejects instead of queueing without bound.
        latencies = sorted(r["latency_s"] for r in records)
        p95 = latencies[min(len(latencies) - 1, int(0.95 * len(latencies)))]
        assert p95 < 10.0, f"p95 latency {p95:.3f}s"
        assert metrics["serve.requests"] >= len(records)
        assert metrics["serve.latency_s"]["count"] >= statuses.get(STATUS_OK, 0)


# ---------------------------------------------------------------------------
# Targeted robustness scenarios (fault-free or single-site injection)
# ---------------------------------------------------------------------------


class TestAdmissionUnderLoad:
    def test_overload_is_rejected_not_queued(self, matrices):
        matrix = matrices[0]
        config = ServeConfig(
            port=0,
            workers=1,
            max_inflight=1,
            panel_height=8,
            chunk_k=16,
            quota_rate=100_000.0,
            quota_burst=100_000.0,
        )
        statuses = []
        ok_checks = []
        lock = threading.Lock()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with ServerThread(config) as thread:
                with ServeClient(thread.address) as client:
                    fingerprint = client.upload(matrix)["fingerprint"]
                reference = build_plan(
                    matrix, config.reorder_config()
                ).session(chunk_k=config.chunk_k)

                barrier = threading.Barrier(6)

                def worker(worker_id):
                    rng = np.random.default_rng(worker_id)
                    with ServeClient(thread.address) as client:
                        barrier.wait()
                        for _ in range(10):
                            x = rng.normal(size=(matrix.n_cols, 48))
                            response = client.spmm(x, fingerprint=fingerprint)
                            with lock:
                                statuses.append(response["status"])
                                if response["status"] == STATUS_OK:
                                    ok_checks.append((x, response))

                threads = [
                    threading.Thread(target=worker, args=(i,)) for i in range(6)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()

                # An uncontended request still succeeds afterwards.
                with ServeClient(thread.address) as client:
                    x = np.ones((matrix.n_cols, 4))
                    final = client.spmm(x, fingerprint=fingerprint)
                assert final["status"] == STATUS_OK

        assert set(statuses) <= {STATUS_OK, STATUS_REJECTED_OVERLOAD}
        # Six workers racing a single admission slot must overflow it.
        assert statuses.count(STATUS_REJECTED_OVERLOAD) > 0
        assert statuses.count(STATUS_OK) > 0
        for x, response in ok_checks:
            np.testing.assert_array_equal(
                np.asarray(response["result"], dtype=np.float64),
                reference.run(x),
            )

    def test_tenant_quota_rejections_are_deterministic(self, matrices):
        matrix = matrices[0]
        config = ServeConfig(
            port=0,
            workers=1,
            panel_height=8,
            chunk_k=16,
            quota_rate=0.001,
            quota_burst=2.0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with ServerThread(config) as thread:
                with ServeClient(thread.address) as client:
                    fingerprint = client.upload(matrix)["fingerprint"]
                    x = np.ones((matrix.n_cols, 3))
                    limited = [
                        client.spmm(x, fingerprint=fingerprint, tenant="limited")[
                            "status"
                        ]
                        for _ in range(5)
                    ]
                    other = client.spmm(
                        x, fingerprint=fingerprint, tenant="other"
                    )["status"]
        # Burst of 2 with negligible refill: exactly two sneak through.
        assert limited == [
            STATUS_OK,
            STATUS_OK,
            STATUS_REJECTED_QUOTA,
            STATUS_REJECTED_QUOTA,
            STATUS_REJECTED_QUOTA,
        ]
        # Isolation: every tenant has its own bucket on the global quota.
        assert other == STATUS_OK


class TestBreakerUnderCompileFaults:
    def test_breaker_trips_to_numpy_and_stops_compiling(self, compiled_backend):
        config = ServeConfig(
            port=0,
            workers=1,
            panel_height=8,
            chunk_k=16,
            backend=compiled_backend,
            breaker_threshold=2,
            breaker_reset_s=600.0,  # stays open for the whole test
        )
        operators = [
            hidden_clusters(8, 6, 96, 6, noise=0.1, seed=100 + i)
            for i in range(5)
        ]
        responses = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with ServerThread(config) as thread:
                with FaultInjector(
                    rate=1.0, seed=1, sites=["backend.compile"]
                ) as injector:
                    with ServeClient(thread.address) as client:
                        for i, operator in enumerate(operators):
                            x = np.full((operator.n_cols, 5), float(i + 1))
                            responses.append(
                                (operator, x, client.spmm(x, matrix=operator))
                            )
                        health = client.health()
                # Two failed compiles trip the breaker; the three builds
                # after it run on numpy, which compiles nothing, so they
                # never reach the compiler at all.
                assert injector.checked["backend.compile"] == 2
                assert injector.fired["backend.compile"] == 2
        assert health["breaker"]["state"] == "open"
        for operator, x, response in responses:
            assert response["status"] == STATUS_OK
            assert response["backend"] == "numpy"  # degraded, not failed
            np.testing.assert_array_equal(
                np.asarray(response["result"], dtype=np.float64),
                spmm(operator, x),
            )


class TestCoalescingUnderConcurrency:
    def test_coalesced_burst_is_bitwise_identical(self, matrices):
        matrix = matrices[0]
        config = ServeConfig(
            port=0,
            workers=1,
            max_inflight=64,
            panel_height=8,
            chunk_k=16,
            quota_rate=100_000.0,
            quota_burst=100_000.0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with ServerThread(config) as thread:
                with ServeClient(thread.address) as client:
                    fingerprint = client.upload(matrix)["fingerprint"]
                    # Warm the full-rung session so the burst multiplies
                    # immediately (coalescing happens at the executor door).
                    client.spmm(
                        np.ones((matrix.n_cols, 2)), fingerprint=fingerprint
                    )
                reference = build_plan(
                    matrix, config.reorder_config()
                ).session(chunk_k=config.chunk_k)

                coalesced_seen = False
                for _attempt in range(3):
                    responses = [None] * 12
                    barrier = threading.Barrier(len(responses))

                    def worker(i):
                        rng = np.random.default_rng(500 + i)
                        x = rng.normal(size=(matrix.n_cols, 8))
                        with ServeClient(thread.address) as client:
                            barrier.wait()
                            responses[i] = (x, client.spmm(x, fingerprint=fingerprint))

                    threads = [
                        threading.Thread(target=worker, args=(i,))
                        for i in range(len(responses))
                    ]
                    for t in threads:
                        t.start()
                    for t in threads:
                        t.join()

                    for x, response in responses:
                        assert response["status"] == STATUS_OK
                        np.testing.assert_array_equal(
                            np.asarray(response["result"], dtype=np.float64),
                            reference.run(x),
                        )
                    if any(r["coalesced"] for _, r in responses):
                        coalesced_seen = True
                        break
                with ServeClient(thread.address) as client:
                    metrics = client.metrics()["metrics"]
        assert coalesced_seen, "12-wide simultaneous burst never coalesced"
        assert metrics["serve.coalesced"] >= 1
        assert metrics["serve.batches"] >= 1


class TestGracefulDrainUnderLoad:
    def test_drain_finishes_in_flight_and_rejects_late_arrivals(self, matrices):
        matrix = matrices[0]
        config = ServeConfig(
            port=0,
            workers=2,
            max_inflight=16,
            panel_height=8,
            chunk_k=16,
            quota_rate=100_000.0,
            quota_burst=100_000.0,
        )
        results = []
        lock = threading.Lock()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with ServerThread(config) as thread:
                with ServeClient(thread.address) as client:
                    fingerprint = client.upload(matrix)["fingerprint"]
                reference = build_plan(
                    matrix, config.reorder_config()
                ).session(chunk_k=config.chunk_k)
                stop_at = time.monotonic() + 8.0

                def worker(worker_id):
                    rng = np.random.default_rng(worker_id)
                    try:
                        client = ServeClient(thread.address)
                        while time.monotonic() < stop_at:
                            x = rng.normal(size=(matrix.n_cols, 16))
                            response = client.spmm(x, fingerprint=fingerprint)
                            with lock:
                                results.append((x, response))
                            if response["status"] == STATUS_DRAINING:
                                return
                    except ReproIOError:
                        return  # connection closed by the drain: acceptable

                threads = [
                    threading.Thread(target=worker, args=(i,)) for i in range(4)
                ]
                for t in threads:
                    t.start()
                time.sleep(0.3)  # let load build up, then pull the plug
                with ServeClient(thread.address) as client:
                    drained = client.drain()
                assert drained["status"] == STATUS_OK
                for t in threads:
                    t.join(timeout=15.0)
                assert not any(t.is_alive() for t in threads)

        # The thread wound all the way down within the drain timeout.
        assert not thread._thread.is_alive()
        assert len(results) > 0
        for x, response in results:
            if response["status"] == STATUS_OK:
                np.testing.assert_array_equal(
                    np.asarray(response["result"], dtype=np.float64),
                    reference.run(x),
                )
            else:
                # In-flight work finishes; late arrivals are told why.
                assert response["status"] == STATUS_DRAINING

    def test_sigterm_drains_a_real_server_process(self, tmp_path, matrices):
        """`repro serve` + SIGTERM: the real CLI path drains and exits 0."""
        matrix = matrices[0]
        socket_path = str(tmp_path / "serve.sock")
        import repro

        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--unix-socket",
                socket_path,
                "--workers",
                "1",
                "--panel-height",
                "8",
                "--drain-timeout",
                "10",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        try:
            deadline = time.monotonic() + 20.0
            while not os.path.exists(socket_path):
                assert proc.poll() is None, proc.stdout.read().decode()
                assert time.monotonic() < deadline, "server never bound its socket"
                time.sleep(0.05)
            with ServeClient(socket_path) as client:
                assert client.ping()["status"] == STATUS_OK
                response = client.spmm(
                    np.ones((matrix.n_cols, 4)), matrix=matrix
                )
                assert response["status"] == STATUS_OK
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30.0) == 0
            # The drain unlinked the UNIX socket on its way out.
            assert not os.path.exists(socket_path)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)
