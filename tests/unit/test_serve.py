"""Unit tests for the serving layer (repro.serve).

Pure-logic pieces (protocol codec, token buckets, breaker, session
pool, coalescer) are tested directly with injected clocks; the server
itself is exercised end-to-end over real sockets via
:class:`repro.serve.ServerThread` — the suite has no async runner, so
the event loop lives on a background thread and every test crosses the
genuine wire path.
"""

import asyncio
import warnings

import numpy as np
import pytest

from repro.errors import (
    ConfigError,
    DegradedExecution,
    FormatError,
    ReproIOError,
    ValidationError,
)
from repro.kernels import spmm
from repro.resilience import FaultInjector
from repro.serve import (
    STATUS_DEADLINE_EXCEEDED,
    STATUS_DRAINING,
    STATUS_ERROR,
    STATUS_NOT_FOUND,
    STATUS_OK,
    STATUS_REJECTED_QUOTA,
    AdmissionController,
    CircuitBreaker,
    Coalescer,
    ServeClient,
    ServeConfig,
    ServerThread,
    SessionPool,
    SpmmServer,
    TokenBucket,
    decode_message,
    encode_message,
    matrix_fingerprint,
    matrix_from_wire,
    matrix_to_wire,
    parse_address,
)
from repro.sparse import CSRMatrix

from conftest import FakeClock, random_csr


def _result(response):
    """The dense result of an ``ok`` spmm response, decoded as perfbench does."""
    assert response["status"] == STATUS_OK, response
    return np.asarray(response["result"], dtype=np.float64)


class ManualClock(FakeClock):
    """A FakeClock that only moves when told to (step 0)."""

    def __init__(self, start: float = 0.0):
        super().__init__(start=start, step=0.0)


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_message_round_trip(self):
        msg = {"op": "ping", "id": 3, "nested": {"a": [1.5, None, "x"]}}
        assert decode_message(encode_message(msg)) == msg

    def test_encode_is_one_compact_line(self):
        data = encode_message({"b": 1, "a": 2})
        assert data.endswith(b"\n") and data.count(b"\n") == 1
        assert data.index(b'"a"') < data.index(b'"b"')  # sorted keys

    @pytest.mark.parametrize(
        "line", [b"not json\n", b"[1,2]\n", b"42\n", b"\xff\xfe\n"]
    )
    def test_decode_rejects_non_object_lines(self, line):
        with pytest.raises(FormatError):
            decode_message(line)

    def test_matrix_wire_round_trip_is_bitwise(self, rng):
        csr = random_csr(rng, 30, 20, density=0.15)
        back = matrix_from_wire(decode_message(encode_message(matrix_to_wire(csr))))
        np.testing.assert_array_equal(back.rowptr, csr.rowptr)
        np.testing.assert_array_equal(back.colidx, csr.colidx)
        np.testing.assert_array_equal(back.values, csr.values)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("shape"),
            lambda d: d.update(shape=[2]),
            lambda d: d.update(rows="nope"),
            lambda d: d.update(values=d["values"][:-1]),
        ],
    )
    def test_matrix_from_wire_rejects_malformed_payloads(self, rng, mutate):
        payload = matrix_to_wire(random_csr(rng, 10, 10))
        mutate(payload)
        with pytest.raises(FormatError):
            matrix_from_wire(payload)

    def test_fingerprint_depends_on_values(self, rng):
        csr = random_csr(rng, 25, 25, density=0.1)
        doubled = csr.with_values(csr.values * 2.0)
        assert matrix_fingerprint(csr) == matrix_fingerprint(csr)
        assert matrix_fingerprint(csr) != matrix_fingerprint(doubled)

    def test_fingerprint_survives_the_wire(self, rng):
        csr = random_csr(rng, 25, 25, density=0.1)
        back = matrix_from_wire(
            decode_message(encode_message(matrix_to_wire(csr)))
        )
        assert matrix_fingerprint(back) == matrix_fingerprint(csr)


# ----------------------------------------------------------------------
# Admission
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = ManualClock()
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [True, True, True, False]
        clock.advance(1.0)  # +2 tokens
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_tokens_capped_at_burst(self):
        clock = ManualClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        clock.advance(100.0)
        assert bucket.tokens == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)


class TestAdmissionController:
    def _controller(self, clock, **kw):
        kw.setdefault("max_inflight", 2)
        kw.setdefault("quota_rate", 1.0)
        kw.setdefault("quota_burst", 2.0)
        return AdmissionController(clock=clock, **kw)

    def test_overload_checked_before_quota(self):
        clock = ManualClock()
        ctl = self._controller(clock)
        assert ctl.admit("a") is None
        assert ctl.admit("a") is None
        # Slots full: rejection is overload, and the tenant is NOT charged.
        tokens_before = ctl.snapshot()["tenants"]["a"]
        assert ctl.admit("a") == "rejected_overload"
        assert ctl.snapshot()["tenants"]["a"] == tokens_before
        ctl.release()
        ctl.release()

    def test_quota_rejection_and_refill(self):
        clock = ManualClock()
        ctl = self._controller(clock, max_inflight=100)
        assert ctl.admit("t") is None
        assert ctl.admit("t") is None
        assert ctl.admit("t") == STATUS_REJECTED_QUOTA
        clock.advance(1.0)
        assert ctl.admit("t") is None
        for _ in range(3):
            ctl.release()

    def test_tenants_are_isolated(self):
        clock = ManualClock()
        ctl = self._controller(clock, max_inflight=100)
        while ctl.admit("greedy") is None:
            pass
        assert ctl.admit("greedy") == STATUS_REJECTED_QUOTA
        assert ctl.admit("modest") is None  # unaffected by the other bucket

    def test_per_tenant_quota_override(self):
        clock = ManualClock()
        ctl = self._controller(
            clock, max_inflight=100, tenant_quotas={"vip": (10.0, 5.0)}
        )
        granted = 0
        while ctl.admit("vip") is None:
            granted += 1
        assert granted == 5  # vip burst, not the 2.0 default

    def test_release_without_admit_raises(self):
        ctl = self._controller(ManualClock())
        with pytest.raises(AssertionError):
            ctl.release()


# ----------------------------------------------------------------------
# Breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        clock = ManualClock()
        breaker = CircuitBreaker(threshold=3, reset_s=10.0, clock=clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(threshold=2, clock=ManualClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_single_trial_then_close_or_reopen(self):
        clock = ManualClock()
        breaker = CircuitBreaker(threshold=1, reset_s=5.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.allow()  # the half-open trial
        assert not breaker.allow()  # only one trial at a time
        breaker.record_failure()  # trial failed -> re-open
        assert breaker.state == "open"
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_trial_build_that_raises_settles_the_breaker(
        self, compiled_backend, monkeypatch
    ):
        """A half-open trial whose build raises counts as a failed trial:
        one ``reset_s`` later the next build compiles again."""
        from repro.datasets import hidden_clusters
        from repro.serve import server as server_mod

        clock = ManualClock()
        config = ServeConfig(
            port=0,
            workers=1,
            panel_height=8,
            backend=compiled_backend,
            breaker_threshold=1,
            breaker_reset_s=1.0,
        )
        server = SpmmServer(config, clock=clock)
        matrix = hidden_clusters(8, 6, 96, 6, noise=0.1, seed=7)

        def build(key):
            entry = server._build_entry(key, matrix, [])
            server.pool.unpin(entry)
            return entry.backend

        def out_of_memory(*args, **kwargs):
            raise MemoryError("trial build ran out of memory")

        try:
            with monkeypatch.context() as patch, warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedExecution)
                patch.setenv("CC", "false")  # every build of the library fails
                assert build("a") == "numpy"
            assert server.breaker.state == "open"
            clock.advance(1.0)
            with monkeypatch.context() as patch:
                patch.setattr(server_mod, "build_plan", out_of_memory)
                with pytest.raises(MemoryError):
                    build("b")  # the half-open trial
            assert server.breaker.state == "open"
            clock.advance(1.0)
            assert build("c") == compiled_backend
            assert server.breaker.state == "closed"
        finally:
            server._executor.shutdown(wait=True)

    def test_snapshot_reports_open_interval(self):
        clock = ManualClock()
        breaker = CircuitBreaker(threshold=1, reset_s=30.0, clock=clock)
        breaker.record_failure()
        clock.advance(4.0)
        snap = breaker.snapshot()
        assert snap["state"] == "open"
        assert snap["open_for_s"] == pytest.approx(4.0)


# ----------------------------------------------------------------------
# Session pool
# ----------------------------------------------------------------------
class FakeSession:
    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


def _put(pool, key, **kw):
    kw.setdefault("provenance", ("full: ok",))
    kw.setdefault("backend", "numpy")
    return pool.put(key, FakeSession(), **kw)


class TestSessionPool:
    @pytest.mark.parametrize("capacity", [True, 1.5, 0])
    def test_capacity_refuses_booleans_fractions_and_zero(self, capacity):
        # Not stored as int(capacity): True would become 1, 1.5 would be cut.
        with pytest.raises(ValidationError, match="capacity"):
            SessionPool(capacity=capacity)

    def test_miss_then_hit(self):
        pool = SessionPool(capacity=4)
        assert pool.pin("absent") is None
        entry = _put(pool, "k1")
        pool.unpin(entry)
        again = pool.pin("k1")
        assert again is entry
        pool.unpin(again)

    def test_lru_eviction_closes_the_victim(self):
        pool = SessionPool(capacity=2)
        a = _put(pool, "a"); pool.unpin(a)
        b = _put(pool, "b"); pool.unpin(b)
        pool.pin("a")  # refresh a; b is now LRU
        pool.unpin(a)
        c = _put(pool, "c"); pool.unpin(c)
        assert b.session.closed
        assert pool.pin("b") is None
        assert pool.pin("a") is not None

    def test_pinned_entries_survive_eviction_pressure(self):
        pool = SessionPool(capacity=1)
        pinned = _put(pool, "hot")  # stays pinned
        other = _put(pool, "cold")
        assert not pinned.session.closed
        assert len(pool) == 2  # transient overflow instead of a yank
        pool.unpin(pinned)
        pool.unpin(other)

    def test_racing_put_keeps_the_resident_entry(self):
        pool = SessionPool(capacity=4)
        first = _put(pool, "k")
        second = _put(pool, "k")
        assert second is first
        assert first.refs == 2
        pool.unpin(first)
        pool.unpin(first)

    def test_invalidate_drops_only_its_key(self):
        pool = SessionPool(capacity=8)
        doomed = _put(pool, "fp1"); pool.unpin(doomed)
        other = _put(pool, "fp2"); pool.unpin(other)
        assert pool.invalidate("fp1") is True
        assert pool.invalidate("fp1") is False  # already gone
        assert doomed.session.closed
        assert pool.pin("fp1") is None
        assert pool.pin("fp2") is other  # untouched
        pool.unpin(other)

    def test_invalidate_leaves_pinned_entries_running(self):
        pool = SessionPool(capacity=8)
        busy = _put(pool, "fp1")  # still pinned: a request is running
        assert pool.invalidate("fp1") is True
        assert not busy.session.closed  # finishes on the detached session
        assert pool.pin("fp1") is None  # but no new pins find it
        pool.unpin(busy)

    def test_capacity_is_exact(self):
        """Every key up to ``capacity`` stays resident: no per-shard
        bound evicts below it."""
        pool = SessionPool(capacity=8)
        for i in range(8):
            pool.unpin(_put(pool, f"k{i}"))
        assert len(pool) == 8
        pinned = [pool.pin(f"k{i}") for i in range(8)]
        assert None not in pinned
        for entry in pinned:
            pool.unpin(entry)
        pool.unpin(_put(pool, "k8"))  # the ninth evicts exactly one
        assert len(pool) == 8 and pool.pin("k0") is None

    def test_degraded_session_is_served_but_not_kept(self):
        pool = SessionPool(capacity=4)
        provenance = ("full: TimeoutExceeded: over budget", "untiled-csr: ok")
        entry = _put(pool, "fp", provenance=provenance)
        assert entry.refs == 1  # pinned for the batch that built it
        assert entry.degraded and entry.rung == "untiled-csr"
        pool.unpin(entry)
        assert len(pool) == 0 and pool.pin("fp") is None

    def test_unpin_without_pin_raises(self):
        pool = SessionPool(capacity=4)
        entry = _put(pool, "k")
        pool.unpin(entry)
        with pytest.raises(AssertionError):
            pool.unpin(entry)

    def test_occupancy_snapshot(self):
        pool = SessionPool(capacity=4)
        entry = _put(pool, "k1", backend="numpy")
        occ = pool.occupancy()
        assert occ == {
            "capacity": 4,
            "entries": 1,
            "pinned": 1,
            "keys": [{"key": "k1", "refs": 1, "backend": "numpy"}],
        }
        pool.unpin(entry)

    def test_clear_leaves_pinned_entries(self):
        pool = SessionPool(capacity=4)
        held = _put(pool, "held")
        loose = _put(pool, "loose"); pool.unpin(loose)
        pool.clear()
        assert len(pool) == 1 and not held.session.closed
        assert loose.session.closed
        pool.unpin(held)


# ----------------------------------------------------------------------
# Coalescer
# ----------------------------------------------------------------------
class TestCoalescer:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_concurrent_submits_share_one_batch(self):
        async def scenario():
            coalescer = Coalescer()
            batches = []
            started = asyncio.Event()

            async def execute(key, members):
                batches.append(list(members))
                started.set()
                await asyncio.sleep(0.02)  # hold the key so others queue up
                return [m * 10 for m in members]

            first = asyncio.create_task(coalescer.submit("k", 1, execute))
            await started.wait()  # leader is mid-execute
            rest = [
                asyncio.create_task(coalescer.submit("k", n, execute))
                for n in (2, 3)
            ]
            results = await asyncio.gather(first, *rest)
            return batches, results

        batches, results = self._run(scenario())
        assert results == [10, 20, 30]
        assert [1] in batches
        assert [2, 3] in batches  # the queued pair rode one batch

    def test_exception_reaches_every_member(self):
        async def scenario():
            coalescer = Coalescer()

            async def execute(key, members):
                raise ReproIOError("batch blew up")

            tasks = [
                asyncio.create_task(coalescer.submit("k", n, execute))
                for n in (1, 2)
            ]
            out = []
            for task in tasks:
                with pytest.raises(ReproIOError):
                    await task
                out.append(True)
            return out

        assert self._run(scenario()) == [True, True]

    def test_distinct_keys_do_not_serialise(self):
        async def scenario():
            coalescer = Coalescer()
            order = []

            async def execute(key, members):
                order.append(("start", key))
                await asyncio.sleep(0.01)
                order.append(("end", key))
                return members

            await asyncio.gather(
                coalescer.submit("a", 1, execute),
                coalescer.submit("b", 2, execute),
            )
            return order

        order = self._run(scenario())
        assert order[0][0] == "start" and order[1][0] == "start"  # overlapped


# ----------------------------------------------------------------------
# Config + address parsing
# ----------------------------------------------------------------------
class TestServeConfig:
    def test_defaults_validate(self):
        ServeConfig()

    @pytest.mark.parametrize(
        "kw",
        [
            {"pool_sessions": 0},
            {"workers": 0},
            {"quota_rate": 0.0},
            {"default_deadline_s": 0.0},
            {"default_deadline_s": float("nan")},
            {"default_deadline_s": float("inf")},
            {"backend": "no-such-backend"},
            # A NaN rate switches the quota off, a NaN burst refuses every
            # request and a NaN drain timeout skips the drain.
            *(
                {field: value}
                for field in (
                    "quota_rate", "quota_burst", "breaker_reset_s", "drain_timeout_s"
                )
                for value in (float("nan"), float("inf"), True)
            ),
        ],
    )
    def test_invalid_values_raise_config_error(self, kw):
        with pytest.raises(ConfigError, match=next(iter(kw))):
            ServeConfig(**kw)

    @pytest.mark.parametrize(
        "field",
        ["pool_sessions", "workers", "max_inflight", "breaker_threshold",
         "chunk_k", "panel_height"],
    )
    @pytest.mark.parametrize("value", [True, 1.5], ids=["bool", "float"])
    def test_integer_fields_refuse_bools_and_floats(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ServeConfig(**{field: value})

    @pytest.mark.parametrize(
        "quota",
        [(float("nan"), 1.0), (1.0, float("inf")), (0.0, 1.0), (1.0, -2.0),
         (True, 1.0), (1.0,), (1.0, 2.0, 3.0), "x", None],
        ids=["nan-rate", "inf-burst", "zero-rate", "negative-burst",
             "bool-rate", "one-value", "three-values", "string", "none"],
    )
    def test_tenant_quotas_must_be_positive_finite_pairs(self, quota):
        with pytest.raises(ConfigError, match=r"tenant_quotas\['t'\]"):
            ServeConfig(tenant_quotas={"default": (1.0, 2.0), "t": quota})

    def test_tenant_quotas_accept_ints_and_floats(self):
        quotas = {"t": (1, 2.5)}
        assert ServeConfig(tenant_quotas=quotas).tenant_quotas == quotas

    @pytest.mark.parametrize("field", ["breaker_reset_s", "drain_timeout_s"])
    def test_zero_timeouts_stay_legal(self, field):
        assert getattr(ServeConfig(**{field: 0}), field) == 0

    def test_address_forms(self):
        assert ServeConfig(host="h", port=9).address() == ("h", 9)
        assert ServeConfig(unix_path="/tmp/x.sock").address() == "/tmp/x.sock"


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("10.0.0.1:7077") == ("10.0.0.1", 7077)
        assert parse_address(":7077") == ("127.0.0.1", 7077)

    def test_unix_path(self):
        assert parse_address("/run/repro.sock") == "/run/repro.sock"

    @pytest.mark.parametrize("bad", ["nocolon", "host:notaport"])
    def test_invalid(self, bad):
        with pytest.raises(ValidationError):
            parse_address(bad)


# ----------------------------------------------------------------------
# End-to-end over real sockets
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def served(request):
    """One shared server + reference plan for the end-to-end tests."""
    rng = np.random.default_rng(777)
    csr = random_csr(rng, 48, 36, density=0.12)
    config = ServeConfig(port=0, workers=2, panel_height=8, chunk_k=16)
    from repro.reorder import build_plan

    plan = build_plan(csr, config.reorder_config())
    thread = ServerThread(config).start()
    yield {"thread": thread, "csr": csr, "plan": plan, "rng": rng}
    thread.stop()


class TestServerEndToEnd:
    def test_ping(self, served):
        with ServeClient(served["thread"].address) as client:
            resp = client.ping()
            assert resp["status"] == STATUS_OK and resp["pong"] is True

    def test_accept_fault_resets_only_its_connection(self, served):
        address = served["thread"].address
        with FaultInjector(
            rate=1.0, seed=0, sites=["serve.accept"], max_faults=1
        ) as injector:
            with ServeClient(address) as dropped, pytest.raises(ReproIOError):
                dropped.ping()
            with ServeClient(address) as client:
                assert client.ping()["pong"] is True
        assert injector.fired["serve.accept"] == 1

    def test_upload_then_spmm_is_bitwise_vs_plan_session(self, served):
        csr, plan = served["csr"], served["plan"]
        X = np.asarray(served["rng"].random((csr.n_cols, 40)), dtype=np.float64)
        expected = plan.session(chunk_k=16).run(X).copy()
        with ServeClient(served["thread"].address) as client:
            fingerprint = client.upload(csr)["fingerprint"]
            resp = client.spmm(X, fingerprint=fingerprint, request_id=11)
            assert resp["status"] == STATUS_OK
            assert resp["id"] == 11
            assert resp["rung"] == "full" and resp["degraded"] is False
            np.testing.assert_array_equal(
                _result(resp), expected
            )

    def test_inline_matrix_spmm(self, served):
        csr, plan = served["csr"], served["plan"]
        X = np.asarray(served["rng"].random((csr.n_cols, 3)), dtype=np.float64)
        expected = plan.session(chunk_k=16).run(X).copy()
        with ServeClient(served["thread"].address) as client:
            resp = client.spmm(X, matrix=csr)
            assert resp["status"] == STATUS_OK
            np.testing.assert_array_equal(
                _result(resp), expected
            )

    def test_unknown_fingerprint_is_not_found(self, served):
        X = np.ones((served["csr"].n_cols, 2))
        with ServeClient(served["thread"].address) as client:
            resp = client.spmm(X, fingerprint="deadbeef")
            assert resp["status"] == STATUS_NOT_FOUND

    def test_missing_operand_is_an_error(self, served):
        with ServeClient(served["thread"].address) as client:
            resp = client.request({"op": "spmm", "fingerprint": "x"})
            assert resp["status"] in (STATUS_ERROR, STATUS_NOT_FOUND)
            resp = client.request({"op": "spmm"})
            assert resp["status"] == STATUS_ERROR

    def test_malformed_line_gets_error_response_not_disconnect(self, served):
        with ServeClient(served["thread"].address) as client:
            client._sock.sendall(b"this is not json\n")
            resp = decode_message(client._file.readline())
            assert resp["status"] == STATUS_ERROR
            assert client.ping()["status"] == STATUS_OK  # connection survives

    def test_unknown_op_is_an_error(self, served):
        with ServeClient(served["thread"].address) as client:
            resp = client.request({"op": "explode"})
            assert resp["status"] == STATUS_ERROR and "unknown op" in resp["error"]

    def test_expired_deadline_is_reported_not_wrong(self, served):
        csr = served["csr"]
        X = np.ones((csr.n_cols, 4))
        with ServeClient(served["thread"].address) as client:
            fingerprint = client.upload(csr)["fingerprint"]
            resp = client.spmm(X, fingerprint=fingerprint, deadline_s=1e-9)
            assert resp["status"] == STATUS_DEADLINE_EXCEEDED
            assert "result" not in resp

    @pytest.mark.parametrize("deadline_s", [True, float("nan"), float("inf")])
    def test_non_finite_or_bool_deadline_is_an_error(self, served, deadline_s):
        csr = served["csr"]
        with ServeClient(served["thread"].address) as client:
            fingerprint = client.upload(csr)["fingerprint"]
            resp = client.spmm(
                np.ones((csr.n_cols, 2)), fingerprint=fingerprint,
                deadline_s=deadline_s,
            )
        assert resp["status"] == STATUS_ERROR and "deadline_s" in resp["error"]
        assert "result" not in resp

    def test_bad_deadline_is_refused_before_the_operand_decode(self, served):
        with ServeClient(served["thread"].address) as client:
            fingerprint = client.upload(served["csr"])["fingerprint"]
            resp = client.request(
                {"op": "spmm", "fingerprint": fingerprint,
                 "x": "not an operand", "deadline_s": -1.0}
            )
        assert resp["status"] == STATUS_ERROR
        assert resp["error"].startswith("deadline_s must be")

    def test_health_and_metrics(self, served):
        with ServeClient(served["thread"].address) as client:
            health = client.health()
            assert health["ready"] is True and health["draining"] is False
            assert health["pool"]["capacity"] == 8
            assert "in_flight" in health["admission"]
            assert health["breaker"]["state"] == "closed"
            metrics = client.metrics()
            assert metrics["status"] == STATUS_OK
            assert "serve.requests" in metrics["metrics"]
            assert metrics["metrics"]["serve.requests"] >= 1


class TestWarmSessions:
    """One warm session per matrix, served at the rung its build settled."""

    def _server(self):
        return ServerThread(ServeConfig(port=0, workers=1, panel_height=8, chunk_k=16))

    def test_admission_depth_does_not_degrade_a_warm_matrix(self, rng):
        csr = random_csr(rng, 48, 36, density=0.12)
        X = np.asarray(rng.random((csr.n_cols, 6)), dtype=np.float64)
        with self._server() as thread, ServeClient(thread.address) as client:
            fingerprint = client.upload(csr)["fingerprint"]
            assert client.spmm(X, fingerprint=fingerprint)["rung"] == "full"
            before = client.metrics()["metrics"]
            admission, held = thread.server.admission, 0
            try:
                for _ in range(10):  # a deep queue of other requests
                    assert admission.admit("holder") is None
                    held += 1
                resp = client.spmm(X, fingerprint=fingerprint)
            finally:
                for _ in range(held):
                    admission.release()
            after = client.metrics()["metrics"]
            health = client.health()
        assert resp["status"] == STATUS_OK
        assert resp["rung"] == "full" and resp["degraded"] is False
        np.testing.assert_array_equal(_result(resp), spmm(csr, X))
        assert after["serve.pool_hit"] - before["serve.pool_hit"] == 1
        assert after["serve.pool_miss"] == before["serve.pool_miss"]
        assert [k["key"] for k in health["pool"]["keys"]] == [fingerprint]

    @pytest.mark.parametrize("store", [False, True], ids=["default", "plan-cache-dir"])
    def test_a_served_build_reads_round2_only_for_the_plan_store(
        self, rng, tmp_path, round2_calls, store
    ):
        """No served multiply reads round 2, so a served build leaves it
        pending unless the plan store's write reads it."""
        csr = random_csr(rng, 48, 36, density=0.12)
        X = np.asarray(rng.random((csr.n_cols, 6)), dtype=np.float64)
        config = ServeConfig(
            port=0, workers=1, panel_height=8, chunk_k=16,
            plan_cache_dir=str(tmp_path) if store else None,
        )
        with ServerThread(config) as thread, ServeClient(thread.address) as client:
            resp = client.spmm(X, matrix=csr)
        assert resp["rung"] == "full"
        np.testing.assert_array_equal(_result(resp), spmm(csr, X))
        assert len(round2_calls) == int(store)

    def test_an_impatient_request_does_not_pin_a_degraded_plan(self, rng):
        csr = random_csr(rng, 48, 36, density=0.12)
        X = np.asarray(rng.random((csr.n_cols, 6)), dtype=np.float64)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecution)
            with self._server() as thread, ServeClient(thread.address) as client:
                fingerprint = client.upload(csr)["fingerprint"]
                rushed = client.spmm(X, fingerprint=fingerprint, deadline_s=1e-9)
                plain = client.spmm(X, fingerprint=fingerprint)
        assert rushed["status"] == STATUS_DEADLINE_EXCEEDED
        assert rushed["rung"] != "full"  # its budget-0 build degraded
        assert plain["status"] == STATUS_OK
        assert plain["degraded"] is False and plain["rung"] == "full"
        assert plain["provenance"] == ["full: ok"]
        np.testing.assert_array_equal(_result(plain), spmm(csr, X))


@pytest.fixture()
def delta_served(rng):
    """A dedicated server per test: delta requests mutate the registry."""
    csr = random_csr(rng, 32, 24, density=0.15)
    config = ServeConfig(port=0, workers=2, panel_height=8, chunk_k=16)
    thread = ServerThread(config).start()
    yield {"thread": thread, "csr": csr, "rng": rng}
    thread.stop()


class TestServerDelta:
    def _delta(self, csr, rng, k=5):
        from repro.streaming import DeltaBatch

        return DeltaBatch(
            rows=rng.integers(0, csr.n_rows, size=k),
            cols=rng.integers(0, csr.n_cols, size=k),
            values=rng.normal(size=k),
        )

    def test_delta_rotates_fingerprint_and_serves_mutated(self, delta_served):
        csr, rng = delta_served["csr"], delta_served["rng"]
        delta = self._delta(csr, rng)
        mutated = delta.apply_to(csr)
        X = np.asarray(rng.random((csr.n_cols, 6)), dtype=np.float64)
        with ServeClient(delta_served["thread"].address) as client:
            old = client.upload(csr)["fingerprint"]
            resp = client.delta(old, delta)
            assert resp["status"] == STATUS_OK
            assert resp["previous_fingerprint"] == old
            assert resp["nnz"] == mutated.nnz
            assert resp["sessions_invalidated"] >= 0
            new = resp["fingerprint"]
            assert new != old
            got = client.spmm(X, fingerprint=new)
            assert got["status"] == STATUS_OK
            np.testing.assert_allclose(
                _result(got), mutated.to_dense() @ X,
                rtol=1e-12, atol=1e-12,
            )
            # The pre-delta fingerprint no longer serves stale results.
            assert client.spmm(X, fingerprint=old)["status"] == STATUS_NOT_FOUND

    def test_delta_invalidates_warm_sessions(self, delta_served):
        csr, rng = delta_served["csr"], delta_served["rng"]
        delta = self._delta(csr, rng)
        X = np.asarray(rng.random((csr.n_cols, 4)), dtype=np.float64)
        with ServeClient(delta_served["thread"].address) as client:
            fingerprint = client.upload(csr)["fingerprint"]
            client.spmm(X, fingerprint=fingerprint)  # warms a pooled session
            resp = client.delta(fingerprint, delta)
            assert resp["status"] == STATUS_OK
            assert resp["sessions_invalidated"] >= 1

    def test_set_delta_updates_served_values(self, delta_served):
        from repro.streaming import DeltaBatch

        csr, rng = delta_served["csr"], delta_served["rng"]
        idx = np.sort(rng.choice(csr.nnz, size=3, replace=False))
        delta = DeltaBatch(
            rows=csr.row_ids()[idx], cols=csr.colidx[idx],
            values=rng.normal(size=3), mode="set",
        )
        mutated = delta.apply_to(csr)
        X = np.eye(csr.n_cols)
        with ServeClient(delta_served["thread"].address) as client:
            old = client.upload(csr)["fingerprint"]
            new = client.delta(old, delta)["fingerprint"]
            got = _result(client.spmm(X, fingerprint=new))
            np.testing.assert_allclose(
                got, mutated.to_dense(), rtol=1e-12, atol=1e-12
            )

    def test_delta_unknown_fingerprint_is_not_found(self, delta_served):
        csr, rng = delta_served["csr"], delta_served["rng"]
        with ServeClient(delta_served["thread"].address) as client:
            resp = client.delta("deadbeef", self._delta(csr, rng))
            assert resp["status"] == STATUS_NOT_FOUND

    def test_malformed_delta_is_an_error(self, delta_served):
        csr = delta_served["csr"]
        with ServeClient(delta_served["thread"].address) as client:
            fingerprint = client.upload(csr)["fingerprint"]
            resp = client.request(
                {"op": "delta", "fingerprint": fingerprint,
                 "delta": {"rows": "nope"}}
            )
            assert resp["status"] == STATUS_ERROR
            assert client.ping()["status"] == STATUS_OK  # connection survives


class TestServeBounds:
    """The uploaded-matrix registry and the protocol line have fixed
    bounds, :data:`repro.serve.server.MAX_MATRICES` and ``MAX_LINE_BYTES``."""

    def test_registry_evicts_the_least_recently_used_matrix(self):
        from repro.serve.server import MAX_MATRICES

        # Distinct values, so distinct fingerprints.
        mats = [
            CSRMatrix.from_dense(np.eye(4) * (i + 1))
            for i in range(MAX_MATRICES + 1)
        ]
        X = np.ones((4, 2))
        config = ServeConfig(port=0, workers=1, panel_height=8)
        with ServerThread(config) as thread, ServeClient(thread.address) as client:
            before = client.metrics()["metrics"].get("serve.matrix_evict", 0)
            fps = [client.upload(m)["fingerprint"] for m in mats[:MAX_MATRICES]]
            # Using the first makes the second the least recently used.
            assert client.spmm(X, fingerprint=fps[0])["status"] == STATUS_OK
            fps.append(client.upload(mats[-1])["fingerprint"])
            evicted = client.metrics()["metrics"]["serve.matrix_evict"] - before
            statuses = [
                client.spmm(X, fingerprint=fp)["status"]
                for fp in (fps[0], fps[1], fps[2], fps[-1])
            ]
        assert len(set(fps)) == MAX_MATRICES + 1
        assert evicted == 1
        assert statuses == [STATUS_OK, STATUS_NOT_FOUND, STATUS_OK, STATUS_OK]

    def test_over_long_line_is_an_error_and_other_connections_go_on(
        self, monkeypatch
    ):
        from repro.serve import server

        # The bound is read when the server starts listening.
        monkeypatch.setattr(server, "MAX_LINE_BYTES", 4096)
        config = ServeConfig(port=0, workers=1, panel_height=8)
        with ServerThread(config) as thread, ServeClient(thread.address) as other:
            with ServeClient(thread.address) as client:
                client._sock.sendall(b"x" * 3 * 4096 + b"\n")
                resp = decode_message(client._file.readline())
            assert resp["status"] == STATUS_ERROR
            assert "4096 bytes" in resp["error"]
            assert other.ping()["status"] == STATUS_OK
            with ServeClient(thread.address) as late:
                assert late.ping()["status"] == STATUS_OK


class TestServerDrain:
    def test_drain_rejects_new_work_then_closes(self, rng):
        csr = random_csr(rng, 20, 16, density=0.2)
        config = ServeConfig(port=0, workers=1, panel_height=8)
        thread = ServerThread(config).start()
        try:
            with ServeClient(thread.address) as client:
                fingerprint = client.upload(csr)["fingerprint"]
                assert client.drain()["draining"] is True
            # The server refuses new spmm work while draining/closed:
            # either an explicit `draining` status or a closed socket.
            try:
                with ServeClient(thread.address, timeout=2.0) as late:
                    resp = late.spmm(
                        np.ones((csr.n_cols, 1)), fingerprint=fingerprint
                    )
                    assert resp["status"] == STATUS_DRAINING
            except ReproIOError:
                pass  # listener already closed: equally correct
            thread._thread.join(10.0)
            assert not thread._thread.is_alive()
        finally:
            thread.stop()


class TestDoctorServeProbe:
    def test_probe_running_server(self, served):
        from repro.resilience.doctor import doctor_report, serve_health

        host, port = served["thread"].address
        health = serve_health(f"{host}:{port}")
        assert health["reachable"] and health["ready"]
        text, problems = doctor_report(serve_address=f"{host}:{port}")
        assert not problems
        assert "pool:" in text and "admission:" in text and "breaker" in text

    def test_probe_unreachable_server(self):
        from repro.resilience.doctor import doctor_report, serve_health

        health = serve_health("127.0.0.1:1")  # nothing listens on port 1
        assert health["reachable"] is False
        text, problems = doctor_report(serve_address="127.0.0.1:1")
        assert problems and "UNREACHABLE" in text
