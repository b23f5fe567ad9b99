"""Unit tests for the resilience primitives.

Covers the deterministic fault injector, cooperative deadlines, bounded
IO retry, the degradation ladder's rung derivation, the resilience
policy, and the error-type/exit-code additions they rely on.
"""

import warnings

import pytest

from repro.errors import (
    EXIT_DATA,
    EXIT_INTERRUPTED,
    EXIT_IO,
    EXIT_TIMEOUT,
    BackendUnavailable,
    ConfigError,
    CorruptStoreError,
    DegradedExecution,
    ReproIOError,
    TimeoutExceeded,
    exit_code_for,
)
from repro.reorder import ReorderConfig
from repro.resilience import (
    FAULT_SITES,
    Deadline,
    FaultInjector,
    ResiliencePolicy,
    active_injector,
    fault_point,
    ladder_rungs,
    retry_io,
)
from repro.resilience.retry import ATTEMPTS, BACKOFF_S


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


class TestDeadline:
    def test_not_expired_within_budget(self):
        clock = FakeClock()
        d = Deadline.after(10.0, clock=clock)
        clock.t = 9.9
        assert not d.expired()
        d.check("stage")  # no raise
        assert d.remaining() == pytest.approx(0.1)

    def test_expired_raises_with_stage_and_budget(self):
        clock = FakeClock()
        d = Deadline.after(5.0, clock=clock)
        clock.t = 5.0
        assert d.expired()
        with pytest.raises(TimeoutExceeded) as exc_info:
            d.check("cluster1")
        assert exc_info.value.stage == "cluster1"
        assert exc_info.value.budget_s == 5.0
        assert "cluster1" in str(exc_info.value)

    def test_zero_budget_expires_immediately(self):
        d = Deadline.after(0.0, clock=FakeClock())
        with pytest.raises(TimeoutExceeded):
            d.check()

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline.after(-1.0)


class TestFaultInjector:
    def test_rate_zero_never_fires(self):
        inj = FaultInjector(rate=0.0, seed=1)
        for _ in range(200):
            inj.check("io.read")
        assert inj.fired["io.read"] == 0
        assert inj.checked["io.read"] == 200

    def test_rate_one_always_fires(self):
        inj = FaultInjector(rate=1.0, seed=1)
        with pytest.raises(ReproIOError):
            inj.check("io.read")
        assert inj.fired["io.read"] == 1

    def test_same_seed_same_pattern(self):
        def pattern(seed):
            inj = FaultInjector(rate=0.3, seed=seed)
            fired = []
            for n in range(100):
                try:
                    inj.check("planstore.read")
                except CorruptStoreError:
                    fired.append(n)
            return fired

        assert pattern(42) == pattern(42)
        assert pattern(42) != pattern(43)

    def test_empirical_rate_near_nominal(self):
        inj = FaultInjector(rate=0.2, seed=7)
        fired = 0
        for _ in range(2000):
            try:
                inj.check("io.read")
            except ReproIOError:
                fired += 1
        assert 0.15 < fired / 2000 < 0.25

    def test_sites_filter_restricts_firing(self):
        inj = FaultInjector(rate=1.0, seed=1, sites=["io.read"])
        inj.check("planstore.read")  # filtered out: no raise
        with pytest.raises(ReproIOError):
            inj.check("io.read")

    def test_per_site_rate_overrides(self):
        inj = FaultInjector(rate=1.0, seed=1, rates={"io.read": 0.0})
        inj.check("io.read")  # overridden to 0
        with pytest.raises(CorruptStoreError):
            inj.check("planstore.read")

    def test_max_faults_caps_total(self):
        inj = FaultInjector(rate=1.0, seed=1, max_faults=2)
        raised = 0
        for _ in range(10):
            try:
                inj.check("io.read")
            except ReproIOError:
                raised += 1
        assert raised == 2

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(sites=["not.a.site"])
        with pytest.raises(ValueError):
            FaultInjector(rates={"not.a.site": 0.5})

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(rate=1.5)

    def test_every_site_raises_its_characteristic_type(self):
        expected = {
            "io.read": ReproIOError,
            "planstore.read": CorruptStoreError,
            "planstore.write": ReproIOError,
            "clustering.minhash": TimeoutExceeded,
            "clustering.cluster": TimeoutExceeded,
            "workspace.take": MemoryError,
            "backend.compile": BackendUnavailable,
            "streaming.update": TimeoutExceeded,
            "serve.accept": ConnectionResetError,
        }
        assert set(expected) == set(FAULT_SITES)
        for site, exc_type in expected.items():
            inj = FaultInjector(rate=1.0, seed=1)
            with pytest.raises(exc_type):
                inj.check(site)

    def test_install_uninstall_and_conflict(self):
        assert active_injector() is None
        fault_point("io.read")  # disabled path: no-op
        with FaultInjector(rate=0.0, seed=1) as inj:
            assert active_injector() is inj
            fault_point("io.read")
            assert inj.checked["io.read"] == 1
            with pytest.raises(RuntimeError):
                FaultInjector(rate=0.0, seed=2).install()
        assert active_injector() is None

    def test_summary_reports_checked_and_fired(self):
        inj = FaultInjector(rate=1.0, seed=1, sites=["io.read"])
        inj.check("planstore.read")
        with pytest.raises(ReproIOError):
            inj.check("io.read")
        assert inj.summary() == {
            "io.read": (1, 1),
            "planstore.read": (1, 0),
        }


class TestRetryIO:
    def test_transient_error_retried_then_succeeds(self):
        sleeps = []
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < ATTEMPTS:
                raise OSError("transient")
            return "ok"

        assert retry_io(flaky, sleep=sleeps.append) == "ok"
        assert calls["n"] == ATTEMPTS
        assert len(sleeps) == ATTEMPTS - 1

    def test_full_jitter_stays_within_exponential_ceiling(self):
        sleeps = []
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < ATTEMPTS:
                raise OSError("transient")
            return "ok"

        assert retry_io(flaky, sleep=sleeps.append, label="jit") == "ok"
        assert len(sleeps) == ATTEMPTS - 1
        for attempt, slept in enumerate(sleeps):
            assert 0.0 <= slept <= BACKOFF_S * 2**attempt

    def test_jitter_is_deterministic_not_random(self):
        from repro.resilience.retry import _jitter_fraction

        a = _jitter_fraction("planstore/x.bin", 1, 7)
        b = _jitter_fraction("planstore/x.bin", 1, 7)
        assert a == b
        assert 0.0 <= a < 1.0
        assert _jitter_fraction("planstore/x.bin", 2, 7) != a

    def test_sleep_histogram_observes_real_delays(self):
        from repro.observability.metrics import METRICS

        hist = METRICS.histogram(
            "retry.sleep_s", "seconds slept between IO retry attempts"
        )
        before = hist.count
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 2:
                raise OSError("transient")
            return "ok"

        retry_io(flaky, sleep=lambda _: None)
        assert hist.count == before + 1

    def test_exhausted_attempts_reraise_last(self):
        calls = {"n": 0}

        def always():
            calls["n"] += 1
            raise OSError(f"still broken {calls['n']}")

        with pytest.raises(OSError, match=f"still broken {ATTEMPTS}"):
            retry_io(always, sleep=lambda _: None)

    def test_non_transient_errors_fail_immediately(self):
        calls = {"n": 0}

        def missing():
            calls["n"] += 1
            raise FileNotFoundError("gone")

        with pytest.raises(FileNotFoundError):
            retry_io(missing, sleep=lambda _: None)
        assert calls["n"] == 1

    def test_unlisted_exception_propagates(self):
        calls = {"n": 0}

        def boom():
            calls["n"] += 1
            raise ValueError("not io")

        with pytest.raises(ValueError):
            retry_io(boom, sleep=lambda _: None)
        assert calls["n"] == 1


class TestLadderRungs:
    def test_full_ladder_for_default_config(self):
        config = ReorderConfig(panel_height=8)
        rungs = ladder_rungs(config)
        assert [label for label, _ in rungs] == ["full", "identity"]
        assert rungs[0][1] is config
        floor = rungs[1][1]
        assert floor == ReorderConfig(
            panel_height=8, force_round1=False, force_round2=False
        )

    def test_redundant_rungs_dropped(self):
        config = ReorderConfig(
            panel_height=8, force_round1=False, force_round2=False
        )
        rungs = ladder_rungs(config)
        assert [label for label, _ in rungs] == ["full"]

    def test_one_round_forced_off_keeps_identity(self):
        for forced in ({"force_round1": False}, {"force_round2": False}):
            config = ReorderConfig(panel_height=8, **forced)
            rungs = ladder_rungs(config)
            assert [label for label, _ in rungs] == ["full", "identity"]


class TestResiliencePolicy:
    def test_defaults(self):
        policy = ResiliencePolicy()
        assert policy.deadline_s is None
        assert policy.new_deadline() is None

    def test_new_deadline_fresh_per_call(self):
        policy = ResiliencePolicy(deadline_s=100.0)
        a, b = policy.new_deadline(), policy.new_deadline()
        assert a is not b
        assert a.budget_s == 100.0

    def test_validation(self):
        """A NaN deadline never expires and a negative one cannot start:
        only ``None`` or a finite number ``>= 0`` is a deadline."""
        for bad in (-1.0, -1, float("nan"), float("inf"), float("-inf"),
                    True, False, "1"):
            with pytest.raises(ConfigError, match="deadline_s"):
                ResiliencePolicy(deadline_s=bad)
        for good in (None, 0, 0.0, 2, 0.25):
            assert ResiliencePolicy(deadline_s=good).deadline_s == good


class TestErrorTaxonomy:
    def test_exit_codes_for_new_types(self):
        assert exit_code_for(TimeoutExceeded("t")) == EXIT_TIMEOUT
        assert exit_code_for(KeyboardInterrupt()) == EXIT_INTERRUPTED
        assert exit_code_for(ReproIOError("io")) == EXIT_IO
        assert exit_code_for(CorruptStoreError("c")) == EXIT_DATA

    def test_repro_io_error_is_os_error(self):
        assert issubclass(ReproIOError, OSError)

    def test_degraded_execution_is_warning(self):
        assert issubclass(DegradedExecution, UserWarning)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warnings.warn("degraded", DegradedExecution)
        assert len(caught) == 1
