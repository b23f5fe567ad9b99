"""Unit tests for the sweep journal, resume protocol, and `repro doctor`."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.experiments import ExperimentConfig
from repro.planstore import DiskPlanStore, PlanDecisions
from repro.reorder import ReorderConfig, build_plan
from repro.resilience import SweepJournal, doctor_report, journal_status
from repro.resilience.checkpoint import sweep_config_digest
from repro.resilience.doctor import format_doctor_report, store_health


@pytest.fixture
def config():
    return ExperimentConfig(scale="tiny", repeats=1, ks=(64,))


class TestJournalRoundtrip:
    def test_start_write_read(self, tmp_path, config):
        path = tmp_path / "sweep.journal"
        with SweepJournal.start_sweep(path, config, 3) as journal:
            journal.mark_started("0:a")
            journal.mark_done("0:a", [{"name": "a", "k": 64}])
            journal.mark_started("1:b")
        status = journal_status(path)
        assert status["valid"]
        assert status["total"] == 3
        assert status["completed"] == ["0:a"]
        assert status["in_flight"] == ["1:b"]
        assert not status["complete"] and not status["interrupted"]

    def test_complete_and_interrupt_markers(self, tmp_path, config):
        path = tmp_path / "sweep.journal"
        with SweepJournal.start_sweep(path, config, 1) as journal:
            journal.mark_interrupted()
            journal.mark_complete()
        status = journal_status(path)
        assert status["interrupted"] and status["complete"]

    def test_resume_returns_done_records(self, tmp_path, config):
        path = tmp_path / "sweep.journal"
        with SweepJournal.start_sweep(path, config, 2) as journal:
            journal.mark_done("0:a", [{"name": "a"}])
        journal, done = SweepJournal.resume_sweep(path, config, 2)
        with journal:
            assert done == {"0:a": [{"name": "a"}]}
            journal.mark_done("1:b", [{"name": "b"}])
        status = journal_status(path)
        assert status["completed"] == ["0:a", "1:b"]

    def test_resume_missing_file_starts_fresh(self, tmp_path, config):
        journal, done = SweepJournal.resume_sweep(
            tmp_path / "nope.journal", config, 2
        )
        with journal:
            assert done == {}
        assert journal_status(tmp_path / "nope.journal")["valid"]


class TestJournalSafety:
    def test_torn_final_line_is_dropped(self, tmp_path, config):
        path = tmp_path / "sweep.journal"
        with SweepJournal.start_sweep(path, config, 2) as journal:
            journal.mark_done("0:a", [{"name": "a"}])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"event": "done", "key": "1:b", "rec')  # crash mid-append
        status = journal_status(path)
        assert status["valid"]
        assert status["completed"] == ["0:a"]
        # Resume still works and ignores the torn line.
        journal, done = SweepJournal.resume_sweep(path, config, 2)
        journal.close()
        assert set(done) == {"0:a"}

    def test_mid_file_garbage_is_invalid_not_silently_dropped(
        self, tmp_path, config
    ):
        path = tmp_path / "sweep.journal"
        with SweepJournal.start_sweep(path, config, 2) as journal:
            journal.mark_done("0:a", [])
        text = path.read_text()
        path.write_text(text + "not json\n" + '{"event": "complete"}\n')
        status = journal_status(path)
        assert not status["valid"]
        with pytest.raises(ConfigError):
            SweepJournal.resume_sweep(path, config, 2)

    def test_config_digest_mismatch_blocks_resume(self, tmp_path, config):
        path = tmp_path / "sweep.journal"
        SweepJournal.start_sweep(path, config, 2).close()
        other = ExperimentConfig(scale="tiny", repeats=1, ks=(128,))
        with pytest.raises(ConfigError, match="different"):
            SweepJournal.resume_sweep(path, other, 2)
        # Corpus-size changes block too.
        with pytest.raises(ConfigError):
            SweepJournal.resume_sweep(path, config, 3)

    def test_digest_sensitive_to_every_field(self, config):
        base = sweep_config_digest(config, 4)
        assert base == sweep_config_digest(config, 4)
        assert base != sweep_config_digest(config, 5)
        other = ExperimentConfig(scale="tiny", repeats=1, ks=(64,), verify=True)
        assert base != sweep_config_digest(other, 4)

    def test_missing_journal_status(self, tmp_path):
        status = journal_status(tmp_path / "absent.journal")
        assert status == {"exists": False, "valid": False}


class TestDoctor:
    CFG = ReorderConfig(siglen=32, panel_height=8)

    def _store_with_quarantine(self, tmp_path):
        from repro.datasets import hidden_clusters

        matrix = hidden_clusters(16, 8, 256, 8, noise=0.1, seed=7)
        decisions = PlanDecisions.from_plan(build_plan(matrix, self.CFG))
        store = DiskPlanStore(tmp_path)
        store.put("a" * 32, decisions)
        store.put("b" * 32, decisions)
        # Quarantine one entry by hand: a healthy file moved aside.
        live = store.path_for("a" * 32)
        live.rename(live.with_name(live.name + ".corrupt"))
        return store

    def test_store_health_counts(self, tmp_path):
        self._store_with_quarantine(tmp_path)
        health = store_health(tmp_path)
        assert health["exists"]
        assert health["entries"] == 1
        assert len(health["quarantined"]) == 1

    def test_store_health_missing_dir(self, tmp_path):
        health = store_health(tmp_path / "absent")
        assert not health["exists"]
        assert health["quarantined"] == []

    def test_doctor_report_flags_quarantine_then_heals(self, tmp_path):
        store = self._store_with_quarantine(tmp_path)
        text, problems = doctor_report(cache_dir=tmp_path)
        assert problems
        assert "1 quarantined" in text
        assert f"quarantined: {'a' * 32}.plan.npz.corrupt" in text
        # The doctor changes nothing; the key's next put heals it.
        assert len(store.quarantined()) == 1
        store.put("a" * 32, store.get("b" * 32))
        text, problems = doctor_report(cache_dir=tmp_path)
        assert not problems
        assert "2 entries, 0 quarantined" in text

    def test_doctor_report_invalid_journal_is_a_problem(self, tmp_path):
        path = tmp_path / "sweep.journal"
        path.write_text("not a journal\nat all\n")
        text, problems = doctor_report(checkpoint=path)
        assert problems
        assert "INVALID" in text

    def test_doctor_report_nothing_requested(self):
        text, problems = doctor_report()
        assert not problems
        assert "nothing to check" in text

    def test_format_report_mentions_progress(self, tmp_path):
        config = ExperimentConfig(scale="tiny", repeats=1, ks=(64,))
        path = tmp_path / "sweep.journal"
        with SweepJournal.start_sweep(path, config, 2) as journal:
            journal.mark_started("0:a")
            journal.mark_done("0:a", [])
            journal.mark_started("1:b")
            journal.mark_interrupted()
        text = format_doctor_report(
            journal=journal_status(path), journal_path=str(path)
        )
        assert "1/2 matrices completed" in text
        assert "1:b" in text
        assert "interrupted" in text


class TestHealEndToEnd:
    CFG = ReorderConfig(siglen=32, panel_height=8)

    def test_corrupt_quarantine_is_unrecoverable_but_dropped_after_rebuild(
        self, tmp_path
    ):
        from repro.datasets import hidden_clusters

        matrix = hidden_clusters(16, 8, 256, 8, noise=0.1, seed=7)
        decisions = PlanDecisions.from_plan(build_plan(matrix, self.CFG))
        store = DiskPlanStore(tmp_path)
        key = "c" * 32
        store.put(key, decisions)
        path = store.path_for(key)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))

        assert store.get(key) is None  # quarantines the damaged file
        assert not path.exists()
        assert len(store.quarantined()) == 1
        assert store.get(key) is None  # stays a miss until a rebuild

        # A rebuild (put) self-heals: the stale quarantine is dropped.
        store.put(key, decisions)
        got = store.get(key)
        np.testing.assert_array_equal(got.row_order, decisions.row_order)
        assert not store.quarantined()
