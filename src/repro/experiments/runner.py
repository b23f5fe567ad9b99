"""Corpus experiment runner.

For each corpus matrix the runner builds the two execution plans (ASpT-NR:
both reordering rounds forced off; ASpT-RR: rounds gated by the §4
heuristics), costs all kernel variants at every requested ``K`` and emits
one :class:`~repro.experiments.records.MatrixRecord` per (matrix, K).

Matrices are independent, so the sweep parallelises at matrix grain —
the Python analogue of the paper's OpenMP preprocessing (§5.4).  Pass
``n_jobs > 1`` to fan out over a process pool; results are identical to
the sequential run (asserted in the tests) because each matrix's work is
fully deterministic and self-contained.  One caveat: ``preprocess_s`` is
per-matrix wall-clock inside its worker, so it remains comparable across
``n_jobs`` settings up to scheduler noise.

Sweeps are crash-safe when given a ``checkpoint`` path: every completed
matrix is journalled (:class:`repro.resilience.SweepJournal`) with a
single fsynced append, a mid-sweep ``KeyboardInterrupt`` flushes an
``interrupt`` marker before propagating, and ``resume=True`` replays the
completed records and recomputes only the matrices that were in flight
or never started — the final record set is identical to an uninterrupted
run (entries stay in corpus order either way).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.datasets.corpus import CorpusEntry, build_corpus
from repro.experiments.config import ExperimentConfig
from repro.experiments.records import MatrixRecord
from repro.gpu.executor import GPUExecutor
from repro.observability.tracing import span
from repro.reorder.pipeline import build_plan
from repro.util.log import get_logger
from repro.util.validation import check_positive

__all__ = ["run_experiment", "run_single_matrix"]

_log = get_logger("experiments")


def _plan_store(config: ExperimentConfig):
    """The run's plan cache, or None when caching is not configured."""
    if config.plan_cache_dir is None:
        return None
    from repro.planstore import PlanStore

    return PlanStore(cache_dir=config.plan_cache_dir)


def _run_entry(packed):
    """Process-pool worker: one corpus entry -> its records (picklable)."""
    entry, config = packed
    device, cost = config.effective_model()
    executor = GPUExecutor(device, cost, cache_mode=config.cache_mode)
    # Each worker opens its own store over the shared disk directory; the
    # memory tiers are per-process but the persistent tier is common.
    return run_single_matrix(entry, config, executor, plan_cache=_plan_store(config))


def run_single_matrix(
    entry: CorpusEntry,
    config: ExperimentConfig,
    executor: GPUExecutor,
    plan_cache=None,
) -> list[MatrixRecord]:
    """Evaluate one corpus entry at every ``K``; returns one record per K."""
    csr = entry.matrix
    with span("plan_nr", matrix=entry.name):
        plan_nr = build_plan(
            csr,
            replace(config.reorder, force_round1=False, force_round2=False),
            cache=plan_cache,
            resilience=config.resilience,
        )
    with span("plan_rr", matrix=entry.name):
        plan_rr = build_plan(
            csr, config.reorder, cache=plan_cache, resilience=config.resilience
        )
    if config.verify:
        plan_rr.validate()
        plan_nr.validate()
    degraded_parts = []
    if plan_nr.degraded:
        degraded_parts.append("nr: " + "; ".join(plan_nr.provenance))
    if plan_rr.degraded:
        degraded_parts.append("rr: " + "; ".join(plan_rr.provenance))
    degradation = " | ".join(degraded_parts)

    nr_view = plan_nr.cost_view()
    rr_view = plan_rr.cost_view()
    stats = plan_rr.stats
    # "Needs reordering" follows the paper's 416-matrix subset semantics:
    # a reordering round actually moved rows.  (A gate may open on e.g. a
    # diagonal matrix, but LSH finds nothing and the order stays identity —
    # such matrices belong with the non-reordered population.)
    identity = np.arange(csr.n_rows, dtype=np.int64)
    round1_changed = stats.round1_applied and not np.array_equal(
        plan_rr.row_order, identity
    )
    round2_changed = stats.round2_applied and not np.array_equal(
        plan_rr.remainder_order, identity
    )
    needs = round1_changed or round2_changed

    records = []
    for k in config.ks:
        records.append(
            MatrixRecord(
                name=entry.name,
                category=entry.category,
                expected_benefit=entry.expected_benefit,
                n_rows=csr.n_rows,
                n_cols=csr.n_cols,
                nnz=csr.nnz,
                k=k,
                spmm_cusparse_s=executor.spmm_cost(csr, k, "cusparse").time_s,
                spmm_aspt_nr_s=executor.spmm_cost(nr_view, k, "aspt").time_s,
                spmm_aspt_rr_s=executor.spmm_cost(rr_view, k, "aspt").time_s,
                sddmm_bidmach_s=executor.sddmm_cost(csr, k, "bidmach").time_s,
                sddmm_aspt_nr_s=executor.sddmm_cost(nr_view, k, "aspt").time_s,
                sddmm_aspt_rr_s=executor.sddmm_cost(rr_view, k, "aspt").time_s,
                needs_reordering=needs,
                round1_applied=stats.round1_applied,
                round2_applied=stats.round2_applied,
                round1_changed=round1_changed,
                round2_changed=round2_changed,
                delta_dense_ratio=stats.delta_dense_ratio,
                delta_avg_sim=stats.delta_avg_sim,
                dense_ratio_before=stats.dense_ratio_before,
                dense_ratio_after=stats.dense_ratio_after,
                preprocess_s=plan_rr.preprocessing_time,
                degradation=degradation,
                stage_seconds=dict(plan_rr.preprocess_seconds),
            )
        )
    return records


def run_experiment(
    config: ExperimentConfig | None = None,
    entries: list[CorpusEntry] | None = None,
    *,
    progress: bool = False,
    n_jobs: int = 1,
    checkpoint=None,
    resume: bool = False,
    trace=None,
) -> list[MatrixRecord]:
    """Run the full corpus experiment.

    Parameters
    ----------
    config:
        Experiment configuration (defaults mirror the paper's setup on the
        small corpus scale).
    entries:
        Optional pre-built corpus (e.g. real ``.mtx`` matrices); when
        omitted, :func:`repro.datasets.build_corpus` builds one from
        ``config``.
    progress:
        Log one line per matrix (sequential mode only).
    n_jobs:
        Worker processes (1 = in-process sequential).  Records come back
        in corpus order regardless.
    checkpoint:
        Optional journal path.  When set, every completed matrix is
        durably recorded so the sweep survives crashes and interrupts
        (see the module docstring).
    resume:
        With ``checkpoint``, replay completed matrices from the journal
        and compute only the rest.  The journal's config digest must
        match ``config`` (:class:`repro.errors.ConfigError` otherwise).
        Without an existing journal this is an ordinary fresh run.
    trace:
        Optional :class:`repro.observability.Tracer` installed for the
        duration of the sweep, collecting per-matrix and per-stage spans
        (per-stage timings additionally land in every record's
        ``stage_seconds``, traced or not).  Worker processes of a
        parallel run (``n_jobs > 1``) do not propagate the tracer — use
        sequential mode for a complete span tree.

    Returns
    -------
    list[MatrixRecord]
        ``len(entries) * len(config.ks)`` records, in corpus order.
    """
    config = config or ExperimentConfig()
    if entries is None:
        entries = build_corpus(config.scale, seed=config.seed, repeats=config.repeats)
    n_jobs = check_positive("n_jobs", n_jobs)

    journal = None
    done: dict = {}
    if checkpoint is not None:
        from repro.resilience.checkpoint import SweepJournal

        if resume:
            journal, done = SweepJournal.resume_sweep(
                checkpoint, config, len(entries)
            )
            if done:
                _log.info(
                    "resuming: %d/%d matrices already journalled",
                    len(done),
                    len(entries),
                )
        else:
            journal = SweepJournal.start_sweep(checkpoint, config, len(entries))
    keys = [f"{i}:{entry.name}" for i, entry in enumerate(entries)]

    if trace is not None:
        trace.install()
    try:
        if n_jobs > 1:
            records = _run_parallel(config, entries, keys, done, journal, n_jobs)
        else:
            records = _run_sequential(config, entries, keys, done, journal, progress)
        if journal is not None:
            journal.mark_complete()
        return records
    except KeyboardInterrupt:
        # Flush the interrupt marker so `repro doctor` can tell a clean
        # Ctrl-C from a crash; the journal already holds every completed
        # matrix (one fsynced append each), so --resume loses nothing.
        if journal is not None:
            journal.mark_interrupted()
        raise
    finally:
        if journal is not None:
            journal.close()
        if trace is not None:
            trace.uninstall()


def _run_sequential(config, entries, keys, done, journal, progress):
    device, cost = config.effective_model()
    executor = GPUExecutor(device, cost, cache_mode=config.cache_mode)
    plan_cache = _plan_store(config)
    records: list[MatrixRecord] = []
    for i, entry in enumerate(entries):
        key = keys[i]
        if key in done:
            records.extend(MatrixRecord.from_dict(d) for d in done[key])
            continue
        if progress:
            _log.info(
                "[%d/%d] %s (%dx%d, nnz=%d)",
                i + 1,
                len(entries),
                entry.name,
                entry.matrix.n_rows,
                entry.matrix.n_cols,
                entry.matrix.nnz,
            )
        if journal is not None:
            journal.mark_started(key)
        with span("matrix", matrix=entry.name, nnz=entry.matrix.nnz):
            chunk = run_single_matrix(entry, config, executor, plan_cache=plan_cache)
        if journal is not None:
            journal.mark_done(key, [r.as_dict() for r in chunk])
        records.extend(chunk)
    return records


def _run_parallel(config, entries, keys, done, journal, n_jobs):
    from concurrent.futures import ProcessPoolExecutor

    pending = [(i, entry) for i, entry in enumerate(entries) if keys[i] not in done]
    chunks: dict[int, list[MatrixRecord]] = {
        i: [MatrixRecord.from_dict(d) for d in done[keys[i]]]
        for i in range(len(entries))
        if keys[i] in done
    }
    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        if journal is not None:
            for i, _ in pending:  # the whole batch goes in flight at once
                journal.mark_started(keys[i])
        for (i, _), chunk in zip(
            pending, pool.map(_run_entry, ((entry, config) for _, entry in pending))
        ):
            if journal is not None:
                journal.mark_done(keys[i], [r.as_dict() for r in chunk])
            chunks[i] = chunk
    records: list[MatrixRecord] = []
    for i in range(len(entries)):
        records.extend(chunks[i])
    return records
