"""The in-process workloads: cold-plan, warm-kernel and stream-update.

Each body takes the run's :class:`~inputs.Inputs`, a :class:`~harness.Clock`
(which times ops and set-ups and decides which ops the tracer records), the
op count and the number of set-up repetitions, and returns an
:class:`~harness.Outcome`.  Per-layer extras (separate MinHash passes,
remainder-only multiplies, CSR baselines, counterfactual rebuilds) run
only after traced ops and outside the op's timing.
"""

from __future__ import annotations

import time

import numpy as np

from harness import Outcome, counter_value, median
from inputs import CLASSES, EXPECTED_ROUND1

#: Column block for reference multiplies: the one-shot kernels are column
#: independent, and blocking keeps their O(nnz * K) scratch from setting
#: the process's peak RSS.
_REF_BLOCK = 64


def _reference(fn, X: np.ndarray) -> np.ndarray:
    """``fn(X)`` computed one column block at a time."""
    return np.hstack([fn(np.ascontiguousarray(X[:, c:c + _REF_BLOCK]))
                      for c in range(0, X.shape[1], _REF_BLOCK)])


def _check(y, plan, X, cls, original=None) -> list[str]:
    """Session result bitwise equal to ``plan.spmm``, close to ``spmm``, and
    the plan's round-1 decision the one class ``cls`` is built to produce."""
    from repro.kernels import spmm

    problems = []
    if plan.stats.round1_applied != EXPECTED_ROUND1[cls]:
        problems.append(f"round 1 applied={plan.stats.round1_applied}, the class expects "
                        f"{EXPECTED_ROUND1[cls]}")
    if not np.array_equal(y, _reference(plan.spmm, X)):
        problems.append("session result differs from plan.spmm")
    if original is not None and not np.allclose(
        y, _reference(lambda b: spmm(original, b), X), rtol=1e-10, atol=1e-9
    ):
        problems.append("plan result not close to spmm(original)")
    return problems


def cold_plan(inputs, clock, n_ops: int, setup_reps: int) -> Outcome:
    """Each op: a never-seen bundle of one matrix per class, each taken
    through ``build_plan`` (no cache), ``plan.session()`` and a first K=64
    ``run``."""
    from repro.observability import span
    from repro.reorder import ReorderConfig, build_plan
    from repro.similarity import minhash_signatures

    out = Outcome()
    config = ReorderConfig()
    X = inputs.operand(inputs.n_cols, 64, "cold-plan")

    def bundle(*tag):
        return {cls: inputs.matrix(cls, "cold-plan", *tag) for cls in CLASSES}

    def arrive(mats, times):
        done = {}
        for cls, m in mats.items():
            t0 = time.perf_counter()
            with span("reorder.build_plan", cls=cls):
                plan = build_plan(m)
            t1 = time.perf_counter()
            with span("kernels.session_init", cls=cls):
                session = plan.session()
            t2 = time.perf_counter()
            with span("kernels.first_run", cls=cls):
                y = session.run(X)
            times[cls] = (t1 - t0, t2 - t1, time.perf_counter() - t2)
            done[cls] = (plan, y)
        return done

    for r in range(setup_reps):
        mats = bundle("warm-up", r)
        with clock.setting_up():
            arrive(mats, {})

    before = {cls: [] for cls in CLASSES}

    def op(i):
        mats = bundle("op", i)
        times = {}
        scored = counter_value("clustering.pairs_scored")
        with clock.op(i, workload="cold-plan") as traced:
            done = arrive(mats, times)
        scored = counter_value("clustering.pairs_scored") - scored
        problems = []
        for cls, (plan, y) in done.items():
            problems += [f"{cls}: {p}" for p in _check(y, plan, X, cls, mats[cls])]
            out.sample(f"reorder.round1_applied.{cls}", plan.stats.round1_applied)
            out.sample(f"reorder.dense_ratio.{cls}", plan.tiled.dense_ratio)
            before[cls].append(plan.stats.dense_ratio_before)
        if traced:
            seconds = [plan.preprocess_seconds for plan, _ in done.values()]
            minhash = 0.0
            with clock.recording(True):
                for m in mats.values():
                    t0 = time.perf_counter()
                    with span("similarity.minhash"):
                        minhash_signatures(m, config.siglen, seed=config.lsh_seed)
                    minhash += time.perf_counter() - t0
            out.sample("similarity.minhash_s", minhash)
            out.sample("similarity.lsh_s", sum(s.get("lsh1", 0.0) for s in seconds))
            out.sample("similarity.candidate_pairs", sum(
                plan.stats.n_candidates_round1 for plan, _ in done.values()))
            out.sample("clustering.cluster_s", sum(s.get("cluster1", 0.0) for s in seconds))
            out.sample("clustering.pairs_scored", scored)
            out.sample("aspt.tile_s", sum(s["tile"] for s in seconds))
            out.sample("reorder.round2_s", sum(
                s.get("sim2", 0.0) + s.get("lsh2", 0.0) + s.get("cluster2", 0.0)
                for s in seconds))
            out.sample("reorder.build_plan_s", sum(t[0] for t in times.values()))
            for cls, t in times.items():
                out.sample(f"reorder.build_plan_s.{cls}", t[0])
            out.sample("kernels.session_init_s", sum(t[1] for t in times.values()))
            out.sample("kernels.first_run_s", sum(t[2] for t in times.values()))
        return "; ".join(problems)

    out.run_ops(n_ops, op)
    roles = {}
    for cls in CLASSES:
        applied = out.samples.get(f"reorder.round1_applied.{cls}", [])
        share = sum(applied) / len(applied) if applied else 0.0
        out.layers[f"reorder.round1_applied.{cls}"] = share
        roles[cls] = {
            "round1_expected": EXPECTED_ROUND1[cls],
            "round1_applied_share": share,
            "dense_ratio_before": median(before[cls]),
            "dense_ratio_after": median(out.samples.get(f"reorder.dense_ratio.{cls}", [])),
        }
    out.report["roles"] = roles
    return out


def warm_kernel(inputs, clock, n_ops: int, setup_reps: int) -> Outcome:
    """Set-up builds a plan and session per class; each op is one K=512
    ``KernelSession.run`` per plan."""
    from repro.kernels import CsrState, KernelSession
    from repro.observability import span
    from repro.reorder import build_plan
    from repro.util.workspace import WorkspacePool

    out = Outcome()
    mats = {cls: inputs.matrix(cls, "warm-kernel") for cls in CLASSES}
    X = inputs.operand(inputs.n_cols, 512, "warm-kernel")
    K = X.shape[1]

    plans = sessions = None
    for _ in range(setup_reps):
        plans = sessions = None  # free the previous repetition's pools first
        with clock.setting_up():
            plans = {cls: build_plan(m) for cls, m in mats.items()}
            sessions = {cls: plans[cls].session() for cls in CLASSES}
            for session in sessions.values():
                session.run(X)

    refs = {}
    for cls in CLASSES:
        y = sessions[cls].run(X).copy()
        problems = _check(y, plans[cls], X, cls, mats[cls])
        if problems:
            out.attempted += 1
            out.failures.append(f"reference {cls}: {'; '.join(problems)}")
        refs[cls] = y

    # Baselines for the traced ops: the unreordered CSR session and the
    # plan's remainder alone, sharing one pool so they add little memory.
    extras = {}
    if clock.tracer is not None:
        pool = WorkspacePool()
        for cls in CLASSES:
            csr_session = KernelSession(mats[cls], pool=pool)
            csr_session.run(X)
            state = CsrState(plans[cls].remainder)
            extras[cls] = (csr_session, state, np.empty((mats[cls].n_rows, K)))

    flops = sum(2 * m.nnz * K for m in mats.values())
    moved = sum(
        16 * m.nnz + 8 * (m.n_rows + 1) + 8 * K * (m.n_cols + m.n_rows)
        for m in mats.values()
    )
    misses = 0

    def op(i):
        nonlocal misses
        times, ys = {}, {}
        miss = counter_value("workspace.miss")
        with clock.op(i, workload="warm-kernel") as traced:
            for cls, session in sessions.items():
                t0 = time.perf_counter()
                with span("kernels.run", cls=cls):
                    ys[cls] = session.run(X)
                times[cls] = time.perf_counter() - t0
        misses += counter_value("workspace.miss") - miss
        bad = [cls for cls in CLASSES if not np.array_equal(ys[cls], refs[cls])]
        if traced:
            out.sample("kernels.run_s", sum(times.values()))
            with clock.recording(True):
                for cls, (csr_session, state, buf) in extras.items():
                    t0 = time.perf_counter()
                    with span("kernels.remainder", cls=cls), pool.lease() as ws:
                        state.multiply(X, buf, ws, sessions[cls].chunk_k)
                    remainder = time.perf_counter() - t0
                    t0 = time.perf_counter()
                    with span("kernels.csr_run", cls=cls):
                        csr_session.run(X)
                    csr = time.perf_counter() - t0
                    out.sample(f"kernels.run_s.{cls}", times[cls])
                    out.sample(f"kernels.remainder_s.{cls}", remainder)
                    out.sample(f"kernels.dense_tile_s.{cls}", times[cls] - remainder)
                    out.sample(f"kernels.csr_run_s.{cls}", csr)
                    out.sample(f"kernels.plan_vs_csr.{cls}", times[cls] / csr)
        return f"result differs from plan.spmm for {bad}" if bad else None

    out.run_ops(n_ops, op)
    out.layers.update({
        "kernels.flops": float(flops),
        "kernels.bytes_computed": float(moved),
        "workspace.miss": float(misses),
    })
    out.report["kernels"] = {
        "k": K,
        "bytes_note": "computed from array sizes: values, colidx, rowptr, X and Y once each",
    }
    return out


STREAM_CLASSES = ("clustered", "dense")


def stream_update(inputs, clock, n_ops: int, setup_reps: int) -> Outcome:
    """Set-up builds a ``StreamingPlan`` and session for the clustered and
    dense classes; each op applies one ``set`` and one ``add`` delta to
    each, refreshes its session and runs it at K=64."""
    from repro.observability import span
    from repro.reorder import build_plan
    from repro.streaming import StreamingPlan

    out = Outcome()
    mats = {cls: inputs.matrix(cls, "stream-update") for cls in STREAM_CLASSES}
    X = inputs.operand(inputs.n_cols, 64, "stream-update")
    streams = {cls: inputs.deltas(m, n_ops, cls) for cls, m in mats.items()}

    plans = sessions = None
    for _ in range(setup_reps):
        plans = sessions = None
        with clock.setting_up():
            plans = {cls: StreamingPlan(m) for cls, m in mats.items()}
            sessions = {cls: sp.plan.session() for cls, sp in plans.items()}

    counters = ("streaming.rows_resigned", "streaming.pairs_rescored",
                "streaming.panels_retiled")
    modes = []

    def op(i):
        times, ys, reports = {}, {}, []
        start = {name: counter_value(name) for name in counters}
        with clock.op(i, workload="stream-update") as traced:
            for cls, sp in plans.items():
                session = sessions[cls]
                t0 = time.perf_counter()
                for delta in streams[cls][i]:
                    with span("streaming.apply", cls=cls, mode=delta.mode):
                        reports.append(sp.apply(delta))
                t1 = time.perf_counter()
                with span("streaming.refresh", cls=cls):
                    session.refresh(sp.plan)
                t2 = time.perf_counter()
                with span("kernels.run", cls=cls):
                    ys[cls] = session.run(X)
                times[cls] = (t1 - t0, t2 - t1)
        modes.extend(r.mode for r in reports)
        problems = [f"{cls}: {p}" for cls, sp in plans.items()
                    for p in _check(ys[cls], sp.plan, X, cls)]
        if traced:
            for name in counters:
                out.sample(name, counter_value(name) - start[name])
            out.sample("streaming.apply_delta_s", sum(t[0] for t in times.values()))
            out.sample("streaming.refresh_s", sum(t[1] for t in times.values()))
            for stage in ("lsh", "cluster", "tile", "round2"):
                out.sample(f"streaming.{stage}_s",
                           sum(r.seconds.get(stage, 0.0) for r in reports))
        # The counterfactual rebuild costs as much as a whole op; the first
        # traced op and every fourth after it are enough for its median.
        if traced and (i // clock.every) % 4 == 0:
            rebuild = 0.0
            with clock.recording(True):
                for cls, sp in plans.items():
                    t0 = time.perf_counter()
                    with span("streaming.rebuild", cls=cls):
                        build_plan(sp.matrix)
                    rebuild += time.perf_counter() - t0
            out.sample("streaming.rebuild_s", rebuild)
            # Each delta would otherwise cost one rebuild of its plan.
            apply = sum(t[0] for t in times.values())
            out.sample("streaming.patch_vs_rebuild", rebuild * len(reports) / len(plans) / apply)
        return "; ".join(problems)

    out.run_ops(n_ops, op)
    # The streamed plans must end where a from-scratch build of the final
    # matrices lands, bit for bit.
    out.attempted += 1
    try:
        for cls, sp in plans.items():
            if not np.array_equal(sessions[cls].run(X), build_plan(sp.matrix).session().run(X)):
                out.failures.append(f"final {cls}: streamed plan differs from a fresh build")
    except Exception as exc:  # counted like any failed op
        out.failures.append(f"final check: {type(exc).__name__}: {exc}")
    patched = sum(mode == "patched" for mode in modes)
    out.layers["streaming.patched_share"] = patched / len(modes) if modes else 0.0
    out.report["streaming"] = {"updates": len(modes), "patched": patched,
                               "final_nnz": {cls: sp.matrix.nnz for cls, sp in plans.items()}}
    return out
