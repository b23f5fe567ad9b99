"""Command-line interface.

Subcommands::

    repro corpus    [--scale S] [--repeats N]        # list the corpus
    repro run       [--scale S] [--k 512 1024] [--out results.json]
                    [--resume] [--stage-deadline S]  # crash-safe, resumable
    repro doctor    [--plan-cache-dir DIR] [--checkpoint PATH] [--heal]
                    [--serve ADDR]                   # probe a running server
    repro serve     [--port P | --unix-socket PATH] [--max-inflight N]
                    [--quota-rate R] [--workers N]   # the SpMM service
    repro table     {1,2,3,4} --records results.json
    repro figure    {8,9,10,11,12} --records results.json [--k K]
    repro metis     [--scale S] [--k K]
    repro reorder   --mtx in.mtx --out out.mtx       # reorder a real matrix
    repro plan      a.mtx b.mtx --cache-dir DIR --workers 4  # batched plan builds
    repro autotune  --mtx in.mtx [--k 512] [--op spmm]  # trial-and-error verdict
    repro report    --records results.json --out EXPERIMENTS.md
    repro lint      src/ tests/ [--format json]      # reprolint static analysis
    repro bench     --gate [--quick]                 # perf-regression gate
    repro trace     in.mtx [--k 512] [--runs 3]      # Chrome trace of one build+run
    repro generators

``repro run`` executes the corpus experiment and writes the JSON records
every other subcommand consumes; see DESIGN.md for the experiment index.
Every run journals per-matrix checkpoints next to ``--out`` (override with
``--checkpoint``); after a crash or Ctrl-C, ``repro run --resume``
recomputes only the unfinished matrices, and ``repro doctor`` reports
journal progress plus plan-cache health (``--heal`` restores quarantined
cache entries whose checksums still verify).  See docs/RESILIENCE.md.

Handlers are registered with :func:`cli_handler`, which lets :func:`main`
route every :class:`repro.errors.ReproError` (and ``OSError``) through the
structured exit-code table in :mod:`repro.errors` instead of surfacing a
raw traceback — enforced by reprolint rule RD304.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from repro.errors import (
    EXIT_INTERRUPTED,
    EXIT_IO,
    ReproError,
    exit_code_for,
    format_cli_error,
)

__all__ = ["main", "build_parser", "cli_handler"]

#: Registered subcommand handlers: command name -> handler(args) -> int.
_HANDLERS: dict = {}


def cli_handler(name: str):
    """Decorator registering a CLI handler under its subcommand name.

    Registration is what routes the handler's errors through the
    :mod:`repro.errors` exit-code table in :func:`main`; reprolint rule
    RD304 flags ``_cmd_*`` functions that skip it.
    """

    def register(fn):
        _HANDLERS[name] = fn
        return fn

    return register


def build_parser() -> argparse.ArgumentParser:
    """Construct the `repro` argument parser (see module docstring)."""
    from repro.kernels.backends import DEFAULT_BACKEND

    p = argparse.ArgumentParser(
        prog="repro",
        description="PPoPP'20 row-reordering SpMM/SDDMM reproduction harness",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("corpus", help="list corpus matrices and their stats")
    c.add_argument("--scale", default="small", help="tiny|small|medium|paper")
    c.add_argument("--repeats", type=int, default=2)

    r = sub.add_parser("run", help="run the corpus experiment")
    r.add_argument("--scale", default="small")
    r.add_argument("--repeats", type=int, default=2)
    r.add_argument("--k", type=int, nargs="+", default=[512, 1024])
    r.add_argument("--out", default="results.json")
    r.add_argument(
        "--panel-height", type=int, default=None,
        help="ASpT panel height (default: matched to --scale)",
    )
    r.add_argument("--verify", action="store_true", help="validate plans functionally")
    r.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the sweep (matrices are independent)",
    )
    r.add_argument(
        "--plan-cache-dir", metavar="DIR", default=None,
        help="persistent plan-store directory; repeated sweeps over the "
        "same corpus skip the reordering stages",
    )
    r.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="journal path for crash-safe per-matrix checkpoints "
        "(default: <--out>.journal)",
    )
    r.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted sweep from the checkpoint journal, "
        "recomputing only unfinished matrices",
    )
    r.add_argument(
        "--stage-deadline", type=float, metavar="SECONDS", default=None,
        help="per-rung preprocessing stage deadline; builds that exceed it "
        "degrade down the ladder (full -> identity) instead of failing; "
        "round 2 runs under it only with --plan-cache-dir, otherwise after "
        "the ladder",
    )
    r.add_argument(
        "--backend", default=DEFAULT_BACKEND, metavar="NAME",
        help="kernel backend for the sweep's multiplies (default %(default)s; "
        "see `repro backends`); unavailable backends degrade to numpy",
    )

    dr = sub.add_parser(
        "doctor", help="inspect (and optionally heal) sweep/cache health"
    )
    dr.add_argument(
        "--plan-cache-dir", metavar="DIR", default=None,
        help="plan-store directory to inspect for quarantined entries",
    )
    dr.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="sweep journal to summarise (progress, in-flight matrices)",
    )
    dr.add_argument(
        "--heal", action="store_true",
        help="restore quarantined plan-cache entries whose checksums "
        "still verify",
    )
    dr.add_argument(
        "--serve", metavar="ADDR", default=None, dest="serve_address",
        help="probe a running `repro serve` instance (host:port or UNIX "
        "socket path): pool occupancy, quota state, breaker status",
    )

    sv = sub.add_parser(
        "serve", help="run the fault-tolerant multi-tenant SpMM service"
    )
    sv.add_argument("--host", default="127.0.0.1", help="TCP listen host")
    sv.add_argument("--port", type=int, default=7077, help="TCP listen port (0 = OS-assigned)")
    sv.add_argument(
        "--unix-socket", metavar="PATH", default=None,
        help="listen on a UNIX domain socket instead of TCP",
    )
    sv.add_argument(
        "--pool-sessions", type=int, default=8,
        help="warm kernel sessions kept resident, one per matrix (LRU beyond this)",
    )
    sv.add_argument(
        "--workers", type=int, default=2,
        help="threads executing plan builds and multiplies",
    )
    sv.add_argument(
        "--max-inflight", type=int, default=16,
        help="admission bound; excess requests get rejected_overload",
    )
    sv.add_argument(
        "--quota-rate", type=float, default=100.0,
        help="per-tenant token-bucket refill rate (requests/second)",
    )
    sv.add_argument(
        "--quota-burst", type=float, default=50.0,
        help="per-tenant token-bucket burst capacity",
    )
    sv.add_argument(
        "--default-deadline", type=float, metavar="SECONDS", default=None,
        help="deadline for requests that do not carry deadline_s",
    )
    sv.add_argument(
        "--breaker-threshold", type=int, default=3,
        help="consecutive C-build failures that trip the compile circuit breaker",
    )
    sv.add_argument(
        "--breaker-reset", type=float, metavar="SECONDS", default=30.0,
        help="open interval before the breaker half-opens",
    )
    sv.add_argument(
        "--backend", default=DEFAULT_BACKEND, metavar="NAME",
        help="kernel backend for served multiplies (default %(default)s)",
    )
    sv.add_argument(
        "--panel-height", type=int, default=32, help="ASpT panel height for plans"
    )
    sv.add_argument(
        "--chunk-k", type=int, default=64,
        help="K-chunk width of the served multiplies (deadline poll grain)",
    )
    sv.add_argument(
        "--plan-cache-dir", metavar="DIR", default=None,
        help="persistent plan-store directory shared across restarts",
    )
    sv.add_argument(
        "--drain-timeout", type=float, metavar="SECONDS", default=30.0,
        help="grace period for in-flight requests on SIGTERM/drain",
    )

    t = sub.add_parser("table", help="print a paper table from saved records")
    t.add_argument("number", type=int, choices=(1, 2, 3, 4))
    t.add_argument("--records", default="results.json")

    f = sub.add_parser("figure", help="print a paper figure from saved records")
    f.add_argument("number", type=int, choices=(8, 9, 10, 11, 12))
    f.add_argument("--records", default="results.json")
    f.add_argument("--k", type=int, default=512)
    f.add_argument(
        "--json", metavar="PATH", default=None,
        help="also dump the figure's raw data series as JSON (for plotting)",
    )
    f.add_argument(
        "--svg", metavar="PATH", default=None,
        help="also render the figure as an SVG file",
    )
    f.add_argument(
        "--svg-mode", choices=("light", "dark"), default="light",
        help="palette mode for --svg output",
    )

    m = sub.add_parser("metis", help="run the §5.2 vertex-reordering comparison")
    m.add_argument("--scale", default="tiny")
    m.add_argument("--k", type=int, default=512)

    ro = sub.add_parser("reorder", help="row-reorder a MatrixMarket file")
    ro.add_argument("--mtx", required=True)
    ro.add_argument("--out", required=True)
    ro.add_argument("--panel-height", type=int, default=64)
    ro.add_argument(
        "--plan", metavar="PATH", default=None,
        help="also persist the execution plan (.npz) for offline reuse",
    )

    pl = sub.add_parser(
        "plan", help="build (and cache) execution plans for MatrixMarket files"
    )
    pl.add_argument("mtx", nargs="+", help="input .mtx files")
    pl.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persistent plan-store directory (omit for in-memory only)",
    )
    pl.add_argument("--workers", type=int, default=1, help="process-pool size")
    pl.add_argument("--panel-height", type=int, default=64)
    pl.add_argument(
        "--save", metavar="DIR", default=None,
        help="also write each plan as <DIR>/<stem>.plan.npz for offline reuse",
    )

    at = sub.add_parser(
        "autotune", help="trial-and-error reordering decision for a .mtx file"
    )
    at.add_argument("--mtx", required=True)
    at.add_argument("--k", type=int, default=512)
    at.add_argument("--op", choices=("spmm", "sddmm"), default="spmm")
    at.add_argument("--panel-height", type=int, default=64)

    rep = sub.add_parser("report", help="write EXPERIMENTS.md from saved records")
    rep.add_argument("--records", default="results.json")
    rep.add_argument("--out", default="EXPERIMENTS.md")
    rep.add_argument(
        "--html", metavar="PATH", default=None,
        help="also write a self-contained HTML report with embedded figures",
    )

    lint = sub.add_parser(
        "lint",
        help="run the reprolint static-analysis pass (per-file rules "
        "RD1xx-RD3xx plus the inter-procedural dataflow rules RD4xx-RD6xx)",
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(lint)

    be = sub.add_parser(
        "bench", help="run the pinned perf micro-suite / regression gate"
    )
    be.add_argument(
        "--suite", action="append", choices=("kernels", "preproc"),
        help="suite(s) to run (default: all)",
    )
    be.add_argument(
        "--gate", action="store_true",
        help="compare against the committed BENCH_*.json baselines and "
        "fail on regression",
    )
    be.add_argument(
        "--quick", action="store_true",
        help="fewer repetitions per metric (same workloads, noisier medians)",
    )
    be.add_argument(
        "--tolerance", type=float, default=None,
        help="allowed relative drift before the gate fails (default 0.25)",
    )
    be.add_argument(
        "--baseline-dir", metavar="DIR", default=".",
        help="directory holding the committed BENCH_<suite>.json baselines",
    )
    be.add_argument(
        "--out-dir", metavar="DIR", default=None,
        help="also write the fresh result documents here (CI artifacts)",
    )
    be.add_argument(
        "--update-baseline", action="store_true",
        help="overwrite the baselines with the fresh numbers instead of gating",
    )
    be.add_argument(
        "--backend", default=DEFAULT_BACKEND, metavar="NAME",
        help="kernel backend dimension for the kernel cells (default "
        "%(default)s; adds <metric>@<backend> cells and cross-backend speedups)",
    )

    sub.add_parser(
        "backends", help="list compiled kernel backends and their availability"
    )

    tr = sub.add_parser(
        "trace", help="trace one plan build + kernel run (Chrome trace_event JSON)"
    )
    tr.add_argument("mtx", help="input .mtx file")
    tr.add_argument(
        "--out", metavar="PATH", default=None,
        help="trace output path (default: <mtx stem>.trace.json)",
    )
    tr.add_argument("--k", type=int, default=512, help="dense operand width")
    tr.add_argument("--runs", type=int, default=3, help="kernel runs to record")
    tr.add_argument("--panel-height", type=int, default=64)
    tr.add_argument(
        "--gated", action="store_true",
        help="let the paper's §4 heuristics gate the reordering rounds "
        "(default: force both on so every pipeline stage appears in the trace)",
    )

    sub.add_parser("generators", help="list dataset generators")
    return p


@cli_handler("bench")
def _cmd_bench(args) -> int:
    import json

    from repro.bench import SUITES, run_gate, run_suite
    from repro.bench.gate import DEFAULT_TOLERANCE

    tolerance = DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance
    if args.gate or args.update_baseline:
        code, text = run_gate(
            args.suite,
            quick=args.quick,
            tolerance=tolerance,
            baseline_dir=args.baseline_dir,
            out_dir=args.out_dir,
            update_baseline=args.update_baseline,
            backend=args.backend,
        )
        print(text)
        return code
    for name in args.suite or sorted(SUITES):
        print(
            json.dumps(
                run_suite(name, quick=args.quick, backend=args.backend), indent=1
            )
        )
    return 0


@cli_handler("backends")
def _cmd_backends(_args) -> int:
    from repro.errors import DegradedExecution
    from repro.kernels.backends import BACKENDS, DEFAULT_BACKEND, load_backend

    notes = {"numpy": "reference (degradation target)", DEFAULT_BACKEND: "default"}
    print(f"{'backend':<12}{'available':<12}note")
    for name in BACKENDS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecution)
            loaded = load_backend(name)
        if loaded.backend == name:
            print(f"{name:<12}{'yes':<12}{notes.get(name, '')}")
        else:
            reason = loaded.provenance[0].partition("->numpy: ")[2]
            print(f"{name:<12}{'no':<12}{reason}")
    return 0


@cli_handler("corpus")
def _cmd_corpus(args) -> int:
    from repro.datasets import build_corpus, corpus_summary

    entries = build_corpus(args.scale, repeats=args.repeats)
    rows = corpus_summary(entries)
    print(f"{'name':<32}{'category':<14}{'rows':>8}{'cols':>8}{'nnz':>10}")
    for row in rows:
        print(
            f"{row['name']:<32}{row['category']:<14}"
            f"{row['n_rows']:>8}{row['n_cols']:>8}{row['nnz']:>10}"
        )
    print(f"total: {len(rows)} matrices")
    return 0


@cli_handler("run")
def _cmd_run(args) -> int:
    from repro.experiments import ExperimentConfig, run_experiment, save_records
    from repro.experiments.config import PANEL_HEIGHTS
    from repro.kernels.backends import DEFAULT_BACKEND
    from repro.reorder import ReorderConfig
    from repro.resilience import ResiliencePolicy
    from repro.util.log import enable_console_logging

    enable_console_logging()
    if args.panel_height is None and args.backend == DEFAULT_BACKEND:
        reorder = None  # ExperimentConfig picks the scale-matched default
    else:
        # A backend request alone must not lose the scale-matched panel
        # height, so fall back to the same table ExperimentConfig uses.
        reorder = ReorderConfig(
            panel_height=(
                args.panel_height
                if args.panel_height is not None
                else PANEL_HEIGHTS.get(args.scale, 64)
            ),
            backend=args.backend,
        )
    config = ExperimentConfig(
        ks=tuple(args.k),
        scale=args.scale,
        repeats=args.repeats,
        reorder=reorder,
        verify=args.verify,
        plan_cache_dir=args.plan_cache_dir,
        resilience=(
            ResiliencePolicy(deadline_s=args.stage_deadline)
            if args.stage_deadline is not None
            else None
        ),
    )
    checkpoint = args.checkpoint or f"{args.out}.journal"
    records = run_experiment(
        config,
        progress=args.jobs == 1,
        n_jobs=args.jobs,
        checkpoint=checkpoint,
        resume=args.resume,
    )
    save_records(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    degraded = sorted({r.name for r in records if r.degradation})
    if degraded:
        print(
            f"note: {len(degraded)} matrices built below the full "
            "degradation-ladder rung (see the 'degradation' record field)"
        )
    return 0


@cli_handler("doctor")
def _cmd_doctor(args) -> int:
    from repro.resilience import doctor_report

    text, problems = doctor_report(
        cache_dir=args.plan_cache_dir,
        checkpoint=args.checkpoint,
        heal=args.heal,
        serve_address=args.serve_address,
    )
    print(text)
    return 1 if problems else 0


@cli_handler("serve")
def _cmd_serve(args) -> int:
    from repro.serve import ServeConfig, run_server

    config = ServeConfig(
        host=args.host,
        port=args.port,
        unix_path=args.unix_socket,
        pool_sessions=args.pool_sessions,
        workers=args.workers,
        max_inflight=args.max_inflight,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        default_deadline_s=args.default_deadline,
        breaker_threshold=args.breaker_threshold,
        breaker_reset_s=args.breaker_reset,
        backend=args.backend,
        panel_height=args.panel_height,
        chunk_k=args.chunk_k,
        plan_cache_dir=args.plan_cache_dir,
        drain_timeout_s=args.drain_timeout,
    )
    where = config.unix_path or f"{config.host}:{config.port}"
    print(f"repro serve: listening on {where} (SIGTERM or the drain op stops it)")
    run_server(config)
    return 0


@cli_handler("table")
def _cmd_table(args) -> int:
    from repro.experiments import load_records
    from repro.experiments.tables import (
        format_band_table,
        needing_reordering,
        preprocessing_ratio_bands,
        records_at_k,
        speedup_bands,
        summary_stats,
    )

    records = load_records(args.records)
    ks = sorted({r.k for r in records})
    subset = needing_reordering(records)
    if args.number == 1:
        bands = {k: speedup_bands(records_at_k(subset, k), "spmm_vs_best") for k in ks}
        print(format_band_table("Table 1: SpMM ASpT-RR vs best(cuSPARSE, ASpT-NR)", bands))
        for k in ks:
            print(f"K={k}:", summary_stats(records_at_k(subset, k), "spmm_vs_best"))
    elif args.number == 2:
        bands = {k: speedup_bands(records_at_k(subset, k), "sddmm_vs_nr") for k in ks}
        print(format_band_table("Table 2: SDDMM ASpT-RR vs ASpT-NR", bands))
        for k in ks:
            print(f"K={k}:", summary_stats(records_at_k(subset, k), "sddmm_vs_nr"))
    else:
        op = "spmm" if args.number == 3 else "sddmm"
        bands = {
            k: preprocessing_ratio_bands(records_at_k(subset, k), op) for k in ks
        }
        print(format_band_table(f"Table {args.number}: preprocessing/{op} ratio", bands))
    return 0


@cli_handler("figure")
def _cmd_figure(args) -> int:
    from repro.experiments import (
        fig8_speedup_histogram,
        fig9_effectiveness_scatter,
        fig10_throughput_series,
        fig11_throughput_series,
        fig12_preprocessing_times,
        load_records,
    )

    records = load_records(args.records)
    fn = {
        8: lambda: fig8_speedup_histogram(records, args.k),
        9: lambda: fig9_effectiveness_scatter(records, args.k),
        10: lambda: fig10_throughput_series(records, args.k),
        11: lambda: fig11_throughput_series(records, args.k),
        12: lambda: fig12_preprocessing_times(records),
    }[args.number]
    out = fn()
    print(out["text"])
    if args.json:
        import json

        data = {key: value for key, value in out.items() if key != "text"}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)
        print(f"wrote raw series to {args.json}")
    if args.svg:
        from repro.viz import figure_svg

        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(figure_svg(args.number, out, mode=args.svg_mode))
        print(f"wrote SVG to {args.svg}")
    return 0


@cli_handler("metis")
def _cmd_metis(args) -> int:
    from repro.datasets import build_corpus
    from repro.experiments import metis_comparison

    entries = build_corpus(args.scale, repeats=1)
    result = metis_comparison(entries, args.k)
    print(result["text"])
    return 0


@cli_handler("reorder")
def _cmd_reorder(args) -> int:
    from repro.reorder import ReorderConfig, build_plan
    from repro.sparse import permute_csr_rows, read_matrix_market, write_matrix_market

    matrix = read_matrix_market(args.mtx)
    plan = build_plan(matrix, ReorderConfig(panel_height=args.panel_height))
    reordered = permute_csr_rows(matrix, plan.row_order)
    write_matrix_market(args.out, reordered, comment=f"row-reordered from {args.mtx}")
    if args.plan:
        plan.save(args.plan)
        print(f"saved execution plan to {args.plan}")
    s = plan.stats
    print(
        f"dense ratio {s.dense_ratio_before:.3f} -> {s.dense_ratio_after:.3f}; "
        f"rounds applied: 1={s.round1_applied} 2={s.round2_applied}; "
        f"preprocessing {plan.preprocessing_time:.2f}s"
    )
    return 0


@cli_handler("plan")
def _cmd_plan(args) -> int:
    from pathlib import Path

    from repro.planstore import PlanStore, build_plans
    from repro.reorder import ReorderConfig
    from repro.util.log import enable_console_logging

    enable_console_logging()
    from repro.sparse import read_matrix_market

    matrices = [read_matrix_market(path) for path in args.mtx]
    store = PlanStore(cache_dir=args.cache_dir)
    config = ReorderConfig(panel_height=args.panel_height)
    results = build_plans(matrices, config, workers=args.workers, cache=store)

    failures = 0
    for path, matrix, result in zip(args.mtx, matrices, results):
        if not result.ok:
            failures += 1
            print(f"{path}: FAILED ({result.error})")
            continue
        plan = result.plan
        s = plan.stats
        origin = "cache" if result.cache_hit else "built"
        print(
            f"{path}: {matrix.n_rows}x{matrix.n_cols} nnz={matrix.nnz} "
            f"[{origin}] rounds 1={s.round1_applied} 2={s.round2_applied} "
            f"dense ratio {s.dense_ratio_before:.3f} -> {s.dense_ratio_after:.3f}"
        )
        if args.save:
            out_dir = Path(args.save)
            out_dir.mkdir(parents=True, exist_ok=True)
            out = out_dir / (Path(path).stem + ".plan.npz")
            plan.save(out)
            print(f"  saved {out}")
    stats = store.stats()
    mem = stats["memory"]
    line = f"cache: memory {mem['hits']} hits / {mem['misses']} misses"
    if "disk" in stats:
        disk = stats["disk"]
        line += f"; disk {disk['hits']} hits / {disk['misses']} misses"
    print(line)
    return 1 if failures else 0


@cli_handler("autotune")
def _cmd_autotune(args) -> int:
    from repro.reorder import ReorderConfig, autotune
    from repro.sparse import read_matrix_market

    matrix = read_matrix_market(args.mtx)
    result = autotune(
        matrix, args.k, op=args.op,
        config=ReorderConfig(panel_height=args.panel_height),
    )
    choice = "REORDER" if result.use_reordering else "KEEP ORIGINAL"
    print(
        f"{args.mtx}: {matrix.n_rows}x{matrix.n_cols}, nnz={matrix.nnz}\n"
        f"modelled {args.op} (K={args.k}): reordered "
        f"{result.cost_reordered.time_s * 1e6:.1f} us vs plain "
        f"{result.cost_plain.time_s * 1e6:.1f} us "
        f"({result.speedup:.2f}x)\n"
        f"decision: {choice}"
    )
    return 0


@cli_handler("trace")
def _cmd_trace(args) -> int:
    from pathlib import Path

    import numpy as np

    from repro.observability import (
        METRICS,
        Tracer,
        format_metrics,
        trace_summary,
        tracing,
    )
    from repro.reorder import ReorderConfig
    from repro.sparse import read_matrix_market

    matrix = read_matrix_market(args.mtx)
    config = ReorderConfig(panel_height=args.panel_height)
    if not args.gated:
        # Diagnostic default: force both rounds on so the trace covers
        # every pipeline stage even for matrices the §4 gates would skip.
        from dataclasses import replace

        config = replace(config, force_round1=True, force_round2=True)

    from repro.reorder import build_plan

    tracer = Tracer()
    with tracing(tracer):
        plan = build_plan(matrix, config)
        session = plan.session()
        rng = np.random.default_rng(0)
        x = rng.standard_normal((matrix.n_cols, args.k))
        for _ in range(args.runs):
            session.run(x)
        # The build defers round 2 to its first read: trace that too.
        plan.stats

    out = args.out or (Path(args.mtx).stem + ".trace.json")
    tracer.write_chrome_trace(out)
    print(trace_summary(tracer))
    print()
    print(format_metrics(METRICS.snapshot()))
    print(f"\nwrote {out} (load in chrome://tracing or https://ui.perfetto.dev)")
    return 0


@cli_handler("report")
def _cmd_report(args) -> int:
    from repro.experiments import load_records, render_experiments_markdown

    records = load_records(args.records)
    text = render_experiments_markdown(records)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(f"wrote {args.out} from {len(records)} records")
    if args.html:
        from repro.experiments import render_html_report

        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(render_html_report(records))
        print(f"wrote {args.html}")
    return 0


@cli_handler("generators")
def _cmd_generators(_args) -> int:
    from repro.datasets import list_generators

    for name in list_generators():
        print(name)
    return 0


@cli_handler("lint")
def _cmd_lint(args) -> int:
    from repro.analysis.cli import run_lint

    return run_lint(args)


def main(argv=None) -> int:
    """CLI entry point (returns a process exit code).

    Library and filesystem errors are reported as one structured line on
    stderr and mapped to the :mod:`repro.errors` exit codes instead of
    escaping as tracebacks.
    """
    args = build_parser().parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        return handler(args)
    except ReproError as exc:
        print(format_cli_error(args.command, exc), file=sys.stderr)
        return exit_code_for(exc)
    except OSError as exc:
        print(format_cli_error(args.command, exc), file=sys.stderr)
        return EXIT_IO
    except KeyboardInterrupt:
        # The runner has already flushed its checkpoint journal by the
        # time the interrupt propagates here (see run_experiment), so the
        # user can pick up with `repro run --resume`.
        print(f"repro {args.command}: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
