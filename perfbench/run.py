"""perfbench: the end-to-end and per-layer benchmark of this repository.

Run from the repository root::

    python3 perfbench/run.py --workload cold-plan --seed 1 --seconds 15 --trace 0

The program under test is the ``repro`` package in ``src/``; the benchmark
only calls its public functions and changes nothing there.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it (prefixed
``perfbench:``) is the detailed report: the environment block (CPU model,
allowed cores, Python and numpy versions, git commit or source digest,
seed, workload parameters and the workload's reason), percentiles with
their sample counts, failures, and for traced runs the per-layer tables.
``--smoke`` runs every workload at a tiny scale in seconds
(``test_perfbench_smoke.py`` checks it).  The run exits non-zero, without a
result line, when ``src/`` does not hold the program.  Workload reasons and
every metric's name and unit are declared once, in ``BENCHMARK.json``.

Workloads
---------
The matrix classes (:mod:`inputs`) recur in every library workload, one per
case of the paper's Sec. 4 heuristics, each 2048 rows, 12288 columns and
~20k non-zeros: ``clustered`` (shuffled two-row clusters: round 1 runs and
raises the dense ratio from ~7% to ~50%), ``dense`` (the same rows grouped:
~81% dense, the round-1 gate skips) and ``scattered`` (uniform columns:
round 1 runs, LSH finds few useful pairs, ~10% dense after tiling).  Every
plan's round-1 decision is checked against its class (a wrong one fails the
op) and its dense ratios are recorded, so the roles are checked, not
assumed.

``cold-plan``
    Each op takes a never-seen bundle of one matrix per class through
    ``build_plan`` (default ``ReorderConfig``, no cache), ``plan.session()``
    and a first K=64 ``run``.  The plan stages dominate: this is the
    paper's preprocessing cost, the "cold" number.
``warm-kernel``
    Plans and sessions for one matrix per class are built in set-up; each
    op is one K=512 ``KernelSession.run`` per plan.  The kernel does all the
    work.  ``scattered`` has few dense tiles, so a change to the dense-tile
    phase should move the other two classes and barely move it.
``serve-warm``
    ``repro serve`` in its own process on a UNIX socket; two closed-loop
    client processes each own one matrix and one tenant and cycle
    fingerprint ``spmm`` requests through K = 8, 64, 512 (see
    :mod:`served`).  Operands and results travel as nested JSON floats, so
    codec, event loop and socket dominate at K=512.  This is the "warm"
    number.  The loop is closed because callers wait for their result.
``stream-update``
    A ``StreamingPlan`` for the clustered and the dense class each takes a
    seeded delta sequence; each op applies one value-only ``set`` delta
    (~0.1% of nnz) and one ``add`` delta (two entries into ~0.5% of rows)
    to each plan, then ``KernelSession.refresh`` and one K=64 ``run``.  It
    is the only workload that reaches ``repro.streaming``.

Not measured: ``planstore``, ``gpu``, ``experiments``, ``analysis`` and
SDDMM; no caller waits on them in these workloads.

End-to-end metrics (``--trace 0``)
----------------------------------
``latency_p50_s`` (s)
    median op latency (one op of the workload above; one request for
    serve-warm).
``latency_tail_s`` (s)
    the highest percentile with at least ten samples beyond it; the
    report gives the percentile and the sample count.
``throughput_per_s`` (1/s)
    serve-warm: requests completed per second across both connections.
    The other workloads have one caller, whose rate is just the inverse of
    its latency; they print ``1 / latency_p50_s`` (the median, as a mean
    would let one host hiccup move it).
``setup_s`` (s)
    the program's own set-up before the first timed op, repeated and
    reported as the median: cold-plan, one untimed warm-up bundle;
    warm-kernel, the plan builds, sessions and first runs; serve-warm, from
    the first answered ``ping`` until every matrix has been uploaded and
    served once; stream-update, the ``StreamingPlan`` builds and sessions.
``peak_rss_mb`` (MiB)
    peak RSS (``VmHWM``) of the process running the program: this process
    for the library workloads, the server for serve-warm.

Times (unit ``s``; ``1/s`` inversely) are printed in seconds of the
reference host: each is multiplied by ``PROBE_REF_S / median(probes)`` of
its run.  A probe (:func:`harness.host_probe`) is ~10 ms of pure-Python work
that calls nothing of the program, timed in CPU seconds before every op
and set-up repetition and, for serve-warm, twice a second through the
window from an idle thread.  A change to the program moves the metrics and
not the probes; a slower host moves both.  The report line keeps the raw
seconds (``values``) and the run's factor (``host``).

The result line's ``attempted`` and ``failed`` count ops (requests for
serve-warm) plus final checks; the report adds ``failed_share`` (it is not
a metric, being 0 whenever the program is right).  A failure is an
exception, a non-``ok`` status or a result failing its check: cold-plan
and warm-kernel results must equal ``plan.spmm`` bit for bit and
``spmm(original)`` to 1e-10 and each plan must take its class's round-1
decision; served results must equal an in-process
``build_plan(m, ServeConfig(...).reorder_config())`` session run bit for
bit; the streamed plans must end bit-equal to a fresh ``build_plan`` of the
final matrices.

Per-layer metrics (``--trace 1``)
---------------------------------
A traced run runs the named workload with every second op traced (the
untraced half gives ``observability.trace_overhead_s``, traced minus
untraced median) and then each other workload as a short, fully traced
probe, so every layer is reported whichever workload is named.  Spans come
from this benchmark's code around each call, plus the spans ``build_plan``
and ``KernelSession.run`` already emit; they are kept in memory and
written as a Chrome trace to ``perfbench/out/``.  ``<layer>.self_s`` is a
layer's median self time per op (span time minus child spans).

========================================  ===================================
metric (unit)                             should move
========================================  ===================================
similarity.minhash_s, .lsh_s (s),         cold-plan latency_p50_s
.candidate_pairs (count)
clustering.cluster_s (s), .pairs_scored   cold-plan latency_p50_s
aspt.tile_s, reorder.round2_s (s)         cold-plan latency_p50_s
reorder.build_plan_s[.class] (s)          cold-plan latency_p50_s; setup_s
                                          of the other workloads
reorder.round1_applied.class (share),     explain cold-plan and warm-kernel
reorder.dense_ratio.class (ratio)         latency_p50_s (input properties)
kernels.session_init_s, .first_run_s      cold-plan latency_p50_s
kernels.run_s[.class], .remainder_s.*,    warm-kernel latency_p50_s
.dense_tile_s.* (run - remainder)
kernels.csr_run_s.class                   none: the unreordered reference
kernels.plan_vs_csr.class (ratio)         warm-kernel latency_p50_s
kernels.flops, .bytes_computed            warm-kernel latency_p50_s
workspace.miss (count)                    warm-kernel latency_tail_s, RSS
serve.client_s.kK (s)                     serve-warm latency_p50_s, tail
serve.server_s, .outside_server_s (s)     serve-warm latency_p50_s, tail
serve.codec_s.k512 (s)                    serve-warm tail, throughput
serve.multiply_s.kK (s)                   serve-warm latency_p50_s
serve.outside_multiply_share.kK (share)   serve-warm latency_p50_s, tail
serve.request/response_bytes.k512         serve-warm latency_tail_s
serve.pool_miss, .batches, .coalesced,    serve-warm tail, throughput,
.rejected (count over the window)         failures (0, n, 0, 0 by design)
streaming.apply_delta_s, .lsh_s,          stream-update latency_p50_s
.cluster_s, .tile_s, .round2_s,
.refresh_s (s); .rows_resigned,
.pairs_rescored, .panels_retiled (count)
streaming.patched_share (share)           stream-update p50 and tail (1.0)
streaming.rebuild_s (s),                  none: the counterfactual full
.patch_vs_rebuild (ratio)                 rebuild after each op
========================================  ===================================

``kernels.break_even_multiplies`` (``build_plan_s / (csr_run_s - run_s)``
per class, the measured counterpart of the paper's Tables 3/4) is in the
report only, with the reason when the plan is not faster and it has no
value.  The phases inside ``CsrState.multiply`` and the server's internal
waits need spans inside the program and are not reported.

Steadiness rules
----------------
An earlier version of this benchmark moved by up to 17% between two sets
of runs of identical code (warm-kernel setup 1.27 -> 1.48 s, cold-plan
setup 0.38 -> 0.32 s, cold-plan p50 0.225 -> 0.192 s, serve p50 +8% and
tail +9%); its p50 moved 15% while its tail moved 5%, the mark of a median
jumping between latency clusters.  Hence:

1. ``setup_s`` times only the program's set-up calls, never interpreter
   start, imports or input generation, and is the median of several
   repetitions in one run.
2. Every op does the same work (a bundle of one matrix per class, or a
   fixed K cycle), and the op count is fixed by ``--seconds`` times the
   workload's nominal rate (:data:`OPS_PER_SECOND`), so every run executes
   the same op sequence from its seed and each percentile stays inside one
   cluster of latencies.
3. The server runs in its own process; the load generator uses two client
   processes (one per core), each with its own matrix and tenant; quota
   and admission never refuse the closed loop.  Clients are processes:
   as two threads of one process, each connection's K=64 requests queued
   behind the other's K=512 JSON decode on one interpreter lock, and the
   p50 spread over four runs rose from 2% to 49%.
4. Inputs are generated, references computed and results checked outside
   the timed region; a ``gc.collect()`` precedes every op.
5. What is left is the host, which the probes above take out.  On the
   2-core VM this was tuned on, one fixed piece of work timed back to back
   for three minutes had 5-second medians from 12.5 to 16.8 ms, and the
   spread of such medians (quartile distance over median, 7-9%) did not
   shrink as the window grew from 2 to 30 s, so longer runs cannot average
   the drift out.  In raw seconds, two sets of ten runs half an hour apart
   moved their medians by 9-21% and spread up to 32%.  Scaled by the probes,
   two later sets of ten seeds of the same code spread 6-15% (p50) and
   7-20% (tail), where their raw seconds spread 11-33% and 14-27%, and
   their medians agreed within 5% (``setup_s`` within 9%).  Every time
   metric's bound in ``BENCHMARK.json`` is 0.25; ``peak_rss_mb`` has 0.2,
   because warm-kernel's peak is bimodal (about 730 or 850 MiB from run to
   run).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The workloads; their reasons, and every metric's name and unit, are
#: declared once, in ``BENCHMARK.json`` at the repository root.
WORKLOADS = ("cold-plan", "warm-kernel", "serve-warm", "stream-update")

#: Ops per second of ``--seconds`` (requests per client for serve-warm),
#: measured on a 2-core Intel Xeon VM; they fix each workload's op count.
OPS_PER_SECOND = {"cold-plan": 2.5, "warm-kernel": 2.0, "serve-warm": 8.0,
                  "stream-update": 5.0}
MIN_OPS = 21
#: Set-up repetitions per run (``setup_s`` is their median).  A serve-warm
#: repetition is two uploads and two tiny requests, ~40 ms of socket round
#: trips that jitter by a fifth, so it takes more of them.
SETUP_REPS = {"cold-plan": 5, "warm-kernel": 5, "serve-warm": 11, "stream-update": 7}
#: Op counts for the short fully traced probes and for ``--smoke``.
PROBE_OPS = {"cold-plan": 3, "warm-kernel": 3, "serve-warm": 6, "stream-update": 4}

#: Which workload's traced ops give each layer's self time.
SELF_TIME_HOME = {"similarity": "cold-plan", "clustering": "cold-plan", "aspt": "cold-plan",
                  "reorder": "cold-plan", "kernels": "warm-kernel",
                  "streaming": "stream-update"}


def _spec() -> dict:
    """``BENCHMARK.json``: workload reasons, metric names and units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bodies():
    from library import cold_plan, stream_update, warm_kernel
    from served import serve_warm

    return {"cold-plan": cold_plan, "warm-kernel": warm_kernel, "serve-warm": serve_warm,
            "stream-update": stream_update}


def _op_count(workload: str, seconds: int, smoke: bool) -> int:
    n = PROBE_OPS[workload] if smoke else max(MIN_OPS, round(seconds * OPS_PER_SECOND[workload]))
    if workload == "serve-warm":
        n += -n % 3  # whole K cycles
    return n


def _failed(outcomes) -> tuple[int, int, list]:
    attempted = sum(o.attempted for o in outcomes)
    failures = [f for o in outcomes for f in o.failures]
    return attempted, len(failures), failures


def _untraced(args, inputs) -> tuple[dict, dict, list, list]:
    from harness import Clock, median, peak_rss_mb, tail

    clock = Clock()
    reps = 1 if args.smoke else SETUP_REPS[args.workload]
    outcome = _bodies()[args.workload](inputs, clock, _op_count(args.workload, args.seconds,
                                                                  args.smoke), reps)
    lat = clock.untraced
    if not lat:
        raise RuntimeError(f"no op completed: {outcome.failures[:3]}")
    tail_value, percentile, samples = tail(lat)
    values = {
        "latency_p50_s": median(lat),
        "latency_tail_s": tail_value,
        "throughput_per_s": outcome.throughput_per_s or 1.0 / median(lat),
        "setup_s": median(clock.setup),
        "peak_rss_mb": outcome.peak_rss_mb or peak_rss_mb(),
    }
    outcome.report.pop("trace_events", None)
    report = {"tail_percentile": percentile, "samples": samples,
              "setup_repetitions": clock.setup, **outcome.report}
    return values, report, [outcome], clock.probes


def _traced(args, inputs) -> tuple[dict, dict, list, list]:
    from harness import OUT_DIR, Clock, median, self_times, tail
    from repro.observability import Tracer

    epoch = time.perf_counter()
    tracer = Tracer()
    values, report, outcomes, events = {}, {}, [], []
    order = [args.workload] + [w for w in WORKLOADS if w != args.workload]
    clocks = {}
    for workload in order:
        named = workload == args.workload
        clock = Clock(tracer, every=2 if named else 1, epoch=epoch)
        n = _op_count(workload, args.seconds, args.smoke) if named else PROBE_OPS[workload]
        reps = SETUP_REPS[workload] if named and not args.smoke else 1
        outcome = _bodies()[workload](inputs, clock, n, reps)
        events += outcome.report.pop("trace_events", [])
        values.update(outcome.per_layer())
        report[workload] = {"ops": n, "traced_ops": len(clock.traced_latencies),
                            **outcome.report}
        outcomes.append(outcome)
        clocks[workload] = clock
    for layer, home in SELF_TIME_HOME.items():
        values[f"{layer}.self_s"] = median(self_times(tracer, home).get(layer, []))
    named = clocks[args.workload]
    values["observability.trace_overhead_s"] = (
        median(named.traced_latencies) - median(named.untraced))
    report["tracing_overhead"] = {
        "latency_p50_s": values["observability.trace_overhead_s"],
        "latency_tail_s": tail(named.traced_latencies)[0] - tail(named.untraced)[0],
        "traced_ops": len(named.traced_latencies), "untraced_ops": len(named.untraced),
    }
    report["self_times_s"] = {
        workload: {layer: median(v) for layer, v in self_times(tracer, workload).items()}
        for workload in order
    }
    report["break_even"] = _break_even(values)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    document = tracer.chrome_trace()
    document["traceEvents"] += events
    trace_path.write_text(json.dumps(document), encoding="utf-8")
    report["trace_file"] = str(trace_path)
    return values, report, outcomes, [p for clock in clocks.values() for p in clock.probes]


def _break_even(values: dict) -> dict:
    """Multiplies needed to pay back ``build_plan`` per class (K=512)."""
    from inputs import CLASSES

    out = {}
    for cls in CLASSES:
        build = values[f"reorder.build_plan_s.{cls}"]
        run, csr = values[f"kernels.run_s.{cls}"], values[f"kernels.csr_run_s.{cls}"]
        saving = csr - run
        out[cls] = {"build_plan_s": build, "run_s": run, "csr_run_s": csr}
        if saving > 0:
            out[cls]["multiplies"] = build / saving
        else:
            out[cls]["multiplies"] = None
            out[cls]["why"] = ("the plan's multiply is not faster than the CSR session, "
                               "so the build never pays back")
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program is missing ({ROOT / 'src' / 'repro'})", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    if argv[:1] == ["--serve-client"]:
        from served import client_main

        return client_main(argv[1])

    parser = argparse.ArgumentParser(description="perfbench (see the module docstring)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, a few ops each")
    args = parser.parse_args(argv)

    from harness import PROBE_REF_S, environment, median
    from inputs import Inputs

    spec = _spec()
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    inputs = Inputs(args.seed, smoke=args.smoke)
    try:
        values, report, outcomes, probes = (_traced if args.trace else _untraced)(args, inputs)
    except Exception as exc:
        print(f"perfbench: {args.workload} could not run: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        log = getattr(exc, "server_log", None)
        if log:
            print(log, file=sys.stderr)
        raise
    attempted, failed, failures = _failed(outcomes)
    # Times are printed in seconds of the reference host: each is scaled by
    # how much slower than that host the probes ran in this run.
    host_factor = PROBE_REF_S / median(probes)
    scale = {"s": host_factor, "1/s": 1.0 / host_factor}
    params = {"ops": _op_count(args.workload, args.seconds, args.smoke),
              "setup_repetitions": 1 if args.smoke else SETUP_REPS[args.workload],
              "seconds": args.seconds, "smoke": args.smoke, **inputs.params()}
    detail = {
        "environment": environment(args.seed, args.workload, params, why),
        "trace": bool(args.trace),
        "values": values,
        "host": {"probe_ref_s": PROBE_REF_S, "probe_median_s": median(probes),
                 "probes": len(probes), "factor": host_factor},
        "failed_share": failed / attempted if attempted else 0.0,
        "failures": failures[:20],
        **report,
    }
    print("perfbench: " + json.dumps(detail, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name] * scale.get(unit, 1.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
