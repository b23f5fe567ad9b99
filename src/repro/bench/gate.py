"""Pinned perf micro-suite and regression gate.

Two suites, chosen to cover the two hot paths this library optimises:

``kernels``
    Steady-state SpMM — the same matrix multiplied repeatedly at K=512 —
    one-shot vs :class:`~repro.kernels.KernelSession`, for both the flat
    CSR kernel and the ASpT tiled kernel.
``preproc``
    The reorder preprocessing pipeline: MinHash signatures, the Alg. 3
    clustering loop over LSH candidates (:func:`~repro.clustering.cluster_rows`)
    and an end-to-end :func:`~repro.reorder.build_plan`.

Each suite produces a ``BENCH_<name>.json`` document::

    {"name": ..., "quick": ..., "workload": {...},
     "metrics":  {"<metric>": {"median_ms", "p95_ms", "alloc_peak_bytes"}},
     "speedups": {"<ratio>": ...},        # gated (within-run ratios)
     "reference": {...}}                  # informational, never gated

``metrics`` are wall-clock timings (lower is better; allocation peaks are
measured with :mod:`tracemalloc` on a separate, untimed call) and
``speedups`` are dimensionless ratios measured within the same run
(higher is better) — ratios stay comparable across machines, which is
what makes the gate usable in CI.  The gate re-runs a suite and fails
when a metric median exceeds the committed baseline by more than the
tolerance, or a speedup falls below it by more than the tolerance.

Determinism note: workloads, seeds and operand shapes are pinned, so two
runs on one machine differ only by scheduler noise; the default 25%
tolerance absorbs that comfortably for the >10 ms metrics gated here.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np

__all__ = [
    "DEFAULT_TOLERANCE",
    "SUITES",
    "baseline_path",
    "compare_results",
    "format_report",
    "run_gate",
    "run_suite",
]

#: Default allowed relative drift before the gate fails.
DEFAULT_TOLERANCE = 0.25


# ----------------------------------------------------------------------
# measurement helpers
def _timed(fn, repeats: int, warmup: int = 2, clock=time.perf_counter) -> dict:
    """Median / p95 wall-clock of ``fn()`` over ``repeats`` samples."""
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        t0 = clock()
        fn()
        samples.append((clock() - t0) * 1e3)
    samples.sort()
    p95_index = max(0, int(np.ceil(0.95 * len(samples))) - 1)
    return {
        "median_ms": round(statistics.median(samples), 4),
        "p95_ms": round(samples[p95_index], 4),
        "repeats": repeats,
    }


def _alloc_peak_bytes(fn) -> int:
    """Peak bytes allocated during one (untimed) ``fn()`` call."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def _metric(fn, repeats: int) -> dict:
    out = _timed(fn, repeats)
    out["alloc_peak_bytes"] = _alloc_peak_bytes(fn)
    return out


# ----------------------------------------------------------------------
# suites
def _suite_kernels(quick: bool, backend: str = "numpy") -> dict:
    from repro.aspt import tile_matrix
    from repro.datasets import hidden_clusters
    from repro.kernels import KernelSession, spmm, spmm_tiled

    repeats = 5 if quick else 9
    k = 512
    matrix = hidden_clusters(200, 8, 4096, 20, noise=0.1, seed=0)
    X = np.random.default_rng(0).normal(size=(matrix.n_cols, k))
    tiled = tile_matrix(matrix, 16, 2)

    # The unsuffixed session cells are the numpy executor's, whatever the
    # default backend: `--backend <name>` measures <name> in its own cells.
    session = KernelSession(matrix, backend="numpy")
    tiled_session = KernelSession(tiled, backend="numpy")
    # Warm the pinned scratch before any measurement so the steady state
    # is what gets timed (the first call pays the pool misses).
    session.run(X)
    tiled_session.run(X)

    metrics = {
        "spmm_oneshot": _metric(lambda: spmm(matrix, X), repeats),
        "spmm_session": _metric(lambda: session.run(X), repeats),
        "spmm_tiled_oneshot": _metric(lambda: spmm_tiled(tiled, X), repeats),
        "spmm_tiled_session": _metric(lambda: tiled_session.run(X), repeats),
    }
    # Traced variant of the session cell: the same workload under an
    # installed tracer.  Its drift is gated like every other metric, so a
    # regression in the *enabled* tracing path is caught here while the
    # disabled-path budget is asserted by benchmarks/bench_observability.
    from repro.observability import Tracer, tracing

    with tracing(Tracer()):
        tiled_session.run(X)  # warm under the tracer
        metrics["spmm_tiled_session_traced"] = _metric(
            lambda: tiled_session.run(X), repeats
        )
    speedups = {
        "spmm_session_vs_oneshot": round(
            metrics["spmm_oneshot"]["median_ms"]
            / metrics["spmm_session"]["median_ms"],
            3,
        ),
        "spmm_tiled_session_vs_oneshot": round(
            metrics["spmm_tiled_oneshot"]["median_ms"]
            / metrics["spmm_tiled_session"]["median_ms"],
            3,
        ),
    }
    workload = {
        "matrix": "hidden_clusters(200, 8, 4096, 20, noise=0.1, seed=0)",
        "n_rows": matrix.n_rows,
        "nnz": matrix.nnz,
        "k": k,
        "panel": "tile_matrix(matrix, 16, 2)",
        "backend": backend,
    }
    # Backend dimension: with ``--backend <name>`` the suite additionally
    # measures the compiled backend's one-shot and steady-state cells and
    # the within-run cross-backend speedups.  The numpy cells above keep
    # their names, so a backend run's document still gates every numpy
    # cell of the committed baseline (adding cells never regresses the
    # gate retroactively — `compare_results` skips one-sided metrics).
    # If the requested backend degrades on this machine, the cells are
    # *omitted* rather than silently measuring numpy twice.
    if backend != "numpy":
        from repro.errors import DegradedExecution
        from repro.kernels.backends import load_backend

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecution)
            loaded = load_backend(backend)
        if loaded.backend != backend:
            workload["backend_degraded"] = list(loaded.provenance)
        else:
            backend_session = KernelSession(matrix, backend=backend)
            backend_session.run(X)  # warm scratch + compiled artifact
            metrics[f"spmm_oneshot@{backend}"] = _metric(
                lambda: spmm(matrix, X, backend=backend), repeats
            )
            metrics[f"spmm_session@{backend}"] = _metric(
                lambda: backend_session.run(X), repeats
            )
            speedups[f"spmm_oneshot_{backend}_vs_numpy"] = round(
                metrics["spmm_oneshot"]["median_ms"]
                / metrics[f"spmm_oneshot@{backend}"]["median_ms"],
                3,
            )
            speedups[f"spmm_session_{backend}_vs_numpy"] = round(
                metrics["spmm_session"]["median_ms"]
                / metrics[f"spmm_session@{backend}"]["median_ms"],
                3,
            )
    return {
        "name": "kernels",
        "quick": quick,
        "workload": workload,
        "metrics": metrics,
        "speedups": speedups,
    }


def _suite_preproc(quick: bool, backend: str = "numpy") -> dict:
    # The build and patch cells run on ``ReorderConfig``'s default backend
    # (their MinHash and clustering loop included, as every build's do).
    # The ``minhash`` and ``cluster`` cells, and the ``stage`` cell that
    # adds them, call ``minhash_signatures`` and ``cluster_rows`` with no
    # backend, so they time the numpy and Python references; the emitted
    # ``workload`` block says so.  With ``--backend <name>`` the suite
    # also times both stages on <name> in ``minhash@<name>`` and
    # ``cluster@<name>`` cells, with the within-run ``*_<name>_vs_numpy``
    # speedups, as the kernels suite does.
    from repro.clustering import cluster_rows
    from repro.datasets import bipartite_ratings
    from repro.reorder import ReorderConfig, build_plan
    from repro.similarity import LSHIndex, minhash_signatures
    from repro.streaming import DeltaBatch, apply_delta

    repeats = 3 if quick else 7
    matrix = bipartite_ratings(
        2048, 2048, 20, n_taste_groups=64, concentration=0.95, seed=7
    )
    index = LSHIndex()
    pairs, sims = index.candidate_pairs(matrix)

    metrics = {
        "minhash": _metric(
            lambda: minhash_signatures(matrix, index.siglen, seed=index.seed),
            repeats,
        ),
        "cluster": _metric(
            lambda: cluster_rows(matrix, pairs, sims, threshold_size=256),
            repeats,
        ),
        # Reads round 2 so the cell times the whole Fig. 5 build.
        "build_plan": _metric(
            lambda: build_plan(matrix, ReorderConfig()).stats, max(2, repeats - 3)
        ),
    }
    # Streaming cells: one value-only set-delta (overwrite existing
    # entries, ~2% of the rows dirty) absorbed by ``apply_delta``, which
    # keeps the plan's decisions and re-tiles the new values, vs a full
    # from-scratch rebuild of the mutated matrix.  Each is gated against
    # its own baseline.  Their ratio, ``plan_patch_vs_rebuild``, is
    # recorded under ``reference`` and not gated: a faster rebuild would
    # read as a regression of it.  Reading
    # ``plan0.stats`` runs the old plan's round 2 before the update is
    # timed, so the successor reuses it and returns round 2 (the
    # successor of a pending plan would leave it pending); the rebuild
    # reads it too.
    config = ReorderConfig()
    plan0 = build_plan(matrix, config)
    plan0.stats
    rng = np.random.default_rng(11)
    n_dirty = max(1, matrix.nnz // 1000)
    idx = np.sort(rng.choice(matrix.nnz, size=n_dirty, replace=False))
    delta = DeltaBatch(
        rows=matrix.row_ids()[idx],
        cols=matrix.colidx[idx],
        values=rng.normal(size=n_dirty),
        mode="set",
    )
    mutated = delta.apply_to(matrix)
    metrics["plan_patch"] = _metric(
        lambda: apply_delta(plan0, delta, config), repeats
    )
    metrics["plan_rebuild"] = _metric(
        lambda: build_plan(mutated, config).stats, repeats
    )
    workload = {
        "matrix": "bipartite_ratings(2048, 2048, 20, n_taste_groups=64, "
        "concentration=0.95, seed=7)",
        "n_rows": matrix.n_rows,
        "nnz": matrix.nnz,
        "lsh": "LSHIndex() defaults",
        "minhash": "minhash, cluster and stage time minhash_signatures and "
        "cluster_rows with no backend: the numpy and Python references, not "
        "the cc loops builds run",
        "n_candidate_pairs": int(pairs.shape[0]),
        "delta": f"set-delta, {n_dirty} existing entries overwritten "
        "(~0.1% nnz), seed 11",
    }
    speedups = {}
    # The round-1 stages on the compiled backend, omitted (never measured
    # as numpy) when it degrades; the numpy cells above keep their names.
    if backend != "numpy":
        from repro.errors import DegradedExecution
        from repro.kernels.backends import load_backend

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecution)
            loaded = load_backend(backend)
        if loaded.backend != backend:
            workload["backend_degraded"] = list(loaded.provenance)
        else:
            metrics[f"minhash@{backend}"] = _metric(
                lambda: minhash_signatures(
                    matrix, index.siglen, seed=index.seed, backend=backend
                ),
                repeats,
            )
            metrics[f"cluster@{backend}"] = _metric(
                lambda: cluster_rows(
                    matrix, pairs, sims, threshold_size=256, backend=backend
                ),
                repeats,
            )
            for stage in ("minhash", "cluster"):
                speedups[f"{stage}_{backend}_vs_numpy"] = round(
                    metrics[stage]["median_ms"]
                    / metrics[f"{stage}@{backend}"]["median_ms"],
                    3,
                )
    stage_ms = round(
        metrics["minhash"]["median_ms"] + metrics["cluster"]["median_ms"], 4
    )
    metrics["stage"] = {
        "median_ms": stage_ms,
        "p95_ms": round(
            metrics["minhash"]["p95_ms"] + metrics["cluster"]["p95_ms"], 4
        ),
        "repeats": repeats,
        "alloc_peak_bytes": max(
            metrics["minhash"]["alloc_peak_bytes"],
            metrics["cluster"]["alloc_peak_bytes"],
        ),
    }
    # Reference medians measured at commit 5539229 (same machine, same
    # workload), before preprocessing was first optimised — kept so the
    # trajectory file records the speedup since.  This is
    # an *absolute* cross-machine reference, so it lives under
    # ``reference`` (informational), not ``speedups`` (gated): a slower
    # CI runner must not fail the gate for taking longer than the
    # machine the reference was measured on.
    pre_pr = {"minhash": 26.7, "cluster": 175.8, "stage": 202.4}
    return {
        "name": "preproc",
        "quick": quick,
        "workload": workload,
        "metrics": metrics,
        "speedups": speedups,
        "reference": {
            "pre_pr_median_ms": pre_pr,
            "stage_vs_pre_pr": round(pre_pr["stage"] / stage_ms, 3),
            "plan_patch_vs_rebuild": round(
                metrics["plan_rebuild"]["median_ms"]
                / metrics["plan_patch"]["median_ms"],
                3,
            ),
        },
    }


#: Registered suites: name -> runner(quick, backend) -> result document.
SUITES = {"kernels": _suite_kernels, "preproc": _suite_preproc}


def run_suite(name: str, *, quick: bool = False, backend: str = "numpy") -> dict:
    """Run one registered suite and return its result document.

    ``backend`` selects the compiled kernel backend dimension
    (:mod:`repro.kernels.backends`): each suite adds ``@<backend>``
    cells for the compiled paths it covers.
    """
    try:
        suite = SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown bench suite {name!r}; expected one of {sorted(SUITES)}"
        ) from None
    return suite(quick, backend)


# ----------------------------------------------------------------------
# gating
def baseline_path(name: str, directory) -> Path:
    """Path of the committed baseline document for suite ``name``."""
    return Path(directory) / f"BENCH_{name}.json"


def compare_results(
    baseline: dict, current: dict, tolerance: float = DEFAULT_TOLERANCE
) -> list[dict]:
    """Compare a fresh suite run against its baseline document.

    Returns one row per shared metric/speedup with the relative drift and
    a ``regressed`` flag: a timing regresses when its median grows past
    ``baseline * (1 + tolerance)``, a speedup when it falls below
    ``baseline * (1 - tolerance)``.  Metrics present on only one side are
    skipped — adding a metric must not fail the gate retroactively.
    """
    rows = []
    base_metrics = baseline.get("metrics", {})
    for key, cur in current.get("metrics", {}).items():
        base = base_metrics.get(key)
        if base is None:
            continue
        ratio = cur["median_ms"] / base["median_ms"] if base["median_ms"] else 1.0
        rows.append(
            {
                "kind": "metric",
                "name": key,
                "baseline": base["median_ms"],
                "current": cur["median_ms"],
                "ratio": round(ratio, 3),
                "regressed": ratio > 1.0 + tolerance,
            }
        )
    base_speedups = baseline.get("speedups", {})
    for key, cur_value in current.get("speedups", {}).items():
        base_value = base_speedups.get(key)
        if base_value is None:
            continue
        ratio = cur_value / base_value if base_value else 1.0
        rows.append(
            {
                "kind": "speedup",
                "name": key,
                "baseline": base_value,
                "current": cur_value,
                "ratio": round(ratio, 3),
                "regressed": ratio < 1.0 - tolerance,
            }
        )
    return rows


def format_report(name: str, rows: list[dict], tolerance: float) -> str:
    """Human-readable comparison table for one suite."""
    lines = [f"suite {name} (tolerance {tolerance:.0%}):"]
    for row in rows:
        unit = "ms" if row["kind"] == "metric" else "x"
        verdict = "REGRESSED" if row["regressed"] else "ok"
        lines.append(
            f"  {row['name']:<32} {row['baseline']:>10.3f}{unit} -> "
            f"{row['current']:>10.3f}{unit}  ({row['ratio']:.3f})  {verdict}"
        )
    if not rows:
        lines.append("  (no shared metrics to compare)")
    return "\n".join(lines)


def run_gate(
    names=None,
    *,
    quick: bool = False,
    tolerance: float = DEFAULT_TOLERANCE,
    baseline_dir=".",
    out_dir=None,
    update_baseline: bool = False,
    backend: str = "numpy",
) -> tuple[int, str]:
    """Run suites, write fresh ``BENCH_*.json`` files, gate on baselines.

    Parameters
    ----------
    names:
        Suites to run (default: all registered).
    quick:
        Fewer repetitions per metric — noisier medians, same workloads.
    tolerance:
        Allowed relative drift (see :func:`compare_results`).
    baseline_dir:
        Directory holding the committed ``BENCH_<name>.json`` baselines.
    out_dir:
        Where fresh result documents are written (defaults to
        ``baseline_dir`` when updating the baseline, otherwise nowhere —
        pass a directory to keep artifacts, e.g. for CI upload).
    update_baseline:
        Overwrite the baselines with the fresh numbers instead of gating.
    backend:
        Compiled kernel backend dimension, threaded to every suite (see
        :func:`run_suite`).

    Returns
    -------
    tuple[int, str]
        Process exit code (1 on any regression, 0 otherwise) and the
        formatted report text.
    """
    names = list(names) if names else sorted(SUITES)
    chunks = []
    failed = False
    for name in names:
        result = run_suite(name, quick=quick, backend=backend)
        target = None
        if update_baseline:
            target = baseline_path(name, out_dir or baseline_dir)
        elif out_dir is not None:
            target = baseline_path(name, out_dir)
        if target is not None:
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
            chunks.append(f"wrote {target}")
        if update_baseline:
            continue
        base_file = baseline_path(name, baseline_dir)
        if not base_file.exists():
            chunks.append(
                f"suite {name}: no baseline at {base_file} — run with "
                "--update-baseline to create it"
            )
            failed = True
            continue
        baseline = json.loads(base_file.read_text(encoding="utf-8"))
        rows = compare_results(baseline, result, tolerance)
        chunks.append(format_report(name, rows, tolerance))
        if any(row["regressed"] for row in rows):
            failed = True
    return (1 if failed else 0), "\n".join(chunks)
