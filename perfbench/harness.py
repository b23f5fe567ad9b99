"""Measurement plumbing shared by the perfbench workloads.

Nothing here calls into ``repro`` at import time: the entry point puts the
checkout's ``src`` on the path first, so a directory without the program
fails in :mod:`run` before any of this is used.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path("perfbench") / "out"

#: Span name -> layer (module) for self-time accounting.  Names not listed
#: fall back to their dotted prefix (``streaming.tile`` -> ``streaming``).
SPAN_LAYER = {
    "op": "bench",
    "build_plan": "reorder",
    "permute1": "reorder",
    "sim2": "reorder",
    "plan_rung": "reorder",
    "lsh1": "similarity",
    "lsh2": "similarity",
    "lsh": "similarity",
    "minhash": "similarity",
    "score_pairs": "similarity",
    "cluster1": "clustering",
    "cluster2": "clustering",
    "tile": "aspt",
    "kernel.run": "kernels",
    "backend.compile": "kernels",
}


def span_layer(name: str) -> str:
    """The layer a span belongs to (see :data:`SPAN_LAYER`)."""
    return SPAN_LAYER.get(name, name.split(".", 1)[0])


#: Median seconds of one :func:`host_probe` on the host the op rates and
#: bounds were tuned on (a 2-core Intel Xeon VM, in a calm period).
PROBE_REF_S = 0.010


def host_probe() -> float:
    """CPU seconds for a fixed piece of pure-Python work that calls nothing
    of the program: a reading of how fast the host runs this process now.
    CPU time, not wall time, so a probe taken while the benchmark's own
    processes queue for the cores reads the host and not that queue."""
    start = time.thread_time()
    total = 0
    for i in range(150_000):
        total += i * i
    return time.thread_time() - start


def median(values) -> float:
    """Median of a sequence (0.0 for an empty one)."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, samples)`` of the highest percentile that has
    at least ten samples beyond it.

    The value is an order statistic (a sample actually observed): the
    ``(n - 10)``-th smallest of ``n``.  Below 21 samples no percentile at or
    above the median qualifies; the maximum is reported as the 100th
    percentile so tiny smoke runs still print a tail above their median.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n < 21:
        return float(ordered[-1]), 100.0, n
    return float(ordered[n - 11]), round(100.0 * (n - 10) / n, 2), n


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


def counter_value(name: str) -> int:
    """Current value of a process-global ``repro`` counter."""
    from repro.observability import METRICS

    return METRICS.counter(name).value


def src_env() -> dict:
    """Environment for child processes: the checkout's ``src`` on the path."""
    src = str(ROOT / "src")
    extra = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + extra if extra else ""))


def stop_process(proc: subprocess.Popen, timeout: float = 10.0) -> int | None:
    """Terminate ``proc`` if it still runs, and wait until it has ended."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout)
    return proc.returncode


@dataclass
class Outcome:
    """What one workload body measured and checked."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    #: Per-op samples, keyed by per-layer metric name.
    samples: dict = field(default_factory=dict)
    #: Final per-layer values that are not medians of samples.
    layers: dict = field(default_factory=dict)
    #: Facts for the detailed report (roles, counts, server log, ...).
    report: dict = field(default_factory=dict)
    peak_rss_mb: float | None = None
    throughput_per_s: float | None = None

    def sample(self, name: str, value) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def run_ops(self, n_ops: int, op) -> None:
        """Run ``op(i)`` for every op; an exception or a returned problem
        string counts the op as failed and the run goes on."""
        for i in range(n_ops):
            self.attempted += 1
            try:
                problem = op(i)
            except Exception as exc:  # a failed op is counted, never fatal
                problem = f"{type(exc).__name__}: {exc}"
            if problem:
                self.failures.append(f"op {i}: {problem}")

    def per_layer(self) -> dict:
        """Every per-layer value: medians of the samples, then ``layers``."""
        out = {name: median(values) for name, values in self.samples.items()}
        out.update(self.layers)
        return out


class Clock:
    """Times ops and set-ups, and owns the tracer of a traced run.

    ``traced(i)`` decides per op whether the tracer records it: never in an
    untraced run, every second op for the named workload of a traced run
    (the untraced half is the reference for the tracing overhead), and
    every op for the other workloads a traced run probes.
    """

    def __init__(self, tracer=None, *, every: int = 0, epoch: float = 0.0) -> None:
        self.tracer = tracer
        self.every = every
        #: ``perf_counter`` reading taken as the tracer was created, so
        #: spans from client processes can be placed on its timeline.
        self.epoch = epoch
        self.untraced: list[float] = []
        self.traced_latencies: list[float] = []
        self.setup: list[float] = []
        #: :func:`host_probe` readings taken through the run.
        self.probes: list[float] = []

    def probe(self, times: int = 1) -> None:
        """Take ``times`` host probes (never inside a timed block)."""
        self.probes.extend(host_probe() for _ in range(times))

    def traced(self, i: int) -> bool:
        return self.tracer is not None and self.every > 0 and i % self.every == self.every - 1

    @contextmanager
    def recording(self, on: bool):
        """Install the tracer for the block when ``on``."""
        if not on:
            yield
            return
        self.tracer.install()
        try:
            yield
        finally:
            self.tracer.uninstall()

    @contextmanager
    def op(self, i: int, **attrs):
        """Time one op; the caller's block is the whole op."""
        from repro.observability import span

        on = self.traced(i)
        self.probe()
        gc.collect()
        with self.recording(on), span("op", index=i, **attrs):
            start = time.perf_counter()
            yield on
            elapsed = time.perf_counter() - start
        (self.traced_latencies if on else self.untraced).append(elapsed)

    @contextmanager
    def setting_up(self):
        """Time one repetition of the workload's set-up."""
        self.probe()
        gc.collect()
        start = time.perf_counter()
        yield
        self.setup.append(time.perf_counter() - start)


def self_times(tracer, workload: str) -> dict[str, list[float]]:
    """Per-op self time of every layer, from the ``op`` spans of one workload.

    A span's self time is its duration minus its children's; spans nest
    sequentially within one thread, so the children never overlap.
    """
    out: dict[str, list[float]] = {}
    for root in tracer.roots:
        if root.name != "op" or root.attrs.get("workload") != workload:
            continue
        per_layer: dict[str, float] = {}
        stack = [root]
        while stack:
            node = stack.pop()
            own = node.duration - sum(child.duration for child in node.children)
            layer = span_layer(node.name)
            per_layer[layer] = per_layer.get(layer, 0.0) + own
            stack.extend(node.children)
        for layer, value in per_layer.items():
            out.setdefault(layer, []).append(value)
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_digest() -> str:
    """SHA-256 over the paths and bytes of every file under ``src``."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(seed: int, workload: str, params: dict, why: str) -> dict:
    """The environment block every result carries."""
    import numpy as np

    return {
        "cpu_model": _cpu_model(),
        "allowed_cores": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        # The benchmark also runs from exported trees without git metadata;
        # the source digest identifies the code under test there.
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "workload": workload,
        "why": why,
        "params": params,
        "argv": sys.argv[1:],
    }
