"""The serve-warm workload: ``repro serve`` in its own process, driven by
two closed-loop client processes.

The parent starts the server on a fresh UNIX socket under ``perfbench/out``,
uploads and serves each set-up round's two matrices once, then starts one
client process per core.  Each client owns one matrix and one tenant, so
coalescing and quotas never depend on timing, and cycles fingerprint
``spmm`` requests through K = 8, 64, 512, waiting for every reply before
sending the next request.  Clients are processes, not threads, so their
JSON codec work does not queue on one interpreter lock.  ``metrics``
snapshots taken just before the clients start and just after they finish
scope the server counters to the timed window; the ``drain`` op stops the
server, whose exit code is checked.  Through the window a thread of the
otherwise idle parent takes the host probes that scale the run's times
(see :mod:`run`).
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import threading
import time

import numpy as np

from harness import OUT_DIR, Outcome, median, peak_rss_mb, src_env, stop_process, tail

KS = (8, 64, 512)
N_CLIENTS = 2
#: Per-tenant token-bucket rate and burst: far above what a closed loop of
#: two clients can send, so no request is ever refused by quota.
QUOTA = "1000000"
#: Seconds between host probes during the timed window.
PROBE_INTERVAL_S = 0.5
_START_TIMEOUT_S = 60.0
_WINDOW_TIMEOUT_S = 150.0


def serve_config(socket_path: str):
    """The configuration the server runs with (also used for references)."""
    from repro.serve import ServeConfig

    return ServeConfig(unix_path=socket_path, quota_rate=float(QUOTA),
                       quota_burst=float(QUOTA))


def _server_command(cfg) -> list[str]:
    return [
        sys.executable, "-m", "repro.cli", "serve", "--unix-socket", cfg.unix_path,
        "--workers", str(cfg.workers), "--max-inflight", str(cfg.max_inflight),
        "--quota-rate", QUOTA, "--quota-burst", QUOTA,
        "--panel-height", str(cfg.panel_height), "--chunk-k", str(cfg.chunk_k),
    ]


def _readline(proc: subprocess.Popen, timeout: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise TimeoutError(f"no line from process {proc.pid} within {timeout}s")
    return proc.stdout.readline().strip()


def _connect(socket_path: str, server: subprocess.Popen):
    """Wait for the server's socket, then for its first answered ``ping``."""
    from repro.serve import ServeClient

    give_up = time.monotonic() + _START_TIMEOUT_S
    while not os.path.exists(socket_path):
        if server.poll() is not None:
            raise RuntimeError(f"server exited with code {server.returncode} before listening")
        if time.monotonic() > give_up:
            raise TimeoutError("server did not create its socket in time")
        time.sleep(0.01)
    client = ServeClient(socket_path, timeout=_WINDOW_TIMEOUT_S)
    if client.ping().get("status") != "ok":
        raise RuntimeError("server did not answer ping")
    return client


def _require_ok(response: dict, what: str) -> dict:
    if response.get("status") != "ok":
        raise RuntimeError(f"{what}: status {response.get('status')!r} {response.get('error', '')}")
    return response


def _counter_deltas(before: dict, after: dict) -> dict:
    def delta(name):
        return after.get(name, 0) - before.get(name, 0)

    hist_a, hist_b = after["serve.latency_s"], before["serve.latency_s"]
    served = hist_a["count"] - hist_b["count"]
    return {
        "serve.pool_miss": delta("serve.pool_miss"),
        "serve.batches": delta("serve.batches"),
        "serve.coalesced": delta("serve.coalesced"),
        "serve.rejected": delta("serve.rejected_overload") + delta("serve.rejected_quota"),
        "server_requests": served,
        "server_s": (hist_a["sum"] - hist_b["sum"]) / served if served else 0.0,
    }


def _codec_seconds(x: np.ndarray, y: np.ndarray, fingerprint: str) -> float:
    """Encode and decode one K=512 request and response, in this process."""
    from repro.serve.protocol import decode_message, dense_from_wire, encode_message

    start = time.perf_counter()
    line = encode_message({"op": "spmm", "x": x.tolist(), "fingerprint": fingerprint,
                           "tenant": "tenant-0"})
    dense_from_wire(decode_message(line)["x"], rows=x.shape[0])
    decode_message(encode_message({"status": "ok", "result": y.tolist(), "rung": "full"}))
    return time.perf_counter() - start


def serve_warm(inputs, clock, n_requests: int, setup_reps: int) -> Outcome:
    """``n_requests`` per client; see the module docstring.

    Anything that fails before the clients report (server start, set-up,
    drain) raises; the server's output is then attached to the exception
    so the caller can keep it in the result.
    """
    out = Outcome()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tag = f"{os.getpid()}-{inputs.seed}"
    # A relative path stays far below the UNIX socket path limit.
    socket_path = str(OUT_DIR / f"serve-{tag}.sock")
    log_path = OUT_DIR / f"serve-{tag}.log"
    if os.path.exists(socket_path):
        os.unlink(socket_path)
    cfg = serve_config(socket_path)
    procs: list[subprocess.Popen] = []
    try:
        with open(log_path, "wb") as log:
            server = subprocess.Popen(_server_command(cfg), env=src_env(),
                                      stdout=log, stderr=subprocess.STDOUT)
            procs.append(server)
            _drive(inputs, clock, n_requests, setup_reps, cfg, server, procs, out, log_path)
    except Exception as exc:
        for proc in procs:
            stop_process(proc)
        exc.server_log = _logs(log_path)
        raise
    finally:
        for proc in procs:
            stop_process(proc)
    if out.failures:
        out.report["server_log"] = _logs(log_path)
    for path in OUT_DIR.glob(f"serve-{tag}.*log"):
        path.unlink()
    return out


def _logs(log_path) -> str:
    """The tail of the server's and the clients' output."""
    text = ""
    for path in sorted(log_path.parent.glob(log_path.stem + ".*log")):
        text += f"--- {path.name}\n" + path.read_text(errors="replace")[-4000:]
    return text


def _drive(inputs, clock, n_requests, setup_reps, cfg, server, procs, out, log_path) -> None:
    from repro.reorder import build_plan

    ctl = _connect(cfg.unix_path, server)
    fingerprints = []
    for r in range(setup_reps):
        mats = [inputs.serve_matrix(r, j) for j in range(N_CLIENTS)]
        x8 = inputs.operand(mats[0].n_cols, 8, "serve")
        with clock.setting_up():
            fingerprints = []
            for j, m in enumerate(mats):
                fp = _require_ok(ctl.upload(m), "upload")["fingerprint"]
                _require_ok(ctl.spmm(x8, fingerprint=fp, tenant=f"tenant-{j}"), "first spmm")
                fingerprints.append(fp)

    clients = []
    for j, fp in enumerate(fingerprints):
        args = {"seed": inputs.seed, "smoke": inputs.smoke, "round": setup_reps - 1,
                "index": j, "socket": cfg.unix_path, "fingerprint": fp,
                "tenant": f"tenant-{j}", "requests": n_requests,
                "trace_every": clock.every if clock.tracer is not None else 0,
                "epoch": clock.epoch}
        with open(log_path.with_suffix(f".client{j}.log"), "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, os.path.join("perfbench", "run.py"), "--serve-client",
                 json.dumps(args)],
                env=src_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                text=True,
            )
        procs.append(proc)
        clients.append(proc)
    for proc in clients:
        if _readline(proc, _START_TIMEOUT_S) != "ready":
            raise RuntimeError(f"client {proc.pid} did not get ready")

    before = _require_ok(ctl.metrics(), "metrics")["metrics"]
    # Host probes through the window, from a thread of this otherwise idle
    # process, a few per second.
    stop = threading.Event()
    sampler = threading.Thread(target=_sample_host, args=(clock, stop))
    sampler.start()
    try:
        for proc in clients:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        results = []
        for proc in clients:
            stdout, _ = proc.communicate(timeout=_WINDOW_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"client {proc.pid} exited with code {proc.returncode}")
            results.append(json.loads(stdout.strip().splitlines()[-1]))
    finally:
        stop.set()
        sampler.join()
    after = _require_ok(ctl.metrics(), "metrics")["metrics"]
    out.peak_rss_mb = peak_rss_mb(server.pid)
    _require_ok(ctl.drain(), "drain")
    ctl.close()
    code = server.wait(timeout=cfg.drain_timeout_s + 30)

    requests = [tuple(entry) for res in results for entry in res["latencies"]]
    for _, seconds, traced in requests:
        (clock.traced_latencies if traced else clock.untraced).append(seconds)
    out.attempted += len(requests)
    for res in results:
        out.failures.extend(res["failures"])
    if code != 0:
        out.attempted += 1
        out.failures.append(f"server exited with code {code} after drain")
    window = max(r["end"] for r in results) - min(r["start"] for r in results)
    out.throughput_per_s = len(requests) / window
    counts = _counter_deltas(before, after)
    by_k = {}
    for k in KS:
        seconds = [s for kk, s, _ in requests if kk == k]
        value, percentile, n = tail(seconds)
        by_k[k] = {"p50_s": median(seconds), "tail_s": value, "tail_percentile": percentile,
                   "samples": n}
    out.report["serve"] = {"window_s": window, "requests": len(requests),
                           "clients": N_CLIENTS, "by_k": by_k, **counts}
    out.report["trace_events"] = [e for res in results for e in res.get("trace_events", [])]

    if clock.tracer is not None:
        m = inputs.serve_matrix(setup_reps - 1, 0)
        session = build_plan(m, cfg.reorder_config()).session(chunk_k=cfg.chunk_k)
        xs = {k: inputs.operand(m.n_cols, k, "serve") for k in KS}
        traced_requests = [(k, s) for k, s, traced in requests if traced]
        for k in KS:
            client = median(s for kk, s in traced_requests if kk == k)
            runs = []
            for _ in range(5):
                t0 = time.perf_counter()
                session.run(xs[k])
                runs.append(time.perf_counter() - t0)
            out.layers[f"serve.client_s.k{k}"] = client
            out.layers[f"serve.multiply_s.k{k}"] = median(runs)
            out.layers[f"serve.outside_multiply_share.k{k}"] = 1.0 - median(runs) / client
        y = session.run(xs[512]).copy()
        out.layers["serve.codec_s.k512"] = median(
            _codec_seconds(xs[512], y, fingerprints[0]) for _ in range(3))
        mean_client = sum(s for _, s, _ in requests) / len(requests)
        out.layers["serve.server_s"] = counts["server_s"]
        out.layers["serve.outside_server_s"] = mean_client - counts["server_s"]
        out.layers["serve.request_bytes.k512"] = median(r["request_bytes"] for r in results)
        out.layers["serve.response_bytes.k512"] = median(r["response_bytes"] for r in results)
        for name in ("serve.pool_miss", "serve.batches", "serve.coalesced", "serve.rejected"):
            out.layers[name] = float(counts[name])


def _sample_host(clock, stop: threading.Event) -> None:
    while not stop.wait(PROBE_INTERVAL_S):
        clock.probe()


def _check_response(response: dict, expected: np.ndarray) -> str | None:
    if response.get("status") != "ok":
        return f"status {response.get('status')!r}: {response.get('error', '')}"
    if response.get("rung") != "full" or response.get("coalesced"):
        return f"served on rung {response.get('rung')!r}, coalesced={response.get('coalesced')}"
    if not np.array_equal(np.asarray(response["result"], dtype=np.float64), expected):
        return "result differs from the in-process plan session"
    return None


def client_main(arg: str) -> int:
    """One closed-loop client (run as ``run.py --serve-client <json>``).

    Rebuilds its matrix and operands from the seed, computes the expected
    results in process (``build_plan`` with the server's reorder config and
    ``chunk_k``), prints ``ready``, waits for ``go`` on stdin, runs its
    requests and prints one JSON line with latencies and failures.
    """
    from repro.observability import Tracer, span
    from repro.reorder import build_plan
    from repro.serve import ServeClient
    from repro.serve.protocol import encode_message, matrix_fingerprint

    from inputs import Inputs

    a = json.loads(arg)
    inputs = Inputs(a["seed"], smoke=a["smoke"])
    m = inputs.serve_matrix(a["round"], a["index"])
    failures = []
    if matrix_fingerprint(m) != a["fingerprint"]:
        failures.append("regenerated matrix does not match the uploaded fingerprint")
    cfg = serve_config(a["socket"])
    session = build_plan(m, cfg.reorder_config()).session(chunk_k=cfg.chunk_k)
    xs = {k: inputs.operand(m.n_cols, k, "serve") for k in KS}
    expected = {k: session.run(xs[k]).copy() for k in KS}
    every = a["trace_every"]
    epoch = time.perf_counter()
    tracer = Tracer() if every else None
    latencies = []
    sizes = {}
    with ServeClient(a["socket"], timeout=_WINDOW_TIMEOUT_S) as client:
        print("ready", flush=True)
        if sys.stdin.readline().strip() != "go":
            return 1
        start = time.perf_counter()
        for i in range(a["requests"]):
            k = KS[i % len(KS)]
            traced = tracer is not None and i % every == every - 1
            if traced:
                tracer.install()
            try:
                with span("serve.request", k=k, tenant=a["tenant"]):
                    t0 = time.perf_counter()
                    try:
                        response = client.spmm(xs[k], fingerprint=a["fingerprint"],
                                               tenant=a["tenant"])
                        problem = None
                    except Exception as exc:  # counted as a failed request
                        response, problem = None, f"{type(exc).__name__}: {exc}"
                    elapsed = time.perf_counter() - t0
            finally:
                if traced:
                    tracer.uninstall()
            latencies.append([k, elapsed, traced])
            problem = problem or _check_response(response, expected[k])
            if problem:
                failures.append(f"{a['tenant']} request {i} (K={k}): {problem}")
            elif k == 512 and not sizes:
                request = {"op": "spmm", "x": xs[k].tolist(),
                           "fingerprint": a["fingerprint"], "tenant": a["tenant"]}
                sizes = {"request_bytes": len(encode_message(request)),
                         "response_bytes": len(encode_message(response))}
        end = time.perf_counter()
    events = []
    if tracer is not None:
        shift = (epoch - a.get("epoch", epoch)) * 1e6
        for event in tracer.chrome_trace()["traceEvents"]:
            event["ts"] = round(event["ts"] + shift, 3)
            events.append(event)
    print(json.dumps({"latencies": latencies, "failures": failures, "start": start,
                      "end": end, "trace_events": events,
                      "request_bytes": sizes.get("request_bytes", 0),
                      "response_bytes": sizes.get("response_bytes", 0)}))
    return 0
