"""A small synchronous client for the ``repro serve`` protocol.

Deliberately plain blocking sockets: the client is used by the CLI
(``repro doctor --serve``), by tests (which drive an in-process server
from worker threads) and as executable documentation of the wire
protocol.  One request, one response, in order, per connection.
"""

from __future__ import annotations

import socket

import numpy as np

from repro.errors import ReproIOError, ValidationError
from repro.serve.protocol import (
    decode_message,
    delta_to_wire,
    encode_message,
    matrix_to_wire,
)

__all__ = ["ServeClient", "parse_address"]


def parse_address(address: str):
    """Parse a CLI address: ``host:port`` (TCP) or a path (UNIX socket).

    >>> parse_address("127.0.0.1:7077")
    ('127.0.0.1', 7077)
    >>> parse_address("/tmp/repro.sock")
    '/tmp/repro.sock'
    """
    if "/" in address or address.startswith("@"):
        return address
    host, sep, port = address.rpartition(":")
    if not sep:
        raise ValidationError(
            f"address must be host:port or a UNIX socket path, got {address!r}"
        )
    try:
        return (host or "127.0.0.1", int(port))
    except ValueError as exc:
        raise ValidationError(f"invalid port in address {address!r}") from exc


class ServeClient:
    """Blocking NDJSON client (context-manager; one connection).

    ``address`` is a ``(host, port)`` pair or a UNIX socket path (the
    return shape of :func:`parse_address`).
    """

    def __init__(self, address, *, timeout: float | None = 30.0) -> None:
        self.address = address
        try:
            if isinstance(address, str):
                self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                self._sock.settimeout(timeout)
                self._sock.connect(address)
            else:
                host, port = address
                self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise ReproIOError(f"cannot connect to {address!r}: {exc}") from exc
        self._file = self._sock.makefile("rb")

    # ------------------------------------------------------------------
    def request(self, msg: dict) -> dict:
        """Send one message and block for its response."""
        try:
            self._sock.sendall(encode_message(msg))
            line = self._file.readline()
        except OSError as exc:
            raise ReproIOError(f"request to {self.address!r} failed: {exc}") from exc
        if not line:
            raise ReproIOError(
                f"server at {self.address!r} closed the connection mid-request"
            )
        return decode_message(line)

    def ping(self) -> dict:
        """Liveness probe; returns ``{"status": "ok", "pong": true, ...}``."""
        return self.request({"op": "ping"})

    def upload(self, csr) -> dict:
        """Upload a :class:`~repro.sparse.CSRMatrix`; returns its fingerprint."""
        return self.request({"op": "upload", "matrix": matrix_to_wire(csr)})

    def spmm(
        self,
        x: np.ndarray,
        *,
        fingerprint: str | None = None,
        matrix=None,
        deadline_s: float | None = None,
        tenant: str | None = None,
        request_id=None,
    ) -> dict:
        """One multiply request; returns the raw response dict.

        On ``status == "ok"`` the dense result is under ``"result"`` —
        use :meth:`result_array` to get it back as float64.
        """
        msg: dict = {"op": "spmm", "x": np.asarray(x, dtype=np.float64).tolist()}
        if fingerprint is not None:
            msg["fingerprint"] = fingerprint
        if matrix is not None:
            msg["matrix"] = matrix_to_wire(matrix)
        if deadline_s is not None:
            msg["deadline_s"] = deadline_s
        if tenant is not None:
            msg["tenant"] = tenant
        if request_id is not None:
            msg["id"] = request_id
        return self.request(msg)

    def delta(self, fingerprint: str, delta) -> dict:
        """Stream a :class:`~repro.streaming.DeltaBatch` into ``fingerprint``.

        On ``status == "ok"`` the response carries the mutated matrix's
        new ``fingerprint`` (use it for subsequent ``spmm`` requests) and
        the number of warm sessions the update invalidated.
        """
        return self.request(
            {"op": "delta", "fingerprint": fingerprint, "delta": delta_to_wire(delta)}
        )

    @staticmethod
    def result_array(response: dict) -> np.ndarray:
        """The dense result of an ``ok`` spmm response as float64."""
        if response.get("status") != "ok" or "result" not in response:
            raise ValidationError(
                f"response has no result (status={response.get('status')!r})"
            )
        return np.asarray(response["result"], dtype=np.float64)

    def health(self) -> dict:
        """Readiness/health snapshot (pool, admission, breaker state)."""
        return self.request({"op": "health"})

    def metrics(self) -> dict:
        """Flat snapshot of the server's metrics registry."""
        return self.request({"op": "metrics"})

    def drain(self) -> dict:
        """Ask the server to drain and shut down."""
        return self.request({"op": "drain"})

    def close(self) -> None:
        """Close the socket; the client cannot be reused afterwards."""
        self._file.close()
        self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
