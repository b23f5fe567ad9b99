"""Timestamped edge streams: the corpus for the streaming pipeline.

The streaming subsystem (:mod:`repro.streaming`) is exercised against
matrices that *drift* — graphs gaining edges, rating matrices gaining
users.  This module turns any generated matrix into such a workload:
:func:`edge_stream` decomposes it into a timestamped, exactly-replayable
:class:`MatrixStream`, and :func:`stream_corpus` assembles a named,
seeded set of streams spanning the same structure classes as the static
:func:`~repro.datasets.build_corpus`.

Exact replay is inherited from
:func:`~repro.streaming.split_into_deltas`: every non-zero is emitted by
exactly one delta, so folding the stream reproduces ``final`` bit for
bit — which is what lets the test battery compare an incrementally
maintained plan against a from-scratch build on the very same matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.sparse.csr import CSRMatrix
from repro.streaming.delta import split_into_deltas
from repro.util.validation import check_positive

__all__ = ["MatrixStream", "edge_stream", "stream_corpus"]


@dataclass(frozen=True)
class MatrixStream:
    """One replayable delta stream: ``base`` + ``deltas`` -> ``final``.

    Attributes
    ----------
    name:
        Human-readable stream identity (corpus key).
    base:
        The matrix before the first event batch.
    deltas:
        The timestamped :class:`~repro.streaming.DeltaBatch` sequence, in
        event-time order (monotonically increasing ``timestamp``).
    final:
        The matrix after the whole stream — replaying ``deltas`` on
        ``base`` reproduces it bit for bit.
    """

    name: str
    base: CSRMatrix
    deltas: tuple
    final: CSRMatrix

    @property
    def n_batches(self) -> int:
        """Number of delta batches in the stream."""
        return len(self.deltas)

    @property
    def n_events(self) -> int:
        """Total non-zero events across all batches."""
        return sum(d.n_entries for d in self.deltas)


def edge_stream(
    csr: CSRMatrix,
    n_batches: int,
    *,
    name: str = "stream",
    seed=0,
    grow_rows: bool = True,
    start_time: float = 0.0,
    dt: float = 1.0,
) -> MatrixStream:
    """Decompose ``csr`` into a timestamped :class:`MatrixStream`.

    Batch ``b`` is stamped ``start_time + b * dt`` (event seconds,
    caller-defined epoch).  With ``grow_rows=True`` (the default
    workload) the stream starts from an empty matrix and appends row
    blocks with a trickle of later insertions into existing rows; with
    ``grow_rows=False`` the shape is fixed and batches only insert
    non-zeros.  Deterministic for a fixed ``(csr, n_batches, seed)``.
    """
    check_positive("n_batches", n_batches)
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    base, deltas = split_into_deltas(csr, n_batches, seed=seed, grow_rows=grow_rows)
    stamped = tuple(
        replace(d, timestamp=float(start_time) + i * float(dt))
        for i, d in enumerate(deltas)
    )
    return MatrixStream(name=name, base=base, deltas=stamped, final=csr)


def stream_corpus(seed=0, *, n_batches: int = 12) -> list[MatrixStream]:
    """A small named corpus of streams over the static structure classes.

    One stream per drifting-workload family the ROADMAP north-star
    serves: a power-law graph gaining edges (``rmat-growing``), a rating
    matrix gaining users (``ratings-growing``) and a pre-clustered
    small-world graph receiving in-place edge insertions at fixed shape
    (``small-world-infill``).  Deterministic for a fixed ``seed``.
    """
    from repro.datasets.graphs import bipartite_ratings, rmat, small_world

    seed = int(seed)
    specs = [
        ("rmat-growing", rmat(7, 8, seed=seed), True),
        (
            "ratings-growing",
            bipartite_ratings(384, 192, 10, seed=seed + 1),
            True,
        ),
        ("small-world-infill", small_world(256, 4, 0.05, seed=seed + 2), False),
    ]
    return [
        edge_stream(
            csr,
            n_batches,
            name=name,
            seed=seed + 10 + i,
            grow_rows=grow,
        )
        for i, (name, csr, grow) in enumerate(specs)
    ]
