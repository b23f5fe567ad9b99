"""Incrementally maintained MinHash/LSH state for streaming plans.

:class:`LshState` holds everything the round-1 candidate generation of
:func:`repro.reorder.build_plan` derives from the matrix — MinHash
signatures, per-band bucket keys, and the scored candidate pairs — in a
form that can be *patched* when a :class:`~repro.streaming.DeltaBatch`
dirties a few rows, instead of recomputed from scratch.

Exactness contract (the property suite asserts all of it): after
:meth:`LshState.update`, every field is bit-identical to what
:meth:`LshState.build` would produce on the mutated matrix.  The
ingredients:

* a row's MinHash signature depends only on its own columns and the
  seeded hash family, so recomputing dirty rows alone is exact;
* band bucket keys are per-row functions of the signature
  (:func:`repro.similarity.lsh.band_keys_matrix` with the state's pinned
  mixers), so dirty-row re-bucketing is exact;
* pair expansion runs through the very same
  :func:`repro.similarity.lsh.pairs_from_band_keys` code path the
  from-scratch build uses, on the maintained key matrix;
* pair similarities depend only on the two rows' content, so scores are
  carried over for pairs whose endpoints are both clean and recomputed
  otherwise — the recomputed values are what a full pass would produce.

Updates are copy-on-write: ``update`` returns a *new* state and never
mutates ``self``, so an interrupted streaming update cannot tear the
state the old plan still references.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.observability.metrics import METRICS
from repro.observability.tracing import span
from repro.similarity.lsh import band_keys_matrix, band_mixers, pairs_from_band_keys
from repro.similarity.measures import similarity_for_pairs
from repro.similarity.minhash import EMPTY_ROW_SENTINEL, minhash_signatures
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import extract_rows

__all__ = ["LshState"]

#: Pair key encoding stride: ``(lo, hi) -> lo * 2**32 + hi``.  Monotone in
#: lexicographic pair order (so encoded keys of the sorted unique pair
#: list are ascending and binary-searchable) and collision-free for any
#: matrix with fewer than 2**32 rows.
_PAIR_STRIDE = np.int64(1) << np.int64(32)

#: The similarity filter of :meth:`repro.similarity.LSHIndex.candidate_pairs`
#: at the pipeline's ``min_similarity=0`` default: keep strictly-positive
#: similarities, drop pure banding false positives.
_SIM_KEEP_THRESHOLD = np.finfo(np.float64).tiny


def _scored_pairs(signatures, band_keys, csr, config, deadline, previous=None,
                  changed=None):
    """Candidate pairs and their kept similarities from a key matrix.

    The from-scratch candidate pipeline (empty-row filter, the shared pair
    expansion, scoring, positive-similarity filter) minus the MinHash
    pass.  Given the ``previous`` state, a pair it already held whose
    endpoints are both outside ``changed`` keeps its old score instead of
    being rescored.  Returns ``(pairs, sims, n_rescored)``.
    """
    n_rows = csr.n_rows
    empty_pairs = np.empty((0, 2), dtype=np.int64)
    empty_sims = np.zeros(0, dtype=np.float64)
    if n_rows < 2:
        return empty_pairs, empty_sims, 0
    rows = np.arange(n_rows, dtype=np.int64)
    nonempty = ~(signatures == EMPTY_ROW_SENTINEL).all(axis=1)
    rows = rows[nonempty]
    if rows.size < 2:
        return empty_pairs, empty_sims, 0
    pairs = pairs_from_band_keys(
        band_keys[nonempty],
        rows,
        n_rows,
        bucket_cap=config.bucket_cap,
        deadline=deadline,
    )
    if pairs.shape[0] == 0:
        return pairs, empty_sims, 0

    sims = np.empty(pairs.shape[0], dtype=np.float64)
    rescore = np.ones(pairs.shape[0], dtype=bool)
    if previous is not None and previous.pairs.shape[0]:
        changed_mask = np.zeros(n_rows, dtype=bool)
        changed_mask[changed] = True
        clean = ~(changed_mask[pairs[:, 0]] | changed_mask[pairs[:, 1]])
        new_enc = pairs[:, 0] * _PAIR_STRIDE + pairs[:, 1]
        old_enc = previous.pairs[:, 0] * _PAIR_STRIDE + previous.pairs[:, 1]
        # Clipped, so a pair sorting after every old one compares unequal.
        pos = np.minimum(np.searchsorted(old_enc, new_enc), old_enc.size - 1)
        reuse = clean & (old_enc[pos] == new_enc)
        sims[reuse] = previous.sims[pos[reuse]]
        rescore = ~reuse
    n_rescored = int(rescore.sum())
    if n_rescored:
        sims[rescore] = similarity_for_pairs(csr, pairs[rescore], config.measure)
    keep = sims >= _SIM_KEEP_THRESHOLD
    return pairs[keep], sims[keep], n_rescored


@dataclass(frozen=True)
class LshState:
    """Round-1 candidate-generation state of one matrix (see module docs).

    Attributes
    ----------
    signatures:
        ``(n_rows, siglen)`` int64 MinHash signature matrix.
    band_keys:
        ``(n_rows, nbands)`` int64 per-band bucket keys of every row.
    mixers:
        ``(nbands, bsize)`` band-compression vectors pinned at build time
        (seeded from the config, identical to the from-scratch draw).
    pairs, sims:
        The scored candidate pairs exactly as
        :meth:`repro.similarity.LSHIndex.candidate_pairs` returns them —
        the input round-1 clustering consumes.
    """

    signatures: np.ndarray
    band_keys: np.ndarray
    mixers: np.ndarray
    pairs: np.ndarray
    sims: np.ndarray

    @property
    def n_rows(self) -> int:
        """Height of the matrix this state describes."""
        return int(self.signatures.shape[0])

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, csr: CSRMatrix, config, *, deadline=None,
              backend: str | None = None) -> "LshState":
        """From-scratch state for ``csr`` under ``config``.

        Uses the same seeds as ``config.lsh_index()`` (MinHash at
        ``lsh_seed``, banding at ``lsh_seed + 1``), so ``pairs``/``sims``
        equal a fresh :meth:`~repro.similarity.LSHIndex.candidate_pairs`
        call bit for bit.  ``backend`` is the MinHash backend (see
        :func:`~repro.similarity.minhash_signatures`); streaming passes
        the resolved backend of the plan at hand.
        """
        with span("streaming.state_build", rows=csr.n_rows, nnz=csr.nnz):
            signatures = minhash_signatures(
                csr, config.siglen, seed=config.lsh_seed, deadline=deadline,
                backend=backend,
            )
            mixers = band_mixers(config.siglen, config.bsize, config.lsh_seed + 1)
            band_keys = band_keys_matrix(signatures, mixers)
            pairs, sims, _ = _scored_pairs(
                signatures, band_keys, csr, config, deadline
            )
        return cls(
            signatures=signatures,
            band_keys=band_keys,
            mixers=mixers,
            pairs=pairs,
            sims=sims,
        )

    # ------------------------------------------------------------------
    def update(
        self,
        csr_new: CSRMatrix,
        dirty_rows: np.ndarray,
        n_new_rows: int,
        config,
        *,
        deadline=None,
        backend: str | None = None,
    ) -> tuple["LshState", int]:
        """Patched state for ``csr_new`` (copy-on-write; see module docs).

        Parameters
        ----------
        csr_new:
            The matrix *after* the delta.
        dirty_rows:
            Pre-existing rows whose content changed (from
            :meth:`repro.streaming.DeltaBatch.dirty_existing_rows`).
        n_new_rows:
            Rows appended at the bottom (``csr_new.n_rows`` must equal
            this state's height plus ``n_new_rows``).
        config:
            The same :class:`repro.reorder.ReorderConfig` the state was
            built with.
        backend:
            The MinHash backend for the changed rows, as in
            :meth:`build`; every backend gives the same signatures.

        Returns
        -------
        tuple
            ``(new_state, n_pairs_rescored)``.
        """
        m_old = self.n_rows
        m_new = csr_new.n_rows
        if m_new != m_old + n_new_rows:
            raise ValueError(
                f"state covers {m_old} rows + {n_new_rows} new != {m_new}"
            )
        dirty_rows = np.asarray(dirty_rows, dtype=np.int64)
        changed = np.concatenate(
            [dirty_rows, np.arange(m_old, m_new, dtype=np.int64)]
        )
        with span(
            "streaming.state_update", dirty=int(dirty_rows.size), new=n_new_rows
        ):
            if n_new_rows:
                signatures = np.vstack(
                    [
                        self.signatures,
                        np.empty((n_new_rows, self.signatures.shape[1]), np.int64),
                    ]
                )
                band_keys = np.vstack(
                    [
                        self.band_keys,
                        np.empty((n_new_rows, self.band_keys.shape[1]), np.int64),
                    ]
                )
            else:
                signatures = self.signatures.copy()
                band_keys = self.band_keys.copy()
            if changed.size:
                sub = extract_rows(csr_new, changed)
                sub_sigs = minhash_signatures(
                    sub, config.siglen, seed=config.lsh_seed, deadline=deadline,
                    backend=backend,
                )
                signatures[changed] = sub_sigs
                band_keys[changed] = band_keys_matrix(sub_sigs, self.mixers)
            pairs, sims, n_rescored = _scored_pairs(
                signatures, band_keys, csr_new, config, deadline,
                previous=self, changed=changed,
            )
        METRICS.counter(
            "streaming.rows_resigned",
            "rows whose MinHash signature was incrementally recomputed",
        ).inc(int(changed.size))
        METRICS.counter(
            "streaming.pairs_rescored",
            "candidate pairs rescored during incremental updates",
        ).inc(n_rescored)
        return (
            LshState(
                signatures=signatures,
                band_keys=band_keys,
                mixers=self.mixers,
                pairs=pairs,
                sims=sims,
            ),
            n_rescored,
        )
