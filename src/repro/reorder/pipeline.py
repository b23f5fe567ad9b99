"""The Fig. 5 workflow: reorder -> tile -> reorder the remainder.

``build_plan`` is the main entry point of the library.  It takes a CSR
matrix and produces an :class:`ExecutionPlan` containing

* the round-1 row permutation (or identity when skipped by the §4 gate),
* the ASpT tiling of the (possibly) reordered matrix,
* the round-2 permutation of the sparse remainder (or identity),
* the Fig. 9 effectiveness statistics (ΔDenseRatio, ΔAvgSim),
* a wall-clock breakdown of the preprocessing stages.

The plan multiplies in **original coordinates**: ``plan.spmm(X)`` is one
pass over the round-1-reordered matrix plus a row scatter, bit-equal to
``spmm(S, X)`` for the original ``S`` — the reordered rows are the
original rows with unchanged contents, so the row reordering is purely an
execution-order optimisation, never a semantic change (this is the
paper's central distinction from vertex reordering).  The ASpT split and
round-2 order serve the GPU cost model, the Fig. 9 statistics and
streaming.

No CPU multiply reads round 2, so every build defers it: the plan
computes round 2 the first time anything reads ``stats``, ``remainder``,
``remainder_order`` or ``cost_view()`` (and so ``save``, ``validate``,
the plan store, the GPU model and the experiments runner), at most once,
and adds its stage times and wall-clock to ``preprocess_seconds``; a run
that raises adds nothing, and the next read runs it again.
``session()``, ``spmm()`` and ``tiled`` never compute it.  The one read
inside a build is the plan store's write: a build through a store reads
round 2 before it writes the decisions, under the rung's deadline when a
``ResiliencePolicy`` gives one.  ``build_plans`` reads it in the worker
that built the plan.  A streaming update
(:func:`repro.streaming.apply_delta`) is either a plain build or a
same-pattern successor that carries its plan's round 2 over
(:meth:`_Round2Memo.successor`): computed if it had run, pending if not.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from repro.aspt.tiles import TiledMatrix, tile_matrix
from repro.clustering.hierarchical import cluster_rows
from repro.contracts import checked, validates
from repro.errors import DegradedExecution, TimeoutExceeded
from repro.kernels.aspt_sddmm import sddmm_tiled
from repro.kernels.aspt_spmm import spmm_tiled
from repro.kernels.spmm import spmm
from repro.kernels.sddmm import sddmm
from repro.kernels.backends import (
    BACKENDS,
    DEFAULT_BACKEND,
    LoadedBackend,
    check_backend,
    degrade,
    load_backend,
)
from repro.observability.metrics import METRICS
from repro.observability.tracing import span
from repro.reorder.heuristics import should_reorder_round1, should_reorder_round2
from repro.similarity.jaccard import average_consecutive_similarity
from repro.similarity.lsh import LSHIndex
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import permute_csr_rows
from repro.util.arrayops import rank_of_permutation
from repro.util.timing import timed
from repro.util.validation import check_dense, check_positive

__all__ = [
    "ReorderConfig",
    "PlanStats",
    "ExecutionPlan",
    "build_plan",
    "attach_backend",
]


@dataclass(frozen=True)
class ReorderConfig:
    """Parameters of the reordering pipeline.

    Defaults follow the paper: ``siglen=128``, ``bsize=2``,
    ``threshold_size=256``, skip thresholds of 10% dense ratio and 0.1
    average similarity.  ``panel_height`` is the ASpT row-panel height
    (the worked example uses 3; GPU-scale runs use thread-block-sized
    panels).
    """

    siglen: int = 128
    bsize: int = 2
    threshold_size: int = 256
    panel_height: int = 64
    dense_threshold: int = 2
    max_dense_cols: int | None = None
    dense_ratio_skip: float = 0.10
    avg_sim_skip: float = 0.10
    lsh_seed: int = 0
    bucket_cap: int | None = 64
    measure: str = "jaccard"  #: candidate-scoring measure (extension; paper uses Jaccard)
    force_round1: bool | None = None  #: override the §4 gate (None = use gate)
    force_round2: bool | None = None
    #: Kernel backend the plan's MinHash, clustering loop and sessions run
    #: through (see :mod:`repro.kernels.backends`): the default "cc" (the
    #: compiled library, bit-equal to the reference) or "numpy".  Availability is
    #: checked once per plan build, before round 1, where an unavailable
    #: backend degrades to numpy with provenance rather than failing.
    #: Part of the plan cache key.
    backend: str = DEFAULT_BACKEND

    def __post_init__(self):
        check_positive("siglen", self.siglen)
        check_positive("bsize", self.bsize)
        check_positive("threshold_size", self.threshold_size)
        check_positive("panel_height", self.panel_height)
        check_positive("dense_threshold", self.dense_threshold)
        check_backend(self.backend)

    def lsh_index(self) -> LSHIndex:
        """The LSH configuration as an index object."""
        return LSHIndex(
            siglen=self.siglen,
            bsize=self.bsize,
            seed=self.lsh_seed,
            bucket_cap=self.bucket_cap,
            measure=self.measure,
        )


@dataclass(frozen=True)
class PlanStats:
    """Effectiveness statistics (the axes of the paper's Fig. 9).

    ``delta_dense_ratio`` is the change in the fraction of non-zeros inside
    dense tiles caused by round 1; ``delta_avg_sim`` the change in average
    consecutive-row Jaccard of the sparse remainder caused by round 2.
    """

    dense_ratio_before: float
    dense_ratio_after: float
    avg_sim_before: float
    avg_sim_after: float
    round1_applied: bool
    round2_applied: bool
    n_candidates_round1: int = 0
    n_candidates_round2: int = 0

    @property
    def delta_dense_ratio(self) -> float:
        """Fig. 9 x-axis: change in dense-tile non-zero fraction."""
        return self.dense_ratio_after - self.dense_ratio_before

    @property
    def delta_avg_sim(self) -> float:
        """Fig. 9 y-axis: change in remainder consecutive-row similarity."""
        return self.avg_sim_after - self.avg_sim_before

    def to_array(self) -> np.ndarray:
        """The 8-float block plan files store (:meth:`from_array` reads it)."""
        return np.array(
            [
                self.dense_ratio_before,
                self.dense_ratio_after,
                self.avg_sim_before,
                self.avg_sim_after,
                float(self.round1_applied),
                float(self.round2_applied),
                float(self.n_candidates_round1),
                float(self.n_candidates_round2),
            ]
        )

    @classmethod
    def from_array(cls, raw: np.ndarray) -> "PlanStats":
        """Decode a block written by :meth:`to_array`."""
        if raw.shape != (8,):
            raise ValueError(f"stats block has shape {raw.shape}, expected (8,)")
        return cls(
            dense_ratio_before=float(raw[0]),
            dense_ratio_after=float(raw[1]),
            avg_sim_before=float(raw[2]),
            avg_sim_after=float(raw[3]),
            round1_applied=bool(raw[4]),
            round2_applied=bool(raw[5]),
            n_candidates_round1=int(raw[6]),
            n_candidates_round2=int(raw[7]),
        )


@dataclass(frozen=True)
class ExecutionPlan:
    """A reordered-and-tiled matrix ready for repeated multiplication.

    Attributes
    ----------
    original:
        The input matrix, untouched.
    row_order:
        Round-1 permutation (new position -> original row).
    tiled:
        ASpT split of the row-1-reordered matrix; ``tiled.original`` is
        the reordered matrix every CPU multiply runs over.
    remainder:
        The sparse remainder with round-2 row ordering applied — the
        order the GPU cost model charges (:meth:`cost_view`).  Computes
        round 2 if it has not run.
    remainder_order:
        Round-2 permutation over the reordered matrix's row space.
        Computes round 2 if it has not run.
    stats:
        Fig. 9 effectiveness statistics.  Computes round 2 if it has not
        run.
    preprocess_seconds:
        Wall-clock breakdown: ``lsh1``, ``cluster1``, ``permute1``,
        ``tile``, ``sim2``, ``lsh2``, ``cluster2``, ``backend_compile``,
        ``total``.  ``tile`` sums the round-1 gate's split of the
        original and, when it is not the plan's, the plan's.  The
        round-2 keys appear when round 2 runs, on first read of one of
        the three attributes above or of :meth:`cost_view` (a build
        through a plan store reads it before the store's write), and its
        wall-clock is then added to ``total``.
    provenance:
        Degradation-ladder history when the plan was built under a
        :class:`repro.resilience.ResiliencePolicy` — one entry per
        attempted rung, e.g. ``("full: TimeoutExceeded: cluster1
        exceeded its 2s deadline", "identity: ok")``.  Empty for plans
        built without a policy.
    backend:
        The compiled kernel backend the plan's sessions execute through
        (the *resolved* backend — after any degradation).  Defaults to
        the ``numpy`` reference.
    backend_provenance:
        Degradation history for the backend choice, e.g.
        ``("backend:cc->numpy: C compiler 'cc' not found (set CC)",)``.
        Kept separate from :attr:`provenance` on purpose: a missing
        compiler must not mark the *plan* degraded (degraded plans are
        never cached, and the reordering decisions are unaffected).
    revision:
        Streaming update counter: 0 for a freshly built plan, bumped by
        one each time :func:`repro.streaming.apply_delta` produces the
        plan's successor.  :attr:`repro.streaming.StreamingPlan.revision`
        reports it.
    """

    original: CSRMatrix
    row_order: np.ndarray
    tiled: TiledMatrix
    _round2: _Round2Memo = field(repr=False, compare=False)
    preprocess_seconds: dict = field(default_factory=dict, repr=False)
    provenance: tuple = ()
    backend: str = "numpy"
    backend_provenance: tuple = ()
    revision: int = 0

    @property
    def remainder_order(self) -> np.ndarray:
        """Round-2 permutation over the reordered row space (reading it
        runs a deferred round 2)."""
        return self._round2.get(self.preprocess_seconds)[0]

    @property
    def remainder(self) -> CSRMatrix:
        """The sparse remainder in its round-2 row order (reading it runs a
        deferred round 2)."""
        return self._round2.get(self.preprocess_seconds)[1]

    @property
    def stats(self) -> PlanStats:
        """Fig. 9 effectiveness statistics (reading them runs a deferred
        round 2)."""
        return self._round2.get(self.preprocess_seconds)[2]

    @property
    def degraded(self) -> bool:
        """Whether the plan settled below the ``full`` ladder rung."""
        return bool(self.provenance) and not self.provenance[-1].startswith("full:")

    # ------------------------------------------------------------------
    @property
    def preprocessing_time(self) -> float:
        """Total preprocessing wall-clock in seconds."""
        return self.preprocess_seconds.get("total", 0.0)

    def cost_view(self) -> TiledMatrix:
        """A :class:`TiledMatrix` view for the performance model.

        Identical to :attr:`tiled` except that ``sparse_part`` carries the
        round-2 row ordering, so the executor's remainder access stream
        reflects the order the kernel really processes, so it runs a
        deferred round 2.  Note this view is for *cost estimation only*: its
        dense/sparse parts are no longer a row-aligned partition of
        ``original`` (``validate()`` would fail).
        """
        return replace(self.tiled, sparse_part=self.remainder)

    # ------------------------------------------------------------------
    # multiplication in original coordinates
    # ------------------------------------------------------------------
    def spmm(self, X: np.ndarray) -> np.ndarray:
        """``original @ X`` computed through the reordered execution plan.

        One pass over the round-1-reordered matrix (``tiled.original``),
        then a row scatter back to original coordinates; bit-equal to
        ``spmm(original, X)``.
        """
        X = check_dense("X", X, rows=self.original.n_cols)
        y = spmm(self.tiled.original, X)
        out = np.empty_like(y)
        # Reordered row r is original row row_order[r].
        out[self.row_order] = y
        return out

    def sddmm(self, X: np.ndarray, Y: np.ndarray) -> CSRMatrix:
        """``(Y @ X.T) .* original`` computed through the plan.

        ``X``/``Y`` are indexed by the *original* columns/rows.
        """
        X = check_dense("X", X, rows=self.original.n_cols)
        Y = check_dense("Y", Y, rows=self.original.n_rows, cols=X.shape[1])
        # Work in reordered row space, then permute the result rows back.
        result_reordered = sddmm_tiled(self.tiled, X, Y[self.row_order])
        inverse = rank_of_permutation(self.row_order)
        return permute_csr_rows(result_reordered, inverse)

    # ------------------------------------------------------------------
    # persistence (the paper's offline-deployment scenario)
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Persist the plan's decisions to an ``.npz`` file.

        The paper's deployment story is offline: reorder once, reuse the
        ordering for every future multiplication.  Only the *decisions*
        (the two permutations, the tiling parameters, the stats) are
        stored — the tiled structures are recomputed deterministically by
        :meth:`load`, so the file stays small and version-stable.
        """
        stats = self.stats  # runs a deferred round 2 into the saved total
        np.savez_compressed(
            path,
            row_order=self.row_order,
            remainder_order=self.remainder_order,
            panel_height=np.int64(self.tiled.spec.panel_height),
            dense_threshold=np.int64(self.tiled.dense_threshold),
            # 0 stands for "no cap": a real cap is positive.
            max_dense_cols=np.int64(self.tiled.max_dense_cols or 0),
            stats=stats.to_array(),
            preprocess_total=np.float64(self.preprocessing_time),
            backend=np.str_(self.backend),
        )

    @classmethod
    def load(cls, path, original: CSRMatrix) -> "ExecutionPlan":
        """Rebuild a plan saved with :meth:`save` for ``original``.

        ``original`` must be the same matrix the plan was built from (the
        permutations are checked for shape; content equality is the
        caller's contract, exactly as with any persisted preprocessing).
        The plan is rebuilt by
        :meth:`repro.planstore.PlanDecisions.materialise`, as a plan-store
        hit is, so its backend is resolved in this process.  A stored
        backend name this build does not know (``"numba"``, say) loads as
        a numpy plan with a ``backend_provenance`` entry recording the
        step, and :meth:`session` still runs.
        """
        from repro.planstore.decisions import PlanDecisions

        with np.load(path) as data:
            decisions = PlanDecisions(
                row_order=data["row_order"].astype(np.int64),
                remainder_order=data["remainder_order"].astype(np.int64),
                stats=PlanStats.from_array(data["stats"]),
                preprocess_total=float(data["preprocess_total"]),
            )
            panel_height = int(data["panel_height"])
            dense_threshold = int(data["dense_threshold"])
            # Tolerant read: files written before these fields existed
            # load with no dense-column cap, as numpy-backed plans.
            max_dense_cols = int(data.get("max_dense_cols", 0))
            backend = str(data.get("backend", "numpy"))
        backend_provenance: tuple = ()
        if backend not in BACKENDS:
            degraded = degrade(backend, "not registered in this build")
            backend, backend_provenance = degraded.backend, degraded.provenance
        config = ReorderConfig(
            panel_height=panel_height,
            dense_threshold=dense_threshold,
            max_dense_cols=max_dense_cols or None,
            backend=backend,
        )
        plan = decisions.materialise(original, config)
        return replace(
            plan,
            # A loaded plan reports what its saved build paid.
            preprocess_seconds={
                **plan.preprocess_seconds,
                "total": decisions.preprocess_total,
            },
            backend_provenance=backend_provenance + plan.backend_provenance,
        )

    def session(self, **kwargs):
        """A :class:`~repro.kernels.KernelSession` pinned on this plan.

        The session multiplies in original coordinates exactly like
        :meth:`spmm` (bitwise — asserted by :meth:`validate`) but hoists
        the per-call metadata and scratch allocation, so it is the
        preferred interface for repeated multiplies against one plan.
        Keyword arguments are forwarded to the session constructor.
        """
        from repro.kernels import KernelSession

        return KernelSession(self, **kwargs)

    def validate(self, X: np.ndarray | None = None, seed: int = 0) -> None:  # reprolint: disable=RD601 -- a plan self-check, not a contract validator (validates() calls CSRMatrix.validate only); the session it builds loads the plan's backend into the process-wide cache on purpose
        """Self-check: plan results must match the direct kernels.

        :meth:`spmm` and a pinned session must be bit-equal to
        ``spmm(original, X)``.  No multiply reads the tiled split, so the
        split is checked directly: ``tiled.original`` and ``remainder``
        must be exactly the row permutations they claim to be, and the
        two-phase :func:`~repro.kernels.spmm_tiled` over the split must
        agree with a plain multiply of ``tiled.original``.
        """
        rng = np.random.default_rng(seed)
        if X is None:
            X = rng.normal(size=(self.original.n_cols, 4))
        X = check_dense("X", X, rows=self.original.n_cols)
        reference = spmm(self.original, X)
        np.testing.assert_array_equal(self.spmm(X), reference)
        np.testing.assert_array_equal(self.session().run(X), reference)
        _assert_same_csr(
            self.tiled.original, permute_csr_rows(self.original, self.row_order)
        )
        _assert_same_csr(
            self.remainder,
            permute_csr_rows(self.tiled.sparse_part, self.remainder_order),
        )
        np.testing.assert_allclose(
            spmm_tiled(self.tiled, X),
            spmm(self.tiled.original, X),
            rtol=1e-10,
            atol=1e-9,
        )
        Y = rng.normal(size=(self.original.n_rows, X.shape[1]))
        got = self.sddmm(X, Y)
        want = sddmm(self.original, X, Y)
        assert got.same_pattern(want)
        np.testing.assert_allclose(got.values, want.values, rtol=1e-10, atol=1e-9)


def _assert_same_csr(got: CSRMatrix, want: CSRMatrix) -> None:
    """Array-for-array equality of two CSR matrices."""
    np.testing.assert_equal(got.shape, want.shape)
    np.testing.assert_array_equal(got.rowptr, want.rowptr)
    np.testing.assert_array_equal(got.colidx, want.colidx)
    np.testing.assert_array_equal(got.values, want.values)


def attach_backend(
    plan: ExecutionPlan, config: ReorderConfig, loaded: LoadedBackend | None = None
) -> ExecutionPlan:
    """Load ``config.backend`` and record the outcome on ``plan``.

    Runs on every cache materialisation, and every plan build resolves
    its backend the same way, so the choice always reflects the current
    environment — a plan cached on a machine with a C compiler does not
    pin a compiler requirement onto a machine without one, and vice
    versa.  One compiled library serves every matrix, so after the first
    build this is a cache lookup.  A missing compiler or a failed compile
    (e.g. the injected ``backend.compile`` fault) degrades inside
    :func:`repro.kernels.backends.load_backend`.  ``loaded``, when given,
    is a backend the caller already resolved: it is recorded as-is, with
    no second load.

    Either way the result lands in :attr:`ExecutionPlan.backend` /
    ``backend_provenance`` — never in the ladder :attr:`~ExecutionPlan.provenance`,
    so a missing compiler does not mark the plan degraded (degraded
    plans are never cached).
    """
    if loaded is None:
        # What this call paid: a compile once per process, then a lookup.
        with timed(plan.preprocess_seconds, "backend_compile"):
            loaded = load_backend(config.backend)
    return replace(
        plan, backend=loaded.backend, backend_provenance=loaded.provenance
    )


@checked(validates("csr"))
def build_plan(
    csr: CSRMatrix,
    config: ReorderConfig | None = None,
    *,
    cache=None,
    resilience=None,
) -> ExecutionPlan:
    """Run the full Fig. 5 workflow and return an :class:`ExecutionPlan`.

    The §4 gates decide per round whether reordering runs; set
    ``config.force_round1`` / ``force_round2`` to override (used by the
    autotuner and the ablation benches).

    The plan defers round 2 until something reads it (see the module
    docstring).  With ``cache``, a miss reads it before the store's
    write, so that build runs round 2 inside it.

    ``cache`` accepts a :class:`repro.planstore.PlanStore` (or anything
    with the same ``get``/``put``/``key_for`` surface).  On a hit the
    expensive stages (MinHash, LSH, clustering) are skipped entirely and
    the plan is re-materialised from the cached decisions against *this*
    matrix's values; the timing breakdown then contains ``cache_lookup``
    and ``materialise`` instead of the stage keys.  On a miss the plan is
    built normally and its decisions written through the cache.

    The build loads ``config.backend`` once, before round 1 (and before
    the ladder), and records the time as ``backend_compile`` outside
    ``total``: both rounds' MinHash and clustering loop, a deferred round 2
    included, and the plan's sessions run on the backend it resolves to.

    ``resilience`` accepts a :class:`repro.resilience.ResiliencePolicy`.
    With one, each preprocessing attempt runs under a per-rung stage
    deadline, and a rung that times out (or hits memory pressure) drops
    down the degradation ladder ``full -> identity`` instead of failing
    the build; ``identity``, the floor, runs without a deadline.  Every
    attempted rung is recorded in :attr:`ExecutionPlan.provenance`; a
    round-2 read for the store's write runs inside ``full``, so its
    timeout settles at ``identity`` as well.  Settling below ``full``
    emits a :class:`repro.errors.DegradedExecution` warning, and degraded
    plans are never written to the cache (a transient failure must not
    pin a weaker plan under the original config's key).
    """
    config = config or ReorderConfig()
    compile_times: dict[str, float] = {}
    with timed(compile_times, "backend_compile"):
        loaded = load_backend(config.backend)
    if resilience is not None:
        plan = _build_plan_resilient(csr, config, loaded, cache, resilience)
    elif cache is None:
        plan = _build_plan_uncached(csr, config, loaded)
    else:
        plan = _build_plan_cached(csr, config, loaded, cache, None)
    plan.preprocess_seconds.update(compile_times)
    return plan


def _build_plan_cached(csr, config, loaded, cache, deadline) -> ExecutionPlan:
    """The cache-wrapped build (hit -> materialise, miss -> build + put)."""
    from repro.planstore.decisions import PlanDecisions

    times: dict[str, float] = {}
    plan = None
    with timed(times, "total"):
        key = cache.key_for(csr, config)
        with span("cache_lookup"), timed(times, "cache_lookup"):
            decisions = cache.get(key)
        if decisions is not None:
            with span("materialise"), timed(times, "materialise"):
                plan = decisions.materialise(csr, config, loaded)
        else:
            plan = _build_plan_uncached(csr, config, loaded, deadline=deadline)
            # The store holds round 2's decisions, so its write reads round
            # 2 here, under the rung's deadline.
            plan._round2.get(plan.preprocess_seconds, deadline)
            cache.put(key, PlanDecisions.from_plan(plan))
    if "materialise" in times:  # warm hit: breakdown is lookup+materialise
        plan.preprocess_seconds.update(times)
    else:  # cold build: keep the stage breakdown, note the lookup cost
        plan.preprocess_seconds["cache_lookup"] = times["cache_lookup"]
    return plan


def _build_plan_resilient(csr, config, loaded, cache, policy) -> ExecutionPlan:
    """Walk the degradation ladder until a rung succeeds.

    Rung 0 (``full``) goes through the cache when one is given; the
    degraded rungs never touch it.  The final rung runs without a
    deadline, so a build always terminates with *some* plan.
    """
    from repro.resilience.policy import ladder_rungs

    rungs = ladder_rungs(config)
    provenance: list = []
    for index, (label, rung_config) in enumerate(rungs):
        floor = index == len(rungs) - 1
        deadline = None if floor else policy.new_deadline()
        try:
            with span("plan_rung", rung=label):
                if index == 0 and cache is not None:
                    plan = _build_plan_cached(
                        csr, rung_config, loaded, cache, deadline
                    )
                else:
                    plan = _build_plan_uncached(
                        csr, rung_config, loaded, deadline=deadline
                    )
        except (TimeoutExceeded, MemoryError) as exc:
            provenance.append(f"{label}: {type(exc).__name__}: {exc}")
            if floor:
                raise
            continue
        provenance.append(f"{label}: ok")
        plan = replace(plan, provenance=tuple(provenance))
        if index > 0:
            METRICS.counter(
                "resilience.degradation_rung",
                "plan builds settled below the full ladder rung",
            ).inc()
            warnings.warn(
                f"plan build degraded to rung '{label}' "
                f"({'; '.join(provenance[:-1])})",
                DegradedExecution,
                stacklevel=3,
            )
        return plan
    raise AssertionError("unreachable")  # pragma: no cover


def _build_plan_uncached(
    csr: CSRMatrix,
    config: ReorderConfig,
    loaded: LoadedBackend,
    *,
    deadline=None,
) -> ExecutionPlan:
    """The actual Fig. 5 workflow (no cache consultation).

    ``loaded`` is the build's resolved backend: both rounds' MinHash and
    clustering loop run on it and the plan records it.  ``deadline``
    bounds round 1 and the tiling; round 2 is left pending, to run on
    the plan's first read of it.
    """
    times: dict[str, float] = {}
    config = replace(config, backend=loaded.backend)

    with span("build_plan", rows=csr.n_rows, cols=csr.n_cols, nnz=csr.nnz), timed(
        times, "total"
    ):
        # ---- round 1 gate + reorder -----------------------------------
        with span("tile"), timed(times, "tile"):
            original_tiled = tile_matrix(
                csr, config.panel_height, config.dense_threshold
            )
        gate1 = should_reorder_round1(original_tiled, skip_above=config.dense_ratio_skip)
        do_round1 = (
            gate1.reorder if config.force_round1 is None else config.force_round1
        )
        n_cand1 = 0
        if do_round1:
            with span("lsh1"), timed(times, "lsh1"):
                pairs, sims = config.lsh_index().candidate_pairs(
                    csr, deadline=deadline, backend=config.backend
                )
            n_cand1 = int(pairs.shape[0])
            with span("cluster1", pairs=n_cand1), timed(times, "cluster1"):
                clustering = cluster_rows(
                    csr, pairs, sims,
                    threshold_size=config.threshold_size,
                    measure=config.measure,
                    deadline=deadline,
                    backend=config.backend,
                )
            row_order = clustering.order
            with span("permute1"), timed(times, "permute1"):
                reordered = permute_csr_rows(csr, row_order)
        else:
            row_order = np.arange(csr.n_rows, dtype=np.int64)
            reordered = csr

        # ---- tiling -----------------------------------------------------
        if deadline is not None:
            deadline.check("tile")
        with span("tile"), timed(times, "tile"):
            if do_round1 or config.max_dense_cols is not None:
                tiled = tile_matrix(
                    reordered,
                    config.panel_height,
                    config.dense_threshold,
                    max_dense_cols=config.max_dense_cols,
                )
            else:  # the gate's uncapped split of the original is the plan's
                tiled = original_tiled
    round1 = dict(
        dense_ratio_before=gate1.indicator,
        dense_ratio_after=tiled.dense_ratio,
        round1_applied=bool(do_round1),
        n_candidates_round1=n_cand1,
    )
    return ExecutionPlan(
        original=csr,
        row_order=row_order,
        tiled=tiled,
        _round2=_Round2Memo(pending=(tiled, config, round1)),
        preprocess_seconds=times,
        backend=loaded.backend,
        backend_provenance=loaded.provenance,
    )


# ----------------------------------------------------------------------
# Round 2, computed on a plan's first read of it
# ----------------------------------------------------------------------


def _reorder_remainder(tiled: TiledMatrix, config: ReorderConfig, round1: dict,
                       times: dict, deadline) -> tuple:
    """Round 2 of Fig. 5: gate the sparse remainder, then LSH + cluster it.

    Returns the plan's ``(remainder_order, remainder, stats)``; ``round1``
    holds the round-1 fields of :class:`PlanStats`.  ``config.backend``
    must be a resolved backend (a plan's :attr:`~ExecutionPlan.backend`):
    the MinHash and the clustering loop run on it.  Stage times land in
    ``times`` under ``sim2``, ``lsh2`` and ``cluster2``.
    """
    with span("sim2"), timed(times, "sim2"):
        gate2 = should_reorder_round2(tiled.sparse_part, skip_above=config.avg_sim_skip)
    do_round2 = gate2.reorder if config.force_round2 is None else config.force_round2
    n_cand2 = 0
    if do_round2 and tiled.sparse_part.nnz:
        with span("lsh2"), timed(times, "lsh2"):
            pairs2, sims2 = config.lsh_index().candidate_pairs(
                tiled.sparse_part, deadline=deadline, backend=config.backend
            )
        n_cand2 = int(pairs2.shape[0])
        with span("cluster2", pairs=n_cand2), timed(times, "cluster2"):
            clustering2 = cluster_rows(
                tiled.sparse_part,
                pairs2,
                sims2,
                threshold_size=config.threshold_size,
                measure=config.measure,
                deadline=deadline,
                backend=config.backend,
            )
        remainder_order = clustering2.order
        remainder = permute_csr_rows(tiled.sparse_part, remainder_order)
    else:
        do_round2 = False
        remainder_order = np.arange(tiled.original.n_rows, dtype=np.int64)
        remainder = tiled.sparse_part
    stats = PlanStats(
        **round1,
        avg_sim_before=gate2.indicator,
        avg_sim_after=average_consecutive_similarity(remainder),
        round2_applied=bool(do_round2),
        n_candidates_round2=n_cand2,
    )
    return remainder_order, remainder, stats


class _Round2Memo:
    """A plan's round-2 fields, computed on first read.

    Holds either the fields ``(remainder_order, remainder, stats)`` (once
    read, or filled from stored decisions or a successor's old plan) or
    the inputs of a pending round 2 (``tiled``, ``config`` with the
    plan's resolved backend, and the round-1 stats fields).  Every
    ``dataclasses.replace`` copy of a plan shares its memo, so round 2
    runs at most once per build; it pickles pending or filled.
    """

    def __init__(self, fields: tuple | None = None, pending: tuple | None = None):
        self._fields = fields
        self._pending = pending
        self._lock = threading.Lock()

    @classmethod
    def filled(cls, remainder_order: np.ndarray, remainder: CSRMatrix,
               stats: PlanStats) -> "_Round2Memo":
        """A memo whose round 2 is already known."""
        return cls(fields=(remainder_order, remainder, stats))

    def get(self, times: dict, deadline=None) -> tuple:
        """The fields, running a pending round 2 first.

        ``deadline`` is the reader's: checked before ``sim2`` and polled
        by round 2's LSH and clustering.  A run that succeeds adds its
        stages and its wall-clock (to ``total``) to ``times``; one that
        raises adds nothing and leaves the memo pending.  Concurrent
        first readers wait for the one run.
        """
        if self._fields is None:
            with self._lock:
                if self._fields is None:
                    if deadline is not None:
                        deadline.check("sim2")
                    tiled, config, round1 = self._pending
                    run: dict[str, float] = {}
                    with timed(run, "total"):
                        fields = _reorder_remainder(
                            tiled, config, round1, run, deadline
                        )
                    for key, seconds in run.items():
                        times[key] = times.get(key, 0.0) + seconds
                    # Published last: a reader that sees the fields sees
                    # their times.
                    self._fields, self._pending = fields, None
        return self._fields

    def successor(self, tiled: TiledMatrix) -> "_Round2Memo":
        """The memo of a successor plan: this plan's sparsity pattern with
        new values, tiled as ``tiled``.

        Every decision of a build is a function of the pattern, so the
        round-1 fields carry over as they are, and so does a round 2 that
        has run, with the remainder re-permuted from ``tiled``.  A pending
        round 2 stays pending over ``tiled``.
        """
        with self._lock:  # waits out a first read that is running round 2
            fields, pending = self._fields, self._pending
        if fields is not None:
            order, _, stats = fields
            remainder = permute_csr_rows(tiled.sparse_part, order)
            return _Round2Memo.filled(order, remainder, stats)
        _, config, round1 = pending
        return _Round2Memo(pending=(tiled, config, round1))

    def __getstate__(self) -> dict:
        return {"_fields": self._fields, "_pending": self._pending}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
