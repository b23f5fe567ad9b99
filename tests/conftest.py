"""Shared fixtures.

``paper_matrix`` is a concrete reconstruction of the paper's running example
(Fig. 1a).  The paper never prints the full matrix, but it states enough
facts to pin one down:

* 6x6, 13 non-zeros;
* S0 = {0, 4} and S4 = {0, 3, 4} with J(S0, S4) = 2/3;
* J(S2, S4) = 1/4;
* row 1 shares exactly one column with row 5;
* in the first row panel (rows 0-2, panel height 3) only column 4 has two
  non-zeros, every other column has one — so the ASpT dense tile holds
  2 of the 13 non-zeros;
* in the second row panel every column has at most one non-zero;
* after exchanging rows 1 and 4, the dense tiles hold 9 non-zeros and the
  first (densest) column of the first panel has 3 non-zeros;
* in the remaining sparse part, rows 1&4 share a column and rows 2&5 share
  a column.

The support sets below satisfy every one of those constraints:

    S0 = {0, 4}    S1 = {1, 3, 5}    S2 = {2, 4}
    S3 = {1}       S4 = {0, 3, 4}    S5 = {2, 5}
"""

import os

import numpy as np
import pytest

# The whole suite runs with runtime contracts on (see repro.contracts), so
# every kernel/pipeline call in CI re-validates its operands.  Set both the
# environment variable (for subprocesses spawned by tests) and the runtime
# switch (in case repro.contracts was already imported without it).
os.environ.setdefault("REPRO_CONTRACTS", "1")

from repro.contracts import enable_contracts  # noqa: E402
from repro.sparse import COOMatrix, CSRMatrix  # noqa: E402

enable_contracts(os.environ["REPRO_CONTRACTS"] not in ("", "0"))

PAPER_SUPPORTS = {
    0: [0, 4],
    1: [1, 3, 5],
    2: [2, 4],
    3: [1],
    4: [0, 3, 4],
    5: [2, 5],
}


def _paper_csr() -> CSRMatrix:
    rows, cols = [], []
    for r, support in PAPER_SUPPORTS.items():
        for c in support:
            rows.append(r)
            cols.append(c)
    values = np.arange(1, len(rows) + 1, dtype=np.float64)
    return COOMatrix.from_arrays(
        (6, 6), np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64), values
    ).to_csr()


@pytest.fixture
def paper_matrix() -> CSRMatrix:
    """The reconstructed Fig. 1a matrix (6x6, 13 nnz)."""
    return _paper_csr()


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG for tests that need randomness."""
    return np.random.default_rng(12345)


def random_csr(rng, m, n, density=0.1) -> CSRMatrix:
    """Helper used across test modules: a random CSR with ~density fill."""
    nnz = max(1, int(m * n * density))
    rows = rng.integers(0, m, size=nnz)
    cols = rng.integers(0, n, size=nnz)
    vals = rng.normal(size=nnz)
    return COOMatrix.from_arrays((m, n), rows, cols, vals).to_csr()


@pytest.fixture
def round2_calls(monkeypatch):
    """Records each ``_reorder_remainder`` run: a build's, a plan's
    deferred round 2 and a streaming successor's all call it through
    :mod:`repro.reorder.pipeline`."""
    from repro.reorder import pipeline

    calls = []
    real = pipeline._reorder_remainder

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "_reorder_remainder", spy)
    return calls


def assert_plans_identical(patched, fresh):
    """Decision identity: same orders, same tiling, same stats, and the
    same reordered matrix the executor multiplies.

    The one plan-equality oracle of the suite: a patched, loaded or
    cache-materialised plan against the plan a fresh build produces.
    """
    np.testing.assert_array_equal(patched.row_order, fresh.row_order)
    np.testing.assert_array_equal(patched.remainder_order, fresh.remainder_order)
    assert patched.stats == fresh.stats
    for part in ("original", "dense_part", "sparse_part"):
        p, f = getattr(patched.tiled, part), getattr(fresh.tiled, part)
        np.testing.assert_array_equal(p.rowptr, f.rowptr)
        np.testing.assert_array_equal(p.colidx, f.colidx)
        np.testing.assert_array_equal(p.values, f.values)
    np.testing.assert_array_equal(patched.remainder.values, fresh.remainder.values)


# --- Kernel backends ---------------------------------------------------------
#
# The cross-backend differential matrix and the parametrized oracle tests
# run every backend.  ``cc`` without a C compiler skips with its reason
# instead of silently shrinking coverage (the CI ``backends`` lane fails
# first when no compiler is found).

import repro.kernels.backends as backends_mod  # noqa: E402
from repro.errors import BackendUnavailable  # noqa: E402
from repro.kernels.backends import BACKENDS, cc_backend  # noqa: E402


@pytest.fixture(scope="session", autouse=True)
def _cc_cache_home(tmp_path_factory):
    """Build the ``cc`` library into a per-run directory, never the user's cache.

    The library is built once per run; subprocesses the tests start
    inherit the directory.
    """
    patch = pytest.MonkeyPatch()
    patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache-home")))
    yield
    patch.undo()


def cc_missing() -> str:
    """Why the ``cc`` backend cannot build here, or ``""`` when it can."""
    try:
        cc_backend.compiler()
    except BackendUnavailable as exc:
        return str(exc)
    return ""


def _backend_params():
    missing = cc_missing()
    params = []
    for name in BACKENDS:
        marks = ()
        if name == "cc" and missing:
            marks = (pytest.mark.skip(reason=f"backend 'cc': {missing}"),)
        params.append(pytest.param(name, marks=marks, id=name))
    return params


@pytest.fixture(params=_backend_params())
def backend_name(request) -> str:
    """Name of each *available* backend (``cc`` skips without a compiler)."""
    return request.param


@pytest.fixture
def no_compiler(monkeypatch):
    """``CC`` names a missing compiler; the in-process SpMM cache is empty."""
    monkeypatch.setenv("CC", "/nonexistent/cc")
    monkeypatch.setattr(backends_mod, "_LOADED", {})


@pytest.fixture
def compiled_backend(monkeypatch) -> str:
    """The ``cc`` backend's name, with an empty in-process SpMM cache.

    Plan-build compile, the plan-store round trip, the in-process cache
    and the serve compile breaker run only for a backend that compiles,
    and numpy compiles nothing.  Each test's first load is a cold one
    that reaches the ``backend.compile`` fault site; it loads the library
    the run's cache directory (``_cc_cache_home``) already holds.  Skips
    where no C compiler is found.
    """
    missing = cc_missing()
    if missing:
        pytest.skip(f"backend 'cc': {missing}")
    monkeypatch.setattr(backends_mod, "_LOADED", {})
    return "cc"


# --- Streaming construction fixture ------------------------------------------
#
# Suites parametrized with ``streamed`` run every case twice: once on the
# matrix built whole, once on the same matrix rebuilt by replaying its
# delta stream through repro.streaming.  The replay contract is exact
# (bit-for-bit), so any downstream difference between the two legs is a
# streaming bug.


@pytest.fixture(params=[False, True], ids=["whole", "streamed"])
def streamed(request) -> bool:
    """Whether to rebuild the test matrix via N delta applications."""
    return request.param


def maybe_streamed(csr, streamed, n_batches=4, seed=0):
    """``csr`` as-is, or rebuilt by replaying its delta decomposition."""
    if not streamed:
        return csr
    from repro.streaming import split_into_deltas

    out, deltas = split_into_deltas(csr, n_batches, seed=seed, grow_rows=False)
    for delta in deltas:
        out = delta.apply_to(out)
    return out


# --- Chaos-suite knobs (tests/chaos) ----------------------------------------
#
# The CI ``chaos`` job runs tests/chaos twice with pinned seeds at two
# injection rates via environment variables::
#
#     REPRO_CHAOS_RATE=0.05 REPRO_CHAOS_SEED=1337 pytest tests/chaos
#     REPRO_CHAOS_RATE=0.2  REPRO_CHAOS_SEED=2020 pytest tests/chaos
#
# Locally both default (rate 0.1, seed 42).  Every chaos test must hold the
# same contract at any rate: no crash escapes, and whatever completes is
# bitwise-correct — degraded where the report says so, identical to the
# fault-free reference everywhere else.  (These live in the top-level
# conftest because test directories carry no __init__.py: a second
# ``conftest`` module in a subdirectory would shadow this one in
# ``sys.modules`` for tests that ``from conftest import ...``.)


@pytest.fixture(scope="session")
def chaos_rate() -> float:
    """Injection probability per fault-point arrival (env-overridable)."""
    return float(os.environ.get("REPRO_CHAOS_RATE", "0.1"))


@pytest.fixture(scope="session")
def chaos_seed() -> int:
    """Injector stream seed (env-overridable; pinned in CI)."""
    return int(os.environ.get("REPRO_CHAOS_SEED", "42"))


# --- Observability helpers ---------------------------------------------------


class FakeClock:
    """Deterministic injectable clock for tracing/timing tests.

    Every call returns the current reading and then auto-advances by
    ``step`` — so a ``with span(...)`` block whose body reads the clock
    zero times lasts exactly ``step`` seconds.  ``advance`` inserts extra
    elapsed time between calls.  Golden-trace tests pair this with
    ``Tracer(clock=FakeClock(), pid=1)`` to pin every timestamp.
    """

    def __init__(self, start: float = 0.0, step: float = 1.0):
        self.now = start
        self.step = step

    def __call__(self) -> float:
        reading = self.now
        self.now += self.step
        return reading

    def advance(self, seconds: float) -> None:
        """Insert ``seconds`` of extra elapsed time before the next read."""
        self.now += seconds


@pytest.fixture
def fake_clock() -> FakeClock:
    """A fresh :class:`FakeClock` (start 0.0, step 1.0)."""
    return FakeClock()


def pytest_collection_modifyitems(config, items):
    """Auto-mark the long-running suites so ``-m 'not slow'`` skips them."""
    for item in items:
        rel = os.fspath(item.path)
        if f"tests{os.sep}chaos" in rel or f"tests{os.sep}integration" in rel:
            item.add_marker(pytest.mark.slow)
