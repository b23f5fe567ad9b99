"""Inter-procedural dataflow engine for reprolint.

The per-file rules (RD1xx–RD3xx) see one AST at a time; the analyses in
this package see the whole project.  A :class:`Project` parses every file
under the lint root, builds a :class:`~repro.analysis.dataflow.callgraph.CallGraph`
(imports resolved, calls bound to definitions) and runs three summary-based
analyses to a fixpoint:

* :mod:`~repro.analysis.dataflow.taint` — RD4xx: nondeterminism sources
  (clocks, unseeded RNG, ``os.urandom``, ``id()``, set/dict iteration
  order) tracked through calls, returns and container writes into hashing,
  fingerprint and generated-code/kernel-output sinks;
* :mod:`~repro.analysis.dataflow.dtypes` — RD5xx: a dtype lattice
  (``float32 < float64``, ``int``, ``⊤``) propagated across call
  boundaries to find implicit float64 upcasts on float32 paths;
* :mod:`~repro.analysis.dataflow.purity` — RD6xx: side-effect inference
  proving ``@checked``/``validates`` contract targets and the statements
  preceding every ``fault_point`` site observably pure.

Each function gets a small serialisable summary, which is what makes the
incremental mode (:mod:`~repro.analysis.dataflow.cache`) possible: an
unchanged module contributes its cached summaries and findings without
being re-parsed, and only files whose content or transitive callee set
changed are re-analysed.

Reporting artefacts live alongside the engine:
:mod:`~repro.analysis.dataflow.sarif` (SARIF 2.1.0 export),
:mod:`~repro.analysis.dataflow.baseline` (grandfathered findings) and
:mod:`~repro.analysis.dataflow.cache` (content-addressed incremental
cache reusing :func:`repro.util.hashing.stable_digest`).
"""

from repro.analysis.dataflow.baseline import (
    apply_baseline,
    load_baseline,
    save_baseline,
)
from repro.analysis.dataflow.cache import CacheStats, IncrementalCache
from repro.analysis.dataflow.callgraph import CallGraph, FunctionInfo, ModuleInfo
from repro.analysis.dataflow.engine import Project, build_project
from repro.analysis.dataflow.sarif import render_sarif, validate_sarif

__all__ = [
    "CallGraph",
    "FunctionInfo",
    "ModuleInfo",
    "Project",
    "build_project",
    "render_sarif",
    "validate_sarif",
    "load_baseline",
    "save_baseline",
    "apply_baseline",
    "CacheStats",
    "IncrementalCache",
]
