"""RD4xx/RD5xx/RD6xx — inter-procedural dataflow rules.

These are :class:`~repro.analysis.core.ProjectRule` subclasses: the
runner builds one :class:`~repro.analysis.dataflow.Project` per session
(call graph + per-function summaries, see :mod:`repro.analysis.dataflow`)
and each rule reads its code's findings out of the shared analysis
results.  Scoping and inline suppressions are applied per finding by the
runner, against the file each finding lands in.
"""

from __future__ import annotations

from repro.analysis.core import ProjectRule, register

__all__ = [
    "HashTaintRule",
    "KernelTaintRule",
    "ImplicitUpcastRule",
    "ImpureContractTargetRule",
    "EffectBeforeFaultRule",
]


class _DataflowRule(ProjectRule):
    """Shared ``analyze``: pull this rule's code from the project results."""

    def analyze(self, project):
        """Yield the project's findings carrying this rule's code."""
        yield from project.results().get(self.code, ())


@register
class HashTaintRule(_DataflowRule):
    """RD401: nondeterminism taint reaching a hash/fingerprint sink."""

    code = "RD401"
    name = "tainted-fingerprint"
    summary = (
        "a nondeterministic value (clock, unseeded RNG, os.urandom, id(), "
        "set/dict iteration order) flows into stable_digest/fingerprint "
        "hashing — cache keys would differ across runs"
    )
    scope_key = "taint-paths"


@register
class KernelTaintRule(_DataflowRule):
    """RD402: nondeterminism taint reaching kernel output or generated code."""

    code = "RD402"
    name = "tainted-kernel-output"
    summary = (
        "a nondeterministic value flows into a kernel return value or "
        "generated/exec'd source — results would not be bitwise-reproducible"
    )
    scope_key = "taint-paths"


@register
class ImplicitUpcastRule(_DataflowRule):
    """RD501: float32 data silently widened by a hard float64 value."""

    code = "RD501"
    name = "implicit-float64-upcast"
    summary = (
        "a float32/dtype-preserving value meets a hard float64 value "
        "(e.g. np.zeros without dtype=) and silently upcasts — doubles "
        "memory traffic on the GPU path"
    )
    scope_key = "dtype-paths"


@register
class ImpureContractTargetRule(_DataflowRule):
    """RD601: ``@checked`` contract target with observable side effects."""

    code = "RD601"
    name = "impure-contract-target"
    summary = (
        "a validator referenced by @checked/validates/invokes mutates "
        "state or performs I/O — toggling REPRO_CONTRACTS would change "
        "behaviour"
    )
    scope_key = "purity-paths"


@register
class EffectBeforeFaultRule(_DataflowRule):
    """RD602: observable side effect preceding a ``fault_point`` probe."""

    code = "RD602"
    name = "effect-before-fault-point"
    summary = (
        "an observable side effect executes before a fault_point() call "
        "in the same function — an injected fault would leave partial "
        "state behind"
    )
    scope_key = "purity-paths"
