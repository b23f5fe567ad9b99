"""The reprolint driver: file discovery, rule dispatch, filtering.

:func:`lint_paths` is the high-level entry point used by ``repro lint``
and ``python -m repro.analysis``; :func:`lint_source` lints one in-memory
source string (the unit tests' workhorse); :func:`lint_session` adds the
content-addressed incremental mode on top of :func:`lint_paths`.

Per-file rules run on each file independently.  Project rules
(:class:`~repro.analysis.core.ProjectRule`, the RD4xx–RD6xx dataflow
families) run once over a :class:`~repro.analysis.dataflow.Project`
built from every parsed file; their findings are then filtered with the
same scoping/suppression machinery as per-file findings, keyed by the
file each finding lands in.
"""

from __future__ import annotations

import ast
import os
from pathlib import Path

from repro.analysis import rules as _rules  # noqa: F401 — registers the rule set
from repro.analysis.config import LintConfig, path_matches
from repro.analysis.core import (
    PARSE_ERROR_CODE,
    REGISTRY,
    UNJUSTIFIED_SUPPRESSION_CODE,
    FileContext,
    Finding,
    ProjectRule,
)
from repro.analysis.dataflow.cache import CacheStats, IncrementalCache, compute_dirty
from repro.analysis.dataflow.callgraph import module_imports, module_name_for
from repro.analysis.dataflow.engine import (
    DATAFLOW_CODES,
    build_project,
    serialize_module,
)
from repro.analysis.suppressions import (
    collect_suppressions,
    expand_decorated_spans,
    unjustified,
)
from repro.errors import ValidationError
from repro.util.hashing import stable_digest

__all__ = [
    "lint_paths",
    "lint_source",
    "lint_session",
    "iter_python_files",
    "module_rel",
]


def module_rel(path: Path, root: Path) -> str:
    """Package-relative posix path used for rule scoping.

    Files inside the ``repro`` package are addressed from the package root
    (``repro/kernels/spmm.py`` regardless of src-layout); anything else
    falls back to the lint-root-relative path.
    """
    parts = path.resolve().parts
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        return "/".join(parts[index:])
    return display_rel(path, root)


def display_rel(path: Path, root: Path) -> str:
    """Lint-root-relative posix path used in reports.

    Always relative: paths outside the root are expressed with ``..``
    components rather than leaking absolute machine paths into reports,
    baselines and SARIF artifacts.
    """
    resolved = path.resolve()
    root = Path(root).resolve()
    try:
        return resolved.relative_to(root).as_posix()
    except ValueError:
        return Path(os.path.relpath(resolved, root)).as_posix()


def iter_python_files(paths, config: LintConfig):
    """Yield the ``.py`` files under ``paths``, honouring ``exclude``."""
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise ValidationError(f"lint path does not exist: {raw}")
        candidates = (
            sorted(p for p in path.rglob("*.py") if "__pycache__" not in p.parts)
            if path.is_dir()
            else [path]
        )
        for candidate in candidates:
            if not path_matches(display_rel(candidate, config.root), config.exclude):
                yield candidate


class _ParsedFile:
    """One successfully parsed file plus its suppression map."""

    __slots__ = ("ctx", "suppressions")

    def __init__(self, ctx: FileContext, suppressions: dict):
        self.ctx = ctx
        self.suppressions = suppressions


def _parse(source: str, display: str, rel: str, config: LintConfig):
    """``(_ParsedFile, [])`` or ``(None, [parse-error finding])``."""
    try:
        tree = ast.parse(source, filename=display)
    except SyntaxError as exc:
        finding = Finding(
            path=display,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            code=PARSE_ERROR_CODE,
            message=f"file could not be parsed: {exc.msg}",
        )
        return None, [finding]
    lines = source.splitlines()
    ctx = FileContext(
        display=display, module_rel=rel, tree=tree, lines=lines, config=config
    )
    suppressions = expand_decorated_spans(collect_suppressions(lines), tree)
    return _ParsedFile(ctx, suppressions), []


def _rule_applies(rule, display: str, rel: str, config: LintConfig) -> bool:
    if not config.code_enabled(rule.code) or config.ignored_at(display, rule.code):
        return False
    if rule.scope_key and not path_matches(rel, config.scope(rule.scope_key)):
        return False
    if rule.exempt_key and path_matches(rel, config.scope(rule.exempt_key)):
        return False
    return True


def _unjustified_findings(ctx: FileContext, config: LintConfig) -> list[Finding]:
    """One ``RD002`` per inline suppression without a justification."""
    code = UNJUSTIFIED_SUPPRESSION_CODE
    if not config.code_enabled(code) or config.ignored_at(ctx.display, code):
        return []
    return [
        Finding(
            path=ctx.display,
            line=suppression.line,
            col=0,
            code=code,
            message=f"suppression of {','.join(sorted(suppression.codes))} "
            "has no '-- justification'; say why the finding does not apply",
        )
        for suppression in unjustified(collect_suppressions(ctx.lines))
    ]


def _file_findings(parsed: _ParsedFile, config: LintConfig) -> list[Finding]:
    """Per-file rule findings for one parsed file, suppressions applied."""
    ctx, suppressions = parsed.ctx, parsed.suppressions
    findings = _unjustified_findings(ctx, config)
    for code in sorted(REGISTRY):
        rule = REGISTRY[code]
        if isinstance(rule, ProjectRule):
            continue
        if not _rule_applies(rule, ctx.display, ctx.module_rel, config):
            continue
        for finding in rule.visit(ctx):
            suppression = suppressions.get(finding.line)
            if suppression is not None and finding.code in suppression.codes:
                continue
            findings.append(finding)
    return findings


def _project_rules(config: LintConfig) -> list[ProjectRule]:
    return [
        REGISTRY[code]
        for code in sorted(REGISTRY)
        if isinstance(REGISTRY[code], ProjectRule) and config.code_enabled(code)
    ]


def _project_findings(
    parsed_files: dict, config: LintConfig, *, cached=None, project_out=None
) -> list[Finding]:
    """Project-rule findings over ``parsed_files`` (display -> _ParsedFile).

    ``cached`` supplies serialised module stubs for files the incremental
    mode did not re-parse; ``project_out`` (a list) receives the built
    :class:`Project` so callers can serialise summaries afterwards.
    """
    rules = _project_rules(config)
    if not rules or not parsed_files:
        return []
    project = build_project(
        (p.ctx for p in parsed_files.values()), cached=cached
    )
    if project_out is not None:
        project_out.append(project)
    findings: list[Finding] = []
    for rule in rules:
        for finding in rule.analyze(project):
            parsed = parsed_files.get(finding.path)
            if parsed is None:
                continue
            if not _rule_applies(
                rule, finding.path, parsed.ctx.module_rel, config
            ):
                continue
            suppression = parsed.suppressions.get(finding.line)
            if suppression is not None and finding.code in suppression.codes:
                continue
            findings.append(finding)
    return findings


def lint_source(
    source: str,
    *,
    display: str,
    config: LintConfig,
    module_path: str | None = None,
) -> list[Finding]:
    """Lint one source string; ``module_path`` overrides rule scoping.

    Project rules see a one-file project, so intra-module dataflow
    findings (the fixture tests' bread and butter) are reported; true
    cross-file findings need :func:`lint_paths`.
    """
    rel = module_path if module_path is not None else display
    parsed, errors = _parse(source, display, rel, config)
    if parsed is None:
        return errors
    findings = _file_findings(parsed, config)
    findings.extend(_project_findings({display: parsed}, config))
    return sorted(findings)


def _load_files(paths, config: LintConfig):
    """``(display, rel, source, digest)`` for every file under ``paths``."""
    out = []
    for path in iter_python_files(paths, config):
        source = path.read_text(encoding="utf-8")
        out.append(
            (
                display_rel(path, config.root),
                module_rel(path, config.root),
                source,
                stable_digest(source.encode("utf-8")),
            )
        )
    return out


def lint_paths(paths, config: LintConfig | None = None) -> list[Finding]:
    """Lint files/directories and return all findings, sorted and stable."""
    if config is None:
        config = LintConfig()
    findings: list[Finding] = []
    parsed_files: dict[str, _ParsedFile] = {}
    for display, rel, source, _ in _load_files(paths, config):
        parsed, errors = _parse(source, display, rel, config)
        if parsed is None:
            findings.extend(errors)
            continue
        parsed_files[display] = parsed
        findings.extend(_file_findings(parsed, config))
    findings.extend(_project_findings(parsed_files, config))
    return sorted(findings)


def lint_session(
    paths, config: LintConfig | None = None, cache_dir=None
) -> tuple[list[Finding], CacheStats]:
    """Incremental lint: only changed files and their importers re-analyse.

    Files are keyed by content digest; a file is dirty when its digest
    changed or a module it (transitively) imports is dirty.  Clean files
    contribute cached findings and cached function summaries, so the
    project rules still see the whole program.  Returns the full findings
    list (cached + fresh) and the session's :class:`CacheStats`.
    """
    if config is None:
        config = LintConfig()
    if cache_dir is None:
        cache_dir = Path(config.root) / ".reprolint-cache"
    cache = IncrementalCache(cache_dir)
    cached_files = cache.load()
    loaded = _load_files(paths, config)
    dirty = compute_dirty(
        [(display, module_name_for(rel), digest) for display, rel, _, digest in loaded],
        cached_files,
    )

    stats = CacheStats()
    findings: list[Finding] = []
    parsed_files: dict[str, _ParsedFile] = {}
    fresh_local: dict[str, list[Finding]] = {}
    cached_modules: dict[str, dict] = {}
    entries: dict[str, dict] = {}

    for display, rel, source, digest in loaded:
        if display not in dirty:
            stats.hits += 1
            entry = cached_files[display]
            findings.extend(Finding(**f) for f in entry.get("findings", ()))
            if entry.get("module") is not None:
                cached_modules[module_name_for(rel)] = entry["module"]
            entries[display] = entry
            continue
        stats.misses += 1
        stats.dirty.append(display)
        parsed, errors = _parse(source, display, rel, config)
        if parsed is None:
            findings.extend(errors)
            entries[display] = {
                "digest": digest,
                "module_rel": rel,
                "imports": [],
                "findings": [f.to_dict() for f in errors],
                "module": None,
            }
            continue
        parsed_files[display] = parsed
        fresh_local[display] = _file_findings(parsed, config)
        findings.extend(fresh_local[display])
        entries[display] = {
            "digest": digest,
            "module_rel": rel,
            "imports": [],
            "findings": [],
            "module": None,
        }

    project_out: list = []
    project_findings = _project_findings(
        parsed_files, config, cached=cached_modules, project_out=project_out
    )
    findings.extend(project_findings)

    by_display: dict[str, list[Finding]] = {}
    for finding in project_findings:
        by_display.setdefault(finding.path, []).append(finding)
    project = project_out[0] if project_out else None
    for display, parsed in parsed_files.items():
        entry = entries[display]
        file_findings = fresh_local.get(display, []) + by_display.get(display, [])
        entry["findings"] = [f.to_dict() for f in sorted(file_findings)]
        if project is not None:
            name = module_name_for(parsed.ctx.module_rel)
            module = project.modules.get(name)
            if module is not None and module.tree is not None:
                entry["imports"] = module_imports(module)
                entry["module"] = serialize_module(project, module)
    cache.save(entries)
    return sorted(findings), stats
