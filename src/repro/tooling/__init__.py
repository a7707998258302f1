"""Developer tooling for the TCAM reproduction.

Home to the one static-analysis pass (:mod:`repro.tooling.core`, ``tcam
check``) and the four rule families it runs — the domain linter
(:mod:`repro.tooling.lint`), the concurrency-race analyzer
(:mod:`repro.tooling.races`), the resource-lifecycle and
crash-consistency auditor (:mod:`repro.tooling.lifecycle`), the
determinism & dtype-flow verifier (:mod:`repro.tooling.determinism`) —
and to the opt-in runtime sanitizer (:mod:`repro.tooling.sanitize`).
Together they encode the determinism, numerical-safety, data-race and
durability invariants the test suite otherwise only catches after the
fact. ``tcam check`` and its four presets share one CLI surface
(:mod:`repro.tooling.output`): ``--format json`` emits the same
stable-sorted schema from each (``--format sarif`` the same SARIF 2.1.0
log), which CI turns into GitHub annotations and code-scanning uploads,
and every rule code and every fact about this tree is declared once in
:mod:`repro.tooling.registry`.

The submodules are loaded lazily: ``repro.core`` and ``repro.recommend``
import :mod:`repro.tooling.sanitize` and must not pay for the analyser,
and ``python -m repro.tooling.lint`` (or ``...races``) must not import
its module twice (once as a package attribute, once as ``__main__``),
which would trigger a runpy ``RuntimeWarning``.
"""

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .determinism import prove_paths, prove_source
    from .lifecycle import audit_paths, audit_source
    from .lint import Finding, lint_paths, lint_source, main
    from .races import analyze_paths, analyze_source
    from .registry import REGISTRY, RuleSpec, rules_for_tool
    from .sanitize import Sanitizer, SanitizerError, sanitize_enabled

#: Lazily exported name -> owning submodule.
_SUBMODULE_EXPORTS = {
    "Finding": "lint",
    "lint_paths": "lint",
    "lint_source": "lint",
    "main": "lint",
    "analyze_paths": "races",
    "analyze_source": "races",
    "audit_paths": "lifecycle",
    "audit_source": "lifecycle",
    "prove_paths": "determinism",
    "prove_source": "determinism",
    "REGISTRY": "registry",
    "RuleSpec": "registry",
    "rules_for_tool": "registry",
    "Sanitizer": "sanitize",
    "SanitizerError": "sanitize",
    "sanitize_enabled": "sanitize",
}

__all__ = [
    "Finding",
    "lint_paths",
    "lint_source",
    "main",
    "analyze_paths",
    "analyze_source",
    "audit_paths",
    "audit_source",
    "prove_paths",
    "prove_source",
    "REGISTRY",
    "RuleSpec",
    "rules_for_tool",
    "Sanitizer",
    "SanitizerError",
    "sanitize_enabled",
]


def __getattr__(name: str) -> Any:
    submodule = _SUBMODULE_EXPORTS.get(name)
    if submodule is not None:
        from importlib import import_module

        return getattr(import_module(f".{submodule}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
