"""Developer tooling for the TCAM reproduction.

Home to the one static-analysis pass (:mod:`repro.tooling.core`, ``tcam
check``) and the three rule families it runs — the domain linter with
the serving-layer lock rule (:mod:`repro.tooling.lint`), the
resource-lifecycle and crash-consistency auditor
(:mod:`repro.tooling.lifecycle`), the determinism & dtype-flow verifier
(:mod:`repro.tooling.determinism`) — and to the opt-in runtime sanitizer
(:mod:`repro.tooling.sanitize`, switched on by ``TCAM_SANITIZE=1``).
Together they encode the determinism, numerical-safety, locking and
durability invariants the test suite otherwise only catches after the
fact. ``tcam check --format json`` emits a stable-sorted schema and
``--format sarif`` a SARIF 2.1.0 log (:mod:`repro.tooling.output`),
which CI turns into GitHub annotations and code-scanning uploads, and
every rule code and every fact about this tree is declared once in
:mod:`repro.tooling.registry`.

The submodules are loaded lazily: ``repro.core`` and ``repro.recommend``
import :mod:`repro.tooling.sanitize` and must not pay for the analyser.
"""

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import Finding, check_paths, check_source, main
    from .registry import REGISTRY, RuleSpec
    from .sanitize import SanitizerError, sanitize_enabled

#: Lazily exported name -> owning submodule.
_SUBMODULE_EXPORTS = {
    "Finding": "core",
    "check_paths": "core",
    "check_source": "core",
    "main": "core",
    "REGISTRY": "registry",
    "RuleSpec": "registry",
    "SanitizerError": "sanitize",
    "sanitize_enabled": "sanitize",
}

__all__ = [
    "Finding",
    "check_paths",
    "check_source",
    "main",
    "REGISTRY",
    "RuleSpec",
    "SanitizerError",
    "sanitize_enabled",
]


def __getattr__(name: str) -> Any:
    submodule = _SUBMODULE_EXPORTS.get(name)
    if submodule is not None:
        from importlib import import_module

        return getattr(import_module(f".{submodule}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
