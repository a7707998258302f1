"""Rendering and filtering for ``tcam check`` (:func:`repro.tooling.core.main`).

``--format json`` emits a stable-sorted JSON array (sorted by path,
line, rule, message; fields ``path``/``line``/``col``/``rule``/
``message``) so CI can turn the findings into GitHub annotations.
``--format sarif`` emits a SARIF 2.1.0 log (one run, rule metadata from
the shared registry) for the GitHub code-scanning UI.
``--select``/``--ignore`` take comma-separated rule codes and filter the
findings before rendering (``--select`` keeps only the listed rules;
``--ignore`` then drops its rules).

The module imports nothing from the analysis pass at runtime: it
renders :class:`~repro.tooling.core.Finding` records, and the rule
registry it reads is metadata, not an engine.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Sequence

from .registry import REGISTRY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import Finding

__all__ = [
    "filter_findings",
    "parse_codes",
    "render_json",
    "render_sarif",
]

#: ``$schema`` URL stamped into every SARIF log (the canonical 2.1.0 one).
SARIF_SCHEMA_URI = "https://json.schemastore.org/sarif-2.1.0.json"


def parse_codes(raw: str) -> frozenset[str]:
    """Parse a comma-separated ``--select``/``--ignore`` code list."""

    return frozenset(code.strip().upper() for code in raw.split(",") if code.strip())


def filter_findings(
    findings: Sequence["Finding"], select: str = "", ignore: str = ""
) -> list["Finding"]:
    """Apply ``--select`` (keep only) then ``--ignore`` (drop) filters."""

    keep = parse_codes(select)
    drop = parse_codes(ignore)
    return [
        finding
        for finding in findings
        if (not keep or finding.rule in keep) and finding.rule not in drop
    ]


def _sorted_findings(findings: Sequence["Finding"]) -> list["Finding"]:
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule, f.message))


def render_json(findings: Sequence["Finding"]) -> str:
    """Render findings as the shared JSON schema, stable-sorted.

    The sort key is ``(path, line, rule, message)`` so two runs over the
    same tree always serialize identically, which lets CI diff or cache
    the output.
    """

    return json.dumps(
        [
            {
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "rule": f.rule,
                "message": f.message,
            }
            for f in _sorted_findings(findings)
        ],
        indent=2,
    )


def render_sarif(findings: Sequence["Finding"]) -> str:
    """Render findings as a SARIF 2.1.0 log for code-scanning upload.

    One ``run`` whose driver is ``tcam check``; the rule metadata
    (short description, help URI into ``docs/static-analysis.md``) comes
    from the shared registry, so every rule that *fired* is described in
    the log.  Findings keep the shared stable sort, columns are
    converted from 0-based to SARIF's 1-based convention, and paths are
    normalised to forward slashes as relative ``artifactLocation`` URIs.
    """

    ordered = _sorted_findings(findings)
    fired = sorted({f.rule for f in ordered})
    rules = []
    for code in fired:
        spec = REGISTRY.get(code)
        rule: dict[str, object] = {"id": code}
        if spec is not None:
            rule["shortDescription"] = {"text": spec.summary}
            rule["helpUri"] = spec.doc_url
            rule["properties"] = {"ruleClass": spec.rule_class, "tool": spec.tool}
        rules.append(rule)
    rule_index = {code: position for position, code in enumerate(fired)}
    results = [
        {
            "ruleId": f.rule,
            "ruleIndex": rule_index[f.rule],
            "level": "error",
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": f.path.replace("\\", "/"),
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {
                            "startLine": max(f.line, 1),
                            "startColumn": f.col + 1,
                        },
                    }
                }
            ],
        }
        for f in ordered
    ]
    log = {
        "$schema": SARIF_SCHEMA_URI,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "tcam check",
                        "informationUri": "docs/static-analysis.md",
                        "rules": rules,
                    }
                },
                "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
                "results": results,
            }
        ],
    }
    return json.dumps(log, indent=2)
