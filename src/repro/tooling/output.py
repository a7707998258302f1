"""Shared CLI surface for the tcam static-analysis tools.

``tcam check`` (every rule) and its presets ``tcam lint`` (TCAM001–005),
``tcam analyze`` (TCAM010–013), ``tcam audit`` (TCAM020–025) and ``tcam
prove`` (TCAM030–035) are selections of one analysis pass
(:mod:`repro.tooling.core`) with one reporting contract: the same
``Finding`` record, the same suppression comment, and — through this
module — the same command line.  Every entry point accepts::

    <tool> [paths...] [--list-rules] [--format {text,json,sarif}]
           [--select CODES] [--ignore CODES]
           [--baseline FILE] [--write-baseline FILE]

``--format json`` emits a stable-sorted JSON array (sorted by path,
line, rule, message; fields ``path``/``line``/``col``/``rule``/
``message``) so CI can turn any tool's findings into GitHub annotations
from one schema.  ``--format sarif`` emits a SARIF 2.1.0 log (one run,
rule metadata from the shared registry) for the GitHub code-scanning
UI.  ``--select``/``--ignore`` take comma-separated rule codes and
filter the findings before rendering (``--select`` keeps only the
listed rules; ``--ignore`` then drops its rules).

``--write-baseline FILE`` records the current findings (after
filtering) and exits 0; a later run with ``--baseline FILE`` reports —
and fails on — only findings *not* in the recorded set.  Baseline
matching is by ``(path, rule, message)`` with multiplicity, deliberately
ignoring line numbers so unrelated edits do not invalidate the
baseline.  This is the incremental-adoption path for new rules: record,
burn the debt down over time, delete the file.

The module deliberately imports nothing from the analysis pass at
runtime — each preset passes its own collector callable into
:func:`run_cli` (the shared rule registry is metadata, not an engine).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from .registry import REGISTRY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import Finding

__all__ = [
    "apply_baseline",
    "baseline_key",
    "filter_findings",
    "load_baseline",
    "parse_codes",
    "render_json",
    "render_sarif",
    "run_cli",
    "write_baseline",
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


def render_sarif(findings: Sequence["Finding"], prog: str) -> str:
    """Render findings as a SARIF 2.1.0 log for code-scanning upload.

    One ``run`` whose driver is the invoking tool; the rule metadata
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
                        "name": prog,
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


# -- baselines ---------------------------------------------------------------


def baseline_key(path: str, rule: str, message: str) -> tuple[str, str, str]:
    """The identity a baseline entry matches on (line numbers excluded)."""

    return (path.replace("\\", "/"), rule, message)


def write_baseline(findings: Sequence["Finding"], file: Path) -> None:
    """Record the findings to ``file`` in the shared JSON schema."""

    file.write_text(render_json(findings) + "\n", encoding="utf-8")


def load_baseline(file: Path) -> Counter[tuple[str, str, str]]:
    """Load a recorded baseline as a multiset of finding keys."""

    entries = json.loads(file.read_text(encoding="utf-8"))
    if not isinstance(entries, list):
        raise ValueError(f"baseline {file} is not a JSON array")
    keys: Counter[tuple[str, str, str]] = Counter()
    for entry in entries:
        keys[baseline_key(entry["path"], entry["rule"], entry["message"])] += 1
    return keys


def apply_baseline(
    findings: Sequence["Finding"], baseline: Counter[tuple[str, str, str]]
) -> list["Finding"]:
    """Drop findings recorded in the baseline; keep only *new* ones.

    Matching is by ``(path, rule, message)`` with multiplicity: a
    baseline recording one occurrence of a finding still reports a
    second identical occurrence as new.
    """

    budget = Counter(baseline)
    fresh: list["Finding"] = []
    for finding in _sorted_findings(findings):
        key = baseline_key(finding.path, finding.rule, finding.message)
        if budget[key] > 0:
            budget[key] -= 1
        else:
            fresh.append(finding)
    return fresh


def run_cli(
    prog: str,
    description: str,
    rules: Mapping[str, str],
    collect: Callable[[Sequence[str]], list["Finding"]],
    argv: Sequence[str] | None = None,
    default_paths: Sequence[str] = ("src/repro",),
) -> int:
    """Run one analysis tool's CLI; returns the shell exit status.

    ``collect`` maps the positional paths to a findings list; everything
    else (rule listing, filtering, baselines, text/JSON/SARIF rendering,
    exit status) is identical across the entry points and lives here.
    """

    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(default_paths),
        help=f"files or directories (default: {' '.join(default_paths)})",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        dest="format_",
        help="findings output: compiler-style text (default), the shared "
        "stable-sorted JSON schema, or a SARIF 2.1.0 log",
    )
    parser.add_argument(
        "--select",
        default="",
        help="comma-separated rule codes to keep (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default="",
        help="comma-separated rule codes to drop",
    )
    parser.add_argument(
        "--baseline",
        default="",
        metavar="FILE",
        help="recorded-findings file; only findings not in it are reported",
    )
    parser.add_argument(
        "--write-baseline",
        default="",
        metavar="FILE",
        help="record the current findings to FILE and exit 0",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for code, summary in sorted(rules.items()):
            print(f"{code}  {summary}")
        return 0

    findings = filter_findings(collect(args.paths), args.select, args.ignore)
    if args.write_baseline:
        write_baseline(findings, Path(args.write_baseline))
        print(
            f"{prog}: recorded {len(findings)} finding(s) to {args.write_baseline}",
            file=sys.stderr,
        )
        return 0
    if args.baseline:
        baseline_file = Path(args.baseline)
        if not baseline_file.is_file():
            print(f"{prog}: baseline {args.baseline} not found", file=sys.stderr)
            return 2
        findings = apply_baseline(findings, load_baseline(baseline_file))
    if args.format_ == "json":
        print(render_json(findings))
    elif args.format_ == "sarif":
        print(render_sarif(findings, prog))
    else:
        for finding in findings:
            print(finding.render())
    if findings:
        print(f"{prog}: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0
