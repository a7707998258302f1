"""The shared rule registry and the cross-tool CLI parity contract.

Registry side: every ``TCAMxxx`` code is declared exactly once in
``repro.tooling.registry``, each tool's ``RULES`` mapping is derived
from it (no duplicate, unregistered, or orphaned codes anywhere), and
every rule's ``doc_anchor`` resolves to a real heading in
``docs/static-analysis.md`` (using GitHub's heading-slug convention).

Parity side: the four tools — ``tcam lint``, ``tcam analyze``,
``tcam audit``, ``tcam prove`` — are one CLI surface. The parametrized
tests drive each tool's ``main`` through the shared flags (``--format
json``, ``--select``, ``--ignore``, ``--list-rules``, exit codes,
stable sort) against a per-tool dirty fixture and assert identical
behaviour everywhere.
"""

from __future__ import annotations

import json
import re
import shutil
import textwrap
from pathlib import Path

import pytest

from repro.tooling import lint as lint_module
from repro.tooling.core import main as check_main
from repro.tooling.core import visitors
from repro.tooling.determinism import RULES as PROVE_RULES
from repro.tooling.determinism import main as prove_main
from repro.tooling.lifecycle import RULES as AUDIT_RULES
from repro.tooling.lifecycle import main as audit_main
from repro.tooling.lint import RULES as LINT_RULES
from repro.tooling.lint import main as lint_main
from repro.tooling.races import RULES as ANALYZE_RULES
from repro.tooling.races import main as analyze_main
from repro.tooling.registry import (
    REGISTRY,
    STORE_CONSTRUCTORS,
    TREE,
    facts_for,
    registry_errors,
    rules_for_tool,
    spec_for,
)
from repro.tooling.registry import TOOLS as COMMANDS

REPO_ROOT = Path(__file__).resolve().parents[2]

#: tool name -> the RULES mapping that tool actually exports.
TOOL_RULES = {
    "lint": LINT_RULES,
    "analyze": ANALYZE_RULES,
    "audit": AUDIT_RULES,
    "prove": PROVE_RULES,
}


# ---------------------------------------------------------------------------
# Registry integrity
# ---------------------------------------------------------------------------


def test_registry_is_internally_consistent():
    assert registry_errors() == []


# ---------------------------------------------------------------------------
# The registry checked against the package it describes
# ---------------------------------------------------------------------------


@pytest.fixture()
def package_copy(tmp_path):
    """A scratch copy of ``src/repro`` the tree-table checks can be run on."""
    copy = tmp_path / "repro"
    shutil.copytree(
        REPO_ROOT / "src" / "repro", copy, ignore=shutil.ignore_patterns("__pycache__")
    )
    assert registry_errors(copy) == []
    return copy


def test_renamed_file_is_reported(package_copy):
    (package_copy / "core" / "em.py").rename(package_copy / "core" / "em_loop.py")
    errors = registry_errors(package_copy)
    assert len(errors) == 1
    assert "'core/em.py' matches 0 files" in errors[0]


def test_ambiguous_suffix_is_reported(package_copy):
    twin = package_copy / "extensions" / "core"
    twin.mkdir()
    shutil.copy(package_copy / "core" / "serialize.py", twin / "serialize.py")
    errors = registry_errors(package_copy)
    assert len(errors) == 1
    assert "'core/serialize.py' matches 2 files" in errors[0]


@pytest.mark.parametrize(
    "relative, old, new, missing",
    [
        ("core/em.py", "def run_em(", "def run_em_loop(", "run_em"),
        ("core/engine.py", "def _run_worker(", "def _work(", "BlockedEStep._run_worker"),
        ("robustness/checkpoint.py", "def load(", "def restore(", "CheckpointManager.load"),
    ],
)
def test_renamed_function_is_reported(package_copy, relative, old, new, missing):
    target = package_copy / relative
    source = target.read_text(encoding="utf-8")
    assert old in source
    target.write_text(source.replace(old, new), encoding="utf-8")
    errors = registry_errors(package_copy)
    assert len(errors) == 1
    assert repr(missing) in errors[0] and repr(relative) in errors[0]


def test_every_tree_row_resolves_to_one_real_file():
    files = [path.as_posix() for path in (REPO_ROOT / "src" / "repro").rglob("*.py")]
    for suffix, facts in TREE.items():
        (match,) = [file for file in files if file.endswith(suffix)]
        assert facts_for(match) is facts
        assert facts_for(match.replace("/", "\\")) is facts  # Windows separators
    assert facts_for("src/repro/data/io.py") == type(facts)()  # unlisted: no facts


def test_store_constructors_name_live_code():
    # ``attach`` (SharedDerivedStore.attach, deleted with the shared-memory
    # pack) lingered here unnoticed; every entry must still be defined.
    paramstore = (REPO_ROOT / "src" / "repro" / "recommend" / "paramstore.py").read_text(
        encoding="utf-8"
    )
    for name in STORE_CONSTRUCTORS:
        assert re.search(rf"^\s*(def|class) {name}\b", paramstore, re.MULTILINE), name


def test_every_rule_has_exactly_one_visitor():
    owned = [code for codes, _ in visitors() for code in codes]
    assert sorted(owned) == sorted(code for code, spec in REGISTRY.items() if spec.tool != "shared")
    # the two rule pairs share one visitor each
    by_code = {code: visitor for codes, visitor in visitors() for code in codes}
    assert by_code["TCAM005"] is by_code["TCAM030"]
    assert by_code["TCAM013"] is by_code["TCAM031"]


def test_visitor_registration_mistakes_are_reported(monkeypatch):
    table = dict(lint_module.VISITORS)
    orphan = table.pop(("TCAM001",))
    monkeypatch.setattr(lint_module, "VISITORS", table)
    assert registry_errors() == ["TCAM001 has 0 visitors; expected one"]
    monkeypatch.setattr(
        lint_module, "VISITORS", {**table, ("TCAM001", "TCAM002"): orphan, ("TCAM999",): orphan}
    )
    assert registry_errors() == [
        "a visitor is registered to unknown rule code TCAM999",
        "TCAM002 has 2 visitors; expected one",
    ]


def test_every_tool_exports_exactly_its_registered_rules():
    for tool, rules in TOOL_RULES.items():
        assert rules == rules_for_tool(tool), (
            f"{tool}'s RULES mapping disagrees with the registry"
        )


def test_no_code_is_claimed_by_two_tools():
    seen: dict[str, str] = {}
    for tool, rules in TOOL_RULES.items():
        for code in rules:
            assert code not in seen, (
                f"{code} claimed by both {seen[code]} and {tool}"
            )
            seen[code] = tool


def test_registry_covers_all_tools_and_nothing_else():
    tool_codes = {code for rules in TOOL_RULES.values() for code in rules}
    registered = {
        code for code, spec in REGISTRY.items() if spec.tool != "shared"
    }
    assert tool_codes == registered
    # the shared parse-failure pseudo-rule exists but belongs to no tool
    assert spec_for("TCAM000").tool == "shared"
    assert "TCAM000" not in tool_codes


def test_spec_lookup_is_case_insensitive_and_strict():
    assert spec_for("tcam030").code == "TCAM030"
    with pytest.raises(KeyError):
        spec_for("TCAM999")


def _github_slug(heading: str) -> str:
    """GitHub's markdown heading-anchor convention."""
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def test_every_doc_anchor_resolves_to_a_real_heading():
    doc = (REPO_ROOT / "docs" / "static-analysis.md").read_text(encoding="utf-8")
    slugs = {
        _github_slug(line.lstrip("#"))
        for line in doc.splitlines()
        if line.startswith("#")
    }
    for spec in REGISTRY.values():
        assert spec.doc_anchor in slugs, (
            f"{spec.code}'s doc anchor #{spec.doc_anchor} has no matching "
            "heading in docs/static-analysis.md"
        )
        assert spec.doc_url == f"docs/static-analysis.md#{spec.doc_anchor}"


def test_rules_for_unknown_tool_is_an_error():
    with pytest.raises(ValueError):
        rules_for_tool("fuzz")


def test_check_owns_every_presets_rules():
    assert list(COMMANDS) == ["check", *TOOL_RULES]
    merged = {code: summary for rules in TOOL_RULES.values() for code, summary in rules.items()}
    assert rules_for_tool("check") == merged


# ---------------------------------------------------------------------------
# Cross-tool CLI parity
# ---------------------------------------------------------------------------

#: Per-tool minimal dirty fixture and the single rule it must trigger.
LINT_DIRTY = """
import numpy as np

x = np.random.rand(3)
"""

ANALYZE_DIRTY = """
from concurrent.futures import ThreadPoolExecutor

class Engine:
    def run(self, n):
        with ThreadPoolExecutor() as pool:
            futures = [pool.submit(self._worker, w) for w in range(n)]
        return [f.result() for f in futures]

    def _worker(self, worker):
        self.total += worker
"""

AUDIT_DIRTY = """
def read_header(path):
    handle = open(path, "rb")
    return handle.read(16).hex()
"""

PROVE_DIRTY = """
from repro.typing import bit_deterministic

@bit_deterministic
def replay(events):
    out = []
    for event in set(events):
        out.append(event)
    return out
"""

TOOLS = [
    pytest.param(lint_main, "lint", LINT_DIRTY, "TCAM001", id="lint"),
    pytest.param(analyze_main, "analyze", ANALYZE_DIRTY, "TCAM010", id="analyze"),
    pytest.param(audit_main, "audit", AUDIT_DIRTY, "TCAM020", id="audit"),
    pytest.param(prove_main, "prove", PROVE_DIRTY, "TCAM030", id="prove"),
    pytest.param(check_main, "check", AUDIT_DIRTY, "TCAM020", id="check"),
]


def _write_dirty(tmp_path: Path, source: str) -> Path:
    dirty = tmp_path / "dirty.py"
    dirty.write_text(textwrap.dedent(source).lstrip(), encoding="utf-8")
    return dirty


@pytest.mark.parametrize("tool_main, tool, dirty_source, expected_rule", TOOLS)
def test_exit_codes_are_uniform(tool_main, tool, dirty_source, expected_rule, tmp_path):
    dirty = _write_dirty(tmp_path, dirty_source)
    assert tool_main([str(dirty)]) == 1
    clean = tmp_path / "clean.py"
    clean.write_text("VALUE = 1\n", encoding="utf-8")
    assert tool_main([str(clean)]) == 0


@pytest.mark.parametrize("tool_main, tool, dirty_source, expected_rule", TOOLS)
def test_json_schema_is_shared(tool_main, tool, dirty_source, expected_rule, tmp_path, capsys):
    dirty = _write_dirty(tmp_path, dirty_source)
    assert tool_main([str(dirty), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [f["rule"] for f in payload] == [expected_rule]
    for finding in payload:
        assert sorted(finding) == ["col", "line", "message", "path", "rule"]


@pytest.mark.parametrize("tool_main, tool, dirty_source, expected_rule", TOOLS)
def test_json_output_is_stable_across_runs(tool_main, tool, dirty_source, expected_rule, tmp_path, capsys):
    dirty = _write_dirty(tmp_path, dirty_source)
    assert tool_main([str(dirty), "--format", "json"]) == 1
    first = capsys.readouterr().out
    assert tool_main([str(dirty), "--format", "json"]) == 1
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("tool_main, tool, dirty_source, expected_rule", TOOLS)
def test_select_and_ignore_filters(tool_main, tool, dirty_source, expected_rule, tmp_path, capsys):
    dirty = _write_dirty(tmp_path, dirty_source)
    # selecting an unrelated rule drops the finding and the failure
    assert tool_main([str(dirty), "--select", "TCAM999"]) == 0
    # ignoring the expected rule likewise
    assert tool_main([str(dirty), "--ignore", expected_rule]) == 0
    # selecting the expected rule keeps it
    assert tool_main([str(dirty), "--select", expected_rule]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("tool_main, tool, dirty_source, expected_rule", TOOLS)
def test_list_rules_prints_the_registry_catalogue(tool_main, tool, dirty_source, expected_rule, capsys):
    assert tool_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code, summary in rules_for_tool(tool).items():
        assert code in out
        assert summary in out


@pytest.mark.parametrize("tool_main, tool, dirty_source, expected_rule", TOOLS)
def test_sarif_format_names_the_tool(tool_main, tool, dirty_source, expected_rule, tmp_path, capsys):
    dirty = _write_dirty(tmp_path, dirty_source)
    assert tool_main([str(dirty), "--format", "sarif"]) == 1
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    driver = log["runs"][0]["tool"]["driver"]
    assert driver["name"] == f"tcam {tool}"
    assert [r["ruleId"] for r in log["runs"][0]["results"]] == [expected_rule]
    rule = log["runs"][0]["tool"]["driver"]["rules"][0]
    assert rule["helpUri"] == spec_for(expected_rule).doc_url


@pytest.mark.parametrize("tool_main, tool, dirty_source, expected_rule", TOOLS)
def test_baseline_flags_work_everywhere(tool_main, tool, dirty_source, expected_rule, tmp_path, capsys):
    dirty = _write_dirty(tmp_path, dirty_source)
    baseline = tmp_path / "baseline.json"
    assert tool_main([str(dirty), "--write-baseline", str(baseline)]) == 0
    assert tool_main([str(dirty), "--baseline", str(baseline)]) == 0
    assert tool_main([str(dirty), "--baseline", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
