"""The shared rule registry and the one command line over every family.

Registry side: every ``TCAMxxx`` code is declared exactly once in
``repro.tooling.registry``, each family's rule module owns exactly the
codes registered to that family (no duplicate, unregistered, or
orphaned codes anywhere), and every rule's ``doc_anchor`` resolves to a
real heading in ``docs/static-analysis.md`` (using GitHub's
heading-slug convention).

CLI side: ``tcam check`` is the one command. The parametrized tests
drive its ``main`` through the flags (``--format json``, ``--select``,
``--ignore``, ``--list-rules``, exit codes, stable sort) against one
dirty fixture per family — lint, audit, prove, and the whole
pass — and assert the same behaviour for each.
"""

from __future__ import annotations

import json
import re
import shutil
import textwrap
from pathlib import Path

import pytest

from repro.tooling import determinism, lifecycle, lint, registry
from repro.tooling.core import main, visitors
from repro.tooling.registry import (
    REGISTRY,
    STORE_CONSTRUCTORS,
    TREE,
    RuleSpec,
    facts_for,
    registry_errors,
    spec_for,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Family -> the rule module whose ``VISITORS`` own its codes.
FAMILY_MODULES = {
    "lint": lint,
    "audit": lifecycle,
    "prove": determinism,
}


def family_codes(family: str) -> set[str]:
    """The codes registered to one family (``check``: every listed rule)."""
    return {
        code
        for code, spec in REGISTRY.items()
        if spec.tool == family or (family == "check" and spec.tool != "shared")
    }


def module_codes(module) -> set[str]:
    """The codes a rule module's visitors own."""
    return {code for codes in module.VISITORS for code in codes}


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
    shutil.copy(package_copy / "core" / "model.py", twin / "model.py")
    errors = registry_errors(package_copy)
    assert len(errors) == 1
    assert "'core/model.py' matches 2 files" in errors[0]


@pytest.mark.parametrize(
    "relative, old, new, missing",
    [
        ("core/em.py", "def run_em(", "def run_em_loop(", "run_em"),
        ("core/engine.py", "def accumulate(", "def fold(", "accumulate"),
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
    assert by_code["TCAM020"] is by_code["TCAM024"]
    assert by_code["TCAM030"] is by_code["TCAM031"]


def test_visitor_registration_mistakes_are_reported(monkeypatch):
    table = dict(lint.VISITORS)
    orphan = table.pop(("TCAM001",))
    monkeypatch.setattr(lint, "VISITORS", table)
    assert registry_errors() == ["TCAM001 has 0 visitors; expected one"]
    monkeypatch.setattr(
        lint, "VISITORS", {**table, ("TCAM001", "TCAM002"): orphan, ("TCAM999",): orphan}
    )
    assert registry_errors() == [
        "a visitor is registered to unknown rule code TCAM999",
        "TCAM002 has 2 visitors; expected one",
    ]


def test_every_tool_exports_exactly_its_registered_rules():
    for family, module in FAMILY_MODULES.items():
        assert module_codes(module) == family_codes(family), (
            f"{module.__name__}'s visitors disagree with the {family} family's registry rows"
        )


def test_no_code_is_claimed_by_two_tools():
    seen: dict[str, str] = {}
    for family, module in FAMILY_MODULES.items():
        for code in module_codes(module):
            assert code not in seen, (
                f"{code} claimed by both {seen[code]} and {family}"
            )
            seen[code] = family


def test_registry_covers_all_tools_and_nothing_else():
    owned = set().union(*(module_codes(module) for module in FAMILY_MODULES.values()))
    assert owned == family_codes("check")
    # the shared parse-failure pseudo-rule exists but belongs to no family
    assert spec_for("TCAM000").tool == "shared"
    assert "TCAM000" not in owned


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


def test_rules_for_unknown_tool_is_an_error(monkeypatch):
    stray = RuleSpec("TCAM036", "fuzz", "determinism", "a stray rule", "suppressions")
    monkeypatch.setattr(registry, "_SPECS", (*registry._SPECS, stray))
    assert "TCAM036 registered to unknown family 'fuzz'" in registry_errors()


def test_check_owns_every_presets_rules(capsys):
    # The family selections are the old presets; --list-rules holds them all.
    assert main(["--list-rules"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == sorted(set().union(*map(module_codes, FAMILY_MODULES.values())))


# ---------------------------------------------------------------------------
# One CLI over every family
# ---------------------------------------------------------------------------

#: Per-family minimal dirty fixture and the single rule it must trigger.
LINT_DIRTY = """
import numpy as np

x = np.random.rand(3)
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

FAMILIES = [
    pytest.param("lint", LINT_DIRTY, "TCAM001", id="lint"),
    pytest.param("audit", AUDIT_DIRTY, "TCAM020", id="audit"),
    pytest.param("prove", PROVE_DIRTY, "TCAM030", id="prove"),
    pytest.param("check", AUDIT_DIRTY, "TCAM020", id="check"),
]


def _write_dirty(tmp_path: Path, source: str) -> Path:
    dirty = tmp_path / "dirty.py"
    dirty.write_text(textwrap.dedent(source).lstrip(), encoding="utf-8")
    return dirty


@pytest.mark.parametrize("family, dirty_source, expected_rule", FAMILIES)
def test_exit_codes_are_uniform(family, dirty_source, expected_rule, tmp_path):
    dirty = _write_dirty(tmp_path, dirty_source)
    assert main([str(dirty)]) == 1
    clean = tmp_path / "clean.py"
    clean.write_text("VALUE = 1\n", encoding="utf-8")
    assert main([str(clean)]) == 0


@pytest.mark.parametrize("family, dirty_source, expected_rule", FAMILIES)
def test_json_schema_is_shared(family, dirty_source, expected_rule, tmp_path, capsys):
    dirty = _write_dirty(tmp_path, dirty_source)
    assert main([str(dirty), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [f["rule"] for f in payload] == [expected_rule]
    for finding in payload:
        assert sorted(finding) == ["col", "line", "message", "path", "rule"]


@pytest.mark.parametrize("family, dirty_source, expected_rule", FAMILIES)
def test_json_output_is_stable_across_runs(family, dirty_source, expected_rule, tmp_path, capsys):
    dirty = _write_dirty(tmp_path, dirty_source)
    assert main([str(dirty), "--format", "json"]) == 1
    first = capsys.readouterr().out
    assert main([str(dirty), "--format", "json"]) == 1
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("family, dirty_source, expected_rule", FAMILIES)
def test_select_and_ignore_filters(family, dirty_source, expected_rule, tmp_path, capsys):
    dirty = _write_dirty(tmp_path, dirty_source)
    # selecting an unrelated rule drops the finding and the failure
    assert main([str(dirty), "--select", "TCAM032"]) == 0
    # ... but selecting an unregistered code is a usage error, not a pass
    assert main([str(dirty), "--select", "TCAM999"]) == 2
    assert "TCAM999" in capsys.readouterr().err
    # ignoring the expected rule likewise
    assert main([str(dirty), "--ignore", expected_rule]) == 0
    # selecting the expected rule keeps it
    assert main([str(dirty), "--select", expected_rule]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("family, dirty_source, expected_rule", FAMILIES)
def test_list_rules_prints_the_registry_catalogue(family, dirty_source, expected_rule, capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in family_codes(family):
        assert f"{code}  {REGISTRY[code].summary}" in out


@pytest.mark.parametrize("family, dirty_source, expected_rule", FAMILIES)
def test_sarif_format_names_the_tool(family, dirty_source, expected_rule, tmp_path, capsys):
    dirty = _write_dirty(tmp_path, dirty_source)
    assert main([str(dirty), "--format", "sarif"]) == 1
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    driver = log["runs"][0]["tool"]["driver"]
    assert driver["name"] == "tcam check"
    assert [r["ruleId"] for r in log["runs"][0]["results"]] == [expected_rule]
    rule = log["runs"][0]["tool"]["driver"]["rules"][0]
    assert rule["helpUri"] == spec_for(expected_rule).doc_url
