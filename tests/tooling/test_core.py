"""The one analysis pass (``repro.tooling.core``) cannot go quiet.

Zero findings on the real tree is also what a broken scope classifier
or a stale path table reports, so this module pins the pass from the
other side:

* **live rules** — for each family, and for every rule whose reach
  comes from the registry's tree table, one in-memory edit of a *real*
  ``src/repro`` file must produce that rule's code;
* **parse once** — ``check_paths`` parses each file once, where three
  family selections run one after another parse it three times;
* **family identity** — over the three families' fixture corpora, the
  union of the ``select=``-by-family findings is exactly the whole
  pass's;
* **usage errors** — a missing path, a non-Python file and an
  unregistered rule code exit 2 instead of checking nothing;
* **laziness** — importing the model core or the serving layer (which
  use ``repro.tooling.sanitize``) does not import the analyser.
"""

from __future__ import annotations

import ast
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

from repro.tooling.core import Module, check_paths, check_source, main
from repro.tooling.registry import REGISTRY
from tests.tooling import family, test_determinism, test_lifecycle, test_lint

REPO_ROOT = Path(__file__).resolve().parents[2]
PACKAGE = REPO_ROOT / "src" / "repro"

#: Family -> its rule codes.
FAMILIES = {name: family(name) for name in ("lint", "audit", "prove")}


# ---------------------------------------------------------------------------
# Live rules: a mutated real file must fire
# ---------------------------------------------------------------------------

_SERVING_MUTANT = '''

class _Mutant:
    def put(self, key, value):
        self._entries[key] = value
'''

_STORE_MUTANT = '''

def _mutant(snapshot):
    store = ParamStore(snapshot)
    view = store.item_topic("static")
    store.close()
    return view.sum()
'''

_COMMIT_MUTANT = '''

def _mutant(directory, digests):
    with open(directory / "manifest.json", "w") as text:
        json.dump(digests, text)
'''

_NARROWING_MUTANT = '''

@bit_deterministic
def _mutant(values):
    return values.astype(np.float32)
'''

#: (rule, file under src/repro, text to replace or None to append, replacement)
MUTATIONS = [
    pytest.param(
        "TCAM003",  # hot-kernel table: no decorator left, only the registry row
        "recommend/serving.py",
        "    @hot_path\n    def _serve_float64(",
        "    def _serve_float64(",
        id="TCAM003-undecorated-hot-kernel-still-hot",
    ),
    pytest.param(
        "TCAM012", "serving_service/batching.py", None, _SERVING_MUTANT,
        id="TCAM012-unlocked-mutation-in-serving-file",
    ),
    pytest.param(
        "TCAM021",
        "robustness/archive.py",
        "        os.fsync(handle.fileno())\n    os.replace(tmp, path)",
        "    os.replace(tmp, path)",
        id="TCAM021-fsync-deleted-before-replace",
    ),
    pytest.param(
        "TCAM022", "robustness/archive.py", None, _COMMIT_MUTANT,
        id="TCAM022-manifest-written-before-any-payload-fsync",
    ),
    pytest.param(
        "TCAM025", "recommend/paramstore.py", None, _STORE_MUTANT,
        id="TCAM025-view-used-after-store-close",
    ),
    pytest.param(
        "TCAM032",
        "analysis/topics.py",
        'np.argsort(similarity, axis=None, kind="stable")',
        "np.argsort(similarity, axis=None)",
        id="TCAM032-stable-kind-dropped-under-a-contract",
    ),
    pytest.param(
        "TCAM033", "core/em.py", None, _NARROWING_MUTANT,
        id="TCAM033-narrowing-outside-the-blessed-file",
    ),
    pytest.param(
        "TCAM035",
        "core/em.py",
        "@bit_deterministic\ndef run_em(",
        "def run_em(",
        id="TCAM035-marker-stripped-from-run_em",
    ),
]


def _mutate(relative: str, old: str | None, new: str) -> tuple[str, str, str]:
    path = PACKAGE / relative
    source = path.read_text(encoding="utf-8")
    if old is None:
        return str(path), source, source + new
    assert source.count(old) == 1, f"mutation anchor drifted in {relative}: {old!r}"
    return str(path), source, source.replace(old, new)


@pytest.mark.parametrize("rule, relative, old, new", MUTATIONS)
def test_mutating_a_real_file_fires_the_rule(rule, relative, old, new):
    path, original, mutated = _mutate(relative, old, new)
    if rule == "TCAM003":  # an allocation, now under the registry row alone
        mutated = mutated.replace(
            "        selection: tuple[BlockIndex, FloatArray] | None = None\n",
            "        selection: tuple[BlockIndex, FloatArray] | None = None\n"
            "        scratch = np.zeros(3)\n",
        )
        assert mutated.count("scratch = np.zeros(3)") == 1
    assert check_source(original, path) == []
    fired = {finding.rule for finding in check_source(mutated, path)}
    assert rule in fired
    # ... and through the rule's own family, and only there.
    for name, codes in FAMILIES.items():
        rules = {finding.rule for finding in check_source(mutated, path, codes)}
        assert (rule in rules) == (REGISTRY[rule].tool == name), name


def test_tree_facts_follow_the_path_not_the_source():
    # The same edits under a path the tree table does not list stay silent.
    for rule, relative, old, new in [
        ("TCAM012", "serving_service/batching.py", None, _SERVING_MUTANT),
        ("TCAM021", "robustness/archive.py",
         "        os.fsync(handle.fileno())\n    os.replace(tmp, path)",
         "    os.replace(tmp, path)"),
        ("TCAM035", "core/em.py", "@bit_deterministic\ndef run_em(", "def run_em("),
    ]:
        _, _, mutated = _mutate(relative, old, new)
        unlisted = {f.rule for f in check_source(mutated, "src/repro/data/unlisted.py")}
        assert rule not in unlisted
    # ... and no file is blessed to narrow: the serving module fires too.
    path, _, mutated = _mutate("recommend/serving.py", None, _NARROWING_MUTANT)
    assert "TCAM033" in {f.rule for f in check_source(mutated, path)}


def test_propagated_contract_reaches_helpers_through_the_shared_index():
    # ``root`` marks a helper deterministic by bare-name reachability; the
    # scope model all four former engines now share must still see it.
    source = (
        "from repro.typing import bit_deterministic\n"
        "class Engine:\n"
        "    @bit_deterministic\n"
        "    def root(self, xs):\n"
        "        return self.helper(xs)\n"
        "    def helper(self, xs):\n"
        "        def inner():\n"
        "            return 1\n"
        "        return [x for x in set(xs)]\n"
        "def bystander(xs):\n"
        "    return [x for x in set(xs)]\n"
    )
    module = Module(source, "fixture.py")
    standing = {s.qualname: (s.deterministic, s.root, s.cls is not None) for s in module.scopes}
    assert standing == {
        "Engine.root": (True, "Engine.root", True),
        "Engine.helper": (True, "Engine.root", True),
        "Engine.helper.<locals>.inner": (False, "", False),
        "bystander": (False, "", False),
    }
    # one finding per site: the deterministic path's message at line 9,
    # the bare-set one (which holds anywhere) at line 11
    findings = check_source(source, "fixture.py")
    assert [(f.rule, f.line) for f in findings] == [("TCAM030", 9), ("TCAM030", 11)]
    assert "rooted at 'Engine.root'" in findings[0].message
    assert "bare set" in findings[1].message


# ---------------------------------------------------------------------------
# Parse once
# ---------------------------------------------------------------------------


def test_one_pass_parses_each_file_once(tmp_path, monkeypatch):
    for name in ("a.py", "b.py", "pkg/c.py"):
        target = tmp_path / name
        target.parent.mkdir(exist_ok=True)
        target.write_text("VALUE = {1, 2}\nTOTAL = sum(x for x in set(range(3)))\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not python\n", encoding="utf-8")

    parsed: list[str] = []
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed.append(str(filename))
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    findings = check_paths([str(tmp_path)])
    assert len(parsed) == 3 and len(set(parsed)) == 3
    assert {f.rule for f in findings} == {"TCAM030"}

    parsed.clear()
    for codes in FAMILIES.values():
        check_paths([str(tmp_path)], codes)
    assert len(parsed) == 9


# ---------------------------------------------------------------------------
# Family identity over the fixture corpora
# ---------------------------------------------------------------------------


def _fixture_sources(module: types.ModuleType) -> list[str]:
    """Every multi-line source string a tool's test module declares."""
    sources: list[str] = []
    for value in vars(module).values():
        for text in value if isinstance(value, list) else [value]:
            if isinstance(text, str) and "\n" in text and ("def " in text or "import " in text):
                sources.append(text)
    return sources


CORPUS = sorted(
    {
        source
        for module in (test_lint, test_lifecycle, test_determinism)
        for source in _fixture_sources(module)
    }
)

#: Paths that switch each tree-table column on, plus one that switches none.
CORPUS_PATHS = (
    "fixture.py",
    "src/repro/core/engine.py",
    "src/repro/recommend/serving.py",
    "src/repro/robustness/archive.py",
)


def test_fixture_corpus_is_substantial():
    assert len(CORPUS) >= 130
    fired = {
        finding.rule
        for source in CORPUS
        for path in CORPUS_PATHS
        for finding in check_source(textwrap.dedent(source), path)
    }
    # TCAM004's fixtures are built inline in test_lint; every corpus entry parses.
    assert set(REGISTRY) - fired == {"TCAM000", "TCAM004"}


@pytest.mark.parametrize("path", CORPUS_PATHS)
def test_union_of_presets_is_the_one_pass(path):
    # A family selection runs only its visitors; together they are the pass.
    for source in CORPUS:
        text = textwrap.dedent(source)
        whole = check_source(text, path)
        parts = {name: check_source(text, path, codes) for name, codes in FAMILIES.items()}
        union = [finding for found in parts.values() for finding in found]
        assert sorted(union, key=_full_key) == sorted(whole, key=_full_key)
        # ... and each selection is the pass restricted to its own codes, in order.
        for name, found in parts.items():
            assert found == [f for f in whole if REGISTRY[f.rule].tool == name]


def _full_key(finding):
    return (finding.line, finding.col, finding.rule, finding.message)


def test_every_preset_reports_a_syntax_error_once():
    whole = check_source("def broken(:\n", "bad.py")
    assert [f.rule for f in whole] == ["TCAM000"]
    for codes in FAMILIES.values():
        assert check_source("def broken(:\n", "bad.py", codes) == whole


def test_select_runs_only_the_selected_rules():
    source = "import numpy as np\nx = np.random.rand(3)\nfor v in {1, 2}:\n    print(v)\n"
    assert {f.rule for f in check_source(source, "fixture.py")} == {"TCAM001", "TCAM030"}
    assert {f.rule for f in check_source(source, "fixture.py", select={"TCAM030"})} == {"TCAM030"}
    assert check_source(source, "fixture.py", select=()) == []


def test_check_entry_point_lists_all_rules_and_gates(tmp_path, capsys):
    assert main(["--list-rules"]) == 0
    listed = capsys.readouterr().out
    assert [line.split()[0] for line in listed.splitlines()] == [
        code for code, spec in REGISTRY.items() if spec.tool != "shared"
    ]
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import numpy as np\nx = np.random.rand(3)\n", encoding="utf-8")
    assert main([str(dirty)]) == 1
    assert "TCAM001" in capsys.readouterr().out
    assert main([str(dirty), "--ignore", "TCAM001"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# Usage errors: a check that checks nothing must not pass
# ---------------------------------------------------------------------------


def test_missing_path_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "nowhere"
    clean = tmp_path / "clean.py"
    clean.write_text("VALUE = 1\n", encoding="utf-8")
    assert main([str(clean), str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"tcam check: no such file or directory: {missing}\n"


def test_default_path_outside_the_repo_root_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main([]) == 2
    assert capsys.readouterr().err == "tcam check: no such file or directory: src/repro\n"


def test_non_python_file_is_a_usage_error(tmp_path, capsys):
    notes = tmp_path / "notes.txt"
    notes.write_text("import numpy as np\nx = np.random.rand(3)\n", encoding="utf-8")
    assert main([str(notes)]) == 2
    assert capsys.readouterr().err == f"tcam check: not a Python file or directory: {notes}\n"


@pytest.mark.parametrize("flag", ["--select", "--ignore"])
@pytest.mark.parametrize(
    "code", ["TCAM999", "TCAM005", "TCAM010", "TCAM011", "TCAM013", "TCAM023"]
)
def test_unregistered_rule_code_is_a_usage_error(flag, code, tmp_path, capsys):
    # TCAM005/TCAM013 folded into TCAM030/TCAM031, and TCAM010/TCAM011/TCAM023
    # were deleted: naming one must not silently select (or ignore) nothing.
    clean = tmp_path / "clean.py"
    clean.write_text("VALUE = 1\n", encoding="utf-8")
    assert main([str(clean), flag, f"TCAM001,{code.lower()}"]) == 2
    assert capsys.readouterr().err == f"tcam check: unknown rule code(s): {code}\n"


# ---------------------------------------------------------------------------
# Laziness
# ---------------------------------------------------------------------------


def test_model_and_serving_imports_do_not_load_the_analyser():
    script = (
        "import sys\n"
        "import repro.core, repro.recommend, repro.tooling, repro.tooling.sanitize\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.tooling.')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": ""},
        capture_output=True, text=True, timeout=120, check=True,
    )
    loaded = ast.literal_eval(done.stdout.strip())
    for name in ("core", "lint", "lifecycle", "determinism", "output"):
        assert f"repro.tooling.{name}" not in loaded, loaded
    assert "repro.tooling.sanitize" in loaded
