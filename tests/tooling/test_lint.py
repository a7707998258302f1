"""Fixture corpus for the domain linter (``repro.tooling.lint``).

Each rule gets three kinds of fixtures: snippets it must *flag*,
snippets where a ``# tcam-lint: disable=...`` comment *suppresses* the
finding, and *clean* snippets encoding the blessed idioms the real tree
uses. ``select=LINT`` narrows the one pass to this family. The meta-test
at the bottom then runs the family over the actual ``src/repro`` tree
and requires zero findings — the gate ``tcam check`` and CI enforce.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.tooling.core import Finding, check_paths, check_source, main
from tests.tooling import family

REPO_ROOT = Path(__file__).resolve().parents[2]

LINT = family("lint")

#: Path that puts a fixture inside the TCAM012 serving scope.
SERVING_PATH = "src/repro/recommend/serving.py"


def rules_of(source: str, path: str = "fixture.py") -> list[str]:
    """Lint a dedented snippet and return the rule codes found."""
    return [f.rule for f in check_source(textwrap.dedent(source), path, LINT)]


# ---------------------------------------------------------------------------
# TCAM001 — legacy / unseeded RNG
# ---------------------------------------------------------------------------

TCAM001_FLAGGED = [
    "import numpy as np\nx = np.random.rand(3)\n",
    "import numpy as np\nx = np.random.randint(0, 10)\n",
    "import numpy as np\nnp.random.seed(0)\n",
    "import numpy as np\nrng = np.random.RandomState(0)\n",
    "import numpy\nx = numpy.random.normal(size=4)\n",
]

TCAM001_CLEAN = [
    "import numpy as np\nrng = np.random.default_rng(0)\nx = rng.random(3)\n",
    "import numpy as np\nss = np.random.SeedSequence(42)\n",
    "import numpy as np\ngen = np.random.Generator(np.random.PCG64(7))\n",
]


@pytest.mark.parametrize("source", TCAM001_FLAGGED)
def test_tcam001_flags_legacy_rng(source):
    assert "TCAM001" in rules_of(source)


@pytest.mark.parametrize("source", TCAM001_CLEAN)
def test_tcam001_allows_seeded_generators(source):
    assert "TCAM001" not in rules_of(source)


def test_tcam001_suppressible():
    source = (
        "import numpy as np\n"
        "x = np.random.rand(3)  # tcam-lint: disable=TCAM001\n"
    )
    assert rules_of(source) == []


# ---------------------------------------------------------------------------
# TCAM002 — unguarded np.log / np.divide
# ---------------------------------------------------------------------------

TCAM002_FLAGGED = [
    """
    import numpy as np

    def loglik(prob, c):
        return float(np.dot(c, np.log(prob)))
    """,
    """
    import numpy as np

    def ratio(num, den):
        return np.divide(num, den)
    """,
]

TCAM002_CLEAN = [
    # inline EPS term
    """
    import numpy as np

    EPS = 1e-12

    def loglik(prob, c):
        return float(np.dot(c, np.log(prob + EPS)))
    """,
    # guarded local assigned earlier in the function
    """
    import numpy as np

    EPS = 1e-12

    def loglik(interest, context, c):
        denom = interest + context + EPS
        return float(np.dot(c, np.log(denom)))
    """,
    # clamping call around the operand
    """
    import numpy as np

    def loglik(prob, c):
        return float(np.dot(c, np.log(np.maximum(prob, 1e-300))))
    """,
    # blessed safe_* helper: guard lives inside, name is the contract
    """
    import numpy as np

    def safe_log(values, eps=1e-12):
        return np.log(values + eps)
    """,
    # safe_-prefixed operand name counts as guarded
    """
    import numpy as np

    def update(num, safe_mass):
        return np.divide(num, safe_mass)
    """,
    # closures inherit guards from the enclosing scope
    """
    import numpy as np

    EPS = 1e-12

    def outer(interest, context, c):
        denom = interest + context + EPS

        def step():
            return float(np.dot(c, np.log(denom)))

        return step
    """,
]


@pytest.mark.parametrize("source", TCAM002_FLAGGED)
def test_tcam002_flags_unguarded_math(source):
    assert "TCAM002" in rules_of(source)


@pytest.mark.parametrize("source", TCAM002_CLEAN)
def test_tcam002_accepts_guarded_idioms(source):
    assert "TCAM002" not in rules_of(source)


def test_tcam002_suppressible():
    source = textwrap.dedent(
        """
        import numpy as np

        def loglik(prob, c):
            return float(np.dot(c, np.log(prob)))  # tcam-lint: disable=TCAM002
        """
    )
    assert check_source(source, "fixture.py", LINT) == []


# ---------------------------------------------------------------------------
# TCAM003 — allocation inside hot paths
# ---------------------------------------------------------------------------

TCAM003_FLAGGED = [
    # decorated hot path allocating with np.zeros
    """
    import numpy as np
    from repro.typing import hot_path

    @hot_path
    def accumulate(ws):
        buf = np.zeros(10)
        return buf
    """,
    # .copy() method call in a hot path
    """
    from repro.typing import hot_path

    @hot_path
    def accumulate(state):
        return state.copy()
    """,
    # .astype without copy=False reallocates
    """
    from repro.typing import hot_path

    @hot_path
    def accumulate(theta):
        return theta.astype("float32")
    """,
]

TCAM003_CLEAN = [
    # allocation is fine outside hot paths
    """
    import numpy as np

    def make_workspace(capacity):
        return {"joint": np.empty((capacity, 4))}
    """,
    # hot path writing into a preallocated workspace
    """
    import numpy as np
    from repro.typing import hot_path

    @hot_path
    def accumulate(state, ws):
        np.multiply(state, 2.0, out=ws)
        return float(ws.sum())
    """,
    # astype with copy=False is a view when dtypes already match
    """
    from repro.typing import hot_path

    @hot_path
    def accumulate(theta):
        return theta.astype("float64", copy=False)
    """,
]


@pytest.mark.parametrize("source", TCAM003_FLAGGED)
def test_tcam003_flags_hot_path_allocation(source):
    assert "TCAM003" in rules_of(source)


@pytest.mark.parametrize("source", TCAM003_CLEAN)
def test_tcam003_accepts_workspace_writes(source):
    assert "TCAM003" not in rules_of(source)


def test_tcam003_builtin_kernel_config_applies_by_path():
    # The built-in hot-kernel list covers core/engine.py `accumulate`
    # methods even without the decorator — the path suffix selects it.
    source = textwrap.dedent(
        """
        import numpy as np

        class Kernel:
            def accumulate(self, state):
                return np.zeros(4)
        """
    )
    flagged = check_source(source, "src/repro/core/engine.py", LINT)
    assert [f.rule for f in flagged] == ["TCAM003"]
    # The same source under a different path is not a hot kernel.
    assert check_source(source, "src/repro/data/io.py", LINT) == []


@pytest.mark.parametrize(
    "allocator", ["concatenate", "stack", "hstack", "vstack", "empty_like"]
)
def test_tcam003_flags_concatenation_allocators(allocator):
    # The hot-path allocation rule covers the whole np.* allocating
    # family, not just zeros/empty.
    source = f"""
    import numpy as np
    from repro.typing import hot_path

    @hot_path
    def accumulate(a, b):
        return np.{allocator}([a, b])
    """
    assert rules_of(source) == ["TCAM003"]


@pytest.mark.parametrize(
    "import_line, call",
    [
        ("from numpy import concatenate", "concatenate([a, b])"),
        ("from numpy import vstack as vs", "vs([a, b])"),
        ("from numpy import empty_like", "empty_like(a)"),
    ],
)
def test_tcam003_tracks_bare_numpy_imports(import_line, call):
    # Allocators imported by bare name (optionally aliased) are caught
    # the same as the np.-prefixed spelling.
    source = f"""
    {import_line}
    from repro.typing import hot_path

    @hot_path
    def accumulate(a, b):
        return {call}
    """
    assert rules_of(source) == ["TCAM003"]


def test_tcam003_bare_import_outside_hot_path_is_clean():
    source = """
    from numpy import concatenate

    def make_workspace(a, b):
        return concatenate([a, b])
    """
    assert rules_of(source) == []


def test_tcam003_non_allocator_bare_import_is_clean():
    source = """
    from numpy import float64 as f64
    from repro.typing import hot_path

    @hot_path
    def accumulate(a):
        return f64(a.sum())
    """
    assert rules_of(source) == []


def test_tcam003_suppressible():
    source = textwrap.dedent(
        """
        import numpy as np
        from repro.typing import hot_path

        @hot_path
        def accumulate(ws):
            return np.zeros(10)  # tcam-lint: disable=TCAM003
        """
    )
    assert check_source(source, "fixture.py", LINT) == []


# ---------------------------------------------------------------------------
# TCAM004 — __all__ consistency
# ---------------------------------------------------------------------------


def test_tcam004_flags_unbound_export():
    source = """
    __all__ = ["missing_function"]
    """
    assert rules_of(source) == ["TCAM004"]


def test_tcam004_flags_unexported_public_def():
    source = """
    __all__ = ["listed"]

    def listed():
        pass

    def forgotten():
        pass
    """
    assert rules_of(source) == ["TCAM004"]


def test_tcam004_flags_duplicate_export():
    source = """
    __all__ = ["thing", "thing"]

    def thing():
        pass
    """
    assert rules_of(source) == ["TCAM004"]


def test_tcam004_clean_module_passes():
    source = """
    from collections import OrderedDict

    __all__ = ["PUBLIC_CONSTANT", "OrderedDict", "exported"]

    PUBLIC_CONSTANT = 1

    def exported():
        pass

    def _private_helper():
        pass
    """
    assert rules_of(source) == []


def test_tcam004_silent_without_all():
    # Modules that do not declare __all__ opt out of the rule.
    source = """
    def anything():
        pass
    """
    assert rules_of(source) == []


# ---------------------------------------------------------------------------
# TCAM012 — unlocked serving-cache mutation
# ---------------------------------------------------------------------------

TCAM012_FLAGGED = [
    # bare subscript store on shared instance state
    """
    class Cache:
        \"\"\"A serving cache.\"\"\"

        def put(self, key, value):
            self._entries[key] = value
    """,
    # dict mutator call without the lock
    """
    class Cache:
        \"\"\"A serving cache.\"\"\"

        def evict(self, key):
            self._entries.pop(key, None)
    """,
    # augmented counter update races the same way
    """
    class Cache:
        \"\"\"A serving cache.\"\"\"

        def touch(self):
            self.hits += 1
    """,
]

TCAM012_CLEAN = [
    # mutation under the instance lock
    """
    class Cache:
        \"\"\"A serving cache.\"\"\"

        def put(self, key, value):
            with self._lock:
                self._entries[key] = value
    """,
    # a documented single-writer contract on the class opts out
    """
    class Workspace:
        \"\"\"Per-scorer scratch. Not safe for concurrent use.\"\"\"

        def reset(self):
            self._entries["rows"] = 0
    """,
    # __init__ happens-before any sharing
    """
    class Cache:
        \"\"\"A serving cache.\"\"\"

        def __init__(self):
            self._entries = {}
            self._entries["seed"] = 1
    """,
]


@pytest.mark.parametrize("source", TCAM012_FLAGGED)
def test_tcam012_flags_unlocked_cache_mutation(source):
    assert "TCAM012" in rules_of(source, SERVING_PATH)


@pytest.mark.parametrize("source", TCAM012_CLEAN)
def test_tcam012_accepts_locked_or_documented_writes(source):
    assert "TCAM012" not in rules_of(source, SERVING_PATH)


@pytest.mark.parametrize("source", TCAM012_FLAGGED)
def test_tcam012_scoped_to_serving_paths(source):
    # The same mutation outside the serving layer's files is no finding.
    assert rules_of(source, "src/repro/core/engine.py") == []


def test_tcam012_suppressible():
    source = """
    class Cache:
        \"\"\"A serving cache.\"\"\"

        def put(self, key, value):
            self._entries[key] = value  # tcam-lint: disable=TCAM012
    """
    assert rules_of(source, SERVING_PATH) == []


def test_tcam012_covers_the_serving_service_package():
    source = """
    class Router:
        \"\"\"Maps users to workers.\"\"\"

        def route(self, user, worker):
            self.table[user] = worker
    """
    assert "TCAM012" in rules_of(source, "src/repro/serving_service/service.py")
    # a documented single-writer contract opts out, as in the recommend layer
    documented = source.replace(
        "Maps users to workers.",
        "Maps users to workers. Single-writer: event-loop only.",
    )
    assert "TCAM012" not in rules_of(
        documented, "src/repro/serving_service/service.py"
    )


# ---------------------------------------------------------------------------
# Driver behaviour
# ---------------------------------------------------------------------------


def test_syntax_error_reported_as_tcam000():
    findings = check_source("def broken(:\n", "bad.py", LINT)
    assert [f.rule for f in findings] == ["TCAM000"]


def test_finding_render_is_compiler_style():
    finding = Finding("pkg/mod.py", 12, 4, "TCAM001", "boom")
    assert finding.render() == "pkg/mod.py:12:4: TCAM001 boom"


def test_multi_rule_suppression_on_one_line():
    source = (
        "import numpy as np\n"
        "x = np.random.rand(3)  # tcam-lint: disable=TCAM001, TCAM002\n"
    )
    assert check_source(source, "fixture.py", LINT) == []


def test_findings_sorted_by_position():
    source = textwrap.dedent(
        """
        import numpy as np

        def late(prob):
            return np.log(prob)

        x = np.random.rand(3)
        """
    )
    findings = check_source(source, "fixture.py", LINT)
    assert [f.rule for f in findings] == ["TCAM002", "TCAM001"]
    assert findings[0].line < findings[1].line


def test_rule_catalogue_is_complete():
    assert sorted(LINT) == ["TCAM001", "TCAM002", "TCAM003", "TCAM004", "TCAM012"]


def test_check_paths_walks_directories(tmp_path):
    (tmp_path / "dirty.py").write_text(
        "import numpy as np\nx = np.random.rand()\n", encoding="utf-8"
    )
    sub = tmp_path / "nested"
    sub.mkdir()
    (sub / "clean.py").write_text("VALUE = 1\n", encoding="utf-8")
    findings = check_paths([str(tmp_path)], LINT)
    assert [f.rule for f in findings] == ["TCAM001"]
    assert findings[0].path.endswith("dirty.py")


def test_main_exit_codes(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import numpy as np\nx = np.random.rand()\n", encoding="utf-8")
    assert main([str(dirty)]) == 1
    out = capsys.readouterr()
    assert "TCAM001" in out.out

    clean = tmp_path / "clean.py"
    clean.write_text("VALUE = 1\n", encoding="utf-8")
    assert main([str(clean)]) == 0


def test_main_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in LINT:
        assert code in out


def test_main_json_and_filters(tmp_path, capsys):
    """The CLI surface: --format json schema and --select/--ignore."""
    import json

    dirty = tmp_path / "dirty.py"
    dirty.write_text("import numpy as np\nx = np.random.rand()\n", encoding="utf-8")
    assert main([str(dirty), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [f["rule"] for f in payload] == ["TCAM001"]
    assert sorted(payload[0]) == ["col", "line", "message", "path", "rule"]
    # filtered to nothing -> clean exit
    assert main([str(dirty), "--ignore", "TCAM001"]) == 0
    assert main([str(dirty), "--select", "TCAM002"]) == 0
    assert main([str(dirty), "--select", "TCAM001"]) == 1


# ---------------------------------------------------------------------------
# Meta-test: the real tree must be lint-clean
# ---------------------------------------------------------------------------


def test_real_tree_is_lint_clean():
    """The gate CI enforces: zero findings across src/repro."""
    src = REPO_ROOT / "src" / "repro"
    assert src.is_dir(), f"expected source tree at {src}"
    findings = check_paths([str(src)], LINT)
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"tcam check found lint violations:\n{rendered}"
