"""Fixture corpus for the determinism verifier (``repro.tooling.determinism``).

Mirrors ``test_lint.py``/``test_races.py``/``test_lifecycle.py``: every
rule gets snippets it must *flag*, snippets where
``# tcam-lint: disable=...`` *suppresses* the finding, and *clean*
snippets encoding the blessed idioms the real tree uses (sorted
directory listings, submission-order reduction, stable sorts, matched
dtypes, seeded generators). The meta-test at the bottom runs the
verifier over the actual ``src/repro`` tree and requires zero findings
— the same gate ``make prove`` and CI enforce.

The dynamic cross-checks at the end close the loop between the static
rule and the bit-level failure it predicts: the TCAM030-flagged
set-iteration pattern is executed under several ``PYTHONHASHSEED``
values and demonstrably emits different sequences while the
``sorted(...)`` rewrite is bit-identical, and the TCAM031-flagged
completion-order fold produces different float bits across completion
orders while the submission-order fold does not.

The SARIF tests validate ``--format sarif`` output against a vendored
structural subset of the 2.1.0 schema (``sarif-2.1.0-subset.json``);
the baseline tests exercise the record-then-gate-on-new workflow.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import jsonschema
import pytest

from repro.tooling.determinism import RULES, main, prove_paths, prove_source
from repro.tooling.lint import Finding
from repro.tooling.output import (
    SARIF_SCHEMA_URI,
    apply_baseline,
    load_baseline,
    render_sarif,
)
from repro.typing import bit_deterministic, is_bit_deterministic

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Path that puts a fixture inside a TCAM035 contract module.
CONTRACT_PATH = "src/repro/core/em.py"
#: Path blessed for TCAM033 narrowing casts.
BLESSED_PATH = "src/repro/recommend/quantize.py"


def rules_of(source: str, path: str = "fixture.py") -> list[str]:
    """Verify a dedented snippet and return the rule codes found."""
    return [f.rule for f in prove_source(textwrap.dedent(source), path)]


# ---------------------------------------------------------------------------
# The @bit_deterministic marker is zero-cost
# ---------------------------------------------------------------------------


def test_marker_returns_the_function_unchanged():
    def fn(x):
        return x + 1

    marked = bit_deterministic(fn)
    assert marked is fn
    assert marked(2) == 3


def test_marker_predicate():
    @bit_deterministic
    def marked():
        return 0

    def unmarked():
        return 0

    assert is_bit_deterministic(marked)
    assert not is_bit_deterministic(unmarked)


# ---------------------------------------------------------------------------
# TCAM030 — unordered iteration on a deterministic path
# ---------------------------------------------------------------------------

TCAM030_FLAGGED = [
    # set constructor drives an accumulating loop
    """
    from repro.typing import bit_deterministic

    @bit_deterministic
    def replay(events):
        out = []
        for event in set(events):
            out.append(event)
        return out
    """,
    # glob order feeds a float accumulation
    """
    from repro.typing import bit_deterministic

    @bit_deterministic
    def total_mass(directory):
        total = 0.0
        for path in directory.glob("*.npz"):
            total += load_mass(path)
        return total
    """,
    # generator comprehension over os.listdir emits a sequence
    """
    import os
    from repro.typing import bit_deterministic

    @bit_deterministic
    def scores(root):
        return sum(score(name) for name in os.listdir(root))
    """,
    # str.join over a set-comprehension local
    """
    from repro.typing import bit_deterministic

    @bit_deterministic
    def fingerprint(tags):
        names = {t.lower() for t in tags}
        return ",".join(names)
    """,
    # the contract propagates: the helper is reached from the marked root
    """
    from repro.typing import bit_deterministic

    @bit_deterministic
    def run(items):
        return collect(items)

    def collect(items):
        bucket = []
        for item in set(items):
            bucket.append(item)
        return bucket
    """,
]

TCAM030_SUPPRESSED = [
    """
    from repro.typing import bit_deterministic

    @bit_deterministic
    def replay(events):
        out = []
        for event in set(events):  # tcam-lint: disable=TCAM030
            out.append(event)
        return out
    """,
]

TCAM030_CLEAN = [
    # sorted(...) pins the order — the blessed wal.py idiom
    """
    from repro.typing import bit_deterministic

    @bit_deterministic
    def replay(directory):
        out = []
        for path in sorted(directory.glob("wal-*.log")):
            out.append(path)
        return out
    """,
    # dict iteration is insertion-ordered and exempt
    """
    from repro.typing import bit_deterministic

    @bit_deterministic
    def flatten(mapping):
        out = []
        for key in mapping:
            out.append(key)
        return out
    """,
    # membership tests don't iterate
    """
    from repro.typing import bit_deterministic

    @bit_deterministic
    def keep(items, allowed):
        allowed_set = set(allowed)
        return [item for item in items if item in allowed_set]
    """,
    # unmarked functions are outside the contract
    """
    def replay(events):
        out = []
        for event in set(events):
            out.append(event)
        return out
    """,
]


@pytest.mark.parametrize("source", TCAM030_FLAGGED)
def test_tcam030_flagged(source):
    assert "TCAM030" in rules_of(source)


@pytest.mark.parametrize("source", TCAM030_SUPPRESSED)
def test_tcam030_suppressed(source):
    assert "TCAM030" not in rules_of(source)


@pytest.mark.parametrize("source", TCAM030_CLEAN)
def test_tcam030_clean(source):
    assert rules_of(source) == []


def test_tcam030_message_names_the_root():
    """Propagated findings attribute the contract to the marked root."""
    findings = prove_source(textwrap.dedent(TCAM030_FLAGGED[-1]), "fixture.py")
    assert any("rooted at 'run'" in f.message for f in findings)


def test_propagation_respects_the_depth_budget():
    """The descent stops at _MAX_DEPTH, so f4 is checked but f5 is not."""
    chain = ["from repro.typing import bit_deterministic\n"]
    chain.append("@bit_deterministic\ndef f0(items):\n    return f1(items)\n")
    for depth in range(1, 5):
        chain.append(
            f"def f{depth}(items):\n    return f{depth + 1}(items)\n"
        )
    chain.append(
        "def f5(items):\n"
        "    out = []\n"
        "    for item in set(items):\n"
        "        out.append(item)\n"
        "    return out\n"
    )
    assert rules_of("\n".join(chain)) == []

    shallow = chain[:5] + [
        "def f4(items):\n"
        "    out = []\n"
        "    for item in set(items):\n"
        "        out.append(item)\n"
        "    return out\n"
    ]
    assert "TCAM030" in rules_of("\n".join(shallow))


# Set algebra over an unordered operand is as unordered as the operand.
# The first fixture is ``CheckpointManager.load`` as it stood before it
# iterated ``archive.files`` in archive order: the restored dict followed
# PYTHONHASHSEED, and a health rollback re-jitters in dict order.
TCAM030_SET_ALGEBRA_FLAGGED = [
    """
    from repro.typing import bit_deterministic

    _RESERVED = {"__iteration__", "__checksum__"}

    class CheckpointManager:
        @bit_deterministic
        def load(self, path):
            with np.load(path, allow_pickle=False) as archive:
                names = set(archive.files)
                if not _RESERVED <= names:
                    raise CheckpointError(f"{path} is not a checkpoint archive")
                arrays = {
                    name: archive[name] for name in names - _RESERVED
                }
                return arrays
    """,
    """
    from repro.typing import bit_deterministic

    @bit_deterministic
    def merge(left, right):
        out = []
        for key in set(left) | set(right):
            out.append(key)
        return out
    """,
    """
    from repro.typing import bit_deterministic

    @bit_deterministic
    def shared(left, right):
        return list(frozenset(left) & right)
    """,
    """
    from repro.typing import bit_deterministic

    @bit_deterministic
    def changed(before, after):
        delta = set(before) ^ set(after)
        return ",".join(delta)
    """,
]

TCAM030_SET_ALGEBRA_CLEAN = [
    # the fixed load: archive order, the set only answers membership
    """
    from repro.typing import bit_deterministic

    _RESERVED = {"__iteration__", "__checksum__"}

    @bit_deterministic
    def load(path):
        with np.load(path, allow_pickle=False) as archive:
            if not _RESERVED <= set(archive.files):
                raise CheckpointError(f"{path} is not a checkpoint archive")
            return {
                name: archive[name] for name in archive.files if name not in _RESERVED
            }
    """,
    # sorted(...) pins set algebra like any other unordered source
    """
    from repro.typing import bit_deterministic

    @bit_deterministic
    def merge(left, right):
        return [key for key in sorted(set(left) | set(right))]
    """,
    # arithmetic on ordered operands is not set algebra
    """
    from repro.typing import bit_deterministic

    @bit_deterministic
    def shifted(values, offset):
        return [v for v in values - offset]
    """,
]


@pytest.mark.parametrize("source", TCAM030_SET_ALGEBRA_FLAGGED)
def test_tcam030_set_algebra_flagged(source):
    assert rules_of(source) == ["TCAM030"]


@pytest.mark.parametrize("source", TCAM030_SET_ALGEBRA_CLEAN)
def test_tcam030_set_algebra_clean(source):
    assert rules_of(source) == []


def test_checkpoint_load_is_a_registered_contract():
    source = (REPO_ROOT / "src/repro/robustness/checkpoint.py").read_text(encoding="utf-8")
    path = "src/repro/robustness/checkpoint.py"
    assert prove_source(source, path) == []
    unmarked = source.replace("    @bit_deterministic\n    def load(", "    def load(")
    assert unmarked != source
    assert [f.rule for f in prove_source(unmarked, path)] == ["TCAM035"]


# ---------------------------------------------------------------------------
# TCAM031 — scheduling-dependent float reduction
# ---------------------------------------------------------------------------

TCAM031_FLAGGED = [
    # folding results in completion order
    """
    from concurrent.futures import as_completed
    from repro.typing import bit_deterministic

    @bit_deterministic
    def reduce_parallel(pool, chunks):
        futures = [pool.submit(work, chunk) for chunk in chunks]
        total = 0.0
        for fut in as_completed(futures):
            total += fut.result()
        return total
    """,
    # collecting partials in completion order
    """
    from concurrent.futures import as_completed
    from repro.typing import bit_deterministic

    @bit_deterministic
    def partials(futures):
        return [f.result() for f in as_completed(futures)]
    """,
    # sum over an unordered pool iterator
    """
    from repro.typing import bit_deterministic

    @bit_deterministic
    def fold(pool, chunks):
        return sum(pool.imap_unordered(work, chunks))
    """,
    # machine-dependent worker grid inside the deterministic region
    """
    import os
    from repro.typing import bit_deterministic

    @bit_deterministic
    def plan(n):
        workers = os.cpu_count()
        return n // workers
    """,
]

TCAM031_SUPPRESSED = [
    """
    from concurrent.futures import as_completed
    from repro.typing import bit_deterministic

    @bit_deterministic
    def reduce_parallel(pool, chunks):
        futures = [pool.submit(work, chunk) for chunk in chunks]
        total = 0.0
        for fut in as_completed(futures):  # tcam-lint: disable=TCAM031
            total += fut.result()
        return total
    """,
]

TCAM031_CLEAN = [
    # the blessed engine pattern: submission order, fixed reduction
    """
    from repro.typing import bit_deterministic

    @bit_deterministic
    def reduce_parallel(pool, chunks):
        futures = [pool.submit(work, chunk) for chunk in chunks]
        partials = [f.result() for f in futures]
        total = 0.0
        for value in partials:
            total += value
        return total
    """,
    # unmarked code is outside the contract
    """
    from concurrent.futures import as_completed

    def reduce_parallel(futures):
        total = 0.0
        for fut in as_completed(futures):
            total += fut.result()
        return total
    """,
]


@pytest.mark.parametrize("source", TCAM031_FLAGGED)
def test_tcam031_flagged(source):
    assert "TCAM031" in rules_of(source)


@pytest.mark.parametrize("source", TCAM031_SUPPRESSED)
def test_tcam031_suppressed(source):
    assert "TCAM031" not in rules_of(source)


@pytest.mark.parametrize("source", TCAM031_CLEAN)
def test_tcam031_clean(source):
    assert rules_of(source) == []


def test_completion_order_is_tcam031_not_tcam030():
    """as_completed folds get the precise rule, never a double flag."""
    codes = rules_of(TCAM031_FLAGGED[0])
    assert codes.count("TCAM031") == 1
    assert "TCAM030" not in codes


# ---------------------------------------------------------------------------
# TCAM032 — unstable sort on a deterministic path
# ---------------------------------------------------------------------------

TCAM032_FLAGGED = [
    """
    import numpy as np
    from repro.typing import bit_deterministic

    @bit_deterministic
    def ranking(scores):
        return np.argsort(scores)[::-1]
    """,
    """
    import numpy as np
    from repro.typing import bit_deterministic

    @bit_deterministic
    def ordered(values):
        return np.sort(values)
    """,
    # method spelling
    """
    from repro.typing import bit_deterministic

    @bit_deterministic
    def ranking(scores):
        return scores.argsort()
    """,
]

TCAM032_SUPPRESSED = [
    """
    import numpy as np
    from repro.typing import bit_deterministic

    @bit_deterministic
    def ranking(scores):
        return np.argsort(scores)[::-1]  # tcam-lint: disable=TCAM032
    """,
]

TCAM032_CLEAN = [
    """
    import numpy as np
    from repro.typing import bit_deterministic

    @bit_deterministic
    def ranking(scores):
        return np.argsort(scores, kind="stable")[::-1]
    """,
    """
    import numpy as np
    from repro.typing import bit_deterministic

    @bit_deterministic
    def ordered(values):
        return np.sort(values, kind="mergesort")
    """,
    # Python's sorted/list.sort and np.lexsort are stable by spec
    """
    import numpy as np
    from repro.typing import bit_deterministic

    @bit_deterministic
    def ordered(pairs, keys):
        ranked = sorted(pairs)
        ranked.sort()
        return np.lexsort(keys)
    """,
    # unmarked code is outside the contract
    """
    import numpy as np

    def ranking(scores):
        return np.argsort(scores)
    """,
]


@pytest.mark.parametrize("source", TCAM032_FLAGGED)
def test_tcam032_flagged(source):
    assert "TCAM032" in rules_of(source)


@pytest.mark.parametrize("source", TCAM032_SUPPRESSED)
def test_tcam032_suppressed(source):
    assert "TCAM032" not in rules_of(source)


@pytest.mark.parametrize("source", TCAM032_CLEAN)
def test_tcam032_clean(source):
    assert rules_of(source) == []


# ---------------------------------------------------------------------------
# TCAM033 — silent float dtype mixing
# ---------------------------------------------------------------------------

TCAM033_FLAGGED = [
    # annotated float64 param times a visible float32 local
    """
    import numpy as np
    from repro.typing import FloatArray, bit_deterministic

    @bit_deterministic
    def scale(theta: FloatArray):
        factors = np.zeros(4, dtype="float32")
        return theta * factors
    """,
    # hot paths get the dtype rule even without the determinism marker
    """
    import numpy as np
    from repro.typing import hot_path

    @hot_path
    def axpy(out):
        a = np.ones(4, dtype="float16")
        b = np.ones(4, dtype="float64")
        np.add(a, b, out=out)
    """,
    # narrowing cast outside the blessed quantize layer
    """
    from repro.typing import FloatArray, bit_deterministic

    @bit_deterministic
    def shrink(theta: FloatArray):
        return theta.astype("float32")
    """,
    # constructor-style narrowing
    """
    import numpy as np
    from repro.typing import bit_deterministic

    @bit_deterministic
    def shrink(value):
        return np.float16(value)
    """,
]

TCAM033_SUPPRESSED = [
    """
    from repro.typing import FloatArray, bit_deterministic

    @bit_deterministic
    def shrink(theta: FloatArray):
        return theta.astype("float32")  # tcam-lint: disable=TCAM033
    """,
]

TCAM033_CLEAN = [
    # matched dtypes
    """
    import numpy as np
    from repro.typing import bit_deterministic

    @bit_deterministic
    def scale(values):
        a = np.zeros(4, dtype="float32")
        b = np.ones(4, dtype="float32")
        return a * b
    """,
    # widening to float64 is not a narrowing cast
    """
    from repro.typing import bit_deterministic

    @bit_deterministic
    def widen(values):
        return values.astype("float64")
    """,
    # the quantized-selection layer is blessed for narrowing
    (
        """
        from repro.typing import FloatArray, bit_deterministic

        @bit_deterministic
        def quantize(theta: FloatArray):
            return theta.astype("float32")
        """,
        BLESSED_PATH,
    ),
    # unmarked, not hot: outside both contracts
    """
    import numpy as np

    def scale(theta):
        factors = np.zeros(4, dtype="float32")
        b = np.ones(4, dtype="float64")
        return factors * b
    """,
]


@pytest.mark.parametrize("source", TCAM033_FLAGGED)
def test_tcam033_flagged(source):
    assert "TCAM033" in rules_of(source)


@pytest.mark.parametrize("source", TCAM033_SUPPRESSED)
def test_tcam033_suppressed(source):
    assert "TCAM033" not in rules_of(source)


@pytest.mark.parametrize("source", TCAM033_CLEAN)
def test_tcam033_clean(source):
    if isinstance(source, tuple):
        source, path = source
        assert rules_of(source, path) == []
    else:
        assert rules_of(source) == []


# ---------------------------------------------------------------------------
# TCAM034 — wall-clock / unseeded entropy
# ---------------------------------------------------------------------------

TCAM034_FLAGGED = [
    """
    import time
    from repro.typing import bit_deterministic

    @bit_deterministic
    def stamp(event):
        event.created = time.time()
        return event
    """,
    """
    import datetime
    from repro.typing import bit_deterministic

    @bit_deterministic
    def stamp(event):
        event.created = datetime.datetime.now()
        return event
    """,
    """
    import uuid
    from repro.typing import bit_deterministic

    @bit_deterministic
    def request_id():
        return uuid.uuid4().hex
    """,
    # builtin hash() is PYTHONHASHSEED-dependent for str
    """
    from repro.typing import bit_deterministic

    @bit_deterministic
    def shard(key, n):
        return hash(key) % n
    """,
    # unseeded generator draws OS entropy
    """
    from numpy.random import default_rng
    from repro.typing import bit_deterministic

    @bit_deterministic
    def jitter(n):
        rng = default_rng()
        return rng.random(n)
    """,
    # the process-global random module
    """
    import random
    from repro.typing import bit_deterministic

    @bit_deterministic
    def pick(items):
        return random.choice(items)
    """,
]

TCAM034_SUPPRESSED = [
    """
    import time
    from repro.typing import bit_deterministic

    @bit_deterministic
    def stamp(event):
        event.created = time.time()  # tcam-lint: disable=TCAM034
        return event
    """,
]

TCAM034_CLEAN = [
    # duration clocks are diagnostics-only and exempt
    """
    import time
    from repro.typing import bit_deterministic

    @bit_deterministic
    def timed(work):
        start = time.perf_counter()
        result = work()
        return result, time.perf_counter() - start
    """,
    # seeded generators are the blessed random source
    """
    from numpy.random import default_rng
    from repro.typing import bit_deterministic

    @bit_deterministic
    def jitter(n, seed):
        rng = default_rng(seed)
        return rng.random(n)
    """,
    # an unrelated .time() method is not the time module
    """
    from repro.typing import bit_deterministic

    @bit_deterministic
    def event_time(event):
        return event.time()
    """,
    # unmarked code is outside the contract
    """
    import time

    def stamp(event):
        event.created = time.time()
        return event
    """,
]


@pytest.mark.parametrize("source", TCAM034_FLAGGED)
def test_tcam034_flagged(source):
    assert "TCAM034" in rules_of(source)


@pytest.mark.parametrize("source", TCAM034_SUPPRESSED)
def test_tcam034_suppressed(source):
    assert "TCAM034" not in rules_of(source)


@pytest.mark.parametrize("source", TCAM034_CLEAN)
def test_tcam034_clean(source):
    assert rules_of(source) == []


# ---------------------------------------------------------------------------
# TCAM035 — @bit_deterministic coverage
# ---------------------------------------------------------------------------

TCAM035_FLAGGED = [
    # contract function present but unmarked
    """
    def run_em(engine, params):
        return engine.step(params)
    """,
    # contract function missing from its module entirely
    """
    def some_other_function():
        return 1
    """,
]

TCAM035_SUPPRESSED = [
    """
    def run_em(engine, params):  # tcam-lint: disable=TCAM035
        return engine.step(params)
    """,
]

TCAM035_CLEAN = [
    """
    from repro.typing import bit_deterministic

    @bit_deterministic
    def run_em(engine, params):
        return engine.step(params)
    """,
]


@pytest.mark.parametrize("source", TCAM035_FLAGGED)
def test_tcam035_flagged(source):
    assert "TCAM035" in rules_of(source, CONTRACT_PATH)


@pytest.mark.parametrize("source", TCAM035_SUPPRESSED)
def test_tcam035_suppressed(source):
    assert "TCAM035" not in rules_of(source, CONTRACT_PATH)


@pytest.mark.parametrize("source", TCAM035_CLEAN)
def test_tcam035_clean(source):
    assert rules_of(source, CONTRACT_PATH) == []


def test_tcam035_covers_method_contracts():
    source = """
    class BlockedEStep:
        def compute(self, params):
            return params
    """
    assert "TCAM035" in rules_of(source, "src/repro/core/engine.py")
    scaffold = """
    class EMModel:
        def fit(self, cuboid):
            return self
    """
    assert "TCAM035" in rules_of(scaffold, "src/repro/core/model.py")


def test_tcam035_only_applies_to_contract_modules():
    assert rules_of("def run_em():\n    return 1\n", "fixture.py") == []


# ---------------------------------------------------------------------------
# CLI surface: rule catalogue, exit codes, directory walk
# ---------------------------------------------------------------------------

DIRTY_SOURCE = textwrap.dedent(
    """
    from repro.typing import bit_deterministic

    @bit_deterministic
    def replay(events):
        out = []
        for event in set(events):
            out.append(event)
        return out
    """
).lstrip()


def test_rule_catalogue_is_complete():
    assert sorted(RULES) == [
        "TCAM030",
        "TCAM031",
        "TCAM032",
        "TCAM033",
        "TCAM034",
        "TCAM035",
    ]


def test_prove_paths_walks_directories(tmp_path):
    (tmp_path / "dirty.py").write_text(DIRTY_SOURCE, encoding="utf-8")
    sub = tmp_path / "nested"
    sub.mkdir()
    (sub / "clean.py").write_text("VALUE = 1\n", encoding="utf-8")
    findings = prove_paths([str(tmp_path)])
    assert [f.rule for f in findings] == ["TCAM030"]
    assert findings[0].path.endswith("dirty.py")


def test_main_exit_codes(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(DIRTY_SOURCE, encoding="utf-8")
    assert main([str(dirty)]) == 1
    out = capsys.readouterr()
    assert "TCAM030" in out.out

    clean = tmp_path / "clean.py"
    clean.write_text("VALUE = 1\n", encoding="utf-8")
    assert main([str(clean)]) == 0


def test_main_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in RULES:
        assert code in out


def test_syntax_error_is_reported_not_raised(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n", encoding="utf-8")
    findings = prove_paths([str(bad)])
    assert [f.rule for f in findings] == ["TCAM000"]


# ---------------------------------------------------------------------------
# SARIF output
# ---------------------------------------------------------------------------


def _sarif_schema() -> dict:
    schema_path = Path(__file__).with_name("sarif-2.1.0-subset.json")
    return json.loads(schema_path.read_text(encoding="utf-8"))


def _dirty_findings(tmp_path: Path) -> list[Finding]:
    dirty = tmp_path / "dirty.py"
    dirty.write_text(
        DIRTY_SOURCE + "\n\nimport numpy as np\n\n"
        "@bit_deterministic\n"
        "def ranking(scores):\n"
        "    return np.argsort(scores)\n",
        encoding="utf-8",
    )
    return prove_paths([str(dirty)])


def test_sarif_log_validates_against_the_schema(tmp_path):
    schema = _sarif_schema()
    jsonschema.Draft7Validator.check_schema(schema)
    findings = _dirty_findings(tmp_path)
    assert findings, "fixture must produce findings"
    log = json.loads(render_sarif(findings, "tcam prove"))
    jsonschema.validate(log, schema)


def test_sarif_empty_log_validates_too():
    log = json.loads(render_sarif([], "tcam prove"))
    jsonschema.validate(log, _sarif_schema())
    assert log["runs"][0]["results"] == []


def test_sarif_structure_and_rule_metadata(tmp_path):
    from repro.tooling.registry import REGISTRY

    findings = _dirty_findings(tmp_path)
    log = json.loads(render_sarif(findings, "tcam prove"))
    assert log["$schema"] == SARIF_SCHEMA_URI
    assert log["version"] == "2.1.0"
    run = log["runs"][0]
    assert run["tool"]["driver"]["name"] == "tcam prove"
    rules = run["tool"]["driver"]["rules"]
    fired = sorted({f.rule for f in findings})
    assert [r["id"] for r in rules] == fired
    for rule in rules:
        spec = REGISTRY[rule["id"]]
        assert rule["shortDescription"]["text"] == spec.summary
        assert rule["helpUri"] == spec.doc_url
    for result, finding in zip(
        run["results"],
        sorted(findings, key=lambda f: (f.path, f.line, f.rule, f.message)),
    ):
        assert result["ruleId"] == finding.rule
        assert rules[result["ruleIndex"]]["id"] == finding.rule
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == finding.line
        assert region["startColumn"] == finding.col + 1


def test_sarif_cli_roundtrip(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(DIRTY_SOURCE, encoding="utf-8")
    assert main([str(dirty), "--format", "sarif"]) == 1
    log = json.loads(capsys.readouterr().out)
    jsonschema.validate(log, _sarif_schema())
    assert [r["ruleId"] for r in log["runs"][0]["results"]] == ["TCAM030"]


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


def test_apply_baseline_matches_with_multiplicity():
    first = Finding("a.py", 3, 0, "TCAM030", "same message")
    second = Finding("a.py", 9, 0, "TCAM030", "same message")
    moved = Finding("a.py", 40, 4, "TCAM030", "same message")
    other = Finding("b.py", 1, 0, "TCAM032", "different")

    one_recorded = apply_baseline([first, second], {("a.py", "TCAM030", "same message"): 1})
    assert len(one_recorded) == 1  # the second identical occurrence is new

    # line numbers are ignored: a moved finding still matches
    assert apply_baseline([moved], {("a.py", "TCAM030", "same message"): 1}) == []
    # unrecorded findings always surface
    assert apply_baseline([other], {("a.py", "TCAM030", "same message"): 1}) == [other]


def test_baseline_workflow_end_to_end(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(DIRTY_SOURCE, encoding="utf-8")
    baseline = tmp_path / "baseline.json"

    # 1. record the debt: exit 0, findings land in the file
    assert main([str(dirty), "--write-baseline", str(baseline)]) == 0
    capsys.readouterr()
    recorded = load_baseline(baseline)
    assert sum(recorded.values()) == 1

    # 2. gate on the baseline: the recorded finding no longer fails the run
    assert main([str(dirty), "--baseline", str(baseline)]) == 0
    assert capsys.readouterr().out.strip() == ""

    # 3. a NEW finding still fails, and only the new one is reported
    dirty.write_text(
        DIRTY_SOURCE + "\nimport numpy as np\n\n"
        "@bit_deterministic\n"
        "def ranking(scores):\n"
        "    return np.argsort(scores)\n",
        encoding="utf-8",
    )
    assert main([str(dirty), "--baseline", str(baseline)]) == 1
    out = capsys.readouterr().out
    assert "TCAM032" in out
    assert "TCAM030" not in out


def test_missing_baseline_is_an_error_not_an_empty_baseline(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("VALUE = 1\n", encoding="utf-8")
    assert main([str(clean), "--baseline", str(tmp_path / "nope.json")]) == 2


# ---------------------------------------------------------------------------
# Meta-test: the real tree must prove clean
# ---------------------------------------------------------------------------


def test_real_tree_proves_clean():
    """The gate CI enforces: zero findings across src/repro."""
    src = REPO_ROOT / "src" / "repro"
    assert src.is_dir(), f"expected source tree at {src}"
    findings = prove_paths([str(src)])
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"tcam prove found violations:\n{rendered}"


def test_contract_functions_really_carry_the_marker():
    """The runtime attribute agrees with the static table for key roots."""
    from repro.analysis.topics import match_topics
    from repro.core.em import run_em
    from repro.core import ITCAM, TTCAM
    from repro.core.engine import BlockedEStep
    from repro.core.model import EMModel
    from repro.extensions.social import build_homophilous_graph

    assert is_bit_deterministic(run_em)
    assert is_bit_deterministic(BlockedEStep.compute)
    assert is_bit_deterministic(EMModel.fit)
    assert TTCAM.fit is EMModel.fit and ITCAM.fit is EMModel.fit  # one fit
    assert is_bit_deterministic(match_topics)
    assert is_bit_deterministic(build_homophilous_graph)


# ---------------------------------------------------------------------------
# Dynamic cross-check: TCAM030 really breaks bit-identity
# ---------------------------------------------------------------------------

#: Twenty distinct words: the probability that several PYTHONHASHSEED
#: values all yield the same set-iteration order is ~0.
_WORDS = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
    "hotel", "india", "juliet", "kilo", "lima", "mike", "november",
    "oscar", "papa", "quebec", "romeo", "sierra", "tango",
]

VIOLATING_REPLAY = f"""
import sys

from repro.typing import bit_deterministic

WORDS = {_WORDS!r}


@bit_deterministic
def replay(words):
    tags = set(words)
    out = []
    for tag in tags:
        out.append(tag)
    return out


sys.stdout.write("|".join(replay(WORDS)))
"""

COMPLIANT_REPLAY = f"""
import sys

from repro.typing import bit_deterministic

WORDS = {_WORDS!r}


@bit_deterministic
def replay(words):
    tags = set(words)
    out = []
    for tag in sorted(tags):
        out.append(tag)
    return out


sys.stdout.write("|".join(replay(WORDS)))
"""


def _run_under_seeds(script: Path, seeds: range) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    outputs = []
    for seed in seeds:
        env["PYTHONHASHSEED"] = str(seed)
        proc = subprocess.run(
            [sys.executable, str(script)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.append(proc.stdout)
    return outputs


def test_tcam030_flagged_pattern_diverges_under_hash_seeds(tmp_path):
    # Static side: the verifier flags exactly this pattern.
    assert "TCAM030" in rules_of(VIOLATING_REPLAY)

    # Runtime side: the emitted sequence depends on PYTHONHASHSEED — the
    # bit-identity break the rule predicts.
    script = tmp_path / "violating.py"
    script.write_text(textwrap.dedent(VIOLATING_REPLAY), encoding="utf-8")
    outputs = _run_under_seeds(script, range(8))
    assert len(set(outputs)) > 1
    # same elements every time — only the *order* is nondeterministic
    assert {frozenset(out.split("|")) for out in outputs} == {frozenset(_WORDS)}


def test_tcam030_compliant_rewrite_is_bit_identical(tmp_path):
    # Static side: sorted(...) satisfies the verifier.
    assert rules_of(COMPLIANT_REPLAY) == []

    script = tmp_path / "compliant.py"
    script.write_text(textwrap.dedent(COMPLIANT_REPLAY), encoding="utf-8")
    outputs = _run_under_seeds(script, range(8))
    assert len(set(outputs)) == 1
    assert outputs[0] == "|".join(sorted(_WORDS))


# ---------------------------------------------------------------------------
# Dynamic cross-check: TCAM031 — completion order changes the float bits
# ---------------------------------------------------------------------------

#: Partials whose fold order visibly changes the float64 result: the
#: big/small cancellation absorbs the 0.1s whenever 1e16 is folded first.
_PARTIALS = [1e16, -1e16] + [0.1] * 8


def _completion_order_fold(partials, order):
    """The flagged shape: fold in whatever order workers finish."""
    total = 0.0
    for index in order:
        total += partials[index]
    return total


def _submission_order_fold(partials, order):
    """The blessed shape: collect by slot, reduce in fixed worker order."""
    slots = [0.0] * len(partials)
    for index in order:  # workers finish in arbitrary order...
        slots[index] = partials[index]
    total = 0.0
    for value in slots:  # ...but the reduction order is fixed
        total += value
    return total


def test_tcam031_completion_order_changes_the_bits():
    orders = []
    for seed in range(6):
        order = list(range(len(_PARTIALS)))
        random.Random(seed).shuffle(order)
        orders.append(order)

    completion = {_completion_order_fold(_PARTIALS, order) for order in orders}
    submission = {_submission_order_fold(_PARTIALS, order) for order in orders}

    # The flagged fold's float bits depend on completion order...
    assert len(completion) > 1
    # ...while the blessed fold is bit-identical across every schedule.
    assert len(submission) == 1
