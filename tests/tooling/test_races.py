"""Fixture corpus for the concurrency-race analyzer (``repro.tooling.races``).

Mirrors ``test_lint.py``: every rule gets snippets it must *flag*,
snippets where ``# tcam-lint: disable=...`` *suppresses* the finding,
and *clean* snippets encoding the blessed concurrency idioms the real
tree uses (per-worker buffer slots, locked caches, fixed-order
reduction). ``select=ANALYZE`` narrows the one pass to this family.
The meta-test at the bottom runs the family over the actual
``src/repro`` tree and requires zero findings — the gate ``tcam check``
and CI enforce.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.tooling.core import check_paths, check_source, main
from tests.tooling import family

REPO_ROOT = Path(__file__).resolve().parents[2]

ANALYZE = family("analyze")

#: Path that puts a fixture inside the TCAM012 serving scope.
SERVING_PATH = "src/repro/recommend/serving.py"


def rules_of(source: str, path: str = "fixture.py") -> list[str]:
    """Analyze a dedented snippet and return the rule codes found."""
    return [f.rule for f in check_source(textwrap.dedent(source), path, ANALYZE)]


# ---------------------------------------------------------------------------
# TCAM010 — write to shared state from a pooled worker
# ---------------------------------------------------------------------------

TCAM010_FLAGGED = [
    # worker accumulates into a bound-instance attribute
    """
    from concurrent.futures import ThreadPoolExecutor

    class Engine:
        def run(self, n):
            with ThreadPoolExecutor() as pool:
                futures = [pool.submit(self._worker, w) for w in range(n)]
            return [f.result() for f in futures]

        def _worker(self, worker):
            self.total += worker
    """,
    # worker stores into a module-global dict under a non-unique key
    """
    from concurrent.futures import ThreadPoolExecutor

    RESULTS = {}

    def worker(item):
        RESULTS[item] = item * 2

    def run(pool, items):
        for item in items:
            pool.submit(worker, item)
    """,
    # the write is buried one call below the submitted callable
    """
    from concurrent.futures import ThreadPoolExecutor

    class Engine:
        def run(self, n):
            with ThreadPoolExecutor() as pool:
                for w in range(n):
                    pool.submit(self._worker, w)

        def _worker(self, w):
            self._bump()

        def _bump(self):
            self.counter += 1
    """,
    # np.add with a shared out= target still races, numpy or not
    """
    from concurrent.futures import ThreadPoolExecutor
    import numpy as np

    TOTAL = np.zeros(4)

    def worker(w, chunks):
        np.add(TOTAL, chunks[w], out=TOTAL)

    def run(pool, n, chunks):
        for w in range(n):
            pool.submit(worker, w, chunks)
    """,
]

TCAM010_CLEAN = [
    # the engine idiom: every write lands in the worker's own slot
    """
    from concurrent.futures import ThreadPoolExecutor

    def fill(worker, stats):
        stats[worker].fill(0.0)
        stats[worker][0] = float(worker)

    def run(n, stats):
        with ThreadPoolExecutor() as pool:
            for worker in range(n):
                pool.submit(fill, worker, stats)
    """,
    # numpy ufunc calls do not mutate the np module itself
    """
    from concurrent.futures import ThreadPoolExecutor
    import numpy as np

    def worker(worker, workspaces):
        ws = workspaces[worker]
        np.add(ws, 1.0, out=ws)

    def run(pool, n, workspaces):
        for worker in range(n):
            pool.submit(worker_fn, worker, workspaces)

    worker_fn = worker
    """,
    # worker-local accumulation then a return is the blessed reduce shape
    """
    from concurrent.futures import ThreadPoolExecutor

    def worker(worker, blocks):
        total = 0.0
        for lo, hi in blocks[worker]:
            total += float(hi - lo)
        return total

    def run(n, blocks):
        with ThreadPoolExecutor() as pool:
            futures = [pool.submit(worker, w, blocks) for w in range(n)]
        return sum(f.result() for f in futures)
    """,
]


@pytest.mark.parametrize("source", TCAM010_FLAGGED)
def test_tcam010_flags_shared_worker_writes(source):
    assert "TCAM010" in rules_of(source)


@pytest.mark.parametrize("source", TCAM010_CLEAN)
def test_tcam010_accepts_disjoint_slot_writes(source):
    assert "TCAM010" not in rules_of(source)


def test_tcam010_suppressible():
    source = """
    from concurrent.futures import ThreadPoolExecutor

    class Engine:
        def run(self, n):
            with ThreadPoolExecutor() as pool:
                for w in range(n):
                    pool.submit(self._worker, w)

        def _worker(self, worker):
            self.total += worker  # tcam-lint: disable=TCAM010
    """
    assert rules_of(source) == []


# ---------------------------------------------------------------------------
# TCAM011 — aliasing buffers handed to workers
# ---------------------------------------------------------------------------

TCAM011_FLAGGED = [
    # every worker mutates the one buffer they were all handed
    """
    from concurrent.futures import ThreadPoolExecutor

    def worker(w, buf):
        buf.fill(0.0)

    def run(n, shared):
        with ThreadPoolExecutor() as pool:
            for w in range(n):
                pool.submit(worker, w, shared)
    """,
    # [buf] * n replicates one object across all slots
    """
    from concurrent.futures import ThreadPoolExecutor
    import numpy as np

    def run(n, fn):
        buf = np.zeros(4)
        buffers = [buf] * n
        with ThreadPoolExecutor() as pool:
            for w in range(n):
                pool.submit(fn, w, buffers)
    """,
    # a comprehension replaying one outer name aliases the same way
    """
    from concurrent.futures import ThreadPoolExecutor
    import numpy as np

    def run(n, fn):
        buf = np.zeros(4)
        buffers = [buf for _ in range(n)]
        with ThreadPoolExecutor() as pool:
            for w in range(n):
                pool.submit(fn, w, buffers)
    """,
]

TCAM011_CLEAN = [
    # fresh allocation per slot is the blessed construction
    """
    from concurrent.futures import ThreadPoolExecutor
    import numpy as np

    def worker(w, buffers):
        buffers[w].fill(0.0)

    def run(n):
        buffers = [np.zeros(4) for _ in range(n)]
        with ThreadPoolExecutor() as pool:
            for w in range(n):
                pool.submit(worker, w, buffers)
    """,
    # comprehension over the generator's own variable is not replication
    """
    from concurrent.futures import ThreadPoolExecutor

    def run(items, fn):
        copies = [item for item in items]
        with ThreadPoolExecutor() as pool:
            for item in copies:
                pool.submit(fn, item)
    """,
    # [0.0] * n is a literal fill, not object replication
    """
    from concurrent.futures import ThreadPoolExecutor

    def run(n, fn):
        totals = [0.0] * n
        with ThreadPoolExecutor() as pool:
            for w in range(n):
                pool.submit(fn, w, totals)
    """,
]


@pytest.mark.parametrize("source", TCAM011_FLAGGED)
def test_tcam011_flags_aliasing_buffers(source):
    assert "TCAM011" in rules_of(source)


@pytest.mark.parametrize("source", TCAM011_CLEAN)
def test_tcam011_accepts_per_worker_allocation(source):
    assert "TCAM011" not in rules_of(source)


def test_tcam011_replication_only_checked_in_pool_modules():
    # Without any pool machinery in the module, [buf] * n is fine (it is
    # a single-threaded convenience, not a worker buffer list).
    source = """
    import numpy as np

    def tile(n):
        buf = np.zeros(4)
        return [buf] * n
    """
    assert rules_of(source) == []


def test_tcam011_suppressible():
    source = """
    from concurrent.futures import ThreadPoolExecutor
    import numpy as np

    def run(n, fn):
        buf = np.zeros(4)
        buffers = [buf] * n  # tcam-lint: disable=TCAM011
        with ThreadPoolExecutor() as pool:
            for w in range(n):
                pool.submit(fn, w, buffers)
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
    # The same mutation outside the serving layer is TCAM010/011
    # territory (needs a pool) — TCAM012 itself must stay silent.
    assert rules_of(source, "src/repro/core/engine.py") == []


def test_tcam012_suppressible():
    source = """
    class Cache:
        \"\"\"A serving cache.\"\"\"

        def put(self, key, value):
            self._entries[key] = value  # tcam-lint: disable=TCAM012
    """
    assert rules_of(source, SERVING_PATH) == []


# ---------------------------------------------------------------------------
# Driver behaviour
# ---------------------------------------------------------------------------


def test_syntax_error_reported_as_tcam000():
    findings = check_source("def broken(:\n", "bad.py", ANALYZE)
    assert [f.rule for f in findings] == ["TCAM000"]


def test_rule_catalogue_is_complete():
    assert sorted(ANALYZE) == ["TCAM010", "TCAM011", "TCAM012"]


def test_lambda_submissions_are_skipped():
    # Documented limitation: lambdas are not descended into.
    source = """
    from concurrent.futures import ThreadPoolExecutor

    def run(pool, state):
        pool.submit(lambda: state.update({"k": 1}))
    """
    assert rules_of(source) == []


#: A worker writing shared state: the family's one-finding dirty file.
DIRTY_SOURCE = """
from concurrent.futures import ThreadPoolExecutor

class Engine:
    def run(self, chunks):
        with ThreadPoolExecutor() as pool:
            for chunk in chunks:
                pool.submit(self.work, chunk)

    def work(self, chunk):
        self.total = chunk.sum()
"""


def test_check_paths_walks_directories(tmp_path):
    (tmp_path / "dirty.py").write_text(DIRTY_SOURCE, encoding="utf-8")
    sub = tmp_path / "nested"
    sub.mkdir()
    (sub / "clean.py").write_text("VALUE = 1\n", encoding="utf-8")
    findings = check_paths([str(tmp_path)], ANALYZE)
    assert [f.rule for f in findings] == ["TCAM010"]
    assert findings[0].path.endswith("dirty.py")


def test_main_exit_codes(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(DIRTY_SOURCE, encoding="utf-8")
    assert main([str(dirty)]) == 1
    out = capsys.readouterr()
    assert "TCAM010" in out.out

    clean = tmp_path / "clean.py"
    clean.write_text("VALUE = 1\n", encoding="utf-8")
    assert main([str(clean)]) == 0


def test_main_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ANALYZE:
        assert code in out


# ---------------------------------------------------------------------------
# Process(target=...) entrypoints are worker roots (PR 8 serving service)
# ---------------------------------------------------------------------------


SPAWN_FLAGGED = [
    # entrypoint writes through an argument every spawned worker receives
    """
    from multiprocessing import get_context

    def worker_entry(shared, conn):
        shared["count"] = 1

    def launch(shared):
        ctx = get_context("spawn")
        for index in range(4):
            ctx.Process(target=worker_entry, args=(shared, None)).start()
    """,
    # bare Process name, shared object via a kwargs= pack
    """
    from multiprocessing import Process

    def entry(stats=None):
        stats["events"] += 1

    def launch(shared):
        for index in range(3):
            Process(target=entry, kwargs={"stats": shared}).start()
    """,
]

SPAWN_CLEAN = [
    # per-worker slot of a shared list is disjoint across processes
    """
    from multiprocessing import get_context

    def worker_entry(slot):
        slot["count"] = 1

    def launch(slots):
        ctx = get_context("spawn")
        for index in range(4):
            ctx.Process(target=worker_entry, args=(slots[index],)).start()
    """,
    # a dynamically built argument pack cannot be classified — no finding
    """
    from multiprocessing import Process

    def entry(shared):
        shared["count"] = 1

    def launch(shared, pack):
        Process(target=entry, args=pack).start()
    """,
]


@pytest.mark.parametrize("source", SPAWN_FLAGGED)
def test_spawn_entrypoints_are_worker_roots(source):
    rules = rules_of(source)
    assert "TCAM010" in rules or "TCAM011" in rules


@pytest.mark.parametrize("source", SPAWN_CLEAN)
def test_spawn_entrypoints_accept_disjoint_or_opaque_args(source):
    assert rules_of(source) == []


def test_spawn_module_counts_as_pool_for_replicated_buffers():
    # [buf] * n in a module that spawns processes is the same aliasing
    # hazard as in a threaded module.
    source = """
    from multiprocessing import Process
    import numpy as np

    def run(n, fn):
        buf = np.zeros(4)
        buffers = [buf] * n
        for index in range(n):
            Process(target=fn, args=(buffers[index],)).start()
    """
    assert "TCAM011" in rules_of(source)


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


def test_main_json_and_filters(tmp_path, capsys):
    """The CLI surface: --format json schema and --select/--ignore."""
    import json

    dirty = tmp_path / "dirty.py"
    dirty.write_text(DIRTY_SOURCE.lstrip(), encoding="utf-8")
    assert main([str(dirty), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [f["rule"] for f in payload] == ["TCAM010"]
    assert sorted(payload[0]) == ["col", "line", "message", "path", "rule"]
    assert main([str(dirty), "--ignore", "TCAM010"]) == 0
    assert main([str(dirty), "--select", "TCAM010"]) == 1


# ---------------------------------------------------------------------------
# Meta-test: the real tree must be race-clean
# ---------------------------------------------------------------------------


def test_real_tree_is_race_clean():
    """The gate CI enforces: zero findings across src/repro."""
    src = REPO_ROOT / "src" / "repro"
    assert src.is_dir(), f"expected source tree at {src}"
    findings = check_paths([str(src)], ANALYZE)
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"tcam check found race violations:\n{rendered}"
