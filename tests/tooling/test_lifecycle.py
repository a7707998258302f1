"""Fixture corpus for the lifecycle auditor (``repro.tooling.lifecycle``).

Mirrors ``test_lint.py``: every rule gets snippets it
must *flag*, snippets where ``# tcam-lint: disable=...`` *suppresses*
the finding, and *clean* snippets encoding the blessed idioms the real
tree uses (with blocks, try/finally releases, constructor rollback,
owner classes that verifiably release their attributes, fsync-before-
rename publishes). ``select=AUDIT`` narrows the one pass to this
family. The meta-test at the bottom runs the family over the actual
``src/repro`` tree *and* ``benchmarks/perf`` and requires zero
findings — the gate ``tcam check`` and CI enforce.

The cross-check tests at the end close the loop between the static rule
and the runtime failure it predicts: a TCAM021-violating writer is
executed under :class:`repro.robustness.faults.FaultInjector` write
faults and demonstrably publishes corrupt data, while the compliant
writer survives the same faults bit-exactly.
"""

from __future__ import annotations

import json
import os
import textwrap
from pathlib import Path

import pytest

from repro.robustness.errors import InjectedFault
from repro.robustness.faults import FaultInjector, faulty_write
from repro.tooling.core import Finding, check_paths, check_source, main
from repro.tooling.output import filter_findings, parse_codes, render_json
from tests.tooling import family

REPO_ROOT = Path(__file__).resolve().parents[2]

AUDIT = family("audit")

#: Path that puts a fixture inside the TCAM021/022 durability scope.
DURABLE_PATH = "src/repro/streaming/publisher.py"
#: Durable module whose contract additionally requires directory fsync.
DIR_FSYNC_PATH = "src/repro/robustness/archive.py"


def rules_of(source: str, path: str = "fixture.py") -> list[str]:
    """Audit a dedented snippet and return the rule codes found."""
    return [f.rule for f in check_source(textwrap.dedent(source), path, AUDIT)]


# ---------------------------------------------------------------------------
# TCAM020 — resource leak
# ---------------------------------------------------------------------------

TCAM020_FLAGGED = [
    # bound handle never released on any path
    """
    def read_header(path):
        handle = open(path, "rb")
        return handle.read(16).hex()
    """,
    # opened-and-discarded temporary
    """
    def peek(path):
        data = open(path, "rb").read()
        return data
    """,
    # socket acquired, then a fallible constructor step before any owner exists
    """
    import socket

    class Client:
        def __init__(self, host, port):
            self._sock = socket.create_connection((host, port))
            self._file = self._sock.makefile("rb")

        def close(self):
            self._file.close()
            self._sock.close()
    """,
    # stored on self, but no method of the class ever releases it
    """
    class Tail:
        def __init__(self, path):
            self._handle = path.open("ab")

        def append(self, data):
            self._handle.write(data)
    """,
    # pipe ends leak when the spawn between them raises
    """
    from multiprocessing import get_context

    class Handle:
        def __init__(self, target):
            ctx = get_context("spawn")
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            self.conn = parent_conn
            self.process = ctx.Process(target=target, args=(child_conn,))
            self.process.start()
            child_conn.close()

        def shutdown(self):
            self.process.join()
            self.conn.close()
    """,
]

TCAM020_SUPPRESSED = [
    """
    def read_header(path):
        handle = open(path, "rb")  # tcam-lint: disable=TCAM020
        return handle.read(16).hex()
    """,
]

TCAM020_CLEAN = [
    # with block
    """
    def read_header(path):
        with open(path, "rb") as handle:
            return handle.read(16).hex()
    """,
    # try/finally release
    """
    import os

    def fsync_dir(directory):
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    """,
    # constructor rollback: the except handler releases, so the fallible
    # step between acquisition and ownership is protected
    """
    import socket

    class Client:
        def __init__(self, host, port):
            self._sock = socket.create_connection((host, port))
            try:
                self._file = self._sock.makefile("rb")
            except Exception:
                self._sock.close()
                raise

        def close(self):
            self._file.close()
            self._sock.close()
    """,
    # escape to an owner class that verifiably releases the attribute
    """
    class Tail:
        def __init__(self, path):
            self._handle = path.open("ab")

        def close(self):
            self._handle.close()
    """,
    # escape by return: the caller owns it now
    """
    def open_log(path):
        return open(path, "ab")
    """,
    # handed to another callable (an ExitStack, a registry, ...)
    """
    def register(stack, path):
        handle = open(path, "rb")
        stack.enter_context(handle)
        return stack
    """,
]


@pytest.mark.parametrize("source", TCAM020_FLAGGED)
def test_tcam020_flagged(source):
    assert "TCAM020" in rules_of(source)


@pytest.mark.parametrize("source", TCAM020_SUPPRESSED)
def test_tcam020_suppressed(source):
    assert rules_of(source) == []


@pytest.mark.parametrize("source", TCAM020_CLEAN)
def test_tcam020_clean(source):
    assert rules_of(source) == []


# ---------------------------------------------------------------------------
# TCAM021 — atomic-publish protocol
# ---------------------------------------------------------------------------

TCAM021_FLAGGED = [
    # rename without any fsync: a crash can publish a truncated file
    """
    import json
    import os

    def publish(path, payload):
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)
    """,
    # os.rename variant
    """
    import os

    def publish(tmp, final):
        os.rename(tmp, final)
    """,
]

TCAM021_SUPPRESSED = [
    """
    import os

    def publish(tmp, final):
        os.rename(tmp, final)  # tcam-lint: disable=TCAM021
    """,
]

TCAM021_CLEAN = [
    # the blessed protocol: write temp, flush, fsync, replace
    """
    import json
    import os

    def publish(path, payload):
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    """,
]


@pytest.mark.parametrize("source", TCAM021_FLAGGED)
def test_tcam021_flagged(source):
    assert "TCAM021" in rules_of(source, DURABLE_PATH)


@pytest.mark.parametrize("source", TCAM021_SUPPRESSED)
def test_tcam021_suppressed(source):
    assert rules_of(source, DURABLE_PATH) == []


@pytest.mark.parametrize("source", TCAM021_CLEAN)
def test_tcam021_clean(source):
    assert rules_of(source, DURABLE_PATH) == []


def test_tcam021_scoped_to_durable_modules():
    """The same rename is no finding outside the durability scope."""
    assert rules_of(TCAM021_FLAGGED[0], "src/repro/data/generate.py") == []


def test_tcam021_directory_fsync_contract():
    """paramstore's contract also requires fsyncing after the rename."""
    source = """
    import os

    def _fsync_dir(path):
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def publish(tmp, final, handle):
        handle.flush()
        os.fsync(handle.fileno())
        os.rename(tmp, final)
    """
    found = rules_of(source, DIR_FSYNC_PATH)
    assert found == ["TCAM021"]  # fsynced before, but no directory fsync after

    compliant = source + "    _fsync_dir(final)\n"
    assert rules_of(compliant, DIR_FSYNC_PATH) == []


# ---------------------------------------------------------------------------
# TCAM022 — commit-record ordering
# ---------------------------------------------------------------------------

TCAM022_FLAGGED = [
    # manifest written before any payload fsync
    """
    import json
    import os

    def write_store(tmp, manifest, payload_handle):
        manifest_path = tmp / "manifest.json"
        with open(manifest_path, "w") as text:
            json.dump(manifest, text)
        payload_handle.flush()
        os.fsync(payload_handle.fileno())
    """,
    # write_text form, checksum token
    """
    def commit(checksum_path, digest):
        checksum_path.write_text(digest)
    """,
]

TCAM022_SUPPRESSED = [
    """
    def commit(checksum_path, digest):
        checksum_path.write_text(digest)  # tcam-lint: disable=TCAM022
    """,
]

TCAM022_CLEAN = [
    # payload fsynced first, manifest last — the write_store protocol
    """
    import json
    import os

    def write_store(tmp, manifest, payload_handle):
        payload_handle.flush()
        os.fsync(payload_handle.fileno())
        manifest_path = tmp / "manifest.json"
        with open(manifest_path, "w") as text:
            json.dump(manifest, text)
            text.flush()
            os.fsync(text.fileno())
    """,
    # reading a manifest back carries no ordering obligation
    """
    import json

    def load_manifest(manifest_path):
        with open(manifest_path, "r") as text:
            return json.load(text)
    """,
]


@pytest.mark.parametrize("source", TCAM022_FLAGGED)
def test_tcam022_flagged(source):
    assert "TCAM022" in rules_of(source, DURABLE_PATH)


@pytest.mark.parametrize("source", TCAM022_SUPPRESSED)
def test_tcam022_suppressed(source):
    assert rules_of(source, DURABLE_PATH) == []


@pytest.mark.parametrize("source", TCAM022_CLEAN)
def test_tcam022_clean(source):
    assert rules_of(source, DURABLE_PATH) == []


# ---------------------------------------------------------------------------
# TCAM024 — process lifecycle
# ---------------------------------------------------------------------------

TCAM024_FLAGGED = [
    # started but never joined, and never handed to an owner
    """
    from multiprocessing import get_context

    def fire_and_forget(target):
        ctx = get_context("spawn")
        proc = ctx.Process(target=target)
        proc.start()
    """,
    # killed but never reaped: zombie + open pipes
    """
    import subprocess
    import sys

    class Runner:
        def __init__(self, argv):
            self.proc = subprocess.Popen([sys.executable, *argv])

        def abort(self):
            self.proc.kill()
            raise RuntimeError("aborted")

        def drain(self):
            self.proc.communicate()
    """,
]

TCAM024_SUPPRESSED = [
    """
    from multiprocessing import get_context

    def fire_and_forget(target):
        ctx = get_context("spawn")
        proc = ctx.Process(target=target)  # tcam-lint: disable=TCAM024
        proc.start()
    """,
]

TCAM024_CLEAN = [
    # started and joined inline
    """
    from multiprocessing import get_context

    def run(target):
        ctx = get_context("spawn")
        proc = ctx.Process(target=target)
        proc.start()
        proc.join()
        return proc.exitcode
    """,
    # constructed but never started: no OS resource exists
    """
    from multiprocessing import get_context

    def prepare(target):
        ctx = get_context("spawn")
        proc = ctx.Process(target=target)
        return proc
    """,
    # killed, then reaped
    """
    import subprocess
    import sys

    class Runner:
        def __init__(self, argv):
            self.proc = subprocess.Popen([sys.executable, *argv])

        def abort(self):
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError("aborted")

        def drain(self):
            self.proc.communicate()
    """,
    # owner class reaps in shutdown(): terminate is followed by join
    """
    from multiprocessing import get_context

    class Handle:
        def __init__(self, target):
            ctx = get_context("spawn")
            self.process = ctx.Process(target=target)
            self.process.start()

        def shutdown(self, timeout=5.0):
            self.process.join(timeout)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join()
    """,
]


@pytest.mark.parametrize("source", TCAM024_FLAGGED)
def test_tcam024_flagged(source):
    assert "TCAM024" in rules_of(source)


@pytest.mark.parametrize("source", TCAM024_SUPPRESSED)
def test_tcam024_suppressed(source):
    assert "TCAM024" not in rules_of(source)


@pytest.mark.parametrize("source", TCAM024_CLEAN)
def test_tcam024_clean(source):
    assert rules_of(source) == []


# ---------------------------------------------------------------------------
# TCAM025 — mmap use-after-close
# ---------------------------------------------------------------------------

TCAM025_FLAGGED = [
    # view used after the store is closed
    """
    def topic_row(directory, key):
        store = ParamStore(directory)
        row = store.item_topic(key)
        store.close()
        return row.sum()
    """,
    # returning a view out of the finally that closes the store
    """
    def topic_row(directory, key):
        store = ParamStore(directory)
        try:
            row = store.item_topic(key)
            return row
        finally:
            store.close()
    """,
    # np.load(mmap_mode=...) archive subscript escaping a closing with
    """
    import numpy as np
    from contextlib import closing

    def load_theta(path):
        archive = np.load(path, mmap_mode="r")
        with closing(archive):
            theta = archive["theta"]
            return theta
    """,
]

TCAM025_SUPPRESSED = [
    """
    def topic_row(directory, key):
        store = ParamStore(directory)
        row = store.item_topic(key)
        store.close()
        return row.sum()  # tcam-lint: disable=TCAM025
    """,
]

TCAM025_CLEAN = [
    # copy before close
    """
    import numpy as np

    def topic_row(directory, key):
        store = ParamStore(directory)
        try:
            return np.array(store.item_topic(key))
        finally:
            store.close()
    """,
    # store outlives the function: attached to a model, never closed here
    """
    def attach(directory, model):
        store = ParamStore(directory)
        model.param_store = store
        return model
    """,
    # plain np.load without mmap is not a store
    """
    import numpy as np

    def load_theta(path):
        archive = np.load(path)
        theta = archive["theta"]
        archive.close()
        return theta
    """,
]


@pytest.mark.parametrize("source", TCAM025_FLAGGED)
def test_tcam025_flagged(source):
    assert "TCAM025" in rules_of(source)


@pytest.mark.parametrize("source", TCAM025_SUPPRESSED)
def test_tcam025_suppressed(source):
    assert "TCAM025" not in rules_of(source)


@pytest.mark.parametrize("source", TCAM025_CLEAN)
def test_tcam025_clean(source):
    assert rules_of(source) == []


# ---------------------------------------------------------------------------
# CLI surface: rule catalogue, JSON schema, filters
# ---------------------------------------------------------------------------


def test_rule_catalogue_is_complete():
    assert sorted(AUDIT) == ["TCAM020", "TCAM021", "TCAM022", "TCAM024", "TCAM025"]


def test_check_paths_walks_directories(tmp_path):
    (tmp_path / "dirty.py").write_text(
        "def f(p):\n    h = open(p)\n    return h.read()\n", encoding="utf-8"
    )
    sub = tmp_path / "nested"
    sub.mkdir()
    (sub / "clean.py").write_text("VALUE = 1\n", encoding="utf-8")
    findings = check_paths([str(tmp_path)], AUDIT)
    assert [f.rule for f in findings] == ["TCAM020"]
    assert findings[0].path.endswith("dirty.py")


def test_main_exit_codes(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("def f(p):\n    h = open(p)\n    return h.read()\n", encoding="utf-8")
    assert main([str(dirty)]) == 1
    out = capsys.readouterr()
    assert "TCAM020" in out.out

    clean = tmp_path / "clean.py"
    clean.write_text("VALUE = 1\n", encoding="utf-8")
    assert main([str(clean)]) == 0


def test_main_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in AUDIT:
        assert code in out


def test_parse_codes():
    assert parse_codes(" tcam020, TCAM021 ,") == {"TCAM020", "TCAM021"}
    assert parse_codes("") == frozenset()


def test_filter_findings_select_and_ignore(tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(
        textwrap.dedent(
            """
            from multiprocessing import get_context

            def leak_both(p, target):
                h = open(p)
                ctx = get_context("spawn")
                proc = ctx.Process(target=target)
                proc.start()
                return h
            """
        ).lstrip(),
        encoding="utf-8",
    )
    findings = check_paths([str(dirty)], AUDIT)
    codes = {f.rule for f in findings}
    assert codes == {"TCAM024"}  # h escapes by return; proc never joined
    assert filter_findings(findings, select="TCAM020") == []
    assert [f.rule for f in filter_findings(findings, ignore="TCAM024")] == []
    assert [f.rule for f in filter_findings(findings, select="TCAM024")] == ["TCAM024"]


def test_json_schema_is_shared_and_stable(tmp_path, capsys):
    """Every family's findings share one stable-sorted JSON schema."""
    dirty = tmp_path / "dirty.py"
    dirty.write_text(
        "import numpy as np\n"
        "x = np.random.rand()\n"
        "def f(p):\n    h = open(p)\n    return h.read()\n",
        encoding="utf-8",
    )
    payloads = []
    for name in ("lint", "audit", "prove"):
        select = ",".join(sorted(family(name)))
        assert main([str(dirty), "--format", "json", "--select", select]) in (0, 1)
        payloads.append(json.loads(capsys.readouterr().out))
    assert [f["rule"] for f in payloads[0]] == ["TCAM001"]
    assert [f["rule"] for f in payloads[1]] == ["TCAM020"]
    assert payloads[2] == []
    for payload in payloads:
        for finding in payload:
            assert sorted(finding) == ["col", "line", "message", "path", "rule"]
    # stable sort: two runs serialize identically
    assert main([str(dirty), "--format", "json"]) == 1
    first = capsys.readouterr().out
    assert main([str(dirty), "--format", "json"]) == 1
    assert capsys.readouterr().out == first


def test_render_json_sorts_by_path_line_rule():
    unsorted = [
        Finding("b.py", 2, 0, "TCAM021", "later"),
        Finding("a.py", 9, 4, "TCAM020", "earlier path"),
        Finding("b.py", 2, 0, "TCAM020", "same line, lower rule"),
    ]
    payload = json.loads(render_json(unsorted))
    assert [(f["path"], f["line"], f["rule"]) for f in payload] == [
        ("a.py", 9, "TCAM020"),
        ("b.py", 2, "TCAM020"),
        ("b.py", 2, "TCAM021"),
    ]


# ---------------------------------------------------------------------------
# Meta-test: the real tree must be audit-clean
# ---------------------------------------------------------------------------


def test_real_tree_is_audit_clean():
    """The gate CI enforces: zero findings across src/repro + benchmarks."""
    src = REPO_ROOT / "src" / "repro"
    bench = REPO_ROOT / "benchmarks" / "perf"
    assert src.is_dir(), f"expected source tree at {src}"
    findings = check_paths([str(src), str(bench)], AUDIT)
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"tcam check found lifecycle violations:\n{rendered}"


# ---------------------------------------------------------------------------
# Cross-check: the static rule predicts a real data-loss mode
# ---------------------------------------------------------------------------

#: Writer that the auditor flags (TCAM021): no fsync, and the faulty_write
#: return value is ignored, so a short write publishes a truncated file.
VIOLATING_WRITER = """
import os

from repro.robustness.faults import faulty_write


def publish(path, payload):
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        faulty_write("fixture.publish", handle, payload)
    os.replace(tmp, path)
"""

#: The blessed protocol: loop until every byte is written, flush, fsync,
#: then rename. The auditor accepts it and the faults cannot corrupt it.
COMPLIANT_WRITER = """
import os

from repro.robustness.faults import faulty_write


def publish(path, payload):
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        written = 0
        while written < len(payload):
            written += faulty_write("fixture.publish", handle, payload[written:])
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
"""

PAYLOAD = b'{"generation": 7, "snapshot": "model-0007.npz"}'


def _load_publisher(source: str):
    """Execute fixture source so the analyzed code is the executed code."""
    namespace: dict[str, object] = {}
    exec(compile(textwrap.dedent(source), "fixture", "exec"), namespace)
    return namespace["publish"]


@pytest.mark.faults
def test_tcam021_violating_writer_is_flagged_and_loses_data(tmp_path):
    # Static side: the auditor flags exactly this writer.
    assert "TCAM021" in rules_of(VIOLATING_WRITER, DURABLE_PATH)

    # Runtime side: under a short write the violating writer publishes a
    # truncated commit record — the data loss the rule predicts.
    publish = _load_publisher(VIOLATING_WRITER)
    target = tmp_path / "generation.json"
    with FaultInjector(seed=3) as chaos:
        chaos.short_write("fixture.publish", keep_fraction=0.5)
        publish(target, PAYLOAD)
        assert chaos.fired == 1
    published = target.read_bytes()
    assert published != PAYLOAD
    assert len(published) < len(PAYLOAD)


@pytest.mark.faults
def test_tcam021_compliant_writer_is_clean_and_survives_faults(tmp_path):
    # Static side: the auditor accepts the blessed protocol.
    assert rules_of(COMPLIANT_WRITER, DURABLE_PATH) == []

    publish = _load_publisher(COMPLIANT_WRITER)
    target = tmp_path / "generation.json"

    # A short write is invisible: the write loop finishes the job.
    with FaultInjector(seed=3) as chaos:
        chaos.short_write("fixture.publish", keep_fraction=0.5)
        publish(target, PAYLOAD)
        assert chaos.fired == 1
    assert target.read_bytes() == PAYLOAD

    # A torn write (crash mid-write) aborts before the rename, so the
    # previously published record survives bit-exactly.
    with FaultInjector(seed=3) as chaos:
        chaos.torn_write("fixture.publish", keep_fraction=0.5)
        with pytest.raises(InjectedFault):
            publish(target, b"corrupted-next-generation")
        assert chaos.fired == 1
    assert target.read_bytes() == PAYLOAD


@pytest.mark.faults
def test_disk_full_never_corrupts_the_published_record(tmp_path):
    """ENOSPC before any byte lands: both writers abort pre-rename."""
    for source in (VIOLATING_WRITER, COMPLIANT_WRITER):
        publish = _load_publisher(source)
        target = tmp_path / "generation.json"
        publish(target, PAYLOAD)  # no faults armed: baseline publish
        with FaultInjector(seed=5) as chaos:
            chaos.disk_full("fixture.publish")
            with pytest.raises(OSError):
                publish(target, b"next")
        assert target.read_bytes() == PAYLOAD


def test_sanity_faulty_write_passthrough(tmp_path):
    """Unarmed faulty_write is exactly handle.write (fixture assumption)."""
    target = tmp_path / "plain.bin"
    with open(target, "wb") as handle:
        assert faulty_write("fixture.publish", handle, b"abc") == 3
    assert target.read_bytes() == b"abc"
