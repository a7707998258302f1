"""The merged rule codes still flag every site the twin codes flagged.

``fixtures/pre_merge_sites.json`` was written by commit 2b43b22 — the
last one with the twin codes TCAM005/TCAM013 and the shared-memory rule
TCAM023 — by running this module as a script against that commit's
sources and tests::

    PYTHONPATH=<checkout of 2b43b22>/src:<checkout of 2b43b22> \\
        python tests/tooling/test_pre_merge_sites.py

It holds every source of that commit's fixture corpus
(``test_core.CORPUS`` and the CLI tests' dirty files) with the
``(line, col, rule)`` of each finding under each ``CORPUS_PATHS`` entry.
TCAM005 folded into TCAM030 and TCAM013 into TCAM031. TCAM023 went with
the shared-memory code it guarded, and the pool rules TCAM010/TCAM011
with the thread pools they guarded. So after mapping the twins onto
their survivors (in the findings and in the suppression comments alike,
so a row the merged code's comment silences drops out) and dropping the
deleted codes' rows, this tree must flag the same sites — and each under
one of the codes the site had. A path whose facts moved to another
module (``MOVED``) is checked under that module.
"""

from __future__ import annotations

import json
import sys
import textwrap
from collections import defaultdict
from pathlib import Path

import pytest

from repro.tooling.core import _SUPPRESS_RE, check_source

FIXTURE = Path(__file__).parent / "fixtures" / "pre_merge_sites.json"

#: Twin code -> the code it folded into.
MERGED = {"TCAM005": "TCAM030", "TCAM013": "TCAM031"}

#: Codes deleted with their subject: their rows drop out.
DELETED = frozenset({"TCAM010", "TCAM011", "TCAM023"})

#: Recorded path -> the module that carries its tree-table facts now: the
#: ``durable``/``dir_fsync`` row moved from the paramstore, which no longer
#: writes anything, to the archive writer.
MOVED = {"src/repro/recommend/paramstore.py": "src/repro/robustness/archive.py"}

#: The dirty files the CLI tests write, which the corpus does not hold.
DIRTY = (
    "import numpy as np\nx = np.random.rand(3)\n",
    "import numpy as np\nx = np.random.rand()\n",
    "def f(p):\n    h = open(p)\n    return h.read()\n",
    "VALUE = {1, 2}\nTOTAL = sum(x for x in set(range(3)))\n",
    "import numpy as np\nx = np.random.rand(3)\nfor v in {1, 2}:\n    print(v)\n",
    "from concurrent.futures import as_completed\n\n"
    "def gather(pending):\n    return [f.result() for f in as_completed(pending)]\n",
)


def _write() -> None:  # pragma: no cover - run against the parent commit
    from tests.tooling import test_core, test_registry

    sources = sorted(
        {textwrap.dedent(source) for source in test_core.CORPUS}
        | {textwrap.dedent(source) for source in test_core._fixture_sources(test_registry)}
        | set(DIRTY)
    )
    cases = [
        {
            "source": source,
            "sites": {
                path: [[f.line, f.col, f.rule] for f in check_source(source, path)]
                for path in test_core.CORPUS_PATHS
            },
        }
        for source in sources
    ]
    FIXTURE.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(case, sort_keys=True) for case in cases)
    FIXTURE.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"wrote {len(cases)} sources to {FIXTURE}", file=sys.stderr)


CASES = json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else []


def _merged(source: str) -> str:
    """The source with its suppression comments naming the survivors."""
    for twin, survivor in MERGED.items():
        source = source.replace(twin, survivor)
    return source


def _expected(source: str, rows: list[list]) -> dict[tuple[int, int], set[str]]:
    """Site -> the codes the parent flagged it with, mapped, unsilenced, deleted codes dropped."""
    silenced = {
        line: match.group(1)
        for line, text in enumerate(source.splitlines(), start=1)
        if (match := _SUPPRESS_RE.search(text))
    }
    sites: dict[tuple[int, int], set[str]] = defaultdict(set)
    for line, col, rule in rows:
        rule = MERGED.get(rule, rule)
        if rule not in DELETED and rule not in silenced.get(line, ""):
            sites[line, col].add(rule)
    return sites


def test_fixture_covers_every_merged_and_dropped_code():
    fired = {rule for case in CASES for rows in case["sites"].values() for _, _, rule in rows}
    assert {"TCAM005", "TCAM013", "TCAM030", "TCAM031"} | DELETED <= fired
    assert len(CASES) >= 150


@pytest.mark.parametrize("index", range(len(CASES)))
def test_merge_lost_no_site(index):
    source = _merged(CASES[index]["source"])
    for path, rows in CASES[index]["sites"].items():
        expected = _expected(source, rows)
        found: dict[tuple[int, int], set[str]] = defaultdict(set)
        for finding in check_source(source, MOVED.get(path, path)):
            found[finding.line, finding.col].add(finding.rule)
        assert found.keys() == expected.keys(), path
        for site, rules in found.items():
            assert rules <= expected[site], (path, site)


if __name__ == "__main__":  # pragma: no cover
    _write()
