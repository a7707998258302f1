"""``pytest benchmarks/e2e`` — the whole harness at tiny scale.

One ``run.py --smoke --trace 1`` drives all four workloads untraced and
traced (each in its own child, real ``tcam serve`` subprocesses included);
the tests then hold what it emitted against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    output = tmp_path_factory.mktemp("e2e") / "result.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "1", "--seed", "29",
         "--output", str(output)],
        stdout=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-4000:]
    return json.loads(output.read_text())["runs"]


def test_spec_is_within_the_limits() -> None:
    assert len(WORKLOADS) == 4
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [metric["name"] for metric in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    assert all(0 < metric["bound"] <= 0.25 for metric in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= SPEC["end_to_end"][0].items()


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("traced,key", [(False, "end_to_end"), (True, "per_layer")])
def test_emits_exactly_the_declared_metrics(runs, workload, traced, key) -> None:
    (run,) = [run for run in runs[workload] if run["trace"] == traced]
    assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
    declared = {metric["name"]: metric["unit"] for metric in SPEC[key]}
    emitted = {name: metric["unit"] for name, metric in run["metrics"].items()}
    assert emitted == declared
    assert all(math.isfinite(metric["value"]) for metric in run["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_writes_its_spans(runs, workload) -> None:
    trace = json.loads((HERE / "out" / f"trace-{workload}.json").read_text())
    spans = trace["spans"]
    assert spans and all(span["end_ms"] >= span["start_ms"] for span in spans)
    assert all(span["parent"] is None or span["parent"] < span["id"] for span in spans)
    assert {row["name"] for row in trace["table"]} == {span["name"] for span in spans}
