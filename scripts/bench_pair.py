"""Paired parent/change runs of one ``benchmarks/e2e`` workload.

    python3 scripts/bench_pair.py --ref HEAD~1 --workload pipeline --pairs 10

Unpacks ``--ref`` (``git archive``) into a temporary directory and runs
each tree's *own* ``benchmarks/e2e/run.py --workload W --seed S --seconds
20 --trace 0`` in pairs: both sides of a pair share a seed (11, 29, 12,
30, … — two pairs each), and which side goes first alternates. Prints,
per end-to-end metric of ``BENCHMARK.json``, each side's median and
quartiles and the pair wins — the table the choosing-metrics rule reads:
a gain needs the change to win at least nine tenths of the pairs *and*
the medians to differ by more than the parent's inter-quartile distance;
a regression is a median worse than the parent's by more than the bound;
a metric is unresolved when either side's quartile spread exceeds the
bound taken as a share of the *parent's* median — the driver's reading,
with no exception for a change whose every run beats the parent's, so a
rate that rises g-fold passes only while its relative spread stays under
bound / g; under each higher-is-better metric the table therefore also
prints the change side's quartile spread as a share of that limit. Run
nothing else on the host meanwhile.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED_FAMILIES = (11, 29)
SECONDS = 20  # the run length the benchmark fixes; the same on both sides


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One untraced run in ``tree``; the JSON object on its last stdout line."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def report(spec: dict, runs: dict[str, list[dict]]) -> None:
    """The per-metric table and the failure counts of both sides."""
    pairs = len(runs["parent"])
    print(f"\n{'metric':18s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} "
          f"{'wins':>6s} {'ties':>5s}  verdict")
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        parent, change = (
            [run["metrics"][name]["value"] for run in runs[side]] for side in ("parent", "change")
        )
        sign = 1 if lower else -1
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        ties = sum(p == c for p, c in zip(parent, change))
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        better_by = sign * (pm - cm)
        limit = metric["bound"] * abs(pm)
        if max(p3 - p1, c3 - c1) > limit:
            verdict = f"unresolved (a side's q3-q1 > {limit:.4g}, {metric['bound']:.2f} of parent median)"
        elif wins >= 0.9 * pairs and better_by > p3 - p1:
            verdict = "gain"
        elif -better_by > limit:
            verdict = f"REGRESSED (bound {metric['bound']:.2f})"
        else:
            verdict = "holds"
        print(f"{name:18s} {pm:12.4g} [{p1:9.4g},{p3:9.4g}] {cm:12.4g} [{c1:9.4g},{c3:9.4g}] "
              f"{wins:3d}/{pairs:<2d} {ties:5d}  {verdict} ({metric['unit']})")
        if not lower and limit > 0:
            # A rate that rises g-fold carries its spread up g-fold with it:
            # how much of the limit the change side has used, before the
            # driver reads the same number as `unresolved`.
            print(f"{'':18s} change q3-q1 = {c3 - c1:.4g}, {(c3 - c1) / limit:.0%} of the "
                  f"{limit:.4g} limit ({metric['bound']:.2f} x parent median)")
    for side in ("parent", "change"):
        failed = sum(run["failed"] for run in runs[side])
        attempted = sum(run["attempted"] for run in runs[side])
        wrong = sum(not run["correct"] for run in runs[side])
        print(f"{side}: failed {failed} of {attempted} attempted; {wrong} run(s) not correct")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", required=True, help="the parent commit-ish")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="tcam-bench-pair-") as scratch:
        archive = Path(scratch) / "ref.tar"
        subprocess.run(
            ["git", "archive", "--output", str(archive), args.ref], cwd=ROOT, check=True
        )
        parent = Path(scratch) / "parent"
        with tarfile.open(archive) as tar:
            tar.extractall(parent)
        trees = {"parent": parent, "change": ROOT}
        for pair in range(args.pairs):
            seed = SEED_FAMILIES[pair // 2 % 2] + pair // 4
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(trees[side], args.workload, seed)
                runs[side].append(run)
                values = "  ".join(
                    f"{name}={entry['value']:.4g}" for name, entry in run["metrics"].items()
                )
                print(f"pair {pair} seed {seed} {side:6s} failed={run['failed']}  {values}",
                      flush=True)
    report(spec, runs)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
