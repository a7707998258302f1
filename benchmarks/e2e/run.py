"""End-to-end benchmark of the TCAM reproduction: one command, four workloads.

    python3 benchmarks/e2e/run.py                       # every workload, fresh child each
    python3 benchmarks/e2e/run.py --trace 1             # ... and a traced run of each
    python3 benchmarks/e2e/run.py --repeat 10           # ten seeds each, prints the spreads
    python3 benchmarks/e2e/run.py --smoke --trace 1     # tiny sizes, seconds in total
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --workload fit --seed 11 --seconds 20 --trace 0

The last form is what a driver calls: it runs one workload in this process
and prints, as the last line of standard output, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — the ``end_to_end``
metrics of ``BENCHMARK.json`` with ``--trace 0``, the ``per_layer`` metrics
with ``--trace 1``. See ``README.md`` beside this file for what is measured
and why.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread everywhere (this process, its children and the service
# inherit it): the numbers should measure the program on a 2-core host,
# not BLAS oversubscription. Must happen before numpy is first imported.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
sys.path[:0] = [str(HERE), str(ROOT / "src")]

DEFAULT_SEED = 11
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------


def _end_to_end(result, setup_s: float) -> dict[str, tuple[float, str]]:
    from loops import quiet

    from repro.analysis.benchjson import peak_rss_bytes

    if "rss_mb" in result.detail:
        rss_mb = sum(result.detail["rss_mb"].values())
    else:
        rss_mb = (peak_rss_bytes() or 0) / 2**20
    return {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (result.throughput, "1/s"),
        "latency_p50_ms": (result.latency_ms(statistics.median), "ms"),
        "latency_mean_ms": (result.latency_ms(statistics.fmean), "ms"),
        "freshness_ms": (quiet(result.freshness_ms), "ms"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    from inputs import FULL, SMOKE, WORKLOADS
    from layers import layer_metrics, probe_layers
    from loops import LOOPS, PREPARE, RATE_UNIT, Env
    from spans import OFF, Recorder, format_table

    sizes = (SMOKE if smoke else FULL)[workload]
    workdir = OUT / f"work-{os.getpid()}"
    env = None
    try:
        if not trace:
            setups = []
            for repeat in range(1 if smoke else SETUP_REPEATS):
                if env is not None:
                    env.close()
                env = Env(sizes, seed, workdir / f"env-{repeat}")
                start = time.perf_counter()
                PREPARE[workload](env)
                setups.append(time.perf_counter() - start)
            result = LOOPS[workload](env, seconds, OFF)
            metrics = _end_to_end(result, statistics.median(setups))
            ran = [result]
            print(f"[{workload}] throughput_per_s counts {RATE_UNIT[workload]}; "
                  f"{len(result.latencies_ms)} latency samples in "
                  f"{len(result.latency_slices)} slices, "
                  f"{len(result.freshness_ms)} freshness samples")
        else:
            env = Env(sizes, seed, workdir / "env")
            PREPARE[workload](env)
            untraced = LOOPS[workload](env, seconds / 4, OFF)
            recorder = Recorder()
            results = {}
            for name in WORKLOADS:
                share = seconds / 4 if name == workload else seconds / 10
                results[name] = LOOPS[name](env, share, recorder)
            overhead = 1.0 - results[workload].throughput / untraced.throughput
            probes = probe_layers(env, results, recorder)
            metrics = layer_metrics(env, results, probes, overhead)
            ran = [untraced, *results.values()]
            recorder.write(OUT / f"trace-{workload}.json")
            print(f"[{workload}] per-layer time, self time = span minus its child spans")
            print(format_table(recorder.table()))
    finally:
        if env is not None:
            env.close()
        shutil.rmtree(workdir, ignore_errors=True)
    problems = [problem for result in ran for problem in result.problems]
    for problem in problems:
        print(f"[{workload}] CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"[{workload}] {name:44s} {value:16.4f} {unit}")
    failed = sum(result.failed for result in ran)
    return {
        "correct": failed == 0,
        "attempted": sum(result.attempted for result in ran),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


# ----------------------------------------------------------------------
# every workload, each in a fresh child
# ----------------------------------------------------------------------


def _context() -> dict:
    from repro.analysis.benchjson import default_context

    context = default_context()
    context["nproc"] = os.cpu_count()
    context["blas_threads"] = {var: os.environ[var] for var in BLAS_ENV}
    return context


def _child(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    if not lines:
        raise RuntimeError(f"{workload}: no result (exit {done.returncode})")
    result = json.loads(lines[-1])
    result.update(seed=seed, trace=trace, exit=done.returncode)
    return result


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(statistics.median(values))


def run_all(args: argparse.Namespace) -> int:
    from inputs import WORKLOADS

    spec = load_spec()
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {workload: [] for workload in WORKLOADS}
    for workload in WORKLOADS:
        for repeat in range(args.repeat):
            runs[workload].append(_child(workload, args.seed + repeat, args.seconds, False, args.smoke))
        if args.trace:
            runs[workload].append(_child(workload, args.seed, args.seconds, True, args.smoke))
    ok = all(run["correct"] and run["exit"] == 0 for group in runs.values() for run in group)
    if args.repeat > 1:
        print(f"\nspread over {args.repeat} seeds: (Q3 - Q1) / median, against the bound")
        for workload in WORKLOADS:
            untraced = [run for run in runs[workload] if not run["trace"]]
            for name, bound in bounds.items():
                values = [run["metrics"][name]["value"] for run in untraced]
                spread = quartile_spread(values)
                flag = "" if spread <= bound / 3 else "  > bound/3" if spread <= bound else "  > BOUND"
                print(f"{workload:15s} {name:20s} median {statistics.median(values):14.4f} "
                      f"spread {spread:7.4f} bound {bound:5.2f}{flag}")
    OUT.mkdir(exist_ok=True)
    tag = "smoke" if args.smoke else f"seed{args.seed}"
    path = Path(args.output) if args.output else OUT / f"result-{tag}.json"
    path.write_text(json.dumps({"context": _context(), "seconds": args.seconds, "runs": runs}, indent=1))
    print(f"\nwrote {path}; " + ("every check passed" if ok else "SOME CHECKS FAILED"))
    return 0 if ok else 1


# ----------------------------------------------------------------------
# compare two result files
# ----------------------------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    """Verdict per end-to-end metric and workload, B against A.

    ``regressed``: B's median is worse than A's by more than the metric's
    bound. ``unresolved``: either side's quartile spread is wider than the
    bound, so the medians cannot be told apart — unless every run of B
    reads better than every run of A, which is ``ok``.
    """
    spec = load_spec()
    files = [json.loads(Path(path).read_text())["runs"] for path in (path_a, path_b)]
    regressed = 0
    print(f"{'workload':15s} {'metric':20s} {'A median':>14s} {'B median':>14s} "
          f"{'worse by':>9s} {'bound':>6s} {'spread A':>9s} {'spread B':>9s}  verdict")
    for workload in files[0]:
        for metric in spec["end_to_end"]:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            a, b = (
                [run["metrics"][name]["value"] for run in runs.get(workload, []) if not run["trace"]]
                for runs in files
            )
            if not a or not b:
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / abs(med_a) * (1 if lower else -1)
            spreads = quartile_spread(a), quartile_spread(b)
            all_better = max(b) < min(a) if lower else min(b) > max(a)
            if max(spreads) > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
                regressed += 1
            else:
                verdict = "ok"
            print(f"{workload:15s} {name:20s} {med_a:14.4f} {med_b:14.4f} {worse:+9.3f} "
                  f"{bound:6.2f} {spreads[0]:9.3f} {spreads[1]:9.3f}  {verdict}")
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measured seconds per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, no bounds")
    parser.add_argument("--repeat", type=int, default=1, help="seeds per workload (seed, seed+1, ...)")
    parser.add_argument("--output", help="result file (default: out/result-<seed>.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    # A driver that gives up on a run sends SIGTERM: leave through the
    # ``finally`` blocks, so ``tcam serve`` is drained and the work
    # directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(load_spec()["run_seconds"])
    if args.workload is None:
        return run_all(args)
    from inputs import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
