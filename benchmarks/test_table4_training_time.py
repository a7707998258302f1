"""Table 4 — offline model training time: BPRMF vs TCAM vs BPTF.

The paper reports training minutes on Douban Movie and MovieLens:
BPRMF fastest, TCAM a small multiple of BPRMF, BPTF an order of
magnitude slower. Absolute times depend on implementation language and
hardware (the paper used Java on a 32 GB server); the shape we assert is
the paper's headline — **BPTF is by far the slowest and TCAM stays
within a small multiple of BPRMF** — using epoch/iteration budgets
proportional to the paper's settings.

The timed unit is the TCAM (TTCAM) fit on the Douban-profile dataset.
"""

import time

from repro.baselines import BPRMF, BPTF
from repro.core import TTCAM

from conftest import save_table


def fit_timings(cuboid):
    models = {
        "BPRMF": BPRMF(num_factors=32, num_epochs=30, seed=0),
        "TCAM": TTCAM(10, 10, max_iter=60, tol=0.0, seed=0),
        "BPTF": BPTF(num_factors=32, num_epochs=60, negative_ratio=3, seed=0),
    }
    timings = {}
    for name, model in models.items():
        start = time.perf_counter()
        model.fit(cuboid)
        timings[name] = time.perf_counter() - start
    return timings


def test_table4_training_time(benchmark, douban_data, movielens_data):
    datasets = {
        "Douban Movie": douban_data[0],
        "MovieLens": movielens_data[0],
    }

    lines = [
        "Table 4: offline training datasets (times in table4_training_time_timing.txt)",
        f"{'dataset':16s}{'ratings':>10s}",
        *(f"{name:16s}{cuboid.nnz:10d}" for name, cuboid in datasets.items()),
    ]
    timing = ["Table 4: offline training time (seconds)"]
    timing.append(f"{'dataset':16s}{'BPRMF':>10s}{'TCAM':>10s}{'BPTF':>10s}")
    results = {}
    for name, cuboid in datasets.items():
        timings = fit_timings(cuboid)
        results[name] = timings
        timing.append(
            f"{name:16s}{timings['BPRMF']:10.2f}{timings['TCAM']:10.2f}"
            f"{timings['BPTF']:10.2f}"
        )
    save_table("table4_training_time", "\n".join(lines))
    save_table("table4_training_time_timing", "\n".join(timing))

    for name, timings in results.items():
        # The paper's headline ordering: BPTF is by far the slowest.
        assert timings["BPTF"] > timings["TCAM"], name
        assert timings["BPTF"] > timings["BPRMF"], name
        # TCAM stays within a small multiple of BPRMF (paper: ~1.3–1.5×).
        assert timings["TCAM"] < timings["BPRMF"] * 10, name

    benchmark.pedantic(
        lambda: TTCAM(10, 10, max_iter=60, tol=0.0, seed=0).fit(datasets["Douban Movie"]),
        rounds=1,
        iterations=1,
    )
