"""E-step throughput microbenchmark → ``BENCH_em.json``.

Measures full EM-iteration throughput (ratings processed per second,
E-step plus the cheap M-step normalisation) of each blocked-engine model
— TTCAM, ITCAM and the UT/TT baselines — at several ``(R, K1, K2)``
scales. The engine runs on one thread; its entries are named
``em/<model>/r<R>-k<K>/blocked-t1``. Earlier ``.../legacy`` and
``.../blocked-tN`` entries in the committed trajectory are the record of
the dense single-pass step the engine replaced and of the threaded E-step
it no longer has.

In ``--smoke`` mode a second variant, ``blocked-t1-sanitize``, runs the
blocked engine with ``TCAM_SANITIZE=1`` set for its fits, and the
harness prints the sanitizer's overhead when on. That the off variant
runs no check at all is pinned by ``tests/core/test_sanitize.py``.

Each configuration appends one entry to the ``BENCH_em.json`` trajectory;
every entry records ``cpu_count`` so trajectories from different
machines are never naively compared.

Run ``python benchmarks/perf/bench_em.py`` (with ``src`` on
``PYTHONPATH``), or ``make bench-perf``.
"""

from __future__ import annotations

import os
import sys
from functools import partial
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))
from perf_common import best_time, make_parser, synthetic_cuboid

from repro.analysis.benchjson import BenchEntry, append_entries, default_context
from repro.baselines import TimeTopicModel, UserTopicModel
from repro.core import ITCAM, TTCAM, EMEngineConfig
from repro.tooling.sanitize import ENV_FLAG

#: (requested ratings, K1, K2) per scale; the last is "the largest bench
#: scale" referenced by the acceptance criteria.
SCALES = [
    (20_000, 8, 8),
    (80_000, 16, 12),
    (200_000, 32, 16),
]
SMOKE_SCALES = [(2_000, 4, 3)]
EM_ITERS = 4
SMOKE_ITERS = 2


def models(k1, k2):
    """Model name → (topic-count label, constructor taking the EM controls)."""
    return {
        "ttcam": (f"k{k1}x{k2}", partial(TTCAM, k1, k2)),
        "itcam": (f"k{k1}", partial(ITCAM, k1)),
        "ut": (f"k{k1}", partial(UserTopicModel, k1)),
        "tt": (f"k{k2}", partial(TimeTopicModel, k2)),
    }


def fit_throughput(build, cuboid, iters, engine, repeats) -> float:
    """Ratings/sec of a full ``fit`` at exactly ``iters`` iterations."""
    model = lambda: build(  # noqa: E731 - rebuilt per run so no state carries over
        max_iter=iters, tol=-1.0, seed=7, engine=engine
    ).fit(cuboid)
    elapsed = best_time(model, repeats)
    return cuboid.nnz * iters / elapsed


def main(argv=None) -> int:
    parser = make_parser(__doc__.splitlines()[0])
    parser.add_argument(
        "--block-size", type=int, default=32_768, help="engine block size"
    )
    args = parser.parse_args(argv)

    scales = SMOKE_SCALES if args.smoke else SCALES
    iters = SMOKE_ITERS if args.smoke else EM_ITERS
    context = default_context()
    context["em_iters"] = iters
    entries = []

    engine = EMEngineConfig(block_size=args.block_size)
    #: Variant -> the environment its fits run under.
    variants = {"blocked-t1": {}}
    if args.smoke:
        variants["blocked-t1-sanitize"] = {ENV_FLAG: "1"}
    for requested, k1, k2 in scales:
        cuboid = synthetic_cuboid(requested, seed=13)
        for model, (label, build) in models(k1, k2).items():
            rates = {}
            for variant, env in variants.items():
                with mock.patch.dict(os.environ, env):
                    rate = fit_throughput(build, cuboid, iters, engine, args.repeats)
                rates[variant] = rate
                name = f"em/{model}/r{cuboid.nnz}-{label}/{variant}"
                entries.append(
                    BenchEntry(
                        name=name,
                        value=round(rate, 1),
                        unit="ratings/sec",
                        params={
                            "ratings": int(cuboid.nnz),
                            "k1": k1,
                            "k2": k2,
                            "block_size": args.block_size,
                            "threads": 1,
                            "variant": variant,
                        },
                        context=context,
                    )
                )
                print(f"{name:55s} {rate/1e6:8.3f} M ratings/sec")
            if "blocked-t1-sanitize" in rates:
                overhead = rates["blocked-t1"] / rates["blocked-t1-sanitize"]
                print(f"  -> sanitizer overhead when ON: {overhead:.2f}x slower")

    path = Path(args.output_dir) / "BENCH_em.json"
    append_entries(path, entries)
    print(f"appended {len(entries)} entries to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
