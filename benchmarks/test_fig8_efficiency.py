"""Figure 8 — online recommendation latency: TCAM-TA vs TCAM-BF vs BPTF.

The paper measures average time to produce top-k recommendations
(k = 1..20) on Douban Movie (69,908 items) and MovieLens (10,681 items):
TCAM-TA ≪ TCAM-BF < BPTF, all methods slower on the larger catalogue.

Two parts:

**Part A — engine scaling at paper-scale catalogues.** The retrieval
engines are exercised on topic–item matrices with the paper's topic
counts (K1=60, K2=40) and the paper's actual catalogue sizes (Douban
69,908 items, MovieLens 10,681), with query vectors whose sparsity
matches fitted TCAM queries (a user has a handful of active topics).
The TCAM-TA engine is the block-vectorised Threshold Algorithm (exact,
same access pattern). Assertions: TA beats the brute-force scan on both
catalogues, TA touches only a small fraction of the catalogue, and the
full-scan engines slow down with catalogue size.

**Part B — fitted models at profile scale.** Real fitted TTCAM models
answer real queries; the implementation-independent efficiency measure
(items fully scored by TA vs the catalogue size) is reported and
asserted.

Reproduction note (EXPERIMENTS.md): the paper's BPTF-is-slowest-online
ordering is implementation-bound — its Java scorer evaluates a 3-way
product per item, while our numpy BPTF scan is one (V×d) GEMV that can
be faster than the (V×K) TCAM scan when d < K. We therefore report BPTF
latency without asserting its position.
"""

import time

import numpy as np

from repro.core import TTCAM
from repro.recommend import TemporalRecommender, batched_ta_topk, bruteforce_topk
from repro.recommend.ranking import QuerySpace, rank_order
from repro.recommend.threshold import SortedTopicLists

from conftest import save_table

K_GRID = (1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20)
K1, K2, BPTF_DIM = 60, 40, 32
NUM_QUERIES = 25


def paper_scale_parameters(num_items, rng):
    """Fitted-like TCAM parameters and BPTF factors at paper topic counts.

    Topic sparsity and query sparsity are matched to what EM produces on
    the profile datasets: topics concentrate on a small item subset and a
    user's interest touches a handful of topics.
    """
    matrix = rng.dirichlet(np.full(num_items, 0.03), size=K1 + K2)
    item_factors = rng.normal(0, 0.3, (num_items, BPTF_DIM))
    return matrix, item_factors


def sample_query_weights(rng):
    """Sparse expanded query vector ϑ_q = ⟨λ·θ_u, (1−λ)·θ′_t⟩."""
    lam = rng.beta(4, 3)
    theta_u = rng.dirichlet(np.full(K1, 0.02))
    theta_t = rng.dirichlet(np.full(K2, 0.05))
    return np.concatenate([lam * theta_u, (1 - lam) * theta_t])


def measure_engines(num_items, rng):
    matrix, item_factors = paper_scale_parameters(num_items, rng)
    lists = SortedTopicLists.build(matrix)
    queries = [sample_query_weights(rng) for _ in range(NUM_QUERIES)]
    bptf_contexts = rng.normal(0, 0.3, (NUM_QUERIES, BPTF_DIM))

    rows = {}
    scanned = []
    for k in K_GRID:
        start = time.perf_counter()
        for weights in queries:
            result = batched_ta_topk(QuerySpace(weights, matrix), lists, k)
            if k == 10:
                scanned.append(result.items_scored)
        ta_ms = (time.perf_counter() - start) * 1000 / NUM_QUERIES

        start = time.perf_counter()
        for weights in queries:
            bruteforce_topk(QuerySpace(weights, matrix), k)
        bf_ms = (time.perf_counter() - start) * 1000 / NUM_QUERIES

        start = time.perf_counter()
        for context in bptf_contexts:
            rank_order(item_factors @ context, k)
        bptf_ms = (time.perf_counter() - start) * 1000 / NUM_QUERIES

        rows[k] = {"ta": ta_ms, "bf": bf_ms, "bptf": bptf_ms}
    return rows, float(np.mean(scanned))


def test_fig8_online_recommendation_efficiency(benchmark, douban_data, movielens_data):
    rng = np.random.default_rng(3)
    catalogues = {"Douban Movie": 69_908, "MovieLens": 10_681}

    lines = [
        f"Figure 8: online top-k, paper-scale engines (K1={K1}, K2={K2}); "
        "latencies in fig8_efficiency_timing.txt"
    ]
    timing = ["Figure 8: online top-k latency (ms/query), paper-scale engines "
              f"(K1={K1}, K2={K2})"]
    part_a = {}
    for name, num_items in catalogues.items():
        rows, mean_scanned = measure_engines(num_items, rng)
        part_a[name] = (rows, mean_scanned, num_items)
        lines.append(f"\n--- {name} ({num_items} items) ---")
        timing.append(f"\n--- {name} ({num_items} items) ---")
        timing.append(f"{'k':>4s}{'TCAM-TA':>10s}{'TCAM-BF':>10s}{'BPTF':>10s}")
        for k in K_GRID:
            t = rows[k]
            timing.append(f"{k:4d}{t['ta']:10.3f}{t['bf']:10.3f}{t['bptf']:10.3f}")
        lines.append(f"TA items scored at k=10: {mean_scanned:.0f} of {num_items}")

    # Part B: fitted models at profile scale — access-count accounting.
    lines.append("\n--- fitted models (profile scale): TA access fraction ---")
    part_b = {}
    for name, (cuboid, _truth) in (
        ("Douban Movie", douban_data),
        ("MovieLens", movielens_data),
    ):
        model = TTCAM(10, 10, max_iter=40, seed=0).fit(cuboid)
        recommender = TemporalRecommender(model)
        users = rng.integers(0, cuboid.num_users, 100)
        intervals = rng.integers(0, cuboid.num_intervals, 100)
        fractions = []
        for u, t in zip(users, intervals):
            # Item-at-a-time TA: the implementation-independent accounting.
            result = recommender.recommend(int(u), int(t), k=10, method="ta")
            fractions.append(result.items_scored / cuboid.num_items)
        part_b[name] = float(np.mean(fractions))
        lines.append(
            f"{name}: TA fully scores {part_b[name]:.1%} of {cuboid.num_items} items"
        )
    save_table("fig8_efficiency", "\n".join(lines))
    save_table("fig8_efficiency_timing", "\n".join(timing))

    # Paper-shape assertions.
    douban_rows, douban_scanned, douban_items = part_a["Douban Movie"]
    ml_rows, _, _ = part_a["MovieLens"]
    ta_mean = np.mean([douban_rows[k]["ta"] for k in K_GRID])
    bf_mean = np.mean([douban_rows[k]["bf"] for k in K_GRID])
    assert ta_mean < bf_mean, "TA must beat the brute-force scan at 70k items"
    assert douban_scanned < 0.25 * douban_items
    # Latency (weakly) increases with k for TA; generous tolerance since
    # block-granular latency is noisy at sub-millisecond scale.
    assert douban_rows[20]["ta"] >= douban_rows[1]["ta"] * 0.5
    # Full-scan engines cost more on the larger catalogue.
    assert bf_mean > np.mean([ml_rows[k]["bf"] for k in K_GRID])
    # Fitted models: TA touches only part of the catalogue.
    for fraction in part_b.values():
        assert fraction < 0.6

    # pytest-benchmark unit: one paper-scale TA top-10 query.
    matrix, _ = paper_scale_parameters(69_908, np.random.default_rng(5))
    lists = SortedTopicLists.build(matrix)
    weights = sample_query_weights(np.random.default_rng(6))
    benchmark(lambda: batched_ta_topk(QuerySpace(weights, matrix), lists, 10))
