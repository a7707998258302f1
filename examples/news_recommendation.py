"""News recommendation: a time-sensitive platform end to end.

Scenario from the paper's introduction: on a social news aggregator,
"it is most likely that users will be attracted by breaking news" — the
temporal context dominates user choices. This example:

1. builds a Digg-like platform substitute,
2. compares interest-only (UT), context-only (TT) and full TCAM models,
3. inspects the learned influence weights (most users context-driven),
4. shows the Threshold-Algorithm engine answering queries while fully
   scoring only a fraction of the catalogue.

Run with::

    python examples/news_recommendation.py
"""

import numpy as np

from repro import ITCAM, TTCAM, TemporalRecommender, UserTopicModel, TimeTopicModel
from repro.analysis.influence import fraction_above, summarize_influence
from repro.data import generate, holdout_split, profile
from repro.evaluation import build_queries, evaluate_ranking


def main() -> None:
    cuboid, truth = generate(profile("digg", scale=0.4))
    split = holdout_split(cuboid, seed=0)
    queries = build_queries(split, max_queries=250, seed=0)
    print(f"news platform: {cuboid}\n")

    # --- model comparison ------------------------------------------------
    models = {
        "UT (interest only)": UserTopicModel(num_topics=8, max_iter=50, seed=0),
        "TT (context only)": TimeTopicModel(num_topics=10, max_iter=50, seed=0),
        "ITCAM": ITCAM(num_user_topics=8, max_iter=50, seed=0),
        "TTCAM": TTCAM(8, 10, max_iter=50, seed=0),
    }
    print("held-out temporal accuracy (NDCG@5 / precision@5):")
    fitted = {}
    for name, model in models.items():
        model.fit(split.train)
        fitted[name] = model
        report = evaluate_ranking(model, queries, ks=(5,))
        print(
            f"  {name:22s} {report.at('ndcg', 5):.3f} / "
            f"{report.at('precision', 5):.3f}"
        )
    print(
        "\n→ context-aware models win on news: temporal context, not taste,"
        "\n  drives what people read (the paper's Figure 6 story)."
    )

    # --- influence analysis ----------------------------------------------
    lam = fitted["TTCAM"].params_.lambda_u
    summary = summarize_influence(lam)
    print(f"\nlearned influence weights: {summary}")
    print(
        f"users whose temporal-context influence exceeds 0.5: "
        f"{fraction_above(1 - lam, 0.5):.0%} (paper's Figure 11: >70%)"
    )

    # --- efficient serving -----------------------------------------------
    # Queries are served by the batch scorer; method="ta" asks for the
    # paper's Threshold-Algorithm engine, whose access counts we print.
    recommender = TemporalRecommender(fitted["TTCAM"])
    rng = np.random.default_rng(1)
    scored = []
    for _ in range(50):
        u = int(rng.integers(cuboid.num_users))
        t = int(rng.integers(cuboid.num_intervals))
        scored.append(recommender.recommend(u, t, k=10, method="ta").items_scored)
    print(
        f"\nThreshold-Algorithm serving: fully scored "
        f"{np.mean(scored):.0f} of {cuboid.num_items} stories per query "
        f"({np.mean(scored) / cuboid.num_items:.0%} of the catalogue)"
    )

    # One concrete recommendation at a burst.
    event = truth.config.events[0]
    result = recommender.recommend(0, event.peak, k=5)
    print(f"\ntop-5 for user 0 during the '{event.name}' burst:")
    for rec in result.recommendations:
        print(f"  {cuboid.item_index.label_of(rec.item)}")


if __name__ == "__main__":
    main()
