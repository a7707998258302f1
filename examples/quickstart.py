"""Quickstart: fit TCAM on timestamped ratings and serve temporal top-k.

Runs in a few seconds::

    python examples/quickstart.py

Walks the full pipeline: generate a news-like timestamped rating
dataset, split it, fit the topic-based TCAM model by EM, answer a
temporal query with the Threshold-Algorithm engine, and score the
result against the held-out data.
"""

from repro import TTCAM, TemporalRecommender
from repro.data import generate, holdout_split, profile
from repro.evaluation import build_queries, evaluate_ranking


def main() -> None:
    # 1. Data: a Digg-like news platform (synthetic substitute with the
    #    paper's causal structure: stable interests + bursty events).
    config = profile("digg", scale=0.3)
    cuboid, truth = generate(config)
    print(f"dataset: {cuboid}")

    # 2. The paper's protocol: hold out 20% of each user's per-interval
    #    ratings.
    split = holdout_split(cuboid, seed=0)
    print(f"train entries: {split.train.nnz}, test entries: {split.test.nnz}")

    # 3. Fit TTCAM: user-oriented topics + time-oriented topics + per-user
    #    mixing weights, by EM.
    model = TTCAM(num_user_topics=8, num_time_topics=10, max_iter=50, seed=0)
    model.fit(split.train)
    trace = model.trace_
    print(
        f"EM: {trace.iterations} iterations, "
        f"log-likelihood {trace.log_likelihood[0]:.0f} → "
        f"{trace.final_log_likelihood:.0f}"
    )
    lam = model.params_.lambda_u
    print(
        f"learned mixing weights: mean λ = {lam.mean():.2f} "
        f"(news platform → public attention dominates)"
    )

    # 4. Temporal top-k (Section 4): served by the batch scorer, which
    #    returns exactly the Threshold Algorithm's items and scores.
    recommender = TemporalRecommender(model)
    user, interval = 3, 12
    result = recommender.recommend(user, interval, k=5)
    print(f"\ntop-5 for user {user} at interval {interval}:")
    for rec in result.recommendations:
        label = cuboid.item_index.label_of(rec.item)
        print(f"  {label:28s} score {rec.score:.4f}")
    print(
        f"(exactly rescored {result.items_scored} of {cuboid.num_items} items)"
    )

    # 5. Evaluate on the held-out temporal queries.
    queries = build_queries(split, max_queries=200, seed=0)
    report = evaluate_ranking(model, queries, ks=(1, 5, 10))
    print(f"\nheld-out accuracy over {report.num_queries} temporal queries:")
    for k in report.ks:
        print(
            f"  @{k:<2d}  precision {report.at('precision', k):.3f}  "
            f"ndcg {report.at('ndcg', k):.3f}  f1 {report.at('f1', k):.3f}"
        )


if __name__ == "__main__":
    main()
