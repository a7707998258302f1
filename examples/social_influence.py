"""Social influence: the paper's first future-work direction, end to end.

"We would like to explore enhancements to our models by exploiting the
effect of user social network on user rating behaviors" — this example
does that on a synthetic social platform:

1. build a homophilous small-world friendship graph over the users,
2. inject friend-imitation behaviors into the rating log,
3. fit the three-way Social-TTCAM (interest / social / context) and read
   off the learned per-user influence decomposition,
4. show that the social component is only credited when the data
   actually contains imitation.

Run with::

    python examples/social_influence.py
"""

import numpy as np

from repro.data import generate, profile
from repro.extensions import SocialTTCAM, add_social_ratings, build_homophilous_graph


def main() -> None:
    cuboid, truth = generate(profile("delicious", scale=0.3))
    print(f"platform: {cuboid}")

    # 1. A friendship graph where similar-taste users connect.
    graph = build_homophilous_graph(truth.theta, avg_degree=8, homophily=0.8, seed=1)
    degrees = [d for _n, d in graph.degree()]
    print(
        f"social graph: {graph.number_of_nodes()} users, "
        f"{graph.number_of_edges()} edges, mean degree {np.mean(degrees):.1f}"
    )

    # 2. Inject imitation: users re-tag what their friends like.
    social_cuboid = add_social_ratings(cuboid, truth, graph, imitation_rate=0.5, seed=2)
    print(
        f"imitation behaviors injected: {cuboid.nnz} → {social_cuboid.nnz} entries\n"
    )

    # 3. Fit the three-way mixture on both versions of the data.
    def fit(data):
        return SocialTTCAM(
            graph, num_user_topics=9, num_time_topics=10, max_iter=40, seed=0
        ).fit(data)

    asocial_model = fit(cuboid)
    social_model = fit(social_cuboid)

    def describe(name, model):
        influence = model.influence_.mean(axis=0)
        print(
            f"{name:28s} interest {influence[0]:.2f}  "
            f"social {influence[1]:.2f}  context {influence[2]:.2f}"
        )

    print("learned mean influence decomposition:")
    describe("without imitation data", asocial_model)
    describe("with imitation data", social_model)
    gain = social_model.influence_[:, 1].mean() - asocial_model.influence_[:, 1].mean()
    print(
        f"\n→ the model credits the social channel only when imitation exists "
        f"(social weight +{gain:.2f})"
    )

    # 4. Recommendations still serve through the standard query path.
    from repro.recommend import TemporalRecommender

    recommender = TemporalRecommender(social_model)
    result = recommender.recommend(user=5, interval=14, k=5)
    labels = [str(cuboid.item_index.label_of(v)) for v in result.items]
    print(f"\ntop-5 for user 5 (interest + friends + current events): {labels}")


if __name__ == "__main__":
    main()
