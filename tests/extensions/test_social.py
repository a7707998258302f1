"""Tests for the social-influence extension."""

import numpy as np
import pytest

from repro.core.ttcam import TTCAM
from repro.extensions.social import (
    SocialTTCAM,
    add_social_ratings,
    adjacency_lists,
    build_homophilous_graph,
    social_adjacency,
    social_interest,
)
import tests.conftest as c


@pytest.fixture(scope="module")
def social_world():
    cuboid, truth = c.generate(c.tiny_config(num_users=150, seed=31))
    graph = build_homophilous_graph(truth.theta, avg_degree=6, homophily=0.8, seed=1)
    augmented = add_social_ratings(cuboid, truth, graph, imitation_rate=0.5, seed=2)
    return cuboid, truth, graph, augmented


class TestGraph:
    def test_covers_all_users(self, social_world):
        _, truth, graph, _ = social_world
        assert graph.number_of_nodes() == truth.theta.shape[0]

    def test_degree_near_target(self, social_world):
        _, _, graph, _ = social_world
        degrees = [d for _n, d in graph.degree()]
        assert 3 <= np.mean(degrees) <= 10

    def test_homophily_makes_friends_similar(self, social_world):
        """Connected users' interests are more similar than random pairs."""
        _, truth, graph, _ = social_world
        theta = truth.theta
        norm = theta / (np.linalg.norm(theta, axis=1, keepdims=True) + 1e-12)
        sims = norm @ norm.T
        edge_sims = [sims[a, b] for a, b in graph.edges()]
        rng = np.random.default_rng(0)
        random_pairs = rng.integers(0, theta.shape[0], size=(2000, 2))
        random_sims = [sims[a, b] for a, b in random_pairs if a != b]
        assert np.mean(edge_sims) > np.mean(random_sims) + 0.05

    def test_validation(self, social_world):
        _, truth, _, _ = social_world
        with pytest.raises(ValueError):
            build_homophilous_graph(truth.theta, homophily=1.5)
        with pytest.raises(ValueError):
            build_homophilous_graph(truth.theta, avg_degree=1)

    def test_adjacency_lists_handle_missing_nodes(self):
        import networkx as nx

        graph = nx.Graph()
        graph.add_edge(0, 1)
        lists = adjacency_lists(graph, 3)
        assert lists[0].tolist() == [1]
        assert lists[2].size == 0


class TestSocialInterest:
    def test_average_of_friends(self):
        import networkx as nx

        theta = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.2, 0.8]])
        graph = nx.Graph([(0, 1), (0, 2)])  # user 3 is not in the graph
        social = social_interest(theta, social_adjacency(graph, 4))
        np.testing.assert_allclose(social[0], [0.25, 0.75])
        np.testing.assert_allclose(social[1], [1.0, 0.0])
        # Isolated user falls back to own interest.
        np.testing.assert_allclose(social[3], theta[3])

    def test_adjacency_rows_average_friends_or_self(self):
        import networkx as nx

        graph = nx.Graph([(0, 1), (0, 2)])
        graph.add_node(3)
        dense = social_adjacency(graph, 5).toarray()
        np.testing.assert_allclose(dense.sum(axis=1), 1.0)
        np.testing.assert_allclose(dense[0], [0, 0.5, 0.5, 0, 0])
        np.testing.assert_allclose(dense[[3, 4], [3, 4]], 1.0)  # isolated, and absent

    def test_matches_a_per_user_loop(self, social_world):
        _, truth, graph, _ = social_world
        n = truth.theta.shape[0]
        expected = [
            truth.theta[friends].mean(axis=0) if friends.size else truth.theta[u]
            for u, friends in enumerate(adjacency_lists(graph, n))
        ]
        np.testing.assert_allclose(
            social_interest(truth.theta, social_adjacency(graph, n)), expected, atol=1e-15
        )


class TestAddSocialRatings:
    def test_grows_dataset(self, social_world):
        cuboid, _, _, augmented = social_world
        assert augmented.nnz > cuboid.nnz
        assert augmented.shape == cuboid.shape

    def test_zero_rate_is_identity(self, social_world):
        cuboid, truth, graph, _ = social_world
        same = add_social_ratings(cuboid, truth, graph, imitation_rate=0.0)
        assert same is cuboid

    def test_negative_rate_rejected(self, social_world):
        cuboid, truth, graph, _ = social_world
        with pytest.raises(ValueError):
            add_social_ratings(cuboid, truth, graph, imitation_rate=-1.0)

    def test_graph_over_unknown_users_rejected(self, social_world):
        # Used to raise an IndexError from deep inside the averaging.
        import networkx as nx

        cuboid, truth, _, _ = social_world
        graph = nx.path_graph(cuboid.num_users + 5)
        with pytest.raises(ValueError, match=f"graph node {cuboid.num_users} "):
            add_social_ratings(cuboid, truth, graph, imitation_rate=0.5)


class TestSocialTTCAM:
    def test_fit_monotone(self, social_world):
        _, _, graph, augmented = social_world
        model = SocialTTCAM(graph, 4, 3, max_iter=20, seed=0).fit(augmented)
        assert model.trace_.is_monotone(slack=1e-6)

    def test_influence_rows_normalised(self, social_world):
        _, _, graph, augmented = social_world
        model = SocialTTCAM(graph, 4, 3, max_iter=15, seed=0).fit(augmented)
        np.testing.assert_allclose(model.influence_.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(model.influence_ >= 0)

    def test_scores_form_distribution(self, social_world):
        _, _, graph, augmented = social_world
        model = SocialTTCAM(graph, 4, 3, max_iter=15, seed=0).fit(augmented)
        scores = model.score_items(0, 2)
        assert scores.sum() == pytest.approx(1.0, abs=1e-6)

    def test_query_space_matches_score_items(self, social_world):
        _, _, graph, augmented = social_world
        model = SocialTTCAM(graph, 4, 3, max_iter=15, seed=0).fit(augmented)
        weights, matrix = model.query_space(3, 5)
        np.testing.assert_allclose(weights @ matrix, model.score_items(3, 5), atol=1e-12)

    def test_detects_social_influence(self, social_world):
        """Learned social weight is higher on imitation-augmented data
        than on the asocial original."""
        cuboid, _, graph, augmented = social_world
        asocial = SocialTTCAM(graph, 4, 3, max_iter=25, seed=0).fit(cuboid)
        social = SocialTTCAM(graph, 4, 3, max_iter=25, seed=0).fit(augmented)
        assert social.influence_[:, 1].mean() > asocial.influence_[:, 1].mean()

    def test_unfitted_raises(self, social_world):
        _, _, graph, _ = social_world
        with pytest.raises(RuntimeError):
            SocialTTCAM(graph).score_items(0, 0)

    def test_rejects_zero_max_iter(self, social_world):
        # Used to "fit" to the random initialisation with an empty trace.
        _, _, graph, _ = social_world
        with pytest.raises(ValueError, match="max_iter"):
            SocialTTCAM(graph, max_iter=0)

    def test_fit_rejects_a_graph_over_unknown_users(self, social_world):
        # Used to raise an IndexError from deep inside the first E-step.
        import networkx as nx

        cuboid, _, _, _ = social_world
        model = SocialTTCAM(nx.path_graph(cuboid.num_users + 5), 3, 2, max_iter=3)
        with pytest.raises(ValueError, match=f"graph node {cuboid.num_users} "):
            model.fit(cuboid)
        assert model.trace_ is None

    def test_works_with_ta_engine(self, social_world):
        from repro.recommend import TemporalRecommender

        _, _, graph, augmented = social_world
        model = SocialTTCAM(graph, 4, 3, max_iter=15, seed=0).fit(augmented)
        rec = TemporalRecommender(model)
        bf = rec.recommend(0, 1, k=5, method="bf")
        ta = rec.recommend(0, 1, k=5, method="ta")
        np.testing.assert_allclose(sorted(bf.scores), sorted(ta.scores), atol=1e-12)
