"""Social-influence extension (paper future work, Section 6, item 1).

"First, we would like to explore enhancements to our models by
exploiting the effect of user social network on user rating behaviors,
e.g., to study how a user's friends affect her/his rating behaviors."

Three pieces, mirroring the social mixtures the paper cites (Xu et al.,
SIGIR'12; Ye et al., SIGIR'12) but with TCAM's distinct-topic-set
design:

* :func:`build_homophilous_graph` — a social-network substrate: a
  small-world graph rewired so connected users have similar interests
  (homophily), built on :mod:`networkx`.
* :func:`add_social_ratings` — augments a synthetic dataset with
  imitation behaviors: a user re-rates items drawn from friends'
  interest distributions.
* :class:`SocialTTCAM` — a three-way mixture
  ``P(v|u,t) = λ_int·P(v|θ_u) + λ_soc·P(v|θ̄_{N(u)}) + λ_ctx·P(v|θ′_t)``
  where ``θ̄_{N(u)}`` is the (fixed-per-iteration) average interest of
  ``u``'s friends over the same user-oriented topics. Per-user influence
  weights are learned by EM like TCAM's λ.

``θ̄_{N(u)}`` has one definition, :func:`social_interest`: the
row-normalised friendship matrix of :func:`social_adjacency` applied to
``θ``, shared by the imitation generator and the model. The model is
TTCAM's declaration over :class:`~repro.core.model.EMModel` with its own
small kernel, :class:`SocialKernel`.
"""

from __future__ import annotations

import hashlib

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix

from ..core.em import EPS, scatter_sum_1d
from ..core.engine import EStep, TTCAMKernel
from ..core.model import MStep
from ..core.ttcam import TTCAMDeclaration
from ..data.cuboid import RatingCuboid
from ..data.synthetic import GroundTruth, sample_rows
from ..typing import RNG, ArrayState, Workspace, bit_deterministic


@bit_deterministic
def build_homophilous_graph(
    theta: np.ndarray,
    avg_degree: int = 8,
    homophily: float = 0.7,
    seed: int = 0,
) -> nx.Graph:
    """Social graph whose edges prefer users with similar interests.

    Starts from a Watts–Strogatz small world over the users, then rewires
    each edge, with probability ``homophily``, to connect its source to
    one of the most interest-similar users instead (cosine over ``theta``
    rows). The result keeps small-world degree statistics while making
    "friends like what I like" true in expectation — the property the
    social model exploits.
    """
    if not 0 <= homophily <= 1:
        raise ValueError(f"homophily must be in [0, 1], got {homophily}")
    num_users = theta.shape[0]
    if avg_degree < 2 or avg_degree >= num_users:
        raise ValueError("avg_degree must be in [2, num_users)")
    rng = np.random.default_rng(seed)
    k = avg_degree + (avg_degree % 2)  # watts_strogatz needs an even k
    graph = nx.watts_strogatz_graph(num_users, k, p=0.3, seed=int(rng.integers(2**31)))

    normalised = theta / (np.linalg.norm(theta, axis=1, keepdims=True) + 1e-12)
    similarity = normalised @ normalised.T
    np.fill_diagonal(similarity, -np.inf)

    edges = list(graph.edges())
    for a, b in edges:
        if rng.random() < homophily:
            graph.remove_edge(a, b)
            # Reconnect "a" to one of its 10 most similar non-neighbours.
            candidates = np.argsort(-similarity[a], kind="stable")[:10]
            choices = [c for c in candidates if c != a and not graph.has_edge(a, int(c))]
            if choices:
                graph.add_edge(a, int(rng.choice(choices)))
            else:
                graph.add_edge(a, b)
    return graph


def adjacency_lists(graph: nx.Graph, num_users: int) -> list[np.ndarray]:
    """Friend-id arrays per user (empty array for isolated users).

    The graph is outside input, checked here once: a node that is not a
    user id in ``[0, num_users)`` raises a ``ValueError`` naming it.
    """
    strangers = [
        node for node in graph.nodes
        if not isinstance(node, (int, np.integer)) or not 0 <= node < num_users
    ]
    if strangers:
        raise ValueError(f"graph node {strangers[0]!r} is not a user id in [0, {num_users})")
    return [
        np.fromiter((int(v) for v in graph.neighbors(u)), dtype=np.int64)
        if graph.has_node(u)
        else np.empty(0, dtype=np.int64)
        for u in range(num_users)
    ]


def social_adjacency(graph: nx.Graph, num_users: int) -> csr_matrix:
    """Row-normalised ``(N, N)`` friendship matrix ``A``: row ``u`` averages
    ``u``'s friends, and an isolated user's row is its own."""
    friends = [
        neighbours if neighbours.size else np.array([u])
        for u, neighbours in enumerate(adjacency_lists(graph, num_users))
    ]
    sizes = np.array([neighbours.size for neighbours in friends])
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    weights = np.repeat(1.0 / sizes, sizes)
    return csr_matrix((weights, np.concatenate(friends), indptr), shape=(num_users,) * 2)


def social_interest(theta: np.ndarray, adjacency: csr_matrix) -> np.ndarray:
    """``θ̄_{N(u)} = (A @ θ)[u]``: average interest of each user's friends.

    ``adjacency`` is :func:`social_adjacency`'s matrix, so users without
    friends fall back to their own interest (the social component
    degenerates gracefully instead of going uniform).
    """
    social: np.ndarray = adjacency @ theta
    return social


def add_social_ratings(
    cuboid: RatingCuboid,
    truth: GroundTruth,
    graph: nx.Graph,
    imitation_rate: float = 0.3,
    seed: int = 0,
) -> RatingCuboid:
    """Augment a dataset with friend-imitation behaviors.

    For each user, ``imitation_rate`` × their rating volume additional
    ratings are generated from the averaged interest distribution of
    their friends (re-using the generator's ground-truth topics), at
    random intervals. Returns a new coalesced cuboid.
    """
    if imitation_rate < 0:
        raise ValueError(f"imitation_rate must be >= 0, got {imitation_rate}")
    if imitation_rate == 0:
        return cuboid
    rng = np.random.default_rng(seed)
    social_theta = social_interest(truth.theta, social_adjacency(graph, cuboid.num_users))

    volumes = np.maximum(
        rng.poisson(imitation_rate * cuboid.user_activity().astype(float)), 0
    )
    users = np.repeat(np.arange(cuboid.num_users, dtype=np.int64), volumes)
    if users.size == 0:
        return cuboid
    z = sample_rows(social_theta, users, rng)
    items = sample_rows(truth.phi, z, rng)
    intervals = rng.integers(0, cuboid.num_intervals, size=users.size)

    return RatingCuboid(
        users=np.concatenate([cuboid.users, users]),
        intervals=np.concatenate([cuboid.intervals, intervals]),
        items=np.concatenate([cuboid.items, items]),
        scores=np.concatenate([cuboid.scores, np.ones(users.size)]),
        num_users=cuboid.num_users,
        num_intervals=cuboid.num_intervals,
        num_items=cuboid.num_items,
        user_index=cuboid.user_index,
        item_index=cuboid.item_index,
    ).coalesce()


class SocialKernel(TTCAMKernel):
    """TTCAM's E-step with a third, social, branch over the same ``φ``.

    Reads ``θ̄_{N(u)}`` as ``state["social"]``; replaces TTCAM's
    ``lam_num`` with ``influence_num``, the ``(N, 3)`` per-user
    responsibility mass of (interest, social, context).
    """

    def stat_arrays(self) -> ArrayState:
        """TTCAM's topic accumulators plus the per-user branch masses."""
        stats = super().stat_arrays()
        del stats["lam_num"]
        return stats | {"influence_num": np.zeros((self.n, 3))}

    def make_workspace(self, capacity: int) -> Workspace:
        """No preallocated buffers: each block's expressions allocate their own."""
        return {}

    def accumulate(
        self, state: ArrayState, lo: int, hi: int, ws: Workspace, stats: ArrayState
    ) -> float:
        """Fold rows ``[lo, hi)`` into ``stats``; return the block's LL."""
        u, t, v, c = self.u[lo:hi], self.t[lo:hi], self.v[lo:hi], self.c[lo:hi]
        by_user, by_item, by_interval = self._plans[lo, hi]
        phi_v = state["phi"][:, v].T
        joint = [
            state["theta"][u] * phi_v,
            state["social"][u] * phi_v,
            state["theta_time"][t] * state["phi_time"][:, v].T,
        ]
        p = np.stack([branch.sum(axis=1) for branch in joint], axis=1)
        parts = state["influence"][u] * p
        denom = parts.sum(axis=1) + EPS
        c_branch = c[:, None] * parts / denom[:, None]  # c · P(branch | u, t, v)
        by_user.sum(c_branch, out=stats["influence_num"])
        for i, branch in enumerate(joint):
            branch *= (c_branch[:, i] / (p[:, i] + EPS))[:, None]
        interest, social, context = joint
        by_user.sum(interest, out=stats["theta_num"])
        # A friend's influence is expressed through the same topics: the
        # social counts update φ but not θ_u.
        by_item.sum(interest + social, out=stats["phi_num"])
        by_interval.sum(context, out=stats["theta_time_num"])
        by_item.sum(context, out=stats["phi_time_num"])
        return float(np.dot(c, np.log(denom)))


class SocialTTCAM(TTCAMDeclaration):
    """TCAM with a third, social, influence component.

    TTCAM's declaration with :class:`SocialKernel` and a per-user
    influence vector in place of ``λ``; ``θ̄_{N(u)}`` is recomputed from
    the current ``θ`` once per E-step (a mean-field treatment of the
    neighbourhood coupling) through :func:`social_interest`.

    Parameters
    ----------
    graph:
        The social network over the (dense) user ids.
    num_user_topics, num_time_topics, max_iter, tol, smoothing, seed:
        As in :class:`~repro.core.ttcam.TTCAM`.

    Attributes (after :meth:`fit`)
    ------------------------------
    theta_, phi_, theta_time_, phi_time_:
        As in TTCAM.
    influence_:
        ``(N, 3)`` per-user influence probabilities over
        ``(interest, social, context)``; rows sum to one.
    """

    COMPONENTS = ("interest", "social", "context")

    _model = "social-ttcam"
    _unit_interval = ("influence",)  # a user without ratings keeps a zero row

    def __init__(
        self,
        graph: nx.Graph,
        num_user_topics: int = 60,
        num_time_topics: int = 40,
        max_iter: int = 50,
        tol: float = 1e-5,
        smoothing: float = 1e-6,
        seed: int = 0,
    ) -> None:
        super().__init__(num_user_topics, num_time_topics, max_iter, tol, smoothing, seed)
        self.graph = graph
        self.theta_: np.ndarray | None = None
        self.phi_: np.ndarray | None = None
        self.theta_time_: np.ndarray | None = None
        self.phi_time_: np.ndarray | None = None
        self.influence_: np.ndarray | None = None
        self._social_theta: np.ndarray | None = None

    @property
    def name(self) -> str:
        """Display name used in evaluation tables."""
        return "Social-TTCAM"

    def _hyper(self) -> dict[str, object]:
        edges = sorted((min(a, b), max(a, b)) for a, b in self.graph.edges())
        digest = hashlib.sha256(np.array(edges, dtype=np.int64).tobytes()).hexdigest()
        return super()._hyper() | {"graph": digest}

    def _kernel(self, cuboid: RatingCuboid) -> SocialKernel:
        triples = cuboid.users, cuboid.intervals, cuboid.items, cuboid.scores
        return SocialKernel(*triples, cuboid.shape, self.num_user_topics, self.num_time_topics)

    def _build_estep(self, cuboid: RatingCuboid) -> tuple[EStep, dict[str, object]]:
        """The kernel's E-step, fed ``θ̄_{N(u)}`` of the state it is given."""
        adjacency = social_adjacency(self.graph, cuboid.num_users)
        compute, grid = super()._build_estep(cuboid)

        def social_compute(state: ArrayState) -> tuple[ArrayState, float]:
            return compute(state | {"social": social_interest(state["theta"], adjacency)})

        return social_compute, grid

    def _init_state(self, rng: RNG, shape: tuple[int, int, int]) -> ArrayState:
        state = super()._init_state(rng, shape)
        del state["lambda_u"]
        return state | {"influence": np.full((shape[0], 3), 1.0 / 3.0)}

    def _m_step(self, cuboid: RatingCuboid) -> MStep:
        user_mass = scatter_sum_1d(cuboid.users, cuboid.scores, cuboid.num_users)
        safe_user_mass = np.where(user_mass <= 0, 1.0, user_mass)

        def m_step(stats: ArrayState) -> ArrayState:
            influence = np.clip(stats["influence_num"] / safe_user_mass[:, None], 0.0, 1.0)
            influence /= influence.sum(axis=1, keepdims=True) + EPS
            return self._topics(stats) | {"influence": influence}

        return m_step

    def _store(self, state: ArrayState, cuboid: RatingCuboid) -> None:
        self.theta_, self.phi_, self.theta_time_, self.phi_time_, self.influence_ = (
            state[name] for name in self._stochastic + self._unit_interval
        )
        adjacency = social_adjacency(self.graph, cuboid.num_users)
        self._social_theta = social_interest(self.theta_, adjacency)

    def _require_fitted(self) -> None:
        if self.phi_ is None:
            raise RuntimeError("model is not fitted; call fit() first")

    def score_items(self, user: int, interval: int) -> np.ndarray:
        """Three-way mixture likelihood for every item."""
        self._require_fitted()
        w = self.influence_[user]
        interest = self.theta_[user] @ self.phi_
        social = self._social_theta[user] @ self.phi_
        context = self.theta_time_[interval] @ self.phi_time_
        return w[0] * interest + w[1] * social + w[2] * context

    def query_space(self, user: int, interval: int) -> tuple[np.ndarray, np.ndarray]:
        """Expanded query: interest+social share the user-oriented topics."""
        self._require_fitted()
        w = self.influence_[user]
        user_side = w[0] * self.theta_[user] + w[1] * self._social_theta[user]
        weights = np.concatenate([user_side, w[2] * self.theta_time_[interval]])
        matrix = np.vstack([self.phi_, self.phi_time_])
        return weights, matrix

    def matrix_cache_key(self, interval: int) -> str:
        """The stacked topic–item matrix is query-independent."""
        return "static"
