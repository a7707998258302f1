"""Time-evolving user interests (paper future work, Section 6, item 2).

"Second, it would be an interesting future direction to consider
time-evolving user interests which generally change over time."

TCAM assumes ``θ_u`` is stable. This extension relaxes that: time is
grouped into *epochs* of ``epoch_length`` intervals and each user gets a
per-epoch interest distribution ``θ_{u,e}``, coupled across consecutive
epochs by a smoothing kernel (a discrete random-walk prior), so sparse
epochs borrow strength from their neighbours instead of going uniform.
:class:`DriftTTCAM` is a declaration over
:class:`~repro.core.model.EMModel`: TTCAM's own kernel, whose interest
rows are (epoch, user) pairs, and an M-step that blends neighbouring
epochs' counts.

A companion generator, :func:`generate_drifting`, produces data whose
users *actually* drift: their true interests random-walk on the topic
simplex between epochs — giving the recovery tests ground truth.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..core.engine import TTCAMKernel
from ..core.model import MStep
from ..core.params import TTCAMParameters
from ..core.ttcam import TTCAMDeclaration
from ..data.cuboid import RatingCuboid
from ..data.synthetic import GroundTruth, SyntheticConfig, generate
from ..typing import RNG, ArrayState


def drift_interests(
    theta: np.ndarray,
    num_epochs: int,
    drift_rate: float,
    rng: np.random.Generator,
    concentration: float = 0.3,
) -> np.ndarray:
    """Random-walk a population's interests across epochs.

    Each epoch, every user's interest is a mixture of the previous
    epoch's interest and a fresh Dirichlet draw:
    ``θ_{u,e} = (1 − drift_rate)·θ_{u,e−1} + drift_rate·fresh``.
    Returns a ``(num_epochs, N, K)`` array with ``θ_{·,0} = theta``.
    """
    if not 0 <= drift_rate <= 1:
        raise ValueError(f"drift_rate must be in [0, 1], got {drift_rate}")
    if num_epochs <= 0:
        raise ValueError(f"num_epochs must be positive, got {num_epochs}")
    n, k = theta.shape
    out = np.empty((num_epochs, n, k))
    out[0] = theta
    for e in range(1, num_epochs):
        fresh = rng.dirichlet(np.full(k, concentration), size=n)
        mixed = (1 - drift_rate) * out[e - 1] + drift_rate * fresh
        out[e] = mixed / mixed.sum(axis=1, keepdims=True)
    return out


def generate_drifting(
    config: SyntheticConfig, num_epochs: int, drift_rate: float
) -> tuple[RatingCuboid, list[GroundTruth], np.ndarray]:
    """Generate a dataset whose users' interests drift across epochs.

    One epoch = one full run of the base generator with the drifted
    interest matrix; interval ids are shifted so epoch ``e`` occupies
    intervals ``[e·T₀, (e+1)·T₀)``. Returns the combined cuboid, the
    per-epoch ground truths, and the ``(E, N, K)`` true interest
    trajectory.
    """
    rng = np.random.default_rng(config.seed + 104729)
    base_cuboid, base_truth = generate(config)
    trajectory = drift_interests(
        base_truth.theta, num_epochs, drift_rate, rng, config.interest_sparsity
    )

    cuboids: list[RatingCuboid] = []
    truths: list[GroundTruth] = []
    t0 = config.num_intervals
    for e in range(num_epochs):
        epoch_config = replace(config, seed=config.seed + e)
        cuboid, truth = _generate_with_theta(epoch_config, trajectory[e])
        shifted = RatingCuboid(
            users=cuboid.users,
            intervals=cuboid.intervals + e * t0,
            items=cuboid.items,
            scores=cuboid.scores,
            num_users=cuboid.num_users,
            num_intervals=t0 * num_epochs,
            num_items=cuboid.num_items,
            user_index=cuboid.user_index,
            item_index=cuboid.item_index,
        )
        cuboids.append(shifted)
        truths.append(truth)

    combined = RatingCuboid(
        users=np.concatenate([c.users for c in cuboids]),
        intervals=np.concatenate([c.intervals for c in cuboids]),
        items=np.concatenate([c.items for c in cuboids]),
        scores=np.concatenate([c.scores for c in cuboids]),
        num_users=config.num_users,
        num_intervals=t0 * num_epochs,
        num_items=config.num_items,
        user_index=cuboids[0].user_index,
        item_index=cuboids[0].item_index,
    ).coalesce()
    return combined, truths, trajectory


def _generate_with_theta(
    config: SyntheticConfig, theta: np.ndarray
) -> tuple[RatingCuboid, GroundTruth]:
    """Run the base generator, then substitute the interest matrix.

    The base generator draws ``θ`` itself; to inject a specific interest
    matrix we exploit determinism: regenerating with the same seed and
    remapping only the interest-sourced items under the injected θ.
    """
    import repro.data.synthetic as synth

    cuboid, truth = generate(config)
    rng = np.random.default_rng(config.seed + 7919)
    # Draw replacement items for interest entries under the injected θ.
    # We regenerate at the raw-event level: every coalesced entry keeps
    # its (u, t) but interest-sourced entries get re-drawn items.
    users, intervals = cuboid.users, cuboid.intervals
    items = cuboid.items.copy()
    # Mark a θ-consistent fraction of entries as interest-driven using
    # the true per-user λ.
    interest_mask = rng.random(cuboid.nnz) < truth.lambda_u[users] * (
        1 - config.noise_fraction
    )
    if interest_mask.any():
        z = synth.sample_rows(theta, users[interest_mask], rng)
        items[interest_mask] = synth.sample_rows(truth.phi, z, rng)
    new_cuboid = RatingCuboid(
        users=users,
        intervals=intervals,
        items=items,
        scores=np.ones(cuboid.nnz),
        num_users=cuboid.num_users,
        num_intervals=cuboid.num_intervals,
        num_items=cuboid.num_items,
        user_index=cuboid.user_index,
        item_index=cuboid.item_index,
    ).coalesce()
    new_truth = replace(truth, theta=theta)
    return new_cuboid, new_truth


class DriftTTCAM(TTCAMDeclaration):
    """TTCAM with per-epoch user interests and a random-walk coupling.

    TTCAM whose interest rows are (epoch, user) pairs: inside the fit
    ``θ`` is ``(E·N, K1)`` (row ``e·N + u``), read and counted by TTCAM's
    kernel through its ``interest_rows``; ``λ`` stays per user. The
    M-step blends neighbouring epochs' interest counts before TTCAM's.

    Parameters
    ----------
    epoch_length:
        Number of intervals per interest epoch.
    epoch_coupling:
        Strength of the smoothing between consecutive epochs' interest
        counts (0 = independent epochs; larger = stiffer interests).
    num_user_topics, num_time_topics, max_iter, tol, smoothing, seed:
        As in :class:`~repro.core.ttcam.TTCAM`.

    Attributes (after :meth:`fit`)
    ------------------------------
    theta_:
        ``(E, N, K1)`` per-epoch user interests.
    phi_, theta_time_, phi_time_, lambda_:
        TTCAM's ``phi``, ``theta_time``, ``phi_time`` and ``lambda_u``.
    num_epochs_:
        ``E``, the number of epochs the fitted timeline spans.
    """

    _model = "drift-ttcam"

    def __init__(
        self,
        epoch_length: int,
        num_user_topics: int = 60,
        num_time_topics: int = 40,
        epoch_coupling: float = 0.3,
        max_iter: int = 50,
        tol: float = 1e-5,
        smoothing: float = 1e-6,
        seed: int = 0,
    ) -> None:
        if epoch_length <= 0:
            raise ValueError(f"epoch_length must be positive, got {epoch_length}")
        if epoch_coupling < 0:
            raise ValueError(f"epoch_coupling must be >= 0, got {epoch_coupling}")
        super().__init__(num_user_topics, num_time_topics, max_iter, tol, smoothing, seed)
        self.epoch_length = epoch_length
        self.epoch_coupling = epoch_coupling
        self.theta_: np.ndarray | None = None  # (E, N, K1)
        self.phi_: np.ndarray | None = None
        self.theta_time_: np.ndarray | None = None
        self.phi_time_: np.ndarray | None = None
        self.lambda_: np.ndarray | None = None
        self.num_epochs_: int = 0
        self._by_epoch: list[TTCAMParameters] = []

    @property
    def name(self) -> str:
        """Display name used in evaluation tables."""
        return "Drift-TTCAM"

    def epoch_of(self, interval: int | np.ndarray):
        """Map interval id(s) to epoch id(s)."""
        return np.asarray(interval) // self.epoch_length

    def _hyper(self) -> dict[str, object]:
        return super()._hyper() | {
            "epoch_length": self.epoch_length,
            "epoch_coupling": self.epoch_coupling,
        }

    def _epochs(self, num_intervals: int) -> int:
        return -(-num_intervals // self.epoch_length)

    def _kernel(self, cuboid: RatingCuboid) -> TTCAMKernel:
        n = cuboid.num_users
        rows = self.epoch_of(cuboid.intervals).astype(np.int64) * n + cuboid.users
        interest_rows = rows, self._epochs(cuboid.num_intervals) * n
        triples = cuboid.users, cuboid.intervals, cuboid.items, cuboid.scores
        k1, k2 = self.num_user_topics, self.num_time_topics
        return TTCAMKernel(*triples, cuboid.shape, k1, k2, interest_rows=interest_rows)

    def _init_state(self, rng: RNG, shape: tuple[int, int, int]) -> ArrayState:
        n, t_dim, v_dim = shape
        # TTCAM's draws with E·N interest rows: one (E·N, K1) draw is E
        # stacked (N, K1) draws, epoch by epoch. λ is not drawn.
        state = super()._init_state(rng, (self._epochs(t_dim) * n, t_dim, v_dim))
        return state | {"lambda_u": np.full(n, 0.5)}

    def _m_step(self, cuboid: RatingCuboid) -> MStep:
        ttcam_m_step, n = super()._m_step(cuboid), cuboid.num_users

        def m_step(stats: ArrayState) -> ArrayState:
            # Random-walk coupling: blend in neighbouring epochs' counts.
            counts = stats["theta_num"].reshape(-1, n, self.num_user_topics)
            coupled = counts.copy()
            coupled[1:] += self.epoch_coupling * counts[:-1]
            coupled[:-1] += self.epoch_coupling * counts[1:]
            return ttcam_m_step(stats | {"theta_num": coupled.reshape(-1, self.num_user_topics)})

        return m_step

    def _store(self, state: ArrayState, cuboid: RatingCuboid) -> None:
        self.num_epochs_ = self._epochs(cuboid.num_intervals)
        self.theta_ = state["theta"].reshape(self.num_epochs_, cuboid.num_users, -1)
        self.phi_, self.theta_time_, self.phi_time_, self.lambda_ = (
            state[name] for name in ("phi", "theta_time", "phi_time", "lambda_u")
        )
        self._by_epoch = [TTCAMParameters(**state | {"theta": theta}) for theta in self.theta_]

    def _require_fitted(self) -> list[TTCAMParameters]:
        if not self._by_epoch:
            raise RuntimeError("model is not fitted; call fit() first")
        return self._by_epoch

    def _at(self, interval: int) -> TTCAMParameters:
        """TTCAM's parameters with the interests of ``interval``'s epoch."""
        by_epoch = self._require_fitted()
        return by_epoch[min(int(self.epoch_of(interval)), len(by_epoch) - 1)]

    def score_items(self, user: int, interval: int) -> np.ndarray:
        """Mixture likelihood using the queried interval's epoch interest."""
        return self._at(interval).score_items(user, interval)

    def query_space(self, user: int, interval: int) -> tuple[np.ndarray, np.ndarray]:
        """Expanded query over the stacked topic space."""
        return self._at(interval).query_space(user, interval)

    def matrix_cache_key(self, interval: int) -> str:
        """The stacked topic–item matrix is query-independent."""
        return "static"

    def interest_trajectory(self, user: int) -> np.ndarray:
        """``(E, K1)`` fitted interest path of one user — the object the
        drift analysis inspects."""
        self._require_fitted()
        return self.theta_[:, user, :].copy()
