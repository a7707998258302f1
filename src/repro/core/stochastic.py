"""Stochastic (mini-batch) EM for TTCAM.

Batch EM touches every rating per iteration; at web scale that is a full
pass over the log. Stepwise/online EM (Cappé & Moulines, 2009) instead
updates *running sufficient statistics* from mini-batches:

``S ← (1 − ρ_n)·S + ρ_n·ŝ(batch)``,  ``ρ_n = (n + 2)^{−κ}``

where ``ŝ`` is the batch's statistics rescaled to corpus size and
``κ ∈ (0.5, 1]`` controls forgetting. The M-step normalises ``S`` exactly
as batch EM does, so memory per step is ``O(parameters + batch)`` rather
than ``O(corpus)``.

This complements :class:`~repro.core.parallel.PartitionedTTCAM` (which
parallelises exact batch EM) by trading a little bias for constant-memory
streaming — the other half of the paper's "scalable to large-scale
datasets" remark.
"""

from __future__ import annotations

import numpy as np

from ..data.cuboid import RatingCuboid
from ..typing import FloatArray
from .em import EPS, EMTrace, normalize_rows, random_stochastic, scatter_sum, scatter_sum_1d
from .params import ParamsBackedModel, TTCAMParameters
from .weighting import apply_item_weighting


class StochasticTTCAM(ParamsBackedModel):
    """TTCAM fit by stepwise EM over mini-batches.

    Parameters
    ----------
    num_user_topics, num_time_topics, weighted, smoothing, seed:
        As in :class:`~repro.core.ttcam.TTCAM`.
    batch_size:
        Ratings per mini-batch.
    num_epochs:
        Passes over the (shuffled) rating entries.
    kappa:
        Step-size decay exponent, ``0.5 < κ ≤ 1``.
    """

    def __init__(
        self,
        num_user_topics: int = 60,
        num_time_topics: int = 40,
        batch_size: int = 2048,
        num_epochs: int = 10,
        kappa: float = 0.7,
        smoothing: float = 1e-6,
        weighted: bool = False,
        seed: int = 0,
    ) -> None:
        if num_user_topics <= 0 or num_time_topics <= 0:
            raise ValueError("topic counts must be positive")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if num_epochs <= 0:
            raise ValueError(f"num_epochs must be positive, got {num_epochs}")
        if not 0.5 < kappa <= 1.0:
            raise ValueError(f"kappa must be in (0.5, 1], got {kappa}")
        self.num_user_topics = num_user_topics
        self.num_time_topics = num_time_topics
        self.batch_size = batch_size
        self.num_epochs = num_epochs
        self.kappa = kappa
        self.smoothing = smoothing
        self.weighted = weighted
        self.seed = seed
        self.params_: TTCAMParameters | None = None
        self.trace_: EMTrace | None = None

    @property
    def name(self) -> str:
        """Display name used in evaluation tables."""
        return "W-TTCAM(stochastic)" if self.weighted else "TTCAM(stochastic)"

    def fit(self, cuboid: RatingCuboid) -> "StochasticTTCAM":
        """Fit by stepwise EM; records one log-likelihood per epoch."""
        if cuboid.nnz == 0:
            raise ValueError("cannot fit on an empty cuboid")
        if self.weighted:
            cuboid = apply_item_weighting(cuboid)

        rng = np.random.default_rng(self.seed)
        n, t_dim, v_dim = cuboid.shape
        k1, k2 = self.num_user_topics, self.num_time_topics
        total_mass = cuboid.total_score

        theta = random_stochastic(rng, n, k1)
        phi = random_stochastic(rng, k1, v_dim)
        theta_time = random_stochastic(rng, t_dim, k2)
        phi_time = random_stochastic(rng, k2, v_dim)
        lam = np.full(n, 0.5)

        # Running sufficient statistics, initialised from the priors so
        # early batches do not zero out unseen rows.
        stats_theta = theta * 1.0
        stats_phi = phi.T * 1.0  # stored (V, K1) like the batch scatter
        stats_theta_time = theta_time * 1.0
        stats_phi_time = phi_time.T * 1.0
        stats_lam_num = lam * 1.0
        stats_lam_den = np.ones(n)

        user_mass = scatter_sum_1d(cuboid.users, cuboid.scores, n)
        safe_user_mass = np.where(user_mass <= 0, 1.0, user_mass)

        trace = EMTrace()
        step = 0
        for _epoch in range(self.num_epochs):
            order = rng.permutation(cuboid.nnz)
            for start in range(0, cuboid.nnz, self.batch_size):
                rows = order[start : start + self.batch_size]
                u = cuboid.users[rows]
                t = cuboid.intervals[rows]
                v = cuboid.items[rows]
                c = cuboid.scores[rows]
                scale = total_mass / c.sum()

                joint_z = theta[u] * phi[:, v].T
                p_interest = joint_z.sum(axis=1)
                joint_x = theta_time[t] * phi_time[:, v].T
                p_context = joint_x.sum(axis=1)
                lam_r = lam[u]
                denom = lam_r * p_interest + (1 - lam_r) * p_context + EPS
                ps1 = lam_r * p_interest / denom
                resp_z = joint_z * (ps1 / (p_interest + EPS))[:, None]
                resp_x = joint_x * ((1 - ps1) / (p_context + EPS))[:, None]

                c_z = c[:, None] * resp_z * scale
                c_x = c[:, None] * resp_x * scale
                rho = (step + 2.0) ** (-self.kappa)
                step += 1

                stats_theta = (1 - rho) * stats_theta + rho * scatter_sum(u, c_z, n)
                stats_phi = (1 - rho) * stats_phi + rho * scatter_sum(v, c_z, v_dim)
                stats_theta_time = (
                    (1 - rho) * stats_theta_time + rho * scatter_sum(t, c_x, t_dim)
                )
                stats_phi_time = (
                    (1 - rho) * stats_phi_time + rho * scatter_sum(v, c_x, v_dim)
                )
                stats_lam_num = (1 - rho) * stats_lam_num + rho * scatter_sum_1d(
                    u, c * ps1 * scale, n
                )
                stats_lam_den = (1 - rho) * stats_lam_den + rho * scatter_sum_1d(
                    u, c * scale, n
                )

                theta = normalize_rows(stats_theta, self.smoothing)
                phi = normalize_rows(stats_phi.T, self.smoothing)
                theta_time = normalize_rows(stats_theta_time, self.smoothing)
                phi_time = normalize_rows(stats_phi_time.T, self.smoothing)
                lam = np.clip(
                    stats_lam_num / np.maximum(stats_lam_den, EPS), 0.0, 1.0
                )

            trace.log_likelihood.append(
                self._full_log_likelihood(
                    cuboid, theta, phi, theta_time, phi_time, lam
                )
            )

        self.params_ = TTCAMParameters(
            theta=theta,
            phi=phi,
            theta_time=theta_time,
            phi_time=phi_time,
            lambda_u=lam,
        )
        self.trace_ = trace
        return self

    @staticmethod
    def _full_log_likelihood(
        cuboid: RatingCuboid,
        theta: FloatArray,
        phi: FloatArray,
        theta_time: FloatArray,
        phi_time: FloatArray,
        lam: FloatArray,
    ) -> float:
        u, t, v, c = cuboid.users, cuboid.intervals, cuboid.items, cuboid.scores
        p_interest = np.einsum("rk,kr->r", theta[u], phi[:, v])
        p_context = np.einsum("rk,kr->r", theta_time[t], phi_time[:, v])
        lam_r = lam[u]
        prob = lam_r * p_interest + (1 - lam_r) * p_context
        return float(np.dot(c, np.log(prob + EPS)))
