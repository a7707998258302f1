"""Collapsed Gibbs sampling for TTCAM — the Bayesian inference path.

The paper fits TCAM by maximum-likelihood EM. This module provides the
fully Bayesian alternative, in the style of collapsed LDA samplers:
symmetric Dirichlet priors on every multinomial
(``θ_u ~ Dir(α)``, ``φ_z ~ Dir(β)``, ``θ′_t ~ Dir(α′)``,
``φ′_x ~ Dir(β′)``) and a Beta prior on each mixing weight
(``λ_u ~ Beta(γ, γ)``), with the multinomials and λ integrated out.

The sampler state is one assignment per cuboid entry — either
``(s=1, z)`` (a user-oriented topic) or ``(s=0, x)`` (a time-oriented
topic). Each sweep resamples every entry from its full conditional over
the ``K1 + K2`` combined choices; entry weights act as token masses in
the count tables (the standard weighted-token treatment).

Post burn-in, count tables are averaged and converted to a smoothed
:class:`~repro.core.params.TTCAMParameters`, so the result plugs into
the same recommendation and evaluation stack as the EM fit. Being a
per-entry Python loop, this is the reference/teaching implementation —
EM remains the fast path; the tests check the two agree.
"""

from __future__ import annotations

import numpy as np

from ..data.cuboid import RatingCuboid
from ..typing import FloatArray, IntArray
from .params import ParamsBackedModel, TTCAMParameters


class GibbsTTCAM(ParamsBackedModel):
    """TTCAM fit by collapsed Gibbs sampling.

    Parameters
    ----------
    num_user_topics, num_time_topics:
        ``K1`` and ``K2``.
    alpha, beta:
        Symmetric Dirichlet hyper-parameters for the user-side
        distributions (``θ_u`` and ``φ_z``).
    alpha_time, beta_time:
        Same for the temporal side (default to ``alpha``/``beta``).
    gamma:
        Beta prior pseudo-count for each λ_u (symmetric).
    num_samples, burn_in:
        Post-burn-in sweeps averaged for the posterior estimate, and
        discarded initial sweeps.
    seed:
        RNG seed.
    """

    def __init__(
        self,
        num_user_topics: int = 10,
        num_time_topics: int = 10,
        alpha: float = 0.5,
        beta: float = 0.05,
        alpha_time: float | None = None,
        beta_time: float | None = None,
        gamma: float = 1.0,
        num_samples: int = 20,
        burn_in: int = 10,
        seed: int = 0,
    ) -> None:
        if num_user_topics <= 0 or num_time_topics <= 0:
            raise ValueError("topic counts must be positive")
        if min(alpha, beta, gamma) <= 0:
            raise ValueError("hyper-parameters must be positive")
        if num_samples <= 0 or burn_in < 0:
            raise ValueError("num_samples must be > 0 and burn_in >= 0")
        self.num_user_topics = num_user_topics
        self.num_time_topics = num_time_topics
        self.alpha = alpha
        self.beta = beta
        self.alpha_time = alpha if alpha_time is None else alpha_time
        self.beta_time = beta if beta_time is None else beta_time
        self.gamma = gamma
        self.num_samples = num_samples
        self.burn_in = burn_in
        self.seed = seed
        self.params_: TTCAMParameters | None = None
        self.assignments_: IntArray | None = None

    @property
    def name(self) -> str:
        """Display name used in evaluation tables."""
        return "TTCAM(Gibbs)"

    def fit(self, cuboid: RatingCuboid) -> "GibbsTTCAM":
        """Run the collapsed sampler and store posterior-mean parameters."""
        if cuboid.nnz == 0:
            raise ValueError("cannot fit on an empty cuboid")
        rng = np.random.default_rng(self.seed)
        n, t_dim, v_dim = cuboid.shape
        k1, k2 = self.num_user_topics, self.num_time_topics
        u = cuboid.users
        t = cuboid.intervals
        v = cuboid.items
        c = cuboid.scores

        # Count tables (weighted token masses).
        n_uz = np.zeros((n, k1))
        n_zv = np.zeros((k1, v_dim))
        n_z = np.zeros(k1)
        n_tx = np.zeros((t_dim, k2))
        n_xv = np.zeros((k2, v_dim))
        n_x = np.zeros(k2)
        n_u_s = np.zeros((n, 2))  # [:, 1] interest mass, [:, 0] context mass

        # Random initial assignment: column < k1 means (s=1, z=column),
        # column >= k1 means (s=0, x=column-k1).
        assign = rng.integers(0, k1 + k2, size=cuboid.nnz)
        for r in range(cuboid.nnz):
            self._add(r, assign[r], c, u, t, v, n_uz, n_zv, n_z, n_tx, n_xv, n_x, n_u_s, k1, +1)

        accum_theta = np.zeros((n, k1))
        accum_phi = np.zeros((k1, v_dim))
        accum_theta_time = np.zeros((t_dim, k2))
        accum_phi_time = np.zeros((k2, v_dim))
        accum_lambda = np.zeros(n)
        kept = 0

        for sweep in range(self.burn_in + self.num_samples):
            order = rng.permutation(cuboid.nnz)
            unit_draws = rng.random(cuboid.nnz)
            for i, r in enumerate(order):
                self._add(r, assign[r], c, u, t, v, n_uz, n_zv, n_z, n_tx, n_xv, n_x, n_u_s, k1, -1)
                probs = self._conditional(
                    int(u[r]), int(t[r]), int(v[r]),
                    n_uz, n_zv, n_z, n_tx, n_xv, n_x, n_u_s,
                    k1, k2, v_dim,
                )
                cumulative = np.cumsum(probs)
                choice = int(
                    np.searchsorted(cumulative, unit_draws[i] * cumulative[-1])
                )
                assign[r] = min(choice, k1 + k2 - 1)
                self._add(r, assign[r], c, u, t, v, n_uz, n_zv, n_z, n_tx, n_xv, n_x, n_u_s, k1, +1)

            if sweep >= self.burn_in:
                accum_theta += n_uz + self.alpha
                accum_phi += n_zv + self.beta
                accum_theta_time += n_tx + self.alpha_time
                accum_phi_time += n_xv + self.beta_time
                accum_lambda += (n_u_s[:, 1] + self.gamma) / (
                    n_u_s.sum(axis=1) + 2 * self.gamma
                )
                kept += 1

        theta = accum_theta / accum_theta.sum(axis=1, keepdims=True)
        phi = accum_phi / accum_phi.sum(axis=1, keepdims=True)
        theta_time = accum_theta_time / accum_theta_time.sum(axis=1, keepdims=True)
        phi_time = accum_phi_time / accum_phi_time.sum(axis=1, keepdims=True)
        lam = np.clip(accum_lambda / kept, 0.0, 1.0)

        self.params_ = TTCAMParameters(
            theta=theta,
            phi=phi,
            theta_time=theta_time,
            phi_time=phi_time,
            lambda_u=lam,
        )
        self.assignments_ = assign
        return self

    @staticmethod
    def _add(
        r: int,
        a: int,
        c: FloatArray,
        u: IntArray,
        t: IntArray,
        v: IntArray,
        n_uz: FloatArray,
        n_zv: FloatArray,
        n_z: FloatArray,
        n_tx: FloatArray,
        n_xv: FloatArray,
        n_x: FloatArray,
        n_u_s: FloatArray,
        k1: int,
        sign: int,
    ) -> None:
        """Add/remove entry ``r``'s weighted counts for assignment ``a``."""
        weight = sign * c[r]
        if a < k1:
            n_uz[u[r], a] += weight
            n_zv[a, v[r]] += weight
            n_z[a] += weight
            n_u_s[u[r], 1] += weight
        else:
            x = a - k1
            n_tx[t[r], x] += weight
            n_xv[x, v[r]] += weight
            n_x[x] += weight
            n_u_s[u[r], 0] += weight

    def _conditional(
        self,
        ur: int,
        tr: int,
        vr: int,
        n_uz: FloatArray,
        n_zv: FloatArray,
        n_z: FloatArray,
        n_tx: FloatArray,
        n_xv: FloatArray,
        n_x: FloatArray,
        n_u_s: FloatArray,
        k1: int,
        k2: int,
        v_dim: int,
    ) -> FloatArray:
        """Unnormalised full conditional over the ``K1 + K2`` choices."""
        gamma = self.gamma
        s_mass = n_u_s[ur].sum() + 2 * gamma
        p_s1 = (n_u_s[ur, 1] + gamma) / s_mass
        p_s0 = (n_u_s[ur, 0] + gamma) / s_mass

        interest = (
            p_s1
            * (n_uz[ur] + self.alpha)
            / (n_u_s[ur, 1] + k1 * self.alpha)
            * (n_zv[:, vr] + self.beta)
            / (n_z + v_dim * self.beta)
        )
        context = (
            p_s0
            * (n_tx[tr] + self.alpha_time)
            / (n_tx[tr].sum() + k2 * self.alpha_time)
            * (n_xv[:, vr] + self.beta_time)
            / (n_x + v_dim * self.beta_time)
        )
        return np.concatenate([interest, context])
