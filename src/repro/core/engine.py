"""Blocked EM execution engine.

Every EM iteration of the TCAM family is dominated by the E-step: a pass
over the ``R`` rating triples that computes posterior responsibilities
and folds them into a handful of sufficient-statistics matrices. The
naive vectorised implementation materialises five-plus fresh ``(R, K)``
temporaries per iteration, so at production scale it is allocation- and
memory-bandwidth-bound rather than FLOP-bound — the same observation that
motivates blocked/distributed LDA inference (Newman et al., "Distributed
inference for LDA"; Hoffman et al., "Online learning for LDA").

This module restructures that pass without changing the math:

* :class:`EMEngineConfig` — the shared knobs (block size, sanitizer)
  accepted by every model's ``engine=`` argument.
* :class:`BlockedEStep` — iterates the triples in fixed-size blocks, in
  order, on one thread, computing each block's responsibilities in
  **preallocated, reused buffers** (``np.take(..., out=...)`` gathers,
  in-place ufuncs, fused ``c · resp`` scaling) and reducing them into one
  set of statistics through the kernel's **plan-once scatters**.
* Model kernels (:class:`TTCAMKernel`, :class:`ITCAMKernel`,
  :class:`UserTopicKernel`, :class:`TimeTopicKernel`) — the per-block
  E-step equations of each model family. The index arrays of a fit never
  change, so a kernel holds one :class:`~repro.core.em.ScatterPlan` per
  (index array, block of the grid): built once when an engine is
  constructed over it, never inside :meth:`BlockedEStep.compute`, and
  immutable afterwards, so re-executed shard mappers share them. Each
  plan sums a bin's rows in the order of the flat ``bincount`` of
  :func:`~repro.core.em.scatter_sum`, so a fit is bit-identical to one
  scattered through that.

This is the only E-step of every EM model — TTCAM, ITCAM,
``PartitionedTTCAM``, the UT/TT baselines and the shared-topic,
background, drift and social variants: each model builds its kernel
(the last two define small ones in their own modules), hands it to a
:class:`BlockedEStep`, and applies its M-step to the returned statistics.
The dense, one-formula-per-equation version lives in
``tests/core/reference_em.py`` as the oracle the kernels are tested
against.

Numerical contract
------------------
For a fixed configuration the engine is **bit-deterministic**: the block
grid is static and its blocks are folded in order, so a checkpointed run
resumed mid-training finishes bit-identically to an uninterrupted one.
Engine buffers hold no model state, so the engine composes with the
checkpoint/health runtime unchanged. Each model records the grid
(:attr:`BlockedEStep.grid`) in its checkpoint metadata, so a resume under
a different grid is refused instead of silently voiding that guarantee.

Against the dense test oracle, and between different ``block_size``
settings, the results agree to ``allclose(atol=1e-12)`` rather than
bit-for-bit: blocking re-associates the floating-point summation of the
sufficient statistics ((a+b)+c versus a+(b+c)), which perturbs sums by a
few ULPs. The test suite pins both contracts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..tooling.sanitize import Sanitizer, check_finite, check_state, sanitize_enabled
from ..typing import (
    AnyArray,
    ArrayState,
    FloatArray,
    IntArray,
    Workspace,
    bit_deterministic,
    hot_path,
)
from .em import EPS, ScatterPlan, scatter_sum_1d

#: Default block length when the config leaves ``block_size`` unset.
#: 32k rows × 64 topics × 8 bytes ≈ 16 MB of hot workspace — comfortably
#: cache/bandwidth-friendly while keeping per-block Python overhead
#: negligible.
DEFAULT_BLOCK_SIZE = 32_768

#: An E-step over a fixed dataset: parameter state → (sufficient
#: statistics, log-likelihood). :meth:`BlockedEStep.compute` is one.
EStep = Callable[[ArrayState], tuple[ArrayState, float]]


@dataclass(frozen=True)
class EMEngineConfig:
    """Execution knobs shared by every model's blocked EM engine.

    Parameters
    ----------
    block_size:
        Rating rows processed per block. ``None`` uses
        :data:`DEFAULT_BLOCK_SIZE` (capped at the dataset size). Smaller
        blocks cap peak workspace memory; larger blocks amortise
        per-block dispatch overhead.
    sanitize:
        Opt into the runtime sanitizer (:mod:`repro.tooling.sanitize`):
        the state entering each E-step is checked for NaN/Inf and simplex
        violations, and the statistics leaving it for NaN/Inf. Also
        enabled process-wide by ``TCAM_SANITIZE=1``. Off (the default)
        adds no work beyond one ``None`` test per E-step.
    """

    block_size: int | None = None
    sanitize: bool = False

    def __post_init__(self) -> None:
        if self.block_size is not None and self.block_size <= 0:
            raise ValueError(f"block_size must be positive, got {self.block_size}")

    def resolved_block_size(self, num_ratings: int) -> int:
        """The effective block length for a dataset of ``num_ratings`` rows."""
        size = self.block_size if self.block_size is not None else DEFAULT_BLOCK_SIZE
        return max(1, min(size, max(num_ratings, 1)))


class _Kernel:
    """Shared plumbing of the per-model blocked E-step kernels.

    A kernel owns the (immutable) rating triples plus the model
    dimensions, and exposes four hooks to :class:`BlockedEStep`:

    * :meth:`plan_blocks` — build the scatter plans of a block grid,
      once, before the first pass over it;
    * :meth:`stat_arrays` — freshly zeroed accumulator arrays;
    * :meth:`make_workspace` — preallocated scratch buffers sized to one
      block;
    * :meth:`accumulate` — fold rows ``[lo, hi)`` into a stats set and
      return the block's log-likelihood contribution.
    """

    def __init__(
        self,
        users: IntArray,
        intervals: IntArray,
        items: IntArray,
        scores: FloatArray,
    ) -> None:
        self.u = users
        self.t = intervals
        self.v = items
        self.c = scores
        self._plans: dict[tuple[int, int], tuple[ScatterPlan, ...]] = {}

    @property
    def num_ratings(self) -> int:
        """Number of rating triples the kernel iterates."""
        return int(self.c.shape[0])

    def _scalars(self, capacity: int, names: tuple[str, ...]) -> dict[str, AnyArray]:
        """One ``(capacity,)`` scratch vector per name."""
        return {name: np.empty(capacity) for name in names}

    def plan_blocks(self, blocks: list[tuple[int, int]]) -> None:
        """Build the scatter plans of every block not planned yet.

        Cold and idempotent: :class:`BlockedEStep` calls it at
        construction, so a second engine over the same kernel and grid
        (a shard mapper's throwaway one) finds its plans and builds none.
        """
        for lo, hi in blocks:
            if (lo, hi) not in self._plans:
                self._plans[lo, hi] = self._block_plans(lo, hi)

    def _block_plans(self, lo: int, hi: int) -> tuple[ScatterPlan, ...]:
        """One plan per index array the kernel scatters rows ``[lo, hi)`` through."""
        raise NotImplementedError

    def stat_arrays(self) -> ArrayState:
        raise NotImplementedError

    def make_workspace(self, capacity: int) -> Workspace:
        raise NotImplementedError

    def accumulate(
        self,
        state: ArrayState,
        lo: int,
        hi: int,
        ws: Workspace,
        stats: ArrayState,
    ) -> float:
        raise NotImplementedError


class TTCAMKernel(_Kernel):
    """Blocked E-step of TTCAM (Equations 4–6 and 13–14, plus the λ and
    sufficient-statistics numerators of Equations 8, 9, 11, 15, 16).

    ``interest_rows`` — ``(index, count)`` — names the ``θ`` row each
    rating reads and whose ``theta_num`` row it feeds, out of ``count``
    rows: ``DriftTTCAM``'s (epoch, user) rows. It defaults to
    ``(users, N)``, TTCAM itself; ``λ`` stays keyed by user either way.
    """

    def __init__(
        self,
        users: IntArray,
        intervals: IntArray,
        items: IntArray,
        scores: FloatArray,
        shape: tuple[int, int, int],
        k1: int,
        k2: int,
        interest_rows: tuple[IntArray, int] | None = None,
    ) -> None:
        super().__init__(users, intervals, items, scores)
        self.n, self.t_dim, self.v_dim = shape
        self.k1, self.k2 = k1, k2
        self.rows, self.num_rows = interest_rows or (users, self.n)

    def stat_arrays(self) -> ArrayState:
        """Zeroed TTCAM sufficient-statistic accumulators."""
        return {
            "theta_num": np.zeros((self.num_rows, self.k1)),
            "phi_num": np.zeros((self.v_dim, self.k1)),
            "theta_time_num": np.zeros((self.t_dim, self.k2)),
            "phi_time_num": np.zeros((self.v_dim, self.k2)),
            "lam_num": np.zeros(self.n),
        }

    def _block_plans(self, lo: int, hi: int) -> tuple[ScatterPlan, ...]:
        """The block's by-interest-row, by-item and by-interval scatters."""
        return (
            ScatterPlan(self.rows[lo:hi], self.num_rows),
            ScatterPlan(self.v[lo:hi], self.v_dim),
            ScatterPlan(self.t[lo:hi], self.t_dim),
        )

    def make_workspace(self, capacity: int) -> Workspace:
        """Preallocated scratch buffers for ``capacity`` rows."""
        ws: Workspace = {
            "z": np.empty((capacity, self.k1)),
            "phi_v": np.empty((self.k1, capacity)),
            "x": np.empty((capacity, self.k2)),
            "phi_time_v": np.empty((self.k2, capacity)),
        }
        ws.update(self._scalars(capacity, ("p_int", "p_ctx", "lam", "den", "ps1", "a", "b")))
        return ws

    @hot_path
    def accumulate(
        self, state: ArrayState, lo: int, hi: int, ws: Workspace, stats: ArrayState
    ) -> float:
        """Fold rows ``[lo, hi)`` into ``stats``; return the block's LL."""
        u, t, v, c = self.u[lo:hi], self.t[lo:hi], self.v[lo:hi], self.c[lo:hi]
        b = hi - lo
        z = ws["z"][:b]
        phi_v = ws["phi_v"][:, :b]
        x = ws["x"][:b]
        phi_time_v = ws["phi_time_v"][:, :b]
        p_int, p_ctx = ws["p_int"][:b], ws["p_ctx"][:b]
        lam_r, den, ps1 = ws["lam"][:b], ws["den"][:b], ws["ps1"][:b]
        s1, s2 = ws["a"][:b], ws["b"][:b]
        by_row, by_item, by_interval = self._plans[lo, hi]

        # joint_z[r, z] = θ[u_r, z] · φ[z, v_r] (numerator of Eq. 5)
        np.take(state["theta"], self.rows[lo:hi], axis=0, out=z, mode="clip")
        np.take(state["phi"], v, axis=1, out=phi_v, mode="clip")
        z *= phi_v.T
        z.sum(axis=1, out=p_int)  # P(v|θ_u), Eq. 2
        # joint_x[r, x] = θ′[t_r, x] · φ′[x, v_r] (numerator of Eq. 13)
        np.take(state["theta_time"], t, axis=0, out=x, mode="clip")
        np.take(state["phi_time"], v, axis=1, out=phi_time_v, mode="clip")
        x *= phi_time_v.T
        x.sum(axis=1, out=p_ctx)  # P(v|θ′_t), Eq. 12
        np.take(state["lambda_u"], u, out=lam_r, mode="clip")

        np.multiply(lam_r, p_int, out=s1)  # λ_u · P(v|θ_u)
        np.subtract(1.0, lam_r, out=s2)
        s2 *= p_ctx  # (1-λ_u) · P(v|θ′_t)
        np.add(s1, s2, out=den)
        den += EPS
        np.divide(s1, den, out=ps1)  # P(s=1|u,t,v), Eq. 4
        np.log(den, out=s2)
        log_likelihood = float(np.dot(c, s2))

        np.multiply(c, ps1, out=s1)  # c · P(s=1|·), the λ numerator (Eq. 11)
        scatter_sum_1d(u, s1, self.n, out=stats["lam_num"])
        # Fused c · resp_z: scale joint_z by c·ps1 / (P_int + EPS) in place.
        np.add(p_int, EPS, out=s2)
        np.divide(s1, s2, out=s2)
        z *= s2[:, None]
        by_row.sum(z, out=stats["theta_num"])
        by_item.sum(z, out=stats["phi_num"])
        # Fused c · resp_x with c·(1-ps1) = c - c·ps1.
        np.subtract(c, s1, out=s1)
        np.add(p_ctx, EPS, out=s2)
        np.divide(s1, s2, out=s2)
        x *= s2[:, None]
        by_interval.sum(x, out=stats["theta_time_num"])
        by_item.sum(x, out=stats["phi_time_num"])
        return log_likelihood


class ITCAMKernel(_Kernel):
    """Blocked E-step of ITCAM (Equations 4–6 plus the numerators of
    Equations 8–11; the temporal context is a direct per-interval item
    distribution, so its statistic is a ``(T·V,)`` flat count)."""

    def __init__(
        self,
        users: IntArray,
        intervals: IntArray,
        items: IntArray,
        scores: FloatArray,
        shape: tuple[int, int, int],
        k1: int,
    ) -> None:
        super().__init__(users, intervals, items, scores)
        self.n, self.t_dim, self.v_dim = shape
        self.k1 = k1

    def stat_arrays(self) -> ArrayState:
        """Zeroed ITCAM sufficient-statistic accumulators."""
        return {
            "theta_num": np.zeros((self.n, self.k1)),
            "phi_num": np.zeros((self.v_dim, self.k1)),
            "time_num": np.zeros(self.t_dim * self.v_dim),
            "lam_num": np.zeros(self.n),
        }

    def _block_plans(self, lo: int, hi: int) -> tuple[ScatterPlan, ...]:
        """The block's by-user and by-item scatters."""
        return ScatterPlan(self.u[lo:hi], self.n), ScatterPlan(self.v[lo:hi], self.v_dim)

    def make_workspace(self, capacity: int) -> Workspace:
        """Preallocated scratch buffers for ``capacity`` rows."""
        ws: Workspace = {
            "z": np.empty((capacity, self.k1)),
            "phi_v": np.empty((self.k1, capacity)),
            "tv": np.empty(capacity, dtype=np.int64),
        }
        ws.update(self._scalars(capacity, ("p_int", "p_ctx", "lam", "den", "ps1", "a", "b")))
        return ws

    @hot_path
    def accumulate(
        self, state: ArrayState, lo: int, hi: int, ws: Workspace, stats: ArrayState
    ) -> float:
        """Fold rows ``[lo, hi)`` into ``stats``; return the block's LL."""
        u, t, v, c = self.u[lo:hi], self.t[lo:hi], self.v[lo:hi], self.c[lo:hi]
        b = hi - lo
        z = ws["z"][:b]
        phi_v = ws["phi_v"][:, :b]
        tv = ws["tv"][:b]
        p_int, p_ctx = ws["p_int"][:b], ws["p_ctx"][:b]
        lam_r, den, ps1 = ws["lam"][:b], ws["den"][:b], ws["ps1"][:b]
        s1, s2 = ws["a"][:b], ws["b"][:b]
        by_user, by_item = self._plans[lo, hi]

        np.take(state["theta"], u, axis=0, out=z, mode="clip")
        np.take(state["phi"], v, axis=1, out=phi_v, mode="clip")
        z *= phi_v.T
        z.sum(axis=1, out=p_int)
        # P(v|θ′_t) gathered through the flat (t·V + v) index, which the
        # time-counts scatter below then reuses.
        np.multiply(t, self.v_dim, out=tv)
        tv += v
        np.take(state["theta_time"].ravel(), tv, out=p_ctx, mode="clip")
        np.take(state["lambda_u"], u, out=lam_r, mode="clip")

        np.multiply(lam_r, p_int, out=s1)
        np.subtract(1.0, lam_r, out=s2)
        s2 *= p_ctx
        np.add(s1, s2, out=den)
        den += EPS
        np.divide(s1, den, out=ps1)
        np.log(den, out=s2)
        log_likelihood = float(np.dot(c, s2))

        np.multiply(c, ps1, out=s1)  # c·ps1
        scatter_sum_1d(u, s1, self.n, out=stats["lam_num"])
        np.add(p_int, EPS, out=s2)
        np.divide(s1, s2, out=s2)
        z *= s2[:, None]
        by_user.sum(z, out=stats["theta_num"])
        by_item.sum(z, out=stats["phi_num"])
        np.subtract(c, s1, out=s1)  # c·(1-ps1)
        scatter_sum_1d(tv, s1, self.t_dim * self.v_dim, out=stats["time_num"])
        return log_likelihood


class UserTopicKernel(_Kernel):
    """Blocked E-step of the UT baseline (background-smoothed PLSA over
    user documents; time is ignored)."""

    #: State-dict keys of the document-topic / topic-item matrices.
    doc_topics_key = "theta"
    topic_items_key = "phi"

    def __init__(
        self,
        users: IntArray,
        intervals: IntArray,
        items: IntArray,
        scores: FloatArray,
        shape: tuple[int, int, int],
        k: int,
        background: FloatArray,
        background_weight: float,
    ) -> None:
        super().__init__(users, intervals, items, scores)
        self.n, self.t_dim, self.v_dim = shape
        self.k = k
        self.background = background
        self.background_weight = background_weight

    def stat_arrays(self) -> ArrayState:
        """Zeroed PLSA sufficient-statistic accumulators."""
        return {
            "theta_num": np.zeros((self.stat_arrays_rows(), self.k)),
            "phi_num": np.zeros((self.v_dim, self.k)),
        }

    def _block_plans(self, lo: int, hi: int) -> tuple[ScatterPlan, ...]:
        """The block's by-document and by-item scatters."""
        return (
            ScatterPlan(self._doc_ids(lo, hi), self.stat_arrays_rows()),
            ScatterPlan(self.v[lo:hi], self.v_dim),
        )

    def make_workspace(self, capacity: int) -> Workspace:
        """Preallocated scratch buffers for ``capacity`` rows."""
        ws: Workspace = {
            "z": np.empty((capacity, self.k)),
            "phi_v": np.empty((self.k, capacity)),
        }
        ws.update(self._scalars(capacity, ("p", "den", "a")))
        return ws

    def _doc_ids(self, lo: int, hi: int) -> IntArray:
        return self.u[lo:hi]

    @hot_path
    def accumulate(
        self, state: ArrayState, lo: int, hi: int, ws: Workspace, stats: ArrayState
    ) -> float:
        """Fold rows ``[lo, hi)`` into ``stats``; return the block's LL."""
        doc = self._doc_ids(lo, hi)
        v, c = self.v[lo:hi], self.c[lo:hi]
        b = hi - lo
        z = ws["z"][:b]
        phi_v = ws["phi_v"][:, :b]
        p, den, s1 = ws["p"][:b], ws["den"][:b], ws["a"][:b]
        by_doc, by_item = self._plans[lo, hi]

        np.take(state[self.doc_topics_key], doc, axis=0, out=z, mode="clip")
        np.take(state[self.topic_items_key], v, axis=1, out=phi_v, mode="clip")
        z *= phi_v.T
        z *= 1.0 - self.background_weight
        z.sum(axis=1, out=p)
        np.take(self.background, v, out=s1, mode="clip")
        s1 *= self.background_weight
        np.add(s1, p, out=den)
        den += EPS
        np.log(den, out=s1)
        log_likelihood = float(np.dot(c, s1))

        # Fused c · resp = joint · (c / denom).
        np.divide(c, den, out=s1)
        z *= s1[:, None]
        by_doc.sum(z, out=stats["theta_num"])
        by_item.sum(z, out=stats["phi_num"])
        return log_likelihood

    def stat_arrays_rows(self) -> int:
        """Number of document rows (users for UT, intervals for TT)."""
        return self.n


class TimeTopicKernel(UserTopicKernel):
    """Blocked E-step of the TT baseline — the UT kernel with interval
    documents instead of user documents (``theta_time`` keyed by ``t``)."""

    doc_topics_key = "theta_time"
    topic_items_key = "phi_time"

    def _doc_ids(self, lo: int, hi: int) -> IntArray:
        return self.t[lo:hi]

    def stat_arrays_rows(self) -> int:
        """Number of document rows — intervals for the TT baseline."""
        return self.t_dim


class BlockedEStep:
    """Blocked E-step executor for one EM fit.

    Built once per fit from a model kernel and an
    :class:`EMEngineConfig`; :meth:`compute` is then called every
    iteration with the current parameter state and returns the sufficient
    statistics plus the iteration's log-likelihood. The kernel's scatter
    plans are built here, at construction; the workspace and statistic
    buffers are allocated at first use and reused for the lifetime of the
    engine — the steady-state iteration performs no ``(R, K)``-sized
    allocations and no index work.

    The block grid is fixed at construction and folded in order, so
    results are a pure function of ``(kernel, config, state)``. See the
    module docstring for the numerical contract.
    """

    def __init__(self, kernel: _Kernel, config: EMEngineConfig) -> None:
        self.kernel = kernel
        self.config = config
        num_ratings = kernel.num_ratings
        if num_ratings == 0:
            raise ValueError("cannot build an engine over zero ratings")
        block = config.resolved_block_size(num_ratings)
        self.blocks = [
            (lo, min(lo + block, num_ratings))
            for lo in range(0, num_ratings, block)
        ]
        self.block_size = block
        kernel.plan_blocks(self.blocks)
        self._buffers: tuple[Workspace, ArrayState] | None = None
        self._sanitizer = (
            Sanitizer("engine") if config.sanitize or sanitize_enabled() else None
        )

    @property
    def num_blocks(self) -> int:
        """Number of blocks in the fixed grid."""
        return len(self.blocks)

    @property
    def grid(self) -> dict[str, object]:
        """The resolved block size — what fixes the summation order, and
        so what checkpoint metadata must record. ``workers`` is always 1:
        a checkpoint whose grid names more workers was summed in another
        order and is refused on resume."""
        return {"block_size": self.block_size, "workers": 1}

    def _ensure_buffers(self) -> tuple[Workspace, ArrayState]:
        if self._buffers is None:
            self._buffers = (
                self.kernel.make_workspace(self.block_size),
                self.kernel.stat_arrays(),
            )
        return self._buffers

    @bit_deterministic
    def compute(self, state: ArrayState) -> tuple[ArrayState, float]:
        """One E-step over the full dataset.

        Returns ``(stats, log_likelihood)``. The statistic arrays are the
        engine's internal accumulators — valid until the next
        :meth:`compute` call; callers consume them immediately (the
        models' M-steps allocate fresh parameter arrays from them).
        """
        ws, stats = self._ensure_buffers()
        if self._sanitizer is not None:
            check_state(state)
        for array in stats.values():
            array.fill(0.0)
        log_likelihood = 0.0
        for lo, hi in self.blocks:
            log_likelihood += self.kernel.accumulate(state, lo, hi, ws, stats)
        if self._sanitizer is not None:
            for name, array in stats.items():
                check_finite(f"stats[{name}]", array)
        return stats, log_likelihood
