"""Partitioned (MapReduce-style) EM for TCAM.

Section 3.2.3 of the paper notes that the EM procedure "can be easily
expressed in MapReduce" because the E-step factorises over rating entries:
each mapper computes posterior responsibilities and *partial sufficient
statistics* for its shard of the cuboid, a reducer sums the partials, and
the M-step normalises the sums. This module implements exactly that
decomposition as a :class:`~repro.core.ttcam.TTCAM` whose E-step is a
shard map plus a fixed-order reduce; everything else — initialisation,
the M-step, checkpoint metadata, health invariants, prediction — is the
serial model's. With a fixed seed it reproduces the serial fit up to
floating-point summation order, which the test suite verifies.

The shard map runs sequentially, one shard after another, on one thread:
the point is the *algebraic* decomposition — any map/reduce substrate
can run it.

Like a real MapReduce substrate, the shard map tolerates mapper
failures: a crashed shard is re-executed with exponential backoff (the
mapper is a pure function of the broadcast parameters, so re-execution
is bit-deterministic), and a shard that keeps failing raises
:class:`~repro.robustness.errors.ShardFailedError`.
"""

from __future__ import annotations

import numpy as np

from ..data.cuboid import RatingCuboid
from ..robustness.errors import ShardFailedError
from ..robustness.faults import fault_point
from ..robustness.retry import run_with_retry
from ..typing import ArrayState, FloatArray, IntArray
from .engine import BlockedEStep, EMEngineConfig, EStep, TTCAMKernel
from .ttcam import TTCAM

#: One contiguous slice of cuboid entries: (users, intervals, items, scores).
Shard = tuple[IntArray, IntArray, IntArray, FloatArray]

#: One shard's partial sufficient statistics and log-likelihood.
Partial = tuple[ArrayState, float]


class PartitionedTTCAM(TTCAM):
    """TTCAM fit by partitioned EM (map over shards, reduce, normalise).

    Accepts the same hyper-parameters as :class:`~repro.core.ttcam.TTCAM`
    plus the number of shards and the shard fault-tolerance controls:

    Parameters
    ----------
    num_partitions:
        Contiguous shards the cuboid's entries are split into.
    max_shard_retries:
        Re-executions allowed per shard per iteration before the fit
        fails with :class:`~repro.robustness.errors.ShardFailedError`.
    retry_backoff:
        Base of the deterministic exponential backoff (seconds) between
        shard re-executions.
    engine:
        :class:`~repro.core.engine.EMEngineConfig` of each shard's
        blocked E-step: ``block_size`` and ``sanitize`` apply within the
        shard.
    """

    def __init__(
        self,
        num_user_topics: int = 60,
        num_time_topics: int = 40,
        max_iter: int = 50,
        tol: float = 1e-5,
        smoothing: float = 1e-6,
        weighted: bool = False,
        seed: int = 0,
        num_partitions: int = 4,
        max_shard_retries: int = 2,
        retry_backoff: float = 0.05,
        engine: EMEngineConfig = EMEngineConfig(),
        personalized_lambda: bool = True,
        n_init: int = 1,
    ) -> None:
        super().__init__(
            num_user_topics,
            num_time_topics,
            max_iter=max_iter,
            tol=tol,
            smoothing=smoothing,
            weighted=weighted,
            personalized_lambda=personalized_lambda,
            n_init=n_init,
            seed=seed,
            engine=engine,
        )
        if num_partitions <= 0:
            raise ValueError(f"num_partitions must be positive, got {num_partitions}")
        if max_shard_retries < 0:
            raise ValueError(f"max_shard_retries must be >= 0, got {max_shard_retries}")
        self.num_partitions = num_partitions
        self.max_shard_retries = max_shard_retries
        self.retry_backoff = retry_backoff

    @property
    def name(self) -> str:
        """Display name used in evaluation tables."""
        return "W-TTCAM(partitioned)" if self.weighted else "TTCAM(partitioned)"

    def _build_estep(self, cuboid: RatingCuboid) -> tuple[EStep, dict[str, object]]:
        """Map the shards, reduce their partials in fixed shard order."""
        kernels = [
            TTCAMKernel(*shard, cuboid.shape, self.num_user_topics, self.num_time_topics)
            for shard in self._partition(cuboid)
        ]
        # An engine built over a kernel plans the kernel's scatters. Doing
        # that here, once per shard, leaves the mappers' throwaway engines
        # only immutable plans to share and none to build.
        block_size = max(self._shard_engine(kernel).block_size for kernel in kernels)

        def compute(state: ArrayState) -> Partial:
            partials = self._run_map(kernels, state)
            total, log_likelihood = partials[0]
            for stats, shard_log_likelihood in partials[1:]:
                for name, array in total.items():
                    array += stats[name]
                log_likelihood += shard_log_likelihood
            return total, log_likelihood

        grid: dict[str, object] = {
            "block_size": block_size,
            "workers": 1,
            "partitions": len(kernels),
        }
        return compute, grid

    def _shard_engine(self, kernel: TTCAMKernel) -> BlockedEStep:
        """A fresh engine over one shard."""
        return BlockedEStep(kernel, self.engine)

    def _map_shard(self, kernel: TTCAMKernel, state: ArrayState) -> Partial:
        """E-step + partial sufficient statistics for one shard (the mapper).

        The shard's kernel — its triples and scatter plans — is built once
        per fit and only read here. A throwaway engine (the buffers) per
        call keeps the mapper pure, so a re-executed attempt starts from
        nothing the failed one left behind, while still reusing buffers
        across the shard's blocks.
        """
        return self._shard_engine(kernel).compute(state)

    def _partition(self, cuboid: RatingCuboid) -> list[Shard]:
        """Split the cuboid's entries into contiguous shards."""
        bounds = np.linspace(0, cuboid.nnz, self.num_partitions + 1).astype(int)
        shards: list[Shard] = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi > lo:
                shards.append(
                    (
                        cuboid.users[lo:hi],
                        cuboid.intervals[lo:hi],
                        cuboid.items[lo:hi],
                        cuboid.scores[lo:hi],
                    )
                )
        return shards

    def _run_map(self, kernels: list[TTCAMKernel], state: ArrayState) -> list[Partial]:
        """Run the mapper over all shards in order, with per-shard retry.

        The mapper is a pure function of the broadcast parameters, so a
        re-executed shard reproduces its statistics bit-for-bit and the
        reduce (performed in fixed shard order by the caller) is
        unaffected by which attempt finally succeeded.
        """

        def map_with_retry(index: int, kernel: TTCAMKernel) -> Partial:
            def attempt_shard(attempt: int) -> Partial:
                fault_point("parallel.shard", shard=index, attempt=attempt)
                return self._map_shard(kernel, state)

            return run_with_retry(
                attempt_shard,
                retries=self.max_shard_retries,
                backoff=self.retry_backoff,
                label=f"E-step shard {index}",
                error=ShardFailedError,
            )

        return [map_with_retry(index, kernel) for index, kernel in enumerate(kernels)]
