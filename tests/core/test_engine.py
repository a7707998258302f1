"""Tests of the blocked EM execution engine.

Two contracts are pinned (see the :mod:`repro.core.engine` docstring):

* versus the dense oracle (:mod:`tests.core.reference_em`) every kernel
  and every fitted model agrees to ``allclose(atol=1e-12)`` for any block
  grid — blocking re-associates floating-point sums, so bit-identity
  against the oracle or across grids is not promised;
* for a **fixed** configuration the engine is bit-deterministic, across
  repeated calls and fresh engine instances — and therefore under
  checkpoint/resume, which refuses a checkpoint written under another
  grid.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import TimeTopicModel, UserTopicModel
from repro.core import ITCAM, TTCAM, PartitionedTTCAM
from repro.core.engine import (
    DEFAULT_BLOCK_SIZE,
    BlockedEStep,
    EMEngineConfig,
    ITCAMKernel,
    TimeTopicKernel,
    TTCAMKernel,
    UserTopicKernel,
)
from repro.robustness import (
    CheckpointError,
    CheckpointManager,
    FaultInjector,
    InjectedFault,
)
from tests.core import reference_em as ref

ATOL = 1e-12


class TestEMEngineConfig:
    def test_defaults(self):
        config = EMEngineConfig()
        assert config.block_size is None

    def test_sanitize_is_not_an_option(self):
        # TCAM_SANITIZE is the one sanitizer switch; the config has none.
        with pytest.raises(TypeError, match="sanitize"):
            EMEngineConfig(sanitize=True)

    def test_threads_is_not_an_option(self):
        # The E-step runs on one thread; there is no knob to ask for more.
        with pytest.raises(TypeError, match="threads"):
            EMEngineConfig(threads=2)

    @pytest.mark.parametrize("block_size", [0, -1])
    def test_nonpositive_block_size_rejected(self, block_size):
        with pytest.raises(ValueError, match="block_size"):
            EMEngineConfig(block_size=block_size)

    def test_resolved_block_size_default_caps_at_dataset(self):
        config = EMEngineConfig()
        assert config.resolved_block_size(100) == 100
        assert config.resolved_block_size(10**9) == DEFAULT_BLOCK_SIZE

    def test_resolved_block_size_explicit(self):
        assert EMEngineConfig(block_size=64).resolved_block_size(1000) == 64
        assert EMEngineConfig(block_size=64).resolved_block_size(10) == 10


LAM_B = 0.1  # background weight of the UT/TT problems


def _random_problem(seed, num_ratings):
    """Random triples + a random valid state covering every model family."""
    rng = np.random.default_rng(seed)
    n, t_dim, v_dim, k1, k2 = 11, 5, 17, 3, 4
    u = rng.integers(0, n, num_ratings)
    t = rng.integers(0, t_dim, num_ratings)
    v = rng.integers(0, v_dim, num_ratings)
    c = rng.random(num_ratings) + 0.25
    state = {
        "theta": rng.dirichlet(np.ones(k1), size=n),
        "phi": rng.dirichlet(np.ones(v_dim), size=k1),
        "theta_time": rng.dirichlet(np.ones(k2), size=t_dim),
        "phi_time": rng.dirichlet(np.ones(v_dim), size=k2),
        "lambda_u": rng.random(n),
    }
    return (u, t, v, c), (n, t_dim, v_dim), (k1, k2), state


def _ttcam_case(triples, shape, topics, state):
    return TTCAMKernel(*triples, shape, *topics), state, ref.ttcam_estep(triples, shape, state)


def _itcam_case(triples, shape, topics, state):
    # ITCAM's temporal context is a per-interval *item* distribution.
    rng = np.random.default_rng(int(triples[3].shape[0]))
    state = dict(state, theta_time=rng.dirichlet(np.ones(shape[2]), size=shape[1]))
    expected, ll = ref.itcam_estep(triples, shape, state)
    expected["time_num"] = expected["time_num"].ravel()  # the kernel keeps it flat
    return ITCAMKernel(*triples, shape, topics[0]), state, (expected, ll)


def _ut_case(triples, shape, topics, state):
    background = ref.item_background(triples, shape)
    kernel = UserTopicKernel(*triples, shape, topics[0], background, LAM_B)
    return kernel, state, ref.ut_estep(triples, shape, state, background, LAM_B)


def _tt_case(triples, shape, topics, state):
    background = ref.item_background(triples, shape)
    kernel = TimeTopicKernel(*triples, shape, topics[1], background, LAM_B)
    return kernel, state, ref.tt_estep(triples, shape, state, background, LAM_B)


CASES = {"ttcam": _ttcam_case, "itcam": _itcam_case, "ut": _ut_case, "tt": _tt_case}


def _assert_matches_oracle(case, seed, num_ratings, config):
    kernel, state, (expected, expected_ll) = CASES[case](*_random_problem(seed, num_ratings))
    stats, ll = BlockedEStep(kernel, config).compute(state)
    assert ll == pytest.approx(expected_ll, abs=1e-9)
    assert stats.keys() == expected.keys()
    for name, array in expected.items():
        np.testing.assert_allclose(stats[name], array, rtol=0, atol=ATOL, err_msg=name)


def _engine_estep(triples, shape, topics, state, config):
    return BlockedEStep(TTCAMKernel(*triples, shape, *topics), config).compute(state)


class TestBlockedEquivalence:
    """Property: every kernel's blocked statistics match the dense oracle
    for any block grid — blocks smaller than, equal to and larger than R,
    R not divisible by the block size."""

    @settings(max_examples=100, deadline=None)
    @given(
        case=st.sampled_from(sorted(CASES)),
        seed=st.integers(0, 2**31 - 1),
        num_ratings=st.integers(1, 400),
        block_size=st.one_of(st.none(), st.integers(1, 500)),
    )
    def test_matches_reference(self, case, seed, num_ratings, block_size):
        config = EMEngineConfig(block_size=block_size)
        _assert_matches_oracle(case, seed, num_ratings, config)

    @pytest.mark.parametrize(
        "block_size",
        [1, 7, 100, 250, 251, 1000],  # < R, R-not-divisible, = R, > R
    )
    def test_block_grid_edge_cases(self, block_size):
        for case in CASES:
            _assert_matches_oracle(case, 3, 250, EMEngineConfig(block_size=block_size))

    def test_zero_ratings_rejected(self):
        triples, shape, topics, _ = _random_problem(0, 1)
        empty = tuple(arr[:0] for arr in triples)
        kernel = TTCAMKernel(*empty, shape, *topics)
        with pytest.raises(ValueError, match="zero ratings"):
            BlockedEStep(kernel, EMEngineConfig())


class TestDeterminism:
    def test_repeated_compute_is_bit_identical(self):
        triples, shape, topics, state = _random_problem(9, 300)
        config = EMEngineConfig(block_size=64)
        kernel = TTCAMKernel(*triples, shape, *topics)
        estep = BlockedEStep(kernel, config)
        first, ll1 = estep.compute(state)
        first = {name: array.copy() for name, array in first.items()}
        second, ll2 = estep.compute(state)
        assert ll1 == ll2
        for name, array in first.items():
            np.testing.assert_array_equal(array, second[name], err_msg=name)

    def test_fresh_engine_is_bit_identical(self):
        triples, shape, topics, state = _random_problem(9, 300)
        config = EMEngineConfig(block_size=64)
        a, ll_a = _engine_estep(triples, shape, topics, state, config)
        b, ll_b = _engine_estep(triples, shape, topics, state, config)
        assert ll_a == ll_b
        for name in a:
            np.testing.assert_array_equal(a[name], b[name], err_msg=name)


ENGINE = EMEngineConfig(block_size=500)
SMOOTHING = 1e-6  # the models' default


def _triples(cuboid):
    return cuboid.users, cuboid.intervals, cuboid.items, cuboid.scores


def _ttcam_oracle(cuboid, k1, k2, seed, max_iter, personalized_lambda=True):
    """Reference TTCAM fit from the model's own seeded initialisation."""
    triples, (n, t_dim, v_dim) = _triples(cuboid), cuboid.shape
    init = ref.seeded_init(
        seed,
        {"theta": (n, k1), "phi": (k1, v_dim), "theta_time": (t_dim, k2), "phi_time": (k2, v_dim)},
        lambda_users=n,
    )
    return ref.run_reference_em(
        init,
        lambda state: ref.ttcam_estep(triples, cuboid.shape, state),
        lambda stats: ref.ttcam_mstep(
            stats, triples, cuboid.shape, SMOOTHING, personalized_lambda
        ),
        max_iter=max_iter,
    )


def _assert_state_close(expected, actual, atol=ATOL):
    """``actual`` is a params object or model exposing ``name`` / ``name_``."""
    for name, array in expected.items():
        fitted = getattr(actual, name, None)
        if fitted is None:
            fitted = getattr(actual, name + "_")
        np.testing.assert_allclose(fitted, array, rtol=0, atol=atol, err_msg=name)


class TestFittedModelEquivalence:
    """Full fits through the engine agree with the reference EM loop run
    from the same seeded initialisation."""

    def test_ttcam(self, tiny_cuboid):
        cuboid, _ = tiny_cuboid
        blocked = TTCAM(
            num_user_topics=3, num_time_topics=3, max_iter=12, seed=7, engine=ENGINE
        ).fit(cuboid)
        expected, trace = _ttcam_oracle(cuboid, 3, 3, seed=7, max_iter=12)
        _assert_state_close(expected, blocked.params_)
        np.testing.assert_allclose(trace, blocked.trace_.log_likelihood, rtol=1e-12)

    def test_ttcam_global_lambda(self, tiny_cuboid):
        cuboid, _ = tiny_cuboid
        blocked = TTCAM(
            num_user_topics=3,
            num_time_topics=3,
            max_iter=10,
            seed=7,
            personalized_lambda=False,
            engine=ENGINE,
        ).fit(cuboid)
        expected, _ = _ttcam_oracle(
            cuboid, 3, 3, seed=7, max_iter=10, personalized_lambda=False
        )
        _assert_state_close(expected, blocked.params_)
        assert np.ptp(blocked.params_.lambda_u) == 0.0  # one λ for everyone

    def test_itcam(self, tiny_cuboid):
        cuboid, _ = tiny_cuboid
        triples, (n, t_dim, v_dim) = _triples(cuboid), cuboid.shape
        blocked = ITCAM(num_user_topics=3, max_iter=12, seed=3, engine=ENGINE).fit(cuboid)
        init = ref.seeded_init(
            3, {"theta": (n, 3), "phi": (3, v_dim), "theta_time": (t_dim, v_dim)}, lambda_users=n
        )
        expected, trace = ref.run_reference_em(
            init,
            lambda state: ref.itcam_estep(triples, cuboid.shape, state),
            lambda stats: ref.itcam_mstep(stats, triples, cuboid.shape, SMOOTHING),
            max_iter=12,
        )
        _assert_state_close(expected, blocked.params_)
        np.testing.assert_allclose(trace, blocked.trace_.log_likelihood, rtol=1e-12)

    @pytest.mark.parametrize(
        "model_cls, attrs",
        [
            (UserTopicModel, ("theta", "phi")),
            (TimeTopicModel, ("theta_time", "phi_time")),
        ],
    )
    def test_baselines(self, tiny_cuboid, model_cls, attrs):
        cuboid, _ = tiny_cuboid
        triples, (n, t_dim, v_dim) = _triples(cuboid), cuboid.shape
        if model_cls is UserTopicModel:
            estep, mstep, num_docs = ref.ut_estep, ref.ut_mstep, n
        else:
            estep, mstep, num_docs = ref.tt_estep, ref.tt_mstep, t_dim
        blocked = model_cls(num_topics=4, max_iter=12, seed=5, engine=ENGINE).fit(cuboid)
        background = ref.item_background(triples, cuboid.shape)
        expected, trace = ref.run_reference_em(
            ref.seeded_init(5, {attrs[0]: (num_docs, 4), attrs[1]: (4, v_dim)}),
            lambda state: estep(triples, cuboid.shape, state, background, LAM_B),
            lambda stats: mstep(stats, SMOOTHING),
            max_iter=12,
        )
        _assert_state_close(expected, blocked)
        np.testing.assert_allclose(trace, blocked.trace_.log_likelihood, rtol=1e-12)

    def test_partitioned_ttcam(self, tiny_cuboid):
        cuboid, _ = tiny_cuboid
        blocked = PartitionedTTCAM(
            num_user_topics=3,
            num_time_topics=3,
            max_iter=8,
            seed=7,
            num_partitions=3,
            engine=EMEngineConfig(block_size=200),
        ).fit(cuboid)
        expected, _ = _ttcam_oracle(cuboid, 3, 3, seed=7, max_iter=8)
        # Shards re-associate sums on top of the blocks, so the partitioned
        # contract is a notch looser than the single-model 1e-12.
        _assert_state_close(expected, blocked.params_, atol=1e-11)


@pytest.mark.faults
class TestResumeWithEngine:
    """Checkpoint/resume under the engine keeps PR 1's bit-identity."""

    @staticmethod
    def _make(**engine):
        return TTCAM(
            num_user_topics=3,
            num_time_topics=3,
            max_iter=20,
            seed=7,
            engine=EMEngineConfig(**engine),
        )

    def _interrupted(self, cuboid, directory, **engine):
        manager = CheckpointManager(directory, every=3)
        with FaultInjector() as chaos:
            chaos.crash("em.iteration", iteration=7)
            with pytest.raises(InjectedFault):
                self._make(**engine).fit(cuboid, checkpoint=manager)
        assert chaos.fired == 1
        return manager

    def test_resumed_engine_run_is_bit_identical(self, tiny_cuboid, tmp_path):
        cuboid, _ = tiny_cuboid
        grid = dict(block_size=400)
        baseline = self._make(**grid).fit(cuboid)
        manager = self._interrupted(cuboid, tmp_path, **grid)

        resumed = self._make(**grid).fit(cuboid, resume_from=manager)
        for name in ("theta", "phi", "theta_time", "phi_time", "lambda_u"):
            np.testing.assert_array_equal(
                getattr(baseline.params_, name),
                getattr(resumed.params_, name),
                err_msg=name,
            )
        assert resumed.trace_.log_likelihood == baseline.trace_.log_likelihood

    @pytest.mark.parametrize("grid", [dict(block_size=200), dict(block_size=100)])
    def test_resume_under_another_grid_is_refused(self, tiny_cuboid, tmp_path, grid):
        # Another grid sums in another order: the resumed run would be
        # bit-equal to neither uninterrupted run, so it must not start.
        cuboid, _ = tiny_cuboid
        manager = self._interrupted(cuboid, tmp_path, block_size=400)
        with pytest.raises(CheckpointError, match="different configuration"):
            self._make(**grid).fit(cuboid, resume_from=manager)

    def test_threaded_checkpoint_is_refused(self, tiny_cuboid, tmp_path):
        # A fit with two E-step workers summed each iteration's statistics
        # as two partials: its checkpoint records "workers": 2, and no
        # serial run lands on its bits, so resuming from it must not start.
        cuboid, _ = tiny_cuboid
        manager = self._interrupted(cuboid, tmp_path, block_size=400)
        latest = manager.latest()
        assert manager.meta["workers"] == 1
        manager.meta["workers"] = 2
        manager.save(latest.arrays, latest.iteration, latest.log_likelihood)
        with pytest.raises(CheckpointError, match="different configuration"):
            self._make(block_size=400).fit(cuboid, resume_from=manager)

    def test_checkpoint_without_grid_keys_still_resumes(self, tiny_cuboid, tmp_path):
        # Checkpoints written before the grid (PR 14) or the smoothing,
        # personalized_lambda and cuboid shape/nnz keys (EMModel) were
        # recorded carry none of them; absent keys are not a mismatch.
        cuboid, _ = tiny_cuboid
        manager = self._interrupted(cuboid, tmp_path, block_size=400)
        latest = manager.latest()
        for key in (
            "block_size", "workers", "smoothing", "personalized_lambda", "shape", "nnz"
        ):
            del manager.meta[key]
        assert set(manager.meta) == {"model", "k1", "k2", "weighted", "seed"}
        manager.save(latest.arrays, latest.iteration, latest.log_likelihood)
        resumed = self._make(block_size=200).fit(cuboid, resume_from=manager)
        assert resumed.trace_.log_likelihood[: latest.iteration] == latest.log_likelihood
