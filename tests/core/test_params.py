"""Tests for the fitted-parameter containers."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ITCAM, TTCAM
from repro.core.em import EPS
from repro.core.params import VARIANTS, ITCAMParameters, TCAMParameters, TTCAMParameters


def uniform(rows, cols):
    return np.full((rows, cols), 1.0 / cols)


def make_itcam(n=4, k1=3, t=5, v=6):
    return ITCAMParameters(
        theta=uniform(n, k1),
        phi=uniform(k1, v),
        theta_time=uniform(t, v),
        lambda_u=np.full(n, 0.5),
    )


def make_ttcam(n=4, k1=3, k2=2, t=5, v=6):
    return TTCAMParameters(
        theta=uniform(n, k1),
        phi=uniform(k1, v),
        theta_time=uniform(t, k2),
        phi_time=uniform(k2, v),
        lambda_u=np.full(n, 0.5),
    )


class TestValidation:
    def test_itcam_accepts_valid(self):
        params = make_itcam()
        assert params.num_users == 4
        assert params.num_items == 6
        assert params.num_intervals == 5
        assert params.num_user_topics == 3

    def test_rejects_unnormalised_rows(self):
        theta = uniform(4, 3)
        theta[0] *= 2
        with pytest.raises(ValueError, match="not normalised"):
            ITCAMParameters(
                theta=theta,
                phi=uniform(3, 6),
                theta_time=uniform(5, 6),
                lambda_u=np.full(4, 0.5),
            )

    def test_rejects_negative_probabilities(self):
        phi = uniform(3, 6)
        phi[0, 0] = -0.1
        phi[0, 1] += 0.1 + 1.0 / 6
        phi[0] /= phi[0].sum()
        with pytest.raises(ValueError, match="negative"):
            ITCAMParameters(
                theta=uniform(4, 3),
                phi=phi,
                theta_time=uniform(5, 6),
                lambda_u=np.full(4, 0.5),
            )

    def test_rejects_lambda_outside_unit(self):
        with pytest.raises(ValueError, match="lambda"):
            ITCAMParameters(
                theta=uniform(4, 3),
                phi=uniform(3, 6),
                theta_time=uniform(5, 6),
                lambda_u=np.array([0.5, 1.5, 0.5, 0.5]),
            )

    def test_rejects_dimension_mismatches(self):
        with pytest.raises(ValueError, match="disagree"):
            ITCAMParameters(
                theta=uniform(4, 3),
                phi=uniform(2, 6),  # K mismatch
                theta_time=uniform(5, 6),
                lambda_u=np.full(4, 0.5),
            )
        with pytest.raises(ValueError, match="disagree"):
            TTCAMParameters(
                theta=uniform(4, 3),
                phi=uniform(3, 6),
                theta_time=uniform(5, 2),
                phi_time=uniform(2, 7),  # item-dim mismatch
                lambda_u=np.full(4, 0.5),
            )


class TestScoring:
    def test_itcam_mixture_formula(self):
        params = make_itcam()
        scores = params.score_items(0, 0)
        # Uniform everything → uniform scores.
        np.testing.assert_allclose(scores, 1.0 / 6)

    def test_itcam_lambda_extremes(self):
        params = make_itcam()
        params.lambda_u[0] = 1.0
        np.testing.assert_allclose(params.score_items(0, 0), params.interest_scores(0))
        params.lambda_u[1] = 0.0
        np.testing.assert_allclose(params.score_items(1, 2), params.context_scores(2))

    def test_ttcam_context_via_topics(self):
        params = make_ttcam()
        np.testing.assert_allclose(params.context_scores(0).sum(), 1.0)

    def test_query_space_reproduces_scores(self):
        for params in (make_itcam(), make_ttcam()):
            weights, matrix = params.query_space(1, 2)
            np.testing.assert_allclose(weights @ matrix, params.score_items(1, 2))

    def test_ttcam_query_weights_sum_to_one(self):
        params = make_ttcam()
        weights, _ = params.query_space(0, 0)
        assert weights.sum() == pytest.approx(1.0)


def random_params(variant, seed, n, k1, k2, t, v):
    """A Dirichlet-drawn container of either variant."""
    rng = np.random.default_rng(seed)
    shared = dict(
        theta=rng.dirichlet(np.ones(k1), size=n),
        phi=rng.dirichlet(np.ones(v), size=k1),
        lambda_u=rng.uniform(0.0, 1.0, size=n),
    )
    if variant == "itcam":
        return ITCAMParameters(theta_time=rng.dirichlet(np.ones(v), size=t), **shared)
    return TTCAMParameters(
        theta_time=rng.dirichlet(np.ones(k2), size=t),
        phi_time=rng.dirichlet(np.ones(v), size=k2),
        **shared,
    )


class TestReadSide:
    """Equations 21–22 and 3 have one definition, on the container."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(VARIANTS)),
        st.integers(0, 2**31 - 1),
        st.integers(1, 5),
        st.integers(1, 4),
        st.integers(1, 3),
        st.integers(1, 4),
        st.integers(1, 9),
    )
    def test_query_space_is_weights_and_matrix(self, variant, seed, n, k1, k2, t, v):
        params = random_params(variant, seed, n, k1, k2, t, v)
        user, interval = seed % n, seed % t
        weights, matrix = params.query_space(user, interval)
        assert np.array_equal(weights, params.query_weights(user, interval))
        assert np.array_equal(matrix, params.topic_item_matrix(interval))
        assert matrix.shape == (weights.shape[0], v)
        np.testing.assert_allclose(
            params.score_items(user, interval), weights @ matrix, rtol=0, atol=1e-12
        )
        assert np.array_equal(matrix[:k1], params.phi)
        # one matrix for every interval, or one per interval — and the
        # cache key says which
        static = matrix is params.topic_item_matrix((interval + 1) % t)
        assert static is params.STATIC_MATRIX
        assert params.matrix_cache_key(interval) == ("static" if static else interval)
        grown = params.with_fields(theta_time=np.vstack([params.theta_time] * 2))
        assert (grown.topic_item_matrix(interval) is matrix) is static  # memo carried

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_log_likelihood_is_bitwise_the_models_former_body(self, variant, tiny_cuboid):
        cuboid, _ = tiny_cuboid
        model = {"ttcam": TTCAM(4, 3, max_iter=6, seed=2), "itcam": ITCAM(4, max_iter=6, seed=2)}[
            variant
        ].fit(cuboid)
        p = model.params_
        u, t, v, c = cuboid.users, cuboid.intervals, cuboid.items, cuboid.scores
        p_interest = np.einsum("rk,kr->r", p.theta[u], p.phi[:, v])
        if variant == "ttcam":  # TTCAM.log_likelihood as it stood
            p_context = np.einsum("rk,kr->r", p.theta_time[t], p.phi_time[:, v])
        else:  # ITCAM.log_likelihood as it stood
            p_context = p.theta_time[t, v]
        prob = p.lambda_u[u] * p_interest + (1 - p.lambda_u[u]) * p_context
        expected = float(np.dot(c, np.log(prob + EPS)))
        assert model.log_likelihood(cuboid) == expected
        assert p.log_likelihood(cuboid) == expected


class TestDeclaration:
    """The containers are the one statement of what a parameter set holds."""

    #: The archive field order of format v1 — frozen; snapshots on disk have it.
    FROZEN = {
        "ttcam": ("theta", "phi", "theta_time", "phi_time", "lambda_u"),
        "itcam": ("theta", "phi", "theta_time", "lambda_u"),
    }

    @pytest.mark.parametrize("params", [make_itcam(), make_ttcam()], ids=lambda p: p.VARIANT)
    def test_arrays_are_the_dataclass_fields_in_order(self, params):
        names = tuple(field.name for field in dataclasses.fields(params))
        assert names == self.FROZEN[params.VARIANT]
        assert params.field_names() == names
        assert tuple(params.arrays()) == names
        for name, array in params.arrays().items():
            assert array is getattr(params, name)

    def test_variants_registry_round_trips(self):
        assert set(VARIANTS) == set(self.FROZEN)
        for params in (make_itcam(), make_ttcam()):
            cls = VARIANTS[params.VARIANT]
            assert cls is type(params)
            assert issubclass(cls, TCAMParameters)
            rebuilt = cls(**params.arrays())
            assert rebuilt.arrays().keys() == params.arrays().keys()

    def test_stochastic_fields_are_validated_fields(self):
        for cls in VARIANTS.values():
            assert set(cls.STOCHASTIC) == set(cls.field_names()) - {"lambda_u"}

    def test_replace_revalidates(self):
        params = make_ttcam()
        grown = dataclasses.replace(params, theta_time=uniform(7, 2))
        assert grown.num_intervals == 7 and grown.phi is params.phi
        with pytest.raises(ValueError, match="not normalised"):
            dataclasses.replace(params, theta_time=uniform(7, 2) * 2)


class TestWithFields:
    """Field-wise copy-on-write == ``dataclasses.replace`` minus the re-scans."""

    @staticmethod
    def fitted(n=4, k1=3, k2=2, t=5, v=6):
        rng = np.random.default_rng(3)
        return TTCAMParameters(
            theta=rng.dirichlet(np.ones(k1), size=n),
            phi=rng.dirichlet(np.ones(v), size=k1),
            theta_time=rng.dirichlet(np.ones(k2), size=t),
            phi_time=rng.dirichlet(np.ones(v), size=k2),
            lambda_u=rng.uniform(0.1, 0.9, size=n),
        )

    #: The five call sites' change sets, as functions of the container.
    SHAPES = {
        # StreamIngestor._apply_batch: prior rows for new intervals
        "grow_intervals": lambda p: {
            "theta_time": np.vstack([p.theta_time, uniform(2, p.num_time_topics)])
        },
        # StreamIngestor._apply_batch: the prior row of a gap user id
        "gap_user": lambda p: {
            "theta": np.vstack([p.theta, uniform(1, p.num_user_topics)]),
            "lambda_u": np.append(p.lambda_u, 0.5),
        },
        # StreamIngestor._apply_batch: a re-estimated context row
        "context_row": lambda p: {
            "theta_time": np.vstack([p.theta_time[:-1], uniform(1, p.num_time_topics)])
        },
        # OnlineTTCAM.extend_with_interval
        "fold_interval": lambda p: {"theta_time": np.vstack([p.theta_time, p.theta_time[:1]])},
        # OnlineTTCAM.extend_with_user
        "fold_user": lambda p: {
            "theta": np.vstack([p.theta, p.theta[:1]]),
            "lambda_u": np.append(p.lambda_u, 0.25),
        },
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_equals_replace_and_shares_what_it_did_not_touch(self, shape):
        params = self.fitted()
        stacked = params.topic_item_matrix()
        changes = self.SHAPES[shape](params)
        new = params.with_fields(**changes)
        old = dataclasses.replace(params, **changes)
        assert type(new) is type(old)
        for name in params.field_names():
            assert np.array_equal(getattr(new, name), getattr(old, name)), name
            if name in changes:
                assert getattr(new, name) is changes[name]
            else:
                assert getattr(new, name) is getattr(params, name)
        assert new.topic_item_matrix() is stacked  # memo carried, not rebuilt

    def test_replacing_a_stacked_field_drops_the_memo(self):
        params = self.fitted()
        stacked = params.topic_item_matrix()
        new = params.with_fields(phi=params.phi[::-1].copy())
        assert new.topic_item_matrix() is not stacked
        assert np.array_equal(new.topic_item_matrix()[: new.num_user_topics], new.phi)

    def test_validates_what_enters_like_post_init(self):
        params = self.fitted()
        bad = {
            "not normalised": {"theta_time": params.theta_time * 2},
            "negative entries": {"theta": -params.theta},
            "lambda_u must lie": {"lambda_u": params.lambda_u + 1.0},
            "theta / lambda_u user dimensions": {"lambda_u": np.append(params.lambda_u, 0.5)},
            "theta_time / phi_time topic dimensions": {"theta_time": uniform(5, 3)},
            "phi / phi_time item dimensions": {"phi": uniform(3, 7)},
        }
        for message, changes in bad.items():
            with pytest.raises(ValueError, match=message) as copy_on_write:
                params.with_fields(**changes)
            with pytest.raises(ValueError) as rebuilt:
                dataclasses.replace(params, **changes)
            assert str(copy_on_write.value) == str(rebuilt.value)
        itcam = make_itcam()
        with pytest.raises(ValueError, match="phi / theta_time item dimensions"):
            itcam.with_fields(theta_time=uniform(5, 7))
        with pytest.raises(TypeError, match="phi_time"):
            itcam.with_fields(phi_time=uniform(2, 6))

    def test_untouched_fields_are_not_scanned_again(self, monkeypatch):
        from repro.core import params as module

        params = self.fitted()
        scanned = []
        check = module._check_stochastic
        monkeypatch.setattr(
            module, "_check_stochastic", lambda name, matrix: (scanned.append(name), check(name, matrix))
        )
        params.with_fields(theta_time=params.theta_time.copy())
        assert scanned == ["theta_time"]
