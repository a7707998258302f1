"""Tests for the TemporalRecommender facade."""

import numpy as np
import pytest

from repro.core.itcam import ITCAM
from repro.core.ttcam import TTCAM
from repro.recommend.ranking import QuerySpace
from repro.recommend.recommender import TemporalRecommender
from repro.recommend.threshold import SortedTopicLists, batched_ta_topk
import tests.conftest as c


@pytest.fixture(scope="module")
def models():
    cuboid, _ = c.generate(c.tiny_config())
    ttcam = TTCAM(4, 3, max_iter=20, seed=0).fit(cuboid)
    itcam = ITCAM(4, max_iter=20, seed=0).fit(cuboid)
    return cuboid, ttcam, itcam


class TestMethods:
    def test_all_engines_agree(self, models):
        cuboid, ttcam, _ = models
        rec = TemporalRecommender(ttcam)
        for user, interval in [(0, 0), (7, 5), (30, 11)]:
            bf = rec.recommend(user, interval, k=8, method="bf")
            for engine in ("ta", None):
                other = rec.recommend(user, interval, k=8, method=engine)
                np.testing.assert_allclose(
                    sorted(bf.scores), sorted(other.scores), atol=1e-12
                )

    def test_batched_ta_same_items_as_bruteforce(self, models):
        _, ttcam, _ = models
        # batched_ta_topk is a plain function (Fig. 8's timed engine),
        # no longer a recommender engine: call it directly.
        bf = TemporalRecommender(ttcam).recommend(2, 3, k=10, method="bf")
        weights, matrix = ttcam.query_space(2, 3)
        bta = batched_ta_topk(
            QuerySpace(weights=weights, item_matrix=matrix),
            SortedTopicLists.build(matrix),
            10,
        )
        assert bta.items == bf.items

    def test_itcam_engines_agree(self, models):
        cuboid, _, itcam = models
        rec = TemporalRecommender(itcam)
        for interval in (0, 3, 9):
            bf = rec.recommend(2, interval, k=6, method="bf")
            ta = rec.recommend(2, interval, k=6, method="ta")
            np.testing.assert_allclose(sorted(bf.scores), sorted(ta.scores), atol=1e-12)

    def test_default_method_used(self, models):
        _, ttcam, _ = models
        # The default is the batch scorer — it rescores a candidate set,
        # never the whole catalogue, and builds no TA index.
        rec = TemporalRecommender(ttcam)
        result = rec.recommend(0, 0, k=3)
        assert result.items_scored < ttcam.params_.num_items
        assert result.sorted_accesses == 0
        assert len(rec.serving_cache.indexes) == 0
        assert rec.recommend(0, 0, k=3, method="bf").items_scored == (
            ttcam.params_.num_items
        )

    def test_invalid_method_rejected(self, models):
        _, ttcam, _ = models
        rec = TemporalRecommender(ttcam)
        for removed in ("magic", "batched-ta", "classic-ta"):
            with pytest.raises(ValueError, match="method must be one of"):
                rec.recommend(0, 0, method=removed)
        assert TemporalRecommender._METHODS == ("ta", "bf")

    def test_exclusion_passthrough(self, models):
        _, ttcam, _ = models
        rec = TemporalRecommender(ttcam)
        base = rec.recommend(0, 0, k=5, method="ta")
        excluded = rec.recommend(0, 0, k=5, method="ta", exclude=np.array(base.items))
        assert not set(base.items) & set(excluded.items)


class TestCaching:
    def test_ttcam_uses_one_index(self, models):
        _, ttcam, _ = models
        rec = TemporalRecommender(ttcam)
        rec.recommend(0, 0, k=3, method="ta")
        rec.recommend(1, 5, k=3, method="ta")
        assert len(rec.serving_cache.indexes) == 1

    def test_itcam_caches_per_interval(self, models):
        _, _, itcam = models
        rec = TemporalRecommender(itcam)
        rec.recommend(0, 0, k=3, method="ta")
        rec.recommend(0, 1, k=3, method="ta")
        rec.recommend(1, 1, k=3, method="ta")
        assert len(rec.serving_cache.indexes) == 2

    def test_index_cache_alias_removed(self, models):
        # The deprecated `_index_cache` alias from PR 3 is gone; the
        # bounded LRU region is the only index store.
        _, ttcam, _ = models
        rec = TemporalRecommender(ttcam)
        assert not hasattr(rec, "_index_cache")

    def test_status_carries_cache_counters(self, models):
        _, ttcam, _ = models
        rec = TemporalRecommender(ttcam)
        _, status = rec.recommend_with_status(0, 0, k=3)
        assert status.cache is not None
        assert status.cache.misses >= 1
        _, status = rec.recommend_with_status(1, 0, k=3)
        assert status.cache.hits >= 1
