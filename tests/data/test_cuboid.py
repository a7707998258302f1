"""Tests for the sparse rating cuboid."""

import numpy as np
import pytest

from repro.data.cuboid import RatingCuboid
from repro.data.events import Rating
from repro.data.indexer import Indexer


class TestConstruction:
    def test_from_arrays_infers_dims(self):
        cub = RatingCuboid.from_arrays([0, 2], [1, 0], [3, 1])
        assert cub.shape == (3, 2, 4)
        assert cub.nnz == 2

    def test_from_arrays_default_scores(self):
        cub = RatingCuboid.from_arrays([0], [0], [0])
        assert cub.scores.tolist() == [1.0]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="mismatched"):
            RatingCuboid(
                users=np.array([0, 1]),
                intervals=np.array([0]),
                items=np.array([0]),
                scores=np.array([1.0]),
                num_users=2,
                num_intervals=1,
                num_items=1,
            )

    def test_out_of_range_ids_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            RatingCuboid.from_arrays([0], [0], [5], num_items=3)

    def test_nonpositive_scores_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            RatingCuboid.from_arrays([0], [0], [0], scores=[0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="scores must be finite"):
            RatingCuboid.from_arrays([0, 1], [0, 0], [0, 1], scores=[bad, 1.0])

    def test_from_ratings_builds_indexers(self, simple_ratings):
        cub = RatingCuboid.from_ratings(simple_ratings)
        assert cub.num_users == 3
        assert cub.num_items == 3
        assert cub.user_index.id_of("alice") == 0
        assert cub.item_index.id_of("pizza") == 0

    def test_from_ratings_shared_indexer(self, simple_ratings):
        users = Indexer(["zoe", "alice"])
        cub = RatingCuboid.from_ratings(simple_ratings, user_index=users)
        # "zoe" pre-registered: alice keeps id 1, dims count zoe too.
        assert cub.user_index.id_of("alice") == 1
        assert cub.num_users == 4

    def test_from_ratings_num_intervals_override(self, simple_ratings):
        cub = RatingCuboid.from_ratings(simple_ratings, num_intervals=10)
        assert cub.num_intervals == 10
        with pytest.raises(ValueError, match="too small"):
            RatingCuboid.from_ratings(simple_ratings, num_intervals=1)


class TestCoalesce:
    def test_duplicates_merge_scores(self):
        cub = RatingCuboid.from_arrays(
            [0, 0, 0], [1, 1, 0], [2, 2, 2], scores=[1.0, 2.5, 1.0]
        )
        assert cub.nnz == 2
        assert cub.total_score == 4.5
        dense = cub.to_dense()
        assert dense[0, 1, 2] == 3.5
        assert dense[0, 0, 2] == 1.0

    def test_coalesce_idempotent(self, handmade_cuboid):
        again = handmade_cuboid.coalesce()
        assert again.nnz == handmade_cuboid.nnz
        np.testing.assert_array_equal(again.scores, handmade_cuboid.scores)

    def test_coalesce_sorts_lexicographically(self):
        cub = RatingCuboid.from_arrays([1, 0], [0, 1], [0, 0])
        assert cub.users.tolist() == [0, 1]

    def test_empty_cuboid(self):
        cub = RatingCuboid.from_arrays([], [], [], num_users=2, num_intervals=2, num_items=2)
        assert cub.nnz == 0
        assert cub.coalesce().nnz == 0
        assert cub.density() == 0.0


class TestTransforms:
    def test_with_scores_replaces(self, handmade_cuboid):
        doubled = handmade_cuboid.with_scores(handmade_cuboid.scores * 2)
        assert doubled.total_score == handmade_cuboid.total_score * 2
        # original untouched
        assert handmade_cuboid.scores.max() == 3.0

    def test_with_scores_shape_checked(self, handmade_cuboid):
        with pytest.raises(ValueError):
            handmade_cuboid.with_scores(np.ones(2))

    def test_select_partitions(self, handmade_cuboid):
        mask = handmade_cuboid.users == 0
        kept = handmade_cuboid.select(mask)
        dropped = handmade_cuboid.select(~mask)
        assert kept.nnz + dropped.nnz == handmade_cuboid.nnz
        assert kept.shape == handmade_cuboid.shape  # dims preserved

    def test_select_mask_length_checked(self, handmade_cuboid):
        with pytest.raises(ValueError):
            handmade_cuboid.select(np.array([True]))

    def test_coarsen_intervals_merges(self, handmade_cuboid):
        coarse = handmade_cuboid.coarsen_intervals(2)
        assert coarse.num_intervals == 1
        assert coarse.total_score == handmade_cuboid.total_score
        # (u0, t0, v0) and (u0, t1, v0) merge into one entry
        dense = coarse.to_dense()
        assert dense[0, 0, 0] == 2.0

    def test_coarsen_factor_one_is_identity(self, handmade_cuboid):
        same = handmade_cuboid.coarsen_intervals(1)
        assert same is handmade_cuboid

    def test_coarsen_invalid_factor(self, handmade_cuboid):
        with pytest.raises(ValueError):
            handmade_cuboid.coarsen_intervals(0)

    def test_to_dense_matches_coords(self, handmade_cuboid):
        dense = handmade_cuboid.to_dense()
        assert dense.shape == handmade_cuboid.shape
        assert dense.sum() == handmade_cuboid.total_score
        assert dense[1, 1, 2] == 3.0


class TestStatistics:
    def test_item_user_counts(self, handmade_cuboid):
        # item0: u0 only; item1: u0, u1; item2: u1, u2
        assert handmade_cuboid.item_user_counts().tolist() == [1, 2, 2]

    def test_item_interval_user_counts(self, handmade_cuboid):
        counts = handmade_cuboid.item_interval_user_counts()
        assert counts.shape == (2, 3)
        assert counts[0].tolist() == [1, 2, 0]
        assert counts[1].tolist() == [1, 0, 2]

    def test_interval_user_counts(self, handmade_cuboid):
        # t0: u0, u1; t1: u0, u1, u2
        assert handmade_cuboid.interval_user_counts().tolist() == [2, 3]

    def test_user_activity(self, handmade_cuboid):
        assert handmade_cuboid.user_activity().tolist() == [3, 2, 1]

    def test_item_popularity(self, handmade_cuboid):
        assert handmade_cuboid.item_popularity().tolist() == [2.0, 3.0, 4.0]

    def test_interval_item_matrix(self, handmade_cuboid):
        matrix = handmade_cuboid.interval_item_matrix()
        assert matrix.sum() == handmade_cuboid.total_score
        assert matrix[1, 2] == 4.0

    def test_user_item_pairs(self, handmade_cuboid):
        assert (0, 0) in handmade_cuboid.user_item_pairs()
        assert (2, 2) in handmade_cuboid.user_item_pairs()
        assert len(handmade_cuboid.user_item_pairs()) == 5

    def test_entry_lookups(self, handmade_cuboid):
        rows = handmade_cuboid.entries_of_user(0)
        assert len(rows) == 3
        rows_t = handmade_cuboid.entries_of_interval(1)
        assert len(rows_t) == 3
        items = handmade_cuboid.items_of_user_interval(0, 0)
        assert sorted(items.tolist()) == [0, 1]

    def test_counts_on_empty(self):
        cub = RatingCuboid.from_arrays([], [], [], num_users=2, num_intervals=3, num_items=4)
        assert cub.item_user_counts().tolist() == [0, 0, 0, 0]
        assert cub.interval_user_counts().tolist() == [0, 0, 0]
        assert cub.item_interval_user_counts().shape == (3, 4)
