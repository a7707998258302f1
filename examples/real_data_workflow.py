"""Real-data workflow: from a raw ratings export to a served model.

The evaluation in this repository runs on synthetic substitutes, but the
library is designed to be pointed at real exports. This example walks
the production path end to end on a MovieLens-format file (fabricated
here so the example is self-contained; substitute your own
``ratings.dat`` path):

1. load ``user::item::rating::timestamp`` lines with a chosen interval
   granularity,
2. apply the standard minimum-activity filtering,
3. fit W-TTCAM and snapshot it to disk,
4. reload the snapshot and serve temporal top-k from it.

Run with::

    python examples/real_data_workflow.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core import TTCAM, LoadedModel, save_params
from repro.data import filter_min_activity, load_movielens_dat
from repro.recommend import TemporalRecommender

DAY = 86_400.0


def fabricate_ratings_dat(path: Path, rng: np.random.Generator) -> None:
    """Write a small MovieLens-style file with genre structure.

    200 users in two taste groups, 120 movies in two genre blocks, 18
    months of timestamps; a release wave hits block B around month 12.
    """
    lines = []
    for user in range(200):
        group = user % 2
        pool = range(60) if group == 0 else range(60, 120)
        n_ratings = rng.integers(15, 40)
        for _ in range(n_ratings):
            if rng.random() < 0.15:  # everyone samples the release wave
                item = int(rng.integers(100, 120))
                ts = (12 * 30 + rng.normal(0, 20)) * DAY
            else:
                item = int(rng.choice(list(pool)))
                ts = rng.uniform(0, 540) * DAY
            stars = int(np.clip(round(rng.normal(4 - 0.5 * group * 0, 0.8)), 1, 5))
            lines.append(f"{user}::{item}::{stars}::{max(ts, 0):.0f}")
    path.write_text("\n".join(lines))


def main() -> None:
    rng = np.random.default_rng(7)
    with tempfile.TemporaryDirectory() as tmp:
        dat_path = Path(tmp) / "ratings.dat"
        fabricate_ratings_dat(dat_path, rng)
        print(f"raw export: {dat_path} ({len(dat_path.read_text().splitlines())} lines)")

        # 1. Load at monthly granularity (the paper's MovieLens setting).
        cuboid = load_movielens_dat(dat_path, interval_days=30.0)
        print(f"loaded: {cuboid}")

        # 2. Standard preprocessing: drop barely-rated items and inactive
        #    users (the paper keeps MovieLens users with ≥20 ratings).
        filtered = filter_min_activity(cuboid, min_user_ratings=10, min_item_users=3)
        print(f"after filtering: {filtered.nnz} ratings retained")

        # 3. Fit and snapshot.
        model = TTCAM(num_user_topics=6, num_time_topics=4, max_iter=60, seed=0)
        model.fit(filtered)
        print(
            f"fitted in {model.trace_.iterations} EM iterations; "
            f"mean λ = {model.params_.lambda_u.mean():.2f}"
        )
        snapshot = save_params(model.params_, Path(tmp) / "movielens-model.npz")
        print(f"snapshot: {snapshot}")

        # 4. Serve from the snapshot (a different process would do this).
        serving = LoadedModel.from_file(snapshot)
        recommender = TemporalRecommender(serving)
        user = 0
        result = recommender.recommend(user, interval=12, k=5)
        labels = [int(cuboid.item_index.label_of(v)) for v in result.items]
        print(f"top-5 for user {user} at the release wave: movies {labels}")
        # The taste groups should be visible: user 0 is in group A
        # (movies 0-59) plus the shared release wave (movies 100-119).
        in_pool = sum(1 for m in labels if m < 60 or m >= 100)
        print(f"({in_pool}/5 recommendations from the user's own taste pool + wave)")


if __name__ == "__main__":
    main()
