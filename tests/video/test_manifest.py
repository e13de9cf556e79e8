"""Bitrate ladders and video manifests."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.video import (
    BitrateLadder,
    ENVIVIO_LADDER_KBPS,
    VideoManifest,
    envivio,
    short_test_video,
)


class TestBitrateLadder:
    def test_paper_ladder(self):
        ladder = BitrateLadder(ENVIVIO_LADDER_KBPS)
        assert len(ladder) == 5
        assert ladder.min_kbps == 350.0
        assert ladder.max_kbps == 3000.0

    def test_requires_sorted(self):
        with pytest.raises(ValueError, match="ascending"):
            BitrateLadder([600.0, 350.0])

    def test_requires_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            BitrateLadder([350.0, 350.0])

    def test_requires_positive(self):
        with pytest.raises(ValueError, match="positive"):
            BitrateLadder([0.0, 100.0])

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            BitrateLadder([])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_levels(self, bad):
        with pytest.raises(ValueError, match="finite"):
            BitrateLadder([bad])
        with pytest.raises(ValueError, match="finite"):
            BitrateLadder([100.0, bad])

    def test_index_of(self):
        ladder = BitrateLadder(ENVIVIO_LADDER_KBPS)
        assert ladder.index_of(1000.0) == 2
        with pytest.raises(ValueError):
            ladder.index_of(999.0)

    def test_highest_at_most(self):
        ladder = BitrateLadder(ENVIVIO_LADDER_KBPS)
        assert ladder.highest_at_most(2500.0) == 3  # 2000 kbps
        assert ladder.highest_at_most(3000.0) == 4
        assert ladder.highest_at_most(100.0) == 0  # below Rmin -> lowest
        assert ladder.highest_at_most(10_000.0) == 4

    def test_equality_and_hash(self):
        a = BitrateLadder([100.0, 200.0])
        b = BitrateLadder([100.0, 200.0])
        assert a == b
        assert hash(a) == hash(b)

    def test_uniform(self):
        ladder = BitrateLadder.uniform(100.0, 500.0, 5)
        assert list(ladder) == pytest.approx([100, 200, 300, 400, 500])

    def test_uniform_single_level(self):
        assert list(BitrateLadder.uniform(100.0, 500.0, 1)) == [100.0]

    def test_geometric(self):
        ladder = BitrateLadder.geometric(100.0, 1600.0, 5)
        assert list(ladder) == pytest.approx([100, 200, 400, 800, 1600])

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            BitrateLadder.uniform(500.0, 100.0, 3)
        with pytest.raises(ValueError):
            BitrateLadder.uniform(100.0, 500.0, 0)


@given(budget=st.floats(1.0, 10_000.0))
def test_highest_at_most_is_maximal(budget):
    """The chosen level is the largest one not exceeding the budget
    (or the minimum level when nothing fits) — the paper's RB rule."""
    ladder = BitrateLadder(ENVIVIO_LADDER_KBPS)
    idx = ladder.highest_at_most(budget)
    if ladder[idx] > budget:
        assert idx == 0  # nothing fits: pinned at Rmin
    elif idx + 1 < len(ladder):
        assert ladder[idx + 1] > budget


class TestVideoManifest:
    def test_envivio_preset_matches_paper(self):
        video = envivio()
        assert video.num_chunks == 65
        assert video.chunk_duration_s == 4.0
        assert video.total_duration_s == 260.0
        assert video.ladder.levels_kbps == ENVIVIO_LADDER_KBPS
        assert video.is_cbr()

    def test_cbr_sizes(self):
        video = envivio()
        assert video.chunk_size_kilobits(0, 0) == pytest.approx(4.0 * 350.0)
        assert video.chunk_size_kilobits(64, 4) == pytest.approx(4.0 * 3000.0)

    def test_effective_bitrate_cbr(self):
        video = envivio()
        assert video.effective_bitrate_kbps(10, 2) == pytest.approx(1000.0)

    def test_chunk_sizes_at_level(self):
        video = short_test_video(num_chunks=4)
        sizes = video.chunk_sizes_at_level(1)
        assert len(sizes) == 4
        assert all(s == pytest.approx(4.0 * 600.0) for s in sizes)

    def test_chunk_index_bounds(self):
        video = short_test_video()
        with pytest.raises(IndexError):
            video.chunk_size_kilobits(video.num_chunks, 0)
        with pytest.raises(IndexError):
            video.chunk_sizes_at_level(99)

    def test_sizes_must_increase_with_level(self):
        ladder = BitrateLadder([100.0, 200.0])
        with pytest.raises(ValueError, match="increase"):
            VideoManifest(4.0, ladder, [[800.0, 400.0]])

    def test_rows_must_match_ladder(self):
        ladder = BitrateLadder([100.0, 200.0])
        with pytest.raises(ValueError, match="levels"):
            VideoManifest(4.0, ladder, [[400.0]])

    def test_rejects_empty_video(self):
        with pytest.raises(ValueError):
            VideoManifest(4.0, BitrateLadder([100.0]), [])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_chunk_duration(self, bad):
        with pytest.raises(ValueError, match="finite"):
            VideoManifest(bad, BitrateLadder([100.0]), [[400.0]])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_chunk_size(self, bad):
        ladder = BitrateLadder([100.0, 200.0])
        with pytest.raises(ValueError, match="finite"):
            VideoManifest(4.0, ladder, [[400.0, 800.0], [400.0, bad]])
        with pytest.raises(ValueError, match="finite"):
            VideoManifest(4.0, ladder, [[bad, 800.0]])

    def test_truncated(self):
        video = envivio().truncated(10)
        assert video.num_chunks == 10
        assert video.ladder == envivio().ladder
        with pytest.raises(ValueError):
            envivio().truncated(0)

    def test_with_ladder(self):
        new_ladder = BitrateLadder.uniform(350.0, 3000.0, 8)
        video = envivio().with_ladder(new_ladder)
        assert len(video.ladder) == 8
        assert video.num_chunks == 65
        assert video.is_cbr()

    def test_repr(self):
        assert "envivio" in repr(envivio())
