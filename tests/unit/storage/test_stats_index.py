"""Unit tests for the persisted basic-window statistics index."""

import numpy as np
import pytest

from repro.core.tiled import ColumnReblocker
from repro.exceptions import SketchError, StorageError
from repro.storage.stats_index import StatsIndex


class TestBuildAndQuery:
    def test_build_covers_complete_basic_windows(self, rng):
        data = rng.normal(size=(6, 100))
        index = StatsIndex.build(data, basic_window_size=16)
        assert index.layout.size == 16
        assert index.layout.count == 6
        assert index.covered_columns == 96
        assert index.num_series == 6
        assert index.memory_bytes() > 0

    def test_wrapped_sketch_answers_queries(self, rng):
        data = rng.normal(size=(5, 128))
        index = StatsIndex.build(data, basic_window_size=32)
        from repro.core.correlation import correlation_matrix

        expected = correlation_matrix(data[:, 0:64])
        assert np.allclose(index.sketch.exact_matrix_scan(0, 2), expected, atol=1e-9)

    def test_build_requires_2d(self, rng):
        with pytest.raises(StorageError):
            StatsIndex.build(rng.normal(size=50), basic_window_size=10)


class TestExtension:
    """The index grows by extending its sketch with whole basic windows."""

    def test_extend_matches_full_rebuild(self, rng):
        data = rng.normal(size=(4, 160))
        incremental = StatsIndex.build(data[:, :64], basic_window_size=16)
        extended = StatsIndex(incremental.sketch.extend(data[:, 64:160]))
        assert extended.layout.count - incremental.layout.count == 6
        rebuilt = StatsIndex.build(data, basic_window_size=16)
        assert extended.layout == rebuilt.layout
        assert np.array_equal(
            extended.sketch.series_sums, rebuilt.sketch.series_sums
        )
        assert np.array_equal(
            extended.sketch.pair_sumprods, rebuilt.sketch.pair_sumprods
        )
        assert np.array_equal(
            extended.sketch.exact_matrix_scan(0, 10),
            rebuilt.sketch.exact_matrix_scan(0, 10),
        )

    def test_extend_with_incomplete_window_appends_nothing(self, rng):
        index = StatsIndex.build(rng.normal(size=(3, 32)), basic_window_size=16)
        partial = rng.normal(size=(3, 10))
        # A partial basic window waits in the residual buffer ...
        assert list(ColumnReblocker(16).feed(partial)) == []
        # ... because the sketch only absorbs whole basic windows.
        with pytest.raises(SketchError):
            index.sketch.extend(partial)
        assert index.layout.count == 2

    def test_extend_with_previous_tail(self, rng):
        data = rng.normal(size=(3, 64))
        index = StatsIndex.build(data[:, :32], basic_window_size=16)
        reblocker = ColumnReblocker(16)
        assert list(reblocker.feed(data[:, 32:40])) == []  # buffered tail
        blocks = list(reblocker.feed(data[:, 40:64]))
        assert len(blocks) == 2
        extended = StatsIndex(index.sketch.extend(np.concatenate(blocks, axis=1)))
        rebuilt = StatsIndex.build(data, basic_window_size=16)
        assert np.array_equal(
            extended.sketch.series_sums, rebuilt.sketch.series_sums
        )

    def test_extend_shape_mismatch(self, rng):
        index = StatsIndex.build(rng.normal(size=(3, 32)), basic_window_size=16)
        with pytest.raises(SketchError):
            index.sketch.extend(rng.normal(size=(4, 16)))


class TestPersistence:
    def test_save_load_round_trip(self, rng, tmp_path):
        data = rng.normal(size=(4, 96))
        index = StatsIndex.build(data, basic_window_size=24)
        path = index.save(tmp_path / "stats.npz")
        loaded = StatsIndex.load(path)
        assert loaded.layout.size == 24
        assert loaded.layout.count == index.layout.count
        assert np.allclose(
            loaded.sketch.exact_matrix_scan(0, 4),
            index.sketch.exact_matrix_scan(0, 4),
        )

    def test_load_missing_or_foreign_file(self, tmp_path):
        with pytest.raises(StorageError):
            StatsIndex.load(tmp_path / "missing.npz")
        foreign = tmp_path / "foreign.npz"
        np.savez(foreign, unrelated=np.arange(4))
        with pytest.raises(StorageError):
            StatsIndex.load(foreign)

    def test_repr(self, rng):
        index = StatsIndex.build(rng.normal(size=(3, 64)), basic_window_size=16)
        assert "basic_windows=4" in repr(index)
