"""Unit tests for stream intake: the online monitor's input checks and index.

Appended columns grow the monitor's basic-window sketch by whole basic
windows; the columns of a partial basic window wait in a residual buffer.
"""

import numpy as np
import pytest

from repro.exceptions import SketchError, StreamingError
from repro.storage.stats_index import StatsIndex
from repro.streaming.online import OnlineCorrelationMonitor


def make_monitor(num_series=3, **overrides):
    params = dict(
        num_series=num_series, window=32, step=16, threshold=0.5,
        basic_window_size=8,
    )
    params.update(overrides)
    return OnlineCorrelationMonitor(**params)


class TestStreamIngestor:
    def test_index_grows_with_complete_basic_windows(self, rng):
        monitor = make_monitor(basic_window_size=16)
        assert monitor.append(rng.normal(size=(3, 10))) == []
        assert monitor.indexed_columns() == 0
        monitor.append(rng.normal(size=(3, 10)))
        assert monitor.indexed_columns() == 16  # 4 columns stay buffered
        monitor.append(rng.normal(size=(3, 12)))
        assert monitor.indexed_columns() == 32

    def test_index_matches_batch_build(self, rng):
        data = rng.normal(size=(5, 128))
        monitor = make_monitor(5, threshold=-1.0)  # every pair is an edge
        emitted = []
        for start in range(0, 128, 20):
            emitted.extend(monitor.append(data[:, start : start + 20]))
        batch = StatsIndex.build(data, basic_window_size=8)
        assert monitor.indexed_columns() == batch.covered_columns
        assert len(emitted) == 7
        for result in emitted:
            first = result.start // 8
            expected = batch.sketch.exact_matrix_scan(first, 32 // 8)
            rows, cols = result.matrix.rows, result.matrix.cols
            assert np.array_equal(result.matrix.values, expected[rows, cols])

    def test_index_before_first_window_raises(self, rng):
        data = rng.normal(size=(2, 5))
        monitor = make_monitor(2, basic_window_size=16, window=32, step=16)
        assert monitor.append(data) == []
        assert monitor.indexed_columns() == 0
        # The monitor indexes nothing because no index can cover fewer
        # columns than one basic window.
        with pytest.raises(SketchError):
            StatsIndex.build(data, basic_window_size=16)

    def test_appended_history_boundaries(self, rng):
        monitor = make_monitor(2, basic_window_size=8)
        assert monitor.indexed_columns() == 0
        boundaries = []
        for width in (20, 3, 1, 9):
            monitor.append(rng.normal(size=(2, width)))
            boundaries.append(monitor.indexed_columns())
        # Coverage always ends on a basic-window boundary.
        assert boundaries == [16, 16, 24, 32]

    def test_shape_and_value_validation(self, rng):
        monitor = make_monitor()
        with pytest.raises(StreamingError, match="shape"):
            monitor.append(rng.normal(size=(2, 8)))  # wrong series count
        with pytest.raises(StreamingError, match="shape"):
            monitor.append(rng.normal(size=(3, 8, 1)))  # not 2-D
        with pytest.raises(StreamingError, match="finite"):
            monitor.append(np.full((3, 4), np.nan))
        with pytest.raises(StreamingError, match="finite"):
            monitor.append(np.array([1.0, np.inf, 0.0]))
        assert monitor.indexed_columns() == 0  # rejected input never lands

    def test_constructor_validation(self):
        with pytest.raises(StreamingError, match="num_series"):
            make_monitor(num_series=0)
        with pytest.raises(StreamingError, match="basic_window_size"):
            make_monitor(basic_window_size=1)

    def test_single_column_appends(self, rng):
        data = rng.normal(size=(3, 70))
        one_by_one = make_monitor(threshold=-1.0)  # every pair is an edge
        emitted = []
        for t in range(data.shape[1]):
            emitted.extend(one_by_one.append(data[:, t]))
        whole = make_monitor(threshold=-1.0).append(data)
        assert one_by_one.indexed_columns() == 64
        assert [r.window_index for r in emitted] == [0, 1, 2]
        for streamed, batch in zip(emitted, whole):
            assert np.array_equal(streamed.matrix.values, batch.matrix.values)
