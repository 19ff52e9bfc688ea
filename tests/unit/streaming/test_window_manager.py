"""Unit tests for sliding-window bookkeeping over a growing stream.

The online monitor emits each sliding window exactly once, as soon as the
stream holds all of its columns.
"""

import numpy as np
import pytest

from repro.exceptions import QueryValidationError, StreamingError
from repro.streaming.online import OnlineCorrelationMonitor


def make_monitor(**overrides):
    params = dict(
        num_series=3, window=32, step=16, threshold=0.5, basic_window_size=8
    )
    params.update(overrides)
    return OnlineCorrelationMonitor(**params)


def bounds(results):
    return [(r.window_index, r.start, r.end) for r in results]


class TestSlidingWindowManager:
    def test_no_windows_before_first_is_full(self, rng):
        monitor = make_monitor()
        assert monitor.append(rng.normal(size=(3, 31))) == []
        assert monitor.emitted_windows == 0

    def test_windows_appear_as_data_arrives(self, rng):
        monitor = make_monitor()
        assert monitor.append(rng.normal(size=(3, 31))) == []
        assert bounds(monitor.append(rng.normal(size=(3, 1)))) == [(0, 0, 32)]
        assert bounds(monitor.append(rng.normal(size=(3, 15)))) == []
        assert bounds(monitor.append(rng.normal(size=(3, 33)))) == [
            (1, 16, 48), (2, 32, 64), (3, 48, 80),
        ]
        assert monitor.emitted_windows == 4

    def test_windows_never_reemitted(self, rng):
        monitor = make_monitor()
        assert len(monitor.append(rng.normal(size=(3, 64)))) == 3
        assert monitor.append(np.empty((3, 0))) == []
        assert monitor.emitted_windows == 3

    def test_window_bounds(self, rng):
        monitor = make_monitor(window=24, step=8)
        emitted = monitor.append(rng.normal(size=(3, 64)))
        query = monitor.equivalent_query(64)
        assert len(emitted) == query.num_windows == 6
        for result in emitted:
            assert (result.start, result.end) == query.window_bounds(
                result.window_index
            )
        assert query.window_bounds(3) == (24, 48)
        with pytest.raises(QueryValidationError):
            query.window_bounds(-1)

    def test_validation(self):
        with pytest.raises(StreamingError, match="window"):
            make_monitor(window=0)
        with pytest.raises(StreamingError, match="step"):
            make_monitor(step=0)
        with pytest.raises(StreamingError, match="window"):
            make_monitor(window=12)  # not whole basic windows
        with pytest.raises(StreamingError, match="threshold"):
            make_monitor(threshold=1.5)
