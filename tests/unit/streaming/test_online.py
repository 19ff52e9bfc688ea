"""Unit tests for the online correlation-network monitor."""

import numpy as np
import pytest

from repro.baselines.brute_force import BruteForceEngine
from repro.core.dangoron import DangoronEngine
from repro.exceptions import StreamingError
from repro.streaming.online import OnlineCorrelationMonitor
from repro.timeseries.matrix import TimeSeriesMatrix


class TestOnlineMonitor:
    def make_monitor(self, num_series, **overrides):
        params = dict(
            num_series=num_series,
            window=128,
            step=32,
            threshold=0.6,
            basic_window_size=32,
        )
        params.update(overrides)
        return OnlineCorrelationMonitor(**params)

    def test_emits_one_result_per_window_in_order(self, small_matrix):
        monitor = self.make_monitor(small_matrix.num_series)
        emitted = []
        for start in range(0, small_matrix.length, 48):
            emitted.extend(monitor.append(small_matrix.values[:, start : start + 48]))
        indices = [result.window_index for result in emitted]
        assert indices == list(range(len(indices)))
        assert monitor.emitted_windows == len(emitted)

    def test_matches_offline_dangoron(self, small_matrix):
        monitor = self.make_monitor(small_matrix.num_series)
        emitted = []
        for start in range(0, small_matrix.length, 64):
            emitted.extend(monitor.append(small_matrix.values[:, start : start + 64]))
        query = monitor.equivalent_query(small_matrix.length)
        offline = DangoronEngine(basic_window_size=32).run(small_matrix, query)
        assert len(emitted) == query.num_windows
        for result, matrix in zip(emitted, offline.matrices):
            assert result.matrix.edge_set() == matrix.edge_set()

    def test_reported_edges_are_exact(self, small_matrix):
        monitor = self.make_monitor(small_matrix.num_series, use_temporal_pruning=False)
        emitted = []
        for start in range(0, small_matrix.length, 96):
            emitted.extend(monitor.append(small_matrix.values[:, start : start + 96]))
        query = monitor.equivalent_query(small_matrix.length)
        exact = BruteForceEngine().run(small_matrix, query)
        for result, reference in zip(emitted, exact.matrices):
            assert result.matrix.edge_set() == reference.edge_set()
            for edge, value in result.matrix.edge_dict().items():
                assert value == pytest.approx(reference.edge_dict()[edge], abs=1e-8)

    def test_pruning_reduces_work_on_noise(self, noise_matrix):
        monitor = self.make_monitor(noise_matrix.num_series, threshold=0.9)
        emitted = []
        for start in range(0, noise_matrix.length, 64):
            emitted.extend(monitor.append(noise_matrix.values[:, start : start + 64]))
        assert len(emitted) > 2
        later = emitted[2:]
        total_pairs = noise_matrix.num_series * (noise_matrix.num_series - 1) // 2
        assert any(result.exact_evaluations < total_pairs for result in later)
        assert all(result.skipped_pairs >= 0 for result in later)

    def test_alignment_validation(self):
        with pytest.raises(StreamingError):
            self.make_monitor(4, window=100)
        with pytest.raises(StreamingError):
            self.make_monitor(4, step=10)
        with pytest.raises(StreamingError):
            self.make_monitor(4, threshold=2.0)

    def test_indexed_columns_tracks_complete_basic_windows(self, rng):
        monitor = self.make_monitor(4)
        monitor.append(rng.normal(size=(4, 40)))
        assert monitor.indexed_columns() == 32


class TestMonitorInput:
    """Column intake edge cases; input checks and window emission are
    covered in test_stream.py and test_window_manager.py."""

    def make_monitor(self, num_series=3, **overrides):
        params = dict(
            num_series=num_series, window=32, step=16, threshold=0.5,
            basic_window_size=8,
        )
        params.update(overrides)
        return OnlineCorrelationMonitor(**params)

    def test_caller_buffer_reuse_does_not_leak_into_the_residual(self, rng):
        data = rng.normal(size=(3, 64))
        reference = self.make_monitor(threshold=-1.0).append(data)
        monitor = self.make_monitor(threshold=-1.0)  # every pair is an edge
        buffer = np.empty((3, 12))
        emitted = []
        for start in range(0, 60, 12):
            buffer[:] = data[:, start : start + 12]
            emitted.extend(monitor.append(buffer))
        emitted.extend(monitor.append(data[:, 60:]))
        for streamed, batch in zip(emitted, reference, strict=True):
            assert np.array_equal(streamed.matrix.values, batch.matrix.values)

    def test_step_longer_than_window(self, rng):
        """Windows with gaps between them: the Eq. 2 horizon can be empty."""
        data = np.cumsum(rng.normal(size=(6, 512)), axis=1)
        monitor = self.make_monitor(6, window=32, step=64, threshold=0.9,
                                    basic_window_size=32)
        emitted = []
        for start in range(0, 512, 32):
            emitted.extend(monitor.append(data[:, start : start + 32]))
        query = monitor.equivalent_query(512)
        exact = BruteForceEngine().run(TimeSeriesMatrix(data), query)
        assert len(emitted) == query.num_windows
        for result, reference in zip(emitted, exact.matrices):
            reference_values = reference.edge_dict()
            for edge, value in result.matrix.edge_dict().items():
                assert value == pytest.approx(reference_values[edge], abs=1e-8)


class TestMonitorForQuery:
    """Building a monitor from a threshold query spec (the service's path)."""

    def make_query(self, **overrides):
        from repro.api.queries import ThresholdQuery

        params = dict(start=0, end=512, window=128, step=32, threshold=0.6)
        params.update(overrides)
        return ThresholdQuery(**params)

    def test_spec_fields_carry_over(self):
        monitor = OnlineCorrelationMonitor.for_query(
            self.make_query(), num_series=6, basic_window_size=32,
            series_ids=[f"n{i}" for i in range(6)],
        )
        assert (monitor.window, monitor.step, monitor.threshold) == (128, 32, 0.6)
        assert monitor.basic_window_size == 32
        assert monitor.series_ids == [f"n{i}" for i in range(6)]

    def test_basic_window_aligned_like_the_planner(self):
        # window=96, step=48 -> gcd 48; largest divisor <= 32 is 24.
        monitor = OnlineCorrelationMonitor.for_query(
            self.make_query(window=96, step=48), num_series=4,
            basic_window_size=32,
        )
        assert monitor.basic_window_size == 24

    def test_emission_matches_offline_engine(self, small_matrix):
        query = self.make_query(end=small_matrix.length)
        monitor = OnlineCorrelationMonitor.for_query(
            query, num_series=small_matrix.num_series, basic_window_size=32
        )
        emitted = list(monitor.append(small_matrix.values))
        offline = DangoronEngine(basic_window_size=32).run(small_matrix, query)
        assert len(emitted) == query.num_windows
        for result, reference in zip(emitted, offline.matrices):
            assert result.matrix.edge_set() == reference.edge_set()

    def test_rejects_non_threshold_specs(self):
        from repro.api.queries import LaggedQuery, TopKQuery

        with pytest.raises(StreamingError, match="threshold specs only"):
            OnlineCorrelationMonitor.for_query(
                TopKQuery(start=0, end=512, window=128, step=32, k=3), num_series=4
            )
        with pytest.raises(StreamingError, match="threshold specs only"):
            OnlineCorrelationMonitor.for_query(
                LaggedQuery(start=0, end=512, window=128, step=32, max_lag=2),
                num_series=4,
            )

    def test_rejects_absolute_mode_and_offsets(self):
        with pytest.raises(StreamingError, match="signed"):
            OnlineCorrelationMonitor.for_query(
                self.make_query(threshold_mode="absolute"), num_series=4
            )
        with pytest.raises(StreamingError, match="column 0"):
            OnlineCorrelationMonitor.for_query(
                self.make_query(start=32), num_series=4
            )
