"""Property: every result kind survives the columnar wire byte for byte.

``result_to_wire`` packs each result's arrays into little-endian base64
buffers; ``result_from_wire`` must hand back arrays with the same bytes
(``-0.0``, subnormals and NaN payloads included), the same dtypes, and
owned, writeable memory — through real JSON text, as HTTP carries it.
Strategies include windows without edges and top-k results without
windows.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.api import LaggedQuery, LaggedSeriesResult, ThresholdQuery, TopKQuery
from repro.core.lag import LagMatrices
from repro.core.result import CorrelationSeriesResult, ThresholdedMatrix
from repro.core.topk import TopKResult, TopKWindow
from repro.service.wire import result_from_wire, result_to_wire

WIDTH = 4

#: Values a text encoding tends to lose: signed zeros, subnormals, NaNs.
EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, float("nan"),
               np.frombuffer(np.uint64(0x7FF8_0000_DEAD_BEEF).tobytes(), np.float64)[0])

values_strategy = st.one_of(
    st.floats(width=64, allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(EDGE_VALUES),
)


def _wire_round_trip(result):
    return result_from_wire(json.loads(json.dumps(result_to_wire(result))))


def _assert_same_array(original, parsed):
    original = np.asarray(original)
    assert parsed.dtype == original.dtype
    assert parsed.shape == original.shape
    assert parsed.tobytes() == original.tobytes()
    assert parsed.flags.writeable and parsed.flags.owndata


@st.composite
def sparse_windows(draw, num_series, num_windows):
    """Per-window ``(rows, cols, values)`` over the upper triangle, often empty."""
    rows, cols = np.triu_indices(num_series, k=1)
    windows = []
    for _ in range(num_windows):
        keep = np.array(draw(st.lists(st.booleans(), min_size=len(rows),
                                      max_size=len(rows))), dtype=bool)
        values = draw(st.lists(values_strategy, min_size=int(keep.sum()),
                               max_size=int(keep.sum())))
        windows.append((rows[keep], cols[keep], np.array(values, dtype=np.float64)))
    return windows


@st.composite
def threshold_results(draw):
    num_series = draw(st.integers(2, 6))
    num_windows = draw(st.integers(1, 4))
    query = ThresholdQuery(start=0, end=WIDTH * num_windows, window=WIDTH, step=WIDTH,
                           threshold=0.5)
    matrices = [ThresholdedMatrix(num_series, rows, cols, values)
                for rows, cols, values in draw(sparse_windows(num_series, num_windows))]
    return CorrelationSeriesResult(query, matrices)


@st.composite
def topk_results(draw):
    num_series = draw(st.integers(2, 6))
    num_windows = draw(st.integers(0, 4))
    query = TopKQuery(start=0, end=WIDTH * max(num_windows, 1), window=WIDTH,
                      step=WIDTH, k=3)
    windows = [TopKWindow(k, rows, cols, values) for k, (rows, cols, values)
               in enumerate(draw(sparse_windows(num_series, num_windows)))]
    return TopKResult(query=query, k=3, absolute=draw(st.booleans()), windows=windows)


@st.composite
def lagged_results(draw):
    num_series = draw(st.integers(1, 5))
    num_windows = draw(st.integers(1, 3))
    query = LaggedQuery(start=0, end=WIDTH * num_windows, window=WIDTH, step=WIDTH,
                        max_lag=1, threshold=0.5)
    shape = (num_series, num_series)
    windows = [
        LagMatrices(
            window_index=k,
            best_corr=draw(arrays(np.float64, shape, elements=values_strategy)),
            best_lag=draw(arrays(np.int64, shape)),
        )
        for k in range(num_windows)
    ]
    return LaggedSeriesResult(query, windows)


@settings(max_examples=60, deadline=None)
@given(result=threshold_results())
def test_threshold_results_round_trip_bytewise(result):
    parsed = _wire_round_trip(result)
    assert parsed.query == result.query
    assert parsed.num_series == result.num_series
    assert parsed.num_windows == result.num_windows
    for original, decoded in zip(result.matrices, parsed.matrices):
        for field in ("rows", "cols", "values"):
            _assert_same_array(getattr(original, field), getattr(decoded, field))


@settings(max_examples=60, deadline=None)
@given(result=topk_results())
def test_topk_results_round_trip_bytewise(result):
    parsed = _wire_round_trip(result)
    assert (parsed.query, parsed.k, parsed.absolute) == (result.query, result.k,
                                                         result.absolute)
    assert [w.window_index for w in parsed.windows] == [
        w.window_index for w in result.windows]
    for original, decoded in zip(result.windows, parsed.windows):
        for field in ("rows", "cols", "values"):
            _assert_same_array(getattr(original, field), getattr(decoded, field))


@settings(max_examples=60, deadline=None)
@given(result=lagged_results())
def test_lagged_results_round_trip_bytewise(result):
    parsed = _wire_round_trip(result)
    assert parsed.query == result.query
    assert [w.window_index for w in parsed.windows] == [
        w.window_index for w in result.windows]
    for original, decoded in zip(result.windows, parsed.windows):
        _assert_same_array(original.best_corr, decoded.best_corr)
        _assert_same_array(original.best_lag, decoded.best_lag)
