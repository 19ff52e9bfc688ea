"""Property tests: a standing query's windows do not depend on how the stream
is split into appends, and every value it reports is the offline value.

Hypothesis splits a stream into appends of arbitrary sizes — single columns
and chunks shorter than one basic window included — and feeds them to an
:class:`OnlineCorrelationMonitor`.  Checked per split:

1. without temporal pruning, every window's ``rows/cols/values`` are
   ``np.array_equal`` to one whole-stream append;
2. one whole-stream append is ``np.array_equal`` to ``DangoronEngine.run``
   with the same pruning flag, window by window;
3. on every edge a split shares with ``DangoronEngine.run``, the two values
   are bitwise equal, and every reported edge is an exact (unpruned) edge
   with the exact value's bits.

With temporal pruning on, *which* edges a split reports can differ from the
whole-stream answer: the Eq. 2 look-ahead is capped by the data already
appended, and the bound is a heuristic on non-stationary data.  Property 3
is what holds for every split.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dangoron import DangoronEngine
from repro.streaming.online import OnlineCorrelationMonitor
from repro.timeseries.matrix import TimeSeriesMatrix

#: (window, step, basic window) triples of the aligned regime.
GEOMETRIES = [(32, 8, 8), (64, 32, 16), (48, 24, 8), (32, 32, 16)]


@st.composite
def stream_cases(draw):
    num_series = draw(st.integers(min_value=2, max_value=6))
    window, step, basic = draw(st.sampled_from(GEOMETRIES))
    length = draw(st.integers(min_value=window, max_value=window + 6 * step + basic))
    chunks = draw(
        st.lists(st.integers(min_value=1, max_value=3 * basic), min_size=1, max_size=6)
    )
    threshold = draw(st.sampled_from([0.2, 0.5, 0.8]))
    factor = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    if factor:
        base = rng.standard_normal(length)
        values = np.stack(
            [base + 0.8 * rng.standard_normal(length) for _ in range(num_series)]
        )
    else:
        values = np.cumsum(rng.standard_normal((num_series, length)), axis=1)
    return values, (window, step, basic, threshold), chunks


def stream(values, geometry, chunks, temporal):
    window, step, basic, threshold = geometry
    monitor = OnlineCorrelationMonitor(
        num_series=values.shape[0], window=window, step=step, threshold=threshold,
        basic_window_size=basic, use_temporal_pruning=temporal,
    )
    emitted, start, turn = [], 0, 0
    while start < values.shape[1]:
        size = chunks[turn % len(chunks)]
        emitted.extend(monitor.append(values[:, start : start + size]))
        start, turn = start + size, turn + 1
    return monitor, emitted


def offline(monitor, values, temporal):
    engine = DangoronEngine(
        basic_window_size=monitor.basic_window_size, use_temporal_pruning=temporal
    )
    query = monitor.equivalent_query(values.shape[1])
    return engine.run(TimeSeriesMatrix(values), query).matrices


def same_window(left, right):
    return all(
        np.array_equal(getattr(left, name), getattr(right, name))
        for name in ("rows", "cols", "values")
    )


@given(stream_cases(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_any_append_split_matches_whole_stream_and_offline(case, temporal):
    values, geometry, chunks = case
    monitor, split = stream(values, geometry, chunks, temporal)
    _, whole = stream(values, geometry, [values.shape[1]], temporal)
    reference = offline(monitor, values, temporal)
    exact = offline(monitor, values, temporal=False)

    assert [r.window_index for r in split] == list(range(len(reference)))
    assert [(r.start, r.end) for r in split] == [(r.start, r.end) for r in whole]
    for ours, batch in zip(whole, reference, strict=True):
        assert same_window(ours.matrix, batch)
    for ours, batch, truth in zip(split, reference, exact, strict=True):
        if not temporal:
            assert same_window(ours.matrix, batch)
        reported = ours.matrix.edge_dict()
        for edges in (batch.edge_dict(), truth.edge_dict()):
            shared = reported.keys() & edges.keys()
            assert all(
                np.float64(reported[e]).tobytes() == np.float64(edges[e]).tobytes()
                for e in shared
            )
        assert reported.keys() <= truth.edge_dict().keys()
