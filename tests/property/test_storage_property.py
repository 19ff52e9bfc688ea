"""Property-based tests for the storage substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tiled import ColumnReblocker
from repro.storage.chunk_store import ChunkStore
from repro.storage.stats_index import StatsIndex


@st.composite
def chunked_appends(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000_000))
    num_series = draw(st.integers(min_value=1, max_value=6))
    chunk_columns = draw(st.integers(min_value=1, max_value=16))
    batch_sizes = draw(
        st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=8)
    )
    rng = np.random.default_rng(seed)
    batches = [rng.normal(size=(num_series, size)) for size in batch_sizes]
    return num_series, chunk_columns, batches


@given(chunked_appends())
@settings(max_examples=40, deadline=None)
def test_chunk_store_reads_equal_original(case):
    num_series, chunk_columns, batches = case
    store = ChunkStore(num_series, chunk_columns=chunk_columns)
    for batch in batches:
        store.append(batch)
    full = np.concatenate(batches, axis=1)
    assert store.length == full.shape[1]
    assert np.allclose(store.read_all(), full)
    # Arbitrary sub-range read.
    if full.shape[1] >= 2:
        assert np.allclose(store.read(1, full.shape[1]), full[:, 1:])


@given(
    st.integers(min_value=0, max_value=10_000_000),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=2, max_value=8),
    st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=5),
)
@settings(max_examples=30, deadline=None)
def test_incremental_index_extension_matches_batch_build(
    seed, num_series, basic, batch_sizes
):
    rng = np.random.default_rng(seed)
    batches = [rng.normal(size=(num_series, size)) for size in batch_sizes]
    full = np.concatenate(batches, axis=1)
    if full.shape[1] < basic:
        return

    # Feed batches through a stream-style loop: a residual buffer releases
    # whole basic windows, which first build and then extend the index.
    index = None
    reblocker = ColumnReblocker(basic)
    for batch in batches:
        blocks = list(reblocker.feed(batch))
        if not blocks:
            continue
        usable = np.concatenate(blocks, axis=1)
        if index is None:
            index = StatsIndex.build(usable, basic_window_size=basic)
        else:
            index = StatsIndex(index.sketch.extend(usable))

    batch_index = StatsIndex.build(full, basic_window_size=basic)
    assert index is not None
    assert index.layout.count == batch_index.layout.count
    assert np.array_equal(index.sketch.series_sums, batch_index.sketch.series_sums)
    assert np.array_equal(
        index.sketch.pair_sumprods, batch_index.sketch.pair_sumprods
    )
