"""Self-tests of the benchmark's oracle, self-time accounting and tail rule.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import measure  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
from repro.api import CorrelationSession, ThresholdQuery, TopKQuery  # noqa: E402
from repro.core.result import ThresholdedMatrix  # noqa: E402
from repro.core.topk import TopKWindow  # noqa: E402
from repro.timeseries import TimeSeriesMatrix  # noqa: E402


class _Answer:
    """A result stand-in: just the ``iter_windows`` protocol."""

    def __init__(self, windows):
        self.windows = windows

    def iter_windows(self):
        return iter(enumerate(self.windows))


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(7)
    base = rng.standard_normal(256)
    return np.stack([base + rng.standard_normal(256) for _ in range(8)])


def _run(data, query):
    return CorrelationSession(TimeSeriesMatrix(data), basic_window_size=16).run(query)


@pytest.fixture(scope="module")
def threshold_case(data):
    query = ThresholdQuery(start=0, end=256, window=64, step=32, threshold=0.5)
    result = _run(data, query)
    windows = [matrix for _, matrix in result.iter_windows()]
    return query, windows, oracle.WindowOracle(data)


@pytest.fixture(scope="module")
def topk_case(data):
    query = TopKQuery(start=0, end=256, window=64, step=32, k=3)
    result = _run(data, query)
    windows = [window for _, window in result.iter_windows()]
    return query, windows, oracle.WindowOracle(data)


def test_oracle_passes_the_programs_answer(threshold_case, topk_case):
    query, windows, truth = threshold_case
    check = oracle.check_threshold(_Answer(windows), query, truth)
    assert check.ok and check.expected > 0 and 0 < check.found <= check.expected
    query, windows, truth = topk_case
    assert oracle.check_topk(_Answer(windows), query, truth).ok


def test_oracle_flags_a_false_edge(threshold_case):
    query, windows, truth = threshold_case
    exact = truth.corr(0, query.window)
    below = [pair for pair in zip(*truth.upper) if exact[pair] < query.threshold - 0.01]
    assert below
    i, j = below[0]
    first = windows[0]
    injected = ThresholdedMatrix(
        first.num_series, np.append(first.rows, i), np.append(first.cols, j),
        np.append(first.values, exact[i, j]))
    check = oracle.check_threshold(_Answer([injected] + windows[1:]), query, truth)
    assert any("false edge" in failure for failure in check.failures)


def test_oracle_flags_a_perturbed_value(threshold_case):
    query, windows, truth = threshold_case
    first = next(w for w in windows if w.num_edges)
    index = windows.index(first)
    values = first.values.copy()
    values[0] += 1e-7
    perturbed = ThresholdedMatrix(first.num_series, first.rows, first.cols, values)
    answer = windows[:index] + [perturbed] + windows[index + 1:]
    check = oracle.check_threshold(_Answer(answer), query, truth)
    assert any("value off" in failure for failure in check.failures)


def test_oracle_flags_a_wrong_topk_set(topk_case):
    query, windows, truth = topk_case
    exact = truth.corr(0, query.window)
    first = windows[0]
    chosen = set(zip(first.rows.tolist(), first.cols.tolist()))
    i, j = min((p for p in zip(*truth.upper) if p not in chosen), key=lambda p: exact[p])
    rows, cols = first.rows.copy(), first.cols.copy()
    values = first.values.copy()
    rows[-1], cols[-1], values[-1] = i, j, exact[i, j]
    wrong = TopKWindow(first.window_index, rows, cols, values)
    check = oracle.check_topk(_Answer([wrong] + windows[1:]), query, truth)
    assert any("wrong top-3 set" in failure for failure in check.failures)


def _watch_docs(truth, indices, step, window, threshold):
    """Exact watch-window documents, as a correct append reply holds them."""
    docs = []
    for k in indices:
        exact = truth.corr(k * step, window)
        keep = exact[truth.upper] >= threshold
        docs.append({"index": k, "start": k * step, "end": k * step + window,
                     "rows": truth.upper[0][keep].tolist(),
                     "cols": truth.upper[1][keep].tolist(),
                     "values": exact[truth.upper][keep].tolist()})
    return docs


def test_oracle_flags_a_dropped_or_extra_watch_window(data):
    truth = oracle.WindowOracle(data)
    due = [2, 3, 4, 5]
    docs = _watch_docs(truth, due, 32, 64, 0.5)
    whole = oracle.check_watch_windows(docs, due, 32, 64, 0.5, truth)
    assert whole.ok and whole.found == whole.expected > 0
    dropped = oracle.check_watch_windows(docs[:2] + docs[3:], due, 32, 64, 0.5, truth)
    assert any("watch window 4: missing" in f for f in dropped.failures)
    assert dropped.expected == whole.expected and dropped.found < whole.found
    extra = oracle.check_watch_windows(docs, due[:3], 32, 64, 0.5, truth)
    assert any("watch window 5: not due" in f for f in extra.failures)


def _span(sid, name, start, end, parent=None, rid=1, **attrs):
    span = tracing.Span(sid, name, start, parent, rid, attrs)
    span.end = end
    return span


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, "root", 0.0, 10.0),
        _span(2, "a", 1.0, 4.0, parent=1),
        _span(3, "b", 3.0, 6.0, parent=1),  # overlaps a: union is 1..6
        _span(4, "a.child", 2.0, 3.0, parent=2),
        _span(5, "leaf", 8.0, 9.0, parent=1),
    ]
    times = tracing.self_times(spans)
    assert times == pytest.approx({1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 1.0})


def test_self_time_attaches_spans_from_another_process():
    client = [_span(1, "service.client.query", 0.0, 10.0, key="q")]
    server = [_span(1, "service.service.query", 2.0, 7.0, key="q"),
              _span(2, "service.service.query", 2.5, 3.0, rid=2, key="other")]
    matched = layers.match_requests(client, server)
    assert [span.start for span in matched[1]] == [2.0]
    assert tracing.self_times(client, matched)[1] == pytest.approx(5.0)


@pytest.mark.parametrize("count, pct, beyond", [
    (1000, 99.0, 10), (300, 95.0, 15), (150, 90.0, 15), (40, 75.0, 10),
])
def test_tail_reports_its_percentile_and_sample_count(count, pct, beyond):
    values = list(np.random.default_rng(count).permutation(count).astype(float))
    tail = measure.tail(values, pct)
    assert (tail["pct"], tail["samples"], tail["beyond"]) == (pct, count, beyond)
    assert sum(v > tail["value"] for v in values) == beyond


@pytest.mark.parametrize("count, pct", [(1000, 99.9), (150, 95.0), (39, 75.0), (5, 50.0)])
def test_tail_needs_ten_samples_beyond_it(count, pct):
    assert measure.tail([float(v) for v in range(count)], pct) is None


def test_guard_refuses_more_load_threads_than_cpus():
    env = {"load_threads": 3, "cpus_usable": 2}
    with pytest.raises(measure.EnvironmentRefused):
        measure.guard(env)
    measure.guard({"load_threads": 2, "cpus_usable": 2})
