"""The three workloads.  Each drives the program through its public surfaces
only — ``repro serve`` plus ``ServiceClient`` over HTTP, or
``CorrelationSession`` in-process — and checks every answer with
:mod:`oracle`.  Inputs are a function of the seed alone.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import layers
import measure
import oracle
import tracing


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool


@dataclass
class Phase:
    """What one measured phase produced."""

    attempted: int = 0
    failed: int = 0
    found: int = 0
    expected: int = 0
    query_ms: List[float] = field(default_factory=list)
    append_ms: List[float] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    busy_s: float = 0.0
    pair_windows: int = 0
    peak_rss_mb: float = 0.0
    layers: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def record(self, check: oracle.Check, pair_windows: int = 0, times: int = 1) -> None:
        """Account ``times`` answers that each got ``check``."""
        with self.lock:
            self.found += check.found * times
            self.expected += check.expected * times
            self.pair_windows += pair_windows * times
            if not check.ok:
                self.failed += times
                self.failures.extend(check.failures[:3])

    def refuse(self, message: str) -> None:
        with self.lock:
            self.failed += 1
            self.failures.append(message)

    def end_to_end(self) -> Dict[str, float]:
        queries = len(self.query_ms)
        return {
            "setup_s": measure.median(self.setup_s),
            "query_p50_ms": measure.median(self.query_ms) if queries else float("nan"),
            "throughput_qps": queries / self.busy_s if self.busy_s else 0.0,
            "pair_windows_per_s": self.pair_windows / self.busy_s if self.busy_s else 0.0,
            "edge_recall": self.found / self.expected if self.expected else 1.0,
            "peak_rss_mb": self.peak_rss_mb,
        }


def _catalog(path: Path, name: str, values: np.ndarray, description: str) -> Path:
    from repro.storage.catalog import Catalog
    from repro.storage.chunk_store import ChunkStore

    store = ChunkStore(values.shape[0], chunk_columns=256)
    store.append(values)
    Catalog(path).add_dataset(name, store, description=description)
    return path


def _server_counters(client, dataset: str) -> Dict[str, float]:
    stats = client.metrics()["datasets"][dataset]
    cache = stats["sketch_cache"]
    return {"queries": stats["queries"], "executed": stats["executed"],
            "hits": cache["hits"], "misses": cache["misses"],
            "builds": cache["builds"], "extensions": cache["extensions"]}


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before[key] for key in after}


def _add(total: Dict[str, float], part: Dict[str, float]) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0.0) + value


def _sub_seed(seed: int, index: int) -> int:
    """A seed for the ``index``-th dataset of a run, derived from the run seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _overhead(traced: Phase, plain: Phase) -> float:
    base = measure.median(plain.query_ms)
    return (measure.median(traced.query_ms) / base - 1.0) * 100.0


# ---------------------------------------------------------------- serve-hot
HOT_SERIES, HOT_LENGTH, HOT_BASIC = 48, 2048, 16
HOT_WINDOW, HOT_STEP, HOT_SHAPES, HOT_K = 256, 64, 8, 10
HOT_BETAS = (0.60, 0.66, 0.72, 0.78, 0.84)
#: One block of the request mix: 80 % threshold queries, 4 at each β, and 20 %
#: top-k queries (``None``).  The latency mix is multi-modal (an answer's size
#: depends on β), so a seed-drawn mix would move the median; sending whole
#: shuffled blocks gives every run the same shares.
HOT_BLOCK = tuple(beta for beta in HOT_BETAS for _ in range(4)) + (None,) * 5
HOT_CLIENTS = 2
SETUP_REPEATS = 5


def hot_values(seed: int) -> np.ndarray:
    """E20's one-factor data: every series is a shared base plus 0.45 noise."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(HOT_LENGTH)
    return np.stack([base + 0.45 * rng.standard_normal(HOT_LENGTH)
                     for _ in range(HOT_SERIES)])


def hot_query(shape: int, beta: Optional[float]):
    """Threshold query (``beta`` given) or top-k query over shifted range ``shape``."""
    from repro.api import ThresholdQuery, TopKQuery

    start = shape * HOT_STEP
    end = start + HOT_LENGTH - HOT_SHAPES * HOT_STEP
    if beta is None:
        return TopKQuery(start=start, end=end, window=HOT_WINDOW, step=HOT_STEP, k=HOT_K)
    return ThresholdQuery(start=start, end=end, window=HOT_WINDOW, step=HOT_STEP,
                          threshold=beta)


def _check_answer(result, query, truth: oracle.WindowOracle) -> oracle.Check:
    if getattr(query, "mode", "threshold") == "topk":
        check = oracle.check_topk(result, query, truth)
        check.found = check.expected = 0  # recall is over threshold queries
        return check
    return oracle.check_threshold(result, query, truth)


def _digest(result) -> bytes:
    """A digest of every window's pairs and values, to group equal answers."""
    digest = hashlib.blake2b(digest_size=16)
    for index, window in result.iter_windows():
        digest.update(np.array([index, len(window.rows)], dtype=np.int64).tobytes())
        for array in (window.rows, window.cols, window.values):
            digest.update(np.ascontiguousarray(array))
    return digest.digest()


#: Distinct answers the closed loop keeps for checking after the run.  Equal
#: answers to one query share a digest, so this holds about one per query
#: shape; past it, answers are checked as they arrive.
HOT_KEPT_ANSWERS = 64


class _Answers:
    """Answers of a closed loop, grouped by query and digest so that each
    distinct one is checked once, after the timed region."""

    def __init__(self, phase: Phase, truth: oracle.WindowOracle, pair_windows: int) -> None:
        self.phase, self.truth, self.pair_windows = phase, truth, pair_windows
        self.kept: Dict[Tuple[object, bytes], list] = {}

    def add(self, key, query, result) -> None:
        digest = (key, _digest(result))
        with self.phase.lock:
            entry = self.kept.get(digest)
            if entry is not None:
                entry[2] += 1
                return
            if len(self.kept) < HOT_KEPT_ANSWERS:
                self.kept[digest] = [query, result, 1]
                return
        self.phase.record(_check_answer(result, query, self.truth), self.pair_windows)

    def check(self) -> None:
        for query, result, times in self.kept.values():
            self.phase.record(_check_answer(result, query, self.truth),
                              self.pair_windows, times)
        self.kept.clear()


def _hot_launch(ctx: Context, catalog: Path, truth, phase: Phase, spans: Optional[Path]):
    """Launch a server and warm every shape; returns the server and set-up seconds."""
    from repro.service import ServiceClient

    started = time.monotonic()
    server = measure.Server(ctx.root, catalog, HOT_BASIC, ctx.work / "server.log", spans)
    client = ServiceClient(server.url, timeout=120)
    try:
        for shape in range(HOT_SHAPES):
            for beta in (HOT_BETAS[shape % len(HOT_BETAS)], None):
                query = hot_query(shape, beta)
                phase.attempted += 1
                phase.record(_check_answer(client.query("hot", query), query, truth))
    except BaseException:
        server.stop()
        raise
    return server, time.monotonic() - started


def _hot_phase(ctx: Context, catalog: Path, truth, traced: bool, setups: int) -> Phase:
    from repro.exceptions import ServiceError
    from repro.service import ServiceClient

    phase = Phase()
    spans_path = ctx.work / "hot-spans.json" if traced else None
    for attempt in range(setups):
        server, seconds = _hot_launch(ctx, catalog, truth, phase, spans_path)
        phase.setup_s.append(seconds)
        if attempt + 1 < setups:
            server.stop()

    recorder = tracing.Recorder()
    if traced:
        tracing.install_client_side(recorder)
    pair_windows = HOT_SERIES * (HOT_SERIES - 1) // 2 * hot_query(0, 0.6).num_windows
    answers = _Answers(phase, truth, pair_windows)
    barrier = threading.Barrier(HOT_CLIENTS + 1)
    stop_at = [0.0]

    def run_client(index: int) -> None:
        rng = np.random.default_rng([ctx.seed, index])
        client = ServiceClient(server.url, timeout=120)
        barrier.wait()
        try:
            client_loop(rng, client)
        except Exception:  # noqa: BLE001 -- a crashed client fails the run, loudly
            traceback.print_exc()
            phase.refuse(f"client {index} crashed")

    def client_loop(rng, client) -> None:
        betas: List[Optional[float]] = []
        while time.monotonic() < stop_at[0]:
            if not betas:
                betas = [HOT_BLOCK[i] for i in rng.permutation(len(HOT_BLOCK))]
            beta = betas.pop()
            shape = int(rng.integers(HOT_SHAPES))
            query = hot_query(shape, beta)
            with phase.lock:
                phase.attempted += 1
            sent = time.monotonic()
            try:
                result = client.query("hot", query)
            except ServiceError as error:
                phase.refuse(f"query refused: {error}")
                continue
            elapsed = time.monotonic() - sent
            with phase.lock:
                phase.query_ms.append(elapsed * 1e3)
            answers.add((shape, beta), query, result)

    threads = [threading.Thread(target=run_client, args=(i,)) for i in range(HOT_CLIENTS)]
    try:
        probe = ServiceClient(server.url, timeout=120)
        before = _server_counters(probe, "hot") if traced else {}
        for thread in threads:
            thread.start()
        started = time.monotonic()
        stop_at[0] = started + ctx.seconds
        barrier.wait()
        for thread in threads:
            thread.join()
        ended = time.monotonic()
        phase.busy_s = ended - started
        counters = _delta(_server_counters(probe, "hot"), before) if traced else {}
        phase.peak_rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    answers.check()
    if traced:
        server_spans = tracing.load_spans(spans_path)
        window = [(started, ended)]
        phase.layers = layers.layer_metrics(
            layers.in_intervals(recorder.spans, window),
            layers.in_intervals(server_spans, window),
            counters, memory_spans=server_spans)
    return phase


def serve_hot(ctx: Context) -> Tuple[Phase, Optional[Phase]]:
    values = hot_values(ctx.seed)
    truth = oracle.WindowOracle(values)
    for begin in range(0, HOT_LENGTH - HOT_WINDOW + 1, HOT_STEP):
        truth.corr(begin, HOT_WINDOW)
    catalog = _catalog(ctx.work / "hot-catalog", "hot", values, "serve-hot one-factor data")
    plain = _hot_phase(ctx, catalog, truth, traced=False,
                       setups=1 if ctx.trace else SETUP_REPEATS)
    if not ctx.trace:
        return plain, None
    traced = _hot_phase(ctx, catalog, truth, traced=True, setups=1)
    traced.layers["trace.overhead_pct"] = _overhead(traced, plain)
    return plain, traced


# ---------------------------------------------------------------- cold-scan
COLD_SERIES, COLD_LENGTH, COLD_BASIC = 256, 8192, 32
COLD_WINDOW, COLD_STEP, COLD_BETA = 512, 64, 0.8


def cold_values(seed: int, op: int):
    """Fresh random-walk price levels for op ``op`` of run ``seed``."""
    from repro.datasets.finance import SyntheticMarket

    return SyntheticMarket(num_assets=COLD_SERIES, num_days=COLD_LENGTH,
                           seed=_sub_seed(seed, op)).generate_prices()


def _cold_phase(ctx: Context, traced: bool) -> Phase:
    from repro.api import CorrelationSession, ThresholdQuery
    from repro.api.cost import CostModel

    phase = Phase()
    recorder = tracing.Recorder()
    if traced:
        tracing.install_server_side(recorder)
    query = ThresholdQuery(start=0, end=COLD_LENGTH, window=COLD_WINDOW,
                           step=COLD_STEP, threshold=COLD_BETA)
    pair_windows = COLD_SERIES * (COLD_SERIES - 1) // 2 * query.num_windows
    counters: Dict[str, float] = {}
    op = 0
    while phase.busy_s < ctx.seconds:
        matrix = cold_values(ctx.seed, op)
        op += 1
        phase.attempted += 1
        started = time.monotonic()
        with recorder.span("op"):
            session = CorrelationSession(matrix, basic_window_size=COLD_BASIC,
                                         cost_model=CostModel.fixture())
            result = session.run(query)
        elapsed = time.monotonic() - started
        phase.busy_s += elapsed
        phase.query_ms.append(elapsed * 1e3)
        cache = session.sketch_cache
        _add(counters, {"queries": 1, "hits": cache.stats.hits,
                        "misses": cache.stats.misses, "builds": cache.builds,
                        "extensions": cache.stats.sketch_extensions})
        del session
        phase.record(oracle.check_threshold(result, query, oracle.WindowOracle(matrix.values)),
                     pair_windows)
        del result, matrix
        if not traced:
            # Set-up samples are spread over the run, between ops and outside
            # their timer, so that one slow moment of the host cannot set the
            # median.
            phase.setup_s.append(measure.time_import(ctx.root))
    if traced:
        phase.layers = layers.layer_metrics((), recorder.spans, counters,
                                            memory_spans=recorder.spans)
    return phase


def cold_scan(ctx: Context) -> Tuple[Phase, Optional[Phase]]:
    plain = _cold_phase(ctx, traced=False)
    plain.peak_rss_mb = measure.vm_hwm_mb(os.getpid())
    if not ctx.trace:
        return plain, None
    traced = _cold_phase(ctx, traced=True)
    traced.layers["trace.overhead_pct"] = _overhead(traced, plain)
    return plain, traced


# ------------------------------------------------------------ append-stream
APP_SERIES, APP_START, APP_END, APP_CHUNK, APP_BASIC = 64, 2048, 8192, 256, 32
APP_WINDOW, APP_STEP, APP_BETA = 512, 64, 0.6
APP_CRISES = ((2800, 3400), (5600, 6400))


def append_values(seed: int, sweep: int) -> np.ndarray:
    """Returns for sweep ``sweep`` of run ``seed``: each server's life gets its
    own data, so a run's medians average over several datasets."""
    from repro.datasets.finance import SyntheticMarket

    return SyntheticMarket(num_assets=APP_SERIES, num_days=APP_END,
                           crisis_periods=APP_CRISES, volatility_clustering=True,
                           seed=_sub_seed(seed, sweep)).generate_returns().values


def _append_query(end: int):
    from repro.api import ThresholdQuery

    return ThresholdQuery(start=0, end=end, window=APP_WINDOW, step=APP_STEP,
                          threshold=APP_BETA)


def _watch_due(before: int, after: int) -> List[int]:
    """Indices of the watch windows whose data completes when the history
    grows from ``before`` to ``after`` columns."""
    last = (APP_END - APP_WINDOW) // APP_STEP
    return [k for k in range(last + 1) if before < k * APP_STEP + APP_WINDOW <= after]


def _check_watch(documents, before: int, after: int, truth) -> oracle.Check:
    return oracle.check_watch_windows(documents, _watch_due(before, after),
                                      APP_STEP, APP_WINDOW, APP_BETA, truth)


def _sweep(ctx: Context, index: int, phase: Phase, spans: Optional[Path],
           counters: Dict[str, float], intervals: List[Tuple[float, float]]) -> None:
    """One server's life: launch over a fresh 2048-column catalog, then append
    256 columns and query the whole history until 8192 columns."""
    from repro.exceptions import ServiceError
    from repro.service import ServiceClient

    values = append_values(ctx.seed, index)
    truth = oracle.WindowOracle(values)
    catalog = ctx.work / "append-catalog"
    shutil.rmtree(catalog, ignore_errors=True)
    _catalog(catalog, "stream", values[:, :APP_START], "append-stream returns")
    started = time.monotonic()
    server = measure.Server(ctx.root, catalog, APP_BASIC, ctx.work / "server.log", spans)
    try:
        client = ServiceClient(server.url, timeout=120)
        phase.attempted += 2
        watch = client.watch("stream", _append_query(APP_END))
        phase.record(_check_watch(watch["windows"], 0, APP_START, truth))
        warm = _append_query(APP_START)
        phase.record(oracle.check_threshold(client.query("stream", warm), warm, truth))
        phase.setup_s.append(time.monotonic() - started)
        before = _server_counters(client, "stream") if spans else {}
        sweep_started = time.monotonic()
        for length in range(APP_START, APP_END, APP_CHUNK):
            block = values[:, length:length + APP_CHUNK]
            phase.attempted += 2
            try:
                sent = time.monotonic()
                reply = client.append("stream", block)
                appended = time.monotonic() - sent
                query = _append_query(length + APP_CHUNK)
                sent = time.monotonic()
                result = client.query("stream", query)
                queried = time.monotonic() - sent
            except ServiceError as error:
                phase.refuse(f"request refused: {error}")
                continue
            phase.append_ms.append(appended * 1e3)
            phase.query_ms.append(queried * 1e3)
            phase.busy_s += appended + queried
            if reply.get("length") != length + APP_CHUNK or len(reply["watches"]) != 1:
                phase.refuse(f"append reply out of step: {reply.get('length')}")
            else:
                phase.record(_check_watch(reply["watches"][0]["windows"], length,
                                          length + APP_CHUNK, truth))
            phase.record(oracle.check_threshold(result, query, truth),
                         APP_SERIES * (APP_SERIES - 1) // 2 * query.num_windows)
        intervals.append((sweep_started, time.monotonic()))
        if spans:
            _add(counters, _delta(_server_counters(client, "stream"), before))
        phase.peak_rss_mb = max(phase.peak_rss_mb, server.peak_rss_mb())
    finally:
        server.stop()


def _append_phase(ctx: Context, traced: bool) -> Phase:
    phase = Phase()
    recorder = tracing.Recorder()
    if traced:
        tracing.install_client_side(recorder)
    counters: Dict[str, float] = {}
    intervals: List[Tuple[float, float]] = []
    server_spans: List[tracing.Span] = []
    sweep = 0
    while phase.busy_s < ctx.seconds:
        spans = ctx.work / "append-spans.json" if traced else None
        _sweep(ctx, sweep, phase, spans, counters, intervals)
        sweep += 1
        if traced:
            offset = max((s.sid for s in server_spans), default=0)
            server_spans.extend(tracing.load_spans(spans, offset))
    if traced:
        phase.layers = layers.layer_metrics(
            layers.in_intervals(recorder.spans, intervals),
            layers.in_intervals(server_spans, intervals),
            counters, memory_spans=server_spans,
            history_range=(APP_START, APP_END))
    return phase


def append_stream(ctx: Context) -> Tuple[Phase, Optional[Phase]]:
    plain = _append_phase(ctx, traced=False)
    if not ctx.trace:
        return plain, None
    traced = _append_phase(ctx, traced=True)
    traced.layers["trace.overhead_pct"] = _overhead(traced, plain)
    return plain, traced


#: name -> (runner, load-generator threads, tail percentile).  Each tail
#: percentile is the highest that keeps at least ``measure.MIN_BEYOND``
#: samples beyond it in a 20-second run: serve-hot completes 400-750
#: queries, append-stream 144-216 rounds, cold-scan 9-12 ops (no tail).
WORKLOADS = {
    "serve-hot": (serve_hot, HOT_CLIENTS, 95.0),
    "cold-scan": (cold_scan, 1, None),
    "append-stream": (append_stream, 1, 90.0),
}
