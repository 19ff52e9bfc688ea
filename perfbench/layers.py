"""Per-layer metrics derived from a traced run's spans and counters.

Each layer metric names the program module it measures.  ``*_ms`` is the p50
of self time per call (span minus child spans), except the client and the
service ``query_ms``/``append_ms``, which are whole-span p50s; a layer that
a workload never enters reports 0.  The ``.lo``/``.mid``/``.hi`` rows split a
cost by the history length it ran at (thirds of the swept range), which is
how a cost that grows with history shows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from measure import median
from tracing import Span, self_times

THIRDS = ("lo", "mid", "hi")
#: Costs reported per history third on the workload that sweeps history.
BY_HISTORY = ("core.sketch.extend_ms", "core.sketch.corr_prefix_ms",
              "storage.chunk_store.to_matrix_ms", "service.service.query_ms")

LAYER_METRICS: List[Tuple[str, str]] = [
    ("service.client.query_ms", "ms"),
    ("service.client.append_ms", "ms"),
    ("service.wire.decode_ms", "ms"),
    ("service.wire.encode_ms", "ms"),
    ("service.http.self_ms", "ms"),
    ("service.http.response_kb", "KB"),
    ("service.service.query_ms", "ms"),
    ("service.service.self_ms", "ms"),
    ("service.service.scans_per_query", "ratio"),
    ("service.service.append_ms", "ms"),
    ("api.planner.plan_ms", "ms"),
    ("api.planner.execute_ms", "ms"),
    ("storage.cache.hit_rate", "ratio"),
    ("storage.cache.builds", "count"),
    ("storage.cache.extensions", "count"),
    ("storage.cache.fingerprint_ms", "ms"),
    ("core.sketch.build_ms", "ms"),
    ("core.sketch.extend_ms", "ms"),
    ("core.sketch.corr_prefix_ms", "ms"),
    ("core.sketch.memory_mb", "MB"),
    ("core.dangoron.scan_ms", "ms"),
    ("core.dangoron.evaluation_fraction", "ratio"),
    ("core.topk.scan_ms", "ms"),
    ("storage.chunk_store.append_ms", "ms"),
    ("storage.chunk_store.to_matrix_ms", "ms"),
    ("streaming.online.feed_ms", "ms"),
] + [(f"{name}.{third}", "ms") for name in BY_HISTORY for third in THIRDS] + [
    ("trace.overhead_pct", "%"),
    ("trace.matched_share", "ratio"),
    ("trace.accounted_share", "ratio"),
]

#: Layer name -> span name whose self time it reports.
_SELF_TIMED = {
    "service.wire.decode_ms": "service.wire.decode",
    "service.wire.encode_ms": "service.wire.encode",
    "service.service.self_ms": "service.service.query",
    "api.planner.plan_ms": "api.planner.plan",
    "api.planner.execute_ms": "api.planner.execute",
    "storage.cache.fingerprint_ms": "storage.cache.fingerprint",
    "core.sketch.build_ms": "core.sketch.build",
    "core.sketch.extend_ms": "core.sketch.extend",
    "core.sketch.corr_prefix_ms": "core.sketch.corr_prefix",
    "core.dangoron.scan_ms": "core.dangoron.scan",
    "core.topk.scan_ms": "core.topk.scan",
    "storage.chunk_store.append_ms": "storage.chunk_store.append",
    "storage.chunk_store.to_matrix_ms": "storage.chunk_store.to_matrix",
}
#: Layer name -> span name whose whole duration it reports.
_SPAN_TIMED = {
    "service.client.query_ms": "service.client.query",
    "service.client.append_ms": "service.client.append",
    "service.service.query_ms": "service.service.query",
    "service.service.append_ms": "service.service.append",
    # The standing-query monitor builds its own window sketches; its metric
    # is the whole call, and those sketch spans stay out of core.sketch.*.
    "streaming.online.feed_ms": "streaming.online.feed",
}
_SKETCH_SPANS = ("core.sketch.build", "core.sketch.extend", "core.sketch.corr_prefix")


def in_intervals(spans: Sequence[Span], intervals) -> List[Span]:
    """Spans of every request whose root span started inside ``intervals``."""
    roots = {s.rid: s.start for s in spans if s.parent is None}
    return [s for s in spans
            if any(lo <= roots.get(s.rid, -1.0) <= hi for lo, hi in intervals)]


def match_requests(client: Sequence[Span], server: Sequence[Span]) -> Dict[int, List[Span]]:
    """Attach each server root span to the client call that caused it.

    The two processes share ``CLOCK_MONOTONIC``; a server span belongs to the
    client call whose interval contains it and whose request key (the query's
    wire document) equals its own.  Appends carry no key and are matched on
    containment alone.
    """
    pairs = (("service.client.query", "service.service.query"),
             ("service.client.append", "service.service.append"))
    matched: Dict[int, List[Span]] = {}
    for client_name, server_name in pairs:
        free = sorted((s for s in server if s.parent is None and s.name == server_name),
                      key=lambda s: s.start)
        for call in sorted((c for c in client if c.name == client_name),
                           key=lambda c: c.start):
            for index, root in enumerate(free):
                if (call.start <= root.start and root.end <= call.end
                        and root.attrs.get("key") == call.attrs.get("key")):
                    matched[call.sid] = [free.pop(index)]
                    break
    return matched


def _third(history: int, history_range: Tuple[int, int]) -> str:
    lo, hi = history_range
    position = (history - lo) / max(1, hi - lo)
    return THIRDS[min(2, max(0, int(position * 3)))]


def layer_metrics(
    client: Sequence[Span],
    server: Sequence[Span],
    counters: Dict[str, float],
    memory_spans: Sequence[Span] = (),
    history_range: Optional[Tuple[int, int]] = None,
) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` value from one traced phase, except
    ``trace.overhead_pct``, which needs the untraced phase too.

    ``client``/``server`` are the measured phase's spans on each side of the
    wire (in-process workloads pass everything as ``server``); ``counters``
    holds ``queries``, ``executed``, ``hits``, ``misses``, ``builds`` and
    ``extensions`` deltas over the phase; ``memory_spans`` are all spans of
    the phase's program process, warm-up included, for the sketch footprint.
    """
    matched = match_requests(client, server)
    client_self = self_times(client, matched)
    server_self = self_times(server)
    # Span ids are unique per side only, so look self times up per object.
    self_of = {id(s): server_self[s.sid] for s in server}
    self_of.update((id(s), client_self[s.sid]) for s in client)
    by_sid = {s.sid: s for s in server}

    def in_feed(span: Optional[Span]) -> bool:
        while span is not None and span.parent is not None:
            span = by_sid.get(span.parent)
            if span is not None and span.name == "streaming.online.feed":
                return True
        return False

    server = [s for s in server if not (s.name in _SKETCH_SPANS and in_feed(s))]
    spans = list(client) + list(server)

    def p50(values):
        return median(values) * 1e3 if values else 0.0

    out: Dict[str, float] = {}
    for metric, name in _SELF_TIMED.items():
        out[metric] = p50([self_of[id(s)] for s in spans if s.name == name])
    for metric, name in _SPAN_TIMED.items():
        out[metric] = p50([s.duration for s in spans if s.name == name])

    queries = [c for c in client if c.name == "service.client.query"]
    out["service.http.self_ms"] = p50([client_self[c.sid] for c in queries
                                       if c.sid in matched])
    sizes = [c.attrs["response_bytes"] / 1024.0 for c in queries
             if "response_bytes" in c.attrs]
    out["service.http.response_kb"] = median(sizes) if sizes else 0.0

    per_query = max(1.0, counters.get("queries", 0.0))
    lookups = counters.get("hits", 0.0) + counters.get("misses", 0.0)
    out["service.service.scans_per_query"] = counters.get("executed", 0.0) / per_query
    out["storage.cache.hit_rate"] = counters.get("hits", 0.0) / lookups if lookups else 0.0
    out["storage.cache.builds"] = counters.get("builds", 0.0) / per_query
    out["storage.cache.extensions"] = counters.get("extensions", 0.0) / per_query

    memory = [s.attrs["memory_mb"] for s in memory_spans if "memory_mb" in s.attrs]
    out["core.sketch.memory_mb"] = max(memory) if memory else 0.0
    scans = [s for s in server if s.name == "core.dangoron.scan"]
    pair_windows = sum(s.attrs.get("pair_windows", 0) for s in scans)
    out["core.dangoron.evaluation_fraction"] = (
        sum(s.attrs.get("evaluations", 0) for s in scans) / pair_windows
        if pair_windows else 0.0)

    for metric in BY_HISTORY:
        name = metric[:-3]
        whole_span = metric in _SPAN_TIMED
        for third in THIRDS:
            values = [] if history_range is None else [
                s.duration if whole_span else self_of[id(s)]
                for s in server
                if s.name == name and "history" in s.attrs
                and _third(s.attrs["history"], history_range) == third
            ]
            out[f"{metric}.{third}"] = p50(values)

    calls = [c for c in client if c.name in ("service.client.query", "service.client.append")]
    out["trace.matched_share"] = (
        sum(c.sid in matched for c in calls) / len(calls) if calls else 0.0)
    shares = [1.0 - client_self[c.sid] / c.duration for c in queries
              if c.sid in matched and c.duration > 0]
    out["trace.accounted_share"] = median(shares) if shares else 0.0
    return out
