"""Span recorder for the traced benchmark run.

Spans are recorded by the benchmark's own wrappers around public calls into
each layer; the program itself is never edited.  A span carries a name,
start and end (``time.monotonic``, which on Linux is the system-wide
``CLOCK_MONOTONIC`` and so comparable between the load generator and the
server process), the span that caused it, a request id shared by every span
of one root call, and free-form attributes.  Spans stay in memory until the
run ends.

A layer's *self time* is its span's duration minus the part of that interval
covered by its child spans (:func:`self_times`).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
import weakref
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "rid", "attrs")

    def __init__(self, sid: int, name: str, start: float, parent: Optional[int],
                 rid: int, attrs: Dict[str, object]) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> Dict[str, object]:
        return {"sid": self.sid, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "rid": self.rid,
                "attrs": self.attrs}

    @classmethod
    def from_json(cls, doc: Dict[str, object]) -> "Span":
        span = cls(doc["sid"], doc["name"], doc["start"], doc["parent"],
                   doc["rid"], doc["attrs"])
        span.end = doc["end"]
        return span


class Recorder:
    """Collects spans; the current span lives in a ``contextvars`` variable,
    so each thread (each HTTP handler, each load-generator client) builds its
    own tree."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[Optional[Span]] = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        parent = self._current.get()
        with self._lock:
            sid = next(self._ids)
        record = Span(sid, name, time.monotonic(),
                      parent.sid if parent else None,
                      parent.rid if parent else sid, attrs)
        token = self._current.set(record)
        try:
            yield record
        finally:
            record.end = time.monotonic()
            self._current.reset(token)
            with self._lock:
                self.spans.append(record)

    def current(self) -> Optional[Span]:
        return self._current.get()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([span.to_json() for span in self.spans], handle)


def load_spans(path, offset: int = 0) -> List[Span]:
    """Spans a process dumped; ``offset`` shifts their ids so spans of
    several processes can be analysed as one list."""
    with open(path, encoding="utf-8") as handle:
        spans = [Span.from_json(doc) for doc in json.load(handle)]
    for span in spans:
        span.sid += offset
        span.rid += offset
        if span.parent is not None:
            span.parent += offset
    return spans


# --------------------------------------------------------------- self time
def _covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span],
               extra_children: Optional[Dict[int, List[Span]]] = None) -> Dict[int, float]:
    """Self time of every span: duration minus the time its children cover.

    ``extra_children`` attaches spans recorded elsewhere (the server's root
    span of a request) under a span of this tree (the client's call).
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    for sid, extra in (extra_children or {}).items():
        children.setdefault(sid, []).extend((s.start, s.end) for s in extra)
    return {
        span.sid: span.duration - _covered(children.get(span.sid, []),
                                           span.start, span.end)
        for span in spans
    }


# ------------------------------------------------------------------ wrappers
def _wrap_function(recorder: Recorder, name: str, function, annotate=None):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as record:
            result = function(*args, **kwargs)
            if annotate is not None:
                annotate(record, args, kwargs, result)
            return result
    return wrapper


def wrap_method(recorder: Recorder, owner, attribute: str, name: str, annotate=None):
    """Replace ``owner.attribute`` (function, classmethod) by a span-recording one."""
    raw = owner.__dict__[attribute]
    if isinstance(raw, classmethod):
        setattr(owner, attribute,
                classmethod(_wrap_function(recorder, name, raw.__func__, annotate)))
    else:
        setattr(owner, attribute, _wrap_function(recorder, name, raw, annotate))


def wrap_first_access(recorder: Recorder, owner, attribute: str, name: str, annotate=None):
    """Wrap a lazily computed property; only the first access per object is a span."""
    prop = owner.__dict__[attribute]
    seen: "weakref.WeakSet" = weakref.WeakSet()

    def getter(instance):
        if instance in seen:
            return prop.fget(instance)
        with recorder.span(name) as record:
            value = prop.fget(instance)
            seen.add(instance)
            if annotate is not None:
                annotate(record, (instance,), {}, value)
        return value

    setattr(owner, attribute, property(getter, prop.fset, prop.fdel, prop.__doc__))


def install_server_side(recorder: Recorder) -> None:
    """Wrap every program layer that runs where the data lives.

    In the served workloads this runs inside the server process (see
    ``serve_launcher.py``); in cold-scan it runs in the benchmark process.
    Module-level names are patched where the *caller* looks them up.
    """
    import repro.api.planner as planner_module
    import repro.service.service as service_module
    import repro.storage.cache as cache_module
    from repro.api.planner import QueryPlanner
    from repro.core.dangoron import DangoronEngine
    from repro.core.sketch import BasicWindowSketch
    from repro.service.service import CorrelationService
    from repro.storage.chunk_store import ChunkStore
    from repro.streaming.online import OnlineCorrelationMonitor

    def request_key(record, args, kwargs, result):
        request = args[2] if len(args) > 2 else kwargs.get("request")
        record.attrs["key"] = json.dumps(request, sort_keys=True)
        record.attrs["history"] = int(request.get("end", 0))

    def scan_stats(record, args, kwargs, result):
        stats = result.stats
        record.attrs["evaluations"] = int(stats.exact_evaluations)
        record.attrs["pair_windows"] = int(stats.candidate_pairs * stats.num_windows)

    wrap_method(recorder, CorrelationService, "query", "service.service.query",
                annotate=request_key)
    wrap_method(recorder, CorrelationService, "append", "service.service.append")
    service_module.result_to_wire = _wrap_function(
        recorder, "service.wire.encode", service_module.result_to_wire)
    wrap_method(recorder, QueryPlanner, "plan", "api.planner.plan")
    wrap_method(recorder, QueryPlanner, "execute", "api.planner.execute")
    # Cache lookups hash through the cache's memo, which calls the public
    # module-level ``matrix_fingerprint`` on a miss; ``SketchCache
    # .fingerprint_of`` is only reached from the worker-pool path, which
    # ``repro serve`` leaves off.
    cache_module.matrix_fingerprint = _wrap_function(
        recorder, "storage.cache.fingerprint", cache_module.matrix_fingerprint)
    wrap_method(recorder, BasicWindowSketch, "build", "core.sketch.build")
    wrap_method(recorder, BasicWindowSketch, "extend", "core.sketch.extend",
                annotate=lambda r, a, k, res: r.attrs.update(history=res.layout.covered_end))

    def prefix_annotate(record, args, kwargs, result):
        sketch = args[0]
        record.attrs["history"] = int(sketch.layout.covered_end)
        record.attrs["memory_mb"] = sketch.memory_bytes() / 1e6

    wrap_first_access(recorder, BasicWindowSketch, "corr_prefix",
                      "core.sketch.corr_prefix", annotate=prefix_annotate)
    wrap_method(recorder, DangoronEngine, "run", "core.dangoron.scan", annotate=scan_stats)
    planner_module.sliding_top_k = _wrap_function(
        recorder, "core.topk.scan", planner_module.sliding_top_k)
    wrap_method(recorder, ChunkStore, "append", "storage.chunk_store.append")
    wrap_method(recorder, ChunkStore, "to_matrix", "storage.chunk_store.to_matrix",
                annotate=lambda r, a, k, res: r.attrs.update(history=res.length))
    wrap_method(recorder, OnlineCorrelationMonitor, "append", "streaming.online.feed")


def install_client_side(recorder: Recorder) -> None:
    """Wrap the load generator's view: the typed client, decode, and the
    response size read off the HTTP layer."""
    import urllib.request

    import repro.service.client as client_module
    from repro.service.client import ServiceClient
    from repro.service.wire import query_to_wire

    def query_key(record, args, kwargs, result):
        query = args[2] if len(args) > 2 else kwargs["query"]
        record.attrs["key"] = json.dumps(query_to_wire(query), sort_keys=True)
        record.attrs["history"] = int(query.end)

    wrap_method(recorder, ServiceClient, "query", "service.client.query",
                annotate=query_key)
    wrap_method(recorder, ServiceClient, "append", "service.client.append")
    client_module.result_from_wire = _wrap_function(
        recorder, "service.wire.decode", client_module.result_from_wire)

    urlopen = urllib.request.urlopen

    @functools.wraps(urlopen)
    def sized_urlopen(*args, **kwargs):
        response = urlopen(*args, **kwargs)
        current = recorder.current()
        length = response.headers.get("Content-Length")
        if current is not None and length is not None:
            current.attrs["response_bytes"] = int(length)
        return response

    urllib.request.urlopen = sized_urlopen
