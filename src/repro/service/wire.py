"""JSON wire schema for the unified query spec family and result protocol.

The service speaks the same objects the library does — query specs in,
results implementing ``describe``/``iter_windows``/``to_edges`` out — so this
module is a *bijection*, not a lossy view: ``result_from_wire(result_to_wire(r))``
reconstructs a result whose arrays are byte-identical to ``r``'s, which is
what lets a client assert equality with an in-process
:class:`~repro.api.CorrelationSession` run.

Wire documents are versioned under ``schema = "repro.result/v2"``.  Every
result document carries:

``kind``
    The discriminator (``"threshold"`` / ``"topk"`` / ``"lagged"``) — the
    ``kind`` attribute of the result classes.
``query``
    The query spec document (see :func:`query_to_wire`), discriminated by
    ``mode``.
``num_windows``, ``num_series``, ``describe``
    Redundant summaries so dashboards can render without decoding windows.
``windows``
    One columnar object for the whole result.  Threshold and top-k results
    send ``index`` and ``counts`` (one entry per window) plus ``rows``,
    ``cols`` (``<u4``) and ``values`` (``<f8``): base64 buffers holding
    every window's entries back to back.  Lagged results send ``index`` plus
    ``best_corr`` (``<f8``) and ``best_lag`` (``<i8``), each one
    ``(num_windows, num_series, num_series)`` buffer.  All buffers are
    little-endian.
``edges`` (optional)
    The flattened ``to_edges()`` records as ``[window, source, target,
    weight, lag]`` rows, included when serialized with ``include_edges=True``
    — the human-readable form of the same answer.

The exact field lists are documented with JSON examples in
``docs/service.md``.
"""

from __future__ import annotations

import base64
import binascii
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.queries import LaggedQuery, ThresholdQuery, TopKQuery
from repro.api.results import LaggedSeriesResult
from repro.core.lag import LagMatrices
from repro.core.query import SlidingQuery, THRESHOLD_SIGNED
from repro.core.result import CorrelationSeriesResult, Edge, EngineStats, ThresholdedMatrix
from repro.core.topk import TopKResult, TopKWindow
from repro.exceptions import DataValidationError, ServiceError

#: Version tag stamped on (and required from) every result document.
RESULT_SCHEMA = "repro.result/v2"

_MODES = ("threshold", "topk", "lagged")

_COMMON_QUERY_FIELDS = ("mode", "start", "end", "window", "step", "threshold",
                        "threshold_mode")
_EXTRA_QUERY_FIELDS = {
    "threshold": (),
    "topk": ("k", "absolute"),
    "lagged": ("max_lag", "absolute"),
}


# ---------------------------------------------------------------------------
# Field coercion helpers
# ---------------------------------------------------------------------------

def _require(payload: Dict[str, object], field: str) -> object:
    if field not in payload:
        raise ServiceError(f"query spec is missing required field {field!r}")
    return payload[field]


def _as_int(payload: Dict[str, object], field: str, default: Optional[int] = None) -> int:
    value = payload.get(field, default) if default is not None else _require(payload, field)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError(f"query field {field!r} must be an integer, got {value!r}")
    return value


def _as_float(payload: Dict[str, object], field: str, default: Optional[float] = None) -> float:
    if field in payload:
        value = payload[field]
    elif default is not None:
        value = default
    else:
        value = _require(payload, field)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ServiceError(f"query field {field!r} must be a number, got {value!r}")
    return float(value)


# ---------------------------------------------------------------------------
# Query specs
# ---------------------------------------------------------------------------

def query_to_wire(query: SlidingQuery) -> Dict[str, object]:
    """Serialize any member of the query spec family to its wire document."""
    document: Dict[str, object] = {
        "mode": getattr(query, "mode", "threshold"),
        "start": query.start,
        "end": query.end,
        "window": query.window,
        "step": query.step,
        "threshold": query.threshold,
        "threshold_mode": query.threshold_mode,
    }
    if isinstance(query, TopKQuery):
        document["k"] = query.k
        document["absolute"] = query.absolute
    elif isinstance(query, LaggedQuery):
        document["max_lag"] = query.max_lag
        document["absolute"] = query.absolute
    return document


def query_from_wire(payload: Dict[str, object]) -> SlidingQuery:
    """Parse a wire document into the matching query spec object.

    Validation is two-layered: unknown fields and type errors raise
    :class:`ServiceError` here (they are *protocol* mistakes), while
    inconsistent query parameters raise the library's usual
    :class:`~repro.exceptions.QueryValidationError` from the spec
    constructors (they are *query* mistakes).  Both map to HTTP 400.
    """
    if not isinstance(payload, dict):
        raise ServiceError(f"query spec must be a JSON object, got {type(payload).__name__}")
    mode = payload.get("mode", "threshold")
    if mode not in _MODES:
        raise ServiceError(f"query mode must be one of {_MODES}, got {mode!r}")
    allowed = set(_COMMON_QUERY_FIELDS) | set(_EXTRA_QUERY_FIELDS[mode])
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise ServiceError(
            f"unknown query field(s) {unknown} for mode {mode!r}; "
            f"allowed: {sorted(allowed)}"
        )
    common = dict(
        start=_as_int(payload, "start"),
        end=_as_int(payload, "end"),
        window=_as_int(payload, "window"),
        step=_as_int(payload, "step"),
        threshold_mode=str(payload.get("threshold_mode", THRESHOLD_SIGNED)),
    )
    absolute = payload.get("absolute", None)
    if absolute is not None and not isinstance(absolute, bool):
        raise ServiceError(f"query field 'absolute' must be a boolean or null, got {absolute!r}")
    if mode == "topk":
        return TopKQuery(
            threshold=_as_float(payload, "threshold", default=1.0),
            k=_as_int(payload, "k", default=10),
            absolute=absolute,
            **common,
        )
    if mode == "lagged":
        return LaggedQuery(
            threshold=_as_float(payload, "threshold", default=0.0),
            max_lag=_as_int(payload, "max_lag", default=1),
            absolute=absolute,
            **common,
        )
    return ThresholdQuery(threshold=_as_float(payload, "threshold"), **common)


# ---------------------------------------------------------------------------
# Engine statistics
# ---------------------------------------------------------------------------

_STATS_FIELDS = (
    "engine", "num_series", "num_windows", "exact_evaluations",
    "skipped_by_jumping", "pruned_horizontally", "candidate_pairs",
    "sketch_build_seconds", "query_seconds",
)


def stats_to_wire(stats: EngineStats) -> Dict[str, object]:
    document: Dict[str, object] = {f: getattr(stats, f) for f in _STATS_FIELDS}
    document["extra"] = dict(stats.extra)
    return document


def stats_from_wire(payload: Dict[str, object]) -> EngineStats:
    known = {f: payload[f] for f in _STATS_FIELDS if f in payload}
    return EngineStats(extra=dict(payload.get("extra", {})), **known)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

def edges_to_wire(edges: Sequence[Edge]) -> List[List[object]]:
    """Flatten protocol edges to ``[window, source, target, weight, lag]`` rows."""
    return [[e.window, e.source, e.target, e.weight, e.lag] for e in edges]


def edges_from_wire(rows: Sequence[Sequence[object]]) -> List[Edge]:
    return [Edge(int(w), int(i), int(j), float(v), int(d)) for w, i, j, v, d in rows]


AnyResult = Union[CorrelationSeriesResult, TopKResult, LaggedSeriesResult]

#: Item types of the packed buffers: indices, correlations and lags.
_INDEX_WIRE, _VALUE_WIRE, _LAG_WIRE = "<u4", "<f8", "<i8"


def _malformed(reason: str) -> ServiceError:
    return ServiceError(f"malformed result document: {reason}")


def _pack(arrays: Sequence[np.ndarray], wire_dtype: str) -> str:
    """Concatenate ``arrays`` (each flattened, in order) into one base64 buffer.

    The items are stored as the fixed little-endian ``wire_dtype`` whatever
    the host's byte order.  Series indices fit ``<u4``: a result over 2**32
    series could not be computed, let alone held.
    """
    wire = np.dtype(wire_dtype)
    flat = (np.concatenate([np.ravel(a) for a in arrays]) if len(arrays)
            else np.empty(0, dtype=wire))
    return base64.b64encode(flat.astype(wire, copy=False).tobytes()).decode("ascii")


def _unpack(
    text: object,
    wire_dtype: str,
    dtype: type,
    sizes: Sequence[int],
    shape: Tuple[int, ...] = (-1,),
) -> List[np.ndarray]:
    """Split a :func:`_pack` buffer into one array per entry of ``sizes``.

    Each array is an owned, writeable ``dtype`` copy reshaped to ``shape``.
    Text that is not base64, or a byte length that is not a whole number of
    items or disagrees with ``sum(sizes)``, raises :class:`ServiceError`.
    """
    try:
        raw = base64.b64decode(text, validate=True)
    except binascii.Error as error:
        raise _malformed(f"{wire_dtype} buffer is not base64: {error}") from error
    wire = np.dtype(wire_dtype)
    if len(raw) % wire.itemsize:
        raise _malformed(
            f"{wire_dtype} buffer of {len(raw)} bytes is not a whole number "
            f"of {wire.itemsize}-byte items"
        )
    flat = np.frombuffer(raw, dtype=wire)
    if len(flat) != sum(sizes):
        raise _malformed(
            f"{wire_dtype} buffer holds {len(flat)} items, the windows declare {sum(sizes)}"
        )
    if not sizes:
        return []
    pieces = np.split(flat, np.cumsum(sizes)[:-1])
    return [np.array(piece.reshape(shape), dtype=dtype) for piece in pieces]


def _pack_sparse(index: Sequence[int], windows: Sequence[object]) -> Dict[str, object]:
    """The ``windows`` object of a threshold or top-k result."""
    return {
        "index": list(index),
        "counts": [len(w.values) for w in windows],
        "rows": _pack([w.rows for w in windows], _INDEX_WIRE),
        "cols": _pack([w.cols for w in windows], _INDEX_WIRE),
        "values": _pack([w.values for w in windows], _VALUE_WIRE),
    }


def _unpack_sparse(windows: Dict[str, object], num_windows: int):
    """``(rows, cols, values)`` per window of a :func:`_pack_sparse` object."""
    counts = [int(c) for c in windows["counts"]]
    if len(counts) != num_windows:
        raise _malformed(f"{num_windows} window indices but {len(counts)} counts")
    if any(c < 0 for c in counts):
        raise _malformed(f"window counts must be non-negative, got {min(counts)}")
    rows = _unpack(windows["rows"], _INDEX_WIRE, np.int64, counts)
    cols = _unpack(windows["cols"], _INDEX_WIRE, np.int64, counts)
    values = _unpack(windows["values"], _VALUE_WIRE, np.float64, counts)
    return zip(rows, cols, values)


def result_to_wire(result: AnyResult, include_edges: bool = False) -> Dict[str, object]:
    """Serialize any unified-protocol result to its versioned wire document."""
    kind = getattr(result, "kind", None)
    if kind == "threshold":
        pairs = list(result.iter_windows())
        windows = _pack_sparse([k for k, _ in pairs], [m for _, m in pairs])
        extras: Dict[str, object] = {
            "num_series": result.num_series,
            "series_ids": list(result.series_ids) if result.series_ids else None,
            "stats": stats_to_wire(result.stats),
        }
    elif kind == "topk":
        windows = _pack_sparse([w.window_index for w in result.windows], result.windows)
        extras = {"k": result.k, "absolute": result.absolute}
    elif kind == "lagged":
        windows = {
            "index": [w.window_index for w in result.windows],
            "best_corr": _pack([w.best_corr for w in result.windows], _VALUE_WIRE),
            "best_lag": _pack([w.best_lag for w in result.windows], _LAG_WIRE),
        }
        extras = {"num_series": result.num_series}
    else:
        raise ServiceError(
            f"cannot serialize {type(result).__name__}: it declares no wire kind"
        )
    document: Dict[str, object] = {
        "schema": RESULT_SCHEMA,
        "kind": kind,
        "query": query_to_wire(result.query),
        "num_windows": result.num_windows,
        "describe": result.describe(),
        "windows": windows,
        **extras,
    }
    if include_edges:
        document["edges"] = edges_to_wire(result.to_edges())
    return document


def result_from_wire(payload: Dict[str, object]) -> AnyResult:
    """Reconstruct the typed result object from a wire document.

    The reconstruction is exact: arrays come back byte-identical (``-0.0``
    and NaN payloads included) as owned, writeable ``int64``/``float64``
    arrays, and query fields and engine statistics come back equal, so
    ``describe()``/``to_edges()`` of the parsed result match the original's.
    """
    if not isinstance(payload, dict):
        raise ServiceError(f"result document must be a JSON object, got {type(payload).__name__}")
    schema = payload.get("schema")
    if schema != RESULT_SCHEMA:
        raise ServiceError(
            f"unsupported result schema {schema!r} (this client speaks {RESULT_SCHEMA!r})"
        )
    kind = payload.get("kind")
    if kind not in _MODES:
        raise ServiceError(f"unknown result kind {kind!r} (expected one of {_MODES})")
    try:
        query = query_from_wire(payload["query"])
        windows = payload["windows"]
        index = [int(k) for k in windows["index"]]
        if kind == "threshold":
            num_series = int(payload["num_series"])
            matrices = [
                ThresholdedMatrix(num_series, rows, cols, values)
                for rows, cols, values in _unpack_sparse(windows, len(index))
            ]
            series_ids = payload.get("series_ids")
            stats = stats_from_wire(payload.get("stats") or {})
            return CorrelationSeriesResult(query, matrices, stats=stats, series_ids=series_ids)
        if kind == "topk":
            topk_windows = [
                TopKWindow(k, rows, cols, values)
                for k, (rows, cols, values) in zip(index, _unpack_sparse(windows, len(index)))
            ]
            return TopKResult(
                query=query,
                k=int(payload["k"]),
                absolute=bool(payload["absolute"]),
                windows=topk_windows,
            )
        num_series = int(payload["num_series"])
        shape = (num_series, num_series)
        sizes = [num_series * num_series] * len(index)
        best_corr = _unpack(windows["best_corr"], _VALUE_WIRE, np.float64, sizes, shape)
        best_lag = _unpack(windows["best_lag"], _LAG_WIRE, np.int64, sizes, shape)
        lag_windows = [
            LagMatrices(window_index=k, best_corr=corr, best_lag=lag)
            for k, corr, lag in zip(index, best_corr, best_lag)
        ]
        return LaggedSeriesResult(query, lag_windows)
    except (KeyError, TypeError, ValueError, DataValidationError) as error:
        raise _malformed(str(error)) from error
