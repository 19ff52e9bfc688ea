"""`ServiceClient`: the typed Python client of the correlation query service.

A thin stdlib (``urllib``) wrapper that speaks the wire schema of
:mod:`repro.service.wire` and hands back the same result objects an
in-process :class:`~repro.api.CorrelationSession` returns — so code written
against the unified result protocol (``describe``/``iter_windows``/
``to_edges``) runs unchanged whether its results were computed locally or by
a remote server, and tests can assert bit-identity between the two paths.

Failures surface as :class:`~repro.exceptions.ServiceError`: server-reported
errors keep the server's message and HTTP status (a shed 429's
``Retry-After`` hint lands on :attr:`ServiceError.retry_after`); transport
failures (connection refused, timeouts) use status 503.  A connection
*reset* — the one transport failure where the server plausibly just
restarted a worker or recycled the socket — is retried once before 503
surfaces; refusals and timeouts are never retried (a timed-out query may
still be running, and re-sending it doubles the load the timeout signaled).
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from http.client import RemoteDisconnected
from typing import Dict, List, Optional, Union

import numpy as np

from repro.core.query import SlidingQuery
from repro.exceptions import ServiceError
from repro.service.wire import AnyResult, query_to_wire, result_from_wire

QuerySpec = Union[SlidingQuery, Dict[str, object]]


def _is_connection_reset(error: urllib.error.URLError) -> bool:
    """True when the failure means the peer dropped an accepted connection."""
    reason = getattr(error, "reason", error)
    return isinstance(reason, (ConnectionResetError, RemoteDisconnected))


class ServiceClient:
    """Client of one :class:`~repro.service.http.CorrelationServer`.

    Parameters
    ----------
    base_url:
        The server's root URL, e.g. ``"http://127.0.0.1:8350"`` (a trailing
        slash is tolerated).
    timeout:
        Per-request socket timeout in seconds (individual calls may override
        it with their ``timeout=`` keyword).
    retry_resets:
        How many times a request is re-sent after a connection reset
        (``ConnectionResetError`` / an empty response on an accepted
        connection).  Bounded and reset-only by design: the default ``1``
        covers a server recycling its keep-alive socket; refused
        connections and timeouts always surface immediately.
    """

    def __init__(
        self, base_url: str, timeout: float = 60.0, retry_resets: int = 1
    ) -> None:
        if retry_resets < 0:
            raise ServiceError(
                f"retry_resets must be a non-negative retry count, got {retry_resets}"
            )
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retry_resets = retry_resets

    # -------------------------------------------------------------- transport
    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, object]] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, object]:
        data = None if body is None else json.dumps(body).encode("utf-8")
        effective_timeout = self.timeout if timeout is None else timeout
        attempts = 1 + self.retry_resets
        for attempt in range(attempts):
            request = urllib.request.Request(
                f"{self.base_url}{path}",
                method=method,
                data=data,
                headers={"Content-Type": "application/json"},
            )
            try:
                with urllib.request.urlopen(
                    request, timeout=effective_timeout
                ) as response:
                    return json.loads(response.read().decode("utf-8"))
            except urllib.error.HTTPError as error:
                raise self._decode_error(error) from error
            except urllib.error.URLError as error:
                if _is_connection_reset(error) and attempt + 1 < attempts:
                    continue
                raise ServiceError(
                    f"cannot reach service at {self.base_url}: {error.reason}",
                    status=503,
                ) from error
            except ConnectionResetError as error:
                # urllib only wraps errors raised while *sending* the request
                # into URLError; a peer reset while reading the response
                # (``RemoteDisconnected`` included) surfaces raw.  Same
                # retry policy as the wrapped form.
                if attempt + 1 < attempts:
                    continue
                raise ServiceError(
                    f"cannot reach service at {self.base_url}: {error}",
                    status=503,
                ) from error
            except (TimeoutError, OSError) as error:
                # Response-read timeouts (and any other raw socket failure)
                # are terminal: the request may still be executing
                # server-side, so re-sending it is never safe.
                raise ServiceError(
                    f"cannot reach service at {self.base_url}: {error}",
                    status=503,
                ) from error

    @staticmethod
    def _decode_error(error: urllib.error.HTTPError) -> ServiceError:
        """Rehydrate the server's JSON error envelope (or fall back to HTTP text)."""
        try:
            document = json.loads(error.read().decode("utf-8"))
            detail = document["error"]
            message = f"{detail['type']}: {detail['message']}"
        except Exception:  # noqa: BLE001 — non-JSON error body
            message = f"HTTP {error.code}: {error.reason}"
        retry_after_header = error.headers.get("Retry-After") if error.headers else None
        retry_after = None
        if retry_after_header is not None:
            try:
                retry_after = float(retry_after_header)
            except ValueError:
                pass
        return ServiceError(message, status=error.code, retry_after=retry_after)

    # ------------------------------------------------------------- operations
    def health(self) -> Dict[str, object]:
        """``GET /healthz``."""
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, object]:
        """``GET /metrics``: the service-wide observability document."""
        return self._request("GET", "/metrics")

    def datasets(self) -> List[Dict[str, object]]:
        """``GET /datasets``: the catalog inventory."""
        return self._request("GET", "/datasets")

    def dataset(self, name: str) -> Dict[str, object]:
        """``GET /datasets/{name}``: one dataset plus runtime statistics."""
        return self._request("GET", f"/datasets/{name}")

    def query_raw(
        self,
        dataset: str,
        query: QuerySpec,
        workers: Optional[int] = None,
        include_edges: bool = False,
        timeout: Optional[float] = None,
    ) -> Dict[str, object]:
        """``POST /datasets/{name}/query`` returning the raw wire document."""
        body = dict(query_to_wire(query) if isinstance(query, SlidingQuery) else query)
        if workers is not None:
            body["workers"] = workers
        if include_edges:
            body["include_edges"] = True
        return self._request(
            "POST", f"/datasets/{dataset}/query", body, timeout=timeout
        )

    def query(
        self,
        dataset: str,
        query: QuerySpec,
        workers: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> AnyResult:
        """Run one query and parse the response into the typed result object.

        Accepts either a query spec object (:class:`~repro.api.ThresholdQuery`
        etc.) or its wire document; returns a
        :class:`~repro.api.CorrelationSeriesResult`,
        :class:`~repro.api.TopKResult` or
        :class:`~repro.api.LaggedSeriesResult` exactly as a local session
        would.
        """
        return result_from_wire(
            self.query_raw(dataset, query, workers=workers, timeout=timeout)
        )

    def append(self, dataset: str, columns) -> Dict[str, object]:
        """``POST /datasets/{name}/append`` with an ``(N, k)`` column block.

        ``columns`` uses the library's matrix orientation (rows are series,
        like :meth:`OnlineCorrelationMonitor.append <repro.streaming.online
        .OnlineCorrelationMonitor.append>`); the client transposes it to the
        wire's one-list-per-time-step frame format.
        """
        block = np.asarray(columns, dtype=float)
        if block.ndim == 1:
            block = block.reshape(-1, 1)
        return self._request(
            "POST", f"/datasets/{dataset}/append", {"columns": block.T.tolist()}
        )

    def watch(self, dataset: str, query: QuerySpec) -> Dict[str, object]:
        """``POST /datasets/{name}/watch``: register a standing threshold query."""
        body = query_to_wire(query) if isinstance(query, SlidingQuery) else dict(query)
        return self._request("POST", f"/datasets/{dataset}/watch", body)

    def watch_results(self, dataset: str, watch_id: str) -> Dict[str, object]:
        """``GET /datasets/{name}/watch/{id}``: windows emitted so far."""
        return self._request("GET", f"/datasets/{dataset}/watch/{watch_id}")
