"""End-to-end tests of the HTTP transport and the typed client.

One ephemeral-port server per module; every test drives it through
:class:`ServiceClient` (or raw urllib for protocol-level cases), so the
route table, the error envelope and the client's decoding are all exercised
over a real socket.
"""

import json
import threading
import urllib.error
from dataclasses import replace
import urllib.request

import numpy as np
import pytest

from repro.api import CorrelationSession, ThresholdQuery
from repro.exceptions import ServiceError
from repro.service import (
    CorrelationServer,
    CorrelationService,
    ServiceClient,
    result_from_wire,
)
from repro.service.batching import exact_scan_options
from repro.storage.catalog import Catalog
from repro.storage.chunk_store import ChunkStore
from repro.timeseries.matrix import TimeSeriesMatrix

NUM_SERIES = 5
LENGTH = 192
BASIC = 16

QUERY = ThresholdQuery(start=0, end=LENGTH, window=64, step=32, threshold=0.4)


@pytest.fixture(scope="module")
def values():
    rng = np.random.default_rng(13)
    base = rng.standard_normal(LENGTH)
    return np.stack(
        [base + 0.4 * rng.standard_normal(LENGTH) for _ in range(NUM_SERIES)]
    )


@pytest.fixture(scope="module")
def server(tmp_path_factory, values):
    store = ChunkStore(NUM_SERIES, chunk_columns=64)
    store.append(values)
    catalog = Catalog(tmp_path_factory.mktemp("catalog"))
    catalog.add_dataset("demo", store, description="http test data")
    server = CorrelationServer(
        CorrelationService(catalog, basic_window_size=BASIC)
    )
    with server:
        yield server


@pytest.fixture
def client(server):
    return ServiceClient(server.url)


class TestRoutes:
    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["datasets"] == 1

    def test_datasets_and_detail(self, client):
        (dataset,) = client.datasets()
        assert dataset["name"] == "demo"
        detail = client.dataset("demo")
        assert detail["num_series"] == NUM_SERIES
        assert "sketch_cache" in detail["stats"]

    def test_query_result_is_bit_identical_to_local_session(self, client, values):
        remote = client.query("demo", QUERY)
        local = CorrelationSession(
            TimeSeriesMatrix(values, series_ids=[f"s{i}" for i in range(NUM_SERIES)]),
            basic_window_size=BASIC,
        ).run(QUERY)
        assert remote.query == local.query
        assert remote.to_edges() == local.to_edges()
        assert remote.num_windows == local.num_windows

    @pytest.mark.parametrize("service_workers", [None, 2])
    def test_batch_member_is_bit_identical_to_exact_local_run(
        self, tmp_path, values, service_workers
    ):
        # Two thresholds sent together share one exact scan; each member's
        # HTTP answer must equal its own in-process exact run byte for byte.
        store = ChunkStore(NUM_SERIES, chunk_columns=64)
        store.append(values)
        catalog = Catalog(tmp_path)
        catalog.add_dataset("demo", store, description="batched http test data")
        service = CorrelationService(catalog, basic_window_size=BASIC,
                                     service_workers=service_workers,
                                     batch_window_seconds=0.5)
        queries = [replace(QUERY, threshold=t) for t in (0.4, 0.9)]
        documents = {}
        with CorrelationServer(service) as server:
            client = ServiceClient(server.url)
            barrier = threading.Barrier(len(queries))

            def fetch(query):
                barrier.wait(timeout=10)
                documents[query.threshold] = client.query_raw("demo", query)

            threads = [threading.Thread(target=fetch, args=(q,)) for q in queries]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        assert documents[0.9]["batch"] == {"floor_threshold": 0.4, "members": 2}
        exact = CorrelationSession(
            TimeSeriesMatrix(values, series_ids=store.series_ids),
            engine_options=exact_scan_options("dangoron", {}),
            basic_window_size=BASIC,
        )
        for query in queries:
            remote = result_from_wire(documents[query.threshold])
            local = exact.run(query)
            assert remote.total_edges() == local.total_edges() > 0
            for mine, theirs in zip(remote.matrices, local.matrices):
                for field in ("rows", "cols", "values"):
                    assert (getattr(mine, field).tobytes()
                            == getattr(theirs, field).tobytes())

    def test_query_raw_carries_plan_and_dataset(self, client):
        document = client.query_raw("demo", QUERY, include_edges=True)
        assert document["dataset"] == "demo"
        assert document["plan"].startswith("plan[threshold]")
        assert isinstance(document["edges"], list)

    def test_append_and_watch_round_trip(self, client):
        watch = client.watch("demo", QUERY)
        assert watch["emitted_windows"] == QUERY.num_windows
        response = client.append("demo", np.zeros((NUM_SERIES, 32)))
        assert response["length"] == LENGTH + 32
        results = client.watch_results("demo", watch["id"])
        assert results["emitted_windows"] == QUERY.num_windows + 1


class TestErrorMapping:
    def test_unknown_dataset_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.query("ghost", QUERY)
        assert excinfo.value.status == 404
        assert "unknown dataset" in str(excinfo.value)

    def test_invalid_query_is_400_with_library_error_type(self, client):
        bad = {"mode": "threshold", "start": 0, "end": 10 * LENGTH, "window": 64,
               "step": 32, "threshold": 0.4}
        with pytest.raises(ServiceError) as excinfo:
            client.query("demo", bad)
        assert excinfo.value.status == 400
        assert "QueryValidationError" in str(excinfo.value)

    def test_unknown_route_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/nope", timeout=10)
        assert excinfo.value.code == 404

    def test_wrong_method_is_405(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/datasets/demo/query", timeout=10)
        assert excinfo.value.code == 405

    def test_malformed_json_body_is_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/datasets/demo/query",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read().decode("utf-8"))
        assert body["error"]["type"] == "ServiceError"

    def test_empty_body_is_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/datasets/demo/query", data=b"", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_invalid_content_length_is_400(self, server, length):
        # Checked before reading: a non-numeric length used to surface as a
        # 500, and a negative one blocked the handler until the client left.
        import http.client

        connection = http.client.HTTPConnection(server.host, server.port, timeout=5)
        try:
            connection.putrequest("POST", "/datasets/demo/query")
            connection.putheader("Content-Length", length)
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            body = json.loads(response.read().decode("utf-8"))
            assert body["error"]["type"] == "ServiceError"
            assert "Content-Length" in body["error"]["message"]
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()

    def test_error_responses_close_the_connection(self, server):
        # Errors can leave an unread request body on a keep-alive socket
        # (e.g. a 405 on a POST), so every error response must carry
        # Connection: close — otherwise the leftover bytes desynchronize the
        # next request on the same connection.
        import http.client

        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            connection.request(
                "GET", "/datasets/demo/query", body=b'{"mode": "threshold"}'
            )
            response = connection.getresponse()
            assert response.status == 405
            response.read()
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()

    def test_success_responses_keep_the_connection_alive(self, server):
        import http.client

        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            for _ in range(2):  # two requests over one keep-alive connection
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["status"] == "ok"
                assert response.getheader("Connection") != "close"
        finally:
            connection.close()

    def test_unreachable_server_is_503(self):
        unreachable = ServiceClient("http://127.0.0.1:9", timeout=2)
        with pytest.raises(ServiceError) as excinfo:
            unreachable.health()
        assert excinfo.value.status == 503


class TestServerLifecycle:
    def test_start_twice_rejected(self, server):
        with pytest.raises(ServiceError, match="already running"):
            server.start()

    def test_stop_is_idempotent(self, tmp_path):
        spare = CorrelationServer(CorrelationService(Catalog(tmp_path)))
        spare.start()
        spare.stop()
        spare.stop()
