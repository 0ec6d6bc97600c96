import http.client
import json
import math
import socket
import struct
import threading
import time
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from explinfer import explain, nn, service
from explinfer.explain import Algorithm, ExplainerConfig
from explinfer.nn import ScalarTarget


@pytest.fixture(scope="module")
def running_server(small_trained_net_module):
    model, X = small_trained_net_module
    baseline = explain.mean_baseline(X)
    cfg = ExplainerConfig(seed=41)
    server = service.serve(model, baseline, cfg)
    yield server, model, baseline, cfg, X
    server.shutdown()


@pytest.fixture(scope="module")
def small_trained_net_module():
    rng = np.random.default_rng(77)
    X = rng.normal(size=(200, 4))
    y = ((X[:, 0] - X[:, 1] * X[:, 2]) > 0).astype(float)
    model = nn.init_model([4, 10, 6, 1], seed=5)
    cfg = nn.TrainConfig(epochs=10, learning_rate=5e-3, batch_size=50, seed=2)
    return nn.train(model, X, y, cfg), X


def post_raw(url, data: bytes):
    req = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


def post_json(server, path: str, payload: dict):
    return post_raw(server.url + path, json.dumps(payload).encode())


def rows(X) -> list:
    return [[float(v) for v in x] for x in X]


class RecordingRng:
    """A Generator stand-in that keeps the ids it draws."""

    def __init__(self, rng):
        self.rng, self.drawn = rng, []

    def integers(self, *args, **kwargs):
        ids = self.rng.integers(*args, **kwargs)
        self.drawn.extend(np.atleast_1d(ids).tolist())
        return ids


def post_with_length(server, length: str, body: bytes) -> int:
    """POST with a hand-written Content-Length header; returns the status.
    The socket timeout turns a server that never answers into a failure."""
    with socket.create_connection((server.host, server.port), timeout=5) as sock:
        sock.sendall(b"POST /v1/predict HTTP/1.1\r\nHost: localhost\r\n"
                     b"Content-Length: " + length.encode() + b"\r\n\r\n" + body)
        status_line = sock.makefile("rb").readline()
    return int(status_line.split()[1])


class TestEndpoints:
    def test_health(self, running_server):
        server, *_ = running_server
        assert service.fetch_health(server.url)

    def test_predict_contract(self, running_server):
        server, model, _, _, X = running_server
        status, body = post_raw(
            server.url + "/v1/predict",
            json.dumps({"features": [float(v) for v in X[0]]}).encode())
        assert status == 200
        assert 0.0 < body["probability"] < 1.0
        local = nn.forward(model, X[0], ScalarTarget.PROBABILITY)
        assert body["probability"] == local

    def test_wrong_length_is_422(self, running_server):
        server, *_ = running_server
        status, body = post_raw(
            server.url + "/v1/predict", json.dumps({"features": [1.0]}).encode())
        assert status == 422
        assert "error" in body

    def test_malformed_json_is_400(self, running_server):
        server, *_ = running_server
        status, body = post_raw(server.url + "/v1/predict", b"{not json")
        assert status == 400
        assert "error" in body

    def test_unknown_algorithm_is_400(self, running_server):
        server, _, _, _, X = running_server
        status, body = post_raw(
            server.url + "/v1/explain",
            json.dumps({"features": [float(v) for v in X[0]],
                        "algorithm": "lime"}).encode())
        assert status == 400

    @pytest.mark.parametrize("length", ["-1", "abc", "1.5"])
    def test_bad_content_length_is_400(self, running_server, length):
        server, *_ = running_server
        assert post_with_length(server, length, b"{}") == 400

    @pytest.mark.parametrize("record_id", [-1, "7", 1.5, True])
    def test_bad_record_id_is_400(self, running_server, record_id):
        server, _, _, _, X = running_server
        status, body = post_raw(
            server.url + "/v1/explain",
            json.dumps({"features": [float(v) for v in X[0]],
                        "algorithm": "smoothgrad",
                        "record_id": record_id}).encode())
        assert status == 400
        assert "record_id" in body["error"]

    def test_unknown_path_is_404(self, running_server):
        server, *_ = running_server
        status, _ = post_raw(server.url + "/v1/weights", b"{}")
        assert status == 404

    def test_remote_explanation_matches_local(self, running_server):
        server, model, baseline, cfg, X = running_server
        for algorithm in Algorithm:
            remote = service.client_fetch_explanations(
                server.url, X[:3], algorithm, record_ids=[7, 8, 9])
            for i, rid in enumerate([7, 8, 9]):
                local = explain.explain_record(
                    model, X[i], baseline, algorithm, cfg,
                    ScalarTarget.LOGIT, record_id=rid)
                assert np.array_equal(remote[i].scores, local.scores), algorithm
                assert remote[i].delta == local.delta

    def test_fresh_noise_without_record_id(self, running_server, monkeypatch):
        server, model, baseline, cfg, X = running_server
        endpoints = server._httpd.RequestHandlerClass.endpoints
        rng = RecordingRng(endpoints._fresh_rng)
        monkeypatch.setattr(endpoints, "_fresh_rng", rng)
        a = service.client_fetch_explanations(server.url, X[:1], Algorithm.SMOOTHGRAD)
        b = service.client_fetch_explanations(server.url, X[:1], Algorithm.SMOOTHGRAD)
        # the logit of a ReLU net has a piecewise-constant input gradient, so
        # two fresh draws can give equal scores: compare the drawn noise ids
        assert len(rng.drawn) == 2 and rng.drawn[0] != rng.drawn[1]
        for attr, rid in zip((a[0], b[0]), rng.drawn):
            local = explain.explain_record(model, X[0], baseline, Algorithm.SMOOTHGRAD,
                                           cfg, ScalarTarget.LOGIT, record_id=rid)
            assert attr.scores.tolist() == local.scores.tolist()

    def test_fresh_noise_per_record_in_a_batch(self, running_server):
        _, model, baseline, cfg, X = running_server
        twice = X[[0, 0]]
        # the probability's input gradient varies with every noise draw
        with service.serve(model, baseline, cfg, target=ScalarTarget.PROBABILITY) as server:
            a = service.client_fetch_explanations(server.url, twice, Algorithm.SMOOTHGRAD)
            b = service.client_fetch_explanations(server.url, twice, Algorithm.SMOOTHGRAD)
        assert not np.array_equal(a[0].scores, a[1].scores)
        assert not np.array_equal(a[0].scores, b[0].scores)
        assert not np.array_equal(a[1].scores, b[1].scores)


class TestClient:
    def test_empty_record_list(self, running_server):
        server, *_ = running_server
        out = service.client_fetch_explanations(
            server.url, np.zeros((0, 4)), Algorithm.DEEPLIFT)
        assert out == []

    def test_order_preserved(self, running_server):
        server, model, _, _, X = running_server
        preds = service.client_fetch_predictions(server.url, X[:6])
        local = nn.forward_batch(model, X[:6], ScalarTarget.PROBABILITY)
        # single-record forward on both sides: identical floats
        for i in range(6):
            assert preds[i] == nn.forward(model, X[i], ScalarTarget.PROBABILITY)
        assert np.allclose(preds, local, atol=1e-12)

    def test_connection_failure_after_retries(self):
        with pytest.raises(service.ServiceError, match="could not reach"):
            service.client_fetch_predictions(
                "http://127.0.0.1:9", np.zeros((1, 2)), max_retries=2, timeout=0.5)

    def test_protocol_error_raised(self, running_server):
        server, *_ = running_server
        with pytest.raises(service.ServiceError, match="422"):
            service.client_fetch_predictions(server.url, np.zeros((1, 9)))

    def test_timeout_bounds_each_record_not_a_chunk(self, running_server, monkeypatch):
        """A chunk may take the timeout once per record, so a chunk that the
        server is still computing is not sent again."""
        server, model, baseline, cfg, X = running_server
        chunk_sizes = []
        explain_ = service._Endpoints.explain

        def slow_explain(self, body):
            chunk_sizes.append(len(body["records"]))
            time.sleep(0.1 * len(body["records"]))  # 0.4 s a chunk, 0.1 s a record
            return explain_(self, body)

        monkeypatch.setattr(service._Endpoints, "explain", slow_explain)
        monkeypatch.setattr(service, "CHUNK_RECORDS", 4)
        out = service.client_fetch_explanations(server.url, X[:8], Algorithm.DEEPLIFT,
                                                timeout=0.25)
        assert chunk_sizes == [4, 4]
        local = explain.explain_batch(model, X[:8], baseline, Algorithm.DEEPLIFT, cfg,
                                      ScalarTarget.LOGIT)
        assert [a.scores.tolist() for a in out] == [a.scores.tolist() for a in local]

    def test_https_endpoint_connects_with_tls(self, running_server, monkeypatch):
        server, model, _, _, X = running_server
        opened = []

        class PlainStandIn(http.client.HTTPConnection):
            # the test server speaks plain HTTP; record what an https URL opens
            def __init__(self, host, port, **kwargs):
                opened.append((host, port))
                super().__init__(host, port, **kwargs)

        monkeypatch.setattr(http.client, "HTTPSConnection", PlainStandIn)
        preds = service.client_fetch_predictions(
            server.url.replace("http://", "https://"), X[:2])
        assert opened == [(server.host, server.port)]
        assert preds.tolist() == [nn.forward(model, x, ScalarTarget.PROBABILITY) for x in X[:2]]

    def test_unsupported_scheme_is_rejected(self):
        with pytest.raises(ValueError, match="http"):
            service.client_fetch_predictions("ftp://127.0.0.1:9", np.zeros((1, 2)))

    def test_health_is_false_for_a_non_object_answer(self, running_server, monkeypatch):
        server, *_ = running_server
        monkeypatch.setattr(service._Handler, "do_GET", lambda self: self._send(200, ["ok"]))
        assert service.fetch_health(server.url) is False


class TestConcurrency:
    def test_parallel_requests(self, running_server):
        import concurrent.futures

        server, model, _, _, X = running_server
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(service.client_fetch_predictions, server.url, X[i:i + 1])
                for i in range(16)]
            results = [f.result()[0] for f in futures]
        expected = [nn.forward(model, X[i], ScalarTarget.PROBABILITY)
                    for i in range(16)]
        assert results == expected


class TestBatchContract:
    def test_record_ids_length_mismatch_is_400(self, running_server):
        server, _, _, _, X = running_server
        status, body = post_json(server, "/v1/explain", {
            "records": rows(X[:3]), "algorithm": "smoothgrad", "record_ids": [1, 2]})
        assert status == 400
        assert "record_id" in body["error"]

    @pytest.mark.parametrize("bad_row", [[1.0], ["x", 1.0, 2.0, 3.0],
                                         [float("inf"), 0.0, 0.0, 0.0], 5.0])
    @pytest.mark.parametrize("path,fields", [("/v1/predict", {}),
                                             ("/v1/explain", {"algorithm": "deeplift"})])
    def test_bad_row_is_422_naming_its_index(self, running_server, path, fields, bad_row):
        server, _, _, _, X = running_server
        records = rows(X[:3])
        records[2] = bad_row
        status, body = post_json(server, path, {"records": records, **fields})
        assert status == 422
        assert "records[2]" in body["error"]

    @pytest.mark.parametrize("bad_id", [True, -1])
    def test_bad_entry_in_record_ids_is_400(self, running_server, bad_id):
        server, _, _, _, X = running_server
        status, body = post_json(server, "/v1/explain", {
            "records": rows(X[:2]), "algorithm": "smoothgrad", "record_ids": [3, bad_id]})
        assert status == 400
        assert "record_id" in body["error"]

    @pytest.mark.parametrize("records", [[], "abc", 5, {"0": [1.0, 2.0, 3.0, 4.0]}])
    @pytest.mark.parametrize("path", ["/v1/predict", "/v1/explain"])
    def test_empty_or_non_list_records_is_400(self, running_server, path, records):
        server, *_ = running_server
        status, body = post_json(server, path, {"records": records, "algorithm": "deeplift"})
        assert status == 400
        assert "records" in body["error"]

    def test_chunks_share_one_connection(self, running_server, monkeypatch):
        server, model, _, _, X = running_server
        calls = {"connect": 0, "request": 0}

        def counted(name):
            original = getattr(http.client.HTTPConnection, name)

            def wrapper(self, *args, **kwargs):
                calls[name] += 1
                return original(self, *args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(http.client.HTTPConnection, name, counted(name))
        X600 = np.resize(X, (600, X.shape[1]))
        chunks = math.ceil(600 / service.CHUNK_RECORDS)
        attrs = service.client_fetch_explanations(server.url, X600, Algorithm.DEEPLIFT,
                                                  record_ids=range(600))
        assert calls == {"connect": 1, "request": chunks}
        preds = service.client_fetch_predictions(server.url, X600)
        assert calls == {"connect": 2, "request": 2 * chunks}
        assert len(attrs) == len(preds) == 600
        assert preds[599] == nn.forward(model, X600[599], ScalarTarget.PROBABILITY)

    def test_failed_chunk_is_resent_alone(self, running_server, monkeypatch):
        server, model, _, _, X = running_server
        first_rows, dropped = [], []
        request = http.client.HTTPConnection.request
        getresponse = http.client.HTTPConnection.getresponse

        def recorded_request(self, method, url, body=None, *args, **kwargs):
            first_rows.append(json.loads(body)["records"][0])
            return request(self, method, url, body, *args, **kwargs)

        def dropping_getresponse(self):
            if len(first_rows) == 2 and not dropped:  # lose the second answer
                dropped.append(True)
                self.close()
                raise ConnectionResetError("connection dropped")
            return getresponse(self)

        monkeypatch.setattr(http.client.HTTPConnection, "request", recorded_request)
        monkeypatch.setattr(http.client.HTTPConnection, "getresponse", dropping_getresponse)
        X600 = np.resize(X, (600, X.shape[1]))
        preds = service.client_fetch_predictions(server.url, X600)
        starts = [0, service.CHUNK_RECORDS, service.CHUNK_RECORDS, 2 * service.CHUNK_RECORDS]
        assert first_rows == [rows(X600[i:i + 1])[0] for i in starts]
        assert preds.tolist() == [nn.forward(model, x, ScalarTarget.PROBABILITY)
                                  for x in X600]

    def test_body_cap_fits_a_full_chunk_with_margin(self):
        # census-width rows of the longest float reprs and the largest ids
        row = [-1.2345678901234567e-300] * 100
        body = json.dumps({"records": [row] * service.CHUNK_RECORDS,
                           "algorithm": "integrated_gradients",
                           "record_ids": [2**62] * service.CHUNK_RECORDS})
        assert 4 * len(body) < service.MAX_BODY_BYTES


class TestBoundedReads:
    def test_handler_reads_with_a_socket_timeout(self):
        # the tests below shorten it to keep the suite fast
        assert 0 < service._Handler.timeout <= 30

    def test_oversized_body_is_413_without_reading_it(self, running_server):
        server, *_ = running_server
        assert post_with_length(server, str(service.MAX_BODY_BYTES + 1), b"") == 413

    def test_body_shorter_than_content_length_is_disconnected(self, running_server,
                                                              monkeypatch):
        server, *_ = running_server
        monkeypatch.setattr(service._Handler, "timeout", 0.5)
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.sendall(b"POST /v1/predict HTTP/1.1\r\nHost: localhost\r\n"
                         b"Content-Length: 100\r\n\r\n{}")
            assert sock.recv(1024) == b""

    def test_stalled_client_is_disconnected(self, running_server, monkeypatch):
        server, *_ = running_server
        monkeypatch.setattr(service._Handler, "timeout", 0.5)
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.sendall(b"POST /v1/predict HTTP/1.1\r\nHost: localhost\r\n")
            assert sock.recv(1024) == b""

    def test_client_hangup_is_quiet(self, running_server, monkeypatch):
        """A client that resets the connection before its answer leaves no
        second answer attempt and no traceback."""
        server, _, _, _, X = running_server
        computing, done, failures = threading.Event(), threading.Event(), []
        predict, send = service._Endpoints.predict, service._Handler._send
        shutdown_request = service.ThreadingHTTPServer.shutdown_request

        def slow_predict(self, body):
            computing.set()
            time.sleep(0.3)  # the reset arrives meanwhile
            return predict(self, body)

        def recorded_send(self, status, payload):
            try:
                send(self, status, payload)
            except BaseException as exc:
                failures.append(exc)
                raise

        def finished(self, request):
            shutdown_request(self, request)
            done.set()

        monkeypatch.setattr(service._Endpoints, "predict", slow_predict)
        monkeypatch.setattr(service._Handler, "_send", recorded_send)
        monkeypatch.setattr(service.ThreadingHTTPServer, "handle_error",
                            lambda self, *args: failures.append(args))
        monkeypatch.setattr(service.ThreadingHTTPServer, "shutdown_request", finished)
        body = json.dumps({"features": rows(X[:1])[0]}).encode()
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.sendall(b"POST /v1/predict HTTP/1.1\r\nHost: localhost\r\n"
                         b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body)
            assert computing.wait(5)
            # linger 0: close sends a reset
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        assert done.wait(5)
        assert failures == []


@settings(max_examples=25, deadline=None)
@given(data_seed=st.integers(0, 2**32 - 1), n=st.integers(5, 11),
       first_id=st.integers(0, 2**40))
def test_batched_fetch_is_bit_identical_to_singles_and_in_process(
        running_server, data_seed, n, first_id):
    """Over a chunk boundary (4 records a chunk), a batched fetch equals
    single-record requests and in-process explain_batch bit for bit, for
    every algorithm and for predictions."""
    server, model, baseline, cfg, _ = running_server
    X = np.random.default_rng(data_seed).normal(scale=2.0, size=(n, model.input_dim))
    ids = list(range(first_id, first_id + n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(service, "CHUNK_RECORDS", 4)
        for algorithm in Algorithm:
            batched = service.client_fetch_explanations(server.url, X, algorithm,
                                                        record_ids=ids)
            local = explain.explain_batch(model, X, baseline, algorithm, cfg,
                                          ScalarTarget.LOGIT, record_ids=ids)
            for i, (b, a) in enumerate(zip(batched, local, strict=True)):
                status, single = post_json(server, "/v1/explain", {
                    "features": rows(X[i:i + 1])[0], "algorithm": algorithm.value,
                    "record_id": ids[i]})
                assert status == 200
                assert b.scores.tolist() == a.scores.tolist() == single["scores"]
                assert b.delta == a.delta == single["delta"]
        preds = service.client_fetch_predictions(server.url, X)
    singles = [post_json(server, "/v1/predict", {"features": r})[1]["probability"]
               for r in rows(X)]
    local_p = [nn.forward(model, x, ScalarTarget.PROBABILITY) for x in X]
    assert preds.tolist() == singles == local_p
