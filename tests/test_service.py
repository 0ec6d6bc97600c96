import contextlib
import json
import math
import os
import select
import socket
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from explinfer import explain, nn, service
from explinfer.explain import Algorithm, ExplainerConfig
from explinfer.nn import ScalarTarget


@pytest.fixture(autouse=True)
def no_idle_connection():
    """Each test starts and ends with no client connection kept between
    calls, so server-side counts start from a known state."""
    service.close_idle_connection()
    yield
    service.close_idle_connection()


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


def exchange_raw(server, request: bytes) -> bytes:
    """Send request bytes, end the sending side and read to the server's
    close; a server that closes with bytes unread may reset, after its answer."""
    with socket.create_connection((server.host, server.port), timeout=5) as sock:
        with contextlib.suppress(OSError):  # the server may close before reading it all
            sock.sendall(request)
            sock.shutdown(socket.SHUT_WR)
        answer = b""
        with contextlib.suppress(ConnectionResetError):
            while chunk := sock.recv(65536):
                answer += chunk
    return answer


def one_answer(raw: bytes):
    """The status, headers and JSON payload of raw, which must hold exactly
    one HTTP/1.1 answer with a Content-Length body."""
    head, blank, rest = raw.partition(b"\r\n\r\n")
    assert blank and head.startswith(b"HTTP/1.1 "), raw[:200]
    status_line, *lines = head.split(b"\r\n")
    headers = dict(line.split(b": ", 1) for line in lines)
    length = int(headers[b"Content-Length"])
    assert len(rest) == length, "more or less than one answer"
    return int(status_line.split()[1]), headers, json.loads(rest)


class TestEndpoints:
    def test_health(self, running_server):
        server, *_ = running_server
        assert service.fetch_health(server.url)

    def test_predict_contract(self, running_server):
        server, model, _, _, X = running_server
        status, body = post_raw(
            server.url + "/v1/predict",
            json.dumps({"records": [[float(v) for v in X[0]]]}).encode())
        assert status == 200
        assert 0.0 < body["probabilities"][0] < 1.0
        local = nn.forward(model, X[0], ScalarTarget.PROBABILITY)
        assert body["probabilities"] == [local]

    def test_wrong_length_is_422(self, running_server):
        server, *_ = running_server
        status, body = post_raw(
            server.url + "/v1/predict", json.dumps({"records": [[1.0]]}).encode())
        assert status == 422
        assert "error" in body

    @pytest.mark.parametrize("features", [["1", 2, 3, 4], [True, 0.0, 0.0, 0.0],
                                          [10**400, 0.0, 0.0, 0.0]])
    @pytest.mark.parametrize("path,fields", [("/v1/predict", {}),
                                             ("/v1/explain", {"algorithm": "deeplift"})])
    def test_features_that_are_not_numbers_are_422(self, running_server, path, fields,
                                                   features):
        # json numbers arrive as int or float; a string, a bool or an int
        # beyond the float range is not a feature value
        server, *_ = running_server
        status, body = post_json(server, path, {"records": [features], **fields})
        assert status == 422
        assert "records[0]" in body["error"]

    @pytest.mark.parametrize("path", ["/v1/predict", "/v1/explain"])
    def test_features_body_is_400_naming_records(self, running_server, path):
        # the one request form is a records batch; a single record is a batch of one
        server, _, _, _, X = running_server
        status, body = post_json(server, path, {"features": rows(X[:1])[0],
                                                "algorithm": "deeplift"})
        assert status == 400
        assert "records" in body["error"]

    def test_malformed_json_is_400(self, running_server):
        server, *_ = running_server
        status, body = post_raw(server.url + "/v1/predict", b"{not json")
        assert status == 400
        assert "error" in body

    def test_unknown_algorithm_is_400(self, running_server):
        server, _, _, _, X = running_server
        status, body = post_raw(
            server.url + "/v1/explain",
            json.dumps({"records": [[float(v) for v in X[0]]],
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
            json.dumps({"records": [[float(v) for v in X[0]]],
                        "algorithm": "smoothgrad",
                        "record_ids": [record_id]}).encode())
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
                local = explain.explain_batch(
                    model, X[i:i + 1], baseline, algorithm, cfg,
                    ScalarTarget.LOGIT, record_ids=[rid])[0]
                assert np.array_equal(remote[i].scores, local.scores), algorithm
                assert remote[i].delta == local.delta
                assert remote[i].target is local.target is ScalarTarget.LOGIT

    def test_fresh_noise_without_record_id(self, running_server, monkeypatch):
        server, model, baseline, cfg, X = running_server
        endpoints = server.endpoints
        rng = RecordingRng(endpoints._fresh_rng)
        monkeypatch.setattr(endpoints, "_fresh_rng", rng)
        a = service.client_fetch_explanations(server.url, X[:1], Algorithm.SMOOTHGRAD)
        b = service.client_fetch_explanations(server.url, X[:1], Algorithm.SMOOTHGRAD)
        # the logit of a ReLU net has a piecewise-constant input gradient, so
        # two fresh draws can give equal scores: compare the drawn noise ids
        assert len(rng.drawn) == 2 and rng.drawn[0] != rng.drawn[1]
        for attr, rid in zip((a[0], b[0]), rng.drawn):
            local = explain.explain_batch(model, X[:1], baseline, Algorithm.SMOOTHGRAD,
                                          cfg, ScalarTarget.LOGIT, record_ids=[rid])[0]
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


class TestBindFailure:
    """A failed bind raises its own error, not one from closing the
    half-built server."""

    def test_busy_port_is_os_error(self, running_server):
        _, model, baseline, cfg, _ = running_server
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            with pytest.raises(OSError):
                service.serve(model, baseline, cfg, port=busy.getsockname()[1])

    def test_port_out_of_range_is_overflow_error(self, running_server):
        _, model, baseline, cfg, _ = running_server
        with pytest.raises(OverflowError):
            service.serve(model, baseline, cfg, port=70000)


class TestClient:
    def test_empty_record_list(self, running_server, monkeypatch):
        server, *_ = running_server

        def no_request(*args, **kwargs):
            raise AssertionError("a fetch of no records sent a request")

        monkeypatch.setattr(service._Connection, "request", no_request)
        out = service.client_fetch_explanations(
            server.url, np.zeros((0, 4)), Algorithm.DEEPLIFT)
        assert len(out) == 0 and out.scores.shape == (0, 4) and out.delta.shape == (0,)
        assert out.algorithm is Algorithm.DEEPLIFT and out.target is None

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
        import ssl

        server, model, _, _, X = running_server
        opened = []

        class PlainContext:
            # the test server speaks plain HTTP; record what an https URL wraps
            def wrap_socket(self, sock, server_hostname):
                opened.append((server_hostname, sock.getpeername()[1]))
                return sock

        monkeypatch.setattr(ssl, "create_default_context", PlainContext)
        preds = service.client_fetch_predictions(
            server.url.replace("http://", "https://"), X[:2])
        assert opened == [(server.host, server.port)]
        assert preds.tolist() == [nn.forward(model, x, ScalarTarget.PROBABILITY) for x in X[:2]]

    @pytest.mark.parametrize("answer", [
        {"explanations": [{"scores": [0.0] * 4, "delta": 0.0}]},  # no "target"
        {"explanations": [{"scores": [0.0] * 4}], "target": "logit"},
        {"explanations": [{"scores": [0.0] * 4, "delta": 0.0}], "target": "margin"},
        {"explanations": 5, "target": "logit"},
    ])
    def test_malformed_explain_answer_is_service_error(self, running_server, monkeypatch,
                                                       answer):
        server, _, _, _, X = running_server
        monkeypatch.setattr(service._Endpoints, "explain", lambda self, body: answer)
        with pytest.raises(service.ServiceError, match="malformed"):
            service.client_fetch_explanations(server.url, X[:1], Algorithm.DEEPLIFT)

    @pytest.mark.parametrize("answer", [{}, {"probabilities": 5}])
    def test_malformed_predict_answer_is_service_error(self, running_server, monkeypatch,
                                                       answer):
        server, _, _, _, X = running_server
        monkeypatch.setattr(service._Endpoints, "predict", lambda self, body: answer)
        with pytest.raises(service.ServiceError, match="malformed /v1/predict"):
            service.client_fetch_predictions(server.url, X[:1])

    @pytest.mark.parametrize("answered", [2, 4])  # for 3 records
    def test_answer_of_another_length_is_service_error(self, running_server, monkeypatch,
                                                       answered):
        server, _, _, _, X = running_server

        def resized(endpoint, key):
            def answer(self, body):
                out = endpoint(self, body)
                out[key] = (out[key] * 2)[:answered]
                return out
            return answer

        monkeypatch.setattr(service._Endpoints, "explain",
                            resized(service._Endpoints.explain, "explanations"))
        monkeypatch.setattr(service._Endpoints, "predict",
                            resized(service._Endpoints.predict, "probabilities"))
        with pytest.raises(service.ServiceError,
                           match=f"{answered} explanations for 3 records"):
            service.client_fetch_explanations(server.url, X[:3], Algorithm.DEEPLIFT)
        with pytest.raises(service.ServiceError,
                           match=f"{answered} probabilities for 3 records"):
            service.client_fetch_predictions(server.url, X[:3])

    def test_chunks_that_disagree_on_target_are_malformed(self, running_server,
                                                          monkeypatch):
        server, _, _, _, X = running_server
        explain_, targets = service._Endpoints.explain, iter(["logit", "probability"])

        def switching(self, body):
            return dict(explain_(self, body), target=next(targets))

        monkeypatch.setattr(service._Endpoints, "explain", switching)
        monkeypatch.setattr(service, "CHUNK_RECORDS", 2)
        with pytest.raises(service.ServiceError, match="malformed.*targets"):
            service.client_fetch_explanations(server.url, X[:4], Algorithm.DEEPLIFT)

    # a path that is not printable ASCII would not make one request line
    @pytest.mark.parametrize("endpoint", ["ftp://127.0.0.1:9", "http://127.0.0.1:9/a b",
                                          "http://127.0.0.1:9/\u00e9"])
    def test_unsupported_scheme_is_rejected(self, endpoint):
        with pytest.raises(ValueError, match="http"):
            service.client_fetch_predictions(endpoint, np.zeros((1, 2)))

    @pytest.mark.parametrize("length", [b"%d" % (service.MAX_BODY_BYTES + 1), b"9" * 5000],
                             ids=["limit_plus_one", "5000_digits"])
    def test_answer_over_the_body_limit_is_a_failed_attempt(self, length):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            def answer_once():
                conn, _ = listener.accept()
                with conn:
                    conn.recv(65536)
                    conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: %s\r\n\r\n" % length)

            answering = threading.Thread(target=answer_once, daemon=True)
            answering.start()
            with pytest.raises(service.ServiceError, match="could not reach.*subset"):
                service.client_fetch_predictions(
                    f"http://127.0.0.1:{listener.getsockname()[1]}", np.zeros((1, 2)),
                    max_retries=1)
            answering.join(5)
            assert not answering.is_alive()

    def test_health_is_false_for_a_non_object_answer(self, running_server, monkeypatch):
        server, *_ = running_server
        monkeypatch.setattr(service._Handler, "_answer", lambda self, *request: (200, ["ok"]))
        assert service.fetch_health(server.url) is False


def test_idle_server_shuts_down_within_its_poll(small_trained_net_module):
    model, X = small_trained_net_module
    server = service.serve(model, explain.mean_baseline(X), ExplainerConfig())
    time.sleep(0.02)  # serve_forever is now inside its first poll
    start = time.perf_counter()
    server.shutdown()
    assert time.perf_counter() - start < 0.25  # serve_forever's default poll is 0.5 s


def test_shutdown_closes_kept_connections(small_trained_net_module, monkeypatch):
    """A connection the client keeps between calls ends with the server, so
    a later call fails instead of reaching the old model."""
    model, X = small_trained_net_module
    server = service.serve(model, explain.mean_baseline(X), ExplainerConfig())
    conns = ServerConnections(server, monkeypatch)
    service.client_fetch_predictions(server.url, X[:1])
    assert service._idle is not None and conns.accepted == 1
    server.shutdown()
    assert conns.wait_finished(1)  # the server closed its end
    with pytest.raises(service.ServiceError, match="could not reach"):
        service.client_fetch_predictions(server.url, X[:1], max_retries=1)


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

    def test_connection_cap_answers_503(self, small_trained_net_module, monkeypatch):
        """Past the cap a connection gets 503 and is closed unread; the
        client's kept idle connection counts, and a closed one frees a slot."""
        model, X = small_trained_net_module
        monkeypatch.setattr(service, "MAX_CONNECTIONS", 2)
        health = b"GET /v1/health HTTP/1.1\r\nHost: localhost\r\n\r\n"
        with service.serve(model, explain.mean_baseline(X), ExplainerConfig()) as server:
            conns = ServerConnections(server, monkeypatch)
            service.client_fetch_predictions(server.url, X[:1])  # kept idle: 1 of 2
            with socket.create_connection((server.host, server.port), timeout=5) as second:
                second.sendall(health)
                assert second.recv(4096).startswith(b"HTTP/1.1 200")  # 2 of 2
                with socket.create_connection((server.host, server.port),
                                              timeout=5) as third:
                    third.sendall(health)
                    answer = third.makefile("rb").read()  # to the server's close
            head, _, body = answer.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 503") and b"Connection: close" in head
            assert "error" in json.loads(body)
            assert conns.accepted == 2  # the third got no handler thread
            assert conns.wait_finished(1)  # the second's slot is free again
            assert service.fetch_health(server.url, max_retries=1)  # on the idle one
            assert post_raw(server.url + "/v1/predict",
                            json.dumps({"records": rows(X[:1])}).encode())[0] == 200

    def test_client_reads_the_503_of_a_full_server(self, small_trained_net_module,
                                                   monkeypatch):
        """The server may close before a request's body is sent; the client
        still reads the answer, not a broken pipe, and sends the request again,
        with backoff, until max_retries attempts have met a full server."""
        model, X = small_trained_net_module
        monkeypatch.setattr(service, "MAX_CONNECTIONS", 1)
        verify, refused = service.Server.verify_request, []

        def counted(server, request, client_address):
            admitted = verify(server, request, client_address)
            if not admitted:
                refused.append(request)
            return admitted

        monkeypatch.setattr(service.Server, "verify_request", counted)
        with service.serve(model, explain.mean_baseline(X), ExplainerConfig()) as server:
            with socket.create_connection((server.host, server.port), timeout=5) as held:
                held.sendall(b"GET /v1/health HTTP/1.1\r\nHost: localhost\r\n\r\n")
                assert held.recv(4096).startswith(b"HTTP/1.1 200")  # 1 of 1
                for _ in range(20):
                    with pytest.raises(service.ServiceError,
                                       match="after 1 attempts: returned 503"):
                        service.client_fetch_predictions(server.url, X, max_retries=1)
                with pytest.raises(service.ServiceError,
                                   match="after 3 attempts: returned 503"):
                    service.client_fetch_predictions(server.url, X[:1], max_retries=3)
        assert len(refused) == 20 + 3  # counted once the server has stopped

    def test_client_gets_through_once_a_slot_frees(self, small_trained_net_module,
                                                   monkeypatch):
        """A server that is full only briefly costs the client a retry."""
        model, X = small_trained_net_module
        monkeypatch.setattr(service, "MAX_CONNECTIONS", 1)
        verify, refused = service.Server.verify_request, []
        with service.serve(model, explain.mean_baseline(X), ExplainerConfig()) as server:
            held = socket.create_connection((server.host, server.port), timeout=5)
            held.sendall(b"GET /v1/health HTTP/1.1\r\nHost: localhost\r\n\r\n")
            assert held.recv(4096).startswith(b"HTTP/1.1 200")  # 1 of 1

            def refuse_then_free(server, request, client_address):
                admitted = verify(server, request, client_address)
                if not admitted:
                    refused.append(request)
                    held.close()  # its handler reads EOF and frees the slot
                return admitted

            monkeypatch.setattr(service.Server, "verify_request", refuse_then_free)
            probabilities = service.client_fetch_predictions(server.url, X[:3], max_retries=5)
        assert len(refused) >= 1
        assert probabilities.tolist() == [nn.forward(model, x, ScalarTarget.PROBABILITY)
                                          for x in X[:3]]


class TestBatchContract:
    def test_record_ids_length_mismatch_is_400(self, running_server):
        server, _, _, _, X = running_server
        status, body = post_json(server, "/v1/explain", {
            "records": rows(X[:3]), "algorithm": "smoothgrad", "record_ids": [1, 2]})
        assert status == 400
        assert "record_id" in body["error"]

    @pytest.mark.parametrize("bad_row", [[1.0], ["x", 1.0, 2.0, 3.0],
                                         [float("inf"), 0.0, 0.0, 0.0], 5.0,
                                         ["1", 2, 3, 4], [True, 0.0, 0.0, 0.0],
                                         [10**400, 0.0, 0.0, 0.0]])
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
            original = getattr(service._Connection, name)

            def wrapper(self, *args, **kwargs):
                calls[name] += 1
                return original(self, *args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(service._Connection, name, counted(name))
        X600 = np.resize(X, (600, X.shape[1]))
        chunks = math.ceil(600 / service.CHUNK_RECORDS)
        attrs = service.client_fetch_explanations(server.url, X600, Algorithm.DEEPLIFT,
                                                  record_ids=range(600))
        assert calls == {"connect": 1, "request": chunks}
        preds = service.client_fetch_predictions(server.url, X600)
        assert calls == {"connect": 1, "request": 2 * chunks}  # the next call reuses it
        assert len(attrs) == len(preds) == 600
        assert preds[599] == nn.forward(model, X600[599], ScalarTarget.PROBABILITY)

    def test_failed_chunk_is_resent_alone(self, running_server, monkeypatch):
        server, model, _, _, X = running_server
        first_rows, dropped = [], []
        request, response = service._Connection.request, service._Connection.response

        def recorded_request(self, method, path, body):
            first_rows.append(json.loads(body)["records"][0])
            return request(self, method, path, body)

        def dropping_response(self):
            if len(first_rows) == 2 and not dropped:  # lose the second answer
                dropped.append(True)
                self.close()
                raise ConnectionResetError("connection dropped")
            return response(self)

        monkeypatch.setattr(service._Connection, "request", recorded_request)
        monkeypatch.setattr(service._Connection, "response", dropping_response)
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


class ServerConnections:
    """Counts the connections a server accepts, and lets a test wait until
    the server has finished with them."""

    def __init__(self, server, monkeypatch):
        # patched on the class: undoing a patch on the instance would leave
        # the old bound methods there, hiding later class-level patches
        cls = service.Server
        process, shutdown = cls.process_request, cls.shutdown_request
        self.accepted, self._mine, self._finished = 0, set(), threading.Semaphore(0)

        def counted_process(httpd, request, client_address):
            if httpd is server:
                self.accepted += 1
                self._mine.add(request)
            process(httpd, request, client_address)

        def counted_shutdown(httpd, request):
            shutdown(httpd, request)
            if request in self._mine:  # not a connection from an earlier test
                self._finished.release()

        monkeypatch.setattr(cls, "process_request", counted_process)
        monkeypatch.setattr(cls, "shutdown_request", counted_shutdown)

    def wait_finished(self, n: int, timeout: float = 5.0) -> bool:
        return all(self._finished.acquire(timeout=timeout) for _ in range(n))


class TestConnectionReuse:
    def test_calls_to_one_endpoint_share_one_connection(self, running_server, monkeypatch):
        server, model, baseline, cfg, X = running_server
        conns = ServerConnections(server, monkeypatch)
        preds = service.client_fetch_predictions(server.url, X[:3])
        attrs = service.client_fetch_explanations(server.url, X[:3], Algorithm.DEEPLIFT,
                                                  record_ids=[0, 1, 2])
        assert service.fetch_health(server.url)
        assert conns.accepted == 1
        local = explain.explain_batch(model, X[:3], baseline, Algorithm.DEEPLIFT, cfg,
                                      ScalarTarget.LOGIT, record_ids=[0, 1, 2])
        assert [a.scores.tolist() for a in attrs] == [a.scores.tolist() for a in local]
        assert preds.tolist() == [nn.forward(model, x, ScalarTarget.PROBABILITY)
                                  for x in X[:3]]

    def test_connection_closed_while_idle_is_replaced_at_once(self, running_server,
                                                               monkeypatch):
        """The server's idle close costs one resend, but no retry and no
        backoff sleep."""
        server, model, _, _, X = running_server
        monkeypatch.setattr(service._Handler, "timeout", 0.2)
        conns = ServerConnections(server, monkeypatch)
        service.client_fetch_predictions(server.url, X[:1])
        assert conns.wait_finished(1)  # the server closed the idle connection
        assert select.select([service._idle[1].sock], [], [], 5)[0]  # the close arrived
        monkeypatch.setattr(service._Handler, "timeout", 10.0)  # for the replacement
        sleeps, sent = [], []
        request = service._Connection.request

        def counted_request(self, *args, **kwargs):
            sent.append(args[1])  # counted before the send, which may fail
            return request(self, *args, **kwargs)

        monkeypatch.setattr(time, "sleep", sleeps.append)
        monkeypatch.setattr(service._Connection, "request", counted_request)
        preds = service.client_fetch_predictions(server.url, X[:2], max_retries=1)
        assert preds.tolist() == [nn.forward(model, x, ScalarTarget.PROBABILITY)
                                  for x in X[:2]]
        # the request the closed connection lost, then its resend
        assert sent == ["/v1/predict"] * 2
        assert sleeps == [] and conns.accepted == 2
        service.client_fetch_predictions(server.url, X[:1], max_retries=1)
        assert conns.accepted == 2  # the replacement was kept

    @pytest.mark.parametrize("failure", ["http_error", "answer_dropped"])
    def test_failed_call_keeps_no_connection(self, running_server, monkeypatch, failure):
        server, _, _, _, X = running_server
        conns = ServerConnections(server, monkeypatch)
        service.client_fetch_predictions(server.url, X[:1])
        assert service._idle is not None
        records, match = np.zeros((1, 9)), "422"
        if failure == "answer_dropped":
            def dropping_response(self):
                self.close()
                raise ConnectionResetError("connection dropped")

            monkeypatch.setattr(service._Connection, "response", dropping_response)
            records, match = X[:1], "could not reach"
        with pytest.raises(service.ServiceError, match=match):
            service.client_fetch_predictions(server.url, records, max_retries=1)
        assert service._idle is None
        assert conns.wait_finished(conns.accepted)  # every connection was closed

    def test_call_to_another_server_closes_the_idle_connection(self, running_server,
                                                               monkeypatch):
        server, model, baseline, cfg, X = running_server
        conns = ServerConnections(server, monkeypatch)
        service.client_fetch_predictions(server.url, X[:1])
        assert service._idle[0] == ("http", server.host, server.port)
        with service.serve(model, baseline, cfg) as other:
            preds = service.client_fetch_predictions(other.url, X[:1])
            assert conns.wait_finished(1)
            assert service._idle[0] == ("http", other.host, other.port)
        assert preds[0] == nn.forward(model, X[0], ScalarTarget.PROBABILITY)

    def test_parallel_calls_keep_one_connection(self, running_server, monkeypatch):
        import concurrent.futures

        server, model, _, _, X = running_server
        conns = ServerConnections(server, monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more thread switches inside the slot swaps
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=6) as pool:
                preds = list(pool.map(
                    lambda i: service.client_fetch_predictions(server.url, X[i:i + 1])[0],
                    range(24)))
        finally:
            sys.setswitchinterval(interval)
        assert preds == [nn.forward(model, x, ScalarTarget.PROBABILITY) for x in X[:24]]
        assert conns.wait_finished(conns.accepted - 1)
        assert not conns.wait_finished(1, timeout=0.1)  # one stays open, idle
        service.close_idle_connection()
        assert conns.wait_finished(1)


class TestBoundedReads:
    def test_handler_reads_with_a_socket_timeout(self):
        # the tests below shorten it to keep the suite fast
        assert 0 < service._Handler.timeout <= 30

    # int() refuses a string of over 4,300 digits
    @pytest.mark.parametrize("length", [str(service.MAX_BODY_BYTES + 1), "9" * 5000],
                             ids=["limit_plus_one", "5000_digits"])
    def test_oversized_body_is_413_without_reading_it(self, running_server, length):
        server, *_ = running_server
        assert post_with_length(server, length, b"") == 413

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

    def test_trickling_sender_is_closed_and_frees_its_slot(self, small_trained_net_module,
                                                           monkeypatch):
        """The request line and headers must arrive within the handler's
        timeout of the request's start, so a socket that sends one byte at a
        time, each well within the timeout, still loses its slot."""
        model, X = small_trained_net_module
        monkeypatch.setattr(service, "MAX_CONNECTIONS", 1)
        monkeypatch.setattr(service._Handler, "timeout", 0.5)
        with service.serve(model, explain.mean_baseline(X), ExplainerConfig()) as server:
            with socket.create_connection((server.host, server.port), timeout=5) as sock:
                start = time.monotonic()
                for byte in b"GET /v1/health HTTP/1.1\r\nX-Trickle: " + b"a" * 40:
                    if select.select([sock], [], [], 0.1)[0]:
                        break  # the server has closed it
                    try:
                        sock.sendall(bytes([byte]))
                    except OSError:  # the server has closed it and reset
                        break
                closed_after = time.monotonic() - start
                with contextlib.suppress(ConnectionResetError):
                    assert sock.recv(1024) == b""
            assert closed_after < 2.0
            assert service.client_fetch_predictions(server.url, X[:1]).tolist() == [
                nn.forward(model, X[0], ScalarTarget.PROBABILITY)]

    def test_trickled_body_is_closed_and_frees_its_slot(self, small_trained_net_module,
                                                        monkeypatch):
        """The body must arrive within the handler's timeout of the request's
        start, plus its length at service.BODY_BYTES_PER_SECOND, so a body
        sent one byte at a time, each well within the timeout, still loses
        its slot."""
        model, X = small_trained_net_module
        monkeypatch.setattr(service, "MAX_CONNECTIONS", 1)
        monkeypatch.setattr(service._Handler, "timeout", 0.5)
        body = b'{"records": [[1, 2, 3, 4]]}'
        with service.serve(model, explain.mean_baseline(X), ExplainerConfig()) as server:
            with socket.create_connection((server.host, server.port), timeout=5) as sock:
                start = time.monotonic()
                sock.sendall(b"POST /v1/predict HTTP/1.1\r\nHost: localhost\r\n"
                             b"Content-Length: %d\r\n\r\n" % len(body))
                for byte in body:
                    if select.select([sock], [], [], 0.2)[0]:
                        break  # the server has closed it
                    try:
                        sock.sendall(bytes([byte]))
                    except OSError:  # the server has closed it and reset
                        break
                closed_after = time.monotonic() - start
                with contextlib.suppress(ConnectionResetError):
                    assert sock.recv(1024) == b""
            assert closed_after < 2.0
            assert service.client_fetch_predictions(server.url, X[:1]).tolist() == [
                nn.forward(model, X[0], ScalarTarget.PROBABILITY)]

    def test_full_chunk_of_census_width_records_is_answered(self, monkeypatch):
        """A body's time grows with its length: a chunk of CHUNK_RECORDS
        100-feature records, sent at once, is read whole and answered."""
        monkeypatch.setattr(service._Handler, "timeout", 0.5)
        model = nn.init_model([100, 8, 1], seed=0)
        X = np.random.default_rng(0).normal(size=(service.CHUNK_RECORDS, 100))
        with service.serve(model, np.zeros(100), ExplainerConfig()) as server:
            assert service.client_fetch_predictions(server.url, X).tolist() == (
                nn.forward_rows(model, X).tolist())

    @staticmethod
    def handled(monkeypatch) -> threading.Event:
        """An event set once the server has closed a connection, after any
        handle_error for it has run."""
        done = threading.Event()
        shutdown_request = service.Server.shutdown_request

        def finished(self, request):
            shutdown_request(self, request)
            done.set()

        monkeypatch.setattr(service.Server, "shutdown_request", finished)
        return done

    def test_client_hangup_is_quiet(self, running_server, monkeypatch):
        """A client that resets the connection before its answer leaves no
        second answer attempt and no traceback."""
        server, _, _, _, X = running_server
        computing, done, failures = threading.Event(), self.handled(monkeypatch), []
        predict, send = service._Endpoints.predict, service._Handler._send

        def slow_predict(self, body):
            computing.set()
            time.sleep(0.3)  # the reset arrives meanwhile
            return predict(self, body)

        def recorded_send(self, *answer):
            try:
                return send(self, *answer)
            except BaseException as exc:
                failures.append(exc)
                raise

        monkeypatch.setattr(service._Endpoints, "predict", slow_predict)
        monkeypatch.setattr(service._Handler, "_send", recorded_send)
        monkeypatch.setattr(service.Server, "handle_error",
                            lambda self, *args: failures.append(args))
        body = json.dumps({"records": rows(X[:1])}).encode()
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.sendall(b"POST /v1/predict HTTP/1.1\r\nHost: localhost\r\n"
                         b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body)
            assert computing.wait(5)
            # linger 0: close sends a reset
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        assert done.wait(5)
        assert failures == []

    def test_reset_between_requests_is_quiet(self, running_server, monkeypatch, capfd):
        """A client that closes a kept-alive connection with answer bytes
        unread resets it while its handler waits for the next request line;
        the server's own handle_error then prints no traceback."""
        server, _, _, _, X = running_server
        done = self.handled(monkeypatch)
        body = json.dumps({"records": rows(X), "algorithm": "deeplift"}).encode()
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.sendall(b"POST /v1/explain HTTP/1.1\r\nHost: localhost\r\n"
                         b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
            head = b""
            while b"\r\n\r\n" not in head:
                head += sock.recv(100)
            assert head.startswith(b"HTTP/1.1 200 ")
            length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
            unread = length - len(head.split(b"\r\n\r\n", 1)[1])
            # the whole answer has arrived, so the handler is past its write
            assert len(sock.recv(unread, socket.MSG_PEEK | socket.MSG_WAITALL)) == unread
        assert done.wait(5)
        assert capfd.readouterr().err == ""

    def test_other_handler_failures_are_still_reported(self, running_server,
                                                       monkeypatch, capfd):
        server, *_ = running_server
        done = self.handled(monkeypatch)

        def broken(self, deadline):
            raise RuntimeError("_read_request broke")

        monkeypatch.setattr(service._Handler, "_read_request", broken)
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.sendall(b"GET /v1/health HTTP/1.1\r\nHost: localhost\r\n\r\n")
            assert sock.recv(1024) == b""
        assert done.wait(5)
        err = capfd.readouterr().err
        assert "Traceback" in err and "RuntimeError: _read_request broke" in err


def test_served_explanations_reuse_the_baseline_output(running_server, monkeypatch):
    """The server computes f(baseline) once, when load() builds its
    endpoints, so single-record /v1/explain requests make no nn.forward
    call; a one-shot explain_batch computes it once per call."""
    server, model, baseline, cfg, X = running_server
    calls, forward = [], nn.forward

    def counted(*args, **kwargs):
        calls.append(args)
        return forward(*args, **kwargs)

    monkeypatch.setattr(nn, "forward", counted)
    for i in range(5):
        service.client_fetch_explanations(server.url, X[i:i + 1], Algorithm.GRADIENT_SHAP,
                                          record_ids=[i])
    assert calls == []
    explain.explain_batch(model, X[:1], baseline, Algorithm.GRADIENT_SHAP, cfg)
    assert len(calls) == 1


def test_predict_memory_is_bounded_by_its_chunks():
    """/v1/predict on 4,096 census-width records, its body already parsed,
    holds the records and one FORWARD_ROWS chunk of activations, not every
    record's: 16 MB traced, against 53 MB for one pass over all of them."""
    census_net = [100, 1024, 512, 256, 128, 1]
    endpoints = service._Endpoints(nn.init_model(census_net, seed=1), np.zeros(100),
                                   ExplainerConfig(), ScalarTarget.LOGIT)
    body = {"records": np.random.default_rng(0).normal(size=(4096, 100)).tolist()}
    tracemalloc.start()
    try:
        endpoints.predict(body)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * nn.FORWARD_ROWS * sum(census_net[1:3])


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
                status, answer = post_json(server, "/v1/explain", {
                    "records": rows(X[i:i + 1]), "algorithm": algorithm.value,
                    "record_ids": [ids[i]]})
                assert status == 200 and answer["target"] == "logit"
                single = answer["explanations"][0]
                assert b.scores.tolist() == a.scores.tolist() == single["scores"]
                assert b.delta == a.delta == single["delta"]
        preds = service.client_fetch_predictions(server.url, X)
    singles = [post_json(server, "/v1/predict", {"records": [r]})[1]["probabilities"][0]
               for r in rows(X)]
    local_p = [nn.forward(model, x, ScalarTarget.PROBABILITY) for x in X]
    assert preds.tolist() == singles == local_p


class TestWire:
    """What the codec accepts, and the one JSON answer everything else gets."""

    def test_chunked_request_gets_one_411_and_a_close(self, running_server):
        # a body without a Content-Length is not read, so its chunks are
        # never taken for a next request
        server, *_ = running_server
        body = json.dumps({"records": [[1.0, 2.0, 3.0, 4.0]]}).encode()
        status, headers, payload = one_answer(exchange_raw(server, (
            b"POST /v1/predict HTTP/1.1\r\nHost: localhost\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n" % (len(body), body))))
        assert status == 411 and headers[b"Connection"] == b"close"
        assert "error" in payload

    @pytest.mark.parametrize("request_bytes,status", [
        (b"PUT /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}", 405),
        (b"garbage\r\n\r\n", 400),
        (b"GET /v1/health HTTP/2.0\r\n\r\n", 400),
        (b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n", 414),
        (b"GET /v1/health HTTP/1.1\r\nX-Long: " + b"a" * 70000 + b"\r\n\r\n", 431),
        (b"GET /v1/health HTTP/1.1\r\n" + b"X-Many: a\r\n" * 101 + b"\r\n", 431),
        (b"GET /v1/health HTTP/1.1\r\nBad Name: a\r\n\r\n", 400),
        (b"POST /v1/predict HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}",
         400),
    ], ids=["put", "garbage", "http2", "long_path", "long_header", "101_headers",
            "bad_header_name", "two_lengths"])
    def test_requests_outside_the_subset_get_a_json_error_and_a_close(
            self, running_server, request_bytes, status):
        server, *_ = running_server
        answered, headers, payload = one_answer(exchange_raw(server, request_bytes))
        assert answered == status and headers[b"Connection"] == b"close"
        assert isinstance(payload, dict) and "error" in payload
        if status == 405:
            assert headers[b"Allow"] == b"GET, POST"

    @pytest.mark.parametrize("version,connection,kept", [
        (b"HTTP/1.1", b"", True), (b"HTTP/1.1", b"Connection: close\r\n", False),
        (b"HTTP/1.0", b"", False), (b"HTTP/1.0", b"Connection: Keep-Alive\r\n", True)])
    def test_keep_alive_follows_version_and_connection(self, running_server, version,
                                                       connection, kept):
        server, *_ = running_server
        answers = exchange_raw(server, b"GET /v1/health %s\r\n%s\r\n" % (version, connection) * 2)
        assert answers.count(b"HTTP/1.1 200 OK") == (2 if kept else 1)
        assert answers.count(b"Connection: keep-alive") == (2 if kept else 0)

    def test_one_write_per_message(self, running_server, monkeypatch):
        """The client sends each request, and the server each answer, in one
        sendall, so the peer wakes once per message."""
        server, _, _, _, X = running_server
        main, writes, sendall = threading.current_thread(), [], socket.socket.sendall

        def counted(sock, data, *args):
            writes.append("client" if threading.current_thread() is main else "server")
            return sendall(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", counted)
        for i in range(5):
            service.client_fetch_predictions(server.url, X[i:i + 1])
        service.client_fetch_explanations(server.url, X[:3], Algorithm.DEEPLIFT)
        assert service.fetch_health(server.url)
        assert sorted(writes) == ["client"] * 7 + ["server"] * 7

    def test_serving_and_fetching_load_no_stdlib_http_stack(self):
        """A served target answering an http:// client, both in a fresh
        interpreter, loads neither http.client, http.server, email nor ssl."""
        script = (
            "import json, sys\n"
            "import numpy as np\n"
            "from explinfer import nn, service\n"
            "from explinfer.explain import Algorithm, ExplainerConfig\n"
            "model = nn.init_model([4, 3, 1], seed=0)\n"
            "with service.serve(model, np.zeros(4), ExplainerConfig()) as server:\n"
            "    assert service.fetch_health(server.url)\n"
            "    service.client_fetch_predictions(server.url, np.ones((2, 4)))\n"
            "    service.client_fetch_explanations(server.url, np.ones((2, 4)),\n"
            "                                      Algorithm.DEEPLIFT)\n"
            "loaded = {'ssl', 'http.client', 'http.server', 'email'} & set(sys.modules)\n"
            "print(json.dumps(sorted(loaded)))\n")
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(service.__file__)))
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env=dict(os.environ, PYTHONPATH=package_root), timeout=120)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.splitlines()[-1]) == []


def _bytes(max_size: int):
    """Byte strings without CR or LF: a line end inside a drawn part would
    make the drawn bytes two requests, each with its own answer."""
    return st.binary(max_size=max_size).map(lambda b: b.replace(b"\r", b"").replace(b"\n", b""))


_METHODS = [b"GET", b"POST", b"PUT", b"HEAD", b"get"]
_PATHS = [b"/v1/health", b"/v1/predict", b"/v1/explain", b"/v1/weights", b"*"]
_VERSIONS = [b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2.0"]
_BODIES = [b"", b"{}", b"[1]", b"\xff", b'{"records": [[0.5, 1, -2, 3]]}',
           b'{"records": [[0.5, 1, -2, 3]], "algorithm": "deeplift", "record_ids": [4]}']
_HEADERS = st.tuples(
    st.sampled_from([b"Host", b"Connection", b"Transfer-Encoding", b"Expect",
                     b"Content-Type", b"X-Extra", b"Bad Name", b"", b" Folded"]),
    st.sampled_from([b"close", b"keep-alive", b"chunked", b"100-continue", b"a\xe9"])
    | _bytes(12))


@st.composite
def http_requests(draw) -> bytes:
    """A request line, headers, zero to two Content-Length headers and a
    body, each drawn from valid and broken forms."""
    if draw(st.booleans()):  # a well-formed request line, the common case
        line = b" ".join(draw(st.sampled_from(words)) for words in (_METHODS, _PATHS, _VERSIONS))
    else:
        words = st.sampled_from(_METHODS + _PATHS + _VERSIONS + [b""]) | _bytes(10)
        line = b" ".join(draw(st.lists(words, min_size=2, max_size=4)))
    body = draw(st.sampled_from(_BODIES) | _bytes(40))
    lengths = st.sampled_from([b"%d" % len(body), b"0", b"-1", b"1.5", b"99", b" 3",
                               b"9" * 5000])
    headers = [b"%s: %s" % pair for pair in draw(st.lists(_HEADERS, max_size=3))]
    headers += [b"Content-Length: " + n for n in draw(st.lists(lengths, max_size=2))]
    headers = draw(st.permutations(headers))
    return b"\r\n".join([line, *headers, b"", body])


def test_generated_requests_get_one_json_answer_or_a_close(running_server, monkeypatch,
                                                           capfd):
    """Every request, valid or not, gets exactly one answer, a 2xx, 4xx or
    503 with a JSON body, or a close within the handler's timeout; never a
    500 or a traceback. One connection at a time."""
    server, *_ = running_server
    monkeypatch.setattr(service._Handler, "timeout", 0.3)

    @settings(max_examples=300, deadline=None)
    @given(request=http_requests())
    def answered(request):
        start = time.monotonic()
        raw = exchange_raw(server, request)
        if not raw:  # closed unanswered: an incomplete request
            assert time.monotonic() - start < service._Handler.timeout + 1.0
            return
        status, _, payload = one_answer(raw)
        assert status // 100 == 2 or 400 <= status < 500 or status == 503, status
        if status != 200:
            assert isinstance(payload, dict) and "error" in payload

    answered()
    err = capfd.readouterr().err
    assert "Traceback" not in err, err
