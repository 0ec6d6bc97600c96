import json
import socket
import urllib.request

import numpy as np
import pytest

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

    def test_fresh_noise_without_record_id(self, running_server):
        server, _, _, _, X = running_server
        a = service.client_fetch_explanations(server.url, X[:1], Algorithm.SMOOTHGRAD)
        b = service.client_fetch_explanations(server.url, X[:1], Algorithm.SMOOTHGRAD)
        assert not np.array_equal(a[0].scores, b[0].scores)


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
