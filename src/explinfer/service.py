"""Blackbox predict/explain service and the adversary-side client.

The server exposes the trained model strictly through JSON-over-HTTP:

    POST /v1/predict  {"features": [...]}               -> {"probability": p}
    POST /v1/explain  {"features": [...],
                       "algorithm": "integrated_gradients" | "deeplift" |
                                    "gradient_shap" | "smoothgrad",
                       "record_id": optional int}        -> {"scores": [...],
                                                             "delta": d}
    GET  /v1/health                                      -> {"status": "ok"}

Errors come back as {"error": message} with 400 for malformed JSON, a
negative or non-integer Content-Length, an unknown algorithm or a record_id
that is not a nonnegative integer, 422 for dimension mismatches, 404/405
otherwise. Floats are serialized with round-trip-safe precision, so a
remote explanation is bit-identical to the in-process one for the same
record_id. Without a record_id the server draws fresh noise for the
stochastic algorithms.

No endpoint exposes parameters, architecture or training data.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from .explain import Algorithm, Attribution, ExplainerConfig, explain_record
from .nn import MlpModel, ScalarTarget, forward


class ServiceError(RuntimeError):
    """Client could not complete a request."""


class _Endpoints:
    """Request handling shared by every server thread."""

    def __init__(self, model: MlpModel, baseline: np.ndarray,
                 cfg: ExplainerConfig, target: ScalarTarget):
        self.model = model
        self.baseline = np.asarray(baseline, dtype=np.float64)
        self.cfg = cfg
        self.target = target
        self._fresh_rng = np.random.default_rng()
        self._rng_lock = threading.Lock()

    def _features(self, body: dict) -> np.ndarray:
        feats = body.get("features")
        if not isinstance(feats, list):
            raise _HttpError(400, "body must contain a 'features' list")
        try:
            x = np.asarray(feats, dtype=np.float64)
        except (TypeError, ValueError):
            raise _HttpError(422, "features must be numbers")
        if x.ndim != 1 or x.shape[0] != self.model.input_dim:
            raise _HttpError(
                422, f"expected {self.model.input_dim} features, got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise _HttpError(422, "features must be finite")
        return x

    def predict(self, body: dict) -> dict:
        x = self._features(body)
        return {"probability": float(forward(self.model, x, ScalarTarget.PROBABILITY))}

    def explain(self, body: dict) -> dict:
        x = self._features(body)
        raw_alg = body.get("algorithm")
        try:
            algorithm = Algorithm(raw_alg)
        except ValueError:
            raise _HttpError(400, f"unknown algorithm {raw_alg!r}")
        record_id = body.get("record_id")
        # exact type: bool is an int subclass, but true is not a record id
        if record_id is not None and (type(record_id) is not int or record_id < 0):
            raise _HttpError(400, "record_id must be a nonnegative integer")
        if record_id is None:
            with self._rng_lock:
                record_id = int(self._fresh_rng.integers(2**62))
        a = explain_record(
            self.model, x, self.baseline, algorithm, self.cfg, self.target, record_id)
        return {"scores": [float(v) for v in a.scores], "delta": float(a.delta)}


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    endpoints: _Endpoints  # attached by serve()

    def log_message(self, fmt, *args):  # quiet by default
        pass

    def _send(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        if self.path == "/v1/health":
            self._send(200, {"status": "ok"})
        else:
            self._send(404, {"error": f"no such endpoint: {self.path}"})

    def do_POST(self):
        try:
            length = self.headers.get("Content-Length", "0")
            if not (length.isascii() and length.isdigit()):
                self.close_connection = True  # the body's end is unknown
                raise _HttpError(400, "Content-Length must be a nonnegative integer")
            try:
                body = json.loads(self.rfile.read(int(length)).decode("utf-8"))
                if not isinstance(body, dict):
                    raise ValueError("body must be a JSON object")
            except (ValueError, UnicodeDecodeError) as exc:
                raise _HttpError(400, f"malformed JSON body: {exc}")
            if self.path == "/v1/predict":
                self._send(200, self.endpoints.predict(body))
            elif self.path == "/v1/explain":
                self._send(200, self.endpoints.explain(body))
            else:
                raise _HttpError(404, f"no such endpoint: {self.path}")
        except _HttpError as exc:
            self._send(exc.status, {"error": exc.message})
        except Exception as exc:  # contract: never leak a traceback
            self._send(500, {"error": f"internal error: {exc}"})


class ExplanationServer:
    """A running predict/explain service; use as a context manager or call
    shutdown() explicitly."""

    def __init__(self, httpd: ThreadingHTTPServer, thread: threading.Thread):
        self._httpd = httpd
        self._thread = thread
        host, port = httpd.server_address[:2]
        self.host = host
        self.port = port
        self.url = f"http://{host}:{port}"

    def shutdown(self) -> None:
        self._httpd.shutdown()
        self._thread.join(timeout=10)
        self._httpd.server_close()

    def __enter__(self) -> "ExplanationServer":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def serve(
    model: MlpModel,
    baseline,
    cfg: ExplainerConfig,
    host: str = "127.0.0.1",
    port: int = 0,
    target: ScalarTarget = ScalarTarget.LOGIT,
    block: bool = False,
) -> ExplanationServer:
    """Start the service; port 0 binds an ephemeral port.

    With block=True the call runs the server in the current thread until
    interrupted (CLI mode); otherwise it returns a handle immediately.
    """
    baseline = np.asarray(baseline, dtype=np.float64)
    if baseline.shape != (model.input_dim,):
        raise ValueError(
            f"baseline must have length {model.input_dim}, got {baseline.shape}")
    endpoints = _Endpoints(model, baseline, cfg, target)
    handler = type("BoundHandler", (_Handler,), {"endpoints": endpoints})
    httpd = ThreadingHTTPServer((host, port), handler)
    httpd.daemon_threads = True
    if block:
        try:
            httpd.serve_forever()
        finally:
            httpd.server_close()
        return None
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    return ExplanationServer(httpd, thread)


def _post_json(url: str, payload: dict, max_retries: int, timeout: float) -> dict:
    body = json.dumps(payload).encode("utf-8")
    last_exc = None
    for attempt in range(max_retries):
        req = urllib.request.Request(
            url, data=body, headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            # the server answered: a protocol-level failure, not transient
            try:
                message = json.loads(exc.read().decode("utf-8")).get("error", "")
            except Exception:
                message = exc.reason
            raise ServiceError(f"{url} returned {exc.code}: {message}") from exc
        except (urllib.error.URLError, ConnectionError, TimeoutError, OSError) as exc:
            last_exc = exc
            if attempt + 1 < max_retries:
                time.sleep(0.1 * 2**attempt)
    raise ServiceError(
        f"could not reach {url} after {max_retries} attempts: {last_exc}"
    ) from last_exc


def client_fetch_predictions(
    endpoint: str, records, max_retries: int = 3, timeout: float = 30.0
) -> np.ndarray:
    """Predicted probabilities for each record, in request order."""
    X = np.asarray(records, dtype=np.float64)
    out = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        resp = _post_json(
            endpoint.rstrip("/") + "/v1/predict",
            {"features": [float(v) for v in X[i]]},
            max_retries, timeout)
        out[i] = float(resp["probability"])
    return out


def client_fetch_explanations(
    endpoint: str,
    records,
    algorithm: Algorithm,
    record_ids=None,
    max_retries: int = 3,
    timeout: float = 30.0,
) -> list[Attribution]:
    """One Attribution per record, in request order.

    record_ids pin the server-side noise streams so that repeated or remote
    runs reproduce bit-identical explanations.
    """
    X = np.asarray(records, dtype=np.float64)
    if record_ids is not None:
        record_ids = [int(r) for r in record_ids]
        if len(record_ids) != X.shape[0]:
            raise ValueError("record_ids must match the number of records")
    url = endpoint.rstrip("/") + "/v1/explain"
    out = []
    for i in range(X.shape[0]):
        payload = {
            "features": [float(v) for v in X[i]],
            "algorithm": algorithm.value,
        }
        if record_ids is not None:
            payload["record_id"] = record_ids[i]
        resp = _post_json(url, payload, max_retries, timeout)
        out.append(
            Attribution(
                algorithm=algorithm,
                scores=np.asarray(resp["scores"], dtype=np.float64),
                delta=float(resp["delta"]),
                target=None,
                baseline_id="remote",
            ))
    return out


def fetch_health(endpoint: str, max_retries: int = 3, timeout: float = 10.0) -> bool:
    url = endpoint.rstrip("/") + "/v1/health"
    for attempt in range(max_retries):
        try:
            with urllib.request.urlopen(url, timeout=timeout) as resp:
                return json.loads(resp.read().decode("utf-8")).get("status") == "ok"
        except Exception:
            if attempt + 1 < max_retries:
                time.sleep(0.1 * 2**attempt)
    return False
