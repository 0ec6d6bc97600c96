"""Blackbox predict/explain service and the adversary-side client.

The server exposes the trained model strictly through JSON-over-HTTP:

    POST /v1/predict  {"features": [...]}       -> {"probability": p}
                      {"records": [[...], ...]}  -> {"probabilities": [p, ...]}
    POST /v1/explain  {"features": [...], "algorithm": a, "record_id": optional int}
                                                -> {"scores": [...], "delta": d}
                      {"records": [[...], ...], "algorithm": a, "record_ids": optional
                       [int, ...]}  -> {"explanations": [{"scores": [...], "delta": d}, ...]}
    GET  /v1/health                             -> {"status": "ok"}

with a in integrated_gradients, deeplift, gradient_shap, smoothgrad. Each
record of a batch gets the arithmetic it gets alone, and floats round-trip,
so answers are bit-identical to single-record and in-process ones for the
same record id; without ids the server draws fresh noise per record. The
client sends CHUNK_RECORDS records per request over one keep-alive http(s)
connection, and its timeout bounds the connect and each record's answer time.

Errors are {"error": message}: 400 for malformed JSON, a negative or
non-integer Content-Length, an unknown algorithm, an empty or non-list
"records" or ids that are not nonnegative integers, one per record; 413,
unread, for a body over MAX_BODY_BYTES; 422 for a bad feature row, named by
its index; 404/405 otherwise. A connection blocked past the handler's
timeout is closed. No endpoint exposes parameters, architecture or training
data.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse
from contextlib import closing
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from .explain import Algorithm, Attribution, ExplainerConfig, explain_batch
from .nn import MlpModel, ScalarTarget, forward_rows

CHUNK_RECORDS = 256  # records per request sent by the client
MAX_BODY_BYTES = 16 * 2**20  # a chunk of 100-feature records is about 0.7 MB


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

    def _rows(self, body: dict) -> tuple[np.ndarray, bool]:
        """The feature rows as an (n, d) matrix, and whether it was a batch."""
        batch = "records" in body
        rows = body["records"] if batch else [body.get("features")]
        if not (isinstance(rows, list) and rows and (batch or isinstance(rows[0], list))):
            raise _HttpError(400, "body must contain a 'features' or a nonempty 'records' list")
        X = np.empty((len(rows), self.model.input_dim))
        for i, row in enumerate(rows):
            try:
                x = np.asarray(row, dtype=np.float64)
                ok = x.shape == X.shape[1:] and bool(np.all(np.isfinite(x)))
            except (TypeError, ValueError):
                ok = False
            if not ok:
                where = f"records[{i}]" if batch else "features"
                raise _HttpError(422, f"{where} must be {X.shape[1]} finite numbers")
            X[i] = x
        return X, batch

    def _record_ids(self, body: dict, n: int, batch: bool) -> list[int]:
        ids = body.get("record_ids") if batch else body.get("record_id")
        if ids is None:
            with self._rng_lock:
                return self._fresh_rng.integers(2**62, size=n).tolist()
        ids = ids if batch else [ids]
        # exact type: bool is an int subclass, but true is not a record id
        if (not isinstance(ids, list) or len(ids) != n
                or any(type(r) is not int or r < 0 for r in ids)):
            raise _HttpError(400, "record_id(s) must be nonnegative integers, one per record")
        return ids

    def predict(self, body: dict) -> dict:
        X, batch = self._rows(body)
        p = forward_rows(self.model, X).tolist()
        return {"probabilities": p} if batch else {"probability": p[0]}

    def explain(self, body: dict) -> dict:
        X, batch = self._rows(body)
        raw_alg = body.get("algorithm")
        try:
            algorithm = Algorithm(raw_alg)
        except ValueError:
            raise _HttpError(400, f"unknown algorithm {raw_alg!r}")
        ids = self._record_ids(body, X.shape[0], batch)
        out = [{"scores": a.scores.tolist(), "delta": float(a.delta)}
               for a in explain_batch(self.model, X, self.baseline, algorithm,
                                      self.cfg, self.target, ids)]
        return {"explanations": out} if batch else out[0]


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # seconds a read or write may block; a short body, a stalled client or an
    # idle keep-alive connection then closes instead of holding a thread
    timeout = 10.0
    # else the body, written after the headers, waits for a delayed ACK (40 ms)
    disable_nagle_algorithm = True
    endpoints: _Endpoints  # attached by serve()

    def log_message(self, fmt, *args):  # quiet by default
        pass

    def _send(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(data)
        except (ConnectionError, TimeoutError):
            self.close_connection = True  # the client hung up or stopped reading

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
            if int(length) > MAX_BODY_BYTES:
                self.close_connection = True  # the body stays unread
                raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
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
        except TimeoutError:
            raise  # the base handler closes a connection that timed out
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


def _exchange(endpoint: str, path: str, payloads, max_retries: int,
              timeout: float) -> list[dict]:
    """POST each payload (GET for None) over one keep-alive connection; the
    answers in order."""
    url = endpoint.rstrip("/")
    parts = urllib.parse.urlsplit(url)
    connection = {"http": http.client.HTTPConnection,
                  "https": http.client.HTTPSConnection}.get(parts.scheme)
    if connection is None or not parts.hostname:
        raise ValueError(f"service endpoint must be an http(s):// URL, got {endpoint!r}")
    with closing(connection(parts.hostname, parts.port, timeout=timeout)) as conn:
        return [_request(conn, url + path, parts.path + path, p, max_retries, timeout)
                for p in payloads]


def _request(conn, url: str, path: str, payload, max_retries: int, timeout: float) -> dict:
    """A request that gets no answer reopens the connection and is sent
    again, with exponential backoff; an HTTP error answer raises at once.
    Connecting may take timeout seconds, the answer timeout per record."""
    body = None if payload is None else json.dumps(payload).encode("utf-8")
    n_records = 1 if payload is None else len(payload["records"])
    last_exc = None
    for attempt in range(max_retries):
        try:
            if conn.sock is None:
                conn.connect()
            conn.sock.settimeout(timeout * n_records)
            conn.request("GET" if body is None else "POST", path, body,
                         {"Content-Type": "application/json"})
            resp = conn.getresponse()
            data = resp.read()
            break
        except (http.client.HTTPException, OSError) as exc:
            conn.close()  # the next attempt reconnects
            last_exc = exc
            if attempt + 1 < max_retries:
                time.sleep(0.1 * 2**attempt)
    else:
        raise ServiceError(
            f"could not reach {url} after {max_retries} attempts: {last_exc}") from last_exc
    if resp.status != 200:  # the server answered: a protocol failure, not transient
        raise ServiceError(f"{url} returned {resp.status}: {data.decode('utf-8', 'replace')}")
    return json.loads(data.decode("utf-8"))


def _chunks(X: np.ndarray, record_ids=None, **fields):
    """Request bodies of CHUNK_RECORDS rows of X each."""
    for i in range(0, X.shape[0], CHUNK_RECORDS):
        ids = {} if record_ids is None else {"record_ids": record_ids[i:i + CHUNK_RECORDS]}
        yield {"records": X[i:i + CHUNK_RECORDS].tolist(), **fields, **ids}


def client_fetch_predictions(
    endpoint: str, records, max_retries: int = 3, timeout: float = 30.0
) -> np.ndarray:
    """Predicted probabilities for each record, in request order."""
    X = np.asarray(records, dtype=np.float64)
    answers = _exchange(endpoint, "/v1/predict", _chunks(X), max_retries, timeout)
    return np.array([p for a in answers for p in a["probabilities"]], dtype=np.float64)


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
    answers = _exchange(endpoint, "/v1/explain",
                        _chunks(X, record_ids, algorithm=algorithm.value),
                        max_retries, timeout)
    return [Attribution(algorithm=algorithm, scores=np.asarray(e["scores"], dtype=np.float64),
                        delta=float(e["delta"]), target=None, baseline_id="remote")
            for a in answers for e in a["explanations"]]


def fetch_health(endpoint: str, max_retries: int = 3, timeout: float = 10.0) -> bool:
    try:
        answer = _exchange(endpoint, "/v1/health", [None], max_retries, timeout)[0]
    except (ServiceError, ValueError):
        return False
    return isinstance(answer, dict) and answer.get("status") == "ok"
