"""Blackbox predict/explain service and the adversary-side client.

The server exposes the trained model strictly through JSON-over-HTTP:

    POST /v1/predict  {"records": [[...], ...]}  -> {"probabilities": [p, ...]}
    POST /v1/explain  {"records": [[...], ...], "algorithm": a, "record_ids": optional
                       [int, ...]}  -> {"explanations": [{"scores": [...], "delta": d}, ...],
                                        "target": t}
    GET  /v1/health                             -> {"status": "ok"}

with a in integrated_gradients, deeplift, gradient_shap, smoothgrad, and t
the explained scalar of the served model, logit or probability. A
single record is a batch of one. Each record of a batch gets the arithmetic
it gets alone, and floats round-trip, so answers are bit-identical to
one-record and in-process ones for the same record id; without ids the
server draws fresh noise per record. The client sends CHUNK_RECORDS records
per request over a keep-alive http(s) connection, and its timeout bounds
the connect and each record's answer time. It joins the answers into one
explain.Explanations, or one array of probabilities, and raises
ServiceError for answers that hold another count than the records sent. Between calls the client keeps
one idle connection, that of the last call that finished cleanly, and the
next call to the same endpoint reuses it. The server closes a connection
left idle for 10 s (_Handler.timeout), and every open connection when it
shuts down; a request that such a closed connection loses before any
answer is resent at once on a fresh one.

Errors are {"error": message}: 400 for malformed JSON, a negative or
non-integer Content-Length, an unknown algorithm, a body without a nonempty
"records" list or ids that are not nonnegative integers, one per record;
413, unread, for a body over MAX_BODY_BYTES; 422 for a bad feature row,
named by its index; 404/405 otherwise. A connection is closed when its
request line and headers take longer than the handler's timeout from the
request's start, idle time included, when its body takes longer than that
plus its length at BODY_BYTES_PER_SECOND, or when writing the answer blocks
that long; one opened while MAX_CONNECTIONS are open gets 503, unread, and
is closed. No endpoint exposes parameters, architecture or training data.
"""

from __future__ import annotations

import atexit
import contextlib
import http.client
import io
import json
import socket
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from .explain import Algorithm, ExplainerConfig, Explanations, explain_batch
from .nn import MlpModel, ScalarTarget, forward, forward_rows

CHUNK_RECORDS = 256  # records per request sent by the client
MAX_BODY_BYTES = 16 * 2**20  # a chunk of 100-feature records is about 0.7 MB
# the slowest body the server waits for: a body of n bytes must arrive within
# the handler's timeout plus n / BODY_BYTES_PER_SECOND of its request's start
BODY_BYTES_PER_SECOND = 2**16
MAX_CONNECTIONS = 64  # open connections, idle ones included; README says what it bounds
POLL_SECONDS = 0.05  # serve_forever's poll, which bounds how long shutdown() waits


class ServiceError(RuntimeError):
    """Client could not complete a request."""


class _Endpoints:
    """Request handling shared by every server thread."""

    def __init__(self, model: MlpModel, baseline, cfg: ExplainerConfig,
                 target: ScalarTarget):
        self.model = model
        self.baseline = np.asarray(baseline, dtype=np.float64)
        if self.baseline.shape != (model.input_dim,):
            raise ValueError(f"baseline must have length {model.input_dim}, "
                             f"got {self.baseline.shape}")
        self.cfg = cfg
        self.target = target
        self.f_baseline = forward(model, self.baseline, target)  # once per served target
        self._fresh_rng = np.random.default_rng()
        self._rng_lock = threading.Lock()

    def _rows(self, body: dict) -> np.ndarray:
        """The feature rows as an (n, d) matrix."""
        rows = body.get("records")
        if not (isinstance(rows, list) and rows):
            raise _HttpError(400, "body must contain a nonempty 'records' list")
        X = np.empty((len(rows), self.model.input_dim))
        for i, row in enumerate(rows):
            # exact types: np.asarray would also take "1" and true as numbers
            ok = (isinstance(row, list) and len(row) == X.shape[1]
                  and all(type(v) in (int, float) for v in row))
            if ok:
                try:
                    X[i] = row
                except OverflowError:  # an integer beyond the float range
                    ok = False
            if not (ok and np.all(np.isfinite(X[i]))):
                raise _HttpError(422, f"records[{i}] must be {X.shape[1]} finite numbers")
        return X

    def _record_ids(self, body: dict, n: int) -> list[int]:
        ids = body.get("record_ids")
        if ids is None:
            with self._rng_lock:
                return self._fresh_rng.integers(2**62, size=n).tolist()
        # exact type: bool is an int subclass, but true is not a record id
        if (not isinstance(ids, list) or len(ids) != n
                or any(type(r) is not int or r < 0 for r in ids)):
            raise _HttpError(400, "record_ids must be nonnegative integers, one per record")
        return ids

    def predict(self, body: dict) -> dict:
        return {"probabilities": forward_rows(self.model, self._rows(body)).tolist()}

    def explain(self, body: dict) -> dict:
        X = self._rows(body)
        raw_alg = body.get("algorithm")
        try:
            algorithm = Algorithm(raw_alg)
        except ValueError:
            raise _HttpError(400, f"unknown algorithm {raw_alg!r}")
        e = explain_batch(self.model, X, self.baseline, algorithm, self.cfg, self.target,
                          self._record_ids(body, X.shape[0]), f_baseline=self.f_baseline)
        return {"explanations": [{"scores": s, "delta": d}
                                 for s, d in zip(e.scores.tolist(), e.delta.tolist())],
                "target": self.target.value}


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class _Reads(socket.SocketIO):
    """A connection's reads; while `deadline` (time.monotonic()) is set, each
    may block only until then."""

    deadline = None

    def readinto(self, buffer):
        if self.deadline is not None:  # a zero timeout would not block at all
            self._sock.settimeout(max(self.deadline - time.monotonic(), 1e-6))
        return super().readinto(buffer)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # seconds a write may block, and that the request line and headers may
    # take, idle keep-alive time included, and the body beyond its
    # BODY_BYTES_PER_SECOND share: else a short body, a stalled, trickling or
    # idle client would hold a thread and a connection slot
    timeout = 10.0
    # else the body, written after the headers, waits for a delayed ACK (40 ms)
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):  # quiet by default
        pass

    def setup(self):
        super().setup()
        self.rfile.close()  # for one that keeps a deadline
        self.rfile = io.BufferedReader(_Reads(self.connection, "rb"))

    def handle_one_request(self):
        self._deadline = self.rfile.raw.deadline = time.monotonic() + self.timeout
        try:
            super().handle_one_request()
        except ConnectionError:  # the client hung up, say between two requests
            self.close_connection = True

    def parse_request(self) -> bool:
        try:
            return super().parse_request()  # reads the headers
        finally:  # the answer gets timeout per write
            self.rfile.raw.deadline = None
            self.connection.settimeout(self.timeout)

    def _read_body(self, n: int) -> bytes:
        """The n bytes of the body, read by the request's deadline extended
        by n / BODY_BYTES_PER_SECOND."""
        self.rfile.raw.deadline = self._deadline + n / BODY_BYTES_PER_SECOND
        try:
            return self.rfile.read(n)
        finally:
            self.rfile.raw.deadline = None
            self.connection.settimeout(self.timeout)

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
                body = json.loads(self._read_body(int(length)).decode("utf-8"))
                if not isinstance(body, dict):
                    raise ValueError("body must be a JSON object")
            except (ValueError, UnicodeDecodeError) as exc:
                raise _HttpError(400, f"malformed JSON body: {exc}")
            if self.path == "/v1/predict":
                self._send(200, self.server.endpoints.predict(body))
            elif self.path == "/v1/explain":
                self._send(200, self.server.endpoints.explain(body))
            else:
                raise _HttpError(404, f"no such endpoint: {self.path}")
        except _HttpError as exc:
            self._send(exc.status, {"error": exc.message})
        except TimeoutError:
            raise  # the base handler closes a connection that timed out
        except Exception as exc:  # contract: never leak a traceback
            self._send(500, {"error": f"internal error: {exc}"})


class Server(ThreadingHTTPServer):
    """The service, bound to host:port when built (port 0 binds an ephemeral
    port). Once load() has given it a model it serves: on a thread after
    start(), or in the caller's through serve_forever(POLL_SECONDS). shutdown()
    and the context exit stop the thread, if one was started, and close every
    open connection: else a kept-alive client would reach the old model."""

    daemon_threads = True
    endpoints: _Endpoints

    def __init__(self, host: str, port: int):
        # set first: a failed bind calls server_close() from super().__init__
        self._open, self._open_lock, self._thread = set(), threading.Lock(), None
        super().__init__((host, port), _Handler)
        self.host, self.port = self.server_address[:2]
        self.url = f"http://{self.host}:{self.port}"

    def load(self, model: MlpModel, baseline, cfg: ExplainerConfig,
             target: ScalarTarget = ScalarTarget.LOGIT) -> "Server":
        self.endpoints = _Endpoints(model, baseline, cfg, target)
        return self

    def start(self) -> "Server":
        self._thread = threading.Thread(target=self.serve_forever, args=(POLL_SECONDS,),
                                        daemon=True)
        self._thread.start()
        return self

    def verify_request(self, request, client_address) -> bool:
        """Below the cap, count the connection in; past it, answer 503 unread
        and without blocking, and refuse it: the caller closes it, threadless."""
        with self._open_lock:
            if len(self._open) < MAX_CONNECTIONS:
                self._open.add(request)
                return True
        body = json.dumps({"error": f"server busy: {MAX_CONNECTIONS} connections open"}).encode()
        request.setblocking(False)
        with contextlib.suppress(OSError):  # the peer is already gone
            request.sendall(b"HTTP/1.1 503 Service Unavailable\r\n"
                            b"Content-Type: application/json\r\nConnection: close\r\n"
                            b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
        return False

    def shutdown_request(self, request):
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        if self._thread is not None:
            super().shutdown()  # stops serve_forever; at once if it already stopped
            self._thread.join(timeout=10)
        super().server_close()
        with self._open_lock:
            for request in self._open:  # each handler then reads EOF and closes it
                with contextlib.suppress(OSError):  # the peer is already gone
                    request.shutdown(socket.SHUT_RDWR)

    shutdown = server_close  # and the context exit calls server_close()


def serve(
    model: MlpModel,
    baseline,
    cfg: ExplainerConfig,
    host: str = "127.0.0.1",
    port: int = 0,
    target: ScalarTarget = ScalarTarget.LOGIT,
) -> Server:
    """Bind host:port and serve model on a thread until shutdown()."""
    server = Server(host, port)
    try:
        return server.load(model, baseline, cfg, target).start()
    except BaseException:  # such as a baseline of the wrong length
        server.server_close()
        raise


# the connection of the last call that finished cleanly, as
# ((scheme, host, port), connection), or None
_idle = None
_idle_lock = threading.Lock()


def _swap_idle(kept=None):
    """Put kept in the idle slot; returns what the slot held."""
    global _idle
    with _idle_lock:
        old, _idle = _idle, kept
    return old


def close_idle_connection() -> None:
    """Close the connection the client keeps between calls, if any."""
    old = _swap_idle()
    if old is not None:
        old[1].close()


atexit.register(close_idle_connection)


def _exchange(endpoint: str, path: str, payloads, max_retries: int,
              timeout: float) -> list[dict]:
    """POST each payload (GET for None) over one keep-alive connection; the
    answers in order. The idle connection is reused if it leads to the same
    endpoint; a call that finishes cleanly leaves its connection idle."""
    url = endpoint.rstrip("/")
    parts = urllib.parse.urlsplit(url)
    connection = {"http": http.client.HTTPConnection,
                  "https": http.client.HTTPSConnection}.get(parts.scheme)
    if connection is None or not parts.hostname:
        raise ValueError(f"service endpoint must be an http(s):// URL, got {endpoint!r}")
    key = (parts.scheme, parts.hostname, parts.port)
    kept = _swap_idle()
    if kept is not None and kept[0] == key:
        conn = kept[1]
        conn.timeout = timeout  # for a reconnect
    else:
        if kept is not None:
            kept[1].close()
        conn = connection(parts.hostname, parts.port, timeout=timeout)
    try:
        answers = [_request(conn, url + path, parts.path + path, p, max_retries, timeout)
                   for p in payloads]
    except BaseException:
        conn.close()
        raise
    if conn.sock is not None:  # else the server ended the connection
        replaced = _swap_idle((key, conn))  # another thread's
        if replaced is not None:
            replaced[1].close()
    return answers


def _request(conn, url: str, path: str, payload, max_retries: int, timeout: float) -> dict:
    """A request that gets no answer or a 503 reopens the connection and is
    sent again, with exponential backoff; another HTTP error raises at once.
    A request that fails before its status line on a connection that has
    carried an earlier one, which the server may have closed while idle,
    is first resent at once on a fresh connection, outside the retry count.
    Connecting may take timeout seconds, the answer timeout per record."""
    body = None if payload is None else json.dumps(payload).encode("utf-8")
    n_records = 1 if payload is None else len(payload["records"])
    attempt, last_exc = 0, None
    while attempt < max_retries:
        reused, resp = conn.sock is not None, None
        try:
            if not reused:
                conn.connect()
            conn.sock.settimeout(timeout * n_records)
            # a full server answers 503 unread and closes, maybe before the body is sent
            with contextlib.suppress(BrokenPipeError, ConnectionResetError):
                conn.request("GET" if body is None else "POST", path, body,
                             {"Content-Type": "application/json"})
            resp = conn.getresponse()
            data = resp.read()
            if resp.status == 503:  # a full server, which closed it: a slot may free up
                raise ConnectionRefusedError(f"returned 503: {data.decode('utf-8', 'replace')}")
            break
        except (http.client.HTTPException, OSError) as exc:
            conn.close()  # the next attempt reconnects
            last_exc = exc
            # a timeout means a slow server, not a closed connection
            if reused and resp is None and not isinstance(exc, TimeoutError):
                continue
            attempt += 1
            if attempt < max_retries:
                time.sleep(0.1 * 2**(attempt - 1))
    else:
        raise ServiceError(
            f"could not reach {url} after {max_retries} attempts: {last_exc}") from last_exc
    if resp.status != 200:  # the server answered, not busy: a protocol failure
        raise ServiceError(f"{url} returned {resp.status}: {data.decode('utf-8', 'replace')}")
    return json.loads(data.decode("utf-8"))


def _chunks(X: np.ndarray, record_ids=None, **fields):
    """Request bodies of CHUNK_RECORDS rows of X each."""
    for i in range(0, X.shape[0], CHUNK_RECORDS):
        ids = {} if record_ids is None else {"record_ids": record_ids[i:i + CHUNK_RECORDS]}
        yield {"records": X[i:i + CHUNK_RECORDS].tolist(), **fields, **ids}


def _joined(answers: list, key: str, n: int) -> list:
    """The answers' key lists joined; ValueError unless they hold n items."""
    items = [item for a in answers for item in a[key]]
    if len(items) != n:
        raise ValueError(f"answered {len(items)} {key} for {n} records")
    return items


def client_fetch_predictions(
    endpoint: str, records, max_retries: int = 3, timeout: float = 30.0
) -> np.ndarray:
    """Predicted probabilities for each record, in request order."""
    X = np.asarray(records, dtype=np.float64)
    answers = _exchange(endpoint, "/v1/predict", _chunks(X), max_retries, timeout)
    try:
        return np.array(_joined(answers, "probabilities", len(X)), dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"malformed /v1/predict answer from {endpoint}: {exc!r}") from exc


def client_fetch_explanations(
    endpoint: str,
    records,
    algorithm: Algorithm,
    record_ids=None,
    max_retries: int = 3,
    timeout: float = 30.0,
) -> Explanations:
    """The records' explanations, in request order, and the served target.

    record_ids pin the server-side noise streams so that repeated or remote
    runs reproduce bit-identical explanations. No records send no request,
    and their empty Explanations names no target.
    """
    X = np.asarray(records, dtype=np.float64)
    if record_ids is not None:
        record_ids = [int(r) for r in record_ids]
        if len(record_ids) != X.shape[0]:
            raise ValueError("record_ids must match the number of records")
    if not len(X):
        return Explanations(algorithm, None, np.empty(X.shape), np.empty(0))
    answers = _exchange(endpoint, "/v1/explain",
                        _chunks(X, record_ids, algorithm=algorithm.value),
                        max_retries, timeout)
    try:
        items = _joined(answers, "explanations", len(X))
        targets = {a["target"] for a in answers}
        if len(targets) != 1:
            raise ValueError(f"the chunks' answers name the targets {sorted(targets)}")
        scores = np.array([e["scores"] for e in items], dtype=np.float64)
        delta = np.array([e["delta"] for e in items], dtype=np.float64)
        if scores.shape != X.shape or delta.shape != X.shape[:1]:
            raise ValueError(f"scores {scores.shape} and delta {delta.shape} "
                             f"for records {X.shape}")
        return Explanations(algorithm, ScalarTarget(targets.pop()), scores, delta)
    except (KeyError, TypeError, ValueError) as exc:  # such as a server without "target"
        raise ServiceError(f"malformed /v1/explain answer from {endpoint}: {exc!r}") from exc


def fetch_health(endpoint: str, max_retries: int = 3, timeout: float = 10.0) -> bool:
    try:
        answer = _exchange(endpoint, "/v1/health", [None], max_retries, timeout)[0]
    except (ServiceError, ValueError):
        return False
    return isinstance(answer, dict) and answer.get("status") == "ok"
