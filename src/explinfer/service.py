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
per request over a keep-alive http(s) connection (ssl is imported only for
https), and its timeout bounds the connect and each record's answer time;
max_retries (an integer >= 1) and timeout (a finite number > 0) are checked
by nn.check_number before a connection opens. It joins the answers into one
explain.Explanations, or one array of probabilities, and raises
ServiceError for an answer that does not decode as UTF-8 JSON or that
holds another count than the records sent. Between calls the client keeps
one idle connection, that of the last call that finished cleanly, and the
next call to the same endpoint reuses it. The server closes a connection
left idle for 10 s (_Handler.timeout), and every open connection when it
shuts down; a request that such a closed connection loses before any
answer is resent at once on a fresh one.

Both ends speak HTTP/1.1 through one small codec. A message is a start
line, at most 100 header lines of at most 65,536 bytes each, and a body of
Content-Length bytes; it is parsed once and written in one piece, so the
peer wakes once per message. The server accepts HTTP/1.1 and HTTP/1.0
(keep-alive follows the version and the Connection header), GET and POST,
and bodies framed by Content-Length only. It sends no 100 Continue: a
client that sends Expect: 100-continue sends its body after its own wait.
The client takes answers framed by a Content-Length of at most
MAX_BODY_BYTES; any other answer is a failed attempt.

Errors are {"error": message}: 400 for a body that does not decode as
UTF-8 JSON (one nested past the recursion limit included), an unknown
algorithm, a body without a nonempty "records" list or ids that are not
nonnegative integers, one per record; 422 for a bad feature row, named by
its index; 404 for another endpoint; 500 for a fault in an endpoint, whose
traceback goes to the server's stderr. A request outside the codec's subset
gets its error with Connection: close, and nothing after its fault is
read: 400 for a malformed request line or header line, another HTTP
version, or a negative, non-integer or second Content-Length; 405 for
another method, with Allow: GET, POST; 411 for a Transfer-Encoding; 413
for a body over MAX_BODY_BYTES; 414 or 431 for a request line or header
line over the limits, or too many header lines. A connection is closed when its
request line and headers take longer than the handler's timeout from the
request's start, idle time included, when its body takes longer than that
plus its length at BODY_BYTES_PER_SECOND, or when writing the answer blocks
that long; one opened while MAX_CONNECTIONS are open gets 503, unread, and
is closed. No endpoint exposes parameters, architecture or training data.
"""

from __future__ import annotations

import atexit
import contextlib
import io
import json
import re
import socket
import socketserver
import threading
import time
import traceback
import urllib.parse
from http import HTTPStatus

import numpy as np

from .explain import Algorithm, ExplainerConfig, Explanations, check_record_ids, explain_batch
from .nn import MlpModel, ScalarTarget, check_number, forward, forward_rows

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
        if not isinstance(ids, list):
            raise _HttpError(400, f"record_ids must be a list, got {type(ids).__name__}")
        try:
            return check_record_ids(ids, n)
        except ValueError as exc:
            raise _HttpError(400, str(exc))

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
    """A message outside the codec's subset, or a request the endpoints
    refuse, with the status that answers it."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


# the HTTP/1.1 codec both ends speak: a head of at most _MAX_HEADERS header
# lines of at most _MAX_LINE bytes each, then a body of Content-Length bytes,
# written with the head in one piece
_MAX_LINE, _MAX_HEADERS = 65536, 100
_TOKEN = re.compile(rb"[!#$%&'*+.^_`|~0-9A-Za-z-]+")


def _read_line(rfile, status: int) -> bytes:
    """The next line of a message head, without its end; one over _MAX_LINE
    bytes is a `status` answer."""
    line = rfile.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise _HttpError(status, f"a line of the head exceeds {_MAX_LINE} bytes")
    if not line.endswith(b"\n"):
        raise ConnectionResetError("connection closed within a message head")
    return line.rstrip(b"\r\n")


def _read_head(rfile) -> tuple[bytes, dict[str, str]] | None:
    """The start line and the headers (names lowercased, repeats joined by
    ", ") of the next message on rfile; None if the stream ends before it.
    An over-long start line is a 414, an over-long or 101st header line a
    431, a malformed header line or a second Content-Length a 400."""
    if not rfile.peek(1):
        return None
    start, headers = _read_line(rfile, 414), {}
    for _ in range(_MAX_HEADERS + 1):
        line = _read_line(rfile, 431)
        if not line:
            return start, headers
        name, colon, value = line.partition(b":")
        if not (colon and _TOKEN.fullmatch(name)):
            raise _HttpError(400, f"malformed header line {line[:80]!r}")
        name, value = name.decode("ascii").lower(), value.strip(b" \t").decode("latin-1")
        if name in headers:
            if name == "content-length":
                raise _HttpError(400, "more than one Content-Length header")
            value = f"{headers[name]}, {value}"
        headers[name] = value
    raise _HttpError(431, f"more than {_MAX_HEADERS} header lines")


def _content_length(headers: dict[str, str]) -> int:
    length = headers.get("content-length", "0")
    if not (length.isascii() and length.isdigit()):
        raise _HttpError(400, "Content-Length must be a nonnegative integer")
    digits = length.lstrip("0") or "0"
    # int() refuses over 4,300 digits; 20 already exceed any body limit
    return int(digits) if len(digits) <= 20 else 10**20


def _keeps_alive(version: bytes, headers: dict[str, str]) -> bool:
    """Whether the connection stays open after this message: HTTP/1.1 unless
    it says close, HTTP/1.0 only if it says keep-alive."""
    tokens = {t.strip().lower() for t in headers.get("connection", "").split(",")}
    return "close" not in tokens and (version == b"HTTP/1.1" or "keep-alive" in tokens)


def _decode(body: bytes):
    """The JSON value of a UTF-8 body. A body that is not UTF-8 or not JSON,
    or that nests past the interpreter's recursion limit, is a ValueError."""
    try:
        return json.loads(body.decode("utf-8"))
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _message(head: list[bytes], body: bytes) -> bytes:
    """The start line and headers in head, the JSON body's type and length,
    and the body, as one buffer: one write per message, so the peer wakes once."""
    return b"\r\n".join([*head, b"Content-Type: application/json",
                          b"Content-Length: %d" % len(body), b"", body])


class _Reads(socket.SocketIO):
    """A connection's reads; while `deadline` (time.monotonic()) is set, each
    may block only until then."""

    deadline = None

    def readinto(self, buffer):
        if self.deadline is not None:  # a zero timeout would not block at all
            self._sock.settimeout(max(self.deadline - time.monotonic(), 1e-6))
        return super().readinto(buffer)


class _Handler(socketserver.StreamRequestHandler):
    # seconds a write may block, and that the request line and headers may
    # take, idle keep-alive time included, and the body beyond its
    # BODY_BYTES_PER_SECOND share: else a short body, a stalled, trickling or
    # idle client would hold a thread and a connection slot
    timeout = 10.0
    # else the last segment of a long answer waits for a delayed ACK (40 ms)
    disable_nagle_algorithm = True

    def setup(self):
        super().setup()
        self.rfile.close()  # for one that keeps a deadline
        self.rfile = io.BufferedReader(_Reads(self.connection, "rb"))

    def handle(self):
        """Answer requests until one closes the connection. A request
        outside the accepted subset gets its 4xx and a close, unread past its
        fault; a hang-up, or a request not read by its deadline, a close."""
        keep_alive = True
        while keep_alive:
            deadline = self.rfile.raw.deadline = time.monotonic() + self.timeout
            try:
                request = self._read_request(deadline)
            except _HttpError as exc:
                self._send(exc.status, {"error": exc.message}, keep_alive=False)
                return
            except (ConnectionError, TimeoutError):
                return
            finally:  # the answer gets timeout per write
                self.rfile.raw.deadline = None
                self.connection.settimeout(self.timeout)
            if request is None:  # the client closed it between requests
                return
            method, path, body, keep_alive = request
            keep_alive &= self._send(*self._answer(method, path, body), keep_alive)

    def _read_request(self, deadline: float):
        """The next request's method, path, body and whether the connection
        stays open after it, or None at the end of the stream. The body must
        arrive by deadline extended by its length / BODY_BYTES_PER_SECOND."""
        head = _read_head(self.rfile)
        if head is None:
            return None
        start, headers = head
        words = start.split()
        if len(words) != 3:
            raise _HttpError(400, f"malformed request line {start[:80]!r}")
        method, path, version = words
        if version not in (b"HTTP/1.1", b"HTTP/1.0"):
            raise _HttpError(400, "only HTTP/1.1 and HTTP/1.0 are supported")
        if method not in (b"GET", b"POST"):
            raise _HttpError(405, f"unsupported method {method[:20].decode('latin-1')}")
        if "transfer-encoding" in headers:
            raise _HttpError(411, "a body needs a Content-Length; "
                                  "Transfer-Encoding is not supported")
        n = _content_length(headers)
        if n > MAX_BODY_BYTES:
            raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        self.rfile.raw.deadline = deadline + n / BODY_BYTES_PER_SECOND
        body = self.rfile.read(n)
        if len(body) < n:
            raise ConnectionResetError("connection closed within a request body")
        return method.decode(), path.decode("latin-1"), body, _keeps_alive(version, headers)

    def _answer(self, method: str, path: str, body: bytes) -> tuple[int, object]:
        """The status and JSON payload that answer a request read whole."""
        endpoints = self.server.endpoints
        try:
            if method == "GET" and path == "/v1/health":
                return 200, {"status": "ok"}
            endpoint = {"/v1/predict": endpoints.predict,
                        "/v1/explain": endpoints.explain}.get(path)
            if method != "POST" or endpoint is None:
                raise _HttpError(404, f"no such endpoint: {path}")
            try:
                request = _decode(body)
                if not isinstance(request, dict):
                    raise ValueError("body must be a JSON object")
            except ValueError as exc:
                raise _HttpError(400, f"malformed JSON body: {exc}")
            return 200, endpoint(request)
        except _HttpError as exc:
            return exc.status, {"error": exc.message}
        except Exception as exc:  # the answer leaks no traceback; the server's stderr shows it
            traceback.print_exc()
            return 500, {"error": f"internal error: {exc}"}

    def _send(self, status: int, payload, keep_alive: bool) -> bool:
        """Write the answer in one piece; False if the client hung up or
        stopped reading."""
        head = [b"HTTP/1.1 %d %s" % (status, HTTPStatus(status).phrase.encode()),
                b"Connection: keep-alive" if keep_alive else b"Connection: close"]
        if status == 405:
            head.append(b"Allow: GET, POST")
        try:
            self.connection.sendall(_message(head, json.dumps(payload).encode("utf-8")))
        except (ConnectionError, TimeoutError):
            return False
        return True


class Server(socketserver.ThreadingTCPServer):
    """The service, bound to host:port when built (port 0 binds an ephemeral
    port). Once load() has given it a model it serves: on a thread after
    start(), or in the caller's through serve_forever(POLL_SECONDS). shutdown()
    and the context exit stop the thread, if one was started, and close every
    open connection: else a kept-alive client would reach the old model."""

    allow_reuse_address = True
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
            request.sendall(_message([b"HTTP/1.1 503 Service Unavailable",
                                      b"Connection: close"], body))
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


class _Connection:
    """A keep-alive connection to one http(s) endpoint, opened by connect();
    sock is None while it is closed."""

    def __init__(self, scheme: str, host: str, port: int | None, timeout: float):
        self.scheme, self.host, self.timeout = scheme, host, timeout
        self.port = port or (443 if scheme == "https" else 80)
        name = f"[{host}]" if ":" in host else host  # an IPv6 address
        self._host = (name if port is None else f"{name}:{port}").encode()
        self.sock = self._rfile = None

    def connect(self) -> None:
        sock = socket.create_connection((self.host, self.port), self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self.scheme == "https":
                import ssl  # only an https endpoint loads TLS
                sock = ssl.create_default_context().wrap_socket(sock,
                                                                server_hostname=self.host)
        except BaseException:
            sock.close()
            raise
        self.sock, self._rfile = sock, sock.makefile("rb")

    def close(self) -> None:
        if self.sock is not None:
            self._rfile.close()
            self.sock.close()
            self.sock = self._rfile = None

    def request(self, method: str, path: str, body: bytes) -> None:
        """Send the request in one write."""
        self.sock.sendall(_message([f"{method} {path} HTTP/1.1".encode(),
                                    b"Host: " + self._host], body))

    def response(self) -> int:
        """Read the answer's status line and headers; its status."""
        head = _read_head(self._rfile)
        if head is None:
            raise ConnectionResetError("connection closed before an answer")
        (version, _, status), headers = head[0].partition(b" "), head[1]
        self._length = _content_length(headers) if "content-length" in headers else -1
        if not (version in (b"HTTP/1.1", b"HTTP/1.0") and status[:3].isdigit()
                and 0 <= self._length <= MAX_BODY_BYTES):
            raise _HttpError(502, f"an answer outside the codec's subset: {head[0][:80]!r}")
        self._keep_alive = _keeps_alive(version, headers)
        return int(status[:3])

    def read(self) -> bytes:
        """The answer's body; closes the connection if the answer says so."""
        data = self._rfile.read(self._length)
        if len(data) < self._length:
            raise ConnectionResetError("connection closed within an answer")
        if not self._keep_alive:
            self.close()
        return data


def check_endpoint(endpoint: str) -> tuple[tuple[str, str, int | None], str]:
    """The endpoint's (scheme, host, port) and path; ValueError unless it is an
    http(s):// URL with a host, a port in 0-65535 if any, and a path of printable
    ASCII, since anything else would not be one request line."""
    parts = urllib.parse.urlsplit(endpoint.rstrip("/"))
    with contextlib.suppress(ValueError):  # .port's, for one out of range or not a number
        if parts.scheme in ("http", "https") and parts.hostname and re.fullmatch(
                r"[!-~]*", parts.path):
            return (parts.scheme, parts.hostname, parts.port), parts.path
    raise ValueError(f"service endpoint must be an http(s):// URL, got {endpoint!r}")


def _exchange(endpoint: str, path: str, payloads, max_retries: int,
              timeout: float) -> list[dict]:
    """POST each payload (GET for None) over one keep-alive connection; the
    answers in order. The idle connection is reused if it leads to the same
    endpoint; a call that finishes cleanly leaves its connection idle."""
    url = endpoint.rstrip("/")
    key, base = check_endpoint(endpoint)
    kept = _swap_idle()
    if kept is not None and kept[0] == key:
        conn = kept[1]
        conn.timeout = timeout  # for a reconnect
    else:
        if kept is not None:
            kept[1].close()
        conn = _Connection(*key, timeout)
    try:
        answers = [_request(conn, url + path, base + path, p, max_retries, timeout)
                   for p in payloads]
    except BaseException:
        conn.close()
        raise
    if conn.sock is not None:  # else the server ended the connection
        replaced = _swap_idle((key, conn))  # another thread's
        if replaced is not None:
            replaced[1].close()
    return answers


def _request(conn: _Connection, url: str, path: str, payload, max_retries: int,
             timeout: float) -> dict:
    """A request that gets no answer or a 503 reopens the connection and is
    sent again, with exponential backoff; another HTTP error raises at once.
    A request that fails before its status line on a connection that has
    carried an earlier one, which the server may have closed while idle,
    is first resent at once on a fresh connection, outside the retry count.
    Connecting may take timeout seconds, the answer timeout per record."""
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    n_records = 1 if payload is None else len(payload["records"])
    attempt, last_exc = 0, None
    while attempt < max_retries:
        reused, status = conn.sock is not None, None
        try:
            if not reused:
                conn.connect()
            conn.sock.settimeout(timeout * n_records)
            # a full server answers 503 unread and closes, maybe before the body is sent
            with contextlib.suppress(BrokenPipeError, ConnectionResetError):
                conn.request("GET" if payload is None else "POST", path, body)
            status = conn.response()
            data = conn.read()
            if status == 503:  # a full server, which closed it: a slot may free up
                raise ConnectionRefusedError(f"returned 503: {data.decode('utf-8', 'replace')}")
            break
        except (_HttpError, OSError) as exc:
            conn.close()  # the next attempt reconnects
            last_exc = exc
            # a timeout means a slow server, not a closed connection
            if reused and status is None and not isinstance(exc, TimeoutError):
                continue
            attempt += 1
            if attempt < max_retries:
                time.sleep(0.1 * 2**(attempt - 1))
    else:
        raise ServiceError(
            f"could not reach {url} after {max_retries} attempts: {last_exc}") from last_exc
    if status != 200:  # the server answered, not busy: a protocol failure
        raise ServiceError(f"{url} returned {status}: {data.decode('utf-8', 'replace')}")
    try:
        return _decode(data)
    except ValueError as exc:
        raise ServiceError(f"malformed answer from {url}: {exc}") from exc


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


def _check_attempts(max_retries, timeout) -> None:
    check_number("max_retries", max_retries, True, True)
    check_number("timeout", timeout, False, True)


def client_fetch_predictions(
    endpoint: str, records, max_retries: int = 3, timeout: float = 30.0
) -> np.ndarray:
    """Predicted probabilities for each record, in request order."""
    _check_attempts(max_retries, timeout)
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
    _check_attempts(max_retries, timeout)
    X = np.asarray(records, dtype=np.float64)
    if record_ids is not None:
        record_ids = check_record_ids(record_ids, X.shape[0])
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
    """Whether the endpoint answers; a bad max_retries or timeout raises."""
    _check_attempts(max_retries, timeout)
    try:
        answer = _exchange(endpoint, "/v1/health", [None], max_retries, timeout)[0]
    except (ServiceError, ValueError):
        return False
    return isinstance(answer, dict) and answer.get("status") == "ok"
