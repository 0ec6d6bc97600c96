"""Spans around the calls into the package's modules, from outside them.

`Tracer.instrument` replaces every public function of the traced modules
(and every alias other modules imported by name) with a wrapper that
records a span: name, start, end, parent span and run id, plus the size
arguments the per-layer metrics need. Spans are kept in memory and written
out when the benchmark ends; `restore` puts the original functions back.
The package itself is not changed.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import threading
import time

LAYERS = ["data", "nn", "explain", "attack", "forest", "metrics", "pipeline",
          "service"]

# arguments worth keeping on a span, by parameter name
_SIZE_ARGS = ("X", "x", "features", "records", "aux_features")
_KEEP_ARGS = ("algorithm", "kind", "n_trees")
_CONFIG_ARG = "cfg"  # a training config: its epoch count is kept


def _rows(value) -> int | None:
    shape = getattr(value, "shape", None)
    if shape is not None:
        return int(shape[0]) if len(shape) == 2 else 1
    if isinstance(value, list):
        return len(value)
    return None


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "attrs")

    def __init__(self, name, start, parent, run, attrs):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.attrs = attrs

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self, index: int) -> dict:
        return {"id": index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "run": self.run,
                **self.attrs}


class Tracer:
    """Records nested spans per thread; spans share the current run id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, attrs: dict | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.run,
                               attrs or {}))
        index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        index = self.begin(name, attrs)
        try:
            yield self.spans[index]
        finally:
            self.end(index)

    def _wrap(self, name: str, fn, rows=None):
        try:
            params = list(inspect.signature(fn).parameters)
        except (TypeError, ValueError):
            params = []
        # (parameter name, position) of the arguments kept on the span
        wanted = [(p, i) for i, p in enumerate(params)
                  if p in _SIZE_ARGS or p in _KEEP_ARGS or p == _CONFIG_ARG]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = {} if rows is None else {"rows": rows(args)}
            for p, i in wanted:
                if p in kwargs:
                    v = kwargs[p]
                elif i < len(args):
                    v = args[i]
                else:
                    continue
                if p in _SIZE_ARGS:
                    n = _rows(v)
                    if n is not None and "rows" not in attrs:
                        attrs["rows"] = n
                elif p == _CONFIG_ARG:
                    if isinstance(getattr(v, "epochs", None), int):
                        attrs["epochs"] = v.epochs
                else:
                    attrs[p] = getattr(v, "value", v)
            index = tracer.begin(name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if name == "data.load_csv":
                tracer.spans[index].attrs["rows"] = getattr(result, "n_rows", 0)
            return result

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def instrument(self, package: str = "explinfer") -> None:
        """Wrap the public functions of every traced module of the package,
        including the names other package modules imported them under."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{package}.{layer}")
            if module is None:
                continue
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for name, module in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])

    def wrap_method(self, cls, attr: str, name: str, rows=None) -> None:
        """Time a method of a class, such as a server endpoint; `rows` maps
        the call's positional arguments to the number of records it serves."""
        fn = getattr(cls, attr, None)
        if fn is not None:
            self._patch(cls, attr, self._wrap(name, fn, rows))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def dump_spans(spans: list[Span], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([s.to_json(i) for i, s in enumerate(spans)], fh)


def load_spans(path: str) -> list[Span]:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    spans = []
    for r in raw:
        attrs = {k: v for k, v in r.items()
                 if k not in ("id", "name", "start", "end", "parent", "run")}
        s = Span(r["name"], r["start"], r["parent"], r["run"], attrs)
        s.end = r["end"]
        spans.append(s)
    return spans


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out
