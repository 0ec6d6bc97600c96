"""Per-layer metrics computed from recorded spans.

A layer is a package module. Busy time comes from the spans of calls into
it; self time is a span's duration minus the part its child spans cover.
Counts come from the size arguments recorded on the spans. A layer a
workload does not use reads 0.
"""

from __future__ import annotations

from spans import LAYERS, Span, self_times

ALGORITHMS = ["integrated_gradients", "deeplift", "gradient_shap", "smoothgrad"]
FORWARD = {"nn.forward", "nn.forward_batch", "nn.logits_batch"}
# calls under these spans explain or predict adversary records
EXPLAIN_CONTEXT = {"pipeline.compute_explanations", "service.endpoint_explain",
                   "service.endpoint_predict"}

# name -> unit, in the order they are reported
METRICS = {
    "data.load_s": "s", "data.encode_s": "s", "data.rows": "count",
    "nn.target_train_s": "s", "nn.target_epoch_s": "s",
    "nn.target_trainings": "count", "nn.attack_epoch_s": "s",
    "nn.forward_calls_per_record": "count", "nn.grad_rows_per_call": "count",
    **{f"explain.{a}_ms_per_record": "ms" for a in ALGORITHMS},
    "attack.mlp_train_s": "s", "attack.forest_train_s": "s",
    "attack.calibrate_s": "s", "attack.score_s": "s",
    "forest.s_per_tree": "s", "forest.score_s": "s",
    "metrics.pr_curve_s": "s",
    "pipeline.prepare_calls": "count", "pipeline.prepare_s": "s",
    "pipeline.explain_stage_calls": "count", "pipeline.explain_stage_s": "s",
    "pipeline.attack_stage_s": "s", "pipeline.audit_s": "s",
    "pipeline.emit_s": "s", "pipeline.self_s": "s",
    "pipeline.output_paths_collided": "count",
    "service.server_explain_ms": "ms", "service.server_predict_ms": "ms",
    "service.wire_ms_per_record": "ms", "service.requests_per_record": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS if layer != "pipeline"},
    "bench.tracing_overhead_s": "s",
}

# pipeline stages whose share of wall_s the traced run states
STAGES = {"prepare": "pipeline.prepare",
          "explain": "pipeline.compute_explanations",
          "attack": "pipeline.run_attacks",
          "audit": "pipeline.correlation_audit",
          "emit": "pipeline.emit_report"}


class SpanIndex:
    """Spans of one process with their ancestor names and self times."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.self_s = self_times(spans)
        self.ancestors: list[frozenset] = []
        for s in spans:
            # a parent always begins, and so is recorded, before its children
            if s.parent is None:
                self.ancestors.append(frozenset())
            else:
                p = spans[s.parent]
                self.ancestors.append(self.ancestors[s.parent] | {p.name})

    def select(self, names, under=None, not_under=None, outermost=True):
        """Spans named in `names`; `outermost` drops those nested in another
        span of `names`."""
        names = {names} if isinstance(names, str) else set(names)
        out = []
        for s, anc in zip(self.spans, self.ancestors):
            if s.name not in names:
                continue
            if outermost and anc & names:
                continue
            if under is not None and not anc & under:
                continue
            if not_under is not None and anc & not_under:
                continue
            out.append(s)
        return out

    def busy(self, names, **kw) -> float:
        return sum(s.duration for s in self.select(names, **kw))

    def layer_self(self, layer: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_s) if s.layer == layer)

    def roots_add_up(self, tolerance: float = 1e-6) -> tuple[int, int]:
        """(roots checked, roots whose subtree self times sum to the root's
        duration)."""
        total = [0.0] * len(self.spans)
        root_of = []
        for i, s in enumerate(self.spans):
            root_of.append(i if s.parent is None else root_of[s.parent])
            total[root_of[i]] += self.self_s[i]
        roots = [i for i, s in enumerate(self.spans) if s.parent is None]
        good = sum(abs(total[i] - self.spans[i].duration)
                   <= tolerance * max(1.0, self.spans[i].duration) for i in roots)
        return len(roots), good


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _explain_calls(idx: SpanIndex) -> list[Span]:
    """Outermost calls into the explain layer that explain records."""
    names = {s.name for s in idx.spans if s.layer == "explain"}
    return [s for s in idx.select(names) if s.attrs.get("rows")]


def compute(client: list[Span], server: list[Span] | None = None,
            bulk: dict | None = None) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    `client` holds the spans of the process that ran the program (or the
    adversary's client), `server` those of the service process, and `bulk`
    the wire workload's bulk fetch: its window, client seconds and records.
    """
    m = {name: 0.0 for name in METRICS}
    both = (SpanIndex(client), SpanIndex(server or []))

    def sel(names, **kw):
        return [x for idx in both for x in idx.select(names, **kw)]

    def busy(names, **kw):
        return sum(x.duration for x in sel(names, **kw))

    loads = sel("data.load_csv")
    m["data.load_s"] = sum(x.duration for x in loads)
    m["data.rows"] = sum(x.attrs.get("rows", 0) for x in loads)
    m["data.encode_s"] = busy({"data.encode", "data.fit_encoding"})

    attack_ctx = {"attack.train_attack"}
    target = sel("nn.train", not_under=attack_ctx)
    attack = sel("nn.train", under=attack_ctx)
    m["nn.target_train_s"] = sum(x.duration for x in target)
    m["nn.target_trainings"] = len(target)
    m["nn.target_epoch_s"] = _ratio(m["nn.target_train_s"],
                                    sum(x.attrs.get("epochs", 0) for x in target))
    m["nn.attack_epoch_s"] = _ratio(sum(x.duration for x in attack),
                                    sum(x.attrs.get("epochs", 0) for x in attack))

    records = 0
    for a in ALGORITHMS:
        calls = [x for idx in both for x in _explain_calls(idx)
                 if (x.attrs.get("algorithm") or x.name.split(".", 1)[1]) == a]
        n = sum(x.attrs["rows"] for x in calls)
        m[f"explain.{a}_ms_per_record"] = 1000.0 * _ratio(
            sum(x.duration for x in calls), n)
        records += n
    m["nn.forward_calls_per_record"] = _ratio(
        len(sel(FORWARD, under=EXPLAIN_CONTEXT)), records)
    grads = sel("nn.input_gradient_batch")
    m["nn.grad_rows_per_call"] = _ratio(
        sum(x.attrs.get("rows", 0) for x in grads), len(grads))

    for kind in ("mlp", "forest"):
        m[f"attack.{kind}_train_s"] = sum(
            x.duration for x in sel("attack.train_attack")
            if x.attrs.get("kind") == kind)
    m["attack.calibrate_s"] = busy({"attack.calibrate", "attack.calibrate_scores"})
    m["attack.score_s"] = busy("attack.score", not_under={"attack.calibrate"})
    fits = sel("forest.fit_forest")
    m["forest.s_per_tree"] = _ratio(sum(x.duration for x in fits),
                                    sum(x.attrs.get("n_trees", 0) for x in fits))
    m["forest.score_s"] = busy("forest.forest_scores")
    m["metrics.pr_curve_s"] = busy("metrics.pr_curve")

    m["pipeline.prepare_calls"] = len(sel("pipeline.prepare"))
    m["pipeline.prepare_s"] = busy("pipeline.prepare")
    m["pipeline.explain_stage_calls"] = len(sel("pipeline.compute_explanations"))
    m["pipeline.explain_stage_s"] = busy("pipeline.compute_explanations")
    m["pipeline.attack_stage_s"] = busy("pipeline.run_attacks")
    m["pipeline.audit_s"] = busy("pipeline.correlation_audit")
    m["pipeline.emit_s"] = busy("pipeline.emit_report")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(idx.layer_self(layer) for idx in both)

    for endpoint in ("explain", "predict"):
        calls = sel(f"service.endpoint_{endpoint}")
        m[f"service.server_{endpoint}_ms"] = 1000.0 * _ratio(
            sum(x.duration for x in calls), sum(x.attrs.get("rows", 1) for x in calls))
    if bulk:
        lo, hi = bulk["window"]
        served = [x for x in sel({"service.endpoint_explain",
                                  "service.endpoint_predict"})
                  if lo <= x.start <= hi]
        m["service.wire_ms_per_record"] = 1000.0 * _ratio(
            bulk["seconds"] - sum(x.duration for x in served), bulk["fetches"])
        requests = [x for x in sel("service.http_request") if lo <= x.start <= hi]
        m["service.requests_per_record"] = _ratio(len(requests), bulk["fetches"])
    return m


def stage_split(client: list[Span], root: str = "bench.rep") -> dict[str, float]:
    """Share of the traced repetition spent in each pipeline stage and in
    target training."""
    idx = SpanIndex(client)
    wall = idx.busy(root)
    split = {stage: _ratio(idx.busy(name), wall) for stage, name in STAGES.items()}
    split["target_training"] = _ratio(
        idx.busy("nn.train", not_under={"attack.train_attack"}), wall)
    return split


def layer_split(client: list[Span], server: list[Span] | None = None) -> dict[str, float]:
    """Self seconds per layer; the benchmark's own spans count as `bench`."""
    out = {}
    for idx in (SpanIndex(client), SpanIndex(server or [])):
        for span, t in zip(idx.spans, idx.self_s):
            out[span.layer] = out.get(span.layer, 0.0) + t
    return out
