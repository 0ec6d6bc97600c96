"""Launcher of the service process for the `wire` workload.

    python3 perfbench/server.py DIR SEED [--trace]

Writes the workload inputs into DIR, trains the target the way `explinfer
serve` does (pipeline.prepare, then service.serve), saves what the
adversary's in-process comparison needs (model, baseline, aux and eval
records) and prints the service URL on stdout. It serves until a line
arrives on stdin (or stdin closes), then writes DIR/server.json with its
peak resident memory and CPU time and, with --trace, DIR/server-spans.json
with spans of every traced call and of each endpoint call.
"""

from __future__ import annotations

import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer, dump_spans  # noqa: E402


def _records_in(body) -> int:
    records = body.get("records") if isinstance(body, dict) else None
    return len(records) if isinstance(records, list) else 1


def main(argv: list[str]) -> int:
    directory, seed, traced = argv[0], int(argv[1]), "--trace" in argv
    from explinfer import nn, pipeline, service

    tracer = Tracer()
    if traced:
        tracer.run = "server"
        tracer.instrument()
        for endpoint in ("explain", "predict"):
            tracer.wrap_method(service._Endpoints, endpoint,
                               f"service.endpoint_{endpoint}",
                               rows=lambda args: _records_in(args[1]))
    cfg_path = workloads.write_inputs("wire", directory, seed)[0]
    cfg = pipeline.load_config(cfg_path)[0]
    prep = pipeline.prepare(cfg)
    nn.save_model(prep.model, os.path.join(directory, "target.npz"))
    np.savez(os.path.join(directory, "records.npz"),
             features=np.vstack([prep.splits.aux.features,
                                 prep.splits.eval.features]),
             row_ids=np.concatenate([prep.splits.aux.row_ids,
                                     prep.splits.eval.row_ids]),
             baseline=prep.baseline)
    server = service.serve(prep.model, prep.baseline, cfg.explainer_config,
                           target=cfg.scalar_target)
    try:
        print(server.url, flush=True)
        sys.stdin.readline()
    finally:
        server.shutdown()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    with open(os.path.join(directory, "server.json"), "w", encoding="utf-8") as fh:
        json.dump({"peak_rss_mb": usage.ru_maxrss / 1024.0,
                   "cpu_s": usage.ru_utime + usage.ru_stime}, fh)
    if traced:
        tracer.restore()
        dump_spans(tracer.spans, os.path.join(directory, "server-spans.json"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
