"""Command-line entry points.

Subcommands:
    train       builder stages only; saves each target model and baseline
    explain     compute and dump explanations for the aux and eval splits
    audit       correlation audit (sensitive attribute vs observables)
    serve       expose the target model through the blackbox HTTP API
    experiment  full matrix run: attacks + audit + report emission

Within one invocation each distinct target is prepared, and each distinct
explanation set computed, once (pipeline.run_cells). train prepares, and
explain and audit walk, only the first cell of each target or explanation
set (pipeline.first_cells), so each file and audit row is written once;
experiment writes one report for the whole matrix. train and serve build
the target in process and refuse a remote transport; with one, the other
subcommands train nothing and query the service.

Every subcommand reads a JSON experiment config through pipeline.load_config,
with common flags that override its output_dir, transport and seeds, so its
faults are stage config as in the library. A view names its files (by
pipeline.file_tag) and builds them and its stdout lines; pipeline.emit writes
and prints them, for train once per target, for explain once per explanation
set, and for audit and experiment once. Exit code 0 on success;
on any failure 2, with one line `error [stage=<name>] <message>` on stderr
that names the failed stage (pipeline._stage); a failed write is stage emit.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys

from . import pipeline
from .pipeline import ExperimentConfig, PipelineError


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("config", help="path to the experiment config JSON")
    parser.add_argument("--out-dir", dest="output_dir", help="override output_dir")
    parser.add_argument("--transport",
                        help="'in_process' or the base URL of a running service")
    for seed in pipeline.SEEDS:
        parser.add_argument("--" + seed.replace("_", "-"), type=int)


def _load_cells(args) -> list[ExperimentConfig]:
    return pipeline.load_config(args.config, **{key: getattr(args, key) for key in (
        "output_dir", "transport", *pipeline.SEEDS)})


def _in_process_cells(args) -> list[ExperimentConfig]:
    """The cells of train or serve, which build the target in this process."""
    cells = _load_cells(args)
    if any(cfg.transport != pipeline.IN_PROCESS for cfg in cells):
        raise PipelineError("config", f"{args.command} builds the target in process "
                            f"and takes no remote transport")
    return cells


def _cmd_train(args) -> int:
    for cfg in pipeline.first_cells(_in_process_cells(args), pipeline.PREPARE_KEY):
        prep = pipeline.prepare(cfg)
        tag = pipeline.file_tag(cfg, pipeline.PREPARE_KEY)
        pipeline.emit(cfg.output_dir,
                      {f"target-{tag}.npz": prep.model, f"baseline-{tag}.csv": [prep.baseline]},
                      [f"{cfg.dataset_name} {cfg.tm.value}: "
                       f"test accuracy {prep.test_accuracy:.4f}; "
                       f"model -> {os.path.join(cfg.output_dir, f'target-{tag}.npz')}"])
    return 0


def _cmd_explain(args) -> int:
    key = pipeline.PREPARE_KEY + pipeline.EXPLAIN_KEY
    for prep, explanations in pipeline.run_cells(pipeline.first_cells(_load_cells(args), key)):
        cfg, n_aux = prep.cfg, prep.splits.n_aux
        labels = (explanations.algorithm.value, explanations.target.value)
        files, lines = {}, []
        for split, part, ds in (("aux", explanations[:n_aux], prep.splits.aux),
                                ("eval", explanations[n_aux:], prep.splits.eval)):
            name = f"explanations-{pipeline.file_tag(cfg, key)}-{split}.csv"
            files[name] = itertools.chain(
                [["record_id", "algorithm", "target", "delta",
                  *(f"score_{i}" for i in range(ds.n_columns))]],
                ([rid, *labels, delta, *scores]
                 for rid, delta, scores in zip(ds.row_ids, part.delta, part.scores)))
            lines.append(f"{len(part)} {split} explanations -> "
                         f"{os.path.join(cfg.output_dir, name)}")
        pipeline.emit(cfg.output_dir, files, lines)
    return 0


def _cmd_audit(args) -> int:
    cells = _load_cells(args)
    sets = pipeline.first_cells(cells, pipeline.PREPARE_KEY + pipeline.EXPLAIN_KEY)
    rows = [row for prep, explanations in pipeline.run_cells(sets)
            for row in pipeline.correlation_audit(prep, explanations)]
    directory = cells[0].output_dir
    files = {"correlations.csv": pipeline.rows_of(pipeline.CORRELATION_COLUMNS, rows)}
    pipeline.emit(directory, files, [
        *(f"{row.threat_model} {row.explainer} s~{row.group}: "
          f"{row.mean_r:+.3f} +/- {row.std_r:.3f} over {row.n_columns} columns"
          for row in rows),
        f"audit -> {os.path.join(directory, 'correlations.csv')}"])
    return 0


def _cmd_serve(args) -> int:
    cells = _in_process_cells(args)
    if len(cells) != 1:
        raise PipelineError("config", f"serve needs a config describing exactly one "
                            f"cell, got {len(cells)}")
    cfg = cells[0]
    from . import service  # only serve loads the server and the HTTP stack here
    with pipeline._stage("serve", f"cannot listen on {args.host}:{args.port}: "):
        server = service.Server(args.host, args.port)  # bound before training
    with server, pipeline._stage("serve"):  # the server, and its connections, close on exit
        prep = pipeline.prepare(cfg)
        server.load(prep.model, prep.baseline, cfg.explainer_config, cfg.scalar_target)
        print(f"serving {cfg.dataset_name} ({cfg.tm.value}) on {server.url}", flush=True)
        with contextlib.suppress(KeyboardInterrupt):
            server.serve_forever(service.POLL_SECONDS)
    return 0


def _cmd_experiment(args) -> int:
    cells = _load_cells(args)
    pipeline.emit_report(pipeline.run_matrix(cells), cells[0].output_dir)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="explinfer",
        description="attribute inference attacks against model explanations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train the target model")
    _add_common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("explain", help="dump explanations for aux/eval records")
    _add_common(p)
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("audit", help="correlation audit of s vs observables")
    _add_common(p)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("serve", help="serve predict/explain over HTTP")
    _add_common(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("experiment", help="full experiment matrix")
    _add_common(p)
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PipelineError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 2
