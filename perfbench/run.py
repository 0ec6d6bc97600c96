"""The explinfer benchmark: one workload per call.

    python3 perfbench/run.py --workload {census,matrix,wire} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
`src/`. The seed drives the census-shaped CSV and the experiment seeds.
The command prints every metric by name and unit with its sample count,
then the outcome of each correctness check, the report digests and the
environment, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured untraced.
With --trace 1 the same untraced measurement runs first, then one traced
repetition gives the per-layer metrics; the spans, the per-layer table and
the result go to perfbench/work/<workload>-seed<N>-trace<T>/.

End-to-end metrics (every workload):
  setup_s      median over 3 set-ups of: writing the inputs and configs in
               a fresh process that imports the package; for wire, starting
               the service process (imports, inputs, target training) until
               /v1/health answers.
  wall_s       median over repetitions of a whole experiment into a fresh
               output directory, report emission included; for wire, of the
               bulk fetch.
  peak_rss_mb  peak resident memory of the process running the program (the
               service process for wire).
  explain_p50_ms, predict_p50_ms
               single-record GradientSHAP explanations and predictions: over
               HTTP for wire (at least 2,000 each); in process on the
               experiment's target for census and matrix (at least 1,000
               each), through the same public functions the service calls.
Repetitions (bulk fetches for wire) alternate with windows of single-record
calls until --seconds have passed and both have their minimum sample, so
each metric samples the whole run. The p99 latencies are printed with their
sample counts; error_rate (failed over attempted operations and checks) is
printed, and the JSON line carries it as `failed` and `attempted`.
"""

from __future__ import annotations

import os
import sys

# pinned here, before numpy loads, and inherited by every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
REFERENCE = os.path.join(HERE, "reference.json")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "explain_p50_ms": "ms", "predict_p50_ms": "ms"}
# printed with their sample counts, not in the result line: on a shared
# 2-vCPU VM their run-to-run spread (0.15-0.4 of the median) exceeds any
# bound the benchmark may set
PRINTED_ONLY = {"explain_p99_ms": "ms", "predict_p99_ms": "ms"}
SETUPS = 3
# census and matrix: at least this many in-process single-record calls, in
# chunks of PROBE_CHUNK_S seconds after each repetition
PROBE_REQUESTS = 1000
PROBE_CHUNK_S = 4.0
# wire: at least this many single requests per endpoint (p99 then has 20
# samples beyond it), in windows of SINGLES_WINDOW_S seconds after each bulk
MIN_WIRE_REQUESTS = 2000
SINGLES_WINDOW_S = 5.0
MAX_FAILURES = 10  # failed single requests after which the service is given up
TRACED_SINGLES = 200
# acceptance criterion 3: DeepLift |delta| <= 1e-9; IG |delta| within 1e-2
# of max(1, |f(x) - f(b)|) (reported: on census-size targets IG misses that
# bound for more than 5% of records on some seeds, even at 200 steps)
CHECK_RECORDS = 100
DEEPLIFT_DELTA = 1e-9
IG_RELATIVE = 1e-2
IG_DEFINITION = 1e-9  # relative distance of IG from its defining sum
WIRE_TOLERANCE = 1e-6  # acceptance criterion 10


class Outcome:
    """Metrics, operations and checks of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, tuple[float, str, int]] = {}
        self.checks: list[tuple[str, bool, str]] = []
        self.info: dict = {}

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))
        self.op(ok)

    def metric(self, name: str, value: float, samples: int) -> None:
        unit = END_TO_END.get(name) or PRINTED_ONLY[name]
        self.metrics[name] = (float(value), unit, samples)


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, int(-(-q * len(ordered) // 100)) - 1))
    return ordered[k]


def _number(text) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        return float("nan")


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


# --- set-up -----------------------------------------------------------------

def setup_inputs(workload: str, seed: int, work: str, out: Outcome) -> list[str]:
    """Write the inputs SETUPS times, each in a fresh process; returns the
    config paths of the last set-up."""
    times, digests = [], []
    for k in range(SETUPS):
        directory = os.path.join(work, f"setup-{k}")
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run([sys.executable, os.path.join(HERE, "workloads.py"),
                        workload, directory, str(seed)],
                       env=_child_env(), check=True)
        times.append(time.perf_counter() - t0)
        digests.append(_sha256(os.path.join(directory, "census.csv")))
    out.metric("setup_s", _median(times), len(times))
    out.check("inputs.same_seed_same_bytes", len(set(digests)) == 1,
              f"census.csv sha256 {digests[-1][:16]}")
    out.info["inputs_sha256"] = digests[-1]
    return sorted(glob.glob(os.path.join(directory, "config-*.json")))


# --- census and matrix --------------------------------------------------------

def run_experiment(cli, config_paths: list[str], rep_dir: str) -> tuple[float, bool]:
    """One experiment through the CLI into a fresh directory; returns
    (seconds, every invocation succeeded)."""
    ok, seconds = True, 0.0
    for i, path in enumerate(config_paths):
        argv = ["experiment", path, "--out-dir", os.path.join(rep_dir, f"cell-{i}")]
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception:  # the run goes on; the failure is counted
            traceback.print_exc()
            code = -1
        seconds += time.perf_counter() - t0
        ok = ok and code == 0
    return seconds, ok


def check_report(rep_dir: str, n_cells: int, expected_rows: int, out: Outcome) -> dict:
    """Correctness of one repetition's report files; returns their digests
    and the count of rows whose output paths collide."""
    rep = os.path.basename(rep_dir)
    rows, digests, collided = [], {}, 0
    for i in range(n_cells):
        cell = os.path.join(rep_dir, f"cell-{i}")
        report, summary_path = (os.path.join(cell, "report.csv"),
                                os.path.join(cell, "summary.json"))
        try:
            with open(report, encoding="utf-8") as fh:
                cell_rows = list(csv.DictReader(fh))
            with open(summary_path, encoding="utf-8") as fh:
                summary = json.load(fh)
        except (OSError, ValueError):
            continue
        rows.extend(cell_rows)
        digests[f"cell-{i}/report.csv"] = _sha256(report)
        digests[f"cell-{i}/summary.json"] = _sha256(summary_path)
        files = summary.get("files", {})
        listed = files.get("curves", []) + files.get("predictions", [])
        present = (len(summary.get("rows", [])) == len(cell_rows)
                   and all(os.path.isfile(os.path.join(cell, f)) for f in listed)
                   and all(os.path.isfile(os.path.join(cell, f))
                           for f in ("correlations.csv", "manifest.json")))
        out.check(f"{rep}.files.cell-{i}", present,
                  f"{len(listed)} curve/prediction files")
        collided += len(cell_rows) - len(set(files.get("curves", [])))
    for k in range(expected_rows):
        out.op(k < len(rows))
    out.check(f"{rep}.report.rows_present", len(rows) == expected_rows,
              f"{len(rows)} of {expected_rows}")
    bad = [r for r in rows for c in ("precision", "recall", "f1")
           if not 0.0 <= _number(r.get(c)) <= 1.0]
    out.check(f"{rep}.report.prf_in_unit_interval", bool(rows) and not bad,
              f"{3 * len(rows)} values, {len(bad)} outside [0, 1]")
    return {"digests": digests, "collided": collided, "rows": rows}


def check_explanations(prep, out: Outcome) -> None:
    """Completeness on the workload's own target: DeepLift within acceptance
    criterion 3's 1e-9; IG equal to its definition (the midpoint sum of
    input gradients times x - b), with the share of records inside
    criterion 3's IG bound reported."""
    import numpy as np
    from explinfer import explain, nn

    X = np.vstack([prep.splits.aux.features, prep.splits.eval.features])[:CHECK_RECORDS]
    ids = list(range(X.shape[0]))
    model, base, cfg = prep.model, prep.baseline, prep.cfg.explainer_config
    logit = nn.ScalarTarget.LOGIT
    dl = explain.explain_batch(model, X, base, explain.Algorithm.DEEPLIFT, cfg, logit, ids)
    dl_worst = max(abs(a.delta) for a in dl)
    out.check("completeness.deeplift", dl_worst <= DEEPLIFT_DELTA,
              f"max |delta| {dl_worst:.3g} over {len(dl)} records")

    ig = explain.explain_batch(model, X, base, explain.Algorithm.INTEGRATED_GRADIENTS,
                               cfg, logit, ids)
    alphas = (np.arange(cfg.ig_steps) + 0.5) / cfg.ig_steps
    f_base = nn.forward(model, base, logit)
    worst, within, deltas = 0.0, 0, []
    for x, a in zip(X, ig):
        path = base[None, :] + alphas[:, None] * (x - base)[None, :]
        ref = nn.input_gradient_batch(model, path, logit).mean(axis=0) * (x - base)
        gap = nn.forward(model, x, logit) - f_base
        ref_delta = gap - float(np.sum(ref))
        scale = max(1.0, float(np.max(np.abs(ref))), abs(gap))
        worst = max(worst, float(np.max(np.abs(a.scores - ref))) / scale,
                    abs(a.delta - ref_delta) / scale)
        within += abs(a.delta) <= IG_RELATIVE * max(1.0, abs(gap))
        deltas.append(abs(a.delta))
    out.check("integrated_gradients.matches_definition", worst <= IG_DEFINITION,
              f"max relative difference {worst:.3g} over {len(ig)} records")
    out.info["integrated_gradients_delta"] = {
        "steps": cfg.ig_steps,
        "abs_delta_p50_p90_max": [float(np.percentile(deltas, q)) for q in (50, 90, 100)],
        "share_within_criterion_3_bound": within / len(ig)}


def probe_latency(prep, seconds: float, explain_ms: list, predict_ms: list,
                  out: Outcome) -> None:
    """Single-record explanations and predictions in process for `seconds`."""
    import numpy as np
    from explinfer import explain, nn

    X = np.vstack([prep.splits.aux.features, prep.splits.eval.features])
    ids = np.concatenate([prep.splits.aux.row_ids, prep.splits.eval.row_ids])
    cfg = prep.cfg
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        j = len(explain_ms) % X.shape[0]
        t0 = time.perf_counter()
        a = explain.explain_batch(prep.model, X[j:j + 1], prep.baseline,
                                  explain.Algorithm.GRADIENT_SHAP,
                                  cfg.explainer_config, cfg.scalar_target,
                                  record_ids=[int(ids[j])])
        t1 = time.perf_counter()
        p = nn.forward_batch(prep.model, X[j:j + 1], nn.ScalarTarget.PROBABILITY)
        t2 = time.perf_counter()
        explain_ms.append(1000.0 * (t1 - t0))
        predict_ms.append(1000.0 * (t2 - t1))
        out.op(len(a) == 1 and bool(np.all(np.isfinite(a[0].scores))))
        out.op(p.shape == (1,) and 0.0 <= float(p[0]) <= 1.0)


def _latency_metrics(explain_ms, predict_ms, out: Outcome) -> None:
    for name, sample in (("explain", explain_ms), ("predict", predict_ms)):
        out.metric(f"{name}_p50_ms", _percentile(sample, 50), len(sample))
        out.metric(f"{name}_p99_ms", _percentile(sample, 99), len(sample))


def run_experiment_workload(args, work: str, out: Outcome, tracer) -> dict:
    from explinfer import cli, pipeline

    configs = setup_inputs(args.workload, args.seed, work, out)
    n_rows = 2 if args.workload == "census" else 16
    captured = []
    original_prepare = pipeline.prepare

    def capture(cfg):  # keeps the first target of the run for the probes
        prep = original_prepare(cfg)
        if not captured:
            captured.append(prep)
        return prep

    # repetitions alternate with chunks of probe requests until --seconds
    # is used and the probe has its sample, so both span the whole run
    walls, reports, explain_ms, predict_ms = [], [], [], []
    start = time.perf_counter()
    while (not walls or time.perf_counter() - start < args.seconds
           or (captured and len(explain_ms) < PROBE_REQUESTS)):
        rep_dir = os.path.join(work, f"rep-{len(walls)}")
        pipeline.prepare = capture
        try:
            seconds, ok = run_experiment(cli, configs, rep_dir)
        finally:
            pipeline.prepare = original_prepare
        walls.append(seconds)
        out.check(f"rep-{len(walls) - 1}.exit_status", ok)
        reports.append(check_report(rep_dir, len(configs), n_rows, out))
        if captured:
            probe_latency(captured[0], PROBE_CHUNK_S, explain_ms, predict_ms, out)
    out.metric("wall_s", _median(walls), len(walls))
    out.metric("peak_rss_mb",
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
    out.info["repetitions_s"] = walls

    digests = reports[-1]["digests"]
    out.check("reports.byte_identical_across_repetitions",
              all(r["digests"] == digests for r in reports),
              f"{len(reports)} repetitions")
    out.info["digests"] = digests
    out.info["output_paths_collided"] = reports[-1]["collided"]
    out.info["f1_vs_all_positive_baseline"] = [
        (r["surface"], float(r["f1"]), float(r["baseline_f1"]))
        for r in reports[-1]["rows"]]

    if captured:
        _latency_metrics(explain_ms, predict_ms, out)
        check_explanations(captured[0], out)
    else:
        out.check("probe.target_available", False, "no prepared target captured")
        _latency_metrics([0.0], [0.0], out)

    if not args.trace:
        return {}
    rep_dir = os.path.join(work, "rep-traced")
    tracer.instrument()
    try:
        with tracer.span("bench.rep"):
            seconds, ok = run_experiment(cli, configs, rep_dir)
    finally:
        tracer.restore()
    out.check("rep-traced.exit_status", ok)
    traced = check_report(rep_dir, len(configs), n_rows, out)
    out.check("reports.traced_equals_untraced", traced["digests"] == digests)
    return {"client": tracer.spans, "server": None, "bulk": None,
            "overhead": seconds - _median(walls), "wall": seconds,
            "collided": traced["collided"]}


# --- wire --------------------------------------------------------------------

class ServiceProcess:
    """The benchmark's service launcher running in a child process."""

    def __init__(self, directory: str, seed: int, traced: bool):
        self.directory = directory
        cmd = [sys.executable, os.path.join(HERE, "server.py"), directory, str(seed)]
        if traced:
            cmd.append("--trace")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     env=_child_env())
        self.url = None

    def wait_ready(self, service, timeout: float = 120.0) -> None:
        self.url = self.proc.stdout.readline().strip()
        if not self.url.startswith("http://"):
            raise RuntimeError("service process did not report its URL")
        deadline = time.monotonic() + timeout
        while not service.fetch_health(self.url, max_retries=1, timeout=5.0):
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("service did not become healthy")
            time.sleep(0.005)

    def stop(self) -> dict:
        """Stop the service and wait for it; returns its resource report."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        try:
            with open(os.path.join(self.directory, "server.json"), encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return {}


def _fetch_bulk(service, url, X, ids, algorithm):
    t0 = time.perf_counter()
    attrs = service.client_fetch_explanations(url, X, algorithm, record_ids=ids)
    preds = service.client_fetch_predictions(url, X)
    t1 = time.perf_counter()
    return attrs, preds, (t0, t1)


def _singles(service, url, X, ids, algorithm, attrs, preds, seconds: float,
             minimum: int, explain_ms: list, predict_ms: list, out: Outcome) -> None:
    """Closed-loop single-record explanations and predictions for `seconds`
    and at least `minimum` of each; each answer must equal the bulk answer
    for the same record."""
    import numpy as np

    deadline = time.perf_counter() + seconds
    start, failures = len(explain_ms), 0
    while len(explain_ms) - start < minimum or time.perf_counter() < deadline:
        j = len(explain_ms) % X.shape[0]
        try:
            t0 = time.perf_counter()
            a = service.client_fetch_explanations(url, X[j:j + 1], algorithm,
                                                  record_ids=[ids[j]])[0]
            t1 = time.perf_counter()
            p = service.client_fetch_predictions(url, X[j:j + 1])[0]
            t2 = time.perf_counter()
        except service.ServiceError:
            out.op(False)
            failures += 1
            if failures > MAX_FAILURES:
                return False
            continue
        explain_ms.append(1000.0 * (t1 - t0))
        predict_ms.append(1000.0 * (t2 - t1))
        out.op(bool(np.array_equal(a.scores, attrs[j].scores)) and a.delta == attrs[j].delta)
        out.op(p == preds[j])
    return True


def _compare_local(directory: str, X, ids, attrs, preds, cfg, out: Outcome) -> None:
    """Acceptance criterion 10 on the fetched records: remote equals in
    process within 1e-6; bit-identity is reported."""
    import numpy as np
    from explinfer import explain, nn

    model = nn.load_model(os.path.join(directory, "target.npz"))
    baseline = np.load(os.path.join(directory, "records.npz"))["baseline"]
    local = explain.explain_batch(model, X, baseline, cfg.algorithm,
                                  cfg.explainer_config, cfg.scalar_target,
                                  record_ids=ids)
    remote_v = np.array([np.append(a.scores, a.delta) for a in attrs])
    local_v = np.array([np.append(a.scores, a.delta) for a in local])
    diff = float(np.max(np.abs(remote_v - local_v)))
    same = int(np.sum(np.all(remote_v == local_v, axis=1)))
    out.check("wire.explanations_match_in_process", diff <= WIRE_TOLERANCE,
              f"max |diff| {diff:.3g}; {same}/{len(attrs)} records bit-identical")
    local_p = nn.forward_batch(model, X, nn.ScalarTarget.PROBABILITY)
    pdiff = float(np.max(np.abs(local_p - preds)))
    psame = int(np.sum(local_p == preds))
    out.check("wire.predictions_match_in_process", pdiff <= WIRE_TOLERANCE,
              f"max |diff| {pdiff:.3g}; {psame}/{len(preds)} bit-identical")
    out.info["wire_bit_identical"] = {"explanations": same, "predictions": psame,
                                      "records": len(attrs)}


def _wire_digest(attrs, preds) -> str:
    import numpy as np

    h = hashlib.sha256()
    for a in attrs:
        h.update(np.asarray(a.scores, dtype=np.float64).tobytes())
        h.update(np.float64(a.delta).tobytes())
    h.update(np.asarray(preds, dtype=np.float64).tobytes())
    return h.hexdigest()


def run_wire(args, work: str, out: Outcome, tracer) -> dict:
    import numpy as np
    from explinfer import pipeline, service

    servers: list[ServiceProcess] = []
    try:
        times, digests = [], []
        for k in range(SETUPS):
            t0 = time.perf_counter()
            srv = ServiceProcess(os.path.join(work, f"setup-{k}"), args.seed, False)
            servers.append(srv)
            srv.wait_ready(service)
            times.append(time.perf_counter() - t0)
            digests.append(_sha256(os.path.join(srv.directory, "census.csv")))
            if k < SETUPS - 1:
                srv.stop()
        out.metric("setup_s", _median(times), len(times))
        out.check("inputs.same_seed_same_bytes", len(set(digests)) == 1,
                  f"census.csv sha256 {digests[-1][:16]}")
        out.info["inputs_sha256"] = digests[-1]

        srv = servers[-1]
        cfg = pipeline.load_config(os.path.join(srv.directory, "config-0.json"))[0]
        records = np.load(os.path.join(srv.directory, "records.npz"))
        X, ids = records["features"], [int(r) for r in records["row_ids"]]
        # bulk fetches alternate with windows of single requests until
        # --seconds is used and the singles have their sample
        walls, explain_ms, predict_ms, fetch_digests = [], [], [], []
        start = time.perf_counter()
        while (not walls or time.perf_counter() - start < args.seconds
               or len(explain_ms) < MIN_WIRE_REQUESTS):
            try:
                attrs, preds, window = _fetch_bulk(service, srv.url, X, ids,
                                                   cfg.algorithm)
            except service.ServiceError as exc:
                print(f"bulk fetch failed: {exc}", file=sys.stderr)
                for _ in range(2 * len(ids)):
                    out.op(False)
                break
            for _ in range(2 * len(ids)):
                out.op(True)
            walls.append(window[1] - window[0])
            fetch_digests.append(_wire_digest(attrs, preds))
            if not _singles(service, srv.url, X, ids, cfg.algorithm, attrs, preds,
                            SINGLES_WINDOW_S, 1, explain_ms, predict_ms, out):
                break
        out.metric("wall_s", _median(walls), len(walls))
        _latency_metrics(explain_ms or [0.0], predict_ms or [0.0], out)
        out.info["repetitions_s"] = walls
        report = srv.stop()
        out.metric("peak_rss_mb", report.get("peak_rss_mb", 0.0), 1)
        out.info["server_cpu_s"] = report.get("cpu_s")
        out.check("wire.service_stopped_cleanly",
                  srv.proc.returncode == 0 and bool(report))
        if walls:
            out.check("wire.bulk_identical_across_rounds", len(set(fetch_digests)) == 1,
                      f"{len(walls)} bulk fetches")
            _compare_local(srv.directory, X, ids, attrs, preds, cfg, out)
            out.info["digests"] = {"bulk_fetch": fetch_digests[-1]}

        if not args.trace:
            return {}
        srv = ServiceProcess(os.path.join(work, "setup-traced"), args.seed, True)
        servers.append(srv)
        srv.wait_ready(service)
        import http.client
        tracer.instrument()
        tracer.wrap_method(http.client.HTTPConnection, "request", "service.http_request")
        try:
            with tracer.span("bench.rep"):
                t_attrs, t_preds, t_window = _fetch_bulk(service, srv.url, X, ids,
                                                         cfg.algorithm)
            with tracer.span("bench.singles"):
                _singles(service, srv.url, X, ids, cfg.algorithm, t_attrs, t_preds,
                         0.0, TRACED_SINGLES, [], [], out)
        finally:
            tracer.restore()
        srv.stop()
        out.check("wire.traced_equals_untraced",
                  _wire_digest(t_attrs, t_preds) == out.info.get("digests", {}).get("bulk_fetch"))
        from spans import load_spans
        seconds = t_window[1] - t_window[0]
        return {"client": tracer.spans,
                "server": load_spans(os.path.join(srv.directory, "server-spans.json")),
                "bulk": {"window": t_window, "seconds": seconds, "fetches": 2 * len(ids)},
                "overhead": seconds - _median(walls), "wall": seconds,
                "collided": 0}
    finally:
        for srv in servers:
            srv.stop()


# --- reporting ---------------------------------------------------------------

def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        top, sha = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, timeout=10).stdout.split() or ("", "")
    except (OSError, subprocess.SubprocessError, ValueError):
        top, sha = "", ""
    if os.path.realpath(top) != os.path.realpath(ROOT):
        sha = ""
    loc = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "explinfer")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    loc += sum(1 for _ in fh)
    self_usage = resource.getrusage(resource.RUSAGE_SELF)
    child_usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "git_sha": sha or "unavailable (not a git checkout)",
        "cpu_s": {"benchmark": self_usage.ru_utime + self_usage.ru_stime,
                  "children": child_usage.ru_utime + child_usage.ru_stime},
        "src_loc": loc,
    }


def _cpu_model() -> str:
    """CPU model and the vector extensions that pick OpenBLAS's kernels."""
    model, flags = "?", set()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    model = value.strip()
                elif key.strip() == "flags":
                    flags = set(value.split())
                    break
    except OSError:
        pass
    simd = [f for f in ("avx2", "fma", "avx512f", "avx512_bf16", "amx_tile") if f in flags]
    return " ".join([model, *simd])


def numerics_key(env: dict) -> dict:
    """What the report bytes depend on beyond the code and the seed."""
    return {"numpy": env["numpy"], "blas": env["blas"], "cpu": env["cpu"],
            "machine": env["machine"],
            "blas_threads": env["blas_threads"]["OPENBLAS_NUM_THREADS"]}


def compare_reference(args, env: dict, out: Outcome) -> None:
    digests = out.info.get("digests")
    if not digests:
        return
    for name, digest in sorted(digests.items()):
        print(f"digest {args.workload} {name} sha256:{digest}")
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
    except (OSError, ValueError):
        reference = {}
    if args.record_reference:
        reference.setdefault("seed", args.seed)
        reference["numerics"] = numerics_key(env)
        reference.setdefault("digests", {})[args.workload] = digests
        with open(REFERENCE, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"reference digests recorded for {args.workload}, seed {args.seed}")
        return
    expected = reference.get("digests", {}).get(args.workload)
    if args.seed != reference.get("seed") or expected is None:
        print(f"reference digests: none recorded for seed {args.seed}")
    elif reference.get("numerics") != numerics_key(env):
        print("reference digests: recorded under other numerics "
              f"{reference.get('numerics')}; not compared")
    else:
        out.check("reference.byte_identical", expected == digests,
                  f"{sum(expected.get(k) == v for k, v in digests.items())}"
                  f"/{len(digests)} files match the seed-{args.seed} reference")


def trace_report(trace: dict, out: Outcome, work: str) -> dict:
    import layers
    from spans import dump_spans

    client, server = trace["client"], trace["server"] or []
    metrics = layers.compute(client, server, trace["bulk"])
    metrics["pipeline.output_paths_collided"] = trace["collided"]
    metrics["bench.tracing_overhead_s"] = trace["overhead"]
    for name, spans in (("client", client), ("server", server)):
        roots, good = layers.SpanIndex(spans).roots_add_up()
        if roots:
            out.check(f"trace.{name}_self_times_add_up_to_roots", roots == good,
                      f"{good}/{roots} root spans")
    split = layers.layer_split(client, server)
    total = sum(split.values())
    stages = layers.stage_split(client)
    dump_spans(client, os.path.join(work, "spans.json"))
    if server:
        dump_spans(server, os.path.join(work, "server-spans.json"))
    table = {"layers_self_s": split, "stage_share_of_wall": stages,
             "metrics": metrics, "wall_s": trace["wall"]}
    with open(os.path.join(work, "layers.json"), "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
    print("layer split (self time, share of traced time):")
    for layer, sec in sorted(split.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<9} {sec:10.4f} s  {100.0 * sec / total:5.1f}%")
    if any(stages.values()):
        print("pipeline stages (share of traced wall_s): " + ", ".join(
            f"{k} {100.0 * v:.1f}%" for k, v in stages.items()))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["census", "matrix", "wire"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's report digests as the reference")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "explinfer", "__init__.py")):
        print(f"error: no explinfer package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import explinfer
    if not os.path.abspath(explinfer.__file__).startswith(SRC + os.sep):
        print(f"error: explinfer imported from {explinfer.__file__}", file=sys.stderr)
        return 2
    from spans import Tracer

    # One CPU for this process and every process it starts. A request then
    # hands over between client and service without waking an idle CPU; on
    # a 2-vCPU VM that wake-up put most of the run-to-run spread into wire
    # latency (p99 14-28 ms unpinned against 7-10 ms pinned).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out = Outcome()
    tracer = Tracer()
    tracer.run = f"{args.workload}-{args.seed}"
    run = run_wire if args.workload == "wire" else run_experiment_workload
    try:
        trace = run(args, work, out, tracer)
    finally:
        for entry in os.listdir(work):  # keep results, drop bulky inputs
            if entry.startswith(("setup-", "rep-")):
                shutil.rmtree(os.path.join(work, entry), ignore_errors=True)
    env = environment()
    compare_reference(args, env, out)
    per_layer = trace_report(trace, out, work) if args.trace else {}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit, samples) in out.metrics.items():
        print(f"  {name:<15} {value:12.4f} {unit:<3} (n={samples})")
    error_rate = out.failed / out.attempted if out.attempted else 1.0
    print(f"  {'error_rate':<15} {error_rate:12.4f} -   "
          f"({out.failed} failed of {out.attempted} operations and checks)")
    for name, ok, detail in out.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    for key, value in out.info.items():
        if key != "digests":
            print(f"info {key}: {json.dumps(value)}")
    print("environment: " + json.dumps(env, sort_keys=True))

    if args.trace:
        import layers
        metrics = {k: {"value": v, "unit": layers.METRICS[k]} for k, v in per_layer.items()}
    else:
        metrics = {k: {"value": out.metrics[k][0], "unit": u}
                   for k, u in END_TO_END.items()}
    result = {"correct": out.failed == 0 and out.attempted > 0,
              "attempted": out.attempted, "failed": out.failed, "metrics": metrics}
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, checks=out.checks, info=out.info, environment=env),
                  fh, indent=2, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
