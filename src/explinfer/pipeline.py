"""End-to-end experiment orchestration.

One experiment cell = (dataset, threat model, explainer, attack kind) plus a
list of attack surfaces. A run executes:

    load/split/encode -> train target -> explain the test records (in
    process or through the blackbox API) into one explain.Explanations ->
    pick each surface's columns and slice them at the aux count -> train the
    attack model on aux -> calibrate the threshold on aux -> infer on eval
    -> metrics, plus the correlation audit

A run of many cells walks one stage graph (run_cells): each distinct target
is prepared, and each distinct explanation set computed, once. It emits one
report: a row per cell and surface, PR-curve files, per-record prediction
dumps and a manifest of every cell's config and of each distinct target's
dataset counts and accuracy, once. Its columns are the str, int and float
fields of AttackCell and CorrelationRow, and file_tag names files by the
MATRIX_FIELDS. Identical config and seeds produce byte-identical report files.

The aux records, then the eval records, are one encoded test set that every
stage reads, and that names the sensitive attribute's column, if any. A remote
run trains no target: the service's predictions for the test set, fetched
once, give the accuracy and the pred_* surfaces. In process forward_batch gives
the accuracy, and run_matrix makes the surfaces' predictions once per target.
Nothing after training reads the training rows, so prepare lets them go, and
a remote run never encodes them: a prepared target is its model, baseline,
test set and counts.

Every stage runs under _stage(name): config, load, split, encode,
train-target, predict, explain, attack, audit, emit and serve. emit() is the
one writer of a run's output files and stdout lines. A failure in a stage
raises as one PipelineError that names it, so a run ends in its result or in
that one named error, never a traceback.

Evaluation hygiene: encoding statistics, the explanation baseline, attack
training and threshold calibration never see an eval-split record.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import attack as attack_mod
from . import data as data_mod
from . import explain as explain_mod
from . import metrics as metrics_mod
from . import nn
from .attack import AttackSurface, ThreatModel
from .explain import Algorithm, ExplainerConfig
from .nn import ScalarTarget, TrainConfig

IN_PROCESS = "in_process"
SEEDS = ("split_seed", "model_seed", "attack_seed", "explainer_seed")
# the config fields a list expands into one cell per value, in expansion order
MATRIX_FIELDS = ("threat_model", "explainer", "attack_kind", *SEEDS)
# ExperimentConfig's fields that set its explainer_config, all but the seed
EXPLAINER_SETTINGS = tuple(f.name for f in dataclasses.fields(ExplainerConfig)
                           if f.name != "seed")


class PipelineError(RuntimeError):
    """A stage of the experiment failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[stage={stage}] {message}")
        self.stage = stage


class _stage:
    """Runs a block as the stage `name`: a failure raises as its PipelineError,
    the message (or else the type name) after `prefix`. RuntimeError covers
    nn.TrainingDivergence and service.ServiceError; a PipelineError passes."""

    def __init__(self, name: str, prefix: str = ""):
        self.name, self.prefix = name, prefix

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        failed = (ArithmeticError, MemoryError, OSError, RuntimeError, ValueError)
        if isinstance(exc, failed) and not isinstance(exc, PipelineError):
            raise PipelineError(self.name, self.prefix + (str(exc) or kind.__name__)) from exc


@dataclass
class ExperimentConfig:
    dataset_csv: str
    schema: str
    threat_model: str = "tm1"
    explainer: str = "integrated_gradients"
    surfaces: list[str] | None = None
    attack_kind: str = "mlp"
    dataset_name: str | None = None

    split_seed: int = 0
    model_seed: int = 1
    attack_seed: int = 2
    explainer_seed: int = 3

    target_hidden: list[int] = field(default_factory=lambda: [1024, 512, 256, 128])
    target_epochs: int = 30
    target_learning_rate: float = 1e-3
    target_batch_size: int = 256

    attack_hidden: list[int] = field(default_factory=lambda: [64, 128, 32])
    attack_epochs: int = 500
    attack_learning_rate: float = 1e-3
    attack_batch_size: int = 256
    forest_trees: int = 100
    forest_depth: int = 150
    forest_min_leaf: int = 1

    ig_steps: int = 50
    shap_samples: int = 20
    shap_stdev: float = 0.1
    smoothgrad_samples: int = 25
    smoothgrad_sigma: float = 0.1
    explanation_target: str = "logit"

    output_dir: str = "out"
    transport: str = IN_PROCESS

    def __post_init__(self):
        # each field once, by its declared type (f.type, the annotation's
        # text): only seeds and noise scales may be 0, an int path would be
        # opened as a file descriptor, and the memo keys and the manifest are
        # the fields' JSON text, so a NumPy integer fails though it is a number
        for f in dataclasses.fields(self):
            name, value = f.name, getattr(self, f.name)
            if f.type in ("int", "float"):
                nn.check_number(name, value, f.type == "int",
                                not name.endswith(("_seed", "_stdev", "_sigma")))
            elif f.type == "list[int]":
                if not isinstance(value, list):
                    raise ValueError(f"{name} must be a list of integers >= 1, got {value!r}")
                for i, v in enumerate(value):
                    nn.check_number(f"{name}[{i}]", v, True, True)
            elif f.type.startswith("str") and not (
                    isinstance(value, str) or (f.type == "str | None" and value is None)):
                raise ValueError(f"{name} must be a string, got {value!r}")
            try:
                json.dumps(value)
            except TypeError:
                raise ValueError(f"{name} must be JSON data, got {value!r}") from None
        self.tm = ThreatModel(self.threat_model)
        self.algorithm = Algorithm(self.explainer)
        self.scalar_target = ScalarTarget(self.explanation_target)
        if self.attack_kind not in ("mlp", "forest"):
            raise ValueError(f"unknown attack_kind {self.attack_kind!r}")
        if self.surfaces is None:
            self.surfaces = [s.value for s in AttackSurface if s.valid_for(self.tm)]
        if not (isinstance(self.surfaces, list) and self.surfaces):
            raise ValueError(f"surfaces must be a nonempty list, got {self.surfaces!r}")
        self.surface_list = [AttackSurface(s) for s in self.surfaces]
        for s in self.surface_list:
            if not s.valid_for(self.tm):
                raise ValueError(
                    f"surface {s.value} is not valid under {self.tm.value}")
        if len(set(self.surfaces)) != len(self.surfaces):
            raise ValueError("surfaces must be unique")
        if self.dataset_name is None:
            self.dataset_name = os.path.splitext(os.path.basename(self.dataset_csv))[0]
        # the name goes unquoted into CSV rows and into output file names
        if any(c and c in self.dataset_name for c in (",", '"', "\r", "\n", os.sep, os.altsep)):
            raise ValueError(f"dataset name {self.dataset_name!r} holds a comma, quote, line "
                             f"break or path separator; set dataset_name to a name without them")
        self.explainer_config = ExplainerConfig(
            seed=self.explainer_seed, **{n: getattr(self, n) for n in EXPLAINER_SETTINGS})


def read_config(path: str) -> dict:
    """The JSON object of a config file."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise PipelineError("config", f"{path} must hold a JSON object, "
                            f"got {type(raw).__name__}")
    return raw


def load_config(path: str) -> list[ExperimentConfig]:
    """Read a config file; list-valued matrix fields expand to one config
    per cell."""
    return expand_matrix(read_config(path))


def expand_matrix(raw: dict) -> list[ExperimentConfig]:
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    cells = [dict(raw)]
    for key in MATRIX_FIELDS:
        if isinstance(raw.get(key), list):
            if not raw[key]:  # it would expand to no cells
                raise ValueError(f"{key} must not be an empty list")
            cells = [dict(c, **{key: v}) for c in cells for v in raw[key]]
    return [ExperimentConfig(**c) for c in cells]


@dataclass
class AttackCell:
    """Results for one (threat model, explainer, surface) attack.

    The matrix fields, seeds included, make every row traceable to the
    configuration that produced it."""

    dataset: str
    threat_model: str
    explainer: str
    surface: str
    attack_kind: str
    tau_star: float
    aux_f1: float
    precision: float
    recall: float
    f1: float
    base_rate: float
    baseline_f1: float
    target_test_accuracy: float
    split_seed: int
    model_seed: int
    attack_seed: int
    explainer_seed: int
    curve: metrics_mod.PrCurve
    eval_record_ids: np.ndarray
    eval_scores: np.ndarray
    eval_predicted: np.ndarray
    eval_truth: np.ndarray


@dataclass
class CorrelationRow:
    dataset: str
    threat_model: str
    explainer: str
    group: str  # y | x | phi_sensitive | phi_non_sensitive
    n_columns: int
    mean_r: float
    std_r: float
    skipped_constant: int
    coefficients: list[float] = field(default_factory=list)


@dataclass
class AttackReport:
    rows: list[AttackCell]
    correlations: list[CorrelationRow]
    manifest: dict


@dataclass
class _Prepared:
    """Builder-side artifacts shared by the CLI stages."""

    cfg: ExperimentConfig
    splits: data_mod.DatasetSplits
    model: nn.MlpModel | None  # None when a service holds the target
    baseline: np.ndarray | None
    test_accuracy: float
    predictions: np.ndarray | None  # for the test rows; None until they are needed
    n_dropped_missing: int


def prepare(cfg: ExperimentConfig) -> _Prepared:
    """Run the builder-side stages: load, split, encode, train, baseline.

    The CSV's table is let go once the test rows are encoded, so it does not
    live through training, and the training set once the target is trained.
    With a remote transport nothing is trained, so only the test rows are
    encoded: the adversary reaches the target only through the service, whose
    predictions on the test rows give the test accuracy."""
    with _stage("load"):
        schema = data_mod.TabularSchema.from_json(cfg.schema)
        table = data_mod.load_csv(cfg.dataset_csv, schema)

    with _stage("split"):
        train_idx, test_idx, n_aux = data_mod.split_indices(table.n_rows, cfg.split_seed)

    with _stage("encode"):
        include_s = cfg.tm is ThreatModel.TM1
        raw_train = table.select(train_idx)
        stats = data_mod.fit_encoding(raw_train, schema)
        ds_train = (data_mod.encode(raw_train, schema, include_s, stats)
                    if cfg.transport == IN_PROCESS else None)
        test = data_mod.encode(table.select(test_idx), schema, include_s, stats)
        n_dropped_missing = table.n_dropped_missing
        del table, raw_train  # training and every later stage read the encoded sets

    model = baseline = None
    if cfg.transport == IN_PROCESS:
        with _stage("train-target"):
            train_cfg = TrainConfig(
                epochs=cfg.target_epochs,
                learning_rate=cfg.target_learning_rate,
                batch_size=cfg.target_batch_size,
                seed=cfg.model_seed,
            )
            # inline, so that nothing here holds the initial model while it trains
            model = nn.train(
                nn.init_model([ds_train.n_columns, *cfg.target_hidden, 1], seed=cfg.model_seed),
                ds_train.features, ds_train.labels, train_cfg)
            baseline = explain_mod.mean_baseline(ds_train.features)
    del ds_train  # no later stage reads the training rows

    with _stage("predict"):
        if model is None:  # only remote runs load the service, and ssl with it for https
            from . import service
            predictions = probabilities = service.client_fetch_predictions(
                cfg.transport, test.features)
        else:  # run_matrix makes the predictions of a target that needs them
            predictions, probabilities = None, nn.forward_batch(model, test.features)
        test_accuracy = metrics_mod.accuracy(probabilities, test.labels)

    return _Prepared(
        cfg=cfg,
        splits=data_mod.DatasetSplits(train_rows=len(train_idx), test=test, n_aux=n_aux),
        model=model,
        baseline=baseline,
        test_accuracy=test_accuracy,
        predictions=predictions,
        n_dropped_missing=n_dropped_missing,
    )


def compute_explanations(prep: _Prepared) -> explain_mod.Explanations:
    """The test records' explanations, via the configured transport."""
    cfg, test = prep.cfg, prep.splits.test
    with _stage("explain"):
        if cfg.transport != IN_PROCESS:
            from . import service  # loaded only by remote runs, as in prepare
            return service.client_fetch_explanations(
                cfg.transport, test.features, cfg.algorithm, record_ids=test.row_ids)
        return explain_mod.explain_batch(
            prep.model, test.features, prep.baseline, cfg.algorithm,
            cfg.explainer_config, cfg.scalar_target, record_ids=test.row_ids)


def _all_positive_f1(base_rate: float) -> float:
    # predicting every record positive: precision = base rate, recall = 1
    return 2.0 * base_rate / (1.0 + base_rate) if base_rate > 0 else 0.0


def run_attacks(prep: _Prepared, explanations) -> list[AttackCell]:
    """Train, calibrate and evaluate one attack per surface."""
    cfg, n_aux = prep.cfg, prep.splits.n_aux
    ds_aux, ds_eval = prep.splits.aux, prep.splits.eval
    cells = []
    for surface in cfg.surface_list:
        with _stage("attack", f"surface {surface.value}: "):
            X = attack_mod.build_surface_matrix(explanations, prep.predictions, surface,
                                                prep.splits.test.sensitive_columns)
            Xa, Xe = X[:n_aux], X[n_aux:]
            fadv = attack_mod.train_attack(
                Xa, ds_aux.sensitive, kind=cfg.attack_kind, seed=cfg.attack_seed,
                mlp_hidden=tuple(cfg.attack_hidden),
                mlp_epochs=cfg.attack_epochs,
                mlp_learning_rate=cfg.attack_learning_rate,
                mlp_batch_size=cfg.attack_batch_size,
                forest_trees=cfg.forest_trees,
                forest_depth=cfg.forest_depth,
                forest_min_leaf=cfg.forest_min_leaf)
            thr = attack_mod.calibrate(fadv, Xa, ds_aux.sensitive)
            eval_scores = attack_mod.score(fadv, Xe)
            predicted = (eval_scores >= thr.tau_star).astype(np.float64)
            c = metrics_mod.confusion(predicted, ds_eval.sensitive)
            base_rate = data_mod.sensitive_base_rate(ds_eval)
            cells.append(AttackCell(
                **{name: getattr(cfg, name) for name in MATRIX_FIELDS},
                dataset=cfg.dataset_name,
                surface=surface.value,
                tau_star=thr.tau_star,
                aux_f1=thr.achieved_f1_on_aux,
                precision=metrics_mod.precision(c),
                recall=metrics_mod.recall(c),
                f1=metrics_mod.f1(c),
                base_rate=base_rate,
                baseline_f1=_all_positive_f1(base_rate),
                target_test_accuracy=prep.test_accuracy,
                curve=thr.curve,
                eval_record_ids=ds_eval.row_ids,
                eval_scores=eval_scores,
                eval_predicted=predicted,
                eval_truth=ds_eval.sensitive,
            ))
    return cells


def correlation_audit(prep: _Prepared, explanations) -> list[CorrelationRow]:
    """Pearson correlation of s against labels, features and explanation
    columns over all explained records, the test set; constant columns are
    skipped and counted."""
    cfg, test = prep.cfg, prep.splits.test
    sens_cols = test.sensitive_columns
    non_sens = [c for c in range(test.n_columns) if c not in sens_cols]

    def row(group, matrix, cols):
        rs, skipped = [], 0
        for c in cols:
            try:
                rs.append(metrics_mod.pearson(test.sensitive, matrix[:, c]))
            except ValueError:  # a constant column
                skipped += 1
        return CorrelationRow(
            dataset=cfg.dataset_name,
            threat_model=cfg.tm.value,
            explainer=cfg.algorithm.value,
            group=group,
            n_columns=len(rs),
            mean_r=float(np.mean(rs)) if rs else 0.0,
            std_r=float(np.std(rs)) if rs else 0.0,
            skipped_constant=skipped,
            coefficients=[float(r) for r in rs],
        )

    groups = [("y", test.labels[:, None], [0]), ("x", test.features, non_sens)]
    if sens_cols:
        groups.append(("phi_sensitive", explanations.scores, sens_cols))
    groups.append(("phi_non_sensitive", explanations.scores, non_sens))
    with _stage("audit"):
        return [row(*group) for group in groups]


# config fields that determine a prepared target and its predictions and, added
# to those, its explanations; their JSON text is the memo key (lists are unhashable)
PREPARE_KEY = ("dataset_csv", "schema", "threat_model", "split_seed", "model_seed",
               "target_hidden", "target_epochs", "target_learning_rate",
               "target_batch_size", "transport")
EXPLAIN_KEY = ("explainer", "explainer_seed", *EXPLAINER_SETTINGS, "explanation_target")


def _key(cfg: ExperimentConfig, names) -> tuple:
    return tuple(json.dumps(getattr(cfg, n)) for n in names)


def first_cells(cells: list[ExperimentConfig], names) -> list[ExperimentConfig]:
    """The first cell of each distinct key over the fields `names`, in order."""
    firsts = {}
    for cfg in cells:
        firsts.setdefault(_key(cfg, names), cfg)
    return list(firsts.values())


def run_cells(cells: list[ExperimentConfig]):
    """Yield (prepared, explanations) for each cell, in order.

    Within one call each distinct target (keyed by PREPARE_KEY) is prepared
    once and each distinct explanation set (keyed by PREPARE_KEY and
    EXPLAIN_KEY) computed once; every cell gets them rebound to its config."""
    prepared, explained = {}, {}
    for cfg in cells:
        key = _key(cfg, PREPARE_KEY)
        if key not in prepared:
            prepared[key] = prepare(cfg)
        prep = dataclasses.replace(prepared[key], cfg=cfg)
        key += _key(cfg, EXPLAIN_KEY)
        if key not in explained:
            explained[key] = compute_explanations(prep)
        yield prep, explained[key]


def run_matrix(cells: list[ExperimentConfig]) -> AttackReport:
    """Execute every cell end to end into one report. The manifest holds
    each cell's config and each distinct target once; an in-process target's
    predictions are made once, for the first cell that needs them."""
    rows, correlations, targets, predicted = [], [], {}, {}
    for prep, explanations in run_cells(cells):
        cfg, splits = prep.cfg, prep.splits
        key = _key(cfg, PREPARE_KEY)
        if prep.predictions is None and any(s.takes_prediction for s in cfg.surface_list):
            if key not in predicted:
                with _stage("predict"):
                    predicted[key] = nn.forward_rows(prep.model, splits.test.features)
            prep = dataclasses.replace(prep, predictions=predicted[key])
        rows += run_attacks(prep, explanations)
        correlations += correlation_audit(prep, explanations)
        if key not in targets:
            targets[key] = {
                **{name: getattr(cfg, name) for name in PREPARE_KEY},
                "dataset": {
                    "rows_after_filtering": splits.train_rows + splits.test.n_rows,
                    "rows_dropped_missing": prep.n_dropped_missing,
                    "unknown_category_values": splits.test.unknown_category_count,
                    "train_rows": splits.train_rows,
                    "aux_rows": splits.n_aux,
                    "eval_rows": splits.test.n_rows - splits.n_aux,
                    "encoded_columns": splits.test.n_columns,
                },
                "target_test_accuracy": prep.test_accuracy,
            }
    manifest = {"cells": [dataclasses.asdict(cfg) for cfg in cells],
                "targets": list(targets.values())}
    return AttackReport(rows, correlations, manifest)


# field order is column order: reordering a row class's fields changes the report bytes
REPORT_COLUMNS, CORRELATION_COLUMNS = (
    [f.name for f in dataclasses.fields(row) if f.type in ("str", "int", "float")]
    for row in (AttackCell, CorrelationRow))


def file_tag(row, names) -> str:
    """A file-name tag of the matrix fields among `names` of a config or a
    report row: their values joined by "-", the seeds last as one word of
    initials and values, so file_tag(cfg, PREPARE_KEY) is tm1-s0m1."""
    names = [n for n in MATRIX_FIELDS if n in names]
    return "-".join([*(getattr(row, n) for n in names if n not in SEEDS),
                     "".join(f"{n[0]}{getattr(row, n)}" for n in names if n in SEEDS)])


def rows_of(columns: list[str], rows):
    """A header of `columns`, then their values for each row object, lazily."""
    return itertools.chain([columns], ([getattr(r, c) for c in columns] for r in rows))


def emit(directory: str, files: dict, lines) -> None:
    """Make `directory`, write each file of the name -> content map there, and
    print `lines`, as the stage emit. The name's extension picks the writer:
    .npz nn.save_model, .json data.write_json, else data.write_csv of rows."""
    with _stage("emit"):
        os.makedirs(directory, exist_ok=True)
        for name, content in files.items():
            path = os.path.join(directory, name)
            if name.endswith(".npz"):
                nn.save_model(content, path)
            elif name.endswith(".json"):
                data_mod.write_json(path, content)
            else:
                data_mod.write_csv(path, content)
        for line in lines:
            print(line)


def emit_report(report: AttackReport, directory: str) -> None:
    """Emit report.csv, correlations.csv, PR-curve and prediction dumps,
    summary.json and the manifest, and a line per row and per summary file.
    Re-emitting the same report yields byte-identical files."""
    tags = [f"{cell.dataset}-{cell.threat_model}-{cell.explainer}-"
            f"{cell.surface}-{file_tag(cell, SEEDS)}" for cell in report.rows]
    files = {"report.csv": rows_of(REPORT_COLUMNS, report.rows),
             "correlations.csv": rows_of(CORRELATION_COLUMNS, report.correlations)}
    for cell, tag in zip(report.rows, tags):
        curve = cell.curve
        files[f"prcurve-{tag}.csv"] = itertools.chain(
            [[f"# base_rate={float(curve.base_rate)!r}"],
             ["threshold", "precision", "recall", "f1"]],
            zip(curve.thresholds, curve.precisions, curve.recalls, curve.f1s))
        files[f"predictions-{tag}.csv"] = itertools.chain(
            [["record_id", "score", "predicted", "truth"]],
            zip(cell.eval_record_ids, cell.eval_scores,
                map(int, cell.eval_predicted), map(int, cell.eval_truth)))
    files["summary.json"] = {
        "rows": [{c: getattr(cell, c) for c in REPORT_COLUMNS} for cell in report.rows],
        "correlations": [{c: getattr(row, c) for c in CORRELATION_COLUMNS}
                         for row in report.correlations],
        "files": {"curves": [f"prcurve-{tag}.csv" for tag in tags],
                  "predictions": [f"predictions-{tag}.csv" for tag in tags]},
    }
    files["manifest.json"] = report.manifest
    emit(directory, files, [
        *(f"{cell.dataset} {cell.threat_model} {cell.explainer} "
          f"{cell.surface} [{cell.attack_kind}]: "
          f"P={cell.precision:.3f} R={cell.recall:.3f} F1={cell.f1:.3f} "
          f"base={cell.base_rate:.3f} tau*={cell.tau_star:.3f}" for cell in report.rows),
        f"report -> {os.path.join(directory, 'report.csv')}",
        f"summary -> {os.path.join(directory, 'summary.json')}"])
