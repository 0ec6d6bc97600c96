"""End-to-end experiment orchestration.

One experiment cell = (dataset, threat model, explainer, attack kind) plus a
list of attack surfaces. A run executes:

    load/encode/split -> train target -> explain aux+eval (in process or
    through the blackbox API) -> build surfaces -> train the attack model on
    aux -> calibrate the threshold on aux -> infer on eval -> metrics

and emits a machine-readable report, PR-curve files, per-record prediction
dumps and a manifest of every seed and config value. Identical config and
seeds produce byte-identical report files.

Evaluation hygiene: encoding statistics, the explanation baseline, attack
training and threshold calibration never see an eval-split record.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import attack as attack_mod
from . import data as data_mod
from . import explain as explain_mod
from . import metrics as metrics_mod
from . import nn, service
from .attack import AttackSurface, ThreatModel
from .explain import Algorithm, ExplainerConfig
from .nn import ScalarTarget, TrainConfig

IN_PROCESS = "in_process"


class PipelineError(RuntimeError):
    """A stage of the experiment failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[stage={stage}] {message}")
        self.stage = stage


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
    run_audit: bool = True

    def __post_init__(self):
        self.tm = ThreatModel(self.threat_model)
        self.algorithm = Algorithm(self.explainer)
        self.scalar_target = ScalarTarget(self.explanation_target)
        if self.attack_kind not in ("mlp", "forest"):
            raise ValueError(f"unknown attack_kind {self.attack_kind!r}")
        if self.surfaces is None:
            self.surfaces = [s.value for s in AttackSurface if s.valid_for(self.tm)]
        self.surface_list = [AttackSurface(s) for s in self.surfaces]
        for s in self.surface_list:
            if not s.valid_for(self.tm):
                raise ValueError(
                    f"surface {s.value} is not valid under {self.tm.value}")
        if len(set(self.surfaces)) != len(self.surfaces):
            raise ValueError("surfaces must be unique")
        if self.dataset_name is None:
            stem = os.path.splitext(os.path.basename(self.dataset_csv))[0]
            self.dataset_name = stem

    @property
    def explainer_config(self) -> ExplainerConfig:
        return ExplainerConfig(
            ig_steps=self.ig_steps,
            shap_samples=self.shap_samples,
            shap_stdev=self.shap_stdev,
            smoothgrad_samples=self.smoothgrad_samples,
            smoothgrad_sigma=self.smoothgrad_sigma,
            seed=self.explainer_seed,
        )

    @property
    def needs_predictions(self) -> bool:
        return any(s in (AttackSurface.PRED_PLUS_PHI, AttackSurface.PRED_ONLY)
                   for s in self.surface_list)


def load_config(path: str) -> list[ExperimentConfig]:
    """Read a config file; list-valued matrix fields expand to one config
    per cell."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    return expand_matrix(raw)


def expand_matrix(raw: dict) -> list[ExperimentConfig]:
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    cells = [dict(raw)]
    for key in ("threat_model", "explainer", "attack_kind", "split_seed",
                "model_seed", "attack_seed", "explainer_seed"):
        if isinstance(raw.get(key), list):
            cells = [dict(c, **{key: v}) for c in cells for v in raw[key]]
    return [ExperimentConfig(**c) for c in cells]


@dataclass
class AttackCell:
    """Results for one (threat model, explainer, surface) attack.

    Seed fields make every row traceable to the configuration that
    produced it."""

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
    schema: data_mod.TabularSchema
    splits: data_mod.DatasetSplits
    model: nn.MlpModel
    baseline: np.ndarray
    test_accuracy: float
    n_dropped_missing: int
    unknown_categories: int


def prepare(cfg: ExperimentConfig) -> _Prepared:
    """Run the builder-side stages: load, split, encode, train, baseline."""
    try:
        schema = data_mod.TabularSchema.from_json(cfg.schema)
        table = data_mod.load_csv(cfg.dataset_csv, schema)
    except (OSError, ValueError) as exc:
        raise PipelineError("load", str(exc)) from exc

    try:
        train_idx, aux_idx, eval_idx = data_mod.split_indices(
            table.n_rows, cfg.split_seed)
    except ValueError as exc:
        raise PipelineError("split", str(exc)) from exc

    try:
        include_s = cfg.tm is ThreatModel.TM1
        raw_train = table.select(train_idx)
        stats = data_mod.fit_encoding(raw_train, schema)
        ds_train = data_mod.encode(raw_train, schema, include_s, stats)
        ds_aux = data_mod.encode(table.select(aux_idx), schema, include_s, stats)
        ds_eval = data_mod.encode(table.select(eval_idx), schema, include_s, stats)
    except ValueError as exc:
        raise PipelineError("encode", str(exc)) from exc

    try:
        model = nn.init_model(
            [ds_train.n_columns, *cfg.target_hidden, 1], seed=cfg.model_seed)
        train_cfg = TrainConfig(
            epochs=cfg.target_epochs,
            learning_rate=cfg.target_learning_rate,
            batch_size=cfg.target_batch_size,
            seed=cfg.model_seed,
        )
        model = nn.train(model, ds_train.features, ds_train.labels, train_cfg)
        test_features = np.vstack([ds_aux.features, ds_eval.features])
        test_labels = np.concatenate([ds_aux.labels, ds_eval.labels])
        test_accuracy = nn.evaluate_accuracy(model, test_features, test_labels)
    except (ValueError, nn.TrainingDivergence) as exc:
        raise PipelineError("train-target", str(exc)) from exc

    baseline = explain_mod.mean_baseline(ds_train.features)
    ds_test = data_mod.TabularDataset(
        features=test_features,
        labels=test_labels,
        sensitive=np.concatenate([ds_aux.sensitive, ds_eval.sensitive]),
        column_groups=ds_aux.column_groups,
        includes_sensitive=ds_aux.includes_sensitive,
        row_ids=np.concatenate([ds_aux.row_ids, ds_eval.row_ids]),
    )
    splits = data_mod.DatasetSplits(
        target_train=ds_train,
        test=ds_test,
        aux=ds_aux,
        eval=ds_eval,
        split_seed=cfg.split_seed,
    )
    return _Prepared(
        cfg=cfg,
        schema=schema,
        splits=splits,
        model=model,
        baseline=baseline,
        test_accuracy=test_accuracy,
        n_dropped_missing=table.n_dropped_missing,
        unknown_categories=ds_aux.unknown_category_count
        + ds_eval.unknown_category_count,
    )


def compute_explanations(prep: _Prepared):
    """Explanations (and predictions) for aux and eval via the configured
    transport."""
    cfg = prep.cfg
    need_preds = cfg.needs_predictions
    out = {}
    try:
        for name, ds in (("aux", prep.splits.aux), ("eval", prep.splits.eval)):
            if cfg.transport == IN_PROCESS:
                attrs = explain_mod.explain_batch(
                    prep.model, ds.features, prep.baseline, cfg.algorithm,
                    cfg.explainer_config, cfg.scalar_target,
                    record_ids=ds.row_ids)
                preds = nn.forward_rows(prep.model, ds.features) if need_preds else None
            else:
                attrs = service.client_fetch_explanations(
                    cfg.transport, ds.features, cfg.algorithm,
                    record_ids=ds.row_ids)
                preds = (service.client_fetch_predictions(cfg.transport, ds.features)
                         if need_preds else None)
            out[name] = (attrs, preds)
    except (service.ServiceError, ValueError) as exc:
        raise PipelineError("explain", str(exc)) from exc
    return out["aux"], out["eval"]


def _all_positive_f1(base_rate: float) -> float:
    # predicting every record positive: precision = base rate, recall = 1
    return 2.0 * base_rate / (1.0 + base_rate) if base_rate > 0 else 0.0


def run_attacks(prep: _Prepared, aux_pack, eval_pack) -> list[AttackCell]:
    cfg = prep.cfg
    attrs_aux, preds_aux = aux_pack
    attrs_eval, preds_eval = eval_pack
    ds_aux, ds_eval = prep.splits.aux, prep.splits.eval
    groups = ds_aux.column_groups
    cells = []
    for surface in cfg.surface_list:
        try:
            Xa = attack_mod.build_surface_matrix(
                attrs_aux, preds_aux, surface, groups, prep.schema.sensitive_column)
            Xe = attack_mod.build_surface_matrix(
                attrs_eval, preds_eval, surface, groups, prep.schema.sensitive_column)
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
                dataset=cfg.dataset_name,
                threat_model=cfg.tm.value,
                explainer=cfg.algorithm.value,
                surface=surface.value,
                attack_kind=cfg.attack_kind,
                tau_star=thr.tau_star,
                aux_f1=thr.achieved_f1_on_aux,
                precision=metrics_mod.precision(c),
                recall=metrics_mod.recall(c),
                f1=metrics_mod.f1(c),
                base_rate=base_rate,
                baseline_f1=_all_positive_f1(base_rate),
                target_test_accuracy=prep.test_accuracy,
                split_seed=cfg.split_seed,
                model_seed=cfg.model_seed,
                attack_seed=cfg.attack_seed,
                explainer_seed=cfg.explainer_seed,
                curve=thr.curve,
                eval_record_ids=ds_eval.row_ids,
                eval_scores=eval_scores,
                eval_predicted=predicted,
                eval_truth=ds_eval.sensitive,
            ))
        except (ValueError, attack_mod.SurfaceError) as exc:
            raise PipelineError("attack", f"surface {surface.value}: {exc}") from exc
    return cells


def correlation_audit(prep: _Prepared, attrs_aux, attrs_eval) -> list[CorrelationRow]:
    """Pearson correlation of s against labels, features and explanation
    columns over all explained records; constant columns are skipped and
    counted."""
    cfg = prep.cfg
    ds = prep.splits.aux
    s = np.concatenate([prep.splits.aux.sensitive, prep.splits.eval.sensitive])
    labels = np.concatenate([prep.splits.aux.labels, prep.splits.eval.labels])
    features = np.vstack([prep.splits.aux.features, prep.splits.eval.features])
    scores = np.vstack(
        [a.scores for a in attrs_aux] + [a.scores for a in attrs_eval])

    sens_cols = sorted(ds.column_groups.get(prep.schema.sensitive_column, []))
    non_sens = sorted(set(range(features.shape[1])) - set(sens_cols))

    def column_group(matrix, cols):
        rs, skipped = [], 0
        for c in cols:
            try:
                rs.append(metrics_mod.pearson(s, matrix[:, c]))
            except ValueError:
                skipped += 1
        return rs, skipped

    def row(group, rs, skipped):
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

    rows = []
    try:
        rs_y = [metrics_mod.pearson(s, labels)]
        rows.append(row("y", rs_y, 0))
    except ValueError:
        rows.append(row("y", [], 1))
    rs, skipped = column_group(features, non_sens)
    rows.append(row("x", rs, skipped))
    if sens_cols:
        rs, skipped = column_group(scores, sens_cols)
        rows.append(row("phi_sensitive", rs, skipped))
    rs, skipped = column_group(scores, non_sens)
    rows.append(row("phi_non_sensitive", rs, skipped))
    return rows


# config fields that determine a prepared target and, added to those, its
# explanations; run_cells compares their JSON text (lists are unhashable)
PREPARE_KEY = ("dataset_csv", "schema", "threat_model", "split_seed", "model_seed",
               "target_hidden", "target_epochs", "target_learning_rate",
               "target_batch_size")
EXPLAIN_KEY = ("explainer", "explainer_seed", "ig_steps", "shap_samples", "shap_stdev",
               "smoothgrad_samples", "smoothgrad_sigma", "explanation_target",
               "transport", "needs_predictions")


def run_cells(cells: list[ExperimentConfig]):
    """Yield (prepared, aux pack, eval pack) for each cell, in order.

    Within one call each distinct target is prepared once and each distinct
    explanation set computed once (keyed by PREPARE_KEY and EXPLAIN_KEY);
    every cell gets the shared artifacts rebound to its own config."""
    prepared, packs = {}, {}
    for cfg in cells:
        pkey = tuple(json.dumps(getattr(cfg, n)) for n in PREPARE_KEY)
        if pkey not in prepared:
            prepared[pkey] = prepare(cfg)
        prep = dataclasses.replace(prepared[pkey], cfg=cfg)
        ekey = pkey + tuple(json.dumps(getattr(cfg, n)) for n in EXPLAIN_KEY)
        if ekey not in packs:
            packs[ekey] = compute_explanations(prep)
        yield (prep, *packs[ekey])


def run_matrix(cells: list[ExperimentConfig]) -> list[AttackReport]:
    """Execute every cell end to end, one report per cell."""
    reports = []
    for prep, aux_pack, eval_pack in run_cells(cells):
        cfg, splits = prep.cfg, prep.splits
        rows = run_attacks(prep, aux_pack, eval_pack)
        correlations = (correlation_audit(prep, aux_pack[0], eval_pack[0])
                        if cfg.run_audit else [])
        manifest = {
            "config": _config_dict(cfg),
            "dataset": {
                "rows_after_filtering": int(splits.target_train.n_rows
                                            + splits.aux.n_rows + splits.eval.n_rows),
                "rows_dropped_missing": prep.n_dropped_missing,
                "unknown_category_values": prep.unknown_categories,
                "train_rows": splits.target_train.n_rows,
                "aux_rows": splits.aux.n_rows,
                "eval_rows": splits.eval.n_rows,
                "encoded_columns": splits.target_train.n_columns,
            },
            "target_test_accuracy": prep.test_accuracy,
        }
        reports.append(AttackReport(rows, correlations, manifest))
    return reports


def run_experiment(cfg: ExperimentConfig) -> AttackReport:
    """Execute one experiment cell end to end."""
    return run_matrix([cfg])[0]


def _config_dict(cfg: ExperimentConfig) -> dict:
    return {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}


def merge_reports(reports: list[AttackReport]) -> AttackReport:
    rows = [r for rep in reports for r in rep.rows]
    correlations = [c for rep in reports for c in rep.correlations]
    manifest = {"cells": [rep.manifest for rep in reports]}
    return AttackReport(rows=rows, correlations=correlations, manifest=manifest)


REPORT_COLUMNS = [
    "dataset", "threat_model", "explainer", "surface", "attack_kind",
    "tau_star", "aux_f1", "precision", "recall", "f1", "base_rate",
    "baseline_f1", "target_test_accuracy",
    "split_seed", "model_seed", "attack_seed", "explainer_seed",
]

CORRELATION_COLUMNS = [
    "dataset", "threat_model", "explainer", "group", "n_columns",
    "mean_r", "std_r", "skipped_constant",
]


def _fmt(value) -> str:
    if isinstance(value, float):  # includes numpy float subclasses
        return repr(float(value))
    return str(value)


def write_rows(path: str, columns: list[str], rows) -> None:
    """CSV with a header line and one line per row object."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(getattr(row, c)) for c in columns))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_report(report: AttackReport, directory: str) -> dict:
    """Write report.csv, correlations.csv, PR-curve and prediction dumps and
    the manifest; returns the file map. Re-emitting the same report yields
    byte-identical files."""
    os.makedirs(directory, exist_ok=True)
    files = {}

    files["report"] = os.path.join(directory, "report.csv")
    write_rows(files["report"], REPORT_COLUMNS, report.rows)
    files["correlations"] = os.path.join(directory, "correlations.csv")
    write_rows(files["correlations"], CORRELATION_COLUMNS, report.correlations)

    curve_files, dump_files = [], []
    for cell in report.rows:
        tag = (f"{cell.dataset}-{cell.threat_model}-{cell.explainer}-"
               f"{cell.surface}-s{cell.split_seed}m{cell.model_seed}"
               f"a{cell.attack_seed}e{cell.explainer_seed}")
        curve_path = os.path.join(directory, f"prcurve-{tag}.csv")
        metrics_mod.write_pr_curve(cell.curve, curve_path)
        curve_files.append(curve_path)
        dump_path = os.path.join(directory, f"predictions-{tag}.csv")
        lines = ["record_id,score,predicted,truth"]
        for rid, sc, pr, tr in zip(cell.eval_record_ids, cell.eval_scores,
                                   cell.eval_predicted, cell.eval_truth):
            lines.append(f"{int(rid)},{repr(float(sc))},{int(pr)},{int(tr)}")
        with open(dump_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        dump_files.append(dump_path)
    files["curves"] = curve_files
    files["predictions"] = dump_files

    summary = {
        "rows": [
            {c: getattr(cell, c) for c in REPORT_COLUMNS} for cell in report.rows
        ],
        "correlations": [
            {c: getattr(row, c) for c in CORRELATION_COLUMNS}
            for row in report.correlations
        ],
        "files": {
            "curves": [os.path.basename(p) for p in curve_files],
            "predictions": [os.path.basename(p) for p in dump_files],
        },
    }
    summary_path = os.path.join(directory, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    files["summary"] = summary_path

    manifest_path = os.path.join(directory, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(report.manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    files["manifest"] = manifest_path
    return files
