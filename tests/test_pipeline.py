import csv
import dataclasses
import json
import os
import socket
import weakref

import numpy as np
import pytest

from explinfer import metrics, pipeline, service
from explinfer.pipeline import AttackReport, ExperimentConfig, PipelineError
from explinfer.synth import write_synthetic_dataset


@pytest.fixture(scope="module")
def synth_paths(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("synth"))
    return write_synthetic_dataset(d, n=300, seed=0)


def fast_config(synth_paths, out_dir, **overrides):
    csv_path, schema_path = synth_paths
    base = dict(
        dataset_csv=csv_path,
        schema=schema_path,
        threat_model="tm1",
        explainer="integrated_gradients",
        surfaces=["phi_all"],
        target_hidden=[16, 8],
        target_epochs=60,
        target_batch_size=32,
        attack_hidden=[16, 8],
        attack_epochs=150,
        attack_batch_size=64,
        ig_steps=16,
        output_dir=out_dir,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    @pytest.mark.parametrize("field, value, message", [
        ("target_hidden", [1024, 0], "target_hidden[1] must be an integer >= 1, got 0"),
        ("attack_hidden", [8, 2.5], "attack_hidden[1] must be an integer >= 1, got 2.5"),
        ("model_seed", np.int64(1), "model_seed must be JSON data, got "),
        ("target_learning_rate", float("nan"), "target_learning_rate must be a finite number > 0"),
        ("shap_stdev", -0.1, "shap_stdev must be a finite number >= 0"),
        ("split_seed", True, "split_seed must be an integer >= 0, got True"),
    ])
    def test_bad_number_is_named(self, synth_paths, tmp_path, field, value, message):
        """Numbers follow nn.check_number's rule, and every field must be
        JSON data, which a NumPy integer is not."""
        with pytest.raises(ValueError) as info:
            fast_config(synth_paths, str(tmp_path), **{field: value})
        assert str(info.value).startswith(message)

    def test_tm2_rejects_sensitive_surfaces(self, synth_paths, tmp_path):
        with pytest.raises(ValueError, match="not valid"):
            fast_config(synth_paths, str(tmp_path), threat_model="tm2",
                        surfaces=["phi_sensitive"])

    def test_default_surfaces_follow_threat_model(self, synth_paths, tmp_path):
        tm1 = fast_config(synth_paths, str(tmp_path), surfaces=None)
        tm2 = fast_config(synth_paths, str(tmp_path), surfaces=None,
                          threat_model="tm2")
        assert "phi_all" in tm1.surfaces and "phi_sensitive" in tm1.surfaces
        assert "phi_all" not in tm2.surfaces
        assert "phi_non_sensitive" in tm2.surfaces

    def test_matrix_expansion(self, synth_paths, tmp_path):
        csv_path, schema_path = synth_paths
        raw = {
            "dataset_csv": csv_path, "schema": schema_path,
            "threat_model": ["tm1", "tm2"],
            "explainer": ["deeplift", "smoothgrad"],
            "surfaces": ["phi_non_sensitive"],
            "output_dir": str(tmp_path),
        }
        cells = pipeline.expand_matrix(raw)
        assert len(cells) == 4
        combos = {(c.threat_model, c.explainer) for c in cells}
        assert ("tm1", "deeplift") in combos and ("tm2", "smoothgrad") in combos

    def test_matrix_expansion_over_seeds(self, synth_paths, tmp_path):
        csv_path, schema_path = synth_paths
        raw = {
            "dataset_csv": csv_path, "schema": schema_path,
            "surfaces": ["phi_all"],
            "model_seed": [1, 2, 3],
            "output_dir": str(tmp_path),
        }
        cells = pipeline.expand_matrix(raw)
        assert [c.model_seed for c in cells] == [1, 2, 3]

    def test_report_rows_carry_seeds(self, synth_paths, tmp_path):
        cfg = fast_config(synth_paths, str(tmp_path), split_seed=42)
        report = pipeline.run_matrix([cfg])
        row = report.rows[0]
        assert (row.split_seed, row.model_seed) == (42, cfg.model_seed)
        files = pipeline.emit_report(report, cfg.output_dir)
        with open(files["report"], encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["split_seed"] == "42"

    def test_unknown_key_rejected(self, synth_paths, tmp_path):
        csv_path, schema_path = synth_paths
        with pytest.raises(ValueError, match="unknown config keys"):
            pipeline.expand_matrix({
                "dataset_csv": csv_path, "schema": schema_path,
                "explnaier": "deeplift"})

    @pytest.mark.parametrize("text", ["5", "null", '[["a", 1]]'])
    def test_config_that_is_not_an_object_is_config_error(self, tmp_path, text):
        path = tmp_path / "shape.json"
        path.write_text(text)
        with pytest.raises(PipelineError) as err:
            pipeline.load_config(str(path))
        assert err.value.stage == "config"

    def test_missing_file_is_load_stage_error(self, synth_paths, tmp_path):
        cfg = fast_config(synth_paths, str(tmp_path))
        cfg.dataset_csv = "/nonexistent/file.csv"
        with pytest.raises(PipelineError) as err:
            pipeline.run_matrix([cfg])
        assert err.value.stage == "load"

    def test_unreachable_service_is_predict_stage_error(self, synth_paths, tmp_path):
        # a bound socket that does not listen refuses connections; asking the
        # service for the target's accuracy is a remote run's first query
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            cfg = fast_config(synth_paths, str(tmp_path),
                              transport=f"http://127.0.0.1:{sock.getsockname()[1]}")
            with pytest.raises(PipelineError) as err:
                pipeline.run_matrix([cfg])
        assert err.value.stage == "predict"


class TestRunExperiment:
    def test_synthetic_perfect_recovery(self, synth_paths, tmp_path):
        cfg = fast_config(synth_paths, str(tmp_path), target_hidden=[32, 16],
                          target_epochs=150, attack_epochs=500)
        report = pipeline.run_matrix([cfg])
        row = report.rows[0]
        assert row.surface == "phi_all"
        assert row.f1 == 1.0
        assert row.precision == 1.0 and row.recall == 1.0

    def test_raw_table_released_before_the_target_trains(
            self, synth_paths, tmp_path, monkeypatch):
        """prepare lets the CSV's table go once the test rows are encoded,
        so it does not live through training."""
        tables, alive = [], []
        load_csv, train = pipeline.data_mod.load_csv, pipeline.nn.train

        def loading(*args):
            table = load_csv(*args)
            tables.append(weakref.ref(table))
            return table

        def training(*args):
            alive.append([ref() is not None for ref in tables])
            return train(*args)

        monkeypatch.setattr(pipeline.data_mod, "load_csv", loading)
        monkeypatch.setattr(pipeline.nn, "train", training)
        pipeline.prepare(fast_config(synth_paths, str(tmp_path), target_epochs=1))
        assert alive == [[False]]

    def test_deterministic_report_bytes(self, synth_paths, tmp_path):
        cfg_a = fast_config(synth_paths, str(tmp_path / "a"))
        cfg_b = fast_config(synth_paths, str(tmp_path / "b"))
        files_a = pipeline.emit_report(pipeline.run_matrix([cfg_a]), cfg_a.output_dir)
        files_b = pipeline.emit_report(pipeline.run_matrix([cfg_b]), cfg_b.output_dir)
        for name in sorted(os.listdir(cfg_a.output_dir)):
            if name == "manifest.json":
                continue  # manifest embeds the differing output_dir paths
            with open(os.path.join(cfg_a.output_dir, name), "rb") as fa:
                with open(os.path.join(cfg_b.output_dir, name), "rb") as fb:
                    assert fa.read() == fb.read(), name

    def test_eval_metrics_recomputable_from_dump(self, synth_paths, tmp_path):
        cfg = fast_config(synth_paths, str(tmp_path))
        report = pipeline.run_matrix([cfg])
        files = pipeline.emit_report(report, cfg.output_dir)
        with open(files["report"], encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        with open(files["predictions"][0], encoding="utf-8") as fh:
            dump = list(csv.DictReader(fh))
        # independent recomputation of F1 from the raw dump
        tp = sum(1 for r in dump if r["predicted"] == "1" and r["truth"] == "1")
        fp = sum(1 for r in dump if r["predicted"] == "1" and r["truth"] == "0")
        fn = sum(1 for r in dump if r["predicted"] == "0" and r["truth"] == "1")
        f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
        assert float(rows[0]["f1"]) == pytest.approx(f1, abs=1e-12)
        # and the dumped predictions follow score >= tau_star
        tau = float(rows[0]["tau_star"])
        for r in dump:
            assert (float(r["score"]) >= tau) == (r["predicted"] == "1")

    def test_attack_beats_all_positive_baseline(self, synth_paths, tmp_path):
        cfg = fast_config(synth_paths, str(tmp_path), target_epochs=150,
                          attack_epochs=500)
        report = pipeline.run_matrix([cfg])
        for row in report.rows:
            assert row.f1 > row.baseline_f1


def audit(cfg):
    """The correlation audit of one cell, as the audit subcommand runs it."""
    prep, attributions = next(pipeline.run_cells([cfg]))
    return pipeline.correlation_audit(prep, attributions)


class TestCorrelationAudit:
    def test_feature_identical_to_s(self, tmp_path):
        # x0 carries s verbatim; the only other feature is constant
        rng = np.random.default_rng(0)
        n = 60
        s = rng.integers(0, 2, n)
        path = tmp_path / "ident.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x0,x1,flag,outcome\n")
            for i in range(n):
                fh.write(f"{float(s[i])},1.0,{'yes' if s[i] else 'no'},"
                         f"{int(rng.integers(0, 2))}\n")
        schema = {
            "columns": [{"name": "x0", "kind": "numeric"},
                        {"name": "x1", "kind": "numeric"}],
            "label_column": "outcome", "sensitive_column": "flag",
            "sensitive_positive_value": "yes",
        }
        schema_path = tmp_path / "ident_schema.json"
        schema_path.write_text(json.dumps(schema))
        cfg = ExperimentConfig(
            dataset_csv=str(path), schema=str(schema_path),
            threat_model="tm2", surfaces=["phi_non_sensitive"],
            target_hidden=[8], target_epochs=20, target_batch_size=16,
            ig_steps=8, output_dir=str(tmp_path / "out"))
        rows = audit(cfg)
        x_row = next(r for r in rows if r.group == "x")
        assert x_row.n_columns == 1           # constant x1 skipped
        assert x_row.skipped_constant == 1
        assert x_row.mean_r == pytest.approx(1.0)

    def test_shuffled_s_gives_near_zero_coefficients(self, synth_paths, tmp_path):
        # permutation oracle: detach the flag from every feature, then all
        # audit coefficients must be statistically indistinguishable from 0
        csv_path, schema_path = synth_paths
        rng = np.random.default_rng(123)
        with open(csv_path, encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        flag_idx = header.index("flag")
        flags = [r[flag_idx] for r in body]
        rng.shuffle(flags)
        for r, f in zip(body, flags):
            r[flag_idx] = f
        shuffled = tmp_path / "shuffled.csv"
        with open(shuffled, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(body)
        cfg = ExperimentConfig(
            dataset_csv=str(shuffled), schema=schema_path,
            threat_model="tm2", surfaces=["phi_non_sensitive"],
            target_hidden=[8], target_epochs=20, target_batch_size=32,
            ig_steps=8, output_dir=str(tmp_path / "out"))
        rows = audit(cfg)
        n_records = 90  # aux + eval of a 300-row dataset
        bound = 4.0 / np.sqrt(n_records)
        for row in rows:
            if row.group in ("x", "phi_non_sensitive"):
                assert abs(row.mean_r) <= bound
                assert row.std_r <= bound


def count_calls(monkeypatch, *names):
    """Replace pipeline functions with counting wrappers; returns the counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _original=getattr(pipeline, name), _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(pipeline, name, counted)
    return calls


class TestStageReuse:
    def matrix(self, synth_paths, out_dir):
        # 2 explainers x 2 attack kinds, in expand_matrix order
        return [fast_config(synth_paths, out_dir, explainer=e, attack_kind=k,
                            surfaces=["phi_all", "pred_plus_phi"],
                            forest_trees=10)
                for e in ("deeplift", "smoothgrad") for k in ("mlp", "forest")]

    def test_matrix_prepares_once_and_explains_per_explainer(
            self, synth_paths, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, "prepare", "compute_explanations")
        predicted, forward_rows = [], pipeline.nn.forward_rows
        monkeypatch.setattr(pipeline.nn, "forward_rows",
                            lambda *args: predicted.append(args) or forward_rows(*args))
        report = pipeline.run_matrix(self.matrix(synth_paths, str(tmp_path)))
        assert calls == {"prepare": 1, "compute_explanations": 2}
        # pred_plus_phi's probabilities, made once for the target; explain_batch's
        # calls for the deltas name a target
        assert len([args for args in predicted if len(args) == 2]) == 1
        # two surfaces per cell, the cells in order
        assert [r.attack_kind for r in report.rows] == ["mlp", "mlp", "forest", "forest"] * 2

    def test_matrix_report_bytes_match_cells_run_alone(self, synth_paths, tmp_path):
        cells = self.matrix(synth_paths, str(tmp_path / "cfg"))
        shared, alone = str(tmp_path / "shared"), str(tmp_path / "alone")
        pipeline.emit_report(pipeline.run_matrix(cells), shared)
        reports = [pipeline.run_matrix([c]) for c in cells]
        # the alone runs state one common target; the matrix's manifest holds
        # their cells joined and that target once
        [target] = reports[0].manifest["targets"]
        assert all(rep.manifest["targets"] == [target] for rep in reports)
        pipeline.emit_report(AttackReport(
            rows=[r for rep in reports for r in rep.rows],
            correlations=[c for rep in reports for c in rep.correlations],
            manifest={"cells": [c for rep in reports for c in rep.manifest["cells"]],
                      "targets": [target]}), alone)
        assert sorted(os.listdir(shared)) == sorted(os.listdir(alone))
        for name in ("report.csv", "summary.json", "correlations.csv",
                     "manifest.json", *os.listdir(shared)):
            with open(os.path.join(shared, name), "rb") as fa:
                with open(os.path.join(alone, name), "rb") as fb:
                    assert fa.read() == fb.read(), name

    def test_manifest_states_each_target_once(self, synth_paths, tmp_path):
        cells = self.matrix(synth_paths, str(tmp_path))
        manifest = pipeline.run_matrix(cells).manifest
        assert manifest["cells"] == [dataclasses.asdict(cfg) for cfg in cells]
        [target] = manifest["targets"]
        assert {k: target[k] for k in pipeline.PREPARE_KEY} == {
            k: getattr(cells[0], k) for k in pipeline.PREPARE_KEY}
        assert target["dataset"]["aux_rows"] + target["dataset"]["eval_rows"] == 90

        raw = dict(dataclasses.asdict(cells[0]), model_seed=[1, 2], attack_kind="mlp")
        report = pipeline.run_matrix(pipeline.expand_matrix(raw))
        targets = report.manifest["targets"]
        assert [t["model_seed"] for t in targets] == [1, 2]
        assert targets[0]["dataset"] == targets[1]["dataset"]
        assert ([t["target_test_accuracy"] for t in targets]
                == [r.target_test_accuracy for r in report.rows[::2]])

    @pytest.mark.parametrize("field,values", [("model_seed", (1, 2)),
                                              ("threat_model", ("tm1", "tm2"))])
    def test_cells_with_distinct_targets_do_not_share(
            self, synth_paths, tmp_path, monkeypatch, field, values):
        calls = count_calls(monkeypatch, "prepare")
        cells = [fast_config(synth_paths, str(tmp_path),
                             surfaces=["phi_non_sensitive"], **{field: v})
                 for v in values]
        first, second = [prep for prep, *_ in pipeline.run_cells(cells)]
        assert calls == {"prepare": 2}
        assert first.model is not second.model
        assert (first.cfg, second.cfg) == tuple(cells)
        assert not np.array_equal(first.model.weights[0], second.model.weights[0])


class TestEmitReport:
    def test_empty_report_header_only(self, tmp_path):
        files = pipeline.emit_report(
            AttackReport(rows=[], correlations=[], manifest={}), str(tmp_path))
        with open(files["report"], encoding="utf-8") as fh:
            assert fh.read() == ",".join(pipeline.REPORT_COLUMNS) + "\n"
        with open(files["correlations"], encoding="utf-8") as fh:
            assert fh.read() == ",".join(pipeline.CORRELATION_COLUMNS) + "\n"

    def test_pr_curve_file_roundtrip(self, synth_paths, tmp_path):
        cfg = fast_config(synth_paths, str(tmp_path), surfaces=["phi_all", "phi_sensitive"])
        report = pipeline.run_matrix([cfg])
        files = pipeline.emit_report(report, cfg.output_dir)
        for cell, path in zip(report.rows, files["curves"], strict=True):
            with open(path, encoding="utf-8") as fh:
                comment, header, *lines = fh.read().splitlines()
            assert header == "threshold,precision,recall,f1"
            loaded = np.array([[float(v) for v in line.split(",")] for line in lines])
            assert np.array_equal(loaded[:, 0], cell.curve.thresholds)
            assert np.array_equal(loaded[:, 1], cell.curve.precisions)
            assert np.array_equal(loaded[:, 2], cell.curve.recalls)
            assert np.array_equal(loaded[:, 3], cell.curve.f1s)
            assert float(comment.removeprefix("# base_rate=")) == cell.curve.base_rate

    def test_reemit_byte_identical(self, synth_paths, tmp_path):
        cfg = fast_config(synth_paths, str(tmp_path))
        report = pipeline.run_matrix([cfg])
        pipeline.emit_report(report, cfg.output_dir)
        first = {}
        for name in os.listdir(cfg.output_dir):
            with open(os.path.join(cfg.output_dir, name), "rb") as fh:
                first[name] = fh.read()
        pipeline.emit_report(report, cfg.output_dir)
        for name, blob in first.items():
            with open(os.path.join(cfg.output_dir, name), "rb") as fh:
                assert fh.read() == blob, name


class TestTransportEquivalence:
    def test_remote_run_matches_in_process(self, synth_paths, tmp_path):
        cfg = fast_config(synth_paths, str(tmp_path / "local"),
                          threat_model="tm2",
                          surfaces=["phi_non_sensitive", "pred_plus_phi"],
                          explainer="gradient_shap")
        local = pipeline.run_matrix([cfg])

        prep = pipeline.prepare(cfg)
        server = service.serve(
            prep.model, prep.baseline, cfg.explainer_config,
            target=cfg.scalar_target)
        try:
            remote_cfg = fast_config(
                synth_paths, str(tmp_path / "remote"),
                threat_model="tm2",
                surfaces=["phi_non_sensitive", "pred_plus_phi"],
                explainer="gradient_shap", transport=server.url)
            remote = pipeline.run_matrix([remote_cfg])
        finally:
            server.shutdown()

        for lrow, rrow in zip(local.rows, remote.rows):
            assert rrow.precision == lrow.precision
            assert rrow.recall == lrow.recall
            assert rrow.f1 == lrow.f1
            assert rrow.tau_star == lrow.tau_star

    def test_remote_run_fetches_each_prediction_once(self, synth_paths, tmp_path,
                                                     monkeypatch):
        surfaces = ["phi_non_sensitive", "pred_plus_phi"]
        cfg = fast_config(synth_paths, str(tmp_path / "local"), surfaces=surfaces,
                          explainer="deeplift")
        local = pipeline.run_matrix([cfg])
        prep = pipeline.prepare(cfg)
        served = []
        predict = service._Endpoints.predict

        def counted(self, body):
            served.append(len(body["records"]))
            return predict(self, body)

        monkeypatch.setattr(service._Endpoints, "predict", counted)
        with service.serve(prep.model, prep.baseline, cfg.explainer_config,
                           target=cfg.scalar_target) as server:
            remote_cfg = fast_config(synth_paths, str(tmp_path / "remote"),
                                     surfaces=surfaces, explainer="deeplift",
                                     transport=server.url)
            remote = pipeline.run_matrix([remote_cfg])
        assert sum(served) == prep.splits.aux.n_rows + prep.splits.eval.n_rows
        reports = [pipeline.emit_report(r, c.output_dir)["report"]
                   for r, c in ((local, cfg), (remote, remote_cfg))]
        with open(reports[0], "rb") as fa, open(reports[1], "rb") as fb:
            assert fa.read() == fb.read()
