import csv
import json
import os
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from explinfer import cli, data, nn, pipeline, service
from explinfer.explain import Algorithm
from explinfer.nn import ScalarTarget
from explinfer.synth import write_synthetic_dataset


@pytest.fixture(scope="module")
def cli_setup(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("cli"))
    csv_path, schema_path = write_synthetic_dataset(d, n=120, seed=3)
    config = {
        "dataset_csv": csv_path,
        "schema": schema_path,
        "threat_model": "tm1",
        "explainer": "deeplift",
        "surfaces": ["phi_all"],
        "target_hidden": [8],
        "target_epochs": 15,
        "target_batch_size": 32,
        "attack_hidden": [8],
        "attack_epochs": 40,
        "ig_steps": 8,
        "output_dir": os.path.join(d, "out"),
    }
    config_path = os.path.join(d, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    return d, config_path, config


def test_train_writes_model_and_baseline(cli_setup, capsys):
    d, config_path, config = cli_setup
    assert cli.main(["train", config_path]) == 0
    out = capsys.readouterr().out
    assert "test accuracy" in out
    assert os.path.exists(os.path.join(config["output_dir"], "target-tm1-s0m1.npz"))
    assert os.path.exists(os.path.join(config["output_dir"], "baseline-tm1-s0m1.csv"))


def test_explain_writes_attribution_files(cli_setup, capsys):
    d, config_path, config = cli_setup
    assert cli.main(["explain", config_path]) == 0
    for name in ("aux", "eval"):
        path = os.path.join(
            config["output_dir"], f"explanations-tm1-deeplift-s0m1e3-{name}.csv")
        assert os.path.exists(path)
        with open(path, encoding="utf-8") as fh:
            header = fh.readline()
        assert header.startswith("record_id,algorithm,target,delta")


def test_explain_file_roundtrip_exact(cli_setup, tmp_path):
    _, config_path, config = cli_setup
    out = str(tmp_path / "explain")
    assert cli.main(["explain", config_path, "--out-dir", out]) == 0
    prep, attrs = next(pipeline.run_cells(pipeline.load_config(config_path)))
    n_aux = prep.splits.n_aux
    for name, split, ds in (("aux", attrs[:n_aux], prep.splits.aux),
                            ("eval", attrs[n_aux:], prep.splits.eval)):
        path = os.path.join(out, f"explanations-tm1-deeplift-s0m1e3-{name}.csv")
        with open(path, encoding="utf-8") as fh:
            header, *lines = fh.read().splitlines()
        assert header.split(",") == (["record_id", "algorithm", "target", "delta"]
                                     + [f"score_{i}" for i in range(ds.n_columns)])
        rows = [line.split(",") for line in lines]
        assert [int(r[0]) for r in rows] == ds.row_ids.tolist()
        for a, r in zip(split, rows, strict=True):
            assert np.array_equal(a.scores, np.array([float(v) for v in r[4:]]))
            assert a.delta == float(r[3])
            assert a.algorithm == Algorithm(r[1])
            assert a.target == ScalarTarget(r[2])


def test_attack_emits_report(cli_setup, capsys):
    d, config_path, config = cli_setup
    assert cli.main(["attack", config_path]) == 0
    assert os.path.exists(os.path.join(config["output_dir"], "report.csv"))
    out = capsys.readouterr().out
    assert "F1=" in out


def test_audit_emits_correlations(cli_setup, capsys):
    d, config_path, config = cli_setup
    assert cli.main(["audit", config_path]) == 0
    assert os.path.exists(os.path.join(config["output_dir"], "correlations.csv"))


def test_experiment_full_run(cli_setup, capsys):
    d, config_path, config = cli_setup
    assert cli.main(["experiment", config_path]) == 0
    out_dir = config["output_dir"]
    for name in ("report.csv", "summary.json", "manifest.json",
                 "correlations.csv"):
        assert os.path.exists(os.path.join(out_dir, name))


def test_in_process_commands_leave_the_http_stack_unloaded(cli_setup, tmp_path):
    """train, explain, audit and experiment in process load neither the
    service nor the HTTP and TLS modules it imports. They run in a fresh
    interpreter, since this one has imported the service."""
    _, config_path, _ = cli_setup
    script = (
        "import json, sys\n"
        "from explinfer import cli\n"
        "for command in ('train', 'explain', 'audit', 'experiment'):\n"
        f"    assert cli.main([command, {config_path!r}, '--out-dir', {str(tmp_path)!r}]) == 0\n"
        "loaded = {'ssl', 'http.client', 'http.server', 'explinfer.service'} & set(sys.modules)\n"
        "print(json.dumps(sorted(loaded)))\n")
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=package_root), timeout=300)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == []


def test_seed_override_changes_report(cli_setup, tmp_path):
    d, config_path, config = cli_setup
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert cli.main(["attack", config_path, "--out-dir", out_a]) == 0
    assert cli.main(["attack", config_path, "--out-dir", out_b,
                     "--split-seed", "99"]) == 0
    with open(os.path.join(out_a, "report.csv")) as fa:
        with open(os.path.join(out_b, "report.csv")) as fb:
            assert fa.read() != fb.read()


def test_invalid_config_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert cli.main(["attack", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["5", "null", '[["a", 1]]'])
@pytest.mark.parametrize("seed_flag", [[], ["--model-seed", "2"]])
def test_config_that_is_not_an_object_is_config_error(tmp_path, capsys, text, seed_flag):
    path = tmp_path / "shape.json"
    path.write_text(text)
    assert cli.main(["experiment", str(path), *seed_flag]) == 2
    assert "error [stage=config]" in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    {"forest_trees": 0}, {"forest_depth": 0}, {"forest_min_leaf": 0},
    {"ig_steps": 0}, {"ig_steps": "5"}, {"shap_samples": 0}, {"explainer_seed": -1},
    {"model_seed": "1"}, {"split_seed": 1.5}, {"attack_seed": True},
    {"explainer_seed": [3, -1]},
    {"target_epochs": "3"}, {"target_epochs": -1}, {"attack_epochs": "2"},
    {"attack_epochs": 1.5}, {"target_batch_size": 0}, {"attack_batch_size": True},
    {"target_learning_rate": 0}, {"target_learning_rate": True},
    {"attack_learning_rate": float("nan")}, {"shap_stdev": "x"},
    {"shap_stdev": float("inf")}, {"smoothgrad_sigma": True},
    {"target_hidden": [64, 0]}, {"target_hidden": 64}, {"attack_hidden": ["8"]},
    {"surfaces": []}, {"target_epochs": 0}, {"attack_epochs": 0},
    {"dataset_csv": 5}, {"schema": 10**6}, {"output_dir": 5}, {"transport": 5},
    {"dataset_name": 5}, {"run_audit": "no"}, {"run_audit": True},
    {"model_seed": []}, {"threat_model": []}, {"attack_kind": []},
])
def test_bad_field_is_config_error_before_training(cli_setup, tmp_path, capsys,
                                                   monkeypatch, override):
    _, _, config = cli_setup

    def no_training(*args, **kwargs):
        raise AssertionError("the target was trained before the config was checked")

    monkeypatch.setattr(nn, "train", no_training)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(config, **override)))
    assert cli.main(["experiment", str(path)]) == 2
    assert "error [stage=config]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "explain", "audit", "serve"])
def test_empty_matrix_list_is_config_error(cli_setup, tmp_path, capsys, monkeypatch,
                                           command):
    _, _, config = cli_setup
    monkeypatch.setattr(pipeline, "prepare", lambda cfg: pytest.fail("work started"))
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(dict(config, model_seed=[])))
    assert cli.main([command, str(path)]) == 2
    assert "error [stage=config]" in capsys.readouterr().err


def test_serve_on_two_cells_is_config_error(cli_setup, tmp_path, capsys, monkeypatch):
    _, _, config = cli_setup
    monkeypatch.setattr(pipeline, "prepare", lambda cfg: pytest.fail("work started"))
    path = tmp_path / "two.json"
    path.write_text(json.dumps(dict(config, model_seed=[1, 2])))
    assert cli.main(["serve", str(path)]) == 2
    assert "error [stage=config]" in capsys.readouterr().err


def test_missing_dataset_reports_stage(cli_setup, tmp_path, capsys):
    d, config_path, config = cli_setup
    missing = dict(config, dataset_csv="/nope.csv")
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(missing))
    assert cli.main(["experiment", str(path)]) == 2
    assert "[stage=load]" in capsys.readouterr().err


@pytest.mark.parametrize("field,bad", [
    ("binarization_map", ["yes"]),
    ("columns", [{"name": ["x0"], "kind": "numeric"}, {"name": "x1", "kind": "numeric"}]),
])
def test_schema_value_of_the_wrong_type_is_load_error(cli_setup, tmp_path, capsys,
                                                      field, bad):
    d, config_path, config = cli_setup
    with open(config["schema"], encoding="utf-8") as fh:
        schema = dict(json.load(fh), **{field: bad})
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(schema))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(config, schema=str(schema_path))))
    assert cli.main(["experiment", str(path)]) == 2
    assert "error [stage=load]" in capsys.readouterr().err


def test_transport_override_matches_in_process(cli_setup, tmp_path):
    d, config_path, config = cli_setup
    out_local = str(tmp_path / "local")
    assert cli.main(["attack", config_path, "--out-dir", out_local]) == 0

    # stand up the same model behind the API, then attack through it
    from explinfer import pipeline

    cells = []
    with open(config_path, encoding="utf-8") as fh:
        cells = pipeline.expand_matrix(json.load(fh))
    prep = pipeline.prepare(cells[0])
    server = service.serve(prep.model, prep.baseline,
                           cells[0].explainer_config,
                           target=cells[0].scalar_target)
    try:
        out_remote = str(tmp_path / "remote")
        assert cli.main(["attack", config_path, "--out-dir", out_remote,
                         "--transport", server.url]) == 0
    finally:
        server.shutdown()
    with open(os.path.join(out_local, "report.csv")) as fa:
        with open(os.path.join(out_remote, "report.csv")) as fb:
            assert fa.read() == fb.read()


def test_serve_blocks_and_answers(cli_setup, capsys, monkeypatch):
    d, config_path, config = cli_setup
    # run the blocking serve command on a thread, then health-check it at
    # the URL it prints; an interrupt then stops it the way Ctrl-C would
    stop = threading.Event()

    def interruptible(server):
        if stop.is_set():
            raise KeyboardInterrupt

    monkeypatch.setattr(service.Server, "service_actions", interruptible)
    status = []
    thread = threading.Thread(
        target=lambda: status.append(cli.main(
            ["serve", config_path, "--host", "127.0.0.1", "--port", "0"])),
        daemon=True)
    thread.start()
    deadline, out = time.time() + 30, ""
    while "serving" not in out and time.time() < deadline:
        time.sleep(0.05)
        out += capsys.readouterr().out
    line = next(s for s in out.splitlines() if s.startswith("serving"))
    url = line.rsplit(" on ", 1)[1]
    assert url.startswith("http://127.0.0.1:") and not url.endswith(":0")
    assert service.fetch_health(url, max_retries=1, timeout=5.0)
    stop.set()
    thread.join(timeout=10)
    assert not thread.is_alive() and status == [0]
    assert not service.fetch_health(url, max_retries=1, timeout=1.0)


@pytest.mark.parametrize("in_use", [True, False])
def test_serve_on_a_port_it_cannot_bind_is_serve_error(cli_setup, capsys, monkeypatch,
                                                        in_use):
    _, config_path, _ = cli_setup
    monkeypatch.setattr(pipeline, "prepare",
                        lambda cfg: pytest.fail("the target trained before the bind"))
    with socket.socket() as busy:
        busy.bind(("127.0.0.1", 0))
        busy.listen()
        port = busy.getsockname()[1] if in_use else 70000  # OverflowError
        assert cli.main(["serve", config_path, "--port", str(port)]) == 2
    captured = capsys.readouterr()
    assert "error [stage=serve]" in captured.err and f"127.0.0.1:{port}" in captured.err
    assert "serving" not in captured.out


def test_serve_that_fails_after_the_bind_frees_the_port(cli_setup, tmp_path, capsys,
                                                        monkeypatch):
    _, _, config = cli_setup
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(dict(config, dataset_csv=str(tmp_path / "nope.csv"))))
    with socket.socket() as probe:  # a port that is free now
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    prepare, bound = pipeline.prepare, []

    def prepare_once_bound(cfg):
        with socket.create_connection(("127.0.0.1", port), timeout=5):
            bound.append(True)  # the port listens before any training
        return prepare(cfg)

    monkeypatch.setattr(pipeline, "prepare", prepare_once_bound)
    status = []
    thread = threading.Thread(
        target=lambda: status.append(cli.main(["serve", str(path), "--port", str(port)])),
        daemon=True)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive() and status == [2] and bound == [True]
    assert "error [stage=load]" in capsys.readouterr().err
    with socket.socket() as again:  # raises if the port is still held
        again.bind(("127.0.0.1", port))


def _serve_target(config, **overrides):
    """Serve the target that config, with overrides, trains in process."""
    cfg = pipeline.expand_matrix(dict(config, **overrides))[0]
    prep = pipeline.prepare(cfg)
    server = service.serve(prep.model, prep.baseline, cfg.explainer_config,
                           target=cfg.scalar_target)
    return prep, server


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_remote_run_trains_no_target(cli_setup, tmp_path, monkeypatch):
    _, _, config = cli_setup
    # a forest attack, so that nothing in the remote run may call nn.train
    forest = dict(config, attack_kind="forest", forest_trees=5)
    path = tmp_path / "forest.json"
    path.write_text(json.dumps(forest))
    out_local, out_remote = str(tmp_path / "local"), str(tmp_path / "remote")
    assert cli.main(["attack", str(path), "--out-dir", out_local]) == 0

    def no_training(*args, **kwargs):
        raise AssertionError("a remote run trained a model")

    _, server = _serve_target(forest)
    monkeypatch.setattr(nn, "train", no_training)
    try:
        assert cli.main(["attack", str(path), "--out-dir", out_remote,
                         "--transport", server.url]) == 0
    finally:
        server.shutdown()
    assert (_read(os.path.join(out_remote, "report.csv"))
            == _read(os.path.join(out_local, "report.csv")))


def test_remote_run_reports_served_model_accuracy(cli_setup, tmp_path):
    _, config_path, config = cli_setup
    # the served model has model_seed 4; the config asks for seed 1
    served, server = _serve_target(config, model_seed=4)
    try:
        out = str(tmp_path / "remote")
        assert cli.main(["attack", config_path, "--out-dir", out,
                         "--transport", server.url, "--model-seed", "1"]) == 0
    finally:
        server.shutdown()
    unserved = pipeline.prepare(pipeline.expand_matrix(dict(config, model_seed=1))[0])
    assert unserved.test_accuracy != served.test_accuracy
    with open(os.path.join(out, "report.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["target_test_accuracy"] for r in rows] == [repr(served.test_accuracy)]
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["cells"][0]["target_test_accuracy"] == served.test_accuracy


def test_remote_report_echoes_the_local_explainer_seed(cli_setup, tmp_path):
    """The server draws noise from its own explainer_seed; a remote report's
    seed columns and config give the local config's values all the same."""
    _, _, config = cli_setup
    smooth = dict(config, explainer="smoothgrad", explanation_target="probability",
                  explainer_seed=3)
    path = tmp_path / "smooth.json"
    path.write_text(json.dumps(smooth))
    local, remote = str(tmp_path / "local"), str(tmp_path / "remote")
    for args in (["explain"], ["explain", "--explainer-seed", "9"],
                 ["attack", "--explainer-seed", "9"]):
        assert cli.main([*args, str(path), "--out-dir", local]) == 0
    _, server = _serve_target(smooth, explainer_seed=9)
    try:
        for command in ("explain", "attack"):
            assert cli.main([command, str(path), "--out-dir", remote,
                             "--transport", server.url]) == 0
    finally:
        server.shutdown()
    # the explanations are the served seed's, under the local seed's name
    for split in ("aux", "eval"):
        name = f"explanations-tm1-smoothgrad-s0m1e{{}}-{split}.csv"
        fetched = _read(os.path.join(remote, name.format(3)))
        assert fetched == _read(os.path.join(local, name.format(9)))
        assert fetched != _read(os.path.join(local, name.format(3)))
    with open(os.path.join(local, "report.csv"), encoding="utf-8") as fh:
        local_rows = list(csv.DictReader(fh))
    with open(os.path.join(remote, "report.csv"), encoding="utf-8") as fh:
        remote_rows = list(csv.DictReader(fh))
    assert [r["explainer_seed"] for r in local_rows] == ["9"]
    assert [r["explainer_seed"] for r in remote_rows] == ["3"]
    assert [dict(r, explainer_seed="9") for r in remote_rows] == local_rows
    with open(os.path.join(remote, "manifest.json"), encoding="utf-8") as fh:
        cell = json.load(fh)["cells"][0]["config"]
    assert cell["explainer_seed"] == 3 and cell["transport"] == server.url


def test_remote_explain_with_a_short_answer_is_explain_error(cli_setup, tmp_path, capsys,
                                                            monkeypatch):
    _, config_path, config = cli_setup
    explain_ = service._Endpoints.explain

    def short(self, body):
        out = explain_(self, body)
        out["explanations"] = out["explanations"][:-1]
        return out

    _, server = _serve_target(config)
    monkeypatch.setattr(service._Endpoints, "explain", short)
    try:
        out = str(tmp_path / "remote")
        assert cli.main(["explain", config_path, "--out-dir", out,
                         "--transport", server.url]) == 2
    finally:
        server.shutdown()
    err = capsys.readouterr().err
    assert "error [stage=explain]" in err and "explanations for" in err
    assert not os.path.exists(out)


def test_remote_explanation_files_match_in_process(cli_setup, tmp_path):
    _, _, config = cli_setup
    tm2 = dict(config, threat_model="tm2", explainer="smoothgrad",
               explanation_target="probability", surfaces=["phi_non_sensitive"])
    path = tmp_path / "tm2.json"
    path.write_text(json.dumps(tm2))
    local, remote = str(tmp_path / "local"), str(tmp_path / "remote")
    assert cli.main(["explain", str(path), "--out-dir", local]) == 0
    _, server = _serve_target(tm2)
    try:
        assert cli.main(["explain", str(path), "--out-dir", remote,
                         "--transport", server.url]) == 0
    finally:
        server.shutdown()
    names = sorted(os.listdir(local))
    assert names == sorted(os.listdir(remote)) and len(names) == 2
    for name in names:
        with open(os.path.join(local, name), "rb") as fa:
            with open(os.path.join(remote, name), "rb") as fb:
                expected = fa.read()
                assert fb.read() == expected, name
        assert expected.split(b"\n")[1].split(b",")[1:3] == [b"smoothgrad", b"probability"]


@pytest.mark.parametrize("command", ["train", "serve", "explain", "audit"])
def test_commands_that_attack_nothing_make_no_predictions(cli_setup, tmp_path,
                                                          monkeypatch, command):
    _, _, config = cli_setup
    defaults = dict(config, output_dir=str(tmp_path / "out"))
    del defaults["surfaces"]  # the default surfaces take predictions
    path = tmp_path / "defaults.json"
    path.write_text(json.dumps(defaults))
    predicted, forward_rows = [], nn.forward_rows
    monkeypatch.setattr(nn, "forward_rows",
                        lambda *args: predicted.append(args) or forward_rows(*args))
    monkeypatch.setattr(service.Server, "serve_forever", lambda self, poll: None)
    assert cli.main([command, str(path), "--port", "0"] if command == "serve"
                    else [command, str(path)]) == 0
    # explain_batch's calls for the deltas name a target
    assert [args for args in predicted if len(args) == 2] == []


@pytest.mark.parametrize("command", ["train", "serve"])
def test_train_and_serve_refuse_remote_transport(cli_setup, capsys, monkeypatch,
                                                 command):
    _, config_path, _ = cli_setup

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the transport was checked")

    monkeypatch.setattr(pipeline, "prepare", no_work)
    monkeypatch.setattr(service, "serve", no_work)
    assert cli.main([command, config_path, "--transport", "http://127.0.0.1:9"]) == 2
    assert "error [stage=config]" in capsys.readouterr().err


def test_train_and_explain_on_a_seed_matrix(cli_setup, tmp_path, monkeypatch):
    _, _, config = cli_setup
    out = str(tmp_path / "matrix")
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(dict(config, model_seed=[1, 2], explainer_seed=[3, 4],
                                    output_dir=out)))
    prepared, written, models = [], [], {}
    real_prepare = pipeline.prepare

    def counting_prepare(cfg):
        prepared.append(cfg.model_seed)
        prep = real_prepare(cfg)
        models.setdefault(cfg.model_seed, prep.model)
        return prep

    def recording(write, path_arg):
        def wrapper(*args):
            written.append(args[path_arg])
            return write(*args)
        return wrapper

    monkeypatch.setattr(pipeline, "prepare", counting_prepare)
    monkeypatch.setattr(nn, "save_model", recording(nn.save_model, 1))
    monkeypatch.setattr(data, "write_csv", recording(data.write_csv, 0))

    assert cli.main(["train", str(path)]) == 0
    assert prepared == [1, 2]
    assert sorted(os.listdir(out)) == [
        "baseline-tm1-s0m1.csv", "baseline-tm1-s0m2.csv",
        "target-tm1-s0m1.npz", "target-tm1-s0m2.npz"]
    for seed in (1, 2):
        saved = nn.load_model(os.path.join(out, f"target-tm1-s0m{seed}.npz"))
        assert all(np.array_equal(a, b) for a, b in zip(saved.weights, models[seed].weights))

    assert cli.main(["explain", str(path)]) == 0
    assert prepared == [1, 2, 1, 2]
    names = sorted(f"explanations-tm1-deeplift-s0m{m}e{e}-{split}.csv"
                   for m in (1, 2) for e in (3, 4) for split in ("aux", "eval"))
    assert sorted(f for f in os.listdir(out) if f.startswith("explanations-")) == names
    # every file was written once: 2 targets with their baselines, then 4
    # explanation sets
    assert len(written) == len(set(written)) == 2 * 2 + len(names)
