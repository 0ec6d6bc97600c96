import contextlib
import csv
import io
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from explinfer import cli, data, nn, pipeline, service
from explinfer import explain as explain_mod
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
    assert cli.main(["experiment", config_path]) == 0
    assert os.path.exists(os.path.join(config["output_dir"], "report.csv"))
    out = capsys.readouterr().out
    assert "F1=" in out


def test_audit_emits_correlations(cli_setup, capsys):
    d, config_path, config = cli_setup
    assert cli.main(["audit", config_path]) == 0
    assert os.path.exists(os.path.join(config["output_dir"], "correlations.csv"))


def test_audit_writes_each_explanation_set_once(cli_setup, tmp_path):
    """Cells that differ only in attack_kind share one explanation set, so
    the audit writes its four groups once."""
    _, _, config = cli_setup
    path = tmp_path / "kinds.json"
    path.write_text(json.dumps(dict(config, attack_kind=["mlp", "forest"])))
    out = str(tmp_path / "audit")
    assert cli.main(["audit", str(path), "--out-dir", out]) == 0
    with open(os.path.join(out, "correlations.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["group"] for r in rows] == ["y", "x", "phi_sensitive", "phi_non_sensitive"]


def test_experiment_full_run(cli_setup, capsys):
    d, config_path, config = cli_setup
    assert cli.main(["experiment", config_path]) == 0
    out_dir = config["output_dir"]
    for name in ("report.csv", "summary.json", "manifest.json",
                 "correlations.csv"):
        assert os.path.exists(os.path.join(out_dir, name))


@pytest.mark.parametrize("colliding", [False, True])
def test_every_file_a_view_writes_goes_through_emit(cli_setup, tmp_path, capsys, monkeypatch,
                                                     colliding):
    """Each view writes by one pipeline.emit call: its output directory holds
    exactly the names it gave emit, and every path its stdout names exists.
    With two attack kinds the forest's curve and prediction files take the
    MLP's names, so 4 report rows have 2 curve files."""
    _, config_path, config = cli_setup
    if colliding:
        config_path = str(tmp_path / "kinds.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(dict(config, attack_kind=["mlp", "forest"], forest_trees=5,
                           surfaces=["phi_all", "phi_sensitive"]), fh)
    emitted, emit = [], pipeline.emit

    def recorded(directory, files, lines):
        emitted.append((directory, list(files)))
        emit(directory, files, lines)

    monkeypatch.setattr(pipeline, "emit", recorded)
    for command in ("train", "explain", "audit", "experiment"):
        out = str(tmp_path / command)
        capsys.readouterr()
        assert cli.main([command, config_path, "--out-dir", out]) == 0
        [(directory, names)] = emitted
        emitted.clear()
        assert directory == out
        assert sorted(os.listdir(out)) == sorted(names)
        for line in capsys.readouterr().out.splitlines():
            if " -> " in line:
                assert os.path.isfile(line.split(" -> ", 1)[1]), line
    with open(os.path.join(out, "report.csv"), encoding="utf-8") as fh:
        n_rows = len(list(csv.DictReader(fh)))
    n_curves = sum(name.startswith("prcurve-") for name in os.listdir(out))
    assert (n_rows, n_curves) == ((4, 2) if colliding else (1, 1))


def test_in_process_commands_leave_the_http_stack_unloaded(cli_setup, tmp_path):
    """train, explain, audit and experiment in process load neither the
    service nor the standard library's HTTP and TLS modules, nor numpy.ma
    where import numpy leaves it unloaded (numpy 2 loads it lazily, for
    about 1 MB). They run in a fresh interpreter, since this one has
    imported the service."""
    _, config_path, _ = cli_setup
    script = (
        "import json, sys\n"
        "import numpy\n"
        "unread = {'ssl', 'http.client', 'http.server', 'explinfer.service'}\n"
        "unread |= {'numpy.ma'} - set(sys.modules)  # numpy 1 imports it eagerly\n"
        "from explinfer import cli\n"
        "for command in ('train', 'explain', 'audit', 'experiment'):\n"
        f"    assert cli.main([command, {config_path!r}, '--out-dir', {str(tmp_path)!r}]) == 0\n"
        "print(json.dumps(sorted(unread & set(sys.modules))))\n")
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=package_root), timeout=300)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == []


def test_seed_override_changes_report(cli_setup, tmp_path):
    d, config_path, config = cli_setup
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert cli.main(["experiment", config_path, "--out-dir", out_a]) == 0
    assert cli.main(["experiment", config_path, "--out-dir", out_b,
                     "--split-seed", "99"]) == 0
    with open(os.path.join(out_a, "report.csv")) as fa:
        with open(os.path.join(out_b, "report.csv")) as fb:
            assert fa.read() != fb.read()


def test_invalid_config_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert cli.main(["experiment", str(bad)]) == 2
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
    # the name goes unquoted into CSV rows and output file names
    {"dataset_name": "a,b"}, {"dataset_name": "x\ny"}, {"dataset_name": "x\ry"},
    {"dataset_name": "a/b"}, {"dataset_name": '"a'},
    {"model_seed": []}, {"threat_model": []}, {"attack_kind": []},
    {"surfaces": ["phi_all", "phi_all"]}, {"attack_kind": "svm"},
    {"output_dir": os.devnull},  # exists, and is not a directory
    # a repeated matrix value would make two identical cells, rows and file names
    {"explainer": ["deeplift", "deeplift"]}, {"model_seed": [1, 1]},
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


def test_dataset_name_derived_from_a_csv_name_with_a_comma_is_config_error(
        cli_setup, tmp_path, capsys, monkeypatch):
    _, _, config = cli_setup
    monkeypatch.setattr(pipeline, "prepare", lambda cfg: pytest.fail("work started"))
    renamed = tmp_path / "my,data.csv"
    with open(config["dataset_csv"], "rb") as fh:
        renamed.write_bytes(fh.read())
    path = tmp_path / "name.json"
    path.write_text(json.dumps(dict(config, dataset_csv=str(renamed))))
    assert cli.main(["experiment", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [stage=config] dataset name 'my,data'")
    assert "set dataset_name" in err


@pytest.mark.parametrize("transport", ["inprocess", "ftp://x/", "http://",
                                       "http://127.0.0.1:99999"])
def test_malformed_transport_is_config_error_before_the_csv_is_read(
        cli_setup, tmp_path, capsys, monkeypatch, transport):
    _, config_path, _ = cli_setup
    monkeypatch.setattr(pipeline, "prepare", lambda cfg: pytest.fail("work started"))
    assert cli.main(["explain", config_path, "--transport", transport,
                     "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [stage=config] ") and repr(transport) in err


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


def test_csv_without_a_usable_row_is_load_error(cli_setup, tmp_path, capsys):
    _, _, config = cli_setup
    with open(config["dataset_csv"], encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    # every row misses its first value, x0
    missing = tmp_path / "missing.csv"
    missing.write_text("\n".join([header, *("?" + row[row.index(","):] for row in rows)]))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(config, dataset_csv=str(missing))))
    assert cli.main(["experiment", str(path)]) == 2
    assert "error [stage=load] no usable rows" in capsys.readouterr().err


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


def _stage_error(err: str, stage: str | None) -> str:
    """The one diagnostic line of a failed run, which names a stage: `stage`,
    if given. Other stderr lines, such as numpy's warnings, may surround it."""
    lines = [line for line in err.splitlines() if line.startswith("error")]
    assert "Traceback" not in err and len(lines) == 1, err
    named = re.match(r"error \[stage=([a-z-]+)\] ", lines[0])
    assert named and stage in (None, named.group(1)), err
    return lines[0]


@pytest.mark.filterwarnings("error")  # the divergence is reported once, by the error line
def test_attack_that_diverges_is_attack_error(cli_setup, tmp_path, capsys):
    _, _, config = cli_setup
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps(dict(config, attack_learning_rate=1e308,
                                    output_dir=str(tmp_path / "out"))))
    assert cli.main(["experiment", str(path)]) == 2
    line = _stage_error(capsys.readouterr().err, "attack")
    assert line.startswith("error [stage=attack] surface phi_all: non-finite training loss")


@pytest.mark.parametrize("stage", ["train-target", "explain", "attack"])
def test_memory_error_is_the_failing_stage_error(cli_setup, tmp_path, capsys, monkeypatch,
                                                 stage):
    """numpy raises MemoryError when it cannot allocate; one without a
    message is named by its type."""
    _, config_path, _ = cli_setup
    init_model, calls = nn.init_model, []

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    def init_model_once_out_of_memory(*args, **kwargs):
        calls.append(args)  # the target's model first, then the attack's
        if len(calls) == (1 if stage == "train-target" else 2):
            raise MemoryError
        return init_model(*args, **kwargs)

    if stage == "explain":
        monkeypatch.setattr(explain_mod, "explain_batch", out_of_memory)
    else:
        monkeypatch.setattr(nn, "init_model", init_model_once_out_of_memory)
    assert cli.main(["experiment", config_path, "--out-dir", str(tmp_path)]) == 2
    line = _stage_error(capsys.readouterr().err, stage)
    assert line.endswith("MemoryError")


def test_explanation_too_large_for_memory_is_explain_error(cli_setup, tmp_path):
    """ig_steps of 10**12 asks numpy for terabytes. The child process caps its
    address space, so that the allocation fails with a MemoryError rather
    than being granted and then killed for want of memory."""
    _, _, config = cli_setup
    path = tmp_path / "steps.json"
    path.write_text(json.dumps(dict(config, explainer="integrated_gradients",
                                    ig_steps=10**12, output_dir=str(tmp_path / "out"))))
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
        "from explinfer import cli\n"
        f"sys.exit(cli.main(['experiment', {str(path)!r}]))\n")
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    # one BLAS thread, so that its buffers fit in the cap on a host of many cores
    env = dict(os.environ, PYTHONPATH=package_root, OPENBLAS_NUM_THREADS="1")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, timeout=300)
    assert result.returncode == 2, result.stderr
    _stage_error(result.stderr, "explain")


@pytest.mark.parametrize("command", ["train", "explain", "audit", "experiment"])
@pytest.mark.parametrize("beneath_a_file", [False, True])
def test_output_dir_that_cannot_be_a_directory_is_config_error(
        cli_setup, tmp_path, capsys, monkeypatch, command, beneath_a_file):
    _, config_path, _ = cli_setup
    monkeypatch.setattr(pipeline, "prepare", lambda cfg: pytest.fail("work started"))
    file = tmp_path / "file"
    file.write_text("")
    out_dir = file / "out" if beneath_a_file else file
    assert cli.main([command, config_path, "--out-dir", str(out_dir)]) == 2
    _stage_error(capsys.readouterr().err, "config")


def test_failed_write_is_emit_error(cli_setup, tmp_path, capsys, monkeypatch):
    """A write that fails after every stage ran is named as emit."""
    _, config_path, _ = cli_setup

    def full_disk(path, rows):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(data, "write_csv", full_disk)
    for command in ("train", "explain", "audit", "experiment"):
        assert cli.main([command, config_path, "--out-dir", str(tmp_path)]) == 2
        line = _stage_error(capsys.readouterr().err, "emit")
        assert line.endswith("No space left on device")


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("command", ["train", "explain", "audit", "experiment"])
def test_closed_stdout_is_emit_error(cli_setup, tmp_path, capsys, monkeypatch, command):
    """A subcommand's lines on stdout are output too, such as into `| head`."""
    _, config_path, _ = cli_setup
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert cli.main([command, config_path, "--out-dir", str(tmp_path)]) == 2
    assert _stage_error(capsys.readouterr().err, "emit").endswith("Broken pipe")


# JSON values of the wrong type for any field; sizes are small or refused
_WRONG = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=3),
    st.lists(st.one_of(st.none(), st.text(max_size=2), st.lists(st.integers(0, 2),
                                                                max_size=2)), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1),
    st.integers(max_value=-1))
_SMALL = st.integers(0, 3)  # of a field that sizes an allocation or a loop
_HUGE = st.integers(-1, 2**70)  # of a field that sizes nothing
_NUMBER = st.one_of(st.floats(), st.integers(-1, 2), st.sampled_from([1e308, 10**400]))


def _or_wrong(values):
    # half and half; one_of would flatten _WRONG's branches and draw it 7 times in 8
    return st.booleans().flatmap(lambda wrong: _WRONG if wrong else values)


def _choice(*values):
    return _or_wrong(st.sampled_from(values))


def _matrix(values):
    return st.one_of(values, st.lists(values, max_size=2))


def _generated_fields(config, d):
    """A strategy for an override of one or two ExperimentConfig fields."""
    file = os.path.join(d, "config.json")
    fields = {
        "dataset_csv": _choice(config["dataset_csv"], "", os.path.join(d, "none.csv"), d),
        "schema": _choice(config["schema"], "", file, d),
        "threat_model": _matrix(_choice("tm1", "tm2")),
        "explainer": _matrix(_choice("integrated_gradients", "deeplift", "gradient_shap",
                                     "smoothgrad")),
        "surfaces": _or_wrong(st.lists(_choice("phi_all", "phi_sensitive",
                                               "phi_non_sensitive", "pred_plus_phi",
                                               "pred_only"), max_size=3)),
        "attack_kind": _matrix(_choice("mlp", "forest")),
        "dataset_name": _or_wrong(st.text(max_size=4)),
        **{name: _matrix(_or_wrong(_HUGE)) for name in (
            "split_seed", "model_seed", "attack_seed", "explainer_seed")},
        **{name: _or_wrong(st.lists(_SMALL, max_size=3)) for name in (
            "target_hidden", "attack_hidden")},
        **{name: _or_wrong(_SMALL) for name in (
            "target_epochs", "attack_epochs", "forest_trees", "ig_steps", "shap_samples",
            "smoothgrad_samples")},
        **{name: _or_wrong(_HUGE) for name in (
            "target_batch_size", "attack_batch_size", "forest_depth", "forest_min_leaf")},
        **{name: _or_wrong(_NUMBER) for name in (
            "target_learning_rate", "attack_learning_rate", "shap_stdev",
            "smoothgrad_sigma")},
        "explanation_target": _choice("logit", "probability"),
        "output_dir": _choice(os.path.join(d, "generated"), "", file,
                              os.path.join(file, "out")),
        # a string other than in_process is a URL, and a URL names a host:
        # only ones refused before any connection is made
        "transport": _choice("in_process", "", "ftp://localhost/", "not a url"),
    }
    one = st.sampled_from(sorted(fields)).flatmap(
        lambda name: st.fixed_dictionaries({name: fields[name]}))
    return st.lists(one, min_size=1, max_size=2).map(
        lambda parts: {k: v for part in parts for k, v in part.items()})


def test_generated_config_ends_in_a_result_or_one_named_stage(cli_setup, monkeypatch):
    """Any value of any config field ends in exit 0, or in exit 2 with one
    `error [stage=...]` line: never in an exception out of cli.main."""
    d, _, config = cli_setup
    monkeypatch.chdir(d)  # a generated relative path names a file in d
    path = os.path.join(d, "generated.json")

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_generated_fields(config, d))
    def run(override):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**config, "output_dir": os.path.join(d, "generated"), **override}, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = cli.main(["experiment", path])
        assert status in (0, 2), err.getvalue()
        if status == 2:
            _stage_error(err.getvalue(), None)

    run()


_ABSENT = object()  # a schema field left out of the file


def _generated_schema_fields(raw):
    """A strategy for an override of one or two fields of the schema file
    `raw`; a field drawn as _ABSENT is left out."""
    names = _choice("x0", "x1", "x2", "group", "flag", "outcome", "", "nonesuch")
    cells = _choice(None, "yes", "no", "a", "0", "1", "")  # sensitive and label cells
    column = _or_wrong(st.fixed_dictionaries(
        {"name": names, "kind": _choice("numeric", "categorical", "", "ordinal")}))
    fields = {
        "columns": _or_wrong(st.one_of(
            st.lists(column, max_size=5),
            # the file's columns with one entry replaced, or one repeated
            st.tuples(st.integers(0, len(raw["columns"]) - 1), column).map(
                lambda at: [*raw["columns"][:at[0]], at[1], *raw["columns"][at[0] + 1:]]),
            st.sampled_from(raw["columns"]).map(lambda c: [*raw["columns"], c]))),
        "label_column": names,
        "sensitive_column": names,
        "sensitive_positive_value": cells,
        "label_positive_value": cells,
        "binarization_map": _or_wrong(st.dictionaries(
            st.sampled_from(["yes", "no", "a", ""]),
            st.one_of(st.integers(-1, 2), st.booleans(), st.floats(), st.none(),
                      st.text(max_size=2), st.sampled_from([2**70, 10**400, [1]])),
            max_size=3)),
    }
    one = st.sampled_from(sorted(fields)).flatmap(
        lambda name: st.fixed_dictionaries({name: st.one_of(st.just(_ABSENT), fields[name])}))
    return st.lists(one, min_size=1, max_size=2).map(
        lambda parts: {k: v for part in parts for k, v in part.items()})


def test_generated_schema_ends_in_a_result_or_one_named_stage(cli_setup):
    """Any value of any schema-file field ends in exit 0, or in exit 2 with
    one `error [stage=...]` line: never in an exception out of cli.main."""
    d, _, config = cli_setup
    with open(config["schema"], encoding="utf-8") as fh:
        raw = json.load(fh)
    schema_path, path = os.path.join(d, "generated_schema.json"), os.path.join(d, "generated.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**config, "schema": schema_path,
                   "output_dir": os.path.join(d, "generated")}, fh)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_generated_schema_fields(raw))
    def run(override):
        with open(schema_path, "w", encoding="utf-8") as fh:
            json.dump({k: v for k, v in {**raw, **override}.items() if v is not _ABSENT}, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = cli.main(["experiment", path])
        assert status in (0, 2), err.getvalue()
        if status == 2:
            _stage_error(err.getvalue(), None)

    run()


def test_transport_override_matches_in_process(cli_setup, tmp_path):
    d, config_path, config = cli_setup
    out_local = str(tmp_path / "local")
    assert cli.main(["experiment", config_path, "--out-dir", out_local]) == 0

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
        assert cli.main(["experiment", config_path, "--out-dir", out_remote,
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
    assert cli.main(["experiment", str(path), "--out-dir", out_local]) == 0

    def no_training(*args, **kwargs):
        raise AssertionError("a remote run trained a model")

    _, server = _serve_target(forest)
    monkeypatch.setattr(nn, "train", no_training)
    try:
        assert cli.main(["experiment", str(path), "--out-dir", out_remote,
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
        assert cli.main(["experiment", config_path, "--out-dir", out,
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
    assert [t["target_test_accuracy"] for t in manifest["targets"]] == [served.test_accuracy]


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
                 ["experiment", "--explainer-seed", "9"]):
        assert cli.main([*args, str(path), "--out-dir", local]) == 0
    _, server = _serve_target(smooth, explainer_seed=9)
    try:
        for command in ("explain", "experiment"):
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
        [cell] = json.load(fh)["cells"]
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
