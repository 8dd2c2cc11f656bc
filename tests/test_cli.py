import base64
import dataclasses
import csv
import functools
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradlink import cli
from gradlink.cli import EXIT_DIVERGED, EXIT_OK, EXIT_USAGE, main
from gradlink.config import METHODS, load_experiment, parse_experiment
from gradlink.corpus import SyntheticSpec, generate_synthetic
from gradlink.dp import DpConfig
from gradlink.errors import ConfigError, InputError, UsageError
from gradlink.fedsim import FedConfig, run_simulation
from gradlink.model import ModelConfig, layer_names
from gradlink.report import build_report, read_sidecar, render_report, write_sidecar
from gradlink.traceio import (
    TraceStore,
    read_assignment,
    read_trace,
    read_trace_header,
    write_assignment,
    write_trace,
)


def _base_config(**overrides):
    doc = {
        "seed": 0,
        "fed": {"clients": 3, "rounds": 4, "batch_size": 8},
        "model": {"embed_dim": 8, "context": 3, "n_blocks": 2, "ffn_mult": 2},
        "data": {"synthetic": {"train_sentences": 12, "valid_sentences": 3, "overlap": 0.0}},
        "attack": {"method": "greedy", "selector": "both"},
    }
    doc.update(overrides)
    return doc


def _write_config(tmp_path, doc, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


def _run_trace(k=3, t=4, seed=0):
    spec = SyntheticSpec(n_clients=k, train_sentences=12, valid_sentences=3, overlap=0.0)
    shards, vocab = generate_synthetic(spec, seed)
    fed = FedConfig(clients=k, rounds=t, seed=seed)
    mcfg = ModelConfig(vocab_size=vocab.size, embed_dim=8, context=3, n_blocks=2, ffn_mult=2)
    return run_simulation(fed, mcfg, shards)


# ---------------------------------------------------------------- trace / sidecar io


def test_trace_round_trip_is_exact(tmp_path):
    trace, _, _ = _run_trace()
    path = tmp_path / "trace.jsonl"
    write_trace(path, trace)
    back = read_trace(path)
    assert (back.clients, back.rounds, back.seed) == (trace.clients, trace.rounds, trace.seed)
    assert back.layer_manifest == trace.layer_manifest
    assert back.loss_curve == trace.loss_curve
    assert (back.dp, back.dp_steps, back.dp_sample_rate) == (None, None, None)
    assert back.updates.dtype == np.float32
    np.testing.assert_array_equal(back.updates, trace.updates)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2 and json.loads(lines[0])["format_version"] == 2
    assert path.read_bytes().isascii()


def test_sidecar_round_trip_and_validation(tmp_path):
    _, truth, _ = _run_trace()
    path = tmp_path / "sidecar.json"
    write_sidecar(path, truth)
    back = read_sidecar(path)
    assert back.dtype == np.int64
    np.testing.assert_array_equal(back, truth)
    for bad in ('{"rounds": [[0, 0, 2]]}', '{"rounds": [[0.9, 1, 2.2], [true, 0, 2]]}',
                '{"rounds": [[0, 1.0]]}', '{"rounds": [["0", 1]]}', '{"rounds": [0, 1]}',
                '{"rounds": {}}', '[[0, 1]]', '{}',
                '{"rounds": [[0, 1], [0, 1, 2]]}', '{"rounds": []}'):
        path.write_text(bad, encoding="utf-8")
        with pytest.raises(InputError):
            read_sidecar(path)


def test_report_pairs_labels_with_records_in_round_slot_order():
    """Assignment label i belongs to trace row i, in (round, slot) order, so
    labels equal to the truth read row by row score perfectly, and the same
    labels read column by column do not."""
    truth = np.array([[0, 1, 2], [1, 2, 0]])
    header = {"clients": 3, "rounds": 2, "seed": 0, "loss_curve": [1.0, 1.0, 1.0],
              "dp": None, "dp_sample_rate": None, "dp_steps": None}

    def report(labels):
        assignment = {"clients": 3, "rounds": 2, "method": "greedy", "selector": "both",
                      "labels": labels}
        return build_report(header, assignment, truth)["metrics"]["purity"]

    assert report(truth.ravel().tolist()) == 1.0
    assert report(truth.T.ravel().tolist()) < 1.0
    with pytest.raises(InputError):
        build_report(header, {"clients": 3, "rounds": 2, "labels": [0] * 6}, truth.T)


def test_assignment_round_trip(tmp_path):
    path = tmp_path / "assignment.json"
    write_assignment(path, [0, 1, 2, 2, 1, 0], clients=3, rounds=2,
                     method="greedy", selector="both")
    doc = read_assignment(path)
    assert doc["labels"] == [0, 1, 2, 2, 1, 0]
    assert doc["method"] == "greedy"
    with pytest.raises(InputError):
        read_assignment(tmp_path / "nope.json")


def test_truncated_trace_rejected(tmp_path):
    trace, _, _ = _run_trace()
    path = tmp_path / "trace.jsonl"
    write_trace(path, trace)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    with pytest.raises(InputError):
        read_trace(path)


def _attack_code(tmp_path, path, method="greedy"):
    out = tmp_path / f"assignment_{method}.json"
    return main(["attack", "--trace", str(path), "--method", method, "--out", str(out)])


def _edited_trace(tmp_path, edit):
    """Write a 3x3 trace, then replace its lines with the lines that
    `edit(header_line, body_bytes, row_bytes)` returns."""
    trace, _, _ = _run_trace(k=3, t=3)
    path = tmp_path / "trace.jsonl"
    write_trace(path, trace)
    header_line, body_line = path.read_text(encoding="utf-8").splitlines()
    raw = base64.b64decode(json.loads(body_line))
    path.write_text(
        "\n".join(edit(header_line, raw, trace.updates.shape[1] * 4)) + "\n", encoding="utf-8"
    )
    return path


def _b64(raw):
    return json.dumps(base64.b64encode(raw).decode("ascii"))


MALFORMED_TRACES = {
    "body-one-row-short": lambda h, raw, row: [h, _b64(raw[:-row])],
    "body-one-row-long": lambda h, raw, row: [h, _b64(raw + raw[:row])],
    "body-not-whole-float32": lambda h, raw, row: [h, _b64(raw[:-1])],
    "body-invalid-base64": lambda h, raw, row: [h, _b64(raw)[:9] + "*" + _b64(raw)[10:]],
    "body-not-a-string": lambda h, raw, row: [h, "[1, 2, 3]"],
    "third-line": lambda h, raw, row: [h, _b64(raw), _b64(raw)],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TRACES))
def test_malformed_v2_trace_is_exit_2(tmp_path, capsys, case):
    path = _edited_trace(tmp_path, MALFORMED_TRACES[case])
    assert _attack_code(tmp_path, path) == EXIT_USAGE
    assert "malformed trace file" in capsys.readouterr().err


def test_v1_trace_is_exit_2_and_says_to_simulate_again(tmp_path, capsys):
    header = {"format_version": 1, "clients": 2, "rounds": 2, "seed": 0,
              "layer_manifest": [{"name": "block1.fc", "rows": 1, "cols": 2}],
              "dp": None, "dp_steps": None, "dp_sample_rate": None,
              "loss_curve": [1.0, 0.9, 0.8]}
    lines = [json.dumps(header)] + [
        json.dumps({"round": t, "slot": s, "layers": {"block1.fc": [0.5, -0.25]}})
        for t in range(2) for s in range(2)
    ]
    path = tmp_path / "trace.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert _attack_code(tmp_path, path) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "format version 1" in err and "gradlink simulate" in err


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("method", ["kmeans", "spectral", "greedy"])
def test_non_finite_trace_value_is_exit_2(tmp_path, capsys, method, value):
    def put_value(header_line, raw, row):
        body = np.frombuffer(raw, dtype="<f4").copy()
        body[row // 4 + 7] = value  # round 0, slot 1
        return [header_line, _b64(body.tobytes())]

    path = _edited_trace(tmp_path, put_value)
    assert _attack_code(tmp_path, path, method) == EXIT_USAGE
    assert "round 0 slot 1 holds a non-finite value" in capsys.readouterr().err


# ---------------------------------------------------------------- reader fuzz


def _file_bytes(write):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        write(path)
        return path.read_bytes()


@functools.cache
def _valid_trace_bytes():
    """A small valid trace file: K=2, T=3, DP on, 12 values per row."""
    rng = np.random.default_rng(0)
    trace = TraceStore(
        clients=2, rounds=3, seed=5,
        layer_manifest=[("block1.fc", 2, 4), ("block1.proj", 2, 2)],
        dp=DpConfig(clip=1.0, sigma=0.5), updates=rng.normal(size=(6, 12)).astype(np.float32),
        loss_curve=[2.0, 1.5, 1.25, 1.0], dp_steps=3, dp_sample_rate=0.5,
    )
    return _file_bytes(lambda path: write_trace(path, trace))


@functools.cache
def _valid_sidecar_bytes():
    truth = np.array([[1, 0, 2], [2, 0, 1]])
    return _file_bytes(lambda path: write_sidecar(path, truth))


@functools.cache
def _valid_assignment_bytes():
    return _file_bytes(lambda path: write_assignment(
        path, [0, 1, 1, 0, 0, 1], clients=2, rounds=3, method="kmeans", selector="fc"
    ))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**12) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)


def _paths(node, prefix=()):
    """Every key path into a JSON document, containers included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def corrupted(draw, valid_bytes, kinds=("truncate", "overwrite", "replace")):
    """A valid file truncated at a random byte, with a random byte
    overwritten, with a random value of its first line's JSON replaced, or
    (kind "value", traces only) with one body value set to a random float32."""
    data = valid_bytes()
    kind = draw(st.sampled_from(kinds))
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "overwrite":
        i = draw(st.integers(0, len(data) - 1))
        return data[:i] + bytes([draw(st.integers(0, 255))]) + data[i + 1 :]
    lines = data.split(b"\n")
    if kind == "value":
        body = np.frombuffer(base64.b64decode(json.loads(lines[1])), dtype="<f4").copy()
        body[draw(st.integers(0, body.size - 1))] = draw(st.floats(width=32))
        lines[1] = _b64(body.tobytes()).encode()
        return b"\n".join(lines)
    doc = json.loads(lines[0])
    path = draw(st.sampled_from([p for p in _paths(doc) if p]))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = draw(json_values)
    return b"\n".join([json.dumps(doc).encode()] + lines[1:])


def _read_fuzzed(tmp_path_factory, data, reader, errors=InputError):
    path = tmp_path_factory.getbasetemp() / "fuzzed"
    path.write_bytes(data)
    try:
        return reader(path)
    except errors:
        return None


def _check_trace_fields(fields):
    for value in (fields["clients"], fields["rounds"], fields["seed"]):
        assert isinstance(value, int) and not isinstance(value, bool)
    assert fields["clients"] >= 2 and fields["rounds"] >= 2 and fields["seed"] >= 0
    assert len(fields["loss_curve"]) == fields["rounds"] + 1
    assert fields["dp"] is None or isinstance(fields["dp"], DpConfig)


@settings(max_examples=300, deadline=None)
@given(data=corrupted(_valid_trace_bytes, ("truncate", "overwrite", "replace", "value")))
def test_fuzzed_trace_is_valid_or_input_error(tmp_path_factory, data):
    """Both readers: the full read, and the header read `report` uses,
    which must agree with it wherever the full read succeeds."""
    trace = _read_fuzzed(tmp_path_factory, data, read_trace)
    header = _read_fuzzed(tmp_path_factory, data, read_trace_header)
    if header is not None:
        _check_trace_fields(header)
    if trace is None:
        return
    assert isinstance(trace, TraceStore)
    assert header == {
        f.name: getattr(trace, f.name) for f in dataclasses.fields(trace) if f.name != "updates"
    }
    dim = sum(rows * cols for _, rows, cols in trace.layer_manifest)
    assert trace.updates.shape == (trace.clients * trace.rounds, dim)
    assert trace.updates.dtype == np.float32 and np.all(np.isfinite(trace.updates))


@settings(max_examples=300, deadline=None)
@given(data=corrupted(_valid_assignment_bytes))
def test_fuzzed_assignment_is_valid_or_input_error(tmp_path_factory, data):
    doc = _read_fuzzed(tmp_path_factory, data, read_assignment)
    if doc is None:
        return
    k, t = doc["clients"], doc["rounds"]
    assert all(type(v) is int for v in (k, t, *doc["labels"]))
    assert k >= 2 and t >= 2 and len(doc["labels"]) == k * t
    assert all(0 <= v < k for v in doc["labels"])
    assert isinstance(doc["method"], str) and isinstance(doc["selector"], str)


@settings(max_examples=300, deadline=None)
@given(data=corrupted(_valid_sidecar_bytes))
def test_fuzzed_sidecar_is_valid_or_input_error(tmp_path_factory, data):
    truth = _read_fuzzed(tmp_path_factory, data, read_sidecar)
    if truth is None:
        return
    stored = json.loads(data)["rounds"]
    assert truth.dtype == np.int64 and truth.ndim == 2 and truth.size > 0
    assert truth.tolist() == stored
    for r in stored:
        assert all(type(v) is int for v in r)
        assert sorted(r) == list(range(len(r)))


@functools.cache
def _valid_config_bytes():
    return json.dumps(_base_config(dp={"clip": 1.0, "sigma": 0.5})).encode()


def _is_int(value, minimum):
    return type(value) is int and value >= minimum


@settings(max_examples=300, deadline=None)
@given(data=corrupted(_valid_config_bytes))
def test_fuzzed_config_parses_or_is_config_error(tmp_path_factory, data):
    cfg = _read_fuzzed(tmp_path_factory, data, load_experiment, (ConfigError, UsageError))
    if cfg is None:
        return
    fed, model, spec = cfg.fed, cfg.model, cfg.data
    assert _is_int(fed.seed, 0)
    assert all(_is_int(getattr(fed, k), m) for k, m in
               [("clients", 2), ("rounds", 2), ("local_epochs", 0), ("batch_size", 1)])
    assert all(_is_int(getattr(model, k), 1) for k in
               ("embed_dim", "context", "n_blocks", "ffn_mult"))
    for value in (fed.client_lr, fed.server_lr):
        assert type(value) in (int, float) and math.isfinite(value)
    assert fed.client_lr > 0 and fed.server_lr >= 0
    assert isinstance(spec, SyntheticSpec) and spec.n_clients == fed.clients
    assert all(_is_int(getattr(spec, k), 0) for k in
               ("train_sentences", "valid_sentences", "topic_vocab_size", "shared_vocab_size"))
    assert all(_is_int(v, 2) for v in spec.sentence_len) and 0.0 <= spec.overlap <= 1.0
    if cfg.dp is not None:
        dp = cfg.dp
        assert all(type(v) in (int, float) and math.isfinite(v) for v in (dp.clip, dp.sigma, dp.delta))
        assert dp.clip > 0 and dp.sigma >= 0 and 0 < dp.delta < 1
    assert cfg.attack.method in METHODS and isinstance(cfg.attack.selector, str)
    layer_names(cfg.attack.selector, model.n_blocks)  # a config that loads has a usable selector


# ---------------------------------------------------------------- pipeline


def test_full_pipeline_and_report_round_trip(tmp_path, capsys):
    cfg = _write_config(tmp_path, _base_config())
    trace = tmp_path / "trace.jsonl"
    assignment = tmp_path / "assignment.json"
    report_path = tmp_path / "report.json"

    assert main(["simulate", "--config", str(cfg), "--out", str(trace)]) == EXIT_OK
    sidecar = tmp_path / "trace.jsonl.sidecar.json"
    assert sidecar.is_file()

    assert main([
        "attack", "--trace", str(trace), "--method", "greedy",
        "--selector", "both", "--out", str(assignment),
    ]) == EXIT_OK

    assert main([
        "report", "--trace", str(trace), "--assignment", str(assignment),
        "--sidecar", str(sidecar), "--out", str(report_path),
    ]) == EXIT_OK
    out = capsys.readouterr().out
    assert "Pur." in out and "random" in out

    report = json.loads(report_path.read_text())
    assert report["metrics"]["purity"] == pytest.approx(1.0)
    rendered = render_report(report)
    assert rendered == render_report(json.loads(report_path.read_text()))


def test_attack_runs_without_sidecar(tmp_path):
    """The attack consumes only the trace; deleting the truth sidecar must
    not affect it."""
    cfg = _write_config(tmp_path, _base_config())
    trace = tmp_path / "trace.jsonl"
    main(["simulate", "--config", str(cfg), "--out", str(trace)])
    (tmp_path / "trace.jsonl.sidecar.json").unlink()
    out = tmp_path / "assignment.json"
    assert main([
        "attack", "--trace", str(trace), "--method", "kmeans", "--out", str(out),
    ]) == EXIT_OK
    assert len(read_assignment(out)["labels"]) == 12


def test_simulate_seed_override_changes_trace(tmp_path):
    cfg = _write_config(tmp_path, _base_config())
    t1, t2, t3 = (tmp_path / f"t{i}.jsonl" for i in range(3))
    main(["simulate", "--config", str(cfg), "--out", str(t1)])
    main(["simulate", "--config", str(cfg), "--out", str(t2)])
    main(["simulate", "--config", str(cfg), "--out", str(t3), "--seed", "7"])
    assert t1.read_bytes() == t2.read_bytes()
    assert t1.read_bytes() != t3.read_bytes()


def test_simulate_seed_flag_equals_config_seed(tmp_path, capsys):
    flag, seeded = tmp_path / "flag.jsonl", tmp_path / "seeded.jsonl"
    cfg = _write_config(tmp_path, _base_config())
    assert main(["simulate", "--config", str(cfg), "--out", str(flag), "--seed", "7"]) == EXIT_OK
    cfg7 = _write_config(tmp_path, _base_config(seed=7), "config7.json")
    assert main(["simulate", "--config", str(cfg7), "--out", str(seeded)]) == EXIT_OK
    for suffix in ("", ".sidecar.json"):
        assert Path(f"{flag}{suffix}").read_bytes() == Path(f"{seeded}{suffix}").read_bytes()
    bad = tmp_path / "bad.jsonl"
    assert main(["simulate", "--config", str(cfg), "--out", str(bad), "--seed", "-1"]) == EXIT_USAGE
    assert "seed must be" in capsys.readouterr().err
    assert not bad.exists()


# ---------------------------------------------------------------- exit codes


def test_bad_config_is_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, _base_config(bogus_key=1))
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.jsonl")])
    assert code == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("fed", "rounds", 2.5),
    ("fed", "rounds", 4.0),
    ("fed", "clients", "3"),
    ("fed", "clients", True),
    ("fed", "local_epochs", 1.5),
    ("fed", "batch_size", "8"),
    (None, "seed", "x"),
    (None, "seed", 1.9),
    (None, "seed", False),
    (None, "seed", -1),
    ("model", "embed_dim", 2.5),
    ("model", "context", True),
    ("model", "n_blocks", "2"),
    ("model", "ffn_mult", 0),
    ("fed", "client_lr", float("nan")),
    ("fed", "client_lr", True),
    ("fed", "server_lr", float("inf")),
    ("dp", "clip", float("nan")),
    ("dp", "clip", float("inf")),
    ("dp", "clip", True),
    ("dp", "sigma", float("nan")),
    ("dp", "sigma", float("inf")),
    ("dp", "delta", "0.1"),
])
def test_non_integer_config_value_is_exit_2(tmp_path, capsys, section, key, value):
    doc = _base_config(dp={"clip": 1.0, "sigma": 0.1})
    (doc[section] if section else doc)[key] = value
    cfg = _write_config(tmp_path, doc)
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.jsonl")])
    assert code == EXIT_USAGE
    assert f"{key} must be" in capsys.readouterr().err


def _client_files(tmp_path, k=3):
    paths = []
    for i in range(k):
        paths.append(str(tmp_path / f"client{i}.txt"))
        Path(paths[-1]).write_text("a b c d e\nb c d e f\nc d e f g\n", encoding="utf-8")
    return paths


def test_misnamed_data_key_is_exit_2(tmp_path, capsys):
    """`file` for `files` must not fall back to synthetic data."""
    doc = _base_config(data={"file": {"paths": _client_files(tmp_path)}})
    cfg, trace = _write_config(tmp_path, doc), tmp_path / "t.jsonl"
    assert main(["simulate", "--config", str(cfg), "--out", str(trace)]) == EXIT_USAGE
    assert "exactly one of 'synthetic' or 'files'" in capsys.readouterr().err
    assert not trace.exists()


@pytest.mark.parametrize("section", ["fed", "model", "data.synthetic", "data.files", "dp", "attack"])
def test_config_sections_take_their_dataclass_fields(tmp_path, capsys, section):
    """Each section accepts the fields of its dataclass and nothing else, and
    requires those without a default; the seed lives at the top level."""
    def run(doc):
        cfg = _write_config(tmp_path, doc)
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.jsonl")])
        return code, capsys.readouterr().err

    def config(**changes):  # a None value deletes the key
        doc = _base_config(dp={"clip": 1.0, "sigma": 0.1})
        if section == "data.files":
            doc["data"] = {"files": {"paths": _client_files(tmp_path)}}
        *outer, key = section.split(".")
        target = doc[outer[0]] if outer else doc
        target[key] = {k: v for k, v in dict(target[key], **changes).items() if v is not None}
        return doc

    load_experiment(_write_config(tmp_path, config()))
    code, err = run(config(bogus=1))
    assert code == EXIT_USAGE and f"unknown keys in config.{section}: ['bogus']" in err
    required = {"fed": ["clients"], "data.files": ["paths"], "dp": ["sigma"]}.get(section, [])
    if required:
        code, err = run(config(**dict.fromkeys(required)))
        assert code == EXIT_USAGE and f"missing keys in config.{section}: {required}" in err
    if section == "fed":  # the seed is top-level, and the shuffle is always on
        for key, value in (("seed", 1), ("shuffle", False)):
            code, err = run(config(**{key: value}))
            assert code == EXIT_USAGE and f"unknown keys in config.fed: ['{key}']" in err


def test_client_without_a_training_window_is_exit_2(tmp_path, capsys):
    """A client whose train sentences are all at most `context` tokens long
    would take no step and send an exactly-zero update every round."""
    paths = [str(tmp_path / f"c{i}.txt") for i in range(3)]
    Path(paths[0]).write_text("a b\nc d\n", encoding="utf-8")
    for i, path in enumerate(paths[1:], 1):
        lines = [" ".join(f"w{i}{j}{k}" for k in range(10)) for j in range(2)]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    doc = _base_config(
        data={"files": {"paths": paths, "train_sentences": 1}}, dp={"clip": 1.0, "sigma": 0.5}
    )
    cfg, trace = _write_config(tmp_path, doc), tmp_path / "t.jsonl"
    assert main(["simulate", "--config", str(cfg), "--out", str(trace)]) == EXIT_USAGE
    assert "client 0 has no training window" in capsys.readouterr().err
    assert not trace.exists()


def test_readme_quick_start_config_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Write a config:")[1].split("```json\n")[1].split("```")[0]
    cfg = parse_experiment(json.loads(block))
    assert (cfg.fed.clients, cfg.fed.rounds, cfg.model.n_blocks) == (5, 10, 2)


@pytest.mark.parametrize("key, value", [
    ("paths", "a.txt"),
    ("paths", ["a.txt", 3]),
    ("train_sentences", 2.5),
    ("valid_sentences", True),
    ("freq_cutoff", "1"),
])
def test_malformed_files_config_is_exit_2(tmp_path, capsys, key, value):
    files = {"paths": _client_files(tmp_path), key: value}
    cfg = _write_config(tmp_path, _base_config(data={"files": files}))
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.jsonl")])
    assert code == EXIT_USAGE
    assert f"{key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("selector", ["fc@", "fc@1,1", "fc@0", "fc@9", "bogus", "fc@x"])
@pytest.mark.parametrize("where", ["cli", "config"])
def test_malformed_selector_block_list_is_exit_2(tmp_path, capsys, where, selector):
    """An empty or non-integer block list, a block named twice, a block the
    two-block model lacks and an unknown part are usage errors, whether the
    selector comes from `attack --selector` or from a config."""
    trace = tmp_path / "trace.jsonl"
    if where == "cli":
        cfg = _write_config(tmp_path, _base_config())
        assert main(["simulate", "--config", str(cfg), "--out", str(trace)]) == EXIT_OK
        out = tmp_path / "assignment.json"
        argv = ["attack", "--trace", str(trace), "--method", "kmeans",
                "--selector", selector, "--out", str(out)]
    else:
        cfg = _write_config(tmp_path, _base_config(attack={"method": "kmeans", "selector": selector}))
        out = trace
        argv = ["simulate", "--config", str(cfg), "--out", str(trace)]
    assert main(argv) == EXIT_USAGE
    assert "selector" in capsys.readouterr().err
    assert not out.exists()


def test_missing_trace_is_exit_2(tmp_path, capsys):
    code = main([
        "attack", "--trace", str(tmp_path / "missing.jsonl"),
        "--method", "greedy", "--out", str(tmp_path / "a.json"),
    ])
    assert code == EXIT_USAGE


def test_mismatched_assignment_is_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, _base_config())
    trace = tmp_path / "trace.jsonl"
    main(["simulate", "--config", str(cfg), "--out", str(trace)])
    bad = tmp_path / "assignment.json"
    write_assignment(bad, [0] * 10, clients=5, rounds=2, method="greedy", selector="both")
    code = main([
        "report", "--trace", str(trace), "--assignment", str(bad),
        "--sidecar", str(tmp_path / "trace.jsonl.sidecar.json"),
    ])
    assert code == EXIT_USAGE


def _must_not_train(*args, **kwargs):
    raise AssertionError("simulate trained before checking its output paths")


@pytest.mark.parametrize("command", ["simulate", "simulate-sidecar", "attack", "report"])
def test_output_path_in_a_missing_directory_is_exit_2(tmp_path, capsys, monkeypatch, command):
    bad = tmp_path / "nodir" / "out.json"
    cfg = _write_config(tmp_path, _base_config())
    trace, truth, _ = _run_trace(k=3, t=2)
    write_trace(tmp_path / "trace.jsonl", trace)
    write_sidecar(tmp_path / "sidecar.json", truth)
    write_assignment(tmp_path / "a.json", [0, 1, 2] * 2, clients=3, rounds=2,
                     method="greedy", selector="both")
    monkeypatch.setattr(cli, "run_simulation", _must_not_train)
    argv = {
        "simulate": ["simulate", "--config", str(cfg), "--out", str(bad)],
        "simulate-sidecar": ["simulate", "--config", str(cfg),
                             "--out", str(tmp_path / "t.jsonl"), "--sidecar", str(bad)],
        "attack": ["attack", "--trace", str(tmp_path / "trace.jsonl"),
                   "--method", "greedy", "--out", str(bad)],
        "report": ["report", "--trace", str(tmp_path / "trace.jsonl"),
                   "--assignment", str(tmp_path / "a.json"),
                   "--sidecar", str(tmp_path / "sidecar.json"), "--out", str(bad)],
    }[command]
    assert main(argv) == EXIT_USAGE
    assert str(bad) in capsys.readouterr().err
    assert not (tmp_path / "t.jsonl").exists()


def _assignment_doc(**overrides):
    doc = {"method": "greedy", "selector": "both", "clients": 3, "rounds": 2,
           "labels": [0, 1, 2, 2, 1, 0]}
    doc.update(overrides)
    return doc


MALFORMED_ASSIGNMENTS = {
    "label-out-of-range": _assignment_doc(labels=[0, 1, 2, 9, 1, 0]),
    "label-negative": _assignment_doc(labels=[0, 1, 2, -1, 1, 0]),
    "label-float": _assignment_doc(labels=[0, 1, 2, 2, 1, 0.7]),
    "label-integral-float": _assignment_doc(labels=[0, 1, 2, 2, 1, 1.0]),
    "label-bool": _assignment_doc(labels=[True, 1, 2, 0, 1, 2]),
    "label-string": _assignment_doc(labels=[0, 1, 2, 0, 1, "2"]),
    "labels-too-few": _assignment_doc(labels=[0, 1, 2, 2, 1]),
    "labels-too-many": _assignment_doc(labels=[0, 1, 2, 2, 1, 0, 1]),
    "labels-not-a-list": _assignment_doc(labels="012210"),
    "clients-float": _assignment_doc(clients=3.0),
    "rounds-string": _assignment_doc(rounds="2"),
    "clients-below-2": _assignment_doc(clients=1, labels=[0, 0]),
    "method-not-a-string": _assignment_doc(method=["greedy"]),
    "not-an-object": [0, 1, 2, 2, 1, 0],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ASSIGNMENTS))
def test_malformed_assignment_is_exit_2(tmp_path, capsys, case):
    trace, truth, _ = _run_trace(k=3, t=2)
    write_trace(tmp_path / "trace.jsonl", trace)
    write_sidecar(tmp_path / "sidecar.json", truth)
    bad = tmp_path / "assignment.json"
    bad.write_text(json.dumps(MALFORMED_ASSIGNMENTS[case]), encoding="utf-8")
    code = main([
        "report", "--trace", str(tmp_path / "trace.jsonl"), "--assignment", str(bad),
        "--sidecar", str(tmp_path / "sidecar.json"),
    ])
    assert code == EXIT_USAGE
    assert "malformed assignment file" in capsys.readouterr().err


def test_divergence_is_exit_3(tmp_path, capsys):
    doc = _base_config()
    doc["fed"]["client_lr"] = 500.0
    doc["fed"]["rounds"] = 8
    cfg = _write_config(tmp_path, doc)
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.jsonl")])
    assert code == EXIT_DIVERGED
    assert "diverged" in capsys.readouterr().err


def test_dp_divergence_is_exit_3(tmp_path, capsys):
    # Clipping bounds each step by client_lr * clip, so only a huge rate
    # overflows; the non-finite per-sample norms that follow must still end
    # the run as a divergence.
    doc = _base_config(dp={"clip": 1.0, "sigma": 0.5})
    doc["fed"]["client_lr"] = 1e100
    cfg = _write_config(tmp_path, doc)
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.jsonl")])
    assert code == EXIT_DIVERGED
    assert "diverged" in capsys.readouterr().err


# ---------------------------------------------------------------- sweep


def test_sweep_sigma_axis(tmp_path, capsys):
    doc = {
        "base": _base_config(dp={"clip": 1.0, "sigma": 0.0}),
        "grid": {"sigma": [0.0, 0.5], "method": ["greedy", "kmeans"]},
    }
    cfg = _write_config(tmp_path, doc, "grid.json")
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out_dir)]) == EXIT_OK

    with open(out_dir / "summary.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert all(r["status"] == "ok" for r in rows)

    cells = sorted(out_dir.glob("cell_*"))
    assert len(cells) == 4
    for cell in cells:
        report = json.loads((cell / "report.json").read_text())
        assert report["dp"] is not None
        assert 0.0 <= report["metrics"]["purity"] <= 1.0


def test_sweep_empty_grid_is_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"base": _base_config(), "grid": {}}, "grid.json")
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "s")]) == EXIT_USAGE


@pytest.mark.parametrize("values", [[], 3, "23", {"a": 2}])
def test_sweep_axis_values_that_are_not_a_non_empty_list_are_exit_2(tmp_path, capsys, values):
    cfg = _write_config(tmp_path, {"base": _base_config(), "grid": {"rounds": values}}, "grid.json")
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "s")]) == EXIT_USAGE
    assert "non-empty list of values" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_sweep_with_an_invalid_cell_is_exit_2_before_any_cell_runs(tmp_path, capsys):
    doc = {
        "base": _base_config(dp={"clip": 1.0, "sigma": 0.0}),
        "grid": {"sigma": [0.1, -1.0, "x"]},
    }
    cfg = _write_config(tmp_path, doc, "grid.json")
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out_dir)]) == EXIT_USAGE
    assert "grid cell 1 {'sigma': -1.0}" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("section, axis", [("fed", "rounds"), ("dp", "sigma"), ("attack", "method")])
def test_sweep_axis_into_a_section_that_is_not_an_object_is_exit_2(tmp_path, capsys, section, axis):
    doc = {"base": _base_config(**{section: 3}), "grid": {axis: [2]}}
    cfg = _write_config(tmp_path, doc, "grid.json")
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "s")]) == EXIT_USAGE
    assert f"config.{section} must be an object" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_non_positive_jobs_is_exit_2_before_any_cell_runs(tmp_path, capsys, jobs):
    cfg = _write_config(tmp_path, {"base": _base_config(), "grid": {"server_lr": [0.1]}}, "grid.json")
    out_dir = tmp_path / "sweep"
    argv = ["sweep", "--config", str(cfg), "--out-dir", str(out_dir), "--jobs", jobs]
    assert main(argv) == EXIT_USAGE
    assert "--jobs" in capsys.readouterr().err
    assert not out_dir.exists()


def test_sweep_clients_axis_mi_bounded_by_log_k(tmp_path):
    doc = {"base": _base_config(), "grid": {"clients": [3, 5]}}
    cfg = _write_config(tmp_path, doc, "grid.json")
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out_dir)]) == EXIT_OK
    for cell in sorted(out_dir.glob("cell_*")):
        report = json.loads((cell / "report.json").read_text())
        k = report["clients"]
        assert report["metrics"]["mutual_information"] <= np.log(k) + 1e-9


def _summary_rows(out_dir):
    with open(out_dir / "summary.csv", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_sweep_rows_are_the_same_for_any_jobs_and_a_diverged_cell_fails(tmp_path, capsys):
    """A huge server rate makes its cells diverge; they get failed rows, the
    other cells run, and the summary does not depend on --jobs."""
    doc = {"base": _base_config(), "grid": {"rounds": [2, 3], "server_lr": [0.1, 1e30]}}
    cfg = _write_config(tmp_path, doc, "grid.json")
    for jobs in ("1", "2"):
        argv = ["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / jobs), "--jobs", jobs]
        assert main(argv) == EXIT_OK
    summary = (tmp_path / "1" / "summary.csv").read_bytes()
    assert (tmp_path / "2" / "summary.csv").read_bytes() == summary
    rows = _summary_rows(tmp_path / "1")
    assert [r["status"] for r in rows] == ["ok", "failed", "ok", "failed"]
    assert all(r["error"].startswith("DivergedError: ") for r in rows if r["status"] == "failed")


def test_dp_sweep_rows_are_the_same_for_any_jobs(tmp_path, capsys):
    """With DP noise drawn on a thread pool in each cell, the summary still
    does not depend on --jobs."""
    doc = {
        "base": _base_config(dp={"clip": 1.0, "sigma": 0.5}),
        "grid": {"rounds": [2, 3], "sigma": [0.0, 0.5]},
    }
    cfg = _write_config(tmp_path, doc, "grid.json")
    for jobs in ("1", "2"):
        argv = ["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / jobs), "--jobs", jobs]
        assert main(argv) == EXIT_OK
    summary = (tmp_path / "1" / "summary.csv").read_bytes()
    assert (tmp_path / "2" / "summary.csv").read_bytes() == summary
    assert [r["status"] for r in _summary_rows(tmp_path / "1")] == ["ok"] * 4


def _exit_process(cell_dir, doc):
    os._exit(1)


def test_sweep_worker_that_dies_gives_failed_rows(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_sweep_cell", _exit_process)  # runs in the worker processes
    cfg = _write_config(tmp_path, {"base": _base_config(), "grid": {"server_lr": [0.1, 0.2]}},
                        "grid.json")
    argv = ["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "s"), "--jobs", "2"]
    assert main(argv) == EXIT_OK
    rows = _summary_rows(tmp_path / "s")
    assert [r["status"] for r in rows] == ["failed", "failed"]
    assert all(r["error"].startswith("BrokenProcessPool: ") for r in rows)


GRIDS = Path(__file__).resolve().parents[1] / "grids"


@pytest.mark.parametrize("name, n_cells", [("client_scale", 9), ("dp_grid", 8), ("lr_sweep", 4)])
def test_checked_in_grids_are_valid(name, n_cells):
    grid_doc = json.loads((GRIDS / f"{name}.json").read_text(encoding="utf-8"))
    cells = cli._grid_cells(grid_doc)
    assert len(cells) == n_cells
    assert all(doc["seed"] == 0 for _, doc in cells)
