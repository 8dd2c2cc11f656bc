import base64
import concurrent.futures
import dataclasses
import csv
import functools
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradlink import attack, cli, fedsim, traceio
from gradlink.cli import EXIT_DIVERGED, EXIT_ERROR, EXIT_OK, EXIT_USAGE, main
from gradlink.config import AttackSpec, FilesSpec, load_experiment, parse_experiment
from gradlink.corpus import MAX_SENTENCE_TOKENS, SyntheticSpec, generate_synthetic
from gradlink.dp import DpConfig
from gradlink.errors import ConfigError, InputError, UsageError
from gradlink.fedsim import FedConfig, run_simulation
from gradlink.model import ModelArch, ModelConfig, layer_names
from gradlink.report import build_report, read_sidecar, render_report, write_report, write_sidecar
from gradlink.traceio import (
    METHODS,
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
    assert (back.dp, back.dp_steps) == (None, None)
    assert back.updates.dtype == np.float32
    np.testing.assert_array_equal(back.updates, trace.updates)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2 and json.loads(lines[0])["format_version"] == 3
    assert path.read_bytes().isascii()


def test_write_trace_bytes_are_pinned(tmp_path):
    """Format version 3 byte for byte, from literal float32 values."""
    trace = TraceStore(
        clients=2, rounds=2, seed=7, layer_manifest=[("block1.fc", 1, 2)],
        dp=DpConfig(clip=1.0, sigma=0.5), dp_steps=4,
        updates=np.array([[0.5, -1.0], [2.0, 0.25], [-0.125, 3.0], [1.5, -2.5]], dtype=np.float32),
        loss_curve=[2.0, 1.5, 1.25],
    )
    path = tmp_path / "trace.jsonl"
    write_trace(path, trace)
    assert path.read_bytes() == (
        b'{"format_version":3,"clients":2,"rounds":2,"seed":7,'
        b'"layer_manifest":[{"name":"block1.fc","rows":1,"cols":2}],'
        b'"dp":{"clip":1.0,"sigma":0.5,"delta":0.0001},"dp_steps":4,'
        b'"loss_curve":[2.0,1.5,1.25]}\n'
        b'"AAAAPwAAgL8AAABAAACAPgAAAL4AAEBAAADAPwAAIMA="\n'
    )


def test_trace_header_reads_in_text_mode_and_the_file_is_ascii(tmp_path):
    """A text-mode `readline` decodes ahead of the line it returns, so a
    text-mode tool can read the header only if the body is text too: a raw
    float32 body would raise UnicodeDecodeError."""
    trace, _, _ = _run_trace()
    path = tmp_path / "trace.jsonl"
    write_trace(path, trace)
    with open(path, encoding="utf-8") as fh:
        assert json.loads(fh.readline())["loss_curve"] == trace.loss_curve
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
    path.write_text('{"rounds": [[0, 1]], "round": [[0, 1]]}', encoding="utf-8")
    with pytest.raises(InputError, match=r"unknown keys in the document: \['round'\]"):
        read_sidecar(path)


def test_report_pairs_labels_with_records_in_round_slot_order():
    """Assignment label i belongs to trace row i, in (round, slot) order, so
    labels equal to the truth read row by row score perfectly, and the same
    labels read column by column do not."""
    truth = np.array([[0, 1, 2], [1, 2, 0]])
    header = {"clients": 3, "rounds": 2, "seed": 0, "loss_curve": [1.0, 1.0, 1.0],
              "dp": None, "dp_steps": None}

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


def _header(header_line, **changes):
    return json.dumps(dict(json.loads(header_line), **changes))


def _four_values(header_line):
    """A K=2, T=2 header whose one layer holds one value per update."""
    return _header(header_line, clients=2, rounds=2, loss_curve=[1.0, 1.0, 1.0],
                   layer_manifest=[{"name": "block1.fc", "rows": 1, "cols": 1}])


DP = {"clip": 1.0, "sigma": 0.5, "delta": 1e-4}
MALFORMED_TRACES = {
    "body-one-row-short": lambda h, raw, row: [h, _b64(raw[:-row])],
    "body-one-row-long": lambda h, raw, row: [h, _b64(raw + raw[:row])],
    "body-not-whole-float32": lambda h, raw, row: [h, _b64(raw[:-1])],
    "body-invalid-base64": lambda h, raw, row: [h, _b64(raw)[:9] + "*" + _b64(raw)[10:]],
    "body-not-a-string": lambda h, raw, row: [h, "[1, 2, 3]"],
    "third-line": lambda h, raw, row: [h, _b64(raw), _b64(raw)],
    # line 2 is exactly a quote, base64 of length 4n, a quote and the last newline
    "body-no-closing-quote": lambda h, raw, row: [h, _b64(raw)[:-1]],
    "body-leading-space": lambda h, raw, row: [h, " " + _b64(raw)],
    "body-trailing-space": lambda h, raw, row: [h, _b64(raw) + " "],
    "body-json-escape": lambda h, raw, row: [h, '"\\u0041' + _b64(raw)[2:]],
    "body-padding-inside": lambda h, raw, row: [h, _b64(raw)[:9] + "=" + _b64(raw)[10:]],
    # 16 bytes of body: base64 that ends in "=="
    "body-extra-padding": lambda h, raw, row: [_four_values(h), _b64(raw[:16])[:-1] + '="'],
    "body-padding-after-whole-quads": lambda h, raw, row: [h, _b64(raw)[:-1] + '="'],
    "crlf-line-ends": lambda h, raw, row: [h + "\r", _b64(raw) + "\r"],
    # the advisory accounting input must be set exactly when dp is
    "dp-without-steps": lambda h, raw, row: [_header(h, dp=DP), _b64(raw)],
    "steps-without-dp": lambda h, raw, row: [_header(h, dp_steps=3), _b64(raw)],
    # the header's keys are exactly the format's
    "sample-rate-key": lambda h, raw, row: [
        _header(h, dp=DP, dp_steps=3, dp_sample_rate=0.5), _b64(raw)],
    "unknown-key": lambda h, raw, row: [_header(h, dp_step=3), _b64(raw)],
    "unknown-layer-key": lambda h, raw, row: [
        _header(_four_values(h), layer_manifest=[
            {"name": "block1.fc", "rows": 1, "cols": 1, "bias": False}]),
        _b64(raw[:16])],
    # the third layer of the same size as the first, under the first's name
    "repeated-layer-name": lambda h, raw, row: [
        _header(h, layer_manifest=[
            dict(e, name="block1.fc") if i == 2 else e
            for i, e in enumerate(json.loads(h)["layer_manifest"])]),
        _b64(raw)],
    # JSON has integers of any length; no float holds this one
    "loss-beyond-float": lambda h, raw, row: [_header(h, loss_curve=[10**400] * 4), _b64(raw)],
    "steps-beyond-float": lambda h, raw, row: [_header(h, dp=DP, dp_steps=10**400), _b64(raw)],
    # the version is the integer 3, not a float equal to it
    "format-version-float": lambda h, raw, row: [_header(h, format_version=3.0), _b64(raw)],
}
# the message of each case that names what is wrong
MALFORMED_TRACE_MESSAGES = {
    "sample-rate-key": "unknown keys in the header: ['dp_sample_rate']",
    "unknown-key": "unknown keys in the header: ['dp_step']",
    "unknown-layer-key": "unknown keys in a layer_manifest entry: ['bias']",
    "repeated-layer-name": "layer names repeated in layer_manifest: ['block1.fc']",
    "loss-beyond-float": "loss_curve must be a list of 4 finite numbers",
    "steps-beyond-float": "dp_steps must be a finite integer >= 0 with dp, else null",
    "format-version-float": "format version 3.0 is not 3",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TRACES))
def test_malformed_v2_trace_is_exit_2(tmp_path, capsys, case):
    """Malformed traces of the current format. (The name dates from format
    version 2, whose line 2 version 3 keeps.)"""
    path = _edited_trace(tmp_path, MALFORMED_TRACES[case])
    assert _attack_code(tmp_path, path) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "malformed trace file" in err
    assert MALFORMED_TRACE_MESSAGES.get(case, "") in err


def test_v2_trace_is_exit_2_and_says_to_simulate_again(tmp_path, capsys):
    """A version-2 header counts `dp_steps` as R * E * ceil(n_min / B),
    for a subsampled accountant: read by the version-3 rule, it would give
    a wrong bound."""
    path = _edited_trace(tmp_path, lambda h, raw, row: [
        _header(h, format_version=2, dp=DP, dp_steps=12, dp_sample_rate=0.5), _b64(raw)])
    assert _attack_code(tmp_path, path) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "format version 2 is not 3" in err and "gradlink simulate" in err


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
        loss_curve=[2.0, 1.5, 1.25, 1.0], dp_steps=3,
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
    dp_set = fields["dp"] is not None
    assert (fields["dp_steps"] is not None) == dp_set


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


def _text_read_trace(path):
    """A lenient text-mode trace reader, the oracle of the byte reader: lines
    split by `splitlines`, line 2 read as any JSON string, then validating
    base64. Returns the header fields and the body's bytes."""
    with open(path, encoding="utf-8") as fh:
        fields = traceio._trace_fields(json.loads(fh.readline()))
        rest = fh.read().splitlines()
    assert len(rest) == 1
    return fields, base64.b64decode(json.loads(rest[0]), validate=True)


@settings(max_examples=300, deadline=None)
@given(data=corrupted(_valid_trace_bytes, ("truncate", "overwrite", "replace", "value")))
def test_fuzzed_trace_accepted_only_as_the_text_reader_reads_it(tmp_path_factory, data):
    """The byte reader accepts only files that the text reader accepts, and
    reads them the same way, bit for bit."""
    trace = _read_fuzzed(tmp_path_factory, data, read_trace)
    if trace is None:
        return
    fields, raw = _text_read_trace(tmp_path_factory.getbasetemp() / "fuzzed")
    assert fields == {
        f.name: getattr(trace, f.name) for f in dataclasses.fields(trace) if f.name != "updates"
    }
    assert raw == trace.updates.tobytes()


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
    assert doc["method"] in METHODS and isinstance(doc["selector"], str)


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
    cfg = _read_fuzzed(tmp_path_factory, data, load_experiment,
                       (ConfigError, UsageError, InputError))
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


# The seven commands of one pipeline run in one process, as the benchmark's
# worker runs them; prints whether numpy.ma was ever imported.
PIPELINE_SCRIPT = """
import contextlib, io, sys
from gradlink.cli import main
cfg, d = sys.argv[1], sys.argv[2]
trace, sidecar = d + "/trace.jsonl", d + "/sidecar.json"
steps = [["simulate", "--config", cfg, "--out", trace, "--sidecar", sidecar]]
for m in ("kmeans", "spectral", "greedy"):
    steps.append(["attack", "--trace", trace, "--method", m, "--out", f"{d}/a_{m}.json"])
for m in ("kmeans", "spectral", "greedy"):
    steps.append(["report", "--trace", trace, "--assignment", f"{d}/a_{m}.json",
                  "--sidecar", sidecar, "--out", f"{d}/r_{m}.json"])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in steps]
print(codes, "numpy.ma" in sys.modules)
"""


def test_pipeline_never_imports_numpy_ma(tmp_path):
    """numpy imports numpy.ma lazily, at a cost of 14-29 ms, on the first
    np.median and the like. No command of the pipeline needs it, so a fresh
    process that runs all seven never loads it."""
    cfg = _write_config(tmp_path, _base_config())
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", PIPELINE_SCRIPT, str(cfg), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0, 0, 0, 0, 0] False\n"


def _strict_json(text):
    """`json.loads` without NaN, Infinity and -Infinity, which JSON lacks."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_sigma_0_report_is_strict_json(tmp_path, capsys):
    """Sigma 0, or a sigma so small that its square underflows to 0, bounds
    no epsilon: the JSON report holds null, and the text report prints inf."""
    for sigma in (0, 1e-170):
        cfg = _write_config(tmp_path, _base_config(dp={"clip": 1, "sigma": sigma}))
        trace, sidecar = tmp_path / "trace.jsonl", tmp_path / "sidecar.json"
        assignment, report_path = tmp_path / "assignment.json", tmp_path / "report.json"
        assert main(["simulate", "--config", str(cfg), "--out", str(trace),
                     "--sidecar", str(sidecar)]) == EXIT_OK
        assert main(["attack", "--trace", str(trace), "--method", "greedy",
                     "--out", str(assignment)]) == EXIT_OK
        assert main(["report", "--trace", str(trace), "--assignment", str(assignment),
                     "--sidecar", str(sidecar), "--out", str(report_path)]) == EXIT_OK
        assert "advisory_epsilon=inf" in capsys.readouterr().out
        report = _strict_json(report_path.read_text(encoding="utf-8"))
        assert report["dp"]["advisory_epsilon"] is None
    with pytest.raises(ValueError):
        write_report(tmp_path / "nan.json", {"advisory_epsilon": math.nan})


@pytest.mark.parametrize("steps, json_epsilon, text_epsilon", [
    (10**300, pytest.approx(4e302), "4e+302"),  # 2 * 2 / 0.1**2 per step at order 2
    (10**308, None, "inf"),  # past the largest float: no finite bound
], ids=["huge", "past-float"])
def test_huge_dp_steps_report_epsilon(tmp_path, steps, json_epsilon, text_epsilon):
    """A huge step count prints its epsilon in six significant digits, and a
    bound past the largest float is null, like sigma 0's."""
    truth = np.tile(np.arange(3), (2, 1))
    header = {"clients": 3, "rounds": 2, "seed": 0, "loss_curve": [],
              "dp": DpConfig(clip=1.0, sigma=0.1), "dp_steps": steps}
    assignment = {"clients": 3, "rounds": 2, "method": "greedy", "selector": "both",
                  "labels": truth.ravel().tolist()}
    report = build_report(header, assignment, truth)
    assert report["dp"]["advisory_epsilon"] == json_epsilon
    write_report(tmp_path / "report.json", report)
    assert _strict_json((tmp_path / "report.json").read_text(encoding="utf-8")) == report
    assert f" advisory_epsilon={text_epsilon} over " in render_report(report)


def test_dp_report_epsilon_is_the_gaussian_bound_of_rounds_times_epochs(tmp_path, capsys):
    """Each training window is used once per local epoch of every round, so
    the report bounds R * E = 8 Gaussian steps, with no subsampling, under
    replace-one adjacency. With sigma 2 and delta 1e-4 the continuous
    optimum of the Renyi order, alpha* = 1 + sigma * sqrt(log(1/delta) /
    (2 steps)) = 2.52, lies between orders 2 and 3."""
    doc = _base_config(dp={"clip": 1.0, "sigma": 2.0})
    doc["fed"]["local_epochs"] = 2
    cfg = _write_config(tmp_path, doc)
    trace, sidecar = tmp_path / "trace.jsonl", tmp_path / "sidecar.json"
    assignment, report_path = tmp_path / "assignment.json", tmp_path / "report.json"
    assert main(["simulate", "--config", str(cfg), "--out", str(trace),
                 "--sidecar", str(sidecar)]) == EXIT_OK
    assert main(["attack", "--trace", str(trace), "--method", "greedy",
                 "--out", str(assignment)]) == EXIT_OK
    assert main(["report", "--trace", str(trace), "--assignment", str(assignment),
                 "--sidecar", str(sidecar), "--out", str(report_path)]) == EXIT_OK
    assert "no subsampling, replace-one adjacency" in capsys.readouterr().out
    steps, log_inv_delta = 4 * 2, math.log(1.0 / 1e-4)
    assert read_trace_header(trace)["dp_steps"] == steps
    alpha_star = 1 + 2.0 * math.sqrt(log_inv_delta / (2 * steps))
    assert 2 < alpha_star < 3
    expected = min(steps * (2.0 * a / 4.0) + log_inv_delta / (a - 1) for a in (2, 3))
    assert json.loads(report_path.read_text())["dp"]["advisory_epsilon"] == expected


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
    pytest.param("fed", "client_lr", 0, id="client-lr-zero"),
    pytest.param("fed", "server_lr", -1, id="server-lr-negative"),
    ("dp", "clip", float("nan")),
    ("dp", "clip", float("inf")),
    ("dp", "clip", True),
    ("dp", "sigma", float("nan")),
    ("dp", "sigma", float("inf")),
    ("dp", "delta", "0.1"),
    pytest.param("dp", "clip", 10**400, id="dp-clip-int-beyond-float"),
    pytest.param("dp", "clip", 0, id="dp-clip-zero"),
    pytest.param("dp", "sigma", -0.1, id="dp-sigma-negative"),
    pytest.param("data.synthetic", "topic_vocab_size", 0, id="topic-vocab-zero"),
    pytest.param("data.synthetic", "sentence_len", [1, 3], id="sentence-len-below-2"),
    pytest.param("data.synthetic", "sentence_len", 5, id="sentence-len-not-a-list"),
    pytest.param("data.synthetic", "sentence_len", None, id="sentence-len-null"),
    # numpy's int64 range ends below these: each fails in numpy without a bound
    pytest.param("data.synthetic", "sentence_len", [2, 10**19], id="sentence-len-beyond-int64"),
    pytest.param("data.synthetic", "topic_vocab_size", 10**19, id="topic-vocab-beyond-int64"),
    pytest.param("data.synthetic", "shared_vocab_size", 10**19, id="shared-vocab-beyond-int64"),
])
def test_non_integer_config_value_is_exit_2(tmp_path, capsys, section, key, value):
    doc = _base_config(dp={"clip": 1.0, "sigma": 0.1})
    where = doc
    for name in section.split(".") if section else ():
        where = where[name]
    where[key] = value
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
    # the seed is top-level, the shuffle is always on, and there is one
    # synthetic shard per client
    fixed = {"fed": {"seed": 1, "shuffle": False}, "data.synthetic": {"n_clients": 3}}
    for key, value in fixed.get(section, {}).items():
        code, err = run(config(**{key: value}))
        assert code == EXIT_USAGE and f"unknown keys in config.{section}: ['{key}']" in err


def test_files_config_with_a_path_count_other_than_clients_is_exit_2(tmp_path, capsys):
    doc = _base_config(data={"files": {"paths": _client_files(tmp_path, k=2)}})
    cfg, trace = _write_config(tmp_path, doc), tmp_path / "t.jsonl"
    assert doc["fed"]["clients"] == 3
    assert main(["simulate", "--config", str(cfg), "--out", str(trace)]) == EXIT_USAGE
    assert "config.fed.clients=3 but data.files has 2 paths" in capsys.readouterr().err
    assert not trace.exists()


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
    err = capsys.readouterr().err
    assert "client 0 has no training window" in err
    assert f"cut to their first {MAX_SENTENCE_TOKENS} tokens, has more than context=3" in err
    assert not trace.exists()


def test_sentences_cut_to_the_context_give_no_window_and_the_message_says_so(tmp_path, capsys):
    """Windows come from each sentence's first MAX_SENTENCE_TOKENS tokens, so
    50-60 token sentences give none at context 40."""
    doc = _base_config()
    doc["model"]["context"] = MAX_SENTENCE_TOKENS
    doc["data"]["synthetic"]["sentence_len"] = [50, 60]
    cfg, trace = _write_config(tmp_path, doc), tmp_path / "t.jsonl"
    assert main(["simulate", "--config", str(cfg), "--out", str(trace)]) == EXIT_USAGE
    assert (f"no validation windows across all shards: no validation sentence, cut to its first "
            f"{MAX_SENTENCE_TOKENS} tokens, has more than context={MAX_SENTENCE_TOKENS} tokens"
            ) in capsys.readouterr().err
    assert not trace.exists()


def test_corpus_file_that_is_not_utf8_is_exit_2(tmp_path, capsys):
    paths = _client_files(tmp_path, k=2)
    Path(paths[0]).write_bytes("caf\u00e9 a b c d\n".encode("latin-1"))
    cfg = _write_config(tmp_path, _base_config(fed={"clients": 2, "rounds": 2},
                                               data={"files": {"paths": paths}}))
    trace = tmp_path / "t.jsonl"
    assert main(["simulate", "--config", str(cfg), "--out", str(trace)]) == EXIT_USAGE
    assert f"malformed client corpus file {paths[0]}: " in capsys.readouterr().err
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


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("content", [None, b"{not json", b'{"seed": 0}\xff'],
                         ids=["missing", "not-json", "not-utf8"])
def test_unreadable_config_is_exit_2_naming_the_file(tmp_path, capsys, command, content):
    """The config of `simulate` and the grid config of `sweep`."""
    cfg = tmp_path / "config.json"
    if content is not None:
        cfg.write_bytes(content)
    out = ["--out", str(tmp_path / "t.jsonl")] if command == "simulate" else [
        "--out-dir", str(tmp_path / "s")]
    assert main([command, "--config", str(cfg), *out]) == EXIT_USAGE
    kind = "config" if command == "simulate" else "grid config"
    if content is None:
        assert f"missing {kind} file: {cfg}" in capsys.readouterr().err
    else:
        assert f"malformed {kind} file {cfg}: " in capsys.readouterr().err


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


def _must_not_run(*args, **kwargs):
    raise AssertionError("a command did its work before checking its output paths")


def _command_inputs(tmp_path, monkeypatch):
    """Write a config, trace, sidecar and assignment into `tmp_path`, and make
    every command fail if it trains or reads a trace."""
    _write_config(tmp_path, _base_config())
    trace, truth, _ = _run_trace(k=3, t=2)
    write_trace(tmp_path / "trace.jsonl", trace)
    write_sidecar(tmp_path / "sidecar.json", truth)
    write_assignment(tmp_path / "a.json", [0, 1, 2] * 2, clients=3, rounds=2,
                     method="greedy", selector="both")
    for name in ("run_simulation", "read_trace", "read_trace_header"):
        monkeypatch.setattr(cli, name, _must_not_run)


@pytest.mark.parametrize("command", ["simulate", "simulate-sidecar", "attack", "report"])
def test_output_path_in_a_missing_directory_is_exit_2(tmp_path, capsys, monkeypatch, command):
    bad = tmp_path / "nodir" / "out.json"
    cfg = tmp_path / "config.json"
    _command_inputs(tmp_path, monkeypatch)
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
    assert f"no directory to write {bad} into: {bad.parent}" in capsys.readouterr().err
    assert not (tmp_path / "t.jsonl").exists()


@pytest.mark.parametrize("command", ["simulate", "attack", "report"])
def test_output_path_that_names_another_file_is_exit_2(tmp_path, capsys, monkeypatch, command):
    """An output that is an input, or another output, would be written over
    it: the command exits 2 before any work, naming both flags. The attack's
    output is the trace spelled another way."""
    _command_inputs(tmp_path, monkeypatch)
    files = sorted(tmp_path.iterdir())
    before = [path.read_bytes() for path in files]
    (tmp_path / "d").mkdir()
    trace, sidecar = str(tmp_path / "trace.jsonl"), str(tmp_path / "sidecar.json")
    argv, flags = {
        "simulate": (["simulate", "--config", str(tmp_path / "config.json"), "--out", trace,
                      "--sidecar", trace], ("--sidecar", "--out")),
        "attack": (["attack", "--trace", trace, "--method", "greedy",
                    "--out", str(tmp_path / "d" / ".." / "trace.jsonl")], ("--out", "--trace")),
        "report": (["report", "--trace", trace, "--assignment", str(tmp_path / "a.json"),
                    "--sidecar", sidecar, "--out", sidecar], ("--out", "--sidecar")),
    }[command]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{flags[0]} and {flags[1]} name the same file" in err and "Traceback" not in err
    assert [path.read_bytes() for path in files] == before


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
    "method-unknown": _assignment_doc(method="bogus"),
    "unknown-key": _assignment_doc(seed=0),
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
    err = capsys.readouterr().err
    assert "malformed assignment file" in err
    if case == "unknown-key":
        assert "unknown keys in the document: ['seed']" in err
    if case == "method-unknown":
        assert f"method must be one of {METHODS}, got 'bogus'" in err


def _deep_json(path):
    path.write_bytes(b"[" * 100_000 + b"]" * 100_000 + b"\n")


@pytest.mark.parametrize("kind", ["config", "grid config", "trace", "sidecar", "assignment"])
def test_deeply_nested_json_is_exit_2_naming_the_file(tmp_path, capsys, kind):
    """JSON nested deeper than `json.loads` can recurse is a malformed input
    of every kind, not a RecursionError traceback."""
    cfg = _write_config(tmp_path, _base_config())
    trace, truth, _ = _run_trace(k=3, t=2)
    paths = {"trace": tmp_path / "trace.jsonl", "sidecar": tmp_path / "sidecar.json",
             "assignment": tmp_path / "a.json"}
    write_trace(paths["trace"], trace)
    write_sidecar(paths["sidecar"], truth)
    write_assignment(paths["assignment"], [0, 1, 2] * 2, clients=3, rounds=2,
                     method="greedy", selector="both")
    deep = paths.get(kind, tmp_path / "deep.json")
    _deep_json(deep)
    argv = {
        "config": ["simulate", "--config", str(deep), "--out", str(tmp_path / "t.jsonl")],
        "grid config": ["sweep", "--config", str(deep), "--out-dir", str(tmp_path / "s")],
        "trace": ["attack", "--trace", str(deep), "--method", "greedy",
                  "--out", str(tmp_path / "out.json")],
    }.get(kind, ["report", "--trace", str(paths["trace"]), "--assignment",
                 str(paths["assignment"]), "--sidecar", str(paths["sidecar"])])
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"malformed {kind} file {deep}: maximum recursion depth" in err
    assert "Traceback" not in err


# Each kind of JSON object a command reads: the file that holds it, the path
# to it in that file's document (a trace's is its header line), its name in
# messages, a key whose deletion is its missing-key defect, and the message
# of each defect whose message does not follow from these. The top level of
# a config and the grid axes require no key of their own: deleting `fed`
# leaves `config.fed` without `clients` and `rounds`, and deleting the one
# axis leaves an empty grid. An axis is the path of a config value, so an
# unknown one is an unknown key of the config that a grid cell builds.
GRID_RULE = "grid must be a JSON object mapping each axis to a non-empty list of values"
OBJECT_KINDS = {
    "config": ("config", (), "config", "fed",
               {"missing-key": "missing keys in config.fed: ['clients', 'rounds']"}),
    "config-section": ("config", ("fed",), "config.fed", "clients", {}),
    "grid-config": ("grid config", (), "grid config", "grid", {}),
    "grid-axes": ("grid config", ("grid",), "config", "fed.server_lr",
                  {"not-an-object": GRID_RULE, "missing-key": GRID_RULE}),
    "trace-header": ("trace", (), "the header", "seed", {}),
    "manifest-entry": ("trace", ("layer_manifest", 0), "a layer_manifest entry", "cols", {}),
    "header-dp": ("trace", ("dp",), "the header's dp", "delta", {}),
    "assignment": ("assignment", (), "the document", "method", {}),
    "sidecar": ("sidecar", (), "the document", "rounds", {}),
}
OBJECT_DEFECTS = {
    "not-an-object": lambda obj, key: 3,
    "unknown-key": lambda obj, key: dict(obj, bogus=[1]),
    "missing-key": lambda obj, key: {k: v for k, v in obj.items() if k != key},
}


@pytest.mark.parametrize("defect", sorted(OBJECT_DEFECTS))
@pytest.mark.parametrize("kind", list(OBJECT_KINDS))
def test_json_object_with_a_defect_is_exit_2_naming_it(tmp_path, capsys, kind, defect):
    """Every JSON object a command reads, run through `main`: one that is
    not an object, has a key its format does not, or lacks a key it
    requires exits 2 with a message that names the object and the key. A
    trace header's `dp` without `delta` does not load with the default."""
    file_kind, path, what, key, messages = OBJECT_KINDS[kind]
    trace, truth, _ = _run_trace(k=3, t=2)
    files = {"config": tmp_path / "config.json", "grid config": tmp_path / "grid.json",
             "trace": tmp_path / "trace.jsonl", "assignment": tmp_path / "a.json",
             "sidecar": tmp_path / "sidecar.json"}
    _write_config(tmp_path, _base_config(), files["config"].name)
    _write_config(tmp_path, {"base": _base_config(), "grid": {"fed.server_lr": [0.1]}},
                  files["grid config"].name)
    write_trace(files["trace"], dataclasses.replace(trace, dp=DpConfig(**DP), dp_steps=2))
    write_sidecar(files["sidecar"], truth)
    write_assignment(files["assignment"], [0, 1, 2] * 2, clients=3, rounds=2,
                     method="greedy", selector="both")

    lines = files[file_kind].read_text(encoding="utf-8").splitlines()
    doc = json.loads(lines[0])
    if path:
        *outer, last = path
        parent = functools.reduce(lambda node, k: node[k], outer, doc)
        parent[last] = OBJECT_DEFECTS[defect](parent[last], key)
    else:
        doc = OBJECT_DEFECTS[defect](doc, key)
    files[file_kind].write_text("\n".join([json.dumps(doc), *lines[1:]]) + "\n", encoding="utf-8")
    argv = {
        "config": ["simulate", "--config", str(files["config"]), "--out", str(tmp_path / "t")],
        "grid config": ["sweep", "--config", str(files["grid config"]),
                        "--out-dir", str(tmp_path / "s")],
        "trace": ["attack", "--trace", str(files["trace"]), "--method", "greedy",
                  "--out", str(tmp_path / "out.json")],
    }.get(file_kind, ["report", "--trace", str(files["trace"]), "--assignment",
                      str(files["assignment"]), "--sidecar", str(files["sidecar"])])
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    expected = messages.get(defect) or {
        "not-an-object": f"{what} is not a JSON object",
        "unknown-key": f"unknown keys in {what}: ['bogus']",
        "missing-key": f"missing keys in {what}: ['{key}']",
    }[defect]
    assert expected in err and "Traceback" not in err
    if file_kind in ("trace", "assignment", "sidecar"):
        assert f"malformed {file_kind} file {files[file_kind]}: " in err


@pytest.mark.parametrize("embed_dim, ffn_mult", [(10**7, 10**4), (10**9, 10**9)])
def test_model_too_large_to_allocate_is_exit_2(tmp_path, capsys, monkeypatch, embed_dim, ffn_mult):
    """A structurally valid model whose (K, P) float32 replica stack is larger
    than any numpy array exits 2 naming the model's size and the stack's
    bytes, 4 a value, and nothing of that size is allocated: `init_model` is
    never reached. In the second model one weight alone has more entries
    than an int64 holds, so the count must not wrap."""

    def no_model(*args):
        raise AssertionError("the oversized model was allocated")

    monkeypatch.setattr(fedsim, "init_model", no_model)
    doc = _base_config()
    doc["model"].update(embed_dim=embed_dim, ffn_mult=ffn_mult)
    cfg = _write_config(tmp_path, doc)
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.jsonl")]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    d, h, vocab = embed_dim, ffn_mult * embed_dim, 2 + 20 + 3 * 15  # reserved, shared, topic
    size = (h * 3 * d + h + d * h + d) + (h * d + h + d * h + d)  # blocks 1 and 2
    size += 2 * vocab * d + vocab  # embedding and output
    assert f"a model of {size:,} parameters is too large" in err
    assert f"the float32 stack of 3 client replicas would need {3 * size * 4:,} bytes" in err
    assert "Traceback" not in err
    assert not (tmp_path / "t.jsonl").exists()


def test_run_too_long_to_allocate_is_exit_2(tmp_path, capsys, monkeypatch):
    """A run whose (K·T, dim) float32 trace is larger than any numpy array
    exits 2 naming the trace's size, and nothing is allocated first."""

    def no_model(*args):
        raise AssertionError("a model was allocated")

    monkeypatch.setattr(fedsim, "init_model", no_model)
    doc = _base_config()
    doc["fed"]["rounds"] = 10**17
    cfg = _write_config(tmp_path, doc)
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.jsonl")]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    d, h, records = 8, 16, 3 * 10**17
    dim = (h * 3 * d + d * h) + (h * d + d * h)  # FC and Proj weights of blocks 1 and 2
    assert (f"the trace of {records:,} updates of {dim:,} values each would need "
            f"{records * dim * 4:,} bytes") in err
    assert "Traceback" not in err
    assert not (tmp_path / "t.jsonl").exists()


# valid arguments of each config dataclass, so one field at a time can be bad
_VALID_CONFIG_ARGS = {
    FedConfig: {"clients": 3, "rounds": 4},
    ModelArch: {},
    ModelConfig: {"vocab_size": 5},
    SyntheticSpec: {"n_clients": 3},
    FilesSpec: {"paths": ["a.txt"]},
    DpConfig: {"clip": 1.0, "sigma": 0.1},
    AttackSpec: {},
}


@pytest.mark.parametrize("cls, name", [
    (cls, f.name) for cls in _VALID_CONFIG_ARGS for f in dataclasses.fields(cls)
])
def test_every_config_field_has_a_rule(cls, name):
    """Each field, set to None, is a ConfigError that names the field and its rule."""
    cls(**_VALID_CONFIG_ARGS[cls])
    with pytest.raises(ConfigError, match=f"^{name} must be .+, got None$"):
        cls(**{**_VALID_CONFIG_ARGS[cls], name: None})


def test_memory_error_is_exit_2(tmp_path, capsys, monkeypatch):
    """A config that fits numpy's largest array but not this machine's
    memory exits 2, not with a MemoryError traceback."""

    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 80.0 GiB for an array")

    monkeypatch.setattr(cli, "run_simulation", out_of_memory)
    cfg = _write_config(tmp_path, _base_config())
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.jsonl")]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error: out of memory: Unable to allocate 80.0 GiB" in err
    assert "Traceback" not in err

    def bare_out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "run_simulation", bare_out_of_memory)
    assert main(argv) == EXIT_USAGE
    assert "error: out of memory\n" in capsys.readouterr().err


def test_numerical_error_is_exit_1(tmp_path, capsys, monkeypatch):
    """A k-means inertia that rises is a NumericalError, the one gradlink
    error that no other exit code covers: exit 1 with one error line and no
    traceback. Each call for distances here reads 10 more than the one
    before; the unit feature rows are at most 2 apart, so the inertia of
    the second pass rises."""
    cfg = _write_config(tmp_path, _base_config())
    trace, out = tmp_path / "trace.jsonl", tmp_path / "assignment.json"
    assert main(["simulate", "--config", str(cfg), "--out", str(trace)]) == EXIT_OK
    capsys.readouterr()
    shift, sq_dists = itertools.count(), attack._sq_dists
    monkeypatch.setattr(attack, "_sq_dists", lambda g, w: sq_dists(g, w) + 10.0 * next(shift))
    argv = ["attack", "--trace", str(trace), "--method", "kmeans", "--out", str(out)]
    assert main(argv) == EXIT_ERROR == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: k-means inertia increased from ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


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


def _diverged_without_a_warning(tmp_path, capsys, doc):
    """Simulate `doc` with every RuntimeWarning an error, on any thread."""
    cfg = _write_config(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.jsonl")])
    assert code == EXIT_DIVERGED
    assert "diverged" in capsys.readouterr().err


def test_server_step_overflow_is_exit_3_without_a_warning(tmp_path, capsys):
    doc = _base_config()
    doc["fed"].update(client_lr=5.0, server_lr=1e300)
    _diverged_without_a_warning(tmp_path, capsys, doc)


def test_noise_overflow_on_the_worker_is_exit_3_without_a_warning(tmp_path, capsys, monkeypatch):
    """With one sample per step the noise std sigma * clip is 1e308, which
    overflows float32, the dtype of the draw. Each step waits for the worker
    to take all of its draws before privatize runs, so they overflow on the
    worker."""
    real = fedsim.privatize

    def privatize_after_the_worker(clipped_means, noise, draws):
        assert all(future is not None for _, future in draws)
        for _, future in draws:
            future.result(timeout=60)
        return real(clipped_means, noise, draws)

    monkeypatch.setattr(fedsim, "privatize", privatize_after_the_worker)
    doc = _base_config(dp={"clip": 1e154, "sigma": 1e154})
    doc["fed"]["batch_size"] = 1
    _diverged_without_a_warning(tmp_path, capsys, doc)


# ---------------------------------------------------------------- sweep


def test_sweep_sigma_axis(tmp_path, capsys):
    doc = {
        "base": _base_config(dp={"clip": 1.0, "sigma": 0.0}),
        "grid": {"dp.sigma": [0.0, 0.5], "attack.method": ["greedy", "kmeans"]},
    }
    cfg = _write_config(tmp_path, doc, "grid.json")
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out_dir)]) == EXIT_OK

    rows = _summary_rows(out_dir)
    assert [(r["attack.method"], r["dp.sigma"]) for r in rows] == [
        ('"greedy"', "0.0"), ('"greedy"', "0.5"), ('"kmeans"', "0.0"), ('"kmeans"', "0.5")]
    assert all(r["status"] == "ok" for r in rows)

    cells = sorted(out_dir.glob("cell_*"))
    assert [cell.name for cell in cells] == ["cell_000", "cell_001", "cell_002", "cell_003"]
    for cell in cells:
        report = _strict_json((cell / "report.json").read_text(encoding="utf-8"))
        assert report["dp"] is not None
        assert 0.0 <= report["metrics"]["purity"] <= 1.0


def test_sweep_empty_grid_is_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"base": _base_config(), "grid": {}}, "grid.json")
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "s")]) == EXIT_USAGE


@pytest.mark.parametrize("values", [[], 3, "23", {"a": 2}])
def test_sweep_axis_values_that_are_not_a_non_empty_list_are_exit_2(tmp_path, capsys, values):
    grid = {"fed.rounds": values}
    cfg = _write_config(tmp_path, {"base": _base_config(), "grid": grid}, "grid.json")
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "s")]) == EXIT_USAGE
    assert "non-empty list of values" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_sweep_with_an_invalid_cell_is_exit_2_before_any_cell_runs(tmp_path, capsys):
    """A cell's config keeps every rule of a config: a bad value, and a
    `synthetic` section set beside a `files` corpus."""
    files_base = _base_config(data={"files": {"paths": _client_files(tmp_path)}})
    for base, grid, message in (
        (_base_config(dp={"clip": 1.0, "sigma": 0.0}), {"dp.sigma": [0.1, -1.0, "x"]},
         "grid cell 1 {'dp.sigma': -1.0}: sigma must be"),
        (files_base, {"data.synthetic.overlap": [0.5]},
         "grid cell 0 {'data.synthetic.overlap': 0.5}: config.data must hold exactly one of"),
    ):
        cfg = _write_config(tmp_path, {"base": base, "grid": grid}, "grid.json")
        out_dir = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(out_dir)]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out_dir.exists()


@pytest.mark.parametrize("section, key, value", [
    pytest.param("fed", "rounds", 3, id="fed-rounds"),
    pytest.param("dp", "sigma", 3, id="dp-sigma"),
    pytest.param("attack", "method", 3, id="attack-method"),
    pytest.param("dp", "sigma", None, id="dp-null-sigma"),
    pytest.param("data.synthetic", "overlap", 3, id="data.synthetic-overlap"),
])
def test_sweep_axis_into_a_section_that_is_not_an_object_is_exit_2(
    tmp_path, capsys, section, key, value
):
    """An axis walks its path from the top of the base config; each section
    it passes through must be an object, and `"dp": null` (no DP) is not."""
    base = _base_config()
    *outer, last = section.split(".")
    functools.reduce(dict.__getitem__, outer, base)[last] = value
    doc = {"base": base, "grid": {f"{section}.{key}": [2]}}
    cfg = _write_config(tmp_path, doc, "grid.json")
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "s")]) == EXIT_USAGE
    assert f"config.{section} is not a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_non_positive_jobs_is_exit_2_before_any_cell_runs(tmp_path, capsys, jobs):
    cfg = _write_config(tmp_path, {"base": _base_config(), "grid": {"fed.server_lr": [0.1]}},
                        "grid.json")
    out_dir = tmp_path / "sweep"
    argv = ["sweep", "--config", str(cfg), "--out-dir", str(out_dir), "--jobs", jobs]
    assert main(argv) == EXIT_USAGE
    assert "--jobs" in capsys.readouterr().err
    assert not out_dir.exists()


def test_sweep_clients_axis_mi_bounded_by_log_k(tmp_path):
    doc = {"base": _base_config(), "grid": {"fed.clients": [3, 5]}}
    cfg = _write_config(tmp_path, doc, "grid.json")
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out_dir)]) == EXIT_OK
    for cell in sorted(out_dir.glob("cell_*")):
        report = json.loads((cell / "report.json").read_text())
        k = report["clients"]
        assert report["metrics"]["mutual_information"] <= np.log(k) + 1e-9


def test_sweep_cell_directory_is_one_path_component_whatever_its_values(tmp_path):
    """A `data.files.paths` value holds `/` and `..`; the cell still writes
    one directory, `cell_000`, right under --out-dir, and nothing elsewhere."""
    (tmp_path / "corp").mkdir()
    paths = [str(tmp_path / "corp" / ".." / Path(p).name) for p in _client_files(tmp_path)]
    files = {"paths": paths, "train_sentences": 2, "valid_sentences": 1}
    doc = {"base": _base_config(data={"files": files}), "grid": {"data.files.paths": [paths]}}
    cfg = _write_config(tmp_path, doc, "grid.json")
    out_dir = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out_dir)]) == EXIT_OK
    assert [r["status"] for r in _summary_rows(out_dir)] == ["ok"]
    assert sorted(p for p in tmp_path.rglob("*") if p.is_dir()) == [
        tmp_path / "corp", out_dir, out_dir / "cell_000"]
    cell_config = json.loads((out_dir / "cell_000" / "config.json").read_text(encoding="utf-8"))
    assert cell_config["data"]["files"]["paths"] == paths


def _cell_config(out_dir, i):
    return json.loads((out_dir / f"cell_{i:03d}" / "config.json").read_text(encoding="utf-8"))


def test_sweep_axis_columns_read_back_as_json(tmp_path, capsys):
    """Each axis column holds its value as JSON, whatever the value: a list
    of paths, a string, null, an object and a number each read back through
    json.loads as the value at that path of the cell's config.json."""
    paths = _client_files(tmp_path)
    files = {"paths": paths, "train_sentences": 2, "valid_sentences": 1}
    grid = {"data.files.paths": [paths], "attack.method": ["greedy", "kmeans"],
            "dp": [None, {"clip": 1.0, "sigma": 0.5}], "seed": [7]}
    doc = {"base": _base_config(data={"files": files}), "grid": grid}
    out_dir = tmp_path / "out"
    argv = ["sweep", "--config", str(_write_config(tmp_path, doc, "grid.json")),
            "--out-dir", str(out_dir), "--jobs", "2"]
    assert main(argv) == EXIT_OK
    rows = _summary_rows(out_dir)
    assert [r["status"] for r in rows] == ["ok"] * 4
    for i, row in enumerate(rows):
        config = _cell_config(out_dir, i)
        for axis in grid:
            value = functools.reduce(dict.__getitem__, axis.split("."), config)
            assert json.loads(row[axis]) == value, (i, axis)
    assert json.loads(rows[0]["data.files.paths"]) == paths
    assert [json.loads(r["dp"]) for r in rows[:2]] == [None, {"clip": 1.0, "sigma": 0.5}]


def test_failed_sweep_cell_row_names_its_seed_and_config_hash(tmp_path, capsys):
    """A `files` cell whose files are missing passes the config check and
    fails when it runs. Its row still holds the seed and config hash of its
    config.json, as the row of a cell that ran does."""
    paths = _client_files(tmp_path)
    missing = [str(tmp_path / "missing" / Path(p).name) for p in paths]
    files = {"paths": paths, "train_sentences": 2, "valid_sentences": 1}
    doc = {"base": _base_config(seed=5, data={"files": files}),
           "grid": {"data.files.paths": [paths, missing]}}
    out_dir = tmp_path / "out"
    argv = ["sweep", "--config", str(_write_config(tmp_path, doc, "grid.json")),
            "--out-dir", str(out_dir)]
    assert main(argv) == EXIT_OK
    rows = _summary_rows(out_dir)
    assert [r["status"] for r in rows] == ["ok", "failed"]
    assert rows[1]["error"].startswith("InputError: ") and rows[1]["purity"] == ""
    hashes = []
    for i, row in enumerate(rows):
        canonical = json.dumps(_cell_config(out_dir, i), sort_keys=True, separators=(",", ":"))
        hashes.append(hashlib.sha256(canonical.encode()).hexdigest()[:12])
        assert (row["seed"], row["config_hash"]) == ("5", hashes[-1])
    assert hashes[0] != hashes[1]


def _summary_rows(out_dir):
    with open(out_dir / "summary.csv", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_sweep_rows_are_the_same_for_any_jobs_and_a_diverged_cell_fails(tmp_path, capsys):
    """A huge server rate makes its cells diverge; they get failed rows, the
    other cells run, and the summary does not depend on --jobs. A `seed`
    axis is the summary's one `seed` column, failed rows included."""
    doc = {"base": _base_config(), "grid": {"seed": [3, 4], "fed.server_lr": [0.1, 1e30]}}
    cfg = _write_config(tmp_path, doc, "grid.json")
    for jobs in ("1", "2"):
        argv = ["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / jobs), "--jobs", jobs]
        assert main(argv) == EXIT_OK
    summary = (tmp_path / "1" / "summary.csv").read_bytes()
    assert (tmp_path / "2" / "summary.csv").read_bytes() == summary
    assert summary.splitlines()[0].split(b",").count(b"seed") == 1
    rows = _summary_rows(tmp_path / "1")
    assert [r["status"] for r in rows] == ["ok", "ok", "failed", "failed"]
    assert [r["seed"] for r in rows] == ["3", "4", "3", "4"]
    configs = [json.loads((tmp_path / "1" / f"cell_{i:03d}" / "config.json").read_text())
               for i in range(4)]
    assert [c["seed"] for c in configs] == [3, 4, 3, 4]
    assert all(r["error"].startswith("DivergedError: ") for r in rows if r["status"] == "failed")


def test_dp_sweep_rows_are_the_same_for_any_jobs(tmp_path, capsys):
    """With DP noise drawn on a thread pool in each cell, the summary still
    does not depend on --jobs."""
    doc = {
        "base": _base_config(dp={"clip": 1.0, "sigma": 0.5}),
        "grid": {"fed.rounds": [2, 3], "dp.sigma": [0.0, 0.5]},
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
    """Every --jobs runs its cells in worker processes, the default one too,
    so a cell that ends its process fails its row and not the sweep."""
    monkeypatch.setattr(cli, "run_sweep_cell", _exit_process)  # runs in the worker processes
    cfg = _write_config(tmp_path, {"base": _base_config(), "grid": {"fed.server_lr": [0.1, 0.2]}},
                        "grid.json")
    for jobs in ("1", "2"):
        argv = ["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / jobs), "--jobs", jobs]
        assert main(argv) == EXIT_OK
        rows = _summary_rows(tmp_path / jobs)
        assert [r["status"] for r in rows] == ["failed", "failed"]
        assert all(r["error"].startswith("BrokenProcessPool: ") for r in rows)


def test_sweep_pool_has_no_more_workers_than_cells(tmp_path, monkeypatch, capsys):
    """The pool starts all its workers at its first submit, so it asks for
    no more than there are cells. A stand-in pool records the size and runs
    each cell here: no process starts."""
    sizes = []

    class RecordingPool(concurrent.futures.Executor):
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    for lrs, jobs in (([0.1], "10000"), ([0.1, 0.2], "1")):
        cfg = _write_config(tmp_path, {"base": _base_config(), "grid": {"fed.server_lr": lrs}},
                            "grid.json")
        out_dir = tmp_path / f"out{len(lrs)}"
        argv = ["sweep", "--config", str(cfg), "--out-dir", str(out_dir), "--jobs", jobs]
        assert main(argv) == EXIT_OK
        assert [r["status"] for r in _summary_rows(out_dir)] == ["ok"] * len(lrs)
    assert sizes == [1, 1]


GRIDS = Path(__file__).resolve().parents[1] / "grids"


@pytest.mark.parametrize("name, n_cells", [
    ("client_scale", 9), ("dp_grid", 8), ("lr_sweep", 4), ("dp_hard_seeds", 36)
])
def test_checked_in_grids_are_valid(name, n_cells):
    grid_doc = json.loads((GRIDS / f"{name}.json").read_text(encoding="utf-8"))
    cells = cli._grid_cells(grid_doc)
    assert len(cells) == n_cells
    seeds = grid_doc["grid"].get("seed", [grid_doc["base"].get("seed", 0)])
    assert sorted({doc.get("seed", 0) for _, doc in cells}) == sorted(seeds)
