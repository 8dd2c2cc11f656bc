import csv
import json

import numpy as np
import pytest

from gradlink.cli import EXIT_DIVERGED, EXIT_OK, EXIT_USAGE, main
from gradlink.corpus import SyntheticSpec, generate_synthetic
from gradlink.errors import InputError
from gradlink.fedsim import FedConfig, run_simulation
from gradlink.model import ModelConfig
from gradlink.report import read_report, render_report
from gradlink.traceio import (
    read_assignment,
    read_sidecar,
    read_trace,
    truth_labels,
    write_assignment,
    write_sidecar,
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
    assert len(back.records) == len(trace.records)
    for a, b in zip(trace.records, back.records):
        assert (a.round, a.slot) == (b.round, b.slot)
        for name in a.layers:
            np.testing.assert_array_equal(a.layers[name], b.layers[name])


def test_sidecar_round_trip_and_validation(tmp_path):
    _, sidecar, _ = _run_trace()
    path = tmp_path / "sidecar.json"
    write_sidecar(path, sidecar)
    assert read_sidecar(path).rounds == sidecar.rounds
    path.write_text('{"rounds": [[0, 0, 2]]}', encoding="utf-8")
    with pytest.raises(InputError):
        read_sidecar(path)


def test_truth_labels_order():
    _, sidecar, _ = _run_trace(k=3, t=2)
    flat = truth_labels(sidecar)
    assert flat.shape == (6,)
    np.testing.assert_array_equal(flat[:3], sidecar.rounds[0])
    np.testing.assert_array_equal(flat[3:], sidecar.rounds[1])


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


def _attack_edited_trace(tmp_path, edit):
    """Write a 3x3 trace, apply `edit` to its second record, and return the
    exit code of `attack` on it."""
    trace, _, _ = _run_trace(k=3, t=3)
    path = tmp_path / "trace.jsonl"
    write_trace(path, trace)
    lines = path.read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[2])
    edit(rec)
    lines[2] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "assignment.json"
    return main(["attack", "--trace", str(path), "--method", "greedy", "--out", str(out)])


def test_trace_with_duplicated_slot_is_exit_2(tmp_path):
    assert _attack_edited_trace(tmp_path, lambda rec: rec.update(slot=0)) == EXIT_USAGE


def test_trace_with_round_out_of_range_is_exit_2(tmp_path):
    assert _attack_edited_trace(tmp_path, lambda rec: rec.update(round=7)) == EXIT_USAGE


def test_trace_record_missing_a_layer_is_exit_2(tmp_path):
    code = _attack_edited_trace(tmp_path, lambda rec: rec["layers"].pop("block2.proj"))
    assert code == EXIT_USAGE


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

    report = read_report(report_path)
    assert report["metrics"]["purity"] == pytest.approx(1.0)
    rendered = render_report(report)
    assert rendered == render_report(read_report(report_path))


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


# ---------------------------------------------------------------- exit codes


def test_bad_config_is_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, _base_config(bogus_key=1))
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.jsonl")])
    assert code == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


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


def test_divergence_is_exit_3(tmp_path, capsys):
    doc = _base_config()
    doc["fed"]["client_lr"] = 500.0
    doc["fed"]["rounds"] = 8
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
        report = read_report(cell / "report.json")
        assert report["dp"] is not None
        assert 0.0 <= report["metrics"]["purity"] <= 1.0


def test_sweep_empty_grid_is_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"base": _base_config(), "grid": {}}, "grid.json")
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "s")]) == EXIT_USAGE


def test_sweep_clients_axis_mi_bounded_by_log_k(tmp_path):
    doc = {"base": _base_config(), "grid": {"clients": [3, 5]}}
    cfg = _write_config(tmp_path, doc, "grid.json")
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out_dir)]) == EXIT_OK
    for cell in sorted(out_dir.glob("cell_*")):
        report = read_report(cell / "report.json")
        k = report["clients"]
        assert report["metrics"]["mutual_information"] <= np.log(k) + 1e-9
