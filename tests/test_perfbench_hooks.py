"""The benchmark's per-layer tracing (perfbench/layers.py) replaces names in
gradlink's modules with timing wrappers. Removing or renaming one of them
breaks only traced benchmark runs, so one traced pipeline run on a tiny
config guards them here. Nothing under perfbench/ is written."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# dp.clip_gradient is no longer on the training path (clipping happens inside
# the batched backward pass), so the counters hooked onto it read 0.
UNUSED_COUNTERS = {"dp.clip_gradient_calls", "dp.clipped", "dp.clip_fraction"}


def _layer_metric_names(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return set(layers.METRICS)


def test_traced_benchmark_run_fills_every_layer(tmp_path, monkeypatch):
    config = {
        "seed": 0,
        "fed": {"clients": 3, "rounds": 2},
        "model": {"embed_dim": 8, "context": 3, "n_blocks": 2, "ffn_mult": 2},
        "data": {"synthetic": {"train_sentences": 8, "valid_sentences": 3}},
        "dp": {"clip": 1.0, "sigma": 0.1},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    result_path = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "--config", str(config_path),
         "--workdir", str(tmp_path), "--result", str(result_path), "--trace"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(result_path.read_text(encoding="utf-8"))
    assert len(result["exit_codes"]) == 7, result["exit_codes"]  # simulate, 3 attacks, 3 reports
    assert set(result["exit_codes"].values()) == {0}, proc.stderr
    layers = result["layers"]
    assert set(layers) >= _layer_metric_names(monkeypatch)
    unfilled = {name for name, value in layers.items() if not value} - UNUSED_COUNTERS
    assert not unfilled, f"layers the traced run never reached: {sorted(unfilled)}"
