"""Every output byte of the benchmark's pipeline, pinned.

Each config the benchmark runs at seeds 51-53 goes through `cli.main` as
simulate, an attack with each method and a report for each: 18 configs of 8
files each. The SHA-256 of every file must equal the table in
`output_digests.json`, keyed by workload, config seed and file name. The
configs and commands come from `perfbench/run.py` and `perfbench/worker.py`,
so the pin and the benchmark share one list; they are loaded without writing
bytecode, so nothing under `perfbench/` is written.

numpy's version is part of the pin: another version may round differently,
so the test fails and names both versions instead of comparing. The SIMD
targets numpy dispatches to on the CPU are recorded beside it: another set
(another CPU, or `NPY_DISABLE_CPU_FEATURES`) may round some ufuncs
differently too. The digests alone decide pass or fail, but a failure names
both target lists when they differ. After a change that alters outputs on
purpose, re-pin with

    PYTHONPATH=src python tests/test_output_pin.py

which rewrites the table for the installed numpy and prints the
(workload, seed, file) of every digest that changed, or that none did.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from gradlink import cli

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
PIN = Path(__file__).with_name("output_digests.json")
BENCH_SEEDS = (51, 52, 53)


def _load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _perfbench():
    """The benchmark's `run` and `worker` modules. `run` imports `worker` by
    its bare name, which resolves to the loaded module while `run` loads."""
    with mock.patch.object(sys, "dont_write_bytecode", True):
        worker = _load("worker")
        with mock.patch.dict(sys.modules, {"worker": worker}):
            return _load("run"), worker


RUN, WORKER = _perfbench()
CONFIGS = [(workload, config) for workload in RUN.WORKLOADS for seed in BENCH_SEEDS
           for config in RUN.experiment_configs(workload, seed)]


def simd_targets():
    """The SIMD targets, beyond the build's baseline, that numpy dispatches
    to on this CPU."""
    return [target for target in __cpu_dispatch__ if __cpu_features__[target]]


def pipeline_digests(config, workdir):
    """{file name: SHA-256} of every file the pipeline writes for `config`,
    run in the empty directory `workdir`."""
    config_path = workdir.parent / f"{workdir.name}.config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    for stage, argv in WORKER.commands(str(config_path), workdir):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        assert code == 0, f"{stage} exited {code}"
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(workdir.iterdir())}


@pytest.mark.parametrize("workload, config", CONFIGS,
                         ids=[f"{w}-{c['seed']}" for w, c in CONFIGS])
def test_outputs_equal_the_pinned_digests(tmp_path, workload, config):
    pin = json.loads(PIN.read_text(encoding="utf-8"))
    assert pin["numpy"] == np.__version__, (
        f"digests were pinned under numpy {pin['numpy']}, this is numpy {np.__version__}; "
        "re-pin with `PYTHONPATH=src python tests/test_output_pin.py` if outputs may change")
    workdir = tmp_path / "out"
    workdir.mkdir()
    seed = str(config["seed"])
    got = {workload: {seed: pipeline_digests(config, workdir)}}
    differ = changed_digests({workload: {seed: pin["digests"][workload][seed]}}, got)
    assert not differ, mismatch_message(differ, pin["simd"], simd_targets())


def mismatch_message(differ, pinned_simd, simd):
    """The failure message for the (workload, seed, file) keys `differ`,
    naming both lists of SIMD targets if they differ."""
    message = f"files that differ from the pin: {differ}"
    if pinned_simd != simd:
        message += (f"; the digests were pinned with numpy SIMD targets {pinned_simd}, "
                    f"this run dispatches to {simd}")
    return message


def changed_digests(old, new):
    """The sorted (workload, seed, file) of every digest that differs between
    two tables of {workload: {seed: {file: digest}}}, a file that only one
    of them holds included."""
    def flat(table):
        return {(workload, seed, name): digest for workload, seeds in table.items()
                for seed, files in seeds.items() for name, digest in files.items()}

    old, new = flat(old), flat(new)
    return sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key))


def test_changed_digests_names_each_differing_file():
    old = {"w": {"1": {"a": "x", "b": "y"}, "2": {"a": "x"}}, "v": {"1": {"a": "x"}}}
    assert changed_digests(old, old) == []
    new = {"w": {"1": {"a": "x", "b": "z"}, "2": {"a": "x", "c": "x"}}, "u": {"1": {"a": "x"}}}
    assert changed_digests(old, new) == [
        ("u", "1", "a"), ("v", "1", "a"), ("w", "1", "b"), ("w", "2", "c")]


def test_mismatch_message_names_both_simd_lists_only_when_they_differ():
    differ = [("w", "1", "trace.jsonl")]
    same = mismatch_message(differ, ["X86_V3"], ["X86_V3"])
    assert "trace.jsonl" in same and "SIMD" not in same
    other = mismatch_message(differ, ["X86_V3", "X86_V4"], [])
    assert "trace.jsonl" in other and "['X86_V3', 'X86_V4']" in other and "[]" in other


def repin():
    old = json.loads(PIN.read_text(encoding="utf-8"))
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (workload, config) in enumerate(CONFIGS):
            workdir = Path(tmp) / str(i)
            workdir.mkdir()
            digests.setdefault(workload, {})[str(config["seed"])] = pipeline_digests(
                config, workdir)
    PIN.write_text(json.dumps({"numpy": np.__version__, "simd": simd_targets(),
                               "digests": digests}, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"pinned {sum(len(d) for w in digests.values() for d in w.values())} digests "
          f"under numpy {np.__version__}, SIMD targets {simd_targets()}, in {PIN}")
    changed = changed_digests(old["digests"], digests)
    print(f"{len(changed)} changed against the table pinned under numpy {old['numpy']}:"
          if changed else "no digest changed")
    for workload, seed, name in changed:
        print(f"  {workload} seed {seed}: {name}")


if __name__ == "__main__":
    repin()
