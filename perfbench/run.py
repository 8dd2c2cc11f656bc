"""gradlink benchmark: the full simulate -> attack -> report pipeline on one
workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; gradlink is imported from `src`.
The workload and seed make the experiment configs, and the program sees only
those. Each pipeline run is a fresh single-threaded Python process
(perfbench/worker.py) that calls `gradlink.cli.main` for `simulate`, then
`attack` with each method, then `report` for each method. Runs repeat in a
closed loop with one client for about S seconds, and each timing is the
median over runs, scaled to the speed of a reference host (see
CALIBRATION_REF_S). Every command counts as one operation, and its outputs are
checked. With --trace 1, runs alternate between untraced and traced, and the
output holds the per-layer values of perfbench/layers.py instead of the
end-to-end metrics.

Human-readable lines come first. The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
See perfbench/README.md for why each workload exists and which layer metric
should move which end-to-end metric.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from worker import METHODS, STAGES

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORKER = BENCH_DIR / "worker.py"
# Trace and sidecar digests seen so far, per source version and config, so
# that a run also checks byte-reproducibility against earlier runs.
DIGESTS = BENCH_DIR / ".digests.json"

# Set-up-only processes per run, besides the set-up of each pipeline run.
SETUP_SAMPLES = 10
# A run must end within this many seconds, whatever --seconds says.
HARD_LIMIT_S = 170.0
# Median time of worker.calibrate() on the reference host, a shared 2-vCPU
# Xeon VM. End-to-end timings are given at that host's speed: each pipeline
# run's seconds are scaled by CALIBRATION_REF_S over the median time of the
# calibration kernel in that run. The speed of a shared host drifts by
# 10-30 % over minutes, more than medians within a 40 s run can absorb.
CALIBRATION_REF_S = 0.065

DEFAULT_MODEL = {"embed_dim": 32, "context": 4, "n_blocks": 4, "ffn_mult": 4}
# Each workload is an experiment config plus how many configs (seeds) one
# benchmark run covers. Quality values vary from seed to seed, so a run
# reports their mean over its configs; dp-noisy needs four to be steady.
# Sizes keep one pipeline run to 5-9 s, so that a run holds several and
# each timing is a median over them.
WORKLOADS = {
    "clean-wide": ({
        "fed": {"clients": 5, "rounds": 4},
        "model": DEFAULT_MODEL,
        "data": {"synthetic": {"overlap": 0.1}},
    }, 1),
    "dp-noisy": ({
        "fed": {"clients": 5, "rounds": 3},
        "model": DEFAULT_MODEL,
        "data": {"synthetic": {"overlap": 0.1}},
        "dp": {"clip": 1.0, "sigma": 0.1},
    }, 4),
    "many-clients": ({
        "fed": {"clients": 20, "rounds": 6},
        "model": {"embed_dim": 16, "context": 3, "n_blocks": 2, "ffn_mult": 2},
        "data": {"synthetic": {"overlap": 0.5}},
    }, 1),
}

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "simulate_s": "s",
    "attack_kmeans_s": "s",
    "attack_spectral_s": "s",
    "attack_greedy_s": "s",
    "report_s": "s",
    "peak_rss_mb": "MB",
    "trace_mb": "MB",
    **{f"purity_{m}": "ratio" for m in METHODS},
    **{f"mi_{m}": "nats" for m in METHODS},
    "final_loss": "nats",
}


def experiment_configs(workload, seed):
    """The configs one run covers: benchmark seed s with n configs per run
    gives config seeds s*n .. s*n+n-1, so different seeds never share one."""
    base, count = WORKLOADS[workload]
    return [dict(base, seed=seed * count + i) for i in range(count)]


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(workdir, config, deadline, *, trace=False, setup_only=False):
    """Run one worker process to completion. Returns its result with
    `setup_s` added, or None if it failed or overran the deadline."""
    workdir.mkdir(parents=True, exist_ok=True)
    result_path = workdir / "result.json"
    argv = [sys.executable, str(WORKER), "--config", str(config),
            "--workdir", str(workdir), "--result", str(result_path)]
    argv += ["--trace"] * trace + ["--setup-only"] * setup_only
    started = time.monotonic()
    proc = subprocess.Popen(argv, env=worker_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        print(f"worker overran the time limit in {workdir.name}", file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not result_path.is_file():
        print(f"worker failed with exit code {proc.returncode}:\n{err}", file=sys.stderr)
        return None
    if err:
        sys.stderr.write(err)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = result["setup_end"] - started
    result["wall_s"] = time.monotonic() - started
    return result


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def source_version():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_simulate(workdir, rounds, values):
    """Check the loss curve and record the final loss, trace size and output
    digests of one `simulate`. Returns a reason it is wrong, or None."""
    trace = workdir / "trace.jsonl"
    with open(trace, encoding="utf-8") as fh:
        losses = json.loads(fh.readline())["loss_curve"]
    if len(losses) != rounds + 1 or not all(math.isfinite(v) for v in losses):
        return f"loss curve has {len(losses)} values or a non-finite one"
    values["final_loss"] = losses[-1]
    values["trace_mb"] = trace.stat().st_size / 1e6
    values["digests"] = [sha256(trace), sha256(workdir / "sidecar.json")]
    return None


def check_assignment(path, clients, rounds):
    labels = json.loads(path.read_text(encoding="utf-8"))["labels"]
    if len(labels) != clients * rounds:
        return f"{len(labels)} labels, expected {clients * rounds}"
    if not all(isinstance(v, int) and 0 <= v < clients for v in labels):
        return f"a label is outside [0, {clients})"
    return None


def check_report(path, method, values):
    doc = json.loads(path.read_text(encoding="utf-8"))
    m = doc["metrics"]
    if doc["method"] != method:
        return f"report is for method {doc['method']!r}"
    if not (0.0 <= m["purity"] <= 1.0 and 0.0 <= m["rand_index"] <= 1.0):
        return "purity or Rand index outside [0, 1]"
    if not (math.isfinite(m["mutual_information"]) and m["mutual_information"] >= 0.0):
        return "mutual information is negative or not finite"
    values[f"purity_{method}"] = m["purity"]
    values[f"mi_{method}"] = m["mutual_information"]
    return None


def check_run(result, workdir, clients, rounds):
    """Check every command's exit code and outputs. Returns (values, errors):
    the values read from the outputs, and one message per failed command."""
    codes = result["exit_codes"] if result else {}
    values, errors = {}, []

    def check(stage, output_error):
        if codes.get(stage) != 0:
            errors.append(f"{stage}: exit code {codes.get(stage)}")
            return
        try:
            err = output_error()
        except (OSError, ValueError, KeyError, TypeError) as exc:
            err = f"unreadable output: {exc}"
        if err:
            errors.append(f"{stage}: {err}")

    check("simulate", lambda: check_simulate(workdir, rounds, values))
    for m in METHODS:
        check(f"attack_{m}", lambda: check_assignment(
            workdir / f"assignment_{m}.json", clients, rounds))
    for m in METHODS:
        check(f"report_{m}", lambda: check_report(workdir / f"report_{m}.json", m, values))
    return values, errors


def check_digests(config, digests):
    """Compare a config's trace and sidecar digests with those recorded by
    earlier runs of the same source and config, and record them."""
    key = source_version() + ":" + hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]
    try:
        known = json.loads(DIGESTS.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        known = {}
    expected = known.setdefault(key, list(digests))
    DIGESTS.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    return list(digests) == expected


def host_speed(run):
    """How much faster than the reference host this pipeline run ran."""
    return CALIBRATION_REF_S / statistics.median(run["calibration"])


def end_to_end(runs, setups):
    """Pipeline timings are medians over all pipeline runs of the seconds
    scaled to the reference host's speed. `setup_s` and peak memory are
    plain medians. Values read from the outputs (trace size, quality, loss)
    are a property of each config, so they are the mean over the run's
    configs, taken from each config's first pipeline run."""
    med = lambda f: statistics.median(f(r) * host_speed(r) for r in runs)
    first = {}
    for r in runs:
        first.setdefault(r["config"], r)
    mean = lambda f: statistics.fmean(f(r) for r in first.values())
    out = {
        "setup_s": statistics.median(setups),
        "pipeline_s": med(lambda r: sum(r["stages"].values())),
        "simulate_s": med(lambda r: r["stages"]["simulate"]),
        "report_s": med(lambda r: sum(r["stages"][f"report_{m}"] for m in METHODS)),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    for m in METHODS:
        out[f"attack_{m}_s"] = med(lambda r: r["stages"][f"attack_{m}"])
    for key in ["trace_mb", "final_loss"] + [f"{q}_{m}" for q in ("purity", "mi") for m in METHODS]:
        out[key] = mean(lambda r: r["values"][key])
    return {name: {"value": out[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(runs):
    """Median of each layer value over the traced runs, plus the tracing
    overhead: traced minus untraced median pipeline time."""
    import layers

    traced = [r for r in runs if "layers" in r]
    plain = [r for r in runs if "layers" not in r]
    out = {
        name: {"value": statistics.median(r["layers"][name] for r in traced), "unit": unit}
        for name, unit in layers.METRICS.items()
    }
    pipeline = lambda rs: statistics.median(sum(r["stages"].values()) for r in rs)
    out["bench.tracing_overhead_s"] = {"value": pipeline(traced) - pipeline(plain), "unit": "s"}
    out["bench.calibration_s"] = {
        "value": statistics.median(statistics.median(r["calibration"]) for r in runs),
        "unit": "s",
    }
    return out


def measure(workload, seed, seconds, trace, workdir):
    """Run pipelines in a closed loop for about `seconds`. Without tracing,
    runs cycle through the configs, each config at least once. With tracing,
    each config runs untraced and then traced, so the two can be compared."""
    configs = experiment_configs(workload, seed)
    fed = configs[0]["fed"]
    paths = []
    for i, config in enumerate(configs):
        paths.append(workdir / f"config{i}.json")
        paths[-1].write_text(json.dumps(config, indent=1), encoding="utf-8")
    deadline = time.monotonic() + HARD_LIMIT_S

    # The first process compiles bytecode, which users pay once, not per run.
    spawn(workdir / "warmup", paths[0], deadline, setup_only=True)
    setups = []
    for i in range(SETUP_SAMPLES):
        result = spawn(workdir / f"setup{i}", paths[0], deadline, setup_only=True)
        if result is None:
            return None
        setups.append(result["setup_s"])

    runs, attempted, errors, digests = [], 0, [], {}
    min_runs = 2 if trace else len(configs)
    start = time.monotonic()
    while True:
        n = len(runs)
        index = (n // 2 if trace else n) % len(configs)
        run_dir = workdir / f"run{n}"
        result = spawn(run_dir, paths[index], deadline, trace=trace and n % 2 == 1)
        values, run_errors = check_run(result, run_dir, fed["clients"], fed["rounds"])
        attempted += len(STAGES)
        shutil.rmtree(run_dir)
        if "digests" in values:
            seen = digests.setdefault(index, values["digests"])
            if values.pop("digests") != seen:
                run_errors.append("simulate: trace or sidecar bytes differ between runs of one config")
        errors += run_errors
        if result is None or run_errors:
            break
        result["values"] = values
        result["config"] = index
        runs.append(result)
        setups.append(result["setup_s"])
        if len(runs) >= min_runs and time.monotonic() - start + result["wall_s"] > seconds:
            break
    for index, seen in digests.items():
        if not check_digests(configs[index], seen):
            errors.append("simulate: trace or sidecar bytes differ from an earlier run")
    return {
        "runs": runs,
        "setups": setups,
        "attempted": attempted,
        "failed": min(len(errors), attempted),
        "errors": errors,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="gradlink end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="a non-negative integer")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "gradlink" / "cli.py").is_file():
        print(f"error: no gradlink sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    # On SIGTERM, unwind through the `finally` blocks, which kill the worker
    # and delete the work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    workdir = Path(tempfile.mkdtemp(prefix=".run-", dir=BENCH_DIR))
    try:
        outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if outcome is None:
        print("error: a set-up process failed", file=sys.stderr)
        return 1
    for err in outcome["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    runs = outcome["runs"]
    correct = not outcome["errors"]
    metrics = {}
    if len(runs) >= 2 or (runs and not args.trace):
        metrics = per_layer(runs) if args.trace else end_to_end(runs, outcome["setups"])
    else:
        correct = False

    print(f"workload {args.workload}, seed {args.seed}: {len(runs)} pipeline runs, "
          f"{len(outcome['setups'])} set-up samples; timings are medians, "
          f"output values are means over {len(experiment_configs(args.workload, 0))} config(s)")
    if runs:
        speed = statistics.median(host_speed(r) for r in runs)
        print(f"host speed {speed:.3f} x the reference host; end-to-end timings "
              f"except setup_s are scaled to the reference host")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    print(f"  operations failed/attempted: {outcome['failed']}/{outcome['attempted']}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
