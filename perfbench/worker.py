"""One benchmark pipeline run in a fresh process.

    python3 perfbench/worker.py --config CFG --workdir DIR --result OUT [--trace] [--setup-only]

Imports gradlink (found through PYTHONPATH), parses the config, then runs
`simulate`, `attack` for each method and `report` for each method through
`gradlink.cli.main` in this process. It writes one JSON object to OUT: the
monotonic time at which set-up ended, each command's exit code and
seconds, the peak resident set size, the times of the calibration kernel
run before each command and after the last, and with --trace the
per-layer values. A fresh process per run keeps `ru_maxrss` to this run
alone.
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

METHODS = ("kmeans", "spectral", "greedy")
# One stage per CLI command, in execution order.
STAGES = ["simulate"] + [f"attack_{m}" for m in METHODS] + [f"report_{m}" for m in METHODS]


def calibrate():
    """Time one pass of a fixed kernel that mixes the kinds of work the
    pipeline does: JSON floats, NumPy passes over an 8 MB array and a
    pure-Python loop. It runs no gradlink code, so its time follows only the
    speed of the host, which on a shared VM drifts by 10-30 % from minute to
    minute."""
    import random

    import numpy as np

    rng = random.Random(0)
    floats = [rng.random() for _ in range(20_000)]
    start = time.perf_counter()
    json.loads(json.dumps(floats))
    acc = 0
    for i in range(150_000):
        acc += i * i
    a = np.arange(1_000_000, dtype=np.float64)
    for _ in range(12):
        a = a * 1.0000001
    return time.perf_counter() - start


def commands(config, workdir):
    """The pipeline as (stage name, argv) pairs, in execution order."""
    trace = str(workdir / "trace.jsonl")
    sidecar = str(workdir / "sidecar.json")
    steps = [("simulate", ["simulate", "--config", config, "--out", trace, "--sidecar", sidecar])]
    for m in METHODS:
        steps.append((f"attack_{m}", [
            "attack", "--trace", trace, "--method", m,
            "--out", str(workdir / f"assignment_{m}.json"),
        ]))
    for m in METHODS:
        steps.append((f"report_{m}", [
            "report", "--trace", trace, "--assignment", str(workdir / f"assignment_{m}.json"),
            "--sidecar", sidecar, "--out", str(workdir / f"report_{m}.json"),
        ]))
    return steps


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from gradlink import cli
    from gradlink.config import load_experiment

    cfg = load_experiment(args.config)
    result = {"setup_end": time.monotonic()}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0

    tracer = None
    run = cli.main
    if args.trace:
        import layers

        tracer = layers.Tracer()
        layers.install(tracer, cfg.model.context)

    result["stages"] = {}
    result["exit_codes"] = {}
    calibrate()  # warm-up
    result["calibration"] = []
    for stage, argv in commands(args.config, Path(args.workdir)):
        result["calibration"].append(calibrate())
        if tracer is not None:
            run = tracer.span("cli." + argv[0], cli.main)
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = run(argv)
            except Exception as exc:  # a crash is a failed operation, not a lost run
                print(f"{stage}: {type(exc).__name__}: {exc}", file=sys.stderr)
                code = -1
        result["stages"][stage] = time.perf_counter() - start
        result["exit_codes"][stage] = code
        if code != 0:
            break
    result["calibration"].append(calibrate())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = layers.layer_metrics(tracer)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
