"""Experiment runner CLI: simulate | attack | report | sweep.

Exit codes: 0 ok, 2 usage/config error or unreadable/unwritable path,
3 numerical divergence.
"""

import argparse
import concurrent.futures
import copy
import csv
import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

from . import attack as attack_mod
from .config import (
    METHODS,
    ExperimentConfig,
    FilesSpec,
    load_experiment,
    load_json,
    parse_experiment,
)
from .corpus import generate_synthetic, load_text_shards
from .errors import ConfigError, DivergedError, GradlinkError, InputError, UsageError
from .fedsim import run_simulation
from .model import ModelConfig
from .report import build_report, render_report, write_report
from .traceio import (
    read_assignment,
    read_sidecar,
    read_trace,
    read_trace_header,
    write_assignment,
    write_sidecar,
    write_trace,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGED = 3

# Grid axes the sweep command accepts, mapped onto config fields.
SWEEP_AXES = ("server_lr", "rounds", "clients", "clip", "sigma", "method", "selector")


def _build_shards(cfg: ExperimentConfig):
    if isinstance(cfg.data, FilesSpec):
        return load_text_shards(
            cfg.data.paths,
            cfg.data.train_sentences,
            cfg.data.valid_sentences,
            cfg.data.freq_cutoff,
        )
    return generate_synthetic(cfg.data, cfg.fed.seed)


def _model_config(cfg: ExperimentConfig, vocab_size: int) -> ModelConfig:
    return ModelConfig(
        vocab_size=vocab_size,
        embed_dim=cfg.model.embed_dim,
        context=cfg.model.context,
        n_blocks=cfg.model.n_blocks,
        ffn_mult=cfg.model.ffn_mult,
    )


def simulate_to_files(cfg: ExperimentConfig, trace_path, sidecar_path):
    for path in (trace_path, sidecar_path):  # fail before training, not after
        if not Path(path).parent.is_dir():
            raise UsageError(f"no directory to write {path} into: {Path(path).parent}")
    shards, vocab = _build_shards(cfg)
    trace, sidecar, _ = run_simulation(cfg.fed, _model_config(cfg, vocab.size), shards, cfg.dp)
    write_trace(trace_path, trace)
    write_sidecar(sidecar_path, sidecar)
    return trace.loss_curve


def _default_sidecar(trace_path) -> Path:
    return Path(str(trace_path) + ".sidecar.json")


def cmd_simulate(args) -> int:
    cfg = load_experiment(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, fed=dataclasses.replace(cfg.fed, seed=args.seed))
    sidecar_path = args.sidecar or _default_sidecar(args.out)
    losses = simulate_to_files(cfg, args.out, sidecar_path)
    print(
        f"simulated K={cfg.fed.clients} T={cfg.fed.rounds}: "
        f"loss {losses[0]:.4f} -> {losses[-1]:.4f}"
    )
    print(f"trace: {args.out}")
    print(f"sidecar: {sidecar_path}")
    return EXIT_OK


def run_attack(trace, method: str, selector: str):
    features = attack_mod.build_features(trace, selector)
    if method == "kmeans":
        return attack_mod.kmeans(features, trace.clients, seed=trace.seed)
    if method == "spectral":
        return attack_mod.spectral(features, trace.clients, seed=trace.seed)
    if method == "greedy":
        return attack_mod.greedy_match(features)
    raise UsageError(f"unknown attack method {method!r}")


def attack_to_file(trace_path, method: str, selector: str, assignment_path) -> None:
    trace = read_trace(trace_path)
    labels = run_attack(trace, method, selector)
    write_assignment(
        assignment_path,
        labels,
        clients=trace.clients,
        rounds=trace.rounds,
        method=method,
        selector=selector,
    )


def report_from_files(trace_path, assignment_path, sidecar_path, report_path=None) -> dict:
    report = build_report(
        read_trace_header(trace_path), read_assignment(assignment_path), read_sidecar(sidecar_path)
    )
    if report_path:
        write_report(report_path, report)
    return report


def cmd_attack(args) -> int:
    attack_to_file(args.trace, args.method, args.selector, args.out)
    print(f"assignment: {args.out}")
    return EXIT_OK


def cmd_report(args) -> int:
    report = report_from_files(args.trace, args.assignment, args.sidecar, args.out)
    sys.stdout.write(render_report(report))
    return EXIT_OK


def _apply_cell(base_doc: dict, overrides: dict) -> dict:
    doc = copy.deepcopy(base_doc)
    for axis, value in overrides.items():
        if axis in ("server_lr", "rounds", "clients"):
            doc.setdefault("fed", {})[axis] = value
        elif axis in ("clip", "sigma"):
            if doc.get("dp") is None:
                raise ConfigError(
                    f"grid axis {axis!r} requires a 'dp' section in the base config"
                )
            doc["dp"][axis] = value
        elif axis in ("method", "selector"):
            doc.setdefault("attack", {})[axis] = value
        else:
            raise ConfigError(f"unknown grid axis {axis!r}")
    return doc


def _config_hash(doc: dict) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:12]


def run_sweep_cell(cell_dir: str, doc: dict) -> dict:
    """Run one grid cell end to end; returns its summary row."""
    out = Path(cell_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = parse_experiment(doc)
    trace_path = out / "trace.jsonl"
    sidecar_path = out / "sidecar.json"
    assignment_path = out / "assignment.json"
    report_path = out / "report.json"
    (out / "config.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    simulate_to_files(cfg, trace_path, sidecar_path)
    attack_to_file(trace_path, cfg.attack.method, cfg.attack.selector, assignment_path)
    report = report_from_files(trace_path, assignment_path, sidecar_path, report_path)
    return {
        "seed": cfg.fed.seed,
        "config_hash": _config_hash(doc),
        "purity": report["metrics"]["purity"],
        "rand_index": report["metrics"]["rand_index"],
        "mutual_information": report["metrics"]["mutual_information"],
        "status": "ok",
        "error": "",
    }


def _grid_cells(grid_doc: dict):
    base = grid_doc.get("base")
    grid = grid_doc.get("grid")
    unknown = set(grid_doc) - {"base", "grid"}
    if unknown:
        raise ConfigError(f"unknown keys in grid config: {sorted(unknown)}")
    if not isinstance(base, dict) or not isinstance(grid, dict):
        raise ConfigError("grid config needs 'base' and 'grid' objects")
    bad = set(grid) - set(SWEEP_AXES)
    if bad:
        raise ConfigError(f"unknown grid axes: {sorted(bad)} (allowed: {SWEEP_AXES})")
    if not grid or any(not vals for vals in grid.values()):
        raise ConfigError("grid is empty")
    cells = [{}]
    for axis in sorted(grid):
        cells = [dict(cell, **{axis: value}) for cell in cells for value in grid[axis]]
    checked = []
    for i, overrides in enumerate(cells):  # fail before launching any cell
        try:
            doc = _apply_cell(base, overrides)
            parse_experiment(doc)
        except (ConfigError, UsageError) as exc:
            raise ConfigError(f"grid cell {i} {overrides}: {exc}") from exc
        checked.append((overrides, doc))
    return checked


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    cells = _grid_cells(load_json(args.config, "grid config"))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    runs = []
    for i, (overrides, doc) in enumerate(cells):
        desc = "_".join(f"{k}-{overrides[k]}" for k in sorted(overrides))
        runs.append((str(out_dir / f"cell_{i:03d}_{desc}"), doc))
    results = _sweep_results(runs, args.jobs)
    rows = [
        dict({"cell": i}, **overrides, **result)
        for i, ((overrides, _), result) in enumerate(zip(cells, results))
    ]

    axes = sorted({k for overrides, _ in cells for k in overrides})
    fieldnames = (
        ["cell"]
        + axes
        + ["seed", "config_hash", "purity", "rand_index", "mutual_information", "status", "error"]
    )
    summary_path = out_dir / "summary.csv"
    with open(summary_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    failures = sum(1 for r in rows if r["status"] != "ok")
    print(f"sweep: {len(rows)} cells, {failures} failed")
    print(f"summary: {summary_path}")
    return EXIT_OK


def _sweep_results(runs, jobs: int) -> list:
    """The row of each (cell_dir, doc) run, in order. One job runs the cells
    in this process; more run them in a pool of that many worker processes,
    where a worker that dies fails its cells with `BrokenProcessPool`."""
    if jobs == 1:
        return [_cell_row(functools.partial(run_sweep_cell, *run)) for run in runs]
    with concurrent.futures.ProcessPoolExecutor(jobs) as pool:
        futures = [pool.submit(run_sweep_cell, *run) for run in runs]
        return [_cell_row(future.result) for future in futures]


def _cell_row(run_cell) -> dict:
    """The row `run_cell()` returns, or a failed row naming the exception it
    raises: a failed cell must not stop the sweep."""
    try:
        return run_cell()
    except Exception as exc:
        return {
            "seed": "",
            "config_hash": "",
            "purity": "",
            "rand_index": "",
            "mutual_information": "",
            "status": "failed",
            "error": f"{type(exc).__name__}: {exc}",
        }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradlink",
        description=(
            "Federated-learning shuffle de-anonymization testbed: simulate "
            "training traces, run fingerprinting attacks, score them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run federated training and record a trace")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True, help="trace output path")
    p_sim.add_argument("--sidecar", help="truth sidecar output path")
    p_sim.add_argument("--seed", type=int, help="override the config seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_att = sub.add_parser("attack", help="re-link an anonymized trace")
    p_att.add_argument("--trace", required=True)
    p_att.add_argument("--method", required=True, choices=METHODS)
    p_att.add_argument("--selector", default="both")
    p_att.add_argument("--out", required=True, help="assignment output path")
    p_att.set_defaults(func=cmd_attack)

    p_rep = sub.add_parser("report", help="score an assignment against the truth")
    p_rep.add_argument("--trace", required=True)
    p_rep.add_argument("--assignment", required=True)
    p_rep.add_argument("--sidecar", required=True)
    p_rep.add_argument("--out", help="JSON report output path")
    p_rep.set_defaults(func=cmd_report)

    p_sw = sub.add_parser("sweep", help="run a grid of experiments")
    p_sw.add_argument("--config", required=True, help="grid config (base + axes)")
    p_sw.add_argument("--out-dir", required=True)
    p_sw.add_argument("--jobs", type=int, default=1)
    p_sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DivergedError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ConfigError, UsageError, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GradlinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
