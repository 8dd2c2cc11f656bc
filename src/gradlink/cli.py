"""Experiment runner CLI: simulate | attack | report | sweep.

Exit codes: 0 ok, 1 any other gradlink error (today only a k-means inertia
that rises, a NumericalError), 2 usage/config error, unreadable/unwritable
path or out of memory, 3 numerical divergence.
"""

import argparse
import concurrent.futures
import copy
import csv
import dataclasses
import hashlib
import itertools
import json
import sys
from pathlib import Path

from . import attack as attack_mod
from .config import ExperimentConfig, FilesSpec, load_experiment, parse_experiment
from .corpus import generate_synthetic, load_text_shards
from .errors import (
    ConfigError, DivergedError, GradlinkError, InputError, UsageError, field, json_document,
    known_keys, read_input
)
from .fedsim import run_simulation
from .model import ModelConfig
from .report import build_report, read_sidecar, render_report, write_report, write_sidecar
from .traceio import (
    METHODS, read_assignment, read_trace, read_trace_header, write_assignment, write_trace
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3

# The summary columns of a sweep cell after its axis values; a `seed` axis
# is the `seed` column.
SUMMARY_COLUMNS = (
    "seed", "config_hash", "purity", "rand_index", "mutual_information", "status", "error"
)


def _build_shards(cfg: ExperimentConfig):
    if isinstance(cfg.data, FilesSpec):
        return load_text_shards(**dataclasses.asdict(cfg.data))
    return generate_synthetic(cfg.data, cfg.fed.seed)


def _check_out_paths(outputs: dict, inputs: dict) -> None:
    """Fail before a command's work, not after it, if an output path has no
    directory to be written into, or is the file of an input or of another
    output. Each dict maps a flag to its path, None if it is not given."""
    flag_of = {Path(path).resolve(): flag for flag, path in inputs.items()}
    for flag, path in outputs.items():
        if path is None:
            continue
        if not Path(path).parent.is_dir():
            raise UsageError(f"no directory to write {path} into: {Path(path).parent}")
        other = flag_of.setdefault(Path(path).resolve(), flag)
        if other != flag:
            raise UsageError(f"{flag} and {other} name the same file: {path}")


def simulate_to_files(cfg: ExperimentConfig, trace_path, sidecar_path):
    shards, vocab = _build_shards(cfg)
    model_cfg = ModelConfig(vocab_size=vocab.size, **dataclasses.asdict(cfg.model))
    trace, truth, _ = run_simulation(cfg.fed, model_cfg, shards, cfg.dp)
    write_trace(trace_path, trace)
    write_sidecar(sidecar_path, truth)
    return trace.loss_curve


def cmd_simulate(args) -> int:
    sidecar_path = args.sidecar or Path(f"{args.out}.sidecar.json")
    _check_out_paths({"--out": args.out, "--sidecar": sidecar_path}, {"--config": args.config})
    cfg = load_experiment(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, fed=dataclasses.replace(cfg.fed, seed=args.seed))
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
    _check_out_paths({"--out": args.out}, {"--trace": args.trace})
    attack_to_file(args.trace, args.method, args.selector, args.out)
    print(f"assignment: {args.out}")
    return EXIT_OK


def cmd_report(args) -> int:
    _check_out_paths({"--out": args.out}, {
        "--trace": args.trace, "--assignment": args.assignment, "--sidecar": args.sidecar
    })
    report = report_from_files(args.trace, args.assignment, args.sidecar, args.out)
    sys.stdout.write(render_report(report))
    return EXIT_OK


def _apply_cell(base_doc: dict, overrides: dict) -> dict:
    """`base_doc` with each value of `overrides` set at its axis, the dotted
    path of a config value, such as `dp.sigma` or `seed`; each section on
    the path that the base lacks starts empty."""
    doc = copy.deepcopy(base_doc)
    for axis, value in overrides.items():
        *sections, key = axis.split(".")
        node, where = doc, "config"
        for section in sections:
            node, where = node.setdefault(section, {}), f"{where}.{section}"
            if not isinstance(node, dict):
                raise ConfigError(f"{where} is not a JSON object")
        node[key] = value
    return doc


def _config_hash(doc: dict) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:12]


def _summary_row(doc: dict, **columns) -> dict:
    """The summary row of the cell whose checked config is `doc`: its seed
    and config hash, which a failed cell has too, then `columns`, and ""
    in every other column."""
    keys = {"seed": parse_experiment(doc).fed.seed, "config_hash": _config_hash(doc)}
    return dict.fromkeys(SUMMARY_COLUMNS, "") | keys | columns


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
    metrics = report["metrics"]
    return _summary_row(doc, purity=metrics["purity"], rand_index=metrics["rand_index"],
                        mutual_information=metrics["mutual_information"], status="ok")


def _grid_cells(grid_doc: dict):
    """The (overrides, config document) of each cell of a grid config: every
    combination of one value per axis, the axes in name order. Each cell's
    document is checked as a config, so a path that names no config value
    fails here, before any cell runs."""
    known_keys(grid_doc, ("base", "grid"), "grid config")
    base = field(grid_doc, "base", "a JSON object", lambda v: isinstance(v, dict))
    grid = field(grid_doc, "grid", "a JSON object mapping each axis to a non-empty list of values",
                 lambda v: isinstance(v, dict) and v
                 and all(isinstance(vals, list) and vals for vals in v.values()))
    axes = sorted(grid)
    cells = [dict(zip(axes, values)) for values in itertools.product(*map(grid.get, axes))]
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
    cells = _grid_cells(read_input(args.config, "grid config", json_document))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # Cells are numbered, not named by their values, which may hold `/` or
    # `..`: the summary's `cell` column and each config.json say what a cell holds.
    runs = [(str(out_dir / f"cell_{i:03d}"), doc) for i, (_, doc) in enumerate(cells)]
    results = _sweep_results(runs, args.jobs)
    # an axis value is written as JSON, so its column reads back as the value
    rows = [
        {"cell": i, **result, **{axis: json.dumps(v) for axis, v in overrides.items()}}
        for i, ((overrides, _), result) in enumerate(zip(cells, results))
    ]

    fieldnames = list(dict.fromkeys(["cell", *cells[0][0], *SUMMARY_COLUMNS]))
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
    """The row of each (cell_dir, doc) run, in order, from a pool of `jobs`
    worker processes, one job too, but no more processes than runs: the pool
    starts all its workers at the first submit. A worker that dies fails its
    cells with `BrokenProcessPool`, and the sweep still writes every row."""
    with concurrent.futures.ProcessPoolExecutor(min(jobs, len(runs))) as pool:
        futures = [pool.submit(run_sweep_cell, *run) for run in runs]
        return [_cell_row(future.result, doc) for future, (_, doc) in zip(futures, runs)]


def _cell_row(run_cell, doc: dict) -> dict:
    """The row `run_cell()` returns, or a failed row of the cell `doc`
    naming the exception it raises: a failed cell must not stop the sweep."""
    try:
        return run_cell()
    except Exception as exc:
        return _summary_row(doc, status="failed", error=f"{type(exc).__name__}: {exc}")


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
    p_sw.add_argument("--config", required=True, help="grid config: base + config-path axes")
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
    except MemoryError as exc:
        print(f"error: out of memory{': ' + str(exc) if str(exc) else ''}", file=sys.stderr)
        return EXIT_USAGE
    except GradlinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
