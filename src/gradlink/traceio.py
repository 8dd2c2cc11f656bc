"""File formats for traces, truth sidecars, assignments, and reports.

A trace file is line-oriented JSON: line 1 is a header object, every further
line is one record holding only the FC/Proj weight-gradient layers at 32-bit
precision. The truth sidecar is a separate JSON document; keeping it in a
separate file is the de-anonymization boundary.
"""

import json
from pathlib import Path
from typing import List, Optional

import numpy as np

from .dp import DpConfig
from .errors import InputError
from .fedsim import TRACE_FORMAT_VERSION, TraceRecord, TraceStore, TruthSidecar


def _f32(values: np.ndarray) -> List[float]:
    return [float(v) for v in np.asarray(values, dtype=np.float32).ravel()]


def write_trace(path, trace: TraceStore) -> None:
    header = {
        "format_version": TRACE_FORMAT_VERSION,
        "clients": trace.clients,
        "rounds": trace.rounds,
        "seed": trace.seed,
        "layer_manifest": [
            {"name": name, "rows": rows, "cols": cols}
            for name, rows, cols in trace.layer_manifest
        ],
        "dp": (
            None
            if trace.dp is None
            else {"clip": trace.dp.clip, "sigma": trace.dp.sigma, "delta": trace.dp.delta}
        ),
        "dp_steps": trace.dp_steps,
        "dp_sample_rate": trace.dp_sample_rate,
        "loss_curve": trace.loss_curve,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for rec in trace.records:
            line = {
                "round": rec.round,
                "slot": rec.slot,
                "layers": {name: _f32(arr) for name, arr in rec.layers.items()},
            }
            fh.write(json.dumps(line, separators=(",", ":")) + "\n")


def read_trace(path) -> TraceStore:
    p = Path(path)
    if not p.is_file():
        raise InputError(f"missing trace file: {p}")
    with open(p, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise InputError(f"empty trace file: {p}")
    try:
        header = json.loads(lines[0])
        manifest = [
            (entry["name"], entry["rows"], entry["cols"])
            for entry in header["layer_manifest"]
        ]
        shapes = {name: (rows, cols) for name, rows, cols in manifest}
        dp = None
        if header.get("dp") is not None:
            dp = DpConfig(**header["dp"])
        trace = TraceStore(
            clients=header["clients"],
            rounds=header["rounds"],
            seed=header["seed"],
            layer_manifest=manifest,
            dp=dp,
            dp_steps=header.get("dp_steps"),
            dp_sample_rate=header.get("dp_sample_rate"),
            loss_curve=header.get("loss_curve", []),
        )
        for line in lines[1:]:
            rec = json.loads(line)
            t, slot = rec["round"], rec["slot"]
            if not (isinstance(t, int) and isinstance(slot, int)):
                raise InputError(f"trace {p} has a non-integer round or slot: {t!r}, {slot!r}")
            if not 0 <= t < trace.rounds:
                raise InputError(
                    f"trace {p} has a record for round {t}, outside [0, {trace.rounds})"
                )
            if set(rec["layers"]) != set(shapes):
                raise InputError(
                    f"trace {p} record (round {t}, slot {slot}) has layers "
                    f"{sorted(rec['layers'])}, the manifest names {sorted(shapes)}"
                )
            layers = {
                name: np.asarray(values, dtype=np.float32).reshape(shapes[name])
                for name, values in rec["layers"].items()
            }
            trace.records.append(TraceRecord(round=t, slot=slot, layers=layers))
        # also rejects a truncated trace or one with extra records
        slots = [[] for _ in range(trace.rounds)]
        for rec in trace.records:
            slots[rec.round].append(rec.slot)
        for t, got in enumerate(slots):
            if sorted(got) != list(range(trace.clients)):
                raise InputError(
                    f"trace {p} round {t} holds slots {sorted(got)}, "
                    f"expected 0..{trace.clients - 1} once each"
                )
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"malformed trace file {p}: {exc}") from exc
    return trace


def write_sidecar(path, sidecar: TruthSidecar) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"rounds": [list(r) for r in sidecar.rounds]}, fh, separators=(",", ":"))
        fh.write("\n")


def read_sidecar(path) -> TruthSidecar:
    p = Path(path)
    if not p.is_file():
        raise InputError(f"missing sidecar file: {p}")
    try:
        with open(p, encoding="utf-8") as fh:
            doc = json.load(fh)
        rounds = [list(map(int, r)) for r in doc["rounds"]]
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"malformed sidecar file {p}: {exc}") from exc
    for r in rounds:
        if sorted(r) != list(range(len(r))):
            raise InputError(f"sidecar round is not a permutation: {r}")
    return TruthSidecar(rounds=rounds)


def write_assignment(path, labels, *, clients: int, rounds: int, method: str, selector: str) -> None:
    doc = {
        "method": method,
        "selector": selector,
        "clients": clients,
        "rounds": rounds,
        "labels": [int(v) for v in labels],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")


def read_assignment(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise InputError(f"missing assignment file: {p}")
    try:
        with open(p, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["labels"] = [int(v) for v in doc["labels"]]
        for key in ("method", "selector", "clients", "rounds"):
            doc[key]
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"malformed assignment file {p}: {exc}") from exc
    return doc


def truth_labels(sidecar: TruthSidecar) -> np.ndarray:
    """Flatten the sidecar into one true client id per (round, slot) record,
    in (round asc, slot asc) order."""
    return np.array([cid for perm in sidecar.rounds for cid in perm], dtype=np.int64)
