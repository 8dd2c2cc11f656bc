"""File formats for traces, truth sidecars, assignments, and reports.

A trace file (format version 2) is two lines of JSON. Line 1 is a header
object: K, T, seed, the manifest of FC/Proj weight layers, DP settings and
the loss curve. Line 2 is one string, the base64 of the little-endian
float32 (K*T, dim) update matrix: rows in (round, slot) order, each row the
manifest's layers row-major. Base64 keeps the file ASCII text, whose header
a text-mode `readline` can read. The truth sidecar is a separate JSON
document; keeping it in a separate file is the de-anonymization boundary.
"""

import base64
import dataclasses
import json
from pathlib import Path

import numpy as np

from .dp import DpConfig
from .errors import InputError, UsageError, is_finite_number, is_integer
from .fedsim import TraceStore, TruthSidecar

TRACE_FORMAT_VERSION = 2
_BODY_DTYPE = np.dtype("<f4")


def write_trace(path, trace: TraceStore) -> None:
    header = {
        "format_version": TRACE_FORMAT_VERSION,
        "clients": trace.clients,
        "rounds": trace.rounds,
        "seed": trace.seed,
        "layer_manifest": [{"name": n, "rows": r, "cols": c} for n, r, c in trace.layer_manifest],
        "dp": None if trace.dp is None else dataclasses.asdict(trace.dp),
        "dp_steps": trace.dp_steps,
        "dp_sample_rate": trace.dp_sample_rate,
        "loss_curve": trace.loss_curve,
    }
    body = base64.b64encode(trace.updates.astype(_BODY_DTYPE, copy=False).tobytes())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        # the base64 alphabet needs no JSON escaping
        fh.write('"' + body.decode("ascii") + '"\n')


def _int_from(minimum: int):
    return lambda v: is_integer(v) and v >= minimum


def _field(doc: dict, key: str, expected: str, ok):
    """`doc[key]`, or InputError saying it must be `expected` if not `ok`."""
    value = doc[key]
    if not ok(value):
        raise InputError(f"{key} must be {expected}, got {value!r:.80}")
    return value


def _trace_fields(header) -> dict:
    """TraceStore fields, all but `updates`, from a checked version-2 header."""
    if not isinstance(header, dict):
        raise InputError("the header is not a JSON object")
    version = header.get("format_version")
    if version != TRACE_FORMAT_VERSION or isinstance(version, bool):
        hint = "; re-run `gradlink simulate` to write it again" if version == 1 else ""
        raise InputError(f"format version {version!r} is not {TRACE_FORMAT_VERSION}{hint}")
    rounds = _field(header, "rounds", "an integer >= 2", _int_from(2))
    entries = _field(header, "layer_manifest", "a non-empty list", lambda v: isinstance(v, list) and v)
    manifest = [
        (_field(entry, "name", "a string", lambda v: isinstance(v, str)),
         _field(entry, "rows", "an integer >= 1", _int_from(1)),
         _field(entry, "cols", "an integer >= 1", _int_from(1)))
        for entry in entries
    ]
    dp = _field(header, "dp", "null or an object of finite numbers",
                lambda v: v is None
                or isinstance(v, dict) and all(map(is_finite_number, v.values())))
    return {
        "clients": _field(header, "clients", "an integer >= 2", _int_from(2)),
        "rounds": rounds,
        "seed": _field(header, "seed", "an integer >= 0", _int_from(0)),
        "layer_manifest": manifest,
        "dp": None if dp is None else DpConfig(**dp),
        "dp_steps": _field(header, "dp_steps", "null or an integer >= 0",
                           lambda v: v is None or _int_from(0)(v)),
        "dp_sample_rate": _field(header, "dp_sample_rate", "null or in (0, 1]",
                                 lambda v: v is None or is_finite_number(v) and 0.0 < v <= 1.0),
        "loss_curve": _field(header, "loss_curve", f"a list of {rounds + 1} finite numbers",
                             lambda v: isinstance(v, list) and len(v) == rounds + 1
                             and all(map(is_finite_number, v))),
    }


def read_trace(path) -> TraceStore:
    p = Path(path)
    if not p.is_file():
        raise InputError(f"missing trace file: {p}")
    try:
        with open(p, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines:
            raise InputError("the file is empty")
        fields = _trace_fields(json.loads(lines[0]))
        if len(lines) != 2:
            raise InputError(f"expected a header line and a body line, found {len(lines)} lines")
        raw = base64.b64decode(json.loads(lines[1]), validate=True)  # TypeError if not a string
        n_rows = fields["clients"] * fields["rounds"]
        dim = sum(rows * cols for _, rows, cols in fields["layer_manifest"])
        if len(raw) != n_rows * dim * _BODY_DTYPE.itemsize:
            raise InputError(f"the body holds {len(raw)} bytes, not {n_rows} rows of {dim} float32")
        updates = np.frombuffer(raw, dtype=_BODY_DTYPE).reshape(n_rows, dim)
        bad = np.flatnonzero(~np.isfinite(updates).all(axis=1))
        if bad.size:
            t, slot = divmod(int(bad[0]), fields["clients"])
            raise InputError(f"round {t} slot {slot} holds a non-finite value")
    except (InputError, UsageError, KeyError, ValueError, TypeError) as exc:
        raise InputError(f"malformed trace file {p}: {exc}") from exc
    return TraceStore(updates=updates, **fields)


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
        if not isinstance(doc, dict):
            raise InputError("the document is not a JSON object")
        rounds = _field(doc, "rounds", "a list of rounds, each a permutation of integers 0..K-1",
                        lambda v: isinstance(v, list) and all(
                            isinstance(r, list) and all(map(_int_from(0), r))
                            and sorted(r) == list(range(len(r))) for r in v))
    except (InputError, KeyError, ValueError, TypeError) as exc:
        raise InputError(f"malformed sidecar file {p}: {exc}") from exc
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
        if not isinstance(doc, dict):
            raise InputError("the document is not a JSON object")
        for key in ("method", "selector"):
            _field(doc, key, "a string", lambda v: isinstance(v, str))
        k = _field(doc, "clients", "an integer >= 2", _int_from(2))
        t = _field(doc, "rounds", "an integer >= 2", _int_from(2))
        _field(doc, "labels", f"a list of clients * rounds = {k * t} integers in [0, {k})",
               lambda v: isinstance(v, list) and len(v) == k * t
               and all(_int_from(0)(x) and x < k for x in v))
    except (InputError, KeyError, ValueError, TypeError) as exc:
        raise InputError(f"malformed assignment file {p}: {exc}") from exc
    return doc


def truth_labels(sidecar: TruthSidecar) -> np.ndarray:
    """Flatten the sidecar into one true client id per (round, slot) record,
    in (round asc, slot asc) order."""
    return np.array([cid for perm in sidecar.rounds for cid in perm], dtype=np.int64)
