"""The server's view of a run, TraceStore, and the file formats of the
trace and of attack assignments. Nothing here knows which client sent which
update: the truth and its sidecar format live in `report`, and
tests/test_structure.py checks that the attack cannot import them.

A trace file (format version 3) has two lines of JSON. Line 1 is a header
object with exactly the keys `format_version`, `clients` (K), `rounds` (T),
`seed`, `layer_manifest` (the FC/Proj weight layers, each exactly `name`,
`rows` and `cols`, no name twice), `dp` (null, or exactly `clip`, `sigma`
and `delta`), `dp_steps` and `loss_curve`; an unknown or a missing key is
malformed. Line 2 is exactly a double quote, the base64 of the
little-endian float32 (K*T, dim) update matrix, a double quote and a
newline, with no whitespace and no escapes. Rows are in (round, slot)
order, each row the manifest's layers row-major. Files are read and written
as bytes, and `binascii` checks and decodes the body in one strict pass.
The body stays base64 text, not raw float32: then the whole file is ASCII,
and a text-mode `readline`, which decodes ahead of the line it returns, can
read the header.
"""

import binascii
import dataclasses
import json
from typing import List, Optional, Tuple

import numpy as np

from .dp import DpConfig
from .errors import (
    InputError, field, integer, is_finite_number, is_integer, json_document, known_keys, read_input
)

TRACE_FORMAT_VERSION = 3
_BODY_DTYPE = np.dtype("<f4")
# the attack methods, each named in the assignments it writes
METHODS = ("kmeans", "spectral", "greedy")
# the rules of an attack's method and selector, in a config and in an assignment file
METHOD_RULE = (f"one of {METHODS}", lambda v: v in METHODS)
SELECTOR_RULE = ("a string", lambda v: isinstance(v, str))


@dataclasses.dataclass
class TraceStore:
    """The server's view of a run. Row `t * clients + slot` of `updates` is
    the payload in slot `slot` of round `t`: its FC/Proj weight updates at
    32-bit precision, each layer row-major, layers in manifest order."""

    clients: int
    rounds: int
    seed: int
    layer_manifest: List[Tuple[str, int, int]]  # (name, rows, cols)
    dp: Optional[DpConfig]
    updates: np.ndarray  # (clients * rounds, sum of rows * cols) float32
    # the Gaussian steps each training window faces, rounds * local epochs,
    # which the advisory epsilon counts (see `dp`); set exactly when dp is
    dp_steps: Optional[int] = None
    loss_curve: List[float] = dataclasses.field(default_factory=list)


# a header's keys, in the order a trace file writes them: its format version
# and every TraceStore field but the rows
_HEADER_KEYS = ["format_version",
                *(f.name for f in dataclasses.fields(TraceStore) if f.name != "updates")]


def write_trace(path, trace: TraceStore) -> None:
    header = {
        "format_version": TRACE_FORMAT_VERSION,
        **{key: getattr(trace, key) for key in _HEADER_KEYS[1:]},
        # two fields are not JSON as they stand; a key keeps its first place
        "layer_manifest": [{"name": n, "rows": r, "cols": c} for n, r, c in trace.layer_manifest],
        "dp": None if trace.dp is None else dataclasses.asdict(trace.dp),
    }
    body = binascii.b2a_base64(np.ascontiguousarray(trace.updates, _BODY_DTYPE), newline=False)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n")
        # a JSON string: the base64 alphabet needs no escaping
        fh.writelines((b'"', body, b'"\n'))


def _trace_fields(header) -> dict:
    """TraceStore fields, all but `updates`, from a checked version-3 header."""
    if not isinstance(header, dict):
        raise InputError("the header is not a JSON object")
    version = header.get("format_version")
    if not is_integer(version) or version != TRACE_FORMAT_VERSION:
        old = is_integer(version) and 0 < version < TRACE_FORMAT_VERSION
        hint = "; re-run `gradlink simulate` to write it again" if old else ""
        raise InputError(f"format version {version!r} is not {TRACE_FORMAT_VERSION}{hint}")
    known_keys(header, _HEADER_KEYS, "the header")
    rounds = field(header, "rounds", *integer(2))
    entries = field(header, "layer_manifest", "a non-empty list", lambda v: isinstance(v, list) and v)
    entries = [known_keys(e, ("name", "rows", "cols"), "a layer_manifest entry") for e in entries]
    manifest = [
        (field(entry, "name", "a string", lambda v: isinstance(v, str)),
         field(entry, "rows", *integer(1)),
         field(entry, "cols", *integer(1)))
        for entry in entries
    ]
    names = [name for name, _, _ in manifest]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise InputError(f"layer names repeated in layer_manifest: {repeated}")
    dp = header["dp"]
    if dp is not None:
        dp = DpConfig(**known_keys(dp, [f.name for f in dataclasses.fields(DpConfig)],
                                   "the header's dp"))
    return {
        "clients": field(header, "clients", *integer(2)),
        "rounds": rounds,
        "seed": field(header, "seed", *integer(0)),
        "layer_manifest": manifest,
        "dp": dp,
        "dp_steps": field(header, "dp_steps", "a finite integer >= 0 with dp, else null",
                          lambda v: v is None if dp is None
                          else is_integer(v) and v >= 0 and is_finite_number(v)),
        "loss_curve": field(header, "loss_curve", f"a list of {rounds + 1} finite numbers",
                            lambda v: isinstance(v, list) and len(v) == rounds + 1
                            and all(map(is_finite_number, v))),
    }


def _read_header(fh) -> dict:
    line = fh.readline()
    if not line:
        raise InputError("the file is empty")
    return _trace_fields(json.loads(line.decode("utf-8")))


def read_trace_header(path) -> dict:
    """The TraceStore fields of a trace file, all but `updates`, from its
    header line alone: the body is neither read nor checked."""
    return read_input(path, "trace", _read_header)


def read_trace(path) -> TraceStore:
    return read_input(path, "trace", _parse_trace)


def _parse_trace(fh) -> TraceStore:
    fields = _read_header(fh)
    body = fh.read()
    end = len(body) - body.endswith(b"\n")
    if end < 2 or body[0] != ord('"') or body[end - 1] != ord('"') or (end - 2) % 4:
        raise InputError("line 2 is not the last line, a quote, base64 of length 4n and a quote")
    # one C pass checks the base64 alphabet and padding (binascii.Error) and decodes
    raw = binascii.a2b_base64(memoryview(body)[1 : end - 1], strict_mode=True)
    n_rows = fields["clients"] * fields["rounds"]
    dim = sum(rows * cols for _, rows, cols in fields["layer_manifest"])
    if len(raw) != n_rows * dim * _BODY_DTYPE.itemsize:
        raise InputError(f"the body holds {len(raw)} bytes, not {n_rows} rows of {dim} float32")
    updates = np.frombuffer(raw, dtype=_BODY_DTYPE).reshape(n_rows, dim)
    bad = np.flatnonzero(~np.isfinite(updates).all(axis=1))
    if bad.size:
        t, slot = divmod(int(bad[0]), fields["clients"])
        raise InputError(f"round {t} slot {slot} holds a non-finite value")
    return TraceStore(updates=updates, **fields)


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
    return read_input(path, "assignment", _parse_assignment)


def _parse_assignment(fh) -> dict:
    doc = known_keys(json_document(fh), ("method", "selector", "clients", "rounds", "labels"))
    field(doc, "method", *METHOD_RULE)
    field(doc, "selector", *SELECTOR_RULE)
    k = field(doc, "clients", *integer(2))
    t = field(doc, "rounds", *integer(2))
    field(doc, "labels", f"a list of clients * rounds = {k * t} integers in [0, {k})",
          lambda v: isinstance(v, list) and len(v) == k * t
          and all(is_integer(x) and 0 <= x < k for x in v))
    return doc
