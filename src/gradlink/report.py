"""The evaluation side: the truth sidecar's file format, and attack scoring
reports with the three clustering metrics against the truth, a Monte Carlo
random baseline, and DP advisories, as JSON plus an aligned text table.

The sidecar is a JSON document `{"rounds": [[client, ...], ...]}`, one list
per round giving the client in each slot. Keeping it in a separate file,
read only here, is the de-anonymization boundary.
"""

import json
import math

import numpy as np

from .dp import rdp_epsilon
from .errors import InputError, field, is_integer, json_document, known_keys, read_input
from .metrics import contingency, mutual_information, purity, rand_index

RANDOM_BASELINE_TRIALS = 1000
# Cells of a stacked table scored at once: 2**16 float64 cells, 512 KB per
# temporary, fit a 2 MB L2 cache with room for the metric's other buffers.
# Counted in cells, not trials: a trial's table has clusters x classes cells,
# 400 at K=20 and 25 at K=5.
SCORE_BLOCK_CELLS = 2**16


def write_sidecar(path, truth: np.ndarray) -> None:
    """Write the (T, K) truth of a run, `truth[t, slot]` the client in that
    slot."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"rounds": truth.tolist()}, fh, separators=(",", ":"))
        fh.write("\n")


def read_sidecar(path) -> np.ndarray:
    """The (T, K) int64 truth stored at `path`."""
    return read_input(path, "sidecar", _parse_sidecar)


def _parse_sidecar(fh) -> np.ndarray:
    doc = known_keys(json_document(fh), ("rounds",))
    rounds = field(doc, "rounds", "a non-empty list of equal-length permutations of 0..K-1",
                   lambda v: isinstance(v, list) and v and all(
                       isinstance(r, list) and r and len(r) == len(v[0])
                       and all(map(is_integer, r)) and sorted(r) == list(range(len(r)))
                       for r in v))
    return np.array(rounds, dtype=np.int64)


def score(pred, true) -> dict:
    """The three metrics of one labeling, or arrays of them for a stack.
    A stack's table is counted once and scored in blocks of whole trials of
    at most SCORE_BLOCK_CELLS cells. A trial's values read only its own
    cells, so the block size does not change a bit of them."""
    table = contingency(pred, true)
    if table.ndim == 2:
        return _metrics(table)
    step = max(1, SCORE_BLOCK_CELLS // (table.shape[1] * table.shape[2]))
    blocks = [_metrics(table[i:i + step]) for i in range(0, table.shape[0], step)]
    return {key: np.concatenate([block[key] for block in blocks]) for key in blocks[0]}


def _metrics(table) -> dict:
    return {
        "purity": purity(table),
        "rand_index": rand_index(table),
        "mutual_information": mutual_information(table),
    }


def random_baseline(true, clients: int, trials: int, seed: int) -> dict:
    """Mean metrics of uniformly random labels in [0, K) over `trials`
    independent assignments, drawn as the rows of one (trials, n) array."""
    true = np.asarray(true)
    preds = np.random.default_rng(seed).integers(0, clients, size=(trials, true.shape[0]))
    out = {key: float(vals.mean()) for key, vals in score(preds, true).items()}
    out["trials"] = trials
    out["procedure"] = "uniform random label per record"
    return out


def build_report(header: dict, assignment: dict, truth: np.ndarray) -> dict:
    """Score an assignment against the (T, K) truth. `header` holds a
    trace's fields as `traceio.read_trace_header` returns them: scoring
    needs no update rows."""
    clients, rounds = header["clients"], header["rounds"]
    if assignment["clients"] != clients or assignment["rounds"] != rounds:
        raise InputError(
            "assignment was produced for a different trace "
            f"(K={assignment['clients']}, T={assignment['rounds']} vs "
            f"K={clients}, T={rounds})"
        )
    if truth.shape != (rounds, clients):
        raise InputError("sidecar shape does not match the trace")
    true = truth.ravel()
    pred = np.asarray(assignment["labels"], dtype=np.int64)
    if pred.shape[0] != true.shape[0]:
        raise InputError("assignment length does not match the trace")

    report = {
        "clients": clients,
        "rounds": rounds,
        "seed": header["seed"],
        "method": assignment["method"],
        "selector": assignment["selector"],
        "metrics": score(pred, true),
        "random_baseline": random_baseline(
            true, clients, RANDOM_BASELINE_TRIALS, header["seed"]
        ),
        "loss_curve": header["loss_curve"],
        "dp": None,
    }
    dp = header["dp"]
    if dp is not None:
        epsilon = rdp_epsilon(dp.sigma, header["dp_steps"], dp.delta)
        report["dp"] = {
            "clip": dp.clip,
            "sigma": dp.sigma,
            "delta": dp.delta,
            # null for no finite bound, as JSON has no infinity: sigma 0, a
            # sigma whose square underflows, or a bound past the largest float
            "advisory_epsilon": None if math.isinf(epsilon) else epsilon,
        }
    return report


def render_report(report: dict) -> str:
    """Aligned text table with the Pur. / RI / MI columns."""
    def row(name, m):
        return (
            f"{name:<16} {m['purity']:>7.3f} {m['rand_index']:>7.3f} "
            f"{m['mutual_information']:>7.3f}"
        )

    lines = [
        f"clients={report['clients']} rounds={report['rounds']} seed={report['seed']} "
        f"method={report['method']} selector={report['selector']}",
        f"{'':<16} {'Pur.':>7} {'RI':>7} {'MI':>7}",
        row(report["method"], report["metrics"]),
        row("random", report["random_baseline"]),
    ]
    if report.get("dp"):
        dp = report["dp"]
        eps = dp["advisory_epsilon"]
        # six significant digits: 10**300 steps at sigma 0.1 print 4e+302, not
        # a 303-digit number
        eps_text = "inf" if eps is None else f"{eps:.6g}"
        lines.append(
            f"dp: clip={dp['clip']} sigma={dp['sigma']} delta={dp['delta']} "
            f"advisory_epsilon={eps_text} over rounds * local_epochs Gaussian steps, "
            "no subsampling, replace-one adjacency: one training window replaced"
        )
    losses = report.get("loss_curve") or []
    if losses:
        lines.append(f"loss: initial={losses[0]:.4f} final={losses[-1]:.4f}")
    return "\n".join(lines) + "\n"


def write_report(path, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
