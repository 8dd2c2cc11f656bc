"""Attack scoring reports: the three clustering metrics against the truth
sidecar, a Monte Carlo random baseline, and DP advisories, as JSON plus an
aligned text table.
"""

import json
import math

import numpy as np

from .dp import rdp_epsilon
from .errors import InputError
from .fedsim import TraceStore, TruthSidecar
from .metrics import mutual_information, purity, rand_index
from .traceio import truth_labels

RANDOM_BASELINE_TRIALS = 1000


def score(pred, true) -> dict:
    """The three metrics of one labeling, or arrays of them for a stack."""
    return {
        "purity": purity(pred, true),
        "rand_index": rand_index(pred, true),
        "mutual_information": mutual_information(pred, true),
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


def build_report(trace: TraceStore, assignment: dict, sidecar: TruthSidecar) -> dict:
    if assignment["clients"] != trace.clients or assignment["rounds"] != trace.rounds:
        raise InputError(
            "assignment was produced for a different trace "
            f"(K={assignment['clients']}, T={assignment['rounds']} vs "
            f"K={trace.clients}, T={trace.rounds})"
        )
    if len(sidecar.rounds) != trace.rounds or any(
        len(r) != trace.clients for r in sidecar.rounds
    ):
        raise InputError("sidecar shape does not match the trace")
    true = truth_labels(sidecar)
    pred = np.asarray(assignment["labels"], dtype=np.int64)
    if pred.shape[0] != true.shape[0]:
        raise InputError("assignment length does not match the trace")

    report = {
        "clients": trace.clients,
        "rounds": trace.rounds,
        "seed": trace.seed,
        "method": assignment["method"],
        "selector": assignment["selector"],
        "metrics": score(pred, true),
        "random_baseline": random_baseline(
            true, trace.clients, RANDOM_BASELINE_TRIALS, trace.seed
        ),
        "loss_curve": trace.loss_curve,
        "dp": None,
    }
    if trace.dp is not None:
        epsilon = None
        if trace.dp_sample_rate is not None and trace.dp_steps is not None:
            epsilon = rdp_epsilon(
                trace.dp.sigma, trace.dp_sample_rate, trace.dp_steps, trace.dp.delta
            )
        report["dp"] = {
            "clip": trace.dp.clip,
            "sigma": trace.dp.sigma,
            "delta": trace.dp.delta,
            "advisory_epsilon": None if epsilon is None else epsilon,
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
        eps = dp.get("advisory_epsilon")
        eps_text = "inf" if eps is not None and math.isinf(eps) else (
            "n/a" if eps is None else f"{eps:.3f}"
        )
        lines.append(
            f"dp: clip={dp['clip']} sigma={dp['sigma']} delta={dp['delta']} "
            f"advisory_epsilon={eps_text}"
        )
    losses = report.get("loss_curve") or []
    if losses:
        lines.append(f"loss: initial={losses[0]:.4f} final={losses[-1]:.4f}")
    return "\n".join(lines) + "\n"


def write_report(path, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
