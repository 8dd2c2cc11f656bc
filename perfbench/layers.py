"""Per-layer tracing for one benchmark pipeline run.

The wrappers are installed from the benchmark's side: nothing in `gradlink`
knows about them. Each wrapper is set where the caller looks the name up,
because `from .x import f` binds its own reference (patching
`gradlink.model.loss_and_grads` alone would record nothing, since
`gradlink.fedsim` calls its own binding).

Spans are kept in memory as (name, parent, start, end) and turned into
per-layer numbers only when the run ends. A span's self time is its
duration minus the durations of its direct children; the process is
single-threaded, so children never overlap.
"""

import os
import time
from collections import defaultdict

# Layer metrics in the order they are reported, with their units.
METRICS = {
    "corpus.generate_s": "s",
    "corpus.train_windows": "count",
    "model.loss_and_grads_s": "s",
    "model.loss_and_grads_calls": "count",
    "model.samples": "count",
    "model.sgd_step_s": "s",
    "model.sgd_step_calls": "count",
    "model.eval_loss_s": "s",
    "model.eval_loss_calls": "count",
    "dp.privatize_s": "s",
    "dp.privatize_calls": "count",
    "dp.clip_gradient_calls": "count",
    "dp.clipped": "count",
    "dp.clip_fraction": "ratio",
    "fedsim.run_simulation_s": "s",
    "fedsim.run_simulation_self_s": "s",
    "fedsim.client_round_s": "s",
    "fedsim.client_round_self_s": "s",
    "fedsim.client_round_calls": "count",
    "fedsim.aggregate_s": "s",
    "fedsim.aggregate_calls": "count",
    "fedsim.shuffle_round_s": "s",
    "traceio.write_trace_s": "s",
    "traceio.read_trace_s": "s",
    "traceio.read_trace_calls": "count",
    "traceio.trace_bytes": "bytes",
    "traceio.write_mb_per_s": "MB/s",
    "traceio.read_mb_per_s": "MB/s",
    "attack.build_features_s": "s",
    "attack.feature_dim": "count",
    "attack.records": "count",
    "attack.kmeans_s": "s",
    "attack.kmeans_points_s": "s",
    "attack.kmeans_points_calls": "count",
    "attack.spectral_self_s": "s",
    "attack.greedy_match_s": "s",
    "attack.solve_lsap_s": "s",
    "attack.solve_lsap_calls": "count",
    "numerics.symmetric_eigen_s": "s",
    "numerics.symmetric_eigen_n": "count",
    "report.build_report_s": "s",
    "report.random_baseline_s": "s",
    "report.random_baseline_trials": "count",
    "metrics.mutual_information_s": "s",
    "metrics.calls": "count",
    "cli.self_s": "s",
}


class Tracer:
    """Span recorder plus counters for one process."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.stack = []
        self.counts = defaultdict(float)

    def span(self, name, fn, on_result=None):
        """Return `fn` wrapped in a span called `name`. `on_result(args,
        result)` runs after the span closes, so its cost is not charged to
        the layer."""
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            entry = [name, stack[-1] if stack else -1, time.perf_counter(), None]
            stack.append(len(spans))
            spans.append(entry)
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[3] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counter(self, fn, on_result):
        """Return `fn` wrapped so that `on_result(args, result)` counts each
        call without opening a span."""

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(args, result)
            return result

        return wrapper

    def totals(self):
        """Per span name: (inclusive seconds, self seconds, calls)."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for (name, _, start, end), inner in zip(self.spans, child_time):
            acc = out[name]
            acc[0] += end - start
            acc[1] += end - start - inner
            acc[2] += 1
        return out


def install(tracer, context):
    """Wrap the public functions of each gradlink layer at the names their
    callers look up. `context` is the model's window length, needed to count
    the corpus's training windows."""
    import gradlink.attack as attack
    import gradlink.cli as cli
    import gradlink.corpus as corpus
    import gradlink.dp as dp
    import gradlink.fedsim as fedsim
    import gradlink.report as report

    counts = tracer.counts
    span = tracer.span

    def on_corpus(args, result):
        shards, _ = result
        counts["corpus.train_windows"] += sum(
            corpus.windows_from_sentences(s.train, context)[0].shape[0] for s in shards
        )

    def on_loss_and_grads(args, result):
        counts["model.samples"] += len(args[1])

    def on_clip(args, result):
        counts["dp.clip_gradient_calls"] += 1
        counts["dp.clipped"] += result is not args[0]

    def on_write_trace(args, result):
        counts["traceio.trace_bytes"] = os.path.getsize(args[0])

    def on_features(args, result):
        counts["attack.records"], counts["attack.feature_dim"] = result.values.shape

    def on_eigen(args, result):
        counts["numerics.symmetric_eigen_n"] = max(
            counts["numerics.symmetric_eigen_n"], len(args[0])
        )

    def on_baseline(args, result):
        counts["report.random_baseline_trials"] += args[2]

    def on_metric(args, result):
        counts["metrics.calls"] += 1

    cli.generate_synthetic = span("corpus.generate", cli.generate_synthetic, on_corpus)
    cli.run_simulation = span("fedsim.run_simulation", cli.run_simulation)
    cli.write_trace = span("traceio.write_trace", cli.write_trace, on_write_trace)
    cli.read_trace = span("traceio.read_trace", cli.read_trace)
    cli.build_report = span("report.build_report", cli.build_report)

    fedsim.client_round = span("fedsim.client_round", fedsim.client_round)
    fedsim.aggregate = span("fedsim.aggregate", fedsim.aggregate)
    fedsim.shuffle_round = span("fedsim.shuffle_round", fedsim.shuffle_round)
    fedsim.loss_and_grads = span(
        "model.loss_and_grads", fedsim.loss_and_grads, on_loss_and_grads
    )
    fedsim.sgd_step = span("model.sgd_step", fedsim.sgd_step)
    fedsim.eval_loss = span("model.eval_loss", fedsim.eval_loss)
    fedsim.privatize = span("dp.privatize", fedsim.privatize)
    dp.clip_gradient = tracer.counter(dp.clip_gradient, on_clip)

    attack.build_features = span("attack.build_features", attack.build_features, on_features)
    attack.kmeans = span("attack.kmeans", attack.kmeans)
    attack.kmeans_points = span("attack.kmeans_points", attack.kmeans_points)
    attack.spectral = span("attack.spectral", attack.spectral)
    attack.greedy_match = span("attack.greedy_match", attack.greedy_match)
    attack.solve_lsap = span("attack.solve_lsap", attack.solve_lsap)
    attack.symmetric_eigen = span("numerics.symmetric_eigen", attack.symmetric_eigen, on_eigen)

    report.random_baseline = span("report.random_baseline", report.random_baseline, on_baseline)
    report.mutual_information = span(
        "metrics.mutual_information", report.mutual_information, on_metric
    )
    report.purity = tracer.counter(report.purity, on_metric)
    report.rand_index = tracer.counter(report.rand_index, on_metric)


def layer_metrics(tracer):
    """Per-layer values for one traced pipeline run. CLI command spans are
    named `cli.<command>`; their self time is the command time no layer span
    covers."""
    totals = tracer.totals()
    values = dict(tracer.counts)
    for name, (inclusive, self_time, calls) in totals.items():
        if name.startswith("cli."):
            values["cli.self_s"] = values.get("cli.self_s", 0.0) + self_time
            continue
        values[name + "_s"] = inclusive
        values[name + "_self_s"] = self_time
        values[name + "_calls"] = calls
    clip_calls = values.get("dp.clip_gradient_calls", 0)
    values["dp.clip_fraction"] = values.get("dp.clipped", 0) / clip_calls if clip_calls else 0.0
    trace_mb = values.get("traceio.trace_bytes", 0) / 1e6
    write_s = values.get("traceio.write_trace_s", 0.0)
    read_s = values.get("traceio.read_trace_s", 0.0)
    values["traceio.write_mb_per_s"] = trace_mb / write_s if write_s else 0.0
    values["traceio.read_mb_per_s"] = (
        trace_mb * values.get("traceio.read_trace_calls", 0) / read_s if read_s else 0.0
    )
    return {name: values.get(name, 0) for name in METRICS}
