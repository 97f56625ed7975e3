"""Reduction helpers of the end-to-end benchmark (tested by test_benchlib.py).

The C++ driver reports raw samples ("series") and scalars ("values");
these helpers turn them into the metrics of BENCHMARK.json.
"""

import math
import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# A percentile is reported only when at least this many samples lie
# beyond it, so p99 needs 1000 samples.
MIN_SAMPLES_BEYOND = 10


class MetricError(ValueError):
    """A metric that cannot be reported honestly from the samples at hand."""


def check_name(name):
    """Return `name` if it is a valid metric name, else raise MetricError."""
    if not isinstance(name, str) or not NAME_RE.fullmatch(name):
        raise MetricError(f"invalid metric name {name!r}: want [A-Za-z0-9_.-], at most 64")
    return name


def percentile(samples, q):
    """Nearest-rank percentile `q` (0 < q < 1) of `samples`.

    Returns (value, n) where n is the sample count. Raises MetricError
    unless at least MIN_SAMPLES_BEYOND samples lie above the chosen rank.
    """
    if not 0.0 < q < 1.0:
        raise MetricError(f"percentile {q} outside (0, 1)")
    xs = sorted(samples)
    n = len(xs)
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if beyond < MIN_SAMPLES_BEYOND:
        raise MetricError(
            f"p{q * 100:g} needs {MIN_SAMPLES_BEYOND} samples beyond it; "
            f"{n} samples leave {beyond}")
    return xs[rank - 1], n


def median(samples):
    """Median of a non-empty sample list."""
    if not samples:
        raise MetricError("median of no samples")
    return statistics.median(samples)


def ops_failed_frac(attempted, failed):
    """Failed share of attempted operations (a run with no attempts fails)."""
    if attempted < 1:
        raise MetricError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise MetricError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def best_of_passes(op_us, ops_per_pass):
    """Per-operation best latency over the repeated timed passes.

    Every timed pass of a run replays the same operations in the same
    order (same sweep index, batch or trial), so op i of each pass is the
    same work. Its smallest latency across passes filters out the
    host's slow phases, which on a shared machine last seconds and would
    otherwise make a run's median depend on when it ran.
    """
    n = int(ops_per_pass)
    if n < 1 or len(op_us) < n or len(op_us) % n:
        raise MetricError(f"{len(op_us)} op latencies do not split into passes of {n}")
    passes = len(op_us) // n
    return [min(op_us[p * n + i] for p in range(passes)) for i in range(n)], passes


def relative_latencies(op_us, ops_per_pass):
    """Each op's latency relative to its own pass.

    Divides every sample by the median latency of its pass, which
    removes a host state that holds over the pass (a CPU running 1.3-2x
    slow). Returns (shape, pooled): shape[i] is op i's median ratio over
    the passes (robust to a pass that met a slowdown at op i), pooled
    every sample's ratio.
    """
    n = int(ops_per_pass)
    passes = len(op_us) // n
    pooled = []
    for p in range(passes):
        chunk = op_us[p * n:(p + 1) * n]
        level = statistics.median(chunk)
        pooled.extend(x / level for x in chunk)
    shape = [statistics.median(pooled[p * n + i] for p in range(passes)) for i in range(n)]
    return shape, pooled


def tail_ratio(op_us, ops_per_pass):
    """The p99/p50 ratio of op latencies relative to their pass, and the
    sample count behind the p99.

    Taken over the per-op shape when a pass holds enough ops for a p99
    of them (10 samples beyond it need 1000); a decide_serve pass of 256
    batches does not, so there it pools every sample's ratio.
    """
    shape, pooled = relative_latencies(op_us, ops_per_pass)
    enough = len(shape) - math.ceil(0.99 * len(shape)) >= MIN_SAMPLES_BEYOND
    samples = shape if enough else pooled
    r99, count = percentile(samples, 0.99)
    return r99 / percentile(samples, 0.50)[0], count


def end_to_end_metrics(raw):
    """The end-to-end metrics of one untraced driver report, plus the
    sample counts behind them.

    Throughput and the median come from each op's best of passes: the
    program's own cost. The p99 is that median times tail_ratio: per-op
    bests keep a host slowdown wherever it met every pass, which a
    narrow tail cannot absorb (on fleet_wifi_dense, whose p99 lies
    within 10% of its median, one such stretch of sweeps set a run's
    p99 by itself), while an op's latency relative to its own pass is
    free of a slowdown that held over the pass.
    """
    series, values = raw["series"], raw["values"]
    best, passes = best_of_passes(series["op_us"], values["ops_per_pass"])
    p50, n = percentile(best, 0.50)
    ratio, samples = tail_ratio(series["op_us"], values["ops_per_pass"])
    return {
        "setup_s": median(series["setup_s"]),
        "items_per_s": values["items_per_pass"] / (math.fsum(best) * 1e-6),
        "op_p50_us": p50,
        "op_p99_us": p50 * ratio,
        "peak_rss_mb": values["peak_rss_mb"],
    }, {"ops": n, "timed_passes": passes, "samples": samples,
        "setups": len(series["setup_s"])}


# Per-layer series the driver reports raw, and how each is reduced: a
# percentile q (which needs MIN_SAMPLES_BEYOND samples beyond it), or
# None for the plain median of a short series (one sample per traced
# round or per set-up).
LAYER_SERIES = {
    "server.batch_us": [("server.batch_us", 0.50)],
    "fault.trial_us": [("fault.trial_us_p50", 0.50), ("fault.trial_us_p99", 0.99)],
    "trace_overhead_frac": [("trace_overhead_frac", None)],
    "exp.runner_overhead_frac": [("exp.runner_overhead_frac", None)],
    "io.table_load_s": [("io.table_load_s", None)],
}


def per_layer_metrics(raw, names):
    """Every per-layer metric in `names` from one traced driver report;
    a layer the workload does not exercise reads 0."""
    out = {name: 0.0 for name in names}
    for key, value in raw["values"].items():
        if key in out:
            out[key] = value
    for key, reductions in LAYER_SERIES.items():
        samples = raw["series"].get(key)
        if not samples:
            continue
        for name, q in reductions:
            out[name] = median(samples) if q is None else percentile(samples, q)[0]
    out["ops_failed_frac"] = ops_failed_frac(raw["attempted"], raw["failed"])
    return out


def all_finite(metrics):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in metrics.values())


def summarize(raw, spec, trace):
    """Turn one driver report into the benchmark's result line.

    Returns (result, problems): `result` is the JSON-ready result object;
    `problems` lists why the run failed (empty when correct). A failed
    check, a failed operation or an unreportable metric fails the run,
    and a failed run carries no metric values.
    """
    problems = [f"check {c['name']} failed: {c['detail']}" for c in raw["checks"] if not c["ok"]]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    try:
        if raw["failed"] > 0:
            problems.append(f"{raw['failed']} of {raw['attempted']} operations failed "
                            f"(ops_failed_frac {ops_failed_frac(raw['attempted'], raw['failed']):.4g})")
        if trace:
            metrics = per_layer_metrics(raw, [m["name"] for m in wanted])
        else:
            metrics = end_to_end_metrics(raw)[0]
    except (MetricError, KeyError, TypeError) as e:
        problems.append(f"metrics: {e!r}")
    if not problems and not all_finite(metrics):
        problems.append("a metric is non-finite")
    result = {"correct": not problems, "attempted": raw.get("attempted", 0),
              "failed": raw.get("failed", 0), "metrics": {}}
    if not problems:
        for m in wanted:
            result["metrics"][m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    return result, problems
