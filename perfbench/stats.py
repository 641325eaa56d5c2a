"""Statistics of the benchmark: percentiles, medians, spreads, the bounds
comparator, and turning a driver report into the printed result.

Conventions:
- A timing percentile is nearest-rank on the sorted sample. A percentile p
  is supported by n samples when at least 10 samples lie beyond it, i.e.
  n * (1 - p / 100) >= 10. Metric names fix the percentile (`*_p99_ms`:
  the highest one the class's sample supports by design), and a run whose
  sample cannot support it is invalid.
- A latency metric is the median of the percentile over consecutive
  windows of the sample (see windowed_percentile).
- Spread is (q3 - q1) / median with the quartiles of
  statistics.quantiles(values, n=4).
- A metric's bound is the share of the parent's median by which the
  child's median may be worse.
"""

import math
import re
import statistics

MIN_BEYOND = 10
MAX_WINDOWS = 10

LATENCY_NAME = re.compile(r"^(replay|warm|stream|cold)_p(\d+(?:\.\d+)?)_ms$")


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, q2, q3) exactly as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    m = median(values)
    if m == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(m)


def supports(n, p):
    """True when n samples leave at least MIN_BEYOND samples beyond p."""
    return n * (1.0 - p / 100.0) >= MIN_BEYOND - 1e-9


def nearest_rank(values, p):
    """The ceil(p/100 * n)-th smallest value (rank 1 for p == 0)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def percentile(values, p):
    """Nearest-rank percentile p; the median needs no tail support."""
    if p != 50.0 and not supports(len(values), p):
        raise ValueError(
            "p%g needs %d samples beyond it; %d samples give %.1f"
            % (p, MIN_BEYOND, len(values), len(values) * (1 - p / 100.0)))
    return nearest_rank(values, p)


def windows_for(n, p, max_windows=MAX_WINDOWS):
    """How many consecutive sub-windows n samples split into so that each
    still supports percentile p (at least 1)."""
    need = 1 if p == 50.0 else math.ceil(MIN_BEYOND / (1.0 - p / 100.0) - 1e-9)
    return max(1, min(max_windows, n // need))


def windowed_percentile(pairs, p, max_windows=MAX_WINDOWS):
    """Median over consecutive sub-windows of each window's percentile p.

    `pairs` are (due time, latency). Sorted by due time, the sample splits
    into windows_for(n, p) runs of equal count; one stall then moves one
    window's figure, not the run's. Every window must support p on its
    own."""
    ordered = [lat for _, lat in sorted(pairs)]
    k = windows_for(len(ordered), p, max_windows)
    bounds = [len(ordered) * i // k for i in range(k + 1)]
    return median([percentile(ordered[bounds[i]:bounds[i + 1]], p)
                   for i in range(k)])


def worsening(parent, child, better):
    """Share of the parent's value by which the child is worse (<= 0: not
    worse)."""
    if parent == 0:
        return 0.0 if child == parent else math.inf
    delta = (child - parent) if better == "lower" else (parent - child)
    return delta / abs(parent)


def within_bound(parent_values, child_values, better, bound):
    """The bounds comparator: the child's median is not worse than the
    parent's median by more than `bound`."""
    return worsening(median(parent_values), median(child_values), better) <= bound


# ---------------------------------------------------------------------------
# Report -> result
# ---------------------------------------------------------------------------


def e2e_metrics(phase, names):
    """Every end-to-end metric of one driver phase, by name."""
    values = {}
    for name in names:
        m = LATENCY_NAME.match(name)
        if m:
            cls, p = m.group(1), float(m.group(2))
            values[name] = windowed_percentile(phase["latency_ms"][cls], p)
        elif name == "setup_s":
            values[name] = median(phase["setup_s"])
        elif name == "peak_rss_mb":
            values[name] = phase["peak_rss_mb"]
        elif name == "ok_ratio":
            values[name] = 1.0 - phase["failed"] / max(phase["attempted"], 1)
        elif name == "jobs_per_s":
            values[name] = median(phase["jobs_per_s"])
        elif name == "pr_auc":
            values[name] = phase["pr_auc"]
        elif name == "goodput_ratio":
            values[name] = phase["goodput_good"] / max(phase["goodput_sent"], 1)
        else:
            raise KeyError("no definition for end-to-end metric " + name)
    return values


def layer_metrics(phase, untraced_e2e, traced_e2e, env, names):
    """Every per-layer metric of the traced phase, by name. Ledger entries
    the driver did not produce for this workload read 0."""
    values = {name: 0.0 for name in names}
    for name, value in phase["ledger"].items():
        if name in values:
            values[name] = value
    samples = phase["samples_ms"]
    for series in ("wire", "server", "admit"):
        data = samples.get(series, [])
        for p in (50.0, 99.0):
            key = "net.%s_ms.p%d" % (series, p)
            if key in values and data:
                values[key] = nearest_rank(data, p)
    # Class tails too noisy on this host for an end-to-end bound.
    for name in values:
        m = LATENCY_NAME.match(name)
        if m and phase["latency_ms"].get(m.group(1)):
            values[name] = windowed_percentile(phase["latency_ms"][m.group(1)],
                                               float(m.group(2)))
    lag = samples.get("gen_lag", [])
    if "gen_lag_p99_ms" in values and lag:
        values["gen_lag_p99_ms"] = nearest_rank(lag, 99.0)
    for cls, counts in phase["classes"].items():
        for key, value in counts.items():
            name = "serve.%s.%s" % (cls, key)
            if name in values:
                values[name] = value
    for key, value in env.items():
        if "env." + key in values:
            values["env." + key] = value
    for name, value in traced_e2e.items():
        key = "overhead." + name
        if key in values:
            values[key] = value - untraced_e2e[name]
    return {name: values[name] for name in names}


def generator_lag_ok(phase, limit_ms):
    """(ok, p99 lateness in ms): an open-loop run is valid only when its
    generator ran on time."""
    lag = phase["samples_ms"].get("gen_lag", [])
    if not lag:
        return True, 0.0
    p99 = nearest_rank(lag, 99.0)
    return p99 <= limit_ms, p99


def result_object(correct, attempted, failed, metrics, units):
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def validate_result(obj, bench, trace):
    """Problems with a printed result object; empty when it meets the
    schema: exactly correct/attempted/failed/metrics, whole-number counts,
    attempted >= 1, and exactly the benchmark's metrics for the trace mode,
    each a finite number with its declared unit."""
    problems = []
    if set(obj) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("keys %s" % sorted(obj))
        return problems
    if not isinstance(obj["correct"], bool):
        problems.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool):
            problems.append(key + " is not a whole number")
    if isinstance(obj["attempted"], int) and obj["attempted"] < 1:
        problems.append("attempted < 1")
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(obj["metrics"]) != set(units):
        missing = sorted(set(units) - set(obj["metrics"]))
        extra = sorted(set(obj["metrics"]) - set(units))
        problems.append("metrics missing %s extra %s" % (missing, extra))
    for name, entry in obj["metrics"].items():
        if set(entry) != {"value", "unit"}:
            problems.append(name + " keys " + str(sorted(entry)))
            continue
        value = entry["value"]
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            problems.append(name + " value is not a finite number")
        if name in units and entry["unit"] != units[name]:
            problems.append(name + " unit " + str(entry["unit"]))
    return problems
