"""Arithmetic of the benchmark: the tail-percentile rule, the geometric-mean
quality ratio, span self time, and the run-to-run spread check."""

import math
import statistics


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs, beyond=10):
    """Highest percentile that has at least `beyond` samples above it.

    Returns (value, percentile, n), taking the nearest-rank value: the k-th
    smallest sample, k = n - beyond, sits at percentile 100·k/n. With fewer
    than 2·beyond samples that percentile would not lie above the median,
    so the maximum (percentile 100) is the tail instead.
    """
    n = len(xs)
    k = n - beyond
    if k < n / 2:
        return max(xs), 100.0, n
    return sorted(xs)[k - 1], 100.0 * k / n, n


def geomean_ratio(pairs):
    """Geometric mean of num/den over (num, den) pairs."""
    pairs = list(pairs)
    if not pairs:
        return 0.0
    return math.exp(sum(math.log(a / b) for a, b in pairs) / len(pairs))


def covered(start, end, children):
    """Length of [start, end) covered by the union of child intervals."""
    total, cursor = 0, start
    for s, e in sorted(children):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            total += e - s
            cursor = e
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    its child spans cover. `spans` are (id, parent, name, start, end)."""
    kids = {}
    for sid, parent, _, s, e in spans:
        kids.setdefault(parent, []).append((s, e))
    return {sid: (e - s) - covered(s, e, kids.get(sid, [])) for sid, _, _, s, e in spans}


def unattributed_frac(spans, op_names):
    """Share of top-level op time that no child span covers."""
    ops = [sp for sp in spans if sp[1] == 0 and sp[2] in op_names]
    total = sum(e - s for _, _, _, s, e in ops)
    if total <= 0:
        return 0.0
    own = self_times(spans)
    return sum(own[sp[0]] for sp in ops) / total


def quartile_spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")
