"""Summary statistics and the A/B verdict of the benchmark.

Quartiles are Python's statistics.quantiles(values, n=4) ("exclusive"
method), the definition the benchmark's steadiness rule uses. Medians and
percentiles within a run are the harness's (perfbench::quantile in
src/trace.cpp, tested against statistics.quantiles in
tests/test_summary.py).
"""

import statistics


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Distance between the first and third quartile over the median."""
    q1, med, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(med) if med else float("inf")


def worse_by(base_median, head_median, better):
    """How much worse head is than base, as a share of base (< 0: better)."""
    if base_median == 0:
        return 0.0 if head_median == base_median else float("inf")
    delta = (head_median - base_median) / abs(base_median)
    return delta if better == "lower" else -delta


def head_wins(base, head, better):
    """Pairs the head side wins; ties count for neither side."""
    if better == "lower":
        return sum(1 for b, h in zip(base, head) if h < b)
    return sum(1 for b, h in zip(base, head) if h > b)


def verdict(base, head, better, bound):
    """Verdict for one metric from paired runs (base[i] ran with head[i]).

    - "unresolved": a side's quartile spread exceeds the bound, and not
      every head run beats every base run;
    - "better": head wins at least nine tenths of the pairs and the medians
      differ by more than the base's own quartile distance (or, with a
      spread beyond the bound, every head run beats every base run);
    - "worse": head's median is worse than base's by more than the bound;
    - "same": otherwise.
    """
    if len(base) != len(head) or not base:
        raise ValueError("verdict needs equally many base and head runs")
    spread = max(relative_spread(base), relative_spread(head))
    if better == "lower":
        all_better = max(head) < min(base)
    else:
        all_better = min(head) > max(base)
    if spread > bound:
        return "better" if all_better else "unresolved"
    q1, b_med, q3 = quartiles(base)
    h_med = quartiles(head)[1]
    wins = head_wins(base, head, better)
    improved = worse_by(b_med, h_med, better) < 0
    if improved and wins >= 0.9 * len(base) and abs(h_med - b_med) > q3 - q1:
        return "better"
    if worse_by(b_med, h_med, better) > bound:
        return "worse"
    return "same"
