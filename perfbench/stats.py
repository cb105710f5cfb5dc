"""Summary statistics of the benchmark's samples."""

import statistics

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, q, min_beyond=MIN_BEYOND):
    """Nearest-rank ``q``-th percentile (``q`` an int in 1..100).

    Returns None unless at least ``min_beyond`` samples lie beyond the
    chosen rank, since a tail percentile read off fewer samples is mostly
    noise: p99 needs 1000 samples, p50 needs 20.
    """
    if not 1 <= q <= 100:
        raise ValueError(f"percentile {q} outside 1..100")
    n = len(values)
    rank = -(-q * n // 100)         # ceil(q * n / 100) in integers
    if n == 0 or n - rank < min_beyond:
        return None
    return sorted(values)[rank - 1]


def tail(values, q):
    """``(value, label)``: the ``q``-th percentile or, with too few samples
    for it, the median, labelled so a reader can tell which."""
    value = percentile(values, q)
    if value is not None:
        return value, f"p{q} of {len(values)}"
    return (statistics.median(values),
            f"median of {len(values)}: too few for p{q}")

