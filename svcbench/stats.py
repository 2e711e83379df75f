"""The benchmark's arithmetic: percentiles, self time, window shares."""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q``% at or below.

    ``q`` is in ``(0, 100]``.  No interpolation, so the result is always
    one of the measured samples.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q``."""
    return count - max(math.ceil(q / 100.0 * count), 1)


def median(values: Sequence[float]) -> float:
    """The middle value (mean of the middle two for an even count)."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``.

    Intervals are clipped to the window first; overlapping intervals
    count once.
    """
    clipped = sorted(
        (max(lo, start), min(hi, end))
        for lo, hi in intervals
        if hi > start and lo < end
    )
    total = 0.0
    run_lo = run_hi = None
    for lo, hi in clipped:
        if run_hi is None or lo > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = lo, hi
        else:
            run_hi = max(run_hi, hi)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_time(start: float, end: float, children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part its child spans cover."""
    return (end - start) - covered(start, end, children)


def quarter_shares(rows: Sequence[Tuple[int, int]]) -> List[float]:
    """Hit share (``cached / cells``) of each quarter of a window.

    ``rows`` are ``(cached, cells)`` per submission in completion
    order; the quarters split the submissions into four runs of equal
    count (the first quarters take the remainder).
    """
    if len(rows) < 4:
        raise ValueError("a window needs at least four submissions")
    base, extra = divmod(len(rows), 4)
    shares = []
    position = 0
    for quarter in range(4):
        size = base + (1 if quarter < extra else 0)
        chunk = rows[position:position + size]
        position += size
        cells = sum(total for _, total in chunk)
        shares.append(sum(hit for hit, _ in chunk) / cells if cells else 0.0)
    return shares
