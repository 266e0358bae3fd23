"""Order statistics and failure accounting for benchmark samples."""

from __future__ import annotations

from typing import Optional, Sequence

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def tail(values: Sequence[float]) -> Optional[tuple[float, float, int]]:
    """``(value, percentile, count)`` at the highest percentile that
    still has :data:`TAIL_BEYOND` samples beyond it, or ``None`` when
    there are too few samples for one.

    With ``n`` samples sorted ascending this is the ``(n - 10)``-th
    smallest, i.e. the ``100 * (n - 10) / n`` percentile.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND  # 1-based rank of the reported sample
    return float(sorted(values)[rank - 1]), 100.0 * rank / n, n


def failed_frac(failed: int, attempted: int) -> float:
    """Iterations that raised or failed their check, over attempted."""
    if attempted < 1:
        raise ValueError("no iterations attempted")
    return failed / attempted

