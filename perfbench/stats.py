"""Arithmetic shared by the benchmark and its tests.

- the percentile rule: report the median and the highest percentile
  that has at least ten samples beyond it, with the sample count;
- wall-limit charging: a timed-out op costs exactly the limit in wall
  time, and its time until the simulation started in set-up;
- the ``other`` share: an op's wall minus its layers' self times
  (self times themselves are summed by :mod:`tracer`).
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, Optional, Sequence

#: Samples that must lie beyond a reported percentile.
BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linearly interpolated percentile (``pct`` in 0..100) of ``values``.

    Interpolation, rather than nearest rank, keeps a percentile of a few
    samples from reading one op's latency alone.
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = pct / 100.0 * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples rank above the ``pct`` percentile."""
    return count - 1 - math.floor(pct / 100.0 * (count - 1))


def charged_wall(observed_s: float, timed_out: bool, limit_s: float) -> float:
    """Wall charged to an op: the limit if it hit the limit, else as seen."""
    return limit_s if timed_out else observed_s


def charged_setup(observed_s: float, sim_s: Optional[float],
                  timed_out: bool, limit_s: float,
                  started_s: Optional[float] = None) -> float:
    """Set-up charged to an op: its wall outside the simulation.

    A finished op: wall minus simulate wall.  A timed-out op: the time
    until its simulation started (``started_s``), or the whole limit if
    set-up itself hung.
    """
    if timed_out:
        return limit_s if started_s is None else started_s
    if sim_s is None:
        return observed_s
    return max(0.0, observed_s - sim_s)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def other_time(wall_s: float, layer_self: Dict[str, float]) -> float:
    """The explicit ``other`` share: wall time no layer span covers."""
    return wall_s - sum(layer_self.values())
