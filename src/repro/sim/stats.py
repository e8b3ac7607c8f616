"""Lightweight instrumentation primitives.

Every hardware model in the simulator exposes its behaviour through
these three collectors, so experiment harnesses read results uniformly:

* :class:`Counter` — monotonically increasing event counts.
* :class:`Tally` — streaming mean/min/max/variance of observations
  (Welford's algorithm; no sample storage).
* :class:`TimeWeighted` — time-weighted average of a level, e.g. queue
  occupancy or link utilization.
"""

from __future__ import annotations

import math
from typing import Optional

__all__ = ["Counter", "Tally", "TimeWeighted"]


class Counter:
    """A named monotonic counter.

    The packet path bumps ``value`` in place (``counter.value +=
    packet.line_count``) where the increment is a count
    ``Packet.__post_init__`` has already proven non-negative; everything
    else goes through the checked :meth:`add`.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"Counter.add expects n >= 0, got {n}")
        self.value += n

    def reset(self) -> None:
        self.value = 0

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Counter {self.name}={self.value}>"


class Tally:
    """Streaming summary statistics over observed samples."""

    __slots__ = ("name", "count", "_mean", "_m2", "min", "max", "total")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.total = 0.0

    def observe(self, x: float) -> None:
        self.count += 1
        self.total += x
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def mean(self) -> float:
        return self._mean if self.count else float("nan")

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator)."""
        if self.count < 2:
            return float("nan")
        return self._m2 / (self.count - 1)

    @property
    def stdev(self) -> float:
        v = self.variance
        return math.sqrt(v) if v == v else float("nan")

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Tally {self.name} n={self.count} mean={self.mean:.2f} "
            f"min={self.min:.2f} max={self.max:.2f}>"
        )


class TimeWeighted:
    """Time-weighted average of a piecewise-constant level.

    Call :meth:`set` whenever the level changes; query
    :meth:`average` at the end of a run.
    """

    __slots__ = ("name", "_level", "_last_t", "_area", "_start_t", "peak")

    def __init__(self, name: str = "", t0: float = 0.0, level: float = 0.0) -> None:
        self.name = name
        self._level = level
        self._last_t = t0
        self._start_t = t0
        self._area = 0.0
        self.peak = level

    @property
    def level(self) -> float:
        return self._level

    def set(self, level: float, now: float) -> None:
        if now < self._last_t:
            raise ValueError(
                f"time went backwards: {now} < {self._last_t} in {self.name!r}"
            )
        self._area += self._level * (now - self._last_t)
        self._last_t = now
        self._level = level
        if level > self.peak:
            self.peak = level

    def adjust(self, delta: float, now: float) -> None:
        """``set(level + delta, now)`` in one frame."""
        last = self._last_t
        if now < last:
            raise ValueError(
                f"time went backwards: {now} < {last} in {self.name!r}"
            )
        level = self._level
        self._area += level * (now - last)
        self._last_t = now
        self._level = level = level + delta
        if level > self.peak:
            self.peak = level

    def average(self, now: Optional[float] = None) -> float:
        """Time-weighted mean level from creation until *now*."""
        end = self._last_t if now is None else now
        area = self._area + self._level * (end - self._last_t)
        span = end - self._start_t
        return area / span if span > 0 else self._level

    def __repr__(self) -> str:  # pragma: no cover
        return f"<TimeWeighted {self.name} level={self._level}>"
