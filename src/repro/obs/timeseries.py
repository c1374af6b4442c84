"""Windowed time series and EWMA rates for online performance signals.

These are the raw material for the straggler/anomaly detectors: each
series keeps a bounded window of ``(timestamp, value)`` samples plus an
exponentially-weighted moving average over the *entire* stream.  Like
the rest of ``repro.obs`` this module never reads a clock — timestamps
are supplied by the caller (virtual seconds in the DES, injected wall
seconds in the runtime backends), so the DES side stays deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

__all__ = ["Ewma", "WindowedSeries"]


class Ewma:
    """Exponentially-weighted moving average with smoothing factor ``alpha``.

    The first sample initializes the average; subsequent samples fold in
    as ``alpha * sample + (1 - alpha) * value``.
    """

    def __init__(self, alpha: float = 0.2) -> None:
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.value: Optional[float] = None

    def update(self, sample: float) -> float:
        """Fold one sample in; returns the updated average."""
        if self.value is None:
            self.value = float(sample)
        else:
            self.value = self.alpha * sample + (1.0 - self.alpha) * self.value
        return self.value

    def __repr__(self) -> str:
        return f"Ewma(alpha={self.alpha:g}, value={self.value})"


class WindowedSeries:
    """A named, bounded window of ``(timestamp, value)`` samples.

    Keeps the most recent ``window`` samples for windowed statistics
    (mean, rate) plus stream-lifetime aggregates
    (count, EWMA) that survive window eviction.
    """

    def __init__(
        self, name: str, window: int = 256, ewma_alpha: float = 0.2
    ) -> None:
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        self.name = name
        self.window = window
        self._samples: Deque[Tuple[float, float]] = deque(maxlen=window)
        self._ewma = Ewma(ewma_alpha)
        self.count = 0

    def append(self, ts: float, value: float) -> None:
        """Record one sample at timestamp ``ts``."""
        self._samples.append((float(ts), float(value)))
        self._ewma.update(value)
        self.count += 1

    @property
    def last(self) -> Optional[float]:
        """Most recent value (None when empty)."""
        return self._samples[-1][1] if self._samples else None

    @property
    def ewma(self) -> Optional[float]:
        """Stream-lifetime EWMA of the values (None when empty)."""
        return self._ewma.value

    def values(self) -> List[float]:
        """The windowed values, oldest first."""
        return [v for _, v in self._samples]

    def mean(self) -> Optional[float]:
        """Mean of the windowed values (None when empty)."""
        if not self._samples:
            return None
        return sum(v for _, v in self._samples) / len(self._samples)

    def rate(self) -> Optional[float]:
        """Samples per time unit across the window (None if < 2 samples
        or zero elapsed time)."""
        if len(self._samples) < 2:
            return None
        elapsed = self._samples[-1][0] - self._samples[0][0]
        if elapsed <= 0:
            return None
        return (len(self._samples) - 1) / elapsed

    def snapshot(self) -> dict:
        """JSON-ready deterministic view: lifetime count/EWMA plus the
        windowed samples and their mean/rate."""
        return {
            "count": self.count,
            "window": [[t, v] for t, v in self._samples],
            "mean": self.mean(),
            "last": self.last,
            "ewma": self.ewma,
            "rate": self.rate(),
        }

    def __repr__(self) -> str:
        return (
            f"WindowedSeries({self.name!r}, count={self.count}, "
            f"window={len(self._samples)}/{self.window})"
        )
