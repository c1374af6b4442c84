"""Data-transfer accounting.

The :class:`TransferLedger` records every message the network delivers and
answers the questions behind the paper's communication figures:

* Fig. 12 — accumulated data transfer as a function of (virtual) time.
* Fig. 13 — total transfer broken down by category (pull / push / control).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, NamedTuple, Tuple

from repro.netsim.messages import Message, MessageKind

__all__ = ["TransferRecord", "TransferLedger"]


class TransferRecord(NamedTuple):
    """One accounted transfer: when, what kind, how many bytes."""

    time: float
    kind: str
    category: str
    src: str
    dst: str
    size_bytes: float


class TransferLedger:
    """Append-only record of all network transfers in a run.

    ``record`` is on the per-message path: it appends to parallel columns
    and adds to the running totals (in delivery order, so they are the
    floats a per-record sum gives); :meth:`records` builds the objects.
    """

    def __init__(self):
        self._times: List[float] = []
        self._kinds: List[MessageKind] = []
        self._srcs: List[str] = []
        self._dsts: List[str] = []
        self._sizes: List[float] = []
        self._cumulative: List[float] = []
        self._total = 0.0
        self._by_category: Dict[str, float] = {}
        self._by_kind: Dict[str, float] = {}

    def record(self, time: float, message: Message) -> None:
        """Account one delivered message at virtual time ``time``."""
        times = self._times
        if times and time < times[-1]:
            raise ValueError(
                f"transfers must be recorded in time order: {time} < {times[-1]}"
            )
        kind = message.kind
        size = message.size_bytes
        times.append(time)
        self._kinds.append(kind)
        self._srcs.append(message.src)
        self._dsts.append(message.dst)
        self._sizes.append(size)
        self._total += size
        self._cumulative.append(self._total)
        # str keys: hashing the enum member itself is a Python-level call
        self._by_category[kind.category] = self._by_category.get(kind.category, 0.0) + size
        self._by_kind[kind.wire_name] = self._by_kind.get(kind.wire_name, 0.0) + size

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> float:
        """Total bytes moved so far."""
        return self._total

    @property
    def record_count(self) -> int:
        """Number of accounted transfers."""
        return len(self._times)

    def bytes_by_category(self) -> Dict[str, float]:
        """Total bytes per Fig.-13 bucket (pull / push / control)."""
        return dict(self._by_category)

    def bytes_by_kind(self) -> Dict[str, float]:
        """Total bytes per message kind (finer than category)."""
        return dict(self._by_kind)

    def cumulative_at(self, time: float) -> float:
        """Total bytes transferred up to and including virtual time ``time``."""
        idx = bisect.bisect_right(self._times, time)
        return self._cumulative[idx - 1] if idx else 0.0

    def cumulative_series(self, sample_times: List[float]) -> List[Tuple[float, float]]:
        """Sample the accumulated-transfer curve (Fig. 12) at given times."""
        return [(t, self.cumulative_at(t)) for t in sample_times]

    def records(self) -> List[TransferRecord]:
        """All transfer records, in time order (built on each call)."""
        return [
            TransferRecord(time, kind.wire_name, kind.category, src, dst, size)
            for time, kind, src, dst, size in zip(
                self._times, self._kinds, self._srcs, self._dsts, self._sizes
            )
        ]

    def control_fraction(self) -> float:
        """Fraction of total bytes that is SpecSync control traffic.

        The paper's claim is that this is negligible; the ablation and
        overhead benches assert it stays well under a percent.
        """
        if self._total == 0:
            return 0.0
        return self._by_category.get("control", 0.0) / self._total

    def __repr__(self) -> str:
        return (
            f"TransferLedger(records={len(self._times)}, "
            f"total={self._total:.3g}B)"
        )
