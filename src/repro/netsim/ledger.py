"""Data-transfer accounting.

The :class:`TransferLedger` records every message the network delivers and
answers the questions behind the paper's communication figures:

* Fig. 12 — accumulated data transfer as a function of (virtual) time.
* Fig. 13 — total transfer broken down by category (pull / push / control).

A run delivers one message per protocol step, so the ledger holds them in
typed columns rather than one object each: an ``array('d')`` of delivery
times, one of sizes, and an ``array('I')`` route code into a small table of
``(src, dst, wire_name)`` routes.  The Fig. 12 curve and the Fig. 13 totals
are derived from those columns when asked, in delivery order, so each is the
same float a running sum per message would reach.
"""

from __future__ import annotations

import bisect
from array import array
from itertools import accumulate
from typing import Dict, List, NamedTuple, Tuple

from repro.netsim.messages import Message, MessageKind

__all__ = ["TransferRecord", "TransferLedger"]

_CATEGORY_OF = {kind.wire_name: kind.category for kind in MessageKind}


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

    ``record`` is on the per-message path, so it only checks the time order
    and appends to the columns; the queries derive the totals and the curve
    from them, and :meth:`records` builds the objects.
    """

    def __init__(self):
        self._times = array("d")
        self._sizes = array("d")
        self._route_codes = array("I")
        self._append_time = self._times.append
        self._append_size = self._sizes.append
        self._append_route = self._route_codes.append
        # str keys: hashing a MessageKind member is a Python-level call
        self._route_code_of: Dict[Tuple[str, str, str], int] = {}
        self._routes: List[Tuple[str, str, str]] = []  # (src, dst, wire_name)
        self._last_time = float("-inf")
        # Derived on query, each rebuilt once records have been added since:
        # the totals (as of _totaled records) and the cumulative bytes after
        # each record, with a leading 0.0.
        self._totaled = 0
        self._total = 0.0
        self._by_kind: Dict[str, float] = {}
        self._by_category: Dict[str, float] = {}
        self._cumulative = array("d", [0.0])

    def record(self, time: float, message: Message) -> None:
        """Account one delivered message at virtual time ``time``."""
        if time < self._last_time:
            raise ValueError(
                f"transfers must be recorded in time order: {time} < {self._last_time}"
            )
        route = (message.src, message.dst, message.kind.wire_name)
        code = self._route_code_of.get(route)
        if code is None:
            code = self._route_code_of[route] = len(self._routes)
            self._routes.append(route)
        self._last_time = time
        self._append_time(time)
        self._append_size(message.size_bytes)
        self._append_route(code)

    # Every derived sum runs over the sizes in delivery order from 0.0, so
    # each is the float a running total kept per record would hold.
    def _derive_totals(self) -> None:
        if self._totaled == len(self._sizes):
            return
        kinds = [wire_name for _, _, wire_name in self._routes]
        categories = [_CATEGORY_OF[wire_name] for wire_name in kinds]
        total = 0.0
        by_kind: Dict[str, float] = {}
        by_category: Dict[str, float] = {}
        for code, size in zip(self._route_codes, self._sizes):
            kind, category = kinds[code], categories[code]
            total += size
            by_kind[kind] = by_kind.get(kind, 0.0) + size
            by_category[category] = by_category.get(category, 0.0) + size
        self._totaled = len(self._sizes)
        self._total, self._by_kind, self._by_category = total, by_kind, by_category

    def _cumulative_bytes(self) -> array:
        if len(self._cumulative) != len(self._sizes) + 1:
            self._cumulative = array("d", accumulate(self._sizes, initial=0.0))
        return self._cumulative

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> float:
        """Total bytes moved so far."""
        self._derive_totals()
        return self._total

    @property
    def record_count(self) -> int:
        """Number of accounted transfers."""
        return len(self._times)

    def bytes_by_category(self) -> Dict[str, float]:
        """Total bytes per Fig.-13 bucket (pull / push / control)."""
        self._derive_totals()
        return dict(self._by_category)

    def bytes_by_kind(self) -> Dict[str, float]:
        """Total bytes per message kind (finer than category)."""
        self._derive_totals()
        return dict(self._by_kind)

    def cumulative_at(self, time: float) -> float:
        """Total bytes transferred up to and including virtual time ``time``."""
        return self._cumulative_bytes()[bisect.bisect_right(self._times, time)]

    def cumulative_series(self, sample_times: List[float]) -> List[Tuple[float, float]]:
        """Sample the accumulated-transfer curve (Fig. 12) at given times."""
        return [(t, self.cumulative_at(t)) for t in sample_times]

    def records(self) -> List[TransferRecord]:
        """All transfer records, in time order (built on each call)."""
        routes = self._routes
        records = []
        for time, size, code in zip(self._times, self._sizes, self._route_codes):
            src, dst, wire_name = routes[code]
            records.append(
                TransferRecord(time, wire_name, _CATEGORY_OF[wire_name], src, dst, size)
            )
        return records

    def control_fraction(self) -> float:
        """Fraction of total bytes that is SpecSync control traffic.

        The paper's claim is that this is negligible; the ablation and
        overhead benches assert it stays well under a percent.
        """
        total = self.total_bytes
        if total == 0:
            return 0.0
        return self._by_category.get("control", 0.0) / total

    def __repr__(self) -> str:
        return (
            f"TransferLedger(records={len(self._times)}, "
            f"total={self.total_bytes:.3g}B)"
        )
