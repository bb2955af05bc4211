"""Cost and availability accounting.

The paper's two headline metrics:

* **normalized cost** — total spend as a percentage of hosting the same
  service entirely on on-demand servers for the same window (Figs 6a, 8a,
  9a, 11a);
* **unavailability** — fraction of the service window during which the
  service was down, in percent (Figs 6b, 7, 8c, 9c, 11b). Four nines of
  availability corresponds to 0.01 % unavailability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from repro.cloud.billing import BillingRecord, LeaseBilling
from repro.errors import SchedulingError
from repro.units import SECONDS_PER_HOUR, percent

__all__ = ["CostEntry", "CostLedger", "DowntimeInterval", "AvailabilityTracker"]


@dataclass(frozen=True)
class CostEntry:
    """One billed amount with scheduling context."""

    time: float
    amount: float
    rate: float
    kind: str  #: 'spot' or 'on_demand'
    market: str
    note: str = ""


class CostLedger:
    """Accumulates billing records across every lease of a run.

    Entries are materialised lazily: the hot path (:meth:`add_billing`)
    folds a lease's billed hours in as arrays and keeps running totals —
    accumulated in insertion order with the same left-to-right float
    additions a ``sum`` over the entry list performs — while the
    :class:`CostEntry` objects themselves are only built when ``entries``
    is first read (oracles, tests, reports).
    """

    def __init__(self) -> None:
        self._items: List[tuple] = []  #: (LeaseBilling | records list, market)
        self._entries: List[CostEntry] | None = []
        self._total = 0.0
        self._kind_totals: dict[str, float] = {}
        self._count = 0

    def add_records(self, records: Iterable[BillingRecord], market: str) -> None:
        """Fold a terminated lease's billing records into the ledger."""
        records = list(records)
        self._items.append((records, market))
        self._entries = None
        total = self._total
        kinds = self._kind_totals
        for r in records:
            total += r.amount
            kinds[r.kind] = kinds.get(r.kind, 0.0) + r.amount
        self._total = total
        self._count += len(records)

    def add_billing(self, billing: LeaseBilling, market: str) -> None:
        """Array fast path: fold a lease's billed hours without
        materialising per-hour record objects."""
        amounts = billing.amounts.tolist()
        if not amounts:
            return
        self._items.append((billing, market))
        self._entries = None
        total = self._total
        kind_total = self._kind_totals.get(billing.kind, 0.0)
        # Left-to-right, one hour at a time: the exact additions a ``sum``
        # over the materialised entry list would perform.
        for amount in amounts:
            total += amount
            kind_total += amount
        self._total = total
        self._kind_totals[billing.kind] = kind_total
        self._count += len(amounts)

    @property
    def entries(self) -> List[CostEntry]:
        """Every billed hour as a :class:`CostEntry`, in billing order."""
        if self._entries is None:
            out: List[CostEntry] = []
            for item, market in self._items:
                records = item.records() if isinstance(item, LeaseBilling) else item
                for r in records:
                    out.append(
                        CostEntry(
                            time=r.hour_start,
                            amount=r.amount,
                            rate=r.rate,
                            kind=r.kind,
                            market=market,
                            note=r.note,
                        )
                    )
            self._entries = out
        return self._entries

    @property
    def total(self) -> float:
        """Total spend in USD."""
        return self._total

    def total_by_kind(self, kind: str) -> float:
        """Spend attributed to one lease kind ('spot' / 'on_demand')."""
        return self._kind_totals.get(kind, 0.0)

    def normalized_cost_percent(self, baseline_rate: float, duration_s: float) -> float:
        """Spend as a percentage of an always-on-demand baseline.

        ``baseline_rate`` is the USD/hour the baseline deployment pays
        (e.g. the on-demand price of the same instance size).
        """
        if baseline_rate <= 0 or duration_s <= 0:
            raise SchedulingError("baseline rate and duration must be positive")
        baseline = baseline_rate * duration_s / SECONDS_PER_HOUR
        return percent(self.total / baseline)

    def hours_billed(self) -> int:
        """Number of (possibly free) billing-hour records."""
        return len(self.entries)


@dataclass(frozen=True)
class DowntimeInterval:
    """One contiguous window of service unavailability."""

    start: float
    end: float
    cause: str  #: e.g. 'forced-migration', 'planned-migration', 'waiting-spot'

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise SchedulingError(f"downtime interval ends before it starts: {self!r}")

    @property
    def duration(self) -> float:
        return self.end - self.start


class AvailabilityTracker:
    """Tracks service downtime (and lazy-restore degradation) over a window.

    The observation window opens when the service first comes up
    (``open_window``) and closes at the simulation horizon. Downtime
    intervals must not overlap — the scheduler never runs two blackouts at
    once — and this is enforced.
    """

    def __init__(self) -> None:
        self.window_start: float | None = None
        self.window_end: float | None = None
        self.downtime: List[DowntimeInterval] = []
        self.degraded: List[DowntimeInterval] = []

    # ---------------------------------------------------------------- window
    def open_window(self, t: float) -> None:
        if self.window_start is not None:
            raise SchedulingError("availability window already open")
        self.window_start = float(t)

    def close_window(self, t: float) -> None:
        if self.window_start is None:
            raise SchedulingError("availability window never opened")
        if t < self.window_start:
            raise SchedulingError("window closes before it opens")
        self.window_end = float(t)

    # -------------------------------------------------------------- recording
    def record_downtime(self, start: float, end: float, cause: str) -> None:
        """Record a blackout; clamps to the open window and forbids overlap."""
        if self.window_start is None:
            raise SchedulingError("cannot record downtime before the window opens")
        start = max(start, self.window_start)
        if self.window_end is not None:
            end = min(end, self.window_end)
        if end <= start:
            return
        for iv in self.downtime:
            if start < iv.end and iv.start < end:
                raise SchedulingError(
                    f"overlapping downtime: [{start:.1f},{end:.1f}) vs "
                    f"[{iv.start:.1f},{iv.end:.1f}) ({iv.cause})"
                )
        self.downtime.append(DowntimeInterval(start, end, cause))

    def record_degraded(self, start: float, end: float, cause: str) -> None:
        """Record a post-resume degraded-performance window (may overlap)."""
        if end > start:
            self.degraded.append(DowntimeInterval(start, end, cause))

    # -------------------------------------------------------------- queries
    @property
    def window_duration(self) -> float:
        if self.window_start is None or self.window_end is None:
            raise SchedulingError("availability window not closed")
        return self.window_end - self.window_start

    def total_downtime(self, cause: str | None = None) -> float:
        """Total blackout seconds, optionally filtered by cause."""
        return sum(iv.duration for iv in self.downtime if cause is None or iv.cause == cause)

    def total_degraded(self) -> float:
        return sum(iv.duration for iv in self.degraded)

    def unavailability_percent(self) -> float:
        """Downtime as a percentage of the observation window."""
        dur = self.window_duration
        if dur <= 0:
            return 0.0
        return percent(self.total_downtime() / dur)

    def meets_availability(self, nines: int = 4) -> bool:
        """True when unavailability is at most one part in 10**nines * 100."""
        return self.unavailability_percent() <= 100.0 / (10**nines)
