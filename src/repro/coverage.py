"""Protocol-state coverage counters for the fault fuzzer.

The fuzzer (:mod:`repro.harness.fuzz`) steers schedule generation by the
protocol paths a run lights up — but the interesting paths often execute
in runs that *die* (a killed job returns no per-rank stats, so
:class:`~repro.core.protocol.C3Stats` from the final clean execution
misses everything the fault window exercised).  This module is the side
channel: a process-global :class:`CoverageMap` that instrumented code in
:mod:`repro.core.protocol`, :mod:`repro.core.checkpoint`,
:mod:`repro.storage.wal`, and :mod:`repro.storage.faulty` reports into
with :func:`hit`, surviving engine teardown and job aborts.  It lives at
the top of the package (not in ``repro.core``) so the storage layer can
import it without a cycle through the protocol modules.

When no map is installed (the default — every normal run, test, and
campaign), :func:`hit` is a single attribute check and returns; the
counters cost nothing measurable on the hot paths.

Coverage points are plain strings, namespaced by origin:

* ``msg:<class>`` — message-class signatures matched by the protocol's
  delivery classifier (``late``, ``intra``, ``early``, ``wildcard``);
* ``path:<event>`` — commit/fallback/GC/replay/truncation paths taken
  (e.g. ``path:commit``, ``path:restore_fallback``, ``path:gc``,
  ``path:wal_truncated``, ``path:ckpt_abandoned``);
* ``window:<trigger>`` — fault windows hit, reported by the fuzz runner
  from :attr:`FaultPlan.fired` (e.g. ``window:at_epoch``);
* ``storage:<fault>`` — storage faults actually injected by
  :class:`~repro.storage.faulty.FaultyStorage` (e.g. ``storage:bit_rot``).

The map is deliberately not thread-local: every rank fiber runs on its
own carrier thread, and all of them must record into the one active map.
Fibers never run concurrently, so within a job the counts are exact; two
jobs in different threads of one process (the service's executor) could
only lose an increment of a *count*, never unset a point — dict key
insertion is atomic under the GIL.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional


class CoverageMap:
    """A bag of named coverage counters."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}

    def hit(self, point: str, n: int = 1) -> None:
        self.counts[point] = self.counts.get(point, 0) + n

    def points(self) -> FrozenSet[str]:
        """The set of coverage points hit at least once."""
        return frozenset(p for p, n in self.counts.items() if n > 0)

    def merge(self, other: "CoverageMap") -> None:
        for point, n in other.counts.items():
            self.hit(point, n)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CoverageMap({self.counts!r})"


#: the installed sink, or None (coverage disabled)
_active: Optional[CoverageMap] = None


def install(cmap: Optional[CoverageMap]) -> Optional[CoverageMap]:
    """Install ``cmap`` as the process-global sink; returns the previous
    one so callers can nest/restore.  Pass ``None`` to disable."""
    global _active
    previous = _active
    _active = cmap
    return previous


def active() -> Optional[CoverageMap]:
    return _active


def hit(point: str, n: int = 1) -> None:
    """Report one coverage event; no-op unless a map is installed."""
    if _active is not None:
        _active.hit(point, n)
