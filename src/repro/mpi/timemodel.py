"""Virtual-time machine model.

The simulator executes real Python code but accounts *virtual* time, so the
timing tables of the paper can be regenerated at their original process
counts.  Each rank owns a :class:`RankClock`; clocks advance through

* explicit compute charges (``compute(seconds)`` — applications charge a
  modelled cost per kernel iteration),
* per-MPI-call software overhead, and
* message transfer times (a LogGP-style ``latency + bytes/bandwidth``),
  which propagate between ranks by piggybacking the sender's timestamp on
  every envelope: a receive completes at
  ``max(receiver_now, sender_send_time + transfer(nbytes))``.

:class:`MachineModel` instances describe the paper's three clusters
(Lemieux, Velocity 2, CMI) and the two uniprocessor platforms of Table 1.
The constants are calibrated to reproduce the *shape* of the paper's
results (who wins, rough factors, crossovers) — see EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class MachineModel:
    """Performance parameters of one platform."""

    name: str
    #: effective useful FLOP rate per MPI process (FLOP/s)
    flops_per_proc: float
    #: one-way small-message network latency (seconds)
    latency: float
    #: per-link network bandwidth (bytes/second)
    bandwidth: float
    #: software overhead charged per MPI call (seconds)
    call_overhead: float
    #: extra software overhead per *intercepted* call in the C3 layer
    c3_call_overhead: float
    #: extra fixed cost to piggyback on this platform (the paper observed a
    #: platform-specific penalty on Velocity 2's interconnect stack)
    piggyback_overhead: float = 0.0
    #: per-stream cost of embedding piggybacks in native collectives
    #: (payload repacking in the C3 layer; much cheaper than the p2p
    #: per-message penalty)
    coll_stream_overhead: float = 0.0
    #: local-disk write bandwidth (bytes/second) and seek latency (seconds)
    disk_bandwidth: float = 50e6
    disk_latency: float = 5e-3
    #: off-cluster (remote) disk bandwidth for the drain daemon model
    remote_disk_bandwidth: float = 10e6
    #: process image fixed overhead for system-level checkpoints (bytes):
    #: text/static segment + runtime image a core-dump snapshot includes
    static_segment_bytes: int = 0
    #: cores per node, for the "procs (nodes)" labels in the tables
    procs_per_node: int = 1

    def transfer_time(self, nbytes: int) -> float:
        """Time for one point-to-point message of ``nbytes`` payload bytes."""
        return self.latency + nbytes / self.bandwidth

    def disk_write_time(self, nbytes: int) -> float:
        """Time to write ``nbytes`` to the node-local disk."""
        return self.disk_latency + nbytes / self.disk_bandwidth

    def disk_read_time(self, nbytes: int) -> float:
        """Time to read ``nbytes`` back from the node-local disk."""
        return self.disk_latency + nbytes / self.disk_bandwidth

    def with_overrides(self, **kw) -> "MachineModel":
        """A copy with some parameters replaced (for ablation benches)."""
        return replace(self, **kw)


class RankClock:
    """Per-rank virtual clock.  Monotone non-decreasing.

    A clock may *watch* the engine's virtual-time fault scheduler: when an
    advance crosses the scheduler's earliest pending fault time, the
    scheduler is told immediately, so faults scheduled at a virtual time
    are signalled the moment any rank's clock crosses the threshold
    instead of being discovered by a timeout poll.
    """

    __slots__ = ("now", "_watch")

    def __init__(self, start: float = 0.0):
        self.now = float(start)
        self._watch = None

    def watch(self, scheduler) -> None:
        """Report crossings of ``scheduler.next_time`` to the scheduler."""
        self._watch = scheduler

    def advance(self, dt: float) -> float:
        """Charge ``dt`` seconds of local work; returns the new time."""
        if dt < 0:
            raise ValueError(f"cannot advance clock by negative dt={dt}")
        self.now += dt
        watch = self._watch
        if watch is not None and self.now >= watch.next_time:
            watch.clock_crossed(self.now)
        return self.now

    def sync_to(self, t: float) -> float:
        """Wait until virtual time ``t`` (no-op if already past)."""
        if t > self.now:
            self.now = t
            watch = self._watch
            if watch is not None and self.now >= watch.next_time:
                watch.clock_crossed(self.now)
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RankClock({self.now:.6f})"


# ---------------------------------------------------------------------------
# The paper's platforms.
# ---------------------------------------------------------------------------

#: Lemieux (PSC): 750 Compaq Alphaserver ES45 nodes, 4x 1 GHz Alpha,
#: Quadrics interconnect, Tru64.
LEMIEUX = MachineModel(
    name="lemieux",
    flops_per_proc=8.0e8,
    latency=5.0e-6,
    bandwidth=250e6,
    call_overhead=1.0e-6,
    c3_call_overhead=1.6e-6,
    piggyback_overhead=0.3e-6,
    coll_stream_overhead=0.25e-6,
    disk_bandwidth=35e6,
    disk_latency=2e-4,
    static_segment_bytes=6 << 20,
    procs_per_node=4,
)

#: Velocity 2 (CTC): 128 dual 2.4 GHz P4 Xeon nodes, Force10 GigE, Win2k.
#: The paper measured an anomalously large C3 penalty for codes that send
#: many small messages (SMG2000: ~50%); we model this as a large fixed
#: per-message piggyback cost in the Windows network stack.
VELOCITY2 = MachineModel(
    name="velocity2",
    flops_per_proc=1.1e9,
    latency=55.0e-6,
    bandwidth=100e6,
    call_overhead=3.0e-6,
    c3_call_overhead=4.0e-6,
    piggyback_overhead=26.0e-6,
    coll_stream_overhead=6.0e-6,
    disk_bandwidth=40e6,
    disk_latency=3e-4,
    static_segment_bytes=8 << 20,
    procs_per_node=2,
)

#: CMI (CTC): 64 dual 1 GHz P3 nodes, Giganet, Win2k.
CMI = MachineModel(
    name="cmi",
    flops_per_proc=4.5e8,
    latency=12.0e-6,
    bandwidth=100e6,
    call_overhead=2.0e-6,
    c3_call_overhead=2.6e-6,
    piggyback_overhead=0.5e-6,
    coll_stream_overhead=0.4e-6,
    disk_bandwidth=30e6,
    disk_latency=3e-4,
    static_segment_bytes=7 << 20,
    procs_per_node=2,
)

#: Table 1 uniprocessors.  ``static_segment_bytes`` dominates the Condor-vs-C3
#: difference for tiny-footprint codes (EP): Condor's image includes the
#: whole static segment and allocator slack, C3 saves only live data.
SOLARIS_UNIPROC = MachineModel(
    name="solaris",
    flops_per_proc=5.0e8,
    latency=10.0e-6,
    bandwidth=100e6,
    call_overhead=2.0e-6,
    c3_call_overhead=2.6e-6,
    disk_bandwidth=25e6,
    disk_latency=9e-3,
    static_segment_bytes=2_580_000,
    procs_per_node=2,
)

LINUX_UNIPROC = MachineModel(
    name="linux",
    flops_per_proc=6.0e8,
    latency=10.0e-6,
    bandwidth=100e6,
    call_overhead=2.0e-6,
    c3_call_overhead=2.6e-6,
    disk_bandwidth=25e6,
    disk_latency=9e-3,
    static_segment_bytes=780_000,
    procs_per_node=1,
)

#: A fast, low-overhead model for unit tests (keeps virtual numbers tidy).
TESTING = MachineModel(
    name="testing",
    flops_per_proc=1e9,
    latency=1e-6,
    bandwidth=1e9,
    call_overhead=1e-7,
    c3_call_overhead=1e-7,
    disk_bandwidth=1e9,
    disk_latency=1e-6,
    static_segment_bytes=1 << 20,
    procs_per_node=1,
)

MACHINES = {
    m.name: m
    for m in (LEMIEUX, VELOCITY2, CMI, SOLARIS_UNIPROC, LINUX_UNIPROC, TESTING)
}
