"""Asynchronous checkpoint drain daemon (PSC-style).

Section 6.4 of the paper: writing checkpoints to node-local disk does not
by itself give fault tolerance, because a dead node takes its disk with
it; but writing directly to a remote disk contends with application
traffic.  The strategy used at the Pittsburgh Supercomputing Center — and
the one C3 integrates with — is to write locally and have an *external
daemon* asynchronously drain the files to off-cluster storage over a
secondary network.

:class:`DrainDaemon` models that: given per-rank checkpoint sizes and the
machine's secondary-network/remote-disk bandwidth, it computes when each
rank's checkpoint becomes safe off-cluster, and by how much the
application would have been delayed had it written remotely in-line
(the comparison the design argument rests on).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..mpi.timemodel import MachineModel
from .stable import StorageBackend
from .store import as_store


class DrainDevice:
    """Scheduler-integrated virtual-time node-local disk.

    The live counterpart of :class:`DrainDaemon`'s postmortem report: one
    FIFO write queue per *node* (co-located ranks — ``procs_per_node`` of
    the machine model — share their node's disk bandwidth), advanced in
    virtual time as ranks stage checkpoint bytes.  ``submit`` returns the
    virtual instant the staged bytes are durable on the local disk; the
    protocol writes the COMMIT marker only once the rank's clock passes
    that instant, which is what makes the overlapped write-back pipeline
    crash-consistent — a rank killed mid-drain leaves sections without a
    marker, and recovery falls back to the previous committed line.

    Exactly one rank runs at a time under the cooperative scheduler, so
    submission order — and therefore every completion time — is
    deterministic, and the device needs no lock.
    """

    def __init__(self, machine: MachineModel, nprocs: int):
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        self.machine = machine
        self.procs_per_node = max(1, machine.procs_per_node)
        nodes = -(-nprocs // self.procs_per_node)  # ceil
        #: per-node virtual time the disk becomes idle
        self._busy_until = [0.0] * nodes
        #: accounting the studies read
        self.submissions = 0
        self.submitted_bytes = 0

    def node_of(self, rank: int) -> int:
        return rank // self.procs_per_node

    def submit(self, rank: int, nbytes: int, now: float) -> float:
        """Queue ``nbytes`` from ``rank`` at virtual time ``now``.

        Returns the virtual time the write completes: the request starts
        when both the submitter has staged it and the node's disk has
        finished everything queued before it, then runs at the machine's
        local-disk bandwidth (one seek latency per request, matching the
        in-line path's ``disk_write_time`` charge).
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        node = self.node_of(rank)
        start = max(now, self._busy_until[node])
        done = start + self.machine.disk_write_time(nbytes)
        self._busy_until[node] = done
        self.submissions += 1
        self.submitted_bytes += nbytes
        return done

    def busy_until(self, rank: int) -> float:
        """Virtual time ``rank``'s node disk becomes idle (for tests)."""
        return self._busy_until[self.node_of(rank)]


@dataclass
class DrainReport:
    """Outcome of draining one recovery line off-cluster."""

    #: virtual time each rank's local write finished
    local_done: List[float]
    #: virtual time each rank's data was safe off-cluster
    remote_done: List[float]
    #: when the whole recovery line became durable off-cluster
    line_durable_at: float
    #: extra application delay a *synchronous* remote write would have cost
    synchronous_penalty: float


class DrainDaemon:
    """Models local-write + asynchronous remote drain of one checkpoint."""

    def __init__(self, machine: MachineModel, drain_streams: int = 4):
        if drain_streams < 1:
            raise ValueError("drain_streams must be >= 1")
        self.machine = machine
        #: concurrent node->remote transfer streams the daemon multiplexes
        self.drain_streams = drain_streams

    def drain(self, start_times: Sequence[float], sizes: Sequence[int]) -> DrainReport:
        """Drain per-rank checkpoints written locally at ``start_times``.

        ``sizes`` are bytes per rank.  The daemon serves local files in
        completion order, ``drain_streams`` at a time, each at the remote
        disk bandwidth.
        """
        if len(start_times) != len(sizes):
            raise ValueError("start_times and sizes must have equal length")
        m = self.machine
        local_done = [t + m.disk_write_time(s) for t, s in zip(start_times, sizes)]
        order = sorted(range(len(sizes)), key=lambda i: local_done[i])
        # greedy multiplex onto the drain streams
        stream_free = [0.0] * self.drain_streams
        remote_done = [0.0] * len(sizes)
        for i in order:
            s = min(range(self.drain_streams), key=lambda j: stream_free[j])
            begin = max(local_done[i], stream_free[s])
            cost = m.disk_latency + sizes[i] / m.remote_disk_bandwidth
            remote_done[i] = begin + cost
            stream_free[s] = remote_done[i]
        sync_penalty = max(
            (m.disk_latency + s / m.remote_disk_bandwidth) - m.disk_write_time(s)
            for s in sizes
        ) if sizes else 0.0
        return DrainReport(
            local_done=local_done,
            remote_done=remote_done,
            line_durable_at=max(remote_done) if remote_done else 0.0,
            synchronous_penalty=max(0.0, sync_penalty),
        )

    def drain_line(self, storage, nprocs: int,
                   version: Optional[int] = None,
                   start_times: Optional[Sequence[float]] = None,
                   ) -> Optional[DrainReport]:
        """Drain a committed recovery line straight from the manifest.

        The entry point the recovery campaign (and any harness working
        against real stable storage) uses: look up ``version`` — by
        default the last line committed on *all* ranks — read each rank's
        actual checkpoint payload size from the storage backend, and model
        the off-cluster drain of exactly those bytes.  Returns ``None``
        when the storage holds no complete recovery line.

        ``start_times`` defaults to every rank starting its local write at
        t=0 (the worst case for drain-stream contention).
        """
        store = as_store(storage)
        if version is None:
            version = store.last_committed_global(nprocs)
            if version is None:
                return None
        sizes = [store.checkpoint_bytes(version, r) for r in range(nprocs)]
        if start_times is None:
            start_times = [0.0] * nprocs
        return self.drain(start_times, sizes)
