"""The C3 coordination layer: non-blocking, coordinated, application-level
checkpointing (Sections 3 and 4 of the paper).

:class:`C3Protocol` sits between the application and the (simulated) MPI
runtime and intercepts every communication call.  It implements:

* the Figure-4 send/receive wrappers — piggybacking, message
  classification, counter updates, late-message logging, early-message
  registration, wildcard-order logging, send suppression and log replay
  during recovery;
* the Figure-5 actions — ``chkpt_StartCheckpoint``,
  ``chkpt_CommitCheckpoint``, ``chkpt_RestoreCheckpoint`` and the pragma
  logic (in :mod:`repro.core.checkpoint`);
* the advanced-feature extensions of Section 4 — the request indirection
  table with test-counter replay, the datatype table, recorded
  communicators, and the collective protocols (in
  :mod:`repro.core.collectives`).

Implementation notes recorded in DESIGN.md (deviations the paper's
pseudocode elides but its prose implies):

* a send suppressed by the Was-Early-Registry still increments
  ``Sent-Count`` — the receiver's restored counters already include the
  early message, so the next recovery line's late accounting balances
  only if the suppressed send is counted;
* receiving an *early* message while logging non-deterministic events
  also stops the logging: a sender one epoch ahead has necessarily
  stopped logging for the receiver's line (the prose rule "a message from
  a process that has itself stopped logging"), even though its piggyback
  bit refers to the sender's own next line;
* late-registry entries are tagged with the consuming request's table id,
  which is reproduced deterministically during replay; replay matches by
  id first and falls back to signature matching once the re-execution has
  (legitimately) diverged past the logged non-determinism window.

Paper mapping
-------------
* Section 3.1 / Figure 2 — epochs and recovery lines (`self.epoch`,
  advanced by :func:`repro.core.checkpoint.start_checkpoint`);
* Section 3.2 — the 3 piggybacked bits every send carries, as one word
  (:meth:`C3Protocol._word`, codecs in :mod:`repro.core.epoch`);
* Section 3.3 / Figure 4 — the send/receive wrappers (:meth:`C3Protocol.send`,
  :meth:`C3Protocol.recv`, their non-blocking forms).  Figure 4's rules
  are written once and shared by application messages and collective
  streams: the send rule (``_send``), the receive rule that classifies
  late/intra/early on delivery (``_on_receive``), and the recovery-time
  log replay (``_replay``); ``_complete`` is the one completion of a
  request under Wait/Test/Waitany/Waitsome;
* Section 4.1 — request indirection (:mod:`repro.core.reqtable`);
* Section 4.2 — datatype table (:mod:`repro.core.datatable`);
* Section 4.3 — collectives as per-stream protocols
  (:mod:`repro.core.collectives`);
* Section 4.4 — recorded communicator creation
  (:mod:`repro.core.commtable`);
* Section 4.5 — design-choice ablation switches on :class:`C3Config`
  (``distinguished_initiator``, ``log_reduction_results``, ``codec``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Tuple

import numpy as np

from ..mpi.api import MPI
from ..mpi.datatypes import Datatype, from_numpy_dtype
from ..mpi.matching import ANY_SOURCE, ANY_TAG
from ..mpi.status import Status
from ..statesave.context import Context
from .. import coverage
from ..storage.stable import StorageBackend, StorageError
from ..storage.store import as_store
from .commtable import CommEntry, CommTable
from .control import ControlPlane
from .counters import CounterSet
from .datatable import DatatypeTable
from .epoch import CODECS, INTRA, LATE, STOPPED, classify, receive_table
from .modes import Mode, ModeTracker, ProtocolError
from .registries import (
    DATA, EarlyMessageRegistry, EventLog, LateEntry, LateMessageRegistry,
    WasEarlyRegistry,
)
from .reqtable import C3Request, RequestEntry, RequestTable

#: reserved tag for collective communication streams (applications must not
#: use it; see repro.core.collectives)
COLL_TAG = (1 << 24) - 1

#: modelled memory-copy bandwidth for checkpoint serialization (bytes/s)
SERIALIZE_BANDWIDTH = 2.0e9


@dataclass
class C3Config:
    """Tunables of the coordination layer."""

    #: virtual-seconds between timer-initiated checkpoints (None: only
    #: forced pragmas checkpoint)
    checkpoint_interval: Optional[float] = None
    #: configuration #3 (True) vs #2 (False) of Tables 4-5: actually write
    #: checkpoint data to stable storage, or only go through the motions
    save_to_disk: bool = True
    #: overlapped write-back (the production path, Section 6.4): staging
    #: a checkpoint returns control to the rank immediately and the
    #: serialized bytes drain through the node's virtual-time disk device
    #: in the background — the COMMIT marker is written only once every
    #: section is durable.  False restores the in-line write path that
    #: blocks the rank for the full ``disk_write_time`` (the Tables 4-5
    #: configuration-#3 measurement).
    overlap: bool = True
    #: recovery-line garbage collection: once a line is durably committed
    #: by every rank (the committed floor, read straight from the shared
    #: storage manifest at each commit — never broadcast, see
    #: ``_gc_lines``), delete strictly older lines — storage holds the
    #: last globally committed line plus whatever is in flight (<= 2
    #: lines at steady state).  Incremental chains pin everything back
    #: to their last full save.  False retains every committed line
    #: forever (ablation).
    gc_lines: bool = True
    #: save checkpoints in the portable (typed) format
    portable: bool = False
    #: piggyback codec: "3bit" (the paper's) or "full" (ablation)
    codec: str = "3bit"
    #: always emulate collectives with point-to-point (ablation; normally
    #: emulation is used only during recovery)
    emulate_collectives: bool = False
    #: ablation: only rank 0 may initiate checkpoints (the earlier
    #: protocol's distinguished initiator)
    distinguished_initiator: bool = False
    #: stop initiating after this many checkpoints (None: unlimited);
    #: peer-initiated checkpoints are always joined
    max_checkpoints: Optional[int] = None
    #: the paper's Allreduce/Scan result-logging optimization; off by
    #: default in favour of the always-consistent stream-based reductions
    #: (see repro.core.collectives and DESIGN.md)
    log_reduction_results: bool = False
    #: incremental checkpointing (the paper's Section-8 future-work item):
    #: application state arrays are saved as dirty pages against the
    #: previous checkpoint; restore walks the chain from the last full save
    incremental: bool = False
    #: force a full save every N checkpoints when incremental is on
    incremental_full_interval: int = 4


@dataclass
class C3Stats:
    """Bookkeeping the benchmarks read."""

    app_sends: int = 0
    app_recvs: int = 0
    control_msgs: int = 0
    late_logged: int = 0
    late_logged_bytes: int = 0
    wildcard_logged: int = 0
    early_recorded: int = 0
    events_logged: int = 0
    checkpoints_started: int = 0
    checkpoints_committed: int = 0
    last_checkpoint_bytes: int = 0
    #: total bytes of the last *committed* line (app state + registries +
    #: log) — unlike ``last_checkpoint_bytes``, never reflects a line
    #: that was started but never made it to stable storage
    last_committed_bytes: int = 0
    last_log_bytes: int = 0
    suppressed_sends: int = 0
    replayed_from_log: int = 0
    restored_version: Optional[int] = None
    #: virtual time of the last commit (for restart-cost accounting);
    #: under the overlapped pipeline this is the *durability* instant —
    #: when the drain finished and the COMMIT marker was written
    last_commit_time: float = 0.0
    #: commits completed through the overlapped write-back pipeline
    overlapped_commits: int = 0
    #: superseded recovery lines deleted by garbage collection
    gc_deleted_lines: int = 0
    #: lines whose storage commit failed (e.g. disk full) and were
    #: abandoned — the protocol carries on and recovery falls back to
    #: the previous committed line
    checkpoints_abandoned: int = 0
    #: restores where this rank's newest committed line failed deep
    #: validation (torn/corrupt) and an older line was used instead
    restore_fallbacks: int = 0
    #: virtual time spent inside restore_checkpoint
    restore_seconds: float = 0.0
    collectives_native: int = 0
    collectives_emulated: int = 0


class C3Protocol:
    """Per-rank instance of the coordination layer."""

    def __init__(self, mpi: MPI, storage: StorageBackend,
                 config: Optional[C3Config] = None):
        self.mpi = mpi
        self.machine = mpi._ctx.machine
        self.rank = mpi.rank
        self.nprocs = mpi.size
        self.storage = storage
        self.config = config or C3Config()
        try:
            self.codec = CODECS[self.config.codec]
        except KeyError:
            raise ProtocolError(f"unknown piggyback codec {self.config.codec!r}")

        self.modes = ModeTracker(Mode.RUN)
        self.epoch = 0
        self.counters = CounterSet(self.nprocs, self.rank)
        #: control plane on a dedicated duplicate of COMM_WORLD
        self.control = ControlPlane(mpi.COMM_WORLD.Dup("c3.control"),
                                    self.rank, self.nprocs)
        self.late_reg = LateMessageRegistry()
        self.early_reg = EarlyMessageRegistry()
        self.was_early = WasEarlyRegistry()
        self.event_log = EventLog()
        self.reqtable = RequestTable()
        self.datatable = DatatypeTable()
        self.commtable = CommTable()
        self.world_entry = self.commtable.add_world(mpi.COMM_WORLD)
        self.stats = C3Stats()
        self.ctx: Optional[Context] = None
        self._timer_base = 0.0
        self._writer = None  # open CheckpointWriter between start and commit
        #: the node-local virtual-time disk the overlapped pipeline drains
        #: staged checkpoint bytes through (shared, engine-owned)
        self._device = mpi._ctx.engine.disk
        #: the checkpoint-store engine (scatter or WAL) every storage
        #: operation goes through; the drain device's node boundary is the
        #: WAL's group-commit boundary
        self.store = as_store(storage,
                              procs_per_node=self._device.procs_per_node,
                              nprocs=self.nprocs)
        hooks = getattr(self.store, "commit_hooks", None)
        if hooks is not None:
            # The WAL invokes this right after staging my COMMIT record and
            # before the group-flush decision — the at_group_commit window.
            hooks[self.rank] = partial(mpi._ctx.fault_point, "at_group_commit")
        #: protocol-committed lines whose drain has not finished yet:
        #: (version, writer, durable_at) in version order
        self._pending: deque = deque()
        #: my own durably committed lines still on storage (GC bookkeeping)
        self._my_lines: List[int] = []
        #: versions saved as *full* incremental records (None: incremental
        #: off).  GC may only delete below the newest full save that is
        #: itself at or below the committed floor — any restore candidate
        #: is >= the floor, and its decode chain reaches back at most to
        #: the newest full save at or below it.
        self._full_saves: Optional[List[int]] = (
            [] if self.config.incremental else None)
        self._incremental = None
        if self.config.incremental:
            from ..statesave.incremental import IncrementalTracker
            self._incremental = IncrementalTracker(
                full_interval=self.config.incremental_full_interval)
        #: True for the whole run when this job was started in recovery
        #: mode — collectives stay point-to-point-emulated (see DESIGN.md)
        self.recovering = False

    # ------------------------------------------------------------------ setup
    def bind(self, ctx: Context) -> None:
        """Attach the application context (the state that gets saved)."""
        self.ctx = ctx

    def _charge(self) -> None:
        """Per-intercepted-call software overhead of the C3 layer.

        Also a fault-injection point: every intercepted call (including
        pragmas in compute-only phases) can observe a scheduled fail-stop.
        """
        self.mpi.compute(self.machine.c3_call_overhead)
        self.mpi._ctx.poll_hook()
        if self._pending:
            self._poll_drains()

    # ------------------------------------------------- overlapped write-back
    def _poll_drains(self, flush: bool = False) -> None:
        """Complete every staged line whose drain has finished.

        The lazy half of the overlapped pipeline: pending lines are
        checked against the rank's virtual clock on every intercepted
        call, and each line whose staged bytes are durable gets its
        COMMIT marker written (in version order — the node device is
        FIFO, so durability times are monotone per rank).  ``flush``
        completes the remainder unconditionally (``MPI_Finalize``: the
        PSC-style daemon outlives the application, so the job's end does
        not cancel in-flight drains — but the commit timestamps keep the
        true durability instants).  Both branches are fault points:
        ``in_drain`` kills land while a line is still in flight,
        ``at_commit`` kills land right before the marker write.
        """
        ctx = self.mpi._ctx
        while self._pending:
            version, writer, durable_at = self._pending[0]
            if ctx.clock.now < durable_at:
                ctx.fault_point("in_drain", version)
                if not flush:
                    return
            ctx.fault_point("at_commit", version)
            self._pending.popleft()
            self.stats.overlapped_commits += 1
            self._durable_commit(writer, durable_at)

    def _durable_commit(self, writer, durable_at: float) -> None:
        """Make one line restart-eligible: marker, stats, GC.

        A storage failure here (disk full, an injected fault) abandons
        the *line*, not the job: the marker is never written, partial
        sections are deleted best-effort, and recovery keeps falling
        back to the previous committed line.  The protocol state is
        already consistent — peers commit their own copies
        independently, and the global restore floor is a min reduction.
        """
        try:
            writer.commit()
        except StorageError:
            self.stats.checkpoints_abandoned += 1
            coverage.hit("path:ckpt_abandoned")
            if not writer.dry_run:
                try:
                    self.store.delete_line(writer.version, self.rank)
                except StorageError:
                    pass
            return
        coverage.hit("path:commit")
        self.stats.checkpoints_committed += 1
        self.stats.last_committed_bytes = writer.bytes_written
        self.stats.last_commit_time = durable_at
        if writer.dry_run:
            return
        self._my_lines.append(writer.version)
        self._gc_lines()

    def _gc_lines(self) -> None:
        """Delete my recovery lines below the globally committed floor.

        The floor — the newest line whose COMMIT marker every rank has
        durably written — is the only line recovery can ever need
        (restore takes the min of per-rank last-committed versions, and
        commits are in order, so nothing older is reachable).  It is
        read straight from the shared storage manifest, the way an
        out-of-band PSC-style daemon would inspect the filesystem:
        commit *announcements* on the control plane would carry the
        drain's late virtual timestamps, and receiving one drags the
        receiver's clock forward — charging the background write back
        into the application makespan.  Storage metadata reads cost no
        virtual time, so the floor stays out-of-band.  An incremental
        chain additionally pins its lines back to the newest full save
        at or below the floor.
        """
        if not self.config.gc_lines or not self._my_lines:
            return
        floor = self.store.last_committed_global(self.nprocs) or 0
        if self._full_saves is not None:
            committed_fulls = [f for f in self._full_saves if f <= floor]
            floor = max(committed_fulls) if committed_fulls else 0
            self._full_saves = [f for f in self._full_saves if f >= floor]
        while self._my_lines and self._my_lines[0] < floor:
            version = self._my_lines.pop(0)
            self.store.delete_line(version, self.rank)
            self.stats.gc_deleted_lines += 1
            coverage.hit("path:gc")

    # --------------------------------------------------------- piggyback word
    @property
    def epoch(self) -> int:
        return self._epoch

    @epoch.setter
    def epoch(self, epoch: int) -> None:
        # The receive table only changes when the epoch does.
        self._epoch = epoch
        self._kinds = receive_table(self.codec, epoch)
        #: the words an intra-epoch message carries (the native
        #: collectives' arithmetic path checks whole header arrays for them)
        self._intra_words = tuple(word for word, kind in self._kinds.items()
                                  if kind == INTRA)

    def _word(self) -> int:
        """The piggyback word every message and collective stream carries
        (Section 3.2): my epoch, and whether I stopped logging."""
        return self.codec.encode(self._epoch,
                                 self.modes.mode is not Mode.NONDET_LOG)

    # ------------------------------------------------------------ control plane
    def _poll_control(self) -> None:
        """Figure 4's "Check for control messages"."""
        processed = self.control.poll(self._on_checkpoint_initiated)
        if processed:
            self.stats.control_msgs += processed
            self._after_control()

    def _on_checkpoint_initiated(self, line: int, sender: int, count: int) -> None:
        if line > self.epoch + 1:
            raise ProtocolError(
                f"rank {self.rank} in epoch {self.epoch} got "
                f"Checkpoint-Initiated for line {line}: a message crossed "
                "more than one recovery line"
            )
        if line == self.epoch:
            # I already took this checkpoint; this is a peer announcement.
            self.counters.on_control_received(sender, count)

    def _after_control(self) -> None:
        """Re-evaluate mode transitions after control processing."""
        if self.modes.mode is Mode.NONDET_LOG and self.control.all_started(self.epoch):
            self._stop_nondet_logging()
        self._maybe_commit()

    def _stop_nondet_logging(self) -> None:
        from .checkpoint import commit_checkpoint  # cycle avoidance
        late = self.counters.late_expected()
        self.modes.stop_nondet_logging(late_expected=late)
        if not late:
            commit_checkpoint(self)

    def _maybe_commit(self) -> None:
        from .checkpoint import commit_checkpoint
        if self.modes.mode is Mode.RECVONLY_LOG and self.counters.late_drained():
            self.modes.commit()
            commit_checkpoint(self)

    def _maybe_finish_restore(self) -> None:
        if (self.modes.mode is Mode.RESTORE
                and not self.late_reg and not self.was_early
                and self.event_log.drained):
            self.modes.finish_restore()

    # -------------------------------------------------------------- datatypes
    def _resolve_dtype(self, buf, datatype) -> Datatype:
        if datatype is None:
            if isinstance(buf, np.ndarray):
                return from_numpy_dtype(buf.dtype)
            raise ProtocolError("datatype required for non-numpy buffers")
        return self.datatable.resolve(datatype)

    # =================================================================== SEND
    def send(self, centry: CommEntry, buf, dest: int, tag: int = 0,
             datatype=None, count: Optional[int] = None) -> int:
        """``chkpt_MPI_Send`` (Figure 4); returns the element count sent."""
        self._charge()
        self._poll_control()
        if tag == COLL_TAG:
            raise ProtocolError(f"tag {COLL_TAG} is reserved for the C3 layer")
        dtype = self._resolve_dtype(buf, datatype)
        n = count if count is not None else (buf.size if isinstance(buf, np.ndarray) else 1)
        if self._send(centry.raw, dtype.pack(buf, n), dest, tag, n, dtype.name):
            self.stats.app_sends += 1
        return n

    def _send(self, raw, payload: bytes, dest: int, tag: int, count: int,
              type_name: str) -> bool:
        """Figure 4's send rule, for an application message and an
        emulated collective stream alike; returns whether the message
        went on the wire.

        In Restore mode a send the Was-Early-Registry names is
        suppressed: the receiver's checkpoint already contains it.  It is
        counted anyway — the receiver's restored counters include it
        (DESIGN.md §1.1).  Every other send carries the piggyback word.
        """
        dest_world = raw.group.translate(dest)
        if (self.modes.mode is Mode.RESTORE
                and self.was_early.match_and_remove(dest_world, tag,
                                                    raw.context_id)):
            self.counters.on_send(dest_world)
            self.stats.suppressed_sends += 1
            coverage.hit("path:suppressed_send")
            self._maybe_finish_restore()
            return False
        raw.send_packed(payload, dest, tag, count=count, type_name=type_name,
                        piggyback=self._word(),
                        piggyback_bytes=self.codec.nbytes)
        self.counters.on_send(dest_world)
        return True

    def isend(self, centry: CommEntry, buf, dest: int, tag: int = 0,
              datatype=None, count: Optional[int] = None) -> C3Request:
        """Non-blocking send: the send protocol runs at the call site
        (Section 4.1 — the send interval starts when the application hands
        the buffer to MPI)."""
        n = self.send(centry, buf, dest, tag, datatype=datatype, count=count)
        entry = self.reqtable.alloc("send", centry.key, dest, tag, n, "",
                                    self.epoch)
        return C3Request(entry.rid)

    # =================================================================== RECV
    def irecv(self, centry: CommEntry, buf, source: int = ANY_SOURCE,
              tag: int = ANY_TAG, datatype=None) -> C3Request:
        """Post a receive; the receive protocol itself runs at Wait/Test."""
        self._charge()
        self._poll_control()
        if tag == COLL_TAG:
            raise ProtocolError(f"tag {COLL_TAG} is reserved for the C3 layer")
        dtype = self._resolve_dtype(buf, datatype)
        entry = self.reqtable.alloc(
            "recv", centry.key, source, tag,
            buf.size if isinstance(buf, np.ndarray) else 0,
            dtype.name, self.epoch, buffer=buf,
        )
        self._post_recv(entry, centry, dtype)
        return C3Request(entry.rid)

    def _post_recv(self, entry: RequestEntry, centry: CommEntry,
                   dtype: Datatype) -> None:
        """Restore-aware posting: serve from the log, restrict wildcards,
        or post a real receive."""
        raw = centry.raw
        source, tag = entry.source, entry.tag
        m = self._replay(entry.rid, raw, source, tag)
        if m is not None:
            source, tag = m.source, m.tag
            if m.kind == DATA:
                entry.from_log = True
                entry.log_payload = m.payload
                entry.source, entry.tag = source, tag
                return
            # A wildcard record: fill in the wild-cards to force the
            # message order of the original run.
        entry.mpi_request = raw.Irecv(entry.buffer, source=source, tag=tag,
                                      datatype=dtype)

    def _replay(self, rid: Optional[int], raw, source: int,
                tag: int) -> Optional[LateEntry]:
        """Recovery's half of the receive rule, for an application receive
        (``rid`` is its request id) and an emulated collective stream
        (``rid`` None) alike: in Restore mode, take the late-registry
        entry the receive re-executes — a logged message it replays, or
        the wildcard order it must follow — off the registry.

        Exact matching is by consuming request id (reproduced
        deterministically); the signature fallback serves orphaned entries
        after the re-execution has legitimately diverged.
        """
        if self.modes.mode is not Mode.RESTORE:
            return None
        context_id = raw.context_id
        m = self.late_reg.match_rid(rid) if rid is not None else None
        if m is None or not (m.context_id == context_id
                             and source in (ANY_SOURCE, m.source)
                             and tag in (ANY_TAG, m.tag)):
            m = self.late_reg.match(source, tag, context_id)
            # a wildcard record only binds a receive that has a wildcard
            if m is not None and not (m.kind == DATA or source == ANY_SOURCE
                                      or tag == ANY_TAG):
                m = None
        if m is None:
            return None
        self.late_reg.pop(m)
        if m.kind == DATA:
            self.stats.replayed_from_log += 1
            coverage.hit("path:log_replay")
        self._maybe_finish_restore()
        return m

    def recv(self, centry: CommEntry, buf, source: int = ANY_SOURCE,
             tag: int = ANY_TAG, datatype=None,
             status: Optional[Status] = None) -> Status:
        """``chkpt_MPI_Recv``: post + complete."""
        req = self.irecv(centry, buf, source=source, tag=tag,
                         datatype=datatype)
        st = self.wait(req)
        if status is not None:
            status.__dict__.update(st.__dict__)
        return st

    # ----------------------------------------------------- delivery / protocol
    def _complete_recv(self, entry: RequestEntry) -> Status:
        """The receive protocol of Figure 4, run at delivery time."""
        centry = self.commtable.get(entry.comm_key)
        if entry.from_log:
            dtype = self.datatable.resolve(self._named_handle(entry.dtype_name))
            payload = entry.log_payload or b""
            elems = len(payload) // dtype.size if dtype.size else 0
            if entry.buffer is not None:
                dtype.unpack(payload, entry.buffer, count=elems)
            self._maybe_finish_restore()
            return Status(source=entry.source, tag=entry.tag, count=elems,
                          nbytes=len(payload))
        req = entry.mpi_request
        if req is None:
            raise ProtocolError(f"request {entry.rid} has no pending operation")
        st, _env = self._deliver(centry.raw, req, entry)
        self.stats.app_recvs += 1
        return st

    def _deliver(self, raw, req, entry: Optional[RequestEntry] = None):
        """Complete a posted receive — an application request's or an
        emulated collective stream's — and run the receive rule on what
        arrived; returns the Status and the envelope."""
        st = req.wait()
        env = req.envelope
        if env.source >= 0:  # a PROC_NULL receive carries no message
            self._on_receive(raw, env.source, env.tag, env.piggyback,
                             env.payload, entry)
        return st, env

    def _named_handle(self, name: str):
        from ..mpi import datatypes as dt
        if name in dt.NAMED_TYPES:
            return dt.NAMED_TYPES[name]
        raise ProtocolError(f"cannot resolve datatype {name!r} for replay")

    def _on_receive(self, raw, source: int, tag: int, word, payload: bytes,
                    entry: Optional[RequestEntry] = None) -> None:
        """Figure 4's receive rule, for an application message (``entry``
        is its request) and a collective stream alike: classify the
        message by its piggyback word, then update counters and
        registries."""
        kind = classify(self._kinds, word)
        source_world = raw.group.translate(source)
        if kind == LATE:
            self.counters.on_late_received(source_world)
            coverage.hit("msg:late")
            if self.modes.is_logging_late:
                self.late_reg.record_late(
                    source, tag, raw.context_id, payload,
                    rid=entry.rid if entry else None)
                self.stats.late_logged += 1
                self.stats.late_logged_bytes += len(payload)
            elif self.modes.mode is not Mode.RESTORE:
                raise ProtocolError(
                    f"rank {self.rank} received a late message in mode "
                    f"{self.modes.mode} (commit accounting is broken)"
                )
            self._maybe_commit()
        elif kind == INTRA:
            self.counters.on_intra_received(source_world)
            coverage.hit("msg:intra")
            if self.modes.mode is Mode.NONDET_LOG:
                if word & STOPPED:
                    # Causality: the sender stopped logging, so events after
                    # this message must not enter the log.
                    self._stop_nondet_logging()
                elif entry is not None and (entry.source == ANY_SOURCE
                                            or entry.tag == ANY_TAG):
                    self.late_reg.record_wildcard(
                        source, tag, raw.context_id, rid=entry.rid)
                    self.stats.wildcard_logged += 1
                    coverage.hit("msg:wildcard")
        else:  # EARLY
            self.counters.on_early_received(source_world)
            coverage.hit("msg:early")
            self.early_reg.record(source_world, tag, raw.context_id)
            self.stats.early_recorded += 1
            if self.modes.mode is Mode.NONDET_LOG:
                # A sender one epoch ahead has necessarily stopped logging
                # non-deterministic events for *my* line.
                self._stop_nondet_logging()

    # ============================================================ WAIT / TEST
    def _complete(self, entry: RequestEntry) -> Status:
        """Complete and release one request — the one completion rule of
        Wait, Test, Waitany and Waitsome.  A send already ran its protocol
        at the call site (Section 4.1); a receive runs the receive rule."""
        if entry.kind == "send":
            st = Status(source=self.rank, tag=entry.tag, count=entry.count)
        else:
            st = self._complete_recv(entry)
        self.reqtable.release(entry)
        return st

    def wait(self, c3req: C3Request) -> Status:
        """``MPI_Wait`` through the indirection table."""
        self._charge()
        self._poll_control()
        return self._complete(self.reqtable.get(c3req.rid))

    def test(self, c3req: C3Request) -> Tuple[bool, Optional[Status]]:
        """``MPI_Test`` with unsuccessful-poll counting and replay."""
        self._charge()
        self._poll_control()
        entry = self.reqtable.get(c3req.rid)
        if entry.kind == "recv":
            if (self.modes.mode is Mode.RESTORE
                    and entry.rid in self.reqtable.replay_test_counters):
                # Recovery replay: fail the same number of times as the
                # original run, then substitute a Wait (which cannot
                # deadlock — the original Test succeeded, so the message
                # is logged or will be resent).
                remaining = self.reqtable.replay_test_counters[entry.rid]
                if remaining > 0:
                    self.reqtable.replay_test_counters[entry.rid] = remaining - 1
                    return False, None
            elif not entry.from_log:
                req = entry.mpi_request
                if req is None or not req.is_complete():
                    if self.reqtable.defer_dealloc:
                        entry.test_counter += 1
                    return False, None
        return True, self._complete(entry)

    def waitall(self, c3reqs: List[C3Request]) -> List[Status]:
        """``MPI_Waitall``: completion order is fixed, no logging needed."""
        return [self.wait(r) for r in c3reqs]

    def waitany(self, c3reqs: List[C3Request]) -> Tuple[int, Status]:
        """``MPI_Waitany`` with completed-index logging and replay."""
        self._charge()
        self._poll_control()
        if self.modes.mode is Mode.RESTORE and len(self.event_log):
            rid = self.event_log.replay(EventLog.WAITANY)
            for i, r in enumerate(c3reqs):
                if r.rid == rid:
                    return i, self._complete(self.reqtable.get(rid))
            raise ProtocolError(
                f"waitany replay: logged request {rid} not in the array"
            )
        idx, st = self._waitany_live(c3reqs)
        if self.reqtable.defer_dealloc:
            # Log the completion for replay (covers MPI_Waitany's
            # non-determinism, Section 4.1).
            self.event_log.record(EventLog.WAITANY, c3reqs[idx].rid)
            self.stats.events_logged += 1
        return idx, st

    def _waitany_live(self, c3reqs: List[C3Request]) -> Tuple[int, Status]:
        entries = [self.reqtable.get(r.rid) for r in c3reqs]
        # Sends and log-served receives complete immediately.
        for i, e in enumerate(entries):
            if e.kind == "send" or e.from_log:
                return i, self._complete(e)
        mpi_reqs = [e.mpi_request for e in entries]
        if any(r is None for r in mpi_reqs):
            raise ProtocolError("waitany on request without pending operation")
        ctx = self.mpi._ctx
        ctx.mailbox.wait_for(lambda: any(r.is_complete() for r in mpi_reqs),
                             poll=ctx.poll_hook)
        for i, e in enumerate(entries):
            if e.mpi_request.is_complete():
                return i, self._complete(e)
        raise AssertionError("waitany woke without a completed request")

    def waitsome(self, c3reqs: List[C3Request]) -> Tuple[List[int], List[Status]]:
        """``MPI_Waitsome`` with completed-index-set logging and replay."""
        self._charge()
        self._poll_control()
        if self.modes.mode is Mode.RESTORE and len(self.event_log):
            rids = self.event_log.replay(EventLog.WAITSOME)
            indices, statuses = [], []
            by_rid = {r.rid: i for i, r in enumerate(c3reqs)}
            for rid in rids:
                if rid not in by_rid:
                    raise ProtocolError(
                        f"waitsome replay: logged request {rid} not in array")
                statuses.append(self._complete(self.reqtable.get(rid)))
                indices.append(by_rid[rid])
            return indices, statuses
        idx, st = self._waitany_live(c3reqs)
        indices, statuses = [idx], [st]
        # Collect every other already-complete request, in index order.
        for i, r in enumerate(c3reqs):
            if i == idx:
                continue
            entry = self.reqtable.get(r.rid)
            if entry.kind == "send" or entry.from_log or (
                    entry.mpi_request is not None
                    and entry.mpi_request.is_complete()):
                statuses.append(self._complete(entry))
                indices.append(i)
        if self.reqtable.defer_dealloc:
            self.event_log.record(EventLog.WAITSOME,
                                  [c3reqs[i].rid for i in indices])
            self.stats.events_logged += 1
        return indices, statuses

    # ======================================================== PRAGMA (Figure 5)
    def finalize(self) -> None:
        """End-of-job protocol drain (the ``MPI_Finalize`` interception).

        Drains every control message already delivered and re-evaluates
        the commit conditions, so a rank whose peers completed a
        checkpoint line while it sat in its final compute/communication
        stretch commits the line before the job ends — without this,
        whether the last line committed on every rank depended on
        cross-rank scheduling during the job's closing operations
        (observable as a committed-count flap between the engine
        backends).  The drain is deliberately non-blocking — it consumes
        what has arrived rather than synchronizing on a barrier: the
        paper's runtime tables time the application, not
        ``MPI_Finalize`` teardown, and the downscaled cells run in
        virtual milliseconds where a full dissemination barrier would
        be a visible artificial overhead.  A line some rank never
        initiated stays uncommitted, as the protocol requires: recovery
        would use the previous complete line.

        Overlapped write-back adds a flush: drains still in flight are
        completed (the PSC daemon outlives the application — a finished
        job does not cancel its background write-back, and the commit
        records keep the true virtual durability instants); each flushed
        commit re-reads the GC floor from the storage manifest.
        """
        self._poll_control()
        self._maybe_commit()
        if self._pending:
            self._poll_drains(flush=True)
        # Group-commit stores may still hold this rank's trailing commits
        # staged; a clean MPI_Finalize forces the node's batch down.
        try:
            self.store.flush_rank(self.rank)
        except StorageError:
            # Disk full at the final drain: the staged batch is abandoned
            # (the store has already un-indexed it); the durable prefix
            # still recovers and the job itself finishes.
            self.stats.checkpoints_abandoned += 1
            coverage.hit("path:ckpt_abandoned")

    def pragma(self, force: bool = False) -> None:
        """``#pragma ccc checkpoint``."""
        from .checkpoint import start_checkpoint
        self._charge()
        self._poll_control()
        if self.modes.mode is not Mode.RUN:
            return
        line = self.epoch + 1
        initiate = False
        if self._may_initiate():
            if force:
                initiate = True
            elif (self.config.checkpoint_interval is not None
                  and self.mpi.Wtime() - self._timer_base
                  >= self.config.checkpoint_interval):
                initiate = True
        if not initiate and self.control.any_started(line):
            initiate = True  # at least one other node started a checkpoint
        if initiate:
            start_checkpoint(self)

    def _may_initiate(self) -> bool:
        if (self.config.max_checkpoints is not None
                and self.stats.checkpoints_started >= self.config.max_checkpoints):
            return False
        if self.config.distinguished_initiator and self.rank != 0:
            return False
        return True

    # -------------------------------------------------------------- accessors
    @property
    def mode(self) -> Mode:
        return self.modes.mode

    def resolve_state_key(self, buffer) -> Optional[str]:
        """Find the ctx.state key holding ``buffer`` (identity match)."""
        if self.ctx is None:
            return None
        for key in self.ctx.state:
            if self.ctx.state[key] is buffer:
                return key
        raise ProtocolError(
            "an open non-blocking receive buffer must live in ctx.state so "
            "it can be recreated after a restart"
        )
