"""``chkpt_StartCheckpoint`` / ``chkpt_CommitCheckpoint`` /
``chkpt_RestoreCheckpoint`` — the Figure-5 actions.

Start (taken at a pragma, in Run mode):
  advance the epoch; create the checkpoint version; save application
  state, basic MPI state, handle tables, and the Early-Message-Registry;
  announce Checkpoint-Initiated (with per-peer sent counts) to every node;
  shuffle the counters.  The checkpoint is *not yet usable* — the late
  messages of the closing epoch still have to be collected.

Commit (when all announced late messages have been received):
  save the Late-Message-Registry, the event log, and the request table
  (whose deallocation was deferred so it still holds requests completed
  after the line), then write the commit marker.

Restore (on restart after a failure):
  find the last version committed on *all* nodes with a global min
  reduction; load every section; distribute the Early-Message-Registry
  entries back to their senders to build the Was-Early-Registry; roll the
  request table back to the line and re-post the surviving receives.

Paper mapping
-------------
* Section 3.4 / Figure 5 — the three actions this module implements;
* Section 4 (Tables of saved state) — the checkpoint sections written
  here: application state (``app``), basic MPI state (``mpi_state``),
  the handle tables (``handles``: Section 4.1/4.2/4.4), the message
  registries and the event log (Section 4.3's non-per-message
  non-determinism);
* Section 6, Tables 4-7 — the costs charged here (serialization always;
  the in-line disk-write virtual time at start/commit under
  ``C3Config(overlap=False)``, or a staging submission to the node's
  background drain device on the default overlapped path; disk-read at
  restore) are what the checkpoint-overhead and restart-cost tables
  measure;
* Section 6.4 — the overlapped write-back pipeline: staging returns
  control to the rank immediately, the COMMIT marker (with a section
  manifest + digests) is written when the virtual-time drain completes,
  torn lines are rejected at restore, and superseded recovery lines are
  garbage-collected at commit (DESIGN.md section 7);
* DESIGN.md section 3 — the restart flow and the replay/suppression
  ordering during the re-execution that follows a restore.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, NamedTuple, Optional

import numpy as np

from ..mpi.matching import ANY_SOURCE, ANY_TAG
from ..mpi.ops import MIN
from .. import coverage
from ..statesave.checkpointfile import (
    CheckpointError, CheckpointReader, CheckpointWriter,
)
from ..statesave.incremental import IncrementalTracker
from .modes import Mode, ProtocolError
from .registries import EarlyMessageRegistry, EventLog, LateMessageRegistry

if TYPE_CHECKING:  # pragma: no cover
    from .protocol import C3Protocol

from .protocol import SERIALIZE_BANDWIDTH


def start_checkpoint(p: "C3Protocol") -> None:
    """Figure 5, ``chkpt_StartCheckpoint`` (runs inside the pragma)."""
    if p.ctx is None:
        raise ProtocolError("protocol has no bound application context")
    # Advance Epoch; create checkpoint version and directory.  The epoch
    # advance is the ``at_epoch`` fault-injection point: a kill here lands
    # exactly on the epoch boundary — the epoch has moved but nothing of
    # the new line exists yet, so recovery must come from the previous one.
    line = p.epoch + 1
    p.epoch = line
    p.mpi._ctx.fault_point("at_epoch", line)
    writer = CheckpointWriter(p.store, version=line, rank=p.rank,
                              dry_run=not p.config.save_to_disk)
    # Save application state (full, or dirty pages against the previous
    # checkpoint when incremental checkpointing is on).
    snap = p.ctx.snapshot_state()
    if p._incremental is not None:
        arrays = {k: v for k, v in snap["state"].items()
                  if isinstance(v, np.ndarray)}
        rest = {k: v for k, v in snap["state"].items()
                if not isinstance(v, np.ndarray)}
        record = p._incremental.encode(arrays)
        if record["full"]:
            # a new chain anchor; GC may drop older lines once this
            # line is committed everywhere
            p._full_saves.append(line)
        writer.save("app", {**snap, "state": rest,
                            "incremental": record})
    else:
        writer.save("app", snap)
    # Save basic MPI state: node count, local rank, epoch, attached buffers.
    writer.save("mpi_state", {
        "nprocs": p.nprocs,
        "rank": p.rank,
        "epoch": p.epoch,
        "attached_buffers": p.mpi.attached_buffers,
    })
    # Save handle tables (datatypes, reduction ops are deterministic
    # builtins, communicators per Section 4.4).
    writer.save("handles", {
        "datatypes": p.datatable.to_wire(),
        "comms": p.commtable.to_wire(),
    })
    # Save and reset the Early-Message-Registry.
    writer.save("early_registry", p.early_reg.to_wire())
    p.early_reg.reset()
    # Prepare counters, then announce with the *old* sent counts.
    announced = p.counters.on_start_checkpoint()
    # Peers that initiated this line before we did announced their sent
    # counts while we were still in the previous epoch; feed them into the
    # fresh counters now.
    for sender, count in p.control.initiated.get(line, {}).items():
        p.counters.on_control_received(sender, count)
    writer.save("counters", p.counters.to_wire())
    p.control.announce_checkpoint(line, announced)
    p.stats.control_msgs += p.nprocs - 1
    # Request table: remember the line position, defer deallocations.
    p.reqtable.on_start_checkpoint()
    p.event_log.reset()
    # Charge the time: serialization always (it *is* the copy-on-write
    # staging snapshot — the app may mutate its state freely afterwards).
    p.mpi.compute(writer.bytes_written / SERIALIZE_BANDWIDTH)
    if p.config.save_to_disk:
        if p.config.overlap:
            # Overlapped write-back: hand the staged bytes to the node's
            # drain device and return control immediately.  The device
            # completes the write in background virtual time; the line
            # can only commit once these bytes (and the commit-time log
            # sections) are durable.
            p._device.submit(p.rank, writer.bytes_written, p.mpi.Wtime())
        else:
            # In-line write (Tables 4-5 configuration #3): the rank
            # blocks for the full local-disk write.
            p.mpi.compute(p.machine.disk_write_time(writer.bytes_written))
    p._writer = writer
    p._timer_base = p.mpi.Wtime()
    p.stats.checkpoints_started += 1
    p.stats.last_checkpoint_bytes = writer.bytes_written
    # Mode transition (the tail of the pragma pseudocode).
    p._poll_control()
    if p.modes.mode is not Mode.RUN:
        return  # a control message already drove the transition
    all_started = p.control.all_started(line)
    late = p.counters.late_expected()
    p.modes.start_checkpoint(all_started=all_started, late_expected=late)
    if all_started and not late:
        commit_checkpoint(p)


def commit_checkpoint(p: "C3Protocol") -> None:
    """Figure 5, ``chkpt_CommitCheckpoint``.

    The *protocol* commit — registry saves and resets, request-table
    shuffle, line bookkeeping — always happens here, at the virtual time
    the late messages drained.  What the config decides is the *storage*
    commit: the in-line path blocks for the log write and records the
    COMMIT marker immediately; the overlapped path stages the log bytes
    onto the node's drain device and defers the marker to
    ``C3Protocol._poll_drains``, which writes it once the rank's clock
    passes the drain-completion instant.  A kill in between leaves a
    torn (marker-less) line that restore rejects.
    """
    writer = p._writer
    if writer is None:
        raise ProtocolError("commit without an open checkpoint")
    # Save and reset the Late-Message-Registry (and the event log, which
    # carries the non-per-message non-determinism of Section 4).
    log_bytes = 0
    log_bytes += writer.save("late_registry", p.late_reg.to_wire())
    log_bytes += writer.save("event_log", p.event_log.to_wire())
    log_bytes += writer.save("request_table",
                             p.reqtable.on_commit(p.resolve_state_key,
                                                  line_epoch=p.epoch))
    p.stats.last_log_bytes = log_bytes
    p.late_reg.reset()
    p.event_log.reset()
    # Commit checkpoint to disk; close checkpoint.
    p.mpi.compute(log_bytes / SERIALIZE_BANDWIDTH)
    p._writer = None
    p.control.forget_line(p.epoch)
    if p.config.save_to_disk and p.config.overlap:
        durable_at = p._device.submit(p.rank, log_bytes, p.mpi.Wtime())
        p._pending.append((writer.version, writer, durable_at))
        # The staging instant is itself a mid-drain fault point: every
        # section is on storage, the COMMIT marker is not — a kill here
        # (``in_drain`` specs) must leave a line restore rejects.
        p.mpi._ctx.fault_point("in_drain", writer.version)
        return
    if p.config.save_to_disk:
        p.mpi.compute(p.machine.disk_write_time(log_bytes))
    p._durable_commit(writer, p.mpi.Wtime())


class _Line(NamedTuple):
    """One rank's copy of a recovery line, read and verified."""

    version: int
    #: the line's other sections, verified and not yet decoded
    reader: CheckpointReader
    #: the decoded application state, an incremental chain's arrays
    #: rebuilt into it
    app: Dict[str, Any]
    #: the incremental chain's full save (None: not incremental)
    anchor: Optional[int]


def _read_line(p: "C3Protocol", version: int) -> Optional[_Line]:
    """This rank's copy of line ``version``, ready to restore, or None.

    The one read of a restore candidate and its incremental ancestry:
    each line is read whole once through
    :meth:`~repro.storage.store.CheckpointStore.read_line` (every
    section's size and digest checked against its manifest), and its
    ``app`` record is decoded.  Under incremental checkpointing the
    record chain is walked back to the last full save; an ancestor is a
    separate line with its own marker that the candidate's manifest does
    not cover, so the whole ancestor line must verify too.  A torn or
    missing piece rejects the candidate *before* restore starts mutating
    protocol state.
    """
    try:
        reader = CheckpointReader(p.store, version, p.rank)
        app = reader.load("app")
        if "incremental" not in app:
            return _Line(version, reader, app, None)
        records = [app.pop("incremental")]
        anchor = version
        while not records[0]["full"]:
            anchor -= 1
            if anchor < 1:
                return None   # the chain has no full save on storage
            prev = CheckpointReader(p.store, anchor, p.rank).load("app")
            records.insert(0, prev["incremental"])
    except CheckpointError:   # torn, missing or uncommitted line
        return None
    arrays = IncrementalTracker.decode_chain(records)
    return _Line(version, reader,
                 {**app, "state": {**app["state"], **arrays}}, anchor)


def restore_checkpoint(p: "C3Protocol") -> bool:
    """Figure 5, ``chkpt_RestoreCheckpoint``.

    Returns False when no recovery line has been committed everywhere (the
    job simply restarts from the beginning).
    """
    if p.ctx is None:
        raise ProtocolError("protocol has no bound application context")
    p.recovering = True
    t_restore_start = p.mpi.Wtime()
    # Query the last local checkpoint committed to disk, then a global
    # reduction for the last line committed on all nodes.  Reading a
    # line verifies it: a *torn* line — a COMMIT manifest naming a
    # missing, truncated, or digest-mismatched section (a crash
    # mid-drain or mid-commit) — is skipped, falling back to the
    # previous committed line instead of restoring garbage.
    newest = p.store.last_committed_local(p.rank)
    # Version agreement with per-rank vetting.  A rank reads only its own
    # candidate; the agreed minimum may be an *older* line this rank
    # never read (a peer fell back further), and bit-rot in that line —
    # or in an ancestor of its incremental chain — must reject the line
    # collectively, not crash the restore.  Every iteration lowers the
    # ceiling, so the loop terminates at cold restart in the worst case.
    # (Found by the fault fuzzer: bit-rot in a fallen-back-to line used
    # to escape as a raw CheckpointError.)
    ceiling: int = 1 << 62
    mine = np.empty(1, dtype=np.int64)
    everyone = np.empty(1, dtype=np.int64)
    while True:
        local: Optional[_Line] = None
        for v in reversed(p.store.committed_versions(p.rank)):
            if v <= ceiling:
                local = _read_line(p, v)
                if local is not None:
                    break
        proposed = None if local is None else local.version
        if newest is not None and newest != proposed:
            # the newest marker-bearing line failed to read back —
            # torn sections or bit-rot — and recovery fell back past it
            p.stats.restore_fallbacks += 1
            coverage.hit("path:restore_fallback")
            newest = proposed  # count each fallback once
        mine[0] = -1 if proposed is None else proposed
        p.control.comm.Allreduce(mine, everyone, MIN)
        version = int(everyone[0])
        if version <= 0:
            coverage.hit("path:cold_restart")
            return False
        # every rank vets the *agreed* line (its own copy of it): the
        # candidate it proposed is already read, an older one is vetted
        # by reading it
        line = local if proposed == version else _read_line(p, version)
        mine[0] = 0 if line is None else 1
        p.control.comm.Allreduce(mine, everyone, MIN)
        if int(everyone[0]):
            break
        ceiling = version - 1
    coverage.hit("path:restore")
    reader = line.reader
    # Restore basic MPI state and sanity-check the world geometry.
    mpi_state = reader.load("mpi_state")
    if mpi_state["nprocs"] != p.nprocs or mpi_state["rank"] != p.rank:
        raise ProtocolError(
            f"checkpoint v{version} was taken on a different world: "
            f"{mpi_state['nprocs']} procs, rank {mpi_state['rank']}"
        )
    p.epoch = mpi_state["epoch"]
    for nbytes in mpi_state["attached_buffers"]:
        p.mpi.Buffer_attach(nbytes)
    # Restore handle tables: datatypes then communicators.
    handles = reader.load("handles")
    p.datatable.restore_wire(handles["datatypes"])
    p.commtable.restore_wire(handles["comms"], p.mpi.COMM_WORLD)
    p.world_entry = p.commtable.get(0)
    # Restore counters and message registries.
    p.counters.restore_wire(reader.load("counters"))
    p.late_reg = LateMessageRegistry.from_wire(reader.load("late_registry"))
    p.event_log = EventLog.from_wire(reader.load("event_log"))
    early = EarlyMessageRegistry.from_wire(reader.load("early_registry"))
    # Restore the application state (in place where possible); an
    # incremental line's arrays were rebuilt from its chain when it was
    # read, and the lines back to the chain's full save stay pinned
    # against GC.
    if line.anchor is not None:
        p._full_saves = [line.anchor]
    p.ctx.restore_state(line.app)
    # Mode := Restore.
    from .modes import ModeTracker
    p.modes = ModeTracker(Mode.RESTORE)
    # Distribute Early-Message-Registry entries to their original senders
    # to form the Was-Early-Registry.
    for dest, tag, ctx_id in p.control.exchange_early_registries(
            early.by_sender()):
        p.was_early.add(dest, tag, ctx_id)
    # Roll the request table back to the line and recreate requests.
    survivors = p.reqtable.restore_wire(reader.load("request_table"),
                                        line_epoch=version)
    for entry in survivors:
        if entry.kind != "recv":
            continue
        centry = p.commtable.get(entry.comm_key)
        # Re-post into the restored buffer, found through its state key;
        # a receive a late message completed takes that message from the
        # log here, matched by its request id (``_post_recv`` replays).
        if entry.state_key is None or entry.state_key not in p.ctx.state:
            raise ProtocolError(
                f"cannot re-post request {entry.rid}: its buffer's state "
                f"key {entry.state_key!r} is missing from the restored state"
            )
        entry.buffer = p.ctx.state[entry.state_key]
        dtype = p._named_handle(entry.dtype_name)
        p._post_recv(entry, centry, p.datatable.resolve(dtype))
    # Storage bookkeeping for the commit/GC pipeline: lines newer than
    # the restored one are pre-crash garbage — torn drains, or commits
    # some dead rank never matched — that the re-execution will rewrite,
    # so drop mine now rather than let stale sections shadow the fresh
    # ones' accounting.  (The GC floor itself is re-read from the
    # storage manifest at each durable commit.)
    p._my_lines = [v for v in p.store.committed_versions(p.rank)
                   if v <= version]
    if p.config.gc_lines:
        for v in p.store.lines_on_storage().get(p.rank, []):
            if v > version:
                p.store.delete_line(v, p.rank)
    # Charge the restore I/O time.
    p.mpi.compute(p.machine.disk_read_time(reader.total_bytes()))
    p.stats.restored_version = version
    p._timer_base = p.mpi.Wtime()
    p.stats.restore_seconds = p.mpi.Wtime() - t_restore_start
    p._maybe_finish_restore()
    return True
