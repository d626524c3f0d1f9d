"""Collective communication under the C3 protocol (Section 4.3).

The protocol is applied to the start and end points of each individual
communication *stream* inside a collective (Figure 7), with the very
rules point-to-point messages run — there is one copy of each: the send
rule (counter updates, suppression during recovery:
``C3Protocol._send``), the receive rule (classify the stream's piggyback
word as late / intra-epoch / early, update counters and registries:
``C3Protocol._on_receive``) and recovery's log replay
(``C3Protocol._replay``).  Streams use the reserved ``COLL_TAG`` on the
application context id, so per-signature FIFO keeps successive
collectives between the same pair of ranks ordered.

Two transports:

* **native** (normal execution) — the data, with each stream's piggyback
  word embedded as an 8-byte header, travels through the runtime's
  optimized collective algorithms (in a closed-form job, one rendezvous
  per call: DESIGN.md §2.5); the protocol only touches the call sites.
  Its accounting is arithmetic over the whole call: the send side counts
  every stream in one pass, and when every incoming stream carries an
  intra-epoch word in RUN mode — the failure-free steady state — the headers
  are checked through one array view, the per-peer receive counters move
  in one pass and the payloads land with one slice assignment.  Late and
  early streams, and every other mode, take the per-stream path;
* **emulated** (during recovery, or always with the
  ``emulate_collectives`` ablation) — every logical stream is a plain
  point-to-point message through the protocol's restore-aware primitives,
  so absent senders are replayed from the log and sends to already-
  consistent receivers are suppressed.  A job started in recovery mode
  stays emulated for its lifetime: switching back requires a globally
  agreed flip point that the paper does not specify (see DESIGN.md).

User buffers follow the raw layer's contract, so a C3 run and an original
run accept exactly the same buffers: a buffer the raw algorithm sends or
receives verbatim (a broadcast buffer, an allgather or alltoall row) must
be C-contiguous (:func:`_pack`, :func:`_unpack_into`); a buffer it copies
or assigns (reduction and gather inputs, gather rows at the root, scatter
and scan results) may have any layout (:func:`_assign`).

Reduction operations cannot log individual streams once the payload has
been aggregated, so ``Reduce`` is transformed into a Gather plus a local
rank-ordered fold at the root (the paper's Section 4.3 transform);
``Allreduce`` is Reduce-to-0 + Bcast and ``Scan`` is Gather-to-0 +
prefix-fold + Scatter, which makes every reduction correct under the same
per-stream machinery.  The paper's result-logging optimization for
``Allreduce``/``Scan`` is available as ``log_reduction_results`` and is
exercised by the ablation bench.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

from ..mpi.datatypes import reshape_in_place
from ..mpi.errors import InvalidDatatypeError
from ..mpi.ops import Op
from .modes import Mode, ProtocolError
from .registries import EventLog

if TYPE_CHECKING:  # pragma: no cover
    from .commtable import CommEntry
    from .protocol import C3Protocol

from .protocol import COLL_TAG

_HDR = struct.Struct("<q")  # embedded piggyback header on native streams


def _use_emulation(p: "C3Protocol") -> bool:
    return p.recovering or p.config.emulate_collectives


def _contiguous(buf) -> None:
    if isinstance(buf, np.ndarray) and not buf.flags.c_contiguous:
        raise InvalidDatatypeError("communication buffers must be C-contiguous")


def _pack(buf: np.ndarray) -> bytes:
    """A buffer the raw algorithm sends verbatim: C-contiguous."""
    _contiguous(buf)
    return buf.tobytes()


def _elements(payload: bytes, buf: np.ndarray) -> np.ndarray:
    src = np.frombuffer(payload, dtype=buf.dtype)
    if src.size != buf.size:
        raise ProtocolError(
            f"collective stream size mismatch: got {src.size} elements, "
            f"expected {buf.size}"
        )
    return src


def _unpack_into(payload: bytes, buf: np.ndarray) -> None:
    """A stream the raw algorithm receives into ``buf``: C-contiguous."""
    _contiguous(buf)
    buf.reshape(-1)[:] = _elements(payload, buf)


def _assign(payload: bytes, buf: np.ndarray) -> None:
    """A stream the raw algorithm assigns into ``buf``: any layout."""
    buf[...] = _elements(payload, buf).reshape(buf.shape)


# ---------------------------------------------------------------------------
# stream primitives
# ---------------------------------------------------------------------------

def _stream_send(p: "C3Protocol", centry: "CommEntry", dest: int,
                 payload: bytes) -> None:
    """One emulated stream: the protocol's send rule on the reserved tag."""
    p._send(centry.raw, payload, dest, COLL_TAG, len(payload), "MPI_BYTE")


def _account_sends(p: "C3Protocol", centry: "CommEntry",
                   dests: Iterable[int]) -> None:
    """Send-protocol bookkeeping for the native streams to ``dests``.

    Native collectives never run in Restore mode (a recovering job
    emulates them), so the send rule reduces to counting each stream.
    The C3 layer piggybacks on every communication stream it originates,
    including the per-stream headers inside native collectives, so the
    platform's per-message piggyback cost applies to each stream (this is
    the term behind the paper's Velocity-2 anomaly) — one clock charge per
    stream, in stream order, so the clock sums the same terms.
    """
    world = centry.raw.group.world_ranks
    sent = p.counters.sent_count
    advance = p.mpi._ctx.clock.advance
    m = p.machine
    for dest in dests:
        sent[world[dest]] += 1
        advance(m.coll_stream_overhead + p.codec.nbytes / m.bandwidth)


def _stream_recv(p: "C3Protocol", centry: "CommEntry", source: int,
                 nbytes: int) -> bytes:
    """One emulated stream: replayed from the log during recovery,
    otherwise received under the protocol's receive rule; returns the
    payload."""
    raw = centry.raw
    logged = p._replay(None, raw, source, COLL_TAG)
    if logged is not None:
        return logged.payload
    req = raw.Irecv(np.empty(nbytes, dtype=np.uint8), source=source,
                    tag=COLL_TAG)
    return p._deliver(raw, req)[1].payload


def _wire(p: "C3Protocol", payload: bytes) -> np.ndarray:
    """One native stream: the piggyback word as an 8-byte header, then
    the payload."""
    return np.frombuffer(_HDR.pack(p._word()) + payload, dtype=np.uint8)


def _wire_rows(p: "C3Protocol", rows: np.ndarray) -> np.ndarray:
    """One native stream per row of ``rows`` (copied, any layout), each
    behind this rank's piggyback header."""
    payload = np.ascontiguousarray(rows).reshape(len(rows), -1)
    wire = np.empty((len(rows), _HDR.size + payload.nbytes // len(rows)),
                    dtype=np.uint8)
    wire[:, :_HDR.size] = np.frombuffer(_HDR.pack(p._word()), dtype=np.uint8)
    wire[:, _HDR.size:] = payload.view(np.uint8)
    return wire


def _receive_native(p: "C3Protocol", raw, source: int, stream: bytes) -> bytes:
    """The receive rule on one native stream (header word, then
    payload); returns the payload."""
    (word,) = _HDR.unpack_from(stream)
    payload = stream[_HDR.size:]
    p._on_receive(raw, source, COLL_TAG, word, payload)
    return payload


def _arithmetic(p: "C3Protocol", buf: np.ndarray, nbytes: int) -> bool:
    """The arithmetic path's preconditions besides the headers: RUN mode,
    and ``buf`` a C-contiguous target of exactly ``nbytes`` payload bytes.
    (In RUN mode the receive rule reduces to counting an intra-epoch
    stream, whatever its logging bit.)"""
    return (p.modes.mode is Mode.RUN and buf.flags.c_contiguous
            and buf.nbytes == nbytes)


def _deliver_rows(p: "C3Protocol", centry: "CommEntry", wire: np.ndarray,
                  recvbuf: np.ndarray, mine: int,
                  receive=_unpack_into) -> None:
    """Receive protocol and delivery for a native Gather/Allgather/Alltoall.

    Row ``src`` of ``wire`` is stream ``src``'s header and payload; row
    ``mine`` is this rank's own piece (not a stream, assigned as the raw
    algorithm assigns it).  The other rows land in the matching rows of
    ``recvbuf`` through ``receive``.
    """
    size = len(wire)
    words = np.ascontiguousarray(wire[:, :_HDR.size]).view("<i8")
    intra, intra_stopped = p._intra_words
    if (_arithmetic(p, recvbuf, wire.size - _HDR.size * size)
            and ((words == intra) | (words == intra_stopped)).all()):
        received = p.counters.received_count
        world = centry.raw.group.world_ranks
        for src in range(size):
            if src != mine:
                received[world[src]] += 1
        recvbuf.reshape(size, -1).view(np.uint8)[:] = wire[:, _HDR.size:]
        return
    out = reshape_in_place(recvbuf, (size, -1))
    for src in range(size):
        if src == mine:
            _assign(wire[src, _HDR.size:].tobytes(), out[src])
            continue
        receive(_receive_native(p, centry.raw, src, wire[src].tobytes()),
                out[src])


# ---------------------------------------------------------------------------
# data-moving collectives
# ---------------------------------------------------------------------------

def bcast(p: "C3Protocol", centry: "CommEntry", buf: np.ndarray,
          root: int = 0) -> None:
    p._charge()
    p._poll_control()
    raw = centry.raw
    size, rank = raw.size, raw.rank
    if size == 1:
        return
    if _use_emulation(p):
        p.stats.collectives_emulated += 1
        if rank == root:
            payload = _pack(buf)
            for dest in range(size):
                if dest != root:
                    _stream_send(p, centry, dest, payload)
        else:
            payload = _stream_recv(p, centry, root, buf.nbytes)
            _unpack_into(payload, buf)
        return
    p.stats.collectives_native += 1
    if rank == root:
        wire = _wire(p, _pack(buf))
        _account_sends(p, centry, (d for d in range(size) if d != root))
        raw.Bcast(wire, root=root)
        return
    wire = np.empty(_HDR.size + buf.nbytes, dtype=np.uint8)
    raw.Bcast(wire, root=root)
    (word,) = _HDR.unpack_from(wire)
    if _arithmetic(p, buf, buf.nbytes) and word in p._intra_words:
        p.counters.received_count[raw.group.world_ranks[root]] += 1
        buf.reshape(-1).view(np.uint8)[:] = wire[_HDR.size:]
        return
    _unpack_into(_receive_native(p, raw, root, wire.tobytes()), buf)


def gather(p: "C3Protocol", centry: "CommEntry", sendbuf: np.ndarray,
           recvbuf: Optional[np.ndarray], root: int = 0) -> None:
    p._charge()
    p._poll_control()
    raw = centry.raw
    size, rank = raw.size, raw.rank
    piece = np.ascontiguousarray(sendbuf).tobytes()
    if size == 1:
        if recvbuf is not None:
            _assign(piece, reshape_in_place(recvbuf, (1, -1))[0])
        return
    if _use_emulation(p):
        p.stats.collectives_emulated += 1
        if rank != root:
            _stream_send(p, centry, root, piece)
            return
        out = reshape_in_place(recvbuf, (size, -1))
        for src in range(size):
            if src == rank:
                _assign(piece, out[src])
            else:
                payload = _stream_recv(p, centry, src, sendbuf.nbytes)
                _assign(payload, out[src])
        return
    p.stats.collectives_native += 1
    wire_piece = _wire(p, piece)
    if rank == root:
        wire_out = np.empty((size, wire_piece.size), dtype=np.uint8)
        raw.Gather(wire_piece, wire_out, root=root)
        _deliver_rows(p, centry, wire_out, recvbuf, rank, receive=_assign)
    else:
        _account_sends(p, centry, (root,))
        raw.Gather(wire_piece, None, root=root)


def scatter(p: "C3Protocol", centry: "CommEntry", sendbuf: Optional[np.ndarray],
            recvbuf: np.ndarray, root: int = 0) -> None:
    p._charge()
    p._poll_control()
    raw = centry.raw
    size, rank = raw.size, raw.rank
    if size == 1:
        _assign(np.ascontiguousarray(sendbuf).tobytes(), recvbuf)
        return
    if _use_emulation(p):
        p.stats.collectives_emulated += 1
        if rank == root:
            pieces = sendbuf.reshape(size, -1)
            for dest in range(size):
                piece = np.ascontiguousarray(pieces[dest]).tobytes()
                if dest == rank:
                    _assign(piece, recvbuf)
                else:
                    _stream_send(p, centry, dest, piece)
        else:
            payload = _stream_recv(p, centry, root, recvbuf.nbytes)
            _assign(payload, recvbuf)
        return
    p.stats.collectives_native += 1
    if rank == root:
        pieces = sendbuf.reshape(size, -1)
        wire_send = _wire_rows(p, pieces)
        _account_sends(p, centry, (d for d in range(size) if d != root))
        wire_recv = np.empty(wire_send.shape[1], dtype=np.uint8)
        raw.Scatter(wire_send, wire_recv, root=root)
        _assign(np.ascontiguousarray(pieces[rank]).tobytes(), recvbuf)
    else:
        wire_recv = np.empty(_HDR.size + recvbuf.nbytes, dtype=np.uint8)
        raw.Scatter(None, wire_recv, root=root)
        _assign(_receive_native(p, raw, root, wire_recv.tobytes()), recvbuf)


def allgather(p: "C3Protocol", centry: "CommEntry", sendbuf: np.ndarray,
              recvbuf: np.ndarray) -> None:
    p._charge()
    p._poll_control()
    raw = centry.raw
    size, rank = raw.size, raw.rank
    piece = np.ascontiguousarray(sendbuf).tobytes()
    out = reshape_in_place(recvbuf, (size, -1))
    if size == 1:
        _assign(piece, out[0])
        return
    if _use_emulation(p):
        p.stats.collectives_emulated += 1
        for dest in range(size):
            if dest != rank:
                _stream_send(p, centry, dest, piece)
        for src in range(size):
            if src == rank:
                _assign(piece, out[src])
            else:
                payload = _stream_recv(p, centry, src, sendbuf.nbytes)
                _unpack_into(payload, out[src])
        return
    p.stats.collectives_native += 1
    _account_sends(p, centry, (d for d in range(size) if d != rank))
    wire_piece = _wire(p, piece)
    wire_out = np.empty((size, wire_piece.size), dtype=np.uint8)
    raw.Allgather(wire_piece, wire_out)
    _deliver_rows(p, centry, wire_out, recvbuf, rank)


def alltoall(p: "C3Protocol", centry: "CommEntry", sendbuf: np.ndarray,
             recvbuf: np.ndarray) -> None:
    p._charge()
    p._poll_control()
    raw = centry.raw
    size, rank = raw.size, raw.rank
    sp = sendbuf.reshape(size, -1)
    rp = reshape_in_place(recvbuf, (size, -1))
    if size == 1:
        _assign(np.ascontiguousarray(sp[0]).tobytes(), rp[0])
        return
    if _use_emulation(p):
        p.stats.collectives_emulated += 1
        for dest in range(size):
            if dest != rank:
                _stream_send(p, centry, dest,
                             np.ascontiguousarray(sp[dest]).tobytes())
        _assign(np.ascontiguousarray(sp[rank]).tobytes(), rp[rank])
        for src in range(size):
            if src != rank:
                payload = _stream_recv(p, centry, src, rp[src].nbytes)
                _unpack_into(payload, rp[src])
        return
    p.stats.collectives_native += 1
    _account_sends(p, centry, (d for d in range(size) if d != rank))
    wire_send = _wire_rows(p, sp)
    wire_recv = np.empty_like(wire_send)
    raw.Alltoall(wire_send, wire_recv)
    _deliver_rows(p, centry, wire_recv, recvbuf, rank)


def barrier(p: "C3Protocol", centry: "CommEntry") -> None:
    """Barrier as an allgather of empty streams, so that every pairwise
    synchronization token is protocol-visible (a barrier can cross a
    recovery line like any other collective; see DESIGN.md)."""
    token_send = np.zeros(1, dtype=np.uint8)
    token_recv = np.zeros(centry.raw.size, dtype=np.uint8)
    allgather(p, centry, token_send, token_recv)


# ---------------------------------------------------------------------------
# reductions (Section 4.3)
# ---------------------------------------------------------------------------

def reduce(p: "C3Protocol", centry: "CommEntry", sendbuf: np.ndarray,
           recvbuf: Optional[np.ndarray], op: Op, root: int = 0) -> None:
    """``MPI_Reduce`` via the Gather transform: individual contributions
    are gathered (so the protocol sees every stream) and folded at the
    root in rank order."""
    raw = centry.raw
    size = raw.size
    contributions = (np.empty((size,) + sendbuf.shape, dtype=sendbuf.dtype)
                     if raw.rank == root else None)
    gather(p, centry, sendbuf, contributions, root=root)
    if raw.rank == root:
        acc = contributions[0].copy()
        for r in range(1, size):
            acc = op(acc, contributions[r])
        np.copyto(recvbuf, acc)


def allreduce(p: "C3Protocol", centry: "CommEntry", sendbuf: np.ndarray,
              recvbuf: np.ndarray, op: Op) -> None:
    """``MPI_Allreduce``: result logging when enabled, otherwise
    Reduce-to-0 + Bcast over protocol-visible streams."""
    if p.config.log_reduction_results:
        _logged_reduction(p, centry, sendbuf, recvbuf, op, scan=False)
        return
    reduce(p, centry, sendbuf, recvbuf if centry.raw.rank == 0 else
           np.empty_like(np.asarray(recvbuf)), op, root=0)
    bcast(p, centry, recvbuf, root=0)


def scan(p: "C3Protocol", centry: "CommEntry", sendbuf: np.ndarray,
         recvbuf: np.ndarray, op: Op) -> None:
    """``MPI_Scan``: result logging when enabled, otherwise Gather-to-0 +
    prefix fold + Scatter."""
    if p.config.log_reduction_results:
        _logged_reduction(p, centry, sendbuf, recvbuf, op, scan=True)
        return
    raw = centry.raw
    size = raw.size
    contributions = (np.empty((size,) + sendbuf.shape, dtype=sendbuf.dtype)
                     if raw.rank == 0 else None)
    gather(p, centry, sendbuf, contributions, root=0)
    prefixes = None
    if raw.rank == 0:
        prefixes = np.empty_like(contributions)
        acc = contributions[0].copy()
        prefixes[0] = acc
        for r in range(1, size):
            acc = op(acc, contributions[r])
            prefixes[r] = acc
    scatter(p, centry, prefixes, recvbuf, root=0)


def _logged_reduction(p: "C3Protocol", centry: "CommEntry",
                      sendbuf: np.ndarray, recvbuf: np.ndarray, op: Op,
                      scan: bool) -> None:
    """The paper's optimization: run the native operation and log only the
    final result while a checkpoint is open; replay it during recovery."""
    p._charge()
    p._poll_control()
    raw = centry.raw
    if p.modes.mode is Mode.RESTORE and len(p.event_log):
        payload = p.event_log.replay(EventLog.COLLECTIVE_RESULT)
        _assign(payload, recvbuf)
        p.stats.replayed_from_log += 1
        return
    if scan:
        raw.Scan(sendbuf, recvbuf, op)
    else:
        raw.Allreduce(sendbuf, recvbuf, op)
    p.stats.collectives_native += 1
    if p.modes.is_logging_late:
        p.event_log.record(EventLog.COLLECTIVE_RESULT,
                           np.ascontiguousarray(recvbuf).tobytes())
        p.stats.events_logged += 1
