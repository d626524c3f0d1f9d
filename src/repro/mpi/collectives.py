"""Built-in collective algorithms: one algorithm each, two drivers.

Collectives exchange their internal traffic on the communicator's *shadow*
context id so it never matches application receives.  The algorithms are
the classic ones (binomial trees, dissemination barrier, ring/pairwise
exchanges), so the virtual-time cost of a collective emerges naturally
from the point-to-point time model: e.g. a broadcast costs about
``ceil(log2 p)`` message latencies, as on a real machine.

Each algorithm is written **once**, as a generator of point-to-point ops
(:data:`_SEND`, :data:`_RECV`, :data:`_RECV_ALL`, :data:`_EXCHANGE`), and
the job's driver runs it (DESIGN.md §2.5):

* the **p2p driver** (:func:`_drive_p2p`) replays the ops through the
  communicator's one message path — :func:`_send`, :func:`_recv`,
  :func:`_recv_all` charge exactly what ``Send``, ``Irecv`` and
  ``Wait``/``Waitall`` would, each internal message is a mailbox
  delivery, a fault check point and usually a fiber switch.  It is the
  specification, and what runs across shards, under ``processes``, with
  any unfired fault spec, and in every C3 job that can exchange control
  traffic;
* the **closed-form driver** (:func:`_drive_closed`) runs when the engine
  opened a rendezvous table for the launch (cooperative backend, no
  unfired fault spec, no out-of-band control traffic — see
  :meth:`repro.mpi.engine.Engine.run`).  Each rank runs its generator up
  to the first op in its own fiber, deposits it and parks once; the last
  arriver steps every rank's ops with the same ``call_overhead`` /
  ``transfer_time`` / ``sync_to`` arithmetic in the same per-rank order,
  moves the data, advances ``op_count``/``sent_count``/``sent_bytes``
  exactly as the p2p path would, and wakes the others.  An error a rank's
  op raises is re-raised in that rank's own fiber.

Non-commutative reductions are evaluated strictly in rank order
(gather-and-fold), as the MPI standard requires.  ``scan`` uses a rank
chain, matching the "strictly ordered dependency chain" the paper relies
on in Section 4.3 to argue `MPI_Scan` can be replayed from a result log.
``allreduce`` is the reduce ops followed by the bcast ops — one
rendezvous in a closed-form job, still two tags and two collectives.
"""

from __future__ import annotations

from collections import deque
from typing import List, Sequence

import numpy as np

from .datatypes import (
    _NUMPY_TO_NAMED as _NAMED, from_numpy_dtype, reshape_in_place,
)
from .errors import (
    InvalidDatatypeError, InvalidRankError, JobAborted, TruncationError,
)
from .ops import Op
from .requests import await_match, complete_recv

#: Tag space for collective-internal traffic; each collective call on a
#: communicator uses a fresh tag so concurrent phases cannot interfere.
_COLL_TAG_BASE = 1 << 20

#: the ops an algorithm yields (``(code, ...)`` tuples):
#: ``(_SEND, buf, dest, tag)`` — send ``buf``;
#: ``(_RECV, buf, source, tag)`` — receive into ``buf``;
#: ``(_RECV_ALL, [(source, buf), ...], tag)`` — post every receive, then
#: complete them in list order after one blocking wait;
#: ``(_EXCHANGE, sendbuf, dest, recvbuf, source, tag)`` — post the
#: receive, send, then complete the receive (pairwise exchanges).
_SEND, _RECV, _RECV_ALL, _EXCHANGE = range(4)


def _next_tag(comm) -> int:
    ctx = comm._ctx
    ctx.begin_collective()
    key = ("coll_seq", comm.shadow_id)
    seq = ctx.scratch.get(key, 0)
    ctx.scratch[key] = seq + 1
    return _COLL_TAG_BASE + (seq % (1 << 18))


def _drive(comm, ops) -> None:
    """Run one collective's op generator with the launch's driver."""
    if comm._ctx.engine._rendezvous is None or comm.size == 1:
        _drive_p2p(comm, ops)
    else:
        _drive_closed(comm, ops)


# --------------------------------------------------------------------------
# The p2p driver: every op is a real message on the shadow context
# --------------------------------------------------------------------------
def _send(comm, buf: np.ndarray, dest: int, tag: int) -> None:
    comm._ctx.collective_fault_point()
    dt = from_numpy_dtype(buf.dtype)
    comm.send_packed(dt.pack(buf, buf.size), dest, tag, count=buf.size,
                     type_name=dt.name, context_id=comm.shadow_id)


def _irecv(comm, buf: np.ndarray, source: int, tag: int):
    """``Irecv`` on the shadow context: (posted receive, datatype)."""
    comm._check()
    comm._ctx.enter_mpi_call()
    return comm._post(buf, source, tag, None, comm.shadow_id)


def _complete(comm, posted, buf: np.ndarray) -> None:
    """``Wait`` for one :func:`_irecv`."""
    ctx = comm._ctx
    pr, dt = posted
    complete_recv(ctx, await_match(ctx, pr), buf, dt)


def _recv(comm, buf: np.ndarray, source: int, tag: int) -> None:
    comm._ctx.collective_fault_point()
    _complete(comm, _irecv(comm, buf, source, tag), buf)


def _recv_all(comm, bufs_by_source, tag: int) -> None:
    """Post fully-specified receives for every (source, buf) pair, then
    complete them with one blocking wait (source order).

    Collective internals always know their peers, so these receives all
    take the mailbox's exact-signature fast path; batching them turns p-1
    sleep/wake cycles into one.
    """
    ctx = comm._ctx
    ctx.collective_fault_point()
    posted = [_irecv(comm, buf, source, tag) for source, buf in bufs_by_source]
    if not all(pr.matched for pr, _dt in posted):
        ctx.mailbox.wait_for(lambda: all(pr.matched for pr, _dt in posted),
                             poll=ctx.poll_hook)
    for (pr, dt), (_source, buf) in zip(posted, bufs_by_source):
        complete_recv(ctx, pr.envelope, buf, dt)


def _drive_p2p(comm, ops) -> None:
    """Replay an algorithm's ops through the communicator's message path."""
    for op in ops:
        code = op[0]
        if code == _SEND:
            _send(comm, op[1], op[2], op[3])
        elif code == _RECV:
            _recv(comm, op[1], op[2], op[3])
        elif code == _RECV_ALL:
            _recv_all(comm, op[1], op[2])
        else:
            _, sendbuf, dest, recvbuf, source, tag = op
            posted = _irecv(comm, recvbuf, source, tag)
            _send(comm, sendbuf, dest, tag)
            _complete(comm, posted, recvbuf)


# --------------------------------------------------------------------------
# The closed-form driver: one rendezvous, evaluated by the last arriver
# --------------------------------------------------------------------------
#: The message queue between one (sender, receiver) pair of a closed-form
#: evaluation.  It holds *references* to the senders' arrays, never
#: copies — a 2 MB Bcast at 256 ranks moves each byte once per receiver.
#: That is sound because of an invariant every algorithm in this module
#: keeps: an array, once sent, is never written by its sender again within
#: the collective (the barrier sends one token and receives into another;
#: the trees send their accumulator or staging slice last; the rings send
#: a row only after it was filled).  User send and receive buffers must
#: not alias, as MPI requires.  ``tests/mpi/test_closed_form.py`` checks
#: the invariant by swapping in a queue that snapshots every send.
_Channel = deque


class _Rendezvous:
    """One collective call of one communicator in a closed-form job."""

    __slots__ = ("comms", "ops", "first", "arrived", "verdict")

    def __init__(self, size: int):
        self.comms: List = [None] * size
        self.ops: List = [None] * size
        #: each rank's first op, reached in its own fiber (None: no ops)
        self.first: List = [None] * size
        self.arrived = 0
        #: per rank: None while pending, True once its ops completed, or
        #: the exception its ops raised (re-raised in its own fiber)
        self.verdict: List = [None] * size


def _drive_closed(comm, ops) -> None:
    """Deposit this rank's ops and park once; the last arriver evaluates."""
    ctx = comm._ctx
    engine = ctx.engine
    # The rank's own prologue (argument checks, staging, tag) and every
    # error it raises stay in its own fiber.
    first = next(ops, None)
    if engine.abort_event.is_set():
        raise JobAborted()          # where the first op's call entry would
    key = ("closed_seq", comm.shadow_id)
    seq = ctx.scratch.get(key, 0)
    ctx.scratch[key] = seq + 1
    table = engine._rendezvous
    rv = table.get((comm.shadow_id, seq))
    if rv is None:
        rv = table[(comm.shadow_id, seq)] = _Rendezvous(comm.size)
    me = comm.rank
    rv.comms[me] = comm
    rv.ops[me] = ops
    rv.first[me] = first
    rv.arrived += 1
    verdict = rv.verdict
    if rv.arrived == comm.size:
        del table[(comm.shadow_id, seq)]
        _evaluate(rv)
        for r, v in enumerate(verdict):
            if v is not None and r != me:
                rv.comms[r]._ctx.mailbox.notify()
    if verdict[me] is None:
        ctx.mailbox.wait_for(lambda: verdict[me] is not None,
                             poll=ctx.poll_hook)
    outcome = verdict[me]
    if outcome is not True:
        raise outcome


def _evaluate(rv: _Rendezvous) -> None:
    """Step every rank's ops until all finished, one raised, or the rest
    wait on messages nobody will send (they stay parked: a deadlock the
    scheduler reports as it would for the p2p schedule)."""
    size = len(rv.comms)
    chans: dict = {}
    want = [-1] * size              # the source a blocked rank waits on
    ready = deque(range(size))
    steppers = [_closed_rank(rv.comms[r], rv.ops[r], rv.first[r],
                             chans, want, ready) for r in range(size)]
    verdict = rv.verdict
    while ready:
        r = ready.popleft()
        try:
            next(steppers[r])
        except StopIteration:
            verdict[r] = True
        except Exception as exc:    # re-raised in rank r's own fiber
            verdict[r] = exc
            return


def _bad_peer(comm, peer: int) -> None:
    raise InvalidRankError(
        f"rank {peer} out of range for {comm.name} of size {comm.size}")


def _closed_rank(comm, ops, op, chans: dict, want: List[int], ready):
    """One rank's side of a closed-form evaluation.

    Executes the rank's ops with the p2p driver's charges, in its order;
    yields whenever the next message it must receive has not been sent
    yet (the sender re-queues it).  Every check the p2p path makes on an
    op — freed communicator, peer range, dtype, contiguity, truncation —
    raises the same class here.
    """
    ctx = comm._ctx
    clock = ctx.clock
    machine = ctx.machine
    overhead = machine.call_overhead
    rank, size = comm.rank, comm.size
    freed = comm.freed
    # Call entry: the engine only opens a rendezvous table when no fault
    # spec is armed, so no clock is watched and entry can neither observe
    # an abort nor fire a fault — it is the freed check, one operation
    # count, one call overhead and the peer range check, in
    # Communicator.send_packed / _post order.
    while op is not None:
        code = op[0]
        sendbuf = None
        if code == _SEND:
            sendbuf, dest = op[1], op[2]
            recvs = ()
        elif code == _RECV:
            recvs = ((op[2], op[1]),)
        elif code == _RECV_ALL:
            recvs = op[1]
        else:                           # post the receive, send, complete
            sendbuf, dest = op[1], op[2]
            recvs = ((op[4], op[3]),)
        for source, buf in recvs:       # posting: Irecv's checks
            if freed:
                comm._check()
            ctx.op_count += 1
            clock.now += overhead
            if not 0 <= source < size:
                _bad_peer(comm, source)
            if type(buf) is not np.ndarray or buf.dtype not in _NAMED:
                comm._resolve_type(buf, None)
        if sendbuf is not None:         # Send's checks, then the envelope
            if sendbuf.dtype not in _NAMED:
                from_numpy_dtype(sendbuf.dtype)
            if not sendbuf.flags.c_contiguous:
                raise InvalidDatatypeError(
                    "communication buffers must be C-contiguous")
            if freed:
                comm._check()
            ctx.op_count += 1
            clock.now += overhead
            if not 0 <= dest < size:
                _bad_peer(comm, dest)
            nbytes = sendbuf.nbytes
            ctx.sent_count += 1
            ctx.sent_bytes += nbytes
            q = chans.get(rank * size + dest)
            if q is None:
                q = chans[rank * size + dest] = _Channel()
            q.append((clock.now + machine.transfer_time(nbytes), sendbuf))
            if want[dest] == rank:
                want[dest] = -1
                ready.append(dest)
        for source, buf in recvs:       # completion, in posting order
            key = source * size + rank
            q = chans.get(key)
            while not q:
                want[rank] = source
                yield
                q = chans.get(key)
            avail, data = q.popleft()
            if data.nbytes > buf.nbytes:
                raise TruncationError(
                    f"message of {data.nbytes} bytes truncates receive "
                    f"buffer of {buf.nbytes} bytes (collective on "
                    f"{comm.name})")
            if avail > clock.now:
                clock.now = avail
            clock.now += overhead
            if not buf.flags.c_contiguous:
                raise InvalidDatatypeError(
                    "communication buffers must be C-contiguous")
            if data.dtype is buf.dtype and data.shape == buf.shape:
                buf[...] = data
            else:                       # the payload's bytes, as unpack does
                count = data.nbytes // buf.dtype.itemsize
                buf.reshape(-1)[:count] = np.frombuffer(
                    data, dtype=buf.dtype, count=count)
        op = next(ops, None)


# --------------------------------------------------------------------------
# The algorithms
# --------------------------------------------------------------------------
def _barrier_ops(comm):
    size, rank = comm.size, comm.rank
    if size == 1:
        return
    tag = _next_tag(comm)
    token = np.zeros(1, dtype=np.uint8)
    sink = np.empty(1, dtype=np.uint8)   # the sent token is never rewritten
    k = 1
    while k < size:
        yield _SEND, token, (rank + k) % size, tag
        yield _RECV, sink, (rank - k) % size, tag
        k <<= 1


def _bcast_ops(comm, buf: np.ndarray, root: int):
    size = comm.size
    if size == 1:
        return
    tag = _next_tag(comm)
    # Rotate so the root is virtual rank 0.
    vrank = (comm.rank - root) % size
    mask = 1
    while mask < size:
        if vrank < mask:
            partner = vrank | mask
            if partner < size:
                yield _SEND, buf, (partner + root) % size, tag
        elif vrank < (mask << 1):
            partner = vrank & ~mask
            yield _RECV, buf, (partner + root) % size, tag
        mask <<= 1


def _reduce_ops(comm, sendbuf: np.ndarray, recvbuf, op: Op, root: int):
    size, rank = comm.size, comm.rank
    tag = _next_tag(comm)
    if size == 1:
        if recvbuf is not None:
            np.copyto(recvbuf, sendbuf)
        return
    if not op.commutative:
        yield from _reduce_ordered_ops(comm, sendbuf, recvbuf, op, root, tag)
        return
    # Binomial-tree combine towards virtual rank 0 (= root).
    vrank = (rank - root) % size
    acc = np.array(sendbuf, copy=True)
    tmp = np.empty_like(acc)
    mask = 1
    while mask < size:
        if vrank & mask:
            partner = vrank & ~mask
            yield _SEND, acc, (partner + root) % size, tag
            break
        partner = vrank | mask
        if partner < size:
            yield _RECV, tmp, (partner + root) % size, tag
            acc = op(acc, tmp)
        mask <<= 1
    if rank == root and recvbuf is not None:
        np.copyto(recvbuf, acc)


def _reduce_ordered_ops(comm, sendbuf, recvbuf, op: Op, root: int, tag: int):
    size, rank = comm.size, comm.rank
    if rank == root:
        parts = [np.array(sendbuf, copy=True) if r == rank
                 else np.empty_like(np.asarray(sendbuf)) for r in range(size)]
        yield _RECV_ALL, [(r, parts[r]) for r in range(size) if r != rank], tag
        acc = parts[0]
        for p in parts[1:]:
            acc = op(acc, p)
        np.copyto(recvbuf, acc)
    else:
        yield _SEND, np.ascontiguousarray(sendbuf), root, tag


def _scan_ops(comm, sendbuf: np.ndarray, recvbuf: np.ndarray, op: Op):
    rank, size = comm.rank, comm.size
    tag = _next_tag(comm)
    acc = np.array(sendbuf, copy=True)
    if rank > 0:
        prefix = np.empty_like(acc)
        yield _RECV, prefix, rank - 1, tag
        acc = op(prefix, acc)
    np.copyto(recvbuf, acc)
    if rank + 1 < size:
        yield _SEND, acc, rank + 1, tag


def _gather_ops(comm, sendbuf: np.ndarray, recvbuf, root: int):
    size, rank = comm.size, comm.rank
    tag = _next_tag(comm)
    send = np.ascontiguousarray(sendbuf).reshape(-1)
    if size == 1:
        if recvbuf is not None:
            reshape_in_place(recvbuf, (1, -1))[0, :] = send
        return
    vrank = (rank - root) % size
    # staging area indexed by virtual rank; my piece goes to slot vrank
    stage = np.zeros((size, send.size), dtype=sendbuf.dtype)
    stage[vrank, :] = send
    mask = 1
    while mask < size:
        if vrank & mask:
            # send my accumulated subtree [vrank, vrank+mask) to the parent
            parent = ((vrank & ~mask) + root) % size
            hi = min(vrank + mask, size)
            yield _SEND, np.ascontiguousarray(stage[vrank:hi]), parent, tag
            break
        child_v = vrank | mask
        if child_v < size:
            hi = min(child_v + mask, size)
            yield _RECV, stage[child_v:hi], (child_v + root) % size, tag
        mask <<= 1
    if rank == root:
        # rank order: slot v holds rank (v + root) % size
        out = reshape_in_place(recvbuf, (size, -1))
        out[...] = np.roll(stage, root, axis=0)


def _gatherv_ops(comm, sendbuf: np.ndarray, recvbuf, counts: Sequence[int],
                 root: int):
    size, rank = comm.size, comm.rank
    tag = _next_tag(comm)
    send = np.ascontiguousarray(sendbuf)
    if rank == root:
        flat = reshape_in_place(recvbuf, -1)
        pieces = []
        offset = 0
        for r in range(size):
            n = int(counts[r])
            if r == rank:
                flat[offset:offset + n] = send.reshape(-1)[:n]
            else:
                pieces.append((r, flat[offset:offset + n]))
            offset += n
        yield _RECV_ALL, pieces, tag
    else:
        yield _SEND, send, root, tag


def _scatter_ops(comm, sendbuf, recvbuf: np.ndarray, root: int):
    size, rank = comm.size, comm.rank
    tag = _next_tag(comm)
    if size == 1:
        recvbuf[...] = sendbuf.reshape(recvbuf.shape)
        return
    vrank = (rank - root) % size
    piece_len = recvbuf.size
    stage = np.zeros((size, piece_len), dtype=recvbuf.dtype)
    if rank == root:
        # virtual order: rank r's piece goes to slot (r - root) % size
        stage[...] = np.roll(sendbuf.reshape(size, -1), -root, axis=0)
        span = size
    else:
        # wait for my subtree's block from the parent
        mask = 1
        while not vrank & mask:
            mask <<= 1
        span = min(vrank + mask, size) - vrank
        parent = ((vrank & ~mask) + root) % size
        yield _RECV, stage[vrank:vrank + span], parent, tag
    # forward sub-blocks to children (highest bit first)
    mask = 1
    while mask < size and not vrank & mask:
        mask <<= 1
    mask >>= 1
    while mask:
        child_v = vrank | mask
        if child_v < size and child_v < vrank + span:
            hi = min(child_v + mask, size)
            yield (_SEND, np.ascontiguousarray(stage[child_v:hi]),
                   (child_v + root) % size, tag)
        mask >>= 1
    recvbuf[...] = stage[vrank].reshape(recvbuf.shape)


def _scatterv_ops(comm, sendbuf, recvbuf: np.ndarray, counts: Sequence[int],
                  root: int):
    size, rank = comm.size, comm.rank
    tag = _next_tag(comm)
    if rank == root:
        flat = sendbuf.reshape(-1)
        offset = 0
        for r in range(size):
            n = int(counts[r])
            if r == rank:
                reshape_in_place(recvbuf, -1)[:n] = flat[offset:offset + n]
            else:
                yield (_SEND, np.ascontiguousarray(flat[offset:offset + n]),
                       r, tag)
            offset += n
    else:
        yield _RECV, reshape_in_place(recvbuf, -1), root, tag


def _allgather_ops(comm, sendbuf: np.ndarray, recvbuf: np.ndarray):
    size, rank = comm.size, comm.rank
    send = np.ascontiguousarray(sendbuf)
    out = reshape_in_place(recvbuf, (size, -1))
    out[rank, :] = send.reshape(-1)
    if size == 1:
        return
    tag = _next_tag(comm)
    right = (rank + 1) % size
    left = (rank - 1) % size
    for step in range(size - 1):
        src_piece = (rank - step) % size
        dst_piece = (rank - step - 1) % size
        yield _SEND, np.ascontiguousarray(out[src_piece]), right, tag
        yield _RECV, out[dst_piece], left, tag


def _alltoall_ops(comm, sendbuf: np.ndarray, recvbuf: np.ndarray):
    size, rank = comm.size, comm.rank
    sp = sendbuf.reshape(size, -1)
    rp = reshape_in_place(recvbuf, (size, -1))
    rp[rank, :] = sp[rank]
    tag = _next_tag(comm)
    for offset in range(1, size):
        dest = (rank + offset) % size
        src = (rank - offset) % size
        yield (_EXCHANGE, np.ascontiguousarray(sp[dest]), dest, rp[src], src,
               tag)


def _alltoallv_ops(comm, sendbuf: np.ndarray, sendcounts: Sequence[int],
                   recvbuf: np.ndarray, recvcounts: Sequence[int]):
    size, rank = comm.size, comm.rank
    sflat = sendbuf.reshape(-1)
    rflat = reshape_in_place(recvbuf, -1)
    soff = np.concatenate([[0], np.cumsum(np.asarray(sendcounts))]).astype(int)
    roff = np.concatenate([[0], np.cumsum(np.asarray(recvcounts))]).astype(int)
    rflat[roff[rank]:roff[rank + 1]] = sflat[soff[rank]:soff[rank + 1]]
    tag = _next_tag(comm)
    for offset in range(1, size):
        dest = (rank + offset) % size
        src = (rank - offset) % size
        yield (_EXCHANGE, np.ascontiguousarray(sflat[soff[dest]:soff[dest + 1]]),
               dest, rflat[roff[src]:roff[src + 1]], src, tag)


def _allreduce_ops(comm, sendbuf: np.ndarray, recvbuf: np.ndarray, op: Op):
    """Reduce to rank 0, then broadcast."""
    yield from _reduce_ops(
        comm, sendbuf,
        recvbuf if comm.rank == 0 else np.empty_like(np.asarray(sendbuf)),
        op, 0)
    yield from _bcast_ops(comm, recvbuf, 0)


# --------------------------------------------------------------------------
# The public collectives
# --------------------------------------------------------------------------
def barrier(comm) -> None:
    """Dissemination barrier: ceil(log2 p) rounds of pairwise signals."""
    _drive(comm, _barrier_ops(comm))


def bcast(comm, buf: np.ndarray, root: int = 0) -> None:
    """Binomial-tree broadcast."""
    _drive(comm, _bcast_ops(comm, buf, root))


def reduce(comm, sendbuf: np.ndarray, recvbuf, op: Op, root: int = 0) -> None:
    """Reduction to root: binomial tree if commutative, rank-ordered fold if not."""
    _drive(comm, _reduce_ops(comm, sendbuf, recvbuf, op, root))


def allreduce(comm, sendbuf: np.ndarray, recvbuf: np.ndarray, op: Op) -> None:
    """Reduce to rank 0, then broadcast."""
    _drive(comm, _allreduce_ops(comm, sendbuf, recvbuf, op))


def scan(comm, sendbuf: np.ndarray, recvbuf: np.ndarray, op: Op) -> None:
    """Inclusive prefix reduction along the rank chain."""
    _drive(comm, _scan_ops(comm, sendbuf, recvbuf, op))


def gather(comm, sendbuf: np.ndarray, recvbuf, root: int = 0) -> None:
    """Binomial-tree gather (rank order restored at the root).

    Real MPI implementations gather short messages through a tree, which
    puts ~log2(p) message latencies on the critical path; a linear gather
    would let the root overlap all receives and under-charge the virtual
    time model.
    """
    _drive(comm, _gather_ops(comm, sendbuf, recvbuf, root))


def gatherv(comm, sendbuf: np.ndarray, recvbuf, counts: Sequence[int], root: int = 0) -> None:
    """Gather varying-size contributions; ``counts`` in elements per rank."""
    _drive(comm, _gatherv_ops(comm, sendbuf, recvbuf, counts, root))


def scatter(comm, sendbuf, recvbuf: np.ndarray, root: int = 0) -> None:
    """Binomial-tree scatter (the mirror image of :func:`gather`)."""
    _drive(comm, _scatter_ops(comm, sendbuf, recvbuf, root))


def scatterv(comm, sendbuf, recvbuf: np.ndarray, counts: Sequence[int], root: int = 0) -> None:
    """Scatter varying-size pieces; ``counts`` in elements per rank."""
    _drive(comm, _scatterv_ops(comm, sendbuf, recvbuf, counts, root))


def allgather(comm, sendbuf: np.ndarray, recvbuf: np.ndarray) -> None:
    """Ring allgather: p-1 rounds, each rank forwards the piece it received."""
    _drive(comm, _allgather_ops(comm, sendbuf, recvbuf))


def alltoall(comm, sendbuf: np.ndarray, recvbuf: np.ndarray) -> None:
    """Pairwise-exchange all-to-all with equal piece sizes."""
    _drive(comm, _alltoall_ops(comm, sendbuf, recvbuf))


def alltoallv(comm, sendbuf: np.ndarray, sendcounts: Sequence[int],
              recvbuf: np.ndarray, recvcounts: Sequence[int]) -> None:
    """Pairwise-exchange all-to-all with varying piece sizes (elements)."""
    _drive(comm, _alltoallv_ops(comm, sendbuf, sendcounts, recvbuf, recvcounts))
