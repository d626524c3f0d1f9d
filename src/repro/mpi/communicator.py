"""Communicators, groups, and cartesian topologies.

A :class:`Communicator` is a rank-local handle: it knows the member group
(world ranks), this process's rank within the group, and a *context id*
used for message matching.  Each communicator also owns a *shadow* context
id on which the built-in collective algorithms exchange their internal
point-to-point traffic, so collective internals can never match
application receives — mirroring how a real MPI hides collective traffic
from the application (and why the C3 layer applies its protocol at the
collective *call sites*, Section 4.3).

Communicator creation (``Dup``/``Split``/``Cart_create``) is collective;
all members derive the same new context id from a deterministic key
``(parent context, per-communicator creation sequence number)`` resolved
through an engine-global registry.

Point-to-point traffic takes one path: :meth:`Communicator.send_packed`
charges the call, timestamps an :class:`~repro.mpi.message.Envelope`
and hands it straight to the destination mailbox, whose ``deliver``
matches a posted receive in the same call; every receive — ``Irecv``,
``Recv`` and the collectives' internal receives — posts through
:meth:`Communicator._post` and completes through
:func:`repro.mpi.requests.complete_recv`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import collectives as _coll
from .datatypes import Datatype, from_numpy_dtype
from .errors import InvalidCommunicatorError, InvalidRankError, InvalidTagError
from .matching import ANY_SOURCE, ANY_TAG, PostedRecv
from .message import Envelope
from .ops import Op
from .requests import Request
from .status import Status

PROC_NULL = -3
#: Tags must stay below this; the runtime reserves larger values.
TAG_UB = 1 << 24


class Group:
    """An ordered set of world ranks (``MPI_Group``)."""

    def __init__(self, world_ranks: Sequence[int]):
        self.world_ranks: Tuple[int, ...] = tuple(world_ranks)

    def size(self) -> int:
        return len(self.world_ranks)

    def rank_of(self, world_rank: int) -> Optional[int]:
        """Group rank of a world rank, or None if not a member."""
        try:
            return self.world_ranks.index(world_rank)
        except ValueError:
            return None

    def translate(self, group_rank: int) -> int:
        return self.world_ranks[group_rank]

    def __eq__(self, other) -> bool:
        return isinstance(other, Group) and self.world_ranks == other.world_ranks

    def __hash__(self) -> int:
        return hash(self.world_ranks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Group({list(self.world_ranks)})"


class Communicator:
    """Rank-local communicator handle."""

    def __init__(self, rank_ctx, group: Group, context_id: int, shadow_id: int,
                 name: str = "comm"):
        self._ctx = rank_ctx
        self.group = group
        self.context_id = context_id
        self.shadow_id = shadow_id
        self.name = name
        self.rank = group.rank_of(rank_ctx.rank)
        if self.rank is None:
            raise InvalidCommunicatorError(
                f"world rank {rank_ctx.rank} is not a member of {name}"
            )
        self.size = group.size()
        self.freed = False
        self._creation_seq = 0  # per-communicator collective-creation counter

    # ------------------------------------------------------------------ util
    def Get_rank(self) -> int:
        return self.rank

    def Get_size(self) -> int:
        return self.size

    def _check(self) -> None:
        if self.freed:
            raise InvalidCommunicatorError(f"communicator {self.name} has been freed")

    def _world_rank(self, comm_rank: int) -> int:
        if not 0 <= comm_rank < self.size:
            raise InvalidRankError(
                f"rank {comm_rank} out of range for {self.name} of size {self.size}"
            )
        return self.group.translate(comm_rank)

    def _check_tag(self, tag: int, allow_wildcard: bool = False) -> None:
        if tag == ANY_TAG and allow_wildcard:
            return
        if tag < 0 or tag >= TAG_UB:
            raise InvalidTagError(f"tag {tag} out of range [0, {TAG_UB})")

    @staticmethod
    def _resolve_type(buf, datatype: Optional[Datatype]) -> Datatype:
        if datatype is not None:
            return datatype
        if isinstance(buf, np.ndarray):
            return from_numpy_dtype(buf.dtype)
        raise InvalidCommunicatorError(
            "datatype required for non-numpy buffers"
        )

    # --------------------------------------------------------------- sending
    def Send(self, buf, dest: int, tag: int = 0, datatype: Optional[Datatype] = None,
             count: Optional[int] = None) -> None:
        """Blocking standard-mode send (buffered by the simulator)."""
        self._check()
        if dest == PROC_NULL:
            return
        self._check_tag(tag)
        dt = self._resolve_type(buf, datatype)
        n = count if count is not None else (buf.size if isinstance(buf, np.ndarray) else 1)
        self.send_packed(dt.pack(buf, n), dest, tag, count=n, type_name=dt.name)

    def send_packed(self, payload: bytes, dest: int, tag: int, count: int = 0,
                    type_name: str = "MPI_BYTE",
                    piggyback: Optional[int] = None, piggyback_bytes: int = 0,
                    context_id: Optional[int] = None) -> None:
        """Send pre-packed bytes: charge the call, timestamp the envelope
        and deliver it (also the C3 layer's send path).

        ``piggyback`` is the C3 layer's word, ``piggyback_bytes`` its size
        on the wire.  The envelope becomes available at the receiver one
        transfer time (plus the piggyback's wire cost, if any) after the
        sender's clock; the destination mailbox matches it against a
        posted receive in the same call.
        """
        self._check()
        if dest == PROC_NULL:
            return
        ctx = self._ctx
        ctx.enter_mpi_call()
        world = self._world_rank(dest)
        machine = ctx.machine
        nbytes = len(payload)
        avail = ctx.clock.now + machine.transfer_time(nbytes)
        if piggyback is not None:
            avail += (piggyback_bytes / machine.bandwidth
                      + machine.piggyback_overhead)
        ctx.sent_count += 1
        ctx.sent_bytes += nbytes
        ctx.engine.mailboxes[world].deliver(Envelope(
            self.rank, tag, self.context_id if context_id is None else context_id,
            payload, count, type_name, world, avail, piggyback))

    def Isend(self, buf, dest: int, tag: int = 0, datatype: Optional[Datatype] = None,
              count: Optional[int] = None) -> Request:
        """Non-blocking send; complete immediately (eager buffering)."""
        self.Send(buf, dest, tag, datatype=datatype, count=count)
        n = count if count is not None else (buf.size if isinstance(buf, np.ndarray) else 1)
        return Request(Request.SEND, self._ctx, buffer=buf, count=n)

    # -------------------------------------------------------------- receiving
    def Recv(self, buf, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             datatype: Optional[Datatype] = None, status: Optional[Status] = None) -> Status:
        """Blocking receive into ``buf``; returns a filled :class:`Status`."""
        req = self.Irecv(buf, source=source, tag=tag, datatype=datatype)
        st = req.wait()
        if status is not None:
            status.__dict__.update(st.__dict__)
        return st

    def Irecv(self, buf, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              datatype: Optional[Datatype] = None,
              context_id: Optional[int] = None) -> Request:
        """Non-blocking receive."""
        self._check()
        ctx = self._ctx
        ctx.enter_mpi_call()
        if source == PROC_NULL:
            req = Request(Request.RECV, ctx, buffer=buf, count=0)
            req.envelope = Envelope(
                PROC_NULL, tag if tag != ANY_TAG else 0, self.context_id,
                b"", 0, "MPI_BYTE", ctx.rank, avail_time=ctx.clock.now)
            return req
        pr, dt = self._post(buf, source, tag, datatype, context_id)
        req = Request(Request.RECV, ctx, buffer=buf,
                      count=(buf.size if isinstance(buf, np.ndarray) else 0),
                      datatype=dt)
        req.posted = pr
        return req

    def _post(self, buf, source: int, tag: int, datatype: Optional[Datatype],
              context_id: Optional[int]) -> Tuple[PostedRecv, Optional[Datatype]]:
        """Range/tag checks and the mailbox post every receive shares
        (the caller has already charged the call)."""
        if source != ANY_SOURCE and not 0 <= source < self.size:
            raise InvalidRankError(f"source {source} out of range for {self.name}")
        self._check_tag(tag, allow_wildcard=True)
        dt = self._resolve_type(buf, datatype) if buf is not None else None
        max_bytes = buf.nbytes if isinstance(buf, np.ndarray) else (1 << 62)
        pr = PostedRecv(self.context_id if context_id is None else context_id,
                        source, tag, max_bytes)
        self._ctx.mailbox.post(pr)
        return pr, dt

    def Sendrecv(self, sendbuf, dest: int, sendtag: int, recvbuf, source: int,
                 recvtag: int, status: Optional[Status] = None) -> Status:
        """Combined send+receive (deadlock-free)."""
        rreq = self.Irecv(recvbuf, source=source, tag=recvtag)
        self.Send(sendbuf, dest, sendtag)
        st = rreq.wait()
        if status is not None:
            status.__dict__.update(st.__dict__)
        return st

    # ---------------------------------------------------------------- probing
    def has_pending(self, context_id: Optional[int] = None) -> bool:
        """O(1): is any unmatched message pending on this communicator?

        Cheaper than :meth:`Iprobe` when polled on a hot path (the C3
        control plane checks this on every intercepted call).
        """
        self._check()
        cid = self.context_id if context_id is None else context_id
        if self._ctx.mailbox.has_pending(cid):
            return True
        # Cooperative fairness (amortized): probe spin loops must yield.
        self._ctx.nb_poll()
        return False

    def recv_out_of_band(self, buf, source: int = ANY_SOURCE, tag: int = ANY_TAG,
                         datatype: Optional[Datatype] = None) -> Optional[Status]:
        """Consume one matching pending message without touching virtual time.

        The consumption path of an out-of-band control daemon (the
        PSC-style process the C3 paper assumes): the receive charges no
        call overhead and performs no availability sync, so *when* the
        daemon happens to drain a control message leaves no trace on the
        application's virtual clock.  That is what keeps clock traces
        identical across execution backends whose physical delivery
        points differ (one fiber schedule vs. cross-process epoch
        releases) —
        the send side still pays its full per-message cost.  Returns
        ``None`` when nothing matching is pending (after yielding the
        scheduler a turn, like a failed probe).
        """
        self._check()
        env = self._ctx.mailbox.pop_pending(self.context_id, source, tag)
        if env is None:
            self._ctx.nb_poll()
            return None
        dt = self._resolve_type(buf, datatype)
        elems = env.nbytes // dt.size if dt.size else env.count
        dt.unpack(env.payload, buf, count=elems)
        return Status(source=env.source, tag=env.tag, count=elems,
                      nbytes=env.nbytes)

    def Iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
               context_id: Optional[int] = None) -> Tuple[bool, Optional[Status]]:
        """Non-blocking probe for a matching pending message."""
        self._check()
        cid = self.context_id if context_id is None else context_id
        env = self._ctx.mailbox.probe_pending(cid, source, tag)
        if env is None:
            # Cooperative fairness: let peers progress during probe loops.
            self._ctx.nb_poll()
            return False, None
        return True, Status(source=env.source, tag=env.tag, count=env.count,
                            nbytes=env.nbytes)

    def Probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status:
        """Blocking probe."""
        self._check()
        ctx = self._ctx

        def found() -> bool:
            return ctx.mailbox.probe_pending(self.context_id, source, tag) is not None

        ctx.mailbox.wait_for(found, poll=ctx.poll_hook)
        env = ctx.mailbox.probe_pending(self.context_id, source, tag)
        assert env is not None
        return Status(source=env.source, tag=env.tag, count=env.count, nbytes=env.nbytes)

    # ------------------------------------------------------------- collectives
    def Barrier(self) -> None:
        _coll.barrier(self)

    def Bcast(self, buf, root: int = 0) -> None:
        _coll.bcast(self, buf, root)

    def Reduce(self, sendbuf, recvbuf, op: Op, root: int = 0) -> None:
        _coll.reduce(self, sendbuf, recvbuf, op, root)

    def Allreduce(self, sendbuf, recvbuf, op: Op) -> None:
        _coll.allreduce(self, sendbuf, recvbuf, op)

    def Scan(self, sendbuf, recvbuf, op: Op) -> None:
        _coll.scan(self, sendbuf, recvbuf, op)

    def Gather(self, sendbuf, recvbuf, root: int = 0) -> None:
        _coll.gather(self, sendbuf, recvbuf, root)

    def Gatherv(self, sendbuf, recvbuf, counts: Sequence[int], root: int = 0) -> None:
        _coll.gatherv(self, sendbuf, recvbuf, counts, root)

    def Scatter(self, sendbuf, recvbuf, root: int = 0) -> None:
        _coll.scatter(self, sendbuf, recvbuf, root)

    def Scatterv(self, sendbuf, recvbuf, counts: Sequence[int], root: int = 0) -> None:
        _coll.scatterv(self, sendbuf, recvbuf, counts, root)

    def Allgather(self, sendbuf, recvbuf) -> None:
        _coll.allgather(self, sendbuf, recvbuf)

    def Alltoall(self, sendbuf, recvbuf) -> None:
        _coll.alltoall(self, sendbuf, recvbuf)

    def Alltoallv(self, sendbuf, sendcounts: Sequence[int], recvbuf,
                  recvcounts: Sequence[int]) -> None:
        _coll.alltoallv(self, sendbuf, sendcounts, recvbuf, recvcounts)

    # ------------------------------------------------- communicator management
    def _next_creation_key(self) -> Tuple[int, int]:
        key = (self.context_id, self._creation_seq)
        self._creation_seq += 1
        return key

    def Dup(self, name: Optional[str] = None,
            _force_ids: Optional[Tuple[int, int]] = None) -> "Communicator":
        """Collective duplicate (``MPI_Comm_dup``).

        ``_force_ids`` pins the (context, shadow) ids — used only by
        checkpoint-restore replay, which must reproduce the original
        run's ids (see :meth:`Engine.context_for`).
        """
        self._check()
        key = self._next_creation_key()
        cid, shadow = self._ctx.engine.context_for(key, force=_force_ids)
        return Communicator(self._ctx, self.group, cid, shadow,
                            name=name or f"{self.name}.dup")

    def Split(self, color: int, key: int = 0,
              _force_ids: Optional[Tuple[int, int]] = None
              ) -> Optional["Communicator"]:
        """Collective split (``MPI_Comm_split``); color < 0 means undefined."""
        self._check()
        ckey = self._next_creation_key()
        # Allgather (color, key, world_rank) over the shadow context.
        mine = np.array([color, key, self._ctx.rank], dtype=np.int64)
        allv = np.empty((self.size, 3), dtype=np.int64)
        _coll.allgather(self, mine, allv)
        if color < 0:
            return None
        members = [(int(k), int(wr)) for c, k, wr in allv if int(c) == color]
        members.sort()
        group = Group([wr for _k, wr in members])
        cid, shadow = self._ctx.engine.context_for((ckey, color),
                                                   force=_force_ids)
        return Communicator(self._ctx, group, cid, shadow,
                            name=f"{self.name}.split({color})")

    def Cart_create(self, dims: Sequence[int], periods: Sequence[int],
                    reorder: bool = False,
                    _force_ids: Optional[Tuple[int, int]] = None) -> "CartComm":
        """Collective cartesian-topology creation (``MPI_Cart_create``)."""
        self._check()
        ndims = int(np.prod(dims))
        if ndims != self.size:
            raise InvalidCommunicatorError(
                f"cartesian grid {tuple(dims)} does not cover {self.size} ranks"
            )
        key = self._next_creation_key()
        cid, shadow = self._ctx.engine.context_for(key, force=_force_ids)
        return CartComm(self._ctx, self.group, cid, shadow, tuple(dims),
                        tuple(bool(p) for p in periods), name=f"{self.name}.cart")

    def Free(self) -> None:
        """Release the handle (``MPI_Comm_free``)."""
        self._check()
        self.freed = True


class CartComm(Communicator):
    """Communicator with a cartesian virtual topology."""

    def __init__(self, rank_ctx, group: Group, context_id: int, shadow_id: int,
                 dims: Tuple[int, ...], periods: Tuple[bool, ...], name: str = "cart"):
        super().__init__(rank_ctx, group, context_id, shadow_id, name=name)
        self.dims = dims
        self.periods = periods

    def Get_coords(self, rank: Optional[int] = None) -> List[int]:
        """Row-major coordinates of a rank (default: this rank)."""
        r = self.rank if rank is None else rank
        coords: List[int] = []
        for extent in reversed(self.dims):
            coords.append(r % extent)
            r //= extent
        coords.reverse()
        return coords

    def Get_cart_rank(self, coords: Sequence[int]) -> int:
        """Rank at the given coordinates (applies periodicity)."""
        r = 0
        for c, extent, periodic in zip(coords, self.dims, self.periods):
            if periodic:
                c %= extent
            elif not 0 <= c < extent:
                return PROC_NULL
            r = r * extent + c
        return r

    def Shift(self, direction: int, disp: int = 1) -> Tuple[int, int]:
        """``MPI_Cart_shift``: returns (source, dest) ranks for a shift."""
        coords = self.Get_coords()
        up = list(coords)
        up[direction] += disp
        down = list(coords)
        down[direction] -= disp
        return self.Get_cart_rank(down), self.Get_cart_rank(up)
