"""Byte pins on every section a recovery line writes, and on its COMMIT
record.

Two pins build one section each from its producer alone: the ``app``
section (:meth:`Context.snapshot_state`) and the ``request_table``
section (:meth:`RequestTable.on_commit`).  One pin runs a two-rank C3
job that takes one line with something in every section — a derived
datatype and a duplicated communicator, an early message on rank 1, a
late message and a logged reduction result on rank 0 — and pins each
stored section and COMMIT record.  A change to any section's bytes
fails here before it shows up anywhere else.

The inputs use no floating-point numpy arithmetic, so the bytes do not
depend on the CPU.  The line-job digests of ``handles``, ``counters``,
``early_registry``, ``late_registry`` and ``event_log`` were recorded
before the format dropped the ``app`` section's ``registry`` and
``pragma_count`` keys, each request-table entry's ``completed_by`` and
``mpi_state.processor_name``; the other digests changed with that drop.
"""

import hashlib

import numpy as np

from repro.core.ccc import run_c3
from repro.core.protocol import C3Config
from repro.core.reqtable import RequestTable
from repro.mpi.datatypes import DOUBLE
from repro.mpi.ops import SUM
from repro.statesave import Context, dumps
from repro.storage import InMemoryStorage
from repro.storage.store import ScatterStore
from repro.testutil import run

APP_SECTION_SHA256 = (
    "70c7974e9d6941e04745b5ea4a934bf18dcddf9bab45fb99c25e728530522905")
REQUEST_TABLE_SHA256 = (
    "afd5fe4a7bbf8691f339a4af6bfaf7f20cddc1359128c974f96692d213c1c953")

#: section -> SHA-256 of rank 0's payload followed by rank 1's
LINE_SHA256 = {
    "COMMIT":
        "8a473f2ea6c120cdb04f13ea087d25b1e12b270b109edd729a7c895e9f15d9ec",
    "app":
        "4aab533c643d7ddc6cbb684b4298ad265b14e42caf7372a8cc0c65a2e5d9aa2f",
    "counters":
        "6a0a381ea6fc9ceee8c7a196b85ca0a832020aaad5e7898951d569b08c90b828",
    "early_registry":
        "b496213a392a919ad1b8837dd4c3d597bbb11adb76a93facbb6367bd2967f98b",
    "event_log":
        "c35388dfbd036fdd62b006229bf3eb33e8cf22e2ab840f94747a4438251c4420",
    "handles":
        "5c29249136471666cf16d5b091217831a2f50f8ad81fbfe8c9472ce43feb0575",
    "late_registry":
        "3e86adf220f9096c83a39e02a1dcd701c0d9a9844b52741c2761114d3139919a",
    "mpi_state":
        "0ea2a21808314ba0b0ad83331d014ed229cabda919b3b791e849f4c13650d226",
    "request_table":
        "150c193f8b8bd48f0e0f4b194b70db9858462c37ecbb669bd906039d9debd87a",
}


def _sha256(value) -> str:
    return hashlib.sha256(dumps(value)).hexdigest()


def test_app_section_bytes_are_pinned():
    def main(mpi):
        ctx = Context(mpi)
        ctx.state.n = 3
        ctx.state.name = "heat"
        ctx.state.grid = np.array([1.0, 2.5, -4.0])
        ctx.state.pairs = [1, "two", None]
        ctx.heap.malloc(8, label="block",
                        data=np.array([7, 8], dtype=np.int32))
        ctx.checkpoint()
        ctx.checkpoint()
        return _sha256(ctx.snapshot_state())

    assert run(1, main).returns[0] == APP_SECTION_SHA256


def test_request_table_section_bytes_are_pinned():
    table = RequestTable()
    buf = object()
    open_recv = table.alloc("recv", 0, 1, 2, 4, "MPI_DOUBLE", epoch=0,
                            buffer=buf)
    send = table.alloc("send", 0, 3, 5, 1, "MPI_INT", epoch=0)
    table.on_start_checkpoint()
    open_recv.test_counter = 2
    table.release(send)
    table.alloc("recv", 1, -1, -1, 8, "MPI_BYTE", epoch=1)
    wire = table.on_commit(lambda b: "grid" if b is buf else None,
                           line_epoch=1)
    assert _sha256(wire) == REQUEST_TABLE_SHA256


def _one_line_app(ctx):
    """Rank 0 forces line 1 and sends to rank 1, which receives it in
    epoch 0 (early) and answers before it joins the line (late)."""
    comm = ctx.comm
    rank = ctx.rank
    if ctx.first_time("setup"):
        ctx.state.n = 3
        ctx.state.grid = np.array([1.0, 2.5, -4.0])
        ctx.heap.malloc(8, label="block",
                        data=np.array([7, 8], dtype=np.int32))
        ctx.done("setup")
    comm.Type_vector(2, 1, 2, DOUBLE).Commit()
    dup = comm.Dup()
    buf = np.zeros(2)
    total = np.zeros(1, dtype=np.int64)
    if rank == 0:
        ctx.checkpoint(force=True)
        comm.Send(np.array([1.0, 2.0]), dest=1, tag=7)
        dup.Allreduce(np.array([rank + 1], dtype=np.int64), total, SUM)
        comm.Waitany([comm.Irecv(buf, source=1, tag=8)])
    else:
        comm.Recv(buf, source=0, tag=7)
        comm.Send(np.array([3.0, 4.0]), dest=0, tag=8)
        ctx.checkpoint()
        dup.Allreduce(np.array([rank + 1], dtype=np.int64), total, SUM)
    ctx.checkpoint()
    return int(total[0]), buf.tolist()


def test_every_section_of_a_line_is_pinned():
    backend = InMemoryStorage()
    job, _stats = run_c3(_one_line_app, 2, storage=ScatterStore(backend),
                         config=C3Config(log_reduction_results=True))
    job.raise_errors()
    assert job.returns == [(3, [3.0, 4.0]), (3, [1.0, 2.0])]
    got = {}
    for section in sorted({path.rsplit("/", 1)[1]
                           for path in backend.list("ckpt/v1/")}):
        joined = b"".join(backend.read(f"ckpt/v1/rank{rank}/{section}")
                          for rank in range(2))
        got[section] = hashlib.sha256(joined).hexdigest()
    assert backend.list("ckpt/") == backend.list("ckpt/v1/")
    assert got == LINE_SHA256
