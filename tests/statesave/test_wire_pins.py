"""Byte pins on two checkpoint sections whose retired fields stay on the
wire as constants until the next format bump (ROADMAP item 2):

* the ``app`` section's ``registry`` key, written by
  :meth:`Context.snapshot_state`;
* each request-table entry's ``completed_by`` key, written by
  :meth:`RequestTable.on_commit`.

Both digests were recorded before those fields became constants, so a
change to either section's bytes fails here.  The inputs use no numpy
arithmetic, so the bytes do not depend on the CPU.
"""

import hashlib

import numpy as np

from repro.core.reqtable import RequestTable
from repro.statesave import Context, dumps
from repro.testutil import run

APP_SECTION_SHA256 = (
    "8068576f0a7a6be049b890ad678da4ce8de797c9f1ed079961d00e25210fefe0")
REQUEST_TABLE_SHA256 = (
    "7adfaea82f7a1b4872bc696197347790b73c6f47251bc26893ef95debe334cc4")


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
