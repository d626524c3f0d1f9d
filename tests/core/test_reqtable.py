"""Request indirection table unit behavior (Section 4.1)."""

import pytest

from repro.core.modes import ProtocolError
from repro.core.reqtable import RequestTable


@pytest.fixture
def table():
    return RequestTable()


def test_ids_are_sequential(table):
    a = table.alloc("recv", 0, 1, 2, 4, "MPI_DOUBLE", epoch=0)
    b = table.alloc("send", 0, 1, 2, 4, "MPI_DOUBLE", epoch=0)
    assert b.rid == a.rid + 1


def test_release_removes_outside_checkpoint_period(table):
    e = table.alloc("recv", 0, 1, 2, 4, "MPI_DOUBLE", epoch=0)
    table.release(e)
    with pytest.raises(ProtocolError):
        table.get(e.rid)


def test_deferred_deallocation_during_checkpoint_period(table):
    e = table.alloc("recv", 0, 1, 2, 4, "MPI_DOUBLE", epoch=0)
    table.on_start_checkpoint()
    table.release(e)
    # garbage-marked but still present until the table is saved
    assert len(table) == 1
    wire = table.on_commit(lambda buf: None)
    assert len(table) == 0
    assert wire["entries"][0]["garbage"] is True


def test_test_counters_reset_at_start(table):
    e = table.alloc("recv", 0, 1, 2, 4, "MPI_DOUBLE", epoch=0)
    e.test_counter = 5
    table.on_start_checkpoint()
    assert e.test_counter == 0


def test_commit_snapshot_and_rollback(table):
    pre = table.alloc("recv", 0, 1, 2, 4, "MPI_DOUBLE", epoch=0)
    table.on_start_checkpoint()       # line at epoch 1
    post = table.alloc("recv", 0, 1, 3, 4, "MPI_DOUBLE", epoch=1)
    pre.test_counter = 2
    post.test_counter = 7
    wire = table.on_commit(lambda buf: "key")

    fresh = RequestTable()
    survivors = fresh.restore_wire(wire, line_epoch=1)
    # the post-line allocation is rolled back; its allocation re-executes
    assert [e.rid for e in survivors] == [pre.rid]
    # but ALL test counters are kept for replay, keyed by rid
    assert fresh.replay_test_counters == {pre.rid: 2, post.rid: 7}
    # id counter rolled back so re-executed allocations reuse the same ids
    again = fresh.alloc("recv", 0, 1, 3, 4, "MPI_DOUBLE", epoch=1)
    assert again.rid == post.rid


def test_released_entries_survive_for_repost(table):
    # A receive released after the line is recreated like an open one:
    # its re-post takes a logged late message by request id, if any.
    e = table.alloc("recv", 0, 1, 2, 4, "MPI_DOUBLE", epoch=0)
    table.on_start_checkpoint()
    table.release(e)
    wire = table.on_commit(lambda buf: "k")
    fresh = RequestTable()
    survivors = fresh.restore_wire(wire, line_epoch=1)
    assert [s.rid for s in survivors] == [e.rid]
    assert survivors[0].from_log is False


def test_state_key_resolved_for_open_recvs(table):
    marker = object()
    e = table.alloc("recv", 0, 1, 2, 4, "MPI_DOUBLE", epoch=0, buffer=marker)
    table.on_start_checkpoint()
    wire = table.on_commit(
        lambda buf: "mykey" if buf is marker else None)
    assert wire["entries"][0]["state_key"] == "mykey"


def test_unknown_rid(table):
    with pytest.raises(ProtocolError):
        table.get(123)
