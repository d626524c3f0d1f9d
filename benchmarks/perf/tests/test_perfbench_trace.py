"""Timeline attribution and wrapper hygiene."""

import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from perfbench.trace import (  # noqa: E402
    LAYERS, Tracer, attribute, seams, traced,
)

MAIN, A, B = 1, 2, 3


def _synthetic_two_fiber_program():
    """Two fibers under one run loop, written down by hand.

    A sends, blocks in wait; B starts, blocks too; A resumes and ends; B
    resumes and ends.  Times are whole seconds so every interval's owner
    can be read off the list.
    """
    t = Tracer()
    unit = t.span_id("unit:u", "harness")
    run = t.span_id("CooperativeScheduler.run", "mpi.scheduler")
    fiber = t.span_id("fiber", "app", gap_layer="mpi.scheduler")
    send = t.span_id("Communicator.Send", "mpi.communicator")
    wait = t.span_id("CooperativeScheduler.wait", "mpi.scheduler")
    t.events.extend([
        (0, MAIN, unit, 0),
        (1, MAIN, run, 0),      # 0-1 harness
        (2, A, fiber, 0),       # 1-2 carrier start-up -> scheduler
        (3, A, send, 0),        # 2-3 app
        (4, A, ~send, 0),       # 3-4 communicator
        (5, A, wait, 0),        # 4-5 app
        (7, B, fiber, 0),       # 5-7 A parked, B's first switch -> scheduler
        (8, B, wait, 0),        # 7-8 app
        (10, A, ~wait, 0),      # 8-10 park -> resume gap -> scheduler
        (11, A, ~fiber, 0),     # 10-11 app
        (12, B, ~wait, 0),      # 11-12 scheduler
        (13, B, ~fiber, 0),     # 12-13 app
        (14, MAIN, ~run, 0),    # 13-14 scheduler (back in the run loop)
        (15, MAIN, ~unit, 0),   # 14-15 harness
    ])
    return t


def test_self_times_partition_the_wall_and_gaps_land_in_the_scheduler():
    t = _synthetic_two_fiber_program()
    att = attribute(t.events, t.spans)
    assert att.wall_s == 15
    assert sum(att.self_s.values()) == att.wall_s
    assert att.self_s["harness"] == 2
    assert att.self_s["app"] == 5
    assert att.self_s["mpi.communicator"] == 1
    assert att.self_s["mpi.scheduler"] == 7
    # every thread-to-thread gap is a hand-off: 1 + 2 + 2 + 1 + 1 seconds
    assert (att.handoffs, att.handoff_s) == (5, 7)
    # a naive "duration minus children" would have called A's wait 5 s
    # and B's 4 s of self-time: 9 s of scheduler in a 15 s run that also
    # spent 8 s elsewhere
    assert att.inclusive_s["CooperativeScheduler.wait"] == 9
    assert att.calls["CooperativeScheduler.wait"] == 2


def test_time_between_units_is_left_out():
    t = Tracer()
    u1 = t.span_id("unit:a", "harness")
    u2 = t.span_id("unit:b", "service")
    t.events.extend([(0, MAIN, u1, 0), (2, MAIN, ~u1, 0),
                     (7, MAIN, u2, 0), (8, MAIN, ~u2, 0)])
    att = attribute(t.events, t.spans, keep_spans=True)
    assert att.wall_s == 3
    assert att.self_s["harness"] == 2 and att.self_s["service"] == 1
    assert [(r[0], r[2], r[3], r[5]) for r in att.span_records] == [
        ("unit:a", 0, 2, "a"), ("unit:b", 7, 8, "b")]


def _originals():
    return {(id(s.owner), s.attr): vars(s.owner)[s.attr]
            for s in seams(Tracer())}


def test_wrappers_restore_every_original_even_when_the_body_raises():
    from repro.core import ccc, checkpoint

    before = _originals()
    assert ccc.restore_checkpoint is checkpoint.restore_checkpoint
    with pytest.raises(RuntimeError, match="boom"):
        with traced(Tracer()):
            # patched where defined *and* where bound at import
            assert _originals() != before
            assert ccc.restore_checkpoint is checkpoint.restore_checkpoint
            assert ccc.restore_checkpoint is not before[
                (id(checkpoint), "restore_checkpoint")]
            raise RuntimeError("boom")
    after = _originals()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert ccc.restore_checkpoint is before[
        (id(checkpoint), "restore_checkpoint")]


def test_a_real_traced_job_attributes_exactly():
    from repro.mpi import run_job

    def pingpong(mpi):
        comm, buf = mpi.COMM_WORLD, np.zeros(4)
        if mpi.rank == 0:
            comm.Send(buf, dest=1, tag=1)
            comm.Recv(buf, source=1, tag=2)
        else:
            comm.Recv(buf, source=0, tag=1)
            comm.Send(buf, dest=0, tag=2)
        return float(buf.sum())

    tracer = Tracer()
    with traced(tracer):
        with tracer.span("unit:pingpong", "harness"):
            result = run_job(2, pingpong)
    result.raise_errors()
    att = attribute(tracer.events, tracer.spans)
    assert sum(att.self_s.values()) == pytest.approx(att.wall_s, rel=1e-9)
    assert set(att.self_s) == set(LAYERS)
    assert att.calls["Mailbox.deliver"] == 2
    assert att.calls["Datatype.pack"] == 2 and att.values["Datatype.pack"] == 64
    assert att.calls["fiber"] == 2
    assert att.self_s["mpi.scheduler"] > 0 and att.handoffs >= 4
    assert tracer.counters["mpi.engine.msgs"] == 2
    assert tracer.counters["mpi.scheduler.switches"] >= 2
