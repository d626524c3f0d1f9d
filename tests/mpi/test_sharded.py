"""The multi-process transport: differential battery against the oracle.

Every test here runs the same seeded job under ``engine="cooperative"``
and ``engine="processes:N"`` (:mod:`repro.mpi.processes`) and compares
results.  The contract (see DESIGN.md §12):

* schedule-independent kernels — including wildcard- and
  collective-heavy ones — produce **bitwise-identical** ``JobResult``s:
  returns, per-rank virtual clocks, sent counts, sent bytes;
* C3 kill + restart sequences over disk produce bitwise-identical
  recovered results and restart counts;
* fault runs pin the victim's failure record (rank and reason exactly;
  the coordinator kills an ``at_time`` victim at the spec's own time,
  which the lookahead bound makes deterministic, while the cooperative
  victim fires at its next check point, so only the record's identity
  is compared across engines);
* cross-shard deadlocks are detected instantly and report the same
  blocked-rank set as the cooperative engine;
* one process (``processes:1``) still forks and still matches the
  cooperative scheduler bitwise.
"""

import numpy as np
import pytest

from repro.core import C3Config, run_c3, run_original
from repro.core.ccc import run_fault_tolerant
from repro.mpi import FaultPlan, FaultSpec, SUM, run_job
from repro.mpi.engine import resolve_backend
from repro.mpi.processes import plan_shards
from repro.mpi.timemodel import LEMIEUX
from repro.storage import DiskStorage, InMemoryStorage


def _job_equal(a, b):
    """Bitwise JobResult equivalence (the differential criterion)."""
    assert a.returns == b.returns
    assert a.clocks == b.clocks
    assert a.sent_counts == b.sent_counts
    assert a.sent_bytes == b.sent_bytes
    assert [(r, str(e)) for r, e in a.errors] == [(r, str(e)) for r, e in b.errors]


def _run_both(nprocs, main, shards=2, **kw):
    coop = run_job(nprocs, main, engine="cooperative", **kw)
    shard = run_job(nprocs, main, engine=f"processes:{shards}", **kw)
    return coop, shard


# ---------------------------------------------------------------------------
# Backend selection / shard planning
# ---------------------------------------------------------------------------

class TestBackendSelection:
    def test_aliases(self):
        # "sharded" survives only as a spelling of the processes engine:
        # the perf benchmark's shard-256 workload names engine
        # "sharded:4", and that spelling must keep resolving
        assert resolve_backend("sharded:4") == "processes:4"
        assert resolve_backend("sharded") == "processes"
        for gone in ("shard", "shards", "shard:2"):
            with pytest.raises(ValueError, match="unknown engine backend"):
                resolve_backend(gone)

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("processes:0")
        with pytest.raises(ValueError):
            resolve_backend("processes:two")
        with pytest.raises(ValueError):
            resolve_backend("cooperative:2")

    def test_plan_shards_contiguous_node_blocks(self):
        # 8 ranks, 4 per node -> 2 nodes; never split a node across shards
        assert plan_shards(8, 4, 2) == [[0, 1, 2, 3], [4, 5, 6, 7]]
        # more shards than nodes clamps to one node per shard
        assert plan_shards(8, 4, 16) == [[0, 1, 2, 3], [4, 5, 6, 7]]
        # uneven node counts: leading shards take the extra node
        assert plan_shards(6, 2, 2) == [[0, 1, 2, 3], [4, 5]]

    def test_plan_shards_single(self):
        assert plan_shards(4, 1, 1) == [[0, 1, 2, 3]]


# ---------------------------------------------------------------------------
# Differential battery: schedule-independent kernels, bitwise
# ---------------------------------------------------------------------------

def _ring_kernel(mpi):
    r, s = mpi.rank, mpi.size
    buf = np.zeros(8)
    acc = 0.0
    for it in range(12):
        mpi.compute(1e-4 * (1 + (r * 5 + it) % 3))
        req = mpi.COMM_WORLD.Irecv(buf, source=(r - 1) % s, tag=3)
        mpi.COMM_WORLD.Send(np.arange(8.0) * (r + 1) + it, dest=(r + 1) % s,
                            tag=3)
        req.wait()
        acc += float(buf.sum())
    return acc


def _wildcard_kernel(mpi):
    """Wildcard-heavy, schedule-independent: every rank sums one message
    from every peer, received with ``ANY_SOURCE``.  The sum is invariant
    under match order, and each rank computes past every peer's send
    instant before receiving, so completion clocks are dominated by the
    receiver's own clock — bitwise across engines even though the
    *match order* of the wildcards is schedule-coupled."""
    r, s = mpi.rank, mpi.size
    acc = 0.0
    for it in range(6):
        for q in range(s):
            if q != r:
                mpi.COMM_WORLD.Send(np.array([float(r * 100 + it)]),
                                    dest=q, tag=it)
        mpi.compute(1e-3 + 1e-5 * ((r + it) % 4))
        buf = np.zeros(1)
        for _ in range(s - 1):
            mpi.COMM_WORLD.Recv(buf, tag=it)  # ANY_SOURCE
            acc += float(buf[0])
    return acc


def _collective_kernel(mpi):
    r, s = mpi.rank, mpi.size
    x = np.arange(4.0) * (r + 1)
    acc = 0.0
    for it in range(8):
        mpi.compute(1e-4 * (1 + (r * 3 + it) % 2))
        out = np.zeros(4)
        mpi.COMM_WORLD.Allreduce(x + it, out, SUM)
        mpi.COMM_WORLD.Bcast(out, root=it % s)
        mpi.COMM_WORLD.Barrier()
        acc += float(out.sum())
    return acc


class TestDifferentialBitwise:
    def test_ring_kernel_bitwise(self):
        coop, shard = _run_both(4, _ring_kernel, wall_timeout=60)
        coop.raise_errors(); shard.raise_errors()
        _job_equal(coop, shard)

    def test_wildcard_heavy_kernel_bitwise(self):
        coop, shard = _run_both(6, _wildcard_kernel, wall_timeout=60)
        coop.raise_errors(); shard.raise_errors()
        _job_equal(coop, shard)

    def test_collective_heavy_kernel_bitwise(self):
        coop, shard = _run_both(6, _collective_kernel, wall_timeout=60)
        coop.raise_errors(); shard.raise_errors()
        _job_equal(coop, shard)

    def test_multirank_nodes_bitwise(self):
        # LEMIEUX packs 4 ranks per node: the shard boundary must follow
        # node boundaries, and intra-node traffic stays in-shard.
        coop = run_job(8, _ring_kernel, machine=LEMIEUX,
                       engine="cooperative", wall_timeout=60)
        shard = run_job(8, _ring_kernel, machine=LEMIEUX,
                        engine="processes:2", wall_timeout=60)
        coop.raise_errors(); shard.raise_errors()
        _job_equal(coop, shard)

    def test_three_shards_bitwise(self):
        coop, shard = _run_both(6, _ring_kernel, shards=3, wall_timeout=60)
        coop.raise_errors(); shard.raise_errors()
        _job_equal(coop, shard)

    def test_sharded_self_reproducible(self):
        a = run_job(4, _wildcard_kernel, engine="processes:2",
                    wall_timeout=60)
        b = run_job(4, _wildcard_kernel, engine="processes:2",
                    wall_timeout=60)
        a.raise_errors(); b.raise_errors()
        _job_equal(a, b)


class TestSingleShardReduction:
    """One process: forked all the same, and still the oracle's result."""

    def test_shards_1_is_exactly_cooperative(self):
        coop, shard = _run_both(4, _ring_kernel, shards=1, wall_timeout=60)
        coop.raise_errors(); shard.raise_errors()
        _job_equal(coop, shard)

    def test_shards_1_deadlock_matches(self):
        def stuck(mpi):
            if mpi.rank == 0:
                mpi.COMM_WORLD.Recv(np.zeros(1), source=1, tag=7)
            return mpi.rank

        coop, shard = _run_both(2, stuck, shards=1, wall_timeout=30)
        assert [(r, str(e)) for r, e in coop.errors] == \
            [(r, str(e)) for r, e in shard.errors]
        assert coop.errors and "deadlock" in str(coop.errors[0][1])


# ---------------------------------------------------------------------------
# Faults: victim record + cross-shard abort propagation
# ---------------------------------------------------------------------------

class TestFaultDifferential:
    def test_kill_victim_record(self):
        def plan():
            return FaultPlan([FaultSpec(rank=2, at_time=5e-4)])

        coop = run_job(4, _ring_kernel, engine="cooperative",
                       fault_plan=plan(), wall_timeout=60)
        shard = run_job(4, _ring_kernel, engine="processes:2",
                        fault_plan=plan(), wall_timeout=60)
        assert coop.failure is not None and shard.failure is not None
        assert shard.failure.rank == coop.failure.rank == 2
        assert shard.failure.reason == coop.failure.reason
        assert shard.returns[2] is None
        # The cooperative victim observes the fault at its next check
        # point after *any* clock crossed at_time; the coordinator
        # SIGKILLs the victim at the spec's own time.  That the strike
        # wins, every time, is what the lookahead delivery bound buys:
        # it keeps the shards in virtual-time lockstep, so the victim's
        # shard never runs far enough ahead to cross 5e-4 and fire the
        # fault itself (without the bound it records ~6.01e-4 in most
        # runs).
        for _ in range(10):
            again = run_job(4, _ring_kernel, engine="processes:2",
                            fault_plan=plan(), wall_timeout=60)
            assert (again.failure.rank, again.failure.time,
                    again.failure.reason) == (2, 5e-4, coop.failure.reason)

    def test_op_count_kill_bitwise_victim(self):
        # after_ops faults fire inside the victim's own call stream: no
        # cross-rank observation, so the record matches exactly.
        def plan():
            return FaultPlan([FaultSpec(rank=1, after_ops=15)])

        coop = run_job(4, _ring_kernel, engine="cooperative",
                       fault_plan=plan(), wall_timeout=60)
        shard = run_job(4, _ring_kernel, engine="processes:2",
                        fault_plan=plan(), wall_timeout=60)
        assert coop.failure is not None and shard.failure is not None
        assert (shard.failure.rank, shard.failure.time, shard.failure.reason) \
            == (coop.failure.rank, coop.failure.time, coop.failure.reason)


class TestCrossShardDeadlock:
    def test_deadlock_across_nodes_names_blocked_ranks(self):
        # ranks 0 and 3 live on different nodes -> different shards;
        # both block forever on receives nobody will send.
        def stuck(mpi):
            r = mpi.rank
            if r in (0, 3):
                mpi.COMM_WORLD.Recv(np.zeros(1), source=(r + 1) % mpi.size,
                                    tag=9)
            return r

        coop, shard = _run_both(4, stuck, wall_timeout=30)
        ec = [(r, str(e)) for r, e in coop.errors]
        es = [(r, str(e)) for r, e in shard.errors]
        assert ec == es
        assert len(es) == 1 and "blocked ranks: [0, 3]" in es[0][1]

    def test_all_ranks_deadlocked_across_shards(self):
        def stuck(mpi):
            mpi.COMM_WORLD.Recv(np.zeros(1), source=(mpi.rank + 1) % mpi.size,
                                tag=11)
            return mpi.rank

        coop, shard = _run_both(4, stuck, wall_timeout=30)
        assert [(r, str(e)) for r, e in coop.errors] == \
            [(r, str(e)) for r, e in shard.errors]
        assert "blocked ranks: [0, 1, 2, 3]" in str(shard.errors[0][1])


# ---------------------------------------------------------------------------
# C3 protocol: clean runs and kill+restart, differential
# ---------------------------------------------------------------------------

def _dense_app(ctx):
    comm = ctx.comm
    r, s = ctx.rank, ctx.size
    if ctx.first_time("setup"):
        ctx.state.x = np.arange(6.0) * (r + 1)
        ctx.state.inbox = np.zeros(6)
        ctx.state.acc = 0.0
        ctx.done("setup")
    for it in ctx.range("i", 15):
        ctx.checkpoint()
        ctx.compute(1e-4 * (1 + (r * 7 + it) % 3))
        req = comm.Irecv(ctx.state.inbox, source=(r - 1) % s, tag=1)
        comm.Send(ctx.state.x, dest=(r + 1) % s, tag=1)
        comm.Wait(req)
        ctx.state.x = ctx.state.inbox * 0.9 + it
        out = np.zeros(1)
        comm.Allreduce(np.array([float(ctx.state.x.sum())]), out, SUM)
        ctx.state.acc += float(out[0])
    return round(ctx.state.acc, 6)


class TestC3Differential:
    def _interval(self):
        ref = run_original(_dense_app, 4)
        ref.raise_errors()
        return ref.virtual_time * 0.2

    def test_clean_c3_run_bitwise(self):
        interval = self._interval()

        def run(engine):
            res, stats = run_c3(_dense_app, 4, storage=InMemoryStorage(),
                                config=C3Config(checkpoint_interval=interval),
                                wall_timeout=120, engine=engine)
            res.raise_errors()
            return res, stats

        rc, sc = run("cooperative")
        rs, ss = run("processes:2")
        _job_equal(rc, rs)
        assert [s.__dict__ for s in sc] == [s.__dict__ for s in ss]

    def test_kill_restart_bitwise(self, tmp_path):
        # a real kill needs stable storage that outlives the process
        interval = self._interval()

        def run(engine):
            res = run_fault_tolerant(
                _dense_app, 4, storage=DiskStorage(str(tmp_path / engine)),
                config=C3Config(checkpoint_interval=interval),
                fault_plan=FaultPlan([FaultSpec(rank=2,
                                                at_time=interval * 2.75)]),
                wall_timeout=120, engine=engine)
            res.job.raise_errors()
            return res

        a = run("cooperative")
        b = run("processes:2")
        assert a.restarts == b.restarts >= 1
        _job_equal(a.job, b.job)
        assert [s.__dict__ for s in a.stats] == [s.__dict__ for s in b.stats]


# ---------------------------------------------------------------------------
# Campaign smoke slice, cell by cell
# ---------------------------------------------------------------------------

#: campaign record fields that encode drain-position-coupled virtual
#: timings (drain-triggered commit actions land at control-drain
#: observation points, DESIGN.md §12) — compared under a tight relative
#: tolerance instead of bitwise.
_TIMING_FIELDS = ("clean_c3_seconds", "c3_overhead_pct")
#: fields derived from *failed* executions' makespans: a failed run ends
#: when the survivors observe the fail-stop abort, which is a wall-
#: position-coupled instant — not compared across engines (the recovered
#: run's makespan, run_seconds[-1], still is).
_ABORT_FIELDS = ("run_seconds", "total_faulty_seconds",
                 "restart_cost_seconds")


class TestCampaignSlice:
    def test_smoke_cells_match_cell_by_cell(self):
        import dataclasses

        from repro.harness.campaign import _measure_scenario, smoke_matrix

        # scatter layout on real disk: every object is durable when
        # written, so a real kill loses nothing a simulated one keeps
        for scenario in smoke_matrix(nprocs=4, storage="disk")[:2]:
            rc = _measure_scenario(
                dataclasses.replace(scenario, engine="cooperative"))
            rs = _measure_scenario(
                dataclasses.replace(scenario, engine="processes:2"))
            assert rc.get("error") is None and rs.get("error") is None, \
                (rc.get("error"), rs.get("error"))
            assert rc["real_kills"] == 0 and rs["real_kills"] >= 1
            for k, v in rc.items():
                if k == "real_kills":
                    continue
                if k == "engine":
                    assert rs[k] == "processes:2"
                elif k in _TIMING_FIELDS:
                    a, b = np.atleast_1d(v), np.atleast_1d(rs[k])
                    assert np.allclose(a, b, rtol=5e-3), (scenario.label, k, v, rs[k])
                elif k == "run_seconds":
                    # Failed-run makespans are abort-observation times;
                    # the recovered run must agree to tight tolerance.
                    assert len(rs[k]) == len(v), (scenario.label, k)
                    assert np.allclose(rs[k][-1], v[-1], rtol=5e-3), \
                        (scenario.label, k, v, rs[k])
                elif k in _ABORT_FIELDS:
                    assert (rs[k] > 0) == (v > 0), (scenario.label, k)
                else:
                    assert rs[k] == v, (scenario.label, k, v, rs[k])
            assert rc["verified"] and rs["verified"]
