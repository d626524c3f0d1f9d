"""``engine="processes"``: real forked processes, real SIGKILL faults.

The acceptance contract (DESIGN.md §12, pinned here):

* clean runs are **bitwise-identical** to the cooperative oracle —
  returns, per-rank virtual clocks, sent counts, sent bytes;
* a due fault is delivered as an actual ``SIGKILL`` to the victim's
  node process, confirmed via ``os.waitpid`` status and recorded as
  evidence in ``JobResult.real_kills`` (both the structural self-kill
  path and the coordinator-strike path for blocked ``at_time``
  victims);
* the kill/restart/verify pipeline recovers from WAL stable storage on
  real disk and verifies bitwise against the golden run;
* a private in-memory medium is staged on a scratch directory for the
  run, so the same pipeline, and injected storage faults, work over it
  too, and no scratch directory outlives a run;
* the service layer rejects unknown engine spellings at submission
  construction.
"""

import os
import signal
import tempfile

import numpy as np
import pytest

from repro.mpi import FaultPlan, FaultSpec, run_job
from repro.mpi.errors import ProcessFailure


def _job_equal(a, b):
    """Bitwise JobResult equivalence (the differential criterion)."""
    assert a.returns == b.returns
    assert a.clocks == b.clocks
    assert a.sent_counts == b.sent_counts
    assert a.sent_bytes == b.sent_bytes
    assert ([(r, str(e)) for r, e in a.errors]
            == [(r, str(e)) for r, e in b.errors])


def _ring_kernel(mpi):
    r, s = mpi.rank, mpi.size
    buf = np.zeros(8)
    acc = 0.0
    for it in range(12):
        mpi.compute(1e-4 * (1 + (r * 5 + it) % 3))
        req = mpi.COMM_WORLD.Irecv(buf, source=(r - 1) % s, tag=3)
        mpi.COMM_WORLD.Send(np.arange(8.0) * (r + 1) + it,
                            dest=(r + 1) % s, tag=3)
        req.wait()
        acc += float(buf.sum())
    return acc


# ---------------------------------------------------------------------------
# Clean runs: the differential battery criterion
# ---------------------------------------------------------------------------

class TestCleanDifferential:
    def test_ring_kernel_bitwise(self):
        coop = run_job(4, _ring_kernel, engine="cooperative",
                       wall_timeout=60)
        proc = run_job(4, _ring_kernel, engine="processes",
                       wall_timeout=60)
        coop.raise_errors(); proc.raise_errors()
        _job_equal(coop, proc)
        assert proc.real_kills == []

    def test_packed_into_two_processes_bitwise(self):
        coop = run_job(4, _ring_kernel, engine="cooperative",
                       wall_timeout=60)
        proc = run_job(4, _ring_kernel, engine="processes:2",
                       wall_timeout=60)
        coop.raise_errors(); proc.raise_errors()
        _job_equal(coop, proc)

    def test_single_node_still_forks(self):
        # one simulated node must NOT degenerate to the in-process
        # cooperative path: a later fault could never really kill the
        # caller, so even the clean single-node job runs in a fork
        result = run_job(1, lambda mpi: mpi.rank * 10, engine="processes",
                         wall_timeout=30)
        result.raise_errors()
        assert result.returns == [0]


# ---------------------------------------------------------------------------
# Real SIGKILL delivery, waitpid-confirmed
# ---------------------------------------------------------------------------

class TestRealKills:
    def test_structural_fault_self_kills_with_evidence(self):
        plan = FaultPlan([FaultSpec(rank=2, after_ops=10)])
        result = run_job(4, _ring_kernel, engine="processes",
                         fault_plan=plan, wall_timeout=60)
        assert result.failure is not None
        assert result.failure.rank == 2
        assert len(result.real_kills) == 1
        ev = result.real_kills[0]
        assert ev["rank"] == 2
        assert ev["termsig"] == signal.SIGKILL
        assert ev["sigkill"] is True
        assert ev["pid"] > 0
        assert len(plan.fired) == 1

    def test_at_time_fault_killed_with_evidence(self):
        golden = run_job(4, _ring_kernel, engine="cooperative",
                         wall_timeout=60)
        golden.raise_errors()
        at = golden.virtual_time * 0.5
        plan = FaultPlan([FaultSpec(rank=1, at_time=at)])
        result = run_job(4, _ring_kernel, engine="processes",
                         fault_plan=plan, wall_timeout=60)
        assert result.failure is not None
        assert result.failure.rank == 1
        assert [ev["sigkill"] for ev in result.real_kills] == [True]
        assert result.real_kills[0]["rank"] == 1

    def test_survivors_report_the_failure(self):
        plan = FaultPlan([FaultSpec(rank=0, after_ops=8)])
        result = run_job(4, _ring_kernel, engine="processes",
                         fault_plan=plan, wall_timeout=60)
        # injected fail-stop is an expected outcome: recorded as the
        # failure (with the victim's identity), never as an error
        assert isinstance(result.failure, ProcessFailure)
        assert result.failure.rank == 0
        result.raise_errors()

    def test_mpi_abort_reaches_the_parent(self):
        # MPI_Abort is not a fault spec: it unwinds inside the worker
        # instead of SIGKILLing it, and arrives through the shard report
        def main(mpi):
            if mpi.rank == 3:
                mpi.Abort(3)
            mpi.COMM_WORLD.Barrier()
            return mpi.rank

        coop = run_job(4, main, engine="cooperative", wall_timeout=60)
        proc = run_job(4, main, engine="processes:2", wall_timeout=60)
        assert (proc.failure.rank, proc.failure.time, proc.failure.reason) \
            == (coop.failure.rank, coop.failure.time, coop.failure.reason) \
            == (3, 0.0, "MPI_Abort(3)")
        assert proc.real_kills == [] and proc.errors == []

    def test_simulated_engines_report_no_real_kills(self):
        plan = FaultPlan([FaultSpec(rank=1, after_ops=8)])
        result = run_job(4, _ring_kernel, engine="cooperative",
                         fault_plan=plan, wall_timeout=60)
        assert result.failure is not None
        assert result.real_kills == []


# ---------------------------------------------------------------------------
# Kill + restart from WAL stable storage on real disk
# ---------------------------------------------------------------------------

class TestRecoveryFromDisk:
    @pytest.mark.parametrize("app", ["ring", "heat"])
    def test_kill_restart_verify_over_wal_disk(self, app):
        from repro.harness.campaign import CAMPAIGN_PARAMS
        from repro.harness.jobs import open_store
        from repro.harness.runner import measure_recovery
        from repro.mpi.timemodel import TESTING

        with open_store("wal-disk") as factory:
            row = measure_recovery(
                app, 4, TESTING, dict(CAMPAIGN_PARAMS.get(app, {})),
                kills=[{"rank": 1, "frac": 0.5}],
                engine="processes", storage_factory=factory)
        assert row["verified"], row
        assert row["verified_recovery"]
        assert row["restarts"] >= 1
        assert row["real_kills"] >= 1
        assert row["engine"] == "processes"

    def test_cooperative_row_reports_zero_real_kills(self):
        from repro.harness.campaign import CAMPAIGN_PARAMS
        from repro.harness.jobs import open_store
        from repro.harness.runner import measure_recovery
        from repro.mpi.timemodel import TESTING

        with open_store("wal-disk") as factory:
            row = measure_recovery(
                "ring", 4, TESTING, dict(CAMPAIGN_PARAMS.get("ring", {})),
                kills=[{"rank": 1, "frac": 0.5}],
                engine="cooperative", storage_factory=factory)
        assert row["verified"]
        assert row["real_kills"] == 0


# ---------------------------------------------------------------------------
# Every medium survives a kill: disk as is, private memory staged on a
# scratch directory and handed back by reload
# ---------------------------------------------------------------------------

class TestSharedStorePrecondition:
    def test_fault_job_on_memory_store_recovers(self):
        # the killed run's committed lines outlive its node processes:
        # the restart resumes from one and matches the golden run
        from repro.core import C3Config, run_c3
        from repro.core.ccc import resume_from_manifest
        from repro.harness.runner import APPS
        from repro.storage import InMemoryStorage, WalStore

        def config():
            return C3Config(checkpoint_interval=0.0003)

        golden, _ = run_c3(APPS["ring"], 4, storage=InMemoryStorage(),
                           config=config(), wall_timeout=60)
        store = WalStore(InMemoryStorage())
        plan = FaultPlan([FaultSpec(rank=1,
                                    at_time=golden.virtual_time * 0.8)])
        killed, _ = run_c3(APPS["ring"], 4, storage=store, config=config(),
                           fault_plan=plan, engine="processes:2",
                           wall_timeout=60)
        assert [ev["sigkill"] for ev in killed.real_kills] == [True]
        assert store.last_committed_global(4) is not None
        resumed, _ = resume_from_manifest(
            APPS["ring"], 4, storage=store, config=config(),
            engine="processes:2", wall_timeout=60)
        resumed.raise_errors()
        assert resumed.returns == golden.returns

    def test_storage_faults_on_memory_store_inject(self):
        # the sf_enospc seed schedule has no kills, only an injected
        # ENOSPC: each worker's FaultyStorage stays above the scratch
        # copy of the memory medium, fires, and abandons checkpoints
        from repro.core import C3Config, run_c3, run_original
        from repro.harness.fuzz import run_schedule, seed_schedules
        from repro.harness.runner import _with_params
        from repro.storage import InMemoryStorage
        from repro.storage.faulty import FaultyStorage, StorageFault
        from repro.storage.store import ScatterStore

        [sched] = [s for s in seed_schedules() if s.label == "sf_enospc"]
        assert sched.storage == "memory" and not sched.kills
        app = _with_params(sched.app, sched.params)
        golden = run_original(app, sched.nprocs, wall_timeout=60)
        store = ScatterStore(FaultyStorage(
            InMemoryStorage(),
            [StorageFault.from_dict(sf) for sf in sched.storage_faults]))
        result, stats = run_c3(
            app, sched.nprocs, storage=store, engine="processes:2",
            config=C3Config(checkpoint_interval=golden.virtual_time
                            * sched.interval_frac), wall_timeout=60)
        result.raise_errors()
        assert sum(s.checkpoints_abandoned for s in stats) >= 1
        assert store.last_committed_global(sched.nprocs) is not None
        assert run_schedule(sched, engine="processes:2")["verdict"] == "pass"

    def test_storage_faults_on_disk_store_allowed(self, tmp_path):
        from repro.core import C3Config, run_c3
        from repro.harness.runner import APPS
        from repro.storage import DiskStorage
        from repro.storage.faulty import FaultyStorage, StorageFault
        from repro.storage.store import ScatterStore

        backend = FaultyStorage(DiskStorage(str(tmp_path)), [StorageFault(
            kind="bit_rot", after_ops=5, path_prefix="ckpt/", bit=123)])
        result, _stats = run_c3(
            APPS["ring"], 4, storage=ScatterStore(backend),
            config=C3Config(checkpoint_interval=0.001),
            engine="processes:2", wall_timeout=60)
        result.raise_errors()

    def test_clean_job_on_memory_store_allowed(self):
        from repro.core import C3Config, run_c3
        from repro.harness.runner import APPS
        from repro.storage import InMemoryStorage

        result, _stats = run_c3(
            APPS["ring"], 4, storage=InMemoryStorage(),
            config=C3Config(checkpoint_interval=0.001),
            engine="processes", wall_timeout=60)
        result.raise_errors()


class TestPrivateMemoryHandBack:
    def test_no_scratch_directory_outlives_a_run(self, monkeypatch,
                                                 tmp_path):
        from repro.core import C3Config, run_c3
        from repro.harness.runner import APPS
        from repro.mpi import processes
        from repro.storage import InMemoryStorage, WalStore

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        staged = []
        stage = processes._stage

        def spy(medium, root):
            staged.append(root)
            return stage(medium, root)

        monkeypatch.setattr(processes, "_stage", spy)

        def job(fault_plan=None):
            return run_c3(APPS["ring"], 4,
                          storage=WalStore(InMemoryStorage()),
                          config=C3Config(checkpoint_interval=0.0003),
                          fault_plan=fault_plan, engine="processes:2",
                          wall_timeout=60)[0]

        job().raise_errors()
        killed = job(FaultPlan([FaultSpec(rank=2, after_ops=40)]))
        assert [ev["sigkill"] for ev in killed.real_kills] == [True]

        def crash(worker, body, returns, errors):
            raise RuntimeError("shard crash")

        monkeypatch.setattr(processes._ShardWorker, "run", crash)
        crashed = job()
        assert any("crashed" in err and "shard crash" in err
                   for _rank, err in crashed.errors), crashed.errors
        assert len(staged) == 3
        assert all(root.startswith(str(tmp_path)) for root in staged)
        assert os.listdir(tmp_path) == []


class TestCampaignOverMemory:
    def test_fault_scenario_on_memory_storage_real_kills(self):
        from repro.harness.campaign import build_matrix, run_campaign

        scenarios = build_matrix(["ring"], ["testing"], ["mid_run"],
                                 engine="processes:2", storage="memory")
        report = run_campaign(scenarios, parallel=False)
        [row] = report.rows
        assert report.ok, row
        assert row["real_kills"] >= 1 and row["restarts"] >= 1
        assert report.summary()["passed"] == 1


class TestServiceValidation:
    def test_jobspec_rejects_unknown_engine_at_construction(self):
        from repro.service import JobSpec

        with pytest.raises(ValueError,
                           match="unknown engine backend 'mpi4py'"):
            JobSpec(app="ring", engine="mpi4py")

    def test_jobspec_accepts_registry_spellings(self):
        from repro.service import JobSpec

        for engine in (None, "coop", "processes:2", "sharded:4"):
            JobSpec(app="ring", engine=engine)

    def test_service_default_engine_applied_and_cached(self):
        import asyncio

        from repro.service import CampaignService, JobSpec
        from repro.storage.stable import DiskStorage

        async def go(tmp):
            svc = CampaignService(backend=DiskStorage(tmp), workers=1,
                                  default_engine="procs")
            assert svc.default_engine == "processes"
            async with svc:
                job = await svc.submit("alice", JobSpec(
                    app="ring", kills=({"rank": 1, "frac": 0.5},),
                    storage="wal-disk"))
                rows = await job.result()
                again = await svc.submit("alice", JobSpec(
                    app="ring", kills=({"rank": 1, "frac": 0.5},),
                    storage="wal-disk"))
                rows2 = await again.result()
            assert job.spec.engine == "processes"
            assert [r["engine"] for r in rows] == ["processes"]
            assert rows[0]["verified"]
            assert rows[0]["real_kills"] >= 1
            assert again.cached
            assert rows2 == rows

        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            asyncio.run(go(tmp))

    def test_service_rejects_bad_default_engine(self):
        from repro.service import CampaignService

        with pytest.raises(ValueError, match="unknown engine backend"):
            CampaignService(default_engine="bogus")


# ---------------------------------------------------------------------------
# Uniform CLI rejection: unknown engine exits 2 from every study CLI
# ---------------------------------------------------------------------------

_STUDY_MAINS = [
    "repro.harness.campaign",
    "repro.harness.scaling",
    "repro.harness.overlap",
    "repro.harness.sizes",
    "repro.harness.walstudy",
    "repro.harness.fuzz",
    "repro.harness.loadgen",
    "repro.harness.procstudy",
]


class TestUniformEngineCLI:
    @pytest.mark.parametrize("module", _STUDY_MAINS)
    def test_unknown_engine_exits_2(self, module, capsys):
        import importlib

        main = importlib.import_module(module).main
        with pytest.raises(SystemExit) as ei:
            main(["--engine", "mpi4py"])
        assert ei.value.code == 2
        err = capsys.readouterr().err
        assert "unknown engine backend 'mpi4py'" in err

    @pytest.mark.parametrize("module", _STUDY_MAINS)
    def test_deleted_threads_engine_exits_2(self, module, capsys):
        import importlib

        main = importlib.import_module(module).main
        with pytest.raises(SystemExit) as ei:
            main(["--engine", "threads"])
        assert ei.value.code == 2
        assert "unknown engine backend 'threads'" in capsys.readouterr().err

    @pytest.mark.parametrize("module", _STUDY_MAINS)
    def test_bad_count_suffix_exits_2(self, module, capsys):
        import importlib

        main = importlib.import_module(module).main
        with pytest.raises(SystemExit) as ei:
            main(["--engine", "cooperative:2"])
        assert ei.value.code == 2
        assert "takes no ':N' suffix" in capsys.readouterr().err


#: (study module, argv with one bad selection, expected stderr fragment)
_BAD_SELECTIONS = [
    ("repro.harness.campaign", ["--apps", "bogus"], "unknown apps"),
    ("repro.harness.campaign", ["--platforms", "bogus"],
     "unknown platforms"),
    ("repro.harness.campaign", ["--kills", "bogus"], "unknown kill timings"),
    ("repro.harness.campaign", ["--smoke", "--apps", "ring"],
     "--smoke selects a fixed matrix"),
    ("repro.harness.scaling", ["--ranks", "16,x"], "unknown rank counts"),
    ("repro.harness.scaling", ["--apps", "bogus"], "unknown scaling apps"),
    ("repro.harness.scaling", ["--platforms", "bogus"], "unknown platforms"),
    ("repro.harness.sizes", ["--kernels", "bogus"], "unknown kernels"),
    ("repro.harness.overlap", ["--platforms", "bogus"], "unknown platforms"),
    ("repro.harness.overlap", ["--kernels", "bogus"], "unknown kernels"),
    ("repro.harness.walstudy", ["--platforms", "bogus"],
     "unknown platforms"),
    ("repro.harness.walstudy", ["--kernels", "bogus"], "unknown kernels"),
    ("repro.harness.procstudy", ["--apps", "bogus"], "unknown apps"),
]


class TestUniformSelectionCLI:
    """A bad selection exits 2 with one message, before anything runs."""

    @pytest.mark.parametrize("module,argv,message", _BAD_SELECTIONS)
    def test_unknown_selection_exits_2(self, module, argv, message, capsys):
        import importlib

        main = importlib.import_module(module).main
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--smoke", "--engine", "processes:2"],
        ["--smoke", "--engine", "sharded:2", "--storage", "wal-disk"],
        ["--smoke", "--engine", "procs", "--storage", "memory"],
    ])
    def test_fuzz_smoke_on_processes_exits_2(self, argv, monkeypatch,
                                             capsys):
        # the coverage gate cannot see storage faults fired inside the
        # forked workers, so --smoke would fail on coverage it never saw
        from repro.harness import fuzz

        def boom(*_a, **_kw):
            raise AssertionError("the fuzzer ran before the refusal")

        monkeypatch.setattr(fuzz, "fuzz", boom)
        assert fuzz.main(argv) == 2
        assert "--smoke gates on storage-fault coverage" \
            in capsys.readouterr().err

    def test_fuzz_seed_wave_over_memory_on_processes(self, tmp_path,
                                                     capsys):
        import json

        from repro.harness import fuzz

        out = tmp_path / "fuzz.json"
        assert fuzz.main(["--engine", "processes:2", "--storage", "memory",
                          "--schedules", "3", "--inline", "-q",
                          "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["schedules_tried"] == 3
        assert report["failures"] == []

    def test_walstudy_on_processes_exits_2(self, monkeypatch, capsys):
        # every fsync is counted in the forked worker that made it, so
        # the parent's counters cannot judge group commit
        from repro.harness import walstudy

        def boom(*_a, **_kw):
            raise AssertionError("the study ran before the refusal")

        monkeypatch.setattr(walstudy, "commit_rows", boom)
        assert walstudy.main(["--engine", "processes:2"]) == 2
        assert "fsync_count" in capsys.readouterr().err
