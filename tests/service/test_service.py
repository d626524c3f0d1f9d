"""The campaign service (DESIGN.md §11).

Golden-run cache correctness — a hit is bitwise-identical to a fresh
execution, every cache-key component change misses, tenant A's cache
is invisible to tenant B — plus queue backpressure, ordered streaming,
tenant-namespaced storage, error paths, and the in-process
reproducibility pin that makes the cache sound: identical jobs run
concurrently on the service's thread pool produce identical canonical
bytes.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service import (
    CampaignService, JobSpec, ResultCache, ServiceError,
    canonical_result_bytes,
)

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

KILL = ({"rank": 1, "frac": 0.5},)


def spec(**overrides) -> JobSpec:
    base = dict(app="ring", nprocs=2, kills=KILL)
    base.update(overrides)
    return JobSpec(**base)


def run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# JobSpec: validation and cache keys
# ---------------------------------------------------------------------------

class TestJobSpec:
    def test_bad_fields_rejected(self):
        with pytest.raises(ValueError):
            JobSpec(app="no-such-app")
        with pytest.raises(ValueError):
            JobSpec(app="ring", platform="no-such-machine")
        with pytest.raises(ValueError):
            JobSpec(app="ring", storage="floppy")
        with pytest.raises(ValueError):
            JobSpec(app="ring", kind="no-such-kind")
        with pytest.raises(ValueError):
            JobSpec(app="ring", nprocs=0)
        with pytest.raises(ValueError):
            JobSpec(app="ring", interval_frac=0.0)
        with pytest.raises(ValueError):
            JobSpec(app="ring", cells=({"no_such_field": 1},))

    def test_cache_key_normalizes_the_default_engine(self):
        assert spec(engine=None).cache_key() == \
            spec(engine="cooperative").cache_key()

    def test_every_headline_field_changes_the_key(self):
        base = spec()
        variants = [spec(app="heat", kills=()), spec(nprocs=3),
                    spec(seed=7), spec(engine="processes:2"),
                    spec(storage="wal")]
        keys = {base.cache_key()} | {v.cache_key() for v in variants}
        assert len(keys) == 1 + len(variants)

    def test_config_fields_change_the_digest(self):
        assert spec().cache_key() != spec(interval_frac=0.4).cache_key()
        assert spec().cache_key() != \
            spec(kills=({"rank": 0, "frac": 0.5},)).cache_key()

    def test_specs_round_trip_through_to_dict(self):
        s = spec(cells=({"label": "a", "seed": 1},))
        assert JobSpec(**s.to_dict()) == s

    def test_cell_specs_merge_overrides(self):
        s = spec(cells=({"label": "a", "seed": 1}, {"seed": 2}))
        labelled = s.cell_specs()
        assert [l for l, _ in labelled][0] == "a"
        assert [sub.seed for _, sub in labelled] == [1, 2]


class TestResultCache:
    def test_served_results_are_immutable_copies(self):
        cache = ResultCache()
        cache.put(("k",), [{"a": 1}])
        first = cache.get(("k",))
        first[0]["a"] = 999
        assert cache.get(("k",)) == [{"a": 1}]
        assert cache.hits == 2 and cache.misses == 0


# ---------------------------------------------------------------------------
# Cache correctness through the service
# ---------------------------------------------------------------------------

class TestGoldenRunCache:
    def test_hit_is_bitwise_equal_to_the_fresh_run(self):
        async def go():
            async with CampaignService(workers=2) as svc:
                fresh = await (await svc.submit("alice", spec())).result()
                job = await svc.submit("alice", spec())
                rows = await job.result()
                return fresh, job.cached, rows
        fresh, cached, rows = run(go())
        assert cached is True
        assert canonical_result_bytes(rows) == \
            canonical_result_bytes(fresh)

    def test_any_key_component_change_misses(self, tmp_path):
        from repro.storage.stable import DiskStorage

        variants = [spec(seed=1), spec(nprocs=3), spec(storage="wal"),
                    spec(engine="processes:2"), spec(interval_frac=0.4)]

        async def go():
            # on disk: the processes variant's real kill needs stable
            # storage that outlives the killed process
            async with CampaignService(backend=DiskStorage(str(tmp_path)),
                                       workers=2) as svc:
                base = await svc.submit("alice", spec())
                await base.result()
                jobs = [await svc.submit("alice", v) for v in variants]
                for j in jobs:
                    await j.result()
                return [j.cached for j in jobs]
        assert run(go()) == [False] * len(variants)

    def test_tenant_a_cache_invisible_to_tenant_b(self):
        async def go():
            async with CampaignService(workers=2) as svc:
                await (await svc.submit("alice", spec())).result()
                bob = await svc.submit("bob", spec())
                await bob.result()
                alice_again = await svc.submit("alice", spec())
                await alice_again.result()
                return bob.cached, alice_again.cached, svc.stats()
        bob_cached, alice_cached, stats = run(go())
        assert bob_cached is False
        assert alice_cached is True
        assert stats["tenants"]["alice"]["hits"] == 1
        assert stats["tenants"]["bob"]["hits"] == 0

    def test_cache_disabled_always_executes(self):
        async def go():
            async with CampaignService(workers=2, cache=False) as svc:
                await (await svc.submit("alice", spec())).result()
                again = await svc.submit("alice", spec())
                await again.result()
                return again.cached, svc.jobs_executed
        cached, executed = run(go())
        assert cached is False and executed == 2


# ---------------------------------------------------------------------------
# Reproducibility pin: concurrent in-process runs are bitwise equal
# ---------------------------------------------------------------------------

class TestConcurrentReproducibility:
    def test_identical_jobs_race_to_identical_bytes(self):
        async def go():
            async with CampaignService(workers=4, cache=False) as svc:
                jobs = [await svc.submit(f"t{i}", spec())
                        for i in range(4)]
                rows = await asyncio.gather(*[j.result() for j in jobs])
                return [canonical_result_bytes(r) for r in rows]
        blobs = run(go())
        assert len(set(blobs)) == 1


# ---------------------------------------------------------------------------
# Streaming, namespaces, backpressure, errors
# ---------------------------------------------------------------------------

class TestServiceBehavior:
    def test_events_stream_cells_in_order_then_done(self):
        cells = ({"label": "a", "seed": 1}, {"label": "b", "seed": 2})

        async def go():
            async with CampaignService(workers=1) as svc:
                job = await svc.submit("alice", spec(cells=cells))
                return [e async for e in job.events()]
        events = run(go())
        assert [e["type"] for e in events] == ["cell", "cell", "done"]
        assert [e["index"] for e in events[:2]] == [0, 1]
        assert [e["label"] for e in events[:2]] == ["a", "b"]
        assert len(events[-1]["rows"]) == 2

    def test_cached_jobs_stream_the_same_shape(self):
        async def go():
            async with CampaignService(workers=1) as svc:
                await (await svc.submit("alice", spec())).result()
                job = await svc.submit("alice", spec())
                return [e async for e in job.events()]
        events = run(go())
        assert [e["type"] for e in events] == ["cell", "done"]
        assert events[0]["cached"] is True

    def test_job_bytes_confined_to_the_tenant_namespace(self):
        async def go():
            async with CampaignService(workers=1) as svc:
                await (await svc.submit("alice", spec())).result()
                await (await svc.submit("bob",
                                        spec(storage="wal"))).result()
                return svc.backend.list("")
        paths = run(go())
        assert paths
        assert all(p.startswith(("tenants/alice/", "tenants/bob/"))
                   for p in paths)
        assert any(p.startswith("tenants/alice/jobs/") for p in paths)
        assert any(p.startswith("tenants/bob/jobs/") for p in paths)

    def test_concurrent_processes_jobs_share_one_memory_medium(self):
        # each processes job stages the whole medium on its own scratch
        # directory and writes back only what it changed, so concurrent
        # tenants' jobs never clobber each other's bytes
        async def go():
            async with CampaignService(workers=2, cache=False,
                                       default_engine="processes:2") as svc:
                jobs = [await svc.submit(tenant, spec(nprocs=4,
                                                      storage=storage))
                        for tenant, storage in (("alice", "wal"),
                                                ("bob", "memory"))]
                rows = await asyncio.gather(*[j.result() for j in jobs])
                return rows, svc.backend.list("")
        rows, paths = run(go())
        for [row] in rows:
            assert row["verified"], row
            assert row["real_kills"] >= 1 and row["restarts"] >= 1
        assert any(p.startswith("tenants/alice/jobs/") for p in paths)
        assert any(p.startswith("tenants/bob/jobs/") for p in paths)

    def test_submit_backpressure_when_the_queue_is_full(self):
        async def go():
            svc = CampaignService(queue_limit=2, workers=1)
            await svc.start()
            # freeze the drain side so the bounded queue actually fills
            for t in svc._tasks:
                t.cancel()
            await asyncio.gather(*svc._tasks, return_exceptions=True)
            svc._tasks = []
            await svc.submit("alice", spec())
            await svc.submit("alice", spec())
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(svc.submit("alice", spec()), 0.2)
            await svc.close()
        run(go())

    def test_bad_tenant_names_rejected_at_submit(self):
        async def go():
            async with CampaignService(workers=1) as svc:
                for bad in ("", "..", "a/b"):
                    with pytest.raises(ValueError):
                        await svc.submit(bad, spec())
        run(go())

    def test_submit_before_start_raises(self):
        async def go():
            svc = CampaignService()
            with pytest.raises(RuntimeError):
                await svc.submit("alice", spec())
        run(go())

    def test_failing_job_raises_service_error(self):
        # the override field name is legal, its value is not: the spec
        # passes submit-time validation and dies at execution
        bad = spec(cells=({"nprocs": 0},))

        async def go():
            async with CampaignService(workers=1) as svc:
                job = await svc.submit("alice", bad)
                events = [e async for e in job.events()]
                with pytest.raises(ServiceError):
                    await job.result()
                return events, job.ok
        events, ok = run(go())
        assert events[-1]["type"] == "error"
        assert ok is False


# ---------------------------------------------------------------------------
# The load generator end to end (small)
# ---------------------------------------------------------------------------

class TestLoadgen:
    def test_small_loadgen_passes_every_gate(self):
        from repro.harness.loadgen import run_loadgen
        report = run_loadgen(tenants=2, jobs=8, duplicate_frac=0.25,
                             queue_limit=4, workers=2, seed=0)
        assert report["ok"], report["gates"]
        assert report["submissions"] == 8
        assert report["cache"]["duplicate_misses"] == 0
        assert report["cache"]["duplicate_mismatches"] == 0

    def test_repro_engine_processes_gets_a_disk_medium(self, monkeypatch):
        # REPRO_ENGINE=processes with no explicit engine: the tenants'
        # shared in-memory medium reaches each job's node processes as
        # a scratch-disk copy a SIGKILLed node's store survives on, and
        # every fault-injected job recovers from it.
        from repro.harness.loadgen import run_loadgen
        monkeypatch.setenv("REPRO_ENGINE", "processes")
        report = run_loadgen(tenants=2, jobs=6, workers=2, seed=0)
        assert report["verify_failures"] == []
        assert report["ok"], report["gates"]

    def test_percentile_nearest_rank(self):
        from repro.harness.loadgen import percentile
        vals = [1.0, 2.0, 3.0, 4.0]
        assert percentile(vals, 50.0) == 2.0
        assert percentile(vals, 99.0) == 4.0
        assert percentile([], 99.0) == 0.0
