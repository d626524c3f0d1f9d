"""Campaign-as-a-service: queued, cached, tenant-namespaced study jobs.

The study harnesses run one grid per invocation; this module turns the
same job core (:mod:`repro.harness.jobs`) into a long-lived service:

* **Bounded queue** — :meth:`CampaignService.submit` enqueues a
  :class:`JobSpec` for a named tenant; the queue is a bounded
  :class:`asyncio.Queue`, so thousands of concurrent submissions get
  natural backpressure instead of unbounded memory growth.  A fixed set
  of worker coroutines drains it.
* **In-process execution** — cells run on a thread pool *inside* the
  service process (never a process pool), so their checkpoint traffic
  lands in the service's shared storage backend.  Concurrent simulator
  runs in threads of one process are bit-reproducible (pinned by
  ``tests/service``), which is what makes the next two features sound.
* **Tenant namespaces** — every job's stable storage is a
  :class:`~repro.storage.namespace.PrefixBackend` rooted at
  ``tenants/<tenant>/jobs/<job>/`` of the shared backend: tenants share
  the medium but can never see (or clobber) each other's bytes.
* **Golden-run cache** — results are keyed on ``(kernel, platform,
  nprocs, seed, engine, storage, config-digest)``.  Every measurement a
  job returns is virtual-time (no wall-clock fields), so a cached
  result is *bitwise identical* to re-running the job; hits are served
  from the per-tenant cache without re-execution, as a fresh
  deserialization of the canonical JSON (cache immutability).
* **Streaming progress** — :meth:`Job.events` is an async iterator of
  per-cell events, fed by the same ordered ``on_result`` callback the
  study harnesses stream through (:func:`repro.harness.parallel.
  run_cells`).

:mod:`repro.harness.loadgen` drives N tenants of mixed submissions
through this service and gates throughput, cache hit rate, and p99
submission-to-first-result latency into ``BENCH_service.json``.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from typing import (
    Any, AsyncIterator, Callable, Dict, List, Optional, Tuple,
)

from .apps import APPS
from .harness.campaign import CAMPAIGN_PARAMS, inapplicable
from .harness.jobs import STORAGE_CHOICES
from .harness.parallel import Cell, run_cells
from .harness.runner import (
    measure_c3, measure_original, measure_recovery, resolve_kills,
)
from .mpi.engine import resolve_backend
from .mpi.timemodel import MACHINES
from .storage.namespace import PrefixBackend, tenant_backend
from .storage.stable import InMemoryStorage, StorageBackend
from .storage.wal import WalStore

__all__ = [
    "CampaignService", "Job", "JobSpec", "ResultCache", "ServiceError",
    "canonical_result_bytes", "execute_job",
]

#: job kinds: a full kill/restart/verify recovery scenario, or a
#: failure-free original-vs-C3 overhead point
JOB_KINDS = ("recovery", "overhead")


class ServiceError(Exception):
    """A job failed inside the service (the cause is the message)."""


# ---------------------------------------------------------------------------
# Job specs and cache keys
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JobSpec:
    """One submission, as plain data (JSON round-trippable).

    A spec is one cell by default — a recovery scenario or an overhead
    point addressed by the headline fields.  ``cells`` turns it into a
    small campaign: each entry is a dict of field overrides (``label``
    plus any headline field), and the job streams one event per cell.
    """

    app: str
    platform: str = "testing"
    nprocs: int = 4
    seed: int = 0
    engine: Optional[str] = None
    #: stable-storage flavor (:data:`repro.harness.jobs.STORAGE_CHOICES`);
    #: inside the service it selects the store layered over the tenant
    #: namespace ("wal"/"wal-disk" = the WAL engine, else scatter) and is
    #: a cache-key component either way
    storage: str = "memory"
    kind: str = "recovery"
    #: app parameters (None = the campaign defaults for the app)
    params: Optional[dict] = None
    #: fail-stop kills for "recovery" jobs (campaign kill-dict format)
    kills: Tuple[dict, ...] = ()
    interval_frac: float = 0.2
    #: timer-initiated checkpoints for "overhead" jobs
    checkpoints: int = 1
    #: multi-cell override dicts (see class docstring)
    cells: Tuple[dict, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "kills", tuple(dict(k) for k in self.kills))
        object.__setattr__(self, "cells", tuple(dict(c) for c in self.cells))
        if self.app not in APPS:
            raise ValueError(f"unknown app {self.app!r}")
        if self.platform not in MACHINES:
            raise ValueError(f"unknown platform {self.platform!r}")
        if self.storage not in STORAGE_CHOICES:
            raise ValueError(f"unknown storage flavor {self.storage!r}")
        if self.kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {self.kind!r}")
        if self.engine is not None:
            # resolve_backend's error, at construction time — a bad
            # spelling never reaches the queue (same message the study
            # CLIs print)
            resolve_backend(self.engine)
        if self.nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if not (0.0 < self.interval_frac <= 1.0):
            raise ValueError("interval_frac must be in (0, 1]")
        # override dicts may set any headline field plus a label, but
        # never nest further cells
        allowed = ({f.name for f in fields(type(self))} | {"label"}) \
            - {"cells"}
        for c in self.cells:
            bad = sorted(set(c) - allowed)
            if bad:
                raise ValueError(f"unknown cell override fields: {bad}")
        # the campaign's and the fuzzer's kill rules (a cell's overrides
        # are checked when its spec is built, at execution)
        reason = inapplicable(resolve_kills(self.kills, self.nprocs),
                              self.app, self.storage)
        if reason is not None:
            raise ValueError(reason)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "app": self.app, "platform": self.platform,
            "nprocs": self.nprocs, "seed": self.seed,
            "engine": self.engine, "storage": self.storage,
            "kind": self.kind,
            "params": dict(self.params) if self.params else None,
            "kills": [dict(k) for k in self.kills],
            "interval_frac": self.interval_frac,
            "checkpoints": self.checkpoints,
            "cells": [dict(c) for c in self.cells],
        }

    def config_digest(self) -> str:
        """Digest of everything *not* in the headline cache-key fields."""
        cfg = self.to_dict()
        for key in ("app", "platform", "nprocs", "seed", "engine",
                    "storage"):
            cfg.pop(key)
        blob = json.dumps(cfg, sort_keys=True).encode()
        return hashlib.blake2b(blob, digest_size=8).hexdigest()

    def cache_key(self) -> Tuple:
        """The golden-run cache key of the issue contract."""
        return (self.app, self.platform, self.nprocs, self.seed,
                resolve_backend(self.engine), self.storage,
                self.config_digest())

    def cell_specs(self) -> List[Tuple[str, "JobSpec"]]:
        """``(label, single-cell spec)`` per cell this job runs."""
        if not self.cells:
            return [(f"{self.kind}:{self.app}@{self.nprocs}:"
                     f"{self.platform}", self)]
        out = []
        base = self.to_dict()
        base.pop("cells")
        for i, override in enumerate(self.cells):
            merged = dict(base)
            label = override.get("label", "")
            merged.update({k: v for k, v in override.items()
                           if k != "label"})
            sub = JobSpec(**merged)
            out.append((label or f"{sub.kind}:{sub.app}@{sub.nprocs}:"
                                 f"{sub.platform}#{i}", sub))
        return out


# ---------------------------------------------------------------------------
# Execution (runs on the service's thread pool, in-process)
# ---------------------------------------------------------------------------

def _execute_cell(spec: JobSpec,
                  store_factory: Callable[[], Any]) -> Dict[str, Any]:
    """One cell, synchronously; returns a judged plain-data row.

    Every value in the row is virtual-time or structural — no wall-clock
    field — which is what makes cached results bitwise-identical to
    fresh executions.
    """
    machine = MACHINES[spec.platform]
    params = (dict(spec.params) if spec.params is not None
              else dict(CAMPAIGN_PARAMS.get(spec.app, {})))
    if spec.kind == "recovery":
        row = dict(measure_recovery(
            spec.app, spec.nprocs, machine, params,
            [dict(k) for k in spec.kills],
            interval_frac=spec.interval_frac, seed=spec.seed,
            engine=spec.engine, storage_factory=store_factory))
        row["passed"] = row["verified"] and not resolve_kills(
            spec.kills, spec.nprocs).vacuous(row["fired"])
        return row
    orig = measure_original(spec.app, spec.nprocs, machine, params,
                            engine=spec.engine)
    c3 = measure_c3(spec.app, spec.nprocs, machine, params,
                    checkpoints=spec.checkpoints,
                    reference_time=orig.virtual_seconds,
                    engine=spec.engine, storage=store_factory())
    return {
        "app": spec.app,
        "platform": spec.platform,
        "nprocs": spec.nprocs,
        "engine": resolve_backend(spec.engine),
        "original_seconds": orig.virtual_seconds,
        "c3_seconds": c3.virtual_seconds,
        "overhead_pct": ((c3.virtual_seconds - orig.virtual_seconds)
                         / orig.virtual_seconds * 100.0),
        "checkpoint_bytes": c3.checkpoint_bytes,
        "checkpoints_committed": c3.checkpoints_committed,
        "passed": True,
    }


def execute_job(spec: JobSpec, store_factory: Callable[[], Any],
                on_row: Optional[Callable[[int, str, Dict], None]] = None,
                ) -> List[Dict[str, Any]]:
    """Run a job's cells in order; returns the judged rows.

    ``on_row(index, label, row)`` streams each row as it completes —
    the service's progress events ride this, through the same ordered
    ``on_result`` seam the study harnesses use.
    """
    subs = spec.cell_specs()
    cells = [Cell(_execute_cell,
                  dict(spec=sub, store_factory=store_factory),
                  label=label)
             for label, sub in subs]
    rows: List[Optional[Dict]] = [None] * len(cells)

    def on_result(i: int, cell: Cell, result: Any) -> None:
        rows[i] = result
        if on_row is not None:
            on_row(i, cell.label, result)

    # inline always: the cells must write through this process's
    # tenant-namespaced backend, which a process pool would fork away
    run_cells(cells, parallel=False, on_result=on_result)
    return [r for r in rows if r is not None]


# ---------------------------------------------------------------------------
# Golden-run result cache
# ---------------------------------------------------------------------------

def canonical_result_bytes(rows: List[Dict[str, Any]]) -> bytes:
    """The canonical serialized form of a job result.

    Sorted-key JSON over plain data; both cache entries and served
    results round-trip through this, so a hit and a fresh run compare
    bitwise.
    """
    return json.dumps(rows, sort_keys=True, default=str).encode()


class ResultCache:
    """Per-tenant golden-run cache: cache key -> canonical result bytes.

    Entries are stored serialized and served as fresh deserializations,
    so no consumer can mutate a cached result in place.
    """

    def __init__(self) -> None:
        self._data: Dict[Tuple, bytes] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Tuple) -> Optional[List[Dict[str, Any]]]:
        blob = self._data.get(key)
        if blob is None:
            self.misses += 1
            return None
        self.hits += 1
        return json.loads(blob)

    def put(self, key: Tuple, rows: List[Dict[str, Any]]) -> None:
        self._data[key] = canonical_result_bytes(rows)


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

class Job:
    """One accepted submission: spec, progress stream, final result."""

    def __init__(self, job_id: int, tenant: str, spec: JobSpec):
        self.id = job_id
        self.tenant = tenant
        self.spec = spec
        #: served from the tenant's golden-run cache, no re-execution
        self.cached = False
        self.submitted_at = time.monotonic()
        #: when the first per-cell event (or the verdict) was emitted —
        #: minus ``submitted_at`` it is the submission-to-first-result
        #: latency the load generator gates at p99
        self.first_result_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.rows: Optional[List[Dict[str, Any]]] = None
        self.error: Optional[str] = None
        self._events: asyncio.Queue = asyncio.Queue()
        self._done = asyncio.Event()

    def _emit(self, event: Dict[str, Any]) -> None:
        if self.first_result_at is None and event["type"] in ("cell",
                                                              "done"):
            self.first_result_at = time.monotonic()
        self._events.put_nowait(event)

    def _finish(self, rows: List[Dict[str, Any]]) -> None:
        self.rows = rows
        self.finished_at = time.monotonic()
        self._emit({"type": "done", "job": self.id, "cached": self.cached,
                    "rows": rows})
        self._done.set()

    def _fail(self, error: str) -> None:
        self.error = error
        self.finished_at = time.monotonic()
        self._emit({"type": "error", "job": self.id, "error": error})
        self._done.set()

    @property
    def done(self) -> bool:
        return self._done.is_set()

    @property
    def ok(self) -> bool:
        return (self.error is None and self.rows is not None
                and all(r.get("passed", True) for r in self.rows))

    async def events(self) -> AsyncIterator[Dict[str, Any]]:
        """Ordered per-cell progress events, ending with done/error."""
        while True:
            event = await self._events.get()
            yield event
            if event["type"] in ("done", "error"):
                return

    async def result(self) -> List[Dict[str, Any]]:
        """The judged rows; raises :class:`ServiceError` on job failure."""
        await self._done.wait()
        if self.error is not None:
            raise ServiceError(self.error)
        assert self.rows is not None
        return self.rows


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------

class CampaignService:
    """Asyncio campaign service: bounded queue, cache, tenant namespaces.

    Usage::

        async with CampaignService(workers=4) as svc:
            job = await svc.submit("alice", JobSpec(app="ring",
                                                    kills=({"rank": 1,
                                                            "frac": 0.5},)))
            async for event in job.events():
                ...
            rows = await job.result()
    """

    def __init__(self, backend: Optional[StorageBackend] = None,
                 queue_limit: int = 1024, workers: int = 4,
                 cache: bool = True,
                 default_engine: Optional[str] = None):
        #: the shared physical medium all tenants' namespaces live on
        self.backend = backend if backend is not None else InMemoryStorage()
        self.queue_limit = queue_limit
        self.workers = workers
        self.cache_enabled = cache
        #: execution backend applied to submissions that leave ``engine``
        #: unset (the process-backend executor option: ``"processes"``
        #: moves each job's simulation into forked OS processes, so the
        #: service's worker threads only coordinate and campaign
        #: throughput is not GIL-bound).  Resolved — and so validated —
        #: here, at service construction.
        self.default_engine = (resolve_backend(default_engine)
                               if default_engine is not None else None)
        self._caches: Dict[str, ResultCache] = {}
        self._ids = itertools.count(1)
        self._queue: Optional[asyncio.Queue] = None
        self._tasks: List[asyncio.Task] = []
        self._executor: Optional[ThreadPoolExecutor] = None
        self.jobs_executed = 0
        self.jobs_cached = 0

    async def __aenter__(self) -> "CampaignService":
        await self.start()
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.close()

    async def start(self) -> None:
        if self._tasks:
            raise RuntimeError("service already started")
        self._queue = asyncio.Queue(self.queue_limit)
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="campaign-svc")
        self._tasks = [asyncio.create_task(self._worker())
                       for _ in range(self.workers)]

    async def close(self) -> None:
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    async def join(self) -> None:
        """Wait until every accepted job has been processed."""
        assert self._queue is not None
        await self._queue.join()

    def cache_for(self, tenant: str) -> ResultCache:
        return self._caches.setdefault(tenant, ResultCache())

    async def submit(self, tenant: str, spec: JobSpec) -> Job:
        """Enqueue one job; awaits (backpressure) when the queue is full.

        The tenant name is validated here, with the same single-segment
        rules the namespace wrapper enforces.
        """
        if self._queue is None:
            raise RuntimeError("service not started")
        tenant_backend(self.backend, tenant)   # validates the name
        if spec.engine is None and self.default_engine is not None:
            # applied before the job is created so the cache key, the
            # progress events, and the executed cells all agree on the
            # engine actually used
            spec = replace(spec, engine=self.default_engine)
        job = Job(next(self._ids), tenant, spec)
        await self._queue.put(job)
        return job

    def stats(self) -> Dict[str, Any]:
        return {
            "jobs_executed": self.jobs_executed,
            "jobs_cached": self.jobs_cached,
            "tenants": {
                t: {"entries": len(c), "hits": c.hits, "misses": c.misses}
                for t, c in sorted(self._caches.items())
            },
        }

    # -- internals -----------------------------------------------------------

    def _store_factory(self, job: Job) -> Callable[[], Any]:
        """Fresh tenant-namespaced stores for one job.

        Each call roots a new namespace under
        ``tenants/<tenant>/jobs/<job>/s<n>`` — the measurement pipeline
        opens one store per execution phase, and phases must not see
        each other's bytes.
        """
        base = tenant_backend(self.backend, job.tenant)
        seq = itertools.count()
        wal = job.spec.storage in ("wal", "wal-disk")

        def make() -> Any:
            ns = PrefixBackend(base, f"jobs/job{job.id:08d}/s{next(seq)}")
            return WalStore(ns) if wal else ns

        return make

    async def _worker(self) -> None:
        assert self._queue is not None
        while True:
            job = await self._queue.get()
            try:
                await self._run(job)
            except asyncio.CancelledError:
                job._fail("service shut down")
                raise
            except Exception as exc:  # noqa: BLE001 - job verdict
                job._fail(f"{type(exc).__name__}: {exc}")
            finally:
                self._queue.task_done()

    async def _run(self, job: Job) -> None:
        cache = (self.cache_for(job.tenant) if self.cache_enabled
                 else None)
        key = job.spec.cache_key()
        if cache is not None:
            hit = cache.get(key)
            if hit is not None:
                job.cached = True
                self.jobs_cached += 1
                for i, row in enumerate(hit):
                    job._emit({"type": "cell", "job": job.id, "index": i,
                               "label": "", "row": row, "cached": True})
                job._finish(hit)
                return
        loop = asyncio.get_running_loop()

        def on_row(i: int, label: str, row: Dict[str, Any]) -> None:
            loop.call_soon_threadsafe(
                job._emit, {"type": "cell", "job": job.id, "index": i,
                            "label": label, "row": row, "cached": False})

        rows = await loop.run_in_executor(
            self._executor, execute_job, job.spec,
            self._store_factory(job), on_row)
        if cache is not None:
            cache.put(key, rows)
        self.jobs_executed += 1
        # serve the canonical form, exactly what later cache hits serve
        job._finish(json.loads(canonical_result_bytes(rows)))
