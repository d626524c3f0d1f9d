"""``engine="processes"``: real OS processes, real SIGKILL crashes.

The cooperative engine *simulates* a fail-stop fault as a Python unwind
inside one process.  This backend makes the paper's fault model literal:
each simulated node is a real forked OS process (ranks scheduled
cooperatively inside it), and a :class:`~repro.mpi.faults.FaultSpec`
coming due delivers an actual ``SIGKILL`` to the victim's node process
— no ``finally`` blocks, no flushes, no goodbye.  Whatever checkpoint
state that process had staged but not made durable is genuinely lost,
which is precisely the crash semantics application-level checkpointing
must survive.

The transport lives in :mod:`repro.mpi.sharded`: fork per node group
(``processes:N`` packs the nodes into N processes), length-prefixed
framed messages with unbuffered reads and epoch-stamped wakes, strict
quiescence epochs under a lookahead window (DESIGN.md §12 has the full
protocol):

* **fault delivery** — a structural fault (``at_epoch``,
  ``in_collective``, ``at_commit``, ...) fires *inside* the victim
  process at the exact deterministic point the cooperative oracle would
  fire it; the :class:`~repro.mpi.faults.FaultPlan` kill hook sends one
  dying-breath ``"dy"`` frame (injection bookkeeping only: victim rank,
  virtual time, fired spec indices — never application or storage
  state) and then ``SIGKILL``\\ s its own process, so there is no Python
  unwind at all.  ``at_time`` faults are delivered by the coordinator
  as a direct ``SIGKILL`` of the node process (mirroring the
  cooperative rule that a fault fires when *any* rank's clock crosses
  it).
* **death confirmation** — the coordinator reaps every killed process
  and asserts via ``os.waitpid`` status that it died by ``SIGKILL``;
  the evidence rows land in :attr:`JobResult.real_kills
  <repro.mpi.engine.JobResult>` and the recovery harness counts them.
* **recovery** — restart is the existing operator path
  (:func:`repro.core.ccc.resume_from_manifest`) over *shared* stable
  storage: the WAL engine on a disk-backed medium
  (``shared_across_fork``), whose bytes survive the killed process.
  The coordinator reloads the store from its own bytes after the run,
  so the restart sees exactly what group commit made durable before
  the crash — and nothing more.  A killed node's staged log tail is
  lost whole (the cooperative engine models a torn tail instead), and
  surviving nodes flush their staged tails on abort, matching the
  cooperative engine's survivors-drain semantics.

Because a kill takes the whole node process, co-located ranks die with
the victim — acceptable under fail-stop, where the recovery line is
global anyway.  A store in private memory cannot survive a kill, and
the coordinator can rebuild it only by replaying the workers' completed
calls, so :func:`require_shared_store` refuses fault-injected jobs and
injected storage faults on such a store up front.

``sharded[:N]`` is an accepted spelling of ``processes[:N]``: the perf
benchmark's ``shard-256`` workload names ``sharded:4``.

The cooperative engine remains the deterministic oracle:
``repro.harness.procstudy`` runs the campaign matrix on both engines
and diffs the rows under the real-kill tolerance contract (fields
coupled to where the SIGKILL physically lands are compared
structurally, verification evidence exactly).
"""

from __future__ import annotations

import os
from typing import Any, Callable, List, Optional, Tuple

from .backends import ExecutionBackend, register

__all__ = ["ProcessesBackend", "require_shared_store"]


def require_shared_store(engine) -> None:
    """Refuse, before any fork, a job whose store dies with its process.

    A store on a ``shared_across_fork`` medium (real disk) survives a
    killed process and is reloaded from its bytes after the run.  A
    store in private memory exists once per node process; the
    coordinator rebuilds the parent's copy by replaying the workers'
    completed calls, which is exact only for a run with nothing
    injected.  So a private-memory store is refused when the job has
    unfired fault specs (a kill takes the committed lines with it) or
    when its backend chain holds a :class:`~repro.storage.faulty.
    FaultyStorage` with faults (a replay would fire them again).
    """
    from ..storage.faulty import FaultyStorage
    from ..storage.store import CheckpointStore

    def injects(backend) -> bool:
        while backend is not None:
            if isinstance(backend, FaultyStorage) and backend.faults:
                return True
            backend = backend.inner
        return False

    refused = [type(arg).__name__ for arg in engine._job_args
               if isinstance(arg, CheckpointStore)
               and not arg.backend.shared_across_fork
               and (engine.fault_plan.unfired() or injects(arg.backend))]
    if refused:
        raise ValueError(
            "engine='processes' delivers faults as real SIGKILLs and "
            "rebuilds an in-memory store by replaying each node process's "
            "completed calls, so a job with injected kills or storage "
            "faults needs a disk-backed store (--storage wal-disk or "
            f"disk); got in-memory-backed store(s) {refused}")


class ProcessesBackend(ExecutionBackend):
    """One real OS process per simulated node; faults are real SIGKILLs."""

    name = "processes"
    #: "sharded" stays a spelling: the perf benchmark's shard-256
    #: workload names engine "sharded:4"
    aliases = ("process", "procs", "sharded")
    summary = "one OS process per node, faults delivered as real SIGKILLs"
    takes_count = True
    supports_real_kill = True

    def available(self) -> Optional[str]:
        # Real kills need real processes — fork is the only hard
        # requirement.  Core count is deliberately NOT gated here: on a
        # 1-core box the backend is slower, not wrong (kills are still
        # real); only throughput-oriented layers (the service executor
        # gate) care about cores.
        if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX
            return "os.fork is not available on this platform"
        return None

    def worker_count(self, engine) -> int:
        """Default: one process per simulated node (``plan_shards``
        clamps the request to the node count); ``processes:N`` caps it."""
        _base, _sep, count = engine.backend.partition(":")
        if count:
            return int(count)
        return engine.nprocs  # >= node count, so: one process per node

    def launch(self, engine, body: Callable[[int], None], timeout: float,
                errors: List[Tuple[int, str]], returns: List[Any]) -> None:
        require_shared_store(engine)
        from .sharded import run_sharded  # local import, no cycle
        run_sharded(engine, body, timeout, errors, returns,
                    n_shards=self.worker_count(engine))


register(ProcessesBackend())
