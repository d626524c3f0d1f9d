"""``engine="processes"``: real OS processes, real SIGKILL crashes.

Every other backend *simulates* a fail-stop fault as a Python unwind
inside one process.  This backend makes the paper's fault model literal:
each simulated node is a real forked OS process (ranks scheduled
cooperatively inside it, exactly like one shard of the sharded backend),
and a :class:`~repro.mpi.faults.FaultSpec` coming due delivers an actual
``SIGKILL`` to the victim's node process — no ``finally`` blocks, no
flushes, no goodbye.  Whatever checkpoint state that process had staged
but not made durable is genuinely lost, which is precisely the crash
semantics application-level checkpointing must survive.

Mechanically the backend is the sharded machinery
(:mod:`repro.mpi.sharded`) in *real-kill* mode — same fork-per-node
layout, same length-prefixed framed-message discipline with unbuffered
reads and epoch-stamped wakes, same strict quiescence epochs — with
three deltas (DESIGN.md §12 has the full protocol):

* **fault delivery** — a structural fault (``at_epoch``,
  ``in_collective``, ``at_commit``, ...) fires *inside* the victim
  process at the exact deterministic point the cooperative oracle would
  fire it; the :class:`~repro.mpi.faults.FaultPlan` kill hook sends one
  dying-breath ``"dy"`` frame (injection bookkeeping only: victim rank,
  virtual time, fired spec indices — never application or storage
  state) and then ``SIGKILL``\\ s its own process, so there is no Python
  unwind at all.  ``at_time`` faults whose victim is blocked are
  delivered by the coordinator as a direct ``SIGKILL`` of the node
  process (mirroring the cooperative rule that a fault fires when *any*
  rank's clock crosses it).
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
  lost whole (the simulated engines model a torn tail instead), and
  surviving nodes flush their staged tails on abort, matching the
  simulated engines' survivors-drain semantics.

Because a kill takes the whole node process, co-located ranks die with
the victim — acceptable under fail-stop, where the recovery line is
global anyway.  Fault-injected jobs on a non-shared store would lose
their *committed* lines with the process too, so the backend refuses
them up front with instructions to use a disk-backed store.

The cooperative engine remains the deterministic oracle:
``repro.harness.procstudy`` runs the campaign matrix on both engines
and diffs the rows under the shardstudy tolerance contract (real-kill
grade: fields coupled to where the SIGKILL physically lands are
compared structurally, verification evidence exactly).
"""

from __future__ import annotations

import os
from typing import Any, Callable, List, Optional, Tuple

from .backends import ExecutionBackend, register

__all__ = ["ProcessesBackend", "require_shared_store"]


def require_shared_store(engine) -> None:
    """Refuse a fault-injected run whose stable storage dies with a kill.

    Real kills destroy the victim process wholesale — including any
    in-memory store "backend" living inside it.  Committed lines must
    survive the crash for recovery to mean anything, so every checkpoint
    store in the job args must sit on a ``shared_across_fork`` medium
    (real disk).  Clean runs (no unfired fault specs) may use any store:
    the coordinator replays the workers' operation logs like the sharded
    backend does.
    """
    if not engine.fault_plan.unfired():
        return
    from ..storage.store import CheckpointStore
    bad = [
        type(arg).__name__
        for arg in engine._job_args
        if isinstance(arg, CheckpointStore)
        and not arg.backend.shared_across_fork
    ]
    if bad:
        raise ValueError(
            "engine='processes' delivers faults as real SIGKILLs, so a "
            "fault-injected job needs stable storage that survives the "
            "killed process: use a disk-backed store (--storage wal-disk "
            f"or disk); got in-memory-backed store(s) {bad}")


class ProcessesBackend(ExecutionBackend):
    """One real OS process per simulated node; faults are real SIGKILLs."""

    name = "processes"
    aliases = ("process", "procs")
    summary = "one OS process per node, faults delivered as real SIGKILLs"
    takes_count = True
    supports_real_kill = True

    def available(self) -> Optional[str]:
        # Real kills need real processes — fork is the only hard
        # requirement.  Core count is deliberately NOT gated here: on a
        # 1-core box the backend is slower, not wrong (kills are still
        # real); only throughput-oriented layers (the service executor
        # gate, shardstudy's --require-speedup) care about cores.
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
                    n_shards=self.worker_count(engine), real_kill=True)


register(ProcessesBackend())
