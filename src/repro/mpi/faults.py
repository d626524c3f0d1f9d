"""Fail-stop fault injection.

The paper's fault model (footnote 1) is fail-stop: a failing processor
simply stops; it never sends erroneous messages.  A :class:`FaultPlan`
schedules fail-stop faults on chosen ranks.  Eight trigger kinds
(:data:`TRIGGER_FIELDS`) cover the scenario space of the recovery
campaign (``repro.harness.campaign``), delivered three ways:

* per operation, by :meth:`FaultPlan.check` on entry to every MPI call:
  ``after_ops`` (the rank's N-th MPI operation) and ``probability``
  (independently at each operation, with a seeded RNG so runs are
  repeatable);
* by virtual time: ``at_time`` fires once any rank's virtual clock
  passes the time, delivered event-driven by the engine's
  :class:`~repro.mpi.engine.VirtualTimeFaultScheduler`;
* at a structural window (:data:`WINDOW_FIELDS`), by
  :meth:`FaultPlan.reached`, which the layer owning the window calls
  through ``RankContext.fault_point(window, n)``:

  - ``at_epoch`` — the instant the rank advances to checkpoint epoch N
    (``chkpt_StartCheckpoint`` has moved the epoch but nothing of the
    new line is committed yet): the kill-at-epoch-boundary scenario;
  - ``in_collective`` — at the first internal message of the rank's
    N-th collective operation, mid-exchange, so the surviving peers are
    left blocked inside the collective;
  - ``in_drain`` / ``at_commit`` — while line N is still draining to
    the node disk, or the instant it is durable and before its COMMIT
    marker is written;
  - ``at_group_commit`` — right after the rank's COMMIT record for line
    N is staged in its node's WAL buffer (WAL stores only).

A triggered fault raises :class:`~repro.mpi.errors.ProcessFailure`
inside the rank's thread, the engine marks the job failed, and all
surviving ranks unwind with :class:`~repro.mpi.errors.JobAborted` —
which is how the peers "detect" the failure.  The restart harness then
relaunches the job from the last committed recovery line.

A plan may hold many specs (across ranks and kinds); specs that already
fired never fire again, so a restart loop over a multi-fault schedule
converges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import ProcessFailure

#: trigger fields of :class:`FaultSpec`, in priority order for
#: :meth:`FaultSpec.kind` — also the schema of the JSON schedule codec
TRIGGER_FIELDS = ("after_ops", "at_time", "probability", "at_epoch",
                  "in_collective", "in_drain", "at_commit",
                  "at_group_commit")

#: the structural windows: a spec fires when its rank reaches window N
#: (an epoch, a collective, a recovery-line version), reported through
#: :meth:`FaultPlan.reached`
WINDOW_FIELDS = TRIGGER_FIELDS[3:]

#: :meth:`FaultSpec.describe` wording per trigger
_DESCRIBE = {
    "after_ops": "after {} ops", "at_time": "at t={:.6g}s",
    "probability": "p={:g}/op", "at_epoch": "at epoch {}",
    "in_collective": "in collective #{}", "in_drain": "in drain of line {}",
    "at_commit": "at commit of line {}",
    "at_group_commit": "at group commit of line {}",
}


@dataclass
class FaultSpec:
    """One scheduled fail-stop fault."""

    rank: int
    #: fire when the rank has performed this many MPI operations
    after_ops: Optional[int] = None
    #: fire once any rank's virtual clock passes this time (seconds)
    at_time: Optional[float] = None
    #: fire independently at each operation with this probability
    probability: float = 0.0
    #: fire the moment the rank advances to this checkpoint epoch
    at_epoch: Optional[int] = None
    #: fire inside the rank's N-th collective operation (1-based)
    in_collective: Optional[int] = None
    #: fire while recovery line N is draining to the node disk (sections
    #: staged by the overlapped write-back pipeline, COMMIT not yet
    #: written): the kill-mid-drain scenario — the line must be rejected
    #: as torn at restore
    in_drain: Optional[int] = None
    #: fire the instant line N's staged bytes become durable, right
    #: before its COMMIT marker would be written: the kill-mid-commit
    #: scenario — the narrowest tear window of the commit pipeline
    at_commit: Optional[int] = None
    #: fire right after the rank's COMMIT record for line N has been
    #: staged into its node's WAL buffer, before the group-commit flush
    #: decision: the kill-mid-group-commit scenario — the record is torn
    #: out of the log tail, so replay must truncate and recovery fall
    #: back (WAL stores only; scatter stores never report this window)
    at_group_commit: Optional[int] = None
    reason: str = "injected fail-stop fault"

    #: identity-based fired flag (not a dataclass field: two equal specs
    #: in one plan fire independently, and equality stays trigger-only)
    _fired = False

    def __post_init__(self) -> None:
        if not self.triggers():
            raise ValueError("FaultSpec needs a trigger, one of "
                             + ", ".join(TRIGGER_FIELDS))
        # line versions and collective indices count from 1
        for name in WINDOW_FIELDS[1:]:
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} is 1-based, not {value!r}")

    def triggers(self) -> List[str]:
        """The set trigger fields, in :data:`TRIGGER_FIELDS` order."""
        return [name for name in TRIGGER_FIELDS
                if (self.probability > 0 if name == "probability"
                    else getattr(self, name) is not None)]

    def describe(self) -> str:
        """Human-readable trigger summary for campaign reports."""
        return f"rank {self.rank}: " + ", ".join(
            _DESCRIBE[name].format(getattr(self, name))
            for name in self.triggers())

    def kind(self) -> str:
        """Name of the spec's primary trigger (its fault-window class)."""
        return self.triggers()[0]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form: only the rank and the set triggers.

        The codec round-trips exactly — ``FaultSpec.from_dict(s.to_dict())
        == s`` — so fuzz schedules and corpus repros can carry specs as
        plain JSON objects.
        """
        out: Dict[str, Any] = {"rank": self.rank}
        for name in self.triggers():
            out[name] = getattr(self, name)
        if self.reason != "injected fail-stop fault":
            out["reason"] = self.reason
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSpec":
        """Inverse of :meth:`to_dict`; unknown keys raise ``ValueError``."""
        allowed = {f.name for f in fields(cls)}
        bad = sorted(set(data) - allowed)
        if bad:
            raise ValueError(f"unknown FaultSpec fields: {bad}")
        return cls(**data)


class FaultPlan:
    """A set of fault specs plus the seeded RNG for probabilistic faults."""

    #: real-kill delivery hook (class default None = simulated faults).
    #: A backend with ``supports_real_kill`` sets this on its forked
    #: child's plan copy to a ``hook(spec, rank, now)`` that SIGKILLs
    #: the process at the fire site — no Python unwind happens at all.
    _kill_hook = None

    def __init__(self, specs: Optional[List[FaultSpec]] = None, seed: int = 0):
        self.specs: Dict[int, List[FaultSpec]] = {}
        for spec in specs or []:
            self.specs.setdefault(spec.rank, []).append(spec)
        self._rng = random.Random(seed)
        self.fired: List[FaultSpec] = []

    @classmethod
    def none(cls) -> "FaultPlan":
        return cls([])

    @classmethod
    def staggered(cls, kills: Sequence[Tuple[int, float]],
                  reason: str = "staggered fail-stop") -> "FaultPlan":
        """Multi-fault schedule: ``(rank, at_time)`` kills in sequence.

        Each restart resets virtual clocks to zero, so later triggers are
        relative to the *restarted* run — a schedule of increasing times
        therefore kills once per execution until the times run out.
        """
        return cls([FaultSpec(rank=r, at_time=t, reason=reason)
                    for r, t in kills])

    def add(self, spec: FaultSpec) -> None:
        self.specs.setdefault(spec.rank, []).append(spec)

    def all_specs(self) -> Iterable[FaultSpec]:
        for specs in self.specs.values():
            yield from specs

    def unfired(self) -> List[FaultSpec]:
        return [s for s in self.all_specs() if not s._fired]

    def rearm(self) -> None:
        """Forget firing history: every spec becomes eligible again."""
        for spec in self.all_specs():
            spec._fired = False
        self.fired.clear()

    def mark_fired(self, spec: FaultSpec) -> bool:
        """Record that ``spec`` fired; False if it had already fired.

        Firing is tracked per spec *instance* (not by value), so a plan
        holding two identical specs fires each exactly once — e.g. two
        kills of the same rank at the same epoch hit the original run and
        the restarted run.
        """
        if spec._fired:
            return False
        spec._fired = True
        self.fired.append(spec)
        return True

    def _fire(self, spec: FaultSpec, rank: int, now: float) -> None:
        self.mark_fired(spec)
        self.deliver(spec, rank, now)

    def deliver(self, spec: FaultSpec, rank: int, now: float) -> None:
        """Deliver an already-marked fault on the victim's own thread.

        Simulated engines raise :class:`ProcessFailure` (the fail-stop
        unwind).  Under a real-kill backend the hook SIGKILLs the whole
        OS process at this exact point and never returns — the raise
        below is then only the mypy-visible fallback.
        """
        if self._kill_hook is not None:
            self._kill_hook(spec, rank, now)
        raise ProcessFailure(rank, now, spec.reason)

    def check(self, rank: int, op_count: int, now: float) -> None:
        """Per-operation check point: ``after_ops`` and ``probability``."""
        for spec in self.specs.get(rank, ()):
            if spec._fired:
                continue
            hit = False
            if spec.after_ops is not None and op_count >= spec.after_ops:
                hit = True
            if spec.probability > 0 and self._rng.random() < spec.probability:
                hit = True
            if hit:
                self._fire(spec, rank, now)

    def reached(self, rank: int, window: str, n: int, now: float) -> None:
        """Window check point: ``rank`` has reached ``window`` number ``n``.

        ``window`` is one of :data:`WINDOW_FIELDS`; every unfired spec of
        the rank whose trigger on that window is at most ``n`` fires.
        """
        for spec in self.specs.get(rank, ()):
            if spec._fired:
                continue
            at = getattr(spec, window)
            if at is not None and n >= at:
                self._fire(spec, rank, now)

    def __bool__(self) -> bool:
        return bool(self.specs)
