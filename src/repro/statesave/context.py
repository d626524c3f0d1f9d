"""Application context: checkpointable state + resumable control flow.

C3's precompiler rewrites a C program so that its variables are registered
with the runtime and execution can resume at a pragma after restart.  In
this Python reproduction, applications are written against (or rewritten
by :mod:`repro.precompiler` into) the :class:`Context` API:

* ``ctx.state`` — the checkpointable variable set (numpy arrays and
  scalars).  This is what a recovery line stores for the process.
* ``ctx.range(name, ...)`` — a resumable loop.  The loop counter lives in
  ``ctx.state``; after a restart the loop continues from the iteration
  the checkpoint was taken in.  **Place the checkpoint pragma as the
  first statement of the loop body** (equivalent to the paper's "bottom
  of the main loop" placement — the bottom of iteration *i* is the top of
  iteration *i+1*), so re-executing the current iteration from its top is
  exactly "resuming at the checkpointed location".
* ``ctx.first_time(name)`` / ``ctx.done(name)`` — replay guards for
  one-time setup sections (the analog of the program text *before* the
  resume jump target, which a restarted C3 program skips).
* ``ctx.checkpoint(force=...)`` — the ``#pragma ccc checkpoint`` site.
* ``ctx.comm`` — the communicator the application talks to.  Under C3 it
  is the protocol-wrapped communicator; in an original (non-fault-
  tolerant) run it is the runtime's ``COMM_WORLD`` itself.

The same application function therefore runs unmodified in three modes:
original, C3 without checkpoints, and C3 with checkpoint/restart.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, Optional

import numpy as np

from ..mpi.api import MPI
from .heap import SimHeap

class StateError(Exception):
    """Invalid use of the checkpointable state."""


def _phase_key(loop_name: str, phase_name: str) -> str:
    """Phase-marker state key.  The ``::`` delimiter cannot appear in a
    loop name, so clearing one loop's markers by prefix can never touch
    another loop whose name merely starts with this one's."""
    return f"__phase_{loop_name}::{phase_name}"


def _canonical_position(v: Any) -> Optional[tuple]:
    """A stored loop-completion token, canonicalized for comparison
    (serializer round-trips may turn tuples into lists)."""
    if v is None:
        return None
    try:
        return tuple((str(n), int(i)) for n, i in v)
    except (TypeError, ValueError):
        return None


def _value_nbytes(v: Any) -> int:
    """Approximate checkpoint payload bytes of one state value."""
    if isinstance(v, np.ndarray):
        return v.nbytes
    if isinstance(v, (bytes, bytearray, str)):
        return len(v)
    if isinstance(v, (list, tuple)):
        return sum(_value_nbytes(x) for x in v)
    if isinstance(v, dict):
        return sum(_value_nbytes(x) for x in v.values())
    return 16


class AppState:
    """Dict-like checkpointable variable set with attribute access.

    The variables are the instance ``__dict__`` itself, so reading one
    that exists is a plain attribute lookup.  A variable may therefore
    not take the name of a method (:data:`RESERVED`): it would hide the
    method, or the method would hide it.
    """

    def __init__(self, values: Optional[Dict[str, Any]] = None):
        if values:
            self.replace_all(values)

    # -- mapping protocol ----------------------------------------------------
    def __getitem__(self, name: str) -> Any:
        try:
            return self.__dict__[name]
        except KeyError:
            raise StateError(f"no state variable {name!r}") from None

    def __setitem__(self, name: str, value: Any) -> None:
        if name in RESERVED:
            raise _reserved(name)
        self.__dict__[name] = value

    def __delitem__(self, name: str) -> None:
        try:
            del self.__dict__[name]
        except KeyError:
            raise StateError(f"no state variable {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.__dict__

    def __iter__(self) -> Iterator[str]:
        return iter(self.__dict__)

    def __len__(self) -> int:
        return len(self.__dict__)

    def get(self, name: str, default: Any = None) -> Any:
        return self.__dict__.get(name, default)

    def setdefault(self, name: str, default: Any) -> Any:
        if name in RESERVED:
            raise _reserved(name)
        return self.__dict__.setdefault(name, default)

    # -- attribute sugar ------------------------------------------------------
    def __getattr__(self, name: str) -> Any:
        # reached only for a name that is not a variable
        raise AttributeError(f"no state variable {name!r}")

    __setattr__ = __setitem__

    # -- checkpoint plumbing -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return dict(self.__dict__)

    def replace_all(self, values: Dict[str, Any]) -> None:
        clash = RESERVED.intersection(values)
        if clash:
            raise _reserved(min(clash))
        self.__dict__.clear()
        self.__dict__.update(values)

    @property
    def nbytes(self) -> int:
        """Approximate payload bytes a checkpoint of this state would hold.

        Containers are counted recursively (instrumented kernels keep
        e.g. a list of per-level grids as one saved variable).
        """
        return sum(_value_nbytes(v) for v in self.__dict__.values())


#: names no state variable may take: :class:`AppState`'s own methods
RESERVED = frozenset(n for n in vars(AppState) if not n.startswith("_"))


def _reserved(name: str) -> StateError:
    return StateError(
        f"state variable {name!r} would shadow AppState.{name}; "
        f"reserved names: {sorted(RESERVED)}")


class Context:
    """Everything an instrumented application touches at runtime."""

    def __init__(self, mpi: MPI, comm=None,
                 pragma_hook: Optional[Callable[..., None]] = None):
        self.mpi = mpi
        self.comm = comm if comm is not None else mpi.COMM_WORLD
        self.state = AppState()
        self.heap = SimHeap(
            static_segment_bytes=mpi._ctx.machine.static_segment_bytes)
        self.restored = False
        self._pragma_hook = pragma_hook
        #: runtime stack of the named loops currently executing (rebuilt
        #: by re-execution after a restore; not part of the checkpoint)
        self._active_loops: list = []

    # -- identity ------------------------------------------------------------
    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def size(self) -> int:
        return self.comm.size

    # -- time accounting --------------------------------------------------------
    def compute(self, seconds: float) -> None:
        self.mpi.compute(seconds)

    def work(self, flops: float) -> None:
        self.mpi.work(flops)

    def now(self) -> float:
        return self.mpi.Wtime()

    # -- the pragma ----------------------------------------------------------------
    def checkpoint(self, force: bool = False) -> None:
        """``#pragma ccc checkpoint``.

        In an original run this is a no-op (the precompiler was not used);
        under C3 the installed hook runs the Figure-5 pragma logic: check
        control messages and start a checkpoint when forced, when the timer
        expired, or when another process initiated one.
        """
        if self._pragma_hook is not None:
            self._pragma_hook(force=force)

    # -- resumable control flow ------------------------------------------------------
    # Named loops carry two pieces of persisted state:
    #
    # * ``__loop_<name>`` — the live iteration counter.  The set of live
    #   counters at a checkpoint is exactly the loop-position stack: a
    #   restore resumes every enclosing marked loop at its saved index.
    # * ``__loopfin_<name>`` — a *completion token*: the enclosing loop
    #   position (tuple of (loop, index) pairs) at which the loop last
    #   ran to completion.  Post-restore re-execution that reaches the
    #   loop again *at that same position* skips it (it already ran
    #   before the checkpoint), while a new enclosing iteration — a
    #   fresh dynamic instance — runs it from the start.
    #
    # Every enclosing loop of a marked loop must itself be marked (the
    # precompiler enforces this), otherwise the enclosing position is
    # invisible to the token.

    def range(self, name: str, start: int, stop: Optional[int] = None,
              step: int = 1) -> Iterator[int]:
        """Resumable ``range``; the counter persists in ``ctx.state``."""
        if stop is None:
            start, stop = 0, start
        if step <= 0:
            raise StateError("ctx.range requires a positive step")
        key = f"__loop_{name}"
        self._check_not_running(name)
        enclosing = self._loop_position()
        if self._completed_here(name, key, enclosing):
            return
        i = int(self.state.get(key, start))
        self._active_loops.append(name)
        try:
            while i < stop:
                self.state[key] = i
                yield i
                # Re-read: the body may have been restored to a different epoch.
                i = int(self.state[key]) + step
        finally:
            self._exit_loop(name, enclosing)

    def while_range(self, name: str) -> Iterator[int]:
        """Resumable unbounded counter backing instrumented ``while`` loops.

        The precompiler rewrites ``# ccc: loop(w)`` + ``while cond:`` into
        ``for _ in ctx.while_range("w"): if not cond: break`` — the
        counter persists like :meth:`range`'s and the condition (over
        saved state) is re-evaluated at the top of every iteration.
        """
        key = f"__loop_{name}"
        self._check_not_running(name)
        enclosing = self._loop_position()
        if self._completed_here(name, key, enclosing):
            return
        i = int(self.state.get(key, 0))
        self._active_loops.append(name)
        try:
            while True:
                self.state[key] = i
                yield i
                i = int(self.state[key]) + 1
        finally:
            self._exit_loop(name, enclosing)

    def _check_not_running(self, name: str) -> None:
        """A loop name may not be re-entered while that loop still runs —
        the counter key would be shared between the two instances."""
        if name in self._active_loops:
            raise StateError(
                f"resumable loop {name!r} entered while already running "
                "(loop names must be unique)"
            )

    def _loop_position(self) -> tuple:
        """The current loop-position stack as ((name, index), ...)."""
        return tuple((n, int(self.state[f"__loop_{n}"]))
                     for n in self._active_loops)

    def _completed_here(self, name: str, key: str, enclosing: tuple) -> bool:
        """Did this loop already complete at this exact position?

        True only when the loop is not live (no counter to resume) and
        its completion token matches the current enclosing position —
        i.e. post-restore re-execution is passing over a loop that
        finished before the checkpoint was taken.
        """
        if key in self.state:
            return False
        return _canonical_position(self.state.get(f"__loopfin_{name}")) \
            == enclosing

    def _exit_loop(self, name: str, enclosing: tuple) -> None:
        """Leaving a loop (completion or ``break``): pop its counter and
        phase markers, record the completion token."""
        for idx in range(len(self._active_loops) - 1, -1, -1):
            if self._active_loops[idx] == name:
                del self._active_loops[idx]
                break
        key = f"__loop_{name}"
        if key in self.state:
            del self.state[key]
        prefix = _phase_key(name, "")
        for stale in [k for k in self.state if k.startswith(prefix)]:
            del self.state[stale]
        self.state[f"__loopfin_{name}"] = enclosing

    def first_time(self, name: str) -> bool:
        """True until :meth:`done` is called for ``name`` (survives restart)."""
        return not self.state.get(f"__done_{name}", False)

    def done(self, name: str) -> None:
        """Mark a one-time section complete."""
        self.state[f"__done_{name}"] = True

    def once(self, name: str, fn: Callable[[], Any]) -> None:
        """Run ``fn`` once per job lifetime (skipped after restart)."""
        if self.first_time(name):
            fn()
            self.done(name)

    # -- sub-iteration phases ----------------------------------------------------
    # A checkpoint pragma in the *middle* of a loop body resumes at the top
    # of the interrupted iteration; phase guards skip the already-executed
    # first part.  This is the Python analog of C3 resuming at a mid-loop
    # pragma location.  Mixed placements across ranks are exactly what the
    # coordination protocol's late/early machinery makes consistent.
    def phase_pending(self, loop_name: str, phase_name: str) -> bool:
        """Has this phase NOT yet run in the current iteration of the loop?"""
        loop_key = f"__loop_{loop_name}"
        if loop_key not in self.state:
            raise StateError(f"phase guard outside ctx.range({loop_name!r})")
        cur = int(self.state[loop_key])
        marker = self.state.get(_phase_key(loop_name, phase_name), -1)
        return int(marker) < cur

    def phase_done(self, loop_name: str, phase_name: str) -> None:
        """Mark the phase complete for the current iteration."""
        cur = int(self.state[f"__loop_{loop_name}"])
        self.state[_phase_key(loop_name, phase_name)] = cur

    # -- checkpoint plumbing (used by the C3 layer) --------------------------------------
    def snapshot_state(self) -> dict:
        return {
            "state": self.state.to_dict(),
            "heap": self.heap.snapshot(),
        }

    def restore_state(self, snap: dict) -> None:
        self.state.replace_all(snap["state"])
        self.heap = SimHeap.from_snapshot(snap["heap"])
        self.restored = True

    @property
    def checkpoint_bytes(self) -> int:
        """Application-state bytes a checkpoint would save (live data only)."""
        return self.state.nbytes + self.heap.live_bytes
