"""Outside-in tracer: wrap the layers' public seams for one traced pass.

Nothing under ``src/`` is edited.  :func:`traced` replaces the public
functions listed in :func:`seams` with wrappers that append
``(time, thread, span, value)`` events to one in-memory list, runs the
pass, and puts every original back (also when the pass raises).  The
events are reduced afterwards by :func:`attribute`.

Why a global timeline and not "span duration minus children": a rank
blocked in ``CooperativeScheduler.wait`` contains every *other* rank's
execution, so per-span subtraction reports several seconds of ``wait``
self-time in a one-second run.  Exactly one fiber runs at a time, so the
interval between two consecutive events — whichever threads emitted them
— belongs to one layer: the one on top of the stack of the thread that
emitted the *later* event (that thread is the one that was running when
the interval ended).  A fiber resuming from ``wait``/``yield_now`` emits
the exit of that span, so the whole park -> run-loop -> resume gap lands
in ``mpi.scheduler``; a fiber's first event charges the gap before it
(carrier start-up, first switch) to ``mpi.scheduler`` as well.  The
self-times therefore partition the traced wall exactly.

Limits, stated rather than hidden: forked ``sharded`` workers inherit the
wrappers but their events die with them, so on ``shard-256`` only the
master's spans are seen (its blocked time shows as ``mpi.engine``); with
two service executor threads interleaving under the GIL an interval is
charged to the thread that ends it, which is approximate.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: the fifteen layers ``self_s`` is reported for (module names of
#: ``src/repro``; ``app`` is rank-body time outside every wrapped layer)
LAYERS = (
    "harness", "mpi.engine", "mpi.scheduler", "mpi.communicator",
    "mpi.matching", "mpi.datatypes", "mpi.collectives", "core.protocol",
    "core.collectives", "core.checkpoint", "statesave", "storage.store",
    "storage.stable", "service", "app",
)

_get_ident = threading.get_ident


class Tracer:
    """Event sink plus the span-name table."""

    def __init__(self) -> None:
        #: (perf_counter, thread ident, code, value); ``code >= 0`` enters
        #: span ``code``, ``code < 0`` exits span ``~code``
        self.events: List[Tuple[float, int, int, float]] = []
        #: span id -> (name, layer, layer charged for the gap that ends
        #: when this span opens on an empty stack)
        self.spans: List[Tuple[str, str, str]] = []
        self._ids: Dict[str, int] = {}
        #: counts that are not span-shaped (async calls, program counters
        #: read off objects at seam exits)
        self.counters: Dict[str, float] = defaultdict(float)
        #: objects created during the pass whose own counters are read
        #: when it ends (``C3Stats``, WAL stores, storage backends)
        self.tracked: Dict[str, List[Any]] = defaultdict(list)

    def span_id(self, name: str, layer: str,
                gap_layer: Optional[str] = None) -> int:
        sid = self._ids.get(name)
        if sid is None:
            if layer not in LAYERS:
                raise ValueError(f"unknown layer {layer!r} for span {name!r}")
            sid = self._ids[name] = len(self.spans)
            self.spans.append((name, layer, gap_layer or layer))
        return sid

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        """A span opened by the benchmark itself (the per-unit root)."""
        sid = self.span_id(name, layer)
        self.events.append((perf_counter(), _get_ident(), sid, 0))
        try:
            yield
        finally:
            self.events.append((perf_counter(), _get_ident(), ~sid, 0))

    def wrap(self, fn: Callable, name: str, layer: str,
             size: Optional[Callable[[tuple, Any], float]] = None,
             after: Optional[Callable[[tuple, Any], None]] = None,
             ) -> Callable:
        """``fn`` with an enter/exit event around every call.

        ``size(args, result)`` becomes the exit event's value (bytes
        moved); ``after(args, result)`` runs on normal return (reads the
        program's own counters off the objects involved).
        """
        sid = self.span_id(name, layer)
        events = self.events

        def wrapper(*args, **kwargs):
            events.append((perf_counter(), _get_ident(), sid, 0))
            value = 0
            try:
                result = fn(*args, **kwargs)
                if size is not None:
                    value = size(args, result)
                if after is not None:
                    after(args, result)
                return result
            finally:
                events.append((perf_counter(), _get_ident(), ~sid, value))

        functools.update_wrapper(wrapper, fn)
        return wrapper

    # -- the two seams whose wrappers are not span-shaped ---------------------

    def wrap_scheduler_run(self, fn: Callable) -> Callable:
        """``CooperativeScheduler.run``: also brackets every fiber body,
        so rank code outside all wrapped layers is ``app`` and the gap
        before a fiber's first instruction is scheduler hand-off."""
        run_sid = self.span_id("CooperativeScheduler.run", "mpi.scheduler")
        fiber_sid = self.span_id("fiber", "app", gap_layer="mpi.scheduler")
        events, counters = self.events, self.counters

        def run(sched, body, *args, **kwargs):
            def traced_body(rank):
                events.append((perf_counter(), _get_ident(), fiber_sid, 0))
                try:
                    return body(rank)
                finally:
                    events.append((perf_counter(), _get_ident(),
                                   ~fiber_sid, 0))

            events.append((perf_counter(), _get_ident(), run_sid, 0))
            try:
                return fn(sched, traced_body, *args, **kwargs)
            finally:
                counters["mpi.scheduler.switches"] += sched.switches
                events.append((perf_counter(), _get_ident(), ~run_sid, 0))

        functools.update_wrapper(run, fn)
        return run

    def wrap_async(self, fn: Callable, name: str) -> Callable:
        """A coroutine seam: calls and inclusive seconds only.  Coroutines
        interleave on one thread, so they cannot sit on its span stack."""
        counters = self.counters

        async def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                counters[f"{name}.calls"] += 1
                counters[f"{name}.s"] += perf_counter() - t0

        functools.update_wrapper(wrapper, fn)
        return wrapper


# ---------------------------------------------------------------------------
# The seam table
# ---------------------------------------------------------------------------

@dataclass
class Seam:
    owner: Any              # class or module object holding the attribute
    attr: str
    layer: str
    size: Optional[Callable[[tuple, Any], float]] = None
    after: Optional[Callable[[tuple, Any], None]] = None
    kind: str = "span"      # "span" | "scheduler_run" | "async"

    @property
    def name(self) -> str:
        owner = getattr(self.owner, "__qualname__", None) \
            or self.owner.__name__.replace("repro.", "")
        return f"{owner}.{self.attr}"


def _public_functions(owner: Any) -> List[str]:
    """Public plain functions defined *on* ``owner`` (not inherited)."""
    return [name for name, value in vars(owner).items()
            if not name.startswith("_") and inspect.isfunction(value)
            and value.__module__ == getattr(owner, "__module__",
                                            getattr(owner, "__name__", None))]


def seams(tracer: Tracer) -> List[Seam]:
    """Every public seam that exists today, with the layer it belongs to."""
    from repro import service
    from repro.core import ccc, checkpoint, collectives as c3coll
    from repro.core.protocol import C3Protocol
    from repro.harness import campaign, runner, scaling
    from repro.mpi import collectives as coll
    from repro.mpi.communicator import Communicator
    from repro.mpi.datatypes import Datatype
    from repro.mpi.engine import Engine
    from repro.mpi.matching import Mailbox
    from repro.mpi.requests import Request
    from repro.mpi.scheduler import CooperativeScheduler
    from repro.statesave.checkpointfile import (
        CheckpointReader, CheckpointWriter,
    )
    from repro.statesave.serializer import Serializer
    from repro.storage.stable import DiskStorage, InMemoryStorage
    from repro.storage.store import CheckpointStore, ScatterStore
    from repro.storage.wal import WalStore

    counters, tracked = tracer.counters, tracer.tracked

    def job_done(_args, result) -> None:
        counters["mpi.engine.launches"] += 1
        counters["mpi.engine.msgs"] += sum(result.sent_counts)
        counters["mpi.engine.msg_bytes"] += sum(result.sent_bytes)

    def track(kind: str, attr: Optional[str] = None):
        def after(args, _result) -> None:
            obj = args[0]
            tracked[kind].append(getattr(obj, attr) if attr else obj)
        return after

    def result_len(_args, result) -> int:
        return len(result)

    def arg_len(index: int):
        return lambda args, _result: len(args[index])

    out = [
        Seam(Engine, "run", "mpi.engine", after=job_done),
        Seam(CooperativeScheduler, "run", "mpi.scheduler",
             kind="scheduler_run"),
        Seam(CooperativeScheduler, "wait", "mpi.scheduler"),
        Seam(CooperativeScheduler, "yield_now", "mpi.scheduler"),
        Seam(Mailbox, "deliver", "mpi.matching"),
        Seam(Mailbox, "post", "mpi.matching"),
        Seam(Datatype, "pack", "mpi.datatypes", size=result_len),
        Seam(Datatype, "unpack", "mpi.datatypes", size=arg_len(1)),
        Seam(Request, "wait", "mpi.communicator"),
        Seam(Request, "test", "mpi.communicator"),
        Seam(C3Protocol, "__init__", "core.protocol",
             after=track("c3stats", "stats")),
        Seam(checkpoint, "start_checkpoint", "core.checkpoint"),
        Seam(checkpoint, "commit_checkpoint", "core.checkpoint"),
        Seam(checkpoint, "restore_checkpoint", "core.checkpoint"),
        Seam(Serializer, "dumps", "statesave", size=result_len),
        Seam(Serializer, "loads", "statesave", size=arg_len(1)),
        Seam(CheckpointWriter, "save", "statesave"),
        Seam(CheckpointWriter, "commit", "statesave"),
        Seam(CheckpointReader, "load", "statesave"),
        Seam(WalStore, "__init__", "storage.store", after=track("wal")),
        Seam(DiskStorage, "__init__", "storage.stable",
             after=track("backend")),
        Seam(InMemoryStorage, "__init__", "storage.stable",
             after=track("backend")),
        Seam(runner, "measure_recovery", "harness"),
        Seam(runner, "measure_c3", "harness"),
        Seam(runner, "measure_original", "harness"),
        Seam(campaign, "run_campaign", "harness"),
        Seam(scaling, "measure_scaling_point", "harness"),
        Seam(ccc, "resume_from_manifest", "harness"),
        Seam(service, "execute_job", "service"),
        # the event-loop thread's only seams: without them its work
        # between two jobs would be charged to whichever executor
        # thread emits the next event
        Seam(service, "canonical_result_bytes", "service", size=result_len),
        Seam(service.ResultCache, "get", "service"),
        Seam(service.ResultCache, "put", "service"),
        Seam(service.CampaignService, "submit", "service", kind="async"),
    ]
    for name in ("Send", "send_packed", "Isend", "Recv", "Irecv", "Sendrecv",
                 "Iprobe", "Probe", "recv_out_of_band"):
        out.append(Seam(Communicator, name, "mpi.communicator"))
    for name in ("send", "recv", "isend", "irecv", "wait", "test", "waitall",
                 "waitany", "waitsome", "pragma", "finalize"):
        out.append(Seam(C3Protocol, name, "core.protocol"))
    out += [Seam(coll, name, "mpi.collectives")
            for name in _public_functions(coll)]
    out += [Seam(c3coll, name, "core.collectives")
            for name in _public_functions(c3coll)]
    put_bytes = arg_len(4)          # put_section(self, version, rank, section, payload)
    for cls in (CheckpointStore, WalStore, ScatterStore):
        out += [Seam(cls, name, "storage.store",
                     size=put_bytes if name == "put_section" else None)
                for name in _public_functions(cls)]
    data_bytes = arg_len(2)         # write/append(self, path, data)
    for cls in (DiskStorage, InMemoryStorage):
        for name in _public_functions(cls):
            size = data_bytes if name in ("write", "append") else (
                result_len if name in ("read", "read_range") else None)
            out.append(Seam(cls, name, "storage.stable", size=size))
    return out


# ---------------------------------------------------------------------------
# Installing and restoring
# ---------------------------------------------------------------------------

def _bound_functions() -> Dict[int, List[Tuple[Any, str]]]:
    """``id(function)`` -> every ``repro`` module attribute bound to it.

    A ``from x import name`` makes a second binding that must be patched
    too (e.g. ``repro.core.ccc.restore_checkpoint``).
    """
    index: Dict[int, List[Tuple[Any, str]]] = defaultdict(list)
    for modname, module in list(sys.modules.items()):
        if module is not None and (modname == "repro"
                                   or modname.startswith("repro.")):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value):
                    index[id(value)].append((module, attr))
    return index


def install(tracer: Tracer) -> List[Tuple[Any, str, Any]]:
    """Patch every seam; returns ``(owner, attr, original)`` undo records."""
    undo: List[Tuple[Any, str, Any]] = []
    try:
        table = seams(tracer)       # imports the program: index after it
        bound = _bound_functions()
        for seam in table:
            original = vars(seam.owner)[seam.attr]
            if seam.kind == "scheduler_run":
                wrapper = tracer.wrap_scheduler_run(original)
            elif seam.kind == "async":
                wrapper = tracer.wrap_async(original, seam.name)
            else:
                wrapper = tracer.wrap(original, seam.name, seam.layer,
                                      size=seam.size, after=seam.after)
            targets = (bound[id(original)] if inspect.ismodule(seam.owner)
                       else [(seam.owner, seam.attr)])
            for owner, attr in targets:
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
    except BaseException:
        restore(undo)
        raise
    return undo


def restore(undo: List[Tuple[Any, str, Any]]) -> None:
    while undo:
        owner, attr, original = undo.pop()
        setattr(owner, attr, original)


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Seams wrapped inside the block, originals back after it."""
    undo = install(tracer)
    try:
        yield tracer
    finally:
        restore(undo)


# ---------------------------------------------------------------------------
# Timeline attribution
# ---------------------------------------------------------------------------

@dataclass
class Attribution:
    wall_s: float = 0.0
    #: layer -> seconds; partitions ``wall_s``
    self_s: Dict[str, float] = field(default_factory=dict)
    #: span name -> completed calls / inclusive seconds / Σ exit values
    calls: Dict[str, int] = field(default_factory=dict)
    inclusive_s: Dict[str, float] = field(default_factory=dict)
    values: Dict[str, float] = field(default_factory=dict)
    #: thread-to-thread gaps charged to ``mpi.scheduler``
    handoffs: int = 0
    handoff_s: float = 0.0
    #: (name, layer, start, end, parent index or -1, unit, thread) when
    #: ``keep_spans`` was asked for
    span_records: List[tuple] = field(default_factory=list)


def attribute(events: List[Tuple[float, int, int, float]],
              spans: List[Tuple[str, str, str]],
              keep_spans: bool = False) -> Attribution:
    """Reduce one pass's events on a single global timeline.

    The gap that ends when a ``unit:`` root span opens is the benchmark's
    own time between two units (fresh directories, ``gc.collect``); it is
    left out of both the self-times and ``wall_s``.
    """
    out = Attribution(self_s={layer: 0.0 for layer in LAYERS})
    if not events:
        return out
    if any(events[i][0] > events[i + 1][0] for i in range(len(events) - 1)):
        # two threads can race between reading the clock and appending
        events = sorted(events, key=lambda e: e[0])
    self_s = out.self_s
    calls: Dict[int, int] = defaultdict(int)
    incl: Dict[int, float] = defaultdict(float)
    vals: Dict[int, float] = defaultdict(float)
    stacks: Dict[int, List[Tuple[int, float, int]]] = {}
    prev_t, prev_tid = events[0][0], events[0][1]
    unit = ""
    between_units = 0.0
    for t, tid, code, value in events:
        stack = stacks.get(tid)
        if stack is None:
            stack = stacks[tid] = []
        gap = t - prev_t
        if stack:
            layer = spans[stack[-1][0]][1]
        elif code >= 0 and not spans[code][0].startswith("unit:"):
            layer = spans[code][2]
        else:
            layer = None
            between_units += gap
        if layer is not None:
            self_s[layer] += gap
            if tid != prev_tid and layer == "mpi.scheduler":
                out.handoffs += 1
                out.handoff_s += gap
        if code >= 0:
            index = -1
            if keep_spans:
                name, span_layer, _gap = spans[code]
                if name.startswith("unit:"):
                    unit = name[5:]
                index = len(out.span_records)
                parent = stack[-1][2] if stack else -1
                out.span_records.append(
                    [name, span_layer, t, None, parent, unit, tid])
            stack.append((code, t, index))
        elif stack and stack[-1][0] == ~code:
            sid, t0, index = stack.pop()
            calls[sid] += 1
            incl[sid] += t - t0
            vals[sid] += value
            if index >= 0:
                out.span_records[index][3] = t
        prev_t, prev_tid = t, tid
    out.wall_s = events[-1][0] - events[0][0] - between_units
    for sid, (name, _layer, _gap) in enumerate(spans):
        out.calls[name] = calls.get(sid, 0)
        out.inclusive_s[name] = incl.get(sid, 0.0)
        out.values[name] = vals.get(sid, 0.0)
    return out


def write_spans(path: str, attribution: Attribution) -> None:
    """``--trace-out``: every recorded span, written once at the end."""
    keys = ("name", "layer", "start", "end", "parent", "unit", "thread")
    with open(path, "w") as f:
        json.dump({"spans": [dict(zip(keys, rec))
                             for rec in attribution.span_records]}, f)
