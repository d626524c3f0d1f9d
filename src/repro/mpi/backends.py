"""Pluggable execution backends behind one registry.

``Engine`` used to dispatch its launch paths through an inline
``if/elif`` over backend-name strings, with the spelling table and the
per-study ``--engine`` help text each keeping a private copy of the
backend vocabulary.  This module is the single source of truth instead:

* :class:`ExecutionBackend` — the interface one backend implements:
  its canonical name and accepted spellings, the ``takes_count`` and
  ``supports_real_kill`` flags, an :meth:`~ExecutionBackend.available`
  environment probe, and the :meth:`~ExecutionBackend.launch` path that
  actually runs rank bodies.
* :data:`BACKENDS` / :func:`register` — the registry.  ``harness.jobs``
  derives the ``--engine`` CLI validation and help text from it, and
  ``service.JobSpec`` validates submissions against it, so an unknown
  spelling produces the same error message everywhere.
* :func:`resolve_backend` — spelling -> canonical spec (previously in
  :mod:`repro.mpi.engine`; re-exported there for compatibility).
  Backends with ``takes_count`` accept a ``":N"`` suffix
  (``"processes:2"``).

The two registered backends are ``cooperative`` (deterministic fiber
scheduler, the oracle) and ``processes[:N]`` (real OS processes with
real SIGKILL fault delivery and recovery from shared stable storage,
DESIGN.md §12 — defined in :mod:`repro.mpi.processes`; ``sharded[:N]``
is one of its spellings).  Both run ranks on the cooperative
scheduler; ``processes`` runs one scheduler loop per forked worker.
"""

from __future__ import annotations

import os
import warnings
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "BACKENDS", "ExecutionBackend", "backend_for", "engine_choices",
    "engine_help", "register", "resolve_backend", "split_spec",
]


class ExecutionBackend:
    """One way of executing a job's rank bodies.

    Subclasses implement :meth:`launch`; everything else — availability
    fallback, capability introspection — is shared.  Backends are
    stateless singletons: per-run state lives on the
    :class:`~repro.mpi.engine.Engine`.
    """

    #: canonical name (also the registry key)
    name: str = ""
    #: accepted ``engine=`` spellings besides the canonical name
    aliases: Tuple[str, ...] = ()
    #: accepts a ``":N"`` worker-count suffix (``"processes:8"``)
    takes_count: bool = False
    #: one-line summary, folded into the shared ``--engine`` help text
    summary: str = ""
    #: fault specs are delivered as actual SIGKILLs to OS processes;
    #: fault-injected jobs therefore need stable storage that survives
    #: the process (a disk-backed store)
    supports_real_kill: bool = False

    def available(self) -> Optional[str]:
        """``None`` if the backend can run here, else a reason string.

        ``Engine.run`` degrades an unavailable backend to the
        cooperative oracle with a :class:`RuntimeWarning` naming the
        reason, instead of failing the job.
        """
        return None

    def launch(self, engine, body: Callable[[int], None], timeout: float,
               errors: List[Tuple[int, str]], returns: List[Any]) -> None:
        """Run ``body(rank)`` for every rank, mutating state in place."""
        raise NotImplementedError


#: canonical name -> backend singleton, in registration order
BACKENDS: Dict[str, ExecutionBackend] = {}
#: every accepted spelling -> canonical name
_ALIASES: Dict[str, str] = {}


def register(backend: ExecutionBackend) -> ExecutionBackend:
    """Add a backend to the registry (its class is also usable as a
    decorator target: ``register(MyBackend())``)."""
    if not backend.name:
        raise ValueError("backend needs a canonical name")
    BACKENDS[backend.name] = backend
    _ALIASES[backend.name] = backend.name
    for alias in backend.aliases:
        _ALIASES[alias] = backend.name
    return backend


def resolve_backend(name: Optional[str]) -> str:
    """Canonical backend spec: explicit arg > ``REPRO_ENGINE`` > default.

    Count-taking backends accept a worker-count suffix —
    ``"processes:2"`` packs the simulated nodes into 2 OS processes
    (always clamped to the simulated node count).
    """
    if name is None:
        name = os.environ.get("REPRO_ENGINE") or "cooperative"
    text = str(name).lower()
    base, sep, count = text.partition(":")
    backend = _ALIASES.get(base)
    if backend is None:
        raise ValueError(
            f"unknown engine backend {name!r}; "
            f"known: {sorted(set(_ALIASES))}")
    if sep:
        if not BACKENDS[backend].takes_count:
            raise ValueError(
                f"engine backend {base!r} takes no ':N' suffix ({name!r})")
        if not count.isdigit() or int(count) < 1:
            raise ValueError(f"bad worker count in engine spec {name!r}")
        return f"{backend}:{int(count)}"
    return backend


def split_spec(spec: Optional[str]) -> Tuple[str, Optional[int]]:
    """A resolved spec -> ``(canonical name, worker count or None)``."""
    base, _sep, count = resolve_backend(spec).partition(":")
    return base, (int(count) if count else None)


def backend_for(spec: Optional[str]) -> ExecutionBackend:
    """The registered backend a (possibly aliased) spec names."""
    return BACKENDS[split_spec(spec)[0]]


def engine_choices() -> List[str]:
    """Canonical backend names, registration order (CLI help/docs)."""
    return list(BACKENDS)


def engine_help(default: str = "the cooperative scheduler") -> str:
    """The shared ``--engine`` help text, derived from the registry."""
    parts = []
    for b in BACKENDS.values():
        spec = f"{b.name}[:N]" if b.takes_count else b.name
        parts.append(f"{spec} ({b.summary})" if b.summary else spec)
    return (f"execution backend: {', '.join(parts)} "
            f"(default: {default}, or REPRO_ENGINE)")


def warn_unavailable(backend: ExecutionBackend, reason: str) -> None:
    """The single degraded-mode message for an unavailable backend."""
    warnings.warn(
        f"engine backend {backend.name!r} is unavailable here ({reason}); "
        f"falling back to the cooperative scheduler — faults will be "
        f"simulated unwinds, not real kills",
        RuntimeWarning, stacklevel=3)


# ---------------------------------------------------------------------------
# The built-in backends
# ---------------------------------------------------------------------------

class CooperativeBackend(ExecutionBackend):
    """Deterministic rank fibers under one run loop (the oracle).

    The scheduling step checks the wall deadline between switches and
    detects true deadlocks (all ranks blocked, no predicate true)
    instantly.
    """

    name = "cooperative"
    aliases = ("coop",)
    summary = "deterministic fiber scheduler, the oracle"

    def launch(self, engine, body, timeout, errors, returns) -> None:
        engine._run_cooperative(body, errors)


register(CooperativeBackend())

# The processes backend lives in its own module (it is a subsystem, not
# a dispatch arm); importing it registers it.  Import last so it can
# subclass ExecutionBackend and call register() at module load.
from . import processes as _processes  # noqa: E402,F401  (registers)
