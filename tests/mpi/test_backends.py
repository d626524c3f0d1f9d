"""The execution-backend registry: one source of truth for engines.

DESIGN.md §12: ``repro.mpi.backends`` owns the backend vocabulary —
spellings, capability flags, availability probes — and every other
layer (``Engine.run`` dispatch, the study CLIs' ``--engine``,
``service.JobSpec`` validation) derives from it.  These tests pin the
registry contents, the resolution semantics the old inline table
provided (so existing spellings keep working), the capability flags the
studies consult, that the deleted ``threads`` backend is refused with
the registry's own message everywhere, and the degrade-with-a-reason
path for a registered but unavailable backend.
"""

import threading

import pytest

from repro.mpi import run_job
from repro.mpi.backends import (
    BACKENDS, ExecutionBackend, backend_for, engine_choices, engine_help,
    resolve_backend, split_spec,
)
from repro.mpi.processes import ProcessesBackend


# ---------------------------------------------------------------------------
# Registry contents and resolution
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_two_backends_registered(self):
        assert engine_choices() == ["cooperative", "processes"]

    def test_every_backend_is_self_consistent(self):
        for name, b in BACKENDS.items():
            assert b.name == name
            assert isinstance(b, ExecutionBackend)
            assert b.summary  # folded into the shared --engine help

    def test_aliases_resolve_to_canonical(self):
        assert resolve_backend("coop") == "cooperative"
        assert resolve_backend("process") == "processes"
        assert resolve_backend("procs") == "processes"
        assert resolve_backend("PROCESSES") == "processes"

    def test_count_suffix_only_for_count_backends(self):
        assert resolve_backend("processes:2") == "processes:2"
        assert resolve_backend("procs:8") == "processes:8"
        with pytest.raises(ValueError, match="takes no ':N' suffix"):
            resolve_backend("coop:2")
        with pytest.raises(ValueError, match="bad worker count"):
            resolve_backend("processes:zero")

    def test_unknown_engine_message_names_known_backends(self):
        with pytest.raises(ValueError) as ei:
            resolve_backend("mpi4py")
        msg = str(ei.value)
        assert "unknown engine backend 'mpi4py'" in msg
        for name in engine_choices():
            assert name in msg

    def test_repro_engine_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "procs:3")
        assert resolve_backend(None) == "processes:3"
        monkeypatch.delenv("REPRO_ENGINE")
        assert resolve_backend(None) == "cooperative"

    def test_split_spec_and_backend_for(self):
        assert split_spec("processes:4") == ("processes", 4)
        assert split_spec("coop") == ("cooperative", None)
        assert backend_for("procs:2") is BACKENDS["processes"]
        assert backend_for(None) is BACKENDS["cooperative"]

    def test_engine_help_derives_from_registry(self):
        text = engine_help()
        for name in engine_choices():
            assert name in text
        assert "processes[:N]" in text


class TestCapabilityFlags:
    def test_oracle_is_simulated(self):
        coop = BACKENDS["cooperative"]
        assert not coop.supports_real_kill
        assert not coop.takes_count

    def test_sharded_flags(self):
        # "sharded" is a spelling of the processes engine, not a backend
        # of its own: it takes a count and its faults are real kills
        assert "sharded" not in BACKENDS
        sharded = backend_for("sharded:4")
        assert sharded is BACKENDS["processes"]
        assert sharded.takes_count
        assert sharded.supports_real_kill

    def test_processes_flags(self):
        procs = BACKENDS["processes"]
        assert procs.supports_real_kill
        assert procs.takes_count


# ---------------------------------------------------------------------------
# The deleted threads backend: refused with the registry's message (the
# study CLIs' exit 2 is pinned with the other CLI checks in
# test_processes.py)
# ---------------------------------------------------------------------------

_UNKNOWN_THREADS = "unknown engine backend 'threads'"


class TestThreadsRemoved:
    @pytest.mark.parametrize("spelling", ["threads", "threaded", "thread"])
    def test_resolve_backend_refuses_every_old_spelling(self, spelling):
        with pytest.raises(ValueError,
                           match=f"unknown engine backend '{spelling}'"):
            resolve_backend(spelling)

    def test_repro_engine_env_refused(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "threads")
        with pytest.raises(ValueError, match=_UNKNOWN_THREADS):
            resolve_backend(None)
        with pytest.raises(ValueError, match=_UNKNOWN_THREADS):
            run_job(2, lambda mpi: mpi.rank)

    def test_jobspec_refused(self):
        from repro.service import JobSpec

        with pytest.raises(ValueError, match=_UNKNOWN_THREADS):
            JobSpec(app="ring", engine="threads")


def _live_timers():
    return [t for t in threading.enumerate()
            if isinstance(t, threading.Timer) and t.is_alive()]


class TestWatchdogOwnership:
    def test_cooperative_never_arms_a_timer(self):
        before = len(_live_timers())
        result = run_job(2, lambda mpi: mpi.rank, engine="cooperative",
                         wall_timeout=30)
        result.raise_errors()
        assert len(_live_timers()) <= before


# ---------------------------------------------------------------------------
# Registered-but-unavailable: degrade with a clear reason
# ---------------------------------------------------------------------------

class TestUnavailableDegrade:
    def test_unavailable_backend_warns_and_completes(self, monkeypatch):
        monkeypatch.setattr(
            ProcessesBackend, "available",
            lambda self: "no fork on this platform (test)")
        with pytest.warns(RuntimeWarning,
                          match="'processes' is unavailable here "
                                r"\(no fork on this platform \(test\)\)"):
            result = run_job(2, lambda mpi: mpi.rank, engine="processes",
                             wall_timeout=30)
        result.raise_errors()
        # degraded to the oracle: correct results, no real kills
        assert result.returns == [0, 1]
        assert result.real_kills == []

    def test_available_backend_does_not_warn(self, recwarn):
        result = run_job(2, lambda mpi: mpi.rank, engine="processes",
                         wall_timeout=30)
        result.raise_errors()
        assert result.returns == [0, 1]
        assert not [w for w in recwarn.list
                    if issubclass(w.category, RuntimeWarning)]
