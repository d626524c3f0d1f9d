"""The engine switch: one spelling table, two engines.

DESIGN.md §12.1: :func:`repro.mpi.engine.resolve_backend` owns the
engine vocabulary, and every other layer (``Engine.run``, the study
CLIs' ``--engine``, ``service.JobSpec`` validation, the refusals of
``walstudy`` and ``fuzz --smoke`` on ``processes``) asks it.  These tests pin the spellings and their
``:N`` suffix, the error texts, the ``REPRO_ENGINE`` fallback, that the
deleted ``threads`` engine is refused with the same message everywhere,
and that a platform without ``os.fork`` refuses ``processes`` instead of
silently running simulated faults.
"""

import os
import threading

import pytest

from repro.mpi import run_job
from repro.mpi.engine import (
    _SPELLINGS, engine_help, is_processes, resolve_backend,
)


# ---------------------------------------------------------------------------
# Spellings and resolution
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_two_backends_registered(self):
        # every accepted spelling names one of exactly two engines
        assert set(_SPELLINGS.values()) == {"cooperative", "processes"}

    def test_aliases_resolve_to_canonical(self):
        assert resolve_backend("coop") == "cooperative"
        assert resolve_backend("process") == "processes"
        assert resolve_backend("procs") == "processes"
        assert resolve_backend("PROCESSES") == "processes"

    def test_count_suffix_only_for_count_backends(self):
        assert resolve_backend("processes:2") == "processes:2"
        assert resolve_backend("procs:8") == "processes:8"
        assert resolve_backend("processes:08") == "processes:8"
        with pytest.raises(ValueError,
                           match=r"engine backend 'coop' takes no ':N' "
                                 r"suffix \('coop:2'\)"):
            resolve_backend("coop:2")
        with pytest.raises(ValueError,
                           match="bad worker count in engine spec "
                                 "'processes:zero'"):
            resolve_backend("processes:zero")

    def test_unknown_engine_message_names_known_backends(self):
        with pytest.raises(ValueError) as ei:
            resolve_backend("mpi4py")
        assert str(ei.value) == (
            "unknown engine backend 'mpi4py'; known: ['coop', "
            "'cooperative', 'process', 'processes', 'procs', 'sharded']")

    def test_repro_engine_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "procs:3")
        assert resolve_backend(None) == "processes:3"
        monkeypatch.delenv("REPRO_ENGINE")
        assert resolve_backend(None) == "cooperative"

    def test_engine_help_names_both_engines(self):
        text = engine_help()
        assert "cooperative (" in text
        assert "processes[:N] (" in text
        assert text.endswith("(default: the cooperative scheduler, "
                             "or REPRO_ENGINE)")


class TestCapabilityFlags:
    def test_oracle_is_simulated(self):
        # the oracle's faults are unwinds: nothing refuses it
        assert not is_processes("cooperative")
        assert not is_processes("coop")

    def test_sharded_flags(self):
        # "sharded" is a spelling of the processes engine (the perf
        # benchmark's shard-256 workload names "sharded:4")
        assert resolve_backend("sharded:4") == "processes:4"
        assert resolve_backend("sharded") == "processes"
        assert is_processes("sharded:4")

    def test_processes_flags(self):
        assert is_processes("processes:2")
        assert is_processes("procs")

    def test_refusal_honours_repro_engine(self, monkeypatch, capsys):
        # walstudy refuses the processes engine, including when only
        # REPRO_ENGINE names it
        from repro.harness import walstudy

        monkeypatch.setenv("REPRO_ENGINE", "processes")
        assert is_processes(None)
        assert walstudy.main([]) == 2
        assert "fsync_count" in capsys.readouterr().err
        assert not is_processes("cooperative")


# ---------------------------------------------------------------------------
# The deleted threads backend: refused with the same message (the study
# CLIs' exit 2 is pinned with the other CLI checks in test_processes.py)
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
# No fork: refuse processes, never degrade to simulated faults
# ---------------------------------------------------------------------------

class TestUnavailableDegrade:
    @pytest.mark.parametrize("spelling", ["processes", "procs:2",
                                          "sharded:4"])
    def test_no_fork_refuses_processes(self, monkeypatch, spelling):
        monkeypatch.delattr(os, "fork")
        with pytest.raises(ValueError,
                           match="os.fork is not available on this "
                                 "platform"):
            resolve_backend(spelling)
        with pytest.raises(ValueError, match="os.fork is not available"):
            run_job(2, lambda mpi: mpi.rank, engine=spelling)
        # the oracle needs no fork
        assert resolve_backend("cooperative") == "cooperative"

    def test_available_backend_does_not_warn(self, recwarn):
        result = run_job(2, lambda mpi: mpi.rank, engine="processes",
                         wall_timeout=30)
        result.raise_errors()
        assert result.returns == [0, 1]
        assert not [w for w in recwarn.list
                    if issubclass(w.category, RuntimeWarning)]
