"""Application Context: state, resumable ranges, guards, phases."""

import numpy as np
import pytest

from repro.statesave.context import AppState, Context, StateError
from repro.testutil import run


def make_ctx():
    holder = {}

    def main(mpi):
        holder["ctx"] = Context(mpi)
        return True

    run(1, main)
    return holder["ctx"]


class TestAppState:
    def test_attribute_and_item_access(self):
        s = AppState()
        s.x = 1
        assert s["x"] == 1
        s["y"] = 2
        assert s.y == 2

    def test_missing_key(self):
        s = AppState()
        with pytest.raises(StateError):
            s["nope"]
        with pytest.raises(AttributeError):
            s.nope

    def test_iteration_and_len(self):
        s = AppState({"a": 1, "b": 2})
        assert sorted(s) == ["a", "b"]
        assert len(s) == 2

    def test_delete(self):
        s = AppState({"a": 1})
        del s["a"]
        assert "a" not in s

    def test_nbytes(self):
        s = AppState()
        s.arr = np.zeros(10)       # 80
        s.blob = b"12345"          # 5
        s.num = 3                  # 16 nominal
        assert s.nbytes == 101

    def test_nbytes_recurses_into_containers(self):
        s = AppState()
        s.levels = [np.zeros(8), np.zeros(4)]      # 64 + 32
        s.table = {"k": np.zeros(2), "s": "abc"}   # 16 + 3
        s.pair = (b"xy", 1)                        # 2 + 16
        assert s.nbytes == 64 + 32 + 16 + 3 + 2 + 16

    def test_replace_all(self):
        s = AppState({"a": 1})
        s.replace_all({"b": 2})
        assert "a" not in s and s.b == 2

    def test_reading_a_variable_runs_no_state_method(self, monkeypatch):
        s = AppState({"u": 1})

        def trap(self, name):
            raise AssertionError(f"__getattr__ ran for {name!r}")

        monkeypatch.setattr(AppState, "__getattr__", trap)
        assert s.u == 1

    @pytest.mark.parametrize("name", ["get", "setdefault", "to_dict",
                                      "replace_all", "nbytes"])
    def test_a_variable_may_not_shadow_a_method(self, name):
        s = AppState()
        for assign in (lambda: setattr(s, name, 1),
                       lambda: s.__setitem__(name, 1),
                       lambda: s.setdefault(name, 1),
                       lambda: s.replace_all({name: 1}),
                       lambda: AppState({name: 1})):
            with pytest.raises(StateError, match="shadow"):
                assign()
        assert len(s) == 0


class TestResumableRange:
    def test_plain_iteration(self):
        ctx = make_ctx()
        assert list(ctx.range("i", 5)) == [0, 1, 2, 3, 4]
        # a completed loop is popped off the position stack
        assert "__loop_i" not in ctx.state

    def test_counter_persists_while_running(self):
        ctx = make_ctx()
        seen = []
        for i in ctx.range("i", 4):
            seen.append(ctx.state["__loop_i"])
        assert seen == [0, 1, 2, 3]

    def test_start_stop_step(self):
        ctx = make_ctx()
        assert list(ctx.range("i", 2, 8, 3)) == [2, 5]

    def test_resume_from_saved_counter(self):
        ctx = make_ctx()
        ctx.state["__loop_i"] = 3
        assert list(ctx.range("i", 10)) == list(range(3, 10))

    def test_nonpositive_step(self):
        ctx = make_ctx()
        with pytest.raises(StateError):
            list(ctx.range("i", 0, 5, 0))

    def test_nested_loops_reenter_fresh(self):
        """The inner loop must run fully in EVERY outer iteration — the
        position stack pops an inner loop when it completes (pre-fix, the
        persisted counter made later re-entries skip the loop body)."""
        ctx = make_ctx()
        log = []
        for i in ctx.range("outer", 3):
            for j in ctx.range("inner", 2):
                log.append((i, j))
        assert log == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
        assert "__loop_outer" not in ctx.state
        assert "__loop_inner" not in ctx.state

    def test_nested_loop_position_stack_resumes(self):
        """Restoring a (outer, inner) counter pair resumes mid-inner-loop
        and later outer iterations re-run the inner loop from 0."""
        ctx = make_ctx()
        ctx.state["__loop_outer"] = 1
        ctx.state["__loop_inner"] = 1
        log = []
        for i in ctx.range("outer", 3):
            for j in ctx.range("inner", 2):
                log.append((i, j))
        assert log == [(1, 1), (2, 0), (2, 1)]

    def test_break_pops_the_loop(self):
        ctx = make_ctx()
        for i in ctx.range("i", 10):
            if i == 4:
                break
        assert "__loop_i" not in ctx.state

    def test_exit_clears_phase_markers(self):
        ctx = make_ctx()
        for i in ctx.range("L", 2):
            if ctx.phase_pending("L", "a"):
                ctx.phase_done("L", "a")
        assert not [k for k in ctx.state if k.startswith("__phase_L")]

    def test_completed_loop_skipped_on_reexecution(self):
        """Re-reaching a loop that completed at the same position (the
        post-restore re-execution path) must skip it, not re-run it —
        its effects are already in the checkpointed state."""
        ctx = make_ctx()
        assert list(ctx.range("a", 3)) == [0, 1, 2]
        assert list(ctx.range("a", 3)) == []

    def test_sequential_loops_resume_into_the_second(self):
        """Regression (code review): with the first loop completed and
        the second mid-flight, 'restoring' that state and re-executing
        must skip loop a entirely and resume loop b."""
        ctx = make_ctx()
        log = []
        for i in ctx.range("a", 3):
            log.append(("a", i))
        for i in ctx.range("b", 5):
            log.append(("b", i))
            if i == 2:
                break  # "kill" mid-loop-b: state now holds the snapshot
        snapshot = dict(ctx.state.to_dict())
        snapshot["__loop_b"] = 2   # break popped it; a checkpoint would not
        ctx2 = make_ctx()
        ctx2.state.replace_all(snapshot)
        relog = []
        for i in ctx2.range("a", 3):
            relog.append(("a", i))
        for i in ctx2.range("b", 5):
            relog.append(("b", i))
        assert relog == [("b", 2), ("b", 3), ("b", 4)]

    def test_reentering_a_running_loop_name_raises(self):
        """Regression (code review): nesting two loops under one name
        would alias their counters; fail loudly instead."""
        ctx = make_ctx()
        with pytest.raises(StateError, match="already running"):
            for i in ctx.range("a", 2):
                for j in ctx.range("a", 2):
                    pass

    def test_phase_markers_of_prefix_sharing_loops_are_independent(self):
        """Regression (code review): clearing loop 'step's markers must
        not wipe live markers of a loop named 'step_outer'."""
        ctx = make_ctx()
        for o in ctx.range("step_outer", 2):
            if ctx.phase_pending("step_outer", "down"):
                ctx.phase_done("step_outer", "down")
            for i in ctx.range("step", 2):
                pass
            # the inner loop's exit cleanup ran; the outer marker survives
            assert not ctx.phase_pending("step_outer", "down")


class TestWhileRange:
    def test_counts_until_break(self):
        ctx = make_ctx()
        seen = []
        for i in ctx.while_range("w"):
            if i >= 3:
                break
            seen.append(i)
        assert seen == [0, 1, 2]
        assert "__loop_w" not in ctx.state

    def test_resumes_from_saved_counter(self):
        ctx = make_ctx()
        ctx.state["__loop_w"] = 5
        it = iter(ctx.while_range("w"))
        assert next(it) == 5
        assert ctx.state["__loop_w"] == 5
        it.close()


class TestGuards:
    def test_first_time_done(self):
        ctx = make_ctx()
        assert ctx.first_time("init")
        ctx.done("init")
        assert not ctx.first_time("init")

    def test_once(self):
        ctx = make_ctx()
        calls = []
        ctx.once("x", lambda: calls.append(1))
        ctx.once("x", lambda: calls.append(2))
        assert calls == [1]


class TestPhases:
    def test_phase_tracks_loop_iteration(self):
        ctx = make_ctx()
        log = []
        for it in ctx.range("L", 3):
            if ctx.phase_pending("L", "a"):
                log.append(("a", it))
                ctx.phase_done("L", "a")
            if ctx.phase_pending("L", "b"):
                log.append(("b", it))
                ctx.phase_done("L", "b")
        assert log == [("a", 0), ("b", 0), ("a", 1), ("b", 1),
                       ("a", 2), ("b", 2)]

    def test_phase_skipped_after_restore_mid_iteration(self):
        ctx = make_ctx()
        # simulate: checkpoint taken between phase a and b of iteration 1
        ctx.state["__loop_L"] = 1
        ctx.state["__phase_L::a"] = 1
        log = []
        for it in ctx.range("L", 3):
            if ctx.phase_pending("L", "a"):
                log.append(("a", it))
                ctx.phase_done("L", "a")
            if ctx.phase_pending("L", "b"):
                log.append(("b", it))
                ctx.phase_done("L", "b")
        assert log == [("b", 1), ("a", 2), ("b", 2)]

    def test_phase_outside_loop(self):
        ctx = make_ctx()
        with pytest.raises(StateError):
            ctx.phase_pending("nope", "x")


class TestSnapshot:
    def test_roundtrip(self):
        ctx = make_ctx()
        ctx.state.x = np.arange(3.0)
        ctx.state.n = 5
        snap = ctx.snapshot_state()
        ctx2 = make_ctx()
        ctx2.restore_state(snap)
        assert np.array_equal(ctx2.state.x, np.arange(3.0))
        assert ctx2.state.n == 5
        assert ctx2.restored

    def test_checkpoint_bytes(self):
        ctx = make_ctx()
        ctx.state.x = np.zeros(100)
        assert ctx.checkpoint_bytes >= 800
