"""AST instrumentation: the compile-time transformation end-to-end."""

import numpy as np
import pytest

from repro.core import C3Config, run_fault_tolerant, run_original
from repro.mpi import FaultPlan, FaultSpec
from repro.precompiler import TransformError, instrument
from repro.storage import InMemoryStorage


def simple_app(ctx):
    # ccc: save(x, total)
    x = np.zeros(4)
    total = 0.0
    # ccc: setup-end
    # ccc: loop(it)
    for it in range(10):
        # ccc: checkpoint
        x = x + it
        total = total + float(x.sum())
        ctx.compute(1e-4)
    return total


class TestInstrumentation:
    def test_metadata(self):
        app = instrument(simple_app)
        assert app.__ccc_saved__ == ["total", "x"]
        assert app.__ccc_directives__ == 4
        assert app.__wrapped__ is simple_app

    def test_saved_variables_live_in_state(self):
        app = instrument(simple_app)

        def probe(ctx):
            app(ctx)
            return sorted(k for k in ctx.state if not k.startswith("__"))

        result = run_original(probe, 1)
        result.raise_errors()
        assert result.returns[0] == ["total", "x"]

    def test_loop_is_resumable(self):
        app = instrument(simple_app)

        def probe(ctx):
            counters = []
            real_checkpoint = ctx.checkpoint

            def spy(force=False):
                counters.append(int(ctx.state["__loop_it"]))
                real_checkpoint(force=force)

            ctx.checkpoint = spy
            app(ctx)
            # the counter tracks every iteration while the loop runs, and
            # the completed loop is popped off the position stack
            return counters, "__loop_it" in ctx.state

        result = run_original(probe, 1)
        result.raise_errors()
        counters, still_there = result.returns[0]
        assert counters == list(range(10))
        assert not still_there

    def test_runs_identically_to_plain_logic(self):
        app = instrument(simple_app)
        result = run_original(app, 2)
        result.raise_errors()
        # hand computation: total = sum over it of sum(x_it)
        x = np.zeros(4)
        total = 0.0
        for it in range(10):
            x = x + it
            total += x.sum()
        assert result.returns == [total, total]


class TestRecovery:
    def test_instrumented_app_survives_failure(self):
        app = instrument(simple_app)
        ref = run_original(app, 2)
        ref.raise_errors()
        res = run_fault_tolerant(
            app, 2, storage=InMemoryStorage(),
            config=C3Config(checkpoint_interval=3e-4),
            fault_plan=FaultPlan([FaultSpec(rank=0, at_time=6e-4)]))
        assert res.restarts == 1
        assert res.returns == ref.returns


class TestRejections:
    def test_missing_ctx_parameter(self):
        def no_ctx(x):
            return x

        with pytest.raises(TransformError, match="ctx"):
            instrument(no_ctx)

    def test_leaked_setup_variable(self):
        def leaky(ctx):
            # ccc: save(x)
            x = 1.0
            helper = 2.0
            # ccc: setup-end
            return x + helper  # helper is used but not saved

        with pytest.raises(TransformError, match="helper"):
            instrument(leaky)

    def test_loop_requires_range(self):
        def bad_loop(ctx):
            items = [1, 2]
            # ccc: loop(i)
            for i in items:
                pass

        with pytest.raises(TransformError, match="range"):
            instrument(bad_loop)

    def test_nested_function_rejected_when_touching_saved(self):
        def nested(ctx):
            # ccc: save(x)
            x = 1.0
            # ccc: setup-end
            def inner():
                return x
            return inner()

        with pytest.raises(TransformError):
            instrument(nested)

    def test_ctx_cannot_be_saved(self):
        def bad(ctx):
            # ccc: save(ctx)
            pass

        with pytest.raises(TransformError):
            instrument(bad)

    def test_saved_name_may_not_shadow_a_state_method(self):
        def bad(ctx):
            # ccc: save(total)
            total = 0
            # ccc: setup-end
            # ccc: call(init)
            get, nbytes = divmod(7, 2)
            return total + get + nbytes

        with pytest.raises(TransformError, match=r"\['get', 'nbytes'\]"):
            instrument(bad)


class TestWhileLoops:
    @staticmethod
    def _while_app(ctx):
        # ccc: save(x, n)
        x = 0.0
        n = 0
        # ccc: setup-end
        # ccc: loop(w)
        while n < 8:
            # ccc: checkpoint
            x = x + float(n)
            n = n + 1
            ctx.compute(1e-4)
        return x

    def test_runs_identically_to_plain_logic(self):
        app = instrument(self._while_app)
        result = run_original(app, 1)
        result.raise_errors()
        assert result.returns == [sum(range(8))]

    def test_counter_persisted_and_popped(self):
        app = instrument(self._while_app)

        def probe(ctx):
            app(ctx)
            return "__loop_w" in ctx.state

        result = run_original(probe, 1)
        result.raise_errors()
        assert result.returns[0] is False

    def test_while_survives_failure(self):
        app = instrument(self._while_app)
        ref = run_original(app, 2)
        ref.raise_errors()
        res = run_fault_tolerant(
            app, 2, storage=InMemoryStorage(),
            config=C3Config(checkpoint_interval=2.5e-4),
            fault_plan=FaultPlan([FaultSpec(rank=1, at_time=5e-4)]))
        assert res.restarts == 1
        assert res.returns == ref.returns

    def test_while_else_rejected(self):
        def bad(ctx):
            # ccc: save(n)
            n = 0
            # ccc: setup-end
            # ccc: loop(w)
            while n < 2:
                n = n + 1
            else:
                n = -1

        with pytest.raises(TransformError, match="while/else"):
            instrument(bad)


class TestNestedLoops:
    @staticmethod
    def _nested_app(ctx):
        # ccc: save(acc)
        acc = 0.0
        # ccc: setup-end
        # ccc: loop(outer)
        for i in range(4):
            # ccc: checkpoint
            # ccc: loop(inner)
            for j in range(3):
                # ccc: checkpoint
                acc = acc + float(i * 10 + j)
                ctx.compute(1e-4)
        return acc

    EXPECTED = float(sum(i * 10 + j for i in range(4) for j in range(3)))

    def test_inner_loop_reruns_every_outer_iteration(self):
        app = instrument(self._nested_app)
        result = run_original(app, 1)
        result.raise_errors()
        assert result.returns == [self.EXPECTED]

    def test_position_stack_visible_at_inner_pragma(self):
        app = instrument(self._nested_app)

        def probe(ctx):
            stacks = []
            real_checkpoint = ctx.checkpoint

            def spy(force=False):
                stacks.append((int(ctx.state.get("__loop_outer", -1)),
                               int(ctx.state.get("__loop_inner", -1))))
                real_checkpoint(force=force)

            ctx.checkpoint = spy
            app(ctx)
            return stacks

        result = run_original(probe, 1)
        result.raise_errors()
        stacks = result.returns[0]
        # at the inner pragma both counters are live; at the outer pragma
        # the inner loop has been popped (-1 = absent)
        assert (1, 2) in stacks
        assert (2, -1) in stacks

    @pytest.mark.parametrize("kill_time", [2.5e-4, 6.5e-4, 1.05e-3])
    def test_restart_resumes_full_position_stack(self, kill_time):
        """Kill early / mid / late — the restart must resume at the exact
        (outer, inner) position and still produce the golden answer."""
        app = instrument(self._nested_app)
        ref = run_original(app, 2)
        ref.raise_errors()
        res = run_fault_tolerant(
            app, 2, storage=InMemoryStorage(),
            config=C3Config(checkpoint_interval=2e-4),
            fault_plan=FaultPlan([FaultSpec(rank=0, at_time=kill_time)]))
        assert res.restarts == 1
        assert res.returns == ref.returns


class TestSequentialLoops:
    @staticmethod
    def _seq_app(ctx):
        # ccc: save(acc)
        acc = 0.0
        # ccc: setup-end
        # ccc: loop(a)
        for i in range(3):
            # ccc: checkpoint
            acc = acc + 1.0
            ctx.compute(1e-4)
        # ccc: loop(b)
        for i in range(5):
            # ccc: checkpoint
            acc = acc + 10.0
            ctx.compute(1e-4)
        return acc

    def test_runs_identically_to_plain_logic(self):
        app = instrument(self._seq_app)
        result = run_original(app, 1)
        result.raise_errors()
        assert result.returns == [53.0]

    @pytest.mark.parametrize("kill_time", [1.5e-4, 5e-4, 6.5e-4])
    def test_restart_after_a_loop_completed(self, kill_time):
        """Regression (code review): a restart from a checkpoint taken
        inside the *second* loop must skip the completed first loop, not
        re-run it and corrupt the saved accumulator."""
        app = instrument(self._seq_app)
        ref = run_original(app, 1)
        ref.raise_errors()
        res = run_fault_tolerant(
            app, 1, storage=InMemoryStorage(),
            config=C3Config(checkpoint_interval=1.5e-4),
            fault_plan=FaultPlan([FaultSpec(rank=0, at_time=kill_time)]))
        assert res.restarts == 1
        assert res.returns == ref.returns


class TestTryBlocks:
    def test_loop_directives_inside_try_arms(self):
        """Regression: a loop directive in a try/except/else/finally arm
        leaked its ``__ccc_loop__`` sentinel to runtime as a NameError."""

        def try_app(ctx):
            # ccc: save(acc)
            acc = 0.0
            # ccc: setup-end
            try:
                # ccc: loop(a)
                for i in range(3):
                    acc = acc + 1.0
            except ValueError:
                # ccc: loop(b)
                for i in range(2):
                    acc = acc + 100.0
            else:
                # ccc: loop(c)
                for i in range(2):
                    acc = acc + 10.0
            finally:
                # ccc: loop(d)
                for i in range(2):
                    acc = acc + 0.5
            return acc

        app = instrument(try_app)
        result = run_original(app, 1)
        result.raise_errors()
        assert result.returns == [3.0 + 20.0 + 1.0]

    def test_loop_directive_in_exception_handler_path(self):
        def handler_app(ctx):
            # ccc: save(acc)
            acc = 0.0
            # ccc: setup-end
            try:
                raise ValueError("boom")
            except ValueError:
                # ccc: loop(h)
                for i in range(4):
                    acc = acc + 1.0
            return acc

        app = instrument(handler_app)
        result = run_original(app, 1)
        result.raise_errors()
        assert result.returns == [4.0]

    def test_loop_directive_inside_if_branch(self):
        """Same leak for a directive directly inside an if arm."""

        def branch_app(ctx):
            # ccc: save(acc)
            acc = 0.0
            # ccc: setup-end
            if ctx.rank >= 0:
                # ccc: loop(a)
                for i in range(3):
                    acc = acc + 1.0
            else:
                # ccc: loop(b)
                for i in range(3):
                    acc = acc - 1.0
            return acc

        app = instrument(branch_app)
        result = run_original(app, 1)
        result.raise_errors()
        assert result.returns == [3.0]


def _string_value_app(ctx):
    # ccc: save(msg)
    msg = """directives:
# ccc: checkpoint
done"""
    # ccc: setup-end
    return msg


class TestStringLiterals:
    def test_docstring_directive_text_is_documentation(self):
        """Regression: the line scanner rewrote directive-looking lines
        inside the docstring, corrupting it (and the directive count)."""

        def doc_app(ctx):
            """Usage:

            # ccc: checkpoint

            the line above is documentation, not a directive.
            """
            # ccc: save(x)
            x = 1.0
            # ccc: setup-end
            x = x + 1.0
            return x

        app = instrument(doc_app)
        assert app.__ccc_directives__ == 2
        assert "# ccc: checkpoint" in app.__doc__
        result = run_original(app, 1)
        result.raise_errors()
        assert result.returns == [2.0]

    def test_multiline_string_value_not_corrupted(self):
        app = instrument(_string_value_app)
        result = run_original(app, 1)
        result.raise_errors()
        assert result.returns == ["directives:\n# ccc: checkpoint\ndone"]


class TestScopeAwareRewriting:
    def test_comprehension_target_shadows_saved_name(self):
        """Regression: the rewriter turned a comprehension-bound name that
        shadows a saved variable into a ``ctx.state`` target (source-level
        a SyntaxError; as a constructed AST it compiles and *clobbers the
        saved variable* with the last element)."""

        def comp_app(ctx):
            # ccc: save(xs, total)
            xs = [1.0, 2.0, 3.0]
            total = 0.0
            # ccc: setup-end
            scaled = [xs * 2.0 for xs in xs]      # target shadows saved list
            total = total + sum(scaled)
            keyed = {k: total for k in ("a",)}    # free name still rewritten
            return (scaled, keyed["a"], xs)

        app = instrument(comp_app)
        result = run_original(app, 1)
        result.raise_errors()
        scaled, keyed_total, xs = result.returns[0]
        assert scaled == [2.0, 4.0, 6.0]
        assert keyed_total == 12.0
        # the saved list must survive the comprehension untouched
        assert xs == [1.0, 2.0, 3.0]

    def test_lambda_param_shadows_saved_name(self):
        def lambda_app(ctx):
            # ccc: save(a, b)
            a = 2.0
            b = 3.0
            # ccc: setup-end
            f = lambda a: a * 10.0    # noqa: E731 - param shadows saved 'a'
            g = lambda: a + b         # noqa: E731 - frees hit ctx.state
            return (f(1.0), g())

        app = instrument(lambda_app)
        result = run_original(app, 1)
        result.raise_errors()
        assert result.returns[0] == (10.0, 5.0)

    def test_generator_expression_shadowing(self):
        def gen_app(ctx):
            # ccc: save(n)
            n = 3.0
            # ccc: setup-end
            return sum(n * 0.0 + i for n, i in ((9.0, 1), (9.0, 2))) + n

        app = instrument(gen_app)
        result = run_original(app, 1)
        result.raise_errors()
        assert result.returns == [6.0]


CALL_LOG = []


def expensive_init(n):
    CALL_LOG.append(n)
    return np.full(n, 7.0)


class TestCallGuards:
    @staticmethod
    def _call_app(ctx):
        # ccc: save(acc)
        acc = 0.0
        # ccc: setup-end
        # ccc: call(init)
        base = expensive_init(4)
        # ccc: loop(i)
        for i in range(6):
            # ccc: checkpoint
            acc = acc + float(base.sum())
            ctx.compute(1e-4)
        return acc

    def test_target_becomes_saved(self):
        app = instrument(self._call_app)
        assert app.__ccc_saved__ == ["acc", "base"]

    def test_call_runs_once_per_job(self):
        app = instrument(self._call_app)
        CALL_LOG.clear()
        result = run_original(app, 1)
        result.raise_errors()
        assert result.returns == [6 * 28.0]
        assert CALL_LOG == [4]

    def test_restart_skips_the_call_and_reuses_the_result(self):
        app = instrument(self._call_app)
        CALL_LOG.clear()
        res = run_fault_tolerant(
            app, 1, storage=InMemoryStorage(),
            config=C3Config(checkpoint_interval=2e-4),
            fault_plan=FaultPlan([FaultSpec(rank=0, at_time=4e-4)]))
        assert res.restarts == 1
        assert res.returns == [6 * 28.0]
        # one call in the killed execution, zero in the restarted one
        assert CALL_LOG == [4]

    def test_tuple_targets(self):
        def pair_app(ctx):
            # ccc: call(init)
            lo, hi = divmod(7, 2)
            return lo + hi

        app = instrument(pair_app)
        assert app.__ccc_saved__ == ["hi", "lo"]
        result = run_original(app, 1)
        result.raise_errors()
        assert result.returns == [4]

    def test_call_must_precede_assignment_of_a_call(self):
        def bad(ctx):
            # ccc: call(x)
            y = 1 + 1
            return y

        with pytest.raises(TransformError, match="call"):
            instrument(bad)


class TestDirectivePlacementErrors:
    def test_two_directives_in_a_row(self):
        def bad(ctx):
            # ccc: loop(a)
            # ccc: loop(b)
            for i in range(2):
                pass

        with pytest.raises(TransformError, match="in a row"):
            instrument(bad)

    def test_loop_followed_by_non_loop(self):
        def bad(ctx):
            # ccc: loop(a)
            x = 1
            return x

        with pytest.raises(TransformError, match="for or while"):
            instrument(bad)

    def test_trailing_loop_directive(self):
        def bad(ctx):
            x = 1
            # ccc: loop(a)

        with pytest.raises(TransformError, match="no following"):
            instrument(bad)

    def test_duplicate_setup_end(self):
        def bad(ctx):
            # ccc: save(x)
            x = 1.0
            # ccc: setup-end
            x = x + 1
            # ccc: setup-end
            return x

        with pytest.raises(TransformError, match="duplicate"):
            instrument(bad)

    def test_empty_setup_section(self):
        def bad(ctx):
            # ccc: setup-end
            return 1

        with pytest.raises(TransformError, match="empty setup"):
            instrument(bad)

    def test_duplicate_loop_name_rejected(self):
        """Regression (code review): counters and completion tokens are
        keyed by loop name — reusing one silently skipped the second
        loop (sequential) or corrupted the counter (nested)."""

        def bad(ctx):
            # ccc: save(acc)
            acc = 0.0
            # ccc: setup-end
            # ccc: loop(a)
            for i in range(3):
                acc = acc + 1.0
            # ccc: loop(a)
            for i in range(4):
                acc = acc + 10.0
            return acc

        with pytest.raises(TransformError, match="duplicate ccc: loop"):
            instrument(bad)

    def test_marked_loop_inside_unmarked_loop_rejected(self):
        """A resumable loop under an unmarked loop cannot restore (the
        enclosing position is invisible to the loop-position stack)."""

        def bad(ctx):
            # ccc: save(acc)
            acc = 0.0
            # ccc: setup-end
            for outer in range(3):
                # ccc: loop(inner)
                for i in range(2):
                    acc = acc + 1.0
            return acc

        with pytest.raises(TransformError, match="unmarked loop"):
            instrument(bad)

    def test_marked_loop_inside_unmarked_while_rejected(self):
        def bad(ctx):
            # ccc: save(acc, n)
            acc = 0.0
            n = 0
            # ccc: setup-end
            while n < 2:
                n = n + 1
                # ccc: loop(inner)
                for i in range(2):
                    acc = acc + 1.0
            return acc

        with pytest.raises(TransformError, match="unmarked loop"):
            instrument(bad)

    def test_save_in_unsupported_position(self):
        def bad(ctx):
            if True:
                # ccc: save(x)
                x = 1.0
            return x

        with pytest.raises(TransformError, match="unsupported position"):
            instrument(bad)


def test_communicating_instrumented_app():
    def comm_app(ctx):
        # ccc: save(acc)
        acc = 0.0
        # ccc: setup-end
        comm = ctx.comm
        r = ctx.rank
        s = ctx.size
        # ccc: loop(i)
        for i in range(8):
            # ccc: checkpoint
            comm.Send(np.array([float(i + r)]), dest=(r + 1) % s, tag=1)
            buf = np.zeros(1)
            comm.Recv(buf, source=(r - 1) % s, tag=1)
            acc = acc + float(buf[0])
        return acc

    app = instrument(comm_app)
    ref = run_original(app, 3)
    ref.raise_errors()
    res = run_fault_tolerant(
        app, 3, storage=InMemoryStorage(),
        config=C3Config(checkpoint_interval=2e-4),
        fault_plan=FaultPlan([FaultSpec(rank=1, at_time=5e-4)]))
    assert res.returns == ref.returns
