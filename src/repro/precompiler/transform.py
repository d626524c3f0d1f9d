"""AST instrumentation: the compile-time half of Figure 1.

:func:`instrument` takes a plain Python function annotated with ``# ccc:``
directives and produces the self-checkpointing equivalent a C3 user would
get from the precompiler:

* saved variables live in ``ctx.state`` (reads and writes are redirected,
  scope-aware: comprehension targets and lambda parameters that shadow a
  saved name stay local), so the runtime's state description always
  covers them;
* the one-time setup section is wrapped in a replay guard and skipped
  after a restart;
* marked loops resume from the checkpointed iteration — ``for`` loops
  over ``range`` through ``ctx.range``, ``while`` loops through
  ``ctx.while_range``; marked loops nest, and the persisted counters are
  the checkpoint's loop-position stack;
* ``# ccc: call`` assignments become call-guards: the call runs once per
  job, its targets are saved, restarted runs reuse the result;
* ``# ccc: checkpoint`` lines become ``ctx.checkpoint()`` pragma calls.

The instrumented function must take ``ctx`` as its first parameter (the
runtime context plays the role of C3's utility-library handle).
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from typing import Callable, List, Optional, Set

from ..statesave.context import RESERVED
from .directives import (
    DirectiveError, SENTINEL_CALL, SENTINEL_LOOP, SENTINEL_SAVE,
    SENTINEL_SETUP_END, SENTINELS, preprocess,
)


class TransformError(Exception):
    """The function cannot be instrumented as written."""


def _is_sentinel_call(node: ast.stmt, name: str) -> bool:
    return (isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id == name)


def _ctx_method(attr: str) -> ast.Attribute:
    return ast.Attribute(value=ast.Name(id="ctx", ctx=ast.Load()),
                         attr=attr, ctx=ast.Load())


def _guard_if(key: str, body: List[ast.stmt]) -> ast.If:
    """``if ctx.first_time(key): <body>; ctx.done(key)``."""
    return ast.If(
        test=ast.Call(func=_ctx_method("first_time"),
                      args=[ast.Constant(value=key)], keywords=[]),
        body=body + [ast.Expr(value=ast.Call(
            func=_ctx_method("done"),
            args=[ast.Constant(value=key)], keywords=[]))],
        orelse=[],
    )


def _is_marked_loop(node: ast.For) -> bool:
    """Is this For already a resumable loop (``ctx.range``/``while_range``)?"""
    it = node.iter
    return (isinstance(it, ast.Call)
            and isinstance(it.func, ast.Attribute)
            and it.func.attr in ("range", "while_range")
            and isinstance(it.func.value, ast.Name)
            and it.func.value.id == "ctx")


def _lambda_params(args: ast.arguments) -> Set[str]:
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


class _StateRewriter(ast.NodeTransformer):
    """Redirect saved-variable reads/writes to ``ctx.state``, scope-aware.

    Comprehensions and lambdas open a new scope: names they bind shadow a
    saved variable for their whole subtree (rewriting a comprehension
    target to an attribute would not even compile), while free names
    inside them still resolve to ``ctx.state``.  The first generator's
    iterable and lambda defaults evaluate in the enclosing scope, exactly
    like Python itself scopes them.
    """

    def __init__(self, saved: Set[str]):
        self.saved = saved

    def visit_Name(self, node: ast.Name):
        if node.id in self.saved:
            return ast.copy_location(
                ast.Attribute(
                    value=ast.Attribute(
                        value=ast.Name(id="ctx", ctx=ast.Load()),
                        attr="state", ctx=ast.Load()),
                    attr=node.id, ctx=node.ctx),
                node)
        return node

    def _visit_comprehension(self, node):
        bound: Set[str] = set()
        for gen in node.generators:
            bound |= {n.id for n in ast.walk(gen.target)
                      if isinstance(n, ast.Name)}
        inner = _StateRewriter(self.saved - bound)
        for i, gen in enumerate(node.generators):
            # the first iterable is evaluated in the enclosing scope
            gen.iter = (self if i == 0 else inner).visit(gen.iter)
            gen.ifs = [inner.visit(c) for c in gen.ifs]
        if isinstance(node, ast.DictComp):
            node.key = inner.visit(node.key)
            node.value = inner.visit(node.value)
        else:
            node.elt = inner.visit(node.elt)
        return node

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def visit_Lambda(self, node: ast.Lambda):
        # defaults evaluate in the enclosing scope
        node.args.defaults = [self.visit(d) for d in node.args.defaults]
        node.args.kw_defaults = [self.visit(d) if d is not None else None
                                 for d in node.args.kw_defaults]
        inner = _StateRewriter(self.saved - _lambda_params(node.args))
        node.body = inner.visit(node.body)
        return node

    def visit_FunctionDef(self, node: ast.FunctionDef):
        raise TransformError(
            "nested function definitions are not supported by the "
            "precompiler (the paper's restricted-C analog)"
        )

    visit_AsyncFunctionDef = visit_FunctionDef


class _DirectiveApplier(ast.NodeTransformer):
    """Consume loop/call sentinels, rewriting the statement that follows.

    Every statement *list* is walked — function body, ``for``/``while``
    bodies and else-arms, ``if`` arms, ``with`` bodies, and all four arms
    of ``try`` (body, every handler, else, finally) — so a directive is
    honoured wherever a statement is legal, instead of leaking its
    sentinel to runtime as a ``NameError``.
    """

    def __init__(self):
        #: names that became saved variables via ``ccc: call`` guards
        self.call_saved: Set[str] = set()
        #: depth of enclosing *unmarked* loops — a resumable loop inside
        #: one cannot work: the runtime's completion tokens key on the
        #: enclosing marked-loop position, which an unmarked loop hides
        self._unmarked_loops = 0
        #: loop names already used — counters and completion tokens are
        #: keyed by name, so a reused name would alias two loops' state
        #: (silently skipping the later one, or corrupting the counter)
        self._loop_names: Set[str] = set()

    # -- statement-list handling -------------------------------------------
    def _transform_body(self, body: List[ast.stmt]) -> List[ast.stmt]:
        out: List[ast.stmt] = []
        pending_loop: Optional[str] = None
        pending_call: Optional[str] = None
        for stmt in body:
            if (_is_sentinel_call(stmt, SENTINEL_LOOP)
                    or _is_sentinel_call(stmt, SENTINEL_CALL)):
                if pending_loop is not None or pending_call is not None:
                    raise TransformError(
                        "two ccc directives in a row: each loop/call "
                        "directive must be followed by the statement it "
                        "applies to"
                    )
                arg = stmt.value.args[0].value
                if _is_sentinel_call(stmt, SENTINEL_LOOP):
                    pending_loop = arg
                else:
                    pending_call = arg
                continue
            if pending_loop is not None:
                if pending_loop in self._loop_names:
                    raise TransformError(
                        f"duplicate ccc: loop name {pending_loop!r}: loop "
                        "counters and completion tokens are keyed by name, "
                        "so every resumable loop needs its own"
                    )
                self._loop_names.add(pending_loop)
                if self._unmarked_loops:
                    raise TransformError(
                        f"ccc: loop({pending_loop}) is nested inside an "
                        "unmarked loop; every enclosing loop of a "
                        "resumable loop must carry its own ccc: loop "
                        "directive (the loop-position stack must be "
                        "complete)"
                    )
                if isinstance(stmt, ast.For):
                    stmt = self._rewrite_for(stmt, pending_loop)
                elif isinstance(stmt, ast.While):
                    stmt = self._rewrite_while(stmt, pending_loop)
                else:
                    raise TransformError(
                        f"ccc: loop({pending_loop}) must be followed by a "
                        "for or while statement"
                    )
                pending_loop = None
            elif pending_call is not None:
                stmt = self._rewrite_call(stmt, pending_call)
                pending_call = None
            stmt = self.visit(stmt)
            out.append(stmt)
        if pending_loop is not None:
            raise TransformError(
                f"ccc: loop({pending_loop}) has no following loop statement")
        if pending_call is not None:
            raise TransformError(
                f"ccc: call({pending_call}) has no following assignment")
        return out

    # -- the rewrites -------------------------------------------------------
    def _rewrite_for(self, node: ast.For, name: str) -> ast.For:
        it = node.iter
        if not (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                and it.func.id == "range"):
            raise TransformError(
                f"ccc: loop({name}) requires 'for ... in range(...)'"
            )
        new_iter = ast.Call(
            func=_ctx_method("range"),
            args=[ast.Constant(value=name)] + it.args,
            keywords=it.keywords,
        )
        node.iter = ast.copy_location(new_iter, it)
        return node

    def _rewrite_while(self, node: ast.While, name: str) -> ast.For:
        """``while cond:`` -> a resumable counting loop re-testing cond.

        The condition (over saved state, after the state rewrite) is
        re-evaluated at the top of every iteration, including the first
        one after a restart; the persisted counter makes the loop part
        of the checkpoint's loop-position stack.
        """
        if node.orelse:
            raise TransformError(
                f"ccc: loop({name}) does not support while/else"
            )
        guard = ast.If(
            test=ast.UnaryOp(op=ast.Not(), operand=node.test),
            body=[ast.Break()], orelse=[])
        new = ast.For(
            target=ast.Name(id=f"__ccc_while_{name}", ctx=ast.Store()),
            iter=ast.Call(func=_ctx_method("while_range"),
                          args=[ast.Constant(value=name)], keywords=[]),
            body=[guard] + node.body,
            orelse=[],
        )
        return ast.copy_location(new, node)

    def _rewrite_call(self, stmt: ast.stmt, name: str) -> ast.If:
        """``x = f(...)`` -> a once-per-job call-guard saving ``x``."""
        targets: List[str] = []
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
            for t in stmt.targets:
                elts = t.elts if isinstance(t, (ast.Tuple, ast.List)) else [t]
                if not all(isinstance(e, ast.Name) for e in elts):
                    targets = []
                    break
                targets.extend(e.id for e in elts)
        if not targets:
            raise TransformError(
                f"ccc: call({name}) must be followed by an assignment of a "
                "function-call result to plain variables"
            )
        self.call_saved.update(targets)
        return ast.copy_location(_guard_if(f"call_{name}", [stmt]), stmt)

    # -- statement-list owners ---------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef):
        node.body = self._transform_body(node.body)
        return node

    def visit_For(self, node: ast.For):
        marked = _is_marked_loop(node)
        self._unmarked_loops += 0 if marked else 1
        try:
            node.body = self._transform_body(node.body)
            node.orelse = self._transform_body(node.orelse)
        finally:
            self._unmarked_loops -= 0 if marked else 1
        return node

    def visit_While(self, node: ast.While):
        # a marked while was already rewritten into a For over
        # ctx.while_range, so any While reaching here is unmarked
        self._unmarked_loops += 1
        try:
            node.body = self._transform_body(node.body)
            node.orelse = self._transform_body(node.orelse)
        finally:
            self._unmarked_loops -= 1
        return node

    def visit_If(self, node: ast.If):
        node.body = self._transform_body(node.body)
        node.orelse = self._transform_body(node.orelse)
        return node

    def visit_With(self, node: ast.With):
        node.body = self._transform_body(node.body)
        return node

    def visit_Try(self, node: ast.Try):
        node.body = self._transform_body(node.body)
        for handler in node.handlers:
            handler.body = self._transform_body(handler.body)
        node.orelse = self._transform_body(node.orelse)
        node.finalbody = self._transform_body(node.finalbody)
        return node

    visit_TryStar = visit_Try  # py3.11+ except* blocks


def _assigned_names(stmts: List[ast.stmt]) -> Set[str]:
    """Names a statement list binds in the *function* scope.

    Comprehension targets are their own scope in Python 3 — they never
    leak into the function — so their Store nodes are excluded (by node
    identity: the same name may legitimately also be assigned by a real
    statement).
    """
    comp_target_ids: Set[int] = set()
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                 ast.GeneratorExp)):
                for gen in node.generators:
                    comp_target_ids.update(id(n) for n in ast.walk(gen.target))
    names: Set[str] = set()
    for stmt in stmts:
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                    and id(node) not in comp_target_ids):
                names.add(node.id)
    return names


def instrument(fn: Callable) -> Callable:
    """Instrument ``fn`` (annotated with ``# ccc:`` directives).

    Returns a new function with the same signature, compiled in the same
    global namespace.
    """
    try:
        source = inspect.getsource(fn)
    except OSError as exc:  # pragma: no cover - interactive definitions
        raise TransformError(f"cannot read source of {fn.__name__}: {exc}")
    source = textwrap.dedent(source)
    processed, n_directives = preprocess(source)
    tree = ast.parse(processed)
    funcdef = tree.body[0]
    if not isinstance(funcdef, ast.FunctionDef):
        raise TransformError("instrument() expects a plain function")
    # strip decorators so instrumenting a decorated definition cannot recurse
    funcdef.decorator_list = []
    args = [a.arg for a in funcdef.args.args]
    if not args or args[0] != "ctx":
        raise TransformError(
            f"{fn.__name__} must take 'ctx' as its first parameter"
        )

    # ---- collect save() directives and the setup boundary ------------------
    saved: Set[str] = set()
    setup_end_idx: Optional[int] = None
    body: List[ast.stmt] = []
    for stmt in funcdef.body:
        if _is_sentinel_call(stmt, SENTINEL_SAVE):
            for arg in stmt.value.args:
                saved.add(arg.value)
            continue
        if _is_sentinel_call(stmt, SENTINEL_SETUP_END):
            if setup_end_idx is not None:
                raise TransformError("duplicate ccc: setup-end")
            setup_end_idx = len(body)
            continue
        body.append(stmt)

    # ---- setup guard ----------------------------------------------------------
    if setup_end_idx is not None:
        start = 0
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            start = 1  # keep the docstring outside the guard
        setup = body[start:setup_end_idx]
        rest = body[setup_end_idx:]
        if not setup:
            raise TransformError("ccc: setup-end with an empty setup section")
        # Locals assigned in the setup but not saved would be undefined
        # after a restart (the guard skips the section).
        leaked = (_assigned_names(setup) - saved) - {"_"}
        used_later = {
            node.id for stmt in rest for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        leaked &= used_later
        if leaked:
            raise TransformError(
                "setup section assigns variables that are used later but "
                f"not saved: {sorted(leaked)} — add them to ccc: save(...)"
            )
        guard = _guard_if("setup", setup)
        body = body[:start] + [guard] + rest

    funcdef.body = body

    # ---- loop/call directives, then the state rewrite -------------------------
    applier = _DirectiveApplier()
    applier.visit(funcdef)
    saved |= applier.call_saved
    if "ctx" in saved:
        raise TransformError("'ctx' cannot be a saved variable")
    shadowing = saved & RESERVED
    if shadowing:
        raise TransformError(
            f"saved variables {sorted(shadowing)} would shadow methods of "
            "ctx.state; rename them")
    if saved:
        rewriter = _StateRewriter(saved)
        funcdef.body = [rewriter.visit(stmt) for stmt in funcdef.body]

    # Any sentinel that survived sits somewhere the transform does not
    # support (e.g. a save() below the first statement) — fail at compile
    # time rather than leaking a NameError into the run.
    for node in ast.walk(funcdef):
        if isinstance(node, ast.Name) and node.id in SENTINELS:
            raise TransformError(
                f"ccc directive in an unsupported position "
                f"(line {node.lineno}): save/setup-end must head the "
                "function body; loop/call must precede a statement"
            )

    ast.fix_missing_locations(tree)
    code = compile(tree, filename=f"<ccc:{fn.__name__}>", mode="exec")
    namespace = dict(fn.__globals__)
    exec(code, namespace)
    instrumented = namespace[funcdef.name]
    instrumented.__ccc_saved__ = sorted(saved)
    instrumented.__ccc_directives__ = n_directives
    instrumented.__wrapped__ = fn
    return instrumented
