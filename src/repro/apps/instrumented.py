"""Heat, ring, CG, LU, MG and EP: the Figure-1 pipeline end to end.

Each kernel here is written in the **pre**-precompiler form: a plain
Python function using ordinary local variables and ordinary ``for``
loops, annotated only with ``# ccc:`` directives, and run through
:func:`repro.precompiler.instrument` at import time.  The precompiler
emits the self-checkpointing form: saved variables in ``ctx.state``, a
``"setup"`` guard, resumable ``ctx.range`` loops and the pragma calls.
Their checkpoints flow through the production path — ``ctx.state`` →
:mod:`repro.statesave.serializer` → (optionally)
:class:`~repro.statesave.incremental.IncrementalTracker` → storage — and
the recovery campaign kills and restarts them like any other kernel.

Directive coverage across the six kernels:

=========  ==========================================================
kernel     exercises
=========  ==========================================================
``heat``   save / setup-end / loop / checkpoint (the canonical form)
``ring``   the same on the smallest kernel (the quickstart demo)
``CG``     a tuple assignment in the setup that binds three saved
           arrays at once
``LU``     non-blocking receives into saved arrays, a lambda under the
           scope-aware rewriter (``cached_comm`` factory)
``MG``     **nested** ``ccc: loop`` with a mid-V-cycle pragma — the
           checkpointed loop-position stack is two deep
``EP``     tiny state (ten counters + two sums): the Table-1 extreme
=========  ==========================================================

``ccc: call`` and the ``while`` form of ``ccc: loop`` are exercised by
small kernels in ``tests/precompiler``.  The returns and the stored
checkpoint bytes of every kernel here are pinned by
``tests/apps/test_instrumented.py``.
"""

from __future__ import annotations

import numpy as np

from ..core.ccc import cached_comm
from ..mpi.communicator import PROC_NULL
from ..mpi.ops import MAX, SUM
from ..precompiler import instrument
from .kernels import (checksum, csr_matvec, diffuse, grid_2d, seeded_rng,
                      sparse_rows)


# ---------------------------------------------------------------------------
# heat — 1D explicit heat diffusion (the canonical directive set)
# ---------------------------------------------------------------------------

def check_rod(local_n: int, size: int) -> None:
    """Reject a rod the stencil cannot step.

    Every rank needs a cell, and with a neighbour its halo update reads
    both ``u[1]`` and ``u[-2]``, so a rod split over more than one rank
    needs two cells per rank.
    """
    least = 2 if size > 1 else 1
    if local_n < least:
        raise ValueError(
            f"heat needs local_n >= {least} cells per rank on {size} "
            f"rank(s), got local_n={local_n}")


@instrument
def heat(ctx, local_n: int = 32, niter: int = 40, alpha: float = 0.4,
         t_left: float = 100.0, t_right: float = 0.0,
         work_scale: float = 1.0):
    """Block-partitioned rod with a ghost-cell exchange each step.

    The rod's ends are held at fixed temperatures, so the steady state
    is a linear profile.  ``work_scale`` multiplies the modelled FLOP
    charge, so scaling studies can hold paper-regime compute-to-
    communication ratios without paper-class arrays.
    """
    # ccc: save(u, dmax)
    check_rod(local_n, ctx.size)
    u = np.zeros(local_n)
    if ctx.rank == 0:
        u[0] = t_left
    if ctx.rank == ctx.size - 1:
        u[-1] = t_right
    dmax = np.inf
    # ccc: setup-end
    comm = ctx.comm
    rank, size = ctx.rank, ctx.size
    left = rank - 1 if rank > 0 else PROC_NULL
    right = rank + 1 if rank + 1 < size else PROC_NULL
    spare = None  # the array the previous step replaced (DESIGN.md §6)
    # ccc: loop(step)
    for step in range(niter):
        # ccc: checkpoint
        ghost_l = np.array([u[0]])
        ghost_r = np.array([u[-1]])
        if left != PROC_NULL:
            comm.Sendrecv(np.ascontiguousarray(u[:1]), left, 7,
                          ghost_l, left, 8)
        if right != PROC_NULL:
            comm.Sendrecv(np.ascontiguousarray(u[-1:]), right, 8,
                          ghost_r, right, 7)
        new = np.empty_like(u) if spare is None else spare
        new[0], new[-1] = u[0], u[-1]
        diffuse(u, new, alpha)
        if left != PROC_NULL:
            new[0] = u[0] + alpha * (ghost_l[0] - 2 * u[0] + u[1])
        if right != PROC_NULL:
            new[-1] = u[-1] + alpha * (u[-2] - 2 * u[-1] + ghost_r[0])
        # clamp the physical boundary conditions
        if rank == 0:
            new[0] = t_left
        if rank == size - 1:
            new[-1] = t_right
        np.subtract(new, u, out=u)
        delta = float(np.abs(u, out=u).max())
        spare = u
        u = new
        dbuf = np.zeros(1)
        comm.Allreduce(np.array([delta]), dbuf, MAX)
        dmax = float(dbuf[0])
        ctx.work(6.0 * local_n * work_scale)
    return checksum(u, [dmax])


# ---------------------------------------------------------------------------
# ring — the minimal demo application (used by the quickstart)
# ---------------------------------------------------------------------------

@instrument
def ring(ctx, payload: int = 16, niter: int = 12, work: float = 1e-4):
    """Pass a growing payload around the ring; allreduce a running sum."""
    # ccc: save(x, total)
    x = np.arange(payload, dtype=np.float64) * (ctx.rank + 1)
    total = 0.0
    # ccc: setup-end
    comm = ctx.comm
    rank, size = ctx.rank, ctx.size
    right, left = (rank + 1) % size, (rank - 1) % size
    # ccc: loop(it)
    for it in range(niter):
        # ccc: checkpoint
        comm.Send(x, dest=right, tag=1)
        buf = np.empty(payload)
        comm.Recv(buf, source=left, tag=1)
        x = buf * 0.99 + it
        out = np.zeros(1)
        comm.Allreduce(np.array([float(x.sum())]), out, SUM)
        total += float(out[0])
        ctx.compute(work)
    return checksum(x, [total])


# ---------------------------------------------------------------------------
# CG — conjugate gradient (NPB CG analog)
# ---------------------------------------------------------------------------

@instrument
def cg(ctx, local_n: int = 64, nnz_per_row: int = 8, niter: int = 15,
       work_scale: float = 1.0):
    """``niter`` CG iterations on a ``local_n * nprocs`` system.

    Row-block partitioned sparse matrix; every iteration does a local
    CSR matvec, an allgather to assemble the full iterate and
    allreduces for the dot products — no global barrier.  The pragma
    heads each iteration: "the bottom of the main loop in conj_grad"
    (Section 6.3) is the same program point.
    """
    # ccc: save(indptr, indices, values, x, r, p_full, rho, zeta)
    indptr, indices, values = sparse_rows("cg", ctx.rank, local_n,
                                          local_n * ctx.size, nnz_per_row)
    x = np.ones(local_n * ctx.size)
    r = np.zeros(local_n)
    p_full = np.zeros(local_n * ctx.size)
    rho = 1.0
    zeta = 0.0
    # ccc: setup-end
    comm = ctx.comm
    n = local_n * ctx.size
    flops_per_iter = 2.0 * len(values) * work_scale
    # ccc: loop(iter)
    for it in range(niter):
        # ccc: checkpoint
        # q = A p   (local rows of the matvec)
        q_local = csr_matvec(indptr, indices, values, p_full)
        ctx.work(flops_per_iter)
        # assemble p for the next iteration (transpose-exchange analog)
        comm.Allgather(np.ascontiguousarray(q_local), p_full)
        # dot products via allreduce
        local_dot = np.array([float(q_local @ q_local)])
        global_dot = np.zeros(1)
        comm.Allreduce(local_dot, global_dot, SUM)
        denom = float(global_dot[0]) or 1.0
        alpha = rho / denom
        r = r + alpha * q_local
        x = x * (1.0 - 1e-3) + alpha * p_full
        # normalize to keep values bounded over long runs
        norm_local = np.array([float(r @ r)])
        norm = np.zeros(1)
        comm.Allreduce(norm_local, norm, SUM)
        rho = float(norm[0]) / (n or 1)
        zeta = zeta + 1.0 / (1.0 + rho)
        p_full = p_full / (1.0 + np.sqrt(rho))
    return checksum(r, [rho, zeta])


# ---------------------------------------------------------------------------
# LU — SSOR wavefront solver (NPB LU analog)
# ---------------------------------------------------------------------------

@instrument
def lu(ctx, local_nx: int = 16, local_ny: int = 16, niter: int = 10,
       work_scale: float = 1.0):
    """Lower and upper wavefront sweeps on a 2D processor grid.

    Pure point-to-point pipelining, no barriers — the communication
    structure that motivates non-blocking coordinated checkpointing.
    The incoming halos are non-blocking receives into saved arrays, so
    LU also exercises the request table across recovery lines.
    """
    # ccc: save(u, halo_n, halo_w, halo_s, halo_e)
    rng = seeded_rng("lu", ctx.rank)
    u = rng.standard_normal((local_ny, local_nx)) * 0.01 + 1.0
    halo_n = np.zeros(local_nx)
    halo_w = np.zeros(local_ny)
    halo_s = np.zeros(local_nx)
    halo_e = np.zeros(local_ny)
    # ccc: setup-end
    comm = ctx.comm
    py, px = grid_2d(ctx.size)
    cart = cached_comm(ctx, "grid", lambda: comm.Cart_create(
        (py, px), (False, False)))
    north, south = cart.Shift(0, 1)
    west, east = cart.Shift(1, 1)
    flops = 10.0 * local_nx * local_ny * work_scale
    # ccc: loop(istep)
    for it in range(niter):
        # ccc: checkpoint
        # ---- lower sweep: NW -> SE wavefront -------------------------------
        reqs = []
        if north != PROC_NULL:
            reqs.append(cart.Irecv(halo_n, source=north, tag=10))
        if west != PROC_NULL:
            reqs.append(cart.Irecv(halo_w, source=west, tag=11))
        if reqs:
            cart.Waitall(reqs)
        top = halo_n if north != PROC_NULL else np.zeros(local_nx)
        left = halo_w if west != PROC_NULL else np.zeros(local_ny)
        u[0, :] = 0.8 * u[0, :] + 0.1 * top + 0.1 * u[0, :].mean()
        u[:, 0] = 0.8 * u[:, 0] + 0.1 * left + 0.1 * u[:, 0].mean()
        u[1:, :] = 0.9 * u[1:, :] + 0.1 * u[:-1, :]
        u[:, 1:] = 0.9 * u[:, 1:] + 0.1 * u[:, :-1]
        ctx.work(flops)
        if south != PROC_NULL:
            cart.Send(np.ascontiguousarray(u[-1, :]), dest=south, tag=10)
        if east != PROC_NULL:
            cart.Send(np.ascontiguousarray(u[:, -1]), dest=east, tag=11)
        # ---- upper sweep: SE -> NW wavefront -------------------------------
        reqs = []
        if south != PROC_NULL:
            reqs.append(cart.Irecv(halo_s, source=south, tag=12))
        if east != PROC_NULL:
            reqs.append(cart.Irecv(halo_e, source=east, tag=13))
        if reqs:
            cart.Waitall(reqs)
        bottom = halo_s if south != PROC_NULL else np.zeros(local_nx)
        right = halo_e if east != PROC_NULL else np.zeros(local_ny)
        u[-1, :] = 0.8 * u[-1, :] + 0.1 * bottom + 0.1 * u[-1, :].mean()
        u[:, -1] = 0.8 * u[:, -1] + 0.1 * right + 0.1 * u[:, -1].mean()
        u[:-1, :] = 0.9 * u[:-1, :] + 0.1 * u[1:, :]
        u[:, :-1] = 0.9 * u[:, :-1] + 0.1 * u[:, 1:]
        ctx.work(flops)
        if north != PROC_NULL:
            cart.Send(np.ascontiguousarray(u[0, :]), dest=north, tag=12)
        if west != PROC_NULL:
            cart.Send(np.ascontiguousarray(u[:, 0]), dest=west, tag=13)

    return checksum(u)


# ---------------------------------------------------------------------------
# MG — multigrid V-cycles (NPB MG analog)
# ---------------------------------------------------------------------------

def _mg_smooth(ctx, comm, v, lv, left, right, work_scale):
    """One Jacobi smoothing pass at level ``lv`` (halo ring exchange).

    Plain helper, not instrumented: it mutates the saved list in place
    through the reference the instrumented caller passes in.
    """
    arr = v[lv]
    recv_l = np.zeros(1)
    recv_r = np.zeros(1)
    comm.Sendrecv(np.ascontiguousarray(arr[-1:]), right, 20 + lv,
                  recv_l, left, 20 + lv)
    comm.Sendrecv(np.ascontiguousarray(arr[:1]), left, 40 + lv,
                  recv_r, right, 40 + lv)
    out = arr.copy()
    out[1:-1] = 0.5 * arr[1:-1] + 0.25 * (arr[:-2] + arr[2:])
    out[0] = 0.5 * arr[0] + 0.25 * (recv_l[0] + arr[1 % len(arr)])
    out[-1] = 0.5 * arr[-1] + 0.25 * (arr[-2] + recv_r[0])
    v[lv] = out
    ctx.work(4.0 * len(arr) * work_scale)


@instrument
def mg(ctx, local_n: int = 64, levels: int = 4, niter: int = 6,
       work_scale: float = 1.0):
    """V-cycles over a 1D grid hierarchy, a barrier between cycles.

    The only NAS kernel that calls ``MPI_Barrier`` during the
    computation (Section 6), so barriers cross recovery lines like any
    other collective.  Each cycle smooths with ring halo exchanges at
    every level, restricts down and prolongates back.
    """
    # ccc: save(v, resid)
    n0 = local_n if local_n % (1 << (levels - 1)) == 0 else \
        (1 << (levels - 1)) * max(1, local_n // (1 << (levels - 1)))
    rng = seeded_rng("mg", ctx.rank)
    v = [rng.standard_normal(n0 >> lv) * 0.01 for lv in range(levels)]
    resid = 1.0
    # ccc: setup-end
    comm = ctx.comm
    left, right = (ctx.rank - 1) % ctx.size, (ctx.rank + 1) % ctx.size
    # ccc: loop(cycle)
    for cycle in range(niter):
        # ccc: checkpoint
        # descend: smooth + restrict (resumable mid-V-cycle: a restore
        # lands on the exact (cycle, lv_down) position pair)
        # ccc: loop(lv_down)
        for lv in range(levels - 1):
            # ccc: checkpoint
            _mg_smooth(ctx, comm, v, lv, left, right, work_scale)
            fine = v[lv]
            v[lv + 1] = 0.5 * (fine[0::2] + fine[1::2])
        _mg_smooth(ctx, comm, v, levels - 1, left, right, work_scale)
        # ascend: prolongate + smooth
        for lv2 in range(levels - 2, -1, -1):
            coarse = v[lv2 + 1]
            fine = v[lv2]
            fine[0::2] += 0.5 * coarse
            fine[1::2] += 0.5 * coarse
            _mg_smooth(ctx, comm, v, lv2, left, right, work_scale)
        # residual norm + the barrier MG is known for
        local = np.array([float(v[0] @ v[0])])
        total = np.zeros(1)
        comm.Allreduce(local, total, SUM)
        resid = float(total[0])
        v[0] = v[0] / (1.0 + np.sqrt(resid) * 1e-3)
        comm.Barrier()

    return checksum(v[0], [resid])


# ---------------------------------------------------------------------------
# EP — embarrassingly parallel random numbers (NPB EP analog)
# ---------------------------------------------------------------------------

@instrument
def ep(ctx, pairs_per_batch: int = 4096, batches: int = 12,
       work_scale: float = 1.0):
    """Gaussian pairs tallied into annulus counts, one final reduction.

    The saved state is ten counters and two sums, which is why EP shows
    the largest Condor-vs-C3 reduction in Table 1: the system-level
    image is dominated by the static segment, which C3 never saves.
    """
    # ccc: save(counts, sx, sy)
    counts = np.zeros(10, dtype=np.int64)
    sx = 0.0
    sy = 0.0
    # ccc: setup-end
    comm = ctx.comm
    rank = ctx.rank
    # ccc: loop(batch)
    for batch in range(batches):
        # ccc: checkpoint
        rng = seeded_rng("ep", rank, extra=batch)
        u = rng.uniform(-1.0, 1.0, size=(pairs_per_batch, 2))
        t = np.sum(u * u, axis=1)
        accept = (t > 0.0) & (t <= 1.0)
        ua, ta = u[accept], t[accept]
        factor = np.sqrt(-2.0 * np.log(ta) / ta)
        x = ua[:, 0] * factor
        y = ua[:, 1] * factor
        sx += float(x.sum())
        sy += float(y.sum())
        annulus = np.minimum(
            np.maximum(np.abs(x), np.abs(y)).astype(np.int64), 9)
        counts += np.bincount(annulus, minlength=10)[:10]
        ctx.work(25.0 * pairs_per_batch * work_scale)

    total = np.zeros(10, dtype=np.int64)
    comm.Allreduce(counts, total, SUM)
    sums = np.zeros(2)
    comm.Allreduce(np.array([sx, sy]), sums, SUM)
    return checksum(total.astype(np.float64), sums)


__all__ = ["cg", "check_rod", "ep", "heat", "lu", "mg", "ring"]
