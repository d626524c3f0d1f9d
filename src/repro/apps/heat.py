"""Heat — 1D explicit heat-diffusion solver (domain-specific example).

Block-partitioned rod with ghost-cell exchange each step: the canonical
halo-exchange mini-app, used by the failure-injection example.  The rod's
ends are held at fixed temperatures, so the steady state is a linear
profile the example can verify after recovering from a mid-run failure.
"""

from __future__ import annotations

import numpy as np

from ..mpi.communicator import PROC_NULL
from ..mpi.ops import MAX
from .kernels import checksum, diffuse


def heat(ctx, local_n: int = 32, niter: int = 40, alpha: float = 0.4,
         t_left: float = 100.0, t_right: float = 0.0,
         work_scale: float = 1.0):
    """``work_scale`` multiplies the modelled FLOP charge, so scaling
    studies can hold paper-regime compute-to-communication ratios
    without paper-class array sizes (same knob as the NPB kernels)."""
    comm = ctx.comm
    rank, size = ctx.rank, ctx.size
    check_rod(local_n, size)
    left = rank - 1 if rank > 0 else PROC_NULL
    right = rank + 1 if rank + 1 < size else PROC_NULL

    if ctx.first_time("setup"):
        ctx.state.u = np.zeros(local_n)
        if rank == 0:
            ctx.state.u[0] = t_left
        if rank == size - 1:
            ctx.state.u[-1] = t_right
        ctx.state.dmax = np.inf
        ctx.done("setup")

    s = ctx.state
    spare = None  # the array the previous step replaced (DESIGN.md §6)
    for step in ctx.range("step", niter):
        ctx.checkpoint()
        u = s.u
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
        s.u = new
        dmax = np.zeros(1)
        comm.Allreduce(np.array([delta]), dmax, MAX)
        s.dmax = float(dmax[0])
        ctx.work(6.0 * local_n * work_scale)
    return checksum(s.u, [s.dmax])


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
