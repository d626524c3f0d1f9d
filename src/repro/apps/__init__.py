"""Benchmark applications (NPB analogs, SMG2000, HPL) and demo apps.

Every application has the signature ``app(ctx, **params)``: it keeps all
persistent data in ``ctx.state``, loops with ``ctx.range``, places its
``#pragma ccc checkpoint`` at the documented Section-6.3 location, and
charges modelled FLOPs with ``ctx.work``.  The same function runs in
original mode, under C3 without checkpoints, and under C3 with
checkpoint/restart.

Heat, ring, CG, LU, MG and EP are written in the pre-precompiler form —
plain Python annotated with ``# ccc:`` directives — and instrumented by
:mod:`repro.precompiler` when :mod:`.instrumented` is imported.  FT, IS,
SP/BT, HPL and SMG2000 are written directly against the
:class:`~repro.statesave.context.Context` API, the form the precompiler
emits.
"""

from .ft import ft
from .hpl import hpl
from .instrumented import cg, ep, heat, lu, mg, ring
from .is_sort import is_sort
from .smg2000 import smg2000
from .sp import bt, sp

#: registry used by the harness and the table drivers
APPS = {
    "CG": cg,
    "LU": lu,
    "SP": sp,
    "BT": bt,
    "MG": mg,
    "EP": ep,
    "FT": ft,
    "IS": is_sort,
    "SMG2000": smg2000,
    "HPL": hpl,
    "ring": ring,
    "heat": heat,
}

__all__ = ["cg", "lu", "sp", "bt", "mg", "ep", "ft", "is_sort", "smg2000",
           "hpl", "ring", "heat", "APPS"]
