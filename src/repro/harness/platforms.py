"""Experiment scale configuration (platform models x process counts).

Paper mapping: this module pins the *configurations* of the paper's
Section 6 evaluation — the (platform, code, process count, problem
class) grid behind Tables 2-5 (runtime overhead and one-checkpoint
overhead on Lemieux / Velocity 2 / CMI), Table 1's checkpoint-size
codes, and the Tables 6-7 restart codes — so EXPERIMENTS.md can state
precisely which paper cell each reproduction row corresponds to.

Every overhead cell is a :class:`ScalePoint` carrying **two
fidelities**:

* ``sim`` — the downscaled reproduction (the paper's 32-1024 processes
  become 4/8/16 simulated ranks, with app parameters calibrated to keep
  the compute-to-communication ratio in the regime the paper reports).
  These remain the fast defaults for the table drivers and smoke tests.
* ``paper`` — the paper's true process count, feasible since the engine
  default moved to the cooperative rank scheduler
  (:mod:`repro.mpi.scheduler`): rank fibers cost a parked carrier and a
  small stack, not a free-running 1 MiB thread, so 256-1024-rank jobs
  are routine.  Per-rank parameters are carried over unchanged (weak
  scaling: the same local working set per rank), which is exactly the
  regime of the paper's scalability claim — overhead should stay flat
  as the process count grows.

:data:`PLATFORMS` groups the overhead codes per cluster model into
:class:`PlatformConfig` handles; the 16-256-rank scaling study in
:mod:`repro.harness.scaling` sweeps the same machine models.

Table 1's checkpoint sizes are reproduced at 1/100 of the paper's
footprint, with the platform static segments scaled by the same factor
so the *reduction percentages* are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional, Tuple

from ..mpi.timemodel import (
    CMI, LEMIEUX, LINUX_UNIPROC, MachineModel, SOLARIS_UNIPROC, VELOCITY2,
)

#: Table-1 footprint scale: we reproduce sizes at paper_bytes / SIZE_SCALE.
SIZE_SCALE = 100

#: recognized fidelities for :meth:`ScalePoint.procs` / ``params_for``
SCALES = ("sim", "paper")


@dataclass(frozen=True)
class ScalePoint:
    """One overhead cell, runnable downscaled (``sim``) or at the
    paper's true process count (``paper``)."""

    paper_procs: int
    paper_nodes: int
    sim_procs: int
    params: dict
    #: per-rank parameters for the paper-scale run; ``None`` reuses
    #: ``params`` unchanged (weak scaling: same local working set)
    paper_params: Optional[dict] = None

    def procs(self, scale: str = "sim") -> int:
        """Process count at the chosen fidelity."""
        _check_scale(scale)
        return self.sim_procs if scale == "sim" else self.paper_procs

    def params_for(self, scale: str = "sim") -> dict:
        """App parameters at the chosen fidelity (a fresh dict)."""
        _check_scale(scale)
        if scale == "paper" and self.paper_params is not None:
            return dict(self.paper_params)
        return dict(self.params)


def _check_scale(scale: str) -> None:
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; known: {SCALES}")


@dataclass(frozen=True)
class OverheadConfig:
    """Configuration of one code in Tables 2-5."""

    app_name: str
    label: str
    points: Tuple[ScalePoint, ...]


@dataclass(frozen=True)
class PlatformConfig:
    """One evaluation cluster: machine model(s) plus its overhead codes.

    ``machine_overrides`` maps app names to a different machine model —
    the paper ran the Tables 3/5 HPL rows on CMI rather than Velocity 2.
    """

    name: str
    machine: MachineModel
    codes: Tuple[OverheadConfig, ...]
    machine_overrides: Mapping[str, MachineModel] = field(
        default_factory=dict)

    def machine_for(self, app_name: str) -> MachineModel:
        return self.machine_overrides.get(app_name, self.machine)

    def scale_points(self, scale: str = "sim"
                     ) -> Iterator[Tuple[OverheadConfig, ScalePoint, int,
                                         dict, MachineModel]]:
        """Every runnable cell of this platform at the chosen fidelity.

        Yields ``(code, point, nprocs, params, machine)`` rows;
        ``scale="paper"`` selects the paper's true process counts.
        """
        _check_scale(scale)
        for cfg in self.codes:
            machine = self.machine_for(cfg.app_name)
            for pt in cfg.points:
                yield cfg, pt, pt.procs(scale), pt.params_for(scale), machine


def _pts(app: str, triples) -> Tuple[ScalePoint, ...]:
    return tuple(ScalePoint(pp, pn, sp, params) for pp, pn, sp, params in triples)


#: Tables 2 and 4 (Lemieux).  Parameters hold per-rank work roughly
#: constant while communication grows with the rank count, reproducing the
#: mild upward overhead trend of the paper.
LEMIEUX_CODES: Tuple[OverheadConfig, ...] = (
    OverheadConfig("CG", "CG (D)", _pts("CG", [
        (64, 16, 4, dict(local_n=96, nnz_per_row=8, niter=12, work_scale=353.0)),
        (256, 64, 8, dict(local_n=48, nnz_per_row=8, niter=12, work_scale=232.0)),
        (1024, 256, 16, dict(local_n=24, nnz_per_row=8, niter=12, work_scale=1130.0)),
    ])),
    OverheadConfig("LU", "LU (D)", _pts("LU", [
        (64, 16, 4, dict(local_nx=24, local_ny=24, niter=12, work_scale=7.0)),
        (256, 64, 8, dict(local_nx=16, local_ny=16, niter=12, work_scale=19.0)),
        (1024, 256, 16, dict(local_nx=12, local_ny=12, niter=12, work_scale=23.0)),
    ])),
    OverheadConfig("SP", "SP (D)", _pts("SP", [
        (64, 16, 4, dict(local_rows=12, row_len=64, niter=12, work_scale=1.3)),
        (256, 64, 8, dict(local_rows=8, row_len=64, niter=12, work_scale=3.0)),
        (1024, 256, 16, dict(local_rows=6, row_len=64, niter=12, work_scale=5.5)),
    ])),
    OverheadConfig("SMG2000", "SMG2000", _pts("SMG2000", [
        (64, 16, 4, dict(local_n=16, levels=5, niter=4, work_scale=330.0)),
        (256, 64, 8, dict(local_n=16, levels=5, niter=4, work_scale=240.0)),
        (1024, 256, 16, dict(local_n=16, levels=5, niter=4, work_scale=200.0)),
    ])),
    OverheadConfig("HPL", "HPL", _pts("HPL", [
        (64, 16, 4, dict(n=96, block=16, trials=3, work_scale=3.1)),
        (256, 64, 8, dict(n=96, block=16, trials=3, work_scale=1.5)),
        (1024, 256, 16, dict(n=64, block=8, trials=3, work_scale=21.0)),
    ])),
)

#: Tables 3 and 5 (Velocity 2; HPL rows ran on CMI in the paper).
VELOCITY2_CODES: Tuple[OverheadConfig, ...] = (
    OverheadConfig("CG", "CG (D)", _pts("CG", [
        (64, 32, 4, dict(local_n=96, nnz_per_row=8, niter=12, work_scale=830.0)),
        (128, 64, 8, dict(local_n=48, nnz_per_row=8, niter=12, work_scale=1250.0)),
        (256, 128, 16, dict(local_n=24, nnz_per_row=8, niter=12, work_scale=2580.0)),
    ])),
    OverheadConfig("LU", "LU (D)", _pts("LU", [
        (64, 32, 4, dict(local_nx=24, local_ny=24, niter=12, work_scale=255.0)),
        (128, 64, 8, dict(local_nx=16, local_ny=16, niter=12, work_scale=200.0)),
        (256, 128, 16, dict(local_nx=12, local_ny=12, niter=12, work_scale=650.0)),
    ])),
    OverheadConfig("SP", "SP (D)", _pts("SP", [
        (64, 32, 4, dict(local_rows=12, row_len=64, niter=12, work_scale=42.0)),
        (144, 72, 8, dict(local_rows=8, row_len=64, niter=12, work_scale=123.0)),
        (256, 128, 16, dict(local_rows=6, row_len=64, niter=12, work_scale=116.0)),
    ])),
    OverheadConfig("SMG2000", "SMG2000", _pts("SMG2000", [
        (32, 16, 4, dict(local_n=16, levels=5, niter=4, work_scale=85.0)),
        (64, 32, 8, dict(local_n=16, levels=5, niter=4, work_scale=40.0)),
        (128, 64, 16, dict(local_n=16, levels=5, niter=4, work_scale=75.0)),
    ])),
    OverheadConfig("HPL", "HPL", _pts("HPL", [
        (32, 16, 4, dict(n=96, block=16, trials=3, work_scale=30.0)),
        (64, 32, 8, dict(n=96, block=16, trials=3, work_scale=140.0)),
        (128, 64, 16, dict(n=96, block=16, trials=3, work_scale=850.0)),
    ])),
)

#: The evaluation clusters as first-class handles: the Tables 2-5
#: drivers (``repro.harness.experiments``) resolve their codes and
#: per-app machines here, and the paper-scale cells come from
#: ``scale_points("paper")``.  (The 16-256-rank scaling study sweeps
#: the same machine models but with its own weak-scaling kernels; see
#: :mod:`repro.harness.scaling`.)
PLATFORMS: Dict[str, PlatformConfig] = {
    "lemieux": PlatformConfig("lemieux", LEMIEUX, LEMIEUX_CODES),
    "velocity2": PlatformConfig("velocity2", VELOCITY2, VELOCITY2_CODES,
                                machine_overrides={"HPL": CMI}),
}


#: Table 1 codes with per-app parameters sized so the C3 checkpoint lands
#: near paper_bytes / SIZE_SCALE, plus the paper's class label.
#: (app, label, params, pad_to_c3_bytes, heap_churn_blocks)
TABLE1_CODES: Tuple[Tuple[str, str, dict, int, int], ...] = (
    ("BT", "BT (A)", dict(local_rows=24, row_len=4096, niter=2), 3_063_900, 6),
    ("CG", "CG (B)", dict(local_n=12000, nnz_per_row=8, niter=2), 4_274_400, 6),
    ("EP", "EP (A)", dict(pairs_per_batch=1024, batches=2), 10_000, 2),
    ("FT", "FT (A)", dict(local_rows=16, row_len=8192, niter=2), 4_186_900, 6),
    ("IS", "IS (A)", dict(keys_per_rank=4096, niter=2), 960_000, 4),
    ("LU", "LU (A)", dict(local_nx=160, local_ny=160, niter=2), 445_400, 4),
    ("MG", "MG (B)", dict(local_n=262144, levels=4, niter=2), 4_354_800, 6),
    ("SP", "SP (A)", dict(local_rows=12, row_len=4096, niter=2), 796_300, 4),
)

#: Table-1 platforms with static segments scaled by SIZE_SCALE.
TABLE1_PLATFORMS = {
    "solaris": SOLARIS_UNIPROC.with_overrides(
        static_segment_bytes=SOLARIS_UNIPROC.static_segment_bytes // SIZE_SCALE),
    "linux": LINUX_UNIPROC.with_overrides(
        static_segment_bytes=LINUX_UNIPROC.static_segment_bytes // SIZE_SCALE),
}

#: Tables 6/7 uniprocessor codes (class A analogs) and machines.
RESTART_CODES: Tuple[Tuple[str, str, dict], ...] = (
    ("CG", "CG (A)", dict(local_n=256, nnz_per_row=8, niter=10, work_scale=16000.0)),
    ("LU", "LU (A)", dict(local_nx=64, local_ny=64, niter=10, work_scale=28000.0)),
    ("SP", "SP (A)", dict(local_rows=16, row_len=64, niter=10, work_scale=11000.0)),
    ("SMG2000", "SMG2000", dict(local_n=32, levels=5, niter=6, work_scale=2500.0)),
    ("HPL", "HPL", dict(n=96, block=16, trials=4, work_scale=9000.0)),
)

RESTART_MACHINES = {"table6": LEMIEUX, "table7": CMI}
