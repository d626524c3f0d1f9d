"""Experiment drivers: one function per table of the paper's Section 6.

Each driver returns a list of row dicts carrying both the measured value
and the paper's value for the same cell, and one :class:`~repro.harness.
jobs.Table` per paper table lays them out — the benchmark files under
``benchmarks/`` print it with ``render_text`` and EXPERIMENTS.md is
generated from the same rows with ``render_markdown``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..apps import APPS
from ..baselines.condor import measure_sizes
from ..core.ccc import run_c3, run_original
from ..core.protocol import C3Config
from ..mpi.timemodel import MachineModel
from ..storage.stable import InMemoryStorage
from . import paperdata
from .platforms import (
    PLATFORMS, RESTART_CODES, RESTART_MACHINES, SIZE_SCALE, TABLE1_CODES,
    TABLE1_PLATFORMS,
)
from .jobs import Table
from .parallel import run_cells
from .runner import c3_cell, original_cell, restart_cell

# ---------------------------------------------------------------------------
# Table 1 — checkpoint sizes, Condor vs C3
# ---------------------------------------------------------------------------

def _table1_app_factory(app_name: str, params: dict, pad_to_c3: int,
                        churn_blocks: int, runtime_scaled: int,
                        metadata_scaled: int):
    app = APPS[app_name]

    def wrapped(ctx):
        app(ctx, **params)
        # at 1/SIZE_SCALE footprint the stack is a few hundred bytes
        ctx.heap.stack_bytes = 512
        # allocator churn: freed blocks stay inside the Condor image
        for i in range(churn_blocks):
            addr, _ = ctx.heap.alloc_array(1024 // 8, label=f"churn{i}")
            ctx.heap.free(addr)
        live = ctx.state.nbytes + ctx.heap.live_bytes
        if live < pad_to_c3:
            ctx.state["__footprint_pad"] = np.zeros(
                max(0, (pad_to_c3 - live - metadata_scaled)) // 8)
        sizes = measure_sizes(ctx, condor_runtime_bytes=runtime_scaled,
                              c3_metadata_bytes=metadata_scaled)
        return (sizes.condor_bytes, sizes.c3_bytes)

    return wrapped


def table1_rows() -> List[Dict]:
    """Condor vs C3 checkpoint sizes on the two uniprocessor platforms."""
    rows = []
    runtime_scaled = 35 * 1024 // SIZE_SCALE   # Condor runtime, scaled
    metadata_scaled = 2048                      # C3 registries + tables
    for platform, machine in TABLE1_PLATFORMS.items():
        for app_name, label, params, pad_to_c3, churn in TABLE1_CODES:
            app = _table1_app_factory(app_name, params, pad_to_c3, churn,
                                      runtime_scaled, metadata_scaled)
            result = run_original(app, 1, machine=machine, wall_timeout=120)
            result.raise_errors()
            condor_b, c3_b = result.returns[0]
            condor_mb = condor_b * SIZE_SCALE / 1e6
            c3_mb = c3_b * SIZE_SCALE / 1e6
            reduction = (1.0 - c3_b / condor_b) * 100.0
            paper = paperdata.TABLE1[platform][label]
            rows.append({
                "platform": platform, "code": label,
                "condor_mb": condor_mb, "c3_mb": c3_mb,
                "reduction_pct": reduction,
                "paper_condor_mb": paper[0], "paper_c3_mb": paper[1],
                "paper_reduction_pct": paper[2],
            })
    return rows


CONDOR_TABLE = Table(
    f"Table 1: Condor and C3 checkpoint sizes "
    f"(MB, paper scale = measured x {SIZE_SCALE})", (
        ("Platform", "platform"),
        ("Code", "code"),
        ("Condor MB (meas.)", "condor_mb"),
        ("C3 MB (meas.)", "c3_mb"),
        ("Reduction % (meas.)", "reduction_pct"),
        ("Reduction % (paper)", "paper_reduction_pct"),
    ))


# ---------------------------------------------------------------------------
# Tables 2-3 — overhead without checkpoints
# ---------------------------------------------------------------------------

def _overhead_rows(codes, machine_for, paper_table,
                   parallel: Optional[bool] = None) -> List[Dict]:
    # Every (code, scale point) is two independent simulations; farm the
    # whole grid to the process pool and assemble rows from the results.
    specs, cells = [], []
    for cfg in codes:
        paper_rows = paper_table[cfg.label]
        for point, paper in zip(cfg.points, paper_rows):
            machine = machine_for(cfg.app_name)
            specs.append((cfg, point, paper))
            cells.append(original_cell(cfg.app_name, point.sim_procs,
                                       machine, point.params))
            cells.append(c3_cell(cfg.app_name, point.sim_procs, machine,
                                 point.params, checkpoints=0))
    results = run_cells(cells, parallel=parallel)
    rows = []
    for i, (cfg, point, paper) in enumerate(specs):
        orig, c3 = results[2 * i], results[2 * i + 1]
        overhead = ((c3.virtual_seconds - orig.virtual_seconds)
                    / orig.virtual_seconds * 100.0)
        rows.append({
            "code": cfg.label,
            "paper_procs": point.paper_procs,
            "paper_nodes": point.paper_nodes,
            "sim_procs": point.sim_procs,
            "original_s": orig.virtual_seconds,
            "c3_s": c3.virtual_seconds,
            "overhead_pct": overhead,
            "paper_original_s": paper[2], "paper_c3_s": paper[3],
            "paper_overhead_pct": paper[4],
        })
    return rows


def table2_rows(parallel: Optional[bool] = None) -> List[Dict]:
    """Runtime overhead without checkpoints on the Lemieux model."""
    platform = PLATFORMS["lemieux"]
    return _overhead_rows(platform.codes, platform.machine_for,
                          paperdata.TABLE2, parallel=parallel)


def table3_rows(parallel: Optional[bool] = None) -> List[Dict]:
    """Runtime overhead without checkpoints on the Velocity 2 / CMI models."""
    platform = PLATFORMS["velocity2"]
    return _overhead_rows(platform.codes, platform.machine_for,
                          paperdata.TABLE3, parallel=parallel)


def _procs(row: Dict) -> str:
    return f"{row['paper_procs']} ({row['paper_nodes']})"


#: Tables 2-3 (the benches title each with its platform)
OVERHEAD_TABLE = Table("Runtimes (s) without checkpoints", (
    ("Code", "code"),
    ("Procs (paper)", _procs),
    ("Ranks (sim)", "sim_procs"),
    ("Original s (meas.)", "original_s"),
    ("C3 s (meas.)", "c3_s"),
    ("Overhead % (meas.)", "overhead_pct"),
    ("Overhead % (paper)", "paper_overhead_pct"),
))


# ---------------------------------------------------------------------------
# Tables 4-5 — overhead with checkpoints (configurations #1/#2/#3)
# ---------------------------------------------------------------------------

def _checkpoint_rows(codes, machine_for, paper_table,
                     parallel: Optional[bool] = None) -> List[Dict]:
    # Two waves: configuration #1 runs give the reference times that
    # configurations #2/#3 (and the overlapped production path) need for
    # their checkpoint intervals; the cells within each wave are
    # independent and sweep concurrently.
    specs = []
    wave1 = []
    for cfg in codes:
        paper_rows = paper_table[cfg.label]
        for point, paper in zip(cfg.points, paper_rows):
            machine = machine_for(cfg.app_name)
            specs.append((cfg, point, paper, machine))
            wave1.append(c3_cell(cfg.app_name, point.sim_procs, machine,
                                 point.params, checkpoints=0))
    cfg1_results = run_cells(wave1, parallel=parallel)
    wave2 = []
    for (cfg, point, paper, machine), cfg1 in zip(specs, cfg1_results):
        common = dict(checkpoints=1, reference_time=cfg1.virtual_seconds)
        wave2.append(c3_cell(cfg.app_name, point.sim_procs, machine,
                             point.params, save_to_disk=False, **common))
        wave2.append(c3_cell(cfg.app_name, point.sim_procs, machine,
                             point.params, save_to_disk=True, **common))
        # the overlapped write-back pipeline: same checkpoint, staged to
        # the background drain device instead of blocking in-line
        wave2.append(c3_cell(cfg.app_name, point.sim_procs, machine,
                             point.params, save_to_disk=True, overlap=True,
                             **common))
    cfg23_results = run_cells(wave2, parallel=parallel)
    rows = []
    for i, ((cfg, point, paper, machine), cfg1) in enumerate(
            zip(specs, cfg1_results)):
        cfg2, cfg3, ovl = (cfg23_results[3 * i], cfg23_results[3 * i + 1],
                           cfg23_results[3 * i + 2])
        size_bytes = cfg3.checkpoint_bytes + cfg3.log_bytes
        rows.append({
            "code": cfg.label,
            "paper_procs": point.paper_procs,
            "paper_nodes": point.paper_nodes,
            "sim_procs": point.sim_procs,
            "cfg1_s": cfg1.virtual_seconds,
            "cfg2_s": cfg2.virtual_seconds,
            "cfg3_s": cfg3.virtual_seconds,
            "overlap_s": ovl.virtual_seconds,
            "size_per_proc_mb": size_bytes / 1e6,
            "cost_s": cfg3.virtual_seconds - cfg1.virtual_seconds,
            "overlap_cost_s": ovl.virtual_seconds - cfg1.virtual_seconds,
            "committed": cfg3.checkpoints_committed,
            "paper_cfg1_s": paper[2], "paper_cfg2_s": paper[3],
            "paper_cfg3_s": paper[4],
            "paper_size_per_proc_mb": paper[5], "paper_cost_s": paper[6],
        })
    return rows


def table4_rows(parallel: Optional[bool] = None) -> List[Dict]:
    """Overhead with one checkpoint on the Lemieux model."""
    platform = PLATFORMS["lemieux"]
    return _checkpoint_rows(platform.codes, platform.machine_for,
                            paperdata.TABLE4, parallel=parallel)


def table5_rows(parallel: Optional[bool] = None) -> List[Dict]:
    """Overhead with one checkpoint on the Velocity 2 / CMI models."""
    platform = PLATFORMS["velocity2"]
    return _checkpoint_rows(platform.codes, platform.machine_for,
                            paperdata.TABLE5, parallel=parallel)


#: Tables 4-5
CHECKPOINT_TABLE = Table("Runtimes (s) with one checkpoint", (
    ("Code", "code"),
    ("Procs (paper)", _procs),
    ("#1 s", "cfg1_s"),
    ("#2 s", "cfg2_s"),
    ("#3 s", "cfg3_s"),
    ("Overlap s", "overlap_s"),
    ("Size/proc MB (meas.)", "size_per_proc_mb"),
    ("Cost s (meas.)", "cost_s"),
    ("Overlap cost s", "overlap_cost_s"),
    ("Size/proc MB (paper)", "paper_size_per_proc_mb"),
    ("Cost s (paper)", "paper_cost_s"),
))


# ---------------------------------------------------------------------------
# Tables 6-7 — restart cost (uniprocessor)
# ---------------------------------------------------------------------------

def _restart_rows(machine: MachineModel, paper_table,
                  parallel: Optional[bool] = None) -> List[Dict]:
    cells = [restart_cell(app_name, machine, params)
             for app_name, label, params in RESTART_CODES]
    measured = run_cells(cells, parallel=parallel)
    rows = []
    for (app_name, label, params), m in zip(RESTART_CODES, measured):
        paper = paper_table[label]
        rows.append({
            "code": label,
            "original_s": m["original_seconds"],
            "restart_cost_s": m["restart_cost"],
            "restart_cost_pct": (m["restart_cost"] / m["original_seconds"]
                                 * 100.0),
            "restore_s": m["restore_seconds"],
            "paper_original_s": paper[0],
            "paper_restart_cost_s": paper[1],
            "paper_restart_cost_pct": paper[2],
        })
    return rows


def table6_rows(parallel: Optional[bool] = None) -> List[Dict]:
    """Restart costs on the Lemieux model."""
    return _restart_rows(RESTART_MACHINES["table6"], paperdata.TABLE6,
                         parallel=parallel)


def table7_rows(parallel: Optional[bool] = None) -> List[Dict]:
    """Restart costs on the CMI model."""
    return _restart_rows(RESTART_MACHINES["table7"], paperdata.TABLE7,
                         parallel=parallel)


#: Tables 6-7
RESTART_TABLE = Table("Restart costs (s)", (
    ("Code", "code"),
    ("Original s (meas.)", "original_s"),
    ("Restart cost s (meas.)", "restart_cost_s"),
    ("Relative % (meas.)", "restart_cost_pct"),
    ("Relative % (paper)", "paper_restart_cost_pct"),
))


# ---------------------------------------------------------------------------
# Recovery campaign (the Tables 6/7 claim, exercised across the whole
# scenario space instead of the two uniprocessor codes)
# ---------------------------------------------------------------------------

def campaign_restart_rows(rows: List[Dict]) -> List[Dict]:
    """Campaign rows in the Tables 6/7 restart-cost schema.

    Each verified kill/restart scenario yields one row with the measured
    keys :data:`RESTART_TABLE` shows (``paper_*`` cells are None —
    the paper only measured the two uniprocessor machines), so campaign
    results append directly to the Table 6/7 outputs as extra
    multi-process evidence for the "restart costs are negligible" claim.
    """
    out = []
    for r in rows:
        if not r.get("passed") or not r.get("restarts"):
            continue
        golden = r["golden_seconds"]
        out.append({
            "code": r["scenario"],
            "original_s": golden,
            "restart_cost_s": r["restart_cost_seconds"],
            "restart_cost_pct": r["restart_cost_seconds"] / golden * 100.0,
            "restore_s": r["restore_seconds"],
            "paper_original_s": None,
            "paper_restart_cost_s": None,
            "paper_restart_cost_pct": None,
        })
    return out


# ---------------------------------------------------------------------------
# Ablations (design choices of Section 4.5)
# ---------------------------------------------------------------------------

def ablation_initiation(nprocs: int = 6, checkpoints: int = 3) -> Dict:
    """Any-process initiation vs the earlier distinguished initiator."""
    from ..apps import ring
    out = {}
    for name, distinguished in (("any_process", False),
                                ("distinguished", True)):
        storage = InMemoryStorage()
        config = C3Config(checkpoint_interval=2e-4,
                          max_checkpoints=checkpoints,
                          distinguished_initiator=distinguished)
        result, stats = run_c3(ring, nprocs, storage=storage, config=config,
                               app_args=())
        result.raise_errors()
        st = [s for s in stats if s]
        out[name] = {
            "virtual_seconds": result.virtual_time,
            "control_msgs": sum(s.control_msgs for s in st),
            "committed": min(s.checkpoints_committed for s in st),
        }
    return out


def ablation_logging_phases(nprocs: int = 4) -> Dict:
    """Separate NonDet/RecvOnly phases (stream reductions) vs the result-
    logging optimization — measures log volume and runtime."""
    from ..apps import cg
    out = {}
    for name, log_results in (("stream_reductions", False),
                              ("result_logging", True)):
        storage = InMemoryStorage()
        config = C3Config(checkpoint_interval=1e-4, max_checkpoints=2,
                          log_reduction_results=log_results)
        result, stats = run_c3(cg, nprocs, storage=storage, config=config)
        result.raise_errors()
        st = [s for s in stats if s]
        out[name] = {
            "virtual_seconds": result.virtual_time,
            "log_bytes": sum(s.last_log_bytes for s in st),
            "events_logged": sum(s.events_logged for s in st),
            "late_logged": sum(s.late_logged for s in st),
        }
    return out


def ablation_piggyback(nprocs: int = 4) -> Dict:
    """3-bit piggyback vs piggybacking the full epoch (Section 3.2)."""
    from ..apps import smg2000
    out = {}
    for codec in ("3bit", "full"):
        storage = InMemoryStorage()
        config = C3Config(codec=codec)
        result, stats = run_c3(smg2000, nprocs, storage=storage,
                               config=config)
        result.raise_errors()
        out[codec] = {"virtual_seconds": result.virtual_time}
    out["overhead_ratio"] = (out["full"]["virtual_seconds"]
                             / out["3bit"]["virtual_seconds"])
    return out


def ablation_blocking_vs_nonblocking(nprocs: int = 4) -> Dict:
    """C3's non-blocking protocol vs the blocking-coordinated baseline."""
    from ..apps import lu
    from ..baselines.blocking import run_blocking
    params = dict(local_nx=16, local_ny=16, niter=10, work_scale=50.0)
    app = APPS["LU"]

    def wrapped(ctx):
        return app(ctx, **params)

    base = run_original(wrapped, nprocs)
    base.raise_errors()
    interval = base.virtual_time * 0.3

    storage = InMemoryStorage()
    c3_result, _ = run_c3(wrapped, nprocs, storage=storage,
                          config=C3Config(checkpoint_interval=interval,
                                          max_checkpoints=2))
    c3_result.raise_errors()
    # the blocking baseline needs pragma-aligned triggers (see its module
    # docstring); two checkpoints over the 10-iteration run
    blk_result, blk_stats = run_blocking(wrapped, nprocs,
                                         storage=InMemoryStorage(),
                                         interval_pragmas=4)
    blk_result.raise_errors()
    return {
        "original_s": base.virtual_time,
        "c3_s": c3_result.virtual_time,
        "blocking_s": blk_result.virtual_time,
        "blocking_stall_s": max(s.barrier_stall for s in blk_stats if s),
    }
