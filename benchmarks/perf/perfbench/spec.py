"""The benchmark's contract as data: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repo root is :func:`benchmark_json` written
out; a test keeps the two equal.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .trace import LAYERS

#: seconds one run measures (``--seconds`` default; the driver passes it)
RUN_SECONDS = 15

COMMAND = ["python3", "benchmarks/perf/run.py"]
PATHS = ["benchmarks/perf"]

#: name -> one line on why the workload exists
WORKLOADS: Dict[str, str] = {
    "campaign-smoke":
        "Headline row: 36 cells, every app kernel killed, restarted and "
        "verified bitwise; ~150 engine launches, every layer does a "
        "little, so a regression anywhere shows and nothing dominates.",
    "scale-256":
        "Messaging only: ring@256, heat@256, CG@64 original + C3 with zero "
        "checkpoints; fiber hand-off, carrier start-up, matching, pack, "
        "collectives, piggyback, with state-saving and storage idle.",
    "ckpt-stream":
        "Write side: heat and CG stream 30 recovery lines (264 MB) through "
        "serialise, digest, WAL append, fsync and segment GC on real "
        "disk; checkpoint path >= 40% of wall, a few hundred messages.",
    "restart-cold":
        "Read side: four restarts from only what a killed job left on "
        "disk; cold WAL replay, agree-then-vet election, deep validation, "
        "decode. A write-path gain that costs reads shows here.",
    "service-loop":
        "CampaignService, 2 workers, closed loop of 4 tenants, 42 unique "
        "jobs then 18 duplicates: the thread-pool path, queueing, tenant "
        "namespaces and the golden-run cache whose hits must stay cheap.",
    "shard-256":
        "The scale-256 points on engine sharded:4, so the ratio to "
        "scale-256 isolates fork, pipe framing, pickling and barrier "
        "epochs (single-core total work, not parallel speed-up).",
}

#: (name, unit, better, bound) — every workload reports every one.  The
#: host-time bounds are what the reference sandbox can resolve, not what
#: one would like: its noise comes in episodes of minutes during which
#: everything runs 1.2-1.7x slower (see README, "Steadiness").
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("wall_s", "s", "lower", 0.25),
    ("virt_s", "virt_s", "lower", 0.01),
    ("peak_rss_mb", "MiB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
]

PER_LAYER: List[Tuple[str, str, str]] = [
    (f"{layer}.self_s", "s", "lower") for layer in LAYERS
] + [
    ("mpi.engine.launches", "count", "lower"),
    ("mpi.engine.msgs", "count", "lower"),
    ("mpi.engine.msg_bytes", "B", "lower"),
    ("mpi.scheduler.switches", "count", "lower"),
    ("mpi.scheduler.handoff_us", "us", "lower"),
    ("mpi.matching.deliver_calls", "count", "lower"),
    ("mpi.matching.post_calls", "count", "lower"),
    ("mpi.datatypes.pack_calls", "count", "lower"),
    ("mpi.datatypes.pack_bytes", "B", "lower"),
    ("mpi.collectives.calls", "count", "lower"),
    ("core.protocol.app_sends", "count", "lower"),
    ("core.protocol.control_msgs", "count", "lower"),
    ("core.protocol.late_logged", "count", "lower"),
    ("core.protocol.early_recorded", "count", "lower"),
    ("core.protocol.replayed_from_log", "count", "lower"),
    ("core.protocol.suppressed_sends", "count", "lower"),
    ("core.checkpoint.started", "count", "lower"),
    ("core.checkpoint.committed", "count", "higher"),
    ("core.checkpoint.restores", "count", "lower"),
    ("core.checkpoint.restore_s", "s", "lower"),
    ("statesave.serializer.dumps_calls", "count", "lower"),
    ("statesave.serializer.dumps_bytes", "B", "lower"),
    ("statesave.serializer.dumps_s", "s", "lower"),
    ("statesave.serializer.dumps_mb_per_s", "MB/s", "higher"),
    ("statesave.serializer.loads_calls", "count", "lower"),
    ("statesave.serializer.loads_bytes", "B", "lower"),
    ("statesave.serializer.loads_s", "s", "lower"),
    ("storage.store.put_section_calls", "count", "lower"),
    ("storage.store.commit_line_calls", "count", "lower"),
    ("storage.store.group_commits", "count", "lower"),
    ("storage.store.segments_retired", "count", "higher"),
    ("storage.store.segments_compacted", "count", "lower"),
    ("storage.store.replays", "count", "lower"),
    ("storage.store.reload_s", "s", "lower"),
    ("storage.store.write_amp", "x", "lower"),
    ("storage.stable.write_count", "count", "lower"),
    ("storage.stable.written_bytes", "B", "lower"),
    ("storage.stable.fsync_count", "count", "lower"),
    ("storage.stable.sync_s", "s", "lower"),
    ("storage.stable.append_s", "s", "lower"),
    ("storage.stable.read_s", "s", "lower"),
    ("mpi.sharded.overhead_x", "x", "lower"),
    ("mpi.sharded.master_cpu_s", "s", "lower"),
    ("mpi.sharded.workers_cpu_s", "s", "lower"),
    ("service.jobs_executed", "count", "lower"),
    ("service.jobs_cached", "count", "higher"),
    ("service.cache_hit_ms", "ms", "lower"),
    ("service.overhead_x", "x", "lower"),
    # demoted from end-to-end: only service-loop has them, and the
    # contract makes every workload report every end-to-end metric
    ("service.lat_p50_ms", "ms", "lower"),
    ("service.lat_p90_ms", "ms", "lower"),
    ("precompiler.import_s", "s", "lower"),
    ("harness.prepare_s", "s", "lower"),
    ("harness.samples", "count", "higher"),
    ("harness.pass_median_s", "s", "lower"),
    ("harness.fail_frac", "fraction", "lower"),
    ("harness.sim_digest_mismatch", "count", "lower"),
    ("harness.leaked_paths", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_x", "x", "lower"),
    ("trace.self_sum_err", "fraction", "lower"),
    ("env.steal_frac", "fraction", "lower"),
]


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
