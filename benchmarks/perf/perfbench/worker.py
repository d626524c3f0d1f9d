"""The workload subprocess: one workload, samples of its units, one JSON blob.

Launched fresh and pinned by :mod:`perfbench.cli` (never imported by
it), so interpreter state, caches and allocator history never carry
from one workload to the next.  Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import threading
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

from . import reduce
from .spec import PER_LAYER
from .trace import LAYERS, Attribution, Tracer, attribute, traced, write_spans
from .workloads import PRECOMPILER_IMPORT_S, WORKLOADS, Checked

#: a unit's minimum counts as confirmed once its two smallest samples
#: agree to within this share of the smaller
CONFIRM_TOLERANCE = 0.02
#: every unit is sampled in this many whole passes before any is singled
#: out: a minimum needs something to be the minimum of
WHOLE_PASSES = 2

REFERENCE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "reference.json")


def sample_unit(unit, tracer: Optional[Tracer] = None) -> Tuple[float, Any]:
    """One timed call of one unit: ``(seconds, what it returned)``.

    A unit that raises yields a ``Checked`` with all its ops failed in
    place of a result.
    """
    if unit.before is not None:
        unit.before()
    gc.collect()
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            with tracer.span(f"unit:{unit.name}", unit.layer):
                out = unit.run()
        else:
            out = unit.run()
    except Exception:  # noqa: BLE001 - a raising unit is failed ops
        out = Checked(
            ops=unit.ops, failed=unit.ops, rows=[{"error": unit.name}],
            virt_s=0.0, notes=[f"{unit.name} raised: "
                               f"{traceback.format_exc().splitlines()[-1]}"])
    return time.perf_counter() - t0, out


def checked(unit, out) -> Checked:
    return out if isinstance(out, Checked) else unit.check(out)


def sample_units(units, seconds: float, passes: Optional[int]
                 ) -> Tuple[List[List[float]], List[List[Any]], List[float]]:
    """Sample every unit until the time budget is spent.

    Whole passes first (``WHOLE_PASSES`` of them, every unit in order).
    After that each round re-runs only the units whose minimum is not yet
    confirmed — the ones interference hit — and, once every minimum is
    confirmed, all of them again, until the next unit no longer fits.
    ``passes`` asks for exactly that many whole passes instead.

    Every sample counts, the first too: the reducer is a minimum, which a
    cold first call can only fail to lower.  Returns ``(seconds per unit
    per sample, Checked per unit per sample, totals of the whole passes)``.
    """
    deadline = time.perf_counter() + seconds
    times: List[List[float]] = [[] for _ in units]
    checks: List[List[Any]] = [[] for _ in units]
    pass_totals: List[float] = []
    while len(pass_totals) != passes:
        fixed = bool(passes) or len(pass_totals) < WHOLE_PASSES
        pending = list(range(len(units)))
        if not fixed:
            pending = [u for u in pending
                       if not reduce.confirmed(times[u], CONFIRM_TOLERANCE)
                       ] or pending
        round_times = []
        for u in pending:
            if not fixed and time.perf_counter() + min(times[u]) > deadline:
                continue
            dt, out = sample_unit(units[u])
            times[u].append(dt)
            checks[u].append(checked(units[u], out))
            round_times.append(dt)
        if len(round_times) == len(units):
            pass_totals.append(sum(round_times))
        if not round_times:
            break
    return times, checks, pass_totals


def _cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def per_layer(tracer: Tracer, att: Attribution) -> Dict[str, float]:
    """Fold one traced pass into the per-layer metrics it can supply."""
    calls, incl, vals = att.calls, att.inclusive_s, att.values

    def total(table: Dict[str, float], *names: str) -> float:
        return float(sum(table.get(n, 0) for n in names))

    def by_method(table: Dict[str, float], method: str) -> float:
        return float(sum(v for name, v in table.items()
                         if name.split(".")[-1] == method))

    def by_prefix(table: Dict[str, float], prefix: str) -> float:
        return float(sum(v for name, v in table.items()
                         if name.startswith(prefix)))

    c3 = tracer.tracked["c3stats"]
    wal = [store.stats() for store in tracer.tracked["wal"]]
    backends = tracer.tracked["backend"]
    out = {f"{layer}.self_s": att.self_s[layer] for layer in LAYERS}
    for key in ("mpi.engine.launches", "mpi.engine.msgs",
                "mpi.engine.msg_bytes", "mpi.scheduler.switches"):
        out[key] = float(tracer.counters[key])
    dumps_s = incl.get("Serializer.dumps", 0.0)
    dumps_bytes = vals.get("Serializer.dumps", 0.0)
    put_bytes = by_method(vals, "put_section")
    written = float(sum(b.written_bytes for b in backends))
    out.update({
        "mpi.scheduler.handoff_us":
            att.handoff_s / att.handoffs * 1e6 if att.handoffs else 0.0,
        "mpi.matching.deliver_calls": total(calls, "Mailbox.deliver"),
        "mpi.matching.post_calls": total(calls, "Mailbox.post"),
        "mpi.datatypes.pack_calls": total(calls, "Datatype.pack"),
        "mpi.datatypes.pack_bytes": total(vals, "Datatype.pack"),
        "mpi.collectives.calls": by_prefix(calls, "mpi.collectives."),
        "core.checkpoint.restores":
            total(calls, "core.checkpoint.restore_checkpoint"),
        "core.checkpoint.restore_s":
            total(incl, "core.checkpoint.restore_checkpoint"),
        "statesave.serializer.dumps_calls": total(calls, "Serializer.dumps"),
        "statesave.serializer.dumps_bytes": dumps_bytes,
        "statesave.serializer.dumps_s": dumps_s,
        "statesave.serializer.dumps_mb_per_s":
            dumps_bytes / dumps_s / 1e6 if dumps_s else 0.0,
        "statesave.serializer.loads_calls": total(calls, "Serializer.loads"),
        "statesave.serializer.loads_bytes": total(vals, "Serializer.loads"),
        "statesave.serializer.loads_s": total(incl, "Serializer.loads"),
        "storage.store.put_section_calls": by_method(calls, "put_section"),
        "storage.store.commit_line_calls": by_method(calls, "commit_line"),
        "storage.store.reload_s":
            total(incl, "WalStore.__init__", "WalStore.reload"),
        "storage.store.write_amp": written / put_bytes if put_bytes else 0.0,
        "storage.stable.write_count":
            float(sum(b.write_count for b in backends)),
        "storage.stable.written_bytes": written,
        "storage.stable.fsync_count":
            float(sum(b.fsync_count for b in backends)),
        "storage.stable.sync_s": by_method(incl, "sync"),
        "storage.stable.append_s": by_method(incl, "append"),
        "storage.stable.read_s":
            by_method(incl, "read") + by_method(incl, "read_range"),
    })
    for field in ("app_sends", "control_msgs", "late_logged",
                  "early_recorded", "replayed_from_log", "suppressed_sends"):
        out[f"core.protocol.{field}"] = float(sum(
            getattr(s, field) for s in c3))
    out["core.checkpoint.started"] = float(sum(
        s.checkpoints_started for s in c3))
    out["core.checkpoint.committed"] = float(sum(
        s.checkpoints_committed for s in c3))
    for key in ("group_commits", "segments_retired", "segments_compacted",
                "replays"):
        out[f"storage.store.{key}"] = float(sum(s[key] for s in wal))
    return out


def compare_reference(name: str, seed: int, sim: Dict[str, Any]
                      ) -> Tuple[int, Optional[str]]:
    """``harness.sim_digest_mismatch`` and the first differing field.

    Only seed 0 is pinned: the digest of the result rows always, the
    exact per-layer counts when this run traced.  A mismatch is reported,
    never counted as a failed op: a correctness change that legitimately
    moves virtual time must be visible, not rejected.
    """
    if seed != 0 or not os.path.exists(REFERENCE):
        return 0, None
    with open(REFERENCE) as f:
        pinned = json.load(f).get(name)
    if pinned is None:
        return 0, None
    if pinned["digest"] != sim["digest"]:
        return 1, reduce.first_difference(pinned["rows"], sim["rows"])
    if sim["counts"] and pinned.get("counts") not in (None, sim["counts"]):
        return 1, reduce.first_difference(pinned["counts"], sim["counts"])
    return 0, None


def exact_counts(metrics: Dict[str, float]) -> Dict[str, float]:
    """The traced pass's counts that repeat exactly run to run."""
    return {name: metrics[name] for name, unit, _better in PER_LAYER
            if unit in ("count", "B") and name in metrics
            and not name.startswith("harness.")}


def traced_pass(workload, untraced_pass_s: float, wall_s: float,
                trace_out: Optional[str]
                ) -> Tuple[Dict[str, float], List[Checked]]:
    """Every unit once more with the seams wrapped: ``(per-layer metrics,
    its checks)``.

    The checks run after the originals are back, so the oracle's own
    reads (a cold reopen, a deep validation) are never counted.
    """
    tracer = Tracer()
    with traced(tracer):
        sampled = [sample_unit(unit, tracer) for unit in workload.units]
    traced_s = sum(dt for dt, _out in sampled)
    att = attribute(tracer.events, tracer.spans, keep_spans=bool(trace_out))
    if trace_out:
        write_spans(trace_out, att)
    metrics = per_layer(tracer, att)
    metrics["trace.wall_s"] = traced_s
    metrics["trace.overhead_x"] = traced_s / untraced_pass_s
    metrics["trace.self_sum_err"] = (
        abs(sum(att.self_s.values()) - traced_s) / traced_s)
    metrics.update(workload.extras(wall_s))
    return metrics, [checked(unit, out)
                     for unit, (_dt, out) in zip(workload.units, sampled)]


def latency_metrics(checks) -> Tuple[Dict[str, float], int]:
    """service-loop's latencies: percentile per sample of the loop, then
    the best sample — like ``wall_s``, interference only ever adds."""
    executed = [c.executed_latencies for c in checks if c.executed_latencies]
    cached = [c.cached_latencies for c in checks if c.cached_latencies]

    def best(samples, pct) -> float:
        return min((reduce.percentile(p, pct) for p in samples),
                   default=0.0) * 1e3

    return {"service.lat_p50_ms": best(executed, 50),
            "service.lat_p90_ms": best(executed, 90),
            "service.cache_hit_ms": best(cached, 50),
            }, sum(len(p) for p in executed)


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench.worker")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--passes", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--trace-out")
    ap.add_argument("--ranks", type=int)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--rows-out")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.workdir, args.ranks)
    if args.setup_only:
        return 0
    t0 = time.perf_counter()
    workload.prepare()
    prepare_s = time.perf_counter() - t0

    cpu0 = (_cpu_seconds(resource.RUSAGE_SELF),
            _cpu_seconds(resource.RUSAGE_CHILDREN))
    times, checks, pass_totals = sample_units(workload.units, args.seconds,
                                              args.passes)
    sampled_s = sum(sum(t) for t in times)
    wall_s = reduce.sum_of_unit_minima(times)
    # CPU seconds per pass-equivalent of sampled work
    own_cpu = (_cpu_seconds(resource.RUSAGE_SELF) - cpu0[0]) * wall_s / sampled_s
    children_cpu = (_cpu_seconds(resource.RUSAGE_CHILDREN)
                    - cpu0[1]) * wall_s / sampled_s
    summary = reduce.pass_summary(pass_totals)
    first = [per_unit[0] for per_unit in checks]
    latencies, latency_samples = latency_metrics(
        [c for per_unit in checks for c in per_unit])
    metrics: Dict[str, float] = {}
    if args.trace:
        metrics, traced_checks = traced_pass(workload, summary["median_s"],
                                             wall_s, args.trace_out)
        for per_unit, check in zip(checks, traced_checks):
            per_unit.append(check)
    everything = [c for per_unit in checks for c in per_unit]
    metrics.update(latencies)
    for check in first:
        metrics.update(check.counters)

    # simulated statistics: identical in every sample, pinned at seed 0
    sim = {"rows": reduce.canonical([c.rows for c in first]),
           "counts": exact_counts(metrics) if args.trace else None}
    sim["digest"] = reduce.digest(sim["rows"])
    deterministic = all(
        len({reduce.digest(c.rows) for c in per_unit}) == 1
        for per_unit in checks)
    mismatch, difference = compare_reference(args.workload, args.seed, sim)
    if args.rows_out:
        with open(args.rows_out, "w") as f:
            json.dump(sim, f)

    attempted = sum(c.ops for c in everything)
    failed = sum(c.failed for c in everything)
    notes = sorted({n for c in everything for n in c.notes})
    if not deterministic:
        notes.append("samples of one unit disagree on its deterministic "
                     "result rows")
    metrics.update({
        "precompiler.import_s": PRECOMPILER_IMPORT_S,
        "harness.prepare_s": prepare_s,
        "harness.samples": sum(len(t) for t in times) / len(times),
        "harness.pass_median_s": summary["median_s"],
        "harness.fail_frac": failed / attempted,
        "harness.sim_digest_mismatch": float(mismatch),
        "mpi.sharded.master_cpu_s": own_cpu,
        "mpi.sharded.workers_cpu_s": children_cpu,
    })
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "wall_s": wall_s,
        "virt_s": sum(c.virt_s for c in first),
        "virt_fields": workload.virt_fields,
        "unit_names": [u.name for u in workload.units],
        "unit_min_s": [min(t) for t in times],
        "unit_samples": [len(t) for t in times],
        "unit_confirmed": [reduce.confirmed(t, CONFIRM_TOLERANCE)
                           for t in times],
        "pass_totals_s": pass_totals,
        "pass_summary": summary,
        "latency_samples": latency_samples,
        "attempted": attempted, "failed": failed,
        "deterministic": deterministic, "notes": notes,
        "sim_digest": sim["digest"], "sim_first_difference": difference,
        "leaked_threads": [t.name for t in threading.enumerate()
                           if t is not threading.main_thread()
                           and t.is_alive() and not t.daemon],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
