"""The one command: pin, launch each workload fresh, reduce, report.

Driver form (the ``BENCHMARK.json`` contract; last stdout line is the
result object)::

    python3 benchmarks/perf/run.py --workload scale-256 --seed 3 \
        --seconds 15 --trace 0

Human form (all six workloads, every metric by name with its unit)::

    python3 benchmarks/perf/run.py [--seed N] [--workloads a,b]
        [--passes K] [--trace] [--json PATH] [--trace-out PATH]
    python3 benchmarks/perf/run.py --selfcheck [SEEDS]
    python3 benchmarks/perf/run.py --write-reference
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import reduce, spec

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: scratch inside the checkout (git-ignored): private TMPDIRs, WAL stores
WORK_ROOT = os.path.join(HERE, ".work")
#: fresh ``--setup-only`` launches per run; ``setup_s`` is their median
SETUP_LAUNCHES = 5
#: hard stop for one workload subprocess (the contract allows 180 s)
WORKER_TIMEOUT_S = 150.0
#: ``env.steal_frac`` above this marks the run disturbed
DISTURBED_STEAL = 0.2


class BenchError(Exception):
    """The benchmark could not produce a result (not: ops failed)."""


def pin_to_one_cpu() -> int:
    """Pin this process — children inherit — to the highest allowed CPU.

    Unpinned, the cooperative engine's carrier-thread hand-offs ping-pong
    between vCPUs and every number is 2-4x slower and far noisier.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _cpu_times(cpu: int) -> Optional[List[int]]:
    try:
        with open("/proc/stat") as f:
            for line in f:
                if line.startswith(f"cpu{cpu} "):
                    return [int(x) for x in line.split()[1:9]]
    except OSError:
        pass
    return None


def steal_fraction(before: Optional[List[int]],
                   after: Optional[List[int]]) -> float:
    """Share of the pinned CPU's time the hypervisor gave to someone else."""
    if before is None or after is None:
        return 0.0
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) > 0 else 0.0


def _group_members(pgid: int) -> List[int]:
    """Live processes still in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


def _worker_env(tmpdir: str) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_ENGINE", "REPRO_BENCH_WORKERS")}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), HERE]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["TMPDIR"] = tmpdir
    # one hash order on every run: dict/set layouts are part of the noise
    env["PYTHONHASHSEED"] = "0"
    # one malloc arena: with glibc's per-thread arenas the carrier threads
    # leave 50-60 MB of freed-but-retained heap behind, a different amount
    # every run (ckpt-stream: 148-185 MiB, against 101-107 MiB with one
    # arena), which buries the program's own footprint.  Only one fiber
    # runs at a time, so the arenas buy the program nothing.
    env["MALLOC_ARENA_MAX"] = "1"
    return env


def _launch(cmd: List[str], env: Dict[str, str], stdout
            ) -> Tuple[int, float, Any, int]:
    """One worker to completion, in its own session.

    Returns ``(exit code, seconds, its rusage, processes that outlived
    it)``.  ``wait4`` rather than ``Popen.wait``: it blocks instead of
    polling (a timed ``wait`` rounds the elapsed time up to its 50 ms
    poll) and reports this child's own peak RSS, its waited-for children
    included, not the maximum over every child so far.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=stdout,
                            start_new_session=True)
    timer = threading.Timer(WORKER_TIMEOUT_S, _kill_group, [proc.pid])
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
    finally:
        timer.cancel()
        survivors = _kill_group(proc.pid)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage, survivors


def measure(name: str, seed: int, seconds: float, trace: bool,
            passes: Optional[int] = None, ranks: Optional[int] = None,
            trace_out: Optional[str] = None, rows_out: Optional[str] = None,
            setup_launches: int = SETUP_LAUNCHES) -> Dict[str, Any]:
    """One workload in its own fresh pinned subprocess; every metric.

    ``ranks`` caps the scale-256/shard-256 rank counts — for the smoke
    test only, the numbers are not comparable.
    """
    if name not in spec.WORKLOADS:
        raise BenchError(f"unknown workload {name!r} "
                         f"(known: {', '.join(spec.WORKLOADS)})")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise BenchError(f"no program to measure: {ROOT}/src/repro is "
                         "missing")
    # main() pinned this process already; the workers inherit its CPU
    cpu = max(os.sched_getaffinity(0))
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    tmpdir = os.path.join(workdir, "tmp")
    os.makedirs(tmpdir)
    env = _worker_env(tmpdir)
    base = [sys.executable, "-m", "perfbench.worker", "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds),
            "--workdir", workdir]
    if ranks:
        base += ["--ranks", str(ranks)]
    try:
        setups = []
        for _ in range(setup_launches):
            code, elapsed, _usage, _left = _launch(
                base + ["--setup-only"], env, subprocess.DEVNULL)
            if code != 0:
                raise BenchError(f"{name}: set-up launch exited {code}")
            setups.append(elapsed)

        cmd = base + ["--trace", "1" if trace else "0"]
        for flag, value in (("--passes", passes), ("--trace-out", trace_out),
                            ("--rows-out", rows_out)):
            if value:
                cmd += [flag, str(value)]
        out_path = os.path.join(workdir, "result.json")
        before = _cpu_times(cpu)
        with open(out_path, "wb") as out:
            code, _elapsed, usage, survivors = _launch(cmd, env, out)
        after = _cpu_times(cpu)
        if code != 0:
            raise BenchError(f"{name}: workload subprocess exited {code}")
        with open(out_path) as f:
            blob = json.loads(f.read().strip().splitlines()[-1])
        leaked = (len(os.listdir(tmpdir)) + survivors
                  + len(blob["leaked_threads"]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    steal = steal_fraction(before, after)
    metrics = dict(blob.pop("metrics"))
    metrics.update({
        "wall_s": blob["wall_s"],
        "virt_s": blob["virt_s"],
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
        "harness.leaked_paths": float(leaked),
        "env.steal_frac": steal,
    })
    if trace:
        for per_layer_name, _unit, _better in spec.PER_LAYER:
            # a layer this workload never enters reports 0, not nothing
            metrics.setdefault(per_layer_name, 0.0)
    blob.update({
        "correct": blob["failed"] == 0 and blob["deterministic"],
        "disturbed": steal > DISTURBED_STEAL,
        "setup_samples_s": setups,
        "metrics": metrics,
    })
    return blob


def _kill_group(pgid: int) -> int:
    """SIGKILL whatever is left of a worker's process group; returns how
    many processes had outlived the worker."""
    members = _group_members(pgid)
    if members:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        deadline = time.monotonic() + 5.0
        while _group_members(pgid) and time.monotonic() < deadline:
            time.sleep(0.01)
    return len(members)


def contract_line(result: Dict[str, Any], trace: bool) -> str:
    """The driver's result object: exactly the four keys, and either
    every end-to-end or every per-layer metric."""
    units = ({n: u for n, u, _b in spec.PER_LAYER} if trace
             else {n: u for n, u, _b, _bound in spec.END_TO_END})
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    })


def render(result: Dict[str, Any], trace: bool) -> str:
    """Every metric by name with its unit, for people."""
    m = result["metrics"]
    ps = result["pass_summary"]
    lines = [
        f"== {result['workload']} (seed {result['seed']}): "
        f"{'correct' if result['correct'] else 'INCORRECT'}, "
        f"{result['failed']}/{result['attempted']} ops failed"
        + (", DISTURBED (steal)" if result["disturbed"] else ""),
    ]
    for name, unit, _better, bound in spec.END_TO_END:
        lines.append(f"  {name:38s} {m[name]:14.6g} {unit:8s} "
                     f"(may worsen {bound:.0%})")
    lines.append(
        f"  samples per unit: {min(result['unit_samples'])}-"
        f"{max(result['unit_samples'])}, "
        f"{sum(result['unit_confirmed'])}/{len(result['unit_confirmed'])} "
        f"minima confirmed; {ps['n']} whole passes, median "
        f"{ps['median_s']:.3f} s, IQR {ps.get('iqr_s', 0.0):.3f} s "
        "(information, not gated)")
    lines.append(f"  virt_s sums {result['virt_fields']}")
    if result["latency_samples"]:
        lines.append(f"  latency samples pooled: "
                     f"{result['latency_samples']}")
    for note in result["notes"]:
        lines.append(f"  ! {note}")
    if result["sim_first_difference"]:
        lines.append("  ! simulated statistics differ from reference.json: "
                     + result["sim_first_difference"])
    always = ("precompiler.import_s", "harness.prepare_s",
              "harness.fail_frac", "harness.sim_digest_mismatch",
              "harness.leaked_paths", "env.steal_frac")
    for name, unit, _better in spec.PER_LAYER:
        if name in m and (trace or name in always):
            lines.append(f"  {name:38s} {m[name]:14.6g} {unit}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# --selfcheck: the acceptance procedure, run on ourselves
# ---------------------------------------------------------------------------

def selfcheck(names: Sequence[str], seeds: int, seconds: float) -> int:
    """Two sets of ``seeds`` runs per workload, each with another seed.

    Per end-to-end metric: the quartile spread of each set must stay
    within the metric's bound (``setup_s`` excepted), and the second
    set's median may not be worse than the first's by more than the
    bound.  Writes what it saw to ``noise.json``.
    """
    noise: Dict[str, Any] = {}
    bad = []
    for name in names:
        sets: List[Dict[str, List[float]]] = []
        for which in range(2):
            values: Dict[str, List[float]] = {}
            for seed in range(which * seeds, (which + 1) * seeds):
                result = measure(name, seed, seconds, trace=False)
                if not result["correct"]:
                    bad.append(f"{name} seed {seed}: incorrect "
                               f"({'; '.join(result['notes'])})")
                for metric, _u, _b, _bound in spec.END_TO_END:
                    values.setdefault(metric, []).append(
                        result["metrics"][metric])
            sets.append(values)
        noise[name] = {}
        for metric, _unit, better, bound in spec.END_TO_END:
            spreads = [reduce.quartile_spread(s[metric]) for s in sets]
            medians = [statistics.median(s[metric]) for s in sets]
            drift = (medians[1] - medians[0]) / medians[0]
            if better == "higher":
                drift = -drift
            noise[name][metric] = {"spread": spreads, "median": medians,
                                   "drift": drift,
                                   "values": [s[metric] for s in sets]}
            verdict = "ok"
            if metric != "setup_s" and max(spreads) > bound:
                verdict = "SPREAD > BOUND"
            if drift > bound:
                verdict = "DRIFT > BOUND"
            if verdict != "ok":
                bad.append(f"{name} {metric}: {verdict}")
            print(f"{name:16s} {metric:12s} spread "
                  f"{spreads[0]:7.2%} {spreads[1]:7.2%}  drift "
                  f"{drift:+7.2%}  bound {bound:.0%}  {verdict}", flush=True)
    with open(os.path.join(HERE, "noise.json"), "w") as f:
        json.dump({"seeds_per_set": seeds, "run_seconds": seconds,
                   "workloads": noise}, f, indent=1, sort_keys=True)
        f.write("\n")
    for line in bad:
        print(f"selfcheck: {line}", file=sys.stderr)
    return 1 if bad else 0


def write_reference(seconds: float) -> int:
    """Pin seed 0's simulated statistics into ``reference.json``."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    pinned = {}
    for name in spec.WORKLOADS:
        rows_out = os.path.join(WORK_ROOT, f"rows-{name}.json")
        try:
            result = measure(name, 0, seconds, trace=True, passes=2,
                             rows_out=rows_out, setup_launches=1)
            if not result["correct"]:
                raise BenchError(f"{name}: refusing to pin an incorrect run "
                                 f"({'; '.join(result['notes'])})")
            with open(rows_out) as f:
                pinned[name] = json.load(f)
        finally:
            if os.path.exists(rows_out):
                os.remove(rows_out)
        print(f"{name}: {pinned[name]['digest']}")
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(pinned, f, indent=0, sort_keys=True)
        f.write("\n")
    return 0


# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="driver form: this one workload, "
                    "result object as the last line")
    ap.add_argument("--workloads", help="comma-separated subset "
                    f"(default: {','.join(spec.WORKLOADS)})")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                    help="time budget of one workload's sampling")
    ap.add_argument("--passes", type=int,
                    help="exactly this many whole passes instead")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                    help="add one traced pass: the per-layer metrics")
    ap.add_argument("--trace-out", help="write the traced pass's spans")
    ap.add_argument("--json", help="also write every result here")
    ap.add_argument("--selfcheck", nargs="?", type=int, const=10,
                    metavar="SEEDS", help="steadiness check: two sets of "
                    "SEEDS runs per workload (default 10)")
    ap.add_argument("--write-reference", action="store_true",
                    help="re-pin reference.json from seed 0")
    args = ap.parse_args(argv)
    trace = bool(args.trace)
    pin_to_one_cpu()

    try:
        if args.workload:
            result = measure(args.workload, args.seed, args.seconds, trace,
                             passes=args.passes, trace_out=args.trace_out)
            print(render(result, trace))
            print(contract_line(result, trace))
            return 0
        names = (args.workloads.split(",") if args.workloads
                 else list(spec.WORKLOADS))
        if args.write_reference:
            return write_reference(args.seconds)
        if args.selfcheck:
            return selfcheck(names, args.selfcheck, args.seconds)
        results = []
        for name in names:
            results.append(measure(
                name, args.seed, args.seconds, trace, passes=args.passes,
                trace_out=(f"{args.trace_out}.{name}" if args.trace_out
                           else None)))
            print(render(results[-1], trace), flush=True)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"benchmark": spec.benchmark_json(),
                       "results": results}, f, indent=1)
            f.write("\n")
    return 0 if all(r["correct"] for r in results) else 1
