"""BENCHMARK.json and the metric tables obey the benchmark contract."""

import json
import pathlib
import re
import sys

PERF = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERF))

from perfbench import spec  # noqa: E402
from perfbench.trace import LAYERS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_root_benchmark_json_is_the_spec_written_out():
    with open(PERF.parents[1] / "BENCHMARK.json") as f:
        on_disk = json.load(f)
    assert on_disk == spec.benchmark_json()
    assert set(on_disk) == {"command", "paths", "run_seconds", "workloads",
                            "end_to_end", "per_layer"}
    assert on_disk["paths"] == ["benchmarks/perf"]


def test_names_units_counts_and_bounds():
    names = ([n for n, *_ in spec.END_TO_END]
             + [n for n, *_ in spec.PER_LAYER] + list(spec.WORKLOADS))
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(u) for _n, u, *_ in
               spec.END_TO_END + spec.PER_LAYER)
    assert 1 <= len(spec.END_TO_END) <= 16
    assert 1 <= len(spec.PER_LAYER) <= 128
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert all(b in ("lower", "higher") for _n, _u, b, *_ in
               spec.END_TO_END + spec.PER_LAYER)
    bounds = {n: bound for n, _u, _b, bound in spec.END_TO_END}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    # set-up time is gated too, with the largest bound
    assert bounds["setup_s"] == max(bounds.values())
    assert ("setup_s", "s", "lower") in [e[:3] for e in spec.END_TO_END]
    assert all(len(why) <= 200 and "\n" not in why
               for why in spec.WORKLOADS.values())
    assert 1 <= spec.RUN_SECONDS <= 60
    assert len(json.dumps(spec.benchmark_json())) < 64 << 10


def test_every_layer_reports_self_time():
    per_layer = {n for n, *_ in spec.PER_LAYER}
    assert {f"{layer}.self_s" for layer in LAYERS} <= per_layer
    assert len(LAYERS) == 15
