"""The runner end to end, on a reduced rank count."""

import json
import os
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from perfbench import cli, spec  # noqa: E402


def _check_line(line, expected, attempted):
    obj = json.loads(line)
    assert set(obj) == {"correct", "attempted", "failed", "metrics"}
    assert obj["correct"] is True and obj["failed"] == 0
    assert obj["attempted"] == attempted
    assert set(obj["metrics"]) == {name for name, *_ in expected}
    for name, unit, *_ in expected:
        entry = obj["metrics"][name]
        assert set(entry) == {"value", "unit"} and entry["unit"] == unit
        assert isinstance(entry["value"], (int, float))
    return obj["metrics"]


def test_scale_256_smoke_produces_schema_valid_results():
    affinity = os.sched_getaffinity(0)
    result = cli.measure("scale-256", seed=0, seconds=1.0, trace=True,
                         passes=1, ranks=8, setup_launches=1)
    assert os.sched_getaffinity(0) == affinity
    # 1 whole pass + 1 traced pass of three points
    e2e = _check_line(cli.contract_line(result, trace=False),
                      spec.END_TO_END, attempted=6)
    assert all(entry["value"] > 0 for entry in e2e.values())
    layers = _check_line(cli.contract_line(result, trace=True),
                         spec.PER_LAYER, attempted=6)
    assert layers["harness.samples"]["value"] == 1
    assert layers["mpi.engine.launches"]["value"] == 6
    assert layers["mpi.scheduler.self_s"]["value"] > 0
    assert layers["trace.self_sum_err"]["value"] < 0.02
    assert layers["harness.leaked_paths"]["value"] == 0
    # messaging only: the checkpoint path stays idle
    assert layers["statesave.self_s"]["value"] == 0
    assert result["unit_names"] == ["ring@8", "heat@8", "CG@8"]
    assert not os.listdir(cli.WORK_ROOT)
