"""Study artifacts pinned to golden copies, wall-clock keys aside.

Each grid study runs one tiny selection inline through its CLI entry
point and writes its ``--json`` artifact; the artifact, with every
wall-clock key deleted, must match the copy under ``golden/`` byte for
byte (key order included).
"""

from __future__ import annotations

import json
import pathlib

import pytest

GOLDEN = pathlib.Path(__file__).parent / "golden"

#: keys whose values are wall-clock measurements (deleted at any depth)
WALL_KEYS = frozenset({
    "wall_seconds", "campaign_wall_seconds", "speedup", "cpu_count",
    "throughput_jobs_per_s", "latency_s",
})

#: study module -> the tiny CLI selection pinned for it
GRIDS = {
    "campaign": ["--apps", "ring", "--kills", "mid_run"],
    "scaling": ["--ranks", "4,8", "--apps", "ring", "--platforms",
                "testing"],
    "sizes": ["--kernels", "EP+ccc"],
    "overlap": ["--kernels", "heat", "--platforms", "testing",
                "--skip-faults"],
    "walstudy": ["--kernels", "heat", "--platforms", "testing",
                 "--storage", "memory", "--skip-discipline"],
    "procstudy": ["--apps", "ring"],
}


def strip_wall(obj):
    """``obj`` with every wall-clock key removed, recursively."""
    if isinstance(obj, dict):
        return {k: strip_wall(v) for k, v in obj.items()
                if k not in WALL_KEYS}
    if isinstance(obj, list):
        return [strip_wall(v) for v in obj]
    return obj


def pinned_text(payload) -> str:
    return json.dumps(strip_wall(payload), indent=2) + "\n"


def study_artifact(module: str, tmp_path) -> str:
    import importlib

    out = tmp_path / f"{module}.json"
    main = importlib.import_module(f"repro.harness.{module}").main
    assert main(GRIDS[module] + ["--inline", "--json", str(out)]) == 0
    return pinned_text(json.loads(out.read_text()))


@pytest.mark.parametrize("module", sorted(GRIDS))
def test_study_artifact_matches_golden(module, tmp_path, capsys):
    got = study_artifact(module, tmp_path)
    capsys.readouterr()
    assert got == (GOLDEN / f"{module}.json").read_text()

