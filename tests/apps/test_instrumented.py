"""The six precompiler-instrumented kernels: pins, metadata, recovery.

Heat, ring, CG, LU, MG and EP exist only as annotated sources run
through ``repro.precompiler.instrument`` at import.  They must (a)
return the pinned bits and store the pinned checkpoint bytes, (b) expose
their saved-variable sets, and (c) survive the recovery campaign's
kill/restart/verify pipeline at **every** kill timing — including kills
that land mid-way through MG's nested resumable loops, where the restart
resumes a two-deep loop-position stack.
"""

import hashlib

import pytest

from repro.apps import APPS
from repro.core import C3Config, run_c3, run_original
from repro.harness.campaign import (
    CAMPAIGN_PARAMS, COLLECTIVE_APPS, KILL_TIMINGS, build_matrix,
    run_campaign,
)
from repro.harness.runner import resolve_kills
from repro.storage import InMemoryStorage

INSTRUMENTED = sorted(name for name, app in APPS.items()
                      if hasattr(app, "__ccc_saved__"))

#: ckpt-stream's kernel sizes (benchmarks/perf), without its jitter
STREAM_PARAMS = {
    "heat": dict(local_n=262144, niter=40, work_scale=2000.0),
    "CG": dict(local_n=8192, nnz_per_row=8, niter=12, work_scale=5000.0),
}


def line_pins(name, params, interval_frac=0.2):
    """A 4-rank C3 run checkpointing every ``interval_frac`` of the
    golden runtime: the digest of the returns, the committed line count,
    the digest of every stored object (and of the ``app`` sections
    alone) and the virtual time, as hex."""
    app = lambda ctx: APPS[name](ctx, **params)  # noqa: E731
    golden = run_original(app, 4)
    golden.raise_errors()
    backend = InMemoryStorage()
    result, stats = run_c3(app, 4, storage=backend, config=C3Config(
        checkpoint_interval=golden.virtual_time * interval_frac))
    result.raise_errors()
    assert result.returns == golden.returns
    everything, app_sections = hashlib.sha256(), hashlib.sha256()
    for path in backend.list():
        entry = path.encode() + b"\0" + hashlib.sha256(
            backend.read(path)).digest()
        everything.update(entry)
        if path.endswith("/app"):
            app_sections.update(entry)
    returns = " ".join(r.hex() for r in golden.returns).encode()
    return {
        "returns": hashlib.sha256(returns).hexdigest()[:32],
        "lines": min(s.checkpoints_committed for s in stats),
        "all": everything.hexdigest()[:32],
        "app": app_sections.hexdigest()[:32],
        "virt": result.virtual_time.hex(),
    }


#: heat, ring, CG and EP: recorded from the handwritten Context-API
#: kernels these sources replaced, so the bytes they store are
#: unchanged.  LU's and MG's returns are those kernels' too; their
#: stored objects are recorded with this form (LU stores the same
#: values with its state keys in another order, MG keeps its levels in
#: one list and nests a second resumable loop).  EP commits one line at
#: any interval: its loop has no communication for a line to cross.
CAMPAIGN_PINS = {
    "heat": dict(returns="ab330c07d2ef597b1c5a22508e0082a9", lines=4,
                 all="997be18f2e53b8d6f91361e6e5e9cc80",
                 app="75c59cd9e7f519c1cc308fee59fc9d4b",
                 virt="0x1.5c984b29b8d1fp-14"),
    "ring": dict(returns="61aa3a93923accfed89223f21cad60b5", lines=4,
                 all="28babd61431e824f1bba70098198fdb7",
                 app="0d3f49a72af230582712df034615c4b0",
                 virt="0x1.1640809b1260ap-10"),
    "CG": dict(returns="72ff5d7a1ff60e70b63ce861e7b7c2c7", lines=3,
               all="5de6e7b25d349a40e846ca67edfc9ddb",
               app="22dd59be02e864456d5bf8fc0e642f6f",
               virt="0x1.ff6957319525fp-14"),
    "LU": dict(returns="c7b886ec8ed13c0815381c89ee853e4d", lines=3,
               all="9bae8a1bb27ac9b31b2af77a309cffcc",
               app="bc544a335cb92f318106c6b803e3cfa1",
               virt="0x1.0892d4362b3eap-13"),
    "MG": dict(returns="6f20d3743a5837e0f20c6cd08143860c", lines=5,
               all="bcf70599f0c00ef3e0dc7c98f7719dfa",
               app="50abe200b2e9d2bc81b50b061f4ebc4b",
               virt="0x1.485e712d1c783p-13"),
    "EP": dict(returns="ba11bd9694bdf134aaa98445dcb9c111", lines=1,
               all="a560008520c4f8607ae93bb54bcb6b82",
               app="6d0fc692f10a65ea88bc797afa60b340",
               virt="0x1.762d94f4d565fp-14"),
}

#: the handwritten kernels' pins at :data:`STREAM_PARAMS`
STREAM_PINS = {
    "heat": dict(returns="7144784b41d06e24c658f8367c2dfe3a", lines=4,
                 all="2dac5630a481c57139f78ed4951bdb6c",
                 app="b360a3ec8d4e0478bdba41684991565a",
                 virt="0x1.f755a242b57c9p+6"),
    "CG": dict(returns="9dd3b20931e2ef3c4ec9d05dfccda16c", lines=3,
               all="2573aa593c38cf88187bd47baf9eba98",
               app="98822dc4c33ed1393d84d396654938ea",
               virt="0x1.f7a1fa8cdfb5dp+2"),
}


class TestEquivalence:
    @pytest.mark.parametrize("name", sorted(CAMPAIGN_PINS))
    def test_campaign_size_returns_and_bytes_are_pinned(self, name):
        assert line_pins(name, CAMPAIGN_PARAMS[name]) == CAMPAIGN_PINS[name]

    @pytest.mark.parametrize("name", sorted(STREAM_PINS))
    def test_stream_size_returns_and_bytes_are_pinned(self, name):
        assert line_pins(name, STREAM_PARAMS[name]) == STREAM_PINS[name]

    def test_registry_exposes_instrumented_kernels(self):
        assert INSTRUMENTED == sorted(CAMPAIGN_PINS)


class TestMetadata:
    def test_saved_sets(self):
        assert APPS["heat"].__ccc_saved__ == ["dmax", "u"]
        assert APPS["ring"].__ccc_saved__ == ["total", "x"]
        assert APPS["EP"].__ccc_saved__ == ["counts", "sx", "sy"]
        # CG's loop cursor is the resumable loop's counter, not a variable
        assert "it" not in APPS["CG"].__ccc_saved__

    def test_campaign_params_cover_instrumented_kernels(self):
        for name in INSTRUMENTED:
            assert CAMPAIGN_PARAMS[name]


class TestCampaignRecovery:
    """Kill/restart/verify for the instrumented kernels through the same
    scenario pipeline the CLI and CI run."""

    @pytest.mark.parametrize("kill", sorted(KILL_TIMINGS))
    def test_nested_loop_kernel_survives_every_kill_timing(self, kill):
        """MG at every campaign kill timing: the restart must resume
        the (cycle, lv_down) position stack and verify bitwise.  The
        group-commit tear windows only exist on the WAL engine, so those
        cells run there."""
        kills = resolve_kills(KILL_TIMINGS[kill][0](4), 4)
        storage = "wal" if kills.needs_wal else "memory"
        (scenario,) = build_matrix(["MG"], ["testing"], [kill],
                                   storage=storage)
        report = run_campaign([scenario], parallel=False)
        row = report.rows[0]
        assert row["passed"], row["failure"]
        if kills.deterministic:
            assert row["restarts"] >= 1
            assert row["verified_recovery"] and row["verified_clean"]

    @pytest.mark.parametrize("app", [k for k in INSTRUMENTED if k != "MG"])
    def test_every_instrumented_kernel_recovers(self, app):
        kill = "mid_collective" if app in COLLECTIVE_APPS else "mid_run"
        (scenario,) = build_matrix([app], ["testing"], [kill])
        report = run_campaign([scenario], parallel=False)
        row = report.rows[0]
        assert row["passed"], row["failure"]
        assert row["restarts"] >= 1
        assert row["verified_recovery"] and row["verified_clean"]
