"""Restore reads each recovery line once.

Agree-then-vet and the restore itself share one verified read per line
(:meth:`~repro.storage.store.CheckpointStore.read_line`): every section
of the restored line is read from storage and decoded exactly once per
rank, and an incremental chain's ancestor line is read once, with only
its ``app`` record decoded.
"""

from collections import Counter

import numpy as np

from repro.core import C3Config, run_c3
from repro.statesave.checkpointfile import CheckpointReader
from repro.storage import InMemoryStorage

NPROCS = 4
SECTIONS = ("app", "mpi_state", "handles", "early_registry", "counters",
            "late_registry", "event_log", "request_table")


def ring_app(ctx):
    comm = ctx.comm
    r, s = ctx.rank, ctx.size
    if ctx.first_time("setup"):
        ctx.state.x = np.zeros(4)
        ctx.done("setup")
    for it in ctx.range("i", 12):
        ctx.checkpoint()
        comm.Send(ctx.state.x + it, dest=(r + 1) % s, tag=1)
        buf = np.zeros(4)
        comm.Recv(buf, source=(r - 1) % s, tag=1)
        ctx.state.x = buf + 1
        ctx.compute(1e-4)
    return float(ctx.state.x.sum())


class CountingStorage(InMemoryStorage):
    """Counts reads per object (the scatter layout stores one object per
    section)."""

    def __init__(self):
        super().__init__()
        self.reads = Counter()

    def read(self, path):
        self.reads[path] += 1
        return super().read(path)


def restore_counting(monkeypatch, incremental):
    """Commit two lines, restart every rank from the newest, and return
    ``(line, reads per object, decodes per object)`` for the restart."""
    backend = CountingStorage()
    result, stats = run_c3(
        ring_app, NPROCS, storage=backend,
        config=C3Config(checkpoint_interval=3e-4, max_checkpoints=2,
                        incremental=incremental))
    result.raise_errors()
    line = min(s.checkpoints_committed for s in stats)
    decodes = Counter()
    load = CheckpointReader.load

    def counting_load(self, section):
        decodes[f"ckpt/v{self.version}/rank{self.rank}/{section}"] += 1
        return load(self, section)

    monkeypatch.setattr(CheckpointReader, "load", counting_load)
    backend.reads.clear()
    restarted, rstats = run_c3(ring_app, NPROCS, storage=backend,
                               config=C3Config(incremental=incremental),
                               restoring=True)
    restarted.raise_errors()
    assert [s.restored_version for s in rstats] == [line] * NPROCS
    return line, backend.reads, decodes


def line_paths(version, sections=SECTIONS):
    return [f"ckpt/v{version}/rank{r}/{s}"
            for r in range(NPROCS) for s in sections]


def test_clean_line_is_read_and_decoded_once(monkeypatch):
    line, reads, decodes = restore_counting(monkeypatch, False)
    paths = line_paths(line)
    assert {p: reads[p] for p in paths} == dict.fromkeys(paths, 1)
    assert decodes == dict.fromkeys(paths, 1)


def test_incremental_ancestor_is_read_once(monkeypatch):
    line, reads, decodes = restore_counting(monkeypatch, True)
    assert line == 2   # line 1 is the chain's full save
    paths = line_paths(2) + line_paths(1)
    # the ancestor line is verified whole, once ...
    assert {p: reads[p] for p in paths} == dict.fromkeys(paths, 1)
    # ... and only its app record is decoded
    assert decodes == dict.fromkeys(line_paths(2) + line_paths(1, ("app",)),
                                    1)
