"""Every crash point of the pinned WAL scenario, not one.

The scenario of ``test_wal_image`` runs once over a medium that records
its operations.  Then, at every cut point of that trace, each state a
crash there may leave on the medium is rebuilt and the store reopened
from it — the technique of ALICE (Pillai et al., OSDI 2014) and
CrashMonkey (Mohan et al., OSDI 2018).  The crash model is DESIGN.md
§8.3's: a file keeps the bytes it had at its last sync; the bytes
appended to it since survive as none, whole, up to each record boundary,
or cut inside a record; an atomic ``write``, an unlink and a truncate
land whole and at once (a truncate is a durability point for the prefix
it keeps).

Each state must reopen; every line whose COMMIT was synced on all ranks,
and whose DELETE was neither synced nor left on the medium, must pass
deep validation; and no COMMIT may appear that was never appended
whole.
"""

import itertools

from test_wal_image import run_scenario

from repro.storage.stable import InMemoryStorage, as_buffers
from repro.storage.wal import COMMIT, DELETE, WalStore, decode_record

NPROCS, PPN = 4, 2


class RecordingStorage(InMemoryStorage):
    """An in-memory medium that logs each mutating operation."""

    def __init__(self):
        super().__init__()
        self.ops = []

    def write(self, path, data):
        super().write(path, data)
        self.ops.append(("write", path, bytes(data)))

    def append(self, path, data):
        offset = super().append(path, data)
        self.ops.append(("append", path, b"".join(as_buffers(data))))
        return offset

    def sync(self, path):
        super().sync(path)
        self.ops.append(("sync", path, b""))

    def delete(self, path):
        super().delete(path)
        self.ops.append(("delete", path, b""))

    def truncate(self, path, length):
        super().truncate(path, length)
        self.ops.append(("truncate", path, length))


def records(data):
    """``(rtype, version, rank, end)`` of each whole record of ``data``,
    up to the first torn one."""
    off = 0
    while off < len(data):
        rec = decode_record(data, off)
        if rec is None:
            return
        off += rec[5]
        yield rec[0], rec[1], rec[2], off


def survivals(pending):
    """Every length of a file's unsynced bytes a crash may leave: none,
    whole, each record boundary, and once inside each record (a torn
    record's inside too)."""
    cuts = {0, len(pending)}
    start = 0
    for _rtype, _version, _rank, end in records(pending):
        cuts.update(((start + end) // 2, end))
        start = end
    if start < len(pending):
        cuts.add((start + len(pending)) // 2)
    return sorted(cuts)


def crash_states(ops):
    """``(cut, states, synced, deleted, appended)`` for each cut point:
    the media a crash after ``ops[:cut]`` may leave, the lines whose
    COMMIT and whose DELETE were synced by then, and the lines whose
    COMMIT had been appended whole."""
    files = {}  # path -> (synced bytes, bytes appended since)
    synced, deleted, appended = set(), set(), set()

    def land(pending):
        for rtype, v, r, _ in records(pending):
            if rtype == COMMIT:
                synced.add((v, r))
            elif rtype == DELETE:
                deleted.add((v, r))

    for cut in range(len(ops) + 1):
        paths = sorted(files)
        choices = [survivals(files[path][1]) for path in paths]
        states = [{path: files[path][0] + files[path][1][:keep]
                   for path, keep in zip(paths, keeps)}
                  for keeps in itertools.product(*choices)]
        yield cut, states, set(synced), set(deleted), set(appended)
        if cut == len(ops):
            return
        kind, path, data = ops[cut]
        if kind == "write":
            files[path] = (data, b"")
        elif kind == "delete":
            del files[path]
        elif kind == "truncate":
            base, pending = files[path]
            kept = (base + pending)[:data]
            land(kept[len(base):])
            files[path] = (kept, b"")
        elif kind == "append":
            base, pending = files.get(path, (b"", b""))
            files[path] = (base, pending + data)
            appended.update((v, r) for rtype, v, r, _ in records(data)
                            if rtype == COMMIT)
        else:  # sync
            base, pending = files[path]
            files[path] = (base + pending, b"")
            land(pending)


def check(state, synced, deleted, appended):
    """The violations of one crash state (empty when it recovers)."""
    medium = InMemoryStorage()
    for path, data in state.items():
        medium.write(path, data)
    try:
        store = WalStore(medium)
    except Exception as exc:  # noqa: BLE001 - any escape is a finding
        return [f"reopen raised {exc!r}"]
    store.configure(NPROCS, PPN)
    # a tombstone that landed unsynced deletes its line as well
    deleted = deleted | {(v, r) for data in state.values()
                         for rtype, v, r, _ in records(data)
                         if rtype == DELETE}
    bad = []
    for version in sorted({v for v, _ in synced}):
        if any((version, r) not in synced for r in range(NPROCS)):
            continue
        bad += [f"synced line v{version}/rank{r} lost"
                for r in range(NPROCS)
                if (version, r) not in deleted
                and not store.validate_line(version, r, deep=True)]
    bad += [f"line v{v}/rank{r} committed but never appended"
            for r, versions in store.committed_map().items()
            for v in versions if (v, r) not in appended]
    return bad


def sweep():
    """Run the scenario once, then check every state of every cut."""
    backend = RecordingStorage()
    run_scenario(backend)
    violations, nstates = [], 0
    for cut, states, synced, deleted, appended in crash_states(backend.ops):
        for state in states:
            nstates += 1
            violations += [f"cut {cut}/{len(backend.ops)} "
                           f"{ {p: len(d) for p, d in state.items()} }: {v}"
                           for v in check(state, synced, deleted, appended)]
    return backend.ops, nstates, violations


def test_every_crash_point_of_the_scenario_recovers():
    ops, nstates, violations = sweep()
    assert violations == []
    kinds = {kind for kind, _path, _data in ops}
    # the trace holds every operation the WAL makes (replay cuts a torn
    # tail with a truncate, so no atomic write is among them), and the
    # sweep built more states than there are cut points
    assert kinds == {"append", "sync", "delete", "truncate"}
    assert nstates > 2 * len(ops)


def test_retiring_before_the_sync_is_caught(monkeypatch):
    # the mutant unlinks dead segments between a group commit's append
    # and its sync: a crash there loses the tombstones that killed them,
    # so the deleted lines' records must still be on the medium
    flush_node = WalStore._flush_node

    def retire_first(self, node):
        sync = self.backend.sync

        def early(path):
            self._retire_node(node)
            sync(path)
        self.backend.sync = early
        try:
            flush_node(self, node)
        finally:
            del self.backend.sync

    monkeypatch.setattr(WalStore, "_flush_node", retire_first)
    _ops, _nstates, violations = sweep()
    assert any("lost" in v for v in violations), violations
