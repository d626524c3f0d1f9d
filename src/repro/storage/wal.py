"""Log-structured checkpoint store: per-node WAL with group commit.

The production :class:`~repro.storage.store.CheckpointStore`
(DESIGN.md §8).  Instead of scattering every section into its own
backend object with one durability point each, each simulated *node*
(the ``procs_per_node`` shard boundary the drain device already defines)
owns one append-only stream of segments::

    wal/node{n:04d}/seg{k:08d}

Everything is a length-prefixed, CRC-guarded record —

    ``WREC | rtype | name_len | rank | version | payload_len | crc32``
    followed by the section name and payload —

section payloads (``SECTION``), commit manifests (``COMMIT``), and line
tombstones (``DELETE``).  Appends are staged in memory and carry no
durability; co-located ranks' commits coalesce until every rank on the
node has committed the line, then the whole batch goes down with **one**
``append`` + **one** ``sync`` — the group commit.  A staged record is
held by reference (its header, name and payload buffers), so a payload
is copied only by the medium that keeps it.  A crash loses the
staged tail (the fail-stop model tears it mid-record, the window the
``at_group_commit`` fault windows aim at).

Recovery is **replay**: walk each node's segments in order, re-applying
records until the first torn/short/CRC-bad one, at which point the
segment is physically truncated to its valid prefix and the index is
whatever the durable log proves.  Recovery-line GC appends ``DELETE``
tombstones instead of deleting files; space comes back by **segment
retirement** — a sealed segment whose live bytes hit zero is unlinked
whole, one below the live-ratio threshold is compacted into the active
stream.  Both happen only *after* a sync, so a segment never disappears
before the records that obsolete it are durable.
"""

from __future__ import annotations

import re
import struct
import threading
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from .. import coverage
from .manifest import Sections, decode_commit, encode_commit
from .stable import StorageBackend, StorageError
from .store import CheckpointStore, WAL_PREFIX

#: record types
SECTION = 1
COMMIT = 2
DELETE = 3

_MAGIC = b"WREC"
#: magic, rtype, name_len, rank, version, payload_len  (crc32 follows)
_HDR = struct.Struct("<4sBHIII")
_CRC = struct.Struct("<I")
HEADER_LEN = _HDR.size + _CRC.size

_SEG_RE = re.compile(r"^wal/node(\d+)/seg(\d+)$")


def segment_path(node: int, seq: int) -> str:
    return f"wal/node{node:04d}/seg{seq:08d}"


def _record_head(rtype: int, version: int, rank: int, nb: bytes,
                 payload) -> bytes:
    """Header + crc32 of the record whose name and payload follow.

    The CRC runs over header, name and payload in place (chained
    ``crc32`` calls equal one over their concatenation), so the payload
    is neither copied nor concatenated to be checksummed.
    """
    hdr = _HDR.pack(_MAGIC, rtype, len(nb), rank, version, len(payload))
    return hdr + _CRC.pack(zlib.crc32(payload,
                                      zlib.crc32(nb, zlib.crc32(hdr))))


def encode_record(rtype: int, version: int, rank: int, name: str,
                  payload: bytes) -> bytes:
    """One WAL record: header + crc32 + name + payload."""
    nb = name.encode("utf-8")
    return b"".join((_record_head(rtype, version, rank, nb, payload), nb,
                     payload))


def _parse_record(mv: memoryview, off: int,
                  ) -> Optional[Tuple[int, int, int, int, int, int]]:
    """``(rtype, version, rank, name_len, payload_len, total_length)`` of
    the CRC-valid record at ``off``, or None (see :func:`decode_record`).

    Checks the CRC over slices of ``mv``: nothing is copied.
    """
    if off + HEADER_LEN > len(mv):
        return None
    magic, rtype, name_len, rank, version, payload_len = _HDR.unpack_from(
        mv, off)
    if magic != _MAGIC or rtype not in (SECTION, COMMIT, DELETE):
        return None
    (crc,) = _CRC.unpack_from(mv, off + _HDR.size)
    total = HEADER_LEN + name_len + payload_len
    if off + total > len(mv):
        return None
    if zlib.crc32(mv[off + HEADER_LEN:off + total],
                  zlib.crc32(mv[off:off + _HDR.size])) != crc:
        return None
    return rtype, version, rank, name_len, payload_len, total


def _record_name(mv: memoryview, off: int, name_len: int) -> str:
    body = off + HEADER_LEN
    return bytes(mv[body:body + name_len]).decode("utf-8", "replace")


def decode_record(buf: bytes, off: int,
                  ) -> Optional[Tuple[int, int, int, str, bytes, int]]:
    """Decode the record at ``off``; None if torn, short, or corrupt.

    Returns ``(rtype, version, rank, name, payload, total_length)``.
    Any defect — truncated header, bad magic, unknown type, body running
    past the buffer, CRC mismatch — yields None, which replay treats as
    the end of the valid log.
    """
    mv = memoryview(buf)
    parsed = _parse_record(mv, off)
    if parsed is None:
        return None
    rtype, version, rank, name_len, payload_len, total = parsed
    start = off + HEADER_LEN + name_len
    return (rtype, version, rank, _record_name(mv, off, name_len),
            bytes(mv[start:start + payload_len]), total)


@dataclass
class _Rec:
    """One record's location and liveness inside its segment."""
    rtype: int
    version: int
    rank: int
    name: str
    off: int          # record start, segment-relative
    length: int       # full record length (header + name + payload)
    payload_off: int  # payload start, segment-relative
    payload_len: int
    live: bool = True


@dataclass
class _Seg:
    node: int
    records: List[_Rec] = field(default_factory=list)
    total: int = 0  # bytes appended to this segment
    live: int = 0   # bytes of still-live records


@dataclass
class _Commit:
    seg: str
    rec: _Rec
    manifest: Optional[dict]  # None: undecodable, so never durable
    durable: bool


class _Node:
    """Mutable per-node stream state: active segment + staged tail."""

    def __init__(self, index: int, seq: int):
        self.index = index
        self.seq = seq
        self.seg = segment_path(index, seq)
        self.base = 0              # durable length of the active segment
        #: record offset -> (header, name, payload) of each staged,
        #: unsynced record, in log order; the buffers are not copied
        self.staged: Dict[int, Tuple[bytes, bytes, bytes]] = {}
        self.staged_len = 0        # bytes in ``staged``
        self.pending: List[_Commit] = []  # commits staged since last sync

    def staged_parts(self) -> List[bytes]:
        """The staged tail as buffers in log order (what one append
        writes)."""
        return [part for parts in self.staged.values() for part in parts]

    def clear_staged(self) -> None:
        self.staged.clear()
        self.staged_len = 0


class WalStore(CheckpointStore):
    """Per-node write-ahead log with group commit and segment GC."""

    def __init__(self, backend: StorageBackend,
                 segment_target_bytes: int = 256 << 10,
                 compact_threshold: float = 0.5):
        self.backend = backend
        self.segment_target_bytes = max(1, int(segment_target_bytes))
        self.compact_threshold = float(compact_threshold)
        self._lock = threading.RLock()
        self._nprocs: Optional[int] = None
        self._procs_per_node = 1
        #: rank -> callable(version), invoked after the COMMIT record is
        #: staged and before the group-flush decision — the fault model's
        #: ``at_group_commit`` window hangs off this
        self.commit_hooks: Dict[int, Callable[[int], None]] = {}
        # accounting the studies and tests read
        self.group_commits = 0
        self.commit_records = 0
        self.segments_created = 0
        self.segments_retired = 0
        self.segments_compacted = 0
        self.replays = 0
        self.replay_truncated_bytes = 0
        self.flush_failures = 0
        self._reset_state()
        if backend.list(WAL_PREFIX):
            self._replay()

    # -- state ---------------------------------------------------------------
    def _reset_state(self) -> None:
        self._nodes: Dict[int, _Node] = {}
        self._segments: Dict[str, _Seg] = {}
        #: (version, rank) -> section name -> (segment, record)
        self._sections: Dict[Tuple[int, int], Dict[str, Tuple[str, _Rec]]] = {}
        self._commits: Dict[Tuple[int, int], _Commit] = {}
        #: (version, rank) -> tombstone records (live until the line has
        #: no physical records left anywhere)
        self._deletes: Dict[Tuple[int, int], List[Tuple[str, _Rec]]] = {}
        #: (version, rank) -> segments still physically holding its records
        self._line_refs: Dict[Tuple[int, int], Set[str]] = {}
        #: node -> segments compacted since that node's last sync (their
        #: replacement records are still staged; unlink must wait)
        self._compacted_pending: Dict[int, Set[str]] = {}

    def configure(self, nprocs: int, procs_per_node: int = 1) -> None:
        with self._lock:
            self._nprocs = int(nprocs)
            self._procs_per_node = max(1, int(procs_per_node))

    def node_of(self, rank: int) -> int:
        return rank // self._procs_per_node

    def _group_size(self, node: int) -> int:
        if self._nprocs is None:
            return 1
        ppn = self._procs_per_node
        return max(1, min(ppn, self._nprocs - node * ppn))

    def _node(self, index: int) -> _Node:
        ns = self._nodes.get(index)
        if ns is None:
            ns = self._nodes[index] = _Node(index, 0)
        return ns

    def _seg_for(self, ns: _Node) -> _Seg:
        seg = self._segments.get(ns.seg)
        if seg is None:
            seg = self._segments[ns.seg] = _Seg(ns.index)
            self.segments_created += 1
        return seg

    # -- low-level append / index maintenance --------------------------------
    def _append_record(self, ns: _Node, rtype: int, version: int, rank: int,
                       name: str, payload: bytes) -> _Rec:
        """Stage one record by reference: header, name and payload join
        the node's staged tail uncopied.  A payload that is not ``bytes``
        (a ``bytearray``, a ``memoryview``) is copied once here, so the
        caller may reuse its buffer the moment this returns."""
        if not isinstance(payload, bytes):
            payload = bytes(payload)
        nb = name.encode("utf-8")
        head = _record_head(rtype, version, rank, nb, payload)
        seg = self._seg_for(ns)
        off = ns.base + ns.staged_len
        rec = _Rec(rtype, version, rank, name, off,
                   len(head) + len(nb) + len(payload),
                   off + HEADER_LEN + len(nb), len(payload))
        ns.staged[off] = (head, nb, payload)
        ns.staged_len += rec.length
        seg.records.append(rec)
        seg.total += rec.length
        seg.live += rec.length
        return rec

    def _mark_dead(self, segname: str, rec: _Rec) -> None:
        if rec.live:
            rec.live = False
            seg = self._segments.get(segname)
            if seg is not None:
                seg.live -= rec.length

    def _register_section(self, key: Tuple[int, int], name: str,
                          rec: _Rec, segname: str) -> None:
        old = self._sections.get(key, {}).get(name)
        if old is not None:
            self._mark_dead(old[0], old[1])
        self._sections.setdefault(key, {})[name] = (segname, rec)
        self._line_refs.setdefault(key, set()).add(segname)

    def _register_commit(self, key: Tuple[int, int], segname: str, rec: _Rec,
                         manifest: Optional[dict], durable: bool) -> _Commit:
        old = self._commits.get(key)
        if old is not None:
            self._mark_dead(old.seg, old.rec)
        commit = _Commit(segname, rec, manifest, durable)
        self._commits[key] = commit
        self._line_refs.setdefault(key, set()).add(segname)
        return commit

    def _apply_delete(self, key: Tuple[int, int], segname: str,
                      rec: _Rec) -> None:
        self._deletes.setdefault(key, []).append((segname, rec))
        for sname, srec in self._sections.pop(key, {}).values():
            self._mark_dead(sname, srec)
        commit = self._commits.pop(key, None)
        if commit is not None:
            self._mark_dead(commit.seg, commit.rec)

    def _read_rec(self, segname: str, rec: _Rec) -> bytes:
        seg = self._segments.get(segname)
        if seg is not None:
            ns = self._nodes.get(seg.node)
            if ns is not None and segname == ns.seg and rec.off >= ns.base:
                return ns.staged[rec.off][2]
        return self.backend.read_range(segname, rec.payload_off,
                                       rec.payload_len)

    # -- write path ----------------------------------------------------------
    def put_section(self, version: int, rank: int, section: str,
                    payload: bytes) -> None:
        with self._lock:
            ns = self._node(self.node_of(rank))
            rec = self._append_record(ns, SECTION, version, rank, section,
                                      payload)
            self._register_section((version, rank), section, rec, ns.seg)

    def commit_line(self, version: int, rank: int,
                    sections: Sections) -> None:
        manifest, payload = encode_commit(version, rank, sections)
        node = self.node_of(rank)
        with self._lock:
            ns = self._node(node)
            rec = self._append_record(ns, COMMIT, version, rank, "", payload)
            commit = self._register_commit((version, rank), ns.seg, rec,
                                           manifest, durable=False)
            ns.pending.append(commit)
            self.commit_records += 1
        hook = self.commit_hooks.get(rank)
        if hook is not None:
            # Outside the lock: the hook is the at_group_commit fault
            # window and may raise ProcessFailure to kill this rank while
            # its COMMIT record sits staged and unsynced.
            hook(version)
        with self._lock:
            ns = self._node(node)
            if len(ns.pending) >= self._group_size(node):
                self._flush_node(node)

    def delete_line(self, version: int, rank: int) -> None:
        with self._lock:
            key = (version, rank)
            if key not in self._sections and key not in self._commits:
                return
            ns = self._node(self.node_of(rank))
            rec = self._append_record(ns, DELETE, version, rank, "", b"")
            self._apply_delete(key, ns.seg, rec)

    # -- durability / group commit -------------------------------------------
    def _flush_node(self, node: int) -> None:
        ns = self._nodes.get(node)
        if ns is None:
            return
        if ns.staged:
            try:
                self.backend.append(ns.seg, ns.staged_parts())
            except StorageError:
                # The staged tail never reached the medium (disk full,
                # ...) and retrying would re-append a batch whose commit
                # acknowledgments are gone: drop it and un-index its
                # records.  The affected lines simply never committed —
                # recovery falls back to the last durable line, exactly
                # as after a crash at this instant.  (Found by the fault
                # fuzzer: an injected ENOSPC here used to escape as a raw
                # StorageError and crash the job instead of abandoning
                # the batch.)
                self.flush_failures += 1
                coverage.hit("path:wal_flush_failed")
                self._drop_staged(ns)
                raise
            ns.base += ns.staged_len
            ns.clear_staged()
            try:
                self.backend.sync(ns.seg)
            except StorageError:
                # Appended but not provably durable: keep the index (the
                # bytes are physically there and replay would see them)
                # and leave the pending commits staged — the next
                # successful flush's sync covers them.
                self.flush_failures += 1
                coverage.hit("path:wal_flush_failed")
                raise
        if ns.pending:
            self.group_commits += 1
            coverage.hit("path:group_commit")
            for commit in ns.pending:
                commit.durable = True
            ns.pending.clear()
        # Everything staged before this point is durable: compacted
        # segments' replacement records included, so their sources may go.
        self._compacted_pending.pop(node, None)
        if ns.base >= self.segment_target_bytes:
            ns.seq += 1
            ns.seg = segment_path(node, ns.seq)
            ns.base = 0
        self._retire_node(node)

    def _drop_staged(self, ns: _Node) -> None:
        """Un-index every record of ``ns``'s staged (unflushed) tail.

        Called when a group-commit flush fails: the buffered records will
        never be durable, so sections and commits that live only in the
        buffer are removed from the index and the pending commit batch is
        abandoned.  Deliberately conservative — a record that re-pointed
        the index away from a still-physical source copy (compaction) is
        forgotten too, so the in-memory view may under-report what a
        crash replay would reconstruct; recovering from an older line is
        always safe.
        """
        seg = self._segments.get(ns.seg)
        if seg is not None:
            kept = []
            for rec in seg.records:
                if rec.off < ns.base:
                    kept.append(rec)
                    continue
                seg.total -= rec.length
                if rec.live:
                    seg.live -= rec.length
                key = (rec.version, rec.rank)
                if rec.rtype == SECTION:
                    sections = self._sections.get(key)
                    if (sections is not None
                            and sections.get(rec.name, (None, None))[1]
                            is rec):
                        del sections[rec.name]
                        if not sections:
                            del self._sections[key]
                elif rec.rtype == COMMIT:
                    commit = self._commits.get(key)
                    if commit is not None and commit.rec is rec:
                        del self._commits[key]
        ns.pending.clear()
        ns.clear_staged()

    def flush(self) -> None:
        with self._lock:
            for node in list(self._nodes):
                self._flush_node(node)

    def flush_rank(self, rank: int) -> None:
        with self._lock:
            self._flush_node(self.node_of(rank))

    # -- segment retirement ----------------------------------------------------
    def _retire_node(self, node: int) -> None:
        progressed = True
        while progressed:
            progressed = False
            ns = self._nodes[node]
            held = self._compacted_pending.get(node, set())
            for segname, seg in list(self._segments.items()):
                if seg.node != node or segname == ns.seg or segname in held:
                    continue
                if seg.live <= 0:
                    self._unlink_segment(segname, seg)
                    progressed = True
                elif seg.total and seg.live / seg.total < self.compact_threshold:
                    self._compact_segment(segname, seg, ns)

    def _unlink_segment(self, segname: str, seg: _Seg) -> None:
        try:
            self.backend.delete(segname)
        except StorageError:
            pass
        del self._segments[segname]
        self.segments_retired += 1
        coverage.hit("path:wal_retired")
        for rec in seg.records:
            if rec.rtype == DELETE:
                continue
            key = (rec.version, rec.rank)
            refs = self._line_refs.get(key)
            if refs is None:
                continue
            refs.discard(segname)
            if not refs:
                # No physical record of this line anywhere: its
                # tombstones have nothing left to suppress at replay.
                del self._line_refs[key]
                for dseg, drec in self._deletes.pop(key, ()):
                    self._mark_dead(dseg, drec)

    def _compact_segment(self, segname: str, seg: _Seg, ns: _Node) -> None:
        self.segments_compacted += 1
        coverage.hit("path:wal_compacted")
        for rec in list(seg.records):
            if not rec.live:
                continue
            key = (rec.version, rec.rank)
            if rec.rtype == SECTION:
                payload = self._read_rec(segname, rec)
                new = self._append_record(ns, SECTION, rec.version, rec.rank,
                                          rec.name, payload)
                self._register_section(key, rec.name, new, ns.seg)
            elif rec.rtype == COMMIT:
                payload = self._read_rec(segname, rec)
                new = self._append_record(ns, COMMIT, rec.version, rec.rank,
                                          "", payload)
                old = self._commits.get(key)
                self._mark_dead(segname, rec)
                if old is not None and old.rec is rec:
                    self._register_commit(key, ns.seg, new, old.manifest,
                                          old.durable)
            else:  # DELETE tombstone still suppressing records elsewhere
                new = self._append_record(ns, DELETE, rec.version, rec.rank,
                                          "", b"")
                self._mark_dead(segname, rec)
                self._deletes.setdefault(key, []).append((ns.seg, new))
        self._compacted_pending.setdefault(ns.index, set()).add(segname)

    # -- job lifetime / crash semantics ----------------------------------------
    def _job_end(self, failed_rank: Optional[int]) -> None:
        with self._lock:
            if failed_rank is None:
                try:
                    self.flush()
                except StorageError:
                    pass  # staged tail abandoned (disk full at final drain)
                return
            failed_node = self.node_of(failed_rank)
            for node in list(self._nodes):
                # Surviving nodes did not crash — their page caches drain
                # normally even though the job's processes are gone.
                if node != failed_node:
                    try:
                        self._flush_node(node)
                    except StorageError:
                        pass  # that node's staged tail is abandoned
            ns = self._nodes.get(failed_node)
            if ns is not None and ns.staged:
                try:
                    self.backend.append(ns.seg, self._torn_prefix(ns))
                    coverage.hit("path:wal_torn_tail")
                except StorageError:
                    pass  # the torn tail is lost whole: clean truncation
            self._replay()

    def _torn_prefix(self, ns: _Node) -> list:
        """What the failed node's page cache happened to write, as
        buffers for one append (``ns`` has a staged tail).

        Deterministic model: every staged record but the last made it
        out whole; the last was cut mid-record.  Replay keeps the whole
        prefix and truncates at the cut — so every WAL crash exercises
        the torn-record path.
        """
        records = list(ns.staged.values())
        torn: list = [part for parts in records[:-1] for part in parts]
        keep = max(1, sum(map(len, records[-1])) // 2)
        for part in records[-1]:
            if keep <= 0:
                break
            torn.append(memoryview(part)[:keep])  # the cut, uncopied
            keep -= len(part)
        return torn

    def reload(self) -> None:
        """Rebuild indexes from the medium (after a processes run).

        Worker processes appended to the segments through their forked
        copies of this store; the parent's index is stale but the bytes
        are current.  Re-replaying the log is exactly the recovery path,
        with the same consequence a crash would have: any tail a killed
        worker staged but never synced is not on the medium and is lost
        to the parent (DESIGN.md §12.7).
        """
        with self._lock:
            self._reset_state()
            if self.backend.list(WAL_PREFIX):
                self._replay()

    # -- replay ----------------------------------------------------------------
    def _replay(self) -> None:
        """Rebuild the whole index from the durable log (recovery path)."""
        with self._lock:
            self.replays += 1
            self._reset_state()
            by_node: Dict[int, List[Tuple[int, str]]] = {}
            for path in self.backend.list(WAL_PREFIX):
                m = _SEG_RE.match(path)
                if m:
                    by_node.setdefault(int(m.group(1)), []).append(
                        (int(m.group(2)), path))
            for node, entries in sorted(by_node.items()):
                entries.sort()
                for _seq, path in entries:
                    self._replay_segment(node, path)
                self._nodes[node] = _Node(node, entries[-1][0] + 1)
            # Tombstones whose line has no physical record left (its
            # segments were retired before the crash) are spent.
            for key, dlist in self._deletes.items():
                if not self._line_refs.get(key):
                    for dseg, drec in dlist:
                        self._mark_dead(dseg, drec)

    def _replay_segment(self, node: int, path: str) -> None:
        try:
            data = self.backend.read(path)
        except StorageError:
            return
        seg = _Seg(node)
        mv = memoryview(data)
        off = 0
        while off < len(data):
            parsed = _parse_record(mv, off)
            if parsed is None:
                # Torn/corrupt tail: physically truncate to the valid
                # prefix so later appends never land after garbage.
                self.replay_truncated_bytes += len(data) - off
                coverage.hit("path:wal_truncated")
                data = data[:off]
                if data:
                    try:
                        self.backend.write(path, data)
                    except StorageError:
                        pass  # best-effort: a later replay re-truncates
                else:
                    try:
                        self.backend.delete(path)
                    except StorageError:
                        pass
                break
            rtype, version, rank, name_len, payload_len, total = parsed
            payload_off = off + HEADER_LEN + name_len
            rec = _Rec(rtype, version, rank, _record_name(mv, off, name_len),
                       off, total, payload_off, payload_len)
            seg.records.append(rec)
            seg.total += total
            seg.live += total
            key = (version, rank)
            self._segments[path] = seg  # the registrations mark dead here
            if rtype == SECTION:
                self._register_section(key, rec.name, rec, path)
            elif rtype == COMMIT:
                # the only payload replay reads: the manifest
                payload = bytes(mv[payload_off:payload_off + payload_len])
                try:
                    manifest, durable = decode_commit(payload), True
                except StorageError:
                    # CRC-valid yet undecodable: no line to restore from
                    manifest, durable = None, False
                self._register_commit(key, path, rec, manifest, durable)
            else:
                self._apply_delete(key, path, rec)
            off += total
        if seg.records:
            self._segments[path] = seg
        elif not data:
            self._segments.pop(path, None)

    # -- read path -------------------------------------------------------------
    def _section_entry(self, version: int, rank: int, section: str,
                       ) -> Tuple[str, _Rec]:
        entry = self._sections.get((version, rank), {}).get(section)
        if entry is None:
            raise StorageError(
                f"no section {section!r} for line v{version}/rank{rank}")
        return entry

    def read_section(self, version: int, rank: int, section: str) -> bytes:
        with self._lock:
            segname, rec = self._section_entry(version, rank, section)
            return self._read_rec(segname, rec)

    def _commit_record(self, version: int, rank: int) -> dict:
        with self._lock:
            commit = self._commits.get((version, rank))
        if commit is None or not commit.durable:
            raise StorageError(f"line v{version}/rank{rank} is not committed")
        return commit.manifest

    def _section_len(self, version: int, rank: int, section: str) -> int:
        with self._lock:
            return self._section_entry(version, rank, section)[1].payload_len

    # -- global queries ----------------------------------------------------------
    def committed_map(self) -> Dict[int, List[int]]:
        with self._lock:
            out: Dict[int, List[int]] = {}
            for (version, rank), commit in self._commits.items():
                if commit.durable:
                    out.setdefault(rank, []).append(version)
            for versions in out.values():
                versions.sort()
            return out

    def lines_on_storage(self) -> Dict[int, List[int]]:
        with self._lock:
            keys = set(self._sections) | set(self._commits)
            out: Dict[int, Set[int]] = {}
            for version, rank in keys:
                out.setdefault(rank, set()).add(version)
            return {rank: sorted(vs) for rank, vs in out.items()}

    # -- introspection -----------------------------------------------------------
    def segment_names(self) -> List[str]:
        with self._lock:
            return sorted(self._segments)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "group_commits": self.group_commits,
                "commit_records": self.commit_records,
                "segments_created": self.segments_created,
                "segments_retired": self.segments_retired,
                "segments_compacted": self.segments_compacted,
                "replays": self.replays,
                "replay_truncated_bytes": self.replay_truncated_bytes,
                "flush_failures": self.flush_failures,
            }
