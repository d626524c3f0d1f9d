"""The C3 coordination layer — the paper's primary contribution."""

from .ccc import (
    C3RunResult, cached_comm, resume_from_manifest, run_c3,
    run_fault_tolerant, run_original,
)
from .comms import C3CartComm, C3Comm
from .counters import CounterSet
from .epoch import (
    CODECS, EARLY, FullCodec, INTRA, LATE, ThreeBitCodec, classify,
    receive_table,
)
from .modes import Mode, ModeTracker, ProtocolError
from .protocol import C3Config, C3Protocol, C3Stats, COLL_TAG
from .registries import (
    DATA, EarlyMessageRegistry, EventLog, LateEntry, LateMessageRegistry,
    WILDCARD, WasEarlyRegistry,
)
from .reqtable import C3Request, RequestEntry, RequestTable
from .datatable import C3DatatypeHandle, DatatypeTable
from .commtable import CommEntry, CommTable

__all__ = [
    "C3Protocol", "C3Config", "C3Stats", "COLL_TAG",
    "C3Comm", "C3CartComm", "C3Request",
    "run_c3", "run_fault_tolerant", "run_original", "C3RunResult",
    "cached_comm", "resume_from_manifest",
    "Mode", "ModeTracker", "ProtocolError",
    "classify", "receive_table", "LATE", "INTRA", "EARLY", "ThreeBitCodec",
    "FullCodec", "CODECS",
    "LateMessageRegistry", "EarlyMessageRegistry", "WasEarlyRegistry",
    "EventLog", "LateEntry", "DATA", "WILDCARD",
    "CounterSet", "RequestTable", "RequestEntry",
    "DatatypeTable", "C3DatatypeHandle", "CommTable", "CommEntry",
]
