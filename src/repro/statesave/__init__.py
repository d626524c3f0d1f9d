"""Application-level state saving (paper Section 5)."""

from .checkpointfile import CheckpointError, CheckpointReader, CheckpointWriter
from .context import AppState, Context, StateError
from .heap import Block, HeapError, SimHeap
from .incremental import IncrementalError, IncrementalTracker, PAGE
from .serializer import SerializationError, Serializer, dumps, loads

__all__ = [
    "Context", "AppState", "StateError",
    "SimHeap", "Block", "HeapError",
    "Serializer", "dumps", "loads", "SerializationError",
    "CheckpointWriter", "CheckpointReader", "CheckpointError",
    "IncrementalTracker", "IncrementalError", "PAGE",
]
