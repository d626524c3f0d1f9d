"""Message envelopes and signatures.

A :class:`MessageSignature` is the triple the paper uses to identify
messages in its registries: ``<sending node number, tag, communicator>``.
An :class:`Envelope` is a message in flight: the signature fields, payload
bytes, element count/type info, the virtual time at which it becomes
available at the receiver, and the *piggyback* word of the C3
coordination layer (the paper piggybacks 3 bits: a 2-bit epoch color and
1 logging bit), or None on a plain message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class MessageSignature:
    """``<sending node number, tag, communicator>`` (paper, Section 2.3)."""

    source: int
    tag: int
    context_id: int


class Envelope:
    """One message in flight.

    The signature fields live directly on the envelope (one is built per
    message, so no per-message signature object); ``nbytes`` is fixed at
    construction because payloads are immutable ``bytes``.
    """

    __slots__ = ("source", "tag", "context_id", "payload", "nbytes", "count",
                 "type_name", "dest", "avail_time", "piggyback")

    def __init__(self, source: int, tag: int, context_id: int, payload: bytes,
                 count: int, type_name: str, dest: int,
                 avail_time: float = 0.0, piggyback: Optional[int] = None):
        self.source = source
        self.tag = tag
        self.context_id = context_id
        self.payload = payload
        self.nbytes = len(payload)
        self.count = count
        self.type_name = type_name
        self.dest = dest
        self.avail_time = avail_time
        self.piggyback = piggyback

    @property
    def signature(self) -> MessageSignature:
        return MessageSignature(self.source, self.tag, self.context_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Envelope {self.source}->{self.dest} tag={self.tag} "
            f"ctx={self.context_id} {self.nbytes}B>"
        )
