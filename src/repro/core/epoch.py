"""Epochs, the piggyback word, and message classification.

Execution is divided into *epochs* separated by recovery lines; taking
checkpoint *k* moves a process from epoch *k-1* to epoch *k*.  Every
message — application message or collective stream — carries one
piggyback *word* naming the sender's epoch and whether the sender has
stopped logging non-deterministic events.  Comparing the sender's epoch
with the receiver's classifies the message (Definition 1):

* **late** — sender epoch < receiver epoch,
* **intra-epoch** — equal,
* **early** — sender epoch > receiver epoch.

Because a message crosses at most one recovery line, epochs at the two
ends differ by at most one, so the full epoch integer can be replaced by
its value mod 3 — a 2-bit "color" — plus one bit for "the sender has
stopped logging non-deterministic events": 3 piggybacked bits total
(Section 3.2).  The codec is deliberately separated from the protocol
(Section 4.5, last bullet) so the wire encoding can be swapped; the
``full`` codec piggybacks the whole epoch and is used by the piggyback
ablation bench.

Classification is one lookup.  A receiver in epoch *e* can only be sent
the words its peers in epochs *e-1*, *e* and *e+1* encode, so
:func:`receive_table` lists those words with their class once per epoch
and :func:`classify` indexes it.  A word missing from the table — an
invalid color, a sender in epoch -1, a message that crossed two recovery
lines, no piggyback at all — is a protocol violation.  Bit 0 of every
codec's word is the stopped-logging bit (:data:`STOPPED`).

Paper mapping
-------------
* Definition 1 (Section 3.1) — :func:`classify` and the
  ``LATE``/``INTRA``/``EARLY`` classes;
* Section 3.2 — :class:`ThreeBitCodec` (the 2-bit epoch color + 1
  stopped-logging bit piggybacked on every message);
* Section 4.5 — :class:`FullCodec`, the swappable-wire-encoding ablation.
"""

from __future__ import annotations

from typing import Dict

from .modes import ProtocolError

#: message classes: the sender's epoch minus the receiver's
LATE, INTRA, EARLY = -1, 0, 1

#: the stopped-logging bit of every codec's word
STOPPED = 1


class ThreeBitCodec:
    """The paper's 3-bit word: 2-bit epoch color + 1 logging bit.

    On the (byte-oriented) wire this occupies 1 byte.
    """

    nbytes = 1

    @staticmethod
    def encode(epoch: int, stopped_logging: bool) -> int:
        return ((epoch % 3) << 1) | stopped_logging


class FullCodec:
    """Ablation codec: piggybacks the whole epoch (8 bytes) + mode byte."""

    nbytes = 9

    @staticmethod
    def encode(epoch: int, stopped_logging: bool) -> int:
        return (epoch << 1) | stopped_logging


CODECS = {"3bit": ThreeBitCodec(), "full": FullCodec()}


def receive_table(codec, epoch: int) -> Dict[int, int]:
    """Every word a sender within one recovery line of a receiver in
    ``epoch`` can put on the wire, mapped to the message's class."""
    return {codec.encode(epoch + kind, stopped): kind
            for kind in (LATE, INTRA, EARLY) if epoch + kind >= 0
            for stopped in (False, True)}


def classify(table: Dict[int, int], word) -> int:
    """Definition 1: the class of a message carrying ``word``, for the
    receiver whose :func:`receive_table` is ``table``."""
    kind = table.get(word)
    if kind is None:
        raise ProtocolError(
            f"piggyback word {word!r} names no epoch within one recovery "
            "line of the receiver's: the message crossed more than one "
            "recovery line, or carried no piggyback"
        )
    return kind
