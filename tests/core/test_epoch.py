"""Epoch colors, message classification (Figure 2), the piggyback word."""

import pytest
from hypothesis import given, strategies as st

from repro.core.epoch import (
    CODECS, EARLY, STOPPED, FullCodec, INTRA, LATE, ThreeBitCodec, classify,
    receive_table,
)
from repro.core.modes import ProtocolError


def _class(codec, sender, receiver, stopped=False):
    """Definition 1 through the wire: how a receiver in epoch ``receiver``
    classifies the word a sender in epoch ``sender`` puts on it."""
    return classify(receive_table(codec, receiver),
                    codec.encode(sender, stopped))


class TestClassify:
    def test_definition_1(self):
        for codec in CODECS.values():
            assert _class(codec, 0, 1) == LATE   # sender epoch < receiver
            assert _class(codec, 1, 1) == INTRA
            assert _class(codec, 2, 1) == EARLY  # sender epoch > receiver

    def test_more_than_one_line_is_a_protocol_violation(self):
        with pytest.raises(ProtocolError):
            _class(FullCodec(), 0, 2)
        with pytest.raises(ProtocolError):
            _class(FullCodec(), 5, 3)
        # a word no codec produces: the 3-bit codec's fourth color
        with pytest.raises(ProtocolError):
            classify(receive_table(ThreeBitCodec(), 3), 0b110)
        # an application message that carried no piggyback
        with pytest.raises(ProtocolError):
            classify(receive_table(ThreeBitCodec(), 3), None)


class TestThreeBitCodec:
    def test_wire_size_is_one_byte(self):
        assert ThreeBitCodec.nbytes == 1

    def test_encode_fits_in_three_bits(self):
        c = ThreeBitCodec()
        for epoch in range(10):
            for stopped in (False, True):
                assert 0 <= c.encode(epoch, stopped) < 8

    @pytest.mark.parametrize("receiver", range(8))
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_roundtrip_within_one_line(self, receiver, delta):
        sender = receiver + delta
        c = ThreeBitCodec()
        table = receive_table(c, receiver)
        word = c.encode(sender, True)
        if sender < 0:
            # Epoch -1 does not exist: no valid sender can be one line
            # behind a receiver in epoch 0, so its color (the one that
            # would decode to -1) must be rejected, not resolved.
            with pytest.raises(ProtocolError):
                classify(table, word)
            return
        assert classify(table, word) == delta
        assert word & STOPPED

    def test_logging_bit(self):
        c = ThreeBitCodec()
        assert not c.encode(3, False) & STOPPED
        assert c.encode(3, True) & STOPPED
        assert _class(c, 3, 3, stopped=True) == _class(c, 3, 3) == INTRA


class TestFullCodec:
    def test_roundtrip(self):
        c = FullCodec()
        assert _class(c, 41, 42) == LATE
        assert not c.encode(41, False) & STOPPED

    def test_detects_multi_line_crossing(self):
        with pytest.raises(ProtocolError):
            _class(FullCodec(), 10, 3, stopped=True)

    def test_wire_size_larger_than_three_bit(self):
        assert FullCodec.nbytes > ThreeBitCodec.nbytes


def test_codec_registry():
    assert set(CODECS) == {"3bit", "full"}


@given(receiver=st.integers(0, 1000), delta=st.integers(-1, 1),
       stopped=st.booleans())
def test_three_bit_codec_roundtrip_property(receiver, delta, stopped):
    """Property: the 2-bit color uniquely identifies the sender epoch
    whenever |sender - receiver| <= 1 (the paper's Section 3.2 argument),
    so the 3-bit word classifies exactly as the full epoch does; a color
    with no sender epoch in that window is a protocol violation."""
    sender = receiver + delta
    for codec in CODECS.values():
        word = codec.encode(sender, stopped)
        if sender < 0:
            with pytest.raises(ProtocolError):
                classify(receive_table(codec, receiver), word)
            continue
        assert classify(receive_table(codec, receiver), word) == delta
        assert bool(word & STOPPED) == stopped
