"""Wire-format framing: layout, roundtrips, corruption rejection."""

import struct
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinbridge.bridge import BridgeEndpoint, PriorityPolicy
from twinbridge.envelope import (
    MIN_FRAME,
    MAX_PAYLOAD,
    BadMagic,
    BadTopic,
    BadVersion,
    CrcMismatch,
    Envelope,
    FLAG_REPLAY,
    FrameError,
    TIER_CRITICAL,
    TIERS,
    PayloadTooLarge,
    Truncated,
    decode_envelope,
    decode_stream,
    encode_envelope,
    frame_size,
    with_replay_flag,
)
from twinbridge.msgbus import Message, MessageKind, TopicBus
from twinbridge.netsim import NetworkConditions, PiecewiseConstant, SimClock, TraceEvent, link_pair
from twinbridge.twinsync import TwinState


def make_env(topic="/a", payload=b"", tier=0, flags=0, seq=0, sim_time_us=0, kind=0):
    return Envelope(tier, flags, seq, sim_time_us, topic, kind, payload)


def raw_frame(topic: bytes, payload: bytes = b"") -> bytes:
    """A CRC-valid frame built from the documented layout, bypassing the encoder."""
    body = struct.pack("<4sBBBQQH", b"SERN", 1, 0, 0, 0, 0, len(topic)) + topic
    body += struct.pack("<BI", 0, len(payload)) + payload
    return body + struct.pack("<I", zlib.crc32(body))


def bridge_frames(publishes):
    """Publish (payload, time) pairs on a critical /odom topic and let one bridge
    endpoint frame them: returns the decoded in-flight frames and the replay ring."""
    clock = SimClock()
    ideal = NetworkConditions(PiecewiseConstant(5.0), PiecewiseConstant(0.0), None, ())
    fwd, rev = link_pair(clock, ideal, 1)
    bus = TopicBus()
    endpoint = BridgeEndpoint(
        bus, fwd, rev, PriorityPolicy(rules=(("/odom", TIER_CRITICAL),)), topics=("/odom",)
    )
    pub = bus.advertise("/odom", MessageKind.POSE)
    for payload, t in publishes:
        pub.publish(payload, t)
    clock.advance(0.05)
    endpoint._tick(clock.now)
    wire = decode_stream(b"".join(fwd.in_flight()))
    return wire, endpoint.replay_buffer.get_range("/odom", 0, len(publishes) - 1)


class TestLayout:
    def test_empty_payload_topic_a_is_36_bytes(self):
        # independent byte count: 4+1+1+1+8+8+2 + len("/a") + 1+4 + 0 + 4
        expected = 4 + 1 + 1 + 1 + 8 + 8 + 2 + len(b"/a") + 1 + 4 + 0 + 4
        frame = encode_envelope(make_env())
        assert expected == 36
        assert len(frame) == 36
        assert MIN_FRAME + len(b"/a") == 36

    def test_magic_and_version_bytes(self):
        frame = encode_envelope(make_env())
        assert frame[:4] == b"SERN"
        assert frame[4] == 1

    def test_little_endian_seq(self):
        frame = encode_envelope(make_env(seq=0x0102030405060708))
        assert frame[7:15] == bytes([8, 7, 6, 5, 4, 3, 2, 1])

    def test_min_frame_constant(self):
        assert MIN_FRAME == 34


class TestRoundtrip:
    def test_identity(self):
        env = make_env("/robot1/odom", b"payload-bytes", tier=2, flags=1, seq=77,
                       sim_time_us=123456, kind=3)
        assert decode_envelope(encode_envelope(env)) == env

    def test_encode_message_stamps_microseconds(self):
        (env,), ring = bridge_frames([(b"x", 1.5)])
        assert env.sim_time_us == 1_500_000
        assert ring == [env]

    def test_encode_bus_message(self):
        wire, _ = bridge_frames([(b"", 0.0), (b"state", 2.25)])
        env = wire[1]
        assert env.topic == "/odom"
        assert env.payload == b"state"
        assert env.kind == int(MessageKind.POSE)
        assert env.seq == 1
        assert env.sim_time_us == 2_250_000

    def test_raw_frame_matches_encoder(self):
        assert raw_frame(b"/a", b"xy") == encode_envelope(make_env(payload=b"xy"))

    def test_replay_flag(self):
        env = with_replay_flag(make_env())
        assert env.flags & FLAG_REPLAY
        assert decode_envelope(encode_envelope(env)).flags & FLAG_REPLAY


class TestErrors:
    def test_payload_too_large(self):
        with pytest.raises(PayloadTooLarge):
            encode_envelope(make_env(payload=b"x" * (16 * 1024 * 1024 + 1)))

    def test_truncated_mid_payload(self):
        frame = encode_envelope(make_env(payload=b"abcdef"))
        with pytest.raises(Truncated):
            decode_envelope(frame[:-8])

    def test_trailing_garbage_rejected(self):
        frame = encode_envelope(make_env())
        with pytest.raises(Truncated):
            decode_envelope(frame + b"\x00")

    def test_bad_magic(self):
        frame = bytearray(encode_envelope(make_env()))
        frame[0] = ord("X")
        with pytest.raises(BadMagic):
            decode_envelope(bytes(frame))

    def test_bad_version_with_valid_crc(self):
        # hand-build a version-2 frame with a correct checksum
        frame = bytearray(encode_envelope(make_env()))
        frame[4] = 2
        body = bytes(frame[:-4])
        frame[-4:] = struct.pack("<I", zlib.crc32(body))
        with pytest.raises(BadVersion):
            decode_envelope(bytes(frame))

    def test_non_utf8_topic_with_valid_crc(self):
        with pytest.raises(BadTopic):
            decode_envelope(raw_frame(b"/\xff\xfe"))
        with pytest.raises(BadTopic):
            decode_stream(encode_envelope(make_env()) + raw_frame(b"/\xc3"))

    def test_oversized_payload_with_valid_crc(self):
        with pytest.raises(PayloadTooLarge):
            decode_envelope(raw_frame(b"/a", bytes(MAX_PAYLOAD + 1)))

    def test_version_flip_without_recrc_is_crc_mismatch(self):
        frame = bytearray(encode_envelope(make_env()))
        frame[4] = 2
        with pytest.raises(CrcMismatch):
            decode_envelope(bytes(frame))

    def test_any_single_byte_flip_rejected(self):
        frame = encode_envelope(make_env("/topic/x", b"some payload", tier=1, seq=9))
        for i in range(len(frame)):
            corrupted = bytearray(frame)
            corrupted[i] ^= 0xFF
            with pytest.raises((BadMagic, Truncated, CrcMismatch)):
                decode_envelope(bytes(corrupted))


class TestStream:
    def test_batch_roundtrip(self):
        envs = [make_env(f"/t{i}", bytes([i]) * i, seq=i) for i in range(5)]
        buf = b"".join(encode_envelope(e) for e in envs)
        assert decode_stream(buf) == envs

    def test_any_single_byte_flip_in_a_later_frame_rejected(self):
        # the CRC of a frame that does not start the buffer is taken at an offset
        first = encode_envelope(make_env("/first", b"lead"))
        frame = encode_envelope(make_env("/topic/x", b"some payload", tier=1, seq=9))
        last = encode_envelope(make_env("/last", b"tail", seq=3))
        for i in range(len(frame)):
            corrupted = bytearray(frame)
            corrupted[i] ^= 0xFF
            with pytest.raises((BadMagic, Truncated, CrcMismatch)):
                decode_stream(first + bytes(corrupted) + last)

    def test_stream_truncation(self):
        buf = encode_envelope(make_env()) + encode_envelope(make_env())[:-1]
        with pytest.raises(Truncated):
            decode_stream(buf)


topics = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126, exclude_characters="/"),
    min_size=1,
    max_size=24,
).map(lambda s: "/" + s)


@given(
    topic=topics,
    payload=st.binary(max_size=512),
    tier=st.integers(0, 2),
    flags=st.integers(0, 255),
    seq=st.integers(0, 2**64 - 1),
    sim_time_us=st.integers(0, 2**64 - 1),
    kind=st.integers(0, 255),
)
@settings(max_examples=300, deadline=None)
def test_roundtrip_property(topic, payload, tier, flags, seq, sim_time_us, kind):
    env = Envelope(tier, flags, seq, sim_time_us, topic, kind, payload)
    assert decode_envelope(encode_envelope(env)) == env


envelopes = st.builds(
    Envelope,
    tier=st.sampled_from(TIERS),
    flags=st.integers(0, 255),
    seq=st.integers(0, 2**64 - 1),
    sim_time_us=st.integers(0, 2**64 - 1),
    topic=st.text(st.characters(codec="utf-8"), max_size=40).map(lambda s: "/" + s),
    kind=st.integers(0, 255),
    payload=st.binary(max_size=256),
)


@given(envs=st.lists(envelopes, max_size=8))
@settings(max_examples=200, deadline=None)
def test_stream_roundtrip_property(envs):
    assert decode_stream(b"".join(map(encode_envelope, envs))) == envs


@given(
    topic=st.text(st.characters(codec="utf-8"), max_size=40).map(lambda s: "/" + s),
    payload=st.binary(),
    tier=st.sampled_from(TIERS),
    flags=st.integers(0, 255),
    seq=st.integers(0, 2**64 - 1),
)
# a topic that is not ASCII, with 2- and 3-byte characters, encodes longer than its length
@example(topic="/robot\u00e9/\u4f4d\u59ff", payload=b"x", tier=TIER_CRITICAL, flags=0, seq=0)
@settings(max_examples=300, deadline=None)
def test_frame_size_is_the_encoded_length(topic, payload, tier, flags, seq):
    env = Envelope(tier, flags, seq, 0, topic, 0, payload)
    assert frame_size(env) == len(encode_envelope(env))


def test_frame_error_is_value_error():
    assert issubclass(FrameError, ValueError)
    assert issubclass(BadTopic, FrameError)


def _records():
    env = make_env()
    return [
        (env, "seq"),
        (Message("/a", b"", 0.0, MessageKind.BLOB), "payload"),
        (TraceEvent(0.0, 36, None), "deliver_at"),
        (TwinState.at_rest(), "heading"),
    ]


@pytest.mark.parametrize(
    "record, field", _records(), ids=["Envelope", "Message", "TraceEvent", "TwinState"]
)
def test_records_refuse_attribute_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.note = 1
