"""Binary wire framing for bridged topic messages.

Frame layout, all multi-byte integers little-endian:

    offset  size  field
    0       4     magic "SERN"
    4       1     version (= 1)
    5       1     tier (0 critical, 1 standard, 2 bulk)
    6       1     flags (bit 0 = replay)
    7       8     seq, per (topic, direction)
    15      8     sim_time_us
    23      2     topic_len
    25      n     topic (UTF-8)
    25+n    1     kind
    26+n    4     payload_len
    30+n    m     payload
    30+n+m  4     crc32 over all preceding bytes

An empty-payload frame with topic "/a" is exactly 36 bytes.

Decode validates, in order: buffer length, magic, declared frame length, CRC,
version, payload size, then topic encoding. CRC is checked before version so
that any single corrupted byte in an otherwise valid frame surfaces as
BadMagic, Truncated, or CrcMismatch; BadVersion is reserved for well-formed
frames from a different protocol revision, and PayloadTooLarge and BadTopic
for CRC-valid frames that break the layout's limits.
"""

from __future__ import annotations

import struct
import zlib
from typing import NamedTuple

MAGIC = b"SERN"
VERSION = 1

TIER_CRITICAL = 0
TIER_STANDARD = 1
TIER_BULK = 2
TIERS = (TIER_CRITICAL, TIER_STANDARD, TIER_BULK)
TIER_NAMES = {TIER_CRITICAL: "critical", TIER_STANDARD: "standard", TIER_BULK: "bulk"}
TIER_BY_NAME = {v: k for k, v in TIER_NAMES.items()}

FLAG_REPLAY = 0x01

MAX_PAYLOAD = 16 * 1024 * 1024

_HEAD = struct.Struct("<4sBBBQQH")   # magic, version, tier, flags, seq, sim_time_us, topic_len
_MID = struct.Struct("<BI")          # kind, payload_len
_CRC = struct.Struct("<I")
_HEAD_SIZE, _MID_SIZE, _CRC_SIZE = _HEAD.size, _MID.size, _CRC.size
MIN_FRAME = _HEAD_SIZE + _MID_SIZE + _CRC_SIZE  # 34 bytes, zero-length topic and payload


class FrameError(ValueError):
    """Base class for malformed-frame errors."""


class BadMagic(FrameError):
    pass


class BadVersion(FrameError):
    pass


class CrcMismatch(FrameError):
    pass


class Truncated(FrameError):
    pass


class PayloadTooLarge(FrameError):
    pass


class BadTopic(FrameError):
    """Topic bytes that do not name a topic, such as invalid UTF-8."""


class Envelope(NamedTuple):
    """One decoded wire frame, as an immutable tuple of its fields."""

    tier: int
    flags: int
    seq: int
    sim_time_us: int
    topic: str
    kind: int
    payload: bytes


def frame_size(env: Envelope) -> int:
    """The length of `encode_envelope(env)`, without building the frame; an ASCII topic is not encoded."""
    topic = env.topic
    return MIN_FRAME + (len(topic) if topic.isascii() else len(topic.encode("utf-8"))) + len(env.payload)


def encode_envelope(env: Envelope) -> bytes:
    """Serialize one envelope to its bit-exact frame; the CRC chains over the payload, copied once."""
    tier, flags, seq, sim_time_us, topic, kind, payload = env
    if len(payload) > MAX_PAYLOAD:
        raise PayloadTooLarge(f"payload of {len(payload)} bytes exceeds 16 MiB")
    topic_bytes = topic.encode("utf-8")
    if len(topic_bytes) > 0xFFFF:
        raise ValueError("topic longer than 65535 bytes")
    if tier not in TIERS:
        raise ValueError(f"tier must be one of {TIERS}")
    head = b"".join((
        _HEAD.pack(MAGIC, VERSION, tier, flags & 0xFF, seq, sim_time_us, len(topic_bytes)),
        topic_bytes,
        _MID.pack(kind & 0xFF, len(payload)),
    ))
    return b"".join((head, payload, _CRC.pack(zlib.crc32(payload, zlib.crc32(head)))))


def _parse_one(buf: bytes, offset: int) -> tuple[Envelope, int]:
    """Parse one frame at offset into (envelope, next offset); the CRC check reads a memoryview, copying nothing."""
    size = len(buf)
    if size - offset < MIN_FRAME:
        raise Truncated(f"{size - offset} bytes < minimum frame of {MIN_FRAME}")
    magic, version, tier, flags, seq, sim_time_us, topic_len = _HEAD.unpack_from(buf, offset)
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r}")
    mid_at = offset + _HEAD_SIZE + topic_len
    if mid_at + _MID_SIZE + _CRC_SIZE > size:
        raise Truncated("frame ends inside topic or fixed fields")
    kind, payload_len = _MID.unpack_from(buf, mid_at)
    crc_at = mid_at + _MID_SIZE + payload_len
    end = crc_at + _CRC_SIZE
    if end > size:
        raise Truncated("frame ends inside payload or checksum")
    (stated_crc,) = _CRC.unpack_from(buf, crc_at)
    actual_crc = zlib.crc32(memoryview(buf)[offset:crc_at])
    if stated_crc != actual_crc:
        raise CrcMismatch(f"crc {stated_crc:#010x} != computed {actual_crc:#010x}")
    if version != VERSION:
        raise BadVersion(f"version {version}, expected {VERSION}")
    if payload_len > MAX_PAYLOAD:
        raise PayloadTooLarge(f"payload of {payload_len} bytes exceeds 16 MiB")
    try:
        topic = buf[mid_at - topic_len : mid_at].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BadTopic(f"topic is not UTF-8: {exc.reason}") from None
    # tuple.__new__ skips the NamedTuple's Python-level constructor
    env = tuple.__new__(Envelope, (tier, flags, seq, sim_time_us, topic, kind, buf[crc_at - payload_len : crc_at]))
    return env, end


def decode_envelope(buf: bytes) -> Envelope:
    """Decode exactly one frame; the buffer must contain nothing else."""
    env, end = _parse_one(buf, 0)
    if end != len(buf):
        raise Truncated(f"frame length {end} != buffer length {len(buf)}")
    return env


def decode_stream(buf: bytes) -> list[Envelope]:
    """Decode a batch of back-to-back frames, consuming the whole buffer."""
    out: list[Envelope] = []
    offset, size = 0, len(buf)
    while offset < size:
        env, offset = _parse_one(buf, offset)
        out.append(env)
    return out


def with_replay_flag(env: Envelope) -> Envelope:
    tier, flags, seq, sim_time_us, topic, kind, payload = env
    return tuple.__new__(Envelope, (tier, flags | FLAG_REPLAY, seq, sim_time_us, topic, kind, payload))
