"""Datagram formats for the measurement and verification phases.

Every message starts with a one-byte type tag; all integers are
big-endian. Each format is declared once: `LAYOUTS` gives every message
but the challenge packet its tag and its fields in wire order, and the
one `encode` and the one `decode` below both walk that table.

Encodings are canonical: each message has exactly one valid byte
string, so every datagram that decode accepts re-encodes to itself.
Each field kind enforces its share of that rule on both sides:
  "H" "I" "Q"  unsigned integer of 2, 4 or 8 bytes, at least `low`
               (a report's rtt_ns is positive)
  32, 64       exactly that many bytes
  BITMAP       (bitmap_bits + 7) // 8 bytes, popcount acked_count,
               bits past bitmap_bits zero
  PACKETS      u32 count, then (u32 seq, 64-byte signature) pairs,
               seq strictly ascending
  SIBLINGS     u16 count, then 32-byte Merkle siblings
and a datagram ends where its last field does.

Challenge packets have their own pair, `_encode_challenge` and
`_decode_challenge`: a fixed 1472-byte payload (64-byte header, zero
padded, plus 22 signature slots of 64 bytes), 1514 bytes on the wire
with the 42-byte lower-layer budget. A partially filled packet
zero-fills the unused slots, so the payload length never varies.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

TAG_CHALLENGE = 0x01
TAG_RESPONSE = 0x02
TAG_VERIFICATION = 0x03
TAG_REPORT = 0x04
TAG_DISPUTE = 0x05
TAG_PING_REQUEST = 0x06
TAG_PING_REPLY = 0x07
TAG_DISPUTE_REQUEST = 0x08

SIG_SLOTS = 22
SIG_LEN = 64
HEADER_LEN = 64
CHALLENGE_PAYLOAD_LEN = HEADER_LEN + SIG_SLOTS * SIG_LEN  # 1472
LOWER_LAYER_BUDGET = 42
WIRE_PACKET_LEN = CHALLENGE_PAYLOAD_LEN + LOWER_LAYER_BUDGET  # 1514

_HEADER_FMT = ">BIIH8s"
_HEADER_FIXED = struct.calcsize(_HEADER_FMT)  # 19, then zero padding to HEADER_LEN


class WireError(ValueError):
    """Decode or encode failure; `field` names the offending field."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


class ChallengePacket(NamedTuple):
    """One probe datagram carrying up to 22 consecutive signatures.

    A decoded packet holds a plain tuple; a challenger's own packets hold
    a sequence that signs each probe on first read (`roles.Challenger`).
    A named tuple, because a simulated run builds one per probe: it is
    immutable and hashable like the other messages, at a third of a
    frozen dataclass's construction cost.
    """

    challenger_id: int
    base_seq: int
    count: int
    nonce: bytes
    signatures: Sequence[bytes]

    def sequences(self) -> range:
        return range(self.base_seq, self.base_seq + self.count)


@dataclass(frozen=True)
class ResponsePacket:
    """Prover receipt: per-challenger digest, tree root, prover signature."""

    receipt: bytes
    root: bytes
    signature: bytes


@dataclass(frozen=True)
class VerificationMessage:
    """Prover-to-challenger acknowledgment bitmap plus Merkle path."""

    challenger_id: int
    acked_count: int
    bitmap_bits: int
    bitmap: bytes
    leaf_index: int
    siblings: tuple[bytes, ...]


@dataclass(frozen=True)
class ChallengerReport:
    """Challenger-to-verifier measurement summary."""

    challenger_id: int
    prover_id: int
    merkle_root_seen: bytes
    rtt_ns: int
    packets_acknowledged: int


@dataclass(frozen=True)
class DisputeSubmission:
    """Prover-revealed packet set for a challenger that did not report."""

    challenger_id: int
    packets: tuple[tuple[int, bytes], ...]
    leaf_index: int
    siblings: tuple[bytes, ...]


@dataclass(frozen=True)
class DisputeRequest:
    """Verifier-to-prover request for one challenger's dispute."""

    challenger_id: int


@dataclass(frozen=True)
class PingRequest:
    challenger_id: int
    nonce: int


@dataclass(frozen=True)
class PingReply:
    challenger_id: int
    nonce: int


def bitmap_from_sequences(sequences, bits: int) -> bytes:
    """Bitmap over 1-based sequence numbers; bit q-1 set, MSB-first per byte."""
    digits = bytearray(b"0" * bits)  # digit q-1 of a base-2 numeral
    for q in sequences:
        if not 1 <= q <= bits:
            raise WireError("bitmap", f"sequence {q} outside 1..{bits}")
        digits[q - 1] = 0x31  # "1"
    nbytes = (bits + 7) // 8
    value = int(digits, 2) if bits else 0
    return (value << (8 * nbytes - bits)).to_bytes(nbytes, "big")


def sequences_from_bitmap(bitmap: bytes, bits: int) -> list[int]:
    """Inverse of bitmap_from_sequences; bits past `bits` are ignored."""
    nbytes = (bits + 7) // 8
    if len(bitmap) < nbytes:
        raise WireError("bitmap", f"expected {nbytes} bytes for {bits} bits, got {len(bitmap)}")
    value = int.from_bytes(bitmap[:nbytes], "big") >> (8 * nbytes - bits)
    # digit q-1 of the bits-wide base-2 numeral is sequence q
    return [q for q, digit in enumerate(format(value, f"0{bits}b"), 1) if digit == "1"]


# Field kinds besides a fixed byte length (an int); see the module docstring.
_WIDTHS = {"H": 2, "I": 4, "Q": 8}
BITMAP = "bitmap"
PACKETS = "packets"
SIBLINGS = "siblings"
_PACKET_ENTRY = 4 + SIG_LEN


class Field(NamedTuple):
    name: str
    kind: str | int
    low: int = 0  # least value of an integer field


_PING = (Field("challenger_id", "I"), Field("nonce", "Q"))

# Every message but ChallengePacket: (tag, fields in wire order after the tag).
LAYOUTS: dict[type, tuple[int, tuple[Field, ...]]] = {
    ResponsePacket: (TAG_RESPONSE, (Field("receipt", 32), Field("root", 32), Field("signature", SIG_LEN))),
    VerificationMessage: (TAG_VERIFICATION, (
        Field("challenger_id", "I"),
        Field("acked_count", "I"),
        Field("bitmap_bits", "I"),
        Field("bitmap", BITMAP),
        Field("leaf_index", "I"),
        Field("siblings", SIBLINGS),
    )),
    ChallengerReport: (TAG_REPORT, (
        Field("challenger_id", "I"),
        Field("prover_id", "I"),
        Field("merkle_root_seen", 32),
        Field("rtt_ns", "Q", low=1),
        Field("packets_acknowledged", "I"),
    )),
    DisputeSubmission: (TAG_DISPUTE, (
        Field("challenger_id", "I"),
        Field("packets", PACKETS),
        Field("leaf_index", "I"),
        Field("siblings", SIBLINGS),
    )),
    DisputeRequest: (TAG_DISPUTE_REQUEST, (Field("challenger_id", "I"),)),
    PingRequest: (TAG_PING_REQUEST, _PING),
    PingReply: (TAG_PING_REPLY, _PING),
}
_BY_TAG = {tag: (cls, fields) for cls, (tag, fields) in LAYOUTS.items()}


def _check_uint(name: str, value: int, width: int, low: int = 0) -> None:
    if not low <= value < 1 << (8 * width):
        raise WireError(name, f"{value} outside {low}..2**{8 * width}-1")


def _check_len(name: str, value: bytes, length: int) -> None:
    if len(value) != length:
        raise WireError(name, f"expected {length} bytes, got {len(value)}")


def _check_bitmap(bitmap: bytes, bits: int, acked: int) -> None:
    """(bits + 7) // 8 bytes whose popcount is acked and whose tail is zero."""
    _check_len("bitmap", bitmap, (bits + 7) // 8)
    value = int.from_bytes(bitmap, "big")
    pop = value.bit_count()
    if pop != acked:
        raise WireError("acked_count", f"bitmap popcount {pop} != acked_count {acked}")
    if value & ((1 << (8 * len(bitmap) - bits)) - 1):
        raise WireError("bitmap", "bits beyond bitmap_bits must be zero")


def _check_ascending(packets) -> None:
    if any(seq >= after for (seq, _), (after, _) in zip(packets, packets[1:])):
        raise WireError("packets", "sequences not strictly ascending")


def _encode_challenge(pkt: ChallengePacket) -> bytes:
    _check_uint("challenger_id", pkt.challenger_id, 4)
    _check_uint("base_seq", pkt.base_seq, 4)
    if not 1 <= pkt.count <= SIG_SLOTS:
        raise WireError("count", f"{pkt.count} outside 1..{SIG_SLOTS}")
    _check_len("nonce", pkt.nonce, 8)
    if len(pkt.signatures) != pkt.count:
        raise WireError("signatures", f"expected {pkt.count} entries, got {len(pkt.signatures)}")
    out = bytearray(CHALLENGE_PAYLOAD_LEN)
    struct.pack_into(_HEADER_FMT, out, 0, TAG_CHALLENGE, pkt.challenger_id, pkt.base_seq, pkt.count, pkt.nonce)
    for j, sig in enumerate(pkt.signatures):
        if len(sig) != SIG_LEN:
            raise WireError("signatures", f"slot {j} expected {SIG_LEN} bytes, got {len(sig)}")
        out[HEADER_LEN + j * SIG_LEN : HEADER_LEN + (j + 1) * SIG_LEN] = sig
    return bytes(out)


def _decode_challenge(data: bytes) -> ChallengePacket:
    if len(data) != CHALLENGE_PAYLOAD_LEN:
        raise WireError("payload", f"expected {CHALLENGE_PAYLOAD_LEN} bytes, got {len(data)}")
    _, challenger_id, base_seq, count, nonce = struct.unpack_from(_HEADER_FMT, data, 0)
    if not 1 <= count <= SIG_SLOTS:
        raise WireError("count", f"{count} outside 1..{SIG_SLOTS}")
    if any(data[_HEADER_FIXED:HEADER_LEN]):
        raise WireError("header_padding", "nonzero bytes")
    end = HEADER_LEN + count * SIG_LEN
    if any(data[end:]):
        raise WireError("signatures", f"slots past {count} not zero-filled")
    sigs = tuple(data[start : start + SIG_LEN] for start in range(HEADER_LEN, end, SIG_LEN))
    return ChallengePacket(challenger_id, base_seq, count, nonce, sigs)


def encode(message) -> bytes:
    """Serialize any wire message by type."""
    if type(message) is ChallengePacket:
        return _encode_challenge(message)
    try:
        tag, fields = LAYOUTS[type(message)]
    except KeyError:
        raise WireError("message", f"unknown message type {type(message).__name__}")
    out = bytearray([tag])
    for name, kind, low in fields:
        value = getattr(message, name)
        if kind in _WIDTHS:
            _check_uint(name, value, _WIDTHS[kind], low)
            out += value.to_bytes(_WIDTHS[kind], "big")
        elif kind == BITMAP:
            _check_bitmap(value, message.bitmap_bits, message.acked_count)
            out += value
        elif kind == PACKETS:
            out += len(value).to_bytes(4, "big")
            for seq, sig in value:
                _check_uint(name, seq, 4)
                _check_len(name, sig, SIG_LEN)
                out += seq.to_bytes(4, "big") + sig
            _check_ascending(value)
        elif kind == SIBLINGS:
            _check_uint(name, len(value), 2)
            out += len(value).to_bytes(2, "big")
            for sib in value:
                _check_len(name, sib, 32)
                out += sib
        else:
            _check_len(name, value, kind)
            out += value
    return bytes(out)


def decode(data: bytes):
    """Parse a datagram by its leading type tag."""
    if not data:
        raise WireError("tag", "empty datagram")
    if data[0] == TAG_CHALLENGE:
        return _decode_challenge(data)
    try:
        cls, fields = _BY_TAG[data[0]]
    except KeyError:
        raise WireError("tag", f"unknown message tag 0x{data[0]:02x}")
    off = 1

    def take(name: str, length: int) -> bytes:
        nonlocal off
        if len(data) < off + length:
            raise WireError(name, f"needs {length} bytes at offset {off}, datagram has {len(data)}")
        off += length
        return data[off - length : off]

    values = {}
    for name, kind, low in fields:
        if kind in _WIDTHS:
            value = int.from_bytes(take(name, _WIDTHS[kind]), "big")
            _check_uint(name, value, _WIDTHS[kind], low)
        elif kind == BITMAP:
            value = take(name, (values["bitmap_bits"] + 7) // 8)
            _check_bitmap(value, values["bitmap_bits"], values["acked_count"])
        elif kind == PACKETS:
            raw = take(name, int.from_bytes(take(name, 4), "big") * _PACKET_ENTRY)
            value = tuple(
                (int.from_bytes(raw[i : i + 4], "big"), raw[i + 4 : i + _PACKET_ENTRY])
                for i in range(0, len(raw), _PACKET_ENTRY)
            )
            _check_ascending(value)
        elif kind == SIBLINGS:
            raw = take(name, int.from_bytes(take(name, 2), "big") * 32)
            value = tuple(raw[i : i + 32] for i in range(0, len(raw), 32))
        else:
            value = take(name, kind)
        values[name] = value
    if off != len(data):
        raise WireError("payload", f"expected {off} bytes, got {len(data)}")
    return cls(**values)
