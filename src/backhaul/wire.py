"""Datagram formats for the measurement and verification phases.

Every message starts with a one-byte type tag; all integers are
big-endian. Each format is declared once: `LAYOUTS` gives every message
its tag and its fields in wire order, and the one `encode` and the one
`decode` below both walk that table.

Encodings are canonical: each message has exactly one valid byte
string, so every datagram that decode accepts re-encodes to itself.
Each field kind enforces its share of that rule on both sides:
  "H" "I" "Q"  unsigned integer of 2, 4 or 8 bytes, at least `low`
               (a report's rtt_ns is positive)
  32, 64       exactly that many bytes, `bytes()` of a value not bytes
  COMMITMENT   a challenger's signed commitment, in a probe and a dispute: a
               32-byte root, then its 64-byte signature (a `crypto.SignedRoot`)
  BITMAP       (bitmap_bits + 7) // 8 bytes, popcount acked_count,
               bits past bitmap_bits zero
  PACKETS      u32 count, then (u32 seq, 32-byte secret) pairs,
               seq strictly ascending
  SIBLINGS     u16 count, then 32-byte Merkle hashes
  PADDING      zero bytes up to CHALLENGE_PAYLOAD_LEN
and a datagram ends where its last field does.

The prover answers each party with one `ResponsePacket`: its signed
receipt and root and, for a challenger, the bitmap and inclusion path
that check that receipt, so a challenger takes or refuses each answer
whole and keeps nothing while it waits for another datagram.

A challenge packet is a fixed 1472-byte payload, 1514 bytes on the wire
with the 42-byte lower-layer budget: 141 bytes of header, secret and
signed commitment, then q's path and zero padding. A path of up to 41
siblings fits, and N < 2**32 needs 32, so every probe is the full 1514
bytes the measurement counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .crypto import DIGEST_LEN, SIG_LEN, Commitment, SignedRoot

TAG_CHALLENGE = 0x01
TAG_RESPONSE = 0x02
TAG_REPORT = 0x04
TAG_DISPUTE = 0x05
TAG_PING_REQUEST = 0x06
TAG_PING_REPLY = 0x07
TAG_DISPUTE_REQUEST = 0x08

CHALLENGE_PAYLOAD_LEN = 1472
LOWER_LAYER_BUDGET = 42
WIRE_PACKET_LEN = CHALLENGE_PAYLOAD_LEN + LOWER_LAYER_BUDGET  # 1514


class WireError(ValueError):
    """Decode or encode failure; `field` names the offending field."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


class ChallengePacket(NamedTuple):
    """One probe datagram: sequence q of `probes`, its secret, and what
    proves the secret is the challenger's: its signed commitment, one record
    of the `root` and its `signature` (`crypto.commitment_message`), and q's
    path under that root. A challenger's probes share its one lazy
    `crypto.Commitment` and read their paths from its tree; `decode` gives
    a `crypto.SignedRoot` and a tuple.

    A named tuple, because a simulated run builds one per probe: it is
    immutable like the other messages, at a third of a frozen dataclass's
    construction cost.
    """

    challenger_id: int
    sequence: int
    probes: int
    secret: bytes
    commitment: Commitment | SignedRoot
    siblings: tuple[bytes, ...]


@dataclass(frozen=True)
class ResponsePacket:
    """The prover's one answer to a party: its receipt, the root of the
    receipts' tree and its signature over receipt + root, with what lets a
    challenger check the receipt: the bitmap of the probes it covers and its
    inclusion path at `leaf_index`. The verifier's copy has a zero receipt
    and keeps the defaults: id 0, nothing acknowledged and no path."""

    receipt: bytes
    root: bytes
    signature: bytes
    challenger_id: int = 0
    acked_count: int = 0
    bitmap_bits: int = 0
    bitmap: bytes = b""
    leaf_index: int = 0
    siblings: tuple[bytes, ...] = ()


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
    """Prover-revealed packet set for a challenger whose count the verifier
    doubts: its (q, secret) pairs, the challenger's signed commitment (the
    `commitment` of its probes) and a multiproof of the secrets under it
    (`crypto.multiproof`), and the receipt's inclusion path."""

    challenger_id: int
    packets: tuple[tuple[int, bytes], ...]
    commitment: Commitment | SignedRoot
    proof: tuple[bytes, ...]
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


# Field kinds besides a byte length (int); see the module docstring.
_WIDTHS = {"H": 2, "I": 4, "Q": 8}
BITMAP = "bitmap"
COMMITMENT = "commitment"
PACKETS = "packets"
SIBLINGS = "siblings"
PADDING = "padding"
_PACKET_ENTRY = 4 + DIGEST_LEN


class Field(NamedTuple):
    name: str
    kind: str | int
    low: int = 0  # least value of an integer field


_PING = (Field("challenger_id", "I"), Field("nonce", "Q"))

# Every message: (tag, fields in wire order after the tag).
LAYOUTS: dict[type, tuple[int, tuple[Field, ...]]] = {
    ChallengePacket: (TAG_CHALLENGE, (
        Field("challenger_id", "I"),
        Field("sequence", "I"),
        Field("probes", "I", low=1),
        Field("secret", DIGEST_LEN),
        Field("commitment", COMMITMENT),
        Field("siblings", SIBLINGS),
        Field("padding", PADDING),
    )),
    ResponsePacket: (TAG_RESPONSE, (
        Field("challenger_id", "I"),
        Field("acked_count", "I"),
        Field("bitmap_bits", "I"),
        Field("bitmap", BITMAP),
        Field("leaf_index", "I"),
        Field("siblings", SIBLINGS),
        Field("receipt", DIGEST_LEN),
        Field("root", DIGEST_LEN),
        Field("signature", SIG_LEN),
    )),
    ChallengerReport: (TAG_REPORT, (
        Field("challenger_id", "I"),
        Field("prover_id", "I"),
        Field("merkle_root_seen", DIGEST_LEN),
        Field("rtt_ns", "Q", low=1),
        Field("packets_acknowledged", "I"),
    )),
    DisputeSubmission: (TAG_DISPUTE, (
        Field("challenger_id", "I"),
        Field("packets", PACKETS),
        Field("commitment", COMMITMENT),
        Field("proof", SIBLINGS),
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


def _fixed(name: str, value, length: int) -> bytes:
    """value as exactly `length` bytes, `bytes()` of it if it is not bytes."""
    if type(value) is not bytes:
        if isinstance(value, int):  # bytes(n) would be n zero bytes
            raise WireError(name, f"expected {length} bytes, got an int")
        value = bytes(value)
    _check_len(name, value, length)
    return value


def _check_ascending(packets) -> None:
    if any(seq >= after for (seq, _), (after, _) in zip(packets, packets[1:])):
        raise WireError("packets", "sequences not strictly ascending")


def encode(message) -> bytes:
    """Serialize any wire message by type."""
    try:
        tag, fields = LAYOUTS[type(message)]
    except KeyError:
        raise WireError("message", f"unknown message type {type(message).__name__}")
    out = bytearray([tag])
    for name, kind, low in fields:
        if kind == PADDING:
            if len(out) > CHALLENGE_PAYLOAD_LEN:
                raise WireError(name, f"{len(out)} bytes before it, over {CHALLENGE_PAYLOAD_LEN}")
            out += bytes(CHALLENGE_PAYLOAD_LEN - len(out))
            continue
        value = getattr(message, name)
        if kind in _WIDTHS:
            _check_uint(name, value, _WIDTHS[kind], low)
            out += value.to_bytes(_WIDTHS[kind], "big")
        elif kind == BITMAP:
            _check_bitmap(value, message.bitmap_bits, message.acked_count)
            out += value
        elif kind == PACKETS:
            out += len(value).to_bytes(4, "big")
            for seq, secret in value:
                _check_uint(name, seq, 4)
                _check_len(name, secret, DIGEST_LEN)
                out += seq.to_bytes(4, "big") + secret
            _check_ascending(value)
        elif kind == SIBLINGS:
            _check_uint(name, len(value), 2)
            out += len(value).to_bytes(2, "big")
            for sib in value:
                _check_len(name, sib, DIGEST_LEN)
                out += sib
        elif kind == COMMITMENT:
            out += _fixed(name, value.root, DIGEST_LEN) + _fixed(f"{name}_signature", value.signature, SIG_LEN)
        else:
            out += _fixed(name, value, kind)
    return bytes(out)


def decode(data: bytes):
    """Parse a datagram by its leading type tag."""
    if not data:
        raise WireError("tag", "empty datagram")
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
            raw = take(name, int.from_bytes(take(name, 2), "big") * DIGEST_LEN)
            value = tuple(raw[i : i + DIGEST_LEN] for i in range(0, len(raw), DIGEST_LEN))
        elif kind == COMMITMENT:
            value = SignedRoot(take(name, DIGEST_LEN), take(f"{name}_signature", SIG_LEN))
        elif kind == PADDING:
            if off > CHALLENGE_PAYLOAD_LEN or any(take(name, CHALLENGE_PAYLOAD_LEN - off)):
                raise WireError(name, f"must be zero bytes up to {CHALLENGE_PAYLOAD_LEN}")
            continue
        else:
            value = take(name, kind)
        values[name] = value
    if off != len(data):
        raise WireError("payload", f"expected {off} bytes, got {len(data)}")
    return cls(**values)
