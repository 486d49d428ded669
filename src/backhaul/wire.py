"""Datagram formats for the measurement and verification phases.

Every message starts with a one-byte type tag. Encodings are canonical:
for each message there is exactly one valid byte string, so decode
rejects nonzero padding, unsorted dispute entries, and bitmaps whose
popcount disagrees with the acknowledged count. All integers are
big-endian.

Challenge packets keep a fixed 1472-byte payload (64-byte header plus
22 signature slots of 64 bytes); with the 42-byte lower-layer budget
that is 1514 bytes on the wire. A partially filled packet zero-fills
the unused slots, so the payload length never varies with count.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

TAG_CHALLENGE = 0x01
TAG_RESPONSE = 0x02
TAG_VERIFICATION = 0x03
TAG_REPORT = 0x04
TAG_DISPUTE = 0x05
TAG_PING_REQUEST = 0x06
TAG_PING_REPLY = 0x07

SIG_SLOTS = 22
SIG_LEN = 64
HEADER_LEN = 64
CHALLENGE_PAYLOAD_LEN = HEADER_LEN + SIG_SLOTS * SIG_LEN  # 1472
LOWER_LAYER_BUDGET = 42
WIRE_PACKET_LEN = CHALLENGE_PAYLOAD_LEN + LOWER_LAYER_BUDGET  # 1514
RESPONSE_PAYLOAD_LEN = 128

_HEADER_FMT = ">BIIH8s"
_HEADER_FIXED = struct.calcsize(_HEADER_FMT)  # 19
_HEADER_PAD = HEADER_LEN - _HEADER_FIXED  # 45


class WireError(ValueError):
    """Decode or encode failure; `field` names the offending field."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


@dataclass(frozen=True)
class ChallengePacket:
    """One probe datagram carrying up to 22 consecutive signatures."""

    challenger_id: int
    base_seq: int
    count: int
    nonce: bytes
    signatures: tuple[bytes, ...]

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


def _check_bitmap(bitmap: bytes, bits: int, acked: int) -> None:
    """A bitmap of (bits + 7) // 8 bytes: popcount is acked, the tail is zero."""
    value = int.from_bytes(bitmap, "big")
    pop = value.bit_count()
    if pop != acked:
        raise WireError("acked_count", f"bitmap popcount {pop} != acked_count {acked}")
    if value & ((1 << (8 * len(bitmap) - bits)) - 1):
        raise WireError("bitmap", "bits beyond bitmap_bits must be zero")


def _check_u32(name: str, value: int) -> None:
    if not 0 <= value < 2**32:
        raise WireError(name, f"{value} out of u32 range")


def _check_digest(name: str, value: bytes) -> None:
    if len(value) != 32:
        raise WireError(name, f"expected 32 bytes, got {len(value)}")


def encode_challenge(pkt: ChallengePacket) -> bytes:
    _check_u32("challenger_id", pkt.challenger_id)
    _check_u32("base_seq", pkt.base_seq)
    if not 1 <= pkt.count <= SIG_SLOTS:
        raise WireError("count", f"{pkt.count} outside 1..{SIG_SLOTS}")
    if len(pkt.nonce) != 8:
        raise WireError("nonce", f"expected 8 bytes, got {len(pkt.nonce)}")
    if len(pkt.signatures) != pkt.count:
        raise WireError("signatures", f"expected {pkt.count} entries, got {len(pkt.signatures)}")
    out = bytearray(CHALLENGE_PAYLOAD_LEN)
    struct.pack_into(
        _HEADER_FMT, out, 0, TAG_CHALLENGE, pkt.challenger_id, pkt.base_seq, pkt.count, pkt.nonce
    )
    for j, sig in enumerate(pkt.signatures):
        if len(sig) != SIG_LEN:
            raise WireError("signatures", f"slot {j} expected {SIG_LEN} bytes, got {len(sig)}")
        start = HEADER_LEN + j * SIG_LEN
        out[start : start + SIG_LEN] = sig
    return bytes(out)


def _decode_challenge(data: bytes) -> ChallengePacket:
    if len(data) != CHALLENGE_PAYLOAD_LEN:
        raise WireError("payload", f"expected {CHALLENGE_PAYLOAD_LEN} bytes, got {len(data)}")
    _, challenger_id, base_seq, count, nonce = struct.unpack_from(_HEADER_FMT, data, 0)
    if not 1 <= count <= SIG_SLOTS:
        raise WireError("count", f"{count} outside 1..{SIG_SLOTS}")
    if any(data[_HEADER_FIXED:HEADER_LEN]):
        raise WireError("header_padding", "nonzero bytes")
    sigs = []
    for j in range(SIG_SLOTS):
        start = HEADER_LEN + j * SIG_LEN
        chunk = data[start : start + SIG_LEN]
        if j < count:
            sigs.append(chunk)
        elif any(chunk):
            raise WireError("signatures", f"unused slot {j} not zero-filled")
    return ChallengePacket(
        challenger_id=challenger_id,
        base_seq=base_seq,
        count=count,
        nonce=nonce,
        signatures=tuple(sigs),
    )


def encode_response(pkt: ResponsePacket) -> bytes:
    _check_digest("receipt", pkt.receipt)
    _check_digest("root", pkt.root)
    if len(pkt.signature) != SIG_LEN:
        raise WireError("signature", f"expected {SIG_LEN} bytes, got {len(pkt.signature)}")
    return bytes([TAG_RESPONSE]) + pkt.receipt + pkt.root + pkt.signature


def _decode_response(data: bytes) -> ResponsePacket:
    if len(data) != 1 + RESPONSE_PAYLOAD_LEN:
        raise WireError("payload", f"expected {1 + RESPONSE_PAYLOAD_LEN} bytes, got {len(data)}")
    return ResponsePacket(receipt=data[1:33], root=data[33:65], signature=data[65:129])


def encode_verification(msg: VerificationMessage) -> bytes:
    _check_u32("challenger_id", msg.challenger_id)
    _check_u32("acked_count", msg.acked_count)
    _check_u32("bitmap_bits", msg.bitmap_bits)
    _check_u32("leaf_index", msg.leaf_index)
    nbytes = (msg.bitmap_bits + 7) // 8
    if len(msg.bitmap) != nbytes:
        raise WireError("bitmap", f"expected {nbytes} bytes for {msg.bitmap_bits} bits, got {len(msg.bitmap)}")
    _check_bitmap(msg.bitmap, msg.bitmap_bits, msg.acked_count)
    out = struct.pack(">BIII", TAG_VERIFICATION, msg.challenger_id, msg.acked_count, msg.bitmap_bits)
    out += msg.bitmap
    out += struct.pack(">IH", msg.leaf_index, len(msg.siblings))
    for i, sib in enumerate(msg.siblings):
        if len(sib) != 32:
            raise WireError("siblings", f"entry {i} expected 32 bytes, got {len(sib)}")
        out += sib
    return out


def _decode_verification(data: bytes) -> VerificationMessage:
    fixed = struct.calcsize(">BIII")
    if len(data) < fixed:
        raise WireError("payload", "truncated before bitmap")
    _, challenger_id, acked, bits = struct.unpack_from(">BIII", data, 0)
    nbytes = (bits + 7) // 8
    off = fixed + nbytes
    if len(data) < off + 6:
        raise WireError("bitmap", "truncated bitmap or proof header")
    bitmap = data[fixed:off]
    _check_bitmap(bitmap, bits, acked)
    leaf_index, nsib = struct.unpack_from(">IH", data, off)
    off += 6
    if len(data) != off + 32 * nsib:
        raise WireError("siblings", f"expected {32 * nsib} bytes of siblings, got {len(data) - off}")
    siblings = tuple(data[off + 32 * i : off + 32 * (i + 1)] for i in range(nsib))
    return VerificationMessage(
        challenger_id=challenger_id,
        acked_count=acked,
        bitmap_bits=bits,
        bitmap=bitmap,
        leaf_index=leaf_index,
        siblings=siblings,
    )


_REPORT_FMT = ">BII32sQI"
REPORT_LEN = struct.calcsize(_REPORT_FMT)  # 53


def encode_report(rep: ChallengerReport) -> bytes:
    _check_u32("challenger_id", rep.challenger_id)
    _check_u32("prover_id", rep.prover_id)
    _check_digest("merkle_root_seen", rep.merkle_root_seen)
    if not 0 < rep.rtt_ns < 2**64:
        raise WireError("rtt_ns", f"{rep.rtt_ns} must be positive u64")
    _check_u32("packets_acknowledged", rep.packets_acknowledged)
    return struct.pack(
        _REPORT_FMT,
        TAG_REPORT,
        rep.challenger_id,
        rep.prover_id,
        rep.merkle_root_seen,
        rep.rtt_ns,
        rep.packets_acknowledged,
    )


def _decode_report(data: bytes) -> ChallengerReport:
    if len(data) != REPORT_LEN:
        raise WireError("payload", f"expected {REPORT_LEN} bytes, got {len(data)}")
    _, cid, pid, root, rtt, acked = struct.unpack(_REPORT_FMT, data)
    if rtt == 0:
        raise WireError("rtt_ns", "must be positive")
    return ChallengerReport(
        challenger_id=cid,
        prover_id=pid,
        merkle_root_seen=root,
        rtt_ns=rtt,
        packets_acknowledged=acked,
    )


def encode_dispute(sub: DisputeSubmission) -> bytes:
    _check_u32("challenger_id", sub.challenger_id)
    _check_u32("leaf_index", sub.leaf_index)
    out = struct.pack(">BII", TAG_DISPUTE, sub.challenger_id, len(sub.packets))
    prev = -1
    for seq, sig in sub.packets:
        _check_u32("packets", seq)
        if seq <= prev:
            raise WireError("packets", f"sequence {seq} not strictly ascending")
        if len(sig) != SIG_LEN:
            raise WireError("packets", f"signature for {seq} expected {SIG_LEN} bytes, got {len(sig)}")
        prev = seq
        out += struct.pack(">I", seq) + sig
    out += struct.pack(">IH", sub.leaf_index, len(sub.siblings))
    for i, sib in enumerate(sub.siblings):
        if len(sib) != 32:
            raise WireError("siblings", f"entry {i} expected 32 bytes, got {len(sib)}")
        out += sib
    return out


def _decode_dispute(data: bytes) -> DisputeSubmission:
    fixed = struct.calcsize(">BII")
    if len(data) < fixed:
        raise WireError("payload", "truncated header")
    _, cid, npkt = struct.unpack_from(">BII", data, 0)
    off = fixed
    entry = 4 + SIG_LEN
    if len(data) < off + npkt * entry + 6:
        raise WireError("packets", "truncated packet entries")
    packets = []
    prev = -1
    for _i in range(npkt):
        (seq,) = struct.unpack_from(">I", data, off)
        if seq <= prev:
            raise WireError("packets", f"sequence {seq} not strictly ascending")
        prev = seq
        packets.append((seq, data[off + 4 : off + entry]))
        off += entry
    leaf_index, nsib = struct.unpack_from(">IH", data, off)
    off += 6
    if len(data) != off + 32 * nsib:
        raise WireError("siblings", f"expected {32 * nsib} bytes of siblings, got {len(data) - off}")
    siblings = tuple(data[off + 32 * i : off + 32 * (i + 1)] for i in range(nsib))
    return DisputeSubmission(
        challenger_id=cid, packets=tuple(packets), leaf_index=leaf_index, siblings=siblings
    )


_PING_FMT = ">BIQ"
PING_LEN = struct.calcsize(_PING_FMT)  # 13


def encode_ping_request(msg: PingRequest) -> bytes:
    _check_u32("challenger_id", msg.challenger_id)
    if not 0 <= msg.nonce < 2**64:
        raise WireError("nonce", f"{msg.nonce} out of u64 range")
    return struct.pack(_PING_FMT, TAG_PING_REQUEST, msg.challenger_id, msg.nonce)


def encode_ping_reply(msg: PingReply) -> bytes:
    _check_u32("challenger_id", msg.challenger_id)
    if not 0 <= msg.nonce < 2**64:
        raise WireError("nonce", f"{msg.nonce} out of u64 range")
    return struct.pack(_PING_FMT, TAG_PING_REPLY, msg.challenger_id, msg.nonce)


def _decode_ping(data: bytes, cls):
    if len(data) != PING_LEN:
        raise WireError("payload", f"expected {PING_LEN} bytes, got {len(data)}")
    _, cid, nonce = struct.unpack(_PING_FMT, data)
    return cls(challenger_id=cid, nonce=nonce)


_ENCODERS = {
    ChallengePacket: encode_challenge,
    ResponsePacket: encode_response,
    VerificationMessage: encode_verification,
    ChallengerReport: encode_report,
    DisputeSubmission: encode_dispute,
    PingRequest: encode_ping_request,
    PingReply: encode_ping_reply,
}


def encode(message) -> bytes:
    """Serialize any wire message by type."""
    try:
        enc = _ENCODERS[type(message)]
    except KeyError:
        raise WireError("message", f"unknown message type {type(message).__name__}")
    return enc(message)


def decode(data: bytes):
    """Parse a datagram by its leading type tag."""
    if not data:
        raise WireError("tag", "empty datagram")
    tag = data[0]
    if tag == TAG_CHALLENGE:
        return _decode_challenge(data)
    if tag == TAG_RESPONSE:
        return _decode_response(data)
    if tag == TAG_VERIFICATION:
        return _decode_verification(data)
    if tag == TAG_REPORT:
        return _decode_report(data)
    if tag == TAG_DISPUTE:
        return _decode_dispute(data)
    if tag == TAG_PING_REQUEST:
        return _decode_ping(data, PingRequest)
    if tag == TAG_PING_REPLY:
        return _decode_ping(data, PingReply)
    raise WireError("tag", f"unknown message tag 0x{tag:02x}")
