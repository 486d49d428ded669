import dataclasses
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backhaul import wire
from backhaul.crypto import Commitment, SignedRoot, commitment_message, keygen, verify
from backhaul.roles import Challenger, Session
from backhaul.schedule import ChallengeParams, RatePolicy
from test_schedule import params_of


def make_challenge(challenger_id=7, sequence=45, siblings=(b"\x0b" * 32,) * 6, signature=b"\x01" * 64):
    return wire.ChallengePacket(
        challenger_id=challenger_id,
        sequence=sequence,
        secret=b"\x0c" * 32,
        commitment=SignedRoot(b"\x0d" * 32, signature),
        siblings=siblings,
    )


def test_challenge_payload_always_1472_bytes():
    for depth in (0, 1, 10, 32, 41):
        data = wire.encode(make_challenge(siblings=(b"\x0b" * 32,) * depth))
        assert len(data) == 1472
        assert len(data) + wire.LOWER_LAYER_BUDGET == 1514 == wire.WIRE_PACKET_LEN
    with pytest.raises(wire.WireError) as info:
        wire.encode(make_challenge(siblings=(b"\x0b" * 32,) * 42))
    assert info.value.field == "padding"


def test_challenge_layout_hand_built():
    # Independent byte-level construction of the same packet.
    pkt = make_challenge(challenger_id=3, sequence=100, siblings=(b"\x0e" * 32, b"\x0f" * 32))
    expected = bytearray(1472)
    expected[0] = 0x01
    expected[1:5] = struct.pack(">I", 3)
    expected[5:9] = struct.pack(">I", 100)
    expected[9:41] = b"\x0c" * 32  # the secret
    expected[41:73] = b"\x0d" * 32  # the commitment
    expected[73:137] = b"\x01" * 64  # its signature
    expected[137:139] = struct.pack(">H", 2)
    expected[139:203] = b"\x0e" * 32 + b"\x0f" * 32
    assert wire.encode(pkt) == bytes(expected)


def test_a_challengers_probe_carries_its_signed_commitment_and_path():
    params = params_of(2e6, 3, 0, 200_000_000, m0=b"\x05" * 32)
    key = keygen(b"\x09" * 32)
    session = Session(params, keygen(b"\x0a" * 32).public_key, dict.fromkeys((1, 2, 3), key.public_key), deadline_ns=0)
    me = Challenger(session, 2, key, params.t0_ns, 0)
    _, pkt = me.build_sends()[4]
    data = wire.encode(pkt)
    assert len(data) == 1472
    limit = params.signatures_per_challenger
    assert (pkt.challenger_id, pkt.sequence) == (2, 5)
    assert len(pkt.siblings) == (limit - 1).bit_length()
    assert not any(data[139 + 32 * len(pkt.siblings) :])  # the padding is zero
    signed = pkt.commitment
    assert verify(key.public_key, commitment_message(params.m0, 2, limit, signed.root), signed.signature)
    assert wire.decode(data) == pkt._replace(commitment=SignedRoot(signed.root, signed.signature), siblings=tuple(pkt.siblings))


def test_challenge_rejects_noncanonical_padding():
    for i in (139 + 6 * 32, 1000, 1471):
        data = bytearray(wire.encode(make_challenge()))
        data[i] = 1
        with pytest.raises(wire.WireError, match="padding"):
            wire.decode(bytes(data))


def test_challenge_rejects_truncation():
    data = wire.encode(make_challenge())
    # a short probe errs on the field the cut lands in, as every message does
    with pytest.raises(wire.WireError, match="padding: needs 1141 bytes"):
        wire.decode(data[:-1])
    with pytest.raises(wire.WireError, match="commitment_signature: needs 64 bytes"):
        wire.decode(data[:100])
    with pytest.raises(wire.WireError, match="payload"):
        wire.decode(data + b"\x00")


def test_challenge_whose_path_runs_past_1472_bytes_is_refused():
    data = bytearray(wire.encode(make_challenge(siblings=())))
    struct.pack_into(">H", data, 137, 42)  # 42 siblings: 1 483 bytes before the padding
    data += bytes(139 + 42 * 32 - len(data))
    with pytest.raises(wire.WireError) as info:
        wire.decode(bytes(data))
    assert info.value.field == "padding"


def test_every_message_has_one_layout():
    messages = {
        obj for obj in vars(wire).values()
        if isinstance(obj, type) and obj.__module__ == wire.__name__ and obj not in (wire.WireError, wire.Field)
    }
    assert wire.ChallengePacket in messages and messages == set(wire.LAYOUTS)
    tag, fields = wire.LAYOUTS[wire.ChallengePacket]
    assert tag == wire.TAG_CHALLENGE
    assert [name for name, _, _ in fields] == list(wire.ChallengePacket._fields) + ["padding"]


def test_challenge_encode_refuses_a_bad_signature():
    for bad in (64, 0, b"\x01" * 63):
        with pytest.raises(wire.WireError) as info:
            wire.encode(make_challenge(signature=bad))
        assert info.value.field == "commitment_signature"


def test_full_transmission_slot_arithmetic():
    # ceil(1.1k) probes, every one a full-size packet
    for k in range(1, 2000, 13):
        # k * b * 8 ns at 1 Gbit/s is k probes' worth
        p = ChallengeParams(1e9, 1, 0, k * wire.WIRE_PACKET_LEN * 8, RatePolicy.PER_N, 1.1, False, 0, bytes(32))
        assert p.k == k
        sigs = -(-k * 11 // 10)
        assert p.signatures_per_challenger == sigs
        assert p.n * p.signatures_per_challenger * p.b == sigs * wire.WIRE_PACKET_LEN


def test_response_all_zero_payload_after_tag():
    # the verifier's form: an empty bitmap and no path
    pkt = wire.ResponsePacket(receipt=bytes(32), root=bytes(32), signature=bytes(64))
    data = wire.encode(pkt)
    assert len(data) == 135
    assert data[0] == 0x02
    assert data[1:] == bytes(134)
    assert wire.decode(data) == pkt


def test_response_round_trip():
    for pkt in (
        wire.ResponsePacket(receipt=b"\x01" * 32, root=b"\x02" * 32, signature=b"\x03" * 64),
        make_verification(),
    ):
        assert wire.decode(wire.encode(pkt)) == pkt


def test_bitmap_helpers_msb_first():
    bm = wire.bitmap_from_sequences([1, 8, 9], bits=16)
    assert bm == bytes([0b10000001, 0b10000000])
    assert wire.sequences_from_bitmap(bm, 16) == [1, 8, 9]
    with pytest.raises(wire.WireError):
        wire.bitmap_from_sequences([17], bits=16)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_bitmap_helpers_match_bit_loop(data):
    """The int-based helpers agree with a plain loop over every bit."""
    bits = data.draw(st.integers(min_value=0, max_value=300))
    nbytes = (bits + 7) // 8
    seqs = data.draw(st.lists(st.integers(min_value=1, max_value=max(bits, 1)), max_size=bits))
    want = bytearray(nbytes)
    for q in seqs:
        want[(q - 1) // 8] |= 0x80 >> ((q - 1) % 8)
    assert wire.bitmap_from_sequences(seqs, bits) == bytes(want)
    raw = data.draw(st.binary(min_size=nbytes, max_size=nbytes))  # tail bits may be set
    expect = [i + 1 for i in range(bits) if raw[i // 8] & (0x80 >> (i % 8))]
    assert wire.sequences_from_bitmap(raw, bits) == expect


def make_verification(acked=(1, 3, 10), bits=12):
    """A challenger's response: its receipt and the signed root, with the
    bitmap and path that check the receipt."""
    bm = wire.bitmap_from_sequences(acked, bits)
    return wire.ResponsePacket(
        receipt=b"\x01" * 32,
        root=b"\x02" * 32,
        signature=b"\x03" * 64,
        bitmap_bits=bits,
        bitmap=bm,
        siblings=(b"\x05" * 32, b"\x06" * 32),
    )


def test_verification_round_trip():
    for msg in (make_verification(), make_verification(acked=(), bits=0)):
        assert wire.decode(wire.encode(msg)) == msg


def test_verification_rejects_trailing_bitmap_bits():
    bm = bytearray(wire.bitmap_from_sequences([1], 12))
    bm[1] |= 0x01  # bit 16, beyond bitmap_bits=12
    msg = dataclasses.replace(make_verification(), bitmap=bytes(bm))
    with pytest.raises(wire.WireError, match="bitmap"):
        wire.encode(msg)


def test_report_layout_and_round_trip():
    rep = wire.ChallengerReport(
        challenger_id=2,
        merkle_root_seen=b"\x09" * 32,
        rtt_ns=99_802_880,
        packets_acknowledged=206,
    )
    data = wire.encode(rep)
    assert len(data) == 49
    assert data[0] == 0x04
    assert wire.decode(data) == rep


def test_report_rejects_nonpositive_rtt():
    rep = wire.ChallengerReport(
        challenger_id=2, merkle_root_seen=bytes(32), rtt_ns=0, packets_acknowledged=1
    )
    with pytest.raises(wire.WireError, match="rtt_ns"):
        wire.encode(rep)


def test_dispute_round_trip_and_ordering():
    sub = wire.DisputeSubmission(
        challenger_id=5,
        packets=((1, b"\x01" * 32), (2, b"\x02" * 32), (7, b"\x03" * 32)),
        commitment=SignedRoot(b"\x0d" * 32, b"\x0e" * 64),
        proof=(b"\x0f" * 32,) * 3,
        siblings=(b"\x0a" * 32,),
    )
    assert wire.decode(wire.encode(sub)) == sub
    bad = dataclasses.replace(sub, packets=((2, b"\x01" * 32), (1, b"\x02" * 32)))
    with pytest.raises(wire.WireError, match="packets"):
        wire.encode(bad)
    # the record's two parts keep their names in errors
    for part, bad in (
        ("commitment", SignedRoot(b"\x0d" * 31, b"\x0e" * 64)),
        ("commitment_signature", SignedRoot(b"\x0d" * 32, b"\x0e" * 63)),
    ):
        with pytest.raises(wire.WireError) as info:
            wire.encode(dataclasses.replace(sub, commitment=bad))
        assert info.value.field == part
    data = wire.encode(sub)
    with pytest.raises(wire.WireError, match="commitment_signature: needs 64 bytes"):
        wire.decode(data[: data.index(b"\x0e" * 64) + 63])


def test_dispute_empty_packets_round_trip():
    sub = wire.DisputeSubmission(9, (), SignedRoot(bytes(32), bytes(64)), (), ())
    assert wire.decode(wire.encode(sub)) == sub


def test_ping_round_trip():
    req = wire.PingRequest(challenger_id=3, nonce=0xDEADBEEF)
    rep = wire.PingReply(challenger_id=3, nonce=0xDEADBEEF)
    assert wire.decode(wire.encode(req)) == req
    assert wire.decode(wire.encode(rep)) == rep
    assert wire.encode(req)[0] == 0x06
    assert wire.encode(rep)[0] == 0x07


def test_unknown_tag_and_empty():
    with pytest.raises(wire.WireError, match="tag"):
        wire.decode(b"\xff" + bytes(52))
    with pytest.raises(wire.WireError, match="tag"):
        wire.decode(b"")


def test_tags_are_distinct():
    tags = [
        wire.TAG_CHALLENGE,
        wire.TAG_RESPONSE,
        wire.TAG_REPORT,
        wire.TAG_DISPUTE,
        wire.TAG_PING_REQUEST,
        wire.TAG_PING_REPLY,
    ]
    assert len(set(tags)) == len(tags)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_challenge_round_trip_property(data):
    pkt = wire.ChallengePacket(
        challenger_id=data.draw(st.integers(min_value=0, max_value=2**32 - 1)),
        sequence=data.draw(st.integers(min_value=0, max_value=2**32 - 1)),
        secret=data.draw(st.binary(min_size=32, max_size=32)),
        commitment=SignedRoot(
            data.draw(st.binary(min_size=32, max_size=32)), data.draw(st.binary(min_size=64, max_size=64))
        ),
        siblings=tuple(
            data.draw(st.binary(min_size=32, max_size=32))
            for _ in range(data.draw(st.integers(min_value=0, max_value=41)))
        ),
    )
    encoded = wire.encode(pkt)
    assert wire.decode(encoded) == pkt
    assert wire.encode(wire.decode(encoded)) == encoded


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_verification_round_trip_property(data):
    bits = data.draw(st.integers(min_value=0, max_value=300))
    seqs = data.draw(st.sets(st.integers(min_value=1, max_value=max(bits, 1)), max_size=bits))
    msg = wire.ResponsePacket(
        receipt=data.draw(st.binary(min_size=32, max_size=32)),
        root=data.draw(st.binary(min_size=32, max_size=32)),
        signature=data.draw(st.binary(min_size=64, max_size=64)),
        bitmap_bits=bits,
        bitmap=wire.bitmap_from_sequences(seqs, bits),
        siblings=tuple(
            data.draw(st.binary(min_size=32, max_size=32))
            for _ in range(data.draw(st.integers(min_value=0, max_value=6)))
        ),
    )
    encoded = wire.encode(msg)
    assert wire.decode(encoded) == msg
    assert wire.encode(wire.decode(encoded)) == encoded


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_report_round_trip_property(data):
    rep = wire.ChallengerReport(
        challenger_id=data.draw(st.integers(min_value=0, max_value=2**32 - 1)),
        merkle_root_seen=data.draw(st.binary(min_size=32, max_size=32)),
        rtt_ns=data.draw(st.integers(min_value=1, max_value=2**64 - 1)),
        packets_acknowledged=data.draw(st.integers(min_value=0, max_value=2**32 - 1)),
    )
    encoded = wire.encode(rep)
    assert wire.decode(encoded) == rep
    assert wire.encode(wire.decode(encoded)) == encoded


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_dispute_round_trip_property(data):
    seqs = sorted(data.draw(st.sets(st.integers(min_value=1, max_value=500), max_size=20)))
    sub = wire.DisputeSubmission(
        challenger_id=data.draw(st.integers(min_value=0, max_value=2**32 - 1)),
        packets=tuple((q, data.draw(st.binary(min_size=32, max_size=32))) for q in seqs),
        commitment=SignedRoot(
            data.draw(st.binary(min_size=32, max_size=32)), data.draw(st.binary(min_size=64, max_size=64))
        ),
        proof=tuple(
            data.draw(st.binary(min_size=32, max_size=32))
            for _ in range(data.draw(st.integers(min_value=0, max_value=5)))
        ),
        siblings=tuple(
            data.draw(st.binary(min_size=32, max_size=32))
            for _ in range(data.draw(st.integers(min_value=0, max_value=5)))
        ),
    )
    encoded = wire.encode(sub)
    assert wire.decode(encoded) == sub
    assert wire.encode(wire.decode(encoded)) == encoded


# Hand-built byte layouts: each expected encoding is packed field by field,
# independently of wire's own formats.


def test_response_layout_hand_built():
    # the verifier's form
    pkt = wire.ResponsePacket(receipt=b"\x01" * 32, root=b"\x02" * 32, signature=b"\x03" * 64)
    expected = (
        b"\x02"
        + struct.pack(">I", 0)  # bitmap_bits; no bitmap bytes
        + struct.pack(">H", 0)  # no siblings
        + b"\x01" * 32
        + b"\x02" * 32
        + b"\x03" * 64
    )
    assert wire.encode(pkt) == expected


def test_verification_layout_hand_built():
    msg = make_verification(acked=(1, 3, 10), bits=12)
    expected = (
        b"\x02"
        + struct.pack(">I", 12)  # bitmap_bits
        + bytes([0b10100000, 0b01000000])  # sequences 1, 3, 10; tail zero
        + struct.pack(">H", 2)  # sibling count
        + b"\x05" * 32
        + b"\x06" * 32
        + b"\x01" * 32  # receipt
        + b"\x02" * 32  # root
        + b"\x03" * 64  # signature
    )
    assert wire.encode(msg) == expected


def test_report_layout_hand_built():
    rep = wire.ChallengerReport(
        challenger_id=0x01020304,
        merkle_root_seen=b"\x09" * 32,
        rtt_ns=99_802_880,
        packets_acknowledged=206,
    )
    expected = (
        b"\x04"
        + bytes([1, 2, 3, 4])
        + b"\x09" * 32
        + (99_802_880).to_bytes(8, "big")
        + bytes([0, 0, 0, 206])
    )
    assert wire.encode(rep) == expected


def test_dispute_layout_hand_built():
    sub = wire.DisputeSubmission(
        challenger_id=5,
        packets=((1, b"\x01" * 32), (300, b"\x02" * 32)),
        commitment=SignedRoot(b"\x0d" * 32, b"\x0e" * 64),
        proof=(b"\x0f" * 32, b"\x10" * 32),
        siblings=(b"\x0a" * 32,),
    )
    expected = (
        b"\x05"
        + struct.pack(">I", 5)  # challenger_id
        + struct.pack(">I", 2)  # packet count
        + struct.pack(">I", 1)
        + b"\x01" * 32
        + struct.pack(">I", 300)
        + b"\x02" * 32
        + b"\x0d" * 32  # commitment
        + b"\x0e" * 64  # its signature
        + struct.pack(">H", 2)  # multiproof node count
        + b"\x0f" * 32
        + b"\x10" * 32
        + struct.pack(">H", 1)  # sibling count
        + b"\x0a" * 32
    )
    assert wire.encode(sub) == expected
    empty = wire.DisputeSubmission(9, (), SignedRoot(bytes(32), bytes(64)), (), ())
    assert wire.encode(empty) == b"\x05" + bytes([0, 0, 0, 9]) + bytes(4 + 96 + 2) + bytes(2)


def test_a_dispute_encodes_a_lazy_commitment_as_its_signed_root():
    builds = []

    def build():
        builds.append(1)
        return [b"\x0c" * 64, b"\x0d" * 32], b"\x0e" * 64

    lazy = wire.DisputeSubmission(5, ((1, b"\x01" * 32),), Commitment(build), (), ())
    eager = dataclasses.replace(lazy, commitment=SignedRoot(b"\x0d" * 32, b"\x0e" * 64))
    assert not builds
    assert wire.encode(lazy) == wire.encode(eager)
    assert builds == [1]
    assert wire.decode(wire.encode(lazy)) == eager


def test_ping_layouts_hand_built():
    body = bytes([0, 0, 0, 3]) + bytes([0xDE, 0xAD, 0xBE, 0xEF, 0, 0, 0, 1])
    assert wire.encode(wire.PingRequest(challenger_id=3, nonce=0xDEADBEEF00000001)) == b"\x06" + body
    assert wire.encode(wire.PingReply(challenger_id=3, nonce=0xDEADBEEF00000001)) == b"\x07" + body


def test_dispute_request_layout_hand_built():
    raw = b"\x08" + bytes([0, 0, 0x01, 0x02])
    req = wire.DisputeRequest(challenger_id=258)
    assert wire.encode(req) == raw
    assert wire.decode(raw) == req
    for bad in (raw[:-1], raw + b"\x00"):
        with pytest.raises(wire.WireError):
            wire.decode(bad)


# Mutation property: flipped, truncated and extended datagrams either raise
# WireError or decode to a message that re-encodes to exactly those bytes.

MUTATION_SEEDS = (
    make_challenge(),
    wire.ResponsePacket(receipt=b"\x01" * 32, root=b"\x02" * 32, signature=b"\x03" * 64),
    make_verification(acked=(1, 3, 10), bits=12),
    make_verification(acked=(), bits=0),
    wire.ChallengerReport(
        challenger_id=2, merkle_root_seen=b"\x09" * 32, rtt_ns=1, packets_acknowledged=206
    ),
    wire.DisputeSubmission(
        5, ((1, b"\x01" * 32), (2, b"\x02" * 32)), SignedRoot(b"\x0d" * 32, b"\x0e" * 64), (b"\x0f" * 32,), (b"\x0a" * 32,)
    ),
    wire.DisputeSubmission(9, (), SignedRoot(bytes(32), bytes(64)), (), ()),
    wire.PingRequest(challenger_id=3, nonce=0),
    wire.PingReply(challenger_id=3, nonce=2**64 - 1),
    wire.DisputeRequest(challenger_id=7),
)


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_mutated_datagrams_reject_or_reencode_identically(data):
    good = wire.encode(data.draw(st.sampled_from(MUTATION_SEEDS)))
    raw = bytearray(good)
    kind = data.draw(st.sampled_from(("flip", "truncate", "extend")))
    if kind == "flip":
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            i = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
            raw[i] = data.draw(st.integers(min_value=0, max_value=255))
    elif kind == "truncate":
        del raw[data.draw(st.integers(min_value=0, max_value=len(raw) - 1)) :]
    else:
        raw += data.draw(st.binary(min_size=1, max_size=80))
    try:
        msg = wire.decode(bytes(raw))
    except wire.WireError:
        return
    assert wire.encode(msg) == bytes(raw)
