import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backhaul import wire
from backhaul.crypto import keygen, probe_message, sign
from backhaul.roles import Challenger, Session
from backhaul.schedule import ChallengeParams, RatePolicy, challenge_data_bytes
from test_schedule import params_of


def make_challenge(challenger_id=7, sequence=45, nonce=b"\x11" * 8, signature=b"\x01" * 64):
    return wire.ChallengePacket(challenger_id=challenger_id, sequence=sequence, nonce=nonce, signature=signature)


def test_challenge_payload_always_1472_bytes():
    data = wire.encode(make_challenge())
    assert len(data) == 1472
    assert len(data) + wire.LOWER_LAYER_BUDGET == 1514 == wire.WIRE_PACKET_LEN


def test_challenge_layout_hand_built():
    # Independent byte-level construction of the same packet.
    pkt = make_challenge(challenger_id=3, sequence=100, nonce=b"\xab" * 8)
    expected = bytearray(1472)
    expected[0] = 0x01
    expected[1:5] = struct.pack(">I", 3)
    expected[5:9] = struct.pack(">I", 100)
    expected[9:11] = struct.pack(">H", 1)
    expected[11:19] = b"\xab" * 8
    expected[64:128] = b"\x01" * 64
    assert wire.encode(pkt) == bytes(expected)


def test_lazily_signed_challenge_encodes_like_an_eager_one():
    params = params_of(2e6, 3, 0, 200_000_000, m0=b"\x05" * 32)
    key = keygen(b"\x09" * 32)
    session = Session(params, 77, keygen(b"\x0a" * 32).public_key, {}, deadline_ns=0)
    me = Challenger(session, 2, key, params.t0_ns, 0)
    _, pkt = me.build_sends()[4]
    signature = sign(key.secret_key, probe_message(5, params.m0))
    eager = wire.ChallengePacket(challenger_id=2, sequence=5, nonce=pkt.nonce, signature=signature)
    data = wire.encode(pkt)
    assert data == wire.encode(eager)
    assert len(data) == 1472
    assert data[9:11] == b"\x00\x01"  # the count: one signature
    assert data[64:128] == signature and not any(data[128:])  # slots 2-22 zero
    assert wire.decode(data) == eager


def test_challenge_rejects_count_out_of_range():
    # a probe carries exactly one signature
    for count in (0, 2, 22, 255):
        data = bytearray(wire.encode(make_challenge()))
        struct.pack_into(">H", data, 9, count)
        with pytest.raises(wire.WireError, match="count") as info:
            wire.decode(bytes(data))
        assert info.value.field == "count"


def test_challenge_rejects_noncanonical_padding():
    data = bytearray(wire.encode(make_challenge()))
    data[63] = 1  # header pad
    with pytest.raises(wire.WireError, match="header_padding"):
        wire.decode(bytes(data))
    data = bytearray(wire.encode(make_challenge()))
    data[200] = 1  # unused slot
    with pytest.raises(wire.WireError, match="signature"):
        wire.decode(bytes(data))


def test_challenge_rejects_truncation():
    data = wire.encode(make_challenge())
    # a short probe errs on the field the cut lands in, as every message does
    with pytest.raises(wire.WireError, match="signature_slots: needs 1344 bytes"):
        wire.decode(data[:-1])
    with pytest.raises(wire.WireError, match="payload"):
        wire.decode(data + b"\x00")


def test_every_message_has_one_layout():
    messages = {
        obj for obj in vars(wire).values()
        if isinstance(obj, type) and obj.__module__ == wire.__name__ and obj not in (wire.WireError, wire.Field)
    }
    assert wire.ChallengePacket in messages and messages == set(wire.LAYOUTS)
    tag, fields = wire.LAYOUTS[wire.ChallengePacket]
    assert tag == wire.TAG_CHALLENGE
    ints = {"H": 2, "I": 4, "Q": 8}
    widths = [ints.get(kind) or (len(kind) if isinstance(kind, bytes) else kind) for _, kind, _ in fields]
    assert 1 + sum(widths) == wire.CHALLENGE_PAYLOAD_LEN


@pytest.mark.parametrize(
    "field, start, end",
    [("count", 9, 11), ("header_padding", 19, 64), ("signature_slots", 128, 1472)],
)
def test_challenge_constant_fields_reject_any_changed_byte(field, start, end):
    good = wire.encode(make_challenge())
    for i in {start, (start + end) // 2, end - 1}:
        for value in (0x00, 0x01, 0xFF):
            if value == good[i]:
                continue
            data = bytearray(good)
            data[i] = value
            with pytest.raises(wire.WireError) as info:
                wire.decode(bytes(data))
            assert info.value.field == field


def test_challenge_encode_refuses_a_bad_signature():
    for bad in (64, 0, b"\x01" * 63):
        with pytest.raises(wire.WireError) as info:
            wire.encode(make_challenge(signature=bad))
        assert info.value.field == "signature"


def test_full_transmission_slot_arithmetic():
    # ceil(1.1k) probes of one signature each, every one a full-size packet
    for k in range(1, 2000, 13):
        # k * b * 8 ns at 1 Gbit/s is k probes' worth
        p = ChallengeParams(1e9, 1, 0, k * wire.WIRE_PACKET_LEN * 8, RatePolicy.PER_N, 1.1, False, 0, bytes(32))
        assert p.k == k
        sigs = -(-k * 11 // 10)
        assert p.signatures_per_challenger == sigs
        assert challenge_data_bytes(p) == sigs * wire.WIRE_PACKET_LEN


def test_response_all_zero_payload_after_tag():
    pkt = wire.ResponsePacket(receipt=bytes(32), root=bytes(32), signature=bytes(64))
    data = wire.encode(pkt)
    assert len(data) == 129
    assert data[0] == 0x02
    assert data[1:] == bytes(128)
    assert wire.decode(data) == pkt


def test_response_round_trip():
    pkt = wire.ResponsePacket(receipt=b"\x01" * 32, root=b"\x02" * 32, signature=b"\x03" * 64)
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
    bm = wire.bitmap_from_sequences(acked, bits)
    return wire.VerificationMessage(
        challenger_id=4,
        acked_count=len(acked),
        bitmap_bits=bits,
        bitmap=bm,
        leaf_index=3,
        siblings=(b"\x05" * 32, b"\x06" * 32),
    )


def test_verification_round_trip():
    msg = make_verification()
    assert wire.decode(wire.encode(msg)) == msg


def test_verification_rejects_popcount_mismatch():
    msg = make_verification()
    bad = wire.VerificationMessage(
        challenger_id=msg.challenger_id,
        acked_count=msg.acked_count + 1,
        bitmap_bits=msg.bitmap_bits,
        bitmap=msg.bitmap,
        leaf_index=msg.leaf_index,
        siblings=msg.siblings,
    )
    with pytest.raises(wire.WireError, match="acked_count"):
        wire.encode(bad)
    raw = bytearray(wire.encode(msg))
    raw[13] |= 0x10  # set an extra bitmap bit without touching acked_count
    with pytest.raises(wire.WireError, match="acked_count"):
        wire.decode(bytes(raw))


def test_verification_rejects_trailing_bitmap_bits():
    bm = bytearray(wire.bitmap_from_sequences([1], 12))
    bm[1] |= 0x01  # bit 16, beyond bitmap_bits=12
    msg = wire.VerificationMessage(
        challenger_id=1, acked_count=2, bitmap_bits=12, bitmap=bytes(bm), leaf_index=0, siblings=()
    )
    with pytest.raises(wire.WireError, match="bitmap"):
        wire.encode(msg)


def test_report_layout_and_round_trip():
    rep = wire.ChallengerReport(
        challenger_id=2,
        prover_id=0,
        merkle_root_seen=b"\x09" * 32,
        rtt_ns=99_802_880,
        packets_acknowledged=206,
    )
    data = wire.encode(rep)
    assert len(data) == 53
    assert data[0] == 0x04
    assert wire.decode(data) == rep


def test_report_rejects_nonpositive_rtt():
    rep = wire.ChallengerReport(
        challenger_id=2, prover_id=0, merkle_root_seen=bytes(32), rtt_ns=0, packets_acknowledged=1
    )
    with pytest.raises(wire.WireError, match="rtt_ns"):
        wire.encode(rep)


def test_dispute_round_trip_and_ordering():
    sub = wire.DisputeSubmission(
        challenger_id=5,
        packets=((1, b"\x01" * 64), (2, b"\x02" * 64), (7, b"\x03" * 64)),
        leaf_index=4,
        siblings=(b"\x0a" * 32,),
    )
    assert wire.decode(wire.encode(sub)) == sub
    bad = wire.DisputeSubmission(
        challenger_id=5,
        packets=((2, b"\x01" * 64), (1, b"\x02" * 64)),
        leaf_index=4,
        siblings=(),
    )
    with pytest.raises(wire.WireError, match="packets"):
        wire.encode(bad)


def test_dispute_empty_packets_round_trip():
    sub = wire.DisputeSubmission(challenger_id=9, packets=(), leaf_index=8, siblings=())
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
        wire.TAG_VERIFICATION,
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
        nonce=data.draw(st.binary(min_size=8, max_size=8)),
        signature=data.draw(st.binary(min_size=64, max_size=64)),
    )
    encoded = wire.encode(pkt)
    assert wire.decode(encoded) == pkt
    assert wire.encode(wire.decode(encoded)) == encoded


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_verification_round_trip_property(data):
    bits = data.draw(st.integers(min_value=1, max_value=300))
    seqs = data.draw(st.sets(st.integers(min_value=1, max_value=bits), max_size=bits))
    msg = wire.VerificationMessage(
        challenger_id=data.draw(st.integers(min_value=0, max_value=2**32 - 1)),
        acked_count=len(seqs),
        bitmap_bits=bits,
        bitmap=wire.bitmap_from_sequences(seqs, bits),
        leaf_index=data.draw(st.integers(min_value=0, max_value=2**32 - 1)),
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
        prover_id=data.draw(st.integers(min_value=0, max_value=2**32 - 1)),
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
        packets=tuple((q, data.draw(st.binary(min_size=64, max_size=64))) for q in seqs),
        leaf_index=data.draw(st.integers(min_value=0, max_value=2**32 - 1)),
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
    pkt = wire.ResponsePacket(receipt=b"\x01" * 32, root=b"\x02" * 32, signature=b"\x03" * 64)
    assert wire.encode(pkt) == b"\x02" + b"\x01" * 32 + b"\x02" * 32 + b"\x03" * 64


def test_verification_layout_hand_built():
    msg = make_verification(acked=(1, 3, 10), bits=12)
    expected = (
        b"\x03"
        + struct.pack(">I", 4)  # challenger_id
        + struct.pack(">I", 3)  # acked_count
        + struct.pack(">I", 12)  # bitmap_bits
        + bytes([0b10100000, 0b01000000])  # sequences 1, 3, 10; tail zero
        + struct.pack(">I", 3)  # leaf_index
        + struct.pack(">H", 2)  # sibling count
        + b"\x05" * 32
        + b"\x06" * 32
    )
    assert wire.encode(msg) == expected


def test_report_layout_hand_built():
    rep = wire.ChallengerReport(
        challenger_id=2,
        prover_id=0x01020304,
        merkle_root_seen=b"\x09" * 32,
        rtt_ns=99_802_880,
        packets_acknowledged=206,
    )
    expected = (
        b"\x04"
        + bytes([0, 0, 0, 2])
        + bytes([1, 2, 3, 4])
        + b"\x09" * 32
        + (99_802_880).to_bytes(8, "big")
        + bytes([0, 0, 0, 206])
    )
    assert wire.encode(rep) == expected


def test_dispute_layout_hand_built():
    sub = wire.DisputeSubmission(
        challenger_id=5,
        packets=((1, b"\x01" * 64), (300, b"\x02" * 64)),
        leaf_index=4,
        siblings=(b"\x0a" * 32,),
    )
    expected = (
        b"\x05"
        + struct.pack(">I", 5)  # challenger_id
        + struct.pack(">I", 2)  # packet count
        + struct.pack(">I", 1)
        + b"\x01" * 64
        + struct.pack(">I", 300)
        + b"\x02" * 64
        + struct.pack(">I", 4)  # leaf_index
        + struct.pack(">H", 1)  # sibling count
        + b"\x0a" * 32
    )
    assert wire.encode(sub) == expected
    empty = wire.DisputeSubmission(challenger_id=9, packets=(), leaf_index=8, siblings=())
    assert wire.encode(empty) == b"\x05" + bytes([0, 0, 0, 9]) + bytes(4) + bytes([0, 0, 0, 8]) + bytes(2)


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
        challenger_id=2, prover_id=0, merkle_root_seen=b"\x09" * 32, rtt_ns=1, packets_acknowledged=206
    ),
    wire.DisputeSubmission(
        challenger_id=5, packets=((1, b"\x01" * 64), (2, b"\x02" * 64)), leaf_index=4, siblings=(b"\x0a" * 32,)
    ),
    wire.DisputeSubmission(challenger_id=9, packets=(), leaf_index=8, siblings=()),
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
