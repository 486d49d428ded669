import array
import ctypes
import hashlib
import importlib.util
import os
import struct
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
from hypothesis import given, settings
from hypothesis import strategies as st

from backhaul import crypto
from backhaul.roles import Session
from backhaul.schedule import derive_params

# RFC 8032 section 7.1 TEST 1 and TEST 2 vectors.
RFC_SEED_1 = bytes.fromhex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60")
RFC_PK_1 = bytes.fromhex("d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a")
RFC_SIG_1 = bytes.fromhex(
    "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
    "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
)
RFC_SEED_2 = bytes.fromhex("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb")
RFC_PK_2 = bytes.fromhex("3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c")
RFC_SIG_2 = bytes.fromhex(
    "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
    "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
)


def test_keygen_matches_rfc8032_vectors():
    assert crypto.keygen(RFC_SEED_1).public_key == RFC_PK_1
    assert crypto.keygen(RFC_SEED_2).public_key == RFC_PK_2


def test_sign_matches_rfc8032_vectors():
    assert crypto.sign(RFC_SEED_1, b"") == RFC_SIG_1
    assert crypto.sign(RFC_SEED_2, b"\x72") == RFC_SIG_2


def test_verify_accepts_rfc8032_vectors():
    assert crypto.verify(RFC_PK_1, b"", RFC_SIG_1)
    assert crypto.verify(RFC_PK_2, b"\x72", RFC_SIG_2)


def test_keygen_deterministic_and_seed_sensitive():
    seed = bytes(32)
    other = bytes(31) + b"\x01"
    assert crypto.keygen(seed) == crypto.keygen(seed)
    assert crypto.keygen(seed).public_key != crypto.keygen(other).public_key


def test_keygen_rejects_bad_seed_length():
    with pytest.raises(ValueError):
        crypto.keygen(b"\x00" * 31)
    with pytest.raises(ValueError):
        crypto.keygen(b"\x00" * 33)


BYTES_LIKE = st.sampled_from([bytes, bytearray, memoryview])


@settings(max_examples=300, deadline=None)
@given(
    seed=st.binary(min_size=32, max_size=32),
    # sizes drawn first, so long messages are as likely as short ones
    msg=st.integers(0, 2000).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
    key_type=BYTES_LIKE,
    msg_type=BYTES_LIKE,
    sig_type=BYTES_LIKE,
)
def test_sign_and_keygen_match_the_openssl_signer(seed, msg, key_type, msg_type, sig_type):
    # the reference: `cryptography`'s own Ed25519 signer and key derivation
    reference = Ed25519PrivateKey.from_private_bytes(seed)
    sig = crypto.sign(key_type(seed), msg_type(msg))
    assert type(sig) is bytes
    assert sig == reference.sign(msg)
    public_key = crypto.keygen(seed).public_key
    assert public_key == reference.public_key().public_bytes_raw()
    assert crypto.verify(key_type(public_key), msg_type(msg), sig_type(sig))


@pytest.mark.parametrize("length", [31, 33])
@pytest.mark.parametrize("key_type", [bytes, bytearray, memoryview])
def test_sign_rejects_bad_key_length(length, key_type):
    with pytest.raises(ValueError, match=f"secret key must be 32 bytes, got {length}"):
        crypto.sign(key_type(bytes(length)), b"msg")


def test_sign_measures_the_key_in_bytes():
    # 32 items of 2 bytes each: 64 bytes once converted
    with pytest.raises(ValueError):
        crypto.sign(memoryview(array.array("H", bytes(64))), b"msg")


def test_missing_libsodium_is_one_import_error(monkeypatch):
    def absent(name, *args, **kwargs):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", absent)
    spec = importlib.util.spec_from_file_location("crypto_without_sodium", crypto.__file__)
    with pytest.raises(ImportError, match="libsodium.so.23.*libsodium23"):
        spec.loader.exec_module(importlib.util.module_from_spec(spec))


def test_verify_measures_key_and_signature_in_bytes():
    kp = crypto.keygen(b"\x07" * 32)
    sig = crypto.sign(kp.secret_key, b"payload")
    # 32 items of 2 bytes each: a 64-byte key
    assert not crypto.verify(memoryview(kp.public_key * 2).cast("H"), b"payload", sig)
    # 16 and 32 items of 2 bytes each: the key and the signature themselves
    assert crypto.verify(memoryview(kp.public_key).cast("H"), b"payload", memoryview(sig).cast("H"))


@pytest.mark.parametrize("bad", [None, 32, "x" * 32, [0] * 32])
def test_verify_returns_false_for_non_bytes(bad):
    kp = crypto.keygen(b"\x07" * 32)
    sig = crypto.sign(kp.secret_key, b"payload")
    assert not crypto.verify(bad, b"payload", sig)
    assert not crypto.verify(kp.public_key, bad, sig)
    assert not crypto.verify(kp.public_key, b"payload", bad)


def test_verify_rejects_wrong_message_and_truncation():
    kp = crypto.keygen(b"\x07" * 32)
    sig = crypto.sign(kp.secret_key, b"payload")
    assert crypto.verify(kp.public_key, b"payload", sig)
    assert not crypto.verify(kp.public_key, b"payloae", sig)
    assert not crypto.verify(kp.public_key, b"payload", sig[:63])
    assert not crypto.verify(kp.public_key[:31], b"payload", sig)


def test_verify_rejects_every_single_bit_flip_of_signature():
    kp = crypto.keygen(b"\x21" * 32)
    msg = crypto.probe_message(17, hashlib.sha256(b"m0").digest())
    sig = crypto.sign(kp.secret_key, msg)
    for byte_i in range(64):
        for bit in range(8):
            bad = bytearray(sig)
            bad[byte_i] ^= 1 << bit
            assert not crypto.verify(kp.public_key, msg, bytes(bad))


def test_probe_message_layout():
    m0 = hashlib.sha256(b"challenge").digest()
    assert crypto.probe_message(5, m0) == b"\x00\x00\x00\x05" + m0
    with pytest.raises(ValueError):
        crypto.probe_message(2**32, m0)
    with pytest.raises(ValueError):
        crypto.probe_message(1, m0[:31])


def test_hash_packet_set_empty_is_sha256_of_empty_string():
    assert crypto.hash_packet_set([]) == bytes.fromhex(
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


def test_hash_packet_set_matches_hand_serialization():
    # Independent oracle: serialize sorted entries by hand and hash with hashlib.
    entries = [(9, b"\xaa" * 64), (2, b"\xbb" * 64), (300, b"\xcc" * 64)]
    blob = b"".join(
        struct.pack(">I", seq) + sig for seq, sig in sorted(entries)
    )
    assert crypto.hash_packet_set(entries) == hashlib.sha256(blob).digest()


def test_hash_packet_set_order_invariant():
    entries = [(3, b"\x01" * 64), (1, b"\x02" * 64), (2, b"\x03" * 64)]
    assert crypto.hash_packet_set(entries) == crypto.hash_packet_set(reversed(entries))


def test_hash_packet_set_rejects_duplicates_and_bad_lengths():
    with pytest.raises(ValueError):
        crypto.hash_packet_set([(1, b"\x00" * 64), (1, b"\x01" * 64)])
    with pytest.raises(ValueError):
        crypto.hash_packet_set([(1, b"\x00" * 63)])
    with pytest.raises(ValueError):
        crypto.hash_packet_set([(2**32, b"\x00" * 64)])


def _hand_tree_4(leaves):
    # Independent oracle: explicit two-level tree with domain prefixes.
    lh = [hashlib.sha256(b"\x00" + leaf).digest() for leaf in leaves]
    n01 = hashlib.sha256(b"\x01" + lh[0] + lh[1]).digest()
    n23 = hashlib.sha256(b"\x01" + lh[2] + lh[3]).digest()
    return hashlib.sha256(b"\x01" + n01 + n23).digest(), lh, n01, n23


def test_merkle_root_four_leaves_hand_computed():
    leaves = [hashlib.sha256(bytes([i])).digest() for i in range(4)]
    root, _, _, _ = _hand_tree_4(leaves)
    assert crypto.merkle_root(leaves) == root


def test_merkle_proof_four_leaves_hand_computed():
    leaves = [hashlib.sha256(bytes([i])).digest() for i in range(4)]
    root, lh, n01, n23 = _hand_tree_4(leaves)
    proof = crypto.merkle_prove(leaves, 2)
    assert proof.leaf_index == 2
    assert proof.siblings == (lh[3], n01)
    assert crypto.merkle_verify(root, leaves[2], proof)


def test_merkle_single_leaf():
    leaf = hashlib.sha256(b"solo").digest()
    assert crypto.merkle_root([leaf]) == hashlib.sha256(b"\x00" + leaf).digest()
    proof = crypto.merkle_prove([leaf], 0)
    assert proof.siblings == ()
    assert crypto.merkle_verify(crypto.merkle_root([leaf]), leaf, proof)


def test_merkle_pads_by_duplicating_last_leaf():
    a = hashlib.sha256(b"a").digest()
    b = hashlib.sha256(b"b").digest()
    c = hashlib.sha256(b"c").digest()
    assert crypto.merkle_root([a, b, c]) == crypto.merkle_root([a, b, c, c])


def test_merkle_two_equal_leaves():
    leaf = hashlib.sha256(b"same").digest()
    lh = hashlib.sha256(b"\x00" + leaf).digest()
    assert crypto.merkle_root([leaf, leaf]) == hashlib.sha256(b"\x01" + lh + lh).digest()


def test_merkle_domain_separation_leaf_vs_node():
    # A leaf equal to a node preimage must not verify as that node.
    a = hashlib.sha256(b"x").digest()
    b = hashlib.sha256(b"y").digest()
    root = crypto.merkle_root([a, b])
    assert not crypto.merkle_verify(root, crypto.merkle_root([a]), crypto.MerkleProof(0, ()))


def test_merkle_verify_rejects_swapped_sibling_side():
    leaves = [hashlib.sha256(bytes([i])).digest() for i in range(4)]
    root = crypto.merkle_root(leaves)
    proof = crypto.merkle_prove(leaves, 2)
    wrong_parity = crypto.MerkleProof(3, proof.siblings)
    assert not crypto.merkle_verify(root, leaves[2], wrong_parity)


def test_merkle_verify_rejects_malformed():
    leaves = [hashlib.sha256(bytes([i])).digest() for i in range(2)]
    root = crypto.merkle_root(leaves)
    proof = crypto.merkle_prove(leaves, 0)
    assert not crypto.merkle_verify(root[:31], leaves[0], proof)
    assert not crypto.merkle_verify(root, leaves[0][:31], proof)
    assert not crypto.merkle_verify(root, leaves[0], crypto.MerkleProof(4, proof.siblings))
    assert not crypto.merkle_verify(
        root, leaves[0], crypto.MerkleProof(0, (b"\x00" * 31,))
    )


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=64),
    data=st.data(),
)
def test_merkle_round_trip_property(n, data):
    leaves = [
        hashlib.sha256(struct.pack(">II", n, i) + data.draw(st.binary(min_size=4, max_size=4))).digest()
        for i in range(n)
    ]
    index = data.draw(st.integers(min_value=0, max_value=n - 1))
    root = crypto.merkle_root(leaves)
    proof = crypto.merkle_prove(leaves, index)
    assert crypto.merkle_verify(root, leaves[index], proof)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=32),
    data=st.data(),
)
def test_merkle_tamper_property(n, data):
    leaves = [hashlib.sha256(struct.pack(">II", 7, i)).digest() for i in range(n)]
    index = data.draw(st.integers(min_value=0, max_value=n - 1))
    root = crypto.merkle_root(leaves)
    proof = crypto.merkle_prove(leaves, index)
    # Tamper one sibling byte, or the leaf itself.
    if proof.siblings and data.draw(st.booleans()):
        si = data.draw(st.integers(min_value=0, max_value=len(proof.siblings) - 1))
        bad = bytearray(proof.siblings[si])
        bad[data.draw(st.integers(min_value=0, max_value=31))] ^= 0xFF
        siblings = list(proof.siblings)
        siblings[si] = bytes(bad)
        assert not crypto.merkle_verify(root, leaves[index], crypto.MerkleProof(index, tuple(siblings)))
    else:
        bad_leaf = bytearray(leaves[index])
        bad_leaf[data.draw(st.integers(min_value=0, max_value=31))] ^= 0x01
        assert not crypto.merkle_verify(root, bytes(bad_leaf), proof)


@settings(max_examples=100, deadline=None)
@given(seed=st.binary(min_size=32, max_size=32), msg=st.binary(max_size=256))
def test_sign_verify_round_trip_property(seed, msg):
    kp = crypto.keygen(seed)
    sig = crypto.sign(kp.secret_key, msg)
    assert len(sig) == 64
    assert crypto.verify(kp.public_key, msg, sig)


# A pure-Python edwards25519 (RFC 8032 section 5.1), only to build the
# encodings libsodium's verifier must refuse; nothing here comes from the
# module under test.
P = 2**255 - 19
L = 2**252 + 27742317777372353535851937790883648493
D = -121665 * pow(121666, -1, P) % P
IDENTITY = (0, 1)


def _add(a, b):
    (x1, y1), (x2, y2) = a, b
    t = D * x1 * x2 * y1 * y2 % P
    return (
        (x1 * y2 + x2 * y1) * pow(1 + t, -1, P) % P,
        (y1 * y2 + x1 * x2) * pow(1 - t, -1, P) % P,
    )


def _mul(k, point):
    acc = IDENTITY
    while k:
        if k & 1:
            acc = _add(acc, point)
        point = _add(point, point)
        k >>= 1
    return acc


def _decode(y):
    """The point with this y and an even x, or None off the curve."""
    x2 = (y * y - 1) * pow(D * y * y + 1, -1, P) % P
    x = pow(x2, (P + 3) // 8, P)
    if (x * x - x2) % P:
        x = x * pow(2, (P - 1) // 4, P) % P
    if (x * x - x2) % P:
        return None
    return (P - x if x & 1 else x), y


def _alias(y, sign_bit):
    """32 bytes holding y, or a non-canonical y + p, and the sign bit of x."""
    return (y | sign_bit << 255).to_bytes(32, "little")


def _encode(point):
    x, y = point
    return _alias(y, x & 1)


BASE = _decode(4 * pow(5, -1, P) % P)


@lru_cache(maxsize=None)
def small_order_points():
    """The eight points of order dividing 8: multiples of one of order 8,
    found as L times a point of the full group."""
    for y in range(2, 100):
        point = _decode(y)
        if point is not None:
            torsion = _mul(L, point)
            if _mul(4, torsion) != IDENTITY:
                return tuple(_mul(i, torsion) for i in range(8))
    raise AssertionError("no point of order 8 found")


def _secret_scalar(seed):
    h = int.from_bytes(hashlib.sha512(seed).digest()[:32], "little")
    return h & ((1 << 254) - 8) | 1 << 254


def _challenge(r_enc, a_enc, msg):
    return int.from_bytes(hashlib.sha512(r_enc + a_enc + msg).digest(), "little") % L


def test_python_curve_matches_keygen():
    seed = b"\x33" * 32
    assert _encode(_mul(_secret_scalar(seed), BASE)) == crypto.keygen(seed).public_key
    assert _mul(L, BASE) == IDENTITY


def _roles_refuse(key):
    """The session every role is built from refuses `key` as the prover's
    and as a challenger's, so no role ever holds it."""
    params = derive_params(2e6, 3, 0, duration_ns=200_000_000)
    good = crypto.keygen(b"\x0b" * 32)
    with pytest.raises(ValueError, match="public key"):
        Session(params, 77, key, {1: good.public_key}, deadline_ns=0)
    with pytest.raises(ValueError, match="public key"):
        Session(params, 77, good.public_key, {1: good.public_key, 2: key}, deadline_ns=0)


def test_session_keeps_only_the_keys_it_checked():
    params = derive_params(2e6, 3, 0, duration_ns=200_000_000)
    good = crypto.keygen(b"\x0b" * 32)
    keys = {1: good.public_key}
    session = Session(params, 77, good.public_key, keys, deadline_ns=0)
    keys[2] = b"\x01" + bytes(31)  # the identity, added after the checks
    assert session.challenger_public_keys == {1: good.public_key}


def test_small_order_points_are_refused_as_keys():
    points = small_order_points()
    assert len({_encode(t) for t in points}) == 8
    assert all(_mul(8, t) == IDENTITY for t in points)
    for _, y in points:
        for sign_bit in (0, 1):
            key = _alias(y, sign_bit)
            _roles_refuse(key)
            # (R, 0) with R = -kA satisfies [S]B = R + [k]A for any message,
            # so a verifier that took this key would take a forgery
            for msg in (b"", b"probe"):
                for r_point in points:
                    r_enc = _encode(r_point)
                    assert not crypto.verify(key, msg, r_enc + bytes(32))


def test_identity_key_with_identity_signature_is_refused():
    key = b"\x01" + bytes(31)
    forgery = key + bytes(32)
    assert not crypto.verify(key, b"a message", forgery)
    assert not crypto.verify(key, b"another message", forgery)
    _roles_refuse(key)


def test_non_canonical_s_is_refused():
    kp = crypto.keygen(b"\x44" * 32)
    sig = crypto.sign(kp.secret_key, b"msg")
    s = int.from_bytes(sig[32:], "little")
    assert crypto.verify(kp.public_key, b"msg", sig)
    assert not crypto.verify(kp.public_key, b"msg", sig[:32] + (s + L).to_bytes(32, "little"))


def test_small_order_and_non_canonical_r_are_refused():
    # R = the identity: canonical (small order; cryptography 48 accepts it), as
    # y = p + 1, and as x = 0 with the sign bit set. S = k*a makes
    # [S]B = R + [k]A hold for the decoded point
    seed = b"\x55" * 32
    kp = crypto.keygen(seed)
    a = _secret_scalar(seed)
    for r_enc in (_alias(1, 0), _alias(1 + P, 0), _alias(1, 1)):
        for msg in (b"", b"msg"):
            s = _challenge(r_enc, kp.public_key, msg) * a % L
            assert not crypto.verify(kp.public_key, msg, r_enc + s.to_bytes(32, "little"))


def test_non_canonical_keys_are_refused():
    kp = crypto.keygen(b"\x66" * 32)
    sig = crypto.sign(kp.secret_key, b"msg")
    # y + p fits in 255 bits for y < 19 only; every such y, on the curve or not
    for y in range(19):
        for sign_bit in (0, 1):
            key = _alias(y + P, sign_bit)
            _roles_refuse(key)
            assert not crypto.verify(key, b"msg", sig)
            assert not crypto.verify(key, b"msg", _encode(IDENTITY) + bytes(32))


def test_check_public_key_passes_keygen_keys():
    for i in range(32):
        key = crypto.keygen(bytes([i]) * 32).public_key
        assert crypto.check_public_key(bytearray(key)) == key
    for bad in (b"\x09" * 31, b"\x09" * 33, None, "x" * 32):
        with pytest.raises(ValueError, match="public key"):
            crypto.check_public_key(bad)


# libsodium's own test of a key: canonical, on the curve, not of small
# order, and in the main subgroup
_SODIUM = ctypes.CDLL(crypto._SONAME)
_is_valid_point = _SODIUM.crypto_core_ed25519_is_valid_point
_is_valid_point.argtypes = (ctypes.c_char_p,)
_is_valid_point.restype = ctypes.c_int


@pytest.mark.parametrize("y", [2, 7, 8])
def test_keys_off_the_curve_are_refused(y):
    assert _decode(y) is None
    kp = crypto.keygen(b"\x77" * 32)
    sig = crypto.sign(kp.secret_key, b"msg")
    for sign_bit in (0, 1):
        key = _alias(y, sign_bit)
        assert _is_valid_point(key) == 0
        with pytest.raises(ValueError, match="not a point on the curve"):
            crypto.check_public_key(key)
        _roles_refuse(key)
        assert not crypto.verify(key, b"msg", sig)


def _mixed_order_signature(seed, torsion, msg=b"probe"):
    """(key, signature) under A + T, T of small order: a nonce r whose
    challenge k has [k]T = identity makes S = r + k a a valid signature."""
    a = _secret_scalar(seed)
    key = _encode(_add(_mul(a, BASE), torsion))
    for r in range(1, 64):
        r_enc = _encode(_mul(r, BASE))
        k = _challenge(r_enc, key, msg)
        if _mul(k, torsion) == IDENTITY:
            return key, r_enc + ((r + k * a) % L).to_bytes(32, "little")
    raise AssertionError("no nonce found")


def test_keys_of_mixed_order_pass_as_verify_accepts_them():
    for torsion in small_order_points():
        if torsion == IDENTITY:
            continue
        key, sig = _mixed_order_signature(b"\x12" * 32, torsion)
        assert _is_valid_point(key) == 0  # outside the main subgroup
        assert crypto.check_public_key(key) == key
        assert crypto.verify(key, b"probe", sig)


@settings(max_examples=200, deadline=None)
@given(seed=st.binary(min_size=32, max_size=32))
def test_every_keygen_key_passes(seed):
    key = crypto.keygen(seed).public_key
    assert _is_valid_point(key) == 1
    assert crypto.check_public_key(key) == key


@settings(max_examples=1000, deadline=None)
@given(key=st.binary(min_size=32, max_size=32))
def test_every_key_libsodium_takes_check_public_key_takes(key):
    if _is_valid_point(key):
        assert crypto.check_public_key(key) == key


def _small_order_encoding(data):
    _, y = data.draw(st.sampled_from(small_order_points()))
    return _alias(y, data.draw(st.integers(0, 1)))


def _mutate(kind, pk, sig, data):
    r, s = sig[:32], sig[32:]
    if kind == "flip":
        blob = bytearray(pk + sig)
        bit = data.draw(st.integers(0, 8 * len(blob) - 1))
        blob[bit // 8] ^= 1 << bit % 8
        return bytes(blob[:32]), bytes(blob[32:])
    if kind == "small_r":
        return pk, _small_order_encoding(data) + s
    if kind == "small_a":
        return _small_order_encoding(data), sig
    if kind == "s_plus_l":
        return pk, r + (int.from_bytes(s, "little") + L).to_bytes(32, "little")
    if kind == "s_zero":
        return pk, r + bytes(32)
    # y + p: a non-canonical alias of one of the 19 smallest y
    alias = _alias(data.draw(st.integers(0, 18)) + P, data.draw(st.integers(0, 1)))
    if kind == "a_plus_p":
        return alias, sig
    return pk, alias + s


MUTATIONS = st.lists(
    st.sampled_from(["flip", "small_r", "small_a", "s_plus_l", "s_zero", "a_plus_p", "r_plus_p"]),
    max_size=3,
)


@settings(max_examples=400, deadline=None)
@given(seed=st.binary(min_size=32, max_size=32), msg=st.binary(max_size=64), kinds=MUTATIONS, data=st.data())
def test_every_signature_libsodium_accepts_openssl_accepts(seed, msg, kinds, data):
    kp = crypto.keygen(seed)
    pk, sig = kp.public_key, crypto.sign(kp.secret_key, msg)
    for kind in kinds:
        pk, sig = _mutate(kind, pk, sig, data)
    if not kinds:
        assert crypto.verify(pk, msg, sig)
    if crypto.verify(pk, msg, sig):
        try:
            Ed25519PublicKey.from_public_bytes(pk).verify(sig, msg)
        except InvalidSignature:
            pytest.fail(f"libsodium accepts what OpenSSL refuses: {pk.hex()} {sig.hex()} {msg.hex()}")


def test_runtime_imports_and_runs_without_cryptography():
    # `cryptography` is a test dependency only: the reference verifier above
    code = """
import sys

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "cryptography":
            raise ImportError(f"{name} is not installed")

sys.meta_path.insert(0, Refuse())
try:
    import cryptography
except ImportError:
    pass
else:
    raise SystemExit("the import was not refused")
import backhaul.cli
from backhaul.netsim import run_scenario

result = run_scenario(backhaul.cli.load_bundled("ideal_250"), 0)
assert result.output is not None, result
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "cryptography")
assert not loaded, loaded
print("ok")
"""
    src = str(Path(crypto.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
