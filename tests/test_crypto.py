import array
import ctypes
import hashlib
import importlib.util
import struct

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from hypothesis import given, settings
from hypothesis import strategies as st

from backhaul import crypto

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
)
def test_sign_and_keygen_match_the_openssl_signer(seed, msg, key_type, msg_type):
    # the reference: `cryptography`'s own Ed25519 signer and key derivation
    reference = Ed25519PrivateKey.from_private_bytes(seed)
    sig = crypto.sign(key_type(seed), msg_type(msg))
    assert type(sig) is bytes
    assert sig == reference.sign(msg)
    assert crypto.keygen(seed).public_key == reference.public_key().public_bytes_raw()
    assert crypto.verify(crypto.keygen(seed).public_key, msg, sig)


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
