"""Signing, packet-set hashing, and the receipt Merkle tree.

Probe packets carry Ed25519 signatures as their payload, so the only
primitives needed are: deterministic keypairs, sign/verify, a canonical
digest over a set of (sequence number, signature) pairs, and a Merkle
tree whose leaves are those digests, one per challenger.

Domain separation: leaf hashes are prefixed 0x00 and interior hashes
0x01 so a leaf digest can never be replayed as an interior node.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

SEED_LEN = 32
KEY_LEN = 32
SIG_LEN = 64
DIGEST_LEN = 32

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


@dataclass(frozen=True)
class KeyPair:
    """Ed25519 keypair; secret_key is the 32-byte RFC 8032 seed."""

    secret_key: bytes
    public_key: bytes


@dataclass(frozen=True)
class MerkleProof:
    """Bottom-up sibling path for one leaf of the receipt tree."""

    leaf_index: int
    siblings: tuple[bytes, ...]


@lru_cache(maxsize=256)
def _load_private(secret_key: bytes) -> Ed25519PrivateKey:
    return Ed25519PrivateKey.from_private_bytes(secret_key)


@lru_cache(maxsize=256)
def _load_public(public_key: bytes) -> Ed25519PublicKey:
    return Ed25519PublicKey.from_public_bytes(public_key)


def keygen(seed: bytes) -> KeyPair:
    """Derive a keypair deterministically from a 32-byte seed."""
    if not isinstance(seed, (bytes, bytearray)) or len(seed) != SEED_LEN:
        raise ValueError(f"seed must be {SEED_LEN} bytes, got {len(seed) if isinstance(seed, (bytes, bytearray)) else type(seed)}")
    seed = bytes(seed)
    priv = _load_private(seed)
    return KeyPair(secret_key=seed, public_key=priv.public_key().public_bytes_raw())


def sign(secret_key: bytes, message: bytes) -> bytes:
    """Sign message, returning the 64-byte signature."""
    if len(secret_key) != SEED_LEN:
        raise ValueError(f"secret key must be {SEED_LEN} bytes, got {len(secret_key)}")
    return _load_private(bytes(secret_key)).sign(bytes(message))


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """True iff signature is valid; malformed inputs return False, never raise."""
    if not isinstance(public_key, (bytes, bytearray)) or len(public_key) != KEY_LEN:
        return False
    if not isinstance(signature, (bytes, bytearray)) or len(signature) != SIG_LEN:
        return False
    try:
        _load_public(bytes(public_key)).verify(bytes(signature), bytes(message))
    except (InvalidSignature, ValueError):
        return False
    return True


def probe_message(sequence: int, m0: bytes) -> bytes:
    """Message covered by probe signature q: 4-byte big-endian q then m0."""
    if not 0 <= sequence < 2**32:
        raise ValueError(f"sequence {sequence} out of u32 range")
    if len(m0) != DIGEST_LEN:
        raise ValueError(f"m0 must be {DIGEST_LEN} bytes, got {len(m0)}")
    return struct.pack(">I", sequence) + m0


def hash_packet_set(entries: Iterable[tuple[int, bytes]]) -> bytes:
    """Canonical SHA-256 digest of a set of (sequence, signature) pairs.

    Entries are sorted ascending by sequence number and serialized as
    4-byte big-endian sequence followed by the 64-byte signature, so the
    digest is independent of arrival order. The empty set hashes the
    empty string.
    """
    pack = struct.Struct(">I").pack
    parts = []
    seen = -1
    for seq, sig in sorted(entries, key=lambda e: e[0]):
        # one combined test on the common path; sorted, so seq >= seen
        if not (seen < seq < 2**32 and len(sig) == SIG_LEN):
            if not 0 <= seq < 2**32:
                raise ValueError(f"sequence {seq} out of u32 range")
            if seq == seen:
                raise ValueError(f"duplicate sequence {seq}")
            raise ValueError(f"signature for sequence {seq} must be {SIG_LEN} bytes, got {len(sig)}")
        seen = seq
        parts.append(pack(seq))
        parts.append(sig)
    return hashlib.sha256(b"".join(parts)).digest()


def _leaf_hash(leaf: bytes) -> bytes:
    return hashlib.sha256(_LEAF_PREFIX + leaf).digest()


def _node_hash(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(_NODE_PREFIX + left + right).digest()


def _padded(leaves: Sequence[bytes]) -> list[bytes]:
    if not leaves:
        raise ValueError("merkle tree needs at least one leaf")
    for i, leaf in enumerate(leaves):
        if len(leaf) != DIGEST_LEN:
            raise ValueError(f"leaf {i} must be {DIGEST_LEN} bytes, got {len(leaf)}")
    out = list(leaves)
    while len(out) & (len(out) - 1):
        out.append(out[-1])
    return out


def merkle_root(leaves: Sequence[bytes]) -> bytes:
    """Root over leaves, padded to a power of two by repeating the last leaf."""
    level = [_leaf_hash(leaf) for leaf in _padded(leaves)]
    while len(level) > 1:
        level = [_node_hash(level[i], level[i + 1]) for i in range(0, len(level), 2)]
    return level[0]


def merkle_prove(leaves: Sequence[bytes], index: int) -> MerkleProof:
    """Inclusion proof for leaves[index] against merkle_root(leaves)."""
    if not 0 <= index < len(leaves):
        raise ValueError(f"leaf index {index} out of range for {len(leaves)} leaves")
    level = [_leaf_hash(leaf) for leaf in _padded(leaves)]
    siblings: list[bytes] = []
    pos = index
    while len(level) > 1:
        siblings.append(level[pos ^ 1])
        level = [_node_hash(level[i], level[i + 1]) for i in range(0, len(level), 2)]
        pos //= 2
    return MerkleProof(leaf_index=index, siblings=tuple(siblings))


def merkle_verify(root: bytes, leaf: bytes, proof: MerkleProof) -> bool:
    """True iff leaf sits at proof.leaf_index under root. Malformed input returns False."""
    if not isinstance(root, (bytes, bytearray)) or len(root) != DIGEST_LEN:
        return False
    if not isinstance(leaf, (bytes, bytearray)) or len(leaf) != DIGEST_LEN:
        return False
    if proof.leaf_index < 0 or proof.leaf_index >= 2 ** len(proof.siblings):
        return False
    node = _leaf_hash(bytes(leaf))
    pos = proof.leaf_index
    for sib in proof.siblings:
        if not isinstance(sib, (bytes, bytearray)) or len(sib) != DIGEST_LEN:
            return False
        if pos & 1:
            node = _node_hash(bytes(sib), node)
        else:
            node = _node_hash(node, bytes(sib))
        pos //= 2
    return node == bytes(root)
