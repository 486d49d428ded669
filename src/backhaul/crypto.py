"""Signing, packet-set hashing, and the receipt Merkle tree.

Probe packets carry Ed25519 signatures as their payload, so the only
primitives needed are: deterministic keypairs, sign/verify, a canonical
digest over a set of (sequence number, signature) pairs, and a Merkle
tree whose leaves are those digests, one per challenger.

libsodium signs and verifies (`crypto_sign_ed25519_detached` and
`crypto_sign_ed25519_verify_detached`, loaded by its soname through
ctypes); signatures are RFC 8032 bytes. Ed25519 libraries disagree on
which signatures are valid, and a verdict must mean the same thing to
every party that checks it, so the trust boundary has one library and
one rule, libsodium's strict one: non-canonical encodings of R, S or the
public key are refused, and so are a small-order R and a small-order
key. Under a small-order key anyone can forge: with the identity as the
key, the signature (identity, 0) passes a permissive verifier, OpenSSL's
among them, for every message. `check_public_key` refuses such keys, and
keys off the curve, when a `roles.Session` is built.

Domain separation: leaf hashes are prefixed 0x00 and interior hashes
0x01 so a leaf digest can never be replayed as an interior node.
"""

from __future__ import annotations

import ctypes
import hashlib
import struct
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Sequence

SEED_LEN = 32
KEY_LEN = 32
SIG_LEN = 64
DIGEST_LEN = 32

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"

# the 4-byte big-endian sequence number that opens a probe message and
# each entry of a packet-set digest
SEQUENCE = struct.Struct(">I")
_BY_SEQUENCE = itemgetter(0)

# by soname, not ctypes.util.find_library, which runs ldconfig in a subprocess
_SONAME = "libsodium.so.23"
try:
    _sodium = ctypes.CDLL(_SONAME)
except OSError as exc:
    raise ImportError(
        f"backhaul signs with libsodium and could not load {_SONAME} ({exc}); "
        "install it, e.g. the Debian/Ubuntu package libsodium23"
    ) from None
if _sodium.sodium_init() < 0:
    raise ImportError(f"{_SONAME}: sodium_init failed")
# both return 0 on every input of the right lengths, so no caller checks
_seed_keypair = _sodium.crypto_sign_ed25519_seed_keypair
_seed_keypair.argtypes = (ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p)
_seed_keypair.restype = ctypes.c_int
_sign_detached = _sodium.crypto_sign_ed25519_detached
_sign_detached.argtypes = (
    ctypes.c_char_p, ctypes.c_void_p, ctypes.c_char_p, ctypes.c_ulonglong, ctypes.c_char_p
)
_sign_detached.restype = ctypes.c_int
# 0 for a valid signature, -1 otherwise
_verify_detached = _sodium.crypto_sign_ed25519_verify_detached
_verify_detached.argtypes = (ctypes.c_char_p, ctypes.c_char_p, ctypes.c_ulonglong, ctypes.c_char_p)
_verify_detached.restype = ctypes.c_int
_Signature = ctypes.c_char * SIG_LEN
_BYTES_LIKE = (bytes, bytearray, memoryview)

# a public key encodes y (the low 255 bits, little-endian) and the sign of x
_P = 2**255 - 19
_D = -121665 * pow(121666, -1, _P) % _P  # the curve is -x^2 + y^2 = 1 + d x^2 y^2
_Y_MASK = (1 << 255) - 1
_X_SIGN = 1 << 255
# y of the eight small-order points: the identity, the point of order 2,
# the two of order 4 and the four of order 8 (p and p + 1, which libsodium
# also lists, are non-canonical y = 0 and y = 1)
_SMALL_ORDER_Y = frozenset({
    0,
    1,
    _P - 1,
    2707385501144840649318225287225658788936804267575313519463743609750303402022,
    55188659117513257062467267217118295137698188065244968500265048394206261417927,
})


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
def _expanded(seed: bytes) -> bytes:
    """libsodium's 64-byte secret key for a seed: the seed, then the public key."""
    if len(seed) != SEED_LEN:  # libsodium reads SEED_LEN bytes whatever the length
        raise ValueError(f"secret key must be {SEED_LEN} bytes, got {len(seed)}")
    public = ctypes.create_string_buffer(KEY_LEN)
    secret = ctypes.create_string_buffer(SEED_LEN + KEY_LEN)
    _seed_keypair(public, secret, seed)
    return secret.raw


def keygen(seed: bytes) -> KeyPair:
    """Derive a keypair deterministically from a 32-byte seed."""
    if not isinstance(seed, (bytes, bytearray)) or len(seed) != SEED_LEN:
        raise ValueError(f"seed must be {SEED_LEN} bytes, got {len(seed) if isinstance(seed, (bytes, bytearray)) else type(seed)}")
    seed = bytes(seed)
    return KeyPair(secret_key=seed, public_key=_expanded(seed)[SEED_LEN:])


def sign(secret_key: bytes, message: bytes) -> bytes:
    """Sign message, returning the 64-byte signature."""
    if len(secret_key) != SEED_LEN:
        raise ValueError(f"secret key must be {SEED_LEN} bytes, got {len(secret_key)}")
    if type(secret_key) is not bytes:
        secret_key = bytes(secret_key)
    message = bytes(message)
    signature = _Signature()
    _sign_detached(signature, None, message, len(message), _expanded(secret_key))
    return signature.raw


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """True iff signature is valid; malformed inputs return False, never raise."""
    if not (
        isinstance(public_key, _BYTES_LIKE)
        and isinstance(message, _BYTES_LIKE)
        and isinstance(signature, _BYTES_LIKE)
    ):
        return False
    # lengths in bytes, so a memoryview of wider items is measured as sent
    public_key, message, signature = bytes(public_key), bytes(message), bytes(signature)
    if len(public_key) != KEY_LEN or len(signature) != SIG_LEN:
        return False
    return _verify_detached(signature, message, len(message), public_key) == 0


def check_public_key(public_key: bytes) -> bytes:
    """public_key as bytes, once it is 32 bytes that encode a point on the
    curve whose y is canonical and not that of a small-order point: the
    keys libsodium's verifier refuses on sight, and under which a signature
    can be forged without the secret.

    A point of mixed order (a small-order component beside the main one)
    passes, as it does in `verify`.
    """
    if not isinstance(public_key, _BYTES_LIKE):
        raise ValueError(f"public key must be bytes, got {type(public_key).__name__}")
    key = bytes(public_key)
    if len(key) != KEY_LEN:
        raise ValueError(f"public key must be {KEY_LEN} bytes, got {len(key)}")
    y = int.from_bytes(key, "little") & _Y_MASK
    if y >= _P:
        raise ValueError(f"public key {key.hex()} is not canonical")
    if y in _SMALL_ORDER_Y:
        raise ValueError(f"public key {key.hex()} is a point of small order")
    if not _on_curve(key):
        raise ValueError(f"public key {key.hex()} is not a point on the curve")
    return key


@lru_cache(maxsize=256)
def _on_curve(key: bytes) -> bool:
    """Whether a key with canonical y decodes to a point: x^2 = u / v, with
    u = y^2 - 1 and v = d y^2 + 1, has a root mod p, and the root x = 0
    comes with a clear sign bit. Cached, as a run checks the prover's key
    once per role and a modular power costs far more than the checks above.
    """
    encoded = int.from_bytes(key, "little")
    y2 = (encoded & _Y_MASK) ** 2
    u, v = y2 - 1, _D * y2 + 1
    if u % _P == 0:
        return not encoded & _X_SIGN
    # v is never 0 (-1/d is not a square), and u / v is a square exactly
    # when u * v is: Euler's criterion
    return pow(u * v, (_P - 1) // 2, _P) == 1


def check_m0(m0: bytes) -> bytes:
    """m0, once it is known to be a digest; a probe message ends with it."""
    if len(m0) != DIGEST_LEN:
        raise ValueError(f"m0 must be {DIGEST_LEN} bytes, got {len(m0)}")
    return m0


def probe_message(sequence: int, m0: bytes) -> bytes:
    """Message covered by probe signature q: 4-byte big-endian q then m0.

    A caller that signs many probes under one m0 checks it once with
    `check_m0` and builds `SEQUENCE.pack(q) + m0` itself.
    """
    if not 0 <= sequence < 2**32:
        raise ValueError(f"sequence {sequence} out of u32 range")
    return SEQUENCE.pack(sequence) + check_m0(m0)


def hash_packet_set(entries: Iterable[tuple[int, bytes]]) -> bytes:
    """Canonical SHA-256 digest of a set of (sequence, signature) pairs.

    Entries are sorted ascending by sequence number and serialized as
    4-byte big-endian sequence followed by the 64-byte signature, so the
    digest is independent of arrival order. The empty set hashes the
    empty string.
    """
    pack = SEQUENCE.pack
    parts = []
    seen = -1
    for seq, sig in sorted(entries, key=_BY_SEQUENCE):
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
