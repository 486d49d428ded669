"""Signing, probe commitments, packet-set hashing and Merkle trees.

Challenger i's secret s_q is the q-th 32-byte block of SHAKE-256(label
|| seed_i || m0), seed_i its secret key; no block reveals another without
it. Its `Commitment` (the tree over its N secrets, and a signature of
`commitment_message(m0, i, N, root)`) is made when first read. Leaves are
hashed, so a path reveals no secret and only a party that received probe
q can show s_q; m0 ties the commitment to one session. A receipt digests
a set of (q, s_q) pairs, and a tree over the receipts commits the prover.

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
keys off the curve, when a `roles.Session` is built: a non-canonical or
small-order y by integer tests, and a key that does not decode to a point
by libsodium's decoder (`crypto_core_ed25519_add`), which checks no
subgroup, so keys of mixed order pass as they pass `verify`.

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
from typing import Callable, Iterable, NamedTuple, Sequence

SEED_LEN = 32
KEY_LEN = 32
SIG_LEN = 64
DIGEST_LEN = 32

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"

# the 4-byte big-endian sequence number of each entry of a packet-set digest
SEQUENCE = struct.Struct(">I")
_SECRET_LABEL = b"backhaul probe secret\x00"
_COMMITMENT_LABEL = b"backhaul probe commitment\x00"
_COMMITMENT = struct.Struct(">II")  # challenger id, N
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
_sign_detached.argtypes = (ctypes.c_char_p, ctypes.c_void_p, ctypes.c_char_p, ctypes.c_ulonglong, ctypes.c_char_p)
_sign_detached.restype = ctypes.c_int
# 0 for a valid signature, -1 otherwise
_verify_detached = _sodium.crypto_sign_ed25519_verify_detached
_verify_detached.argtypes = (ctypes.c_char_p, ctypes.c_char_p, ctypes.c_ulonglong, ctypes.c_char_p)
_verify_detached.restype = ctypes.c_int
# 0 with the sum of two points, -1 when an operand does not decode to a
# point on the curve; 1.0.18 checks no subgroup, so a key of mixed order decodes
_point_add = _sodium.crypto_core_ed25519_add
_point_add.argtypes = (ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p)
_point_add.restype = ctypes.c_int
_Signature = ctypes.c_char * SIG_LEN
_Point = ctypes.c_char * KEY_LEN
_BYTES_LIKE = (bytes, bytearray, memoryview)

# a public key encodes y (the low 255 bits, little-endian) and the sign of x
_P = 2**255 - 19
_Y_MASK = (1 << 255) - 1
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
    if not all(isinstance(x, _BYTES_LIKE) for x in (public_key, message, signature)):
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
    passes, as it does in `verify`. The y checks are integer tests; whether
    the key decodes to a point is libsodium's, adding the key to itself.
    The only points with x = 0 (y = 1 and y = -1) are of small order and
    refused first, so the sign bit needs no test of its own.
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
    if _point_add(_Point(), key, key) != 0:
        raise ValueError(f"public key {key.hex()} is not a point on the curve")
    return key


def check_m0(m0: bytes) -> bytes:
    """m0, once it is known to be a digest; secrets and commitments cover it."""
    if len(m0) != DIGEST_LEN:
        raise ValueError(f"m0 must be {DIGEST_LEN} bytes, got {len(m0)}")
    return m0


def probe_secrets(secret_key: bytes, m0: bytes, count: int) -> list[bytes]:
    """The secrets s_1 .. s_count of a challenger, by q - 1: in order, the
    32-byte blocks of SHAKE-256 output over a label, its secret key and m0."""
    if len(secret_key) != SEED_LEN:
        raise ValueError(f"secret key must be {SEED_LEN} bytes, got {len(secret_key)}")
    if type(count) is not int or count < 0:
        raise ValueError(f"count must be a non-negative int, got {count!r}")
    stream = hashlib.shake_256(_SECRET_LABEL + bytes(secret_key) + check_m0(m0)).digest(DIGEST_LEN * count)
    return [stream[at : at + DIGEST_LEN] for at in range(0, len(stream), DIGEST_LEN)]


def commitment_message(m0: bytes, challenger_id: int, count: int, root: bytes) -> bytes:
    """What a challenger signs once per run: a label, m0, its id and its
    probe count N (4 bytes each, big-endian), and the root of the tree
    over its N secrets."""
    return _COMMITMENT_LABEL + check_m0(m0) + _COMMITMENT.pack(challenger_id, count) + bytes(root)


def hash_packet_set(entries: Iterable[tuple[int, bytes]]) -> bytes:
    """Canonical SHA-256 digest of a set of (sequence, secret) pairs.

    Entries are sorted ascending by sequence number and serialized as
    4-byte big-endian sequence followed by the 32-byte secret, so the
    digest is independent of arrival order. The empty set hashes the
    empty string.
    """
    pack = SEQUENCE.pack
    parts = []
    seen = -1
    for seq, secret in sorted(entries, key=_BY_SEQUENCE):
        # one combined test on the common path; sorted, so seq >= seen
        if not (seen < seq < 2**32 and len(secret) == DIGEST_LEN):
            if not 0 <= seq < 2**32:
                raise ValueError(f"sequence {seq} out of u32 range")
            if seq == seen:
                raise ValueError(f"duplicate sequence {seq}")
            raise ValueError(f"secret for sequence {seq} must be {DIGEST_LEN} bytes, got {len(secret)}")
        seen = seq
        parts.append(pack(seq))
        parts.append(secret)
    return hashlib.sha256(b"".join(parts)).digest()


def merkle_levels(leaves: Sequence[bytes]) -> list[bytes]:
    """Every level of the tree over leaves, padded to a power of two by repeating
    the last leaf, each as its hashes joined: the leaf hashes first, the root last.

    A level's padded tail is one node repeated, so it is hashed once: each
    level is kept as its distinct nodes and the node that repeats after them.
    """
    if not leaves:
        raise ValueError("merkle tree needs at least one leaf")
    if set(map(len, leaves)) != {DIGEST_LEN}:
        i, leaf = next((i, leaf) for i, leaf in enumerate(leaves) if len(leaf) != DIGEST_LEN)
        raise ValueError(f"leaf {i} must be {DIGEST_LEN} bytes, got {len(leaf)}")
    sha256 = hashlib.sha256
    width = 1 << (len(leaves) - 1).bit_length()
    level = [sha256(_LEAF_PREFIX + leaf).digest() for leaf in leaves]
    pad = level[-1]
    levels = []
    while True:
        levels.append(b"".join(level) + pad * (width - len(level)))
        if width == 1:
            return levels
        if len(level) & 1:
            level.append(pad)
        level = [sha256(_NODE_PREFIX + left + right).digest() for left, right in zip(level[::2], level[1::2])]
        pad = sha256(_NODE_PREFIX + pad + pad).digest()
        width >>= 1


class MerklePath:
    """Leaf `index`'s audit path in the tree of `merkle_levels` `levels`:
    its sibling hashes bottom-up, each read from the levels when indexed,
    so that the paths of one tree share its nodes; a `Commitment`'s are
    built at the first read."""

    __slots__ = ("_levels", "_index")

    def __init__(self, levels: Sequence[bytes], index: int):
        self._levels, self._index = levels, index

    def __len__(self) -> int:
        return len(self._levels) - 1

    def __getitem__(self, depth: int) -> bytes:
        if not 0 <= depth < len(self):
            raise IndexError(depth)
        at = ((self._index >> depth) ^ 1) * DIGEST_LEN
        return self._levels[depth][at : at + DIGEST_LEN]


class SignedRoot(NamedTuple):
    """A challenger's commitment as a probe carries it on the wire: the root
    of the tree over its N secrets, and its signature of `commitment_message`."""

    root: bytes
    signature: bytes


class Commitment:
    """A challenger's signed commitment, made by `build()` at the first read
    of `levels` (the `merkle_levels` of the tree over its N secrets, which
    indexing reads, for its probes' `MerklePath`s), `root` or `signature`.
    Only that closure holds a key or a secret; it is dropped once called."""

    __slots__ = ("_build", "levels", "root", "signature")

    def __init__(self, build: Callable[[], tuple[list[bytes], bytes]]):
        self._build = build

    def __getattr__(self, name: str):
        # reached only while the built slots are unset
        if name not in ("levels", "root", "signature"):
            raise AttributeError(name)
        self.levels, self.signature = self._build()
        self.root, self._build = self.levels[-1], None
        return getattr(self, name)

    def __len__(self) -> int:
        return len(self.levels)

    def __getitem__(self, depth: int) -> bytes:
        return self.levels[depth]


def merkle_root(leaves: Sequence[bytes]) -> bytes:
    """Root over leaves, padded to a power of two by repeating the last leaf."""
    return merkle_levels(leaves)[-1]


def merkle_prove(leaves: Sequence[bytes], index: int) -> tuple[bytes, ...]:
    """Inclusion proof for leaves[index] against merkle_root(leaves): the
    sibling hashes bottom-up, RFC 6962's audit path for that leaf index."""
    if not 0 <= index < len(leaves):
        raise ValueError(f"leaf index {index} out of range for {len(leaves)} leaves")
    return tuple(MerklePath(merkle_levels(leaves), index))


def multiproof(paths: dict[int, Sequence[bytes]]) -> tuple[bytes, ...]:
    """The nodes that, with the leaves at the keys of `paths`, rebuild the
    root that each leaf's path (bottom-up siblings, all of one tree) leads
    to: level by level from the leaves up, the siblings of the nodes the
    leaves give that the leaves do not give, in index order."""
    nodes: list[bytes] = []
    under = dict(paths)  # node index at this level -> the path of a leaf under it
    for depth in range(len(next(iter(paths.values()), ()))):
        nodes.extend(path[depth] for index, path in sorted(under.items()) if index ^ 1 not in under)
        under = {index >> 1: path for index, path in under.items()}
    return tuple(nodes)


def multiproof_root(leaves: dict[int, bytes], nodes: Sequence[bytes], depth: int) -> bytes | None:
    """The root that leaves (index -> leaf, every index below 2**depth) and
    `multiproof`'s nodes rebuild; None if the nodes are too few, too many or
    not digests."""
    sha256 = hashlib.sha256
    level = {index: sha256(_LEAF_PREFIX + leaf).digest() for index, leaf in leaves.items()}
    given = iter(nodes)
    for _ in range(depth):
        up = {}
        for index in sorted(level):
            if index >> 1 in up:
                continue  # joined with its left sibling
            sibling = level.get(index ^ 1) or next(given, None)
            if not isinstance(sibling, (bytes, bytearray)) or len(sibling) != DIGEST_LEN:
                return None
            pair = sibling + level[index] if index & 1 else level[index] + sibling
            up[index >> 1] = sha256(_NODE_PREFIX + pair).digest()
        level = up
    return level[0] if next(given, None) is None and list(level) == [0] else None


def merkle_verify(root: bytes, leaf: bytes, index: int, siblings: Sequence[bytes]) -> bool:
    """True iff leaf sits at `index` under root, by the bottom-up sibling
    hashes `merkle_prove` gives: what `multiproof_root` gives for one leaf,
    walked as a plain loop. Malformed input returns False."""
    if not all(isinstance(x, (bytes, bytearray)) and len(x) == DIGEST_LEN for x in (root, leaf)):
        return False
    if not 0 <= index < 2 ** len(siblings):
        return False
    sha256 = hashlib.sha256
    node = sha256(_LEAF_PREFIX + leaf).digest()
    for sibling in siblings:
        if not isinstance(sibling, (bytes, bytearray)) or len(sibling) != DIGEST_LEN:
            return False
        node = sha256(_NODE_PREFIX + sibling + node if index & 1 else _NODE_PREFIX + node + sibling).digest()
        index >>= 1
    return node == root
