"""Protocol roles: challenger, prover, verifier.

These classes are pure state machines and the whole control plane; they
never touch sockets or clocks. Every role of one run is built from one
`Session`, what all parties agree on before it starts, and its own
keypair. Callers feed each role timestamped messages through
`on_message`, send what `ProverBundle.routes` names and keep time, so
the simulator and the live UDP harness share one set-up, one routing,
one settle rule (see `Verifier`) and one dispute rule (`at_deadline`,
answered once per id by `Prover.on_message`).

Counting is capped everywhere at k per challenger. A challenger sends
ceil(rho * k) probes so that loss does not starve the prover, but only
k of them may count toward the measurement: otherwise the overprovision
margin itself would inflate the result by up to rho. The prover applies
the same cap to its own trigger so that a flood from one challenger
cannot substitute for the others.
"""

from __future__ import annotations

import os
import struct
import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import pairwise

from .config import AttackSpec
from .crypto import (
    SEQUENCE,
    KeyPair,
    MerkleProof,
    check_m0,
    check_public_key,
    hash_packet_set,
    merkle_prove,
    merkle_root,
    merkle_verify,
    probe_message,
    sign,
    verify,
)
from .schedule import DEFAULT_TIMEOUT_FACTOR, ChallengeParams, SendSchedule, check_corruption_bound
from .wire import (
    ChallengePacket,
    ChallengerReport,
    DisputeRequest,
    DisputeSubmission,
    ResponsePacket,
    VerificationMessage,
    bitmap_from_sequences,
    sequences_from_bitmap,
)


@dataclass(frozen=True)
class Session:
    """What every party of one run agrees on before it starts; no secret key.

    Building one refuses any public key `check_public_key` refuses and any f
    its verifier mode cannot tolerate, so the roles take it as checked. The
    verifier requests its disputes, and settles, at `deadline_ns`; `attack`
    is resolved by `adversary.AttackPlan`.
    """

    params: ChallengeParams
    prover_id: int
    prover_public_key: bytes
    challenger_public_keys: dict[int, bytes]
    deadline_ns: int
    timer_mode: bool = False
    attack: AttackSpec = AttackSpec()

    def __post_init__(self):
        # a copy of its own: the caller's dict may change after the checks
        object.__setattr__(self, "challenger_public_keys", dict(self.challenger_public_keys))
        check_corruption_bound(self.params.n, self.params.f, self.timer_mode)
        for key in (self.prover_public_key, *self.challenger_public_keys.values()):
            check_public_key(key)


def upper_median(values):
    """Element at index floor(m/2) of the sorted values (the larger middle).

    With at most f adversarial values among m >= 2f, at least one honest
    value lies at or below it, so low values alone cannot choose it; with
    m >= 2f + 1 honest values bound it on both sides.
    """
    if not values:
        raise ValueError("upper_median of empty sequence")
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


@dataclass(frozen=True)
class PoBOutput:
    """Verifier verdict for one challenge."""

    measured_bps: float
    guaranteed_bps: float
    delta_ns: int
    cnt: int
    reports_used: int
    disputes_upheld: int
    per_challenger: tuple[tuple[int, int], ...]


VERIFIER = 0  # the root's destination in `ProverBundle.routes`; challengers are 1..n


class _SignatureOnRead:
    """Probe q's signature in a challenger's own packet: `bytes()` of it
    signs the probe through `Challenger.signature_for`, so a probe that no
    receipt, dispute or encoding reads is never signed."""

    __slots__ = ("_challenger", "_q")

    def __init__(self, challenger: Challenger, q: int):
        self._challenger = challenger
        self._q = q

    def __bytes__(self) -> bytes:
        return self._challenger.signature_for(self._q)


_NONCE = struct.Struct(">Q")


@lru_cache(maxsize=4)
def _train_layout(signatures: int, spacing_ns: float) -> tuple:
    """(send offset ns, sequence, nonce) per probe of a train.

    The same for every challenger of a run, so it is worked out once.
    """
    pack = _NONCE.pack
    return tuple((round((q - 1) * spacing_ns), q, pack(q)) for q in range(1, signatures + 1))


# a ChallengePacket from its field tuple, without the named tuple's
# Python-level __new__: build_sends makes one per probe
_new_tuple = tuple.__new__


class Challenger:
    """Sends signed probes, times the prover's response, reports to the verifier.

    Probe q is signed the first time anything reads its signature, and at
    most once; withheld, lost and late probes are never signed.
    """

    def __init__(self, session: Session, challenger_id: int, keypair: KeyPair, schedule: SendSchedule):
        self.id = challenger_id
        self.keypair = keypair
        self.session = session
        self.params = params = session.params
        self.schedule = schedule
        self.t_first_ns = schedule.first_send_ns[challenger_id - 1]
        # no response by this local time is a timeout
        self.give_up_ns = self.t_first_ns + round(DEFAULT_TIMEOUT_FACTOR * params.duration_ns)
        self.latency_ns = schedule.latency_ns[challenger_id - 1]
        self._limit = params.signatures_per_challenger
        self._m0 = check_m0(params.m0)
        self._sigs: dict[int, bytes] = {}
        self.delta_ns: int | None = None
        self.receipt: bytes | None = None
        self.root_seen: bytes | None = None
        self.acked_count: int | None = None
        self.report_sent = False
        self.failure: str | None = None
        self.events: list[str] = []
        self._stashed_verification: VerificationMessage | None = None

    def signature_for(self, sequence: int) -> bytes:
        """Signature of probe `sequence`, made on its first read."""
        sig = self._sigs.get(sequence)
        if sig is None:
            if not 1 <= sequence <= self._limit:
                raise KeyError(sequence)
            sig = sign(self.keypair.secret_key, SEQUENCE.pack(sequence) + self._m0)
            self._sigs[sequence] = sig
        return sig

    def build_sends(self) -> list[tuple[int, ChallengePacket]]:
        """(send_time_ns, packet) pairs for the whole probe train; each
        probe's signature is made when first read."""
        sched = self.schedule
        t1 = self.t_first_ns
        cid = self.id
        return [
            (t1 + offset, _new_tuple(ChallengePacket, (cid, q, nonce, _SignatureOnRead(self, q))))
            for offset, q, nonce in _train_layout(sched.signatures, sched.spacing_ns)
        ]

    def on_message(self, now_ns: int, msg) -> ChallengerReport | None:
        """Take a response or a verification; the report for the verifier, once."""
        if isinstance(msg, ResponsePacket):
            return self.on_response(now_ns, msg)
        if isinstance(msg, VerificationMessage):
            return self.on_verification(now_ns, msg)
        return None

    def on_response(self, now_ns: int, resp: ResponsePacket) -> ChallengerReport | None:
        """First valid response freezes the timing measurement; returns the
        report that a verification stashed before it yields."""
        if self.delta_ns is not None or self.failure is not None:
            return None
        if not verify(self.session.prover_public_key, resp.receipt + resp.root, resp.signature):
            self.events.append("response_bad_signature")
            return None
        delta = now_ns - self.t_first_ns - 2 * self.latency_ns
        if delta <= 0:
            # a response cannot legitimately beat the round trip; a
            # prover that answered before our data reached it is cheating
            self.failure = "early_response"
            self.events.append(f"early_response delta={delta}")
            return None
        self.delta_ns = delta
        self.receipt = resp.receipt
        self.root_seen = resp.root
        stashed, self._stashed_verification = self._stashed_verification, None
        return None if stashed is None else self.on_verification(now_ns, stashed)

    def on_verification(self, now_ns: int, msg: VerificationMessage) -> ChallengerReport | None:
        """Check the prover's receipt really covers probes we sent, then report.

        A verification that outruns its response is stashed and replayed
        once the response lands; datagrams may reorder in transit.
        """
        if self.delta_ns is None and self.failure is None and not self.report_sent:
            self._stashed_verification = msg
            return None
        if self.delta_ns is None or self.report_sent:
            return None
        if msg.challenger_id != self.id:
            self.events.append("verification_wrong_id")
            return None
        if msg.bitmap_bits != self._limit:
            self.failure = "bitmap_size"
            return None
        made = self._sigs
        entries = [
            (q, made.get(q) or self.signature_for(q))
            for q in sequences_from_bitmap(msg.bitmap, msg.bitmap_bits)
        ]
        if hash_packet_set(entries) != self.receipt:
            self.failure = "receipt_mismatch"
            return None
        if msg.leaf_index != self.id - 1:
            self.failure = "leaf_index"
            return None
        proof = MerkleProof(msg.leaf_index, msg.siblings)
        if not merkle_verify(self.root_seen, self.receipt, proof):
            self.failure = "receipt_not_in_root"
            return None
        self.acked_count = msg.acked_count
        self.report_sent = True
        return ChallengerReport(
            challenger_id=self.id,
            prover_id=self.session.prover_id,
            merkle_root_seen=self.root_seen,
            rtt_ns=self.delta_ns,
            packets_acknowledged=msg.acked_count,
        )


@dataclass(frozen=True)
class ProverBundle:
    """Everything the prover emits when its threshold trips."""

    responses: dict[int, ResponsePacket]
    announcement: ResponsePacket
    verifications: dict[int, VerificationMessage]

    def routes(self) -> list[tuple[int, tuple]]:
        """(destination, messages) in send order: each challenger's response
        and verification, by id, then the root to `VERIFIER`."""
        out = [(i, (r, self.verifications[i])) for i, r in self.responses.items()]
        out.append((VERIFIER, (self.announcement,)))
        return out


class Prover:
    """Collects probes and answers once enough of the target volume arrived.

    Probe signatures are not checked, nor even read, on the hot path:
    for each sequence number the prover keeps the packet that first
    brought it, and reads the signature bytes only at the freeze, for
    receipts and disputes. Any count the verifier doubts must be proven
    later with the signatures themselves.
    """

    def __init__(self, session: Session, keypair: KeyPair):
        self.keypair = keypair
        self.params = params = session.params
        self.received: dict[int, dict[int, ChallengePacket]] = {i: {} for i in range(1, params.n + 1)}
        self.responded = False
        self.trigger_ns: int | None = None
        self.dropped_unknown = 0
        self.dropped_seq = 0
        self.duplicates = 0
        self.late_probes = 0
        self._leaves: list[bytes] | None = None
        self._frozen: dict[int, list[tuple[int, bytes]]] = {}
        self._limit = params.signatures_per_challenger
        self._k = params.k
        self._threshold = params.threshold
        self._capped = 0  # sum over challengers of min(stored, k)
        self._disputed: set[int] = set()  # ids whose dispute request was answered

    def capped_total(self) -> int:
        return self._capped

    def on_probe(self, now_ns: int, pkt: ChallengePacket) -> bool:
        """Store a fresh probe; True exactly when it trips the threshold.

        Once the response is committed the stored sets are frozen:
        receipts, inclusion proofs, and disputes must all describe the
        same snapshot, so probes arriving afterwards are dropped. The
        threshold condition then guarantees that disputes alone can
        carry the verifier over its own count requirement.
        """
        if self.responded:
            self.late_probes += 1
            return False
        cid, q, _, _ = pkt
        store = self.received.get(cid)
        if store is None:
            self.dropped_unknown += 1
            return False
        if not 1 <= q <= self._limit:
            self.dropped_seq += 1
            return False
        if q in store:
            self.duplicates += 1
            return False
        store[q] = pkt
        if len(store) > self._k:
            return False  # the capped count cannot move
        self._capped += 1
        if self._capped >= self._threshold:
            self.responded = True
            self.trigger_ns = now_ns
            return True
        return False

    def force_respond(self, now_ns: int) -> bool:
        """Commit to a response now, regardless of the threshold."""
        if self.responded:
            return False
        self.responded = True
        self.trigger_ns = now_ns
        return True

    def _signed(self, challenger_id: int) -> list[tuple[int, bytes]]:
        """(q, signature) for each stored probe, by q; reads the signatures
        once per challenger, at the freeze."""
        signed = self._frozen.get(challenger_id)
        if signed is None:
            signed = self._frozen[challenger_id] = [
                (q, bytes(pkt.signature)) for q, pkt in sorted(self.received[challenger_id].items())
            ]
        return signed

    def _build_leaves(self) -> list[bytes]:
        """Each challenger's receipt, by id, made once at the freeze.

        The receipts are shared out by id over the CPUs this process may
        use, the ids interleaved: share w takes ids w, w + W, ... . The
        caller computes share 1 and starts a thread for each other share,
        and joins them all before the leaves are used. Threads are enough
        because libsodium signs through ctypes, which releases the GIL.
        Every packet stored under id i is one of challenger i's, and signs
        through that challenger's cache, so one thread reads it and each
        probe is signed once. A failure raises what the serial loop would:
        that of the lowest failing id.
        """
        if self._leaves is None:
            n = self.params.n
            width = min(n, len(os.sched_getaffinity(0)))
            leaves: list[bytes] = [b""] * n
            failures: dict[int, BaseException] = {}

            def share(first: int) -> None:
                for i in range(first, n + 1, width):
                    try:
                        leaves[i - 1] = hash_packet_set(self._signed(i))
                    except BaseException as exc:  # raised on the caller, below
                        failures[i] = exc
                        return

            helpers = []
            try:
                for first in range(2, width + 1):
                    helper = threading.Thread(target=share, args=(first,))
                    helper.start()
                    helpers.append(helper)
                share(1)
            finally:
                for helper in helpers:
                    helper.join()
            if failures:
                raise failures[min(failures)]
            self._leaves = leaves
        return self._leaves

    def build_responses(self) -> ProverBundle:
        """Receipts, tree root, and per-challenger inclusion evidence."""
        leaves = self._build_leaves()
        root = merkle_root(leaves)
        responses = {}
        verifications = {}
        total_bits = self._limit
        for i in range(1, self.params.n + 1):
            leaf = leaves[i - 1]
            responses[i] = ResponsePacket(
                receipt=leaf,
                root=root,
                signature=sign(self.keypair.secret_key, leaf + root),
            )
            signed = self._signed(i)
            proof = merkle_prove(leaves, i - 1)
            verifications[i] = VerificationMessage(
                challenger_id=i,
                acked_count=len(signed),
                bitmap_bits=total_bits,
                bitmap=bitmap_from_sequences([q for q, _ in signed], total_bits),
                leaf_index=i - 1,
                siblings=proof.siblings,
            )
        announcement = ResponsePacket(
            receipt=bytes(32),
            root=root,
            signature=sign(self.keypair.secret_key, bytes(32) + root),
        )
        return ProverBundle(responses, announcement, verifications)

    def on_message(self, now_ns: int, msg, build_dispute=None) -> DisputeSubmission | None:
        """Answer a `DisputeRequest` by `build_dispute` (default: our own) if the
        response went out strictly before `now_ns` and no earlier request for
        its id was answered, else with nothing."""
        if not isinstance(msg, DisputeRequest) or self.trigger_ns is None or self.trigger_ns >= now_ns:
            return None
        if (cid := msg.challenger_id) in self._disputed:
            return None
        if (dispute := (build_dispute or self.build_dispute)(cid)) is not None:
            self._disputed.add(cid)
        return dispute

    def build_dispute(self, challenger_id: int) -> DisputeSubmission | None:
        """Raw signed probes proving the count for one challenger."""
        if not self.responded or challenger_id not in self.received:
            return None
        leaves = self._build_leaves()
        proof = merkle_prove(leaves, challenger_id - 1)
        return DisputeSubmission(
            challenger_id=challenger_id,
            packets=tuple(self._signed(challenger_id)),
            leaf_index=challenger_id - 1,
            siblings=proof.siblings,
        )


class Verifier:
    """Aggregates reports into a bandwidth verdict.

    Reports and disputes that arrive before the prover's root are held
    and judged once it is known. A lazy verifier (f < n/3; its `Session`
    refuses more) gives its verdict when n - f challengers are accounted
    for, the capped count reaches (n - f) * k and at least 2f of them
    reported an RTT, and never on less; a timer-mode one (f < n/2)
    settles at its deadline on what has arrived (`evaluate`).

    An upheld dispute accounts for a challenger with its proven count and
    no RTT; that challenger's report, if it comes later, adds only the RTT.
    """

    def __init__(self, session: Session):
        self.session = session
        self.params = session.params
        self.timer_mode = session.timer_mode
        self.root: bytes | None = None
        self.entries: dict[int, tuple[int, int | None]] = {}
        self.rejections: list[tuple[int, str]] = []
        self.disputes_upheld = 0
        self.output: PoBOutput | None = None
        self.output_ns: int | None = None
        self._buffer: list = []

    def on_message(self, now_ns: int, msg) -> bool:
        """Take a root, a report or a dispute; True when a dispute is upheld."""
        if isinstance(msg, ResponsePacket):
            self.on_root(now_ns, msg)
        elif isinstance(msg, ChallengerReport):
            self.on_report(now_ns, msg)
        elif isinstance(msg, DisputeSubmission):
            return self.on_dispute(now_ns, msg)
        return False

    def on_root(self, now_ns: int, resp: ResponsePacket) -> None:
        if self.root is not None:
            return
        if not verify(self.session.prover_public_key, resp.receipt + resp.root, resp.signature):
            self.rejections.append((0, "root_bad_signature"))
            return
        self.root = resp.root
        pending, self._buffer = self._buffer, []
        for msg in pending:
            self.on_message(now_ns, msg)

    def on_report(self, now_ns: int, rpt: ChallengerReport) -> None:
        if self.output is not None:
            return
        if self.root is None:
            self._buffer.append(rpt)
            return
        cid = rpt.challenger_id
        if cid not in self.session.challenger_public_keys:
            self.rejections.append((cid, "unknown_challenger"))
            return
        if rpt.prover_id != self.session.prover_id:
            self.rejections.append((cid, "wrong_prover"))
            return
        prior = self.entries.get(cid)
        if prior is not None and prior[1] is not None:
            self.rejections.append((cid, "duplicate"))
            return
        if rpt.merkle_root_seen != self.root:
            self.rejections.append((cid, "root_mismatch"))
            return
        if rpt.rtt_ns <= 0:
            self.rejections.append((cid, "nonpositive_rtt"))
            return
        # after an upheld dispute, its proven count stands
        count = min(rpt.packets_acknowledged, self.params.k) if prior is None else prior[0]
        self.entries[cid] = (count, rpt.rtt_ns)
        self._maybe_emit(now_ns)

    def on_dispute(self, now_ns: int, d: DisputeSubmission) -> bool:
        """Recount one challenger from raw signed probes. True if upheld."""
        if self.output is not None:
            return False
        if self.root is None:
            self._buffer.append(d)
            return False
        cid = d.challenger_id
        pk = self.session.challenger_public_keys.get(cid)
        if pk is None:
            self.rejections.append((cid, "dispute_unknown_challenger"))
            return False
        if cid in self.entries:
            return False
        if d.leaf_index != cid - 1:
            self.rejections.append((cid, "dispute_leaf_index"))
            return False
        limit = self.params.signatures_per_challenger
        if len(d.packets) > limit or any(
            a >= b for (a, _), (b, _) in pairwise(d.packets)
        ):
            # the datagram decoder's rule, checked before any verify
            self.rejections.append((cid, "dispute_malformed"))
            return False
        for q, sig in d.packets:
            if not 1 <= q <= limit or not verify(
                pk, probe_message(q, self.params.m0), sig
            ):
                self.rejections.append((cid, "dispute_bad_signature"))
                return False
        leaf = hash_packet_set(d.packets)
        if not merkle_verify(self.root, leaf, MerkleProof(d.leaf_index, d.siblings)):
            self.rejections.append((cid, "dispute_proof"))
            return False
        self.entries[cid] = (min(len(d.packets), self.params.k), None)
        self.disputes_upheld += 1
        self._maybe_emit(now_ns)
        return True

    def at_deadline(self) -> list[DisputeRequest]:
        """The dispute rule, run at the deadline: a request to the prover for each
        challenger with no accepted report or upheld dispute, none after a verdict."""
        if self.output is not None:
            return []
        return [DisputeRequest(i) for i in range(1, self.params.n + 1) if i not in self.entries]

    def cnt(self) -> int:
        return sum(count for count, _ in self.entries.values())

    def _maybe_emit(self, now_ns: int) -> None:
        if self.timer_mode or self.output is not None:
            return
        p = self.params
        if len(self.entries) < p.n - p.f:
            return
        if self.cnt() < p.threshold:
            return
        # the upper median of m RTTs sits at index floor(m/2); m >= 2f puts
        # at least f samples below it, so f corrupt ones cannot choose it
        if sum(rtt is not None for _, rtt in self.entries.values()) < 2 * p.f:
            return
        self._emit(now_ns)

    def evaluate(self, now_ns: int) -> PoBOutput | None:
        """Deadline evaluation: a timer-mode verifier settles for whatever
        has been accepted; a lazy one keeps only a verdict it already has."""
        if self.timer_mode and self.output is None and self.entries:
            self._emit(now_ns)
        return self.output

    def _emit(self, now_ns: int) -> None:
        rtts = [rtt for _, rtt in self.entries.values() if rtt is not None]
        if not rtts:
            return
        p = self.params
        delta = upper_median(rtts)
        cnt = self.cnt()
        measured = cnt * p.b * 8 * 1e9 / delta
        guaranteed = measured * ((p.n - 2 * p.f) / (p.n - p.f))
        self.output = PoBOutput(
            measured_bps=measured,
            guaranteed_bps=guaranteed,
            delta_ns=delta,
            cnt=cnt,
            reports_used=len(rtts),
            disputes_upheld=self.disputes_upheld,
            per_challenger=tuple(sorted((i, c) for i, (c, _) in self.entries.items())),
        )
        self.output_ns = now_ns
