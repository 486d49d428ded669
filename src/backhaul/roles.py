"""Protocol roles: challenger, prover, verifier.

These classes are pure state machines and the whole control plane; they
never touch sockets or clocks. Callers feed each role timestamped
messages through `on_message`, send what `ProverBundle.routes` names and
keep time, so the simulator and the live UDP harness share one routing,
one settle rule (see `Verifier`) and one dispute rule (`at_deadline`).

Counting is capped everywhere at k per challenger. A challenger sends
ceil(rho * k) probes so that loss does not starve the prover, but only
k of them may count toward the measurement: otherwise the overprovision
margin itself would inflate the result by up to rho. The prover applies
the same cap to its own trigger so that a flood from one challenger
cannot substitute for the others.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import pairwise

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


class _SignedOnRead(Sequence):
    """One packet's probe signatures, each made the first time it is read.

    Stands where a packet's tuple of signatures would: indexing (negative
    indexes and slices too), iteration and equality read through the
    challenger's signatures, so a probe that no receipt, dispute or
    encoding reads is never signed.
    """

    __slots__ = ("_challenger", "_base", "_count")

    def __init__(self, challenger: Challenger, base_seq: int, count: int):
        self._challenger = challenger
        self._base = base_seq
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, j):
        try:
            if 0 <= j < self._count:
                q = self._base + j
                sig = self._challenger._sigs.get(q)
                return sig if sig is not None else self._challenger.signature_for(q)
        except TypeError:
            if not isinstance(j, slice):
                raise
            return tuple(self[i] for i in range(*j.indices(self._count)))
        if -self._count <= j < 0:
            return self[j + self._count]
        raise IndexError("signature index out of range")

    def __eq__(self, other):
        if isinstance(other, (tuple, _SignedOnRead)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))


_NONCE = struct.Struct(">Q")


@lru_cache(maxsize=4)
def _train_layout(signatures: int, sigs_per_packet: int, spacing_ns: float) -> tuple:
    """(send offset ns, base_seq, count, nonce) per packet of a probe train.

    The same for every challenger of a run, so it is worked out once.
    """
    pack = _NONCE.pack
    return tuple(
        (
            round(j * spacing_ns),
            j + 1,
            sigs_per_packet if j + sigs_per_packet <= signatures else signatures - j,
            pack(j + 1),
        )
        for j in range(0, signatures, sigs_per_packet)
    )


# a ChallengePacket from its field tuple, without the named tuple's
# Python-level __new__: build_sends makes one per probe
_new_tuple = tuple.__new__


class Challenger:
    """Sends signed probes, times the prover's response, reports to the verifier.

    Probe q is signed the first time anything reads its signature, and at
    most once; withheld, lost and late probes are never signed.
    """

    def __init__(
        self,
        challenger_id: int,
        keypair: KeyPair,
        prover_id: int,
        prover_public_key: bytes,
        params: ChallengeParams,
        schedule: SendSchedule,
    ):
        self.id = challenger_id
        self.keypair = keypair
        self.prover_id = prover_id
        self.prover_public_key = check_public_key(prover_public_key)
        self.params = params
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
        packet's signatures are made when first read."""
        sched = self.schedule
        t1 = self.t_first_ns
        cid = self.id
        return [
            (
                t1 + offset,
                _new_tuple(ChallengePacket, (cid, base, count, nonce, _SignedOnRead(self, base, count))),
            )
            for offset, base, count, nonce in _train_layout(
                sched.signatures, sched.sigs_per_packet, sched.spacing_ns
            )
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
        if not verify(self.prover_public_key, resp.receipt + resp.root, resp.signature):
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
            prover_id=self.prover_id,
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

    def __init__(self, prover_id: int, keypair: KeyPair, params: ChallengeParams):
        self.id = prover_id
        self.keypair = keypair
        self.params = params
        self.received: dict[int, dict[int, ChallengePacket]] = {
            i: {} for i in range(1, params.n + 1)
        }
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

    def capped_total(self) -> int:
        return self._capped

    def on_probe(self, now_ns: int, pkt: ChallengePacket) -> bool:
        """Store fresh sequences; True exactly when this packet trips the threshold.

        Once the response is committed the stored sets are frozen:
        receipts, inclusion proofs, and disputes must all describe the
        same snapshot, so probes arriving afterwards are dropped. The
        threshold condition then guarantees that disputes alone can
        carry the verifier over its own count requirement.
        """
        if self.responded:
            self.late_probes += 1
            return False
        cid, q, count, _, _ = pkt
        store = self.received.get(cid)
        if store is None:
            self.dropped_unknown += 1
            return False
        limit = self._limit
        before = len(store)
        end = q + count
        while q < end:
            if not 1 <= q <= limit:
                self.dropped_seq += 1
            elif q in store:
                self.duplicates += 1
            else:
                store[q] = pkt
            q += 1
        k = self._k
        if before >= k:
            return False  # the capped count cannot move
        after = len(store)
        self._capped += (after if after < k else k) - before
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
                (q, sigs[q - base])
                for q, (_, base, _, _, sigs) in sorted(self.received[challenger_id].items())
            ]
        return signed

    def _build_leaves(self) -> list[bytes]:
        if self._leaves is None:
            self._leaves = [
                hash_packet_set(self._signed(i)) for i in range(1, self.params.n + 1)
            ]
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
        response went out strictly before `now_ns`, else with nothing."""
        if not isinstance(msg, DisputeRequest) or self.trigger_ns is None or self.trigger_ns >= now_ns:
            return None
        return (build_dispute or self.build_dispute)(msg.challenger_id)

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
    and judged once it is known. A lazy verifier (f < n/3, else
    `ParamsError`) gives its verdict when n - f challengers are accounted
    for, the capped count reaches (n - f) * k and at least 2f of them
    reported an RTT, and never on less; a timer-mode one (f < n/2)
    settles at its deadline on what has arrived (`evaluate`).

    An upheld dispute accounts for a challenger with its proven count and
    no RTT; that challenger's report, if it comes later, adds only the RTT.
    """

    def __init__(
        self,
        params: ChallengeParams,
        challenger_public_keys: dict[int, bytes],
        prover_id: int,
        prover_public_key: bytes,
        timer_mode: bool = False,
    ):
        check_corruption_bound(params.n, params.f, timer_mode)
        self.params = params
        self.challenger_public_keys = {
            cid: check_public_key(key) for cid, key in challenger_public_keys.items()
        }
        self.prover_id = prover_id
        self.prover_public_key = check_public_key(prover_public_key)
        self.timer_mode = timer_mode
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
        if not verify(self.prover_public_key, resp.receipt + resp.root, resp.signature):
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
        if cid not in self.challenger_public_keys:
            self.rejections.append((cid, "unknown_challenger"))
            return
        if rpt.prover_id != self.prover_id:
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
        pk = self.challenger_public_keys.get(cid)
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
