"""Protocol roles: challenger, prover, verifier.

These classes are pure state machines and the whole control plane; they
never touch sockets or clocks. Callers feed each role timestamped
messages through `on_message`, send what `ProverBundle.routes` names and
keep time, so the simulator and the live UDP harness share one routing
and one settle rule (see `Verifier`).

Counting is capped everywhere at k per challenger. A challenger sends
ceil(rho * k) probes so that loss does not starve the prover, but only
k of them may count toward the measurement: otherwise the overprovision
margin itself would inflate the result by up to rho. The prover applies
the same cap to its own trigger so that a flood from one challenger
cannot substitute for the others.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .crypto import (
    KeyPair,
    MerkleProof,
    hash_packet_set,
    merkle_prove,
    merkle_root,
    merkle_verify,
    probe_message,
    sign,
    verify,
)
from .schedule import ChallengeParams, SendSchedule
from .wire import (
    ChallengePacket,
    ChallengerReport,
    DisputeSubmission,
    ResponsePacket,
    VerificationMessage,
    bitmap_from_sequences,
    sequences_from_bitmap,
)


def upper_median(values):
    """Element at index floor(m/2) of the sorted values (the larger middle).

    With m >= n - f values of which at most f are adversarial and
    f < n/3, this index always lands on an honestly reported value.
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


class Challenger:
    """Sends signed probes, times the prover's response, reports to the verifier."""

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
        self.prover_public_key = prover_public_key
        self.params = params
        self.schedule = schedule
        self.t_first_ns = schedule.first_send_ns[challenger_id - 1]
        self.latency_ns = schedule.latency_ns[challenger_id - 1]
        total = params.signatures_per_challenger
        self._sigs = {
            q: sign(keypair.secret_key, probe_message(q, params.m0))
            for q in range(1, total + 1)
        }
        self.delta_ns: int | None = None
        self.receipt: bytes | None = None
        self.root_seen: bytes | None = None
        self.acked_count: int | None = None
        self.report_sent = False
        self.failure: str | None = None
        self.events: list[str] = []
        self._stashed_verification: VerificationMessage | None = None

    def signature_for(self, sequence: int) -> bytes:
        return self._sigs[sequence]

    def build_sends(self) -> list[tuple[int, ChallengePacket]]:
        """(send_time_ns, packet) pairs for the whole probe train."""
        out = []
        total = self.schedule.signatures
        spp = self.schedule.sigs_per_packet
        spacing = self.schedule.spacing_ns
        t1 = self.t_first_ns
        sigs = list(self._sigs.values())  # sequence q at index q - 1
        for j in range(0, total, spp):
            pkt = ChallengePacket(
                challenger_id=self.id,
                base_seq=j + 1,
                count=min(spp, total - j),
                nonce=struct.pack(">Q", j + 1),
                signatures=tuple(sigs[j : j + spp]),
            )
            out.append((t1 + round(j * spacing), pkt))
        return out

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
        if msg.bitmap_bits != len(self._sigs):
            self.failure = "bitmap_size"
            return None
        seqs = sequences_from_bitmap(msg.bitmap, msg.bitmap_bits)
        entries = [(q, self._sigs[q]) for q in seqs]
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

    Probe signatures are not checked on the hot path; storing them is
    enough, because any count the verifier doubts must be proven later
    with the signatures themselves.
    """

    def __init__(self, prover_id: int, keypair: KeyPair, params: ChallengeParams):
        self.id = prover_id
        self.keypair = keypair
        self.params = params
        self.received: dict[int, dict[int, bytes]] = {
            i: {} for i in range(1, params.n + 1)
        }
        self.responded = False
        self.trigger_ns: int | None = None
        self.dropped_unknown = 0
        self.dropped_seq = 0
        self.duplicates = 0
        self.late_probes = 0
        self._leaves: list[bytes] | None = None
        self._limit = params.signatures_per_challenger
        self._k = params.k
        self._threshold = params.threshold
        self._capped = 0  # sum over challengers of min(stored, k)

    def capped_total(self) -> int:
        return self._capped

    def on_probe(self, now_ns: int, pkt: ChallengePacket) -> bool:
        """Store fresh signatures; True exactly when this packet trips the threshold.

        Once the response is committed the stored sets are frozen:
        receipts, inclusion proofs, and disputes must all describe the
        same snapshot, so probes arriving afterwards are dropped. The
        threshold condition then guarantees that disputes alone can
        carry the verifier over its own count requirement.
        """
        if self.responded:
            self.late_probes += 1
            return False
        store = self.received.get(pkt.challenger_id)
        if store is None:
            self.dropped_unknown += 1
            return False
        limit = self._limit
        before = len(store)
        for q, sig in zip(pkt.sequences(), pkt.signatures):
            if not 1 <= q <= limit:
                self.dropped_seq += 1
                continue
            if q in store:
                self.duplicates += 1
                continue
            store[q] = sig
        after = len(store)
        if after == before:
            return False
        k = self._k
        self._capped += min(after, k) - min(before, k)
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

    def _build_leaves(self) -> list[bytes]:
        if self._leaves is None:
            self._leaves = [
                hash_packet_set(sorted(self.received[i].items()))
                for i in range(1, self.params.n + 1)
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
            seqs = sorted(self.received[i])
            proof = merkle_prove(leaves, i - 1)
            verifications[i] = VerificationMessage(
                challenger_id=i,
                acked_count=len(seqs),
                bitmap_bits=total_bits,
                bitmap=bitmap_from_sequences(seqs, total_bits),
                leaf_index=i - 1,
                siblings=proof.siblings,
            )
        announcement = ResponsePacket(
            receipt=bytes(32),
            root=root,
            signature=sign(self.keypair.secret_key, bytes(32) + root),
        )
        return ProverBundle(responses, announcement, verifications)

    def build_dispute(self, challenger_id: int) -> DisputeSubmission | None:
        """Raw signed probes proving the count for one challenger."""
        if not self.responded or challenger_id not in self.received:
            return None
        leaves = self._build_leaves()
        proof = merkle_prove(leaves, challenger_id - 1)
        return DisputeSubmission(
            challenger_id=challenger_id,
            packets=tuple(sorted(self.received[challenger_id].items())),
            leaf_index=challenger_id - 1,
            siblings=proof.siblings,
        )


class Verifier:
    """Aggregates reports into a bandwidth verdict.

    Reports and disputes that arrive before the prover's root are held
    and judged once it is known. A lazy verifier (f < n/3) gives its
    verdict when n - f challengers are accounted for and the capped count
    reaches (n - f) * k, and never on less; a timer-mode one (f < n/2)
    settles at its deadline on whatever has arrived (`evaluate`).
    """

    def __init__(
        self,
        params: ChallengeParams,
        challenger_public_keys: dict[int, bytes],
        prover_id: int,
        prover_public_key: bytes,
        timer_mode: bool = False,
    ):
        self.params = params
        self.challenger_public_keys = dict(challenger_public_keys)
        self.prover_id = prover_id
        self.prover_public_key = prover_public_key
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
        if cid in self.entries:
            self.rejections.append((cid, "duplicate"))
            return
        if rpt.merkle_root_seen != self.root:
            self.rejections.append((cid, "root_mismatch"))
            return
        if rpt.rtt_ns <= 0:
            self.rejections.append((cid, "nonpositive_rtt"))
            return
        self.entries[cid] = (min(rpt.packets_acknowledged, self.params.k), rpt.rtt_ns)
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

    def missing_ids(self) -> list[int]:
        """Challengers with no accepted report or upheld dispute yet."""
        return [
            i for i in range(1, self.params.n + 1) if i not in self.entries
        ]

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
