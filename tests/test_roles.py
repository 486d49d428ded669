"""Role state machines driven by hand, with hand-computed expectations."""

import dataclasses
import hashlib
import json
import os
import random
import sys
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_result_digests import ROOT, load_script

from backhaul import roles, wire
from backhaul.config import parse_scenario
from backhaul.crypto import hash_packet_set, keygen, probe_message, sign
from backhaul.netsim import run_scenario
from backhaul.roles import VERIFIER, Challenger, Prover, Session, Verifier, upper_median
from backhaul.schedule import ParamsError, RatePolicy, derive_params, send_schedule
from backhaul.wire import (
    ChallengePacket,
    ChallengerReport,
    DisputeRequest,
    DisputeSubmission,
    VerificationMessage,
    bitmap_from_sequences,
)

PROVER_ID = 77
MS = 1_000_000


def world(
    n=3,
    f=0,
    k=5,
    rho=1.0,
    policy=RatePolicy.PER_N,
    latencies=None,
    timer_mode=False,
    seed=1,
):
    """Tiny protocol instance with exact k and theta0 = 1 Mbit/s."""
    m = n if policy is RatePolicy.PER_N else n - f
    theta = 1_000_000.0 * m
    duration_ns = round(k * m * 1514 * 8 / theta * 1e9)
    m0 = hashlib.sha256(f"m0:{seed}".encode()).digest()
    params = derive_params(
        theta,
        n,
        f,
        duration_ns,
        rate_policy=policy,
        overprovision=rho,
        m0=m0,
        timer_mode=timer_mode,
    )
    assert params.k == k
    sched = send_schedule(params, latencies or [0] * n)
    ckeys = {
        i: keygen(hashlib.sha256(f"ck:{seed}:{i}".encode()).digest())
        for i in range(1, n + 1)
    }
    pkey = keygen(hashlib.sha256(f"pk:{seed}".encode()).digest())
    session = Session(
        params,
        PROVER_ID,
        pkey.public_key,
        {i: ckeys[i].public_key for i in range(1, n + 1)},
        deadline_ns=3 * duration_ns,
        timer_mode=timer_mode,
    )
    challengers = {i: Challenger(session, i, ckeys[i], sched) for i in range(1, n + 1)}
    return SimpleNamespace(
        session=session,
        params=params,
        schedule=sched,
        challengers=challengers,
        prover=Prover(session, pkey),
        verifier=Verifier(session),
        keys=ckeys,
        prover_key=pkey,
    )


def counting(monkeypatch, name):
    """Replace roles.<name> with a wrapper; the returned list grows by one per call."""
    calls = []
    real = getattr(roles, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(roles, name, wrapper)
    return calls


def deliver_all(w, skip=()):
    """Feed every scheduled probe to the prover, interleaved by sequence."""
    trains = {i: c.build_sends() for i, c in w.challengers.items() if i not in skip}
    depth = max((len(t) for t in trains.values()), default=0)
    trips = []
    for j in range(depth):
        for i, train in trains.items():
            if j < len(train):
                t, pkt = train[j]
                if w.prover.on_probe(t, pkt):
                    trips.append((i, j))
    return trips


def finish(w, respond_at=5 * MS, report_ids=None):
    """Prover responds, challengers verify, verifier ingests reports."""
    bundle = w.prover.build_responses()
    w.verifier.on_root(respond_at, bundle.announcement)
    reports = {}
    for i, c in w.challengers.items():
        c.on_response(respond_at, bundle.responses[i])
        rpt = c.on_verification(respond_at, bundle.verifications[i])
        if rpt is not None:
            reports[i] = rpt
    for i in report_ids if report_ids is not None else sorted(reports):
        w.verifier.on_report(respond_at, reports[i])
    return bundle, reports


class TestUpperMedian:
    def test_small_cases(self):
        assert upper_median([3, 1, 2]) == 2
        assert upper_median([1, 2, 3, 4]) == 3
        assert upper_median([5]) == 5
        with pytest.raises(ValueError):
            upper_median([])

    @settings(max_examples=200)
    @given(
        n=st.integers(4, 16),
        honest=st.data(),
    )
    def test_lands_on_honest_value_under_third_corruption(self, n, honest):
        f = honest.draw(st.integers(0, (n - 1) // 3))
        h = honest.draw(
            st.lists(st.integers(1 * MS, 2 * MS), min_size=n - f, max_size=n - f)
        )
        c = honest.draw(
            st.lists(st.integers(1, 10**12), min_size=f, max_size=f)
        )
        med = upper_median(h + c)
        assert min(h) <= med <= max(h)


class TestHappyPath:
    def test_end_to_end_counts_and_formula(self):
        w = world()
        trips = deliver_all(w)
        assert len(trips) == 1  # threshold trips exactly once
        assert w.prover.capped_total() == 15
        _, reports = finish(w, respond_at=5 * MS)
        assert len(reports) == 3
        out = w.verifier.output
        assert out is not None
        assert out.cnt == 15
        assert out.delta_ns == 5 * MS
        # cnt * b * 8 / delta, in bits per second
        assert out.measured_bps == pytest.approx(15 * 1514 * 8 * 1e9 / (5 * MS))
        assert out.guaranteed_bps == out.measured_bps  # f = 0
        assert out.reports_used == 3
        assert out.per_challenger == ((1, 5), (2, 5), (3, 5))

    def test_trigger_on_exact_packet(self):
        w = world()
        packets = []
        for i, c in w.challengers.items():
            packets.extend(p for _, p in c.build_sends())
        results = [w.prover.on_probe(1000 + j, p) for j, p in enumerate(packets)]
        assert results.index(True) == 14  # the 15th stored probe
        assert sum(results) == 1
        assert w.prover.trigger_ns == 1000 + 14

    def test_delta_subtracts_round_trip(self):
        lat = [10 * MS, 0, 0]
        w = world(latencies=lat)
        deliver_all(w)
        bundle = w.prover.build_responses()
        c1 = w.challengers[1]
        # c1 starts at t0 (it is the slowest), so delta = now - 0 - 2 * 10ms
        c1.on_response(45 * MS, bundle.responses[1])
        assert c1.delta_ns == 25 * MS


class TestCaps:
    def test_overprovision_does_not_inflate_count(self):
        w = world(rho=1.2)  # 6 probes sent, only 5 may count
        assert w.params.signatures_per_challenger == 6
        # one challenger at a time: 1 and 2 land all 6 before the trigger
        for i in (1, 2, 3):
            for t, pkt in w.challengers[i].build_sends():
                w.prover.on_probe(t, pkt)
        assert w.prover.responded
        assert [len(w.prover.received[i]) for i in (1, 2, 3)] == [6, 6, 5]
        assert w.prover.capped_total() == 15
        assert w.prover.late_probes == 1  # 6th probe of challenger 3
        _, reports = finish(w)
        assert [reports[i].packets_acknowledged for i in (1, 2, 3)] == [6, 6, 5]
        out = w.verifier.output
        assert out.cnt == 15  # capped at k per challenger
        assert out.per_challenger == ((1, 5), (2, 5), (3, 5))

    def test_flood_from_one_challenger_cannot_trigger(self):
        w = world(rho=1.2)
        train1 = w.challengers[1].build_sends()
        assert not any(w.prover.on_probe(t, p) for t, p in train1)
        assert w.prover.capped_total() == 5  # 6 stored, 5 count

    def test_misreported_count_capped_by_verifier(self):
        w = world()
        deliver_all(w)
        bundle, reports = finish(w, report_ids=[1, 2])
        huge = ChallengerReport(
            challenger_id=3,
            prover_id=PROVER_ID,
            merkle_root_seen=reports[3].merkle_root_seen,
            rtt_ns=reports[3].rtt_ns,
            packets_acknowledged=4_000_000_000,
        )
        w.verifier.on_report(6 * MS, huge)
        assert w.verifier.entries[3][0] == w.params.k
        assert w.verifier.output.cnt == 15


class TestRunningCount:
    @settings(max_examples=150, deadline=None)
    @given(
        probes=st.lists(
            st.tuples(
                st.integers(0, 4),  # challenger id; 0 and 4 are unknown
                st.integers(0, 8),  # sequence; 0, 7 and 8 are out of range
            ),
            max_size=40,
        )
    )
    def test_capped_total_matches_stores_and_trips_once(self, probes):
        w = world(n=3, k=4, rho=1.5)  # 6 probes per challenger, 4 count
        prover, k, threshold = w.prover, w.params.k, w.params.threshold
        reached = False
        for t, (cid, q) in enumerate(probes):
            pkt = ChallengePacket(cid, q, bytes(8), bytes([q]) * 64)
            tripped = prover.on_probe(t, pkt)
            total = sum(min(len(s), k) for s in prover.received.values())
            assert prover.capped_total() == total
            assert tripped == (not reached and total >= threshold)
            reached = reached or total >= threshold
        assert prover.responded == reached


class TestProverHygiene:
    def test_duplicate_probes_stored_once(self):
        w = world()
        t, pkt = w.challengers[1].build_sends()[0]
        w.prover.on_probe(t, pkt)
        w.prover.on_probe(t + 1, pkt)
        assert len(w.prover.received[1]) == 1
        assert w.prover.duplicates == 1

    def test_unknown_challenger_dropped(self):
        w = world()
        _, pkt = w.challengers[1].build_sends()[0]
        alien = ChallengePacket(99, pkt.sequence, pkt.nonce, pkt.signature)
        assert w.prover.on_probe(0, alien) is False
        assert w.prover.dropped_unknown == 1
        assert all(not s for s in w.prover.received.values())

    def test_sequence_beyond_train_dropped(self):
        w = world()
        _, pkt = w.challengers[1].build_sends()[0]
        limit = w.params.signatures_per_challenger
        rogue = ChallengePacket(1, limit + 1, pkt.nonce, pkt.signature)
        w.prover.on_probe(0, rogue)
        assert w.prover.dropped_seq == 1
        assert not w.prover.received[1]

    def test_no_second_response_and_order_independent_root(self):
        roots = set()
        for shuffle_seed in range(25):
            w = world(seed=3)
            packets = []
            for c in w.challengers.values():
                packets.extend(p for _, p in c.build_sends())
            random.Random(shuffle_seed).shuffle(packets)
            trips = sum(w.prover.on_probe(j, p) for j, p in enumerate(packets))
            assert trips == 1
            roots.add(w.prover.build_responses().announcement.root)
        assert len(roots) == 1


class TestChallengerChecks:
    def test_bad_prover_signature_ignored(self):
        w = world()
        deliver_all(w)
        bundle = w.prover.build_responses()
        r = bundle.responses[1]
        forged = type(r)(r.receipt, r.root, bytes([r.signature[0] ^ 1]) + r.signature[1:])
        c = w.challengers[1]
        c.on_response(5 * MS, forged)
        assert c.delta_ns is None
        assert "response_bad_signature" in c.events

    def test_early_response_flagged(self):
        lat = [10 * MS, 0, 0]
        w = world(latencies=lat)
        deliver_all(w)
        bundle = w.prover.build_responses()
        c = w.challengers[1]
        c.on_response(15 * MS, bundle.responses[1])  # beats the 20ms round trip
        assert c.failure == "early_response"
        assert c.on_verification(16 * MS, bundle.verifications[1]) is None

    def test_receipt_over_foreign_set_rejected(self):
        w = world(rho=1.2)
        # drop probe 5 of challenger 1 on the way in
        for i, c in w.challengers.items():
            for t, pkt in c.build_sends():
                if i == 1 and pkt.sequence == 5:
                    continue
                w.prover.on_probe(t, pkt)
        assert w.prover.responded
        bundle = w.prover.build_responses()
        c1 = w.challengers[1]
        c1.on_response(5 * MS, bundle.responses[1])
        v = bundle.verifications[1]
        claim_all = VerificationMessage(
            challenger_id=1,
            acked_count=6,
            bitmap_bits=6,
            bitmap=bitmap_from_sequences([1, 2, 3, 4, 5, 6], 6),
            leaf_index=0,
            siblings=v.siblings,
        )
        assert c1.on_verification(6 * MS, claim_all) is None
        assert c1.failure == "receipt_mismatch"

    def test_wrong_leaf_index_rejected(self):
        w = world()
        deliver_all(w)
        bundle = w.prover.build_responses()
        c1 = w.challengers[1]
        c1.on_response(5 * MS, bundle.responses[1])
        v = bundle.verifications[1]
        shifted = VerificationMessage(1, v.acked_count, v.bitmap_bits, v.bitmap, 1, v.siblings)
        assert c1.on_verification(6 * MS, shifted) is None
        assert c1.failure == "leaf_index"

    def test_wrong_bitmap_size_rejected(self):
        w = world()
        deliver_all(w)
        bundle = w.prover.build_responses()
        c1 = w.challengers[1]
        c1.on_response(5 * MS, bundle.responses[1])
        v = bundle.verifications[1]
        short = VerificationMessage(
            1, 3, 4, bitmap_from_sequences([1, 2, 3], 4), 0, v.siblings
        )
        assert c1.on_verification(6 * MS, short) is None
        assert c1.failure == "bitmap_size"

    def test_reports_only_once(self):
        w = world()
        deliver_all(w)
        bundle = w.prover.build_responses()
        c1 = w.challengers[1]
        c1.on_response(5 * MS, bundle.responses[1])
        assert c1.on_verification(6 * MS, bundle.verifications[1]) is not None
        assert c1.on_verification(7 * MS, bundle.verifications[1]) is None

    def test_verification_before_response_is_replayed(self):
        w = world()
        deliver_all(w)
        bundle = w.prover.build_responses()
        c1 = w.challengers[1]
        assert c1.on_message(5 * MS, bundle.verifications[1]) is None  # stashed
        rpt = c1.on_message(6 * MS, bundle.responses[1])
        assert rpt is not None
        assert (rpt.rtt_ns, rpt.packets_acknowledged) == (6 * MS, 5)
        assert c1.report_sent
        assert c1.on_message(7 * MS, bundle.verifications[1]) is None

    def test_receipt_matches_own_hash(self):
        w = world()
        deliver_all(w)
        bundle = w.prover.build_responses()
        c1 = w.challengers[1]
        own = hash_packet_set(
            [(q, c1.signature_for(q)) for q in range(1, w.params.k + 1)]
        )
        assert bundle.responses[1].receipt == own


class TestLazySignatures:
    def test_init_and_build_sends_make_no_signature(self, monkeypatch):
        signs = counting(monkeypatch, "sign")
        w = world()
        trains = {i: c.build_sends() for i, c in w.challengers.items()}
        assert signs == []
        _, pkt = trains[2][3]
        first = bytes(pkt.signature)
        assert len(signs) == 1
        c2 = w.challengers[2]
        assert first == sign(c2.keypair.secret_key, probe_message(4, w.params.m0))
        # read again, from the packet or through the challenger: no new sign
        assert bytes(pkt.signature) == c2.signature_for(4) == first
        assert len(signs) == 1

    def test_prover_reads_signatures_only_at_the_freeze(self, monkeypatch):
        signs = counting(monkeypatch, "sign")
        w = world(n=4, f=1, k=5)
        deliver_all(w, skip=(4,))
        assert w.prover.responded
        assert signs == []
        w.prover.build_responses()
        stored = sum(len(s) for s in w.prover.received.values())
        assert stored == 15
        assert len(signs) == stored + 5  # every stored probe, then n + 1 prover signs
        w.prover.build_dispute(3)
        assert len(signs) == stored + 5  # each probe is signed at most once

    def test_each_reader_shares_one_signature_per_probe(self, monkeypatch):
        signs = counting(monkeypatch, "sign")
        w = world(n=4, f=1, k=5)
        deliver_all(w, skip=(4,))
        stored = [pkt for store in w.prover.received.values() for pkt in store.values()]
        assert len(stored) == 15 and signs == []
        bundle, reports = finish(w)  # the freeze, then each challenger's receipt check
        assert sorted(reports) == [1, 2, 3, 4]  # 4 acknowledges none
        assert len(signs) == 15 + 5  # every stored probe, then n + 1 prover signs
        dispute = w.prover.build_dispute(2)
        encoded = {wire.encode(pkt)[64:128] for pkt in stored}
        assert len(signs) == 15 + 5  # the dispute and the encodings read the same signatures
        assert encoded == {sig for i in (1, 2, 3) for _, sig in w.prover._signed(i)}
        assert set(dispute.packets) == set(w.prover._signed(2))
        # a probe no receipt covers is signed by its first reader, and only then
        _, unsent = w.challengers[4].build_sends()[0]
        first = wire.encode(unsent)
        assert len(signs) == 21
        assert wire.encode(unsent) == first and bytes(unsent.signature) == first[64:128]
        assert len(signs) == 21

    def test_sequence_outside_the_train_has_no_signature(self):
        c1 = world().challengers[1]
        for q in (0, c1.params.signatures_per_challenger + 1):
            with pytest.raises(KeyError):
                c1.signature_for(q)


def cpus(monkeypatch, count):
    """Let the freeze see `count` usable CPUs, whatever this host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def store_unevenly(w, *provers):
    """Each prover stores a different subset of challenger i's train, in
    reverse order, and none of the last one's (n > 1); then it responds."""
    n = w.params.n
    for i, c in w.challengers.items():
        train = c.build_sends()
        picked = [] if i == n > 1 else train[i % 2 :: 1 + i % 3]
        for p in provers:
            for t, pkt in reversed(picked):
                p.on_probe(t, pkt)
    for p in provers:
        assert p.force_respond(10 * MS)


class TestSplitFreeze:
    """`Prover._build_leaves` shares the receipts out over threads by id."""

    @pytest.mark.parametrize("n", [1, 3, 4, 10])
    @pytest.mark.parametrize("width", [1, 2, 4, 16])
    def test_leaves_and_bundle_equal_the_serial_loop(self, monkeypatch, n, width):
        cpus(monkeypatch, width)
        w = world(n=n, k=5)
        twin = Prover(w.session, w.prover_key)
        store_unevenly(w, w.prover, twin)
        sizes = [len(w.prover.received[i]) for i in range(1, n + 1)]
        assert sum(sizes) and (n == 1 or 0 in sizes)
        threads = threading.active_count()
        serial = [hash_packet_set(twin._signed(i)) for i in range(1, n + 1)]
        assert w.prover._build_leaves() == serial
        assert threading.active_count() == threads
        twin._leaves = serial
        assert w.prover.build_responses() == twin.build_responses()
        assert w.prover._signed(n) == twin._signed(n)

    def test_each_probe_signed_once_under_fast_switching(self, monkeypatch):
        lock = threading.Lock()
        signed = []
        real = roles.sign

        def locked_sign(secret_key, message):
            with lock:
                signed.append((secret_key, message))
            return real(secret_key, message)

        monkeypatch.setattr(roles, "sign", locked_sign)
        cpus(monkeypatch, 8)  # more threads than this host has cores
        w = world(n=10, k=5)
        store_unevenly(w, w.prover)
        expected = json.loads((ROOT / "tests" / "golden_digests.json").read_text())
        digests = load_script()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            w.prover.build_responses()
            freeze = list(signed)
            golden = digests.compute("golden")
        finally:
            sys.setswitchinterval(interval)
        probes = [s for s in freeze if s[0] != w.prover_key.secret_key]
        stored = sum(len(store) for store in w.prover.received.values())
        assert len(probes) == len(set(probes)) == stored
        assert len(freeze) == stored + 11  # and n + 1 prover signs
        assert digests.differences(expected, golden) == []

    @pytest.mark.parametrize(
        "failing, raised",
        [((2, 3), 2), ((3,), 3), ((3, 4), 3), ((4,), 4), ((1, 2, 3), 1)],
    )
    def test_a_share_failure_raises_the_serial_loops_exception(self, monkeypatch, failing, raised):
        cpus(monkeypatch, 3)  # the caller takes ids 1 and 4, helpers 2 and 5, and 3
        w = world(n=5, k=5)
        store_unevenly(w, w.prover)
        errors = {}
        for i in failing:
            errors[i] = RuntimeError(f"no signature from challenger {i}")

            def fail(q, error=errors[i]):
                raise error

            w.challengers[i].signature_for = fail
        threads = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            w.prover.build_responses()
        assert info.value is errors[raised]
        assert threading.active_count() == threads
        assert w.prover._leaves is None

    def test_no_thread_outlives_a_run(self, monkeypatch):
        cpus(monkeypatch, 4)
        cfg = parse_scenario(
            {
                "name": "freezes",
                "protocol": {"theta_claimed_bps": 50e6, "n": 4, "f": 0, "duration_ns": 2 * MS},
                "topology": {"backhaul_rate_bps": 50e6, "uplink": {"rate_bps": "theta0", "propagation_ns": MS}},
            }
        )
        threads = threading.active_count()
        for seed in range(200):
            assert run_scenario(cfg, seed, collect_trace=False).output is not None
        assert threading.active_count() == threads


class TestVerifier:
    def test_reports_buffered_until_root(self):
        w = world()
        deliver_all(w)
        bundle = w.prover.build_responses()
        reports = []
        for i, c in w.challengers.items():
            c.on_response(5 * MS, bundle.responses[i])
            reports.append(c.on_verification(5 * MS, bundle.verifications[i]))
        for r in reports:
            w.verifier.on_report(5 * MS, r)
        assert w.verifier.output is None
        assert not w.verifier.entries
        w.verifier.on_root(6 * MS, bundle.announcement)
        assert w.verifier.output is not None
        assert w.verifier.output.cnt == 15

    def test_rejects_bad_reports(self):
        w = world()
        deliver_all(w)
        bundle, reports = finish(w, report_ids=[1, 2])
        good = reports[3]
        wrong_root = ChallengerReport(3, PROVER_ID, bytes(32), good.rtt_ns, 5)
        w.verifier.on_report(6 * MS, wrong_root)
        assert (3, "root_mismatch") in w.verifier.rejections
        alien = ChallengerReport(9, PROVER_ID, good.merkle_root_seen, good.rtt_ns, 5)
        w.verifier.on_report(6 * MS, alien)
        assert (9, "unknown_challenger") in w.verifier.rejections
        other_prover = ChallengerReport(3, 12, good.merkle_root_seen, good.rtt_ns, 5)
        w.verifier.on_report(6 * MS, other_prover)
        assert (3, "wrong_prover") in w.verifier.rejections
        assert w.verifier.output is None
        w.verifier.on_report(6 * MS, good)
        w.verifier.on_report(7 * MS, good)  # after output: ignored silently
        assert w.verifier.output is not None
        dup_world = world()
        deliver_all(dup_world)
        finish(dup_world, report_ids=[1, 2])
        dup_world.verifier.on_report(6 * MS, reports[1])

    def test_duplicate_report_rejected_before_output(self):
        w = world(n=4, f=1, k=5)
        deliver_all(w, skip=(4,))
        bundle, reports = finish(w, report_ids=[1])
        w.verifier.on_report(6 * MS, reports[1])
        assert (1, "duplicate") in w.verifier.rejections

    def test_dispute_fills_withheld_report(self):
        w = world(n=4, f=1, k=5)
        deliver_all(w, skip=(4,))  # challenger 4 never probes
        assert w.prover.responded  # threshold is (n-f)k = 15
        bundle, reports = finish(w, report_ids=[1, 2])
        v = w.verifier
        assert v.output is None  # 2 entries < n - f = 3
        assert v.at_deadline() == [DisputeRequest(3), DisputeRequest(4)]
        # empty dispute for the silent challenger: upheld, adds zero
        assert v.on_dispute(7 * MS, w.prover.build_dispute(4)) is True
        assert v.entries[4] == (0, None)
        assert v.output is None  # cnt still 10 < 15
        assert v.on_dispute(7 * MS, w.prover.build_dispute(3)) is True
        out = v.output
        assert out is not None
        assert out.cnt == 15
        assert out.reports_used == 2
        assert out.disputes_upheld == 2
        # f = 1, n = 4: guarantee scales by (n - 2f) / (n - f)
        assert out.guaranteed_bps == pytest.approx(out.measured_bps * 2 / 3)

    def test_lazy_verdict_needs_2f_rtts(self):
        # n=4, f=1: one corrupt report and three upheld disputes account for
        # n - f challengers at full count, but the upper median of a single
        # RTT is the corrupt one
        w = world(n=4, f=1, k=5)
        deliver_all(w)
        bundle, reports = finish(w, report_ids=[])
        v = w.verifier
        v.on_report(6 * MS, dataclasses.replace(reports[1], rtt_ns=1))
        for i in (2, 3, 4):
            assert v.on_dispute(7 * MS, w.prover.build_dispute(i)) is True
        assert v.cnt() == w.params.threshold == 15
        assert v.output is None
        v.on_report(8 * MS, reports[2])  # an honest report, late
        out = v.output
        assert out is not None
        assert out.delta_ns == reports[2].rtt_ns
        assert (out.reports_used, out.disputes_upheld) == (2, 3)

    def test_late_report_adds_only_its_rtt_to_a_disputed_entry(self):
        w = world(n=4, f=1, k=5)
        deliver_all(w)
        bundle, reports = finish(w, report_ids=[])
        v = w.verifier
        dispute = w.prover.build_dispute(1)
        assert v.on_dispute(7 * MS, dispute) is True
        assert v.entries[1] == (len(dispute.packets), None)
        short = dataclasses.replace(reports[1], packets_acknowledged=0)
        v.on_report(8 * MS, short)
        # the proven count stands
        assert v.entries[1] == (len(dispute.packets), reports[1].rtt_ns)
        v.on_report(9 * MS, reports[1])
        assert v.rejections == [(1, "duplicate")]
        assert v.entries[1] == (len(dispute.packets), reports[1].rtt_ns)

    def test_dispute_with_tampered_signature_rejected(self):
        w = world(n=4, f=1, k=5)
        deliver_all(w, skip=(4,))
        finish(w, report_ids=[1, 2])
        d = w.prover.build_dispute(3)
        q0, sig0 = d.packets[0]
        forged = DisputeSubmission(
            challenger_id=3,
            packets=((q0, bytes([sig0[0] ^ 1]) + sig0[1:]),) + d.packets[1:],
            leaf_index=d.leaf_index,
            siblings=d.siblings,
        )
        assert w.verifier.on_dispute(7 * MS, forged) is False
        assert (3, "dispute_bad_signature") in w.verifier.rejections

    @pytest.mark.parametrize("shape", ["repeated", "descending", "too_long"])
    def test_malformed_dispute_rejected_before_any_verify(self, monkeypatch, shape):
        w = world(n=4, f=1, k=5)
        deliver_all(w, skip=(4,))
        bundle = w.prover.build_responses()
        w.verifier.on_root(5 * MS, bundle.announcement)
        d = w.prover.build_dispute(1)
        (q1, s1), (q2, s2) = d.packets[:2]
        packets = {
            "repeated": ((q1, s1), (q1, s1)),
            "descending": ((q2, s2), (q1, s1)),
            "too_long": tuple(
                (q, s1) for q in range(1, w.params.signatures_per_challenger + 2)
            ),
        }[shape]
        verifies = counting(monkeypatch, "verify")
        bad = DisputeSubmission(1, packets, d.leaf_index, d.siblings)
        assert w.verifier.on_dispute(6 * MS, bad) is False
        assert w.verifier.rejections == [(1, "dispute_malformed")]
        assert verifies == []

    def test_dispute_wrong_slot_rejected(self):
        w = world(n=4, f=1, k=5)
        deliver_all(w, skip=(4,))
        finish(w, report_ids=[1, 2])
        d = w.prover.build_dispute(3)
        moved = DisputeSubmission(3, d.packets, 0, d.siblings)
        assert w.verifier.on_dispute(7 * MS, moved) is False
        assert (3, "dispute_leaf_index") in w.verifier.rejections

    def test_dispute_for_reported_id_ignored(self):
        w = world()
        deliver_all(w)
        finish(w, report_ids=[1, 2])
        d = w.prover.build_dispute(1)
        before = dict(w.verifier.entries)
        assert w.verifier.on_dispute(7 * MS, d) is False
        assert w.verifier.entries == before

    def test_timer_mode_settles_at_deadline(self):
        w = world(n=5, f=2, k=5, timer_mode=True)
        deliver_all(w, skip=(4, 5))
        # three full trains reach the (n - f) * k = 15 threshold exactly
        assert w.prover.responded
        assert w.prover.capped_total() == 15
        bundle = w.prover.build_responses()
        w.verifier.on_root(5 * MS, bundle.announcement)
        for i in (1, 2, 3):
            c = w.challengers[i]
            c.on_response((5 + i) * MS, bundle.responses[i])
            w.verifier.on_report((5 + i) * MS, c.on_verification((5 + i) * MS, bundle.verifications[i]))
        assert w.verifier.output is None  # timer mode never fires lazily
        out = w.verifier.evaluate(20 * MS)
        assert out is not None
        assert out.cnt == 15
        assert out.delta_ns == sorted(c.delta_ns for c in list(w.challengers.values())[:3])[1]
        assert out.reports_used == 3

    def test_lazy_verifier_refuses_the_timer_mode_bound(self):
        # n=5, f=2 is only sound with a deadline: a lazy verifier would take
        # two corrupt reports with rtt_ns=1 and one honest one as n - f, so
        # no lazy session, and so no lazy verifier, can be built for it
        w = world(n=5, f=2, k=5, timer_mode=True)
        with pytest.raises(ParamsError, match="need f < n/3"):
            dataclasses.replace(w.session, timer_mode=False)
        assert Verifier(w.session).timer_mode

    def test_routes_drive_the_whole_exchange(self):
        w = world()
        deliver_all(w)
        routes = w.prover.build_responses().routes()
        assert [dest for dest, _ in routes] == [1, 2, 3, VERIFIER]
        reports = [
            w.challengers[dest].on_message(5 * MS, msg)
            for dest, msgs in routes[:-1]
            for msg in msgs
        ]
        for rpt in filter(None, reports):
            assert w.verifier.on_message(5 * MS, rpt) is False  # buffered until the root
        assert w.verifier.output is None
        (root,) = routes[-1][1]
        w.verifier.on_message(6 * MS, root)
        assert w.verifier.output.cnt == 15

    def test_lazy_evaluate_never_settles_on_partial_reports(self):
        w = world(n=4, f=1, k=5)
        deliver_all(w, skip=(4,))
        finish(w, report_ids=[1, 2])
        assert len(w.verifier.entries) == 2  # below n - f = 3
        assert w.verifier.evaluate(50 * MS) is None
        assert w.verifier.output is None

    def test_evaluate_without_entries_yields_nothing(self):
        w = world(timer_mode=False)
        assert w.verifier.evaluate(50 * MS) is None


class TestDeadlineDisputes:
    def test_prover_answers_only_a_request_after_its_trigger(self):
        w = world(n=4, f=1, k=5)
        req = DisputeRequest(4)
        assert w.prover.on_message(1 * MS, req) is None  # no response yet
        deliver_all(w, skip=(4,))
        t = w.prover.trigger_ns
        assert t is not None
        assert w.prover.on_message(t - 1, req) is None
        assert w.prover.on_message(t, req) is None
        assert w.prover.on_message(t + 1, req) == w.prover.build_dispute(4)

    def test_prover_answers_each_id_once(self):
        w = world(n=4, f=1, k=5)
        assert w.prover.on_message(1 * MS, DisputeRequest(4)) is None  # before the trigger
        deliver_all(w, skip=(4,))
        t = w.prover.trigger_ns
        assert w.prover.on_message(t + 1, DisputeRequest(4), lambda cid: None) is None  # no answer
        assert w.prover.on_message(t + 1, DisputeRequest(4)) == w.prover.build_dispute(4)
        assert w.prover.on_message(t + 2, DisputeRequest(4)) is None
        assert w.prover.on_message(t + 3, DisputeRequest(3)) == w.prover.build_dispute(3)
        assert w.prover.on_message(t + 4, DisputeRequest(3)) is None

    def test_prover_answers_through_the_given_builder(self):
        w = world(n=4, f=1, k=5)
        deliver_all(w, skip=(4,))
        t = w.prover.trigger_ns
        asked = []

        def forge(cid):
            asked.append(cid)
            return DisputeSubmission(cid, (), cid - 1, ())

        assert w.prover.on_message(t, DisputeRequest(3), forge) is None
        assert w.prover.on_message(t + 1, DisputeRequest(3), forge) == DisputeSubmission(3, (), 2, ())
        assert asked == [3]

    def test_at_deadline_is_empty_once_a_verdict_exists(self):
        w = world(n=4, f=1, k=5)
        deliver_all(w, skip=(4,))
        _, reports = finish(w, report_ids=[1, 2])
        assert w.verifier.at_deadline() == [DisputeRequest(3), DisputeRequest(4)]
        w.verifier.on_report(6 * MS, reports[3])
        assert w.verifier.output is not None
        assert 4 not in w.verifier.entries
        assert w.verifier.at_deadline() == []
