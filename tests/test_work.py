"""The work one run does, counted at each per-unit entry point.

A refactor of the per-probe path must do exactly the same work: the same
Ed25519 signs and verifies, secret derivations, receipt hashes and Merkle
trees, the same link sends, prover intake calls and control-plane heap
pushes. A run signs n + 1 times when its prover triggers, the prover's n
responses and root; no probe is signed or verified. It verifies n + 1
times (the responses and the root), plus once per dispute that reaches
its commitment check. It derives probe secrets n times, once per
challenger for its whole train. It builds one Merkle tree when its
prover triggers, at the prover's freeze, from which the root and every
inclusion path are read; a dispute reads its path from there. A
challenger's commitment, its tree and one sign, is built only when read:
in a simulated run, by the prover's dispute for it when that shows its
probes. A change that moves one of these figures changed what a run
does, not only how fast it does it.
"""

import functools

import pytest

from backhaul import roles
from backhaul.config import parse_scenario
from backhaul.netsim import EventLoop, FifoLink, run_scenario
from backhaul.roles import Prover

MS = 1_000_000
LOSSY = {
    "backhaul_loss_prob": 0.02,
    "backhaul_jitter_stddev_ns": 200_000,
    "queue_capacity_bytes": 30_000,
    "uplink": {"rate_bps": "theta0", "propagation_ns": 5 * MS, "loss_prob": 0.03, "jitter_stddev_ns": 100_000},
}


def scenario(proto=None, topo=None, attack=None):
    """A 20 ms challenge at 250 Mbit/s over ten challengers, with overrides."""
    return parse_scenario(
        {
            "name": "work",
            "protocol": {
                "theta_claimed_bps": 250e6,
                "n": 10,
                "f": 0,
                "duration_ns": 20 * MS,
                "rate_policy": "per_n_minus_f",
                **(proto or {}),
            },
            "topology": {
                "backhaul_rate_bps": 250e6,
                "uplink": {"rate_bps": "theta0", "propagation_ns": 5 * MS},
                **(topo or {}),
            },
            **({"attack": attack} if attack else {}),
        }
    )


CASES = {
    "honest": (scenario(), 1),
    # a cross flow leaves 230 Mbit/s of the backhaul: its queue overflows
    "lossy_drop_tail": (
        scenario(topo={**LOSSY, "cross_flows": [{"start_ns": 0, "end_ns": 10**10, "rate_bps": 20e6}]}),
        2,
    ),
    "withheld_reports_disputed": (
        scenario(
            {"f": 2},
            attack={"challengers": {"3": {"name": "withhold_report"}, "8": {"name": "withhold_all"}}},
        ),
        2,
    ),
    # the forger's random commitment signature fails: one verify for the dispute
    "forged_dispute": (
        scenario(
            {"f": 2},
            attack={
                "challengers": {"3": {"name": "withhold_report"}, "8": {"name": "withhold_all"}},
                "prover": {"name": "dispute_forger"},
            },
        ),
        2,
    ),
}

# The disputed cases dispute ids 3 and 8. Challenger 8 sent nothing, so its
# dispute shows no probes and reads no commitment; challenger 3's honest
# dispute builds its commitment, one tree and one sign, and the forger's
# fabricated one reads none.
EXPECTED = {
    "honest": {
        "sign": 11, "verify": 11, "hash_packet_set": 20, "merkle_levels": 1, "probe_secrets": 10,
        "FifoLink.send": 920, "Prover.on_probe": 460, "EventLoop.at": 34,
    },
    "lossy_drop_tail": {
        "sign": 11, "verify": 11, "hash_packet_set": 20, "merkle_levels": 1, "probe_secrets": 10,
        "FifoLink.send": 908, "Prover.on_probe": 437, "EventLoop.at": 34,
    },
    "withheld_reports_disputed": {
        "sign": 12, "verify": 12, "hash_packet_set": 21, "merkle_levels": 2, "probe_secrets": 10,
        "FifoLink.send": 1044, "Prover.on_probe": 522, "EventLoop.at": 34,
    },
    "forged_dispute": {
        "sign": 11, "verify": 12, "hash_packet_set": 20, "merkle_levels": 1, "probe_secrets": 10,
        "FifoLink.send": 1044, "Prover.on_probe": 522, "EventLoop.at": 34,
    },
}


def counted(monkeypatch):
    names = ("sign", "verify", "hash_packet_set", "merkle_levels", "probe_secrets")
    counts = dict.fromkeys((*names, "FifoLink.send", "Prover.on_probe", "EventLoop.at"), 0)

    def counting(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(roles, name, counting(name, getattr(roles, name)))
    for cls, attr in ((FifoLink, "send"), (Prover, "on_probe"), (EventLoop, "at")):
        monkeypatch.setattr(cls, attr, counting(f"{cls.__name__}.{attr}", cls.__dict__[attr]))
    return counts


@pytest.mark.parametrize("case", sorted(CASES))
def test_work_per_run(monkeypatch, case):
    counts = counted(monkeypatch)
    cfg, seed = CASES[case]
    res = run_scenario(cfg, seed, collect_trace=False)
    assert res.terminated == (case != "forged_dispute")
    if case == "forged_dispute":
        assert res.rejections == ((3, "dispute_bad_signature"),)
    if case == "lossy_drop_tail":
        assert res.drops["backhaul_tail_dropped"] and res.drops["uplink_lost"] and res.drops["backhaul_lost"]
    if case == "withheld_reports_disputed":
        assert res.output.disputes_upheld == 1
    assert counts == EXPECTED[case]
