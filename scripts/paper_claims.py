"""Print the paper's three claims as the simulator measures them.

  1. accuracy     the honest measurement against the claimed rate, up to
                  1 Gbit/s, with the frozen response-overhead model
  2. soundness    verdicts under corrupt challengers: the guaranteed rate
                  never exceeds the claim
  3. bandwidth    the rate ladder against what cross traffic leaves free

Each figure is the mean over seeds 0 to N-1; a dash means no run gave
one. tests/test_paper_claims.py pins the output of `--seeds 1`.

Usage: python3 scripts/paper_claims.py [--seeds N]
"""

from __future__ import annotations

import argparse
import statistics

from backhaul.cli import load_bundled
from backhaul.ladder import run_ladder
from backhaul.netsim import run_scenario

ACCURACY = ["honest_250", "honest_500", "overhead_500", "overhead_750", "overhead_1000"]
ATTACKS = ["honest_250", "rushing_250", "withholding_250", "withholding_noisy_250"]
LADDERS = ["cross_traffic_220", "cross_traffic_140", "cross_traffic_90"]


def mean_mbps(values: list[float]) -> float | None:
    return statistics.fmean(values) / 1e6 if values else None


def show(value: float | None, width: int) -> str:
    return f"{'-':>{width}}" if value is None else f"{value:>{width}.2f}"


def error_pct(reference_mbps: float, got_mbps: float | None) -> float | None:
    return None if got_mbps is None else (reference_mbps - got_mbps) / reference_mbps * 100


def verdicts(name: str, seeds: int):
    """The scenario and its runs over the seeds that reached a verdict."""
    cfg = load_bundled(name)
    runs = (run_scenario(cfg, seed=s, collect_trace=False) for s in range(seeds))
    return cfg, [r for r in runs if r.terminated]


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=5)
    args = ap.parse_args(argv)

    print(f"== 1. accuracy: honest measurement against the claim, seeds 0-{args.seeds - 1} ==")
    print(f"{'scenario':<16} {'claim':>8} {'measured':>10} {'error %':>8}")
    for name in ACCURACY:
        cfg, runs = verdicts(name, args.seeds)
        claim = cfg.protocol.theta_claimed_bps / 1e6
        measured = mean_mbps([r.measured_bps for r in runs])
        print(f"{name:<16} {claim:>8.0f} {show(measured, 10)} {show(error_pct(claim, measured), 8)}")

    print("\n== 2. soundness: verdicts under corrupt challengers ==")
    print(f"{'scenario':<24} {'ok':>5} {'measured Mbit/s':>16} {'guaranteed':>12}")
    for name in ATTACKS:
        _, runs = verdicts(name, args.seeds)
        measured = mean_mbps([r.measured_bps for r in runs])
        guaranteed = mean_mbps([r.guaranteed_bps for r in runs])
        print(f"{name:<24} {len(runs):>2}/{args.seeds:>2} {show(measured, 16)} {show(guaranteed, 12)}")
    claim = load_bundled(ATTACKS[0]).protocol.theta_claimed_bps / 1e6
    print(f"claim is {claim:.0f} Mbit/s; guaranteed must never exceed it")

    print("\n== 3. bandwidth: the rate ladder under cross traffic ==")
    print(f"{'scenario':<20} {'available':>10} {'estimate':>10} {'error %':>8}")
    for name in LADDERS:
        cfg = load_bundled(name)
        flow = cfg.topology.cross_flows[0]
        avail = (cfg.topology.backhaul_rate_bps - flow.rate_bps * (1 - flow.yield_fraction)) / 1e6
        climbs = [run_ladder(cfg, seed=s).estimate_bps for s in range(args.seeds)]
        estimate = mean_mbps([e for e in climbs if e is not None])
        print(f"{name:<20} {avail:>10.0f} {show(estimate, 10)} {show(error_pct(avail, estimate), 8)}")


if __name__ == "__main__":
    main()
