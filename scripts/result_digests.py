"""Print one SHA-256 digest per simulated case, as canonical JSON.

A run's digest is SHA-256 over compact, sorted-key JSON of a value
encoding of its `SimResult`. LISTED names, for each recorded class, the
stored values it contributes; a listed record becomes `{name: value}`,
each read by `getattr`. A float is written by `float.hex`, bytes as hex
and an enum by its `.value`; a tuple becomes a list and a dict a list of
`[key, value]` pairs sorted by key; None, bool, int and str stay as JSON.
Anything else raises TypeError, so an unlisted record cannot slip in
through its repr. Config and artifact digests hash the bytes they cover.

A field added to a listed class stays out of the digests until it is
listed. To drop a listed name, unlist it, run this script with the
parent's code on the path and compare the change against that output.
To add one, compare with it still unlisted, then list it. Either way,
re-record tests/golden_digests.json with `--cases golden`.

Comparing the digests of two checkouts shows in one command whether a
change to the simulator kept every result bit-identical:

    PYTHONPATH=/path/to/parent/src python3 scripts/result_digests.py > parent.json
    PYTHONPATH=src python3 scripts/result_digests.py --compare parent.json

It prints each differing case, the count of identical ones, and last the
differing cases counted per group, a group being a case name up to its
last `/`.

`--verdicts` digests each simulated case (runs and ladder rungs, no
config or artifact cases) over VERDICTS instead of LISTED: whether it
terminated, who timed out or failed, what the verifier rejected, and the
verdict's counts, with no timing and no figure. Two checkouts whose
`--verdicts` outputs compare identical reached the same verdicts on every
case, however far their measured rates moved.

A change that moves timings on purpose, such as a shorter message, is
checked against a size-only reference: a copy of the parent that
charges the same bytes but keeps the old code, for a shorter response
by editing the one `size` line of `_Run.respond`. The change must
compare identical to that copy on every case, full and golden; against
the parent itself, list the moved cases by group and show that
`--verdicts --compare` is identical:

    git archive PARENT | tar -x -C ref   # then edit ref's _Run.respond
    PYTHONPATH=ref/src python3 scripts/result_digests.py > ref.json
    PYTHONPATH=src python3 scripts/result_digests.py --compare ref.json
    PYTHONPATH=/path/to/parent/src python3 scripts/result_digests.py --verdicts > verdicts.json
    PYTHONPATH=src python3 scripts/result_digests.py --verdicts --compare verdicts.json

Case sets:
  full    every bundled scenario x seeds 0-2, ladder climbs of the three
          cross-traffic scenarios at seeds 7 and 8 (one case per rung),
          and 80 fuzzed attacks under each of four topologies: plain,
          lossy jittery backhaul with a drop-tail queue, lossy jittery
          uplinks, and both (8-10 s on a 2-core host); plus one config/ case
          per bundled scenario and per fuzz config, a digest of its
          `scenario_to_dict` form as sorted JSON; plus artifact/ cases,
          the bytes the CLI writes: the JSON report, both CSVs and the
          table of `build_report` over seeds 0-2 for every bundled
          scenario and for the three criterion-2 configs whose honest
          prover needs a short report disputed, and the JSON and
          table of every ladder climb above
  golden  a few short runs that still reach every data-plane feature,
          and the artifacts of one short report with and without
          verdicts and of one short ladder climb (tests/golden_digests.json
          pins them)

Usage: python3 scripts/result_digests.py [--cases full|golden] [--verdicts] [--compare FILE]
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import json
import sys
from collections import Counter

from backhaul import ladder
from backhaul.adversary import fuzz_strategies
from backhaul.cli import bundled_names, load_bundled
from backhaul.config import LadderSpec, parse_scenario, scenario_to_dict
from backhaul.netsim import SimResult, run_scenario
from backhaul.report import (
    build_report,
    csv_bytes,
    dump_report,
    ladder_to_dict,
    render_ladder,
    render_table,
    to_json_bytes,
)
from backhaul.roles import PoBOutput
from backhaul.schedule import ChallengeParams

MS = 1_000_000

# the stored values each recorded class contributes to a digest
LISTED = {
    SimResult: (
        "output",
        "output_ns",
        "params",
        "latency_estimates_ns",
        "deltas_ns",
        "trigger_ns",
        "timed_out",
        "drops",
        "max_queue_bytes",
        "challenger_failures",
        "rejections",
        "trace",
        "clamped_sends",
    ),
    PoBOutput: (
        "measured_bps",
        "guaranteed_bps",
        "delta_ns",
        "cnt",
        "reports_used",
        "disputes_upheld",
        "per_challenger",
    ),
    ChallengeParams: (
        "theta_claimed_bps",
        "n",
        "f",
        "duration_ns",
        "k",
        "theta0_bps",
        "rate_policy",
        "overprovision",
        "b",
        "t0_ns",
        "m0",
    ),
}

# the verdict-level values, for `--verdicts`
VERDICTS = {
    SimResult: ("terminated", "timed_out", "challenger_failures", "rejections", "output"),
    PoBOutput: ("cnt", "reports_used", "disputes_upheld", "per_challenger"),
}

LOSSY_BACKHAUL = {
    "backhaul_loss_prob": 0.02,
    "backhaul_jitter_stddev_ns": 200_000,
    "queue_capacity_bytes": 30_000,
}
LOSSY_UPLINK = {
    "uplink": {
        "rate_bps": "theta0",
        "propagation_ns": 5 * MS,
        "loss_prob": 0.03,
        "jitter_stddev_ns": 100_000,
    }
}
FUZZ_TOPOLOGIES = {
    "plain": {},
    "backhaul": LOSSY_BACKHAUL,
    "uplink": LOSSY_UPLINK,
    "both": {**LOSSY_BACKHAUL, **LOSSY_UPLINK},
}
LADDERS = ("cross_traffic_220", "cross_traffic_140", "cross_traffic_90")
# criterion-2 fuzz configs whose honest prover got no verdict until the
# deadline also disputed short reports; their artifacts pin the disputed runs
STALLS = (6, 54, 65)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def encode(value, table=LISTED):
    """`value` as JSON data, by the rules in the module docstring, a record
    by the names `table` lists for its class."""
    names = table.get(type(value))
    if names is not None:
        return {name: encode(getattr(value, name), table) for name in names}
    if value is None or type(value) in (bool, int, str):
        return value
    if type(value) in (float, bytes):
        return value.hex()
    if isinstance(value, enum.Enum):
        return encode(value.value, table)
    if type(value) is tuple:
        return [encode(v, table) for v in value]
    if type(value) is dict:
        return [[encode(k, table), encode(v, table)] for k, v in sorted(value.items())]
    raise TypeError(f"no digest encoding for {type(value).__name__}")


def digest(res, table=LISTED) -> str:
    return sha(json.dumps(encode(res, table), sort_keys=True, separators=(",", ":")).encode())


def report_artifacts(name: str, cfg, seeds) -> dict[str, str]:
    """What `simulate --out --csv --challenger-csv` writes and prints."""
    rep = build_report(cfg, seeds)
    return {
        f"{name}/json": sha(dump_report(rep, cfg)),
        f"{name}/reps_csv": sha(csv_bytes(rep, "reps")),
        f"{name}/challengers_csv": sha(csv_bytes(rep, "challengers")),
        f"{name}/table": sha(render_table(rep).encode()),
    }


def ladder_artifacts(name: str, cfg, seed: int, res) -> dict[str, str]:
    """What `measure --out` writes and prints."""
    return {
        f"{name}/json": sha(to_json_bytes(ladder_to_dict(cfg, seed, res))),
        f"{name}/table": sha(render_ladder(res).encode()),
    }


def scenario(proto=None, topo=None, attack=None):
    """The criterion-2 fuzz base, with overrides."""
    return parse_scenario(
        {
            "name": "digest",
            "protocol": {
                "theta_claimed_bps": 250e6,
                "n": 10,
                "f": 0,
                "duration_ns": 100 * MS,
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


def fuzzed(topo: dict, seed: int, duration_ns: int = 100 * MS):
    f = seed % 4
    base = scenario({"f": f, "duration_ns": duration_ns}, topo)
    return dataclasses.replace(base, attack=fuzz_strategies(seed, 10, f))


def golden_cases():
    """(name, config, seed): short runs covering each data-plane path."""
    short = {"duration_ns": 20 * MS}
    both = FUZZ_TOPOLOGIES["both"]
    two_corrupt = {**short, "f": 2}
    yield "lossy_both_hops", scenario(short, both), 1
    yield "rush_side_channel", scenario(
        two_corrupt, both, {"challengers": {"9": {"name": "rush"}, "10": {"name": "rush"}}}
    ), 2
    yield "colluding_share_keys", scenario(
        two_corrupt,
        None,
        {
            "challengers": {"9": {"name": "share_keys"}, "10": {"name": "share_keys"}},
            "prover": {"name": "colluding_early"},
        },
    ), 3
    yield "delay", scenario(
        {**short, "f": 1}, LOSSY_UPLINK, {"challengers": {"4": {"name": "delay", "delay_ns": 3 * MS}}}
    ), 4
    # the backhaul carries 60% of the claim: the trigger comes after the deadline
    yield "deadline_before_trigger", scenario(
        {**short, "verifier_deadline_factor": 1.0}, {"backhaul_rate_bps": 150e6}
    ), 5
    # the backhaul carries 5% of the claim: probes are still queued at the horizon
    yield "horizon_cut", scenario(short, {"backhaul_rate_bps": 12.5e6}), 6
    # clock offsets move some first sends before zero
    yield "clock_offsets", scenario(
        short, {"clock_offset_range_ns": 5 * MS, "backhaul_jitter_stddev_ns": 300_000}
    ), 7
    # every challenger on its own uplink: theta0, faster and unpaced rates,
    # mixed propagation, jitter and loss
    mixed = [
        {
            "rate_bps": ("theta0", 40e6, None)[i % 3],
            "propagation_ns": (i + 1) * MS,
            "jitter_stddev_ns": 50_000 * (i % 2),
            "loss_prob": 0.03 if i % 4 == 0 else 0.0,
        }
        for i in range(10)
    ]
    yield "uplinks_mixed", scenario(short, {"uplink": {}, "uplinks": mixed}), 8
    # a timer-mode verifier (f < n/2) settles at its deadline with disputes
    timer = {
        "2": {"name": "withhold_report"},
        "5": {"name": "misreport_rtt", "rtt_ns": 1},
        "7": {"name": "withhold_all"},
        "9": {"name": "bad_merkle_claim"},
    }
    yield "timer_mode", scenario({**short, "f": 4, "timer_mode": True}, both, {"challengers": timer}), 9
    for seed in range(8):
        yield f"fuzz_both_{seed}", fuzzed(both, seed, 20 * MS), seed
    # deadline disputes: a dispute_forger's answer rejected as
    # dispute_bad_signature, and a lazy verdict from 9 reports plus 1 upheld dispute
    for seed in (14, 27):
        yield f"fuzz_both_{seed}", fuzzed(both, seed, 20 * MS), seed


def golden_artifacts() -> dict[str, str]:
    """A report whose first two reps give no verdict, and a climb that fails its third rung."""
    out = report_artifacts("golden/artifact/report", fuzzed(FUZZ_TOPOLOGIES["both"], 0, 20 * MS), [0, 1, 2])
    small = scenario(
        {"duration_ns": 20 * MS, "theta_claimed_bps": 40e6, "n": 4, "rate_policy": "per_n"},
        {"backhaul_rate_bps": 100e6, "queue_capacity_bytes": 30_000},
    )
    cfg = dataclasses.replace(small, ladder=LadderSpec(theta_start_bps=40e6, step_bps=40e6, max_bps=200e6))
    out.update(ladder_artifacts("golden/artifact/ladder", cfg, 1, ladder.run_ladder(cfg, seed=1)))
    return out


def full_cases():
    for name in bundled_names():
        for seed in range(3):
            yield f"bundled/{name}/seed{seed}", load_bundled(name), seed
    for topo_name, topo in FUZZ_TOPOLOGIES.items():
        for seed in range(80):
            yield f"fuzz/{topo_name}/seed{seed}", fuzzed(topo, seed), seed


def config_digests() -> dict[str, str]:
    """One digest per parsed config, so the report's `config` section is covered too."""

    def one(cfg) -> str:
        return hashlib.sha256(json.dumps(scenario_to_dict(cfg), sort_keys=True).encode()).hexdigest()

    out = {f"config/bundled/{name}": one(load_bundled(name)) for name in bundled_names()}
    for topo_name, topo in FUZZ_TOPOLOGIES.items():
        for seed in range(80):
            out[f"config/fuzz/{topo_name}/seed{seed}"] = one(fuzzed(topo, seed))
    return out


def artifact_digests() -> dict[str, str]:
    out: dict[str, str] = {}
    for name in bundled_names():
        out.update(report_artifacts(f"artifact/bundled/{name}", load_bundled(name), [0, 1, 2]))
    for seed in STALLS:
        out.update(report_artifacts(f"artifact/stall/seed{seed}", fuzzed({}, seed), [0, 1, 2]))
    return out


def ladder_digests(table=LISTED) -> dict[str, str]:
    """One digest per rung, taken from the runs `run_ladder` makes, and
    under LISTED the climb's artifacts."""
    out: dict[str, str] = {}
    real = ladder.run_scenario
    for name in LADDERS:
        for seed in (7, 8):
            rungs: list = []

            def recording(cfg, seed, collect_trace=True):
                res = real(cfg, seed=seed, collect_trace=collect_trace)
                rungs.append(res)
                return res

            cfg = load_bundled(name)
            ladder.run_scenario = recording
            try:
                climb = ladder.run_ladder(cfg, seed=seed)
            finally:
                ladder.run_scenario = real
            if table is LISTED:
                out.update(ladder_artifacts(f"artifact/ladder/{name}/seed{seed}", cfg, seed, climb))
            for i, res in enumerate(rungs):
                out[f"ladder/{name}/seed{seed}/rung{i}"] = digest(res, table)
    return out


def compute(which: str, table=LISTED) -> dict[str, str]:
    """The digests of case set `which`; under VERDICTS, of its simulated cases only."""
    artifacts = table is LISTED
    if which == "golden":
        out = {f"golden/{name}": digest(run_scenario(cfg, seed), table) for name, cfg, seed in golden_cases()}
        if artifacts:
            out.update(golden_artifacts())
        return out
    out = {name: digest(run_scenario(cfg, seed), table) for name, cfg, seed in full_cases()}
    out.update(ladder_digests(table))
    if artifacts:
        out.update(config_digests())
        out.update(artifact_digests())
    return out


def differences(expected: dict[str, str], got: dict[str, str]) -> list[str]:
    """Names of cases whose digest differs or that only one side has."""
    return sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))


def compared(expected: dict[str, str], got: dict[str, str]) -> list[str]:
    """The lines `--compare` prints, by the rules in the module docstring."""
    diff, cases = differences(expected, got), len(expected.keys() | got.keys())
    lines = [f"DIFFERS {name}: expected {expected.get(name)} got {got.get(name)}" for name in diff]
    lines.append(f"{cases - len(diff)}/{cases} cases identical")
    per_group = Counter(name.rpartition("/")[0] for name in diff)
    lines += [f"{group}: {count} differ" for group, count in sorted(per_group.items())]
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--cases", choices=("full", "golden"), default="full")
    ap.add_argument("--verdicts", action="store_true", help="digest the simulated cases over VERDICTS only")
    ap.add_argument("--compare", metavar="FILE", help="digests to compare against; exit 1 on any difference")
    args = ap.parse_args()
    got = compute(args.cases, VERDICTS if args.verdicts else LISTED)
    if args.compare is None:
        print(json.dumps(got, indent=1, sort_keys=True))
        return 0
    with open(args.compare) as fh:
        expected = json.load(fh)
    print("\n".join(compared(expected, got)))
    return 1 if differences(expected, got) else 0


if __name__ == "__main__":
    sys.exit(main())
