"""Command line harness.

Three subcommands: `simulate` runs one scenario for one or more seeds
and reports the verdicts, `measure` climbs a rate ladder to estimate
available bandwidth, and `report` re-renders a saved JSON report.

Exit codes: 0 success, 2 bad configuration or arguments, 3 runtime
failure, 4 completed but produced no verdict (nothing terminated, or
the ladder floor was already too high).

Set BACKHAUL_LOG=debug|info|warning to control log verbosity.
"""

from __future__ import annotations

import json
import os
import sys
from importlib import resources

from . import report as rpt
from .adversary import AttackError
from .config import ConfigError, ScenarioConfig, load_scenario, parse_scenario
from .ladder import run_ladder
from .netsim import SimError, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_NO_VERDICT = 4


def bundled_names() -> list[str]:
    base = resources.files("backhaul").joinpath("scenarios")
    return sorted(
        p.name[: -len(".json")]
        for p in base.iterdir()
        if p.name.endswith(".json")
    )


def load_bundled(name: str) -> ScenarioConfig:
    path = resources.files("backhaul").joinpath("scenarios", f"{name}.json")
    if not path.is_file():
        known = ", ".join(bundled_names()) or "(none)"
        raise ConfigError(f"no bundled scenario {name!r}; available: {known}")
    obj = json.loads(path.read_text(encoding="utf-8"))
    return parse_scenario(obj, source=name)


def _log():
    # logging and argparse are imported only by the commands, so that
    # importing this module (for load_bundled, say) stays cheap
    import logging

    return logging.getLogger("backhaul")


def _add_scenario_args(p) -> None:
    src = p.add_mutually_exclusive_group()
    src.add_argument("--config", metavar="PATH", help="scenario JSON file")
    src.add_argument(
        "--scenario", metavar="NAME", help="name of a bundled scenario"
    )
    p.add_argument(
        "--list-scenarios",
        action="store_true",
        help="list bundled scenario names and exit",
    )
    p.add_argument("--seed", type=int, default=0)


def _resolve_scenario(args) -> ScenarioConfig:
    if args.config:
        return load_scenario(args.config)
    if args.scenario:
        return load_bundled(args.scenario)
    raise ConfigError("one of --config or --scenario is required")


def _write(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)
    _log().info("wrote %s (%d bytes)", path, len(data))


def cmd_simulate(args) -> int:
    cfg = _resolve_scenario(args)
    seeds = list(range(args.seed, args.seed + args.reps))
    _log().info("simulate %s seeds=%s", cfg.name or "(unnamed)", seeds)

    if args.trace:
        res = run_scenario(cfg, seed=seeds[0], collect_trace=True)
        _write(args.trace, ("\n".join(res.trace) + "\n").encode())

    report = rpt.build_report(cfg, seeds)
    print(rpt.render_table(report))
    if args.out:
        _write(args.out, rpt.dump_report(report, cfg))
    if args.csv:
        _write(args.csv, rpt.csv_bytes(report, "reps"))
    if args.challenger_csv:
        _write(args.challenger_csv, rpt.csv_bytes(report, "challengers"))
    return EXIT_OK if report.terminated_reps else EXIT_NO_VERDICT


def cmd_measure(args) -> int:
    cfg = _resolve_scenario(args)
    _log().info("measure %s seed=%d", cfg.name or "(unnamed)", args.seed)
    result = run_ladder(cfg, seed=args.seed)
    print(rpt.render_ladder(result))
    if args.out:
        _write(args.out, rpt.to_json_bytes(rpt.ladder_to_dict(cfg, args.seed, result)))
    return EXIT_NO_VERDICT if result.below_floor else EXIT_OK


def cmd_report(args) -> int:
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{args.report}: invalid JSON: {e}") from e
    try:
        report = rpt.report_from_dict(obj)
    except (KeyError, TypeError) as e:
        raise ConfigError(f"{args.report}: not a run report ({e})") from e
    print(rpt.render_table(report))
    if args.csv:
        _write(args.csv, rpt.csv_bytes(report, "reps"))
    if args.challenger_csv:
        _write(args.challenger_csv, rpt.csv_bytes(report, "challengers"))
    return EXIT_OK


def build_parser():
    import argparse

    p = argparse.ArgumentParser(
        prog="backhaul",
        description="Verifiable backhaul bandwidth: simulator and harness",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario and print verdicts")
    _add_scenario_args(sim)
    sim.add_argument("--reps", type=int, default=1, help="runs, seeds seed..seed+reps-1")
    sim.add_argument("--out", metavar="PATH", help="write the JSON report here")
    sim.add_argument("--csv", metavar="PATH", help="write a per-run CSV here")
    sim.add_argument(
        "--challenger-csv", metavar="PATH", help="write a per-challenger CSV here"
    )
    sim.add_argument(
        "--trace", metavar="PATH", help="write the first run's event trace here"
    )
    sim.set_defaults(fn=cmd_simulate)

    meas = sub.add_parser("measure", help="estimate available bandwidth by ladder")
    _add_scenario_args(meas)
    meas.add_argument("--out", metavar="PATH", help="write the JSON result here")
    meas.set_defaults(fn=cmd_measure)

    rep = sub.add_parser("report", help="render a saved JSON report")
    rep.add_argument("report", help="report file from simulate --out")
    rep.add_argument("--csv", metavar="PATH", help="write a per-run CSV here")
    rep.add_argument(
        "--challenger-csv", metavar="PATH", help="write a per-challenger CSV here"
    )
    rep.set_defaults(fn=cmd_report)
    return p


def main(argv=None) -> int:
    import logging

    logging.basicConfig(
        level=os.environ.get("BACKHAUL_LOG", "warning").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "list_scenarios", False):
        for name in bundled_names():
            print(name)
        return EXIT_OK
    if args.fn is cmd_simulate and args.reps < 1:
        print("error: --reps must be at least 1", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (AttackError, SimError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
