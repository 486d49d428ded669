#!/usr/bin/env python3
"""Closed-loop benchmark of backhaul's simulated runs.

    python3 perfbench/run.py --workload honest_reps --seed 0 --seconds 15 --trace 0

Runs are measured in one process and one thread (only the set-up timing
starts other interpreters, one at a time, before any run). A run is one
`run_scenario` call, and each run starts when the previous one ends.
The workloads live in workloads.py:

  honest_reps   build_report + dump_report on overhead_1000, seeds s..s+3
  attack_fuzz   the criterion-2 fuzz sweep, configs for seeds s..s+99
  ladder_climb  run_ladder on cross_traffic_220/140/90, seeds s and s+1

The benchmark repeats whole passes over the workload's inputs until
--seconds have gone by, it made at least MIN_PASSES passes and at least
MIN_RUNS runs, checks every run with the gate in workloads.py, and
requires every pass to give the same verdicts.

--trace 0 measures with nothing traced and reports the end-to-end
metrics. runs_per_s and cpu_ms_per_run come from whole passes (the
runs a pass attempted over its wall or CPU time, median pass), so work
between runs counts and a pass that spreads its runs over other
processes can still be measured. run_p50_ms and run_p90_ms are taken
over every run of every pass, timed around each run_scenario call made
in this process. The same four are also given in reference units
(runs_per_kref, run_p50_ref, run_p90_ref, cpu_ref_per_run): each pass's
times divided by the median time of a fixed reference computation
measured between its runs (see Reference). Those four, not the raw
ones, are the bounded metrics in the JSON result, because a shared
machine's speed can drift by more than any useful bound. setup_s is the median of
SETUP_REPS set-ups, each in a fresh interpreter, so it includes the
cold import of the program and of its dependencies.

--trace 1 alternates untraced and traced passes: the traced ones give
the per-layer metrics (spans recorded by tracer.py around calls into
each module), and the traced pass minus the untraced one is the tracing
overhead. It makes at least MIN_PASSES traced passes; one that only
makes up that number after --seconds are over runs without an
untraced partner. Per-layer counts are totals over one pass and must
repeat exactly; per-layer times are milliseconds per pass, the median
over the traced passes.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. The program
is imported from src/ beside this directory; without it the benchmark
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

from tracer import Patcher, Tracer  # noqa: E402
from workloads import UNSOUND, WORKLOADS, Run, RunClock  # noqa: E402

MODULES = (
    "adversary", "cli", "config", "crypto", "ladder",
    "netsim", "report", "roles", "schedule", "wire",
)
SETUP_REPS = 9
MIN_PASSES = 2
MIN_RUNS = 30  # enough for a tail percentile above the median
TAIL_Q = 0.90
TAIL_BEYOND = 10
KNOT_RATES_MBPS = (500, 750, 1000)

# The bounded end-to-end metrics, in BENCHMARK.json: the run timings in
# reference units (see Reference), set-up time and memory.
END_TO_END_UNITS = {
    "runs_per_kref": "1/kref",
    "run_p50_ref": "ref",
    "run_p90_ref": "ref",
    "cpu_ref_per_run": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# The same run timings in seconds, as measured; printed beside them.
WALL_UNITS = {
    "runs_per_s": "1/s",
    "run_p50_ms": "ms",
    "run_p90_ms": "ms",
    "cpu_ms_per_run": "ms",
}

# Deterministic counts: must repeat exactly between passes and between runs.
FIXED_COUNTS = {
    "signs": "crypto.sign.calls",
    "verifies": "crypto.verify.calls",
    "hashes": "crypto.hash_packet_set.calls",
    "heap_pushes": "netsim.heap_pushes",
    "on_probe_calls": "roles.on_probe.calls",
    "sigs_per_challenger_reads": "schedule.sigs_per_challenger.reads",
}


class ProgramMissing(RuntimeError):
    pass


def import_program() -> types.SimpleNamespace:
    """Import backhaul from SRC."""
    try:
        pkg = importlib.import_module("backhaul")
    except ImportError as exc:
        raise ProgramMissing(f"cannot import backhaul from {SRC}: {exc}") from exc
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"backhaul came from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"backhaul.{m}") for m in MODULES}
    )


def set_up_once(name: str, seed: int) -> float:
    """Seconds to import the program, load and parse scenarios and make inputs."""
    t0 = time.perf_counter()
    WORKLOADS[name](import_program(), seed)
    return time.perf_counter() - t0


def set_up(name: str, seed: int):
    """Set up in this process, then time SETUP_REPS set-ups in fresh interpreters.

    Returns the program, the workload and the median set-up time.
    """
    bh = import_program()
    workload = WORKLOADS[name](bh, seed)
    child = f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; print(run.set_up_once({name!r}, {seed}))"
    times = []
    for _ in range(SETUP_REPS):
        done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise ProgramMissing(f"set-up failed in a fresh interpreter: {done.stderr.strip()}")
        times.append(float(done.stdout.split()[-1]))
    return bh, workload, statistics.median(times)


def cpu_s() -> float:
    """CPU seconds used so far by this process and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


class Reference:
    """Host speed: fixed work in the program's dependencies (Ed25519 signing
    and SHA-256), none of it the program's own code, timed between runs.

    On a shared 2-core virtual machine, speed was seen to drift by up to
    1.6x over minutes. A run's time divided by the reference time taken
    beside it cancels most of that drift, and moves only when the
    program's own work changes.
    """

    SIGNS = 60
    BLOCK = bytes(20_000)
    EVERY_S = 0.25  # between runs, measure again once this much time has passed

    def __init__(self):
        from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

        self._key = Ed25519PrivateKey.from_private_bytes(bytes(32))
        self.times: list[float] = []
        self.spent_s = 0.0  # time taken by measurements between runs
        self._last = -math.inf

    def measure(self) -> float:
        t0 = time.perf_counter()
        for i in range(self.SIGNS):
            self._key.sign(i.to_bytes(4, "big"))
        hashlib.sha256(self.BLOCK).digest()
        t1 = time.perf_counter()
        self.times.append(t1 - t0)
        self._last = t1
        return t1 - t0

    def between_runs(self, fn):
        @functools.wraps(fn)
        def measured_first(*args, **kwargs):
            if time.perf_counter() - self._last >= self.EVERY_S:
                self.spent_s += self.measure()
            return fn(*args, **kwargs)

        return measured_first

    def start(self) -> None:
        self.times.clear()
        self.spent_s = 0.0
        self.measure()

    def median_s(self) -> float:
        """Median reference time since start(), ending with a fresh measurement."""
        self.measure()
        return statistics.median(self.times)


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    ref_s: float
    attempted: int
    runs: list[Run]
    problems: list[str]
    digest: str


def verdict_digest(runs: list[Run]) -> str:
    canon = json.dumps([[r.label, r.verdict] for r in runs], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def one_pass(workload, clock: RunClock, ref: Reference) -> Pass:
    clock.take()
    ref.start()
    c0, t0 = cpu_s(), time.perf_counter()
    out = workload.run_pass(clock)
    wall, cpu = time.perf_counter() - t0 - ref.spent_s, cpu_s() - c0 - ref.spent_s
    runs, problems = workload.evaluate(out, clock.take())
    attempted = workload.attempted(out)
    if len(runs) != attempted:
        problems.append(
            f"runs not observed: {attempted} attempted, {len(runs)} seen calling run_scenario"
            " in this process, so the others' times and verdicts are unchecked"
        )
    return Pass(wall, cpu, ref.median_s(), attempted, runs, problems, verdict_digest(runs))


def repeat_passes(seconds: float, step, at_least) -> list:
    """Call step() until `seconds` have elapsed and at_least(results) is met."""
    out = []
    start = time.perf_counter()
    while not out or len(out) < at_least(out) or time.perf_counter() - start < seconds:
        out.append(step())
    return out


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile up to p90 that leaves TAIL_BEYOND values above it.

    With too few values for any percentile above the median to qualify,
    the tail is the median itself. Returns (value, percentile as 0..1).
    """
    xs = sorted(values)
    n = len(xs)
    rank = min(math.ceil(TAIL_Q * n), n - TAIL_BEYOND)
    if rank <= (n + 1) / 2:
        return statistics.median(xs), 0.5
    return xs[rank - 1], rank / n


def host() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cryptography": importlib.metadata.version("cryptography"),
    }


def check_passes(passes: list[Pass]) -> list[str]:
    """Every pass must give the same verdicts, and none may be unsound."""
    problems = list(dict.fromkeys(p for ps in passes for p in ps.problems))
    if len({ps.digest for ps in passes}) > 1:
        problems.append("verdicts differ between passes of the same inputs")
    unsound = sorted({r.label for ps in passes for r in ps.runs if (r.failure or "").startswith(UNSOUND)})
    if unsound:
        problems.append(f"unsound verdicts: {unsound}")
    return problems


def failing(passes: list[Pass]) -> dict[str, str]:
    return {r.label: r.failure for ps in passes for r in ps.runs if r.failure}


def run_timings(passes: list[Pass], unit) -> tuple[float, float, float, float, float, int]:
    """Runs per time unit, run p50, tail and tail percentile, CPU per run, sample count.

    Times are in units of unit(pass) seconds. runs per unit and CPU per run
    come from whole passes (median pass); p50 and the tail are over every
    observed run, or, if no run was observed (see one_pass), over each
    pass's mean run so that the metrics still print.
    """
    samples = [r.wall_s / unit(ps) for ps in passes for r in ps.runs] or [
        ps.wall_s / ps.attempted / unit(ps) for ps in passes if ps.attempted
    ]
    high, q = tail(samples)
    rate = statistics.median(ps.attempted * unit(ps) / ps.wall_s for ps in passes)
    cpu = statistics.median(ps.cpu_s / max(ps.attempted, 1) / unit(ps) for ps in passes)
    return rate, statistics.median(samples), high, q, cpu, len(samples)


def measure_untraced(bh, workload, seconds: float, setup_s: float):
    clock = RunClock()
    ref = Reference()
    patcher = Patcher()
    patcher.function(bh.netsim, "run_scenario", lambda fn: ref.between_runs(clock.wrap(fn)))

    def at_least(passes):
        return max(MIN_PASSES, math.ceil(MIN_RUNS / max(passes[0].attempted, 1)))

    try:
        passes = repeat_passes(seconds, lambda: one_pass(workload, clock, ref), at_least)
    finally:
        patcher.restore()

    rate, p50, p90, q, cpu, n = run_timings(passes, lambda ps: ps.ref_s)
    wall_rate, wall_p50, wall_p90, _, wall_cpu, _ = run_timings(passes, lambda ps: 1.0)
    metrics = {
        "runs_per_kref": rate * 1e3,
        "run_p50_ref": p50,
        "run_p90_ref": p90,
        "cpu_ref_per_run": cpu,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "runs_per_s": wall_rate,
        "run_p50_ms": wall_p50 * 1e3,
        "run_p90_ms": wall_p90 * 1e3,
        "cpu_ms_per_run": wall_cpu * 1e3,
    }
    total = sum(ps.attempted for ps in passes)
    failed = sum(1 for ps in passes for r in ps.runs if r.failure)
    err = workload.error_pct(passes[0].runs)
    ref_ms = statistics.median(ps.ref_s for ps in passes) * 1e3
    notes = {
        "runs_per_kref": f"median over {len(passes)} passes of runs attempted / pass wall time in kref",
        "run_p50_ref": f"median of {n} runs",
        "run_p90_ref": (
            f"p{q * 100:.0f} of the same {n}, {n - round(q * n)} beyond it" if q > 0.5
            else f"median: fewer than {2 * TAIL_BEYOND + 2} runs, no higher percentile has {TAIL_BEYOND} beyond it"
        ),
        "cpu_ref_per_run": f"median over {len(passes)} passes of process+children CPU in ref / runs attempted",
        "setup_s": f"median of {SETUP_REPS} set-ups, each in a fresh interpreter",
    }
    lines = [f"passes={len(passes)} runs={total} reference={ref_ms:.4f} ms (1 ref; 1 kref = 1000 ref)"]
    lines += [
        f"{name:<18} {metrics[name]:.6g} {unit}" + (f"   ({notes[name]})" if name in notes else "")
        for name, unit in {**END_TO_END_UNITS, **WALL_UNITS}.items()
    ]
    lines.append(f"{'failed_share':<18} {failed / max(total, 1):.6g} ratio   ({failed} of {total} runs fail the gate)")
    lines.append(f"{'measured_err_pct':<18} " + ("n/a" if err is None else f"{err!r} %"))
    lines.append(f"{'verdict_sha256':<18} {passes[0].digest}")
    for label, why in failing(passes).items():
        lines.append(f"failing {label}: {why}")
    return metrics, lines, passes, check_passes(passes)


def layer_values(snap: dict, runs: list[Run], bh, workload_name: str) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: (value, unit) by name."""

    def calls(name):
        return snap.get(name, (0, 0.0, 0.0))[0]

    def ms(name):
        return snap.get(name, (0, 0.0, 0.0))[1] * 1e3

    def self_ms(name):
        c, total, child = snap.get(name, (0, 0.0, 0.0))
        return (total - child) * 1e3

    results = [r.result for r in runs if r.result is not None]
    made = sum(
        res.params.n * bh.schedule.overprovision_count(res.params.k, res.params.overprovision)
        for res in results
    )
    counted = sum(res.output.cnt for res in results if res.output is not None)
    probes = calls("roles.on_probe")
    disputes = calls("roles.on_dispute")
    out = {}
    for span in ("crypto.sign", "crypto.verify", "crypto.hash_packet_set", "crypto.merkle",
                 "roles.on_probe", "roles.on_dispute", "wire.encode"):
        out[f"{span}.calls"] = (calls(span), "count")
        out[f"{span}.ms"] = (ms(span), "ms")
    out["crypto.keygen.calls"] = (calls("crypto.keygen"), "count")
    out["roles.challenger_init.ms"] = (ms("roles.challenger_init"), "ms")
    out["roles.build_responses.ms"] = (ms("roles.build_responses"), "ms")
    out["roles.disputes_upheld_ratio"] = (calls("roles.disputes_upheld") / disputes if disputes else 0.0, "ratio")
    out["roles.verifier_rejections"] = (sum(len(res.rejections) for res in results), "count")
    out["roles.counted_ratio"] = (counted / made if made else 0.0, "ratio")
    out["schedule.sigs_per_challenger.reads"] = (calls("schedule.sigs_per_challenger"), "count")
    out["schedule.sigs_per_challenger.ms"] = (ms("schedule.sigs_per_challenger"), "ms")
    out["netsim.run_scenario.self_ms"] = (self_ms("netsim.run_scenario"), "ms")
    out["netsim.loop.self_ms"] = (self_ms("netsim.loop"), "ms")
    out["netsim.link.sends"] = (calls("netsim.link"), "count")
    out["netsim.link.ms"] = (ms("netsim.link"), "ms")
    out["netsim.heap_pushes"] = (calls("netsim.heap_pushes"), "count")
    out["netsim.heap_pushes_per_probe"] = (calls("netsim.heap_pushes") / probes if probes else 0.0, "1/probe")
    out["netsim.rate_fn.calls"] = (calls("netsim.rate_fn"), "count")
    out["netsim.tail_dropped"] = (sum(res.drops["backhaul_tail_dropped"] for res in results), "count")
    out["netsim.lost"] = (sum(res.drops["uplink_lost"] + res.drops["backhaul_lost"] for res in results), "count")
    out["netsim.max_queue_bytes"] = (max((res.max_queue_bytes for res in results), default=0), "bytes")
    out["wire.bitmap.ms"] = (ms("wire.bitmap"), "ms")
    out["adversary.sends_for.ms"] = (ms("adversary.sends_for"), "ms")
    out["adversary.dispute_for.calls"] = (calls("adversary.dispute_for"), "count")
    out["ladder.rungs"] = (len(runs) if workload_name == "ladder_climb" else 0, "count")
    out["report.build_report.self_ms"] = (self_ms("report.build_report"), "ms")
    out["report.dump_report.ms"] = (ms("report.dump_report"), "ms")
    return out


def measure_knots(bh, tracer: Tracer, clock: RunClock, seed: int) -> dict[str, tuple[float, str]]:
    """roles.build_responses ms at the rates OVERHEAD_KNOTS was typed for."""
    out = {}
    for mbps in KNOT_RATES_MBPS:
        cfg = bh.cli.load_bundled(f"overhead_{mbps}")
        build_ms = []
        for s in (seed, seed + 1):
            tracer.reset()
            bh.netsim.run_scenario(cfg, s, collect_trace=False)
            build_ms.append(tracer.snapshot()["roles.build_responses"][1] * 1e3)
        clock.take()
        out[f"knots.build_responses_{mbps}.ms"] = (statistics.median(build_ms), "ms")
    return out


def measure_traced(bh, workload_name: str, seed: int, seconds: float):
    tracer = Tracer()
    tracer.install(bh)
    tracer.reset()
    workload = WORKLOADS[workload_name](bh, seed)
    parse_ms = tracer.snapshot()["config.parse_scenario"][1] * 1e3
    tracer.uninstall()

    clock = RunClock()
    ref = Reference()
    patcher = Patcher()
    patcher.function(bh.netsim, "run_scenario", clock.wrap)

    start = time.perf_counter()

    def pair():
        # Once time is up, a pass only runs to make up MIN_PASSES traced
        # passes, so it needs no untraced partner.
        plain = one_pass(workload, clock, ref) if time.perf_counter() - start < seconds else None
        tracer.install(bh)
        tracer.reset()
        try:
            traced = one_pass(workload, clock, ref)
            snap = tracer.snapshot()
        finally:
            tracer.uninstall()
        return plain, traced, layer_values(snap, traced.runs, bh, workload_name)

    try:
        pairs = repeat_passes(seconds, pair, lambda _: MIN_PASSES)
        tracer.install(bh)
        try:
            knots = measure_knots(bh, tracer, clock, seed)
        finally:
            tracer.uninstall()
    finally:
        patcher.restore()

    passes = [ps for plain, traced, _ in pairs for ps in (plain, traced) if ps is not None]
    problems = check_passes(passes)
    per_pass = [layers for _, _, layers in pairs]
    metrics = {}
    for name, (value, unit) in per_pass[0].items():
        values = [layers[name][0] for layers in per_pass]
        if unit != "count":
            value = statistics.median(values)
        elif len(set(values)) > 1:
            problems.append(f"{name} differs between traced passes: {values}")
        metrics[name] = (value, unit)
    metrics["config.parse_scenario.ms"] = (parse_ms, "ms")
    metrics.update(knots)
    table = {round(theta / 1e6): ns / 1e6 for theta, ns in bh.netsim.OVERHEAD_KNOTS}
    for mbps in KNOT_RATES_MBPS:
        metrics[f"knots.drift_{mbps}"] = (metrics[f"knots.build_responses_{mbps}.ms"][0] / table[mbps], "ratio")
    runs_per_pass = pairs[0][1].attempted
    matched = [(plain, traced) for plain, traced, _ in pairs if plain is not None]
    extra = [(traced.wall_s - plain.wall_s) / max(runs_per_pass, 1) for plain, traced in matched]
    ratio = [traced.wall_s / plain.wall_s - 1.0 for plain, traced in matched]
    metrics["trace.overhead_ms_per_run"] = (statistics.median(extra) * 1e3, "ms")
    metrics["trace.overhead_pct"] = (statistics.median(ratio) * 100.0, "%")

    lines = [f"traced passes={len(pairs)} untraced passes={len(matched)} runs per pass={runs_per_pass}"]
    lines += [
        f"{name:<36} {value:.6g} {unit}" if isinstance(value, float) else f"{name:<36} {value} {unit}"
        for name, (value, unit) in metrics.items()
    ]
    lines.append(
        "fixed counts " + json.dumps({k: metrics[v][0] for k, v in FIXED_COUNTS.items()}, sort_keys=True)
    )
    for mbps in KNOT_RATES_MBPS:
        lines.append(
            f"knot {mbps} Mbit/s: build_responses {metrics[f'knots.build_responses_{mbps}.ms'][0]:.3f} ms"
            f" vs OVERHEAD_KNOTS {table[mbps]:.3f} ms"
        )
    lines.append(
        f"tracing overhead {metrics['trace.overhead_ms_per_run'][0]:.3f} ms per run"
        f" ({metrics['trace.overhead_pct'][0]:.2f}%): traced pass minus untraced pass"
    )
    lines.append(f"{'verdict_sha256':<18} {passes[0].digest}")
    for label, why in failing(passes).items():
        lines.append(f"failing {label}: {why}")
    values = {k: v for k, (v, _) in metrics.items()}
    units = {k: u for k, (_, u) in metrics.items()}
    return values, units, lines, passes, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    try:
        bh, workload, setup_s = set_up(args.workload, args.seed)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("host " + json.dumps(host(), sort_keys=True))
    if args.trace:
        values, units, lines, passes, problems = measure_traced(bh, args.workload, args.seed, args.seconds)
    else:
        values, lines, passes, problems = measure_untraced(bh, workload, args.seconds, setup_s)
        units = END_TO_END_UNITS
    for line in lines:
        print(line)
    for problem in problems:
        print(f"INCORRECT {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": max(sum(ps.attempted for ps in passes), 1),
        "failed": sum(1 for ps in passes for r in ps.runs if r.failure),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
