"""perfbench's workloads still build, run and gate on the program as it is.

`perfbench/run.py` builds each workload from the backhaul modules and
reads `schedule.overprovision_count` beside every run's params; a renamed
name or a changed signature stops the benchmark. This loads workloads.py
as the tracer test loads the tracer, builds all three workloads, and runs
and gates one attack_fuzz config.
"""

import importlib
import importlib.util
import sys
import types
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
# the modules the workloads and the benchmark's per-layer metrics read
MODULES = ("adversary", "cli", "config", "ladder", "netsim", "report", "schedule")


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up there
    spec.loader.exec_module(workloads)
    return workloads


def test_workloads_build_and_one_fuzz_run_passes_the_gate():
    wl = load_workloads()
    bh = types.SimpleNamespace(**{m: importlib.import_module(f"backhaul.{m}") for m in MODULES})
    built = {name: workload(bh, 0) for name, workload in wl.WORKLOADS.items()}
    assert sorted(built) == ["attack_fuzz", "honest_reps", "ladder_climb"]

    clock = wl.RunClock()
    seed, cfg = built["attack_fuzz"].configs[0]
    clock.wrap(bh.netsim.run_scenario)(cfg, seed, collect_trace=False)
    (call,) = clock.take()
    run = wl.to_run(call, f"fuzz/seed={seed}")
    assert run.failure is None and run.verdict["terminated"]

    p = call.result.params
    assert bh.schedule.overprovision_count(p.k, p.overprovision) == p.signatures_per_challenger
