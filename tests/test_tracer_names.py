"""Every name perfbench's tracer patches still exists in the program, and a
short traced benchmark run completes.

`perfbench/run.py --trace 1` looks each one up when it installs its spans,
and a missing name stops the benchmark with a KeyError; this reads the
tracer's tables and checks the names the same way, without patching. A
span whose target moved without breaking a name shows only in a real
traced run, so one short run goes through the harness as a subprocess.
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


tracer = load_tracer()


def module(name):
    return importlib.import_module(f"backhaul.{name}")


@pytest.mark.parametrize("mod, attr, _", tracer.FUNCTION_SPANS)
def test_function_spans(mod, attr, _):
    assert inspect.isfunction(getattr(module(mod), attr))


@pytest.mark.parametrize("mod, cls, attr", [span[:3] for span in tracer.METHOD_SPANS] + [tracer.HEAP_PUSH[:3]])
def test_method_spans_are_defined_on_their_class(mod, cls, attr):
    # the patcher reads `cls.__dict__`, so an inherited method does not count
    assert inspect.isfunction(vars(getattr(module(mod), cls))[attr])


@pytest.mark.parametrize("mod, cls, attr, _", tracer.PROPERTY_SPANS)
def test_property_spans(mod, cls, attr, _):
    assert isinstance(vars(getattr(module(mod), cls))[attr], property)


def test_rate_fn_factory():
    assert inspect.isfunction(module("netsim").make_rate_fn)


def test_a_short_traced_ladder_climb_completes():
    args = ("--workload", "ladder_climb", "--seed", "0", "--seconds", "0.5", "--trace", "1")
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), *args], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0)
