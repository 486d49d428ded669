"""Every name perfbench's tracer patches still exists in the program.

`perfbench/run.py --trace 1` looks each one up when it installs its spans,
and a missing name stops the benchmark with a KeyError; this reads the
tracer's tables and checks the names the same way, without patching.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
