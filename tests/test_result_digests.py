"""Simulator results stay bit-identical to the recorded golden digests.

tests/golden_digests.json was written by `scripts/result_digests.py
--cases golden`; a change that moves any of these digests changed what
some run computes. A run's digest covers, by value, exactly the names
that the script's LISTED table gives for each recorded class: changing
any one of those values moves it, and nothing else can. Its
golden/artifact/ entries hash the bytes of a report's JSON, CSVs and
table and of a ladder's JSON and table.
"""

import copy
import dataclasses
import enum
import importlib.util
import json
import math
from pathlib import Path

import pytest

from backhaul.config import LadderSpec
from backhaul.netsim import SimResult, run_scenario

ROOT = Path(__file__).resolve().parent.parent


def load_script():
    spec = importlib.util.spec_from_file_location(
        "result_digests", ROOT / "scripts" / "result_digests.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


rd = load_script()
LISTED_NAMES = [(cls, name) for cls, names in rd.LISTED.items() for name in names]


def test_golden_digests_reproduce():
    expected = json.loads((ROOT / "tests" / "golden_digests.json").read_text())
    got = rd.compute("golden")
    assert rd.differences(expected, got) == []
    assert len(got) == len(expected) >= 15


def test_compare_ends_with_the_differences_counted_per_group():
    expected = {"fuzz/both/seed1": "a", "fuzz/both/seed2": "b", "artifact/stall/seed6/json": "c", "bundled/x/seed0": "d"}
    got = {**expected, "fuzz/both/seed1": "x", "fuzz/both/seed2": "y", "artifact/stall/seed6/json": "z"}
    assert rd.compared(expected, got) == [
        "DIFFERS artifact/stall/seed6/json: expected c got z",
        "DIFFERS fuzz/both/seed1: expected a got x",
        "DIFFERS fuzz/both/seed2: expected b got y",
        "1/4 cases identical",
        "artifact/stall/seed6: 1 differ",
        "fuzz/both: 2 differ",
    ]
    assert rd.compared(expected, expected) == ["4/4 cases identical"]
    # a case on one side only differs; identical cases are counted over both sides
    assert rd.compared(expected, {"bundled/x/seed0": "d"})[-3:] == [
        "1/4 cases identical",
        "artifact/stall/seed6: 1 differ",
        "fuzz/both: 2 differ",
    ]


@pytest.fixture(scope="module")
def res():
    """One short golden run with a verdict, a trigger and some drops."""
    cfg, seed = next((cfg, seed) for name, cfg, seed in rd.golden_cases() if name == "timer_mode")
    res = run_scenario(cfg, seed)
    assert res.output is not None and res.trigger_ns is not None and any(res.drops.values())
    return res


def bump(value):
    """A value of the same shape as `value` that differs from it."""
    if value is None:
        return 0
    if isinstance(value, bool):
        return not value
    if isinstance(value, enum.Enum):
        return next(m for m in type(value) if m is not value)
    if isinstance(value, float):
        return math.nextafter(value, math.inf)
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, bytes):
        return bytes([value[0] ^ 1]) + value[1:] if value else b"\x00"
    if isinstance(value, tuple):
        return (bump(value[0]),) + value[1:] if value else (0,)
    if isinstance(value, dict):
        key = next(iter(value), None)
        return {**value, key: bump(value[key])} if value else {0: 0}
    if dataclasses.is_dataclass(value):
        first = dataclasses.fields(value)[0].name
        return dataclasses.replace(value, **{first: bump(getattr(value, first))})
    raise AssertionError(f"no bump for {type(value).__name__}")


@pytest.mark.parametrize("cls, name", LISTED_NAMES, ids=[f"{c.__name__}.{n}" for c, n in LISTED_NAMES])
def test_each_listed_value_moves_the_digest(res, monkeypatch, cls, name):
    # the record that holds `name`: the result itself or one of its listed fields
    field = None if cls is SimResult else next(n for n in rd.LISTED[SimResult] if type(getattr(res, n)) is cls)
    holder = res if field is None else getattr(res, field)
    changed = bump(getattr(holder, name))
    before = rd.digest(res)
    if name in {f.name for f in dataclasses.fields(cls)}:
        # set on a copy: a derived field such as k has no constructor argument,
        # and a bumped f may break the corruption bound the constructor checks
        holder = copy.copy(holder)
        object.__setattr__(holder, name, changed)
        res = holder if field is None else dataclasses.replace(res, **{field: holder})
    else:
        # a class constant, such as ChallengeParams.b
        monkeypatch.setattr(cls, name, changed)
    assert rd.digest(res) != before


def test_a_verdict_digest_keeps_a_moved_delta_and_moves_with_a_dropped_verdict(res):
    # δ and everything timed from it move; the verdict's counts and outcome stay
    out = res.output
    slower = dataclasses.replace(
        out,
        delta_ns=out.delta_ns + 1,
        measured_bps=bump(out.measured_bps),
        guaranteed_bps=bump(out.guaranteed_bps),
    )
    moved = dataclasses.replace(res, output=slower, output_ns=res.output_ns + 1, trace=res.trace + ("x",))
    assert rd.digest(moved) != rd.digest(res)
    assert rd.digest(moved, rd.VERDICTS) == rd.digest(res, rd.VERDICTS)
    assert rd.digest(dataclasses.replace(res, output=None), rd.VERDICTS) != rd.digest(res, rd.VERDICTS)


def test_numbers_encode_by_type_and_sign(res):
    values = (1, 1.0, True, 0.0, -0.0)
    digests = {rd.digest(dataclasses.replace(res, max_queue_bytes=v)) for v in values}
    assert len(digests) == len(values)


def test_unlisted_attribute_leaves_the_digest(res):
    before = rd.digest(res)
    res.extra = 1
    try:
        assert rd.digest(res) == before
    finally:
        del res.extra


def test_unlisted_record_raises(res):
    spec = LadderSpec(theta_start_bps=1e6, step_bps=1e6, max_bps=2e6)
    with pytest.raises(TypeError, match="LadderSpec"):
        rd.digest(dataclasses.replace(res, trigger_ns=spec))
    with pytest.raises(TypeError, match="LadderSpec"):
        rd.digest(dataclasses.replace(res, output=dataclasses.replace(res.output, cnt=spec)))
