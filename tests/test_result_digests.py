"""Simulator results stay bit-identical to the recorded golden digests.

tests/golden_digests.json was written by `scripts/result_digests.py
--cases golden` before the probe phase became a pass over sorted streams;
a change that moves any of these digests changed what some run computes.
Its golden/artifact/ entries, the bytes of a report's JSON, CSVs and
table and of a ladder's JSON and table, were recorded before reports and
ladder results took their fields from the record declarations. Its
golden/uplinks_mixed entry, one uplink per challenger, was recorded
before netsim's links were built from their `LinkSpec`. Its
golden/timer_mode entry, a timer-mode verifier that settles at its
deadline with disputes, was recorded before `run_scenario` became one
step per phase.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_script():
    spec = importlib.util.spec_from_file_location(
        "result_digests", ROOT / "scripts" / "result_digests.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_golden_digests_reproduce():
    expected = json.loads((ROOT / "tests" / "golden_digests.json").read_text())
    rd = load_script()
    got = rd.compute("golden")
    assert rd.differences(expected, got) == []
    assert len(got) == len(expected) >= 15
