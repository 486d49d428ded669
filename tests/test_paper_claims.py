"""scripts/paper_claims.py prints the paper's three claims, figure for figure.

The expected text is the output of `--seeds 1`; a change that moves any
figure here changed what the simulator measures for a bundled scenario.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

EXPECTED = """\
== 1. accuracy: honest measurement against the claim, seeds 0-0 ==
scenario            claim   measured  error %
honest_250            250     249.98     0.01
honest_500            500     499.98     0.00
overhead_500          500     476.97     4.61
overhead_750          750     696.91     7.08
overhead_1000        1000     904.77     9.52

== 2. soundness: verdicts under corrupt challengers ==
scenario                    ok  measured Mbit/s   guaranteed
honest_250                1/ 1           249.98       249.98
rushing_250               1/ 1           331.33       248.50
withholding_250           1/ 1           248.87       186.65
withholding_noisy_250     1/ 1           247.49       185.62
claim is 250 Mbit/s; guaranteed must never exceed it

== 3. bandwidth: the rate ladder under cross traffic ==
scenario              available   estimate  error %
cross_traffic_220           220     219.98     0.01
cross_traffic_140           140     139.98     0.01
cross_traffic_90            104     100.03     3.82
"""


def test_one_seed_output_is_pinned(capsys):
    spec = importlib.util.spec_from_file_location("paper_claims", ROOT / "scripts" / "paper_claims.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    mod.main(["--seeds", "1"])
    assert capsys.readouterr().out == EXPECTED
