"""Multichallenger bandwidth proofs: library, simulator, and harness.

The pieces compose bottom-up: `crypto` and `wire` define evidence and
packet formats, `schedule` sizes a challenge, `roles` implements the
three protocol parties, `netsim` runs them through a simulated network
described by `config`, `adversary` reshapes runs into attacks, `ladder`
searches for available bandwidth, `report` folds runs into artifacts,
`live` speaks the wire formats over UDP, and `cli` fronts it all.
"""

from .config import ScenarioConfig, load_scenario, parse_scenario
from .crypto import keygen
from .ladder import LadderResult, run_ladder
from .netsim import SimResult, run_scenario
from .report import RunReport, build_report
from .roles import Challenger, PoBOutput, Prover, Session, Verifier
from .schedule import ChallengeParams, RatePolicy, derive_params, send_schedule

__version__ = "0.1.0"

__all__ = [
    "ChallengeParams",
    "Challenger",
    "LadderResult",
    "PoBOutput",
    "Prover",
    "RatePolicy",
    "RunReport",
    "ScenarioConfig",
    "Session",
    "SimResult",
    "Verifier",
    "__version__",
    "build_report",
    "derive_params",
    "keygen",
    "load_scenario",
    "parse_scenario",
    "run_ladder",
    "run_scenario",
    "send_schedule",
]
