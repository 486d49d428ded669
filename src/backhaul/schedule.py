"""Challenge parameter derivation and the aligned send schedule.

A challenge against a claimed rate theta splits that rate across m
challengers (m = n or n - f by policy, default n - f so the honest
majority alone can saturate the claim). Each challenger paces probe
packets of PACKET_BYTES at rate theta0 = theta / m; k is chosen so the
termination threshold (n - f) * k packets represents `duration` worth
of traffic through the claimed backhaul.

First-send times are staggered so every challenger's first packet lands
on the bottleneck simultaneously: t_i1 = t0 + (l_ref - l_i) with l_ref
the largest estimated one-way latency.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar, Sequence

from .wire import WIRE_PACKET_LEN

PACKET_BYTES = WIRE_PACKET_LEN
DEFAULT_OVERPROVISION = 1.1
# a challenger gives up on the response this many durations after its first send
DEFAULT_TIMEOUT_FACTOR = 5.0


class ParamsError(ValueError):
    """Invalid challenge parameters."""


class RatePolicy(enum.Enum):
    PER_N = "per_n"
    PER_N_MINUS_F = "per_n_minus_f"


def overprovision_count(k: int, rho: float) -> int:
    """ceil(rho * k) computed exactly; float dust must not round 231 up to 232."""
    if k < 0:
        raise ParamsError(f"k must be nonnegative, got {k}")
    frac = Fraction(str(rho))
    if frac < 1:
        raise ParamsError(f"overprovision {rho} must be >= 1")
    return int(math.ceil(k * frac))


@dataclass(frozen=True)
class ChallengeParams:
    """Everything both sides must agree on before a challenge starts."""

    theta_claimed_bps: float
    n: int
    f: int
    duration_ns: int
    k: int
    theta0_bps: float
    rate_policy: RatePolicy
    overprovision: float = DEFAULT_OVERPROVISION
    t0_ns: int = 0
    m0: bytes = bytes(32)
    # bytes per probe packet, the same for every challenge
    b: ClassVar[int] = PACKET_BYTES
    _signatures: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # validates rho >= 1; computed once, as the probe path reads it often
        object.__setattr__(self, "_signatures", overprovision_count(self.k, self.overprovision))

    @property
    def threshold(self) -> int:
        """Packets the prover must collect before responding: (n - f) * k."""
        return (self.n - self.f) * self.k

    @property
    def signatures_per_challenger(self) -> int:
        """Overprovisioned probe count ceil(rho * k)."""
        return self._signatures

    @property
    def spacing_ns(self) -> float:
        """Pacing gap between consecutive probes of one challenger."""
        return self.b * 8 * 1e9 / self.theta0_bps

    @property
    def service_time_ns(self) -> float:
        """Time for one probe to cross the claimed backhaul."""
        return self.b * 8 * 1e9 / self.theta_claimed_bps


def check_corruption_bound(n: int, f: int, timer_mode: bool) -> None:
    """A lazy verifier tolerates f < n/3 corrupt challengers; a timer-mode one,
    which closes collection on a deadline instead of waiting, f < n/2."""
    if f >= (n / 2 if timer_mode else n / 3):
        raise ParamsError(f"f={f} not tolerable with n={n}: need f < {'n/2' if timer_mode else 'n/3'}")


def derive_params(
    theta_claimed_bps: float,
    n: int,
    f: int,
    duration_ns: int,
    rate_policy: RatePolicy = RatePolicy.PER_N_MINUS_F,
    overprovision: float = DEFAULT_OVERPROVISION,
    t0_ns: int = 0,
    m0: bytes = bytes(32),
    timer_mode: bool = False,
) -> ChallengeParams:
    """Derive per-challenger rate and packet count for a claimed bandwidth.

    m0 should be fresh per challenge; the zero default is for parameter
    arithmetic only. timer_mode picks the corruption bound
    (`check_corruption_bound`).
    """
    if n < 1:
        raise ParamsError(f"n must be positive, got {n}")
    if f < 0:
        raise ParamsError(f"f must be nonnegative, got {f}")
    check_corruption_bound(n, f, timer_mode)
    if theta_claimed_bps <= 0:
        raise ParamsError(f"theta_claimed must be positive, got {theta_claimed_bps}")
    if duration_ns <= 0:
        raise ParamsError(f"duration must be positive, got {duration_ns}")
    if len(m0) != 32:
        raise ParamsError(f"m0 must be 32 bytes, got {len(m0)}")
    m = n if rate_policy is RatePolicy.PER_N else n - f
    k = round(duration_ns * 1e-9 * theta_claimed_bps / (m * PACKET_BYTES * 8))
    if k < 1:
        raise ParamsError(
            f"duration {duration_ns} ns too short: k={k} at theta={theta_claimed_bps} n={n}"
        )
    return ChallengeParams(
        theta_claimed_bps=theta_claimed_bps,
        n=n,
        f=f,
        duration_ns=duration_ns,
        k=k,
        theta0_bps=theta_claimed_bps / m,
        rate_policy=rate_policy,
        overprovision=overprovision,
        t0_ns=t0_ns,
        m0=m0,
    )


def challenge_data_bytes(params: ChallengeParams) -> int:
    """Total bytes all n challengers put on the wire: n * ceil(rho k) * b."""
    return params.n * params.signatures_per_challenger * params.b


@dataclass(frozen=True)
class SendSchedule:
    """What the pings decide: each challenger's aligned first send and
    estimated one-way latency, indexed by id - 1.

    Everything else about the train comes from `ChallengeParams`: probe q
    of challenger i goes out at first_send_ns[i-1] plus (q - 1) *
    `spacing_ns`, for q up to `signatures_per_challenger`, one signature
    each. `Challenger.build_sends` builds that train.
    """

    first_send_ns: tuple[int, ...]
    latency_ns: tuple[int, ...]


def send_schedule(params: ChallengeParams, latencies_ns: Sequence[int]) -> SendSchedule:
    """Build the latency-aligned schedule from per-challenger estimates."""
    if len(latencies_ns) != params.n:
        raise ParamsError(f"need {params.n} latency estimates, got {len(latencies_ns)}")
    if any(l < 0 for l in latencies_ns):
        raise ParamsError("latency estimates must be nonnegative")
    l_ref = max(latencies_ns)
    return SendSchedule(tuple(params.t0_ns + (l_ref - l) for l in latencies_ns), tuple(latencies_ns))


# round trips each challenger times before the challenge
PING_SAMPLES = 20


def estimate_latency(rtt_samples_ns: Sequence[int]) -> int:
    """One-way latency from round-trip samples: half their mean."""
    if not rtt_samples_ns:
        raise ParamsError("no RTT samples")
    return round(sum(rtt_samples_ns) / len(rtt_samples_ns) / 2)
