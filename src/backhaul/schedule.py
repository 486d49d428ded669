"""Challenge parameter derivation and the aligned first sends.

A challenge against a claimed rate theta splits that rate across m
challengers (m = n or n - f by policy, default n - f so the honest
majority alone can saturate the claim). Each challenger paces probe
packets of `ChallengeParams.b` bytes at rate theta0 = theta / m; k is
chosen so the termination threshold (n - f) * k packets represents
`duration` worth of traffic through the claimed backhaul.

First-send times are staggered so every challenger's first packet lands
on the bottleneck simultaneously: t_i1 = t0 + (l_ref - l_i) with l_ref
the largest estimated one-way latency.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, ClassVar, Sequence

from .wire import WIRE_PACKET_LEN

if TYPE_CHECKING:  # config imports RatePolicy from here
    from .config import ProtocolSpec

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
    """Everything all parties must agree on before a challenge starts;
    building one checks every value and derives k, theta0 and ceil(rho k).

    m0 should be fresh per challenge. A lazy verifier tolerates f < n/3
    corrupt challengers; a `timer_mode` one, which closes collection on a
    deadline instead of waiting, f < n/2.
    """

    theta_claimed_bps: float
    n: int
    f: int
    duration_ns: int
    rate_policy: RatePolicy
    overprovision: float
    timer_mode: bool
    t0_ns: int
    m0: bytes
    k: int = field(init=False)
    theta0_bps: float = field(init=False)
    # bytes per probe packet, the same for every challenge
    b: ClassVar[int] = WIRE_PACKET_LEN
    _signatures: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, f, theta, duration = self.n, self.f, self.theta_claimed_bps, self.duration_ns
        if n < 1:
            raise ParamsError(f"n must be positive, got {n}")
        if f < 0:
            raise ParamsError(f"f must be nonnegative, got {f}")
        if f >= (n / 2 if self.timer_mode else n / 3):
            raise ParamsError(f"f={f} not tolerable with n={n}: need f < {'n/2' if self.timer_mode else 'n/3'}")
        if theta <= 0:
            raise ParamsError(f"theta_claimed must be positive, got {theta}")
        if duration <= 0:
            raise ParamsError(f"duration must be positive, got {duration}")
        if len(self.m0) != 32:
            raise ParamsError(f"m0 must be 32 bytes, got {len(self.m0)}")
        m = n if self.rate_policy is RatePolicy.PER_N else n - f
        k = round(duration * 1e-9 * theta / (m * self.b * 8))
        if k < 1:
            raise ParamsError(f"duration {duration} ns too short: k={k} at theta={theta} n={n}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "theta0_bps", theta / m)
        # validates rho >= 1; computed once, as the probe path reads it often
        object.__setattr__(self, "_signatures", overprovision_count(k, self.overprovision))

    @property
    def threshold(self) -> int:
        """Packets the prover must collect before responding: (n - f) * k."""
        return (self.n - self.f) * self.k

    @property
    def signatures_per_challenger(self) -> int:
        """N, the probes per challenger: the overprovisioned count ceil(rho * k),
        each under the challenger's one signed commitment."""
        return self._signatures

    @property
    def spacing_ns(self) -> float:
        """Pacing gap between consecutive probes of one challenger."""
        return self.b * 8 * 1e9 / self.theta0_bps


def derive_params(proto: ProtocolSpec, m0: bytes) -> ChallengeParams:
    """The parameters of a challenge under `proto`, with its fresh m0."""
    return ChallengeParams(
        proto.theta_claimed_bps, proto.n, proto.f, proto.duration_ns, RatePolicy(proto.rate_policy),
        proto.overprovision, proto.timer_mode, proto.t0_ns, m0,
    )


def send_schedule(params: ChallengeParams, latencies_ns: Sequence[int]) -> tuple[int, ...]:
    """Each challenger's aligned first send, by id - 1, from its latency estimate.

    Probe q of challenger i then goes out (q - 1) * `spacing_ns` later, for
    q up to `signatures_per_challenger`; `Challenger.build_sends` builds
    that train.
    """
    if len(latencies_ns) != params.n:
        raise ParamsError(f"need {params.n} latency estimates, got {len(latencies_ns)}")
    if any(l < 0 for l in latencies_ns):
        raise ParamsError("latency estimates must be nonnegative")
    l_ref = max(latencies_ns)
    return tuple(params.t0_ns + (l_ref - l) for l in latencies_ns)


# round trips each challenger times before the challenge
PING_SAMPLES = 20


def estimate_latency(rtt_samples_ns: Sequence[int]) -> int:
    """One-way latency from round-trip samples: half their mean."""
    if not rtt_samples_ns:
        raise ParamsError("no RTT samples")
    return round(sum(rtt_samples_ns) / len(rtt_samples_ns) / 2)
