"""Workload descriptions: the victim's traffic and the covert stream.

The victim models the cloud workload the paper's introduction motivates:
a service handling many concurrent connections.  Flow diversity is the
load-bearing parameter — it determines how much the exact-match cache
can shield the victim from the TSS scan (a single fat iperf flow stays
microflow-cached and is barely hurt; thousands of short connections are
fully exposed; the ablation benchmark sweeps this).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.rng import DeterministicRng
from repro.util.units import parse_bps


@dataclass(frozen=True)
class VictimWorkload:
    """Aggregate description of the victim tenant's traffic."""

    #: offered load in bit/s (Fig. 3 uses ≈1 Gbps)
    offered_bps: float = 1e9
    #: frame size in bytes
    frame_bytes: int = 1500
    #: concurrent flows (connection-rich server traffic)
    concurrent_flows: int = 5000
    #: new connections per second (each first packet is a cache miss)
    new_flows_per_sec: float = 500.0
    #: Zipf skew of how the offered load spreads over RSS hash buckets:
    #: 0 = uniform (every bucket carries the same share); ~1+ = the
    #: heavy-tailed elephant-flow / hot-prefix regime real traffic
    #: exhibits (cf. *Traffic Dynamics of Computer Networks*), which
    #: leaves statically-hashed PMDs asymmetrically loaded
    skew: float = 0.0

    @classmethod
    def from_text(cls, offered: str, **kwargs: object) -> "VictimWorkload":
        """Build with a human-readable rate, e.g. ``from_text("1 Gbps")``."""
        return cls(offered_bps=parse_bps(offered), **kwargs)  # type: ignore[arg-type]

    def bucket_weights(self, buckets: int, seed: int = 0) -> list[float]:
        """The fraction of offered load landing in each of ``buckets``
        RSS hash buckets (sums to ~1).

        Uniform at ``skew=0`` (exactly ``1/buckets`` each — no RNG is
        touched, preserving bit-identity with the pre-skew arithmetic).
        Otherwise Zipf(``skew``) rank weights are assigned to buckets
        in a deterministic seed-derived shuffle, so the hot buckets
        scatter across the indirection table the way elephant flows
        scatter across a NIC's hash space.
        """
        if buckets < 1:
            raise ValueError(f"need at least one bucket, got {buckets}")
        if self.skew <= 0:
            return [1.0 / buckets] * buckets
        weights = [1.0 / (rank ** self.skew) for rank in range(1, buckets + 1)]
        # plain integer arithmetic for the shuffle seed (never label
        # forking, whose str hash is process-salted): the same seed
        # yields the same bucket permutation in every process, so
        # CI-gated imbalance numbers reproduce exactly
        shuffle_seed = (seed * 0x9E3779B97F4A7C15 + 0xB0C4E75) & 0x7FFF_FFFF_FFFF_FFFF
        DeterministicRng(shuffle_seed).shuffle(weights)
        total = sum(weights)
        return [w / total for w in weights]

    @property
    def offered_pps(self) -> float:
        """Offered load in packets/second."""
        return self.offered_bps / (self.frame_bytes * 8)

    @property
    def miss_fraction(self) -> float:
        """Fraction of packets that are the first of a new flow (these
        take the upcall path even when caches are healthy)."""
        if self.offered_pps <= 0:
            return 0.0
        return min(1.0, self.new_flows_per_sec / self.offered_pps)


@dataclass(frozen=True)
class AttackerWorkload:
    """The covert stream: low-rate packets cycling the adversarial set.

    The paper uses 1–2 Mbps.  With minimum-size frames that is 2–4 kpps
    — comfortably above the ~820 pps needed to refresh 8192 megaflows
    inside the 10 s idle timeout (see
    :func:`repro.attack.analysis.required_refresh_pps`).
    """

    #: covert stream rate in bit/s
    rate_bps: float = 2e6
    #: covert frame size (minimum-size frames maximise pps per bit)
    frame_bytes: int = 64
    #: when the attacker starts feeding the ACL (Fig. 3: t = 60 s)
    start_time: float = 60.0

    @classmethod
    def from_text(cls, rate: str, **kwargs: object) -> "AttackerWorkload":
        """Build with a human-readable rate, e.g. ``from_text("1.5 Mbps")``."""
        return cls(rate_bps=parse_bps(rate), **kwargs)  # type: ignore[arg-type]

    @property
    def rate_pps(self) -> float:
        """Covert packets per second."""
        return self.rate_bps / (self.frame_bytes * 8)

    def active_at(self, t: float) -> bool:
        """True once the covert stream is flowing."""
        return t >= self.start_time

    def packets_due(self, t0: float, t1: float) -> int:
        """Number of covert packets sent within ``[t0, t1)``."""
        if t1 <= self.start_time:
            return 0
        effective_start = max(t0, self.start_time)
        return int(round((t1 - effective_start) * self.rate_pps))
