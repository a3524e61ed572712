"""Closed-form analysis of a policy-injection attack.

For an ACL whose allow side consists of *single-dimension* rules — one
rule constraining field ``f_i`` with a prefix of length ``L_i`` — a
denied packet must mismatch **every** rule, and the slow path witnesses
each mismatch independently (see :mod:`repro.ovs.wildcarding`).  The
witness in field ``f_i`` can sit at any of its ``L_i`` constrained bit
positions, so the reachable deny-mask space is::

    |masks| = Π_i L_i

Paper instances:

* Fig. 2 toy (one 8-bit exact rule):        8
* /8 allow on ip_src:                        8
* exact ip_src + exact tp_dst (k8s, OSt):   32 · 16  = 512
* + exact tp_src (Calico):                  32 · 16 · 16 = 8192

Sustaining the masks only requires refreshing each megaflow within the
revalidator's idle timeout: ``pps = |masks| / idle_timeout`` — 820 pps
for 8192 masks, i.e. ≈0.4 Mbps of minimum-size frames.  The paper's
"1–2 Mbps covert stream" has comfortable headroom, which
:func:`required_refresh_bps` quantifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cms.acl import Acl
from repro.ovs.megaflow import DEFAULT_IDLE_TIMEOUT
from repro.perf.costmodel import CostModel


@dataclass(frozen=True)
class AttackDimension:
    """One attackable dimension: a field constrained by exactly one
    single-field allow rule, with the allow value and prefix depth."""

    field: str
    allow_value: int
    prefix_len: int
    width: int

    def __post_init__(self) -> None:
        if not 1 <= self.prefix_len <= self.width:
            raise ValueError(
                f"prefix_len must be in [1, {self.width}], got {self.prefix_len}"
            )


@dataclass(frozen=True)
class AttackPrediction:
    """Everything an attacker wants to know before pressing go."""

    mask_count: int
    covert_packets: int
    refresh_pps: float
    refresh_bps: float
    expected_degradation: float
    peak_capacity_pps: float
    attacked_capacity_pps: float

    def summary(self) -> str:
        """A one-paragraph human-readable report."""
        return (
            f"{self.mask_count} reachable megaflow masks; "
            f"{self.covert_packets} covert packets to install them; "
            f"{self.refresh_pps:.0f} pps ({self.refresh_bps / 1e6:.2f} Mbps) "
            f"to sustain them; expected victim capacity "
            f"{self.expected_degradation:.1%} of peak "
            f"({self.peak_capacity_pps:.0f} -> {self.attacked_capacity_pps:.0f} pps)"
        )


def reachable_mask_count(dimensions: list[AttackDimension]) -> int:
    """The product formula ``Π L_i`` (1 for an empty dimension list:
    only the single all-examined mask is reachable)."""
    return math.prod(dim.prefix_len for dim in dimensions)


#: a PMD shard (or a fleet node) counts as poisoned when it carries at
#: least this fraction of the reachable cross-product
#: (:func:`reachable_mask_count`) — the E9, E10 and E11 convention
POISONED_FRACTION = 0.9


def required_refresh_pps(
    mask_count: int,
    idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
) -> float:
    """Packets/second needed to touch every megaflow once per idle
    window (the minimum covert rate that defeats the revalidator)."""
    if idle_timeout <= 0:
        raise ValueError("idle_timeout must be positive")
    return mask_count / idle_timeout


def required_refresh_bps(
    mask_count: int,
    idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
    frame_bytes: int = 64,
) -> float:
    """Bit/second form of :func:`required_refresh_pps`."""
    return required_refresh_pps(mask_count, idle_timeout) * frame_bytes * 8


def analyze_acl(acl: Acl) -> list[AttackDimension]:
    """Extract attack dimensions from an ACL's *single-dimension* allow
    entries.  Entries constraining several fields at once are ignored
    for mask counting: a packet can be denied by such an entry with a
    witness in just its first-checked field, so multi-field entries do
    not multiply the deny-mask space the way independent entries do.
    """
    field_widths = {"ip_src": 32, "tp_dst": 16, "tp_src": 16}
    dimensions: list[AttackDimension] = []
    seen: set[str] = set()
    for dims in acl.allowed_field_widths():
        if len(dims) != 1:
            continue
        field_name, prefix_len = dims[0]
        if field_name in seen:
            continue
        seen.add(field_name)
        dimensions.append(
            AttackDimension(
                field=field_name,
                allow_value=0,  # value is irrelevant for counting
                prefix_len=prefix_len,
                width=field_widths.get(field_name, prefix_len),
            )
        )
    return dimensions


def predict(
    dimensions: list[AttackDimension],
    cost_model: CostModel | None = None,
    idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
    frame_bytes: int = 64,
    baseline_masks: int = 2,
) -> AttackPrediction:
    """Full closed-form prediction for a dimension set."""
    model = cost_model or CostModel()
    masks = reachable_mask_count(dimensions)
    pps = required_refresh_pps(masks, idle_timeout)
    bps = required_refresh_bps(masks, idle_timeout, frame_bytes)
    peak = model.megaflow_path_capacity_pps(baseline_masks)
    attacked = model.megaflow_path_capacity_pps(masks)
    return AttackPrediction(
        mask_count=masks,
        covert_packets=masks,
        refresh_pps=pps,
        refresh_bps=bps,
        expected_degradation=attacked / peak,
        peak_capacity_pps=peak,
        attacked_capacity_pps=attacked,
    )
