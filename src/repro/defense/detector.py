"""Provider-side detection: attribute mask pressure to a tenant.

A healthy tenant's policies generate a handful of megaflow masks; a
policy-injection attacker generates hundreds to thousands.  The
detector samples the megaflow cache, attributes each subtable to the
tenants whose entries populate it, and flags tenants whose mask
footprint exceeds a threshold.  The standard response is to evict the
tenant's megaflows and quarantine (remove) their rules — which restores
the dataplane within one sweep, at the cost of the tenant's
connectivity (acceptable: the tenant is attacking).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ovs.megaflow import MegaflowEntry
from repro.ovs.switch import OvsSwitch

#: the mask-count alarm threshold, per tenant or per shard: a benign
#: pod's policies rarely produce more than a few dozen masks, and it
#: is an eighth of the paper's 512-mask Kubernetes explosion
DEFAULT_MASK_THRESHOLD = 64


@dataclass
class DetectorVerdict:
    """One sampling round's findings."""

    flagged: list[str]
    masks_by_tenant: dict[str, int]
    total_masks: int

    @property
    def attack_detected(self) -> bool:
        return bool(self.flagged)


class MaskAnomalyDetector:
    """Samples a switch and flags tenants with excessive mask footprints."""

    def __init__(self, threshold: int = DEFAULT_MASK_THRESHOLD) -> None:
        if threshold < 1:
            raise ValueError("threshold must be positive")
        self.threshold = threshold
        self.history: list[DetectorVerdict] = []

    def observe(self, switch: OvsSwitch) -> DetectorVerdict:
        """Attribute each subtable to the tenants of its entries and
        flag tenants whose distinct-mask footprint exceeds the
        threshold."""
        masks_by_tenant: dict[str, set[int]] = {}
        for mask, _value, entry in switch.megaflow.tss.iter_entries():
            megaflow: MegaflowEntry = entry  # type: ignore[assignment]
            tenant = megaflow.tenant or "<anonymous>"
            masks_by_tenant.setdefault(tenant, set()).add(mask)
        counts = {tenant: len(masks) for tenant, masks in masks_by_tenant.items()}
        flagged = sorted(t for t, n in counts.items() if n > self.threshold)
        verdict = DetectorVerdict(
            flagged=flagged,
            masks_by_tenant=counts,
            total_masks=switch.mask_count,
        )
        self.history.append(verdict)
        return verdict

    def respond(self, switch: OvsSwitch, tenant: str) -> tuple[int, int]:
        """Evict a flagged tenant's megaflows and remove their rules;
        returns ``(megaflows_evicted, rules_removed)``."""
        evicted = switch.megaflow.evict_tenant(tenant)
        switch.microflow.invalidate_dead()
        return evicted, switch.remove_tenant_rules(tenant)
