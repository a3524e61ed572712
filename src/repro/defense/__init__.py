"""``repro.defense`` — the mitigation techniques the demo discusses.

"Attendees will also be engaged in discussions of [...] potential
work-in-progress mitigation techniques and their trade-offs (e.g. joint
troubleshooting techniques by tenants and provider, improved heuristics
in OVS, flow cache-less softswitches)."

Implemented mitigations, each with its trade-off quantified by the
E7 ablation (``repro experiment defenses``, held by
``tests/experiments/test_defense_ablation.py``):

* :class:`MaskLimitGuard` — cap the number of distinct megaflow masks;
  overflow traffic is cached exact-match (or not cached).  Trade-off:
  exact-match entries have no coverage, so flow-diverse *benign*
  traffic behind the cap pays more upcalls.
* :class:`UpcallRateLimitGuard` — token-bucket limit on megaflow
  installations per tenant.  Trade-off: added first-packet latency for
  bursty benign tenants; also only slows the attack down (the masks
  still accumulate unless the limit is below the refresh rate).
* :class:`PrefixRoundingGuard` — the "improved heuristics in OVS" idea:
  round un-wildcarded prefixes up to a coarse granularity so the
  reachable mask space shrinks from ``Π L_i`` to ``Π ⌈L_i/g⌉``
  (32·16·16 = 8192 → 4·2·2 = 16 at byte granularity).  Trade-off: more
  specific megaflows cover less traffic ⇒ more upcalls.
* :class:`CachelessDatapath` — the flow-cache-less softswitch baseline
  [Molnár et al., SIGCOMM'16]: per-packet full classification at a
  cost independent of cache state.  Trade-off: a higher, but *flat*,
  per-packet cost.
* :class:`MaskAnomalyDetector` — provider-side attribution: flag the
  tenant whose policies generate anomalously many masks and evict or
  disconnect them.  Trade-off: reactive (damage until detection) and
  needs tenant attribution plumbing.
"""

from repro.defense.mask_limit import MaskLimitGuard
from repro.defense.rate_limit import TokenBucket, UpcallRateLimitGuard
from repro.defense.prefix_heuristic import PrefixRoundingGuard, rounded_mask_count
from repro.defense.cacheless import CachelessDatapath
from repro.defense.detector import DetectorVerdict, MaskAnomalyDetector

__all__ = [
    "CachelessDatapath",
    "DetectorVerdict",
    "MaskAnomalyDetector",
    "MaskLimitGuard",
    "PrefixRoundingGuard",
    "TokenBucket",
    "UpcallRateLimitGuard",
    "rounded_mask_count",
]
