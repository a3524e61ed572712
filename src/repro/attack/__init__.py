"""``repro.attack`` — the policy-injection attack toolkit.

The attack needs the paper's three ingredients:

(i)   *the capability to define ACLs* — provided by the CMS models in
      :mod:`repro.cms`;
(ii)  *a set of malicious ACLs* — built by :mod:`repro.attack.policy`
      (one builder per CMS, each shaped to maximise the reachable
      megaflow-mask space of that CMS's surface);
(iii) *an adversarial packet sequence* — generated by
      :mod:`repro.attack.packets`: exactly one covert packet per
      reachable mask, each agreeing with the allow value on a chosen
      prefix and flipping the next bit.

:mod:`repro.attack.analysis` predicts mask counts, required covert
bandwidth and expected slowdown in closed form (all cross-checked
against the real dataplane by the test suite);
:meth:`repro.scenario.session.Session.simulator` wires everything into
the simulator.
"""

from repro.attack.analysis import (
    AttackDimension,
    AttackPrediction,
    analyze_acl,
    predict,
    reachable_mask_count,
    required_refresh_bps,
    required_refresh_pps,
)
from repro.attack.packets import CovertStreamGenerator, covert_keys_for_dimensions
from repro.attack.policy import (
    calico_attack_policy,
    kubernetes_attack_policy,
    openstack_attack_security_group,
    single_prefix_policy,
)

__all__ = [
    "AttackDimension",
    "AttackPrediction",
    "CovertStreamGenerator",
    "analyze_acl",
    "calico_attack_policy",
    "covert_keys_for_dimensions",
    "kubernetes_attack_policy",
    "openstack_attack_security_group",
    "predict",
    "reachable_mask_count",
    "required_refresh_bps",
    "required_refresh_pps",
    "single_prefix_policy",
]
