"""The scenario registries: surfaces, profiles, defenses, backends.

Each axis of the scenario matrix is a string-keyed
:class:`~repro.util.registry.Registry`, so a
:class:`~repro.scenario.spec.ScenarioSpec` is pure data and the CLI
can enumerate every choice (``repro scenario --list``).  The profile
and engine (``BACKENDS``) registries live beside the datapath
constructors in :mod:`repro.perf.factory` and are re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.attack.analysis import AttackDimension
from repro.attack.packets import CovertStreamGenerator
from repro.attack.policy import (
    calico_attack_policy,
    kubernetes_attack_policy,
    openstack_attack_security_group,
    single_prefix_policy,
)
from repro.cms.base import CloudManagementSystem, PolicyTarget
from repro.cms.calico import CalicoCms
from repro.cms.kubernetes import KubernetesCms
from repro.cms.openstack import OpenStackCms
from repro.defense.detector import DEFAULT_MASK_THRESHOLD, MaskAnomalyDetector
from repro.defense.mask_limit import MaskLimitGuard
from repro.defense.prefix_heuristic import PrefixRoundingGuard
from repro.defense.rate_limit import UpcallRateLimitGuard
from repro.flow.fields import OVS_FIELDS, FieldSpace, toy_single_field_space
from repro.flow.key import FlowKey
from repro.flow.rule import FlowRule
from repro.ovs.pmd import shard_views
from repro.ovs.switch import OvsSwitch
from repro.perf.factory import BACKENDS, PROFILES
from repro.scenario.datapath import Datapath
from repro.util.registry import Registry

__all__ = [
    "BACKENDS",
    "DEFENSES",
    "PROFILES",
    "SURFACES",
    "DefenseAgent",
    "Surface",
]


# ---------------------------------------------------------------------------
# attack surfaces
# ---------------------------------------------------------------------------

def _ovs_space() -> FieldSpace:
    return OVS_FIELDS


@dataclass(frozen=True)
class Surface:
    """One CMS attack surface: which policy shape reaches which masks.

    ``cms_factory`` is ``None`` for self-contained surfaces (the Fig. 2
    toy) that provide compiled rules directly via ``rules_builder``.
    """

    name: str
    description: str
    #: the CMS family name reports use ("kubernetes", "openstack", ...)
    cms_name: str
    #: attacked fields, human-readable ("ip_src/32, tp_dst/16")
    fields: str
    #: compact label for sweep tables ("ip_src+tp_dst")
    short_label: str
    #: verbose label for the mask-count table ("ip_src + tp_dst")
    scenario_label: str
    #: the mask count the paper reports for this surface
    paper_masks: int
    #: builds (policy object, attack dimensions)
    policy_builder: Callable[[], tuple[object, list[AttackDimension]]]
    cms_factory: Callable[[], CloudManagementSystem] | None = None
    space_factory: Callable[[], FieldSpace] = _ovs_space
    #: builds the compiled rule set directly (non-CMS surfaces only)
    rules_builder: Callable[[], list[FlowRule]] | None = None
    #: overrides the covert-stream construction (defaults to the
    #: cross-product generator over the dimensions)
    key_builder: Callable[[Sequence[AttackDimension], PolicyTarget, FieldSpace],
                          list[FlowKey]] | None = None

    @property
    def is_campaign(self) -> bool:
        """Whether this surface supports a full timed campaign (needs a
        CMS compiler and the OVS field space)."""
        return self.cms_factory is not None

    def space(self) -> FieldSpace:
        return self.space_factory()

    def build(self) -> tuple[object, list[AttackDimension]]:
        return self.policy_builder()

    def compile_rules(self, policy: object, target: PolicyTarget,
                      space: FieldSpace) -> list[FlowRule]:
        """The slow-path rules this surface's policy compiles to."""
        if self.cms_factory is not None:
            return self.cms_factory().compile(policy, target, space)
        assert self.rules_builder is not None
        return self.rules_builder()

    def covert_keys(self, dimensions: Sequence[AttackDimension],
                    target: PolicyTarget, space: FieldSpace) -> list[FlowKey]:
        """The adversarial packet sequence for this surface."""
        if self.key_builder is not None:
            return self.key_builder(dimensions, target, space)
        return CovertStreamGenerator(
            list(dimensions), dst_ip=target.pod_ip, space=space
        ).keys()


SURFACES: Registry[Surface] = Registry("attack surface")

SURFACES.register(
    "prefix8",
    Surface(
        name="prefix8",
        description="the /8 allow warm-up (8 masks, barely hurts)",
        cms_name="kubernetes",
        fields="ip_src/8",
        short_label="/8 warm-up",
        scenario_label="/8 allow (warm-up)",
        paper_masks=8,
        policy_builder=lambda: single_prefix_policy("10.0.0.0/8"),
        cms_factory=KubernetesCms,
    ),
)
SURFACES.register(
    "k8s",
    Surface(
        name="k8s",
        description="Kubernetes NetworkPolicy: ip_src + tp_dst (512 masks)",
        cms_name="kubernetes",
        fields="ip_src/32, tp_dst/16",
        short_label="ip_src+tp_dst",
        scenario_label="ip_src + tp_dst",
        paper_masks=512,
        policy_builder=kubernetes_attack_policy,
        cms_factory=KubernetesCms,
    ),
)
SURFACES.register(
    "openstack",
    Surface(
        name="openstack",
        description="OpenStack security group: ip_src + tp_dst (512 masks)",
        cms_name="openstack",
        fields="ip_src/32, tp_dst/16",
        short_label="ip_src+tp_dst",
        scenario_label="ip_src + tp_dst",
        paper_masks=512,
        policy_builder=openstack_attack_security_group,
        cms_factory=OpenStackCms,
    ),
)
SURFACES.register(
    "calico",
    Surface(
        name="calico",
        description="Calico with source ports: full-blown DoS (8192 masks)",
        cms_name="calico",
        fields="ip_src/32, tp_dst/16, tp_src/16",
        short_label="ip+dport+sport",
        scenario_label="ip_src + tp_dst + tp_src",
        paper_masks=8192,
        policy_builder=calico_attack_policy,
        cms_factory=CalicoCms,
    ),
)


def _fig2_policy() -> tuple[object, list[AttackDimension]]:
    from repro.experiments.fig2 import FIG2_ALLOW_VALUE, build_fig2_table

    dimension = AttackDimension("ip_src", FIG2_ALLOW_VALUE, 8, 8)
    return build_fig2_table(), [dimension]


def _fig2_rules() -> list[FlowRule]:
    from repro.experiments.fig2 import build_fig2_table

    return list(build_fig2_table())


def _fig2_keys(_dimensions: Sequence[AttackDimension], _target: PolicyTarget,
               space: FieldSpace) -> list[FlowKey]:
    from repro.experiments.fig2 import fig2_packet_sequence

    return fig2_packet_sequence(space)


SURFACES.register(
    "fig2",
    Surface(
        name="fig2",
        description="the Fig. 2 toy: one-field binary ACL (9 megaflows)",
        cms_name="toy",
        fields="ip_src/8",
        short_label="fig2 toy ACL",
        scenario_label="fig2 toy ACL",
        paper_masks=8,
        policy_builder=_fig2_policy,
        space_factory=toy_single_field_space,
        rules_builder=_fig2_rules,
        key_builder=_fig2_keys,
    ),
)


# ---------------------------------------------------------------------------
# defenses
# ---------------------------------------------------------------------------

class DefenseAgent:
    """One configured defense, attachable to a single session run.

    Subclasses override :meth:`attach` (install guards), :meth:`events`
    (timed operator responses) and :meth:`tradeoff` (the cost side of
    the mitigation, reported after the run).
    """

    label = "none (baseline)"
    #: extra settle time before post-attack means are representative
    #: (reactive defenses need their response to have landed)
    settle = 10.0

    def attach(self, datapath: Datapath) -> None:
        """Hook the defense into the datapath before the run."""

    def events(self, attack_start: float):
        """Timed ``(when, action(switch))`` events to merge in."""
        return []

    def tradeoff(self) -> str:
        """The defense's cost, after the run."""
        return "-"


class _GuardDefense(DefenseAgent):
    """A defense realised as a megaflow install guard."""

    def __init__(self, label: str, guard, tradeoff_fn: Callable[[], str]) -> None:
        self.label = label
        self.guard = guard
        self._tradeoff_fn = tradeoff_fn

    def attach(self, datapath: Datapath) -> None:
        datapath.add_install_guard(self.guard)

    def tradeoff(self) -> str:
        return self._tradeoff_fn()


class _DetectorDefense(DefenseAgent):
    """Mask-anomaly detection plus tenant eviction, some time after the
    attack starts (the operator's reaction lag)."""

    def __init__(self, threshold: int = DEFAULT_MASK_THRESHOLD,
                 respond_delay: float = 20.0) -> None:
        self.detector = MaskAnomalyDetector(threshold=threshold)
        self.respond_delay = respond_delay
        self.label = f"anomaly detector (+{respond_delay:.0f} s)"
        self.settle = respond_delay + 5.0

    def attach(self, datapath: Datapath) -> None:
        # fail at build time, like guard defenses do, rather than when
        # the observe event fires mid-run
        if not getattr(datapath, "has_flow_cache", True):
            raise ValueError(
                "the mask-anomaly detector observes the megaflow cache; "
                "the cacheless backend has none to observe"
            )

    def events(self, attack_start: float):
        def respond(switch: OvsSwitch) -> None:
            # a sharded datapath is observed per PMD shard (each has its
            # own megaflow cache); the unsharded switch is its own shard
            for shard in shard_views(switch):
                verdict = self.detector.observe(shard)
                for tenant in verdict.flagged:
                    self.detector.respond(shard, tenant)

        return [(attack_start + self.respond_delay, respond)]

    def tradeoff(self) -> str:
        flagged = self.detector.history[-1].flagged if self.detector.history else []
        return f"flagged {flagged or 'nobody'}; tenant disconnected"


DEFENSES: Registry[Callable[..., DefenseAgent]] = Registry("defense")


@DEFENSES.register("none")
def _none_defense() -> DefenseAgent:
    return DefenseAgent()


@DEFENSES.register("mask-limit")
def _mask_limit(max_masks: int = 64, mode: str = "exact") -> DefenseAgent:
    guard = MaskLimitGuard(max_masks=max_masks, mode=mode)
    return _GuardDefense(
        f"mask limit ({max_masks})",
        guard,
        lambda: f"{guard.degraded} megaflows degraded to exact-match"
        if mode == "exact"
        else f"{guard.rejected} installs rejected",
    )


@DEFENSES.register("rate-limit")
def _rate_limit(rate_per_sec: float = 100.0, burst: float = 200.0) -> DefenseAgent:
    guard = UpcallRateLimitGuard(rate_per_sec=rate_per_sec, burst=burst)
    return _GuardDefense(
        f"install rate limit ({rate_per_sec:.0f}/s)",
        guard,
        lambda: f"{guard.throttled} installs throttled (adds flow-setup latency)",
    )


@DEFENSES.register("prefix-rounding")
def _prefix_rounding(granularity: int = 8) -> DefenseAgent:
    guard = PrefixRoundingGuard(granularity=granularity)
    return _GuardDefense(
        f"prefix rounding (g={granularity})",
        guard,
        lambda: f"{guard.coarsened} megaflows narrowed (less cache coverage)",
    )


@DEFENSES.register("detector")
def _detector(threshold: int = DEFAULT_MASK_THRESHOLD,
              respond_delay: float = 20.0) -> DefenseAgent:
    return _DetectorDefense(threshold=threshold, respond_delay=respond_delay)
