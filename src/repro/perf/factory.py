"""Build datapaths from datapath profiles (kernel vs netdev) so
experiments pick a flavour by name.

Profiles and engines live in :class:`~repro.util.registry.Registry`
instances — the same mechanism the Scenario API uses for surfaces and
defenses — so new flavours (more cores, bigger EMC, custom idle
timeout) register once and become addressable from specs and the CLI.

:class:`DatapathConfig` is the one way a datapath gets built: engine ×
shards × runtime plus the classifier and RETA knobs, one validation
table, one shard factory.  :func:`switch_for_profile` is its leaf
constructor (one shard's switch); :meth:`DatapathConfig.dispatched`
builds the RETA dispatcher at any shard count, one shard included.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.flow.fields import OVS_FIELDS, FieldSpace
from repro.ovs.pmd import ShardedDatapath, shard_seed
from repro.ovs.switch import OvsSwitch
from repro.perf.costmodel import KERNEL_PROFILE, NETDEV_PROFILE, DatapathProfile
from repro.util.registry import Registry
from repro.util.rng import DeterministicRng

#: the netdev datapath with dpcls subtable ranking enabled (real OVS
#: ranks subtables by hit count in the userspace classifier; the kernel
#: mask array stays insertion-ordered, hence no kernel-ranked variant)
NETDEV_RANKED_PROFILE = replace(
    NETDEV_PROFILE, name="netdev-ranked", scan_order="ranked"
)

#: a 4-PMD userspace datapath: four independent dpcls shards behind the
#: NIC's RSS spread, each with its own EMC, pvector and revalidator view
NETDEV_PMD4_PROFILE = replace(NETDEV_PROFILE, name="netdev-pmd4", shards=4)

#: the 4-PMD datapath with auto-load-balancing on (OVS's pmd-auto-lb):
#: every 5 s the rebalancer remaps RETA buckets hottest-PMD → coolest
NETDEV_PMD4_ALB_PROFILE = replace(
    NETDEV_PMD4_PROFILE, name="netdev-pmd4-alb", rebalance_interval=5.0
)

#: the kernel datapath with EMC insertion disabled (the documented
#: ``emc-insert-inv-prob=0`` operating point: under a mask-exploding
#: attack the thrashing exact-match cache is pure overhead, so
#: operators turn it off and every packet goes straight to the megaflow
#: scan — the worst-case regime the deep-scan benchmarks measure)
KERNEL_NOEMC_PROFILE = replace(
    KERNEL_PROFILE, name="kernel-noemc", emc_insertion_prob=0.0
)

#: the datapath-profile registry (string-keyed, scenario-addressable)
PROFILES: Registry[DatapathProfile] = Registry("datapath profile")
PROFILES.register("kernel", KERNEL_PROFILE)
PROFILES.register("kernel-noemc", KERNEL_NOEMC_PROFILE)
PROFILES.register("netdev", NETDEV_PROFILE)
PROFILES.register("netdev-ranked", NETDEV_RANKED_PROFILE)
PROFILES.register("netdev-pmd4", NETDEV_PMD4_PROFILE)
PROFILES.register("netdev-pmd4-alb", NETDEV_PMD4_ALB_PROFILE)


def profile_by_name(name: str) -> DatapathProfile:
    """Look up a registered datapath profile."""
    return PROFILES.get(name)


#: the classifier engines (a spec's ``backend``): name -> resolver
#: returning the switch class.  A name picks the engine and nothing
#: else — shard count and runtime are :class:`DatapathConfig`'s other
#: axes.  Resolvers run at build time, so listing never imports NumPy
BACKENDS: Registry[Callable[[], type]] = Registry("datapath backend")


@BACKENDS.register("ovs")
def _ovs_engine() -> type:
    """The OVS pipeline on the engine the platform can run: the
    columnar :class:`~repro.vec.engine.VecSwitch` when NumPy is
    importable, else the scalar :class:`OvsSwitch`.  The two are held
    bit-identical, so the choice moves wall clock only — the all-zero
    ``vec.tss.*`` census is what shows a scalar run."""
    from repro import vec

    if not vec.HAVE_NUMPY:
        return OvsSwitch
    from repro.vec.engine import VecSwitch

    return VecSwitch


@BACKENDS.register("cacheless")
def _cacheless_engine() -> type:
    # deferred: the ESwitch-style backend lives a layer above this module
    from repro.defense.cacheless import CachelessDatapath

    return CachelessDatapath


def switch_for_profile(
    profile: DatapathProfile | str,
    space: FieldSpace = OVS_FIELDS,
    name: str | None = None,
    staged_lookup: bool = False,
    seed: int = 0,
    scan_order: str | None = None,
    key_mode: str = "packed",
    switch_cls: type[OvsSwitch] = OvsSwitch,
) -> OvsSwitch:
    """Instantiate a switch configured per a datapath profile.

    Fig. 3's Kubernetes setting is the ``kernel`` profile (small
    per-CPU exact-match cache); ``netdev`` models the userspace/DPDK
    datapath with its 8192-entry EMC, and ``netdev-ranked`` adds the
    dpcls subtable ranking.  ``scan_order=None`` takes the profile's
    default; a string overrides it (a :class:`~repro.scenario.spec.
    ScenarioSpec`'s ``scan_order`` flows through here).
    ``switch_cls`` picks the engine — :class:`OvsSwitch` or a drop-in
    subclass such as the vectorized ``repro.vec`` engine.  Keys are
    packed integers, the one representation: ``key_mode`` accepts
    ``"packed"`` and nothing else, and goes once no caller passes it.
    """
    if key_mode != "packed":
        raise ValueError(f"unknown key_mode {key_mode!r}: keys are packed")
    if isinstance(profile, str):
        profile = profile_by_name(profile)
    return switch_cls(
        space=space,
        name=name or f"ovs-{profile.name}",
        flow_limit=profile.flow_limit,
        idle_timeout=profile.idle_timeout,
        emc_entries=profile.emc_entries,
        emc_ways=profile.emc_ways,
        emc_insertion_prob=profile.emc_insertion_prob,
        staged_lookup=staged_lookup,
        scan_order=scan_order or profile.scan_order,
        rng=DeterministicRng(seed),
    )


#: where a datapath's shards run: on the caller's interpreter, or one
#: worker process each behind the aggregate-only mailbox
RUNTIMES = ("inline", "processes")

@dataclass(frozen=True)
class DatapathConfig:
    """Which datapath to build — engine × shards × runtime plus the
    classifier and RETA knobs — and the one way to build it.

    ``shards=0``, ``reta_size=0``, ``scan_order=None`` and
    ``rebalance_interval=None`` each mean "the profile's", the
    convention specs and the leaf constructors share; each is resolved
    by one expression below (``scan_order`` by
    :func:`switch_for_profile`).
    """

    profile: DatapathProfile
    space: FieldSpace = OVS_FIELDS
    name: str | None = None
    engine: str = "ovs"  #: a :data:`BACKENDS` name
    runtime: str = "inline"  #: one of :data:`RUNTIMES`
    shards: int = 0
    staged: bool = False
    scan_order: str | None = None
    seed: int = 0
    reta_size: int = 0
    rebalance_interval: float | None = None

    @classmethod
    def from_spec(cls, spec, profile: DatapathProfile, space: FieldSpace,
                  name: str) -> "DatapathConfig":
        """The datapath a :class:`~repro.scenario.spec.ScenarioSpec`
        asks for — inline: the runtime is chosen where a run is
        launched (``build_service(workers=N)``), not by the spec."""
        return cls(
            profile, space, name,
            engine=spec.backend,
            staged=spec.staged_lookup,
            scan_order=spec.scan_order or None,
            **{field: getattr(spec, field) for field in (
                "shards", "seed", "reta_size", "rebalance_interval"
            )},
        )

    @property
    def shard_count(self) -> int:
        return self.shards or self.profile.shards

    @property
    def base_name(self) -> str:
        return self.name or f"ovs-{self.profile.name}"

    def check(self) -> None:
        """The validation table.  A datapath has a PMD rebalancer iff it
        is inline with ``shards > 1``; an explicit non-zero
        ``rebalance_interval`` reaching any other datapath is an error,
        not silently ignored (``None``, the profile's default, never
        is).  The
        ``cacheless`` engine builds inline on one shard only."""
        BACKENDS.get(self.engine)  # unknown name: lists the valid ones
        if self.runtime not in RUNTIMES:
            raise ValueError(
                f"unknown runtime {self.runtime!r}: {' | '.join(RUNTIMES)}"
            )
        if self.engine == "cacheless":
            if self.shard_count > 1 or self.runtime != "inline":
                raise ValueError(
                    "the cacheless backend has no sharded variant (its "
                    "per-packet cost is already attack-independent); use "
                    "shards=1 on the inline runtime"
                )
            why = "the cacheless engine has no PMD shards"
        elif self.runtime == "processes":
            why = ("worker processes: no per-bucket load crosses the "
                   "aggregate-only wire")
        elif self.shard_count == 1:
            why = "one shard"
        else:
            return
        if self.rebalance_interval:
            raise ValueError(
                "rebalance_interval tunes the multi-PMD auto-lb; the "
                f"{self.engine} datapath being built has no rebalancer "
                f"({why}) — only an inline datapath with shards > 1 has one"
            )

    def build(self):
        """The configured :class:`~repro.scenario.datapath.Datapath`.
        One inline shard is the bare switch — what the dispatcher
        around one shard is pinned identical to
        (``tests/ovs/test_pmd.py``)."""
        self.check()
        return self._assemble(BACKENDS.get(self.engine)())

    def _assemble(self, switch_cls: type):
        """The datapath :meth:`build` makes of this config, on
        ``switch_cls`` — the one place that shape is decided, so the
        lint probe and the tests that build a checked config by class
        get what :meth:`build` would."""
        if self.engine == "cacheless":
            return switch_cls(self.space, name=self.base_name)
        if self.runtime == "inline" and self.shard_count == 1:
            return self.shard_factory(switch_cls)(0)
        return self.dispatched(switch_cls)

    def shard_factory(
        self, switch_cls: type[OvsSwitch]
    ) -> Callable[[int], OvsSwitch]:
        """Builds shard ``i``'s switch.  Its RNG seed derives from the
        base seed via :func:`~repro.ovs.pmd.shard_seed` — shard 0 keeps
        the base seed, so a one-shard datapath is bit-identical to
        :func:`switch_for_profile` with the same arguments.  Every
        runtime builds its shards here, which is what makes the serial
        and multi-process datapaths byte-comparable."""
        base, shards = self.base_name, self.shard_count
        return lambda i: switch_for_profile(
            self.profile,
            space=self.space,
            name=base if shards == 1 else f"{base}-pmd{i}",
            staged_lookup=self.staged,
            seed=shard_seed(self.seed, i),
            scan_order=self.scan_order,
            switch_cls=switch_cls,
        )

    def dispatched(self, switch_cls: type[OvsSwitch]):
        """The shards behind a RETA dispatcher, at any shard count —
        even one, where :meth:`build` hands back the bare switch — and
        unchecked.  Both runtimes are one :class:`~repro.ovs.pmd.
        RetaDispatcher` built from the same arguments; the inline one
        adds the rebalancer's interval."""
        common = dict(
            space=self.space,
            shards=self.shard_count,
            name=self.base_name,
            reta_size=self.reta_size or self.profile.reta_size,
            shard_factory=self.shard_factory(switch_cls),
        )
        if self.runtime == "processes":
            # deferred: repro.runtime imports this package, and listing
            # profiles or engines should never load multiprocessing
            from repro.runtime.parallel import ParallelDatapath

            return ParallelDatapath(**common)
        interval = self.rebalance_interval
        if interval is None:
            interval = self.profile.rebalance_interval
        return ShardedDatapath(**common, rebalance_interval=interval)
