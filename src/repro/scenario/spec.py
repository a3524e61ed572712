"""The declarative scenario description.

A :class:`ScenarioSpec` names one cell of the paper's scenario matrix
— {attack surface} × {datapath profile} × {backend} × {defenses} ×
{workload/timing knobs} — entirely with strings and numbers, so specs
round-trip through plain dicts (and therefore JSON, CLI flags, and
config files) and resolve against the registries only when a
:class:`~repro.scenario.session.Session` is built.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping


@dataclass(frozen=True)
class DefenseUse:
    """One defense activation: a registry name plus override params."""

    name: str
    params: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_any(cls, value: "DefenseUse | str | Mapping[str, Any]") -> "DefenseUse":
        """Accept ``"mask-limit"``, ``{"name": ..., "params": {...}}``
        or an existing :class:`DefenseUse`."""
        if isinstance(value, DefenseUse):
            return value
        if isinstance(value, str):
            return cls(name=value)
        if isinstance(value, Mapping):
            extra = set(value) - {"name", "params"}
            if extra or "name" not in value:
                raise ValueError(
                    f"a defense dict needs 'name' (+ optional 'params'), got {sorted(value)}"
                )
            return cls(name=value["name"], params=dict(value.get("params", {})))
        raise TypeError(f"cannot build a DefenseUse from {value!r}")

    def to_dict(self) -> dict[str, Any] | str:
        """The most compact dict/str form that round-trips."""
        if not self.params:
            return self.name
        return {"name": self.name, "params": dict(self.params)}


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to reproduce one experiment run."""

    #: attack surface (a :data:`repro.scenario.registry.SURFACES` name)
    surface: str
    #: datapath profile (:data:`repro.scenario.registry.PROFILES` name)
    profile: str = "kernel"
    #: classifier engine (:data:`repro.scenario.registry.BACKENDS`
    #: name): ``ovs``, the OVS cache pipeline — computed by the columnar
    #: engine when NumPy is installed, else by the scalar one, with
    #: bit-identical results — or ``cacheless``.  The engine and nothing
    #: else: ``shards`` is its own field, the runtime is picked where a
    #: run is launched
    backend: str = "ovs"
    #: active defenses, applied in order
    defenses: tuple[DefenseUse, ...] = ()
    #: simulated seconds
    duration: float = 150.0
    #: when the covert stream starts (Fig. 3: t = 60 s)
    attack_start: float = 60.0
    #: when the malicious policy is compiled in (default: 1 s before)
    inject_time: float | None = None
    #: covert stream rate / frame size
    covert_rate_bps: float = 2e6
    covert_frame_bytes: int = 64
    #: victim workload
    victim_offered_bps: float = 1e9
    victim_frame_bytes: int = 1500
    victim_concurrent_flows: int = 5000
    victim_new_flows_per_sec: float = 500.0
    #: the attacker pod the policy attaches to
    attacker_pod_ip: str = "10.0.9.10"
    #: covert stream construction: "naive" (the paper's one key per
    #: mask) or "spread" (hash-aware: one variant per mask per PMD
    #: shard, steered against the datapath's dispatcher; falls back to
    #: naive on unsharded backends)
    attacker_strategy: str = "naive"
    #: how often (simulated seconds) the spread attacker re-steers its
    #: stream against the *live* RETA; 0 = steer once at build time
    #: (only meaningful with ``attacker_strategy="spread"`` and a
    #: rebalancing sharded backend)
    reprobe_interval: float = 0.0
    #: how covert packets are replayed each tick: "model" (the default
    #: hybrid-fidelity scheme — installed flows refresh and are charged
    #: analytically) or "datapath" (every due packet runs as one
    #: coalesced burst through the real ``process_batch`` pipeline, so
    #: the tick's wall clock exercises the datapath engine end-to-end)
    covert_replay: str = "model"
    #: enable the TSS staged-lookup optimisation
    staged_lookup: bool = False
    #: TSS subtable visit order ("insertion" | "ranked");
    #: empty string defers to the datapath profile's default
    scan_order: str = ""
    #: TSS hash-key representation: ``"packed"``, the only one — kept
    #: until no caller passes it; anything else is rejected
    key_mode: str = "packed"
    #: forwarding shards (PMD threads, one classifier each; packets are
    #: RSS-dispatched); 0 defers to the datapath profile's default, and
    #: an effective count of 1 is behaviourally identical to the
    #: unsharded switch
    shards: int = 0
    #: RSS indirection-table buckets on sharded backends (rounded up to
    #: a multiple of the shard count); 0 defers to the profile's default
    reta_size: int = 0
    #: PMD auto-load-balance interval in simulated seconds: how often
    #: RETA buckets are remapped hottest-PMD → coolest.  0 disables
    #: (bit-identical to a static RSS spread); ``None`` defers to the
    #: datapath profile's default
    rebalance_interval: float | None = None
    #: Zipf skew of the victim's per-hash-bucket load (0 = uniform; ~1+
    #: = the heavy-tailed elephant-flow regime that leaves statically
    #: hashed PMDs asymmetrically loaded)
    workload_skew: float = 0.0
    seed: int = 7
    #: display name (defaults to the surface name)
    name: str = ""
    description: str = ""

    def __post_init__(self) -> None:
        # normalise: accept lists / bare strings for defenses
        object.__setattr__(
            self,
            "defenses",
            tuple(DefenseUse.from_any(d) for d in self.defenses),
        )
        if not self.name:
            object.__setattr__(self, "name", self.surface)
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.shards < 0:
            raise ValueError("shards must be >= 0 (0 = profile default)")
        if self.reta_size < 0:
            raise ValueError("reta_size must be >= 0 (0 = profile default)")
        if self.rebalance_interval is not None and self.rebalance_interval < 0:
            raise ValueError(
                "rebalance_interval must be >= 0 (0 disables; omit for the "
                "profile default)"
            )
        if self.workload_skew < 0:
            raise ValueError("workload_skew must be >= 0 (0 = uniform)")
        if self.attacker_strategy not in ("naive", "spread"):
            raise ValueError(
                f"unknown attacker_strategy {self.attacker_strategy!r}: "
                "naive | spread"
            )
        if self.reprobe_interval < 0:
            raise ValueError("reprobe_interval must be >= 0 (0 = never)")
        if self.key_mode != "packed":
            raise ValueError(
                f"unknown key_mode {self.key_mode!r}: keys are packed"
            )
        if self.covert_replay not in ("model", "datapath"):
            raise ValueError(
                f"unknown covert_replay {self.covert_replay!r}: "
                "model | datapath"
            )
        if self.reprobe_interval > 0 and self.attacker_strategy != "spread":
            # a naive stream has nothing to re-steer: fail loudly rather
            # than silently measuring the baseline under a knob the user
            # believes is active
            raise ValueError(
                "reprobe_interval only applies to the spread attacker; "
                'set attacker_strategy="spread" (or drop the interval)'
            )

    # -- registry validation ------------------------------------------------

    def validate(self) -> "ScenarioSpec":
        """Resolve every registry name; unknown names raise
        :class:`~repro.util.registry.UnknownNameError` listing the valid
        choices.  Returns self for chaining."""
        from repro.scenario import registry

        registry.SURFACES.get(self.surface)
        registry.PROFILES.get(self.profile)
        registry.BACKENDS.get(self.backend)
        for use in self.defenses:
            registry.DEFENSES.get(use.name)
        return self

    # -- dict round-trip ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A plain-dict form (JSON-friendly) that omits defaults."""
        data: dict[str, Any] = {}
        for spec_field in dataclasses.fields(self):
            value = getattr(self, spec_field.name)
            if spec_field.name == "defenses":
                if value:
                    data["defenses"] = [use.to_dict() for use in value]
                continue
            default = spec_field.default
            if spec_field.name == "name" and value == self.surface:
                continue
            if value != default:
                data[spec_field.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`; unknown keys are an error."""
        known = {spec_field.name for spec_field in dataclasses.fields(cls)}
        extra = set(data) - known
        if extra:
            raise ValueError(
                f"unknown ScenarioSpec fields {sorted(extra)}; valid: {sorted(known)}"
            )
        return cls(**dict(data))

    def evolve(self, **changes: Any) -> "ScenarioSpec":
        """A copy with fields replaced (CLI overrides)."""
        return dataclasses.replace(self, **changes)
