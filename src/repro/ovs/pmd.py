"""The multi-PMD RETA dispatcher: one classifier shard per core.

Real OVS deployments run one PMD (poll-mode-driver) thread per
forwarding core; each PMD owns its *own* dpcls — its own subtable
pvector, megaflow cache, EMC and ranking state — and packets are
distributed across PMDs by the NIC's RSS hash over the 5-tuple.  The
paper's measurements degrade a single datapath thread; whether the
tuple-space explosion stays confined to the cores the covert flows
hash to, or poisons every shard, is a question about *this* structure.

:class:`RetaDispatcher` models it, once, for every runtime: N
independent :class:`~repro.ovs.switch.OvsSwitch` shards behind an
RSS-style dispatcher.  Packets are dispatched NIC-style through an
**RSS indirection table** (RETA): the deterministic hash of the packed
5-tuple selects one of ``reta_size`` buckets, and the table maps each
bucket to a PMD shard.  The hash travels with the packet, as a NIC's
does in the DPDK descriptor: every key carries it
(:attr:`~repro.flow.key.FlowKey.rss` — folded per block by the capture
extractor, else taken in software on the key's first dispatch), and
the dispatcher only takes it modulo the table size.  Slow-path rule
management is broadcast to every shard (every PMD consults the same
OpenFlow tables), and the observables are aggregated — ``mask_count``
reports the *max per shard* (the scan bound a packet actually meets),
``total_mask_count`` the sum, and ``stats`` a
:meth:`~repro.ovs.stats.SwitchStats.merge` of the shards.  :class:`ShardedDatapath` is the inline runtime — it adds
what needs the shards in reach: materialized per-packet results, the
per-bucket load window and the rebalancer;
:class:`~repro.runtime.parallel.ParallelDatapath` inherits the same
dispatcher and only moves each shard onto a worker process.

The RETA is what makes PMD load balancing possible: benign traffic is
heavy-tailed (elephant flows, skewed prefixes), so a static hash→shard
map leaves some PMDs overloaded while others idle.  The
:class:`PmdRebalancer` mirrors OVS's PMD auto-load-balancer: it
periodically reads per-bucket load (lookup- and scan-depth-weighted
cycles, accumulated by the dispatcher) and greedily remaps buckets
from the hottest PMD to the coolest.  With ``rebalance_interval=0``
(the default) the table never moves and dispatch is bit-identical to
the pre-RETA ``rss_hash(key) % shards`` arithmetic — ``reta_size`` is
rounded up to a multiple of the shard count precisely so the identity
table preserves that equivalence for every shard count.

Rebalancing doubles as a moving target against the hash-aware
``spread_keys`` attacker, whose variants are steered against a
*snapshot* of the dispatcher: every remap strands the carefully-placed
variants on wrong shards until the attacker re-probes.

Attack-relevant consequence: a covert flow only pollutes the shard it
hashes to.  A naive attacker's masks land wherever RSS scatters them
(≈ total/N per shard — the damage is *diluted* by sharding), while a
hash-aware attacker crafts, per mask, one packet variant per shard by
varying the bits the megaflow wildcards anyway
(:meth:`~repro.attack.packets.CovertStreamGenerator.spread_keys`) and
poisons every PMD to the full mask count — at N× the (still tiny)
covert bandwidth.  Experiment E9 (``experiments/sharding.py``)
measures both.

A one-shard datapath is **observationally identical** to a bare
:class:`OvsSwitch` (same seeds, same clocks, same stats — equivalence
is tested), so ``shards`` is a pure scale axis.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.flow.fields import FieldSpace
from repro.flow.key import FlowKey
from repro.flow.rule import FlowRule
from repro.ovs.megaflow import MegaflowEntry
from repro.ovs.stats import SwitchStats
from repro.ovs.switch import BatchResult, OvsSwitch, PacketResult
from repro.ovs.upcall import InstallGuard
from repro.util.cadence import advance_if_due
from repro.util.floatsum import add_repeated

#: default RSS indirection-table size (NICs ship 64–512 bucket RETAs)
DEFAULT_RETA_SIZE = 128


def effective_reta_size(requested: int, shards: int) -> int:
    """Round a requested RETA size up to a multiple of the shard count.

    With ``shards | reta_size`` the identity table (bucket ``b`` →
    shard ``b % shards``) dispatches *exactly* like the pre-RETA
    ``rss_hash(key) % shards`` arithmetic — ``(h mod R) mod s ==
    h mod s`` whenever ``s`` divides ``R`` — which is the hard
    equivalence contract of the disabled-rebalance configuration.
    """
    if requested < 1:
        raise ValueError(f"reta_size must be >= 1, got {requested}")
    size = max(requested, shards)
    remainder = size % shards
    return size if remainder == 0 else size + (shards - remainder)


def shard_views(datapath) -> list:
    """A datapath's per-PMD shard views: its ``shards`` list when
    sharded, else the datapath itself as its own single shard.

    The one place the "iterate shards, or treat the whole datapath as
    one" idiom lives — the simulator, defenses and report helpers all
    route through it.
    """
    shards = getattr(datapath, "shards", None)
    return list(shards) if shards else [datapath]


def shard_seed(seed: int, shard: int) -> int:
    """Derive shard ``shard``'s RNG seed from the base (spec) seed.

    Deterministic arithmetic — never ``hash()`` — so scenario runs
    reproduce bit-for-bit across processes regardless of shard count,
    and every shard gets an independent stream.  Shard 0 keeps the base
    seed unchanged, which is what makes a one-shard datapath's RNG
    (hence EMC behaviour) identical to an unsharded switch built with
    the same seed.
    """
    return (seed + shard * 0x9E3779B97F4A7C15) & 0x7FFF_FFFF_FFFF_FFFF


class RetaDispatcher:
    """N shards behind an RSS indirection table — what both runtimes
    share.

    ``shard_factory(i)`` builds shard ``i``'s switch — callers derive
    per-shard seeds via :func:`shard_seed` (the registry backend does).
    Everything here is written over ``self.shards`` and asks a shard
    only for the shard-facing surface — ``add_rule`` / ``add_rules`` /
    ``remove_tenant_rules`` / ``invalidate_caches`` / ``advance_clock``
    and the observable reads — so a runtime that swaps a shard for a
    handle answering those calls elsewhere (the process runtime's
    worker handles) inherits dispatch, broadcast and aggregation
    unchanged.
    """

    has_flow_cache = True

    def __init__(
        self,
        space: FieldSpace,
        shard_factory: Callable[[int], OvsSwitch],
        shards: int = 1,
        name: str = "pmd",
        reta_size: int = DEFAULT_RETA_SIZE,
    ) -> None:
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        self.name = name
        self.space = space
        self.shards: list = [shard_factory(i) for i in range(shards)]
        #: the RSS indirection table: bucket -> shard index.  Starts as
        #: the identity spread (bucket % shards), which dispatches
        #: exactly like ``rss_hash(key) % shards`` (see
        #: :func:`effective_reta_size`); the rebalancer remaps entries.
        self.reta_size = effective_reta_size(reta_size, shards)
        self.reta: list[int] = [b % shards for b in range(self.reta_size)]
        #: monotonic wrapper clock (max ``now`` seen): the rebalancer's
        #: interval check and the runtime's trace stamps read it
        self.clock = 0.0

    # -- dispatch ----------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def _advance(self, now: float | None) -> float:
        if now is not None and now > self.clock:
            self.clock = now
        return self.clock

    def shard_of(self, key: FlowKey) -> int:
        """The shard index ``key``'s packets are steered to, under the
        *current* indirection table."""
        if len(self.shards) == 1:
            return 0
        return self.reta[key.rss % self.reta_size]

    def _split(self, keys: Iterable[FlowKey]) -> dict[int, list[FlowKey]]:
        """A burst's per-shard sub-bursts, each in arrival order (as a
        NIC queue would hold them).  A lone shard takes the whole burst
        — even an empty one, so its clock still advances; with several,
        only the shards that received keys appear.  Each key's bucket
        is its carried steering hash (:attr:`FlowKey.rss`, a stable
        value: only the bucket→shard map moves, never the hash) modulo
        the table size."""
        if len(self.shards) == 1:
            return {0: keys if isinstance(keys, list) else list(keys)}
        reta, size = self.reta, self.reta_size
        by_shard: dict[int, list[FlowKey]] = {}
        for key in keys:
            by_shard.setdefault(reta[key.rss % size], []).append(key)
        return by_shard

    @staticmethod
    def _fold(batch: BatchResult, sub: BatchResult) -> None:
        """Add one shard's reply into the burst's."""
        batch.add(sub)
        batch.installed.extend(sub.installed)

    def advance_clock(self, now: float) -> None:
        self._advance(now)
        for shard in self.shards:
            shard.advance_clock(now)

    # -- slow-path rule management (broadcast) ------------------------------

    def add_rule(self, rule: FlowRule) -> FlowRule:
        added = rule
        for shard in self.shards:
            added = shard.add_rule(rule)
        return added

    def add_rules(self, rules: list[FlowRule]) -> None:
        for shard in self.shards:
            shard.add_rules(rules)

    def remove_tenant_rules(self, tenant: str) -> int:
        return max(shard.remove_tenant_rules(tenant) for shard in self.shards)

    def invalidate_caches(self) -> None:
        for shard in self.shards:
            shard.invalidate_caches()

    # -- aggregated observables ---------------------------------------------

    @property
    def stats(self) -> SwitchStats:
        """Merged per-shard counters (a fresh snapshot each access)."""
        return SwitchStats.merge(*(shard.stats for shard in self.shards))

    @property
    def shard_mask_counts(self) -> list[int]:
        """Distinct megaflow masks per shard, in shard order."""
        return [shard.mask_count for shard in self.shards]

    @property
    def mask_count(self) -> int:
        """The worst per-shard mask count — the scan bound a packet on
        the most-poisoned PMD actually meets (Fig. 3's right axis reads
        this for the sharded backend)."""
        return max(self.shard_mask_counts)

    @property
    def total_mask_count(self) -> int:
        """Masks summed over shards (each shard's subtables are its
        own; the same mask on two shards is two scan entries)."""
        return sum(self.shard_mask_counts)

    @property
    def megaflow_count(self) -> int:
        return sum(shard.megaflow_count for shard in self.shards)

    @property
    def cache_capacity(self) -> int:
        """Aggregate exact-match capacity (each PMD has its own EMC)."""
        return sum(shard.cache_capacity for shard in self.shards)

    @property
    def staged(self) -> bool:
        return self.shards[0].staged

    @property
    def scan_order(self) -> str:
        return self.shards[0].scan_order

    @property
    def tss_lookups(self) -> int:
        """TSS lookups served across all shards (the datapath-surface
        counter — no reaching into shard cache internals)."""
        return sum(shard.tss_lookups for shard in self.shards)

    def expected_scan_depth(self) -> float:
        """Lookup-weighted mean of the per-shard expected scan depths
        (shards that serve more TSS lookups weigh more; with no history
        the shards average evenly).  Weighting reads each shard's
        ``tss_lookups`` protocol counter, so any datapath — not just
        :class:`OvsSwitch` — can serve as a shard."""
        depths = [shard.expected_scan_depth() for shard in self.shards]
        weights = [shard.tss_lookups for shard in self.shards]
        total = sum(weights)
        if not total:
            return sum(depths) / len(depths)
        return sum(d * w for d, w in zip(depths, weights)) / total

    @property
    def rule_count(self) -> int:
        return self.shards[0].rule_count  # broadcast: identical everywhere

    @property
    def idle_timeout(self) -> float:
        return self.shards[0].idle_timeout


class ShardedDatapath(RetaDispatcher):
    """The inline runtime: every shard an :class:`OvsSwitch` on the
    caller's interpreter.

    Adds what only shards in reach can offer: per-packet (materialized)
    results, the per-bucket load window they feed, the
    :class:`PmdRebalancer` reading it, ``handle_miss``, and install
    guards — guard *objects* are shared, so per-cache limits (e.g. the
    mask budget) apply per shard while the guard's own counters
    aggregate across them.
    """

    def __init__(
        self,
        space: FieldSpace,
        shard_factory: Callable[[int], OvsSwitch],
        shards: int = 1,
        name: str = "pmd",
        reta_size: int = DEFAULT_RETA_SIZE,
        rebalance_interval: float = 0.0,
    ) -> None:
        if rebalance_interval < 0:
            raise ValueError(
                f"rebalance_interval must be >= 0 (0 disables), "
                f"got {rebalance_interval}"
            )
        super().__init__(space, shard_factory, shards, name, reta_size)
        # per-bucket load window (reset on every rebalance pass):
        # packets dispatched, TSS subtables they scanned, and external
        # cycle charges (the simulator's cost-model view of the same
        # traffic).  Pure counters — accounting never changes dispatch.
        self.bucket_packets: list[int] = [0] * self.reta_size
        self.bucket_tuples: list[int] = [0] * self.reta_size
        self.bucket_cycles: list[float] = [0.0] * self.reta_size
        self.rebalancer = PmdRebalancer(self, interval=rebalance_interval)

    def record_bucket_cycles(self, bucket: int, cycles: float,
                             count: int = 1) -> None:
        """Charge externally-modelled cycles (the simulator's cost-model
        view of traffic it does not replay packet-by-packet) to one RETA
        bucket's load window — ``count`` packets of ``cycles`` each,
        leaving exactly what ``count`` single charges would."""
        self.bucket_cycles[bucket] = add_repeated(
            self.bucket_cycles[bucket], cycles, count
        )

    # -- datapath ----------------------------------------------------------

    #: the single-key special case of :meth:`process_batch`: one body
    #: for every in-process datapath
    process = OvsSwitch.process

    def process_batch(self, keys: Sequence[FlowKey] | Iterable[FlowKey],
                      now: float | None = None,
                      materialize: bool = True) -> BatchResult:
        """Dispatch a burst: bucket keys by RETA shard (keeping each
        shard's sub-burst in arrival order, as a NIC queue would), run
        one :meth:`OvsSwitch.process_batch` per shard, and reassemble
        results in input order.  Shards share no state, so this is
        exactly equivalent to per-key dispatch.

        ``materialize=False`` (the aggregate-only mode) merges the
        per-shard aggregate counters without reassembling per-packet
        results; ``installed`` pairs are grouped per shard rather than
        in input order.  Aggregate mode skips the per-bucket load
        window entirely (it needs each packet's scan depth, which only
        materialized results carry), so it refuses to run under an
        enabled rebalancer instead of silently starving the auto-lb.
        """
        shards = self.shards
        self._advance(now)
        if len(shards) == 1:
            return shards[0].process_batch(keys, now=now,
                                           materialize=materialize)
        if not materialize:
            if self.rebalancer.enabled:
                raise ValueError(
                    "aggregate-only batches (materialize=False) skip the "
                    "per-bucket scan-depth accounting the PMD auto-lb "
                    "feeds on; disable rebalancing (rebalance_interval=0) "
                    "or use materialized results"
                )
            batch = BatchResult()
            for shard, sub_keys in self._split(keys).items():
                self._fold(batch, shards[shard].process_batch(
                    sub_keys, now=now, materialize=False
                ))
            return batch
        keys = list(keys)
        size = self.reta_size
        key_buckets = [key.rss % size for key in keys]
        by_position: dict[int, list[int]] = {}
        for position, bucket in enumerate(key_buckets):
            by_position.setdefault(self.reta[bucket], []).append(position)
        slots: list[PacketResult | None] = [None] * len(keys)
        batch = BatchResult()
        for shard, positions in by_position.items():
            sub = shards[shard].process_batch(
                [keys[p] for p in positions], now=now
            )
            for position, result in zip(positions, sub.results):
                slots[position] = result
            self._fold(batch, sub)
        bucket_packets, bucket_tuples = self.bucket_packets, self.bucket_tuples
        for bucket, result in zip(key_buckets, slots):
            assert result is not None
            bucket_packets[bucket] += 1
            bucket_tuples[bucket] += result.tuples_scanned
        batch.results = slots  # every position filled by its shard
        self.rebalancer.maybe_rebalance(self.clock)
        return batch

    def handle_miss(self, key: FlowKey, now: float = 0.0) -> MegaflowEntry | None:
        # the known-miss replay shortcut deliberately skips bucket load
        # accounting: its callers (the simulator, install harnesses)
        # model the packet's cost themselves and charge it via
        # :meth:`record_bucket_cycles` — counting it here too would
        # double-bill the bucket
        self._advance(now)
        return self.shards[self.shard_of(key)].handle_miss(key, now)

    def advance_clock(self, now: float) -> None:
        super().advance_clock(now)
        self.rebalancer.maybe_rebalance(self.clock)

    def add_install_guard(self, guard: InstallGuard) -> None:
        for shard in self.shards:
            shard.add_install_guard(guard)

    def __repr__(self) -> str:
        return (
            f"ShardedDatapath({self.name}: {len(self.shards)} shards, "
            f"reta={self.reta_size}, "
            f"masks/shard={self.shard_mask_counts}, "
            f"{self.megaflow_count} megaflows)"
        )


class PmdRebalancer:
    """OVS-style PMD auto-load-balancing over the RETA.

    Periodically (every ``interval`` simulated seconds, aligned to the
    interval grid like :meth:`~repro.ovs.revalidator.Revalidator.
    maybe_sweep`) reads the per-bucket load window the dispatcher
    accumulated and greedily remaps buckets from the hottest PMD to the
    coolest until the hottest sits within ``min_imbalance`` of the mean
    — the greedy variant of ovs-vswitchd's ``pmd-auto-lb`` variance
    improvement.  ``interval=0`` (or one shard) disables rebalancing
    entirely: the RETA never moves and dispatch stays bit-identical to
    plain ``rss_hash % shards``.

    Bucket load over a window is lookup- and scan-depth-weighted:
    ``packets·cycles_base + tuples_scanned·cycles_probe`` from the
    traffic the dispatcher really processed, plus any cycles the
    simulator charged via
    :meth:`ShardedDatapath.record_bucket_cycles` for traffic it models
    analytically.  The two weights are
    :mod:`~repro.perf.costmodel`'s calibration constants.
    """

    #: optional span recorder (``Telemetry.attach`` wires these;
    #: class-level defaults keep the un-instrumented path branch-cheap)
    trace = None
    trace_node = ""

    #: a pass stops once the hottest PMD sits within this factor of the
    #: mean per-PMD load
    min_imbalance = 1.05

    def __init__(self, datapath: ShardedDatapath,
                 interval: float = 0.0) -> None:
        # late import: repro.perf.__init__ pulls in the factory, which
        # imports this module — the calibration constants themselves
        # are dependency-free
        from repro.perf.costmodel import (
            DEFAULT_CYCLES_MEGAFLOW_BASE,
            DEFAULT_CYCLES_TUPLE_PROBE,
        )

        self.datapath = datapath
        self.interval = interval
        self.cycles_base = DEFAULT_CYCLES_MEGAFLOW_BASE
        self.cycles_probe = DEFAULT_CYCLES_TUPLE_PROBE
        self.last_rebalance = 0.0
        #: rebalance passes that ran (whether or not they moved anything)
        self.rebalances = 0
        #: buckets remapped across all passes
        self.buckets_moved = 0

    @property
    def enabled(self) -> bool:
        return self.interval > 0 and len(self.datapath.shards) > 1

    def bucket_loads(self) -> list[float]:
        dp = self.datapath
        base, probe = self.cycles_base, self.cycles_probe
        return [
            packets * base + tuples * probe + cycles
            for packets, tuples, cycles in zip(
                dp.bucket_packets, dp.bucket_tuples, dp.bucket_cycles
            )
        ]

    def shard_loads(self, loads: Sequence[float] | None = None) -> list[float]:
        dp = self.datapath
        if loads is None:
            loads = self.bucket_loads()
        per_shard = [0.0] * len(dp.shards)
        for bucket, shard in enumerate(dp.reta):
            per_shard[shard] += loads[bucket]
        return per_shard

    def maybe_rebalance(self, now: float) -> int:
        """Run a rebalance pass if the interval has elapsed; returns
        buckets moved.  ``last_rebalance`` is aligned to the interval
        grid so cadence follows simulated time, not call pattern."""
        if not self.enabled:
            return 0
        anchor = advance_if_due(self.last_rebalance, now, self.interval)
        if anchor is None:
            return 0
        self.last_rebalance = anchor
        return self.rebalance()

    def plan(self) -> tuple[list[tuple[int, int]], list[float], list[float]]:
        """Plan one greedy pass on a *scratch* RETA: move the
        best-fitting bucket from the hottest shard to the coolest until
        balanced (or out of moves).  Returns ``(moves, per_shard_before,
        per_shard_after)`` where each move is ``(bucket, dest_shard)``;
        nothing is mutated."""
        dp = self.datapath
        loads = self.bucket_loads()
        reta = list(dp.reta)
        per_shard = self.shard_loads(loads)
        before = list(per_shard)
        n_shards = len(per_shard)
        total = sum(per_shard)
        moves: list[tuple[int, int]] = []
        if total > 0 and n_shards > 1:
            mean = total / n_shards
            for _ in range(dp.reta_size):
                hot = max(range(n_shards), key=per_shard.__getitem__)
                cool = min(range(n_shards), key=per_shard.__getitem__)
                gap = per_shard[hot] - per_shard[cool]
                if per_shard[hot] <= self.min_imbalance * mean or gap <= 0:
                    break
                # the best move: the most-loaded bucket that does not
                # overshoot the midpoint; failing that, the lightest
                # loaded bucket, provided moving it still narrows the gap
                best = -1
                best_load = -1.0
                lightest = -1
                lightest_load = float("inf")
                for bucket, shard in enumerate(reta):
                    if shard != hot or loads[bucket] <= 0:
                        continue
                    load = loads[bucket]
                    if load <= gap / 2 and load > best_load:
                        best, best_load = bucket, load
                    if load < lightest_load:
                        lightest, lightest_load = bucket, load
                if best < 0:
                    if lightest < 0 or lightest_load >= gap:
                        break
                    best, best_load = lightest, lightest_load
                reta[best] = cool
                per_shard[hot] -= best_load
                per_shard[cool] += best_load
                moves.append((best, cool))
        return moves, before, per_shard

    def rebalance(self) -> int:
        """One pass: plan the greedy remap, apply it, and reset the load
        window.  Returns buckets moved."""
        dp = self.datapath
        moves, before, after = self.plan()
        self.rebalances += 1
        for bucket, dest in moves:
            dp.reta[bucket] = dest
        moved = len(moves)
        self.buckets_moved += moved
        if self.trace is not None:
            self.trace.record(
                "ovs.pmd.rebalance", dp.clock,
                node=self.trace_node or dp.name,
                buckets_moved=moved, passes=self.rebalances,
                hottest_before=max(before), hottest_after=max(after),
            )
        # fresh window: the next pass measures post-remap load only
        dp.bucket_packets = [0] * dp.reta_size
        dp.bucket_tuples = [0] * dp.reta_size
        dp.bucket_cycles = [0.0] * dp.reta_size
        return moved
