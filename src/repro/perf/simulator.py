"""Discrete-time simulation of one hypervisor switch under attack.

Hybrid fidelity (see the package docstring): the covert stream and a set
of representative victim flows run through a **real** datapath backend
(any :class:`~repro.scenario.datapath.Datapath` — the OVS cache
hierarchy by default) — so mask counts, megaflow expiry, flow limits
and defense guards behave exactly as implemented — while the victim's
*aggregate* cost is evaluated analytically from the cost model each
tick (simulating 83 kpps packet-by-packet in Python would be
prohibitively slow and adds no information: within a tick every victim
packet sees the same cache state).  Victim flows are refreshed through
the backend's bulk ``process_batch`` entry point, which amortises the
per-packet clock/revalidator overhead over each tick's burst.

The victim's achievable throughput each tick is::

    available = cpu_hz − attacker_cycles − revalidator_cycles
    capacity  = available / avg_victim_cost(masks, emc_hit_rate)
    achieved  = min(offered, capacity)

which yields Fig. 3's cliff when the mask count jumps from a handful to
8192 at t = 60 s.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from repro.flow.key import FlowKey
from repro.obs import (
    NULL_TELEMETRY,
    emc_counters,
    record_emc,
    record_vec_tss,
    vec_tss_paths,
)
from repro.ovs.megaflow import MegaflowEntry, refresh_run
from repro.ovs.pmd import shard_views
from repro.ovs.revalidator import SWEEP_INTERVAL
from repro.ovs.switch import BatchResult, LookupPath, OvsSwitch
from repro.perf.burst import KeyBurst
from repro.perf.costmodel import CostModel
from repro.perf.eventsim import analytic_victim_hit_rate

if TYPE_CHECKING:
    from repro.scenario.datapath import Datapath
from repro.perf.series import TimeSeries, Window
from repro.perf.workload import AttackerWorkload, VictimWorkload
from repro.util.cadence import advance_if_due
from repro.util.floatsum import add_repeated

#: an event mutating the switch at a given time (e.g. policy injection)
SimEvent = tuple[float, Callable[[OvsSwitch], None]]


@dataclass
class SimulationResult:
    """The output of one simulation run."""

    series: TimeSeries
    switch: "Datapath"
    victim: VictimWorkload
    attacker: AttackerWorkload | None

    def pre_attack_mean_bps(self) -> float:
        """Mean victim throughput before the covert stream starts."""
        start = self.attacker.start_time if self.attacker else float("inf")
        return self.series.mean("victim_throughput_bps", Window(0.0, start))

    def post_attack_mean_bps(self, settle: float = 10.0) -> float:
        """Mean victim throughput after the attack has settled."""
        if self.attacker is None:
            raise ValueError("no attacker in this simulation")
        begin = self.attacker.start_time + settle
        end = self.series.column("t")[-1] + 1.0
        return self.series.mean("victim_throughput_bps", Window(begin, end))

    def degradation(self, settle: float = 10.0) -> float:
        """Post-attack mean as a fraction of the pre-attack mean."""
        return self.post_attack_mean_bps(settle) / self.pre_attack_mean_bps()

    def final_mask_count(self) -> int:
        """Megaflow masks at the end of the run."""
        return int(self.series.last("masks"))


class _CovertSlots(NamedTuple):
    """The attacker ledger read by covert index instead of by
    ``(shard, FlowKey)`` hash: ``slots[i]`` is the entry the ledger
    holds for ``burst.keys[i]`` on the shard it steers to, or ``None``
    until index ``i`` is first read.  Valid only for the three things
    it was built against — compared on every tick, so the view is
    dropped exactly when a ledger ``get`` could answer differently."""

    #: the key list object (re-probes and fleet control replace it)
    burst: KeyBurst
    #: the ledger object (events and the rebalance prune replace it)
    ledger: dict
    #: a copy of the bucket→shard map (``None`` on one shard)
    reta: list[int] | None
    #: each key's shard under ``reta`` (``None`` on one shard: all 0)
    shard_map: list[int] | None
    slots: list[MegaflowEntry | None]


class DataplaneSimulator:
    """Ticks a switch + workloads forward and records the time series."""

    #: simulated seconds per tick
    dt = 1.0

    def __init__(
        self,
        switch: "Datapath",
        cost_model: CostModel,
        victim: VictimWorkload,
        attacker: AttackerWorkload | None = None,
        covert_keys: Sequence[FlowKey] | None = None,
        victim_keys: Sequence[FlowKey] | None = None,
        events: Sequence[SimEvent] = (),
        duration: float = 150.0,
        workload_seed: int = 0,
        covert_refresh: Callable[[], Sequence[FlowKey]] | None = None,
        reprobe_interval: float = 0.0,
        covert_replay: str = "model",
        telemetry=None,
    ) -> None:
        if attacker is not None and not covert_keys:
            raise ValueError("an attacker workload needs covert_keys")
        if duration <= 0:
            raise ValueError("duration must be positive")
        if reprobe_interval < 0:
            raise ValueError("reprobe_interval must be >= 0 (0 = never)")
        if covert_replay not in ("model", "datapath"):
            raise ValueError(
                "covert_replay must be 'model' or 'datapath', "
                f"got {covert_replay!r}"
            )
        self.switch = switch
        self.cost_model = cost_model
        self.victim = victim
        self.attacker = attacker
        self.covert_keys = list(covert_keys or [])
        self.victim_keys = list(victim_keys or [])
        self.events = sorted(events, key=lambda e: e[0])
        self.duration = duration
        # fleet/campaign control surface: a fleet controller scales the
        # victim's offered load when pods migrate between nodes, and
        # gates the covert stream per tick when the fabric fails to
        # deliver a burst.  Both defaults are behaviourally inert
        # (``x * 1.0`` is exact; the gate is never consulted when True),
        # so a standalone simulator is bit-identical to pre-fleet runs.
        self.offered_scale = 1.0
        self.covert_gate = True
        # the adaptive spread attacker: re-steer the covert stream
        # against the live dispatcher every ``reprobe_interval``
        # simulated seconds after the attack starts (0 = steer once at
        # build time, the PR 3/4 snapshot behaviour)
        self._covert_refresh = covert_refresh
        self.reprobe_interval = reprobe_interval
        # how covert packets are replayed each tick:
        #
        # * ``"model"`` (default) — the hybrid-fidelity scheme: already-
        #   installed covert flows refresh their megaflow and are charged
        #   the *expected* hit cost analytically; only genuine misses run
        #   the real slow path.  Cheap and the long-standing reference
        #   semantics.
        # * ``"datapath"`` — every due covert packet is assembled into
        #   one coalesced burst per tick and pushed through the real
        #   ``process_batch`` pipeline (EMC probe, TSS scan, upcalls),
        #   with cycles charged from the batch's measured aggregates.
        #   This is the mode whose wall clock actually exercises the
        #   datapath engine, so the columnar backend's deep-scan speedup
        #   shows up end-to-end.
        self.covert_replay = covert_replay
        self.reprobes = 0
        self._last_reprobe = attacker.start_time if attacker is not None else 0.0
        #: the step-driven execution state (:meth:`start` resets both;
        #: :meth:`run` is ``start`` + ``step`` until ``duration``)
        self.series = TimeSeries(columns=["t"])
        self.t = 0.0
        # covert stream cursor and (shard, key) -> live entry map: the
        # refresh fast path is per PMD shard, because a RETA rebalance
        # can move a covert flow to a shard that has never seen it —
        # the moved flow then re-installs there while its old shard's
        # megaflow idles out (the "stranding" effect of auto-lb)
        self._covert_cursor = 0
        # the pre-packed covert burst (packed ints, RSS buckets) —
        # invalidated by identity when ``covert_keys`` is reassigned
        # (re-probes and fleet control replace the list wholesale)
        self._covert_burst_cache: KeyBurst | None = None
        # the ledger of installed covert flows — what the EMC
        # competition model counts and the rebalance prune filters.
        # Only ever *replaced* when it loses entries, never cleared in
        # place: the slot view below is valid per ledger object
        self._attacker_entries: dict[tuple[int, FlowKey], MegaflowEntry] = {}
        self._covert_slot_view: _CovertSlots | None = None
        self._victim_entries: dict[FlowKey, MegaflowEntry] = {}
        # the per-PMD shard views: a sharded datapath exposes its shards
        # (each with its own mask set, caches and clocks); an unsharded
        # one is its own single shard.  Attacker damage is charged to the
        # shard a covert flow RSS-hashes to *under the current RETA*,
        # and victim capacity is evaluated per shard — with one shard
        # both reduce exactly to the single-datapath arithmetic.
        self._shards: list = shard_views(switch)
        # RETA-aware plumbing: the datapath when it dispatches through
        # an indirection table, and the victim's per-bucket load weights
        # (None = uniform; only skewed workloads need the Zipf profile)
        self._reta_dp = switch if getattr(switch, "reta", None) is not None else None
        self._seen_rebalances = 0
        # observability: attach the span recorder to the datapath's
        # event sources and pre-register this simulator's instruments.
        # ``_tele`` stays None when telemetry is disabled, so the hot
        # tick loop pays one ``is not None`` check and nothing else —
        # the zero-overhead-when-disabled contract.
        # explicit None check: an empty registry is len() == 0 / falsy
        self.telemetry = NULL_TELEMETRY if telemetry is None else telemetry
        self.telemetry.attach(switch)
        self._tele = None
        self._tele_node = getattr(switch, "name", "") or ""
        self._last_upcalls = 0
        if self.telemetry.enabled:
            node = self._tele_node
            tele = self.telemetry
            self._tele = {
                "attacker_packets": tele.counter(
                    "sim.attacker.packets", node=node
                ),
                "attacker_cycles": tele.counter(
                    "sim.attacker.cycles", node=node
                ),
                "charged": tele.counter("sim.cycles.charged", node=node),
                "masks": tele.gauge("sim.datapath.masks", node=node),
                "megaflows": tele.gauge("sim.datapath.megaflows", node=node),
                "emc": tele.gauge("sim.emc.hit_rate", node=node),
                "victim_cycles": tele.histogram(
                    "sim.victim.avg_cycles", node=node
                ),
                "throughput": tele.gauge(
                    "sim.victim.throughput_bps", node=node
                ),
            }
            self._last_upcalls = self._slow_path_upcalls()
        self._bucket_weights: list[float] | None = None
        if self._reta_dp is not None and victim.skew > 0:
            # workload_seed is the raw scenario seed (never a forked
            # child seed, which is process-salted): the skewed bucket
            # permutation reproduces across processes
            self._bucket_weights = victim.bucket_weights(
                len(self._reta_dp.reta), seed=workload_seed
            )

    # -- fleet control surface ----------------------------------------------

    def set_attacker(self, attacker) -> None:
        """Swap the attacker workload (the fleet replaces it with a
        mobility-windowed one) and re-derive the dependent reprobe
        bookkeeping — the one place that invariant lives."""
        self.attacker = attacker
        self._last_reprobe = attacker.start_time if attacker is not None else 0.0

    def set_victim_keys(self, keys: Sequence[FlowKey]) -> None:
        """Replace the representative victim flows (per-node pods)."""
        self.victim_keys = list(keys)

    def adopt_victim_flows(self, keys: Sequence[FlowKey],
                           entries: Sequence[MegaflowEntry | None]) -> None:
        """Take over migrated victim flows: they join the refresh set,
        with any already-installed megaflow entries registered so the
        next tick refreshes instead of re-installing."""
        for key, entry in zip(keys, entries):
            self.victim_keys.append(key)
            if entry is not None:
                self._victim_entries[key] = entry

    def release_victim_flows(self) -> list[FlowKey]:
        """Give up every victim flow (quarantine migrates them away);
        returns the released keys.  Their cached entries are dropped —
        nothing refreshes them here any more."""
        keys, self.victim_keys = self.victim_keys, []
        for key in keys:
            self._victim_entries.pop(key, None)
        return keys

    # -- helpers -------------------------------------------------------------

    def _run_events(self, t0: float, t1: float) -> None:
        for when, action in self.events:
            if t0 <= when < t1:
                action(self.switch)
                # a slow-path change flushes caches; cached refs are stale
                # (a new ledger object, which also drops the slot view)
                self._attacker_entries = {}
                self._victim_entries.clear()

    def _covert_burst(self) -> KeyBurst:
        """The pre-packed burst over the current covert key list —
        rebuilt only when the list object itself is replaced."""
        burst = self._covert_burst_cache
        if burst is None or burst.keys is not self.covert_keys:
            burst = KeyBurst(self.covert_keys)
            self._covert_burst_cache = burst
        return burst

    def _covert_slots(self, burst: KeyBurst, multi: bool) -> _CovertSlots:
        """The slot view over ``burst`` under the current RETA and
        ledger — rebuilt, every slot unread, only when one of the three
        is no longer the one it was built against."""
        reta = self._reta_dp.reta if multi else None
        view = self._covert_slot_view
        if (
            view is None
            or view.burst is not burst
            or view.ledger is not self._attacker_entries
            or view.reta != reta
        ):
            shard_map = None
            if multi:
                shard_map = [
                    reta[bucket] for bucket in burst.buckets(self._reta_dp)
                ]
                reta = list(reta)
            view = self._covert_slot_view = _CovertSlots(
                burst, self._attacker_entries, reta, shard_map,
                [None] * len(burst),
            )
        return view

    def _refresh_victim_flows(self, now: float) -> None:
        """Keep the representative victim flows installed and hot (the
        real victim aggregate never goes idle).  Flows without a live
        megaflow go through the pipeline as one batch."""
        stale: list[FlowKey] = []
        entry_of = self._victim_entries.get
        for key in self.victim_keys:
            entry = entry_of(key)
            if entry is not None and entry.alive:
                entry.refresh(now)
            else:
                stale.append(key)
        if stale:
            batch = self.switch.process_batch(stale, now=now)
            for key, result in zip(stale, batch.results):
                if result.entry is not None:
                    self._victim_entries[key] = result.entry

    def _send_covert(self, t0: float, t1: float) -> tuple[int, list[float]]:
        """Send the covert packets due in [t0, t1); returns
        ``(packets_sent, attacker_cycles_by_shard)``.

        Each covert packet's cost lands on the PMD shard its flow
        RSS-hashes to, against *that shard's* mask count — attacker
        damage stays confined to the shards the covert flows reach
        (with one shard this is the whole datapath, as before).

        Under the default ``covert_replay="model"``: packets whose
        megaflow is already installed only refresh it (entry touch) and
        are charged the expected megaflow-hit cost.  Packets without
        one are *known* cache misses (the attacker constructs
        pairwise-distinct covert keys), so instead of paying for a full
        TSS miss scan in Python they go straight to the real slow path
        — which performs the genuine classification and megaflow
        installation — while the skipped scan is charged through the
        cost model.  Cache state is identical either way (a TSS miss
        mutates nothing), only Python time differs.

        Under ``covert_replay="datapath"`` the tick's packets instead
        run as one coalesced burst through the real ``process_batch``
        pipeline (see :meth:`_send_covert_datapath`).  So do they on a
        backend with no flow cache, whatever the mode: with nothing to
        pollute, every covert packet is a plain (and futile)
        classification.
        """
        cycles_by_shard = [0.0] * len(self._shards)
        if self.attacker is None or not self.covert_keys:
            return 0, cycles_by_shard
        if not self.covert_gate:
            # the fleet controller found this node unreachable (e.g.
            # quarantine detached it from the fabric): the burst never
            # arrived, so nothing is charged and nothing refreshes
            return 0, cycles_by_shard
        due = self.attacker.packets_due(t0, t1)
        if due <= 0:
            return 0, cycles_by_shard
        burst = self._covert_burst()
        n_keys = len(burst)
        mid = t0 + (t1 - t0) / 2
        if self.covert_replay == "datapath" or not self.switch.has_flow_cache:
            self._send_covert_datapath(burst, due, mid, cycles_by_shard)
            return due, cycles_by_shard
        # under subtable ranking the expected hit scan follows the
        # measured hit distribution (computed once per tick and shard:
        # the covert refreshes below keep spreading hits across every
        # subtable, which is exactly what flattens the ranking's payoff)
        ranked = self.switch.scan_order == "ranked"
        ranked_hit_costs = (
            [
                self.cost_model.megaflow_hit_cost(
                    view.expected_scan_depth(), view.staged
                )
                for view in self._shards
            ]
            if ranked
            else []
        )
        # feed the rebalancer's per-bucket load window with the same
        # cost-model cycles we charge the shard (attack load is load)
        reta_dp = self._reta_dp
        multi = reta_dp is not None and len(self._shards) > 1
        charge_buckets = multi and reta_dp.rebalancer.enabled
        # the tick is served in runs, not packets.  The ledger is read
        # through the slot view (by covert index: no ``(shard, key)``
        # tuple, no ``FlowKey.__hash__``), and each maximal run of live
        # slots is refreshed by one ``refresh_run`` and charged as
        # ``(count, cost)`` per shard — per RETA bucket when the
        # rebalancer is listening.  Nothing inside a run can remap the
        # RETA or change a mask count (rebalances only fire from
        # ``process_batch``/``advance_clock``, masks only move on
        # upcalls), so within it a shard's hit cost is one number:
        # memoised per shard, dropped after every ``handle_miss``, fixed
        # for the tick under ranking.  Every accumulator still receives
        # the same adds in the same order — ``add_repeated`` returns
        # exactly what ``count`` sequential ``+=`` would — so float
        # accumulation and counter order stay bit-identical.  A slot
        # that reads ``None`` or dead asks the ledger before it takes
        # the slow path: a duplicated covert key, or an entry replaced
        # through another index, is found there as it always was.
        keys = burst.keys
        shards = self._shards
        switch = self.switch
        cost_model = self.cost_model
        entries = self._attacker_entries
        cursor = self._covert_cursor
        view = self._covert_slots(burst, multi)
        slots = view.slots
        shard_map = view.shard_map
        if multi:
            buckets = burst.buckets(reta_dp)
            reta = reta_dp.reta
        hit_costs: list[float | None] = (
            ranked_hit_costs if ranked else [None] * len(shards)
        )
        remaining = due
        while remaining:
            index = cursor % n_keys
            entry = slots[index]
            if entry is None or not entry.alive:
                key = keys[index]
                shard = shard_map[index] if multi else 0
                entry = entries.get((shard, key))
                if entry is not None and entry.alive:
                    slots[index] = entry  # a run starts here next turn
                    continue
                installed = switch.handle_miss(key, now=mid)
                if not ranked:
                    hit_costs = [None] * len(shards)
                if installed is not None:
                    entries[(shard, key)] = slots[index] = installed
                shard_view = shards[shard]
                cost = cost_model.miss_cost(
                    shard_view.mask_count,
                    rules_examined=shard_view.rule_count,
                )
                cycles_by_shard[shard] += cost
                if charge_buckets:
                    reta_dp.record_bucket_cycles(buckets[index], cost)
                cursor += 1
                remaining -= 1
                continue
            served = refresh_run(
                slots, index, min(n_keys, index + remaining), t1
            )
            cursor += served
            remaining -= served
            if not multi:
                groups = ((0, served),)
            elif charge_buckets:
                groups = Counter(buckets[index:index + served]).items()
            else:
                groups = Counter(shard_map[index:index + served]).items()
            for group, count in groups:
                shard = reta[group] if charge_buckets else group
                cost = hit_costs[shard]
                if cost is None:
                    cost = hit_costs[shard] = (
                        cost_model.expected_megaflow_hit_cost(
                            shards[shard].mask_count
                        )
                    )
                cycles_by_shard[shard] = add_repeated(
                    cycles_by_shard[shard], cost, count
                )
                if charge_buckets:
                    reta_dp.record_bucket_cycles(group, cost, count)
        self._covert_cursor = cursor
        return due, cycles_by_shard

    def _batch_cycles(self, view, packets: int, emc_hits: int,
                      upcalls: int, tuples_scanned: int) -> float:
        """Cost-model cycles for a measured batch outcome on one shard:
        the same per-path constants the analytic formulas use, applied
        to what the datapath actually did instead of to expectations.
        Every packet the EMC did not serve pays the megaflow base — on
        a cacheless shard, every packet."""
        cost_model = self.cost_model
        probe = (
            cost_model.cycles_staged_probe
            if view.staged
            else cost_model.cycles_tuple_probe
        )
        return (
            emc_hits * cost_model.cycles_emc_hit
            + (packets - emc_hits) * cost_model.cycles_megaflow_base
            + tuples_scanned * probe
            + upcalls * (
                cost_model.cycles_upcall
                + view.rule_count * cost_model.cycles_slow_rule
            )
        )

    def _send_covert_datapath(self, burst: KeyBurst, due: int, mid: float,
                              cycles_by_shard: list[float]) -> None:
        """``covert_replay="datapath"``: replay the tick's due covert
        packets as **one coalesced burst** through the real pipeline.

        The burst is assembled with C-level slices of the cached key
        list (no per-packet re-pack) and handed to ``process_batch`` in
        one call — a sharded datapath groups it per PMD internally and
        does its own bucket-window accounting, so nothing here calls
        ``record_bucket_cycles`` (that would double-bill the
        rebalancer).  Cycles are charged from the batch's measured
        aggregates via :meth:`_batch_cycles`; on a multi-shard datapath
        the per-result paths are attributed to shards under the
        dispatch-time RETA (a rebalance can only fire after the batch).
        The ``(shard, key) → entry`` map — which feeds the EMC
        competition model — is only rebuilt on ticks that saw upcalls:
        a dead entry forces a TSS miss, so every (re)install is such a
        tick.

        Unsharded datapaths run the burst in the aggregate-only result
        mode: the cycle charge reads only the batch sums, and the entry
        map is maintained from the batch's ``installed`` pairs — every
        entry the map can ever hold arrives via its install upcall, so
        per-packet results are never materialised.  Multi-shard
        datapaths still materialise: per-shard cycle attribution needs
        each packet's path and scan depth.
        """
        start = self._covert_cursor
        stream = burst.cyclic_slice(start, due)
        self._covert_cursor = start + due
        reta_dp = self._reta_dp
        shards = self._shards
        multi = reta_dp is not None and len(shards) > 1
        n_keys = len(burst)
        entries = self._attacker_entries
        if multi:
            buckets = burst.buckets(reta_dp)
            reta = reta_dp.reta
            shard_map = [reta[bucket] for bucket in buckets]
            batch: BatchResult = self.switch.process_batch(stream, now=mid)
            tallies = [[0, 0, 0, 0] for _ in shards]
            for offset, result in enumerate(batch.results):
                tally = tallies[shard_map[(start + offset) % n_keys]]
                path = result.path
                if path is LookupPath.MICROFLOW:
                    tally[0] += 1
                elif path is LookupPath.MEGAFLOW:
                    tally[1] += 1
                else:
                    tally[2] += 1
                tally[3] += result.tuples_scanned
            for shard, (emc, mf, up, tuples) in enumerate(tallies):
                cycles_by_shard[shard] = self._batch_cycles(
                    shards[shard], emc + mf + up, emc, up, tuples
                )
            if batch.upcalls:
                for offset, (key, result) in enumerate(
                    zip(stream, batch.results)
                ):
                    if result.entry is not None:
                        shard = shard_map[(start + offset) % n_keys]
                        entries[(shard, key)] = result.entry
            return
        batch = self.switch.process_batch(stream, now=mid, materialize=False)
        cycles_by_shard[0] = self._batch_cycles(
            shards[0],
            batch.packets,
            batch.emc_hits,
            batch.upcalls,
            batch.tuples_scanned,
        )
        for key, entry in batch.installed:
            entries[(0, key)] = entry

    def _emc_hit_rate(self, attack_active: bool) -> float:
        """Capacity-competition model of the exact-match layer
        (:func:`~repro.perf.eventsim.analytic_victim_hit_rate`): the
        victim's flows compete for the cache with every attacker ledger
        entry while the attack is active."""
        return analytic_victim_hit_rate(
            self.switch.cache_capacity,
            self.victim.concurrent_flows,
            len(self._attacker_entries) if attack_active else 0,
        )

    def _victim_avg_cost(self, view, emc_hit_rate: float) -> float:
        """Expected per-packet cycles for the victim share served by one
        PMD shard (``view`` is the shard's switch, or the whole datapath
        when unsharded).

        The megaflow-hit scan uses the unordered-mask-array convention
        ``(n+1)/2`` (the kernel datapath), except under subtable
        ranking, where the expected depth follows the *measured* hit
        distribution — benign traffic concentrated on hot subtables
        scans few, while covert refresh hits spread uniformly keep the
        expectation near ``(n+1)/2``.  Ranking never helps the miss
        term: a miss still visits every subtable.
        """
        masks = view.mask_count
        if not self.switch.has_flow_cache:
            # cacheless backend: every packet pays the same static scan
            # over the compiled rule groups — no upcalls, no cache state
            return self.cost_model.megaflow_hit_cost(masks)
        staged = view.staged
        f_new = self.victim.miss_fraction
        if view.scan_order == "ranked":
            megaflow_hit = self.cost_model.megaflow_hit_cost(
                view.expected_scan_depth(), staged
            )
        else:
            megaflow_hit = self.cost_model.expected_megaflow_hit_cost(masks, staged)
        hit_cost = (
            emc_hit_rate * self.cost_model.emc_hit_cost()
            + (1.0 - emc_hit_rate) * megaflow_hit
        )
        miss_cost = self.cost_model.miss_cost(
            masks, rules_examined=max(view.rule_count, 1), staged=staged
        )
        return f_new * miss_cost + (1.0 - f_new) * hit_cost

    def _victim_shares(self) -> list[float] | None:
        """Per-shard fraction of the victim's offered load under the
        *current* RETA (``None`` = split evenly, the non-RETA case).

        Uniform traffic follows the bucket counts; a skewed workload
        follows the Zipf bucket weights — so a rebalance that remaps
        buckets really moves victim load (and its capacity demand)
        between PMDs.
        """
        if self._reta_dp is None:
            return None
        reta = self._reta_dp.reta
        n_shards = len(self._shards)
        weights = self._bucket_weights
        if weights is None:
            counts = [0] * n_shards
            for shard in reta:
                counts[shard] += 1
            return [count / len(reta) for count in counts]
        shares = [0.0] * n_shards
        for bucket, shard in enumerate(reta):
            shares[shard] += weights[bucket]
        return shares

    def _maybe_reprobe(self, t: float) -> None:
        """Re-steer the covert stream against the live dispatcher on the
        re-probe grid (aligned like the rebalancer's interval check, so
        cadence follows simulated time, not call pattern)."""
        if self._covert_refresh is None or self.reprobe_interval <= 0:
            return
        if self.attacker is None or t < self.attacker.start_time:
            return
        anchor = advance_if_due(self._last_reprobe, t, self.reprobe_interval)
        if anchor is None:
            return
        self._last_reprobe = anchor
        self.covert_keys = list(self._covert_refresh())
        self.reprobes += 1

    # -- main loop ------------------------------------------------------------

    def start(self) -> TimeSeries:
        """Initialise the run: an empty series and the clock at zero.
        Step-driven callers (the fleet's tick loop) call this once, then
        :meth:`step` per tick; :meth:`run` does both."""
        self.series = TimeSeries(
            columns=[
                "t",
                "victim_throughput_bps",
                "victim_capacity_bps",
                "masks",
                "megaflows",
                "emc_hit_rate",
                "victim_avg_cycles",
                "attacker_pps",
                "attacker_cycles",
                "shard_load_imbalance",
                "rebalances",
            ]
        )
        self.t = 0.0
        return self.series

    def step(self) -> float:
        """Advance one tick ``[t, t + dt)`` and append its series row;
        returns the new clock.  Extracted from the classic ``run`` loop
        verbatim, so step-driven execution is bit-identical to it."""
        series = self.series
        t = self.t
        t_next = t + self.dt
        self._run_events(t, t_next)
        self._maybe_reprobe(t)
        self._refresh_victim_flows(t_next)
        sent, cycles_by_shard = self._send_covert(t, t_next)
        self.switch.advance_clock(t_next)
        if (
            self._reta_dp is not None
            and self._reta_dp.rebalancer.rebalances != self._seen_rebalances
        ):
            # a remap strands covert entries on their old shards;
            # once idled out they are unreachable through the
            # (shard, key) map, so prune the dead ones — otherwise
            # the EMC competition model would count them as active
            # flows for the rest of the run
            self._seen_rebalances = self._reta_dp.rebalancer.rebalances
            self._attacker_entries = {
                pair: entry
                for pair, entry in self._attacker_entries.items()
                if entry.alive
            }

        attack_active = self.attacker is not None and self.attacker.active_at(t)
        emc_hit_rate = self._emc_hit_rate(attack_active)

        # per-PMD capacity: each shard's core spends its own budget
        # on the victim share it serves (the current RETA decides
        # how offered load spreads — evenly without one), minus the
        # attacker and revalidator cycles landing on *that* shard.
        # One shard reduces to the classic single-datapath formula
        # term for term.
        shards = self._shards
        n_shards = len(shards)
        shares = self._victim_shares()
        # the fleet's migration knob: ``offered_scale`` rescales the
        # victim demand this node serves (1.0 — the standalone default —
        # multiplies exactly, keeping pre-fleet runs bit-identical)
        offered_pps = self.victim.offered_pps * self.offered_scale
        achieved_pps = 0.0
        capacity_pps = 0.0
        avg_cost_total = 0.0
        attacker_cycles = 0.0
        avg_costs: list[float] = []
        tick_loads: list[float] = []
        tele_on = self._tele is not None
        reval_list: list[float] = []
        served_list: list[float] = []
        for index, view in enumerate(shards):
            avg_cost = self._victim_avg_cost(view, emc_hit_rate)
            avg_costs.append(avg_cost)
            avg_cost_total += avg_cost
            offered_share_pps = (
                offered_pps / n_shards
                if shares is None
                else offered_pps * shares[index]
            )
            reval_cycles = (
                view.megaflow_count
                * self.cost_model.cycles_revalidate_flow
                / SWEEP_INTERVAL
            )
            shard_attacker_per_sec = cycles_by_shard[index] / self.dt
            attacker_cycles += cycles_by_shard[index]
            available = (
                self.cost_model.cpu_hz - shard_attacker_per_sec - reval_cycles
            )
            shard_capacity = self.cost_model.capacity_pps(avg_cost, available)
            capacity_pps += shard_capacity
            served_pps = min(offered_share_pps, shard_capacity)
            achieved_pps += served_pps
            tick_loads.append(
                offered_share_pps * self.dt * avg_cost + cycles_by_shard[index]
            )
            if tele_on:
                # per-tick cycle attribution (pure observation: nothing
                # below feeds back into the series arithmetic)
                reval_list.append(reval_cycles * self.dt)
                served_list.append(served_pps * self.dt * avg_cost)
        # feed the victim's (analytically modelled) demand into the
        # rebalancer's per-bucket window, so skewed benign load —
        # not only attack traffic — drives remaps
        reta_dp = self._reta_dp
        if (
            reta_dp is not None
            and n_shards > 1
            and reta_dp.rebalancer.enabled
        ):
            weights = self._bucket_weights
            uniform = 1.0 / len(reta_dp.reta)
            demand = offered_pps * self.dt
            for bucket, shard in enumerate(reta_dp.reta):
                weight = uniform if weights is None else weights[bucket]
                reta_dp.record_bucket_cycles(
                    bucket, weight * demand * avg_costs[shard]
                )
        frame_bits = self.victim.frame_bytes * 8
        mean_load = sum(tick_loads) / n_shards
        imbalance = max(tick_loads) / mean_load if mean_load > 0 else 1.0

        series.append(
            t=t_next,
            victim_throughput_bps=achieved_pps * frame_bits,
            victim_capacity_bps=capacity_pps * frame_bits,
            masks=self.switch.mask_count,
            megaflows=self.switch.megaflow_count,
            emc_hit_rate=emc_hit_rate,
            victim_avg_cycles=avg_cost_total / n_shards,
            attacker_pps=sent / self.dt,
            attacker_cycles=attacker_cycles / self.dt,
            shard_load_imbalance=imbalance,
            rebalances=(
                reta_dp.rebalancer.rebalances if reta_dp is not None else 0
            ),
        )
        if tele_on:
            self._record_tick(
                t_next, sent, cycles_by_shard, reval_list, served_list,
                emc_hit_rate, avg_cost_total / n_shards,
                achieved_pps * frame_bits,
            )
        self.t = t_next
        return t_next

    def _record_tick(self, t_next: float, sent: int,
                     cycles_by_shard: list[float],
                     reval_list: list[float], served_list: list[float],
                     emc_hit_rate: float, victim_avg_cycles: float,
                     throughput_bps: float) -> None:
        """Publish one tick's telemetry: metric samples, cycle
        attribution by (layer, phase, shard), and the upcall-burst
        span.  Only called with telemetry enabled; pure observation —
        it reads tick outputs, never feeds back into them."""
        tele = self.telemetry
        inst = self._tele
        node = self._tele_node
        tele.advance(t_next)
        inst["attacker_packets"].inc(sent)
        inst["attacker_cycles"].inc(sum(cycles_by_shard))
        inst["masks"].set(self.switch.mask_count)
        inst["megaflows"].set(self.switch.megaflow_count)
        inst["emc"].set(emc_hit_rate)
        inst["victim_cycles"].observe(victim_avg_cycles)
        inst["throughput"].set(throughput_bps)
        record_vec_tss(tele, vec_tss_paths(self.switch), node=node)
        record_emc(tele, emc_counters(self.switch), node=node)
        profile = tele.profile
        covert_phase = "covert_" + self.covert_replay
        multi = len(self._shards) > 1
        charged = 0.0
        for shard in range(len(self._shards)):
            sid = shard if multi else -1
            attacker = cycles_by_shard[shard]
            reval = reval_list[shard]
            served = served_list[shard]
            if attacker:
                profile.charge("attacker", covert_phase, attacker,
                               node=node, shard=sid)
            if reval:
                profile.charge("ovs", "revalidate", reval,
                               node=node, shard=sid)
            if served:
                profile.charge("victim", "serve", served,
                               node=node, shard=sid)
            charged += attacker + reval + served
        inst["charged"].inc(charged)
        upcalls = self._slow_path_upcalls()
        delta = upcalls - self._last_upcalls
        if delta > 0:
            tele.trace.record(
                "ovs.upcall.burst", t_next, node=node, upcalls=delta,
                masks=self.switch.mask_count,
            )
        self._last_upcalls = upcalls

    def _slow_path_upcalls(self) -> int:
        """Upcalls handled so far, summed over shards and read from the
        slow path's own counter: the model replay's installs go to it
        directly (``handle_miss``), so ``stats.upcalls`` — ticked by
        the fast path when *it* misses — never sees them.  A shard
        whose slow path is out of reach (a worker handle, the cacheless
        backend) answers with its ``stats``."""
        return sum(
            getattr(view, "slow_path", view.stats).upcalls
            for view in self._shards
        )

    def result(self) -> SimulationResult:
        """Wrap the (possibly step-driven) series in the result type."""
        return SimulationResult(self.series, self.switch, self.victim, self.attacker)

    def run(self) -> SimulationResult:
        """Execute the simulation and return its time series."""
        self.start()
        while self.t < self.duration:
            self.step()
        return self.result()
