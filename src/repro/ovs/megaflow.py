"""The megaflow cache: wildcard entries managed over tuple space search.

Adds lifecycle on top of :class:`~repro.ovs.tss.TupleSpaceSearch`:
installation with a flow limit, per-entry hit/idle accounting, idle
expiry (the revalidator's 10 s default), and provenance so the defense
module can attribute mask pressure to a tenant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.flow.actions import Action
from repro.flow.fields import FieldSpace
from repro.flow.key import FlowKey
from repro.flow.match import FlowMatch
from repro.ovs.tss import TssLookupResult, TupleSpaceSearch

#: OVS's default datapath flow limit (ovs-vswitchd ``flow-limit``)
DEFAULT_FLOW_LIMIT = 200_000

#: OVS's default idle timeout for datapath flows, seconds
DEFAULT_IDLE_TIMEOUT = 10.0


@dataclass(slots=True)
class MegaflowEntry:
    """One cached megaflow: a wildcard match, its action, and bookkeeping."""

    match: FlowMatch
    action: Action
    created_at: float = 0.0
    last_used: float = 0.0
    hits: int = 0
    #: tenant whose policy's classification produced this entry
    tenant: Optional[str] = None
    #: False once evicted — lets microflow-cache references detect staleness
    alive: bool = True
    #: the TSS subtable holding this entry (set on install) — lets
    #: scan-bypassing refresh paths credit subtable hit counters
    subtable: Optional[object] = field(default=None, repr=False, compare=False)

    def touch(self, now: float) -> None:
        """Record a hit at time ``now``."""
        self.hits += 1
        self.last_used = now

    def refresh(self, now: float) -> None:
        """Record a hit that bypassed the TSS scan (the simulator's
        refresh fast path): touch the entry *and* credit the owning
        subtable's hit counters, as the real datapath's lookup would —
        this is what keeps subtable ranking honest about covert traffic
        that spreads hits across every subtable."""
        self.touch(now)
        if self.subtable is not None:
            self.subtable.credit_hit()

    def idle_for(self, now: float) -> float:
        """Seconds since the last hit (or installation)."""
        return now - self.last_used

    def __repr__(self) -> str:
        return f"MegaflowEntry({self.match!r} -> {self.action!r}, hits={self.hits})"


def refresh_run(slots: "Sequence[MegaflowEntry | None]", start: int,
                stop: int, now: float) -> int:
    """:meth:`MegaflowEntry.refresh` over the longest live prefix of
    ``slots[start:stop]``, in one pass: each entry touched and its
    subtable credited, inline and in slot order, exactly as per-entry
    ``refresh(now)`` calls would.  Stops at the first slot that is
    ``None`` or no longer alive and returns how many it served — that
    slot is the caller's (the simulator's covert slots: it takes the
    slot this stopped at to its ledger, or to the slow path)."""
    served = 0
    for entry in slots[start:stop]:
        if entry is None or not entry.alive:
            break
        entry.hits += 1
        entry.last_used = now
        subtable = entry.subtable
        if subtable is not None:
            subtable.hits += 1
            subtable.rank_hits += 1
        served += 1
    return served


class CacheFullError(RuntimeError):
    """Raised when an insert exceeds the datapath flow limit."""


class MegaflowCache:
    """The wildcard flow cache of the OVS fast path."""

    def __init__(
        self,
        space: FieldSpace,
        flow_limit: int = DEFAULT_FLOW_LIMIT,
        idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
        staged: bool = False,
        scan_order: str = "insertion",
    ) -> None:
        self.space = space
        self.flow_limit = flow_limit
        self.idle_timeout = idle_timeout
        self.tss = TupleSpaceSearch(space, staged=staged,
                                    scan_order=scan_order)
        self.inserts = 0
        self.rejected_inserts = 0
        self.expired_total = 0

    # -- size --------------------------------------------------------------

    @property
    def mask_count(self) -> int:
        """Distinct wildcard masks (TSS subtables) currently cached."""
        return self.tss.mask_count

    @property
    def entry_count(self) -> int:
        """Megaflow entries currently cached."""
        return self.tss.entry_count

    # -- operations ---------------------------------------------------------

    def lookup(self, key: FlowKey, now: float = 0.0) -> TssLookupResult:
        """TSS lookup; touches the entry on hit — the one-key burst of
        :meth:`lookup_batch`."""
        return self.lookup_batch((key,), now)[0]

    def lookup_batch(self, keys: "Sequence[FlowKey]",
                     now: float = 0.0) -> list[TssLookupResult]:
        """Batched TSS lookup over a burst of keys (see
        :meth:`~repro.ovs.tss.TupleSpaceSearch.lookup_batch`): returns
        results for a prefix of ``keys`` — the leading hits plus the
        first miss — with every hit entry touched and the idle floor
        lowered at ``now``, exactly as per-key :meth:`lookup` calls
        would."""
        return self.tss.lookup_batch(keys, now)

    def insert(
        self,
        match: FlowMatch,
        action: Action,
        now: float = 0.0,
        tenant: str | None = None,
    ) -> MegaflowEntry:
        """Install a megaflow; raises :class:`CacheFullError` beyond the
        flow limit.  Re-inserting an identical (mask, key) replaces the
        old entry, as a datapath flow mod would.  The subtable is looked
        up once, by the match's :attr:`packed
        <repro.flow.match.FlowMatch.packed>` form."""
        packed_mask, packed_value = match.packed
        tss = self.tss
        found = tss.find_subtable(packed_mask)
        existing = found.get(packed_value) if found is not None else None
        if existing is None and tss.entry_count >= self.flow_limit:
            self.rejected_inserts += 1
            raise CacheFullError(
                f"datapath flow limit reached ({self.flow_limit} flows)"
            )
        if existing is not None:
            existing.alive = False
        if now < tss.idle_floor:
            tss.idle_floor = now
        # positional arguments: half the cost of keywords, on every install
        entry = MegaflowEntry(match, action, now, now, 0, tenant)
        entry.subtable = tss.insert_at(found, packed_mask, packed_value, entry)
        self.inserts += 1
        return entry

    def remove_entry(self, entry: MegaflowEntry) -> None:
        """Evict one entry.  Removal is by identity: an entry that was
        already replaced or evicted only has its own ``alive`` cleared —
        whatever now lives under its (mask, key) stays cached."""
        entry.alive = False
        packed_mask, packed_value = entry.match.packed
        found = self.tss.find_subtable(packed_mask)
        if found is not None and found.get(packed_value) is entry:
            self.tss.remove(packed_mask, packed_value)

    def expire_idle(self, now: float) -> int:
        """Evict entries idle for longer than the timeout; returns the
        eviction count.  This is what forces the attacker to keep the
        covert stream flowing (and why 1–2 Mbps suffices: refreshing
        8192 flows within 10 s needs only ~820 pps).

        While the tuple space's idle floor is inside the timeout nothing
        is visited: every live ``last_used`` is at or above the floor and
        float subtraction is monotone, so ``now - last_used <= now -
        floor`` holds in floats and no entry can test idle.  Otherwise
        one pass evicts the idle and re-derives the floor from the
        survivors — capped at ``now``, so that a later hit stamped with
        the switch clock (which no sweep runs ahead of) is never below
        it."""
        timeout = self.idle_timeout
        tss = self.tss
        if now - tss.idle_floor <= timeout:
            return 0
        idle: list[MegaflowEntry] = []
        floor = now
        for subtable in tss.iter_subtables():
            for entry in subtable.entries.values():
                last_used = entry.last_used  # type: ignore[attr-defined]
                if now - last_used > timeout:
                    idle.append(entry)  # type: ignore[arg-type]
                elif last_used < floor:
                    floor = last_used
        tss.idle_floor = floor
        for entry in idle:
            self.remove_entry(entry)
        self.expired_total += len(idle)
        return len(idle)

    def evict_tenant(self, tenant: str) -> int:
        """Evict every entry attributed to a tenant (a defense action)."""
        def owned(entry: object) -> bool:
            megaflow: MegaflowEntry = entry  # type: ignore[assignment]
            if megaflow.tenant == tenant:
                megaflow.alive = False
                return True
            return False

        return self.tss.remove_if(owned)

    def entries(self) -> list[MegaflowEntry]:
        """All live entries (copy)."""
        return [entry for _m, _v, entry in self.tss.iter_entries()]  # type: ignore[misc]

    def flush(self) -> None:
        """Drop the whole cache (``ovs-dpctl del-flows``)."""
        for entry in self.entries():
            entry.alive = False
        self.tss.clear()

    def __repr__(self) -> str:
        return (
            f"MegaflowCache({self.mask_count} masks, {self.entry_count}/"
            f"{self.flow_limit} entries)"
        )
