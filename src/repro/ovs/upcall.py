"""The slow path: upcall handling and megaflow installation.

"The first packet of each flow is subjected to full flow-table
processing on the slow path, and the flow-specific rules and actions are
then cached in the fast path" — the paper, Section 2.

:class:`SlowPath` owns the OpenFlow-style :class:`FlowTable`, runs
:func:`classify_with_wildcards` on cache misses, and installs the
resulting megaflow.  Installation passes through an optional *guard*
chain — the hook point for the defenses in :mod:`repro.defense` (mask
limits, per-tenant quotas, upcall rate limiting).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol

from repro.flow.actions import Action, Drop
from repro.flow.key import FlowKey
from repro.flow.match import FlowMatch
from repro.flow.table import FlowTable
from repro.ovs.megaflow import CacheFullError, MegaflowCache, MegaflowEntry
from repro.ovs.wildcarding import WildcardingResult, classify_with_wildcards


@dataclass
class InstallContext:
    """Everything a defense hook may inspect before an installation."""

    cache: MegaflowCache
    key: FlowKey
    match: FlowMatch
    action: Action
    tenant: Optional[str]
    now: float


class InstallGuard(Protocol):
    """A defense hook inspecting a megaflow before installation.

    Returns ``None`` to approve the install unchanged, a replacement
    :class:`FlowMatch` to install instead (e.g. a narrowed one), or
    raises :class:`InstallRejected` to veto caching entirely (the packet
    is still handled, just not cached).
    """

    def __call__(self, context: InstallContext) -> FlowMatch | None: ...


class InstallRejected(Exception):
    """Raised by a guard to veto the installation of a megaflow."""


@dataclass(slots=True)
class UpcallResult:
    """Outcome of one slow-path upcall."""

    action: Action
    classification: WildcardingResult
    installed: Optional[MegaflowEntry]
    #: why installation was skipped, when it was ("guard", "flow-limit",
    #: "rate-limit", or None)
    install_skipped: Optional[str] = None


class SlowPath:
    """Full classification + megaflow installation."""

    def __init__(
        self,
        table: FlowTable,
        cache: MegaflowCache,
        miss_action: Action | None = None,
        guards: list[InstallGuard] | None = None,
    ) -> None:
        self.table = table
        self.cache = cache
        #: action applied when no rule matches (OVS: configurable; cloud
        #: pipelines default-deny)
        self.miss_action = miss_action or Drop()
        self.guards: list[InstallGuard] = list(guards or [])
        self.upcalls = 0
        self.installs = 0
        self.installs_skipped = 0

    def add_guard(self, guard: InstallGuard) -> None:
        """Append a defense hook to the install chain."""
        self.guards.append(guard)

    def handle(self, key: FlowKey, now: float = 0.0) -> UpcallResult:
        """Process one upcall: classify, then try to cache the megaflow."""
        self.upcalls += 1
        result = classify_with_wildcards(self.table, key)
        if result.rule is not None:
            action = result.rule.action
            tenant = result.rule.tenant
        else:
            action = self.miss_action
            tenant = None

        match = result.megaflow
        skipped: str | None = None
        installed: MegaflowEntry | None = None
        try:
            for guard in self.guards:
                context = InstallContext(
                    cache=self.cache,
                    key=key,
                    match=match,
                    action=action,
                    tenant=tenant,
                    now=now,
                )
                replacement = guard(context)
                if replacement is not None:
                    match = replacement
            installed = self.cache.insert(match, action, now=now, tenant=tenant)
            self.installs += 1
        except InstallRejected:
            skipped = "guard"
        except CacheFullError:
            skipped = "flow-limit"
        if skipped is not None:
            self.installs_skipped += 1
        return UpcallResult(action, result, installed, skipped)
