"""Cap the number of distinct megaflow masks.

The TSS scan cost is linear in the number of *masks*, not entries, so a
hard cap on masks bounds the worst-case lookup cost regardless of what
tenants inject.  When the cap is hit, a megaflow whose mask would be new
is degraded to an **exact-match** entry (it joins the all-exact subtable,
which exists at most once) or simply not cached, depending on ``mode``.

The cap is *inclusive of the all-exact subtable*: in ``"exact"`` mode
one budget slot is reserved for it while it does not exist yet, so
degradation always has somewhere to go and ``mask_count`` can never
exceed ``max_masks`` — the hard cap really is hard.  (A previous
off-by-one created the exact subtable as subtable ``max_masks + 1``
when the budget was already full, silently corrupting the defense
experiments' worst-case scan bound.)
"""

from __future__ import annotations

from repro.flow.match import FlowMatch
from repro.ovs.upcall import InstallContext, InstallRejected


class MaskLimitGuard:
    """An install guard enforcing a megaflow mask budget."""

    def __init__(self, max_masks: int, mode: str = "exact") -> None:
        if max_masks < 1:
            raise ValueError("max_masks must be at least 1")
        if mode not in ("exact", "reject"):
            raise ValueError(f"unknown mode {mode!r}")
        self.max_masks = max_masks
        self.mode = mode
        self.degraded = 0
        self.rejected = 0

    def __call__(self, context: InstallContext) -> FlowMatch | None:
        mask = context.match.packed[0]
        tss = context.cache.tss
        if tss.find_subtable(mask) is not None:
            return None  # mask already exists: no new subtable
        if self.mode == "reject":
            if tss.mask_count < self.max_masks:
                return None  # budget available
            self.rejected += 1
            raise InstallRejected(
                f"mask budget exhausted ({self.max_masks}); not caching"
            )
        # "exact" mode: the cap counts the all-exact subtable too, so
        # while it does not exist one slot stays reserved for it
        exact = FlowMatch.exact(context.match.space, context.key)
        exact_mask = exact.packed[0]
        exact_exists = tss.find_subtable(exact_mask) is not None
        if mask == exact_mask:
            # the new mask IS the all-exact mask: it fits iff under cap
            if tss.mask_count < self.max_masks:
                return None
            self.rejected += 1
            raise InstallRejected(
                f"mask budget exhausted ({self.max_masks}); not caching"
            )
        budget = self.max_masks if exact_exists else self.max_masks - 1
        if tss.mask_count < budget:
            return None  # budget available (reserved slot untouched)
        if not exact_exists and tss.mask_count >= self.max_masks:
            # cannot even create the exact subtable within the cap
            self.rejected += 1
            raise InstallRejected(
                f"mask budget exhausted ({self.max_masks}); not caching"
            )
        self.degraded += 1
        return exact
