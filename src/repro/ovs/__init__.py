"""``repro.ovs`` — a faithful model of the Open vSwitch dataplane.

The pipeline mirrors the fast-path/slow-path split the paper describes:

1. :class:`MicroflowCache` — an exact-match, set-associative first-level
   cache (the netdev datapath's EMC);
2. :class:`MegaflowCache` — the second-level wildcard cache built on
   :class:`TupleSpaceSearch`: one hash table per distinct wildcard mask,
   searched *sequentially* — the linear scan the attack exploits;
3. :class:`SlowPath` — full flow-table classification with megaflow
   generation (:func:`classify_with_wildcards`), the algorithm whose
   "wildcard as many bits as possible" strategy produces the
   non-overlapping entries of Fig. 2b;
4. :class:`OvsSwitch` — the façade gluing the layers together with
   statistics, idle expiry (:class:`Revalidator`) and flow limits.
"""

from repro.ovs.wildcarding import (
    WildcardingResult,
    classify_with_wildcards,
    prefix_cover_len,
)
from repro.ovs.megaflow import MegaflowCache, MegaflowEntry
from repro.ovs.tss import Subtable, TssLookupResult, TupleSpaceSearch
from repro.ovs.microflow import MicroflowCache
from repro.ovs.pmd import ShardedDatapath, shard_seed, shard_views
from repro.ovs.upcall import InstallContext, InstallRejected, SlowPath, UpcallResult
from repro.ovs.revalidator import Revalidator
from repro.ovs.switch import BatchResult, LookupPath, OvsSwitch, PacketResult
from repro.ovs.stats import SwitchStats

__all__ = [
    "InstallContext",
    "InstallRejected",
    "BatchResult",
    "LookupPath",
    "MegaflowCache",
    "MegaflowEntry",
    "MicroflowCache",
    "OvsSwitch",
    "PacketResult",
    "Revalidator",
    "ShardedDatapath",
    "SlowPath",
    "Subtable",
    "SwitchStats",
    "TssLookupResult",
    "TupleSpaceSearch",
    "UpcallResult",
    "WildcardingResult",
    "classify_with_wildcards",
    "prefix_cover_len",
    "shard_seed",
    "shard_views",
]
