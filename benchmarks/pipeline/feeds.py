"""Seeded benchmark inputs: the ON/OFF victim feed and the mixed capture.

The covert stream the attack experiments replay is uniform — every key
distinct, every key equally often — so the exact-match cache, the
within-burst duplicate set and the small-burst scalar fallback never
see the traffic they exist for.  Real tenant traffic is bursty and
heavy-tailed (PAPERS.md: Fekete, *Traffic Dynamics of Computer
Networks*): a few flows carry most packets, and packets of one flow
arrive in back-to-back trains.  :func:`onoff_feed` generates that:

* a fixed population of victim flows, ranked by **Zipf** popularity;
* the stream is a sequence of **ON trains** — a flow drawn by
  popularity, repeated for a **Pareto**-distributed train length
  (capped, so one elephant cannot swallow a burst budget).

The flow population is part of the workload's definition (which flows
share an exact-match-cache set decides the hit rate, and re-drawing it
per seed moved the deep-scan count by ±6 %); the ``seed`` draws the
arrival process — which flow talks when, and for how long.  Both come
from ``random.Random`` instances — no ``hash()``, no set/dict ordering
— so a feed is byte-identical across processes and ``PYTHONHASHSEED``
values.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
from pathlib import Path
from typing import Sequence

from repro.attack.packets import CovertStreamGenerator
from repro.flow.fields import FieldSpace
from repro.flow.key import FlowKey
from repro.net.ethernet import ETHERTYPE_IPV4
from repro.net.ipv4 import PROTO_TCP
from repro.net.pcap import PcapWriter

#: the victim pod every feed flow is addressed to (the address the
#: campaign's baseline forwarding rule matches)
VICTIM_POD_IP = 0x0A000200

#: service ports the victim pod listens on
VICTIM_PORTS = (80, 443, 5201, 8080)

#: the one draw every feed's flow population comes from
POPULATION_SEED = 0x0F10B5

#: flow popularity ~ rank^-ZIPF; ON-train length ~ Pareto(PARETO)
ZIPF = 1.1
PARETO = 1.3


def victim_flows(space: FieldSpace, flows: int) -> list[FlowKey]:
    """The first ``flows`` pairwise-distinct client flows towards the
    victim pod — the same ones whatever the feed's seed."""
    rng = random.Random(POPULATION_SEED)
    seen: set[tuple[int, int, int]] = set()
    keys: list[FlowKey] = []
    while len(keys) < flows:
        ident = (
            0x0A010000 + rng.randrange(1 << 16),
            1024 + rng.randrange(64000),
            rng.choice(VICTIM_PORTS),
        )
        if ident in seen:
            continue
        seen.add(ident)
        keys.append(
            FlowKey(
                space,
                {
                    "eth_type": ETHERTYPE_IPV4,
                    "ip_src": ident[0],
                    "ip_dst": VICTIM_POD_IP,
                    "ip_proto": PROTO_TCP,
                    "tp_src": ident[1],
                    "tp_dst": ident[2],
                },
            )
        )
    return keys


def onoff_feed(space: FieldSpace, seed: int, packets: int,
               flows: int = 2048, train_cap: int = 64) -> list[FlowKey]:
    """The bursty heavy-tailed victim stream: ``packets`` flow keys.

    Flows are picked through cumulative Zipf weights and ``bisect`` —
    ``random.choices`` rebuilds the cumulative table on every call,
    which makes a 400 k-packet feed take 11 s instead of 0.2 s.
    """
    rng = random.Random(seed)
    keys = victim_flows(space, flows)
    cumulative = list(
        itertools.accumulate(1.0 / (rank + 1) ** ZIPF for rank in range(flows))
    )
    total = cumulative[-1]
    feed: list[FlowKey] = []
    uniform, train = rng.random, rng.paretovariate
    while len(feed) < packets:
        key = keys[bisect.bisect_left(cumulative, uniform() * total)]
        feed.extend([key] * min(train_cap, int(train(PARETO))))
    del feed[packets:]
    return feed


def in_bursts(keys: Sequence[FlowKey], burst: int,
              tick: float) -> list[tuple[float, list[FlowKey]]]:
    """``keys`` cut into ``(now, burst)`` pairs, ``tick`` simulated
    seconds apart — sliced once at set-up so the timed loop only hands
    bursts over."""
    return [
        ((index // burst + 1) * tick, list(keys[index:index + burst]))
        for index in range(0, len(keys), burst)
    ]


def mixed_keys(covert: Sequence[FlowKey], victim: Sequence[FlowKey],
               frames: int) -> list[FlowKey]:
    """Covert laps interleaved 1:1 with the victim feed, ``frames``
    keys in all (the attacker's stream and a tenant's, on one wire)."""
    laps = itertools.cycle(covert)
    mixed: list[FlowKey] = []
    for victim_key in victim:
        mixed.append(next(laps))
        mixed.append(victim_key)
        if len(mixed) >= frames:
            break
    if len(mixed) < frames:
        raise ValueError(
            f"victim feed of {len(victim)} keys cannot fill {frames} frames"
        )
    del mixed[frames:]
    return mixed


def write_capture(path: Path, generator: CovertStreamGenerator,
                  keys: Sequence[FlowKey], rate_pps: float) -> int:
    """Write ``keys`` as real Ethernet/IPv4/TCP frames, ``rate_pps``
    apart, to a pcap; returns the frame count.  Frames are built once
    per distinct key — the stream repeats a few thousand flows."""
    frames: dict[FlowKey, bytes] = {}
    with PcapWriter(path) as writer:
        for index, key in enumerate(keys):
            frame = frames.get(key)
            if frame is None:
                frame = frames[key] = generator.packet_for_key(key).build()
            writer.write(frame, timestamp=index / rate_pps)
        return writer.packets_written


def keys_digest(keys: Sequence[FlowKey]) -> str:
    """SHA-256 over the keys' field values, in order."""
    digest = hashlib.sha256()
    for key in keys:
        digest.update(repr(key.values).encode())
    return digest.hexdigest()


def file_digest(path: Path) -> str:
    """SHA-256 of a file's bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
