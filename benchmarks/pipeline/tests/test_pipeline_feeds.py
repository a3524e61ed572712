"""The seeded inputs: determinism, shape, and the capture round trip."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import feeds

from repro.attack.packets import CovertStreamGenerator
from repro.flow.extract import flow_key_from_packet
from repro.flow.fields import OVS_FIELDS
from repro.net.pcap import PcapReader
from repro.scenario import Session

PIPELINE = Path(__file__).resolve().parent.parent

_DIGEST_SCRIPT = """
import sys
sys.path[:0] = [{pipeline!r}, {src!r}]
from pathlib import Path
import feeds
from repro.flow.fields import OVS_FIELDS
from repro.attack.packets import CovertStreamGenerator
from repro.scenario import Session
feed = feeds.onoff_feed(OVS_FIELDS, 5, packets=3000)
session = Session("k8s-serve")
covert = session.surface.covert_keys(session.dimensions, session.target,
                                     session.space)
generator = CovertStreamGenerator(list(session.dimensions),
                                  dst_ip=session.target.pod_ip)
path = Path({capture!r})
feeds.write_capture(path, generator, feeds.mixed_keys(covert, feed, 2000),
                    10_000.0)
print(feeds.keys_digest(feed), feeds.file_digest(path))
"""


def _mixed_capture(tmp_path, frames=2000):
    session = Session("k8s-serve")
    covert = session.surface.covert_keys(session.dimensions, session.target,
                                         session.space)
    generator = CovertStreamGenerator(list(session.dimensions),
                                      dst_ip=session.target.pod_ip)
    feed = feeds.onoff_feed(OVS_FIELDS, 5, packets=3000)
    keys = feeds.mixed_keys(covert, feed, frames)
    path = tmp_path / "mixed.pcap"
    written = feeds.write_capture(path, generator, keys, 10_000.0)
    return feed, covert, keys, path, written


def test_feed_is_a_function_of_the_seed_only():
    first = feeds.onoff_feed(OVS_FIELDS, 3, packets=5000)
    assert feeds.keys_digest(first) == feeds.keys_digest(
        feeds.onoff_feed(OVS_FIELDS, 3, packets=5000)
    )
    assert feeds.keys_digest(first) != feeds.keys_digest(
        feeds.onoff_feed(OVS_FIELDS, 4, packets=5000)
    )


def test_feed_and_capture_are_byte_identical_across_hash_seeds(tmp_path):
    feed, _, _, path, _ = _mixed_capture(tmp_path)
    script = _DIGEST_SCRIPT.format(
        pipeline=str(PIPELINE), src=str(PIPELINE.parents[1] / "src"),
        capture=str(tmp_path / "other.pcap"),
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONHASHSEED": "12345"}, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [feeds.keys_digest(feed),
                                   feeds.file_digest(path)]


def test_feed_is_bursty_and_heavy_tailed():
    feed = feeds.onoff_feed(OVS_FIELDS, 1, packets=20_000, flows=512,
                            train_cap=16)
    assert len(feed) == 20_000
    counts = Counter(feed)
    assert len(counts) <= 512
    top_decile = sum(n for _, n in counts.most_common(51))
    assert top_decile > 0.5 * len(feed)  # Zipf: few flows, most packets
    trains = []
    run = 1
    for previous, key in zip(feed, feed[1:]):
        if key is previous:
            run += 1
        else:
            trains.append(run)
            run = 1
    # a popular flow drawn twice in a row merges two capped trains
    assert max(trains) <= 4 * 16
    assert sum(1 for n in trains if n > 1) > len(trains) // 5  # ON trains


def test_bursts_cover_the_feed_in_order():
    feed = feeds.onoff_feed(OVS_FIELDS, 2, packets=1000)
    bursts = feeds.in_bursts(feed, 256, 0.5)
    assert [now for now, _ in bursts] == [0.5, 1.0, 1.5, 2.0]
    assert [len(burst) for _, burst in bursts] == [256, 256, 256, 232]
    assert [key for _, burst in bursts for key in burst] == feed


def test_capture_round_trips_through_the_real_parser(tmp_path):
    feed, covert, keys, path, written = _mixed_capture(tmp_path)
    assert written == len(keys) == 2000
    assert keys[0::2] == (covert * 2)[:1000]  # covert laps …
    assert keys[1::2] == feed[:1000]          # … interleaved 1:1
    extracted = [flow_key_from_packet(packet.data) for packet in
                 PcapReader(path)]
    assert extracted == keys
