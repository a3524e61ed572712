"""The seven pipeline workloads.

Every workload is a **closed loop** driven by one process with one
burst in flight (``serve-parallel`` adds its two worker processes), and
is split into the phases the harness times separately:

``generate``  benchmark inputs from the seed (spec, feed, capture) — once
``prepare``   a fresh program state (datapath / service) — per iteration
``execute``   the timed region: public entry points only; returns the
              seconds into it at which each inner chunk (a burst, a
              serve snapshot interval) ended — see ``run.floor_wall``
``observe``   read the public counters the iteration left behind
``close``     release what ``prepare`` opened

Datapaths are built the way users get them: ``SCENARIOS.get(preset)``
with only the fields in :data:`EVOLVABLE` changed, then
``Session.build_datapath()``, ``Session.run()`` or ``build_service()``
— so a later change to what a preset resolves to is measured as a user
would feel it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import feeds
from spans import NULL_TRACER

from repro.attack.packets import CovertStreamGenerator
from repro.cms.base import PRIORITY_BASELINE_FORWARD
from repro.flow.actions import Output
from repro.flow.extract import flow_key_from_packet
from repro.flow.match import FlowMatch
from repro.flow.rule import FlowRule
from repro.net.ethernet import ETHERTYPE_IPV4
from repro.net.parse import parse_ethernet
from repro.net.pcap import PcapReader
from repro.obs import Telemetry, datapath_state, observe_shards
from repro.ovs.pmd import shard_views
from repro.ovs.switch import OvsSwitch
from repro.perf.factory import switch_for_profile
from repro.runtime.service import build_service
from repro.scenario import SCENARIOS, Session
from repro.util.bits import ones
from repro.vec.engine import VecSwitch

#: the only preset fields a workload may change
EVOLVABLE = frozenset({"duration", "attack_start", "profile", "shards", "seed"})

#: packets per burst on the burst and pcap workloads (a NIC rx-ring drain)
BURST = 256

#: simulated seconds between feed bursts (256 packets at 100 kpps)
FEED_TICK = BURST / 100_000.0

#: seconds after the attack starts before post-attack means are
#: representative (``ScenarioResult.settle`` of an undefended run)
SETTLE = 10.0


def evolved(preset: str, **changes):
    """The preset with only :data:`EVOLVABLE` fields replaced."""
    extra = set(changes) - EVOLVABLE
    if extra:
        raise ValueError(f"a workload may not evolve {sorted(extra)}")
    return SCENARIOS.get(preset).evolve(**changes)


def victim_forward_rule(space) -> FlowRule:
    """Baseline forwarding for the victim pod — the pre-existing state
    every campaign installs before the attack (``AttackCampaign.
    build_simulator`` builds the same rule)."""
    return FlowRule(
        match=FlowMatch(
            space,
            {
                "eth_type": (ETHERTYPE_IPV4, ones(16)),
                "ip_dst": (feeds.VICTIM_POD_IP, ones(32)),
            },
        ),
        action=Output(7),
        priority=PRIORITY_BASELINE_FORWARD,
        tenant="victim",
        comment="baseline forwarding: victim pod",
    )


# ---------------------------------------------------------------------------
# reading the program's public counters
# ---------------------------------------------------------------------------

#: aggregate ``SwitchStats`` fields, any runtime
_STATS = ("packets", "emc_hits", "megaflow_hits", "upcalls", "tuples_scanned")
#: read off the shard objects, where the parent owns them
_SHARD_COUNTERS = ("emc.lookups", "emc.hits", "emc.insertions",
                   "emc.evictions", "reval.sweeps", "reval.evicted")
#: counters that accumulate (an iteration's share is after − before)
_CUMULATIVE = _STATS + _SHARD_COUNTERS


def probe(datapath) -> dict:
    """A flat snapshot of a datapath's public counters, any runtime.

    Aggregate stats and mask counts come through the shared
    ``observe_shards`` encoder (one mailbox round per worker on the
    parallel runtime); EMC and revalidator counters are read off the
    shard objects where the parent still owns them, and read as zero on
    the parallel runtime, whose shards live in the workers."""
    observed = observe_shards(datapath)
    state = datapath_state(datapath, observed)
    flat = {name: state["stats"][name] for name in _STATS}
    flat.update(dict.fromkeys(_SHARD_COUNTERS, 0))
    flat["masks"] = state["total_mask_count"]
    flat["megaflows"] = state["megaflows"]
    flat["shard_packets"] = [shard["stats"].packets for shard in observed]
    views = shard_views(datapath)
    flat["vec"] = int(all(isinstance(view, VecSwitch) for view in views))
    for view in views:
        microflow = getattr(view, "microflow", None)
        if microflow is None:
            continue
        flat["emc.lookups"] += microflow.lookups
        flat["emc.hits"] += microflow.hits
        flat["emc.insertions"] += microflow.insertions
        flat["emc.evictions"] += microflow.evictions
        flat["reval.sweeps"] += view.revalidator.sweeps
        flat["reval.evicted"] += view.revalidator.evicted_total
    return flat


@dataclass
class Observation:
    """What one iteration's timed region did, from public counters."""

    #: packets the timed region was asked to process
    offered: int
    #: counter deltas over the timed region plus final-state gauges
    counters: dict
    degradation: float = 0.0
    #: SHA-256 over a campaign's whole time series
    digest: str = ""
    #: serve snapshots emitted
    snapshots: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def accounted(self) -> int:
        """Packets some layer of the pipeline reported serving."""
        c = self.counters
        return int(c["emc_hits"] + c["megaflow_hits"] + c["upcalls"])

    def sim_counts(self) -> dict:
        """The exact counts that must repeat bit-for-bit across
        iterations, runs and commits."""
        c = self.counters
        return {
            "sim.packets": c["packets"],
            "sim.emc_hits": c["emc_hits"],
            "sim.megaflow_hits": c["megaflow_hits"],
            "sim.upcalls": c["upcalls"],
            "sim.tuples_scanned": c["tuples_scanned"],
            "sim.final_masks": c["masks"],
            "sim.megaflows": c["megaflows"],
            "sim.degradation": self.degradation,
        }


def series_digest(series) -> str:
    """SHA-256 over a campaign's whole time series."""
    return hashlib.sha256(
        repr((series.columns, series.rows)).encode()
    ).hexdigest()


def observed(before: dict | None, after: dict, offered: int,
             **extra) -> Observation:
    """The iteration's :class:`Observation` from two probes."""
    counters = dict(after)
    if before is not None:
        for name in _CUMULATIVE:
            counters[name] = after[name] - before[name]
        counters["shard_packets"] = [
            a - b for a, b in
            zip(after["shard_packets"], before["shard_packets"])
        ]
    obs = Observation(offered=offered, counters=counters, **extra)
    in_pipeline = counters["packets"]
    if obs.accounted != in_pipeline:
        obs.problems.append(
            f"packet conservation: {in_pipeline} entered the pipeline, "
            f"{obs.accounted} were served by some layer"
        )
    return obs


# ---------------------------------------------------------------------------
# the workload interface
# ---------------------------------------------------------------------------

class Workload:
    """One named workload; see the module docstring for the phases."""

    name = ""
    why = ""
    preset = ""
    #: the preset resolves to the vectorised engine — a scalar datapath
    #: here is a silent downgrade and fails the run
    vec_promised = False
    #: sizes: ``full`` is what the benchmark measures, ``tiny`` what
    #: the smoke tests run
    full: dict = {}
    tiny: dict = {}

    def generate(self, seed: int, size: dict, scratch: Path, tr) -> dict:
        raise NotImplementedError

    def prepare(self, inputs: dict, tr) -> dict:
        raise NotImplementedError

    def execute(self, state: dict) -> list[float]:
        """Run the timed region; return its inner chunk boundaries as
        seconds since the call began (empty: the region is one call)."""
        raise NotImplementedError

    def observe(self, inputs: dict, state: dict) -> Observation:
        raise NotImplementedError

    def close(self, state: dict) -> None:
        """Release what :meth:`prepare` opened (default: nothing)."""

    def verify(self, inputs: dict) -> list[str]:
        """The ``--verify`` pass: replay against an independent
        reference; returns mismatch descriptions."""
        raise NotImplementedError

    def extras(self, inputs: dict, fastest_s: float) -> dict:
        """Layer metrics measured by direct calls outside the loop
        (traced runs only); ``fastest_s`` is the run's fastest untraced
        timed region, for ratios against it."""
        return {}

    # -- shared checks -------------------------------------------------------

    def regime_problems(self, inputs: dict, obs: Observation) -> list[str]:
        """Did the run reach the regime the workload exists to measure?"""
        problems = []
        expected = inputs["size"].get("masks")
        if expected is not None and obs.counters["masks"] != expected:
            problems.append(
                f"expected {expected} final masks, found "
                f"{obs.counters['masks']}"
            )
        if self.vec_promised and not obs.counters["vec"]:
            problems.append(
                f"preset {self.preset!r} promises the vectorised engine "
                "but the datapath is scalar (silent downgrade)"
            )
        return problems


def run_once(workload: Workload, inputs: dict, tr=NULL_TRACER) -> Observation:
    """prepare → execute → observe → close, untimed (tests, --verify)."""
    state = workload.prepare(inputs, tr)
    try:
        workload.execute(state)
        obs = workload.observe(inputs, state)
    finally:
        workload.close(state)
    obs.problems += workload.regime_problems(inputs, obs)
    return obs


# ---------------------------------------------------------------------------
# campaigns: Session.run()
# ---------------------------------------------------------------------------

class CampaignWorkload(Workload):
    """A full timed campaign: what ``repro scenario`` runs.

    The timed region is ``Session.run()`` unrolled through the public
    calls it makes itself — ``build_datapath``, ``build_campaign``,
    ``build_simulator``, then the simulator's step-driven mode
    (``start`` / ``step`` / ``result``, documented bit-identical to its
    ``run``) — so that the clock can be read between ticks: as one
    opaque call the region is a single multi-second chunk, and its
    run-to-run spread on the reference box was 5–7 % instead of ~1 %.
    ``--verify`` holds the unrolled run to ``Session.run()``'s exact
    series."""

    def generate(self, seed, size, scratch, tr):
        changes = {k: size[k] for k in ("duration", "attack_start")
                   if k in size}
        return {"size": size, "spec": evolved(self.preset, seed=seed,
                                              **changes)}

    def prepare(self, inputs, tr):
        with tr.span("scenario.build"):
            return {"session": Session(inputs["spec"])}

    def execute(self, state):
        session = state["session"]
        clock = time.perf_counter
        begin = clock()
        datapath = state["datapath"] = session.build_datapath()
        simulator = session.build_campaign(datapath).build_simulator()
        simulator.start()
        splits = [clock() - begin]
        step, duration = simulator.step, simulator.duration
        while simulator.t < duration:
            step()
            splits.append(clock() - begin)
        state["result"] = simulator.result()
        return splits

    def observe(self, inputs, state):
        result = state["result"]
        spec = inputs["spec"]
        series = result.series
        after = probe(state["datapath"])
        modelled = 0
        if spec.covert_replay == "model":
            # the analytic replay accounts for covert packets without
            # pushing them through process_batch; rows are stamped with
            # the tick's end, so the last stamp / rows is the tick
            dt = series.last("t") / len(series)
            modelled = round(sum(series.column("attacker_pps")) * dt)
        attacked = spec.duration - spec.attack_start
        settle = SETTLE if attacked > SETTLE else 0.0
        return observed(
            None, after, offered=after["packets"] + modelled,
            degradation=result.degradation(settle=settle),
            digest=series_digest(series),
        )

    def verify(self, inputs):
        """The same seed through ``Session.run()`` itself must give the
        unrolled run's exact series."""
        obs = run_once(self, inputs)
        whole = Session(inputs["spec"]).run()
        if series_digest(whole.series) != obs.digest:
            obs.problems.append("the step-driven campaign's series differs "
                                "from a same-seed Session.run()'s")
        return obs.problems


class DeepscanCampaign(CampaignWorkload):
    name = "deepscan-campaign"
    why = ("ROADMAP reference pipeline: 513-mask deep scans through the vec "
           "engine; the scan and per-key consume bookkeeping do nearly all "
           "the work")
    preset = "k8s-deepscan"
    vec_promised = True
    full = {"duration": 60.0, "attack_start": 10.0, "masks": 513}
    tiny = {"duration": 4.0, "attack_start": 2.0, "masks": 513}

    def extras(self, inputs, fastest_s):
        """Telemetry on vs off, interleaved (the BENCH_obs question on
        a run long enough to answer it)."""
        walls = {False: [], True: []}
        for _ in range(2):
            for enabled in (False, True):
                session = Session(
                    inputs["spec"],
                    telemetry=Telemetry() if enabled else None,
                )
                begin = time.perf_counter()
                session.run()
                walls[enabled].append(time.perf_counter() - begin)
        return {
            "obs.telemetry_overhead_frac":
                min(walls[True]) / min(walls[False]) - 1.0,
        }


class Fig3Timeline(CampaignWorkload):
    name = "fig3-timeline"
    why = ("the paper's headline figure as users run it: 8192 slow-path "
           "installs and the simulator's model loop; process_batch and scan "
           "optimisations must leave it flat")
    preset = "fig3"
    full = {"masks": 8193}
    tiny = {"duration": 3.0, "attack_start": 2.75}


# ---------------------------------------------------------------------------
# bursts: Session.build_datapath() + process_batch(materialize=False)
# ---------------------------------------------------------------------------

class BurstWorkload(Workload):
    """Bursts handed to ``process_batch`` on a datapath built from the
    preset.  Subclasses provide ``_bursts`` and set ``attacked``."""

    #: install the malicious policy and its covert keys during prepare
    attacked = False

    def _spec(self, seed, size):
        return evolved(self.preset, seed=seed)

    def _bursts(self, inputs, seed, size, tr):
        raise NotImplementedError

    def generate(self, seed, size, scratch, tr):
        with tr.span("scenario.build"):
            session = Session(self._spec(seed, size))
        inputs = {"size": size, "session": session}
        inputs["rules"] = session.surface.compile_rules(
            session.policy, session.target, session.space
        )
        inputs["covert"] = session.surface.covert_keys(
            session.dimensions, session.target, session.space
        )
        inputs["bursts"] = self._bursts(inputs, seed, size, tr)
        inputs["offered"] = sum(len(burst) for _, burst in inputs["bursts"])
        return inputs

    def _install(self, inputs, datapath):
        datapath.add_rule(victim_forward_rule(inputs["session"].space))
        if self.attacked:
            datapath.add_rules(inputs["rules"])
            datapath.process_batch(inputs["covert"], now=0.0,
                                   materialize=False)

    def prepare(self, inputs, tr, datapath=None):
        with tr.span("scenario.build"):
            if datapath is None:
                datapath = inputs["session"].build_datapath()
        with tr.span("attack.preinstall"):
            self._install(inputs, datapath)
        return {"datapath": datapath, "bursts": inputs["bursts"],
                "before": probe(datapath)}

    def execute(self, state):
        process_batch = state["datapath"].process_batch
        clock = time.perf_counter
        splits = []
        begin = clock()
        for now, burst in state["bursts"]:
            process_batch(burst, now=now, materialize=False)
            splits.append(clock() - begin)
        return splits

    def observe(self, inputs, state):
        return observed(state["before"], probe(state["datapath"]),
                        offered=inputs["offered"])

    def verify(self, inputs):
        """Replay against the scalar reference engine: stats, masks and
        megaflows must be equal."""
        session = inputs["session"]
        spec = session.spec
        finals = []
        for reference in (False, True):
            datapath = None
            if reference:
                datapath = switch_for_profile(
                    session.profile, space=session.space,
                    name=f"{spec.name}-node", seed=spec.seed,
                    staged_lookup=spec.staged_lookup,
                    scan_order=spec.scan_order or None,
                    key_mode=spec.key_mode, switch_cls=OvsSwitch,
                )
            state = self.prepare(inputs, NULL_TRACER, datapath=datapath)
            self.execute(state)
            datapath = state["datapath"]
            finals.append((dataclasses.asdict(datapath.stats),
                           datapath.mask_count, datapath.megaflow_count))
        if finals[0] != finals[1]:
            return [f"measured {finals[0]} != scalar reference {finals[1]}"]
        return []


class VictimOnOff(BurstWorkload):
    preset = "k8s-deepscan"
    vec_promised = True

    def _spec(self, seed, size):
        return evolved(self.preset, seed=seed, profile=size["profile"])

    def _bursts(self, inputs, seed, size, tr):
        with tr.span("feed.generate"):
            feed = feeds.onoff_feed(inputs["session"].space, seed,
                                    packets=size["packets"])
            return feeds.in_bursts(feed, BURST, FEED_TICK)


class VictimOnOffAttacked(VictimOnOff):
    name = "victim-onoff-attacked"
    why = ("the paper's actual victim: bursty Zipf/Pareto tenant traffic "
           "behind 512 injected masks; exercises EMC probe, dedup and the "
           "small-burst scalar fallback")
    attacked = True
    full = {"profile": "kernel", "packets": 100_000, "masks": 513}
    tiny = {"profile": "kernel", "packets": 4096, "masks": 513}


class VictimOnOffClean(VictimOnOff):
    name = "victim-onoff-clean"
    why = ("the no-attack baseline (1 mask, ~99% EMC hits): a scan "
           "optimisation predicts no change here, an EMC/bookkeeping one "
           "shows most")
    full = {"profile": "netdev", "packets": 400_000, "masks": 1}
    tiny = {"profile": "netdev", "packets": 8192, "masks": 1}


class MaskChurn(BurstWorkload):
    name = "mask-churn"
    why = ("the TSS/vec layer under writes: every packet a miss scan, "
           "upcall, install and mirror append, then the revalidator "
           "expires them all")
    preset = "calico-vec"
    vec_promised = True
    full = {"keys": 2048, "masks": 0}
    tiny = {"keys": 256, "masks": 0}

    def _bursts(self, inputs, seed, size, tr):
        keys = list(inputs["covert"][:size["keys"]])
        random.Random(seed).shuffle(keys)
        return feeds.in_bursts(keys, BURST, 0.01)

    def _install(self, inputs, datapath):
        datapath.add_rules(inputs["rules"])

    def execute(self, state):
        splits = super().execute(state)
        datapath = state["datapath"]
        last = state["bursts"][-1][0]
        datapath.advance_clock(last + datapath.idle_timeout + 1.5)
        return splits

    def regime_problems(self, inputs, obs):
        problems = super().regime_problems(inputs, obs)
        keys = inputs["size"]["keys"]
        for counter in ("upcalls", "reval.evicted"):
            if obs.counters[counter] != keys:
                problems.append(
                    f"expected {keys} {counter}, found {obs.counters[counter]}"
                )
        return problems


# ---------------------------------------------------------------------------
# serve: build_service().run()
# ---------------------------------------------------------------------------

#: both serve workloads run the k8s-serve preset on 2 shards (the
#: reference box has 2 cores)
SERVE_SHARDS = 2

#: simulated seconds between the service's periodic snapshots.  Each
#: snapshot carries the service's own wall stamp, which is where the
#: timed region is cut into chunks: twice the CLI's default rate buys
#: chunks of 50–80 ms for one extra observe_shards round per 5 bursts
REPORT_INTERVAL = 0.5


class ServeWorkload(Workload):
    preset = "k8s-serve"

    def _service(self, inputs, workers):
        raise NotImplementedError

    def generate(self, seed, size, scratch, tr):
        return {"size": size,
                "spec": evolved(self.preset, seed=seed, shards=SERVE_SHARDS)}

    def prepare(self, inputs, tr, workers=None):
        with tr.span("scenario.build"):
            service = self._service(
                inputs, self.workers if workers is None else workers
            )
        tr.wrap_iterator(service.source, "batches", "runtime.service.source")
        return {"service": service}

    def execute(self, state):
        report = state["report"] = state["service"].run()
        # the service stamps each periodic snapshot with its own wall
        # clock: the snapshot intervals are the region's chunks
        return [snap["wall"]["elapsed_s"] for snap in report.snapshots]

    def observe(self, inputs, state):
        report = state["report"]
        obs = observed(None, probe(state["service"].datapath),
                       offered=inputs["offered"],
                       snapshots=len(report.snapshots))
        if report.packets != inputs["offered"]:
            obs.problems.append(
                f"service reported {report.packets} packets, "
                f"{inputs['offered']} were offered"
            )
        return obs

    def close(self, state):
        close = getattr(state["service"].datapath, "close", None)
        if close is not None:
            close()


class ServePcap(ServeWorkload):
    name = "serve-pcap"
    why = ("the only workload where pcap read, frame parse, flow extract "
           "and RETA dispatch carry weight: a mixed covert+victim capture "
           "replayed through repro serve")
    workers = 0
    full = {"frames": 24_000, "rate_pps": 4_000.0}
    tiny = {"frames": 2048, "rate_pps": 4_000.0}

    def generate(self, seed, size, scratch, tr):
        inputs = super().generate(seed, size, scratch, tr)
        with tr.span("scenario.build"):
            session = Session(inputs["spec"])
        covert = session.surface.covert_keys(
            session.dimensions, session.target, session.space
        )
        with tr.span("feed.generate"):
            victim = feeds.onoff_feed(session.space, seed,
                                      packets=size["frames"] // 2)
            keys = feeds.mixed_keys(covert, victim, size["frames"])
        path = scratch / f"serve-pcap-{seed}.pcap"
        generator = CovertStreamGenerator(
            list(session.dimensions), dst_ip=session.target.pod_ip,
            space=session.space,
        )
        with tr.span("net.pcap.write"):
            written = feeds.write_capture(path, generator, keys,
                                          size["rate_pps"])
        inputs.update(space=session.space, keys=keys, pcap=path,
                      offered=written)
        return inputs

    def _service(self, inputs, workers):
        return build_service(inputs["spec"], workers=workers,
                             pcap=inputs["pcap"], batch_size=BURST,
                             report_interval=REPORT_INTERVAL,
                             close_datapath=False)

    def regime_problems(self, inputs, obs):
        problems = super().regime_problems(inputs, obs)
        if obs.counters["masks"] < 512:
            problems.append(
                f"only {obs.counters['masks']} masks: the covert half of "
                "the capture did not explode the tuple space"
            )
        return problems

    def verify(self, inputs):
        problems = run_once(self, inputs).problems
        if inputs["offered"] != len(inputs["keys"]):
            problems.append("capture holds fewer frames than source keys")
        extracted = [
            flow_key_from_packet(packet.data, space=inputs["space"])
            for packet in PcapReader(inputs["pcap"])
        ]
        if extracted != inputs["keys"]:
            problems.append("keys extracted from the capture differ from "
                            "the keys it was written from")
        return problems

    def extras(self, inputs, fastest_s):
        """The ingest stages alone, by direct calls over the capture."""
        begin = time.perf_counter()
        packets = PcapReader(inputs["pcap"]).read_all()
        read_s = time.perf_counter() - begin
        begin = time.perf_counter()
        parsed = [parse_ethernet(packet.data) for packet in packets]
        parse_s = time.perf_counter() - begin
        begin = time.perf_counter()
        for layers in parsed:
            flow_key_from_packet(layers, space=inputs["space"])
        extract_s = time.perf_counter() - begin
        frames = len(packets)
        return {
            "net.pcap.read.frames_per_s": frames / read_s,
            "net.parse.frames_per_s": frames / parse_s,
            "flow.extract.keys_per_s": frames / extract_s,
        }


class ServeParallel(ServeWorkload):
    name = "serve-parallel"
    why = ("the only workload that crosses the runtime.parallel mailbox "
           "(pickle over Pipe, one round trip per burst); the serial run of "
           "the same feed is its reference")
    workers = SERVE_SHARDS
    full = {"duration": 4.0, "rate_pps": 10_240.0}
    tiny = {"duration": 0.6, "rate_pps": 10_240.0}

    def generate(self, seed, size, scratch, tr):
        inputs = super().generate(seed, size, scratch, tr)
        inputs["offered"] = int(round(size["duration"] * size["rate_pps"]))
        return inputs

    def _service(self, inputs, workers):
        size = inputs["size"]
        service = build_service(inputs["spec"], workers=workers,
                                duration=size["duration"],
                                rate_pps=size["rate_pps"],
                                report_interval=REPORT_INTERVAL,
                                close_datapath=False)
        if workers:
            # fork in set-up: the timed region is the steady mailbox
            service.datapath.start()
        return service

    def verify(self, inputs):
        problems = []
        views = []
        for workers in (self.workers, 0):
            state = self.prepare(inputs, NULL_TRACER, workers=workers)
            try:
                self.execute(state)
                problems += self.observe(inputs, state).problems
            finally:
                self.close(state)
            views.append(json.dumps(state["report"].deterministic_view(),
                                    sort_keys=True))
        if views[0] != views[1]:
            problems.append("parallel deterministic_view() differs from the "
                            "workers=0 reference")
        return problems

    def extras(self, inputs, fastest_s):
        """The same feed through ``workers=0``: fastest whole region of
        three against the parallel run's fastest."""
        serial = []
        for _ in range(3):
            state = self.prepare(inputs, NULL_TRACER, workers=0)
            begin = time.perf_counter()
            self.execute(state)
            serial.append(time.perf_counter() - begin)
        return {"runtime.parallel.speedup_vs_serial": min(serial) / fastest_s}


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        DeepscanCampaign(), Fig3Timeline(), VictimOnOffAttacked(),
        VictimOnOffClean(), MaskChurn(), ServePcap(), ServeParallel(),
    )
}
