"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``plan``
    Closed-form attack planning: given a CMS surface, print the
    reachable mask count, the covert packets/bandwidth needed, and the
    expected degradation — the paper's numbers from one shell command.

``craft``
    Generate the covert stream as a pcap for lab replay.

``scenario``
    Run any registered scenario through the Session API
    (``--list`` enumerates scenarios, surfaces, profiles, backends and
    defenses; flags override the spec's timing/backend knobs).

``fleet``
    Run a registered fleet campaign through the FleetSession API: N
    hypervisor nodes on the fabric in one deterministic loop over the ticks,
    with attacker mobility and fleet-level defenses (``--list``
    enumerates fleet presets and mobility policies).

``serve``
    The long-running packet service: replay a pcap (e.g. one written
    by ``craft``) or the scenario's synthetic covert feed through a
    live datapath — the serial reference or the multi-process parallel
    runtime (``--workers N``) — with periodic stats/detector snapshots
    and a clean SIGINT/SIGTERM shutdown.

``trace``
    Run a scenario with the telemetry layer enabled and export the
    observability artifacts: a Chrome trace-event JSON (loadable in
    Perfetto / ``chrome://tracing``), the span JSONL, the
    cycle-attribution profile, and the Prometheus metrics text.
    ``scenario``/``fleet``/``serve`` additionally take
    ``--metrics-out FILE`` to dump the metric registry after any run.

``lint``
    Run repro-lint, the repo's contract checkers (seeded-RNG
    determinism, monotonic clocks, batch-first hot paths, numpy
    gating, fork safety, protocol conformance, registry hygiene);
    ``--list`` enumerates the rules, exit status is non-zero on any
    finding not suppressed by a same-line pragma.

``experiment``
    Run one (or all) of the paper-artefact experiments, optionally
    dumping CSV (:mod:`repro.experiments.runner`).

``demo``
    The Fig. 2 worked example, printed.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro import vec
from repro.attack.analysis import predict, required_refresh_bps
from repro.attack.packets import CovertStreamGenerator
from repro.defense.detector import DEFAULT_MASK_THRESHOLD
from repro.net.addresses import ip_to_int
from repro.ovs.tss import SCAN_ORDERS
from repro.scenario import BACKENDS, DEFENSES, PROFILES, SCENARIOS, SURFACES, Session
from repro.util.units import format_bps


def _make_telemetry(args: argparse.Namespace):
    """A live registry when the run asked for ``--metrics-out``,
    ``None`` (→ the shared null telemetry, zero overhead) otherwise."""
    if getattr(args, "metrics_out", None) is None:
        return None
    from repro.obs import Telemetry

    return Telemetry()


def _write_metrics_out(args: argparse.Namespace, telemetry) -> None:
    if telemetry is None:
        return
    from repro.obs.export import write_metrics

    written = write_metrics(telemetry, args.metrics_out)
    print(f"\nmetrics written to {written}")


def _campaign_surfaces() -> list[str]:
    """Surface names with a CMS compiler (plan/craft targets)."""
    return [name for name, surface in SURFACES.items() if surface.is_campaign]


def _surface_dimensions(surface: str):
    try:
        entry = SURFACES.get(surface)
    except KeyError as exc:
        raise SystemExit(str(exc))
    _policy, dimensions = entry.build()
    return dimensions


def cmd_plan(args: argparse.Namespace) -> int:
    """The ``plan`` command."""
    dimensions = _surface_dimensions(args.surface)
    prediction = predict(dimensions, frame_bytes=args.frame_bytes)
    print(f"surface: {args.surface}")
    print(f"attack dimensions: " + ", ".join(
        f"{d.field}/{d.prefix_len}" for d in dimensions
    ))
    print(f"reachable megaflow masks: {prediction.mask_count}")
    print(f"covert packets to install: {prediction.covert_packets}")
    print(
        f"sustain rate: {prediction.refresh_pps:.0f} pps "
        f"({format_bps(prediction.refresh_bps)})"
    )
    print(
        f"expected peak capacity under attack: "
        f"{prediction.expected_degradation:.1%} of baseline"
    )
    return 0


def cmd_craft(args: argparse.Namespace) -> int:
    """The ``craft`` command."""
    dimensions = _surface_dimensions(args.surface)
    generator = CovertStreamGenerator(dimensions, dst_ip=ip_to_int(args.dst_ip))
    rate = args.rate_pps
    if rate is None:
        # 50% headroom above the refresh floor
        floor_bps = required_refresh_bps(predict(dimensions).mask_count)
        rate = floor_bps / (64 * 8) * 1.5
    count = generator.write_pcap(args.output, rate_pps=rate)
    print(f"wrote {count} covert frames to {args.output} at {rate:.0f} pps")
    return 0


def _print_scenario_list() -> None:
    print("scenarios:")
    for name, spec in SCENARIOS.items():
        print(
            f"  {name:24s} {f'[{spec.backend}]':12s} "
            f"{spec.description or spec.surface}"
        )
    print("\nsurfaces:")
    for name, surface in SURFACES.items():
        print(f"  {name:24s} {surface.description}")
    print("\nprofiles:    " + ", ".join(PROFILES.names()))
    print("backends:    " + ", ".join(BACKENDS.names()))
    print("engine:      ovs runs " + (
        "the columnar VecSwitch (NumPy installed)" if vec.HAVE_NUMPY
        else "the scalar OvsSwitch (no NumPy)"))
    print("defenses:    " + ", ".join(DEFENSES.names()))
    print("scan orders: " + ", ".join(SCAN_ORDERS) + " (--scan-order)")
    print("shards:      any N >= 1 (--shards; RSS-dispatched PMD shards)")
    print("runtime:     inline, or N worker processes "
          "(`repro serve --workers N`)")
    print("rebalance:   --rebalance-interval SECONDS (0 = static RSS), "
          "--reta-size BUCKETS, --workload-skew ZIPF (elephant flows)")


def cmd_scenario(args: argparse.Namespace) -> int:
    """The ``scenario`` command: the Session API from the shell."""
    if args.list:
        _print_scenario_list()
        return 0
    if args.name is None:
        raise SystemExit("scenario: a scenario name (or --list) is required")
    try:
        spec = SCENARIOS.get(args.name)
    except KeyError as exc:
        raise SystemExit(str(exc))
    overrides = {}
    for field_name in ("duration", "attack_start", "seed", "profile", "backend",
                       "scan_order", "shards", "reta_size",
                       "rebalance_interval", "workload_skew",
                       "attacker_strategy", "reprobe_interval"):
        value = getattr(args, field_name)
        if value is not None:
            overrides[field_name] = value
    if args.defense:
        overrides["defenses"] = tuple(args.defense)
    telemetry = _make_telemetry(args)
    try:
        if overrides:
            spec = spec.evolve(**overrides)
        result = Session(spec, telemetry=telemetry).run()
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"scenario {spec.name!r}: {exc}")
    print(result.render())
    if args.csv is not None:
        args.csv.mkdir(parents=True, exist_ok=True)
        written = result.to_csv(args.csv)
        print(f"\nCSV written to {written}")
    _write_metrics_out(args, telemetry)
    return 0


def _print_fleet_list() -> None:
    from repro.fleet import FLEETS, MOBILITY
    from repro.fleet.spec import FLEET_DEFENSES

    print("fleet campaigns:")
    for name, spec in FLEETS.items():
        print(
            f"  {name:24s} {f'[{spec.scenario.backend}]':12s} "
            f"{spec.description or spec.scenario.surface}"
        )
    print("\nmobility:        " + ", ".join(MOBILITY.names()))
    print("fleet defenses:  " + ", ".join(FLEET_DEFENSES))
    print("per-node axes:   any scenario spec (see 'repro scenario --list')")


def cmd_fleet(args: argparse.Namespace) -> int:
    """The ``fleet`` command: the FleetSession API from the shell."""
    from repro.fleet import FLEETS, FleetSession

    if args.list:
        _print_fleet_list()
        return 0
    if args.name is None:
        raise SystemExit("fleet: a fleet campaign name (or --list) is required")
    try:
        spec = FLEETS.get(args.name)
    except KeyError as exc:
        raise SystemExit(str(exc))
    overrides = {}
    for field_name in ("nodes", "mobility", "dwell", "stagger",
                       "fleet_defense", "detect_interval"):
        value = getattr(args, field_name)
        if value is not None:
            overrides[field_name] = value
    scenario_overrides = {}
    for field_name in ("duration", "attack_start", "seed"):
        value = getattr(args, field_name)
        if value is not None:
            scenario_overrides[field_name] = value
    telemetry = _make_telemetry(args)
    try:
        if scenario_overrides:
            overrides["scenario"] = spec.scenario.evolve(**scenario_overrides)
        if overrides:
            spec = spec.evolve(**overrides)
        result = FleetSession(spec, telemetry=telemetry).run()
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"fleet {spec.name!r}: {exc}")
    print(result.render())
    if args.csv is not None:
        written = result.to_csv(args.csv)
        print(f"\nCSV written to {written} (+ one per node)")
    _write_metrics_out(args, telemetry)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """The ``serve`` command: the long-running packet service."""
    from repro.runtime.parallel import WorkerCrashError
    from repro.runtime.service import build_service

    try:
        spec = SCENARIOS.get(args.scenario)
    except KeyError as exc:
        raise SystemExit(str(exc))
    overrides = {}
    for field_name in ("profile", "seed", "shards"):
        value = getattr(args, field_name)
        if value is not None:
            overrides[field_name] = value
    telemetry = _make_telemetry(args)
    try:
        if overrides:
            spec = spec.evolve(**overrides)
        service = build_service(
            spec,
            workers=args.workers,
            pcap=args.pcap,
            rate_pps=args.rate_pps,
            duration=args.duration,
            max_packets=args.max_packets,
            batch_size=args.batch_size,
            report_interval=args.report_interval,
            detect_threshold=args.detect_threshold,
            telemetry=telemetry,
        )
    except (KeyError, ValueError, OSError) as exc:
        raise SystemExit(f"serve {spec.name!r}: {exc}")

    def live(snap: dict) -> None:
        state, wall = snap["state"], snap["wall"]
        alert = "  ** MASK ALERT **" if snap["detector"]["alert"] else ""
        print(
            f"t={state['time']:8.2f}s  packets={state['packets']:<10d} "
            f"masks(max/shard)={state['mask_count']:<6d} "
            f"megaflows={state['megaflows']:<7d} "
            f"upcalls={state['stats']['upcalls']:<8d} "
            f"{wall['pps']:10,.0f} pkt/s{alert}",
            flush=True,
        )

    try:
        report = service.run(on_snapshot=live)
    except WorkerCrashError as exc:
        print(f"\nFATAL: {exc}", file=sys.stderr)
        return 2
    print()
    print(report.render())
    if args.json is not None:
        import json

        args.json.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
        print(f"\nJSON report written to {args.json}")
    _write_metrics_out(args, telemetry)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """The ``trace`` command: one scenario run, full observability."""
    import json

    from repro.obs import Telemetry
    from repro.obs.export import prometheus_text, telemetry_json

    try:
        spec = SCENARIOS.get(args.name)
    except KeyError as exc:
        raise SystemExit(str(exc))
    overrides = {}
    for field_name in ("duration", "attack_start", "seed", "backend",
                       "shards"):
        value = getattr(args, field_name)
        if value is not None:
            overrides[field_name] = value
    telemetry = Telemetry()
    try:
        if overrides:
            spec = spec.evolve(**overrides)
        result = Session(spec, telemetry=telemetry).run()
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"trace {spec.name!r}: {exc}")

    out: Path = args.output
    out.mkdir(parents=True, exist_ok=True)
    chrome = out / f"{spec.name}.trace.json"
    chrome.write_text(
        json.dumps(telemetry.trace.to_chrome_trace(), indent=2,
                   sort_keys=True) + "\n",
        encoding="utf-8",
    )
    jsonl = out / f"{spec.name}.trace.jsonl"
    jsonl.write_text(telemetry.trace.to_jsonl(), encoding="utf-8")
    profile = out / f"{spec.name}.profile.json"
    profile.write_text(
        json.dumps(telemetry.profile.to_dict(), indent=2, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    metrics = out / f"{spec.name}.metrics.prom"
    metrics.write_text(prometheus_text(telemetry), encoding="utf-8")
    snapshot = out / f"{spec.name}.snapshot.json"
    snapshot.write_text(telemetry_json(telemetry), encoding="utf-8")

    print(result.headline())
    print()
    print(telemetry.profile.render(min_percent=args.min_percent))
    summary = telemetry.trace.summary()
    print(
        f"\ntrace: {summary['events']} span(s) buffered "
        f"({summary['recorded']} recorded, {summary['dropped']} dropped)"
    )
    print(f"artifacts in {out}/:")
    for path in (chrome, jsonl, profile, metrics, snapshot):
        print(f"  {path.name}")
    print("load the .trace.json in https://ui.perfetto.dev "
          "(or chrome://tracing)")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """The ``lint`` command: the repro-lint contract checkers."""
    from repro.analysis.runner import execute

    return execute(args)


def cmd_experiment(args: argparse.Namespace) -> int:
    """The ``experiment`` command."""
    from repro.experiments.runner import execute

    return execute(args)


def cmd_demo(_args: argparse.Namespace) -> int:
    """The ``demo`` command."""
    from repro.experiments.fig2 import run_fig2

    print(run_fig2().render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Policy Injection (SIGCOMM'18) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="closed-form attack planning")
    plan.add_argument("surface", choices=sorted(_campaign_surfaces()))
    plan.add_argument("--frame-bytes", type=int, default=64)
    plan.set_defaults(func=cmd_plan)

    craft = sub.add_parser("craft", help="export the covert stream as pcap")
    craft.add_argument("surface", choices=sorted(_campaign_surfaces()))
    craft.add_argument("output")
    craft.add_argument("--dst-ip", default="10.0.9.20")
    craft.add_argument("--rate-pps", type=float, default=None)
    craft.set_defaults(func=cmd_craft)

    scenario = sub.add_parser(
        "scenario", help="run a registered scenario via the Session API"
    )
    scenario.add_argument("name", nargs="?", default=None,
                          help="scenario name (see --list)")
    scenario.add_argument("--list", action="store_true",
                          help="enumerate scenarios and registry choices")
    scenario.add_argument("--duration", type=float, default=None)
    scenario.add_argument("--attack-start", type=float, default=None,
                          dest="attack_start")
    scenario.add_argument("--seed", type=int, default=None)
    scenario.add_argument("--profile", choices=PROFILES.names(), default=None)
    scenario.add_argument("--backend", choices=BACKENDS.names(), default=None)
    scenario.add_argument("--scan-order", choices=list(SCAN_ORDERS),
                          default=None, dest="scan_order",
                          help="TSS subtable visit order (default: profile's)")
    scenario.add_argument("--shards", type=int, default=None,
                          help="PMD shard count (RSS-dispatched classifier "
                          "instances; default: the profile's)")
    scenario.add_argument("--reta-size", type=int, default=None,
                          dest="reta_size",
                          help="RSS indirection-table buckets (rounded up to "
                          "a multiple of the shard count; default: the "
                          "profile's, 128)")
    scenario.add_argument("--rebalance-interval", type=float, default=None,
                          dest="rebalance_interval",
                          help="PMD auto-load-balance interval in seconds "
                          "(0 = static RSS; default: the profile's)")
    scenario.add_argument("--workload-skew", type=float, default=None,
                          dest="workload_skew",
                          help="Zipf skew of the victim's per-bucket load "
                          "(0 = uniform, ~1 = elephant flows)")
    scenario.add_argument("--attacker", choices=("naive", "spread"),
                          default=None, dest="attacker_strategy",
                          help="covert stream construction: the paper's "
                          "one-key-per-mask stream, or one hash-steered "
                          "variant per mask per PMD shard")
    scenario.add_argument("--reprobe-interval", type=float, default=None,
                          dest="reprobe_interval",
                          help="seconds between the spread attacker's "
                          "re-steers against the live RETA (0 = steer once)")
    scenario.add_argument("--defense", action="append", default=None,
                          metavar="NAME", help="activate a defense (repeatable)")
    scenario.add_argument("--csv", type=Path, default=None, metavar="DIR",
                          help="also dump the result as CSV into DIR")
    scenario.add_argument("--metrics-out", type=Path, default=None,
                          dest="metrics_out", metavar="FILE",
                          help="run with telemetry enabled and write the "
                          "metric registry (.prom/.txt: Prometheus text "
                          "exposition, else the repro.obs/v1 JSON snapshot)")
    scenario.set_defaults(func=cmd_scenario)

    trace = sub.add_parser(
        "trace", help="run a scenario with telemetry enabled and export "
        "the trace/profile/metrics artifacts"
    )
    trace.add_argument("name", help="scenario name (see 'repro scenario --list')")
    trace.add_argument("--output", type=Path, default=Path("trace-out"),
                       metavar="DIR",
                       help="artifact directory (default: trace-out/)")
    trace.add_argument("--duration", type=float, default=None)
    trace.add_argument("--attack-start", type=float, default=None,
                       dest="attack_start")
    trace.add_argument("--seed", type=int, default=None)
    trace.add_argument("--backend", choices=BACKENDS.names(), default=None)
    trace.add_argument("--shards", type=int, default=None,
                       help="PMD shard count override")
    trace.add_argument("--min-percent", type=float, default=1.0,
                       dest="min_percent",
                       help="hide profile nodes below this share of total "
                       "charged cycles (default 1.0)")
    trace.set_defaults(func=cmd_trace)

    fleet = sub.add_parser(
        "fleet", help="run a fleet campaign via the FleetSession API"
    )
    fleet.add_argument("name", nargs="?", default=None,
                       help="fleet campaign name (see --list)")
    fleet.add_argument("--list", action="store_true",
                       help="enumerate fleet campaigns and mobility policies")
    fleet.add_argument("--nodes", type=int, default=None,
                       help="hypervisor node count")
    fleet.add_argument("--mobility", default=None,
                       help="attacker mobility: static | rolling | "
                       "staggered | coordinated")
    fleet.add_argument("--dwell", type=float, default=None,
                       help="seconds the rolling attacker stays per node")
    fleet.add_argument("--stagger", type=float, default=None,
                       help="seconds between staggered joiners (0 = dwell)")
    fleet.add_argument("--fleet-defense", dest="fleet_defense", default=None,
                       choices=("none", "quarantine"),
                       help="fleet-level defense")
    fleet.add_argument("--detect-interval", dest="detect_interval",
                       type=float, default=None,
                       help="seconds between fleet detector observations")
    fleet.add_argument("--duration", type=float, default=None,
                       help="per-node campaign duration override")
    fleet.add_argument("--attack-start", dest="attack_start", type=float,
                       default=None, help="covert stream start override")
    fleet.add_argument("--seed", type=int, default=None,
                       help="base seed (nodes re-seed via shard_seed)")
    fleet.add_argument("--csv", type=Path, default=None, metavar="DIR",
                       help="dump the aggregate + per-node series into DIR")
    fleet.add_argument("--metrics-out", type=Path, default=None,
                       dest="metrics_out", metavar="FILE",
                       help="run with telemetry enabled and write the "
                       "metric registry (.prom/.txt: Prometheus text, "
                       "else JSON snapshot)")
    fleet.set_defaults(func=cmd_fleet)

    serve = sub.add_parser(
        "serve", help="long-running packet service (pcap replay or "
        "synthetic covert feed)"
    )
    serve.add_argument("scenario", nargs="?", default="k8s-serve",
                       help="scenario providing the rules/profile/shard "
                       "config (default: k8s-serve)")
    serve.add_argument("--pcap", type=Path, default=None,
                       help="replay this capture (e.g. from `repro craft`) "
                       "instead of the synthetic covert feed")
    serve.add_argument("--workers", type=int, default=0,
                       help="worker processes: 0 = the serial reference "
                       "runtime, N > 0 = the multi-process parallel "
                       "runtime with N shard workers")
    serve.add_argument("--shards", type=int, default=None,
                       help="serial-runtime shard count override "
                       "(default: the scenario's)")
    serve.add_argument("--duration", type=float, default=10.0,
                       help="synthetic feed: simulated seconds to stream "
                       "(default 10)")
    serve.add_argument("--rate-pps", type=float, default=None,
                       dest="rate_pps",
                       help="synthetic feed rate (default: the scenario's "
                       "covert rate)")
    serve.add_argument("--max-packets", type=int, default=None,
                       dest="max_packets",
                       help="stop after this many packets")
    serve.add_argument("--batch-size", type=int, default=256,
                       dest="batch_size",
                       help="pcap replay burst size (default 256)")
    serve.add_argument("--report-interval", type=float, default=1.0,
                       dest="report_interval",
                       help="simulated seconds between live snapshots")
    serve.add_argument("--detect-threshold", type=int,
                       default=DEFAULT_MASK_THRESHOLD,
                       dest="detect_threshold",
                       help="per-shard mask count that trips the alert")
    serve.add_argument("--profile", choices=PROFILES.names(), default=None)
    serve.add_argument("--seed", type=int, default=None)
    serve.add_argument("--json", type=Path, default=None, metavar="FILE",
                       help="also write the full report as JSON")
    serve.add_argument("--metrics-out", type=Path, default=None,
                       dest="metrics_out", metavar="FILE",
                       help="run with telemetry enabled and write the "
                       "metric registry (.prom/.txt: Prometheus text, "
                       "else JSON snapshot)")
    serve.set_defaults(func=cmd_serve)

    lint = sub.add_parser(
        "lint", help="run repro-lint, the repo's contract checkers "
        "(exit non-zero on any finding)"
    )
    from repro.analysis.runner import configure_parser as _configure_lint

    _configure_lint(lint)
    lint.set_defaults(func=cmd_lint)

    experiment = sub.add_parser("experiment", help="run paper experiments")
    from repro.experiments.runner import configure_parser as _configure_experiment

    _configure_experiment(experiment)
    experiment.set_defaults(func=cmd_experiment)

    demo = sub.add_parser("demo", help="print the Fig. 2 worked example")
    demo.set_defaults(func=cmd_demo)

    return parser


#: exit status of a run whose stdout reader went away (``repro experiment
#: all | head -3``): what a shell reports for a writer SIGPIPE (13) ended
EXIT_CLOSED_STDOUT = 128 + 13


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.  A run whose stdout is closed under it ends
    quietly, with :data:`EXIT_CLOSED_STDOUT` and no traceback (the
    parallel runtime raises its own error for a broken worker pipe, so
    a ``BrokenPipeError`` here is stdout's)."""
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at devnull: the interpreter's flush at exit would
        # fail on the closed pipe again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_STDOUT
    return code


if __name__ == "__main__":
    sys.exit(main())
