"""Wall-clock: the multi-process parallel runtime vs its serial
reference, on the deep-scan serve workload — with a built-in
byte-identity gate.

The workload is the **k8s-serve** preset: the 512-mask Kubernetes
covert stream as a live synthetic feed on the ``kernel-noemc`` profile
(EMC insertion off), so every packet after the first install lap
deep-scans its shard's exploded subtable list.  The per-packet scan
dominates the IPC cost of the mailbox protocol, which is what lets the
multi-process runtime scale near-linearly with workers.

Two gates:

1. **Equivalence** (always enforced; exit 1 on violation): for shards
   in {1, 2, 4}, the serial ``ShardedDatapath`` reference and the
   ``ParallelDatapath`` runtime must produce **byte-identical**
   deterministic serve reports — every periodic snapshot's stats
   counters, per-shard mask counts and detector verdicts, the final
   state, and the packet/burst totals, compared as canonical JSON.
   One more row, ``vec_x_processes``: the same preset evolved to
   ``backend="ovs-vec"`` on 2 worker processes — the fastest cell of
   the engine × shards × runtime product — must match the serial
   *scalar* 2-shard run byte for byte too, once the ``vec_tss`` engine
   census (non-zero by design on the vec engine, and required to be) is
   set aside.

2. **Speedup** (enforced on machines with >= 4 CPU cores; exit 1 on
   violation): the parallel runtime at 4 workers must serve **>= 2x**
   the packets/second of the serial 4-shard reference (best-of-
   ``--repeats`` wall clock).  On smaller machines the gate is
   **loudly skipped** — recorded in the JSON as
   ``speedup_skipped`` — because there is physically no parallelism to
   measure; the equivalence gate still runs in full.

Emits a ``BENCH_serve.json`` perf record.  Fields:

- ``params``: workload shape (scenario, equivalence/speedup durations,
  feed rate, shard counts, repeats, the speedup target);
- ``cpu_count``: cores visible to the benchmark;
- ``equivalence``: per-shard-count byte-identity verdicts (packets
  served, final masks, ``identical`` flag), plus the
  ``vec_x_processes`` row (or its ``skipped`` reason without NumPy);
- ``times_sec`` / ``packets_per_sec``: best-of-repeats wall clock and
  throughput for the serial reference and the 4-worker runtime;
- ``ratios.parallel_vs_serial_serve``: the gated speedup (absent when
  skipped);
- ``equivalence_ok`` / ``equivalence_problems``: the identity gate;
- ``speedup_ok``: the wall-clock gate (``None`` when skipped);
- ``speedup_skipped``: the loud-skip reason, when applicable.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py          # full
    PYTHONPATH=src python benchmarks/bench_serve.py --quick  # CI
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.runtime.service import build_service  # noqa: E402
from repro.scenario import SCENARIOS  # noqa: E402
from repro.vec import HAVE_NUMPY  # noqa: E402

#: packets/second floor: 4 workers vs the serial 4-shard reference
SPEEDUP_TARGET = 2.0

#: cores below which the speedup gate is loudly skipped (equivalence
#: still runs): with fewer cores than workers there is no parallel
#: hardware to measure, only scheduler thrash
MIN_CPUS_FOR_SPEEDUP = 4

#: the serve workload must reach the paper's 512-mask regime
EXPECTED_MASKS = 512

#: shard counts the equivalence gate sweeps
EQUIVALENCE_SHARDS = (1, 2, 4)

#: worker count of the vec x processes row (the reference box has 2 cores)
VEC_WORKERS = 2


def run_serve(workers: int, shards: int, duration: float, rate_pps: float,
              backend: str = "ovs"):
    """One serve run; returns (report, wall_seconds)."""
    spec = SCENARIOS.get("k8s-serve").evolve(shards=shards, backend=backend)
    service = build_service(
        spec,
        workers=workers,
        duration=duration,
        rate_pps=rate_pps,
        report_interval=max(duration / 10.0, 0.5),
    )
    begin = time.perf_counter()
    report = service.run()
    return report, time.perf_counter() - begin


def check_equivalence(duration: float, rate_pps: float):
    """The identity gate: serial and parallel serve runs must agree
    byte for byte on the deterministic view, for every shard count.
    Returns (problems, per-shard summaries)."""
    problems: list[str] = []
    summaries: dict[str, dict] = {}
    for shards in EQUIVALENCE_SHARDS:
        serial, _ = run_serve(0, shards, duration, rate_pps)
        parallel, _ = run_serve(shards, shards, duration, rate_pps)
        a = json.dumps(serial.deterministic_view(), sort_keys=True)
        b = json.dumps(parallel.deterministic_view(), sort_keys=True)
        identical = a == b
        masks = serial.final["state"]["total_mask_count"]
        summaries[str(shards)] = {
            "packets": serial.packets,
            "final_total_masks": masks,
            "snapshots": len(serial.snapshots),
            "identical": identical,
        }
        if not identical:
            problems.append(
                f"shards={shards}: serial and parallel deterministic "
                f"views differ ({len(a)} vs {len(b)} canonical bytes)"
            )
        if masks < EXPECTED_MASKS:
            problems.append(
                f"shards={shards}: workload never reached the "
                f"{EXPECTED_MASKS}-mask regime (got {masks})"
            )
        print(f"equivalence shards={shards}: "
              f"{serial.packets} packets, {masks} masks, "
              f"{'identical' if identical else 'MISMATCH'}")
    return problems, summaries


def _canonical_without_census(report) -> str:
    """The canonical deterministic view minus the ``vec_tss`` engine
    census — what a vec run and a scalar run must agree on."""
    view = report.deterministic_view()
    for entry in (*view["series"], view["final"]):
        entry["state"] = {key: value for key, value in entry["state"].items()
                          if key != "vec_tss"}
    return json.dumps(view, sort_keys=True)


def check_vec_processes(duration: float, rate_pps: float):
    """The vec × processes row: vectorized shards on worker processes
    against the serial scalar run.  Returns (problems, summary)."""
    shards = VEC_WORKERS
    if not HAVE_NUMPY:
        reason = "numpy not installed: the ovs-vec engine cannot be built"
        print(f"equivalence vec x processes: SKIPPED ({reason})")
        return [], {"skipped": reason}
    serial, _ = run_serve(0, shards, duration, rate_pps)
    vec, _ = run_serve(shards, shards, duration, rate_pps, backend="ovs-vec")
    census = vec.final["state"]["vec_tss"]
    columnar = census["scan"] + census["memo"]
    identical = (_canonical_without_census(serial)
                 == _canonical_without_census(vec))
    problems = []
    if not identical:
        problems.append(
            f"vec x processes (shards={shards}): deterministic view "
            "differs from the serial scalar run"
        )
    if not columnar:
        problems.append(
            "vec x processes: no lookup took the columnar path — the "
            "workers are not running the vec engine"
        )
    print(f"equivalence vec x processes shards={shards}: {vec.packets} "
          f"packets, {'identical' if identical else 'MISMATCH'} "
          f"(columnar lookups: {columnar})")
    return problems, {
        "packets": vec.packets,
        "shards": shards,
        "columnar_lookups": columnar,
        "identical": identical,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for CI smoke runs")
    parser.add_argument("--duration", type=float, default=None,
                        help="speedup-run simulated seconds "
                        "(default 8, quick 4)")
    parser.add_argument("--rate-pps", type=float, default=None,
                        help="synthetic feed rate (default 10240, "
                        "quick 5120)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timed runs per runtime (best-of)")
    parser.add_argument("--output", type=Path,
                        default=Path("BENCH_serve.json"))
    args = parser.parse_args(argv)

    duration = args.duration or (4.0 if args.quick else 8.0)
    rate_pps = args.rate_pps or (5120.0 if args.quick else 10240.0)
    equivalence_duration = min(duration, 2.0)
    equivalence_rate = min(rate_pps, 2560.0)
    cpus = os.cpu_count() or 1

    problems, summaries = check_equivalence(
        equivalence_duration, equivalence_rate
    )
    vec_problems, summaries["vec_x_processes"] = check_vec_processes(
        equivalence_duration, equivalence_rate
    )
    problems += vec_problems
    if problems:
        print("serve equivalence FAILED:")
        for problem in problems:
            print(f"  - {problem}")
    else:
        print("serve equivalence: ok (serial == parallel, byte for byte, "
              f"shards in {list(EQUIVALENCE_SHARDS)})")

    record: dict = {
        "benchmark": "serve_parallel_runtime",
        "quick": args.quick,
        "cpu_count": cpus,
        "params": {
            "scenario": "k8s-serve",
            "equivalence_duration": equivalence_duration,
            "equivalence_rate_pps": equivalence_rate,
            "speedup_duration": duration,
            "speedup_rate_pps": rate_pps,
            "repeats": args.repeats,
            "shards": list(EQUIVALENCE_SHARDS),
            "speedup_target": SPEEDUP_TARGET,
            "min_cpus_for_speedup": MIN_CPUS_FOR_SPEEDUP,
        },
        "equivalence": summaries,
        "equivalence_ok": not problems,
        "equivalence_problems": problems,
    }

    if cpus < MIN_CPUS_FOR_SPEEDUP:
        reason = (
            f"only {cpus} CPU core(s) visible — the 4-worker speedup "
            f"gate needs >= {MIN_CPUS_FOR_SPEEDUP} cores to measure "
            "real parallelism; equivalence was still enforced"
        )
        print(f"\nSPEEDUP GATE SKIPPED: {reason}")
        record["speedup_ok"] = None
        record["speedup_skipped"] = reason
        args.output.write_text(json.dumps(record, indent=2) + "\n")
        print(f"\nwrote {args.output}")
        return 1 if problems else 0

    times: dict[str, float] = {}
    pps: dict[str, float] = {}
    for label, workers in (("serial", 0), ("parallel4", 4)):
        best = float("inf")
        packets = 0
        for _ in range(max(1, args.repeats)):
            report, elapsed = run_serve(workers, 4, duration, rate_pps)
            best = min(best, elapsed)
            packets = report.packets
        times[label] = best
        pps[label] = packets / best
        print(f"{label:10s} serve  {best:8.2f} s  "
              f"({packets} packets, {pps[label]:,.0f} pkt/s)")

    speedup = pps["parallel4"] / pps["serial"]
    speedup_ok = speedup >= SPEEDUP_TARGET

    record["times_sec"] = times
    record["packets_per_sec"] = pps
    record["ratios"] = {"parallel_vs_serial_serve": speedup}
    record["speedup_ok"] = speedup_ok
    args.output.write_text(json.dumps(record, indent=2) + "\n")

    print(f"\nwrote {args.output}")
    print(f"  parallel_vs_serial_serve: {speedup:.2f}x")
    if not speedup_ok:
        print(f"speedup gate FAILED: {speedup:.2f}x < "
              f"{SPEEDUP_TARGET:.0f}x")
    return 1 if (problems or not speedup_ok) else 0


if __name__ == "__main__":
    sys.exit(main())
