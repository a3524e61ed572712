"""The whole-pipeline benchmark: seven workloads, absolute packets/s,
and a per-layer wall-clock table.

One measured run (what the benchmark driver calls; BENCHMARK.json)::

    python3 benchmarks/pipeline/run.py --workload NAME --seed N \\
        --seconds S --trace 0|1

sets up once, repeats the workload's timed region on a fresh program
state until ``S`` seconds of it have been measured, checks the outputs,
prints every metric by name with its unit and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  ``wall_s`` is the sum over the timed region's chunks of
each chunk's fastest replay (:func:`floor_wall`); ``setup_s`` the
median over the run's own set-up and a few fresh interpreters'
(``--setup-probe``).

The suite (no ``--seconds``) runs every ``(workload, repeat)`` in a
fresh subprocess of the command above and summarises medians and
quartiles::

    python3 benchmarks/pipeline/run.py [--workload NAME] [--seed N]
        [--repeats N] [--trace] [--verify] [--aa] [--output FILE]

``--trace`` adds one traced run per workload (the layer table),
``--verify`` replays every workload against an independent reference,
``--aa`` runs two interleaved sets of the same code and fails when they
disagree by more than the benchmark's own bounds.  ``--table FILE``
renders a stored record as the README's markdown tables.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: everything a run writes (captures, traces, records) lands here,
#: behind the local .gitignore
OUT = HERE / "out"

if not (ROOT / "src" / "repro").is_dir():
    # the benchmark measures this checkout's source, never an installed copy
    sys.exit(f"{ROOT / 'src' / 'repro'} not found: nothing to measure")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from repro.vec import HAVE_NUMPY  # noqa: E402

if not HAVE_NUMPY:
    sys.exit("numpy is required: the presets would silently downgrade to "
             "the scalar engine")

import numpy  # noqa: E402

import layers  # noqa: E402
from spans import NULL_TRACER, Tracer  # noqa: E402
from workloads import WORKLOADS, Observation, Workload  # noqa: E402

#: imports (numpy, repro, the benchmark's own modules) are set-up too
IMPORT_S = time.perf_counter() - _T0

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m for m in CONTRACT["per_layer"]}

#: a run measures at least this many untraced iterations: the exact
#: counts are compared between them, and each chunk's floor needs a
#: few replays to find a quiet one (fig3-timeline's 4.4 s iteration
#: is the only one ``--seconds 8`` alone would replay less often)
MIN_ITERATIONS = 4

#: past ``--seconds`` a run keeps iterating — to at most 1.5× that, so
#: that 158 driver runs stay inside their hour even if every one does —
#: while its last two untraced iterations still lowered the floor by
#: more than this share: the box has 10–20-second slow patches in which
#: no replay of a chunk is clean, and a run that ends inside one reads
#: up to 1.8× slow
SETTLE_ITERATIONS = 2
SETTLE_FRAC = 0.005
SETTLE_CAP = 1.5

#: fresh interpreters that repeat an untraced run's set-up; ``setup_s``
#: is the median over them and the run's own
SETUP_PROBES = 4


# ---------------------------------------------------------------------------
# one measured run
# ---------------------------------------------------------------------------

@dataclass
class Iteration:
    traced: bool
    prepare_s: float = 0.0
    wall_s: float = 0.0
    #: the timed region cut at the boundaries ``execute`` reported
    chunks: list[float] = field(default_factory=list)
    offered: int = 1
    unaccounted: int = 0
    rss_mb: float = 0.0
    sim: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    tracer: Tracer | None = None


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_iteration(workload: Workload, inputs: dict, traced: bool) -> Iteration:
    """prepare → execute (timed) → observe → close on a fresh state."""
    iteration = Iteration(traced=traced)
    tracer = NULL_TRACER
    if traced:
        tracer = iteration.tracer = Tracer()
        layers.install(tracer)
    gc.collect()
    children = _children_cpu()
    try:
        begin = time.perf_counter()
        with tracer.span(layers.PREPARE):
            state = workload.prepare(inputs, tracer)
        iteration.prepare_s = time.perf_counter() - begin
        try:
            cpu = time.process_time()
            begin = time.perf_counter()
            with tracer.span(layers.EXECUTE):
                splits = workload.execute(state)
            iteration.wall_s = time.perf_counter() - begin
            cpu = time.process_time() - cpu
            obs: Observation = workload.observe(inputs, state)
            iteration.rss_mb = peak_rss_mb()  # while the workers live
        finally:
            with tracer.span(layers.CLOSE):
                workload.close(state)
    finally:
        if traced:
            tracer.unwrap_all()
    edges = [0.0, *splits, iteration.wall_s]
    iteration.chunks = [b - a for a, b in zip(edges, edges[1:])]
    iteration.offered = obs.offered
    iteration.unaccounted = obs.counters["packets"] - obs.accounted
    iteration.sim = obs.sim_counts()
    iteration.problems = obs.problems + workload.regime_problems(inputs, obs)
    if traced:
        iteration.metrics = layers.iteration_metrics(
            tracer, obs, parent_cpu_s=cpu,
            worker_cpu_s=_children_cpu() - children,
        )
    return iteration


def floor_wall(iterations: list[Iteration]) -> float:
    """The timed region's wall seconds with the machine's noise taken
    out: every chunk's fastest replay, summed.

    The iterations of one run replay identical inputs on a fresh state,
    so chunk *i* does the same work every time; what differs is what
    else the (shared, 2-core) box was doing.  That noise only ever adds
    time, in episodes from milliseconds to a minute: medians of
    one-second iterations moved 5–25 % between back-to-back runs of the
    same code, the sum of per-chunk minima 1–3 %.  A workload whose
    timed region is a single call has one chunk, and this is the
    fastest iteration."""
    return sum(map(min, zip(*(it.chunks for it in iterations))))


def settled(untraced: list[Iteration]) -> bool:
    """Has the floor stopped falling?  (See :data:`SETTLE_FRAC`.)"""
    if len(untraced) <= SETTLE_ITERATIONS:
        return False
    before = floor_wall(untraced[:-SETTLE_ITERATIONS])
    return before <= floor_wall(untraced) * (1.0 + SETTLE_FRAC)


def _hwm_kb(pid: int | str) -> int:
    status = Path(f"/proc/{pid}/status").read_text()
    return int(status.split("VmHWM:")[1].split()[0])


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live worker
    processes', in MB.  ``VmHWM`` rather than ``ru_maxrss``: across
    ``exec`` the kernel folds the *launching* process's peak into
    ``ru_maxrss`` (under a 70 MB suite parent every run read exactly
    70.1367 MB), and ``RUSAGE_CHILDREN`` would count the set-up probes
    as well as the workers."""
    workers = multiprocessing.active_children()
    return (_hwm_kb("self")
            + sum(_hwm_kb(worker.pid) for worker in workers)) / 1024.0


def set_up(workload: Workload, seed: int, size: dict, scratch: Path,
           tracer) -> dict:
    scratch.mkdir(parents=True, exist_ok=True)
    with tracer.span(layers.GENERATE):
        return workload.generate(seed, size, scratch, tracer)


def setup_probe(workload: Workload, seed: int) -> float:
    """Everything a run does before its first timed region — imports,
    generate, prepare — timed from this interpreter's start."""
    inputs = set_up(workload, seed, workload.full, OUT, NULL_TRACER)
    workload.close(workload.prepare(inputs, NULL_TRACER))
    return time.perf_counter() - _T0


def probe_setup(name: str, seed: int) -> float:
    """``setup_probe`` in a fresh interpreter."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.split()[-1])


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            size: dict | None = None, scratch: Path = OUT,
            probes: int = 0) -> dict:
    """One run: generate once, iterate for ``seconds`` of timed region,
    check, and fold into the result the driver reads.  With ``trace``
    every other iteration is traced; end-to-end numbers only ever come
    from the untraced ones.  The set-up is repeated in ``probes`` fresh
    interpreters spread between the iterations: the box's speed drifts
    by the second, and probes taken back to back all read one level of
    it."""
    size = workload.full if size is None else size
    setup_tracer = Tracer()
    layers.install(setup_tracer)
    begin = time.perf_counter()
    try:
        inputs = set_up(workload, seed, size, scratch, setup_tracer)
    finally:
        setup_tracer.unwrap_all()
    generate_s = time.perf_counter() - begin

    iterations: list[Iteration] = []
    untraced: list[Iteration] = []
    problems: list[str] = []
    probed: list[float] = []
    timed = 0.0
    while (timed < seconds or len(untraced) < MIN_ITERATIONS
           or (timed < SETTLE_CAP * seconds and not settled(untraced))):
        traced = trace and len(iterations) % 2 == 1
        try:
            iteration = run_iteration(workload, inputs, traced)
        except Exception:  # noqa: BLE001 - report the failure, fail the run
            problems.append(traceback.format_exc())
            iterations.append(Iteration(traced=traced, unaccounted=1))
            break
        iterations.append(iteration)
        timed += iteration.wall_s
        if not traced:
            untraced.append(iteration)
        if iteration.problems:
            break
        if (len(probed) < probes
                and timed * probes >= (len(probed) + 1) * seconds):
            probed.append(probe_setup(workload.name, seed))

    first = iterations[0]
    for iteration in iterations:
        problems += iteration.problems
        if (iteration.sim, len(iteration.chunks)) != (first.sim,
                                                      len(first.chunks)):
            problems.append(
                f"iterations of one run disagree: {iteration.sim} in "
                f"{len(iteration.chunks)} chunks != {first.sim} in "
                f"{len(first.chunks)}"
            )
    attempted = sum(it.offered for it in iterations)
    failed = sum(
        it.offered if it.problems else it.unaccounted for it in iterations
    )
    if problems and not failed:
        failed = attempted

    wall = floor_wall(untraced) if untraced else 0.0
    while len(probed) < probes:
        probed.append(probe_setup(workload.name, seed))
    setups = [IMPORT_S + generate_s + first.prepare_s, *probed]
    if trace:
        names = PER_LAYER
        metrics = {}
        if not problems:  # a failed run has no layer table worth reading
            traced = [it for it in iterations if it.traced]
            metrics = _layer_result(workload, inputs, traced, untraced,
                                    setup_tracer, scratch, seed)
    else:
        names = END_TO_END
        metrics = {
            "pkts_per_s": first.offered / wall if wall else 0.0,
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max((it.rss_mb for it in untraced), default=0.0),
        }
    detail = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "iterations": len(iterations),
        "chunks": len(first.chunks),
        "walls_s": [it.wall_s for it in untraced],
        "import_s": IMPORT_S,
        "generate_s": generate_s,
        "prepare_s": first.prepare_s,
        "setups_s": setups,
        "sim": first.sim,
        "problems": problems,
    }
    return {
        "correct": not problems,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": spec["unit"]}
            for name, spec in names.items()
        },
        "detail": detail,
    }


def _layer_result(workload: Workload, inputs: dict, traced: list[Iteration],
                  untraced: list[Iteration], setup_tracer: Tracer,
                  scratch: Path, seed: int) -> dict:
    """The per-layer metrics of a traced run: the quietest traced
    iteration's table (one iteration, so its self times still sum to
    its wall), the generate phase's set-up spans on top, the tracing
    overhead against the untraced iterations of the same run, and the
    direct-call extras."""
    quietest = min(traced, key=lambda it: it.wall_s)
    metrics = dict(quietest.metrics)
    for name, value in layers.setup_metrics(setup_tracer.layers()).items():
        metrics[name] += value
    metrics["trace.overhead_frac"] = (
        floor_wall(traced) / floor_wall(untraced) - 1.0
    )
    trace_path = scratch / f"trace-{workload.name}-{seed}.json"
    trace_path.write_text(json.dumps(quietest.tracer.to_chrome_trace()))
    metrics.update(workload.extras(
        inputs, fastest_s=min(it.wall_s for it in untraced)
    ))
    return metrics


def print_run(result: dict) -> None:
    """Every metric by name with its unit, then the contract line."""
    detail = result["detail"]
    walls = detail["walls_s"]
    print(f"{detail['workload']} seed={detail['seed']}: "
          f"{detail['iterations']} iterations of {detail['chunks']} chunks, "
          f"{len(walls)} untraced: timed region median "
          f"{statistics.median(walls) if walls else 0.0:.4f} s "
          f"(min {min(walls, default=0):.4f}, max {max(walls, default=0):.4f})")
    print(f"  set-up: import {detail['import_s']:.3f} s + generate "
          f"{detail['generate_s']:.3f} s + prepare {detail['prepare_s']:.3f} "
          f"s; all samples {[round(s, 3) for s in detail['setups_s']]}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in detail["sim"].items():
        if name not in result["metrics"]:  # a traced run lists them above
            print(f"  {name:<44} {value:>16.10g} count")
    for problem in detail["problems"]:
        print(f"  PROBLEM: {problem}")
    print("RECORD " + json.dumps(detail))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))


# ---------------------------------------------------------------------------
# the suite: every (workload, repeat) in a fresh subprocess
# ---------------------------------------------------------------------------

def fingerprint() -> dict:
    """Where a record was measured; numbers from different machines are
    not comparable."""
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def run_child(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """One measured run in a fresh interpreter; returns its result with
    the RECORD detail attached."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=300, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(
            f"{name}: run printed no result (exit {done.returncode})\n"
            f"{done.stdout}\n{done.stderr}"
        )
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("RECORD "):
            result["detail"] = json.loads(line[len("RECORD "):])
    result["exit"] = done.returncode
    return result


def quartiles(values: list[float]) -> dict:
    """Median, quartiles and sample count of one metric's runs."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def run_sets(names: list[str], seed: int, seconds: int, repeats: int,
             sets: int) -> list[dict]:
    """``sets`` interleaved sets of ``repeats`` untraced runs of each
    workload (set A's run *n*, then set B's, then run *n + 1* …) → one
    ``{workload: summary}`` per set."""
    summaries: list[dict] = [{} for _ in range(sets)]
    for name in names:
        runs: list[list[dict]] = [[] for _ in range(sets)]
        for repeat in range(repeats):
            for which in range(sets):
                runs[which].append(run_child(name, seed, seconds, False))
                pps = runs[which][-1]["metrics"]["pkts_per_s"]["value"]
                print(f"  {name} set {'AB'[which]} run {repeat + 1}/"
                      f"{repeats}: {pps:,.0f} pkts/s", flush=True)
        for which in range(sets):
            summaries[which][name] = summarise(runs[which])
    return summaries


def summarise(runs: list[dict]) -> dict:
    sims = [run["detail"]["sim"] for run in runs]
    return {
        "metrics": {
            metric: quartiles([run["metrics"][metric]["value"]
                               for run in runs])
            for metric in END_TO_END
        },
        "sim": sims[0],
        "sim_stable": all(sim == sims[0] for sim in sims),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "correct": all(run["correct"] and run["exit"] == 0 for run in runs),
    }


def print_summary(summary: dict) -> None:
    for name, entry in summary.items():
        print(f"{name}: attempted {entry['attempted']}, failed "
              f"{entry['failed']}, exact counts "
              f"{'stable' if entry['sim_stable'] else 'UNSTABLE'}")
        for metric, q in entry["metrics"].items():
            unit = END_TO_END[metric]["unit"]
            spread = (q["q3"] - q["q1"]) / q["median"] if q["median"] else 0.0
            print(f"  {metric:<12} median {q['median']:>14.6g} {unit:<4} "
                  f"q1 {q['q1']:.6g} q3 {q['q3']:.6g} n={q['n']} "
                  f"iqr/median {spread:.2%} "
                  f"(bound {END_TO_END[metric]['bound']:.0%})")


def worse_by(metric: str, base: float, other: float) -> float:
    """How much worse ``other`` is than ``base`` as a share of ``base``
    (negative = better), in the metric's own direction."""
    if not base:
        return 0.0
    change = (other - base) / base
    return -change if END_TO_END[metric]["better"] == "higher" else change


def compare_sets(first: dict, second: dict) -> list[str]:
    """The A/A verdict: every (metric, workload) median within its
    bound in both directions, every exact count identical."""
    failures = []
    for name in first:
        a, b = first[name], second[name]
        if a["sim"] != b["sim"] or not (a["sim_stable"] and b["sim_stable"]):
            failures.append(f"{name}: exact counts differ between sets")
        for metric, spec in END_TO_END.items():
            base = a["metrics"][metric]["median"]
            other = b["metrics"][metric]["median"]
            worse = max(worse_by(metric, base, other),
                        worse_by(metric, other, base))
            verdict = "ok" if worse <= spec["bound"] else "BEYOND BOUND"
            print(f"  {name:<24} {metric:<12} A {base:>12.6g} B "
                  f"{other:>12.6g} diff {worse:+.2%} bound "
                  f"{spec['bound']:.0%} {verdict}")
            if worse > spec["bound"]:
                failures.append(f"{name}/{metric}: {worse:+.2%}")
    return failures


def verify_all(names: list[str], seed: int) -> dict[str, list[str]]:
    """The ``--verify`` pass, outside any timed run: each workload's
    mismatches against its independent reference."""
    problems = {}
    for name in names:
        workload = WORKLOADS[name]
        begin = time.perf_counter()
        inputs = set_up(workload, seed, workload.full, OUT, NULL_TRACER)
        problems[name] = workload.verify(inputs)
        print(f"  verify {name}: {'FAIL' if problems[name] else 'ok'} "
              f"({time.perf_counter() - begin:.1f} s)", flush=True)
    return problems


# ---------------------------------------------------------------------------
# rendering a record
# ---------------------------------------------------------------------------

def render_tables(record: dict) -> str:
    """A record's end-to-end and per-layer numbers as markdown (the
    README's baseline tables are this function's output)."""
    fp = record["fingerprint"]
    lines = [
        f"Measured on {fp['nproc']} × {fp['cpu']}, Python {fp['python']}, "
        f"numpy {fp['numpy']}; seed {record['seed']}, "
        f"{record['repeats']} runs × {record['seconds']} s per workload.",
        "",
        "| workload | pkts_per_s | wall_s | setup_s | peak_rss_mb |",
        "|---|---|---|---|---|",
    ]
    for name, entry in record["summary"].items():
        cells = []
        for metric in END_TO_END:
            q = entry["metrics"][metric]
            cells.append(f"{q['median']:.4g} [{q['q1']:.4g} – {q['q3']:.4g}]")
        lines.append(f"| `{name}` | " + " | ".join(cells) + " |")
    traced = record.get("layers", {})
    if traced:
        names = list(traced)
        lines += ["", "| layer metric | unit | "
                  + " | ".join(f"`{name}`" for name in names) + " |",
                  "|---|---|" + "---|" * len(names)]
        for metric, spec in PER_LAYER.items():
            values = [traced[name][metric]["value"] for name in names]
            if not any(values):
                continue
            form = ",.0f" if spec["unit"] == "count" else ".4g"
            lines.append(
                f"| `{metric}` | {spec['unit']} | "
                + " | ".join(format(value, form) for value in values) + " |"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measure one run in this process")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up the workload once, print the seconds "
                             "it took and exit (a run spawns these)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--verify", action="store_true")
    parser.add_argument("--aa", action="store_true")
    parser.add_argument("--output", type=Path,
                        help="where the suite writes its record "
                             "(default: out/record-<seed>.json)")
    parser.add_argument("--table", type=Path,
                        help="render a stored record as markdown and exit")
    args = parser.parse_args(argv)

    if args.table:
        print(render_tables(json.loads(args.table.read_text())))
        return 0

    if args.setup_probe or args.seconds is not None:
        if not args.workload:
            parser.error("one run measures one workload: name it")
        workload = WORKLOADS[args.workload]
        if args.setup_probe:
            print(setup_probe(workload, args.seed))
            return 0
        result = measure(workload, args.seed, args.seconds, bool(args.trace),
                         probes=0 if args.trace else SETUP_PROBES)
        print_run(result)
        return 0 if result["correct"] else 1

    names = [args.workload] if args.workload else list(WORKLOADS)
    seconds = CONTRACT["run_seconds"]
    failures: list[str] = []
    record = {
        "schema": "pipeline-bench/v1",
        "fingerprint": fingerprint(),
        "seed": args.seed,
        "seconds": seconds,
        "repeats": args.repeats,
    }
    if args.verify:
        record["verify"] = verify_all(names, args.seed)
    summaries = run_sets(names, args.seed, seconds, args.repeats,
                         sets=2 if args.aa else 1)
    for summary in summaries:
        for name, entry in summary.items():
            if record.get("verify", {}).get(name):
                # a workload that fails its reference has measured nothing
                entry["correct"], entry["failed"] = False, entry["attempted"]
                failures += [f"{name}: {problem}"
                             for problem in record["verify"][name]]
            if not entry["correct"] or entry["failed"]:
                failures.append(f"{name}: {entry['failed']} failed operations")
    record["summary"] = summaries[0]
    print_summary(summaries[0])
    if args.aa:
        record["summary_b"] = summaries[1]
        failures += compare_sets(*summaries)
    if args.trace:
        record["layers"] = {}
        for name in names:
            result = run_child(name, args.seed, seconds, trace=True)
            record["layers"][name] = result["metrics"]
            if not result["correct"]:
                failures.append(f"{name}: traced run incorrect")
        print(render_tables(record))
    output = args.output or OUT / f"record-{args.seed}.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record written to {output}")
    for failure in dict.fromkeys(failures):
        print(f"FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
