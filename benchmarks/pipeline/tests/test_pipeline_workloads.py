"""Tiny-size smoke runs of every workload, output-schema validation
against BENCHMARK.json, and the suite's comparison arithmetic."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import workloads
from spans import NULL_TRACER

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


# -- BENCHMARK.json -----------------------------------------------------------

def test_contract_file_is_within_the_drivers_limits():
    contract = run.CONTRACT
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/pipeline"]
    assert 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in contract[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = run.END_TO_END["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])


def test_contract_names_the_seven_workloads_and_four_metrics():
    assert [(w["name"], w["why"]) for w in run.CONTRACT["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert all(len(w.why) <= 200 and "\n" not in w.why
               for w in workloads.WORKLOADS.values())
    assert list(run.END_TO_END) == ["pkts_per_s", "wall_s", "setup_s",
                                    "peak_rss_mb"]


# -- every workload, tiny -----------------------------------------------------

#: how the tiny timed region is cut, where the count is easy to state
CHUNKS = {
    "deepscan-campaign": 4 + 2,    # assemble, one per tick, result
    "victim-onoff-clean": 32 + 1,  # one per burst, the loop's exit
    "serve-parallel": 1 + 1,       # one periodic snapshot, then the rest
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload_runs_clean_in_chunks_and_verifies(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    inputs = workload.generate(1, workload.tiny, tmp_path, NULL_TRACER)
    iteration = run.run_iteration(workload, inputs, traced=False)
    assert iteration.problems == []
    assert iteration.offered > 0 and iteration.unaccounted == 0
    assert iteration.rss_mb > 0
    assert len(iteration.chunks) == CHUNKS.get(name, len(iteration.chunks))
    assert all(chunk >= 0 for chunk in iteration.chunks)
    assert sum(iteration.chunks) == pytest.approx(iteration.wall_s)
    assert workload.verify(inputs) == []


def test_floor_wall_sums_each_chunks_fastest_replay():
    iterations = [run.Iteration(traced=False, chunks=chunks) for chunks in
                  ([1.0, 5.0, 2.0], [3.0, 4.0, 9.0], [2.0, 6.0, 1.0])]
    assert run.floor_wall(iterations) == 1.0 + 4.0 + 1.0
    assert run.floor_wall(iterations[:1]) == 8.0


def test_setup_is_probed_in_a_fresh_interpreter():
    assert 0.05 < run.probe_setup("mask-churn", seed=1) < 60


def test_setup_probes_are_spread_between_the_iterations(tmp_path,
                                                        monkeypatch):
    taken = []
    monkeypatch.setattr(run, "probe_setup", lambda name, seed:
                        taken.append(name) or 0.25)
    workload = workloads.WORKLOADS["victim-onoff-clean"]
    result = run.measure(workload, seed=1, seconds=0.0, trace=False,
                         size=workload.tiny, scratch=tmp_path, probes=3)
    # seconds=0: one probe after each of the first three iterations
    assert taken == [workload.name] * 3
    assert result["detail"]["setups_s"][1:] == [0.25] * 3
    assert result["metrics"]["setup_s"]["value"] == 0.25


def test_workloads_may_only_evolve_the_allowed_preset_fields():
    assert workloads.evolved("fig3", duration=5.0).duration == 5.0
    with pytest.raises(ValueError, match="backend"):
        workloads.evolved("fig3", backend="ovs-vec")


def test_a_scalar_datapath_behind_a_vec_preset_fails_the_run(tmp_path):
    workload = workloads.WORKLOADS["mask-churn"]
    inputs = workload.generate(1, workload.tiny, tmp_path, NULL_TRACER)
    session = inputs["session"]
    scalar = workloads.switch_for_profile(session.profile,
                                          space=session.space)
    state = workload.prepare(inputs, NULL_TRACER, datapath=scalar)
    workload.execute(state)
    obs = workload.observe(inputs, state)
    assert any("silent downgrade" in problem
               for problem in workload.regime_problems(inputs, obs))


# -- the measured run's output schema -----------------------------------------

@pytest.mark.parametrize("trace, expected", [(False, run.END_TO_END),
                                             (True, run.PER_LAYER)])
def test_measured_run_prints_exactly_the_contracts_metrics(trace, expected,
                                                           tmp_path, capsys,
                                                           monkeypatch):
    monkeypatch.setattr(run, "MIN_ITERATIONS", 2)
    workload = workloads.WORKLOADS["victim-onoff-clean"]
    result = run.measure(workload, seed=2, seconds=0.0, trace=trace,
                         size=workload.tiny, scratch=tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2 * workload.tiny["packets"]
    assert list(result["metrics"]) == list(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]["unit"]
        assert isinstance(metric["value"], (int, float))
    run.print_run(result)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert set(json.loads(last)) == {"correct", "attempted", "failed",
                                     "metrics"}
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert values["trace.self_sum_frac"] == pytest.approx(1.0, abs=0.05)
        assert values["ovs.process_batch.calls"] == 32
        assert values["ovs.microflow.hit_frac"] > 0.9
        assert values["sim.final_masks"] == 1
        assert values["vec.active"] == 1
        assert values["feed.generate_s"] > 0
        assert (tmp_path / "trace-victim-onoff-clean-2.json").exists()
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_every_emitted_layer_metric_is_declared(tmp_path):
    """Nothing a traced iteration computes is silently dropped."""
    workload = workloads.WORKLOADS["victim-onoff-clean"]
    inputs = workload.generate(1, workload.tiny, tmp_path, NULL_TRACER)
    iteration = run.run_iteration(workload, inputs, traced=True)
    assert set(iteration.metrics) <= set(run.PER_LAYER)
    # and the patched classes are restored once the iteration ends
    assert layers.OvsSwitch.process_batch.__name__ == "process_batch"


def test_an_iteration_that_breaks_conservation_fails_its_packets(tmp_path,
                                                                 monkeypatch):
    workload = workloads.WORKLOADS["victim-onoff-clean"]
    real = workloads.probe

    def lossy(datapath):
        flat = real(datapath)
        flat["emc_hits"] = max(0, flat["emc_hits"] - 5)
        return flat

    monkeypatch.setattr(workloads, "probe", lossy)
    result = run.measure(workload, seed=1, seconds=0.0, trace=False,
                         size=workload.tiny, scratch=tmp_path)
    assert not result["correct"]
    assert result["failed"] >= workload.tiny["packets"]


# -- the suite's arithmetic ---------------------------------------------------

def _runs(pps, sim=None):
    return [
        {"correct": True, "exit": 0, "attempted": 10, "failed": 0,
         "detail": {"sim": sim or {"sim.packets": 10}},
         "metrics": {"pkts_per_s": {"value": value},
                     "wall_s": {"value": 10.0 / value},
                     "setup_s": {"value": 0.5},
                     "peak_rss_mb": {"value": 40.0}}}
        for value in pps
    ]


def test_quartiles_follow_statistics_quantiles():
    q = run.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q["median"], q["q1"], q["q3"], q["n"]) == (3.0, 1.5, 4.5, 5)
    assert run.quartiles([2.0])["q1"] == 2.0


def test_worse_by_respects_the_metrics_direction():
    assert run.worse_by("pkts_per_s", 100.0, 80.0) == pytest.approx(0.2)
    assert run.worse_by("pkts_per_s", 100.0, 120.0) == pytest.approx(-0.2)
    assert run.worse_by("wall_s", 1.0, 1.3) == pytest.approx(0.3)


def test_aa_passes_within_bounds_and_fails_beyond(capsys):
    base = {"w": run.summarise(_runs([100.0, 101.0, 99.0]))}
    near = {"w": run.summarise(_runs([104.0, 103.0, 105.0]))}
    far = {"w": run.summarise(_runs([50.0, 51.0, 49.0]))}
    drift = {"w": run.summarise(_runs([100.0, 100.0],
                                      sim={"sim.packets": 11}))}
    assert run.compare_sets(base, near) == []
    failures = run.compare_sets(base, far)
    assert [f.split(":")[0] for f in failures] == ["w/pkts_per_s",
                                                   "w/wall_s"]
    assert run.compare_sets(base, drift) == [
        "w: exact counts differ between sets"
    ]


def test_a_record_renders_as_markdown_tables():
    record = {
        "fingerprint": run.fingerprint(), "seed": 1, "seconds": 8,
        "repeats": 3,
        "summary": {"w": run.summarise(_runs([100.0, 101.0, 99.0]))},
        "layers": {"w": {name: {"value": 0.0} for name in run.PER_LAYER}},
    }
    record["layers"]["w"]["vec.active"]["value"] = 1
    text = run.render_tables(record)
    assert "| `w` | 100 [99 – 101] |" in text
    assert "| `vec.active` | count | 1 |" in text
    assert "ovs.upcall.calls" not in text  # all-zero rows are dropped
    assert set(record["fingerprint"]) == {"nproc", "cpu", "python", "numpy",
                                          "platform"}


# -- outside a checkout -------------------------------------------------------

def test_exits_non_zero_without_the_program_source(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: no result, non-zero exit."""
    root = Path(run.ROOT)
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "benchmarks" / "pipeline",
                    tmp_path / "benchmarks" / "pipeline",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/pipeline/run.py", "--workload",
         "mask-churn", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
    assert "nothing to measure" in done.stderr
