"""Good/bad fixture coverage for every AST checker.

Each fixture tree is written under ``tmp_path`` and linted with
``run_lint(..., project_checks=False)``; scoping is by repo-relative
path suffix, so ``<tmp>/runtime/bad.py`` exercises the fork-safety
rule exactly like ``src/repro/runtime/parallel.py`` does.
"""

from pathlib import Path

from repro.analysis.runner import run_lint


def _lint(tmp_path: Path, files: dict[str, str], rules: list[str] | None = None):
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return run_lint([tmp_path], root=tmp_path, rules=rules,
                    project_checks=False)


def _rules_hit(result) -> set[str]:
    return {f.rule for f in result.findings}


class TestDeterminismRandom:
    def test_bad_import_random(self, tmp_path):
        result = _lint(tmp_path, {"mod.py": "import random\n"},
                       rules=["determinism-random"])
        assert _rules_hit(result) == {"determinism-random"}

    def test_bad_from_secrets_and_urandom(self, tmp_path):
        result = _lint(tmp_path, {
            "a.py": "from secrets import token_bytes\n",
            "b.py": "import os\nx = os.urandom(8)\n",
            "c.py": "import uuid\nu = uuid.uuid4()\n",
        }, rules=["determinism-random"])
        assert len(result.findings) == 3

    def test_good_rng_module_exempt(self, tmp_path):
        result = _lint(tmp_path, {"util/rng.py": "import random\n"},
                       rules=["determinism-random"])
        assert result.findings == []

    def test_good_seeded_rng_use(self, tmp_path):
        result = _lint(tmp_path, {
            "mod.py": "from repro.util.rng import DeterministicRng\n"
                      "rng = DeterministicRng(1)\n",
        }, rules=["determinism-random"])
        assert result.findings == []


class TestDeterminismHash:
    def test_bad_builtin_hash(self, tmp_path):
        result = _lint(tmp_path, {"mod.py": "x = hash('name')\n"},
                       rules=["determinism-hash"])
        assert _rules_hit(result) == {"determinism-hash"}

    def test_good_inside_dunder_hash(self, tmp_path):
        result = _lint(tmp_path, {
            "mod.py": "class K:\n"
                      "    def __hash__(self):\n"
                      "        return hash(self.values)\n",
        }, rules=["determinism-hash"])
        assert result.findings == []

    def test_pragma_suppresses(self, tmp_path):
        result = _lint(tmp_path, {
            "mod.py": "x = hash((1, 2))  # repro-lint: disable=determinism-hash\n",
        }, rules=["determinism-hash"])
        assert result.findings == []
        assert result.suppressed == 1


class TestWallClock:
    def test_bad_perf_counter(self, tmp_path):
        result = _lint(tmp_path, {
            "mod.py": "import time\nt = time.perf_counter()\n",
        }, rules=["wall-clock"])
        assert _rules_hit(result) == {"wall-clock"}

    def test_bad_bare_import_name(self, tmp_path):
        result = _lint(tmp_path, {
            "mod.py": "from time import perf_counter\nt = perf_counter()\n",
        }, rules=["wall-clock"])
        assert len(result.findings) == 1

    def test_bad_datetime_now(self, tmp_path):
        result = _lint(tmp_path, {
            "mod.py": "from datetime import datetime\n"
                      "stamp = datetime.now()\n",
        }, rules=["wall-clock"])
        assert len(result.findings) == 1

    def test_good_benchmarks_out_of_scope(self, tmp_path):
        result = _lint(tmp_path, {
            "benchmarks/bench.py": "import time\nt = time.perf_counter()\n",
        }, rules=["wall-clock"])
        assert result.findings == []

    def test_good_serve_run_allowlisted(self, tmp_path):
        result = _lint(tmp_path, {
            "runtime/service.py": "import time\n"
                                  "def run(self):\n"
                                  "    return time.perf_counter()\n",
        }, rules=["wall-clock"])
        assert result.findings == []

    def test_bad_serve_other_function(self, tmp_path):
        result = _lint(tmp_path, {
            "runtime/service.py": "import time\n"
                                  "def snapshot(self):\n"
                                  "    return time.perf_counter()\n",
        }, rules=["wall-clock"])
        assert len(result.findings) == 1

    def test_good_obs_wall_pps_allowlisted(self, tmp_path):
        result = _lint(tmp_path, {
            "obs/export.py": "import time\n"
                             "def wall_pps_snapshot(packets, started):\n"
                             "    return time.perf_counter() - started\n",
        }, rules=["wall-clock"])
        assert result.findings == []

    def test_bad_obs_other_function(self, tmp_path):
        result = _lint(tmp_path, {
            "obs/export.py": "import time\n"
                             "def prometheus_text(t):\n"
                             "    return time.perf_counter()\n",
        }, rules=["wall-clock"])
        assert len(result.findings) == 1


class TestMetricHygiene:
    def test_bad_non_literal_metric_name(self, tmp_path):
        result = _lint(tmp_path, {
            "perf/mod.py": "def setup(telemetry, name):\n"
                           "    return telemetry.counter(name)\n",
        }, rules=["metric-hygiene"])
        assert _rules_hit(result) == {"metric-hygiene"}

    def test_bad_malformed_metric_name(self, tmp_path):
        result = _lint(tmp_path, {
            "perf/mod.py": "def setup(tele):\n"
                           "    return tele.gauge('Masks-Per-Node')\n",
        }, rules=["metric-hygiene"])
        assert len(result.findings) == 1

    def test_bad_single_segment_name(self, tmp_path):
        result = _lint(tmp_path, {
            "perf/mod.py": "def setup(telemetry):\n"
                           "    return telemetry.histogram('cycles')\n",
        }, rules=["metric-hygiene"])
        assert len(result.findings) == 1

    def test_bad_fstring_span_name(self, tmp_path):
        result = _lint(tmp_path, {
            "ovs/mod.py": "def sweep(self, now, shard):\n"
                          "    self.trace.record(f'sweep.{shard}', now)\n",
        }, rules=["metric-hygiene"])
        assert len(result.findings) == 1

    def test_good_literal_names_and_labels(self, tmp_path):
        result = _lint(tmp_path, {
            "perf/mod.py": "def setup(self, telemetry, node):\n"
                           "    c = telemetry.counter("
                           "'sim.attacker.packets', node=node)\n"
                           "    self.trace.record("
                           "'ovs.revalidator.sweep', 1.0, shard=2)\n",
        }, rules=["metric-hygiene"])
        assert result.findings == []

    def test_bad_adhoc_dict_counter_in_instrumented_module(self, tmp_path):
        result = _lint(tmp_path, {
            "runtime/mod.py": "from repro.obs import Telemetry\n"
                              "counts = {}\n"
                              "def tally():\n"
                              "    counts['upcalls'] += 1\n",
        }, rules=["metric-hygiene"])
        assert len(result.findings) == 1

    def test_good_dict_counter_without_obs_import(self, tmp_path):
        result = _lint(tmp_path, {
            "perf/mod.py": "counts = {}\n"
                           "def tally():\n"
                           "    counts['cursor'] += 1\n",
        }, rules=["metric-hygiene"])
        assert result.findings == []

    def test_good_obs_package_exempt(self, tmp_path):
        result = _lint(tmp_path, {
            "obs/profile.py": "from repro.obs.trace import SpanEvent\n"
                              "def tree(root, cycles):\n"
                              "    root['cycles'] += cycles\n",
        }, rules=["metric-hygiene"])
        assert result.findings == []

    def test_good_unrelated_record_call(self, tmp_path):
        result = _lint(tmp_path, {
            "perf/mod.py": "def note(recorder, name):\n"
                           "    recorder.record(name, 1.0)\n",
        }, rules=["metric-hygiene"])
        assert result.findings == []

    def test_good_sleep_is_not_a_clock_read(self, tmp_path):
        result = _lint(tmp_path, {"mod.py": "import time\ntime.sleep(0)\n"},
                       rules=["wall-clock"])
        assert result.findings == []


class TestBatchFirst:
    def test_bad_per_key_process_in_loop(self, tmp_path):
        result = _lint(tmp_path, {
            "mod.py": "def run(dp, keys):\n"
                      "    for key in keys:\n"
                      "        dp.process(key)\n",
        }, rules=["batch-first"])
        assert _rules_hit(result) == {"batch-first"}

    def test_good_process_batch_call(self, tmp_path):
        result = _lint(tmp_path, {
            "mod.py": "def run(dp, keys):\n"
                      "    return dp.process_batch(keys)\n",
        }, rules=["batch-first"])
        assert result.findings == []

    def test_good_single_call_outside_loop(self, tmp_path):
        result = _lint(tmp_path, {"mod.py": "r = dp.process(key)\n"},
                       rules=["batch-first"])
        assert result.findings == []

    def test_good_delegation_wrappers_exempt(self, tmp_path):
        # the single-key wrapper contract itself loops over workers
        result = _lint(tmp_path, {
            "mod.py": "class D:\n"
                      "    def process_batch(self, keys):\n"
                      "        for k in keys:\n"
                      "            self.inner.process(k)\n",
        }, rules=["batch-first"])
        assert result.findings == []


class TestNumpyGating:
    def test_bad_import_outside_vec(self, tmp_path):
        result = _lint(tmp_path, {"ovs/mod.py": "import numpy as np\n"},
                       rules=["numpy-gating"])
        assert _rules_hit(result) == {"numpy-gating"}

    def test_bad_ungated_top_level_in_vec(self, tmp_path):
        result = _lint(tmp_path, {"vec/engine.py": "import numpy as np\n"},
                       rules=["numpy-gating"])
        assert len(result.findings) == 1

    def test_good_gated_import_in_vec(self, tmp_path):
        result = _lint(tmp_path, {
            "vec/__init__.py": "try:\n"
                               "    import numpy as np\n"
                               "    HAVE_NUMPY = True\n"
                               "except ImportError:\n"
                               "    np = None\n"
                               "    HAVE_NUMPY = False\n",
        }, rules=["numpy-gating"])
        assert result.findings == []

    def test_good_function_level_import_in_vec(self, tmp_path):
        result = _lint(tmp_path, {
            "vec/engine.py": "def build():\n    import numpy as np\n"
                             "    return np.zeros(4)\n",
        }, rules=["numpy-gating"])
        assert result.findings == []


class TestForkSafety:
    def test_bad_packetresult_over_mailbox(self, tmp_path):
        result = _lint(tmp_path, {
            "runtime/mod.py": "def flush(self, results):\n"
                              "    self.pipe.send(results)\n",
        }, rules=["fork-safety"])
        assert _rules_hit(result) == {"fork-safety"}

    def test_good_outside_runtime_out_of_scope(self, tmp_path):
        result = _lint(tmp_path, {
            "ovs/mod.py": "def flush(self, results):\n"
                          "    self.pipe.send(results)\n",
        }, rules=["fork-safety"])
        assert result.findings == []

    def test_good_aggregate_counters_over_mailbox(self, tmp_path):
        result = _lint(tmp_path, {
            "runtime/mod.py": "def flush(self, tallies):\n"
                              "    self.pipe.send(tallies)\n",
        }, rules=["fork-safety"])
        assert result.findings == []


class TestMonotonicClock:
    def test_bad_unclamped_assignment(self, tmp_path):
        result = _lint(tmp_path, {
            "topo/network.py": "def advance_clock(self, now):\n"
                               "    self.clock = now\n",
        }, rules=["monotonic-clock"])
        assert _rules_hit(result) == {"monotonic-clock"}

    def test_good_max_clamp(self, tmp_path):
        result = _lint(tmp_path, {
            "topo/network.py": "def advance_clock(self, now):\n"
                               "    self.clock = max(self.clock, now)\n",
        }, rules=["monotonic-clock"])
        assert result.findings == []

    def test_good_guarded_assignment(self, tmp_path):
        result = _lint(tmp_path, {
            "ovs/switch.py": "def _advance(self, now):\n"
                             "    if now > self.clock:\n"
                             "        self.clock = now\n",
        }, rules=["monotonic-clock"])
        assert result.findings == []

    def test_good_zero_initialisation(self, tmp_path):
        result = _lint(tmp_path, {
            "ovs/switch.py": "def __init__(self):\n    self.clock = 0.0\n",
        }, rules=["monotonic-clock"])
        assert result.findings == []

    def test_bad_unclamped_assignment_in_any_module(self, tmp_path):
        # the telemetry clock is no datapath's, and is held all the same
        result = _lint(tmp_path, {
            "obs/telemetry.py": "def advance(self, now):\n"
                                "    self.clock = now\n",
        }, rules=["monotonic-clock"])
        assert _rules_hit(result) == {"monotonic-clock"}


class TestCrossCutting:
    def test_disable_file_comment_leaves_every_finding_live(self, tmp_path):
        result = _lint(tmp_path, {
            "mod.py": "# repro-lint: disable-file=determinism-hash\n"
                      "a = hash('x')\n"
                      "b = hash('y')\n",
        }, rules=["determinism-hash"])
        assert [f.line for f in result.findings] == [2, 3]
        assert result.suppressed == 0
        assert not result.ok

    def test_same_line_pragma_accepts_one_finding(self, tmp_path):
        result = _lint(tmp_path, {
            "mod.py": "a = hash('x')  # repro-lint: disable=determinism-hash\n"
                      "b = hash('y')\n",
        }, rules=["determinism-hash"])
        assert [f.line for f in result.findings] == [2]
        assert result.suppressed == 1

    def test_syntax_error_reported_not_crashed(self, tmp_path):
        result = _lint(tmp_path, {"mod.py": "def broken(:\n"})
        assert result.findings == []
        assert len(result.errors) == 1
        assert "cannot parse" in result.errors[0]
        assert not result.ok

    def test_findings_sorted_by_location(self, tmp_path):
        result = _lint(tmp_path, {
            "b.py": "import random\n",
            "a.py": "x = hash('k')\nimport secrets\n",
        }, rules=["determinism-random", "determinism-hash"])
        keys = [(f.path, f.line) for f in result.findings]
        assert keys == sorted(keys)
