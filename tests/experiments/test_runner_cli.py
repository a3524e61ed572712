"""Tests for the experiment runner and the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import EXIT_CLOSED_STDOUT, build_parser, main
from repro.experiments.runner import EXPERIMENTS

SRC = Path(__file__).resolve().parents[2] / "src"


class TestRunner:
    def test_experiment_registry_covers_design_index(self):
        # every experiment id from DESIGN.md §4 that has a runner entry,
        # plus the subtable-ranking (E8), multi-PMD sharding (E9),
        # RETA rebalancing (E10) and fleet campaign (E11) ablations
        assert set(EXPERIMENTS) == {
            "fig2", "masks", "fig3", "degradation", "defenses", "ranking",
            "sharding", "rebalance", "fleet",
        }

    def test_run_single_experiment(self, capsys):
        assert main(["experiment", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out
        assert "MATCHES Fig. 2b exactly" in out

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["experiment", "fig2", "figure-null"])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro experiment ")
        assert "'figure-null'" in err

    def test_csv_output(self, tmp_path, capsys):
        assert main(["experiment", "fig2", "--csv", str(tmp_path)]) == 0
        # every experiment routes through ScenarioResult.to_csv now
        assert "00001010" in (tmp_path / "fig2.csv").read_text()

    def test_csv_output_per_scenario(self, tmp_path, capsys):
        assert main(["experiment", "masks", "--csv", str(tmp_path)]) == 0
        assert "8192" in capsys.readouterr().out
        for name in ("prefix8", "k8s", "openstack", "calico"):
            assert (tmp_path / f"masks-{name}.csv").exists()


class TestCliPlan:
    def test_plan_calico(self, capsys):
        assert main(["plan", "calico"]) == 0
        out = capsys.readouterr().out
        assert "reachable megaflow masks: 8192" in out
        assert "819 pps" in out

    def test_plan_k8s(self, capsys):
        assert main(["plan", "k8s"]) == 0
        out = capsys.readouterr().out
        assert "reachable megaflow masks: 512" in out

    def test_plan_prefix8(self, capsys):
        assert main(["plan", "prefix8"]) == 0
        assert "reachable megaflow masks: 8" in capsys.readouterr().out

    def test_unknown_surface(self):
        with pytest.raises(SystemExit):
            main(["plan", "azure"])


class TestCliCraft:
    def test_craft_writes_pcap(self, tmp_path, capsys):
        path = tmp_path / "covert.pcap"
        assert main(["craft", "prefix8", str(path)]) == 0
        out = capsys.readouterr().out
        assert "wrote 8 covert frames" in out
        from repro.net.pcap import PcapReader

        assert len(PcapReader(path).read_all()) == 8

    def test_craft_custom_rate(self, tmp_path):
        path = tmp_path / "covert.pcap"
        assert main(["craft", "prefix8", str(path), "--rate-pps", "100"]) == 0
        from repro.net.pcap import PcapReader

        packets = PcapReader(path).read_all()
        assert packets[1].timestamp - packets[0].timestamp == pytest.approx(0.01)


class TestCliMisc:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        assert "Fig. 2b" in capsys.readouterr().out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_a_closed_stdout_ends_the_run_quietly(self):
        # unbuffered, the first banner reaches the pipe at once; the
        # nine tables take seconds after it, so a later print meets the
        # pipe this side has closed
        env = {**os.environ, "PYTHONPATH": str(SRC),
               "PYTHONUNBUFFERED": "1", "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "experiment", "all"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline().startswith(b"== E1: ")
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert err == b""
        assert proc.returncode == EXIT_CLOSED_STDOUT
