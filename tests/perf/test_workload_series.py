"""Tests for workload descriptions and time-series containers."""

import csv
import io

import pytest

from repro.perf.series import TimeSeries, Window
from repro.perf.workload import AttackerWorkload, VictimWorkload


class TestVictimWorkload:
    def test_offered_pps(self):
        victim = VictimWorkload(offered_bps=1e9, frame_bytes=1500)
        assert victim.offered_pps == pytest.approx(1e9 / 12000)

    def test_from_text(self):
        victim = VictimWorkload.from_text("1 Gbps")
        assert victim.offered_bps == 1e9

    def test_miss_fraction(self):
        victim = VictimWorkload(offered_bps=1e9, new_flows_per_sec=500)
        assert victim.miss_fraction == pytest.approx(500 / victim.offered_pps)
        idle = VictimWorkload(offered_bps=0)
        assert idle.miss_fraction == 0.0


class TestBucketWeights:
    """The elephant-flow / skewed-Zipf victim axis."""

    def test_uniform_when_skew_zero(self):
        weights = VictimWorkload().bucket_weights(128)
        assert weights == [1.0 / 128] * 128

    def test_skewed_weights_normalise_and_are_heavy_tailed(self):
        victim = VictimWorkload(skew=1.2)
        weights = victim.bucket_weights(128, seed=7)
        assert sum(weights) == pytest.approx(1.0)
        ordered = sorted(weights, reverse=True)
        # a genuine heavy tail: the top bucket dwarfs the median
        assert ordered[0] > 10 * ordered[64]

    def test_deterministic_per_seed_and_scattered(self):
        victim = VictimWorkload(skew=1.0)
        a = victim.bucket_weights(64, seed=3)
        assert a == victim.bucket_weights(64, seed=3)
        assert a != victim.bucket_weights(64, seed=4)
        # the hot bucket is shuffled away from index 0 for some seed
        hot_positions = {
            max(range(64), key=victim.bucket_weights(64, seed=s).__getitem__)
            for s in range(4)
        }
        assert hot_positions != {0}

    def test_rejects_empty_bucket_space(self):
        with pytest.raises(ValueError):
            VictimWorkload(skew=1.0).bucket_weights(0)


class TestAttackerWorkload:
    def test_paper_covert_stream_rates(self):
        attacker = AttackerWorkload(rate_bps=2e6, frame_bytes=64)
        # 2 Mbps of 64B frames ≈ 3906 pps — far above the ~820 pps the
        # 8192-mask refresh requires
        assert attacker.rate_pps == pytest.approx(3906.25)
        assert attacker.rate_pps > 8192 / 10.0

    def test_from_text(self):
        attacker = AttackerWorkload.from_text("1.5 Mbps")
        assert attacker.rate_bps == 1.5e6

    def test_activation(self):
        attacker = AttackerWorkload(start_time=60.0)
        assert not attacker.active_at(59.9)
        assert attacker.active_at(60.0)

    def test_packets_due(self):
        attacker = AttackerWorkload(rate_bps=64 * 8 * 100, frame_bytes=64, start_time=10.0)
        assert attacker.packets_due(0.0, 5.0) == 0
        assert attacker.packets_due(10.0, 11.0) == 100
        assert attacker.packets_due(9.5, 10.5) == 50


class TestTimeSeries:
    def _series(self):
        series = TimeSeries(columns=["t", "v"])
        for t in range(10):
            series.append(t=float(t), v=float(t * 10))
        return series

    def test_append_requires_all_columns(self):
        series = TimeSeries(columns=["t", "v"])
        with pytest.raises(ValueError):
            series.append(t=1.0)

    def test_column_and_last(self):
        series = self._series()
        assert series.column("v")[:3] == [0.0, 10.0, 20.0]
        assert series.last("v") == 90.0

    def test_windowed_mean(self):
        series = self._series()
        assert series.mean("v") == pytest.approx(45.0)
        assert series.mean("v", Window(0.0, 5.0)) == pytest.approx(20.0)

    def test_empty_window_raises(self):
        series = self._series()
        with pytest.raises(ValueError):
            series.mean("v", Window(100.0, 200.0))

    def test_last_on_empty_raises(self):
        with pytest.raises(IndexError):
            TimeSeries(columns=["t"]).last("t")

    def test_csv_roundtrip(self, tmp_path):
        series = self._series()
        path = tmp_path / "series.csv"
        text = series.to_csv(path)
        assert path.read_text() == text
        header, *rows = csv.reader(io.StringIO(text))
        assert header == series.columns
        assert [[float(cell) for cell in row] for row in rows] == series.rows

    def test_iter_dicts(self):
        series = self._series()
        first = next(iter(series))
        assert first == {"t": 0.0, "v": 0.0}
