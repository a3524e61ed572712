"""Project-level checkers: registry introspection against the live tree."""

from pathlib import Path

from repro.analysis.core import CHECKERS
from repro.perf.factory import DatapathConfig
from repro.scenario import BACKENDS, SCENARIOS
from repro.scenario.spec import ScenarioSpec
from repro.vec import HAVE_NUMPY

REPO_ROOT = Path(__file__).resolve().parents[2]


def _findings(rule: str):
    checker = CHECKERS.get(rule)
    return list(checker.check_project(REPO_ROOT))


class TestProtocolConformance:
    def test_shipped_backends_conform(self):
        assert [f.format() for f in _findings("protocol-conformance")] == []

    def test_probes_the_config_product_not_backend_names(self, monkeypatch):
        """Every engine class in every cell the validation table accepts
        — the scalar OvsSwitch and the engine ``ovs`` resolves to, each
        on worker processes too — and ``cacheless`` on its one cell."""
        built = []
        assemble = DatapathConfig._assemble

        def spy(config, switch_cls):
            built.append((config.engine, switch_cls.__name__,
                          config.runtime, config.shards))
            return assemble(config, switch_cls)

        monkeypatch.setattr(DatapathConfig, "_assemble", spy)
        assert _findings("protocol-conformance") == []
        cells = [("inline", 1), ("inline", 2), ("processes", 2)]
        classes = ["OvsSwitch", BACKENDS.get("ovs")().__name__]
        assert sorted(built) == sorted(
            [("ovs", cls, *cell) for cls in classes for cell in cells]
            + [("cacheless", "CachelessDatapath", "inline", 1)]
        )
        if HAVE_NUMPY:
            assert classes == ["OvsSwitch", "VecSwitch"]

    def test_under_implemented_backend_flagged(self, monkeypatch):
        class Stub:
            """Implements nothing of the Datapath surface."""

            def __init__(self, *args, **kwargs):
                pass

        # the registry's value shape: a resolver returning the class
        monkeypatch.setitem(BACKENDS._items, "stub", lambda: Stub)
        findings = _findings("protocol-conformance")
        assert findings, "the stub backend must be flagged"
        assert all(f.rule == "protocol-conformance" for f in findings)
        assert any("'stub'" in f.message and "missing protocol member"
                   in f.message for f in findings)
        # the real backends still conform: every finding names the stub
        assert all("'stub'" in f.message for f in findings)

    def test_unbuildable_backend_reported_not_crashed(self, monkeypatch):
        def explode():
            raise RuntimeError("boom")

        monkeypatch.setitem(BACKENDS._items, "broken", explode)
        findings = _findings("protocol-conformance")
        assert any("'broken'" in f.message and "could not be built"
                   in f.message for f in findings)


class TestRegistryHygiene:
    def test_shipped_presets_are_clean(self):
        assert [f.format() for f in _findings("registry-hygiene")] == []

    def test_dangling_backend_key_flagged(self, monkeypatch):
        good = SCENARIOS.get("fig2")
        bad = ScenarioSpec.from_dict(
            {**good.to_dict(), "backend": "no-such-backend"}
        )
        monkeypatch.setitem(SCENARIOS._items, "bad-preset", bad)
        findings = _findings("registry-hygiene")
        assert any("'bad-preset'" in f.message
                   and "'no-such-backend'" in f.message for f in findings)

    def test_findings_anchor_at_registration_sites(self, monkeypatch):
        good = SCENARIOS.get("fig2")
        bad = ScenarioSpec.from_dict(
            {**good.to_dict(), "surface": "no-such-surface"}
        )
        monkeypatch.setitem(SCENARIOS._items, "bad-preset", bad)
        findings = [f for f in _findings("registry-hygiene")
                    if "'bad-preset'" in f.message]
        assert findings
        assert all(f.path == "src/repro/scenario/presets.py"
                   for f in findings)
