"""Cycle-attribution profiles: where did the charged cycles go?

Every cost the repo models flows through
:class:`~repro.perf.costmodel.CostModel` as *cycles* — attacker covert
replay, victim service, revalidator sweeps.  :class:`CycleProfile`
aggregates those charges by ``(layer, phase, node, shard)`` into a
flamegraph-style tree, so "the 512-mask campaign spent 83% of its
cycles scanning subtables on shard 2" is one query, not a spreadsheet
join over three exporters.

The profile is pure accumulation — floats added in call order — so a
seeded run reproduces it bit for bit, and
``tests/obs/test_determinism.py`` can assert the tree's total equals
the campaign's total charged cycles exactly.

With telemetry off there is no profile: the simulator charges one only
when it was given a :class:`~repro.obs.telemetry.Telemetry`.
"""

from __future__ import annotations

from typing import Any

__all__ = ["CycleProfile"]


class CycleProfile:
    """Cycle charges aggregated by ``(layer, phase, node, shard)``."""

    def __init__(self) -> None:
        self._charges: dict[tuple[str, str, str, int], float] = {}

    def charge(self, layer: str, phase: str, cycles: float, *,
               node: str = "", shard: int = -1) -> None:
        """Attribute ``cycles`` to one (layer, phase, node, shard) leaf."""
        key = (layer, phase, node, shard)
        self._charges[key] = self._charges.get(key, 0.0) + cycles

    @property
    def total(self) -> float:
        """All cycles charged, across every leaf."""
        return sum(self._charges.values())

    def __len__(self) -> int:
        return len(self._charges)

    def tree(self) -> dict[str, Any]:
        """The flamegraph-style nesting: root → layer → phase → node →
        shard, each frame carrying its aggregate ``cycles`` and sorted
        children (deterministic regardless of charge order)."""

        def frame(name: str) -> dict[str, Any]:
            return {"name": name, "cycles": 0.0, "children": {}}

        root = frame("campaign")
        for (layer, phase, node, shard), cycles in sorted(
            self._charges.items()
        ):
            root["cycles"] += cycles
            level = root
            for part in (layer, phase, node or "-",
                         "all" if shard < 0 else f"shard{shard}"):
                level = level["children"].setdefault(part, frame(part))
                level["cycles"] += cycles

        def finish(node_frame: dict[str, Any]) -> dict[str, Any]:
            return {
                "name": node_frame["name"],
                "cycles": node_frame["cycles"],
                "children": [
                    finish(child)
                    for _key, child in sorted(node_frame["children"].items())
                ],
            }

        return finish(root)

    def to_dict(self) -> dict[str, Any]:
        """The stable snapshot view: the tree plus the flat leaves."""
        return {
            "total_cycles": self.total,
            "tree": self.tree(),
            "leaves": [
                {"layer": layer, "phase": phase, "node": node,
                 "shard": shard, "cycles": cycles}
                for (layer, phase, node, shard), cycles in sorted(
                    self._charges.items()
                )
            ],
        }

    def render(self, min_percent: float = 0.0) -> str:
        """An indented text flamegraph (percent of total per frame)."""
        total = self.total
        lines: list[str] = [f"total charged cycles: {total:.0f}"]
        if total <= 0:
            return lines[0]

        def walk(node_frame: dict[str, Any], depth: int) -> None:
            share = 100.0 * node_frame["cycles"] / total
            if depth and share < min_percent:
                return
            if depth:
                lines.append(
                    f"{'  ' * depth}{node_frame['name']:<24s} "
                    f"{share:6.2f}%  ({node_frame['cycles']:.0f} cycles)"
                )
            for child in node_frame["children"]:
                walk(child, depth + 1)

        walk(self.tree(), 0)
        return "\n".join(lines)
