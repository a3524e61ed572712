"""The ordered wildcard rule set searched by the slow path.

Per the paper's Section 2: "A flow table is an ordered set of wildcard
rules [...]. OVS permits flow rules to overlap; if multiple rules in the
flow table match, the one added first will be applied."  Priorities
order first; insertion sequence breaks ties.
"""

from __future__ import annotations

from typing import Callable, Iterator, TypeVar

from repro.flow.fields import FieldSpace
from repro.flow.key import FlowKey
from repro.flow.rule import FlowRule

View = TypeVar("View")


class FlowTable:
    """An ordered, overlap-permitting wildcard rule table.

    The table is the only writer of its rules once they are added:
    every change to the rule set goes through :meth:`add`,
    :meth:`remove`, :meth:`remove_if` or :meth:`clear`, and each bumps
    :attr:`version`.  That is the one invalidation rule of every view
    compiled from the rules (:meth:`compiled`).
    """

    def __init__(self, space: FieldSpace, name: str = "table0") -> None:
        self.space = space
        self.name = name
        self._rules: list[FlowRule] = []
        self._next_seq = 0
        self._sorted = True
        #: advanced by every change to the rule set
        self.version = 0
        #: compile function -> (version it was built at, view)
        self._views: dict[Callable, tuple[int, object]] = {}

    # -- mutation ----------------------------------------------------------

    def add(self, rule: FlowRule) -> FlowRule:
        """Insert a rule; assigns its insertion sequence number."""
        if rule.match.space != self.space:
            raise ValueError(
                f"rule field space {rule.match.space!r} does not belong to "
                f"table space {self.space!r}"
            )
        rule.seq = self._next_seq
        self._next_seq += 1
        self._rules.append(rule)
        self._sorted = False
        self.version += 1
        return rule

    def add_all(self, rules: list[FlowRule]) -> None:
        """Insert several rules preserving their list order."""
        for rule in rules:
            self.add(rule)

    def remove(self, rule: FlowRule) -> None:
        """Remove one rule (identity comparison)."""
        for i, existing in enumerate(self._rules):
            if existing is rule:
                del self._rules[i]
                self.version += 1
                return
        raise KeyError("rule not present in table")

    def remove_if(self, predicate: Callable[[FlowRule], bool]) -> int:
        """Remove every rule matching a predicate; returns the count."""
        kept = [rule for rule in self._rules if not predicate(rule)]
        removed = len(self._rules) - len(kept)
        self._rules = kept
        if removed:
            self.version += 1
        return removed

    def clear(self) -> None:
        """Drop all rules (sequence numbers keep increasing)."""
        self._rules.clear()
        self.version += 1

    # -- lookup ------------------------------------------------------------

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._rules.sort(key=FlowRule.sort_key)
            self._sorted = True

    def lookup(self, key: FlowKey) -> FlowRule | None:
        """Return the winning rule for a key: the first match in
        (priority desc, insertion asc) order, or ``None``.

        This is the *reference* semantics; the OVS slow path in
        :mod:`repro.ovs.wildcarding` must agree with it exactly (a
        property the test suite checks with hypothesis).
        """
        self._ensure_sorted()
        for rule in self._rules:
            if rule.match.matches(key):
                return rule
        return None

    def compiled(self, compile: Callable[["FlowTable"], View]) -> View:
        """``compile(self)``, built at most once per :attr:`version`.

        ``compile`` must be a module-level function (it keys the cache)
        that reads the rules and returns a view of them, such as the
        slow path's rule plan or the cache-less backend's hash groups.
        """
        cached = self._views.get(compile)
        if cached is not None and cached[0] == self.version:
            return cached[1]  # type: ignore[return-value]
        view = compile(self)
        self._views[compile] = (self.version, view)
        return view

    # -- introspection -----------------------------------------------------

    def rules(self) -> list[FlowRule]:
        """All rules in lookup order (copy)."""
        self._ensure_sorted()
        return list(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[FlowRule]:
        self._ensure_sorted()
        return iter(list(self._rules))

    def __repr__(self) -> str:
        return f"FlowTable({self.name}, {len(self._rules)} rules)"
