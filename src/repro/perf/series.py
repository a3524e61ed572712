"""Time-series containers for experiment output (Fig. 3 and friends)."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator


@dataclass
class TimeSeries:
    """Named columns sampled over time, with CSV and summary helpers."""

    columns: list[str]
    rows: list[list[float]] = field(default_factory=list)

    def append(self, **values: float) -> None:
        """Add one sample; every column must be provided."""
        missing = set(self.columns) - set(values)
        if missing:
            raise ValueError(f"missing columns: {sorted(missing)}")
        self.rows.append([float(values[c]) for c in self.columns])

    def column(self, name: str) -> list[float]:
        """All samples of one column."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def last(self, name: str) -> float:
        """Most recent sample of a column."""
        if not self.rows:
            raise IndexError("series is empty")
        return self.rows[-1][self.columns.index(name)]

    def mean(self, name: str, where: "Window | None" = None) -> float:
        """Mean of a column, optionally restricted to a time window (the
        first column is assumed to be time)."""
        values = self._windowed(name, where)
        if not values:
            raise ValueError("no samples in window")
        return sum(values) / len(values)

    def minimum(self, name: str, where: "Window | None" = None) -> float:
        """Minimum of a column within an optional window."""
        values = self._windowed(name, where)
        if not values:
            raise ValueError("no samples in window")
        return min(values)

    def maximum(self, name: str, where: "Window | None" = None) -> float:
        """Maximum of a column within an optional window."""
        values = self._windowed(name, where)
        if not values:
            raise ValueError("no samples in window")
        return max(values)

    def _windowed(self, name: str, where: "Window | None") -> list[float]:
        values = self.column(name)
        if where is None:
            return values
        times = self.column(self.columns[0])
        return [v for t, v in zip(times, values) if where.start <= t < where.end]

    def to_csv(self, path: str | Path | None = None) -> str:
        """Render as CSV; optionally also write to a file."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        text = buffer.getvalue()
        if path is not None:
            Path(path).write_text(text)
        return text

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[dict[str, float]]:
        for row in self.rows:
            yield dict(zip(self.columns, row))


@dataclass(frozen=True)
class Window:
    """A half-open time interval ``[start, end)`` for summaries."""

    start: float
    end: float
