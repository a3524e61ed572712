"""Check the whole golden record: every preset at seeds 1 and 23, the
stdout of E1, E2/E3, E4, E8, E9, E10 and the rolling fleet campaign,
and the rendered ``fig3`` and ``calico-detector`` scenarios.

    PYTHONPATH=src python tests/golden/check.py

Prints one line per mismatch and exits 1 if there is any (about 45 s).
The record's format and its re-baselining rule are in
``tests/test_golden.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.scenario.presets import SCENARIOS
from repro.scenario.session import Session
from repro.testing import result_digest

GOLDEN = Path(__file__).parent

#: record file -> the ``repro`` arguments whose stdout it holds
OUTPUTS = {
    "experiment-fig2.txt": ("experiment", "fig2"),
    "experiment-fig3.txt": ("experiment", "fig3"),
    "experiment-masks.txt": ("experiment", "masks"),
    "experiment-ranking.txt": ("experiment", "ranking"),
    "experiment-sharding.txt": ("experiment", "sharding"),
    "experiment-rebalance.txt": ("experiment", "rebalance"),
    "fleet-fleet-rolling16.txt": ("fleet", "fleet-rolling16"),
    "scenario-fig3.txt": ("scenario", "fig3"),
    "scenario-calico-detector.txt": ("scenario", "calico-detector"),
}


def mismatches() -> list[str]:
    found = []
    table = json.loads((GOLDEN / "presets.json").read_text())
    for seed, digests in table.items():
        if list(digests) != SCENARIOS.names():
            found.append(f"seed {seed}: the record's presets are not "
                         "the registered ones")
        for name, expected in digests.items():
            result = Session(SCENARIOS.get(name).evolve(seed=int(seed))).run()
            if result_digest(result) != expected:
                found.append(f"preset {name} at seed {seed}")
    for record, args in OUTPUTS.items():
        out = subprocess.run([sys.executable, "-m", "repro", *args],
                             capture_output=True, text=True, check=True)
        if out.stdout != (GOLDEN / record).read_text():
            found.append(f"`repro {' '.join(args)}` stdout vs {record}")
    return found


if __name__ == "__main__":
    problems = mismatches()
    for problem in problems:
        print(f"golden record mismatch: {problem}")
    print(f"golden record: {'FAILED' if problems else 'ok'}")
    sys.exit(1 if problems else 0)
