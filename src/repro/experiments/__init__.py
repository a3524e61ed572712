"""``repro.experiments`` — regeneration of every paper table and figure.

One module per experiment (ids from DESIGN.md §4):

* :mod:`repro.experiments.fig2`        — E1: the Fig. 2a/2b megaflow table
* :mod:`repro.experiments.masks`       — E2/E3: in-text mask counts (8 / 512 / 8192)
* :mod:`repro.experiments.fig3`        — E4: the Fig. 3 time series
* :mod:`repro.experiments.degradation` — E5: the 80–90 % headline sweep
* :mod:`repro.experiments.defenses`    — E7: mitigation ablation
* :mod:`repro.experiments.ranking`     — E8: subtable-ranking ablation
* :mod:`repro.experiments.sharding`    — E9: multi-PMD sharding ablation
* :mod:`repro.experiments.rebalance`   — E10: RETA rebalancing ablation
* :mod:`repro.experiments.fleet`       — E11: fleet campaign ablation

Run everything: ``python -m repro experiment``.  E6 (TSS as a linear
search) has no module: ``tests/experiments/test_experiments.py``
holds it, beside the tier-1 checks of every other paper claim.
"""

from repro.experiments.fig2 import Fig2Result, run_fig2
from repro.experiments.fleet import FleetReport, run_fleet_ablation
from repro.experiments.masks import MaskCountResult, run_mask_counts
from repro.experiments.fig3 import Fig3Result, run_fig3
from repro.experiments.degradation import DegradationRow, run_degradation_sweep
from repro.experiments.defenses import DefenseRow, run_defense_ablation

__all__ = [
    "DefenseRow",
    "DegradationRow",
    "Fig2Result",
    "Fig3Result",
    "FleetReport",
    "MaskCountResult",
    "run_defense_ablation",
    "run_degradation_sweep",
    "run_fig2",
    "run_fleet_ablation",
    "run_fig3",
    "run_mask_counts",
]
