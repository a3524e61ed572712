#!/usr/bin/env python3
"""The full-blown DoS (Fig. 3): Calico surface, 8192 masks, collapse.

Reruns the paper's headline experiment — victim at ~1 Gbps, attacker
feeding her injected ACL with a ≤2 Mbps covert stream at t = 60 s —
through the Scenario API and renders the two-panel Fig. 3 time series
plus a CSV dump.

Run:  python examples/calico_full_dos.py [output.csv]
"""

import sys

from repro.scenario import Session
from repro.util.units import format_bps

print("running the Fig. 3 campaign (150 simulated seconds)...\n")
result = Session("fig3").run()
print(result.render())

sim = result.simulation
prediction = result.prediction
print()
print("attack economics:")
print(f"  covert packets to install all masks: {prediction.covert_packets}")
print(f"  refresh rate to sustain them:        {prediction.refresh_pps:.0f} pps "
      f"({format_bps(prediction.refresh_bps)})")
print(f"  victim collateral:                   "
      f"{format_bps(sim.pre_attack_mean_bps())} -> "
      f"{format_bps(sim.post_attack_mean_bps())}")

if len(sys.argv) > 1:
    path = sys.argv[1]
    sim.series.to_csv(path)
    print(f"\ntime series written to {path}")
