"""Run every experiment and emit the consolidated report: the
``repro experiment`` command.

Usage::

    python -m repro experiment             # everything
    python -m repro experiment fig2 fig3   # a subset
    python -m repro experiment --csv out/  # also dump CSV series

With ``--csv DIR`` every experiment dumps its data through
:meth:`~repro.scenario.session.ScenarioResult.to_csv`: time series for
the campaign experiments (one file per scenario), the megaflow/mask
tables for the static ones.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.experiments import (
    degradation,
    defenses,
    fig2,
    fig3,
    fleet,
    masks,
    ranking,
    rebalance,
    sharding,
)


def run_fig2_experiment(csv_dir: Path | None) -> str:
    result = fig2.run_fig2()
    if csv_dir is not None:
        result.scenario.to_csv(csv_dir / "fig2.csv")
    return result.render()


def run_masks_experiment(csv_dir: Path | None) -> str:
    results = masks.run_mask_counts()
    if csv_dir is not None:
        for item in results:
            if item.result is not None:
                item.result.to_csv(csv_dir)
    return masks.render(results)


def run_fig3_experiment(csv_dir: Path | None) -> str:
    result = fig3.run_fig3()
    if csv_dir is not None:
        result.scenario.to_csv(csv_dir / "fig3.csv")
    return result.render()


def run_degradation_experiment(csv_dir: Path | None) -> str:
    rows = degradation.run_degradation_sweep()
    if csv_dir is not None:
        for row in rows:
            if row.result is not None:
                row.result.to_csv(csv_dir)
    return degradation.render(rows)


def run_defenses_experiment(csv_dir: Path | None) -> str:
    rows = defenses.run_defense_ablation()
    if csv_dir is not None:
        for row in rows:
            if row.result is not None:
                row.result.to_csv(csv_dir)
    return defenses.render(rows)


def run_ranking_experiment(csv_dir: Path | None) -> str:
    rows = ranking.run_ranking_ablation()
    if csv_dir is not None:
        (csv_dir / "ranking.csv").write_text(
            "\n".join(ranking.to_csv_rows(rows)) + "\n"
        )
    return ranking.render(rows)


def run_sharding_experiment(csv_dir: Path | None) -> str:
    rows = sharding.run_sharding_ablation()
    if csv_dir is not None:
        (csv_dir / "sharding.csv").write_text(
            "\n".join(sharding.to_csv_rows(rows)) + "\n"
        )
    return sharding.render(rows)


def run_rebalance_experiment(csv_dir: Path | None) -> str:
    report = rebalance.run_rebalance_ablation()
    if csv_dir is not None:
        (csv_dir / "rebalance.csv").write_text(
            "\n".join(rebalance.to_csv_rows(report)) + "\n"
        )
    return rebalance.render(report)


def run_fleet_experiment(csv_dir: Path | None) -> str:
    report = fleet.run_fleet_ablation()
    if csv_dir is not None:
        (csv_dir / "fleet.csv").write_text(
            "\n".join(fleet.to_csv_rows(report)) + "\n"
        )
    return fleet.render(report)


EXPERIMENTS = {
    "fig2": ("E1: Fig. 2b megaflow table", run_fig2_experiment),
    "masks": ("E2/E3: in-text mask counts", run_masks_experiment),
    "fig3": ("E4: Fig. 3 time series", run_fig3_experiment),
    "degradation": ("E5: headline degradation sweep", run_degradation_experiment),
    "defenses": ("E7: mitigation ablation", run_defenses_experiment),
    "ranking": ("E8: subtable-ranking ablation", run_ranking_experiment),
    "sharding": ("E9: multi-PMD sharding ablation", run_sharding_experiment),
    "rebalance": ("E10: RETA rebalancing ablation", run_rebalance_experiment),
    "fleet": ("E11: fleet campaign ablation", run_fleet_experiment),
}


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the experiment arguments to the ``repro experiment``
    subcommand."""
    parser.add_argument(
        "experiments",
        nargs="*",
        choices=[*EXPERIMENTS, "all"],
        # a string, not a list: argparse checks a ``*`` positional's
        # default against ``choices`` as one value
        default="all",
        metavar="experiment",
        help=f"which experiments to run: {', '.join([*EXPERIMENTS, 'all'])} "
        "(default: all)",
    )
    parser.add_argument(
        "--csv",
        type=Path,
        default=None,
        metavar="DIR",
        help="directory for CSV dumps (every experiment writes here)",
    )


def execute(args: argparse.Namespace) -> int:
    """Run the selected experiments from parsed arguments, printing
    each one's report under a banner."""
    selected = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    if args.csv is not None:
        args.csv.mkdir(parents=True, exist_ok=True)

    for name in selected:
        title, runner = EXPERIMENTS[name]
        banner = f"== {title} =="
        print(banner)
        print(runner(args.csv))
        print()
    return 0
