"""Command line interface.

Subcommands: run a configured experiment, optimize anchor placement,
complete a partial distance matrix from CSV, or just validate a config.
Exit codes: 0 on success, 2 for configuration/validation errors, 3 for
runtime failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .completion import complete_edm
from .harness import (
    PLACEMENT_WEIGHTED,
    ConfigError,
    check_sources,
    emit_results,
    load_config,
    placement_problem,
    run_experiment,
)
from .measurement import PartialEdm
from .placement import evaluate_placement, optimize_placement

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigidloc",
        description="Rigid body localization experiments and utilities.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a configured Monte-Carlo experiment")
    run_p.add_argument("config", help="path to a JSON experiment config")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the master seed")
    run_p.add_argument("--trials", type=int, default=None,
                       help="override the trial count per sweep point")
    run_p.add_argument("--out-dir", default=".", help="output directory")
    run_p.add_argument("--format", default="csv",
                       choices=("csv", "json", "plot-data"),
                       help="output format")

    val_p = sub.add_parser("validate", help="validate a config and exit")
    val_p.add_argument("config")

    place_p = sub.add_parser("placement",
                             help="optimize anchor placement and score it")
    place_p.add_argument("config", help="config supplying anchor count, "
                                        "dim, span, conformation, noise "
                                        "levels and trials")
    place_p.add_argument("--out-dir", default=".")
    place_p.add_argument("--seed", type=int, default=None)
    place_p.add_argument("--trials", type=int, default=None)

    comp_p = sub.add_parser("complete",
                            help="complete a partial squared EDM given as "
                                 "values + mask CSV files")
    comp_p.add_argument("values_csv")
    comp_p.add_argument("mask_csv")
    comp_p.add_argument("--dim", type=int, default=3, choices=(2, 3))
    comp_p.add_argument("--num-anchors", type=int, default=None,
                        help="rows forming the fully observed anchor block; "
                             "enables the geometric starting guess")
    comp_p.add_argument("--out-dir", default=".")
    comp_p.add_argument("--format", default="csv", choices=("csv", "json"))
    return parser


def _apply_overrides(config, seed, trials):
    updates = {}
    if seed is not None:
        updates["master_seed"] = seed
    if trials is not None:
        updates["trials"] = trials
    return replace(config, **updates) if updates else config


def _cmd_run(args) -> int:
    config = load_config(args.config)
    config = _apply_overrides(config, args.seed, args.trials)
    table = run_experiment(config)
    for path in emit_results(table, args.format, args.out_dir):
        print(path)
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    check_sources(config)
    print(f"ok: {config.scenario} scenario, {config.trials} trials")
    return EXIT_OK


def _cmd_placement(args) -> int:
    config = load_config(args.config)
    if not config.estimator["weighted"]:
        raise ConfigError(PLACEMENT_WEIGHTED)
    config = _apply_overrides(config, args.seed, args.trials)
    problem, conf = placement_problem(config)
    result = optimize_placement(problem)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / "placement.json"
    json_path.write_text(json.dumps({
        "positions": result.positions.tolist(),
        "frame_potential": result.frame_potential,
    }, indent=2) + "\n")
    print(json_path)

    anchors = result.to_anchor_set()
    lines = ["sigma,translation_rmse,rotation_rmse,translation_se,"
             "rotation_se,failures,trials"]
    for idx, sigma in enumerate(config.sigma_list):
        ev = evaluate_placement(anchors, conf, sigma, config.trials,
                                seed=(config.master_seed, idx))
        lines.append(f"{sigma!r},{ev.translation_rmse!r},{ev.rotation_rmse!r},"
                     f"{ev.translation_se!r},{ev.rotation_se!r},"
                     f"{ev.failures},{ev.trials}")
    csv_path = out_dir / "placement_eval.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    print(csv_path)
    return EXIT_OK


def _cmd_complete(args) -> int:
    try:
        partial = PartialEdm.from_csv(args.values_csv, args.mask_csv,
                                      dim=args.dim,
                                      num_anchors=args.num_anchors)
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot load partial EDM: {err}") from err
    result = complete_edm(partial)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.format == "csv":
        path = out_dir / "completed.csv"
        np.savetxt(path, result.completed, delimiter=",")
    else:
        path = out_dir / "completed.json"
        full = PartialEdm(result.completed, np.ones_like(result.known_mask),
                          dim=args.dim)
        path.write_text(full.to_json() + "\n")
    print(path)
    print(f"iterations={result.iterations} converged={result.converged} "
          f"objective={result.final_objective:.3e}")
    return EXIT_OK if result.converged else EXIT_RUNTIME


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "validate": _cmd_validate,
        "placement": _cmd_placement,
        "complete": _cmd_complete,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
