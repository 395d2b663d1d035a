"""Print one sha256 per output of a rigidloc checkout.

Usage::

    python3 tools/output_hashes.py <checkout>
    python3 tools/output_hashes.py <checkout> --against <other checkout>

The library is imported from ``<checkout>/src``. Each line reads
``<label> <sha256>``. With ``--against``, the hashes of both checkouts
are taken, each in its own subprocess (both import ``rigidloc``), and
only the labels whose hashes differ are printed, as ``<label> <sha256
of checkout> <sha256 of other>``; the exit code is 1 if any differ and
0 if none do. The outputs are:

- ``rigidloc run`` on every scenario, 2D and 3D, sigma {0, 0.1}, K
  {3, 4, 8}, 12 trials, with ``estimator.weighted`` true and false, in
  csv, json (without the run-to-run ``wall_time_s``) and plot-data; the
  completion scenario at 30% and 70% missing, and ``rmse_vs_noise`` also
  at 30%;
- ``rigidloc placement`` and ``rigidloc complete``;
- ``rigidloc validate`` and ``run`` on geometry whose squared distances
  overflow;
- one-trial outcomes of ``rbl_two_stage``, ``relative_pose_anchorless``,
  ``multilaterate`` (matrix form), ``estimate_motion`` and
  ``localize_point_hybrid`` on fixed seeds.

A command's hash covers its exit code, its error message and warnings,
and the files it writes; an estimator's covers every field of each
result, or the type and message of the error it raised.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

SCENARIOS = ("rmse_vs_sensors", "rmse_vs_noise", "completion_benchmark",
             "anchorless_two_body", "motion_tracking", "placement_study")
BASE = {"sigma_list": [0.0, 0.1], "sensor_counts": [3, 4, 8], "trials": 12,
        "master_seed": 7}
SEEDS = range(20)


def feed(digest, value) -> None:
    """Add ``value`` to ``digest``: arrays by dtype, shape and bytes,
    dataclasses field by field, sequences item by item, the rest by repr."""
    if isinstance(value, np.ndarray):
        digest.update(repr((value.dtype.str, value.shape)).encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            digest.update(field.name.encode())
            feed(digest, getattr(value, field.name))
    elif isinstance(value, (list, tuple)):
        digest.update(f"<{len(value)}>".encode())
        for item in value:
            feed(digest, item)
    else:
        digest.update(repr(value).encode())


def outcome(call):
    """``call()``'s result, or the type and message of its error."""
    try:
        return call()
    except Exception as err:  # noqa: BLE001 - an error is an outcome too
        return f"{type(err).__name__}: {err}"


def command_hash(cli, argv, out_dir: Path) -> str:
    """Hash of one CLI command writing into ``out_dir``."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    digest = hashlib.sha256()
    feed(digest, [code, out.getvalue().replace(str(out_dir), "<out>"), err.getvalue(),
                  [f"{w.category.__name__}: {w.message}" for w in caught]])
    for path in sorted(out_dir.glob("*")) if out_dir.is_dir() else []:
        data = path.read_bytes()
        if path.name == "results.json":
            obj = json.loads(data)
            for row in obj["rows"]:
                del row["wall_time_s"]
            data = json.dumps(obj, sort_keys=True).encode()
        feed(digest, [path.name, data])
    return digest.hexdigest()


def run_lines(cli, work: Path):
    """Hashes of ``rigidloc run`` over the scenario grid."""
    for scenario in SCENARIOS:
        fractions = {"completion_benchmark": [[0.3, 0.7]],
                     "rmse_vs_noise": [[0.0], [0.3]]}.get(scenario, [[0.0]])
        for dim in (2, 3):
            for weighted in (True, False):
                for missing in fractions:
                    config = work / "config.json"
                    config.write_text(json.dumps({
                        **BASE, "scenario": scenario, "dim": dim,
                        "missing_fraction": missing,
                        "estimator": {"weighted": weighted}}))
                    for fmt in ("csv", "json", "plot-data"):
                        out = Path(tempfile.mkdtemp(dir=work))
                        label = (f"run:{scenario}:{dim}D:weighted={weighted}:"
                                 f"missing={','.join(map(str, missing))}:{fmt}")
                        yield label, command_hash(
                            cli, ["run", str(config), "--out-dir", str(out),
                                  "--format", fmt], out)


def placement_and_complete_lines(cli, work: Path):
    """Hashes of ``rigidloc placement`` and ``rigidloc complete``."""
    from rigidloc.geometry import Pose, apply_pose, random_rotation
    from rigidloc.harness import box_vehicle_conformation, cube_anchor_layout
    from rigidloc.measurement import MaskedRangeMatrix, assemble_partial_edm

    for dim in (2, 3):
        config = work / f"placement{dim}.json"
        config.write_text(json.dumps({**BASE, "scenario": "placement_study", "dim": dim,
                                      "anchor_count": 6, "sensor_counts": [4]}))
        out = Path(tempfile.mkdtemp(dir=work))
        yield f"placement:{dim}D", command_hash(
            cli, ["placement", str(config), "--out-dir", str(out)], out)

        rng = np.random.default_rng(dim)
        anchors, conf = cube_anchor_layout(8, dim), box_vehicle_conformation(8, dim)
        body = apply_pose(conf, Pose(random_rotation(rng, dim), rng.uniform(-5, 5, dim)))
        ranges = np.sqrt(((anchors.positions[:, None] - body.positions[None]) ** 2).sum(-1))
        for missing in (0.3, 0.7):
            mask = rng.random(ranges.shape) >= missing
            partial = assemble_partial_edm(anchors, conf, MaskedRangeMatrix(
                np.where(mask, ranges, np.nan), mask))
            values, mask_csv = work / "values.csv", work / "mask.csv"
            partial.to_csv(values, mask_csv)
            for extra in ([], ["--num-anchors", "8"]):
                for fmt in ("csv", "json"):
                    out = Path(tempfile.mkdtemp(dir=work))
                    label = f"complete:{dim}D:missing={missing}:{fmt}:{' '.join(extra) or '-'}"
                    yield label, command_hash(
                        cli, ["complete", str(values), str(mask_csv), "--dim", str(dim),
                              "--format", fmt, "--out-dir", str(out), *extra], out)


def overflow_lines(cli, work: Path):
    """Hashes of ``validate`` and ``run`` on a cube layout and on a file
    body whose squared distances overflow."""
    body = work / "huge_body.json"
    body.write_text(json.dumps({"coords": (1e160 * np.eye(3)).tolist()}))
    cases = {"anchor_span": {"anchor_span": 1e160},
             "conformation": {"conformation": f"file:{body}", "sensor_counts": [3]}}
    for name, entries in cases.items():
        config = work / f"overflow_{name}.json"
        config.write_text(json.dumps({**BASE, "scenario": "rmse_vs_sensors", **entries}))
        for command in ("validate", "run"):
            out = Path(tempfile.mkdtemp(dir=work))
            extra = [] if command == "validate" else ["--out-dir", str(out)]
            yield f"overflow:{name}:{command}", command_hash(
                cli, [command, str(config), *extra], out)


def estimator_lines():
    """Hashes of the one-trial estimators on fixed seeds."""
    from rigidloc.estimators import (estimate_motion, localize_point_hybrid, multilaterate,
                                     rbl_two_stage, relative_pose_anchorless)
    from rigidloc.geometry import BodyMotion, Pose, apply_pose, random_rotation
    from rigidloc.harness import box_vehicle_conformation, cube_anchor_layout
    from rigidloc.measurement import (AnchorSet, HullOcclusion, simulate_range_rates,
                                      simulate_ranges)

    for dim in (2, 3):
        anchors = cube_anchor_layout(8, dim)
        outcomes = {}
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            for nodes in (4, 8):
                conf = box_vehicle_conformation(nodes, dim)
                pose = Pose(random_rotation(rng, dim), rng.uniform(-5, 5, dim))
                body = apply_pose(conf, pose)
                for sigma in (0.0, 0.1):
                    for occluded in (False, True):
                        ranges = simulate_ranges(anchors, body, sigma,
                                                 HullOcclusion(body) if occluded else None,
                                                 rng)
                        for weighted in (True, False):
                            outcomes.setdefault(f"rbl_two_stage:weighted={weighted}", []).append(
                                outcome(lambda: rbl_two_stage(anchors, ranges, conf, weighted)))
                    motion = BodyMotion(rng.uniform(-0.5, 0.5) if dim == 2
                                        else rng.uniform(-0.5, 0.5, 3),
                                        rng.uniform(-15, 15, dim))
                    rates = simulate_range_rates(anchors, conf, pose, motion, sigma,
                                                 HullOcclusion(body), rng)
                    outcomes.setdefault("estimate_motion", []).append(
                        outcome(lambda: estimate_motion(anchors, pose, conf, rates)))
                    direction = rng.normal(size=dim)
                    other = Pose(random_rotation(rng, dim),
                                 (10.0 + rng.uniform(-2, 2)) * direction / np.linalg.norm(direction))
                    cross = simulate_ranges(AnchorSet(conf.coords), apply_pose(conf, other),
                                            sigma, None, rng)
                    outcomes.setdefault("relative_pose_anchorless", []).append(
                        outcome(lambda: relative_pose_anchorless(conf, conf, cross)))
            points = rng.uniform(-10, 10, (16, dim))
            dists = np.sqrt(((anchors.positions[:, None] - points[None]) ** 2).sum(-1))
            dists = dists + rng.normal(0.0, 0.1, dists.shape)
            mask = rng.random(dists.shape) >= 0.4
            outcomes.setdefault("multilaterate", []).append(
                outcome(lambda: multilaterate(anchors, dists, mask)))
            # ranges and angles from the first three anchors to the first
            # point, each entry unobserved (NaN) with probability 1/3
            near = AnchorSet(anchors.positions[:3])
            diff = points[0] - near.positions
            truth = [np.sqrt((diff**2).sum(-1)), np.arctan2(diff[:, 1], diff[:, 0])]
            if dim == 3:
                truth.append(np.arctan2(diff[:, 2], np.hypot(diff[:, 0], diff[:, 1])))
            noisy = [np.where(rng.random(3) >= 1 / 3, v + rng.normal(0.0, s, 3), np.nan)
                     for v, s in zip(truth, (0.1, 0.01, 0.01))]
            outcomes.setdefault("localize_point_hybrid", []).append(outcome(
                lambda: localize_point_hybrid(near, *noisy, sigma_range=0.1, sigma_angle=0.01)))
        for name, results in outcomes.items():
            digest = hashlib.sha256()
            feed(digest, results)
            yield f"estimator:{name}:{dim}D", digest.hexdigest()


def hashes(checkout: str) -> dict:
    """The hash lines of ``checkout``, taken in a subprocess, by label."""
    run = subprocess.run([sys.executable, __file__, checkout], capture_output=True, text=True)
    if run.returncode != 0:
        raise RuntimeError(f"hashing {checkout} failed:\n{run.stderr}")
    return dict(line.rsplit(" ", 1) for line in run.stdout.splitlines())


def compare(checkout: str, other: str) -> int:
    """Print the labels whose hashes differ between two checkouts."""
    ours, theirs = hashes(checkout), hashes(other)
    differ = [label for label in {**ours, **theirs}
              if ours.get(label) != theirs.get(label)]
    for label in differ:
        print(label, ours.get(label, "-"), theirs.get(label, "-"))
    return 1 if differ else 0


def main(argv) -> int:
    if len(argv) == 3 and argv[1] == "--against":
        return compare(argv[0], argv[2])
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve() / "src"
    sys.path.insert(0, str(src))
    rigidloc = importlib.import_module("rigidloc")
    if Path(rigidloc.__file__).resolve().parent != src / "rigidloc":
        print(f"rigidloc was imported from {rigidloc.__file__}, not {src}", file=sys.stderr)
        return 2
    cli = importlib.import_module("rigidloc.cli")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for lines in (run_lines(cli, work), placement_and_complete_lines(cli, work),
                      overflow_lines(cli, work), estimator_lines()):
            for label, digest in lines:
                print(label, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
