"""Monte-Carlo experiment harness.

Runs seeded sweeps over noise level, sensor count and missing-data
fraction for the estimation scenarios, aggregates RMSE per sweep point and
emits CSV/JSON/plot-ready tables. Sweep points run one after another in
sweep order. Every trial derives its generator from (master_seed, sweep
index, trial index), so results are bit-reproducible however the trials
of a point are blocked for estimation.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .completion import _congruent_fill_batch, complete_edm
from .estimators import _joint_start, _motion_fits
from .estimators import rbl_two_stage  # noqa: F401 - callers wrap harness.rbl_two_stage
from .geometry import Conformation, squared_distances
from .geometry import _check_poses, _drawn_rotations, _node_velocities, _place, _rotation_draw
from .measurement import AnchorSet, MaskedRangeMatrix, _range_rates, assemble_partial_edm
from .measurement import simulate_ranges  # noqa: F401 - callers wrap harness.simulate_ranges
from .placement import (
    TRIAL_FAILURES,
    PlacementEvaluation,
    PlacementProblem,
    error_statistics,
    evaluate_placement,
    optimize_placement,
    range_blocks,
    refined_block,
    trial_blocks,
    two_stage_statistics,
    uniform_pose,
)

DEFAULT_SIGMAS = (0.01, 0.05, 0.1, 0.5)
DEFAULT_SENSOR_COUNTS = (2, 4, 6, 8, 10)

# Random poses are drawn with the body center within this box half-width
# (meters) of the anchor centroid.
POSE_SPREAD = 5.0

# Box-vehicle extent: length x width x height of a passenger car, meters.
BOX_DIMENSIONS = (4.5, 1.8, 1.5)


class ConfigError(ValueError):
    """Invalid experiment configuration."""


PLACEMENT_WEIGHTED = "placement evaluation supports only estimator weighted true"


def _box_nodes_3d() -> np.ndarray:
    """Node order for the 3D box-vehicle layout.

    Vertices come first (the leading pair spans a front bottom edge, the
    first four are non-coplanar), then the twelve edge midpoints grouped by
    edge direction. Prefixes of this list are the nested K-node layouts.
    """
    hx, hy, hz = (d / 2.0 for d in BOX_DIMENSIONS)
    return np.array([
        (+hx, -hy, -hz), (+hx, +hy, -hz), (-hx, +hy, -hz), (-hx, -hy, +hz),
        (-hx, -hy, -hz), (+hx, +hy, +hz), (+hx, -hy, +hz), (-hx, +hy, +hz),
        (0.0, -hy, -hz), (0.0, +hy, -hz), (0.0, +hy, +hz), (0.0, -hy, +hz),
        (+hx, 0.0, -hz), (-hx, 0.0, -hz), (+hx, 0.0, +hz), (-hx, 0.0, +hz),
        (+hx, -hy, 0.0), (+hx, +hy, 0.0), (-hx, +hy, 0.0), (-hx, -hy, 0.0),
    ])


def _box_nodes_2d() -> np.ndarray:
    """2D box-vehicle layout: rectangle corners, edge midpoints, then edge
    quarter points, in a fixed order with nested prefixes."""
    hx, hy = BOX_DIMENSIONS[0] / 2.0, BOX_DIMENSIONS[1] / 2.0
    return np.array([
        (+hx, -hy), (+hx, +hy), (-hx, +hy), (-hx, -hy),
        (0.0, -hy), (0.0, +hy), (+hx, 0.0), (-hx, 0.0),
        (+hx / 2, -hy), (-hx / 2, -hy), (+hx / 2, +hy), (-hx / 2, +hy),
        (+hx, -hy / 2), (+hx, +hy / 2), (-hx, -hy / 2), (-hx, +hy / 2),
    ])


def box_vehicle_conformation(num_nodes: int, dim: int = 3) -> Conformation:
    """Built-in vehicle-sized body: the first ``num_nodes`` nodes of the
    fixed box layout, so different sensor counts are nested subsets."""
    if dim == 3:
        nodes = _box_nodes_3d()
    elif dim == 2:
        nodes = _box_nodes_2d()
    else:
        raise ValueError("dim must be 2 or 3")
    if not 1 <= num_nodes <= nodes.shape[0]:
        raise ValueError(f"box-vehicle supports 1..{nodes.shape[0]} nodes in {dim}D")
    return Conformation(nodes[:num_nodes])


def cube_anchor_layout(num_anchors: int, dim: int = 3,
                       span: float = 60.0) -> AnchorSet:
    """Default anchor geometry: vertices of a cube (square in 2D) of side
    ``span`` centered on the origin, then edge midpoints for larger counts."""
    if span <= 0:
        raise ValueError("span must be positive")
    if dim == 3:
        # cube vertices, the tetrad subset first so any prefix of >= 4
        # anchors is non-coplanar, then the edge midpoints
        pts = np.array([
            (+1, +1, +1), (+1, -1, -1), (-1, +1, -1), (-1, -1, +1),
            (-1, -1, -1), (-1, +1, +1), (+1, -1, +1), (+1, +1, -1),
            (0, -1, -1), (0, +1, -1), (0, +1, +1), (0, -1, +1),
            (+1, 0, -1), (-1, 0, -1), (+1, 0, +1), (-1, 0, +1),
            (+1, -1, 0), (+1, +1, 0), (-1, +1, 0), (-1, -1, 0),
        ], dtype=float)
    elif dim == 2:
        pts = np.array([(+1, +1), (+1, -1), (-1, +1), (-1, -1),
                        (0, +1), (0, -1), (+1, 0), (-1, 0)], dtype=float)
    else:
        raise ValueError("dim must be 2 or 3")
    if not 1 <= num_anchors <= pts.shape[0]:
        raise ValueError(f"cube layout supports 1..{pts.shape[0]} anchors in {dim}D")
    return AnchorSet(pts[:num_anchors] * (span / 2.0))


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (see README for the JSON schema)."""

    scenario: str
    dim: int = 3
    conformation: str = "box-vehicle"
    anchors: str = "cube"
    anchor_count: int = 8
    anchor_span: float = 60.0
    sigma_list: tuple = DEFAULT_SIGMAS
    sensor_counts: tuple = DEFAULT_SENSOR_COUNTS
    missing_fraction: tuple = (0.0,)
    trials: int = 100
    master_seed: int = 0
    estimator: dict = field(default_factory=lambda: {"weighted": True})

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; "
                              f"expected one of {', '.join(SCENARIOS)}")
        if _integer(self.dim, "dim") not in (2, 3):
            raise ConfigError("dim must be 2 or 3")
        if _integer(self.trials, "trials") < 1:
            raise ConfigError("trials must be a positive integer")
        if _integer(self.master_seed, "master_seed") < 0:
            raise ConfigError("master_seed must be a non-negative integer")
        sigmas = tuple(_real(s, "sigma_list")
                       for s in _as_sequence(self.sigma_list, "sigma_list"))
        if any(not 0 <= s < np.inf for s in sigmas):
            raise ConfigError("sigma_list entries must be non-negative and finite")
        object.__setattr__(self, "sigma_list", sigmas)
        counts = tuple(_integer(k, "sensor_counts")
                       for k in _as_sequence(self.sensor_counts, "sensor_counts"))
        if any(k < 2 for k in counts):
            raise ConfigError("sensor_counts values must be at least 2")
        object.__setattr__(self, "sensor_counts", counts)
        fractions = tuple(_real(f, "missing_fraction") for f in
                          _as_sequence(self.missing_fraction, "missing_fraction",
                                       scalar_ok=True))
        if any(not 0.0 <= f < 1.0 for f in fractions):
            raise ConfigError("missing_fraction values must lie in [0, 1)")
        object.__setattr__(self, "missing_fraction", fractions)
        if _integer(self.anchor_count, "anchor_count") < 1:
            raise ConfigError("anchor_count must be a positive integer")
        span = _real(self.anchor_span, "anchor_span")
        if not span > 0:
            raise ConfigError("anchor_span must be positive")
        object.__setattr__(self, "anchor_span", span)
        if not isinstance(self.estimator, dict):
            raise ConfigError("estimator options must be an object")
        unknown = set(self.estimator) - {"weighted"}
        if unknown:
            raise ConfigError(f"unknown estimator options: {sorted(unknown)}")
        options = {"weighted": self.estimator.get("weighted", True)}
        if not isinstance(options["weighted"], bool):
            raise ConfigError("estimator weighted must be true or false, "
                              f"got {options['weighted']!r}")
        if self.scenario == "placement_study" and not options["weighted"]:
            raise ConfigError(PLACEMENT_WEIGHTED)
        object.__setattr__(self, "estimator", options)
        # built-in layouts are checked here so an oversized count fails early
        try:
            if self.conformation == "box-vehicle":
                box_vehicle_conformation(max(counts), self.dim)
            if self.anchors == "cube" or self.scenario == "placement_study":
                cube_anchor_layout(self.anchor_count, self.dim, self.anchor_span)
        except ValueError as err:
            raise ConfigError(str(err)) from None

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ConfigError("configuration must be a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
        if "scenario" not in obj:
            raise ConfigError("configuration requires a scenario")
        return cls(**obj)

    def to_dict(self) -> dict:
        """The fields in declaration order as JSON types: the tuple fields
        as lists, and a copy of the estimator options."""
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in asdict(self).items()}


def _integer(value, name):
    """``value`` if it is an integer (a bool is not); raises ConfigError
    naming ``name`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _real(value, name):
    """``value`` as a float if it is an integer or a float (a bool or a
    string is not); raises ConfigError naming ``name`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _as_sequence(value, name, scalar_ok: bool = False):
    if isinstance(value, (int, float)) and scalar_ok:
        return (value,)
    if isinstance(value, (list, tuple)) and len(value) > 0:
        return tuple(value)
    raise ConfigError(f"{name} must be a non-empty list")


def load_config(path) -> ExperimentConfig:
    """Parse and validate a JSON experiment configuration file."""
    text = Path(path).read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON at line {err.lineno}, "
                          f"column {err.colno}: {err.msg}") from err
    return ExperimentConfig.from_dict(obj)


def save_config(config: ExperimentConfig, path) -> None:
    Path(path).write_text(json.dumps(config.to_dict(), indent=2) + "\n")


@dataclass
class ResultRow:
    """One sweep point. ``wall_time_s`` is the wall time of that point
    alone; points run one after another, so the times of different rows
    do not overlap."""

    scenario: str
    params: dict
    translation_rmse: float
    rotation_rmse: float
    translation_se: float
    rotation_se: float
    failures: int
    trials: int
    wall_time_s: float


@dataclass
class ResultTable:
    """Aggregated sweep results with stable column order.

    The metric columns are the fields of ``PlacementEvaluation``, in
    order. ``to_csv`` writes the scenario, the parameters and those
    columns; ``to_json`` writes every ``ResultRow`` field, in field order,
    with NaN as null, and ``from_json`` reads that back, raising TypeError
    on a row with a missing or unknown key.
    """

    rows: list
    param_keys: tuple

    METRIC_COLUMNS = tuple(f.name for f in fields(PlacementEvaluation))

    def header(self) -> list:
        return ["scenario", *self.param_keys, *self.METRIC_COLUMNS]

    def to_csv(self, path) -> None:
        # wall time is diagnostic and varies run to run; the CSV holds only
        # the reproducible columns so identical seeds give identical files
        lines = [",".join(self.header())]
        for row in self.rows:
            cells = [row.scenario]
            cells += [_format_cell(row.params[k]) for k in self.param_keys]
            cells += [_format_cell(getattr(row, col)) for col in self.METRIC_COLUMNS]
            lines.append(",".join(cells))
        Path(path).write_text("\n".join(lines) + "\n")

    def to_json(self, path=None) -> str:
        obj = {
            "param_keys": list(self.param_keys),
            "rows": [{k: _json_float(v) for k, v in vars(row).items()}
                     for row in self.rows],
        }
        text = json.dumps(obj, indent=2)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text

    @classmethod
    def from_json(cls, text: str) -> "ResultTable":
        obj = json.loads(text)
        rows = [ResultRow(**{k: float("nan") if v is None else v for k, v in r.items()})
                for r in obj["rows"]]
        return cls(rows, tuple(obj["param_keys"]))

    def plot_series_keys(self):
        """(x key, series keys) for plot-data emission, per scenario."""
        scenario = self.rows[0].scenario if self.rows else "rmse_vs_sensors"
        x_key = _SWEEPS[scenario].x_key
        return x_key, tuple(k for k in self.param_keys if k != x_key)


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_float(value):
    return None if isinstance(value, float) and np.isnan(value) else value


def emit_results(table: ResultTable, fmt: str, out_dir) -> list:
    """Write the table as results.csv, results.json or per-metric plot-data
    CSVs (columns x, series, y). Returns the paths written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        path = out_dir / "results.csv"
        table.to_csv(path)
        return [path]
    if fmt == "json":
        path = out_dir / "results.json"
        table.to_json(path)
        return [path]
    if fmt == "plot-data":
        x_key, series_keys = table.plot_series_keys()
        paths = []
        for metric in ("translation_rmse", "rotation_rmse"):
            path = out_dir / f"plot_{metric}.csv"
            lines = ["x,series,y"]
            for row in table.rows:
                series = ",".join(f"{k}={row.params[k]}" for k in series_keys)
                lines.append(f"{_format_cell(row.params[x_key])},"
                             f"\"{series}\",{_format_cell(getattr(row, metric))}")
            Path(path).write_text("\n".join(lines) + "\n")
            paths.append(path)
        return paths
    raise ConfigError(f"unknown output format {fmt!r}; "
                      "expected csv, json or plot-data")


def _trial_rng(master_seed: int, sweep_idx: int, trial: int) -> np.random.Generator:
    return np.random.default_rng((master_seed, sweep_idx, trial))


def _source_path(source: str) -> Path:
    # config sources may name files directly or with an explicit file: prefix
    return Path(source[5:] if source.startswith("file:") else source)


def _resolve_anchors(config: ExperimentConfig) -> AnchorSet:
    if config.anchors == "cube":
        return cube_anchor_layout(config.anchor_count, config.dim,
                                  config.anchor_span)
    anchors = AnchorSet.from_json(_source_path(config.anchors).read_text())
    if anchors.dim != config.dim:
        raise ConfigError("anchor file dimension does not match config dim")
    return anchors


def _resolve_conformation(config: ExperimentConfig, num_nodes: int) -> Conformation:
    if config.conformation == "box-vehicle":
        return box_vehicle_conformation(num_nodes, config.dim)
    conf = Conformation.from_json(_source_path(config.conformation).read_text())
    if conf.dim != config.dim:
        raise ConfigError("conformation file dimension does not match config dim")
    if num_nodes > conf.num_nodes:
        raise ConfigError(f"conformation file has {conf.num_nodes} nodes; "
                          f"cannot take {num_nodes}")
    return Conformation(conf.coords[:num_nodes])


def _range_blocks(config, anchors, conf, sweep_idx, sigma, fraction):
    """Blocks of (true poses, ranges) of a sweep point (see
    ``placement.range_blocks``), each range dropped with probability
    ``fraction``."""
    return range_blocks(anchors, conf, config.trials,
                        functools.partial(_trial_rng, config.master_seed, sweep_idx),
                        uniform_pose(anchors.positions.mean(axis=0), POSE_SPREAD),
                        sigma, fraction)


def _point_rmse_vs(config, anchors, sweep_idx, sigma, sensors):
    conf = _resolve_conformation(config, sensors)
    blocks = _range_blocks(config, anchors, conf, sweep_idx, sigma,
                           config.missing_fraction[0])
    return two_stage_statistics(anchors, conf, blocks, config.estimator["weighted"])


def _point_completion(config, anchors, sweep_idx, sigma, sensors, fraction):
    """Each block of trials starts from ``_joint_start``, one linear fit of
    each trial's pose to all its observed ranges. A trial without a full
    rank fit fills its missing ranges instead, from one batched congruent
    start on the known anchor and body coordinates or, where that cannot
    start either, by ``complete_edm``. ``refined_block`` then runs
    two-stage on the filled ranges and refines every pose on the observed
    ones."""
    conf = _resolve_conformation(config, sensors)
    m = anchors.num_anchors

    def solve(data):
        values, mask = data
        start = _joint_start(anchors, conf, values, mask)
        rest = np.flatnonzero([err is not None for err in start[2]])
        filled = np.full(values.shape, np.nan)
        placed, _, started = _congruent_fill_batch(anchors.positions, conf.coords,
                                                   values[rest], mask[rest])
        filled[rest] = np.where(mask[rest], values[rest],
                                np.sqrt(squared_distances(anchors.positions, placed)))
        fill_errors = {}
        for t in rest[~started]:
            try:
                partial = assemble_partial_edm(anchors, conf,
                                               MaskedRangeMatrix(values[t], mask[t]))
                completed = complete_edm(partial, rank_slack=1 if sigma > 0 else 0).completed
                filled[t] = np.where(mask[t], values[t], np.sqrt(completed[:m, m:]))
            except TRIAL_FAILURES as err:
                fill_errors[t], filled[t] = err, np.nan
        poses, failed = refined_block(anchors, conf, filled, values, mask,
                                      config.estimator["weighted"], start)
        return poses, [fill_errors.get(t, err) for t, err in enumerate(failed)]

    blocks = _range_blocks(config, anchors, conf, sweep_idx, sigma, fraction)
    return error_statistics(blocks, solve)


def _point_anchorless(config, anchors, sweep_idx, sigma, sensors):
    """Both bodies are the configured body. Body 2's pose in body 1's frame
    is anchored localization with body 1's nodes as the anchors, so each
    block of trials runs the two-stage estimator and refines its poses, as
    ``relative_pose_anchorless`` does for one trial. Estimates without a
    unique rotation, or with mirror-candidate nodes, are scored as the
    other two-stage sweeps score them; ``relative_pose_anchorless`` raises
    on the first and flags the second."""
    conf = _resolve_conformation(config, sensors)
    body1 = AnchorSet(conf.coords)

    def draw_pose(rng):
        rot = _rotation_draw(rng, config.dim)
        direction = rng.normal(size=config.dim)
        direction /= np.linalg.norm(direction)
        return rot, (10.0 + rng.uniform(-2.0, 2.0)) * direction

    blocks = range_blocks(body1, conf, config.trials,
                          functools.partial(_trial_rng, config.master_seed, sweep_idx),
                          draw_pose, sigma)
    return error_statistics(blocks, lambda data: refined_block(
        body1, conf, data[0], *data, config.estimator["weighted"]))


def _motion_errors(estimate, truth):
    """Squared translational and angular velocity errors of each trial of
    a block of (omegas, t_dots). A planar omega error is squared by pow()
    on a Python float, as one trial's scalar omega always was."""
    (est_omega, est_t_dot), (omega, t_dot) = estimate, truth
    omega_err = est_omega - omega
    omega_sq = (omega_err**2).sum(axis=-1) if omega.shape[1] == 3 \
        else np.array([w**2 for w in omega_err[:, 0].tolist()])
    return ((est_t_dot - t_dot) ** 2).sum(axis=-1), omega_sq


def _point_motion(config, anchors, sweep_idx, sigma, sensors):
    """Each trial draws its rotation (its ``_rotation_draw``), translation,
    omega, t_dot and rate noise; each block builds its rotations at once,
    is checked as ``Pose`` and ``BodyMotion`` check, one check at a time,
    and has its rates simulated and fitted at the true poses."""
    conf = _resolve_conformation(config, sensors)
    draw_pose = uniform_pose(anchors.positions.mean(axis=0), POSE_SPREAD)
    shape = (anchors.num_anchors, conf.num_nodes)

    def draw(rng):
        return (*draw_pose(rng), rng.uniform(-0.5, 0.5, 3 if config.dim == 3 else 1),
                rng.uniform(-15.0, 15.0, config.dim),
                rng.normal(0.0, sigma, size=shape) if sigma > 0 else None)

    def blocks():
        trial_rng = functools.partial(_trial_rng, config.master_seed, sweep_idx)
        for rot, trans, omegas, t_dots, noise in trial_blocks(conf, config.trials,
                                                              trial_rng, draw):
            rot = _drawn_rotations(rot)
            _check_poses(rot, trans)
            for name, values in (("t_dot", t_dots), ("omega", omegas)):
                if not np.isfinite(values).all():
                    raise ValueError(f"{name} must be finite")
            rates = _range_rates(anchors.positions, _place(conf.coords, rot, trans),
                                 _node_velocities(conf.coords, rot, omegas, t_dots))
            yield (omegas, t_dots), (rot, trans, rates if noise is None else rates + noise)

    def solve(data):
        omegas, t_dots, _, failed = _motion_fits(anchors, conf, *data, np.isfinite(data[2]))
        return (omegas, t_dots), failed
    return error_statistics(blocks(), solve, _motion_errors)


def placement_problem(config: ExperimentConfig):
    """The anchor-placement problem a config describes, and the body that
    scores its layouts.

    ``anchor_count`` directions are optimized on a sphere of radius
    ``anchor_span / 2`` seeded by ``master_seed``; the body is the first
    ``sensor_counts[0]`` nodes of the configured conformation.
    """
    problem = PlacementProblem(config.anchor_count, config.dim,
                               anchor_radius=config.anchor_span / 2.0,
                               seed=config.master_seed)
    return problem, _resolve_conformation(config, config.sensor_counts[0])


def _placement_layouts(config: ExperimentConfig):
    """(body, {layout name: anchors}) for the placement study."""
    problem, conf = placement_problem(config)
    return conf, {
        "optimized": optimize_placement(problem).to_anchor_set(),
        "cube": cube_anchor_layout(config.anchor_count, config.dim,
                                   config.anchor_span),
    }


def _point_placement(config, study, sweep_idx, sigma, placement):
    conf, layouts = study
    return evaluate_placement(layouts[placement], conf, sigma, config.trials,
                              seed=(config.master_seed, sweep_idx))


@dataclass(frozen=True)
class _Sweep:
    """How a scenario sweeps.

    ``loops`` are its parameters from the outermost sweep loop in; the
    sweep index, and so every trial's seed, follows this order. ``x_key``
    is the x axis of its plot data. ``shared(config)`` builds what all its
    points use, and ``point`` names the function that runs one point as
    ``point(config, shared, sweep_idx, *params)``, with the parameters in
    column order. The function is looked up by name when a run starts, so
    a wrapper installed on this module is called.
    """

    loops: tuple
    x_key: str
    point: str
    shared: Callable = _resolve_anchors


_SWEEPS = {
    "rmse_vs_sensors": _Sweep(("sigma", "sensors"), "sensors", "_point_rmse_vs"),
    "rmse_vs_noise": _Sweep(("sensors", "sigma"), "sigma", "_point_rmse_vs"),
    "completion_benchmark": _Sweep(("sigma", "sensors", "missing_fraction"),
                                   "missing_fraction", "_point_completion"),
    "anchorless_two_body": _Sweep(("sigma", "sensors"), "sigma",
                                  "_point_anchorless", lambda config: None),
    "motion_tracking": _Sweep(("sigma", "sensors"), "sigma", "_point_motion"),
    "placement_study": _Sweep(("sigma", "placement"), "sigma",
                              "_point_placement", _placement_layouts),
}
SCENARIOS = tuple(_SWEEPS)


def check_sources(config: ExperimentConfig) -> None:
    """Read the anchor and conformation sources a run of ``config`` reads,
    raising what the run would raise: a missing file, or a file body with
    fewer nodes than the largest sensor count the sweep uses."""
    sweep = _SWEEPS[config.scenario]
    if sweep.shared is _resolve_anchors:
        _resolve_anchors(config)
    counts = config.sensor_counts if "sensors" in sweep.loops \
        else config.sensor_counts[:1]
    _resolve_conformation(config, max(counts))


def run_experiment(config: ExperimentConfig) -> ResultTable:
    """Execute all sweep points of the configured scenario.

    Points run one after another in sweep order, in the calling thread.
    """
    sweep = _SWEEPS[config.scenario]
    shared = sweep.shared(config)
    point = globals()[sweep.point]
    # dict order is the column order of the output
    values = {"sigma": config.sigma_list, "sensors": config.sensor_counts,
              "missing_fraction": config.missing_fraction,
              "placement": ("optimized", "cube")}
    columns = tuple(k for k in values if k in sweep.loops)
    rows = []
    for idx, combo in enumerate(itertools.product(*(values[k] for k in sweep.loops))):
        setting = dict(zip(sweep.loops, combo))
        params = {k: setting[k] for k in columns}
        start = time.perf_counter()
        stats = point(config, shared, idx, *params.values())
        rows.append(ResultRow(config.scenario, params, **vars(stats),
                              wall_time_s=time.perf_counter() - start))
    return ResultTable(rows, columns)
