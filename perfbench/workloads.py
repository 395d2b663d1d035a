"""The three benchmark workloads, their inputs and their correctness gate.

Every workload is a closed loop with one caller: the next call starts when
the previous one returns. A *unit* is one timed call (a ``run_experiment``
sweep on ``mc_*``, one frame on ``track_stream``); a *trial* is one
Monte-Carlo trial or one frame.

The first ``min_units`` units of a run form the *evaluation stream*: the
same inputs in every run, whatever the seed, and the accuracy metrics pool
exactly these units. Their RMSE would otherwise swing by tens of percent
between seeds (completion errors are heavy-tailed), far beyond any bound a
regression check could use. All later units derive from ``--seed``.
"""

from __future__ import annotations

import contextlib
import threading
import time
import types
from dataclasses import dataclass, field

import numpy as np

import rigidloc
import rigidloc.estimators
import rigidloc.harness
import rigidloc.measurement
from rigidloc import (
    DegenerateGeometryError,
    HullOcclusion,
    InsufficientMeasurementsError,
    MaskedRangeMatrix,
    NonEuclideanMatrixError,
)
from tracing import Tracer

SIGMA = 0.1          # range noise, m
SIGMA_RATE = 0.05    # range-rate noise, m/s
NUM_ANCHORS = 8      # cube layout
POSE_TOL = 1e-6      # noiseless pose / velocity error limit (acceptance criterion 1)
EDM_TOL = 1e-4       # noiseless completion limit (acceptance criterion 5)
ESTIMATION_ERRORS = (InsufficientMeasurementsError, DegenerateGeometryError,
                     NonEuclideanMatrixError)
EVAL_SEED = 2408     # seeds the evaluation stream


@dataclass(frozen=True)
class Sizes:
    """How much work one run does. ``min_units`` units (the evaluation
    stream) always run, however fast or slow the code is.

    The sweep sizes are the ones the workloads were characterised at:
    300 trials per point for ``rmse_vs_sensors`` (900 trials per sweep)
    and 100 per point for ``completion_benchmark``. A sweep this long
    keeps per-sweep fixed costs (pool start-up, config and conformation
    resolution) as small a share as in a real study, and leaves room for
    a change that batches a point's trials to show its gain."""

    mc_sensors_trials: int = 300     # per sweep point, 3 points per call
    mc_completion_trials: int = 100  # per sweep point, 2 points per call
    mc_probe_trials: int = 10        # per point, in the repeat-check sweep
    track_frames: int = 400          # trajectory length before it repeats
    track_min_units: int = 100
    recheck_frames: int = 4


FULL = Sizes()
SMOKE = Sizes(mc_sensors_trials=2, mc_completion_trials=2, mc_probe_trials=2,
              track_frames=6, track_min_units=3, recheck_frames=2)


@dataclass
class UnitResult:
    elapsed_s: float
    trials: int
    failures: int
    sq_errors: dict            # name -> sum of squared errors over successes
    successes: int
    fingerprint: tuple         # bit-exact accuracy record for the repeat check


@dataclass
class Phase:
    """Units run so far, with the process CPU and wall time they took."""

    units: list = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    steal_frac: float | None = None   # machine-wide, set by run_phase

    @property
    def trials(self) -> int:
        return sum(u.trials for u in self.units)

    @property
    def failures(self) -> int:
        return sum(u.failures for u in self.units)

    def run(self, workload, i: int, api, tracer=None) -> None:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        self.units.append(workload.unit(i, api, tracer))
        self.wall_s += time.perf_counter() - wall0
        self.cpu_s += time.process_time() - cpu0


def machine_ticks():
    """Machine-wide CPU ticks (user … steal) from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_frac(before, after):
    """Share of the machine's CPU ticks between two readings that the
    hypervisor took (steal), or None where the kernel does not say."""
    if before is None or after is None or len(after) < 8:
        return None
    ticks = [b - a for a, b in zip(before, after)]
    return ticks[7] / sum(ticks) if sum(ticks) else None


def run_phase(workload, seconds: float, api) -> Phase:
    """Call units back to back until ``seconds`` have passed and the
    evaluation stream has run."""
    phase = Phase()
    ticks = machine_ticks()
    deadline = time.perf_counter() + seconds
    while len(phase.units) < workload.min_units or time.perf_counter() < deadline:
        phase.run(workload, len(phase.units), api)
    phase.steal_frac = steal_frac(ticks, machine_ticks())
    return phase


def run_traced(workload, seconds: float, tracer):
    """(plain, traced) phases for the per-layer run. Untraced and traced
    units alternate, so a drift in machine speed falls on both sides of
    the tracing-overhead ratio."""
    plain, traced = Phase(), Phase()
    plain_api, traced_api = workload.api(), workload.api(tracer)
    deadline = time.perf_counter() + seconds
    i = 0
    while i < 2 or time.perf_counter() < deadline:
        if i % 2:
            with tracer.patched(workload.replacements(tracer)):
                traced.run(workload, i, traced_api, tracer)
        else:
            plain.run(workload, i, plain_api)
        i += 1
    return plain, traced


def pooled_rmse(units) -> dict:
    n = sum(u.successes for u in units)
    keys = units[0].sq_errors if units else {}
    return {k: float(np.sqrt(sum(u.sq_errors[k] for u in units) / n)) if n else
            float("nan") for k in keys}


# ---------------------------------------------------------------- harness

class McWorkload:
    """Harness sweeps through ``run_experiment`` with RBL_THREADS unset.

    Every unit runs the sweep under its own ``master_seed``, so no two
    timed calls of a run repeat their inputs. The first sweep is the
    evaluation stream.
    """

    kind = "mc"
    min_units = 1

    def __init__(self, name: str, scenario: str, sensor_counts, missing_fraction,
                 trials: int, probe_trials: int, seed: int):
        self.name = name
        self.probe_trials = probe_trials
        self.seed = seed
        self._base = dict(scenario=scenario, dim=3, conformation="box-vehicle",
                          anchors="cube", anchor_count=NUM_ANCHORS,
                          sensor_counts=list(sensor_counts),
                          missing_fraction=list(missing_fraction), trials=trials)
        self.config(0)  # validates the sweep before any timing
        self.observed_workers = None

    def config(self, i: int, sigma: float = SIGMA, trials: int | None = None):
        if i < self.min_units:
            master_seed = EVAL_SEED * 10**7 + i
        else:
            master_seed = self.seed * 10**7 + 10**6 + i
        opts = dict(self._base, sigma_list=[sigma], master_seed=master_seed)
        if trials is not None:
            opts["trials"] = trials
        return rigidloc.ExperimentConfig(**opts)

    def api(self, tracer=None):
        if tracer is None:
            return types.SimpleNamespace(run_experiment=rigidloc.run_experiment)

        def run_experiment(config):
            with tracer.span("harness.run_experiment"):
                tracer.cause = tracer.current()
                try:
                    return rigidloc.run_experiment(config)
                finally:
                    tracer.cause = None
        return types.SimpleNamespace(run_experiment=run_experiment)

    def unit(self, i: int, api, tracer=None) -> UnitResult:
        if tracer is not None:
            tracer.call_label = f"c{i}"
        return self._sweep(self.config(i), api)

    def _sweep(self, config, api) -> UnitResult:
        start = time.perf_counter()
        table = api.run_experiment(config)
        elapsed = time.perf_counter() - start
        trials = sum(r.trials for r in table.rows)
        failures = sum(r.failures for r in table.rows)
        ok = [(r.trials - r.failures, r) for r in table.rows]
        return UnitResult(
            elapsed, trials, failures,
            {"t": sum(n * r.translation_rmse**2 for n, r in ok if n),
             "r": sum(n * r.rotation_rmse**2 for n, r in ok if n)},
            trials - failures,
            tuple((tuple(r.params.items()), r.translation_rmse, r.rotation_rmse,
                   r.translation_se, r.rotation_se, r.failures, r.trials)
                  for r in table.rows))

    def probe(self) -> list:
        """Untimed short sweep under the evaluation stream's seed, run
        before and after the timed calls (the repeat check). It also
        records which threads run sweep points, so every run reports the
        worker count a user gets."""
        tracer = Tracer()
        h = rigidloc.harness
        with tracer.patched([(h, "_point_rmse_vs", "harness.point", None, None),
                             (h, "_point_completion", "harness.point", None, None)]):
            result = self._sweep(self.config(0, trials=self.probe_trials), self.api())
        self.observed_workers = len({span.thread for span in tracer.spans})
        return [result]

    def spot_check(self) -> list:
        """Noiseless sweep through run_experiment: every pose exact."""
        problems = []
        table = rigidloc.run_experiment(self.config(10**6 - 1, sigma=0.0, trials=3))
        for row in table.rows:
            if row.failures:
                problems.append(f"{self.name}: noiseless {row.params} "
                                f"failed {row.failures} trials")
            if not (row.translation_rmse < POSE_TOL and row.rotation_rmse < POSE_TOL):
                problems.append(
                    f"{self.name}: noiseless {row.params} pose error "
                    f"{row.translation_rmse:.3g} m / {row.rotation_rmse:.3g} rad "
                    f"exceeds {POSE_TOL}")
        if self._base["scenario"] == "completion_benchmark":
            problems += self._completion_check()
        return problems

    def _completion_check(self) -> list:
        """Complete noiseless partial EDMs drawn like the harness draws them
        and compare the filled entries with the truth (criterion 5)."""
        problems = []
        anchors = rigidloc.cube_anchor_layout(NUM_ANCHORS)
        conf = rigidloc.box_vehicle_conformation(self._base["sensor_counts"][0])
        for fraction in self._base["missing_fraction"]:
            rng = np.random.default_rng((self.seed, 5, int(fraction * 1000)))
            pose = rigidloc.Pose(rigidloc.random_rotation(rng, 3),
                                 rng.uniform(-5.0, 5.0, 3))
            body = rigidloc.apply_pose(conf, pose)
            ranges = rigidloc.simulate_ranges(anchors, body, 0.0)
            mask = rng.random(ranges.shape) >= fraction
            partial = rigidloc.assemble_partial_edm(
                anchors, conf, MaskedRangeMatrix(ranges.values, mask))
            truth = np.vstack([anchors.positions, body.positions])
            sq = ((truth[:, None, :] - truth[None, :, :]) ** 2).sum(axis=2)
            result = rigidloc.complete_edm(partial)
            rel = float(np.abs(result.completed - sq)[~partial.mask].max(initial=0.0)
                        / sq.max())
            if not rel < EDM_TOL:
                problems.append(f"{self.name}: noiseless completion at missing "
                                f"{fraction} off by {rel:.3g} relative")
        return problems

    def replacements(self, tracer) -> list:
        """Wrappers for a traced run, installed where the callers look
        the names up."""
        local = threading.local()

        def enter_point(args):
            local.point = f"{tracer.call_label}/p{args[2]}"
            local.trial = 0
            tracer.unit = local.point

        def enter_trial(args):
            if getattr(local, "point", None) is not None:
                local.trial += 1
                tracer.unit = f"{local.point}/t{local.trial}"

        h, e, m = rigidloc.harness, rigidloc.estimators, rigidloc.measurement
        return [
            (h, "_point_rmse_vs", "harness.point", None, enter_point),
            (h, "_point_completion", "harness.point", None, enter_point),
            (h, "simulate_ranges", "measurement.simulate_ranges", observe_ranges,
             enter_trial),
            (h, "assemble_partial_edm", "measurement.assemble_partial_edm", None, None),
            (h, "complete_edm", "completion.complete_edm", observe_completion, None),
            (h, "rbl_two_stage", "estimators.rbl_two_stage", observe_two_stage, None),
            (e, "multilaterate", "estimators.multilaterate", observe_fix, None),
            (e, "fit_pose_procrustes", "estimators.fit_pose_procrustes", None, None),
            (m, "line_of_sight_blocked", "measurement.line_of_sight_blocked", None, None),
        ]


# ---------------------------------------------------------------- tracking

class TrackWorkload:
    """Frame-by-frame tracking of a K=14 box vehicle among M=8 cube anchors,
    calling the library directly with hull self-occlusion."""

    kind = "track"
    name = "track_stream"

    def __init__(self, frames: int, min_units: int, recheck: int, seed: int):
        self.seed = seed
        self.min_units = min_units
        self.recheck = recheck
        self.anchors = rigidloc.cube_anchor_layout(NUM_ANCHORS)
        self.conf = rigidloc.box_vehicle_conformation(14)
        self.eval_trajectory = make_trajectory(EVAL_SEED, min_units)
        self.trajectory = make_trajectory(seed, frames)
        self.observed_workers = None  # no harness code runs

    def api(self, tracer=None):
        fns = {n: getattr(rigidloc, n) for n in
               ("simulate_ranges", "simulate_range_rates", "rbl_two_stage",
                "estimate_motion")}
        if tracer is not None:
            layers = {"simulate_ranges": ("measurement", observe_ranges),
                      "simulate_range_rates": ("measurement", None),
                      "rbl_two_stage": ("estimators", observe_two_stage),
                      "estimate_motion": ("estimators", None)}
            fns = {n: tracer.wrap(f"{layers[n][0]}.{n}", fn, layers[n][1])
                   for n, fn in fns.items()}
        return types.SimpleNamespace(**fns)

    def truth(self, i: int):
        """(pose, motion, noise seed) of frame ``i``: the evaluation stream,
        then the seeded trajectory, repeated with fresh noise."""
        if i < self.min_units:
            return (*self.eval_trajectory[i], (EVAL_SEED, 0, i))
        rep, j = divmod(i - self.min_units, len(self.trajectory))
        return (*self.trajectory[j], (self.seed, 1 + rep, j))

    def frame(self, i: int, api, sigma=SIGMA, sigma_rate=SIGMA_RATE, tracer=None):
        """One frame: returns (pose estimate, motion estimate)."""
        pose, motion, noise_seed = self.truth(i)
        rng = np.random.default_rng(noise_seed)
        if tracer is not None:
            tracer.unit = f"f{i}"
        with tracer.span("frame") if tracer is not None else contextlib.nullcontext():
            body = rigidloc.apply_pose(self.conf, pose)
            occlusion = HullOcclusion(body)
            ranges = api.simulate_ranges(self.anchors, body, sigma, occlusion, rng)
            rates = api.simulate_range_rates(self.anchors, self.conf, pose, motion,
                                             sigma_rate, occlusion, rng)
            est = api.rbl_two_stage(self.anchors, ranges, self.conf)
            mot = api.estimate_motion(self.anchors, est.pose, self.conf, rates)
        return est, mot

    def unit(self, i: int, api, tracer=None) -> UnitResult:
        pose, motion, _ = self.truth(i)
        start = time.perf_counter()
        try:
            est, mot = self.frame(i, api, tracer=tracer)
        except ESTIMATION_ERRORS as err:
            return UnitResult(time.perf_counter() - start, 1, 1,
                              {"t": 0.0, "r": 0.0, "v": 0.0}, 0, (repr(err),))
        elapsed = time.perf_counter() - start
        t_sq, r_sq, v_sq = frame_errors(est.pose, mot.motion, pose, motion)
        return UnitResult(elapsed, 1, 0, {"t": t_sq, "r": r_sq, "v": v_sq}, 1,
                          (t_sq, r_sq, v_sq))

    def probe(self) -> list:
        """Untimed runs of the first frames, before and after the timed
        calls (the repeat check)."""
        api = self.api()
        return [self.unit(i, api) for i in range(self.recheck)]

    def spot_check(self) -> list:
        """Noiseless frames through the workload's own calls: pose and
        velocity exact."""
        problems = []
        api = self.api()
        for i in (0, self.min_units, self.min_units + 1):
            pose, motion, _ = self.truth(i)
            est, mot = self.frame(i, api, sigma=0.0, sigma_rate=0.0)
            errs = np.sqrt(frame_errors(est.pose, mot.motion, pose, motion))
            if not np.all(errs < POSE_TOL):
                problems.append(f"{self.name}: noiseless frame {i} errors "
                                f"{errs.tolist()} (m, rad, m/s) exceed {POSE_TOL}")
        return problems

    def replacements(self, tracer) -> list:
        e, m = rigidloc.estimators, rigidloc.measurement
        return [
            (e, "multilaterate", "estimators.multilaterate", observe_fix, None),
            (e, "fit_pose_procrustes", "estimators.fit_pose_procrustes", None, None),
            (m, "line_of_sight_blocked", "measurement.line_of_sight_blocked", None, None),
        ]


def frame_errors(est_pose, est_motion, pose, motion):
    t_sq = float(((est_pose.translation - pose.translation) ** 2).sum())
    r_sq = rigidloc.rotation_geodesic_error(est_pose.rotation, pose.rotation) ** 2
    v_sq = float(((est_motion.t_dot - motion.t_dot) ** 2).sum())
    return t_sq, float(r_sq), v_sq


def make_trajectory(seed: int, frames: int, segment: int = 20,
                    dt: float = 0.1) -> list:
    """Seeded tracking frames: a run of ``segment``-frame passes, each a
    smooth path near the anchor centroid (every axis oscillates) with the
    body spinning at 1 rad/s about its own random world axis. Frame cost
    depends on how the body occludes itself, so many short passes sample
    the orientations evenly and the cost of a run does not hinge on one
    path."""
    out = []
    for first in range(0, frames, segment):
        rng = np.random.default_rng((seed, 7, first))
        r0 = rigidloc.random_rotation(rng, 3)
        axis = rng.normal(size=3)
        omega = axis / np.linalg.norm(axis)
        amp = rng.uniform(2.0, 4.0, 3) * np.array([1.0, 1.0, 0.4])
        freq = rng.uniform(0.3, 0.6, 3)
        phase = rng.uniform(0.0, 2.0 * np.pi, 3)
        for k in range(min(segment, frames - first)):
            tau = k * dt
            rot = rigidloc.rotation_about_axis(omega, tau) @ r0
            pose = rigidloc.Pose(rot, amp * np.sin(freq * tau + phase))
            motion = rigidloc.BodyMotion(omega, amp * freq * np.cos(freq * tau + phase))
            out.append((pose, motion))
    return out


# ---------------------------------------------------------------- observers

def observe_fix(args, kwargs, fix, attrs):
    attrs["iterations"] = fix.iterations
    attrs["converged"] = bool(fix.converged)


def observe_completion(args, kwargs, result, attrs):
    attrs["iterations"] = result.iterations
    attrs["converged"] = bool(result.converged)
    attrs["final_objective"] = result.final_objective


def observe_two_stage(args, kwargs, est, attrs):
    anchors, ranges, conf = args[:3]
    attrs["nodes_dropped"] = int((ranges.mask.sum(axis=0) < conf.dim + 1).sum())


def observe_ranges(args, kwargs, ranges, attrs):
    attrs["masked"] = int((~ranges.mask).sum())
    attrs["entries"] = int(ranges.mask.size)


def build(name: str, seed: int, sizes: Sizes):
    if name == "mc_sensors":
        return McWorkload(name, "rmse_vs_sensors", (4, 8, 14), (0.0,),
                          sizes.mc_sensors_trials, sizes.mc_probe_trials, seed)
    if name == "mc_completion":
        return McWorkload(name, "completion_benchmark", (8,), (0.1, 0.3),
                          sizes.mc_completion_trials, sizes.mc_probe_trials,
                          seed)
    if name == "track_stream":
        return TrackWorkload(sizes.track_frames, sizes.track_min_units,
                             sizes.recheck_frames, seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("mc_sensors", "mc_completion", "track_stream")
