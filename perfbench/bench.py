"""Benchmark logic: runs workloads, applies the correctness gate,
computes the end-to-end and per-layer metrics and writes the record.

``run.py`` is the entry point; it puts the checkout's ``src/`` on the path
before this module imports rigidloc (through ``workloads``).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy

import workloads
from tracing import Tracer, self_times_ns
from workloads import pooled_rmse, run_phase, run_traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPS = 5

# name -> unit; the order is the print order
END_TO_END = {
    "setup_s": "s",
    "trials_per_cpu_s": "1/s",
    "t_rmse_m": "m",
    "r_rmse_rad": "rad",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "harness.workers": "count",
    "harness.cpu_util": "ratio",
    "harness.self_ms_per_trial": "ms/trial",
    "estimators.multilaterate.ms": "ms/trial",
    "estimators.multilaterate.calls_per_trial": "count/trial",
    "estimators.gn_iters_mean": "count",
    "estimators.gn_unconverged": "frac",
    "estimators.rbl_two_stage.ms": "ms/trial",
    "estimators.fit_pose_procrustes.ms": "ms/trial",
    "estimators.nodes_dropped": "count/trial",
    "estimators.estimate_motion.ms": "ms/trial",
    "completion.complete_edm.ms": "ms/trial",
    "completion.iters_mean": "count",
    "completion.converged_frac": "frac",
    "completion.final_objective.p50": "ratio",
    "measurement.los_calls_per_frame": "count/trial",
    "measurement.los_ms_per_frame": "ms/trial",
    "measurement.simulate_ranges.ms": "ms/trial",
    "measurement.simulate_range_rates.ms": "ms/trial",
    "measurement.assemble_partial_edm.ms": "ms/trial",
    "measurement.masked_frac": "frac",
    "tracing.busy_ms_per_trial": "ms/trial",
    "tracing.overhead_frac": "frac",
}


class GateFailure(Exception):
    """The program's outputs are wrong; the run reports no timings."""

    def __init__(self, problems, attempted=0, failed=0):
        super().__init__("; ".join(problems))
        self.problems = problems
        self.attempted = attempted
        self.failed = failed


# ---------------------------------------------------------------- stats

def tail_percentile(samples):
    """(label, value) of the highest of p99/p95/p90/p75 with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(samples)
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            return f"p{q}", float(np.percentile(samples, q))
    return None


def peak_rss_mb() -> float:
    """High-water mark of this process, so one process runs one workload."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- facts

def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(rbl_threads) -> dict:
    def blas(config):
        try:
            dep = config["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (KeyError, TypeError):
            return None
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "RBL_THREADS_inherited": rbl_threads,
        "RBL_THREADS_used": os.environ.get("RBL_THREADS"),
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------- setup

def measure_setup(name: str, seed: int, reps: int) -> list:
    """Wall time of ``reps`` fresh interpreters that import rigidloc and
    build the workload's inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", name, "--seed", str(seed)]
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


# ---------------------------------------------------------------- runs

def check_repeat(first, again, name, phase):
    """Accuracy must be bit-identical when the probe is repeated."""
    if [u.fingerprint for u in again] != [u.fingerprint for u in first]:
        raise GateFailure([f"{name}: repeating the same inputs changed the "
                           "accuracy results"], phase.trials, phase.failures)


def end_to_end(wl, phase, setup_times) -> tuple:
    """(bounded metrics, further metrics with units, run facts) for an
    untraced phase. The further metrics are the ones that exist on only
    some workloads or read 0 on all of them, so BENCHMARK.json cannot bound
    them: the call latencies, ``v_rmse_mps`` and ``fail_frac``."""
    elapsed = [u.elapsed_s for u in phase.units]
    acc = pooled_rmse(phase.units[:wl.min_units])
    metrics = {
        "setup_s": statistics.median(setup_times),
        "trials_per_cpu_s": phase.trials / phase.cpu_s,
        "t_rmse_m": acc["t"],
        "r_rmse_rad": acc["r"],
        "peak_rss_mb": peak_rss_mb(),
    }
    # a unit is one frame on track_stream and one run_experiment sweep on mc_*
    latency = "frame_ms" if wl.kind == "track" else "sweep_ms"
    more = {"trials_per_s": (phase.trials / sum(elapsed), "1/s"),
            f"{latency}.p50": (1e3 * statistics.median(elapsed), "ms")}
    tail = tail_percentile(elapsed)
    if tail is not None:
        more[f"{latency}.{tail[0]}"] = (1e3 * tail[1], "ms")
    if "v" in acc:
        more["v_rmse_mps"] = (acc["v"], "m/s")
    more["fail_frac"] = (phase.failures / phase.trials, "frac")
    info = {
        f"{latency}.n": len(elapsed),
        "measured_s": phase.wall_s,
        "steal_frac": phase.steal_frac,
        "setup_s.samples": setup_times,
        "accuracy_trials": sum(u.trials for u in phase.units[:wl.min_units]),
    }
    return metrics, more, info


def per_layer(base, traced, spans) -> dict:
    units = traced.trials
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    own = self_times_ns(spans)

    def ms(name):
        return sum(s.dur_ns for s in by_name[name]) / 1e6 / units

    def mean_attr(name, key, default=0.0):
        values = [s.attrs[key] for s in by_name[name]]
        return float(sum(values) / len(values)) if values else default

    points = by_name["harness.point"]
    per_call = defaultdict(set)
    for span in points:
        per_call[span.parent_id].add(span.thread)
    ranges = by_name["measurement.simulate_ranges"]
    entries = sum(s.attrs["entries"] for s in ranges)
    objectives = [s.attrs["final_objective"] for s in by_name["completion.complete_edm"]]
    fixes = by_name["estimators.multilaterate"]
    per_trial_base = sum(u.elapsed_s for u in base.units) / base.trials
    per_trial_traced = sum(u.elapsed_s for u in traced.units) / traced.trials
    return {
        "harness.workers": max((len(t) for t in per_call.values()), default=0),
        "harness.cpu_util": base.cpu_s / base.wall_s,
        "harness.self_ms_per_trial": sum(own[s.span_id] for s in points) / 1e6 / units,
        "estimators.multilaterate.ms": ms("estimators.multilaterate"),
        "estimators.multilaterate.calls_per_trial": len(fixes) / units,
        "estimators.gn_iters_mean": mean_attr("estimators.multilaterate", "iterations"),
        "estimators.gn_unconverged": 1.0 - mean_attr("estimators.multilaterate",
                                                     "converged", 1.0),
        "estimators.rbl_two_stage.ms": ms("estimators.rbl_two_stage"),
        "estimators.fit_pose_procrustes.ms": ms("estimators.fit_pose_procrustes"),
        "estimators.nodes_dropped": sum(s.attrs["nodes_dropped"] for s in
                                        by_name["estimators.rbl_two_stage"]) / units,
        "estimators.estimate_motion.ms": ms("estimators.estimate_motion"),
        "completion.complete_edm.ms": ms("completion.complete_edm"),
        "completion.iters_mean": mean_attr("completion.complete_edm", "iterations"),
        "completion.converged_frac": mean_attr("completion.complete_edm", "converged"),
        "completion.final_objective.p50": statistics.median(objectives)
        if objectives else 0.0,
        "measurement.los_calls_per_frame":
            len(by_name["measurement.line_of_sight_blocked"]) / units,
        "measurement.los_ms_per_frame": ms("measurement.line_of_sight_blocked"),
        "measurement.simulate_ranges.ms": ms("measurement.simulate_ranges"),
        "measurement.simulate_range_rates.ms": ms("measurement.simulate_range_rates"),
        "measurement.assemble_partial_edm.ms": ms("measurement.assemble_partial_edm"),
        "measurement.masked_frac": sum(s.attrs["masked"] for s in ranges) / entries
        if entries else 0.0,
        "tracing.busy_ms_per_trial": (ms("harness.point") + ms("frame")),
        "tracing.overhead_frac": per_trial_traced / per_trial_base - 1.0,
    }


def run_workload(name, seed, seconds, trace, sizes, setup_reps, out_dir, facts):
    """One workload run; returns the record written to ``out_dir``."""
    setup_times = measure_setup(name, seed, setup_reps) if not trace else []
    wl = workloads.build(name, seed, sizes)
    problems = wl.spot_check()
    if problems:
        raise GateFailure(problems)
    first = wl.probe()
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "facts": dict(facts, **{"harness.workers": wl.observed_workers})}
    if not trace:
        phase = run_phase(wl, seconds, wl.api())
        check_repeat(first, wl.probe(), name, phase)
        metrics, more, info = end_to_end(wl, phase, setup_times)
        units = END_TO_END
    else:
        tracer = Tracer()
        base, traced = run_traced(wl, seconds, tracer)
        check_repeat(first, wl.probe(), name, base)
        metrics = per_layer(base, traced, tracer.spans)
        units = PER_LAYER
        phase = base
        spans_path = out_dir / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        more = {}
        info = {"traced_trials": traced.trials, "spans": len(tracer.spans),
                "spans_file": spans_path.name}
    record.update(
        correct=True, attempted=phase.trials, failed=phase.failures,
        metrics={k: {"value": metrics[k], "unit": units[k]} for k in units},
        more_metrics={k: {"value": v, "unit": u} for k, (v, u) in more.items()},
        info=info)
    (out_dir / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    return record


def print_record(record) -> None:
    print(f"{record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['attempted']} trials attempted, {record['failed']} failed")
    for name, m in {**record["metrics"], **record["more_metrics"]}.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    for name, value in record["info"].items():
        if isinstance(value, float):
            value = f"{value:.6g}"
        print(f"  {name:42s} {value}")


def result_line(records) -> dict:
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records
                   for k, m in r["metrics"].items()}
    return {"correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": metrics}


def smoke(seed, out_dir, facts) -> list:
    """Every workload for a handful of trials, untraced and traced; checks
    each named metric against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != ours:
            problems.append(f"BENCHMARK.json {key} differs from the benchmark's "
                            f"metrics: {declared} != {ours}")
    records = []
    for name in workloads.WORKLOADS:
        for trace, expected in ((0, END_TO_END), (1, PER_LAYER)):
            record = run_workload(name, seed, 0.0, trace, workloads.SMOKE, 1,
                                  out_dir, facts)
            print_record(record)
            got = {k: m["unit"] for k, m in record["metrics"].items()}
            if got != expected:
                problems.append(f"{name} trace {trace}: metrics {got}")
            # bounds are shares of a median, so end-to-end metrics are never 0
            bad = [k for k, m in record["metrics"].items()
                   if not isinstance(m["value"], (int, float)) or m["value"] != m["value"]
                   or (trace == 0 and m["value"] <= 0)]
            if bad:
                problems.append(f"{name} trace {trace}: bad values for {bad}")
            records.append(record)
    if problems:
        raise GateFailure(problems)
    return records


def run_each(args) -> int:
    """``--workload all``: every workload in a fresh process of its own, so
    that ``peak_rss_mb`` is each workload's own peak. Prints the children's
    output and then one result line with the metrics under
    ``<workload>.<metric>``; stops at the first child that fails."""
    results = []
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if len(lines) > 1:
            print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            print(lines[-1] if lines else "")
            return proc.returncode
        results.append(dict(json.loads(lines[-1]), workload=name))
    print(json.dumps(result_line(results)))
    return 0


def main(args, rbl_threads) -> int:
    """Run one workload, or the smoke mode; returns the exit code."""
    OUT_DIR.mkdir(exist_ok=True)
    facts = machine_facts(rbl_threads)
    try:
        if args.smoke:
            records = smoke(args.seed, OUT_DIR, facts)
        else:
            records = [run_workload(args.workload, args.seed, args.seconds,
                                    args.trace, workloads.FULL, SETUP_REPS,
                                    OUT_DIR, facts)]
            print_record(records[0])
    except GateFailure as err:
        for problem in err.problems:
            print(f"GATE FAILED: {problem}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(err.attempted, 1),
                          "failed": err.failed, "metrics": {}}))
        return 1
    if args.smoke:
        print("smoke: ok")
    print(json.dumps(result_line(records)))
    return 0
