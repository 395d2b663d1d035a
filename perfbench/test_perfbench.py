"""Self-test of the benchmark: ``python3 -m pytest perfbench`` from the
repository root (about a minute)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import rigidloc  # noqa: E402
import rigidloc.estimators  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, self_times_ns  # noqa: E402


def test_self_time_subtracts_only_same_thread_children():
    spans = [
        Span("root", 0, 100, 0, None, 1, None),
        Span("child", 10, 40, 1, 0, 1, None),
        Span("grandchild", 20, 30, 2, 1, 1, None),
        Span("worker", 5, 95, 3, 0, 2, None),   # caused by root, other thread
    ]
    own = self_times_ns(spans)
    assert own == {0: 70, 1: 20, 2: 10, 3: 90}


def test_spans_nest_per_thread_and_take_the_cause_across_threads():
    tracer = Tracer()
    with tracer.span("call"):
        tracer.cause = tracer.current()
        with tracer.span("inner"):
            pass

        def work():
            with tracer.span("point"):
                with tracer.span("leaf"):
                    pass
        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent_id == by_name["call"].span_id
    assert by_name["point"].parent_id == by_name["call"].span_id
    assert by_name["leaf"].parent_id == by_name["point"].span_id
    assert by_name["point"].thread != by_name["call"].thread


def test_patched_restores_originals_when_the_body_raises():
    original = rigidloc.estimators.multilaterate
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched([(rigidloc.estimators, "multilaterate", "m", None, None)]):
            assert rigidloc.estimators.multilaterate is not original
            raise RuntimeError
    assert rigidloc.estimators.multilaterate is original


@pytest.mark.parametrize("n, expected", [(9, None), (39, None), (40, "p75"),
                                         (100, "p90"), (200, "p95"),
                                         (1000, "p99")])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    tail = bench.tail_percentile(list(range(n)))
    assert (tail and tail[0]) == expected


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_gate_catches_a_perturbed_multilaterate(monkeypatch, name):
    wl = workloads.build(name, 3, workloads.SMOKE)
    assert wl.spot_check() == []
    real = rigidloc.estimators.multilaterate

    def perturbed(*args, **kwargs):
        fix = real(*args, **kwargs)
        fix.position = fix.position + 1e-3
        return fix
    monkeypatch.setattr(rigidloc.estimators, "multilaterate", perturbed)
    assert wl.spot_check()


def test_gate_catches_wrong_completed_entries(monkeypatch):
    wl = workloads.build("mc_completion", 3, workloads.SMOKE)
    real = rigidloc.complete_edm

    def off(*args, **kwargs):
        result = real(*args, **kwargs)
        result.completed = result.completed * 1.01
        return result
    monkeypatch.setattr(rigidloc, "complete_edm", off)
    assert any("completion" in p for p in wl.spot_check())


def test_repeat_check_fails_when_results_change():
    wl = workloads.build("track_stream", 3, workloads.SMOKE)
    first, again = wl.probe(), wl.probe()
    phase = workloads.run_phase(wl, 0.0, wl.api())
    bench.check_repeat(first, again, wl.name, phase)
    again[0].fingerprint = (0.0,)
    with pytest.raises(bench.GateFailure):
        bench.check_repeat(first, again, wl.name, phase)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_bit_identical_accuracy(tmp_path, name):
    accuracy = []
    for _ in range(2):
        record = bench.run_workload(name, 5, 0.0, 0, workloads.SMOKE, 1,
                                    tmp_path, {})
        accuracy.append({k: record["metrics"][k]["value"]
                         for k in ("t_rmse_m", "r_rmse_rad")})
    assert accuracy[0] == accuracy[1]
    assert all(v > 0 for v in accuracy[0].values())


def test_smoke_mode_prints_every_metric_and_passes_the_gate():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert "smoke: ok" in lines
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_sensors",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
