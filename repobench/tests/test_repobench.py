"""Tests of the repository benchmark itself (not of the program).

Run with ``python -m pytest repobench/tests -q``; the end-to-end runs of
every workload carry the ``slow`` marker.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import host  # noqa: E402
import layers  # noqa: E402

_spec = importlib.util.spec_from_file_location("repobench_run",
                                               HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

NAME = re.compile(r"[A-Za-z0-9_.-]+")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_reference_kernel_imports_nothing_from_the_program():
    tree = ast.parse((HERE / "host.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not [name for name in imported if name.split(".")[0] == "repro"]
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import host; "
             "host.reference_ms(); "
             "print(sorted(m for m in sys.modules if m.startswith('repro')))")
    out = subprocess.run([sys.executable, "-c", probe, str(HERE)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_reference_kernel_returns_a_fixed_value():
    assert host.reference_kernel() == host.REF_CHECKSUM
    assert host.reference_kernel() == host.REF_CHECKSUM


@pytest.mark.parametrize("window_s", [0.0, 1.0])
def test_scaling_a_sample_and_its_reference_leaves_it_unchanged(monkeypatch,
                                                                window_s):
    def corrected(scale: float) -> list:
        samples = iter([2.0 * scale, 3.0 * scale, 2.5 * scale])
        monkeypatch.setattr(host, "reference_ms", lambda: next(samples))
        clock = host.DriftClock(segment_s=1e9, window_s=window_s)
        clock.add(0.4 * scale)
        clock.add(0.7 * scale)
        clock.flush()
        clock.add(0.1 * scale)
        clock.flush()
        return clock.corrected

    base = corrected(1.0)
    assert len(base) == 3
    for scale in (0.5, 1.37, 4.0):
        assert corrected(scale) == pytest.approx(base, rel=1e-12)
    assert host.correction_factor([2.0, 3.0]) == pytest.approx(
        host.correction_factor([4.0, 6.0]) * 2.0)


def test_every_metric_name_is_well_formed():
    names = [entry["name"] for key in ("end_to_end", "per_layer")
             for entry in DECLARED[key]]
    names += [entry["name"] for entry in DECLARED["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for name in bench.per_layer_names():
        assert NAME.fullmatch(name), name


def test_the_declared_metrics_are_the_ones_the_benchmark_prints():
    declared = [entry["name"] for entry in DECLARED["per_layer"]]
    assert sorted(declared) == sorted(bench.per_layer_names())
    assert [entry["name"] for entry in DECLARED["end_to_end"]] == \
        list(bench.END_TO_END)
    assert {entry["name"] for entry in DECLARED["workloads"]} <= \
        set(bench.workload_names())


def test_the_layer_table_covers_every_layer_metric():
    assert len(set(layers.LAYER_NAMES)) == len(layers.LAYER_NAMES)
    for name in layers.LAYER_NAMES:
        assert f"{name}.share" in bench.per_layer_names()


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 101))
    value, percentile = bench.tail(values)
    assert value == 90 and percentile == pytest.approx(90.0)
    assert sum(1 for v in values if v > value) == 10


def run_benchmark(workload: str, trace: int, seconds: float = 0.5):
    out = subprocess.run(
        [sys.executable, "repobench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    return summary


def check_summary(summary, trace: int) -> None:
    key = "per_layer" if trace else "end_to_end"
    declared = {entry["name"]: entry["unit"] for entry in DECLARED[key]}
    printed = {name: entry["unit"]
               for name, entry in summary["metrics"].items()}
    assert printed == declared
    assert summary["correct"] is True
    assert summary["failed"] == 0 and summary["attempted"] >= 1


def test_last_stdout_line_is_the_json_summary():
    check_summary(run_benchmark("sim-hit", 0), 0)


@pytest.mark.slow
@pytest.mark.parametrize("workload",
                         [entry["name"] for entry in DECLARED["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_printed(workload, trace):
    summary = run_benchmark(workload, trace, seconds=2.0)
    check_summary(summary, trace)
    if trace:
        metrics = summary["metrics"]
        assert metrics["trace.check_mismatches"]["value"] == 0
        if workload == "serve-warm":
            assert metrics["service.simulations"]["value"] == 0
            assert metrics["sim.store.hit_ratio"]["value"] == 1


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "repobench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "repobench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes(
        (ROOT / "BENCHMARK.json").read_bytes())
    out = subprocess.run(
        [sys.executable, "repobench/run.py", "--workload", "sim-hit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
