"""Self-test of the benchmark: tracer fidelity, exact counts and output checks.

Run from the repository root (about a minute; it runs traced commands twice):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import run
from workloads import (
    WORKLOADS,
    Command,
    closed_forms,
    enum_consecutive,
    equinumerous_j2,
    expect_core_listing,
    expect_report,
    gd_path_count,
    motzkin,
    rational_catalan,
    subpartition_size_poly,
    without_timing,
)

HERE = Path(__file__).resolve().parent


def traced_counts(cmd: Command, tmp: Path) -> dict:
    """Exact per-layer counts of one traced run; the command must pass its
    check and print what the untraced command prints, timing aside."""
    plain = run.run_pass([cmd], tmp)
    traced = run.run_pass([cmd], tmp, traced=True)
    metrics = run.traced_pass_metrics([cmd], plain, traced, tmp)
    assert [o.error for o in plain + traced] == [None, None]
    return {name: value for name, (value, unit) in metrics.items() if unit == "count"}


def test_small_listing_counts(tmp_path):
    counts = traced_counts(Command("ideals", ("ideals", "--gens", "5,7", "--list"), lambda out: None),
                           tmp_path)
    assert counts["posets.enum.calls"] == 1
    assert counts["posets.enum.items"] == 66


def test_conjecture_counts_repeat_and_match(tmp_path):
    cmd = enum_consecutive(0).commands[0]
    first, second = traced_counts(cmd, tmp_path), traced_counts(cmd, tmp_path)
    assert first == second
    assert first["posets.enum.items"] == 15511
    assert first["paths.gd_enum.items"] == 15511
    # ideal_to_core reaches partition_from_hooks only through simcores.posets' binding
    assert first["posets.ideal_to_core.calls"] == 2 * 15511
    assert first["partitions.from_hooks.calls"] == 2 * 15511
    assert first["paths.gd_to_ideal.calls"] == 15511


def test_equinumerous_counts_repeat_and_workers_have_a_parent(tmp_path):
    (cmd,) = equinumerous_j2(0).commands
    first, second = traced_counts(cmd, tmp_path), traced_counts(cmd, tmp_path)
    assert first == second
    assert first["verify.report.calls"] == 1
    assert first["verify.report.items"] == 91

    run.run_pass([cmd], tmp_path, traced=True)
    summary = json.loads((tmp_path / f"{cmd.name}.spans").read_text())
    assert summary["cross_thread_spans"] > 0
    assert summary["pool_task_busy_s"] > 0
    assert summary["spans"]["verify.report"]["wait_s"] > 0


def test_recursive_counts_record_the_outermost_call(tmp_path):
    cmd = Command("mc", ("count", "multi-catalan", "--s", "300", "--p", "3"),
                  lambda out: None if out == f"{gd_path_count(300, 3)}\n" else "wrong count")
    assert traced_counts(cmd, tmp_path)["posets.multi_catalan.calls"] == 1


def test_install_rebinds_every_namespace_but_multi_catalan_home():
    probe = (
        "import json, simcores.cli as cli, simcores.posets as po, simcores.partitions as pa\n"
        "import simcores.series as se\n"
        "from tracer import Tracer\n"
        "original = pa.partition_from_hooks\n"
        "Tracer().install()\n"
        "print(json.dumps([\n"
        "    po.partition_from_hooks is pa.partition_from_hooks,\n"
        "    po.partition_from_hooks.__wrapped__ is original,\n"
        "    cli.multi_catalan.__wrapped__ is po.multi_catalan,\n"
        "    se.PowerSeries.__rmul__ is se.PowerSeries.__mul__,\n"
        "    hasattr(se.PowerSeries.__mul__, '__wrapped__'),\n"
        "]))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=run.child_env(), cwd=HERE,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [True] * 5


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "closed_forms", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_matches_what_the_runs_report():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}
    layer_names = set(run.layer_metrics([])) | {"cli.stdout_bytes", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names


def test_host_clock_scales_by_the_loops_around_each_child(monkeypatch):
    loops = iter([0.1, 0.3, 0.05])
    monkeypatch.setattr(run, "calibration_loop", lambda: next(loops))
    clock = run.HostClock()
    assert clock.scale() == pytest.approx(run.CALIBRATION_S / 0.2)
    assert clock.scale() == pytest.approx(run.CALIBRATION_S / 0.175)


def test_stopped_and_continued_child_runs_to_completion(tmp_path):
    argv = [sys.executable, "-c", "print(sum(range(40_000_000)))"]
    wall, scale, code, _ = run.spawn(argv, tmp_path / "out", tmp_path / "err", run.HostClock())
    assert code == 0
    assert (tmp_path / "out").read_text() == f"{sum(range(40_000_000))}\n"
    assert wall > 0 and scale > 0


def test_reference_values():
    assert motzkin(12) == 15511 and motzkin(16) == 853467
    assert rational_catalan(9, 11) == 8398 and rational_catalan(13, 17) == 3991995
    assert gd_path_count(4, 2) == 9
    assert [gd_path_count(n, 1) for n in range(1, 6)] == [1, 2, 5, 14, 42]
    assert subpartition_size_poly([2, 1]) == [1, 1, 2, 1]


def test_checks_reject_wrong_output():
    passing = [{"statement": "s", "instances": 2, "passed": True, "failures": [], "notes": []}]
    failing = [dict(passing[0], passed=False, failures=["x"])]
    check = expect_report("s", 2)
    assert check(json.dumps(passing)) is None
    assert check(json.dumps(failing)) is not None
    listing = expect_core_listing([2, 3], 2, 1)
    assert listing(json.dumps({"generators": [2, 3], "count": "2", "cores": [[], [1]]})) is None
    assert listing(json.dumps({"generators": [2, 3], "count": "2", "cores": [[1], [1]]})) is not None
    assert without_timing('"duration_seconds": 1.25e-05} in 3.14s') == '"duration_seconds": 0} in 0.00s'


def test_seed_fixes_the_inputs():
    def args(seed):
        return [c.args for c in closed_forms(seed).commands]
    assert args(7) == args(7)
    assert any(args(seed) != args(7) for seed in range(8))
