"""simcores benchmark: times the real CLI, one fresh process per command.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop with a single client: run.py starts one command at a time and
waits for it, because a CLI user pays interpreter start-up and cold caches on
every command.  Children run `python -m simcores` with PYTHONPATH set to this
checkout's `src`; the run fails if `simcores` imports from anywhere else.

--trace 0 repeats passes over the workload's commands for S seconds and
reports the per-pass medians of the end-to-end metrics: wall_s, cpu_s
(user+sys of the children, from os.wait4), peak_rss_mb (largest child
max-RSS) and setup_s (interpreter start plus `import simcores.cli`, sampled
five times before the passes and once after each).  fail_ratio is printed,
and the result line carries it as failed / attempted.

wall_s, cpu_s and setup_s are calibrated to a fixed host speed.  On a shared
host the speed of a vCPU swings by tens of percent within seconds and drifts
from one minute to the next, and CPU time swings with it, so raw seconds from
two runs of the same code disagree by more than a regression worth catching.
A timed child is therefore stopped (SIGSTOP) every SLICE_S seconds and at
its exit, and this process runs a fixed pure-Python calibration loop before
continuing it (SIGCONT).  Each stretch the child ran is multiplied by
CALIBRATION_S / (mean of the loop times on either side): its seconds on a
host where the loop takes CALIBRATION_S, about what it takes on an idle
2-vCPU Xeon.  Paused time is not counted.  cpu_s is scaled by the command's
mean factor.  Raw medians are printed beside the calibrated ones; the traced
run is not calibrated.

--trace 1 alternates untraced and traced passes for S seconds.  A traced pass
starts each command through launcher.py, which wraps simcores' entry points
in spans; the run reports the per-layer medians and the tracing overhead
(median traced pass minus median untraced pass, which also includes the
launcher starting as a script where the CLI starts through `-m`), and counts
a traced command as failed when its stdout differs from the untraced one
(timing fields aside).

Output is checked against independently known values (see workloads.py);
the last line of stdout is the JSON result.  Only these processes are
measured: nothing is pinned and no cache is dropped.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import ITEM_SPANS, SPAN_NAMES
from workloads import WORKLOADS, Command, without_timing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
COMMAND_TIMEOUT_S = 60
SETUP_SAMPLES_FIRST = 5
IMPORT_ONLY = ("-c", "import simcores.cli")
# seconds calibration_loop() takes on an idle host; calibrated times are scaled to it
CALIBRATION_S = 0.05
# longest stretch a timed child runs between two calibration loops
SLICE_S = 0.4


@dataclass
class Outcome:
    """One finished command: what it cost and whether its output was right."""

    wall_s: float
    cpu_s: float
    maxrss_kb: int
    stdout: str
    error: str | None  # why the command counts as failed, or None
    scale: float = 1.0  # host-speed factor from HostClock; 1.0 when not calibrated


def calibration_loop() -> float:
    """Wall seconds of a fixed pure-Python loop: dict updates, integer
    arithmetic and small tuples, the kind of work simcores does."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(250_000):
        key = i % 997
        counts[key] = counts.get(key, 0) + i * 3 // 7
    rows = [tuple(range(i % 20)) for i in range(30_000)]
    del rows
    return time.perf_counter() - t0


class HostClock:
    """Host-speed factors for timed children (see the module docstring)."""

    def __init__(self):
        self.last = calibration_loop()

    def scale(self) -> float:
        """Factor for the stretch of child time that just ended: CALIBRATION_S
        over the mean of the loop before it and a loop run now, which is also
        the loop before the next stretch."""
        after = calibration_loop()
        factor = CALIBRATION_S / ((self.last + after) / 2)
        self.last = after
        return factor


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], stdout_path: Path, stderr_path: Path, clock: HostClock | None = None):
    """Run argv to completion; returns (wall_s, scale, exit code or None on
    timeout, rusage).

    With a clock, the child is stopped every SLICE_S seconds while the clock
    runs its calibration loop, then continued; wall_s counts only the time the
    child ran, and scale is the host-speed factor over its slices (1.0
    without a clock)."""
    slice_s = SLICE_S if clock else COMMAND_TIMEOUT_S
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        wall = calibrated = 0.0
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                while True:
                    ready, _, _ = select.select([pidfd], [], [], slice_s)
                    timed_out = not ready and time.perf_counter() - start > COMMAND_TIMEOUT_S
                    if not ready:
                        signal.pidfd_send_signal(pidfd, signal.SIGKILL if timed_out else signal.SIGSTOP)
                    _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                    seconds = time.perf_counter() - t0
                    wall += seconds
                    calibrated += seconds * (clock.scale() if clock else 1.0)
                    if not os.WIFSTOPPED(status):
                        break
                    signal.pidfd_send_signal(pidfd, signal.SIGCONT)
                    t0 = time.perf_counter()
            finally:
                os.close(pidfd)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, calibrated / wall, (None if timed_out else proc.returncode), usage


def run_command(cmd: Command, tmp: Path, traced: bool, clock: HostClock | None) -> Outcome:
    args = [a.replace("{tmp}", str(tmp)) for a in cmd.args]
    out_path, err_path = tmp / f"{cmd.name}.out", tmp / f"{cmd.name}.err"
    if traced:
        argv = [sys.executable, str(HERE / "launcher.py"), str(tmp / f"{cmd.name}.spans"), *args]
    else:
        argv = [sys.executable, "-m", "simcores", *args]
    wall, scale, code, usage = spawn(argv, out_path, err_path, clock)
    stdout = out_path.read_text()
    stderr = err_path.read_text()
    if code is None:
        error = f"timed out after {COMMAND_TIMEOUT_S} s"
    elif code != 0:
        error = f"exit code {code}: {stderr.strip()[-200:]}"
    elif "Traceback" in stderr:
        error = f"traceback on stderr: {stderr.strip()[-200:]}"
    else:
        error = cmd.check(stdout)
    if error:
        error = f"{cmd.name}: {error}"
    return Outcome(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, stdout, error, scale)


def resolve_package(tmp: Path) -> str:
    """simcores.__file__ as the children see it; exits unless it is this checkout's src."""
    argv = [sys.executable, "-c", "import simcores, simcores.cli; print(simcores.__file__)"]
    _, _, code, _ = spawn(argv, tmp / "resolve.out", tmp / "resolve.err")
    where = (tmp / "resolve.out").read_text().strip()
    if code != 0 or not Path(where).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"simcores must import from {SRC}; got {where or (tmp / 'resolve.err').read_text()}")
    return where


def setup_sample(tmp: Path, clock: HostClock) -> tuple[float, float]:
    """Wall seconds and host-speed factor of one process that only starts
    Python and imports simcores.cli."""
    wall, scale, code, _ = spawn([sys.executable, *IMPORT_ONLY], tmp / "setup.out",
                                 tmp / "setup.err", clock)
    if code != 0:
        sys.exit(f"import simcores.cli failed: {(tmp / 'setup.err').read_text()}")
    return wall, scale


def repeat_within(seconds: float, step) -> list:
    """Call step() once, then again while a call of median length still fits in `seconds`."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return results


def run_pass(commands, tmp: Path, traced: bool = False,
             clock: HostClock | None = None) -> list[Outcome]:
    return [run_command(cmd, tmp, traced, clock) for cmd in commands]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def timed_run(workload, tmp: Path, seconds: float):
    clock = HostClock()
    raw_setup, setup = [], []

    def one_setup():
        wall, scale = setup_sample(tmp, clock)
        raw_setup.append(wall)
        setup.append(wall * scale)

    # set-up samples are spread over the run, so they see the same host as the passes
    for _ in range(SETUP_SAMPLES_FIRST):
        one_setup()

    def one_pass():
        outcomes = run_pass(workload.commands, tmp, clock=clock)
        one_setup()
        return outcomes

    passes = repeat_within(seconds, one_pass)
    samples = {
        "wall_s": [sum(o.wall_s * o.scale for o in p) for p in passes],
        "cpu_s": [sum(o.cpu_s * o.scale for o in p) for p in passes],
        "peak_rss_mb": [max(o.maxrss_kb for o in p) / 1024 for p in passes],
    }
    raw = {
        "wall_s": statistics.median(sum(o.wall_s for o in p) for p in passes),
        "cpu_s": statistics.median(sum(o.cpu_s for o in p) for p in passes),
        "setup_s": statistics.median(raw_setup),
    }
    units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    outcomes = [o for p in passes for o in p]
    failed = [o.error for o in outcomes if o.error]
    print(f"{workload.name}: {len(passes)} passes of {len(workload.commands)} commands")
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        uncalibrated = f"  (raw median {raw[name]:.4f})" if name in raw else ""
        print(f"  {name:12s} median {med:.4f} {units[name]}  q1 {q1:.4f}  q3 {q3:.4f}  "
              f"n={len(values)}{uncalibrated}")
    setup_s = statistics.median(setup)
    print(f"  {'setup_s':12s} median {setup_s:.4f} s  n={len(setup)}  (raw median {raw['setup_s']:.4f})")
    cpu, wall = statistics.median(samples["cpu_s"]), statistics.median(samples["wall_s"])
    print(f"  {'cpu_s/wall_s':12s} {cpu / wall:.3f} ratio")
    print(f"  {'fail_ratio':12s} {len(failed) / len(outcomes):.4f} ratio ({len(failed)}/{len(outcomes)} commands)")
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["setup_s"] = setup_s
    return outcomes, failed, {name: {"value": v, "unit": units[name]} for name, v in metrics.items()}


def traced_run(workload, tmp: Path, seconds: float):
    """Alternate untraced and traced passes for `seconds`; report per-layer medians."""
    outcomes, plain_walls, traced_walls = [], [], []

    def one_pair():
        plain = run_pass(workload.commands, tmp)
        traced = run_pass(workload.commands, tmp, traced=True)
        plain_walls.append(sum(o.wall_s for o in plain))
        traced_walls.append(sum(o.wall_s for o in traced))
        outcomes.extend(plain + traced)
        return traced_pass_metrics(workload.commands, plain, traced, tmp)

    layer_runs = repeat_within(seconds, one_pair)
    metrics = {name: (statistics.median_low(run[name][0] for run in layer_runs), unit)
               for name, (_, unit) in layer_runs[0].items()}
    metrics["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(plain_walls), "s")
    print(f"{workload.name}: {len(layer_runs)} untraced and traced passes of "
          f"{len(workload.commands)} commands (medians)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    failed = [o.error for o in outcomes if o.error]
    return outcomes, failed, {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}


def traced_pass_metrics(commands, plain, traced, tmp: Path) -> dict:
    """Per-layer metrics of one traced pass; marks traced commands whose stdout
    differs from the untraced pass (timing fields aside) as failed."""
    summaries = []
    for cmd, a, b in zip(commands, plain, traced):
        spans_file = tmp / f"{cmd.name}.spans"
        if spans_file.exists():
            summaries.append(json.loads(spans_file.read_text()))
            spans_file.unlink()
        elif not b.error:
            b.error = f"{cmd.name}: the launcher wrote no spans"
        if not b.error and without_timing(a.stdout) != without_timing(b.stdout):
            b.error = f"{cmd.name}: traced stdout differs from the untraced stdout"
    metrics = layer_metrics(summaries)
    metrics["cli.stdout_bytes"] = (sum(len(o.stdout.encode()) for o in traced), "bytes")
    return metrics


def layer_metrics(summaries: list[dict]) -> dict:
    """Per-span totals over a pass's commands, plus the pool and cache ratios."""
    out = {}
    for name in SPAN_NAMES:
        rows = [s["spans"][name] for s in summaries]
        out[f"{name}.calls"] = (sum(r["calls"] for r in rows), "count")
        if name in ITEM_SPANS:
            out[f"{name}.items"] = (sum(r["items"] for r in rows), "count")
        for key in ("self_s", "busy_s", "wait_s"):
            out[f"{name}.{key}"] = (sum(r[key] for r in rows), "s")
    capacity = sum(s["pool_capacity_s"] for s in summaries)
    busy = sum(s["pool_task_busy_s"] for s in summaries)
    out["verify.worker_busy_ratio"] = (busy / capacity if capacity else 0.0, "ratio")
    builds = sum(s["build_gap_poset_calls"] for s in summaries)
    inits = sum(s["posets_inits"] for s in summaries)
    out["posets.build_hit_ratio"] = (1 - inits / builds if builds else 0.0, "ratio")
    return out


def run_record(seed: int, package_file: str, load_before) -> dict:
    rev = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        rev = done.stdout.strip() or None
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "seed": seed,
        "simcores_file": package_file,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    load_before = os.getloadavg()
    workload = WORKLOADS[args.workload](args.seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        tmp = Path(scratch)
        package_file = resolve_package(tmp)
        if args.trace:
            outcomes, failed, metrics = traced_run(workload, tmp, args.seconds)
        else:
            outcomes, failed, metrics = timed_run(workload, tmp, args.seconds)
    for reason in failed:
        print(f"FAILED {reason}")
    print("record " + json.dumps(run_record(args.seed, package_file, load_before)))
    result = {"correct": not failed, "attempted": len(outcomes), "failed": len(failed),
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
