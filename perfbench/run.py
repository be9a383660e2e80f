"""gcalc benchmark: four desk-scale workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record          # rewrite perfbench/reference.json

Workloads (see workloads.py for the exact configs):
  solve-1d   CLI `solve`, box [1,4], T=1, N=200, 401 points, quadratic payoff,
             dt-driver linear-in-y: Picard norms and CSV writing dominate.
  verify-1d  CLI `verify-estimates` on the same lattice, zero drivers: the
             harness beta loops do the work; CSVs are tiny.
  expect-2d  CLI `expect`, box [1,2]^2, N=40, 121^2 points, 25 sigma^2
             combos: the 2-d lattice operator; no norms, tiny CSV.
  replay-1d  Library pipeline: represent_martingale on `abs`, residual_check,
             compensator_mc_check: forward replay and Monte Carlo.

Every workload instance is one fresh process, started with an absolute
PYTHONPATH pointing at this tree's `src`, in a closed loop with one client:
the next instance starts when the previous one has exited, until the next
one would overrun --seconds. Outputs go to a temporary directory under
`.bench_build/` that is deleted afterwards, and every run is checked against
perfbench/reference.json. The seed feeds the CLI `--seed` and the replay
checks' seeds; the three lattice workloads are deterministic.

--trace 0 prints the end-to-end metrics: wall_s (median wall time of an
instance, launch to exit), setup_s (median over fresh processes of
`import gcalc` plus `cli.build_experiment`, or plus `build_lattice` for
replay-1d) and peak_rss_mb (median peak RSS of an instance, from os.wait4).
--trace 1 runs untraced instances, then one traced instance whose layer spans
give the per-layer metrics (layers.py), and reports trace.overhead_s as the
traced wall time minus the untraced median. The traced child's spans stay in
`.bench_build/perfbench/spans-<workload>-<size>-<seed>.json`.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it is {"detail": ...} with the environment record, sample counts,
quartiles and error_rate (failed / attempted children).
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference.json"
CHILD = HERE / "child.py"

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUP_PROBES = 5
MAX_PROBES = 40
MAX_SECONDS = 120.0
RUN_LIMIT_S = 160.0  # children are killed after this; a run must end in 180 s


class Child(NamedTuple):
    """Outcome of one child process."""

    rc: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


def launch(argv: list, cwd: Path, timeout: float) -> Child:
    """Run argv to completion; wall time from launch to exit, peak RSS of
    this child alone (os.wait4, not RUSAGE_CHILDREN). The child is killed
    at the timeout or if this process is interrupted."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = cwd / "child.stdout", cwd / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                 out_path.read_text(errors="replace"),
                 err_path.read_text(errors="replace"))


def instance_argv(name: str, size: str, seed: int, config_path: Path,
                  out: Path) -> list:
    """Command line of one untraced workload instance."""
    spec = workloads.WORKLOADS[name]
    if spec["kind"] == "cli":
        return [sys.executable, "-m", "gcalc.cli", spec["command"],
                "--config", str(config_path), "--seed", str(seed),
                "--out", str(out)]
    return [sys.executable, str(CHILD), "replay", size, str(seed), str(out)]


class Run:
    """One benchmark run of one workload: its children and their checks."""

    def __init__(self, name: str, size: str, seed: int, seconds: float,
                 reference: dict, tmp: Path):
        self.name, self.size, self.seed = name, size, seed
        self.spec = workloads.WORKLOADS[name]
        self.ref = reference[workloads.ref_key(name, size)]
        self.tmp = tmp
        self.start = time.perf_counter()
        self.deadline = self.start + seconds
        self.attempted = 0
        self.failures = []
        self.walls, self.rss, self.setups = [], [], []
        self.identical = 0
        self.bytes_written = 0
        self.config_path = tmp / "config.json"
        self.config_path.write_text(json.dumps(workloads.config(name, size)))

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.start)

    def setup_probe(self, keep: bool) -> float:
        """One fresh process timing its own set-up; returns its wall time."""
        self.attempted += 1
        child = launch([sys.executable, str(CHILD), "setup", self.name,
                        self.size], self.tmp, self.remaining())
        try:
            value = json.loads(child.stdout.strip().splitlines()[-1])["setup_s"]
        except (IndexError, KeyError, ValueError):
            self.failures.append(
                f"setup probe exit {child.rc}: {child.stderr[-500:]}")
            return child.wall_s
        if keep:
            self.setups.append(value)
        return child.wall_s

    def _check(self, child: Child, out: Path) -> bool:
        """Check one instance's exit code and outputs; count the bytes it
        wrote and the CSVs byte-identical to the reference."""
        ok = child.rc == 0
        if not ok:
            self.failures.append(f"exit {child.rc}: {child.stderr[-500:]}")
        else:
            problems, identical = workloads.check(self.name, str(out),
                                                  self.seed, self.ref)
            if problems:
                self.failures.append("; ".join(problems[:5]))
                ok = False
            self.identical = identical
        if self.spec["kind"] == "cli" and out.is_dir():
            self.bytes_written = sum(f.stat().st_size for f in out.iterdir())
        shutil.rmtree(out, ignore_errors=True)
        return ok

    def instance(self) -> bool:
        """One untraced workload instance, as a user runs it."""
        self.attempted += 1
        out = self.tmp / f"out-{self.attempted}"
        child = launch(instance_argv(self.name, self.size, self.seed,
                                     self.config_path, out),
                       self.tmp, self.remaining())
        ok = self._check(child, out)
        if ok:
            self.walls.append(child.wall_s)
            self.rss.append(child.rss_mb)
        return ok

    def closed_loop(self, deadline: float) -> None:
        """Instances back to back, at least one, while the next is expected
        to end by the deadline; stops at the first failure."""
        while (not self.walls or time.perf_counter()
               + statistics.median(self.walls) <= deadline):
            if not self.instance():
                break

    def traced(self) -> tuple:
        """One traced instance: (wall_s, dump) or (None, None) on failure."""
        self.attempted += 1
        out = self.tmp / f"out-{self.attempted}"
        SCRATCH.mkdir(parents=True, exist_ok=True)
        spans = SCRATCH / f"spans-{self.name}-{self.size}-{self.seed}.json"
        child = launch([sys.executable, str(CHILD), "traced", self.name,
                        self.size, str(self.seed), str(out),
                        str(self.config_path), str(spans)],
                       self.tmp, self.remaining())
        if not self._check(child, out):
            return None, None
        with open(spans) as fh:
            return child.wall_s, json.load(fh)


def describe(values: list) -> dict:
    """Median, quartiles, sample count and the highest percentile that has
    at least ten samples beyond it (None when there are too few)."""
    if not values:
        return {"n": 0}
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    tail = None
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100.0 >= 10:
            tail = {"p": p, "value": statistics.quantiles(values, n=100)[p - 1]}
            break
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "tail": tail}


def environment(seed: int) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "caches": caches, "python": platform.python_version(),
            "numpy": numpy_version, "git_sha": git_sha, "seed": seed,
            "GCALC_THREADS": os.environ.get("GCALC_THREADS")}


def measure(run: Run, trace: bool) -> tuple:
    """Run the workload; return (metrics, detail)."""
    detail = {}
    if not trace:
        # The first probe fills the bytecode caches and is not counted.
        # Instances leave room for SETUP_PROBES probes; probes then use the
        # time left before the deadline, up to MAX_PROBES.
        probe_wall = run.setup_probe(keep=False)
        run.closed_loop(run.deadline - SETUP_PROBES * probe_wall)
        while len(run.setups) < SETUP_PROBES or (
                len(run.setups) < MAX_PROBES
                and time.perf_counter() + probe_wall < run.deadline):
            probe_wall = run.setup_probe(keep=True)
            if run.failures:
                break
        values = {"wall_s": run.walls, "setup_s": run.setups,
                  "peak_rss_mb": run.rss}
        metrics = {}
        for name, unit in END_TO_END:
            stats = describe(values[name])
            detail[name] = {**stats, "unit": unit}
            metrics[name] = {"value": stats.get("median", 0.0), "unit": unit}
        return metrics, detail

    # Untraced instances first, leaving room for the traced one.
    if run.instance():
        run.closed_loop(run.deadline - (1.5 * run.walls[0] + 1.0))
    traced_wall, dump = run.traced() if run.walls else (None, None)
    values = layers.metrics(dump) if dump else {}
    values["cli.write_outputs.bytes"] = run.bytes_written
    values["cli.artifacts_identical"] = run.identical
    if traced_wall is not None:
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - statistics.median(run.walls)
        detail["run_id"] = dump["run_id"]
        detail["spans"] = len(dump["spans"])
    detail["untraced_wall_s"] = describe(run.walls)
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit, _ in layers.PER_LAYER}
    return metrics, detail


def record(tmp: Path) -> int:
    """Run every workload once at each size and rewrite reference.json."""
    reference = {}
    for size in workloads.SIZES:
        for name in workloads.WORKLOADS:
            key = workloads.ref_key(name, size)
            config_path = tmp / f"{key}.json"
            config_path.write_text(json.dumps(workloads.config(name, size)))
            out = tmp / f"record-{key}"
            child = launch(instance_argv(name, size, 0, config_path, out),
                           tmp, RUN_LIMIT_S)
            if child.rc != 0:
                print(f"{key}: exit {child.rc}\n{child.stderr}", file=sys.stderr)
                return 1
            reference[key] = workloads.record(name, str(out))
            shutil.rmtree(out)
            print(f"recorded {key}", file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="desk",
                        help="smoke runs the same code on tiny grids")
    parser.add_argument("--reference", type=Path, default=REFERENCE)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the reference from this tree and exit")
    args = parser.parse_args(argv)

    if not (SRC / "gcalc" / "cli.py").is_file():
        print(f"gcalc sources not found under {SRC}", file=sys.stderr)
        return 2
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seed must be >= 0 and --seconds in (0, {MAX_SECONDS}]")

    # On SIGTERM, unwind: launch() kills the running child, tmp is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    SCRATCH.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        if args.record:
            return record(tmp)
        with open(args.reference) as fh:
            reference = json.load(fh)
        run = Run(args.workload, args.size, args.seed, args.seconds,
                  reference, tmp)
        metrics, detail = measure(run, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = len(run.failures)
    attempted = max(run.attempted, 1)
    detail.update({"workload": args.workload, "size": args.size,
                   "trace": args.trace, "seconds": args.seconds,
                   "elapsed_s": time.perf_counter() - run.start,
                   "error_rate": {"value": failed / attempted, "unit": "ratio"},
                   "failures": run.failures[:10],
                   "environment": environment(args.seed)})
    for what in run.failures[:10]:
        print(f"FAILED: {what}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0 and bool(run.walls),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
