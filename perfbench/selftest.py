"""Self-test of the gcalc benchmark, on tiny grids in about a minute.

    python3 perfbench/selftest.py

Checks that
  * run.py and layers.py declare exactly the metrics BENCHMARK.json names;
  * every workload at smoke size, with --trace 0 and --trace 1, ends with a
    correct result line that carries every named metric with its unit;
  * a reference with one perturbed output value, or one perturbed CSV column
    sum, makes the run count failures, while a CSV that only differs in its
    hash lowers cli.artifacts_identical without a failure;
  * run.py exits non-zero without a result line in a directory that holds
    only BENCHMARK.json and the benchmark's own files.
Exits 1 if any check fails.
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import layers
import run
import workloads

BENCHMARK = run.ROOT / "BENCHMARK.json"
SMOKE_SECONDS = "1.5"
failures = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
    if not ok:
        failures.append(what)


def bench(workload: str, trace: int, reference: Path = run.REFERENCE) -> tuple:
    """Run run.py at smoke size; (exit code, parsed result line or None)."""
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload",
         workload, "--size", "smoke", "--seed", "7", "--seconds", SMOKE_SECONDS,
         "--trace", str(trace), "--reference", str(reference)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if result is not None and set(result) != {"correct", "attempted", "failed",
                                              "metrics"}:
        result = None
    return proc.returncode, result


def declared(section: str) -> dict:
    with open(BENCHMARK) as fh:
        return {m["name"]: m for m in json.load(fh)[section]}


def check_declarations() -> None:
    e2e = declared("end_to_end")
    expect({n: e2e[n]["unit"] for n in e2e} == dict(run.END_TO_END),
           "run.END_TO_END matches BENCHMARK.json end_to_end")
    per_layer = declared("per_layer")
    expect({n: (m["unit"], m["better"]) for n, m in per_layer.items()}
           == {n: (u, b) for n, u, b in layers.PER_LAYER},
           "layers.PER_LAYER matches BENCHMARK.json per_layer")


def check_smoke_runs() -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        units = {n: m["unit"] for n, m in declared(section).items()}
        for name in workloads.WORKLOADS:
            rc, res = bench(name, trace)
            ok = (rc == 0 and res is not None and res["correct"] is True
                  and res["failed"] == 0 and res["attempted"] >= 1
                  and set(res["metrics"]) == set(units)
                  and all(m["unit"] == units[k]
                          and isinstance(m["value"], (int, float))
                          and not isinstance(m["value"], bool)
                          for k, m in res["metrics"].items()))
            expect(ok, f"{name} --trace {trace}: correct, every {section} "
                       f"metric with its unit")


def check_perturbed(tmp: Path) -> None:
    with open(run.REFERENCE) as fh:
        good = json.load(fh)

    def with_reference(edit) -> Path:
        ref = copy.deepcopy(good)
        edit(ref)
        path = tmp / "reference.json"
        path.write_text(json.dumps(ref))
        return path

    def y0(key):
        def edit(ref):
            entry = ref[key].get("outputs", ref[key])
            if isinstance(entry["y0"], list):
                entry["y0"][0] *= 1.0 + 1e-9
            else:
                entry["y0"] *= 1.0 + 1e-9
        return edit

    def csv_sum(key, name, hash_only):
        def edit(ref):
            fp = ref[key]["files"][name]
            fp["sha256"] = "0" * 64
            if not hash_only:
                fp["sum"][1] *= 1.0 + 1e-9
        return edit

    for name, edit, what in (
            ("solve-1d", y0("solve-1d@smoke"), "summary y0"),
            ("replay-1d", y0("replay-1d@smoke"), "replay y0"),
            ("verify-1d", csv_sum("verify-1d@smoke", "estimates.csv", False),
             "estimates.csv column sum")):
        rc, res = bench(name, 0, with_reference(edit))
        expect(rc == 0 and res is not None and res["failed"] >= 1
               and res["correct"] is False,
               f"{name}: a reference {what} off by 1e-9 counts as a failure")

    rc, res = bench("expect-2d", 1, with_reference(
        csv_sum("expect-2d@smoke", "expectation.csv", True)))
    expect(rc == 0 and res is not None and res["failed"] == 0
           and res["metrics"]["cli.artifacts_identical"]["value"] == 0,
           "expect-2d: a CSV hash mismatch with equal numbers is reported "
           "through cli.artifacts_identical, not as a failure")


def check_bare_directory(tmp: Path) -> None:
    bare = tmp / "bare"
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK, bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-1d", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    expect(proc.returncode != 0 and "metrics" not in proc.stdout,
           "without the gcalc sources run.py exits non-zero and prints no result")


def main() -> int:
    check_declarations()
    check_smoke_runs()
    run.SCRATCH.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.SCRATCH))
    try:
        check_perturbed(tmp)
        check_bare_directory(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
