"""Workload definitions and output checks for the gcalc benchmark.

Each workload is one user-level job: three CLI commands at the paper's desk
scale and one library pipeline (martingale representation plus pathwise
replay and Monte Carlo) that no CLI command covers. The "smoke" size runs
the same code on tiny grids so the benchmark can test itself in seconds.

References are recorded once from a known-good tree with
`python3 perfbench/run.py --record` and compared numerically afterwards:
numbers to 1e-12 relative, integers, booleans and strings exactly. A CSV
that is not byte-identical to its reference is compared by exact per-column
sums (math.fsum) at the same tolerance, so a refactor that moves a field by
1e-13 is reported through the byte-identity count, not as a failure.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os

REL_TOL = 1e-12
ABS_FLOOR = 1e-15
MIN_K_FLOOR = -1e-6

_DESK_1D = {"box": {"d": 1, "lower": [1.0], "upper": [4.0]},
            "time": {"horizon": 1.0, "steps": 200},
            "space": {"points": 401}}
_SMOKE_1D = {"box": {"d": 1, "lower": [1.0], "upper": [4.0]},
             "time": {"horizon": 1.0, "steps": 16},
             "space": {"points": 101}}
_DESK_2D = {"box": {"d": 2, "lower": [1.0, 1.0], "upper": [2.0, 2.0],
                    "grid_points": 5},
            "time": {"horizon": 1.0, "steps": 40},
            "space": {"points": 121}}
_SMOKE_2D = {"box": {"d": 2, "lower": [1.0, 1.0], "upper": [2.0, 2.0],
                     "grid_points": 3},
             "time": {"horizon": 1.0, "steps": 8},
             "space": {"points": 51}}
_QUADRATIC = {"payoff": {"id": "quadratic"}}
_LINEAR_Y = {"drivers": {"dt": {"id": "linear-in-y", "params": {"r": -0.5}}}}

# kind "cli": `python -m gcalc.cli <command> --config <config>`.
# kind "replay": the library pipeline in child.py, driven by `config`.
WORKLOADS = {
    "solve-1d": {
        "kind": "cli", "command": "solve",
        "desk": {**_DESK_1D, **_QUADRATIC, **_LINEAR_Y},
        "smoke": {**_SMOKE_1D, **_QUADRATIC, **_LINEAR_Y},
    },
    "verify-1d": {
        "kind": "cli", "command": "verify-estimates",
        "desk": {**_DESK_1D, **_QUADRATIC},
        "smoke": {**_SMOKE_1D, **_QUADRATIC},
    },
    "expect-2d": {
        "kind": "cli", "command": "expect",
        "desk": {**_DESK_2D, **_QUADRATIC},
        "smoke": {**_SMOKE_2D, **_QUADRATIC},
    },
    "replay-1d": {
        "kind": "replay",
        "desk": {**_DESK_1D, "payoff": {"id": "abs"},
                 "residual": {"n_paths": 64, "n_controls": 8},
                 "mc": {"n_controls": 64, "n_paths": 256}},
        "smoke": {**_SMOKE_1D, "payoff": {"id": "abs"},
                  "residual": {"n_paths": 16, "n_controls": 2},
                  "mc": {"n_controls": 8, "n_paths": 32}},
    },
}
SIZES = ("desk", "smoke")


def config(name: str, size: str) -> dict:
    return WORKLOADS[name][size]


def ref_key(name: str, size: str) -> str:
    return name if size == "desk" else f"{name}@{size}"


# ---------------------------------------------------------------------------
# Numeric comparison
# ---------------------------------------------------------------------------

def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_FLOOR


def diff_values(got, want, where: str) -> list:
    """Mismatches between two JSON values; numbers compared to REL_TOL."""
    if isinstance(want, bool) or isinstance(got, bool):
        return [] if got is want else [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, int) and isinstance(got, int):
        return [] if got == want else [f"{where}: {got} != {want}"]
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        return [] if _close(float(got), float(want)) else \
            [f"{where}: {got!r} != {want!r} (rel tol {REL_TOL})"]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += diff_values(g, w, f"{where}[{i}]")
        return out
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        out = []
        for k in sorted(want):
            out += diff_values(got[k], want[k], f"{where}.{k}")
        return out
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


# ---------------------------------------------------------------------------
# CSV fingerprints
# ---------------------------------------------------------------------------

def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def csv_fingerprint(path: str) -> dict:
    """sha256 plus exact per-column sums of the numeric cells, and every
    non-numeric cell (booleans, empty cells) by row."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = [[] for _ in header]
        text = [{} for _ in header]
        rows = 0
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{os.path.basename(path)}: ragged row {rows}")
            for j, cell in enumerate(row):
                try:
                    cols[j].append(float(cell))
                except ValueError:
                    text[j][str(rows)] = cell
            rows += 1
    return {"sha256": _sha256(path), "header": header, "rows": rows,
            "sum": [math.fsum(c) for c in cols],
            "abs_sum": [math.fsum(abs(v) for v in c) for c in cols],
            "text": text}


def _diff_csv(got: dict, want: dict, name: str) -> list:
    for key in ("header", "rows", "text"):
        if got[key] != want[key]:
            return [f"{name}: {key} differs from the reference"]
    out = []
    for j, col in enumerate(want["header"]):
        scale = max(want["abs_sum"][j], got["abs_sum"][j])
        for key in ("sum", "abs_sum"):
            if abs(got[key][j] - want[key][j]) > REL_TOL * scale + ABS_FLOOR:
                out.append(f"{name}: column {col} {key} {got[key][j]!r} != "
                           f"{want[key][j]!r}")
    return out


# ---------------------------------------------------------------------------
# Reference record and check
# ---------------------------------------------------------------------------

def _load(path: str):
    """Parsed JSON file, or None when it is missing or malformed."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def record(name: str, out_dir: str) -> dict:
    """Reference entry from a known-good run's output directory."""
    if WORKLOADS[name]["kind"] == "replay":
        return {"y0": _load(os.path.join(out_dir, "result.json"))["y0"]}
    csvs = sorted(f for f in os.listdir(out_dir) if f.endswith(".csv"))
    return {"outputs": _load(os.path.join(out_dir, "summary.json"))["outputs"],
            "files": {f: csv_fingerprint(os.path.join(out_dir, f))
                      for f in csvs}}


def check(name: str, out_dir: str, seed: int, ref: dict) -> tuple:
    """Compare one run's outputs with its reference.

    Returns (problems, identical_csvs): an empty problem list means the run
    is correct; identical_csvs counts CSVs byte-identical to the reference.
    """
    if WORKLOADS[name]["kind"] == "replay":
        return _check_replay(out_dir, ref), 0
    summary = _load(os.path.join(out_dir, "summary.json"))
    if not isinstance(summary, dict):
        return ["summary.json is missing or malformed"], 0
    problems = []
    if summary.get("command") != WORKLOADS[name]["command"]:
        problems.append(f"summary command {summary.get('command')!r}")
    if summary.get("seed") != seed:
        problems.append(f"summary seed {summary.get('seed')!r} != {seed}")
    # Outputs and CSVs added after the reference was recorded are not checked.
    outputs = summary.get("outputs")
    outputs = outputs if isinstance(outputs, dict) else {}
    problems += diff_values({k: outputs.get(k) for k in ref["outputs"]},
                            ref["outputs"], "outputs")
    identical = 0
    for f in sorted(ref["files"]):
        fpath = os.path.join(out_dir, f)
        want = ref["files"][f]
        if not os.path.isfile(fpath):
            problems.append(f"{f} was not written")
            continue
        if _sha256(fpath) == want["sha256"]:
            identical += 1
            continue
        try:
            problems += _diff_csv(csv_fingerprint(fpath), want, f)
        except (ValueError, StopIteration) as exc:
            problems.append(f"{f}: unreadable ({exc})")
    return problems, identical


def _check_replay(out_dir: str, ref: dict) -> list:
    res = _load(os.path.join(out_dir, "result.json"))
    if not isinstance(res, dict):
        return ["result.json is missing or malformed"]
    problems = diff_values(res.get("y0"), ref["y0"], "y0")
    min_k = res.get("min_k_increment")
    if not isinstance(min_k, (int, float)) or not min_k >= MIN_K_FLOOR:
        problems.append(f"min(K_inc) {min_k!r} < {MIN_K_FLOOR}")
    if res.get("mc_ok") is not True:
        problems.append(f"compensator MC check not ok: {res.get('mc')!r}")
    return problems
