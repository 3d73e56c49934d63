"""Output checks for the benchmark's operations.

Every check returns a list of problems (empty when the output is correct), so
a fast wrong answer is counted as a failed operation instead of a fast one.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

RUIN_HEADER = ["l", "u", "psi_numerical", "psi_mc", "ci_lo", "ci_hi"]


def check_psi_table(psi, n_u: int, horizon: int, label: str = "psi") -> list[str]:
    """psi[l-1, j]: finite, in [0, 1], nonincreasing in u, nondecreasing in l."""
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (horizon, n_u):
        return [f"{label}: shape {psi.shape}, expected {(horizon, n_u)}"]
    problems = []
    if not np.isfinite(psi).all():
        problems.append(f"{label}: non-finite values")
    elif psi.min() < 0.0 or psi.max() > 1.0:
        problems.append(f"{label}: values outside [0, 1] "
                        f"(min {psi.min():.6g}, max {psi.max():.6g})")
    if (np.diff(psi, axis=1) > 0.0).any():
        problems.append(f"{label}: increases with initial capital u")
    if (np.diff(psi, axis=0) < 0.0).any():
        problems.append(f"{label}: decreases with the horizon l")
    return problems


def read_ruin_csv(out_dir: str):
    """(rows as float arrays keyed by column, raw bytes) of ruin.csv."""
    path = os.path.join(out_dir, "ruin.csv")
    with open(path, "rb") as fh:
        data = fh.read()
    reader = csv.reader(data.decode().splitlines())
    header = next(reader)
    rows = [[float(x) for x in row] for row in reader]
    table = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return header, table, data


def check_manifest(out_dir: str) -> list[str]:
    """Every sha256 listed in manifest.json matches the bytes of its file."""
    try:
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"manifest.json unreadable: {exc}"]
    outputs = manifest.get("outputs") or {}
    if "ruin.csv" not in outputs:
        return ["manifest.json does not list ruin.csv"]
    problems = []
    for name, digest in outputs.items():
        try:
            with open(os.path.join(out_dir, name), "rb") as fh:
                actual = hashlib.sha256(fh.read()).hexdigest()
        except OSError as exc:
            problems.append(f"manifest lists {name}, unreadable: {exc}")
            continue
        if actual != digest:
            problems.append(f"sha256 of {name} does not match manifest.json")
    return problems


def check_ruin_output(out_dir: str, u_values, horizon: int):
    """Checks one `ruin` CLI output directory.

    Returns (problems, psi5_gap_max, ruin.csv bytes); the gap is
    max_u |psi_numerical - psi_mc| at l = horizon, or None when unreadable.
    """
    try:
        header, table, data = read_ruin_csv(out_dir)
    except (OSError, ValueError, StopIteration) as exc:
        return [f"ruin.csv unreadable: {exc}"], None, b""
    if header != RUIN_HEADER:
        return [f"ruin.csv header {header}, expected {RUIN_HEADER}"], None, data
    n_u = len(u_values)
    if len(table) != horizon * n_u:
        return [f"ruin.csv has {len(table)} rows, expected {horizon * n_u}"], None, data
    problems = check_manifest(out_dir)
    cols = {name: table[:, k].reshape(horizon, n_u) for k, name in enumerate(header)}
    expected_l = np.repeat(np.arange(1, horizon + 1), n_u).reshape(horizon, n_u)
    if not np.array_equal(cols["l"], expected_l):
        problems.append("ruin.csv l column is not 1..L in order")
    if not np.array_equal(cols["u"], np.tile(np.asarray(u_values, float), (horizon, 1))):
        problems.append("ruin.csv u column differs from the requested capitals")
    problems += check_psi_table(cols["psi_numerical"], n_u, horizon, "psi_numerical")
    problems += check_psi_table(cols["psi_mc"], n_u, horizon, "psi_mc")
    inside = (cols["ci_lo"] <= cols["psi_mc"]) & (cols["psi_mc"] <= cols["ci_hi"])
    if not inside.all():
        problems.append("psi_mc outside its own confidence interval")
    gap = float(np.max(np.abs(cols["psi_numerical"][-1] - cols["psi_mc"][-1])))
    return problems, gap, data


def revenue_summary(v: np.ndarray) -> dict:
    """What the revenue check needs, taken right after a sampling call."""
    finite = bool(np.isfinite(v).all())
    return {
        "n": int(len(v)),
        "finite": finite,
        "min": float(v.min()) if finite else math.nan,
        "max": float(v.max()) if finite else math.nan,
        "mean": float(v.mean()) if finite else math.nan,
        "std": float(v.std(ddof=1)) if finite and len(v) > 1 else math.nan,
        "sha256": hashlib.sha256(v.tobytes()).hexdigest(),
    }


def support_tolerance(v_lo: float, v_hi: float, batch: int) -> float:
    """Roundoff allowance on the income support.

    The simulator forms each revenue as the difference of a float64 running
    sum over a batch of at most ``batch`` connections, so a revenue is exact
    only up to about eps * batch * max|v|.
    """
    return np.finfo(float).eps * batch * max(abs(v_lo), abs(v_hi))


def check_revenues(summary: dict, n: int, support, batch: int, expected_mean: float,
                   max_z: float = 4.0) -> tuple[list[str], float, float]:
    """Revenues finite, inside the income support, mean within max_z SE.

    Returns (problems, z, largest excursion beyond the support).
    """
    if summary["n"] != n:
        return [f"{summary['n']} revenues returned, {n} requested"], math.nan, math.nan
    if not summary["finite"]:
        return ["non-finite revenues"], math.nan, math.nan
    v_lo, v_hi = support
    excess = max(v_lo - summary["min"], summary["max"] - v_hi, 0.0)
    problems = []
    if excess > support_tolerance(v_lo, v_hi, batch):
        problems.append(f"revenues outside the income support [{v_lo:g}, {v_hi:g}] "
                        f"by {excess:.3g}")
    se = summary["std"] / math.sqrt(n)
    z = (summary["mean"] - expected_mean) / se if se > 0 else math.inf
    if not abs(z) <= max_z:
        problems.append(f"sample mean {summary['mean']:.6g} is {z:.2f} SE from the "
                        f"analytic mean {expected_mean:.6g}")
    return problems, z, excess
