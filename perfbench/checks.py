"""Checks on every output file a timed command writes.

Each check returns a list of problems; an empty list means the output is
correct.  The loss ratios of global fair rankings are collected on the way
for ``loss_over_bound``.

Known defect, not checked here: a targeted run's ``lower_bound_loss`` is the
bound for the global phi, and a targeted fspr loss can sit below it, so the
``loss >= lower_bound_loss`` check applies to global rankings only.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

FAIRNESS_TOL = 1e-7
SUM_TOL = 1e-9
GAMMA = 0.15  # the CLI default, which every command uses


def loss_above_bound(loss: float, bound: float) -> bool:
    """``loss >= bound`` up to floating-point rounding of both sums."""
    return loss >= bound * (1.0 - 1e-9) - 1e-18


def check_scores(path: Path, n: int) -> tuple[list[str], str]:
    """``scores.csv``: n rows in node order, nonnegative, summing to one."""
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    lines = data.decode("utf-8").splitlines()
    if not lines or lines[0] != "node,score":
        return [f"{path}: bad header"], digest
    if len(lines) - 1 != n:
        return [f"{path}: {len(lines) - 1} rows, expected {n}"], digest
    try:
        table = np.array([line.split(",") for line in lines[1:]], dtype=float)
    except ValueError:
        return [f"{path}: unparsable row"], digest
    problems = []
    if table.shape != (n, 2) or not np.array_equal(table[:, 0], np.arange(n)):
        problems.append(f"{path}: node column is not 0..{n - 1}")
    scores = table[:, -1]
    if not np.isfinite(scores).all() or scores.min() < -1e-12:
        problems.append(f"{path}: negative or non-finite score")
    if abs(scores.sum() - 1.0) > SUM_TOL:
        problems.append(f"{path}: scores sum to {scores.sum():.17g}")
    return problems, digest


def check_report(path: Path, algo: str, phi: float | None, targeted: bool, ratios: list) -> list[str]:
    """``report.json`` of one rank run."""
    report = json.loads(path.read_text(encoding="utf-8"))
    problems = []
    if algo == "fspr" and report.get("converged") is not True:
        problems.append(f"{path}: fspr did not converge")
    if algo == "opr":
        if report["loss"] != 0.0:
            problems.append(f"{path}: opr loss {report['loss']} is not 0")
    elif targeted:
        if not report["targeted_residual"] <= FAIRNESS_TOL:
            problems.append(f"{path}: targeted residual {report['targeted_residual']:.3e}")
    else:
        problems += _global_row(path, phi, report["red_mass"], report["loss"], report["lower_bound_loss"], ratios)
    return problems


def _global_row(where, phi, mass, loss, bound, ratios) -> list[str]:
    problems = []
    if not abs(mass - phi) <= FAIRNESS_TOL:
        problems.append(f"{where}: red mass {mass:.17g} misses phi {phi}")
    if not loss_above_bound(loss, bound):
        problems.append(f"{where}: loss {loss:.17g} below lower bound {bound:.17g}")
    if bound > 0.0:
        ratios.append(loss / bound)
    return problems


def check_sweep(path: Path, algos, phis, ratios: list) -> list[str]:
    """``sweep.csv`` of fair algorithms: one ok, fair row per (algo, phi)."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if len(rows) != len(algos) * len(phis):
        problems.append(f"{path}: {len(rows)} rows, expected {len(algos) * len(phis)}")
    for row in rows:
        where = f"{path} {row['algorithm']} phi={row['phi']}"
        if row["status"] != "ok":
            problems.append(f"{where}: status {row['status']} {row['message']}")
            continue
        mass, loss, bound = (float(row[k]) for k in ("red_mass", "loss", "lower_bound_loss"))
        problems += _global_row(where, float(row["phi"]), mass, loss, bound, ratios)
    return problems


def check_audit(out: Path, red: np.ndarray, algo: str, full: bool) -> list[str]:
    """``audit.csv`` and ``audit_hist.csv``; locally fair models must be fair everywhere."""
    with open(out / "audit.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    nodes = np.array([int(r["node"]) for r in rows], dtype=np.int64)
    if not rows or np.unique(nodes).size != nodes.size or nodes.min() < 0 or nodes.max() >= red.size:
        return [f"{out}/audit.csv: node ids missing, repeated or out of range"]
    if full and nodes.size != red.size:
        problems.append(f"{out}/audit.csv: {nodes.size} rows, expected all {red.size} nodes")
    colors = np.array([int(r["color"]) for r in rows]) == 1
    if not np.array_equal(colors, red[nodes]):
        problems.append(f"{out}/audit.csv: node colors disagree with the input")
    values = np.array([float(r["adjusted_red_mass"]) for r in rows])
    if not (np.isfinite(values).all() and values.min() >= -1e-12 and values.max() <= 1.0 - GAMMA + 1e-12):
        problems.append(f"{out}/audit.csv: adjusted red mass outside [0, 1 - gamma]")
    if algo != "opr" and not all(r["fair"] == "1" for r in rows):
        problems.append(f"{out}/audit.csv: locally fair model has unfair nodes")
    with open(out / "audit_hist.csv", encoding="utf-8", newline="") as fh:
        hist = list(csv.DictReader(fh))
    counted = sum(int(r["red_count"]) + int(r["blue_count"]) for r in hist)
    if counted != nodes.size:
        problems.append(f"{out}/audit_hist.csv: histogram counts {counted} of {nodes.size} nodes")
    return problems


def mean_ratio(ratios: list) -> float:
    return math.fsum(ratios) / len(ratios) if ratios else float("nan")
