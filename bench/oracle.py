"""Output checks for `spd-id` runs, built on the benchmark's own reference kernels.

The reference kernels follow the definitional formulas with plain numpy/scipy
eigensolvers and import nothing from spdid.metrics or spdid.pairwise, so a
change to the program's kernels is checked against an independent answer.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import scipy.linalg

# Relative tolerance of a sampled cell against the reference, measured
# against |reference| + the operands' natural magnitude (see _reference).
# Observed differences on the benchmark cohorts are below 3e-14 of that
# magnitude for every kernel; the margin leaves room for reordered
# arithmetic (blocked or batched kernels) while still catching a cell off
# by one part in a million.
RTOL = 1e-10

# Cells sampled per direction: this many diagonal and off-diagonal cells,
# drawn once from a fixed generator so every run checks the same cells.
N_DIAG, N_OFF = 4, 8
SAMPLE_SEED = 2015

OUTPUT_FILES = ("D12.csv", "D21.csv", "report.json")


class _Spd:
    """One matrix with its eigendecomposition and cached spectral functions."""

    def __init__(self, a: np.ndarray):
        self.a = a
        self._eig = None
        self._cache: dict = {}

    def fn(self, key, f) -> np.ndarray:
        if key not in self._cache:
            if self._eig is None:
                self._eig = np.linalg.eigh(self.a)
            lam, vec = self._eig
            m = (vec * f(lam)) @ vec.T
            self._cache[key] = (m + m.T) / 2.0
        return self._cache[key]

    def pow(self, p: float) -> np.ndarray:
        return self.fn(("pow", p), lambda lam: lam**p)

    def log(self) -> np.ndarray:
        return self.fn("log", np.log)


def _bw_sq(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Squared Bures-Wasserstein distance by the trace formula, and its scale."""
    ra = _Spd(a).pow(0.5)
    lam = np.clip(np.linalg.eigvalsh(ra @ b @ ra), 0.0, None)
    ta, tb = np.trace(a), np.trace(b)
    return ta + tb - 2.0 * float(np.sum(np.sqrt(lam))), ta + tb


def _reference(kind: str, alpha, z, a: _Spd, b: _Spd) -> tuple[float, float, bool]:
    """(reference value, scale, compare-squares) for one cell.

    A cell d passes when |d - ref| <= RTOL * (|ref| + scale). Bures-type
    kernels compare d**2 with ref**2 instead, because the trace formula for
    the squared distance cancels when A and B are close.
    """
    if kind == "euclid":
        return float(np.linalg.norm(a.a - b.a)), float(np.linalg.norm(a.a) + np.linalg.norm(b.a)), False
    if kind == "pearson":
        iu = np.triu_indices(a.a.shape[0], k=1)
        return 1.0 - float(np.corrcoef(a.a[iu], b.a[iu])[0, 1]), 1.0, False
    if kind == "log":
        la, lb = a.log(), b.log()
        return float(np.linalg.norm(la - lb)), float(np.linalg.norm(la) + np.linalg.norm(lb)), False
    if kind == "ai":
        # generalized eigenvalues of (B, A) are the spectrum of A^{-1/2} B A^{-1/2}
        lam = scipy.linalg.eigh(b.a, a.a, eigvals_only=True)
        scale = float(np.linalg.norm(a.log()) + np.linalg.norm(b.log()))
        return float(np.sqrt(np.sum(np.log(lam) ** 2))), scale, False
    if kind == "bw":
        sq, scale = _bw_sq(a.a, b.a)
        return sq, scale, True
    if kind == "alpha_pro":
        sq, scale = _bw_sq(a.pow(2 * alpha), b.pow(2 * alpha))
        return sq / alpha**2, scale / alpha**2, True
    if kind == "alpha_z":
        bp, ap = b.pow(alpha / (2 * z)), a.pow((1 - alpha) / z)
        lam = np.clip(np.linalg.eigvalsh(bp @ ap @ bp), 0.0, None)
        ta, tb = np.trace(a.a), np.trace(b.a)
        return (1 - alpha) * ta + alpha * tb - float(np.sum(lam**z)), ta + tb, False
    raise ValueError(f"no reference kernel for {kind!r}")


def metric_params(metric_args) -> tuple[str, float, float]:
    args = dict(zip(metric_args[::2], metric_args[1::2]))
    return args["--metric"], float(args.get("--alpha", "0.99")), float(args.get("--z", "1.0"))


def read_csv(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    lines = path.read_text().splitlines()
    gallery = lines[0].split(",")[1:]
    probe, rows = [], []
    for ln in lines[1:]:
        cells = ln.split(",")
        probe.append(cells[0])
        rows.append([float(c) for c in cells[1:]])
    return probe, gallery, np.array(rows)


def sample_cells(s: int) -> list[tuple[int, int]]:
    rng = np.random.default_rng(SAMPLE_SEED)
    diag = rng.choice(s, size=min(N_DIAG, s), replace=False)
    off = [(int(i), int(j)) for i, j in rng.integers(0, s, size=(4 * N_OFF, 2)) if i != j]
    return [(int(i), int(i)) for i in diag] + off[:N_OFF]


def strict_min_hits(values: np.ndarray) -> list[bool]:
    """Brute-force strict-minimum identification, one probe row at a time."""
    s = values.shape[0]
    return [all(values[i, i] < values[i, j] for j in range(s) if j != i) for i in range(s)]


def check_combination(combo_dir: Path, scan1, scan2, labels, metric_args, tau: float) -> list[str]:
    """Problems found in one combination's outputs; empty when all checks pass.

    scan1/scan2 are the raw matrices the benchmark wrote to disk; the program
    regularizes them as (raw + raw^T)/2 + tau*I, and so does this check.
    """
    problems = []
    try:
        report = json.loads((combo_dir / "report.json").read_text())
        d12 = read_csv(combo_dir / "D12.csv")
        d21 = read_csv(combo_dir / "D21.csv")
    except (OSError, ValueError, IndexError) as exc:
        return [f"{combo_dir.name}: unreadable outputs: {exc}"]

    kind, alpha, z = metric_params(metric_args)
    eye = tau * np.eye(scan1[0].shape[0])
    mats = {
        "D12": ([_Spd((m + m.T) / 2 + eye) for m in scan1], [_Spd((m + m.T) / 2 + eye) for m in scan2]),
    }
    mats["D21"] = (mats["D12"][1], mats["D12"][0])
    hits = {}
    for name, (probe, gallery, values) in (("D12", d12), ("D21", d21)):
        if probe != list(labels) or gallery != list(labels) or values.shape != (len(labels),) * 2:
            problems.append(f"{combo_dir.name}/{name}: labels or shape differ from the cohort")
            continue
        p_mats, g_mats = mats[name]
        for i, j in sample_cells(len(labels)):
            ref, scale, squares = _reference(kind, alpha, z, p_mats[i], g_mats[j])
            got = values[i, j] ** 2 if squares else values[i, j]
            if not abs(got - ref) <= RTOL * (abs(ref) + scale):
                problems.append(
                    f"{combo_dir.name}/{name}[{i},{j}] = {values[i, j]!r} disagrees with the reference"
                    f" ({'squared ' if squares else ''}{ref!r})"
                )
        hits[name] = strict_min_hits(values)
    if problems:
        return problems

    s = len(labels)
    id12, id21 = sum(hits["D12"]) / s, sum(hits["D21"]) / s
    expected = {
        "subjects": list(labels),
        "n_subjects": s,
        "id12": id12,
        "id21": id21,
        "mean": (id12 + id21) / 2,
        "per_subject_hits12": hits["D12"],
        "per_subject_hits21": hits["D21"],
    }
    for key, want in expected.items():
        if report.get(key) != want:
            problems.append(f"{combo_dir.name}/report.json: {key} is {report.get(key)!r}, brute force gives {want!r}")
    for name, key in (("D12", "misidentified12"), ("D21", "misidentified21")):
        missed = {lab for lab, hit in zip(labels, hits[name]) if not hit}
        listed = {row.get("probe") for row in report.get(key, [])}
        if listed != missed:
            problems.append(f"{combo_dir.name}/report.json: {key} lists {sorted(listed)}, brute force misses {sorted(missed)}")
    return problems


def output_hashes(combo_dir: Path, names=OUTPUT_FILES) -> dict[str, str]:
    out = {}
    for name in names:
        try:
            out[name] = hashlib.sha256((combo_dir / name).read_bytes()).hexdigest()
        except OSError:
            out[name] = "missing"
    return out


def mirror_counts(combo_dir: Path) -> tuple[int, int]:
    """(cells of D21 bitwise equal to the transposed D12 cell, all cells)."""
    _, _, d12 = read_csv(combo_dir / "D12.csv")
    _, _, d21 = read_csv(combo_dir / "D21.csv")
    same = d21.view(np.uint64) == np.ascontiguousarray(d12.T).view(np.uint64)
    return int(same.sum()), same.size
