"""Workload table, cohort writer and the layer-metric map of the spd-id benchmark.

Each workload is a seeded synthetic cohort written to disk plus the list of
`spd-id` invocations that one pass of the workload runs. The benchmark owns
the seed; the program only ever sees the files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path

TASK = "REST"
SCANS = ("LR", "RL")
TAU = 1e-6

# Environment variables that set BLAS/OpenMP thread pools. Workloads that run
# "as users get it" remove them; single-threaded workloads set each to 1.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class Cohort:
    n_subjects: int
    resolutions: tuple[int, ...]
    within_noise: float
    between_spread: float


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cohort: Cohort
    # One tuple of metric arguments per `spd-id` invocation in a pass.
    metrics: tuple[tuple[str, ...], ...]
    # None: --workers is the usable CPU count; otherwise that fixed number.
    workers: int | None
    # None: BLAS thread variables removed (library defaults); otherwise all set to it.
    blas_threads: int | None
    heatmap: bool = False


ALPHA_Z = ("--metric", "alpha_z", "--alpha", "0.99", "--z", "1.0")

# Every kernel configuration: the seven kernels, plus alpha_z with z < 1
# (z >= max(alpha, 1 - alpha) keeps it in the region where it is nonnegative).
KERNELS = (
    ("--metric", "euclid"),
    ("--metric", "pearson"),
    ("--metric", "log"),
    ("--metric", "ai"),
    ("--metric", "bw"),
    ("--metric", "alpha_pro", "--alpha", "0.99"),
    ALPHA_Z,
    ("--metric", "alpha_z", "--alpha", "0.5", "--z", "0.8"),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fingerprint-az",
            why=(
                "paper's headline kernel alpha_z (a=0.99, z=1) at n=200, S=60 with default "
                "workers and BLAS threads; per-pair eigensolves and thread setup dominate"
            ),
            cohort=Cohort(60, (200,), 0.05, 1.0),
            metrics=(ALPHA_Z,),
            workers=None,
            blas_threads=None,
        ),
        Workload(
            name="parse-heavy",
            why=(
                "euclid over 240 text files at n=100 and n=200, single-threaded: parsing and "
                "SPD validation dominate and no spectral kernel runs, so kernel changes should not move it"
            ),
            cohort=Cohort(60, (100, 200), 0.05, 1.0),
            metrics=(("--metric", "euclid"),),
            workers=1,
            blas_threads=1,
        ),
        Workload(
            name="kernels-1t",
            why=(
                "all seven kernels plus alpha_z z=0.8, single-threaded, on a hard n=100 "
                "cohort whose ID rates differ by kernel; covers misses and the heatmap"
            ),
            cohort=Cohort(40, (100,), 0.2, 1.0),
            metrics=KERNELS,
            workers=1,
            blas_threads=1,
            heatmap=True,
        ),
    )
}


def tiny(w: Workload) -> Workload:
    """The same workload at toy size, for the benchmark's self-tests."""
    res = tuple(8 + 2 * k for k in range(len(w.cohort.resolutions)))
    return replace(w, cohort=replace(w.cohort, n_subjects=6, resolutions=res))


def usable_cpus() -> int:
    return min(len(os.sched_getaffinity(0)), os.cpu_count() or 1)


def workers_for(w: Workload) -> int:
    return usable_cpus() if w.workers is None else w.workers


def child_env(w: Workload, src: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if w.blas_threads is not None:
        env.update({k: str(w.blas_threads) for k in THREAD_VARS})
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    return env


def invocation_argv(w: Workload, metric_args, cohort_dir: Path, out_dir: Path) -> list[str]:
    return [
        "--base-path", str(cohort_dir),
        "--tasks", TASK,
        "--scan-types", *SCANS,
        "--resolutions", *(str(r) for r in w.cohort.resolutions),
        *metric_args,
        "--tau", repr(TAU),
        "--num-subjects", str(w.cohort.n_subjects),
        "--workers", str(workers_for(w)),
        "--out-dir", str(out_dir),
        *(("--emit-heatmap",) if w.heatmap else ()),
    ]


def kernel_label(metric_args) -> str:
    """Name of a kernel configuration: the kind, plus z when alpha_z has z != 1."""
    args = dict(zip(metric_args[::2], metric_args[1::2]))
    kind = args["--metric"]
    if kind == "alpha_z" and float(args.get("--z", "1")) != 1.0:
        return f"alpha_z-z{float(args['--z']):g}"
    return kind


def cohort_seed(seed: int, n: int) -> int:
    """Philox key of the cohort at order n, derived from the benchmark seed."""
    return seed * 100_003 + n


def write_cohort(w: Workload, seed: int, root: Path) -> dict[int, tuple[list, list, list[str]]]:
    """Generate and save the workload's cohort; return the in-memory matrices.

    Layout follows the CLI's default template {base}/{subject}/{task}_{scan}_{res}.txt.
    """
    from spdid.dataio import generate_synthetic_cohort, save_matrix

    c = w.cohort
    out = {}
    for n in c.resolutions:
        s1, s2, labels = generate_synthetic_cohort(
            c.n_subjects, n, c.within_noise, c.between_spread, cohort_seed(seed, n)
        )
        for label, a, b in zip(labels, s1, s2):
            d = root / label
            d.mkdir(parents=True, exist_ok=True)
            for scan, m in zip(SCANS, (a, b)):
                save_matrix(d / f"{TASK}_{scan}_{n}.txt", m.entries)
        out[n] = ([m.entries for m in s1], [m.entries for m in s2], labels)
    return out


KERNEL_LABELS = tuple(kernel_label(m) for m in KERNELS)

# Per-layer metrics of the traced run: name -> (unit, better, what it should move).
# "moves" names the end-to-end metric and workload a change to that layer is
# predicted to move; "guard" marks metrics that only catch regressions.
PER_LAYER = {
    "dataio.find_s": ("s", "lower", "wall_s on parse-heavy only, and barely"),
    "dataio.load_ms_per_file": ("ms", "lower", "wall_s/cells_per_s on parse-heavy (~85% of a traced pass); ~9% of fingerprint-az"),
    "dataio.load_ms_per_file_p90": ("ms", "lower", "as dataio.load_ms_per_file"),
    "dataio.parse_s": ("s", "lower", "wall_s/cells_per_s on parse-heavy"),
    "dataio.mb_read": ("MB", "lower", "count; fixed by the cohort"),
    "core.validate_s": ("s", "lower", "wall_s on parse-heavy (~7%)"),
    "matfun.precompute_s": ("s", "lower", "wall_s on fingerprint-az and kernels-1t by a few %; peak_rss_mb"),
    "matfun.matrices": ("count", "lower", "count; peak_rss_mb"),
    "metrics.pair_ms": ("ms", "lower", "wall_s on fingerprint-az (sweep ~87%) and kernels-1t (~70%); not parse-heavy (~7%)"),
    "metrics.pair_ms_p90": ("ms", "lower", "as metrics.pair_ms"),
    **{
        f"metrics.{k}.pair_ms": ("ms", "lower", "wall_s on kernels-1t; elsewhere a probe on the workload's cohort")
        for k in KERNEL_LABELS
    },
    "pairwise.sweep_s": ("s", "lower", "wall_s on fingerprint-az (threading/BLAS fixes); none predicted on kernels-1t"),
    "pairwise.cells": ("count", "higher", "count; cells_per_s numerator"),
    "pairwise.cells_per_s": ("1/s", "higher", "cells_per_s on fingerprint-az and kernels-1t"),
    "pairwise.parallel_eff": ("ratio", "higher", "computed: cells*pair_ms/(sweep_s*workers); wall_s on fingerprint-az"),
    "pairwise.mirror_frac": ("ratio", "higher", "share of D21 cells bitwise equal to D12^T: work a transpose shortcut removes"),
    "identification.score_s": ("s", "lower", "guard: wall_s everywhere (<1 ms today)"),
    "identification.id_mean": ("ratio", "higher", "guard: must not move"),
    "cli.write_s": ("s", "lower", "guard: wall_s everywhere"),
    "cli.bytes_written": ("bytes", "lower", "guard: count of CSV/JSON bytes"),
    "heatmap.png_s": ("s", "lower", "guard: wall_s on kernels-1t; elsewhere a probe render of D12"),
    "heatmap.bytes": ("bytes", "lower", "guard: kernels-1t; elsewhere a probe render of D12"),
    **{
        f"{layer}.self_s": ("s", "lower", "self time of the layer's spans; sums with trace.remainder_s to trace.wall_s")
        for layer in ("dataio", "core", "matfun", "metrics", "pairwise", "identification", "cli", "heatmap")
    },
    "trace.wall_s": ("s", "lower", "traced pass wall time, probes included"),
    "trace.probe_s": ("s", "lower", "measurement-only work in the traced pass (validate re-run, pair samples, heatmap)"),
    "trace.remainder_s": ("s", "lower", "traced wall time outside every layer span"),
    "trace.overhead_frac": ("ratio", "lower", "(traced wall - probes) vs the untraced CLI wall_s, minus interpreter set-up"),
}
