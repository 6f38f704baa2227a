"""The `spd-id` batch command: sweep tasks x resolutions, report ID rates.

For every (task, resolution) combination the tool discovers subjects for both
scan directions, intersects the subject sets, loads and regularizes the
matrices (in worker processes when ``--workers`` is above 1), computes the
two cross-distance matrices, and writes D12.csv, D21.csv, report.json, and
optionally heatmap.png into {out_dir}/{task}_{res}/. A summary table goes
to stdout. Exit codes: 0 full success, 1 if any combination failed (the rest
still run), 2 usage error. A combination fails on any SpdError and on any
OSError, such as an output directory that cannot be created or written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path

from .core import InvalidParameter, SpdError, UnknownMetric, check_tau
from .dataio import DEFAULT_TEMPLATE, PathTemplate, find_subject_paths, load_matrix
from .heatmap import save_heatmap
from .identification import id_report, nearest_match_table
from .metrics import KERNELS, MetricSpec
from .pairwise import DistanceMatrix, both_directions

# Environment variables that size BLAS/OpenMP thread pools. Worker processes
# start with each set to 1, so `--workers` processes use `--workers` CPUs
# instead of each starting one BLAS thread per CPU.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv) -> argparse.Namespace:
    """Parse and check the command line; the namespace is the run configuration.

    ``metric`` becomes a :class:`MetricSpec` that holds the kernel's parameters
    (``--alpha`` and ``--z`` are consumed into it), ``path_template`` a
    :class:`PathTemplate`, and the list flags tuples.
    """
    p = argparse.ArgumentParser(
        prog="spd-id",
        description="Pairwise SPD matrix distances and subject identification rates.",
    )
    p.add_argument("--base-path", required=True, help="root folder containing subject data")
    p.add_argument("--tasks", nargs="+", required=True, help="tasks to sweep (e.g. REST EMOTION)")
    p.add_argument(
        "--scan-types", nargs=2, required=True, metavar=("SCAN1", "SCAN2"),
        help="two scan directions to compare (e.g. LR RL)",
    )
    p.add_argument(
        "--resolutions", nargs="+", type=int, required=True,
        help="parcellation sizes (matrix orders), e.g. 100 200",
    )
    p.add_argument("--metric", required=True, choices=list(KERNELS))
    p.add_argument("--alpha", type=float, default=0.99, help="alpha for alpha_z/alpha_pro")
    p.add_argument("--z", type=float, default=1.0, help="z for alpha_z")
    p.add_argument("--tau", type=float, default=1e-6, help="SPD regularization shift")
    p.add_argument("--num-subjects", type=int, required=True, help="maximum number of subjects")
    p.add_argument("--path-template", default=DEFAULT_TEMPLATE)
    p.add_argument("--out-dir", default="spd_id_output")
    p.add_argument("--emit-heatmap", action="store_true")
    p.add_argument("--workers", type=int, default=1)
    args = p.parse_args(argv)
    try:
        params = {name: getattr(args, name) for name in KERNELS[args.metric].params}
        args.metric = MetricSpec(args.metric, **params)
        args.path_template = PathTemplate(args.path_template)
        check_tau(args.tau)
    except (InvalidParameter, UnknownMetric) as exc:
        p.error(str(exc))
    if args.num_subjects < 1:
        p.error(f"--num-subjects must be >= 1, got {args.num_subjects}")
    if args.workers < 1:
        p.error(f"--workers must be >= 1, got {args.workers}")
    del args.alpha, args.z
    for name in ("tasks", "scan_types", "resolutions"):
        setattr(args, name, tuple(getattr(args, name)))
    return args


def write_distance_csv(path, d: DistanceMatrix) -> None:
    """CSV with gallery labels as the header and probe labels as column one."""
    with open(path, "w", newline="\n") as fh:
        fh.write("," + ",".join(d.gallery_labels) + "\n")
        for label, row in zip(d.probe_labels, d.values):
            fh.write(label + "," + ",".join("%.17g" % v for v in row) + "\n")


def _misidentified(d: DistanceMatrix) -> list[dict]:
    out = []
    for row in nearest_match_table(d):
        if row.closest_gallery_label != row.probe_label or row.ambiguous:
            out.append(
                {
                    "probe": row.probe_label,
                    "closest": row.closest_gallery_label,
                    "within_distance": row.within_distance,
                    "best_other_distance": row.best_other_distance,
                    "ambiguous": row.ambiguous,
                }
            )
    return out


@contextmanager
def _one_blas_thread():
    """Set every BLAS thread variable to 1, then restore ``os.environ`` exactly."""
    saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value


@contextmanager
def _file_map(workers: int):
    """Yield the ordered ``map`` that loads a combination's matrix files.

    With one worker it is the builtin ``map``. With more it is the ``map`` of
    one pool of that many spawned processes, each with one BLAS thread; its
    results come back in input order, so the first failure raised is the
    one a serial loop would raise.
    """
    if workers == 1:
        yield map
        return
    # Imported here: at module level they would lengthen every start-up.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:

        def pool_map(fn, items):
            # The pool spawns its processes inside map's submissions, and a
            # spawned process reads the thread variables once, at start-up.
            with _one_blas_thread():
                return pool.map(fn, items)

        yield pool_map


def _run_combination(config: argparse.Namespace, task: str, res: int, file_map) -> dict:
    by_scan = []
    for scan in config.scan_types:
        recs = find_subject_paths(
            config.base_path, task, scan, [res], config.num_subjects, config.path_template
        )
        by_scan.append({r.subject_id: r.path for r in recs})
    ids1, ids2 = (set(by_id) for by_id in by_scan)
    common = sorted(ids1 & ids2)
    if not common:
        raise SpdError(f"no subjects present in both scan types for {task}/{res}")
    dropped = ids1 ^ ids2
    if dropped:
        print(
            f"warning: {task}/{res}: dropping subjects missing one scan: "
            + ", ".join(sorted(dropped)),
            file=sys.stderr,
        )

    paths = [by_id[s] for by_id in by_scan for s in common]
    mats = list(file_map(partial(load_matrix, tau=config.tau, expected_n=res), paths))
    mats1, mats2 = mats[: len(common)], mats[len(common) :]
    d12, d21 = both_directions(
        mats1, mats2, config.metric, common, common, workers=config.workers
    )
    report = id_report(d12, d21)

    combo_dir = Path(config.out_dir) / f"{task}_{res}"
    combo_dir.mkdir(parents=True, exist_ok=True)
    write_distance_csv(combo_dir / "D12.csv", d12)
    write_distance_csv(combo_dir / "D21.csv", d21)
    payload = {
        "task": task,
        "resolution": res,
        "metric": {"kind": config.metric.kind, **config.metric.params},
        "tau": config.tau,
        "n_subjects": report.n_subjects,
        "subjects": list(common),
        "id12": report.id12,
        "id21": report.id21,
        "mean": report.mean,
        "per_subject_hits12": list(report.per_subject_hits12),
        "per_subject_hits21": list(report.per_subject_hits21),
        "misidentified12": _misidentified(d12),
        "misidentified21": _misidentified(d21),
    }
    with open(combo_dir / "report.json", "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if config.emit_heatmap:
        save_heatmap(combo_dir / "heatmap.png", d12.values)
    return {"task": task, "res": res, "n": report.n_subjects, "mean": report.mean}


def run(config: argparse.Namespace) -> int:
    results = []
    failures = []
    with _file_map(config.workers) as file_map:
        for task in config.tasks:
            for res in config.resolutions:
                try:
                    results.append(_run_combination(config, task, res, file_map))
                except (SpdError, OSError) as exc:
                    failures.append((task, res, exc))
                    print(f"error: {task}/{res}: {type(exc).__name__}: {exc}", file=sys.stderr)

    if results:
        print(f"{'task':<12} {'res':>5} {'n':>4}  ID_Rate")
        for r in results:
            print(f"{r['task']:<12} {r['res']:>5} {r['n']:>4}  {r['mean']:.3f}")
    if failures:
        print(f"{len(failures)} combination(s) failed", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> None:
    config = parse_args(argv)
    sys.exit(run(config))


if __name__ == "__main__":
    main()
