"""The `spd-id` batch command: sweep tasks x resolutions, report ID rates.

For every (task, resolution) combination the tool discovers subjects for both
scan directions, intersects the subject sets, loads and regularizes the
matrices, computes the two cross-distance matrices, and writes D12.csv,
D21.csv, report.json, and optionally heatmap.png into
{out_dir}/{task}_{res}/. A summary table goes to stdout. Exit codes: 0 full
success, 1 if any combination failed (the rest still run), 2 usage error. A
combination fails on any SpdError and on any OSError, such as an output
directory that cannot be created or written.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .core import InvalidParameter, SpdError, UnknownMetric, check_tau
from .dataio import DEFAULT_TEMPLATE, PathTemplate, find_subject_paths, load_matrix
from .heatmap import save_heatmap
from .identification import id_report, nearest_match_table
from .metrics import KERNELS, MetricSpec
from .pairwise import DistanceMatrix, both_directions


@dataclass(frozen=True)
class RunConfig:
    base_path: str
    tasks: tuple[str, ...]
    scan_types: tuple[str, str]
    resolutions: tuple[int, ...]
    metric: MetricSpec
    tau: float
    num_subjects: int
    path_template: PathTemplate
    out_dir: str
    emit_heatmap: bool
    workers: int


def _build_parser() -> argparse.ArgumentParser:
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
    return p


def parse_args(argv) -> RunConfig:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        params = {name: getattr(args, name) for name in KERNELS[args.metric].params}
        metric = MetricSpec(args.metric, **params)
        template = PathTemplate(args.path_template)
        check_tau(args.tau)
    except (InvalidParameter, UnknownMetric) as exc:
        parser.error(str(exc))
    if args.num_subjects < 1:
        parser.error(f"--num-subjects must be >= 1, got {args.num_subjects}")
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    return RunConfig(
        base_path=args.base_path,
        tasks=tuple(args.tasks),
        scan_types=tuple(args.scan_types),
        resolutions=tuple(args.resolutions),
        metric=metric,
        tau=args.tau,
        num_subjects=args.num_subjects,
        path_template=template,
        out_dir=args.out_dir,
        emit_heatmap=args.emit_heatmap,
        workers=args.workers,
    )


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


def _run_combination(config: RunConfig, task: str, res: int) -> dict:
    scan1, scan2 = config.scan_types
    recs1 = find_subject_paths(
        config.base_path, task, scan1, [res], config.num_subjects, config.path_template
    )
    recs2 = find_subject_paths(
        config.base_path, task, scan2, [res], config.num_subjects, config.path_template
    )
    by_id1 = {r.subject_id: r for r in recs1}
    by_id2 = {r.subject_id: r for r in recs2}
    common = sorted(set(by_id1) & set(by_id2))
    if not common:
        raise SpdError(f"no subjects present in both scan types for {task}/{res}")
    dropped = (set(by_id1) | set(by_id2)) - set(common)
    if dropped:
        print(
            f"warning: {task}/{res}: dropping subjects missing one scan: "
            + ", ".join(sorted(dropped)),
            file=sys.stderr,
        )

    mats1 = [load_matrix(by_id1[s].path, config.tau, expected_n=res) for s in common]
    mats2 = [load_matrix(by_id2[s].path, config.tau, expected_n=res) for s in common]
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


def run(config: RunConfig) -> int:
    results = []
    failures = []
    for task in config.tasks:
        for res in config.resolutions:
            try:
                results.append(_run_combination(config, task, res))
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
    config = parse_args(sys.argv[1:] if argv is None else argv)
    sys.exit(run(config))


if __name__ == "__main__":
    main()
