"""Traced in-process replay of `spd-id` invocations, and the span arithmetic.

Run as a child interpreter with the workload's thread environment:

    python3 bench/tracer.py PLAN.json OUT.json

PLAN.json holds {"invocations": [{"label": ..., "argv": [...]}, ...],
"pair_sample": K}. For each invocation the child calls the public functions
of each spdid module in the order the CLI calls them and records one span per
call at the layer boundary: [id, name, start, end, parent]. Spans stay in
memory and are written to OUT.json at the end, with per-file load times,
per-pair kernel times and work counts.

Probes measure work the CLI does not expose as a separate call, and are
excluded from the overhead figure:

- `core.validate_probe` re-runs `regularize` on every loaded matrix
  (load_matrix calls it internally);
- `metrics.pair_sample` times `dispatch` on K warm pairs in one thread
  (cross_distances calls it internally);
- `metrics.kernel_probe` times `dispatch` on a few warm pairs of the last
  combination for each kernel configuration in PLAN["probe_kernels"], the
  ones the workload itself does not run;
- `heatmap.probe` renders the last D12 when no invocation writes a heatmap.

So every layer time is measured on every workload.

The span helpers below import nothing from spdid, so bench/run.py can
use them without loading the program.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT_SPAN = "trace.pass"
PROBE_SPANS = ("core.validate_probe", "metrics.pair_sample", "metrics.kernel_probe", "heatmap.probe")
KERNEL_PROBE_MATRICES = 8  # per scan; the kernel probe's pairs are drawn among these
LAYERS = ("dataio", "core", "matfun", "metrics", "pairwise", "identification", "cli", "heatmap")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [len(self.spans), name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()


def duration(rec) -> float:
    return rec[3] - rec[2]


def self_times(spans) -> dict[str, float]:
    """Self time per layer: span duration minus the union of its children's intervals.

    The layer is the span name up to the first dot; the root span's self time
    is reported under its own layer ("trace"), as the unattributed remainder.
    """
    children: dict[int, list] = {}
    for rec in spans:
        if rec[4] is not None:
            children.setdefault(rec[4], []).append(rec)
    out: dict[str, float] = {}
    for rec in spans:
        covered, end = 0.0, rec[2]
        for c in sorted(children.get(rec[0], ()), key=lambda c: c[2]):
            lo, hi = max(c[2], end), c[3]
            if hi > lo:
                covered += hi - lo
                end = hi
        layer = rec[1].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + duration(rec) - covered
    return out


def totals(spans) -> dict[str, float]:
    out: dict[str, float] = {}
    for rec in spans:
        out[rec[1]] = out.get(rec[1], 0.0) + duration(rec)
    return out


def _precompute(spec, mats, matfun) -> int:
    """Eigendecompositions and the matrix functions the kernel reads, per matrix."""
    kind = spec.kind
    if kind in ("euclid", "pearson"):
        return 0
    for m in mats:
        matfun.eig_sym(m)
        if kind == "log":
            matfun.sym_log(m)
        elif kind == "ai":
            matfun.sym_inv_sqrt(m)
        elif kind == "bw":
            matfun.sym_sqrt(m)
        elif kind == "alpha_pro":
            matfun.sym_sqrt(matfun.sym_pow(m, 2.0 * spec.alpha))
        elif kind == "alpha_z":
            matfun.sym_pow(m, (1.0 - spec.alpha) / spec.z)
            matfun.sym_pow(m, spec.alpha / (2.0 * spec.z))
    return len(mats)


def _pair_sample(s: int, k: int) -> list[tuple[int, int]]:
    """k fixed (probe, gallery) index pairs spread over an s x s grid."""
    return [((7 * t) % s, (11 * t + 3) % s) for t in range(min(k, s * s))]


def _combination(t: Tracer, config, task, res, label, pair_sample, rec) -> None:
    from spdid import core, dataio, heatmap, identification, matfun, metrics, pairwise
    from spdid.cli import write_distance_csv

    scan1, scan2 = config.scan_types
    found = []
    for scan in (scan1, scan2):
        with t.span("dataio.find_subject_paths"):
            found.append(
                dataio.find_subject_paths(
                    config.base_path, task, scan, [res], config.num_subjects, config.path_template
                )
            )
    by_id1 = {r.subject_id: r for r in found[0]}
    by_id2 = {r.subject_id: r for r in found[1]}
    common = sorted(set(by_id1) & set(by_id2))

    sets = []
    for by_id in (by_id1, by_id2):
        mats = []
        for s in common:
            path = by_id[s].path
            with t.span("dataio.load_matrix") as sp:
                mats.append(dataio.load_matrix(path, config.tau, expected_n=res))
            rec["load_ms"].append(1e3 * duration(sp))
            rec["bytes_read"] += os.path.getsize(path)
        sets.append(mats)
    mats1, mats2 = sets

    with t.span("core.validate_probe"):
        for m in mats1 + mats2:
            with t.span("core.regularize"):
                core.regularize(m.entries, config.tau)

    spec = config.metric
    with t.span("matfun.precompute"):
        rec["matrices"] += _precompute(spec, mats1 + mats2, matfun)

    pairs = _pair_sample(len(common), pair_sample)
    metrics.dispatch(spec, mats1[pairs[0][0]], mats2[pairs[0][1]])  # untimed warm-up
    times = []
    with t.span("metrics.pair_sample"):
        for i, j in pairs:
            with t.span("metrics.dispatch") as sp:
                metrics.dispatch(spec, mats1[i], mats2[j])
            times.append(1e3 * duration(sp))

    with t.span("pairwise.cross_distances"):
        d12 = pairwise.cross_distances(mats1, mats2, spec, common, common, workers=config.workers)
    with t.span("pairwise.cross_distances"):
        d21 = pairwise.cross_distances(mats2, mats1, spec, common, common, workers=config.workers)
    cells = d12.values.size + d21.values.size
    rec["cells"] += cells
    rec["pair_ms"].setdefault(label, []).extend(times)
    rec["serial_ms"] += cells * sorted(times)[len(times) // 2]

    with t.span("identification.score"):
        report = identification.id_report(d12, d21)
        tables = [identification.nearest_match_table(d) for d in (d12, d21)]
    rec["id_means"].append(report.mean)

    combo_dir = Path(config.out_dir) / f"{task}_{res}"
    combo_dir.mkdir(parents=True, exist_ok=True)
    with t.span("cli.write"):
        write_distance_csv(combo_dir / "D12.csv", d12)
        write_distance_csv(combo_dir / "D21.csv", d21)
        payload = {
            "task": task,
            "resolution": res,
            "subjects": list(common),
            "id12": report.id12,
            "id21": report.id21,
            "mean": report.mean,
            "nearest": [[vars(row) for row in table] for table in tables],
        }
        with open(combo_dir / "report.json", "w", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    rec["bytes_written"] += sum(os.path.getsize(combo_dir / f) for f in ("D12.csv", "D21.csv", "report.json"))

    if config.emit_heatmap:
        with t.span("heatmap.save_heatmap"):
            heatmap.save_heatmap(combo_dir / "heatmap.png", d12.values)
        rec["heatmap_bytes"] += os.path.getsize(combo_dir / "heatmap.png")
    return mats1, mats2, d12


def _probes(t: Tracer, plan, config, mats1, mats2, d12, rec) -> None:
    """Kernel and heatmap timings that the workload's own invocations do not produce."""
    from spdid import core, heatmap, matfun, metrics
    from spdid.cli import parse_args

    if plan["probe_kernels"]:
        with t.span("metrics.kernel_probe"):
            m = min(len(mats1), KERNEL_PROBE_MATRICES)
            # fresh copies, so no cache of the workload's own kernel is reused
            fresh1 = [core.regularize(a.entries, 0.0) for a in mats1[:m]]
            fresh2 = [core.regularize(b.entries, 0.0) for b in mats2[:m]]
            pairs = _pair_sample(m, plan["kernel_probe_pairs"])
            for probe in plan["probe_kernels"]:
                spec = parse_args(probe["argv"]).metric
                with t.span("matfun.probe_precompute"):
                    _precompute(spec, fresh1 + fresh2, matfun)
                metrics.dispatch(spec, fresh1[pairs[0][0]], fresh2[pairs[0][1]])  # untimed warm-up
                times = rec["probe_pair_ms"].setdefault(probe["label"], [])
                for i, j in pairs:
                    with t.span("metrics.dispatch") as sp:
                        metrics.dispatch(spec, fresh1[i], fresh2[j])
                    times.append(1e3 * duration(sp))
    if not config.emit_heatmap:
        path = Path(config.out_dir) / "heatmap_probe.png"
        with t.span("heatmap.probe"):
            with t.span("heatmap.save_heatmap"):
                heatmap.save_heatmap(path, d12.values)
        rec["heatmap_bytes"] += os.path.getsize(path)


def main(argv) -> int:
    plan_path, out_path = argv
    with open(plan_path) as fh:
        plan = json.load(fh)
    from spdid.cli import parse_args

    rec = {
        "load_ms": [], "pair_ms": {}, "probe_pair_ms": {}, "bytes_read": 0, "matrices": 0, "cells": 0,
        "serial_ms": 0.0, "id_means": [], "bytes_written": 0, "heatmap_bytes": 0, "workers": [],
    }
    t = Tracer()
    with t.span(ROOT_SPAN):
        for inv in plan["invocations"]:
            with t.span("cli.invocation"):
                config = parse_args(inv["argv"])
                rec["workers"].append(config.workers)
                for task in config.tasks:
                    for res in config.resolutions:
                        with t.span("cli.combination"):
                            last = _combination(t, config, task, res, inv["label"], plan["pair_sample"], rec)
        _probes(t, plan, config, *last, rec)
    with open(out_path, "w") as fh:
        json.dump({"spans": t.spans, **rec}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
