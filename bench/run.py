#!/usr/bin/env python3
"""Benchmark of the `spd-id` batch run: end-to-end metrics and traced per-layer metrics.

    python3 bench/run.py --workload fingerprint-az --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, one after another

Per run the benchmark writes the workload's seeded synthetic cohort under
.bench_work/ in the checkout, then measures for --seconds seconds:

--trace 0  Closed loop, one client: repeated passes of the workload's `spd-id`
           invocations (spdid.cli:main in a child interpreter), the next
           invocation starting when the previous one exits. Prints the
           end-to-end metrics.
--trace 1  One untraced pass, then repeated passes of bench/tracer.py, which
           replays the same invocations in-process with a span around every
           call into a layer. Prints the per-layer metrics.

Every combination's outputs are checked: sampled D12/D21 cells against the
reference kernels in bench/oracle.py, report.json against a brute-force
strict-minimum ID, and byte identity of D12/D21/report.json across passes.
The last line of standard output is one JSON object with the keys correct,
attempted, failed (combinations) and metrics. The full result, with the
environment, sample counts and spans, goes to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

import oracle  # noqa: E402
import tracer  # noqa: E402
from workloads import (  # noqa: E402
    KERNEL_LABELS,
    KERNELS,
    PER_LAYER,
    TASK,
    TAU,
    THREAD_VARS,
    WORKLOADS,
    child_env,
    invocation_argv,
    kernel_label,
    tiny,
    usable_cpus,
    workers_for,
    write_cohort,
)

# The CLI entry point, spdid.cli:main, run in a child interpreter. The first
# argument names a file that receives the child's peak RSS (VmHWM, kB) at
# exit; the rest is the CLI's argv. ru_maxrss cannot serve: Linux charges a
# child with its parent's RSS at the moment of exec.
CLI_MAIN = """import atexit, sys
def _hwm(path=sys.argv.pop(1)):
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(path, "w") as fh:
        fh.write(kb)
atexit.register(_hwm)
from spdid.cli import main
main()
"""
SETUP_CODE = "import sys; from spdid.cli import parse_args; parse_args(sys.argv[1:])"

END_TO_END = {
    "wall_s": "s",
    "cells_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 11
MIN_PASSES = 2  # byte identity needs a repeat
PAIR_SAMPLE = 100  # pairs per kernel configuration: p90 has 10 samples beyond it
KERNEL_PROBE_PAIRS = 20  # pairs per kernel configuration the workload does not run
DEADLINE_S = 165.0  # a run must end within 180 s; no child outlives this
FRESH_S = 25.0  # oldest a cohort file may get before it is rewritten (see Run.cohort)


def _spawn(argv, env, log_path: Path, deadline: float) -> tuple[float, int]:
    """Run one child to exit: (wall seconds from launch to exit, exit code).

    The child is killed if it is still running at the deadline.
    """
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status = os.waitpid(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode


def _tail(path: Path, lines: int = 5) -> str:
    try:
        return " | ".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _p90(xs):
    return statistics.quantiles(xs, n=10)[-1] if len(xs) >= 2 else _median(xs)


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment(w, seed: int, env: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "usable_cpus": usable_cpus(),
        "workers": workers_for(w),
        "thread_env": {k: env.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(),
        "cohort_seed": seed,
        "cohort": {
            "n_subjects": w.cohort.n_subjects,
            "resolutions": list(w.cohort.resolutions),
            "within_noise": w.cohort.within_noise,
            "between_spread": w.cohort.between_spread,
        },
    }


class Run:
    """One benchmark run of one workload: its cohort, children and check results."""

    def __init__(self, w, seed: int, run_dir: Path, deadline: float):
        self.w = w
        self.seed = seed
        self.dir = run_dir
        self.deadline = deadline
        self.cohort_dir = run_dir / "cohort"
        self.log = run_dir / "children.log"
        self.env = child_env(w, SRC)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_hashes: dict = {}
        self.mats: dict = {}
        run_dir.mkdir(parents=True)

    @contextmanager
    def cohort(self):
        """The seeded cohort on disk, for as long as the measurement needs it.

        Deleting files the kernel has already written back can take seconds per
        hundred MB (a discard-mounted disk measured 8 MB/s), and write-back
        starts about 30 s after a write. So no copy of the cohort is kept past
        FRESH_S: the loop rewrites the same bytes into fresh files before that,
        and the last copy is deleted as soon as the measurement ends.
        """
        self.mats = write_cohort(self.w, self.seed, self.cohort_dir)
        self._written_at = time.monotonic()
        self._files = {p: p.read_bytes() for p in sorted(self.cohort_dir.rglob("*.txt"))}
        try:
            yield
        finally:
            shutil.rmtree(self.cohort_dir, ignore_errors=True)
            self._files = {}

    def _refresh_cohort(self) -> None:
        shutil.rmtree(self.cohort_dir)
        for path, data in self._files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        self._written_at = time.monotonic()

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def _fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def setup_times(self) -> list[float]:
        """Fresh interpreters importing spdid.cli and parsing the workload's argv."""
        argv = invocation_argv(self.w, self.w.metrics[0], self.cohort_dir, self.dir / "unused")
        cmd = [sys.executable, "-c", SETUP_CODE, *argv]
        self._spawn(cmd)  # warm the file cache and bytecode; not counted
        times = []
        for _ in range(SETUP_REPEATS):
            wall, code = self._spawn(cmd)
            if code != 0:
                raise RuntimeError(f"set-up child exited {code}: {_tail(self.log)}")
            times.append(wall)
        return times

    def _spawn(self, argv):
        return _spawn(argv, self.env, self.log, self.deadline)

    def _check(self, key, combo: Path, metric_args, res: int, full: bool, files=oracle.OUTPUT_FILES) -> None:
        """Check one combination's outputs; count it as failed on any problem."""
        hashes = oracle.output_hashes(combo, files)
        first = self.first_hashes.setdefault(key, hashes)
        if full:
            s1, s2, labels = self.mats[res]
            problems = oracle.check_combination(combo, s1, s2, labels, metric_args, TAU)
        else:
            differ = [f for f in files if hashes[f] != first[f]]
            problems = [f"{combo.name}: {', '.join(differ)} differ from the first pass"] if differ else []
        if problems:
            self._fail("; ".join(problems))

    def cli_pass(self, k: int) -> dict:
        """One pass of the workload's invocations; checks every combination."""
        out = self.dir / f"pass{k}"
        wall, rss, mirror = 0.0, [], [0, 0]
        for idx, margs in enumerate(self.w.metrics):
            inv_out = out / f"inv{idx}"
            argv = invocation_argv(self.w, margs, self.cohort_dir, inv_out)
            hwm = self.dir / "hwm.txt"
            hwm.unlink(missing_ok=True)
            t, code = self._spawn([sys.executable, "-c", CLI_MAIN, str(hwm), *argv])
            wall += t
            try:
                rss.append(int(hwm.read_text()) / 1024.0)
            except (OSError, ValueError):
                code = code or -1  # no peak RSS record: the child did not exit normally
            for res in self.w.cohort.resolutions:
                self.attempted += 1
                combo = inv_out / f"{TASK}_{res}"
                if code != 0:
                    self._fail(f"{kernel_label(margs)}/{res}: exit {code}: {_tail(self.log)}")
                    continue
                self._check((idx, res), combo, margs, res, full=(k == 0))
                try:
                    same, total = oracle.mirror_counts(combo)
                except (OSError, ValueError, IndexError):
                    continue  # already counted as failed by the check
                mirror[0] += same
                mirror[1] += total
        shutil.rmtree(out, ignore_errors=True)
        return {"wall": wall, "rss": rss, "mirror": mirror}

    def traced_pass(self, k: int) -> dict | None:
        """One traced replay in a child interpreter; its D12/D21 must match the CLI's."""
        out = self.dir / f"trace{k}"
        plan = {"pair_sample": PAIR_SAMPLE, "kernel_probe_pairs": KERNEL_PROBE_PAIRS, "invocations": []}
        for idx, margs in enumerate(self.w.metrics):
            argv = invocation_argv(self.w, margs, self.cohort_dir, out / f"inv{idx}")
            plan["invocations"].append({"label": kernel_label(margs), "argv": argv})
        own = {inv["label"] for inv in plan["invocations"]}
        plan["probe_kernels"] = [
            {"label": kernel_label(m), "argv": invocation_argv(self.w, m, self.cohort_dir, out / "probe")}
            for m in KERNELS
            if kernel_label(m) not in own
        ]
        out.mkdir(parents=True)
        plan_path, result_path = out / "plan.json", out / "trace.json"
        plan_path.write_text(json.dumps(plan))
        _, code = self._spawn([sys.executable, str(BENCH / "tracer.py"), str(plan_path), str(result_path)])
        combos = [(idx, res) for idx in range(len(self.w.metrics)) for res in self.w.cohort.resolutions]
        self.attempted += len(combos)
        if code != 0:
            self.failed += len(combos)
            self.problems.append(f"traced pass exited {code}: {_tail(self.log)}")
            shutil.rmtree(out, ignore_errors=True)
            return None
        for idx, res in combos:
            combo = out / f"inv{idx}" / f"{TASK}_{res}"
            self._check((idx, res), combo, self.w.metrics[idx], res, full=False, files=("D12.csv", "D21.csv"))
        result = json.loads(result_path.read_text())
        shutil.rmtree(out, ignore_errors=True)
        return result

    def loop(self, seconds: float, step, min_passes: int) -> list:
        """Closed loop: run step(k) until --seconds are used, or the deadline nears.

        A pass is not started when it would end more than half a pass late.
        """
        t0 = time.perf_counter()
        results, walls = [], []
        while True:
            if walls and time.monotonic() - self._written_at + _median(walls) > FRESH_S:
                self._refresh_cohort()
            s = time.perf_counter()
            results.append(step(len(results)))
            walls.append(time.perf_counter() - s)
            elapsed = time.perf_counter() - t0
            if len(results) >= min_passes and elapsed + 0.5 * _median(walls) >= seconds:
                return results
            if self.time_left() < 1.5 * max(walls):
                return results


def end_to_end_metrics(run: Run, seconds: float) -> tuple[dict, dict]:
    setup = run.setup_times()
    with run.cohort():
        passes = run.loop(seconds, run.cli_pass, MIN_PASSES)
    walls = [p["wall"] for p in passes]
    cells = 2 * run.w.cohort.n_subjects**2 * len(run.w.metrics) * len(run.w.cohort.resolutions)
    rss = [mb for p in passes for mb in p["rss"]]
    values = {
        "wall_s": _median(walls),
        "cells_per_s": _median([cells / w for w in walls]),
        "setup_s": _median(setup),
        "peak_rss_mb": max(rss),
    }
    counts = {"wall_s": len(walls), "cells_per_s": len(walls), "setup_s": len(setup), "peak_rss_mb": len(rss)}
    detail = {"samples": {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss}, "counts": counts}
    return values, detail


def _pass_layer_values(tr: dict, cli_wall: float, setup_s: float, n_inv: int) -> dict:
    spans = tr["spans"]
    tot = tracer.totals(spans)
    own = tracer.self_times(spans)
    wall = tracer.duration(spans[0])
    probe = sum(tot.get(name, 0.0) for name in tracer.PROBE_SPANS)
    validate = tot.get("core.regularize", 0.0)
    sweep = tot.get("pairwise.cross_distances", 0.0)
    v = {
        "dataio.find_s": tot.get("dataio.find_subject_paths", 0.0),
        "dataio.parse_s": tot.get("dataio.load_matrix", 0.0) - validate,
        "dataio.mb_read": tr["bytes_read"] / 1e6,
        "core.validate_s": validate,
        "matfun.precompute_s": tot.get("matfun.precompute", 0.0),
        "matfun.matrices": tr["matrices"],
        "pairwise.sweep_s": sweep,
        "pairwise.cells": tr["cells"],
        "pairwise.cells_per_s": tr["cells"] / sweep,
        "pairwise.parallel_eff": tr["serial_ms"] / 1e3 / (sweep * max(tr["workers"])),
        "identification.score_s": tot.get("identification.score", 0.0),
        "identification.id_mean": statistics.fmean(tr["id_means"]),
        "cli.write_s": tot.get("cli.write", 0.0),
        "cli.bytes_written": tr["bytes_written"],
        "heatmap.png_s": tot.get("heatmap.save_heatmap", 0.0),
        "heatmap.bytes": tr["heatmap_bytes"],
        "trace.wall_s": wall,
        "trace.probe_s": probe,
        "trace.remainder_s": own.get("trace", 0.0),
        # The CLI pays interpreter start, imports and argument parsing per
        # invocation; the traced child pays them once, outside its root span.
        "trace.overhead_frac": (wall - probe) / (cli_wall - n_inv * setup_s) - 1.0,
    }
    for layer in tracer.LAYERS:
        v[f"{layer}.self_s"] = own.get(layer, 0.0)
    return v


def per_layer_metrics(run: Run, seconds: float) -> tuple[dict, dict]:
    setup_s = _median(run.setup_times())
    with run.cohort():
        t0 = time.perf_counter()
        cli = run.cli_pass(0)
        remaining = seconds - (time.perf_counter() - t0)
        traces = [t for t in run.loop(remaining, run.traced_pass, 1) if t is not None]
    if not traces:
        raise RuntimeError("no traced pass completed: " + "; ".join(run.problems[-3:]))
    per_pass = [_pass_layer_values(t, cli["wall"], setup_s, len(run.w.metrics)) for t in traces]
    values = {k: _median([p[k] for p in per_pass]) for k in per_pass[0]}

    load_ms = [x for t in traces for x in t["load_ms"]]
    pair_ms: dict[str, list] = {}
    probe_ms: dict[str, list] = {}
    for t in traces:
        for pooled, key in ((pair_ms, "pair_ms"), (probe_ms, "probe_pair_ms")):
            for label, xs in t[key].items():
                pooled.setdefault(label, []).extend(xs)
    all_pairs = [x for xs in pair_ms.values() for x in xs]
    values.update({
        "dataio.load_ms_per_file": _median(load_ms),
        "dataio.load_ms_per_file_p90": _p90(load_ms),
        "metrics.pair_ms": _median(all_pairs),
        "metrics.pair_ms_p90": _p90(all_pairs),
        "pairwise.mirror_frac": cli["mirror"][0] / cli["mirror"][1] if cli["mirror"][1] else 0.0,
    })
    for label in KERNEL_LABELS:
        values[f"metrics.{label}.pair_ms"] = _median(pair_ms.get(label) or probe_ms[label])
    values = {name: values[name] for name in PER_LAYER}
    detail = {
        "counts": {
            "traced_passes": len(traces),
            "load_samples": len(load_ms),
            "pair_samples": {k: len(v) for k, v in pair_ms.items()},
            "kernel_probe_samples": {k: len(v) for k, v in probe_ms.items()},
        },
        "layer_map": {name: moves for name, (_, _, moves) in PER_LAYER.items()},
        "untraced_wall_s": cli["wall"],
        "setup_s": setup_s,
        "spans_last_pass": traces[-1]["spans"],
    }
    return values, detail


def run_workload(w, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    run_dir = WORK / f"{w.name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        run = Run(w, seed, run_dir, start + DEADLINE_S)
        if trace:
            values, detail = per_layer_metrics(run, seconds)
            units = {name: PER_LAYER[name][0] for name in values}
        else:
            values, detail = end_to_end_metrics(run, seconds)
            units = END_TO_END
        env = environment(w, seed, run.env)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    full = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env, "problems": run.problems, "detail": detail, **result,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{w.name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(full, indent=1))

    counts = detail.get("counts", {})
    print(f"# {w.name} seed={seed} trace={int(trace)}: {run.attempted - run.failed}/{run.attempted} combinations ok,"
          f" fail_frac={run.failed / max(run.attempted, 1):g}")
    for name, m in result["metrics"].items():
        n = counts.get(name)
        stat = "max" if name == "peak_rss_mb" else "median"
        print(f"#   {name:<32} {m['value']:>14.6g} {m['unit']:<6}" + (f" ({stat} of {n})" if n else ""))
    if trace:
        print(f"#   samples: {json.dumps(counts, sort_keys=True)}")
    for problem in run.problems[:10]:
        print(f"#   problem: {problem}")
    print("# env " + json.dumps(env, sort_keys=True))
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="toy-size cohorts, for the self-tests")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")

    if not (SRC / "spdid" / "cli.py").is_file():
        print(f"error: the program's sources are missing: no {SRC / 'spdid' / 'cli.py'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        w = tiny(WORKLOADS[name]) if args.tiny else WORKLOADS[name]
        results[name] = run_workload(w, args.seed, args.seconds, bool(args.trace))
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
