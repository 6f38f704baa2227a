"""Self-tests of the spd-id benchmark.

    python3 -m pytest bench

They run every workload at toy size in both modes and check the result
against the schema BENCHMARK.json declares, check that the output checker
flags corrupted outputs, and check that the benchmark refuses to report when
the program's sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_spec_matches_the_code():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in workloads.PER_LAYER.items()
    }
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    timed = [m["value"] for m in result["metrics"].values() if m["unit"] in ("s", "ms")]
    assert all(v > 0 for v in timed)  # every time is measured, on every workload
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_missing_program_is_an_error_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "kernels-1t", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


@pytest.fixture(scope="module")
def alpha_z_outputs(tmp_path_factory):
    """One tiny alpha_z combination written by the real CLI, with its cohort."""
    w = workloads.tiny(workloads.WORKLOADS["kernels-1t"])
    margs = workloads.ALPHA_Z
    root = tmp_path_factory.mktemp("outputs")
    mats = workloads.write_cohort(w, 5, root / "cohort")
    argv = workloads.invocation_argv(w, margs, root / "cohort", root / "out")
    subprocess.run([sys.executable, "-c", run.CLI_MAIN, str(root / "hwm.txt"), *argv],
                   env=workloads.child_env(w, SRC), check=True, capture_output=True)
    res = w.cohort.resolutions[0]
    return root / "out" / f"{workloads.TASK}_{res}", mats[res], margs


def _check(combo, mats, margs):
    s1, s2, labels = mats
    return oracle.check_combination(combo, s1, s2, labels, margs, workloads.TAU)


def _copy(combo, tmp_path):
    dst = tmp_path / combo.name
    shutil.copytree(combo, dst)
    return dst


def _set_cell(csv: Path, i: int, j: int, value: float) -> None:
    lines = csv.read_text().splitlines()
    cells = lines[i + 1].split(",")
    cells[j + 1] = "%.17g" % value
    lines[i + 1] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")


def test_checker_accepts_the_program_outputs(alpha_z_outputs):
    assert _check(*alpha_z_outputs) == []


def test_checker_flags_a_corrupted_sampled_cell(alpha_z_outputs, tmp_path):
    combo, mats, margs = alpha_z_outputs
    bad = _copy(combo, tmp_path)
    i, j = oracle.sample_cells(len(mats[2]))[-1]
    value = oracle.read_csv(bad / "D12.csv")[2][i, j]
    _set_cell(bad / "D12.csv", i, j, value * (1 + 1e-6))
    problems = _check(bad, mats, margs)
    assert any(f"D12[{i},{j}]" in p for p in problems), problems


def test_checker_flags_an_id_change_outside_the_sample(alpha_z_outputs, tmp_path):
    combo, mats, margs = alpha_z_outputs
    bad = _copy(combo, tmp_path)
    s = len(mats[2])
    sampled = set(oracle.sample_cells(s))
    hits = json.loads((bad / "report.json").read_text())["per_subject_hits21"]
    i, j = next((i, j) for i in range(s) for j in range(s) if hits[i] and i != j and (i, j) not in sampled)
    _set_cell(bad / "D21.csv", i, j, 0.0)  # now below row i's diagonal: subject i is missed
    problems = _check(bad, mats, margs)
    assert any("per_subject_hits21" in p for p in problems), problems


def test_checker_flags_a_corrupted_report(alpha_z_outputs, tmp_path):
    combo, mats, margs = alpha_z_outputs
    bad = _copy(combo, tmp_path)
    report = json.loads((bad / "report.json").read_text())
    report["per_subject_hits12"][0] = not report["per_subject_hits12"][0]
    (bad / "report.json").write_text(json.dumps(report))
    problems = _check(bad, mats, margs)
    assert any("per_subject_hits12" in p for p in problems), problems


def test_self_times_partition_the_root_span():
    spans = [
        [0, "trace.pass", 0.0, 10.0, None],
        [1, "cli.combination", 1.0, 9.0, 0],
        [2, "dataio.load_matrix", 1.0, 3.0, 1],
        [3, "pairwise.cross_distances", 4.0, 8.0, 1],
    ]
    own = tracer.self_times(spans)
    assert own == {"trace": 2.0, "cli": 2.0, "dataio": 2.0, "pairwise": 4.0}
    assert sum(own.values()) == tracer.duration(spans[0])
