import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spdid
from spdid import MetricSpec, generate_synthetic_cohort, metrics, save_matrix
from spdid.cli import BLAS_THREAD_VARS, _file_map, parse_args, run, write_distance_csv
from spdid.pairwise import DistanceMatrix
from support import read_distance_csv


def write_cohort(
    base: Path, task="REST", res=8, n_subjects=6, seed=42, noise=0.01, spread=2.0, **kw
):
    base.mkdir(parents=True, exist_ok=True)
    lr, rl, labels = generate_synthetic_cohort(n_subjects, res, noise, spread, seed, **kw)
    for label, m_lr, m_rl in zip(labels, lr, rl):
        d = base / label
        d.mkdir(exist_ok=True)
        save_matrix(d / f"{task}_LR_{res}.txt", m_lr.entries)
        save_matrix(d / f"{task}_RL_{res}.txt", m_rl.entries)
    return labels


def base_argv(base, out, metric="alpha_z", res=8, n=6, extra=()):
    return [
        "--base-path", str(base),
        "--tasks", "REST",
        "--scan-types", "LR", "RL",
        "--resolutions", str(res),
        "--metric", metric,
        "--tau", "0.0",
        "--num-subjects", str(n),
        "--out-dir", str(out),
        *extra,
    ]


# A bad REST_RL_5.txt (None: a directory in its place) and the error it must raise.
UNLOADABLE = [
    ("non_utf8", b"\xff\xfe\x00\x81\n", "ParseError"),
    ("directory", None, "ParseError"),
    ("singular", np.ones((5, 5)), "NotPositiveDefinite"),
    ("order_4", np.eye(4), "ShapeMismatch"),
    ("nan", np.diag([np.nan, 1.0, 1.0, 1.0, 1.0]), "NonFiniteEntry"),
]


class TestParseArgs:
    def test_full_invocation(self):
        cfg = parse_args(
            [
                "--base-path", "PATH/TO/DATA",
                "--tasks", "REST", "LANGUAGE", "EMOTION",
                "--scan-types", "LR", "RL",
                "--resolutions", "100", "200",
                "--metric", "alpha_z",
                "--alpha", "0.99",
                "--z", "1.0",
                "--tau", "0.00",
                "--num-subjects", "30",
            ]
        )
        assert cfg.tasks == ("REST", "LANGUAGE", "EMOTION")
        assert cfg.scan_types == ("LR", "RL")
        assert cfg.resolutions == (100, 200)
        assert cfg.metric == MetricSpec("alpha_z", 0.99, 1.0)
        assert cfg.tau == 0.0
        assert cfg.num_subjects == 30

    def test_plain_metric_has_no_parameters(self):
        cfg = parse_args(base_argv("b", "o", metric="euclid"))
        assert cfg.metric == MetricSpec("euclid")

    def test_defaults(self):
        cfg = parse_args(
            ["--base-path", "b", "--tasks", "REST", "--scan-types", "LR", "RL",
             "--resolutions", "100", "--metric", "alpha_z", "--num-subjects", "5"]
        )
        assert cfg.metric.alpha == 0.99
        assert cfg.metric.z == 1.0
        assert cfg.tau == 1e-6
        assert cfg.workers == 1

    def test_namespace_schema(self):
        # bench/tracer.py reads these attributes; a renamed or leftover one fails here.
        assert sorted(vars(parse_args(base_argv("b", "o")))) == [
            "base_path", "emit_heatmap", "metric", "num_subjects", "out_dir",
            "path_template", "resolutions", "scan_types", "tasks", "tau", "workers",
        ]

    @pytest.mark.parametrize("argv", [
        ["--base-path", "b", "--tasks", "T", "--scan-types", "LR", "RL",
         "--resolutions", "8", "--metric", "alpha_z", "--alpha", "1.5",
         "--num-subjects", "5"],
        ["--base-path", "b", "--tasks", "T", "--scan-types", "LR", "RL",
         "--resolutions", "8", "--metric", "nonsense", "--num-subjects", "5"],
        ["--tasks", "T", "--scan-types", "LR", "RL", "--resolutions", "8",
         "--metric", "euclid", "--num-subjects", "5"],
        ["--base-path", "b", "--tasks", "T", "--scan-types", "LR", "RL",
         "--resolutions", "8", "--metric", "euclid", "--num-subjects", "notanint"],
        ["--base-path", "b", "--tasks", "T", "--scan-types", "LR", "RL",
         "--resolutions", "8", "--metric", "euclid", "--num-subjects", "5", "--tau", "nan"],
        ["--base-path", "b", "--tasks", "T", "--scan-types", "LR", "RL",
         "--resolutions", "8", "--metric", "euclid", "--num-subjects", "5", "--tau", "inf"],
    ])
    def test_usage_errors_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            parse_args(argv)
        assert err.value.code == 2


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.random((3, 4))
        values.setflags(write=False)
        d = DistanceMatrix(("a", "b", "c"), ("w", "x", "y", "z"), values, MetricSpec("log"))
        path = tmp_path / "d.csv"
        write_distance_csv(path, d)
        back = read_distance_csv(path, MetricSpec("log"))
        assert back.probe_labels == d.probe_labels
        assert back.gallery_labels == d.gallery_labels
        assert np.abs(back.values - d.values).max() <= 1e-12


class TestRun:
    def test_pipeline_success(self, tmp_path, capsys):
        labels = write_cohort(tmp_path / "data")
        out = tmp_path / "out"
        cfg = parse_args(base_argv(tmp_path / "data", out, extra=["--emit-heatmap"]))
        assert run(cfg) == 0
        stdout = capsys.readouterr().out
        assert "ID_Rate" in stdout
        assert "1.000" in stdout

        combo = out / "REST_8"
        report = json.loads((combo / "report.json").read_text())
        assert report["mean"] == 1.0
        assert report["id12"] == 1.0 and report["id21"] == 1.0
        assert report["subjects"] == labels
        assert report["misidentified12"] == []
        assert (combo / "heatmap.png").read_bytes()[:8] == b"\x89PNG\r\n\x1a\n"

        d12 = read_distance_csv(combo / "D12.csv", cfg.metric)
        assert d12.probe_labels == tuple(labels)
        rate_ok = all(
            d12.values[i, i] < np.delete(d12.values[i], i).min()
            for i in range(len(labels))
        )
        assert rate_ok

    def test_report_mean_is_exact_average(self, tmp_path):
        write_cohort(tmp_path / "data")
        out = tmp_path / "out"
        run(parse_args(base_argv(tmp_path / "data", out)))
        report = json.loads((out / "REST_8" / "report.json").read_text())
        assert report["mean"] == (report["id12"] + report["id21"]) / 2

    def test_byte_identical_reruns_and_workers(self, tmp_path):
        write_cohort(tmp_path / "data")
        outputs = {}
        for tag, workers in (("a", "1"), ("b", "1"), ("c", "8")):
            out = tmp_path / f"out_{tag}"
            cfg = parse_args(
                base_argv(tmp_path / "data", out, extra=["--emit-heatmap", "--workers", workers])
            )
            assert run(cfg) == 0
            outputs[tag] = {
                f.name: f.read_bytes() for f in sorted((out / "REST_8").iterdir())
            }
        assert outputs["a"] == outputs["b"]
        assert outputs["a"] == outputs["c"]

    def test_missing_subjects_exit_1(self, tmp_path, capsys):
        (tmp_path / "data").mkdir()
        cfg = parse_args(base_argv(tmp_path / "data", tmp_path / "out"))
        assert run(cfg) == 1
        assert "NoSubjectsFound" in capsys.readouterr().err

    def test_failed_combination_does_not_kill_sweep(self, tmp_path, capsys):
        write_cohort(tmp_path / "data", res=8)
        cfg = parse_args(
            [
                "--base-path", str(tmp_path / "data"),
                "--tasks", "REST",
                "--scan-types", "LR", "RL",
                "--resolutions", "8", "99",
                "--metric", "euclid",
                "--tau", "0.0",
                "--num-subjects", "6",
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert run(cfg) == 1
        captured = capsys.readouterr()
        assert "1.000" in captured.out  # res=8 still ran
        assert "99" in captured.err

    @pytest.mark.parametrize("kind,content,error", UNLOADABLE, ids=[c[0] for c in UNLOADABLE])
    def test_unreadable_file_fails_only_its_resolution(self, tmp_path, capsys, kind, content, error):
        write_cohort(tmp_path / "data", res=8)
        write_cohort(tmp_path / "data", res=5)
        bad = tmp_path / "data" / "s003" / "REST_RL_5.txt"
        bad.unlink()
        if content is None:
            bad.mkdir()
        elif isinstance(content, bytes):
            bad.write_bytes(content)
        else:
            save_matrix(bad, content)
        out = tmp_path / "out"
        cfg = parse_args(
            [
                "--base-path", str(tmp_path / "data"),
                "--tasks", "REST",
                "--scan-types", "LR", "RL",
                "--resolutions", "5", "8",
                "--metric", "alpha_z",
                "--tau", "0.0",
                "--num-subjects", "6",
                "--out-dir", str(out),
            ]
        )
        assert run(cfg) == 1
        err = capsys.readouterr().err
        line = next(ln for ln in err.splitlines() if ln.startswith("error: REST/5: "))
        assert line.startswith(f"error: REST/5: {error}: ") and "REST_RL_5.txt" in line
        assert not (out / "REST_5").exists()
        assert sorted(f.name for f in (out / "REST_8").iterdir()) == [
            "D12.csv", "D21.csv", "report.json",
        ]

    def test_pool_raises_the_serial_first_error(self, tmp_path, capsys):
        # Serial order is every scan-1 file, then every scan-2 file, so the
        # bad LR file of s004 fails first although s002's RL file is earlier.
        write_cohort(tmp_path / "data", res=8)
        write_cohort(tmp_path / "data", res=5)
        (tmp_path / "data" / "s004" / "REST_LR_5.txt").write_text("1 2 x\n")
        save_matrix(tmp_path / "data" / "s002" / "REST_RL_5.txt", np.diag([np.nan, 1, 1, 1, 1]))
        errors = {}
        for workers in ("1", "2"):
            out = tmp_path / f"out{workers}"
            argv = base_argv(
                tmp_path / "data", out, extra=["--resolutions", "5", "8", "--workers", workers]
            )
            assert run(parse_args(argv)) == 1
            errors[workers] = capsys.readouterr().err
            assert sorted(f.name for f in (out / "REST_8").iterdir()) == [
                "D12.csv", "D21.csv", "report.json",
            ]
        assert errors["1"] == errors["2"]
        first = errors["1"].splitlines()[0]
        assert first.startswith("error: REST/5: ParseError: ") and "s004" in first
        assert "non-numeric token 'x' at line 1, field 3" in first

    def test_pool_leaves_no_trace(self, tmp_path, monkeypatch):
        write_cohort(tmp_path / "data")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        before = dict(os.environ)
        argv = base_argv(tmp_path / "data", tmp_path / "out", extra=["--workers", "2"])
        assert run(parse_args(argv)) == 0
        assert dict(os.environ) == before
        assert multiprocessing.active_children() == []

    def test_pool_processes_start_with_one_blas_thread(self, monkeypatch):
        for name in BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        with _file_map(2) as file_map:
            seen = list(file_map(os.getenv, BLAS_THREAD_VARS))
        assert seen == ["1"] * len(BLAS_THREAD_VARS)

    def test_prepare_failure_fails_only_its_combination(self, tmp_path, capsys, monkeypatch):
        # s003's RL matrix at res 5 validates, then its eigh fails in prepare
        write_cohort(tmp_path / "data", res=8)
        write_cohort(tmp_path / "data", res=5)
        target = np.loadtxt(tmp_path / "data" / "s003" / "REST_RL_5.txt")
        eigh = np.linalg.eigh

        def fails_on_target(m):
            if m.shape == target.shape and np.array_equal(m, target):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", fails_on_target)
        out = tmp_path / "out"
        argv = base_argv(tmp_path / "data", out, extra=["--resolutions", "5", "8"])
        assert run(parse_args(argv)) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[0] == (
            "error: REST/5: NumericalError: eigensolver did not converge: "
            "Eigenvalues did not converge [gallery 2 (s003)]"
        )
        assert not (out / "REST_5").exists()
        assert sorted(f.name for f in (out / "REST_8").iterdir()) == [
            "D12.csv", "D21.csv", "report.json",
        ]

    def test_unwritable_combination_fails_only_itself(self, tmp_path, capsys):
        write_cohort(tmp_path / "data", task="REST")
        write_cohort(tmp_path / "data", task="EMOTION")
        out = tmp_path / "out"
        out.mkdir()
        (out / "REST_8").write_text("a regular file where REST_8's directory goes\n")
        argv = base_argv(
            tmp_path / "data", out, metric="euclid", extra=["--tasks", "REST", "EMOTION"]
        )
        assert run(parse_args(argv)) == 1
        captured = capsys.readouterr()
        assert "error: REST/8: FileExistsError" in captured.err
        assert "EMOTION" in captured.out and "1.000" in captured.out
        assert sorted(f.name for f in (out / "EMOTION_8").iterdir()) == [
            "D12.csv", "D21.csv", "report.json",
        ]

    def test_added_kernel_needs_only_a_table_entry(self, tmp_path, monkeypatch):
        monkeypatch.setitem(metrics.KERNELS, "toy", metrics.KERNELS["euclid"])
        write_cohort(tmp_path / "data")
        for kind in ("euclid", "toy"):
            assert run(parse_args(base_argv(tmp_path / "data", tmp_path / kind, metric=kind))) == 0
        toy, ref = tmp_path / "toy" / "REST_8", tmp_path / "euclid" / "REST_8"
        assert (toy / "D12.csv").read_bytes() == (ref / "D12.csv").read_bytes()
        assert json.loads((toy / "report.json").read_text())["metric"] == {"kind": "toy"}

    @pytest.mark.parametrize("kind,block", [
        ("alpha_z", {"kind": "alpha_z", "alpha": 0.7, "z": 0.9}),
        ("alpha_pro", {"kind": "alpha_pro", "alpha": 0.7}),
        ("bw", {"kind": "bw"}),
        ("ai", {"kind": "ai"}),
        ("log", {"kind": "log"}),
        ("pearson", {"kind": "pearson"}),
        ("euclid", {"kind": "euclid"}),
    ])
    def test_report_metric_block(self, tmp_path, kind, block):
        write_cohort(tmp_path / "data")
        out = tmp_path / "out"
        argv = base_argv(tmp_path / "data", out, metric=kind, extra=["--alpha", "0.7", "--z", "0.9"])
        assert run(parse_args(argv)) == 0
        assert json.loads((out / "REST_8" / "report.json").read_text())["metric"] == block

    def test_subject_intersection_warns(self, tmp_path, capsys):
        write_cohort(tmp_path / "data")
        # subject with only one scan direction must be dropped with a warning
        lone = tmp_path / "data" / "s999"
        lone.mkdir()
        save_matrix(lone / "REST_LR_8.txt", np.eye(8))
        cfg = parse_args(base_argv(tmp_path / "data", tmp_path / "out", n=10))
        assert run(cfg) == 0
        captured = capsys.readouterr()
        assert "s999" in captured.err
        report = json.loads((tmp_path / "out" / "REST_8" / "report.json").read_text())
        assert "s999" not in report["subjects"]

    def test_pearson_confound_scores_below_alpha_z(self, tmp_path):
        write_cohort(tmp_path / "data", n_subjects=8, confound=True)
        means = {}
        for metric in ("alpha_z", "pearson"):
            out = tmp_path / f"out_{metric}"
            assert run(parse_args(base_argv(tmp_path / "data", out, metric=metric, n=8))) == 0
            means[metric] = json.loads((out / "REST_8" / "report.json").read_text())["mean"]
        assert means["pearson"] < means["alpha_z"]


def child_env(**extra):
    """Environment for a child interpreter that imports this source tree's spdid."""
    src = str(Path(spdid.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


@pytest.mark.parametrize("module", ["spdid", "spdid.cli"])
def test_python_dash_m_prints_usage(module):
    proc = subprocess.run(
        [sys.executable, "-m", module, "--help"], env=child_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: spd-id")


def test_blas_threads_move_only_last_digits(tmp_path):
    """1 against 2 BLAS threads: equal ID reports, distances equal to 1e-12 relative.

    The cohort has the within-subject noise and spread of the benchmark's
    kernels-1t cohort, where alpha_pro misses some subjects. The drift grows
    with the condition number of the inputs (see the README).
    """
    write_cohort(tmp_path / "data", res=100, n_subjects=8, noise=0.2, spread=1.0)
    for metric in ("alpha_pro", "bw"):
        outputs = []
        for threads in ("1", "2"):
            env = child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            out = tmp_path / f"{metric}-{threads}"
            argv = base_argv(tmp_path / "data", out, metric=metric, res=100, n=8)
            proc = subprocess.run(
                [sys.executable, "-m", "spdid", *argv],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            combo = out / "REST_100"
            report = json.loads((combo / "report.json").read_text())
            spec = MetricSpec(**report["metric"])
            dists = [read_distance_csv(combo / f, spec).values for f in ("D12.csv", "D21.csv")]
            outputs.append((report, dists))
        (rep1, dists1), (rep2, dists2) = outputs
        for key in ("id12", "id21", "per_subject_hits12", "per_subject_hits21"):
            assert rep1[key] == rep2[key], (metric, key)
        for d1, d2 in zip(dists1, dists2):
            assert np.abs(d1 - d2).max() <= 1e-12 * np.abs(d1).max(), metric
