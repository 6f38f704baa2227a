"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on the terminal.
"""

import json
import time

import numpy as np
import pytest

from spdid import (
    MetricSpec,
    affine_invariant,
    alpha_procrustes,
    alpha_z_bw,
    bures_wasserstein,
    compute_id_rate,
    euclid,
    eig_sym,
    generate_synthetic_cohort,
    log_euclid,
    pearson_dist,
    save_matrix,
    sym_log,
    sym_pow,
    sym_sqrt,
    validate_spd,
)
from spdid.cli import parse_args, run
from spdid.pairwise import DistanceMatrix
from support import random_orthogonal, random_spd, read_distance_csv, spd_pool

ORDERS = (1, 2, 5, 20, 100)
N_PAIRS = 200


def _line(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def _symmetric_kernels(n):
    ks = {
        "euclid": euclid,
        "log": log_euclid,
        "ai": affine_invariant,
        "bw": bures_wasserstein,
        "alpha_pro": lambda a, b: alpha_procrustes(a, b, 0.3),
    }
    if n >= 3:
        ks["pearson"] = pearson_dist
    return ks


@pytest.fixture(scope="module")
def pools():
    out = {}
    for n in ORDERS:
        rng = np.random.default_rng(1000 + n)
        out[n] = spd_pool(rng, n, N_PAIRS)
    return out


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    """30-subject, n=100 cohort written in the default directory layout."""
    base = tmp_path_factory.mktemp("cohort")
    lr, rl, labels = generate_synthetic_cohort(30, 100, 0.01, 2.0, seed=42)
    for label, m_lr, m_rl in zip(labels, lr, rl):
        d = base / label
        d.mkdir()
        save_matrix(d / "REST_LR_100.txt", m_lr.entries)
        save_matrix(d / "REST_RL_100.txt", m_rl.entries)
    return base


def _cli_argv(base, out, metric="alpha_z", workers=None, heatmap=True, n=30, res=100):
    argv = [
        "--base-path", str(base),
        "--tasks", "REST",
        "--scan-types", "LR", "RL",
        "--resolutions", str(res),
        "--metric", metric,
        "--alpha", "0.99",
        "--z", "1.0",
        "--tau", "0.00",
        "--num-subjects", str(n),
        "--out-dir", str(out),
    ]
    if heatmap:
        argv.append("--emit-heatmap")
    if workers is not None:
        argv += ["--workers", str(workers)]
    return argv


def test_criterion_metric_axioms(pools):
    start = time.monotonic()
    half_alpha_z = {"alpha_z(0.5, 0.8)": lambda a, b: alpha_z_bw(a, b, 0.5, 0.8)}
    for n in ORDERS:
        pool = pools[n]
        rng = np.random.default_rng(2000 + n)
        kernels = _symmetric_kernels(n)

        # identity of indiscernibles, all seven kernels and alpha_z at alpha = 1/2
        for a in pool:
            tol = 1e-8 * (1 + a.trace)
            for name, k in {**kernels, **half_alpha_z}.items():
                assert k(a, a) <= tol, (name, n)
            assert alpha_z_bw(a, a, 0.99, 1.0) <= tol

        # symmetry of the six symmetric kernels and of the alpha = 1/2 divergence
        for _ in range(N_PAIRS):
            i, j = rng.integers(len(pool), size=2)
            a, b = pool[i], pool[j]
            for name, k in {**kernels, **half_alpha_z}.items():
                d_ab, d_ba = k(a, b), k(b, a)
                assert abs(d_ab - d_ba) <= 1e-10 * max(d_ab, d_ba, 1e-300), (name, n)

        # triangle inequality for the five true metrics
        for _ in range(N_PAIRS):
            i, j, l = rng.integers(len(pool), size=3)
            a, b, c = pool[i], pool[j], pool[l]
            scale = 1 + a.trace + b.trace + c.trace
            for name, k in kernels.items():
                if name == "pearson":
                    continue
                assert k(a, c) <= k(a, b) + k(b, c) + 1e-8 * scale, (name, n)

    elapsed = time.monotonic() - start
    _line(f"metric axiom suite (identity/symmetry/triangle, {elapsed:.1f}s)", True)


def test_criterion_invariances():
    rng = np.random.default_rng(7)
    for n in (2, 5, 20):
        for _ in range(10):
            a, b = random_spd(rng, n), random_spd(rng, n)

            # affine invariance of ai under congruence by invertible X
            base_ai = affine_invariant(a, b)
            x = rng.standard_normal((n, n)) + (n + 1) * np.eye(n)
            ax = validate_spd((x @ a.entries @ x.T + (x @ a.entries @ x.T).T) / 2)
            bx = validate_spd((x @ b.entries @ x.T + (x @ b.entries @ x.T).T) / 2)
            assert abs(affine_invariant(ax, bx) - base_ai) <= 1e-6 * base_ai

            # orthogonal congruence invariance of the geometry-aware metrics
            q = random_orthogonal(rng, n)
            aq = validate_spd(q @ a.entries @ q.T)
            bq = validate_spd(q @ b.entries @ q.T)
            geo = {
                "euclid": euclid,
                "log": log_euclid,
                "ai": affine_invariant,
                "bw": bures_wasserstein,
                "alpha_pro": lambda u, v: alpha_procrustes(u, v, 0.3),
                "alpha_z": lambda u, v: alpha_z_bw(u, v, 0.99, 1.0),
            }
            for name, k in geo.items():
                d0, d1 = k(a, b), k(aq, bq)
                assert abs(d1 - d0) <= 1e-8 * max(d0, 1e-300), name

            # inversion invariance of ai and log
            a_inv, b_inv = sym_pow(a, -1.0), sym_pow(b, -1.0)
            assert abs(affine_invariant(a_inv, b_inv) - base_ai) <= 1e-6 * base_ai
            d_log = log_euclid(a, b)
            assert abs(log_euclid(a_inv, b_inv) - d_log) <= 1e-6 * d_log

    # pearson invariance under positive-affine off-diagonal rescaling
    for n in (5, 20):
        for _ in range(10):
            a = random_spd(rng, n)
            c = float(np.exp(rng.uniform(-1, 1)))
            d = float(rng.uniform(0, 2))
            b = validate_spd(c * a.entries + d * np.eye(n))
            assert pearson_dist(a, b) <= 1e-10

    _line("invariance suite (affine/orthogonal/inversion/pearson-rescale)", True)


def test_criterion_closed_form_oracles():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(8)
    alpha, z = 0.7, 0.8

    for n in (1, 2, 5, 20):
        for _ in range(10):
            av = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), n))
            bv = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), n))
            a, b = validate_spd(np.diag(av)), validate_spd(np.diag(bv))

            oracles = {
                "euclid": (euclid(a, b), np.sqrt(np.sum((av - bv) ** 2))),
                "log": (log_euclid(a, b), np.sqrt(np.sum((np.log(av) - np.log(bv)) ** 2))),
                "ai": (affine_invariant(a, b), np.sqrt(np.sum(np.log(av / bv) ** 2))),
                "bw": (bures_wasserstein(a, b), np.sqrt(np.sum((np.sqrt(av) - np.sqrt(bv)) ** 2))),
                "alpha_pro": (
                    alpha_procrustes(a, b, alpha),
                    np.sqrt(np.sum((av**alpha - bv**alpha) ** 2)) / alpha,
                ),
                "alpha_z": (
                    alpha_z_bw(a, b, alpha, z),
                    np.sum((1 - alpha) * av + alpha * bv - av ** (1 - alpha) * bv**alpha),
                ),
            }
            for name, (got, want) in oracles.items():
                assert abs(got - want) <= 1e-10 * max(abs(want), 1e-300), (name, n)

    # 1x1 scalar cases from the operation contracts
    one = validate_spd([[1.0]])
    four = validate_spd([[4.0]])
    e1 = validate_spd([[np.e]])
    e2 = validate_spd([[np.e**2]])
    assert affine_invariant(one, e2) == pytest.approx(2.0, rel=1e-12)
    assert bures_wasserstein(one, four) == pytest.approx(1.0, rel=1e-12)
    assert alpha_procrustes(one, four, 0.5) == pytest.approx(2.0, rel=1e-12)

    # alpha_z 1x1 value recomputed with a high-precision scalar oracle:
    # (1-a)*1 + a*e - 1^(1-a) * e^a at a=0.99, z=1
    with mpmath.workdps(50):
        expected = mpmath.mpf("0.01") * 1 + mpmath.mpf("0.99") * mpmath.e - mpmath.e ** mpmath.mpf("0.99")
        expected = float(expected)
    assert alpha_z_bw(one, e1, 0.99, 1.0) == pytest.approx(expected, rel=1e-12)

    _line("closed-form oracle suite (diagonal + scalar cases, mpmath oracle)", True)


def test_criterion_reductions():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(2, 51))
        a, b = random_spd(rng, n), random_spd(rng, n)
        bw = bures_wasserstein(a, b)
        assert abs(alpha_procrustes(a, b, 0.5) - 2 * bw) <= 1e-10 * 2 * bw
        assert abs(alpha_z_bw(a, b, 0.5, 0.5) - 0.5 * bw**2) <= 1e-9 * 0.5 * bw**2
        d_log = log_euclid(a, b)
        assert abs(alpha_procrustes(a, b, 1e-3) - d_log) <= 1e-2 * d_log
    _line("reduction suite (alpha_pro->2bw, alpha_z->bw^2/2, alpha_pro->log)", True)


def test_criterion_matrix_functions():
    rng = np.random.default_rng(10)
    for n in (2, 7, 50, 200):
        a = random_spd(rng, n)
        scale = 1 + np.abs(a.entries).max()

        r = sym_sqrt(a).entries
        assert np.abs(r @ r - a.entries).max() <= 1e-8 * scale

        for p, q in ((-0.5, 0.3), (0.3, 0.5), (0.5, 0.5), (-0.5, 1.0)):
            lhs = sym_pow(a, p).entries @ sym_pow(a, q).entries
            assert np.abs(lhs - sym_pow(a, p + q).entries).max() <= 1e-8 * scale

        log_a = sym_log(a)
        lam, vec = np.linalg.eigh(log_a)
        assert np.abs((vec * np.exp(lam)) @ vec.T - a.entries).max() <= 1e-8 * scale

        qmat = random_orthogonal(rng, n)
        rotated = validate_spd(qmat @ a.entries @ qmat.T)
        lhs = sym_pow(rotated, 0.5).entries
        rhs = qmat @ sym_sqrt(a).entries @ qmat.T
        assert np.abs(lhs - rhs).max() <= 1e-8 * scale
    _line("matrix-function suite (sqrt/power/log-exp/congruence, n<=200)", True)


def test_criterion_identification_oracle():
    def brute_force(values):
        n = values.shape[0]
        hits = []
        for i in range(n):
            hit = True
            for j in range(n):
                if j != i and values[i, j] <= values[i, i]:
                    hit = False
            hits.append(hit)
        return hits

    rng = np.random.default_rng(11)
    spec = MetricSpec("euclid")
    for _ in range(500):
        n = int(rng.integers(1, 51))
        values = rng.random((n, n))
        if n > 1:
            # engineer exact ties on a few rows; ties must count as misses
            for _ in range(int(rng.integers(0, 3))):
                i = int(rng.integers(n))
                j = (i + int(rng.integers(1, n))) % n
                values[i, j] = values[i, i]
        labels = tuple(f"s{i}" for i in range(n))
        dm = DistanceMatrix(labels, labels, values, spec)
        rate, hits = compute_id_rate(dm)
        expected = brute_force(values)
        assert list(hits) == expected
        assert rate == sum(expected) / n

        # monotone-transform invariance, exact
        dm2 = DistanceMatrix(labels, labels, np.sqrt(values) + 3.0, spec)
        _, hits2 = compute_id_rate(dm2)
        assert hits2 == hits
    _line("identification suite (brute-force oracle, ties, monotone transforms)", True)


def test_criterion_end_to_end_pipeline(cohort_dir, tmp_path, capsys):
    start = time.monotonic()
    out = tmp_path / "out"
    code = run(parse_args(_cli_argv(cohort_dir, out)))
    stdout = capsys.readouterr().out
    assert code == 0
    assert "1.000" in stdout

    combo = out / "REST_100"
    report = json.loads((combo / "report.json").read_text())
    assert report["mean"] == 1.0

    d12 = read_distance_csv(combo / "D12.csv", MetricSpec("alpha_z", 0.99, 1.0))
    v = d12.values
    strict_diag = all(v[i, i] < np.delete(v[i], i).min() for i in range(v.shape[0]))
    assert strict_diag
    assert (combo / "heatmap.png").exists()

    # off-diagonal-rescaling confound: pearson must score strictly below alpha_z
    confound_base = tmp_path / "confound"
    lr, rl, labels = generate_synthetic_cohort(30, 100, 0.02, 1.5, seed=42, confound=True)
    for label, m_lr, m_rl in zip(labels, lr, rl):
        d = confound_base / label
        d.mkdir(parents=True)
        save_matrix(d / "REST_LR_100.txt", m_lr.entries)
        save_matrix(d / "REST_RL_100.txt", m_rl.entries)
    means = {}
    for metric in ("alpha_z", "pearson"):
        out_m = tmp_path / f"confound_out_{metric}"
        assert run(parse_args(_cli_argv(confound_base, out_m, metric=metric, heatmap=False))) == 0
        means[metric] = json.loads(
            (out_m / "REST_100" / "report.json").read_text()
        )["mean"]
    capsys.readouterr()
    assert means["pearson"] < means["alpha_z"]

    elapsed = time.monotonic() - start
    _line(
        f"end-to-end pipeline (ID_Rate 1.000, strict diagonal, pearson "
        f"{means['pearson']:.3f} < alpha_z {means['alpha_z']:.3f}, {elapsed:.1f}s)",
        True,
    )


def test_criterion_cli_determinism(cohort_dir, tmp_path, capsys):
    outputs = {}
    for tag, workers in (("first", 1), ("second", 1), ("eight", 8)):
        out = tmp_path / tag
        assert run(parse_args(_cli_argv(cohort_dir, out, workers=workers))) == 0
        outputs[tag] = {
            f.name: f.read_bytes() for f in sorted((out / "REST_100").iterdir())
        }
    capsys.readouterr()
    assert set(outputs["first"]) == {"D12.csv", "D21.csv", "heatmap.png", "report.json"}
    assert outputs["first"] == outputs["second"]
    assert outputs["first"] == outputs["eight"]
    _line("determinism (byte-identical outputs across reruns and workers 1 vs 8)", True)
