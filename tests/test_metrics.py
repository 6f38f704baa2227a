import functools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdid import (
    DistanceMatrix,
    MetricSpec,
    affine_invariant,
    alpha_procrustes,
    alpha_z_bw,
    both_directions,
    bures_wasserstein,
    cross_distances,
    dispatch,
    eig_sym,
    euclid,
    generate_synthetic_cohort,
    id_report,
    log_euclid,
    nearest_match_table,
    pearson_dist,
    regularize,
    sym_pow,
    validate_spd,
)
from spdid import metrics
from spdid.core import (
    DegenerateVariance,
    DimensionMismatch,
    InvalidParameter,
    NumericalError,
)
from support import random_orthogonal, random_spd


def spd(entries):
    return validate_spd(np.asarray(entries, dtype=float))


def diag(*values):
    return spd(np.diag(values))


class TestEuclid:
    def test_self_distance_zero(self):
        a = spd([[2.0, 1.0], [1.0, 2.0]])
        assert euclid(a, a) == 0.0

    def test_scaled_identity(self):
        assert euclid(spd(np.eye(2)), spd(2 * np.eye(2))) == pytest.approx(np.sqrt(2))

    def test_entrywise_sum(self):
        assert euclid(spd([[2, 1], [1, 2]]), spd(np.eye(2))) == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            euclid(spd(np.eye(2)), spd(np.eye(3)))

    def test_overflowing_squares_rescaled(self):
        # the squares of the 1e160-scale differences overflow; the distance does not
        rng = np.random.default_rng(8)
        a, b = random_spd(rng, 4), random_spd(rng, 4)
        big_a, big_b = spd(1e160 * a.entries), spd(1e160 * b.entries)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            scaled = euclid(big_a, big_b)
        assert scaled == pytest.approx(1e160 * euclid(a, b), rel=1e-14)


class TestPearson:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(0)
        a = random_spd(rng, 5)
        assert pearson_dist(a, a) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal_shift_invisible(self):
        rng = np.random.default_rng(1)
        a = random_spd(rng, 5)
        b = spd(a.entries + 5 * np.eye(5))
        assert pearson_dist(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_anticorrelated_triangles(self):
        # upper triangles (1,2,3) vs (3,2,1): r = -1, distance 2
        a = spd([[9, 1, 2], [1, 9, 3], [2, 3, 9]])
        b = spd([[9, 3, 2], [3, 9, 1], [2, 1, 9]])
        assert pearson_dist(a, b) == pytest.approx(2.0, abs=1e-12)

    def test_positive_affine_rescaling_invariance(self):
        rng = np.random.default_rng(2)
        a = random_spd(rng, 8)
        for c, d in ((2.0, 0.0), (0.5, 1.0), (3.0, 10.0)):
            b = spd(c * a.entries + d * np.eye(8))
            assert pearson_dist(a, b) <= 1e-10

    def test_constant_triangle_rejected(self):
        with pytest.raises(DegenerateVariance):
            pearson_dist(spd(2 * np.eye(3)), spd(np.eye(3) + 0.1))

    def test_too_small_order_rejected(self):
        with pytest.raises(DegenerateVariance):
            pearson_dist(spd([[2, 1], [1, 2]]), spd(np.eye(2)))

    def test_underflowing_norms_rescaled(self):
        # the centred triangles' squared norms (about 1e-340) underflow to 0
        # unless the triangles are scaled first; the answer is the 1e-3 pair's
        rng = np.random.default_rng(0)
        g, h = rng.standard_normal((5, 5)), rng.standard_normal((5, 5))
        tiny, moderate = (
            [regularize(np.eye(5) + c * m, 0.0) for m in (g, h)] for c in (1e-170, 1e-3)
        )
        assert pearson_dist(*tiny) == pytest.approx(pearson_dist(*moderate), rel=1e-14)
        assert pearson_dist(*tiny) == pytest.approx(1.3580817208536797, rel=1e-14)

    def test_overflowing_norms_rescaled(self):
        # identical off-diagonals, so the true distance is 0, but the product
        # of the centred norms overflows; the rescaled triangles still answer
        m = 1e200 * np.array([[4, 1, 2, 0], [1, 4, 0, 1], [2, 0, 4, 1], [0, 1, 1, 4]])
        rng = np.random.default_rng(8)
        a, b = random_spd(rng, 6), random_spd(rng, 6)
        big_a, big_b = spd(1e160 * a.entries), spd(1e160 * b.entries)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert 0.0 <= pearson_dist(spd(m), spd(m + 1e200 * np.eye(4))) <= 1e-15
            scaled = pearson_dist(big_a, big_b)
        assert abs(scaled - pearson_dist(a, b)) <= 1e-14

    def test_matches_uncached_formula_bitwise(self):
        rng = np.random.default_rng(3)
        for n in (3, 7, 7, 12):
            a, b = random_spd(rng, n), random_spd(rng, n)
            iu = np.triu_indices(n, k=1)
            x = a.entries[iu] - a.entries[iu].mean()
            y = b.entries[iu] - b.entries[iu].mean()
            r = float(x @ y) / (float(np.sqrt(x @ x)) * float(np.sqrt(y @ y)))
            assert pearson_dist(a, b) == 1.0 - min(1.0, max(-1.0, r))


class TestLogEuclid:
    def test_self_distance_zero(self):
        a = spd([[2, 1], [1, 2]])
        assert log_euclid(a, a) == 0.0

    def test_scalar_logs(self):
        assert log_euclid(diag(np.e, np.e), spd(np.eye(2))) == pytest.approx(np.sqrt(2))

    def test_scaling_law(self):
        # log(cA) = log A + ln(c) I, so d(cA, A) = sqrt(n) ln c
        rng = np.random.default_rng(3)
        a = random_spd(rng, 4)
        b = spd(np.e**2 * a.entries)
        assert log_euclid(b, a) == pytest.approx(4.0, rel=1e-10)


class TestAffineInvariant:
    def test_self_distance_zero(self):
        a = spd([[2, 1], [1, 2]])
        assert affine_invariant(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_reduction(self):
        assert affine_invariant(spd([[1.0]]), spd([[np.e**2]])) == pytest.approx(2.0)

    def test_commuting_diagonal(self):
        got = affine_invariant(diag(1.0, 4.0), diag(2.0, 2.0))
        assert got == pytest.approx(np.sqrt(2) * np.log(2), rel=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        a, b = random_spd(rng, 6), random_spd(rng, 6)
        base = affine_invariant(a, b)
        for _ in range(3):
            x = rng.standard_normal((6, 6)) + 3 * np.eye(6)
            ax = spd((x @ a.entries @ x.T + (x @ a.entries @ x.T).T) / 2)
            bx = spd((x @ b.entries @ x.T + (x @ b.entries @ x.T).T) / 2)
            assert affine_invariant(ax, bx) == pytest.approx(base, rel=1e-6)

    def test_inversion_invariance(self):
        rng = np.random.default_rng(5)
        a, b = random_spd(rng, 7), random_spd(rng, 7)
        ai_inv = affine_invariant(sym_pow(a, -1.0), sym_pow(b, -1.0))
        assert ai_inv == pytest.approx(affine_invariant(a, b), rel=1e-6)


class TestBuresWasserstein:
    def test_self_distance_zero(self):
        a = spd([[2, 1], [1, 2]])
        assert bures_wasserstein(a, a) == pytest.approx(0.0, abs=1e-8)

    def test_scalar_closed_form(self):
        assert bures_wasserstein(spd([[1.0]]), spd([[4.0]])) == pytest.approx(1.0)

    def test_commuting_closed_form(self):
        got = bures_wasserstein(diag(1.0, 9.0), diag(4.0, 4.0))
        assert got == pytest.approx(np.sqrt(2), rel=1e-12)

    @pytest.mark.parametrize("c,fallback", [(1.0 + 1e-9, True), (1.01, True), (1.2, False), (9.0, False)])
    def test_procrustes_fallback_only_below_floor(self, monkeypatch, c, fallback):
        # bw(A, cA)^2 / (tr A + tr cA) = (1 - sqrt c)^2 / (1 + c): 2.5e-5 at
        # c = 1.01, 4.4e-3 at c = 1.2, either side of the 1e-3 floor
        rng = np.random.default_rng(11)
        a = random_spd(rng, 6)
        b = spd(c * a.entries)
        calls = []
        polar = metrics.polar_factor
        monkeypatch.setattr(metrics, "polar_factor", lambda m: calls.append(m) or polar(m))
        got = bures_wasserstein(a, b)
        assert len(calls) == (1 if fallback else 0)
        assert got == pytest.approx(abs(1.0 - np.sqrt(c)) * np.sqrt(a.trace), rel=1e-6)


def _bw_reference(a, b):
    """||A^{1/2} - B^{1/2} U||_F with U the polar factor from an SVD: no trace cancellation."""
    sa, sb = _eig_power(a.entries, 0.5), _eig_power(b.entries, 0.5)
    p, _, qt = np.linalg.svd(sb.T @ sa)
    return float(np.linalg.norm(sa - sb @ (p @ qt)))


class TestBuresWassersteinTraceForm:
    """The trace form near its 1e-3 floor, where the Procrustes fallback takes over."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 10),
        log_cond=st.floats(0.0, 4.0),
        log_scale=st.floats(-3.0, 3.0),
        scaled=st.booleans(),
        log_step=st.floats(-12.0, -0.5),
    )
    def test_matches_reference_across_floor(self, seed, n, log_cond, log_scale, scaled, log_step):
        rng = np.random.default_rng(seed)
        a = _spd_with_condition(rng, n, log_cond, log_scale)
        if scaled:
            # a scaled copy: d^2 / (tr A + tr B) = (1 - sqrt c)^2 / (1 + c)
            b = spd((1.0 + 10.0**log_step) * a.entries)
        else:
            # a near-equal pair: a perturbation of norm 10**log_step * lambda_min(A)
            g = rng.standard_normal((n, n))
            g = (g + g.T) / np.linalg.norm(g + g.T, 2)
            b = spd(a.entries + 10.0**log_step * a.min_eigenvalue * g)
        scale = a.trace + b.trace
        got, want = bures_wasserstein(a, b), _bw_reference(a, b)
        # the benchmark oracle's criterion on d^2 everywhere, and the closed-form
        # oracles' relative 1e-10 on d wherever the trace form answers
        assert abs(got**2 - want**2) <= 1e-10 * scale
        if want**2 >= 1e-3 * scale:
            assert abs(got - want) <= 1e-10 * want
        assert bures_wasserstein(a, a) <= 1e-8 * (1.0 + a.trace)


class TestAlphaProcrustes:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(6)
        a = random_spd(rng, 4)
        assert alpha_procrustes(a, a, 0.3) == pytest.approx(0.0, abs=1e-6)

    def test_scalar_reduction(self):
        assert alpha_procrustes(spd([[1.0]]), spd([[4.0]]), 0.5) == pytest.approx(2.0)

    def test_half_alpha_is_twice_bw(self):
        rng = np.random.default_rng(7)
        a, b = random_spd(rng, 10), random_spd(rng, 10)
        assert alpha_procrustes(a, b, 0.5) == pytest.approx(
            2 * bures_wasserstein(a, b), rel=1e-10
        )

    def test_bad_alpha(self):
        a = spd(np.eye(2))
        with pytest.raises(InvalidParameter):
            alpha_procrustes(a, a, 1.0)


class TestAlphaZ:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(8)
        a = random_spd(rng, 9)
        assert alpha_z_bw(a, a, 0.99, 1.0) == pytest.approx(0.0, abs=1e-8 * (1 + a.trace))

    def test_scalar_closed_form(self):
        got = alpha_z_bw(spd([[1.0]]), spd([[np.e]]), 0.99, 1.0)
        expected = 0.01 * 1.0 + 0.99 * np.e - 1.0**0.01 * np.e**0.99
        assert got == pytest.approx(expected, rel=1e-12)

    def test_asymmetric(self):
        a, b = spd([[1.0]]), spd([[np.e]])
        assert alpha_z_bw(a, b, 0.99, 1.0) != pytest.approx(
            alpha_z_bw(b, a, 0.99, 1.0), rel=1e-3
        )

    def test_half_half_is_half_bw_squared(self):
        rng = np.random.default_rng(9)
        a, b = random_spd(rng, 12), random_spd(rng, 12)
        assert alpha_z_bw(a, b, 0.5, 0.5) == pytest.approx(
            0.5 * bures_wasserstein(a, b) ** 2, rel=1e-9
        )

    @settings(max_examples=100, deadline=None)
    @example(seed=0, n=4, log_cond=6.0, log_scale=0.0, z=0.5)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        log_cond=st.floats(0.0, 6.0),
        log_scale=st.floats(-3.0, 3.0),
        z=st.floats(0.5, 1.0),
    )
    def test_half_alpha_symmetric_before_orientation(self, seed, n, log_cond, log_scale, z):
        # the pair step taken both ways, without Kernel.evaluate's canonical orientation,
        # agrees to 1e-9 of tr A + tr B (about 4e-11 is seen at z = 1/2, condition 1e6)
        rng = np.random.default_rng(seed)
        a = _spd_with_condition(rng, n, log_cond, log_scale)
        b = _spd_with_condition(rng, n, log_cond, log_scale)
        sa, sb = (metrics._alpha_z_prepare(m, 0.5, z) for m in (a, b))
        d_ab, d_ba = metrics._alpha_z_pair(sa, sb, 0.5, z), metrics._alpha_z_pair(sb, sa, 0.5, z)
        assert abs(d_ab - d_ba) <= 1e-9 * (a.trace + b.trace)

    def test_half_alpha_symmetric_mpmath(self):
        # a non-commuting 2x2 pair at 50 digits: D(A||B) = D(B||A) at alpha = 1/2
        mpmath = pytest.importorskip("mpmath")
        a_rows, b_rows, z = [[2, 1], [1, 3]], [[5, -2], [-2, 1]], mpmath.mpf("0.8")
        with mpmath.workdps(50):

            def power(m, p):
                lam, q = mpmath.eigsy(m)
                return q * mpmath.diag([x**p for x in lam]) * q.T

            def divergence(x, y):
                c = 1 / (4 * z)
                inner = power(y, c) * power(x, 2 * c) * power(y, c)
                lam, _ = mpmath.eigsy((inner + inner.T) / 2)
                trace = sum(x[i, i] + y[i, i] for i in range(2)) / 2
                return trace - sum(v**z for v in lam)

            ma, mb = mpmath.matrix(a_rows), mpmath.matrix(b_rows)
            assert mpmath.mnorm(ma * mb - mb * ma, 1) > 1
            d_ab, d_ba = divergence(ma, mb), divergence(mb, ma)
            assert abs(d_ab - d_ba) < mpmath.mpf(10) ** -40
        a, b = spd(a_rows), spd(b_rows)
        assert alpha_z_bw(a, b, 0.5, 0.8) == alpha_z_bw(b, a, 0.5, 0.8)
        assert alpha_z_bw(a, b, 0.5, 0.8) == pytest.approx(float(d_ab), rel=1e-12)

    def test_warning_outside_guaranteed_region(self):
        a = spd(np.eye(2))
        with pytest.warns(UserWarning):
            alpha_z_bw(a, a, 0.9, 0.5)

    def test_bad_parameters(self):
        a = spd(np.eye(2))
        with pytest.raises(InvalidParameter):
            alpha_z_bw(a, a, 0.0, 1.0)
        with pytest.raises(InvalidParameter):
            alpha_z_bw(a, a, 0.5, 1.5)

    def test_nan_is_not_clamped_to_zero(self):
        with pytest.raises(NumericalError, match="NaN"):
            metrics._clamp_negative(float("nan"), 1.0)


def _eig_power(m, p):
    lam, vec = np.linalg.eigh(m)
    return (vec * lam**p) @ vec.T


def _alpha_z1_eigenvalue_form(a, b, alpha):
    """tr((1-a) A + a B) - sum of eig(B^{a/2} A^{1-a} B^{a/2}), from numpy eigh."""
    bh = _eig_power(b.entries, alpha / 2.0)
    inner = bh @ _eig_power(a.entries, 1.0 - alpha) @ bh
    q = np.linalg.eigvalsh((inner + inner.T) / 2.0).sum()
    return (1.0 - alpha) * a.trace + alpha * b.trace - q


def _spd_with_condition(rng, n, log_cond, log_scale):
    """Random SPD matrix whose condition number is exactly 10**log_cond (n >= 2)."""
    lam = 10.0 ** (log_cond * rng.uniform(size=n))
    lam[0], lam[-1] = 1.0, 10.0**log_cond
    q = random_orthogonal(rng, n)
    return validate_spd((q * (lam * 10.0**log_scale)) @ q.T)


class TestAlphaZTraceForm:
    """z = 1 evaluates tr Q as <A^{1-a}, B^a>_F instead of summing eigenvalues."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 10),
        log_cond=st.floats(0.0, 8.0),
        log_scale=st.floats(-3.0, 3.0),
        alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_matches_eigenvalue_form(self, seed, n, log_cond, log_scale, alpha):
        rng = np.random.default_rng(seed)
        a = _spd_with_condition(rng, n, log_cond, log_scale)
        b = _spd_with_condition(rng, n, log_cond, log_scale)
        got = alpha_z_bw(a, b, alpha, 1.0)
        assert abs(got - _alpha_z1_eigenvalue_form(a, b, alpha)) <= 1e-12 * (a.trace + b.trace)

    def test_cohort_identification_unchanged(self):
        s1, s2, labels = generate_synthetic_cohort(20, 20, 0.05, 0.5, seed=5, confound=True)
        spec = MetricSpec("alpha_z", 0.99, 1.0)
        d12, d21 = both_directions(s1, s2, spec, labels, labels, workers=1)

        def eigenvalue_form(probe, gallery):
            values = np.array(
                [[_alpha_z1_eigenvalue_form(a, b, 0.99) for b in gallery] for a in probe]
            )
            return DistanceMatrix(tuple(labels), tuple(labels), values, spec)

        r12, r21 = eigenvalue_form(s1, s2), eigenvalue_form(s2, s1)
        got = id_report(d12, d21)
        assert 0.0 < got.mean < 1.0  # some misses, so the comparison has teeth
        assert got == id_report(r12, r21)
        for d, r in ((d12, r12), (d21, r21)):
            closest = [m.closest_gallery_label for m in nearest_match_table(d)]
            assert closest == [m.closest_gallery_label for m in nearest_match_table(r)]

    def test_non_positive_trace_term_rejected(self):
        record = metrics.KERNELS["alpha_z"]
        trace, *powers = record.prepare(spd(np.eye(2)), alpha=0.99, z=1.0)
        bad = (trace, *(np.full_like(p, np.nan) for p in powers))
        with pytest.raises(NumericalError, match="trace term"):
            record.pair(bad, bad, alpha=0.99, z=1.0)


def _no_convergence(m):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _nan_eigenvalues(m):
    return np.full(m.shape[0], np.nan)


class TestLinAlgErrorWrapped:
    @pytest.fixture
    def pair_then_failing_eigvalsh(self, monkeypatch):
        pair = diag(1.0, 2.0), diag(3.0, 4.0)  # validated before the patch
        monkeypatch.setattr(np.linalg, "eigvalsh", _no_convergence)
        return pair

    @pytest.fixture
    def pair_then_nan_eigvalsh(self, monkeypatch):
        pair = diag(1.0, 2.0), diag(3.0, 4.0)  # validated before the patch
        monkeypatch.setattr(np.linalg, "eigvalsh", _nan_eigenvalues)
        return pair

    @pytest.fixture
    def pair_then_failing_eigh(self, monkeypatch):
        pair = diag(1.0, 2.0), diag(3.0, 4.0)  # validated before the patch
        monkeypatch.setattr(np.linalg, "eigh", _no_convergence)
        return pair

    def test_validate_spd(self, pair_then_failing_eigvalsh):
        with pytest.raises(NumericalError, match="did not converge"):
            validate_spd(np.eye(2))

    def test_eig_sym(self, pair_then_failing_eigh):
        with pytest.raises(NumericalError, match="did not converge"):
            eig_sym(pair_then_failing_eigh[0])

    def test_bures_wasserstein(self, pair_then_failing_eigh):
        with pytest.raises(NumericalError, match="did not converge"):
            bures_wasserstein(*pair_then_failing_eigh)

    def test_bures_wasserstein_polar_factor(self, monkeypatch):
        a = diag(1.0, 2.0)  # bw(a, a) takes the Procrustes fallback
        monkeypatch.setattr(np.linalg, "svd", _no_convergence)
        with pytest.raises(NumericalError, match="SVD did not converge"):
            bures_wasserstein(a, a)

    def test_affine_invariant(self, pair_then_failing_eigvalsh):
        with pytest.raises(NumericalError, match="did not converge"):
            affine_invariant(*pair_then_failing_eigvalsh)

    def test_alpha_z_eigenvalue_path(self, pair_then_failing_eigvalsh):
        with pytest.raises(NumericalError, match="did not converge"):
            alpha_z_bw(*pair_then_failing_eigvalsh, 0.5, 0.8)

    def test_affine_invariant_nan_eigenvalues(self, pair_then_nan_eigvalsh):
        with pytest.raises(NumericalError, match="non-finite eigenvalues"):
            affine_invariant(*pair_then_nan_eigvalsh)

    def test_alpha_z_nan_eigenvalues(self, pair_then_nan_eigvalsh):
        with pytest.raises(NumericalError, match="non-finite eigenvalues"):
            alpha_z_bw(*pair_then_nan_eigvalsh, 0.5, 0.8)


SYMMETRIC_SPECS = [
    MetricSpec("euclid"),
    MetricSpec("pearson"),
    MetricSpec("log"),
    MetricSpec("ai"),
    MetricSpec("bw"),
    MetricSpec("alpha_pro", alpha=0.3),
]
# alpha_z at alpha = 1/2 is symmetric too, but a divergence: no triangle inequality
HALF_ALPHA_Z_SPECS = [MetricSpec("alpha_z", 0.5, 0.8), MetricSpec("alpha_z", 0.5, 1.0)]
SWAPPABLE_SPECS = SYMMETRIC_SPECS + HALF_ALPHA_Z_SPECS
ALL_SPECS = SWAPPABLE_SPECS + [MetricSpec("alpha_z", 0.99, 1.0)]


def spec_id(s):
    return f"{s.kind}-{s.alpha}-{s.z}"


PUBLIC_KERNELS = {
    "euclid": euclid,
    "pearson": pearson_dist,
    "log": log_euclid,
    "ai": affine_invariant,
    "bw": bures_wasserstein,
    "alpha_pro": alpha_procrustes,
    "alpha_z": alpha_z_bw,
}


# both traces are exactly 15, so the entries' bytes decide the order
EQUAL_TRACES = (spd([[4, 1, 0], [1, 5, 2], [0, 2, 6]]), spd([[6, 2, 1], [2, 4, 0], [1, 0, 5]]))


def _contract_pairs():
    """Random n=12 pairs, one with the smaller trace second, and an equal-trace pair."""
    rng = np.random.default_rng(12)
    pairs = [(random_spd(rng, 12), random_spd(rng, 12)) for _ in range(6)]
    pairs.append(max(pairs[0], pairs[0][::-1], key=lambda p: p[0].trace))
    return pairs + [EQUAL_TRACES]


def _outcome(spec, a, b):
    """dispatch's value as exact hex, or the type and text of the error it raises."""
    try:
        return dispatch(spec, a, b).hex()
    except NumericalError as exc:
        return type(exc), str(exc)


class TestCanonicalOrientation:
    """dispatch gives the same bits for (a, b) and (b, a)."""

    def test_symmetric_flag(self):
        # decided per spec from the kernel's parameters: alpha_z only at alpha = 1/2
        assert [s for s in ALL_SPECS if not s.symmetric] == [MetricSpec("alpha_z", 0.99, 1.0)]
        assert sorted(s.kind for s in SYMMETRIC_SPECS) == sorted(
            k for k in metrics.KERNELS if MetricSpec(k, 0.3, 0.8).symmetric
        )
        assert all(s.symmetric for s in SWAPPABLE_SPECS)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 8),
        log_cond=st.floats(0.0, 12.0),
        log_scale=st.floats(-3.0, 3.0),
    )
    def test_swapped_pair_bitwise_equal(self, seed, n, log_cond, log_scale):
        rng = np.random.default_rng(seed)
        a = _spd_with_condition(rng, n, log_cond, log_scale)
        b = _spd_with_condition(rng, n, log_cond, log_scale)
        for spec in SWAPPABLE_SPECS:
            assert _outcome(spec, a, b) == _outcome(spec, b, a), spec_id(spec)

    def test_equal_traces_ordered_by_entries(self):
        a, b = EQUAL_TRACES
        assert a.trace == b.trace
        for spec in SWAPPABLE_SPECS:
            assert _outcome(spec, a, b) == _outcome(spec, b, a), spec_id(spec)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_id)
    def test_every_entry_point_gives_one_value(self, spec):
        """The public kernel, dispatch, a pooled sweep cell and a transposed D21 cell
        give the same bits for (a, b); a symmetric kernel's public (b, a) does too."""
        public = PUBLIC_KERNELS[spec.kind]
        pairs = _contract_pairs()
        assert pairs[-2][1].trace < pairs[-2][0].trace
        assert pairs[-1][0].trace == pairs[-1][1].trace
        for k, (a, b) in enumerate(pairs):
            values = [
                public(a, b, **spec.params),
                dispatch(spec, a, b),
                cross_distances([a], [b], spec, workers=2).values[0, 0],
                both_directions([b], [a], spec)[1].values[0, 0],
            ]
            if spec.symmetric:
                values.append(public(b, a, **spec.params))
            assert len({float(v).hex() for v in values}) == 1, (k, values)


class TestAxiomsThroughDispatch:
    """Identity and the triangle inequality at condition numbers up to 1e12,
    with the fixed-seed tests' tolerances (TestSharedProperties)."""

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_id)
    @settings(max_examples=60, deadline=None)
    @example(seed=0, n=3, log_cond=11.0, log_scale=0.0)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 8),
        log_cond=st.floats(0.0, 12.0),
        log_scale=st.floats(-3.0, 3.0),
    )
    def test_identity(self, spec, seed, n, log_cond, log_scale):
        a = _spd_with_condition(np.random.default_rng(seed), n, log_cond, log_scale)
        assert dispatch(spec, a, a) <= 1e-8 * (1 + a.trace)

    @pytest.mark.parametrize("spec", [s for s in SYMMETRIC_SPECS if s.kind != "pearson"], ids=spec_id)
    @settings(max_examples=60, deadline=None)
    @example(seed=0, n=2, log_cond=9.0, log_scale=0.0)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 8),
        log_cond=st.floats(0.0, 12.0),
        log_scale=st.floats(-3.0, 3.0),
    )
    def test_triangle_inequality(self, spec, seed, n, log_cond, log_scale):
        rng = np.random.default_rng(seed)
        a, b, c = (_spd_with_condition(rng, n, log_cond, log_scale) for _ in "abc")
        d = functools.partial(dispatch, spec)
        assert d(a, c) <= d(a, b) + d(b, c) + 1e-8 * (1 + a.trace + b.trace + c.trace)


class TestDispatch:
    def test_euclid_routing(self):
        a = spd(np.eye(2))
        assert dispatch(MetricSpec("euclid"), a, a) == 0.0

    def test_alpha_z_routing(self):
        rng = np.random.default_rng(10)
        a, b = random_spd(rng, 4), random_spd(rng, 4)
        spec = MetricSpec("alpha_z", alpha=0.99, z=1.0)
        assert dispatch(spec, a, b) == alpha_z_bw(a, b, 0.99, 1.0)

    def test_ai_routing(self):
        got = dispatch(MetricSpec("ai"), diag(1.0, 4.0), diag(2.0, 2.0))
        assert got == pytest.approx(0.9802581434685472, rel=1e-10)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_id)
    def test_states_hold_only_arrays_and_floats(self, spec):
        # no SpdMatrix (or other object) rides along in a prepared state
        state = metrics.KERNELS[spec.kind].prepare(random_spd(np.random.default_rng(14), 4), **spec.params)
        parts = state if isinstance(state, tuple) else (state,)
        assert all(isinstance(x, (np.ndarray, float)) for x in parts)


class TestSharedProperties:
    """Axioms over random SPD pairs at a spread of matrix orders."""

    ORDERS = (1, 2, 5, 20)

    def _pairs(self, n, count=20):
        rng = np.random.default_rng(100 + n)
        return [(random_spd(rng, n), random_spd(rng, n)) for _ in range(count)]

    def _kernels(self, n):
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

    def test_identity_of_indiscernibles(self):
        for n in self.ORDERS:
            for a, _ in self._pairs(n, 5):
                for name, k in self._kernels(n).items():
                    assert k(a, a) <= 1e-8 * (1 + a.trace), name
                assert alpha_z_bw(a, a, 0.99, 1.0) <= 1e-8 * (1 + a.trace)

    def test_symmetry(self):
        for n in self.ORDERS:
            for a, b in self._pairs(n, 5):
                for name, k in self._kernels(n).items():
                    d1, d2 = k(a, b), k(b, a)
                    assert d1 == pytest.approx(d2, rel=1e-10), name

    def test_triangle_inequality(self):
        for n in self.ORDERS:
            rng = np.random.default_rng(200 + n)
            for _ in range(5):
                a, b, c = (random_spd(rng, n) for _ in range(3))
                for name, k in self._kernels(n).items():
                    if name == "pearson":
                        continue
                    dac, dab, dbc = k(a, c), k(a, b), k(b, c)
                    scale = 1 + a.trace + b.trace + c.trace
                    assert dac <= dab + dbc + 1e-8 * scale, name

    def test_orthogonal_congruence_invariance(self):
        rng = np.random.default_rng(42)
        n = 8
        a, b = random_spd(rng, n), random_spd(rng, n)
        q = random_orthogonal(rng, n)
        aq = spd(q @ a.entries @ q.T)
        bq = spd(q @ b.entries @ q.T)
        checks = {
            "euclid": euclid,
            "log": log_euclid,
            "ai": affine_invariant,
            "bw": bures_wasserstein,
            "alpha_pro": lambda x, y: alpha_procrustes(x, y, 0.3),
            "alpha_z": lambda x, y: alpha_z_bw(x, y, 0.99, 1.0),
        }
        for name, k in checks.items():
            assert k(aq, bq) == pytest.approx(k(a, b), rel=1e-8), name

    def test_inversion_invariance_log(self):
        rng = np.random.default_rng(43)
        a, b = random_spd(rng, 6), random_spd(rng, 6)
        d_inv = log_euclid(sym_pow(a, -1.0), sym_pow(b, -1.0))
        assert d_inv == pytest.approx(log_euclid(a, b), rel=1e-6)

    def test_alpha_pro_small_alpha_tends_to_log(self):
        rng = np.random.default_rng(44)
        a, b = random_spd(rng, 10), random_spd(rng, 10)
        assert alpha_procrustes(a, b, 1e-3) == pytest.approx(
            log_euclid(a, b), rel=1e-2
        )

    def test_alpha_z_nonnegative_in_guaranteed_region(self):
        from spdid.metrics import _alpha_z_raw

        prepare = metrics.KERNELS["alpha_z"].prepare
        rng = np.random.default_rng(45)
        for alpha in (0.25, 0.5, 0.75, 0.99):
            z_lo = max(alpha, 1 - alpha)
            for z in (z_lo, (z_lo + 1) / 2, 1.0):
                for _ in range(5):
                    sa, sb = (prepare(random_spd(rng, 5), alpha=alpha, z=z) for _ in "ab")
                    # the pair's value before round-off negatives are clamped
                    assert _alpha_z_raw(sa, sb, alpha, z) >= -1e-10
