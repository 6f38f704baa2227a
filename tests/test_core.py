import pickle
import re
from pathlib import Path

import numpy as np
import pytest

import spdid
from spdid import MetricSpec, regularize, validate_spd
from spdid.core import (
    InvalidParameter,
    NonFiniteEntry,
    NotPositiveDefinite,
    NotSymmetric,
    NumericalError,
    ShapeMismatch,
    UnknownMetric,
)
from support import KINDS


class TestRegularize:
    def test_identity_tau_zero(self):
        s = regularize(np.eye(2), 0.0)
        np.testing.assert_array_equal(s.entries, np.eye(2))
        assert s.min_eigenvalue == pytest.approx(1.0)

    def test_singular_after_symmetrization_rejected(self):
        # [[1,2],[0,1]] symmetrizes to [[1,1],[1,1]], eigenvalues 0 and 2
        with pytest.raises(NotPositiveDefinite) as err:
            regularize([[1.0, 2.0], [0.0, 1.0]], 0.0)
        assert "tau" in str(err.value)

    def test_tau_shift_rescues_singular(self):
        s = regularize([[1.0, 2.0], [0.0, 1.0]], 1e-6)
        np.testing.assert_allclose(
            s.entries, [[1 + 1e-6, 1.0], [1.0, 1 + 1e-6]], atol=0
        )
        # eigenvalues of [[1,1],[1,1]] + tau*I are tau and 2+tau
        assert s.min_eigenvalue == pytest.approx(1e-6, rel=1e-6)

    def test_idempotent_on_symmetric_spd_at_tau_zero(self):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        s = regularize(a, 0.0)
        np.testing.assert_array_equal(s.entries, a)

    def test_output_exactly_symmetric(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            raw = rng.standard_normal((6, 6)) + 6 * np.eye(6)
            s = regularize(raw, 0.5)
            np.testing.assert_array_equal(s.entries, s.entries.T)

    def test_eigenvalue_shift_law(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((5, 5))
        sym = (g + g.T) / 2 + 5 * np.eye(5)
        base = regularize(sym, 0.0)
        for tau in (1e-6, 0.1, 2.0):
            shifted = regularize(sym, tau)
            assert shifted.min_eigenvalue == pytest.approx(
                base.min_eigenvalue + tau, abs=1e-12
            )

    def test_negative_tau_rejected(self):
        for tau in (-1.0, np.nan, np.inf):
            with pytest.raises(InvalidParameter, match="finite and >= 0"):
                regularize(np.eye(2), tau)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteEntry):
            regularize([[1.0, np.nan], [0.0, 1.0]], 0.0)

    def test_nonsquare_rejected(self):
        with pytest.raises(ShapeMismatch):
            regularize(np.ones((2, 3)), 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_symmetrization_rejected(self):
        # the half-sum of finite entries stays finite: this matrix is indefinite
        with pytest.raises(NotPositiveDefinite):
            regularize([[1.0, 1.5e308], [1.5e308, 1.0]], 0.0)
        # a tau shift that overflows: the typed error, not numpy's overflow warning
        big = np.finfo(float).max
        with pytest.raises(NonFiniteEntry, match=r"overflow when symmetrized at \(0, 0\)"):
            regularize(np.diag([big, 1.0]), big)


def test_pickle_round_trip_keeps_matrix_immutable():
    # a matrix sent to or from another process is pickled
    rng = np.random.default_rng(11)
    g = rng.standard_normal((6, 6))
    for m in (regularize(2 * np.eye(3), 0.0), regularize(g @ g.T, 1e-3)):
        copy = pickle.loads(pickle.dumps(m))
        assert not copy.entries.flags.writeable
        np.testing.assert_array_equal(copy.entries, m.entries)
        for name in ("trace", "min_eigenvalue"):
            assert np.float64(getattr(copy, name)).tobytes() == np.float64(getattr(m, name)).tobytes()


class TestValidateSpd:
    def test_identity_accepted(self):
        s = validate_spd(np.eye(3))
        assert s.n == 3

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            validate_spd([[1.0, 0.0], [0.0, -1.0]])

    def test_asymmetry_at_tolerance_boundary(self):
        a = np.array([[1.0, 0.5], [0.4999999999, 1.0]])
        s = validate_spd(a)
        np.testing.assert_array_equal(s.entries, (a + a.T) / 2)

    def test_large_asymmetry_rejected(self):
        with pytest.raises(NotSymmetric):
            validate_spd([[1.0, 0.5], [0.3, 1.0]])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_symmetrization_rejected(self):
        # the half-sum stays finite, but the eigenvalue 2e308 does not
        with pytest.raises(NumericalError, match="non-finite eigenvalues"):
            validate_spd([[1e308, -1e308], [-1e308, 1e308]])
        big = np.finfo(float).max
        s = validate_spd(np.diag([big, 1.0]))
        np.testing.assert_array_equal(s.entries, np.diag([big, 1.0]))
        assert s.trace == big
        # finite entries whose trace overflows: the typed error, not a warning
        with pytest.raises(NonFiniteEntry, match="trace inf is not finite"):
            validate_spd(np.diag([big, big]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_asymmetry_rejected(self):
        # a - a.T overflows to inf, which exceeds any tolerance
        with pytest.raises(NotSymmetric, match="asymmetry inf exceeds"):
            validate_spd([[1.0, 1e308], [-1e308, 1.0]])

    def test_entries_write_locked(self):
        s = validate_spd(np.eye(2))
        with pytest.raises(ValueError):
            s.entries[0, 0] = 5.0


class TestMetricSpec:
    def test_plain_kinds_need_no_parameters(self):
        for kind in [k for k, row in KINDS.items() if row.params == ((),)]:
            assert MetricSpec(kind).alpha is None

    def test_alpha_required_for_alpha_family(self):
        with pytest.raises(InvalidParameter):
            MetricSpec("alpha_pro")
        with pytest.raises(InvalidParameter):
            MetricSpec("alpha_z", alpha=1.5, z=1.0)
        with pytest.raises(InvalidParameter):
            MetricSpec("alpha_z", alpha=0.5, z=0.0)
        assert MetricSpec("alpha_z", alpha=0.99, z=1.0).z == 1.0

    def test_unknown_kind(self):
        with pytest.raises(UnknownMetric):
            MetricSpec("mahalanobis")


def test_lapack_calls_only_in_core():
    """Every eigensolve and SVD goes through core's guards, so a LAPACK failure
    always surfaces as NumericalError with one wording."""
    lapack = re.compile(r"\b(eigh|eigvalsh|svd|LinAlgError)\b")
    offenders = [
        f"{path.name}:{k}: {line.strip()}"
        for path in sorted(Path(spdid.__file__).parent.glob("*.py"))
        if path.name != "core.py"
        for k, line in enumerate(path.read_text().splitlines(), 1)
        if lapack.search(line)
    ]
    assert offenders == []


def test_transpose_sums_only_in_core():
    """core.symmetrize is the one symmetrizing sum, halved before it adds, so
    no other module writes x + x.T, which can overflow."""
    transpose_sum = re.compile(r"\+\s*\w+\.T\b")
    offenders = [
        f"{path.name}:{k}: {line.strip()}"
        for path in sorted(Path(spdid.__file__).parent.glob("*.py"))
        if path.name != "core.py"
        for k, line in enumerate(path.read_text().splitlines(), 1)
        if transpose_sum.search(line)
    ]
    assert offenders == []
