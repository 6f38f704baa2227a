"""Validated SPD matrix values, regularization, and shared error types."""

from __future__ import annotations

import numpy as np

# Asymmetry above SYMMETRY_RTOL * (1 + max|entry|) is rejected; text-parsed
# matrices carry decimal round-off, so exact symmetry cannot be demanded.
SYMMETRY_RTOL = 1e-10

# Smallest eigenvalue a matrix may have and still count as positive definite.
PD_FLOOR = 1e-12


class SpdError(Exception):
    """Base class for every error raised by this package."""


class NonFiniteEntry(SpdError):
    pass


class NotSymmetric(SpdError):
    pass


class NotPositiveDefinite(SpdError):
    pass


class DimensionMismatch(SpdError):
    pass


class DegenerateVariance(SpdError):
    pass


class InvalidParameter(SpdError):
    pass


class UnknownMetric(SpdError):
    pass


class NumericalError(SpdError):
    pass


class ParseError(SpdError):
    pass


class ShapeMismatch(SpdError):
    pass


class BaseNotFound(SpdError):
    pass


class NoSubjectsFound(SpdError):
    pass


class NotSquare(SpdError):
    pass


class LabelMismatch(SpdError):
    pass


def as_square(entries) -> np.ndarray:
    """Coerce to a float square matrix, rejecting NaN/Inf and non-square shapes."""
    a = np.array(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ShapeMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        bad = np.argwhere(~np.isfinite(a))[0]
        raise NonFiniteEntry(f"non-finite entry at ({bad[0]}, {bad[1]})")
    return a


class SpdMatrix:
    """A validated symmetric positive-definite matrix.

    The entries are immutable: the array is write-locked, and the smallest
    eigenvalue found at validation time is stored with it. The spectrum, the
    matrix powers and the logarithm are computed lazily by :mod:`spdid.matfun`
    and cached on the matrix. Construct through :func:`validate_spd` or
    :func:`regularize` rather than directly.
    """

    __slots__ = ("entries", "min_eigenvalue", "_spectrum", "_pow_cache", "_log_entries")

    def __init__(self, sym_entries: np.ndarray, min_eigenvalue: float, spectrum=None):
        # sym_entries must already be exactly symmetric and PD-checked.
        sym_entries = np.ascontiguousarray(sym_entries, dtype=float)
        sym_entries.setflags(write=False)
        self.entries = sym_entries
        self.min_eigenvalue = float(min_eigenvalue)
        self._spectrum = spectrum
        self._pow_cache: dict[float, "SpdMatrix"] = {}
        self._log_entries = None

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.entries))

    def __repr__(self) -> str:
        return f"SpdMatrix(n={self.n}, min_eigenvalue={self.min_eigenvalue:.6g})"


def eigensolve(sym: np.ndarray, vectors: bool = False):
    """Ascending eigenvalues of a symmetric matrix, with eigenvectors if asked.

    Validation, :mod:`spdid.matfun` and the kernels all solve through here,
    so a LAPACK failure to converge always surfaces as a :class:`NumericalError`.
    """
    try:
        return np.linalg.eigh(sym) if vectors else np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver did not converge: {exc}") from exc


def _finish_validation(sym: np.ndarray) -> SpdMatrix:
    """PD-check an exactly-symmetric matrix and wrap it."""
    lam_min = float(eigensolve(sym)[0])
    if lam_min <= PD_FLOOR:
        raise NotPositiveDefinite(
            f"smallest eigenvalue {lam_min:.6g} is at or below the floor "
            f"{PD_FLOOR:g}; increase the regularization tau"
        )
    return SpdMatrix(sym, lam_min)


def regularize(raw, tau: float) -> SpdMatrix:
    """Symmetrize, shift by ``tau`` on the diagonal, and validate.

    Returns ``(raw + raw.T)/2 + tau*I`` as an :class:`SpdMatrix`. The output
    is exactly symmetric by construction. ``tau`` must be >= 0.
    """
    if tau < 0:
        raise InvalidParameter(f"tau must be >= 0, got {tau}")
    a = as_square(raw)
    sym = (a + a.T) / 2.0
    if tau != 0.0:
        idx = np.arange(sym.shape[0])
        sym[idx, idx] += tau
    return _finish_validation(sym)


def validate_spd(raw) -> SpdMatrix:
    """Validate an already-SPD matrix without regularizing.

    Same as ``regularize(raw, 0)`` except that asymmetry beyond the tolerance
    is an error instead of being silently averaged away. Entries within
    tolerance are stored as the symmetric average.
    """
    a = as_square(raw)
    tol = SYMMETRY_RTOL * (1.0 + float(np.abs(a).max()))
    asym = float(np.abs(a - a.T).max())
    if asym > tol:
        raise NotSymmetric(f"asymmetry {asym:.6g} exceeds tolerance {tol:.6g}")
    return _finish_validation((a + a.T) / 2.0)
