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

    The entries are immutable: the array is write-locked, and the finite trace
    and the smallest eigenvalue found at validation time are stored with it.
    Nothing is cached, so threads may share it; what a kernel derives from a
    matrix is its ``prepare`` step's state (see :data:`spdid.metrics.KERNELS`).
    Construct through :func:`validate_spd` or :func:`regularize`.
    """

    __slots__ = ("entries", "min_eigenvalue", "trace")

    def __init__(self, sym_entries: np.ndarray, min_eigenvalue: float):
        # sym_entries must already be exactly symmetric and PD-checked.
        sym_entries = np.ascontiguousarray(sym_entries, dtype=float)
        sym_entries.setflags(write=False)
        self.entries = sym_entries
        self.min_eigenvalue = float(min_eigenvalue)
        with np.errstate(over="ignore"):  # a diagonal that sums past the float range
            self.trace = float(np.trace(sym_entries))
        if not np.isfinite(self.trace):
            raise NonFiniteEntry(f"trace {self.trace} is not finite")

    def __reduce__(self):
        # Rebuild through __init__, so an unpickled copy is write-locked too.
        return SpdMatrix, (self.entries, self.min_eigenvalue)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __repr__(self) -> str:
        return f"SpdMatrix(n={self.n}, min_eigenvalue={self.min_eigenvalue:.6g})"


def eigensolve(sym: np.ndarray, vectors: bool = False):
    """Ascending eigenvalues of a symmetric matrix, with eigenvectors if asked.

    Validation, :mod:`spdid.matfun`, the kernels and the cohort generator all
    solve through here, so a LAPACK failure to converge or a non-finite
    eigenvalue always surfaces as a :class:`NumericalError`.
    """
    try:
        out = np.linalg.eigh(sym) if vectors else np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver did not converge: {exc}") from exc
    if not np.all(np.isfinite(out[0] if vectors else out)):
        raise NumericalError("eigensolver returned non-finite eigenvalues")
    return out


def polar_factor(m: np.ndarray) -> np.ndarray:
    """The orthogonal polar factor P Q^T of M = P S Q^T: the one SVD, guarded like eigensolve."""
    try:
        p, _, qt = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    return p @ qt


def check_tau(tau: float) -> None:
    """Reject a regularization shift that is negative, infinite or NaN."""
    if not (np.isfinite(tau) and tau >= 0):
        raise InvalidParameter(f"tau must be finite and >= 0, got {tau}")


def symmetrize(x: np.ndarray) -> np.ndarray:
    """x/2 + x^T/2, the package's one symmetrizing sum. Halving first keeps it finite for
    finite x, where (x + x^T)/2 overflows past the float range; elsewhere the bits agree."""
    half = x / 2.0
    return half + half.T


def regularize(raw, tau: float) -> SpdMatrix:
    """Symmetrize (see :func:`symmetrize`), shift by ``tau`` on the diagonal, and validate.

    Returns ``raw/2 + raw.T/2 + tau*I`` as an :class:`SpdMatrix`. The output
    is exactly symmetric by construction. ``tau`` must be finite and >= 0.
    """
    check_tau(tau)
    sym = symmetrize(as_square(raw))
    # a tau shift that overflows to inf is rejected by the check below, not by a warning
    with np.errstate(over="ignore"):
        if tau != 0.0:
            idx = np.arange(sym.shape[0])
            sym[idx, idx] += tau
    if not np.all(np.isfinite(sym)):
        bad = np.argwhere(~np.isfinite(sym))[0]
        raise NonFiniteEntry(f"entries overflow when symmetrized at ({bad[0]}, {bad[1]})")
    lam_min = float(eigensolve(sym)[0])
    if lam_min <= PD_FLOOR:
        raise NotPositiveDefinite(
            f"smallest eigenvalue {lam_min:.6g} is at or below the floor "
            f"{PD_FLOOR:g}; increase the regularization tau"
        )
    return SpdMatrix(sym, lam_min)


def validate_spd(raw) -> SpdMatrix:
    """Validate an already-SPD matrix without regularizing.

    Same as ``regularize(raw, 0)`` except that asymmetry beyond the tolerance
    is an error instead of being silently averaged away. Entries within
    tolerance are stored as the symmetric average.
    """
    a = as_square(raw)
    tol = SYMMETRY_RTOL * (1.0 + float(np.abs(a).max()))
    with np.errstate(over="ignore"):  # an overflowing difference is inf, > tol
        asym = float(np.abs(a - a.T).max())
    if asym > tol:
        raise NotSymmetric(f"asymmetry {asym:.6g} exceeds tolerance {tol:.6g}")
    return regularize(a, 0.0)
