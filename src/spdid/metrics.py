"""Distance and divergence kernels on SPD matrices.

Seven kernels, registered by name in :data:`KERNELS` and selected through a
:class:`MetricSpec`:

==========  ============================================================
name        formula
==========  ============================================================
euclid      ||A - B||_F
pearson     1 - Pearson correlation of the strict upper triangles
log         ||log A - log B||_F                    (log-Euclidean)
ai          ||log(A^{-1/2} B A^{-1/2})||_F         (affine-invariant)
bw          sqrt(tr A + tr B - 2 tr (A^{1/2} B A^{1/2})^{1/2})
alpha_pro   (1/alpha) * bw(A^{2 alpha}, B^{2 alpha})
alpha_z     tr((1-a) A + a B) - tr (B^{a/2z} A^{(1-a)/z} B^{a/2z})^z
==========  ============================================================

The affine-invariant and log-Euclidean distances follow the standard
Riemannian-geometry formulations; bw is the 2-Wasserstein distance between
centered Gaussians; alpha_pro and alpha_z are the alpha-Procrustes and
alpha-z Bures-Wasserstein families. alpha_z is a divergence, not a metric:
it is generally asymmetric in (A, B).

bw (and through it alpha_pro) is evaluated in the trace form above, from the
eigenvalues alone, with a Procrustes-form fallback where the subtraction
would cancel (see :func:`bures_wasserstein`).

Each :data:`KERNELS` entry splits its kernel into a per-matrix ``prepare``
step and a ``pair`` step, and records whether it is symmetric: all but alpha_z.
:func:`dispatch` and the sweep evaluate a symmetric kernel in one canonical
orientation (see :meth:`Kernel.swaps`), so k(a, b) and k(b, a) are the same
bits and a sweep may transpose one direction into the other.

At z = 1 the alpha_z trace needs no eigensolve: by cyclicity,
tr(B^{a/2} A^{1-a} B^{a/2}) = tr(A^{1-a} B^a) = <A^{1-a}, B^a>_F, an O(n^2)
entrywise product of two powers that are prepared once per matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from .core import (
    DegenerateVariance,
    DimensionMismatch,
    InvalidParameter,
    NumericalError,
    SpdMatrix,
    UnknownMetric,
    eigensolve,
)
from .matfun import Spectrum, eig_sym, spectral_pow, sym_inv_sqrt, sym_log, sym_sqrt


def _check_alpha(alpha: float | None) -> None:
    if alpha is None or not 0.0 < alpha < 1.0:
        raise InvalidParameter(f"alpha must be in (0, 1), got {alpha}")


def _check_z(z: float | None) -> None:
    if z is None or not 0.0 < z <= 1.0:
        raise InvalidParameter(f"z must be in (0, 1], got {z}")


def _clamp_negative(value: float, scale: float) -> float:
    """Clamp round-off negatives to 0; larger negatives and NaN are a real failure."""
    if value >= 0.0:
        return value
    if not value >= -1e-12 * (1.0 + scale):
        raise NumericalError(f"distance value {value:.6g} is NaN or negative beyond round-off")
    return 0.0


def _apply(spec: MetricSpec, a: SpdMatrix, b: SpdMatrix) -> float:
    """pair(prepare(a), prepare(b)) for the kernel of ``spec``, in the order given."""
    if a.n != b.n:
        raise DimensionMismatch(f"matrix orders differ: {a.n} vs {b.n}")
    record, params = KERNELS[spec.kind], spec.params
    return record.pair(record.prepare(a, **params), record.prepare(b, **params), **params)


def _frobenius(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.linalg.norm(x - y))


def euclid(a: SpdMatrix, b: SpdMatrix) -> float:
    """Frobenius (entrywise Euclidean) distance."""
    return _apply(MetricSpec("euclid"), a, b)


def _triangle(a: SpdMatrix) -> tuple[np.ndarray, np.ndarray, float]:
    """pearson's state: the strict upper triangle, centred, and that norm."""
    if a.n < 3:
        raise DegenerateVariance(f"pearson needs order >= 3, got {a.n}")
    x = a.entries[np.triu_indices(a.n, k=1)]
    with np.errstate(over="ignore"):  # an overflow is caught by the pair
        return (x, *_centred(x))


def _pearson_pair(ta: tuple, tb: tuple) -> float:
    (x, xc, nx), (y, yc, ny) = ta, tb
    if nx and ny and not np.isfinite(nx * ny):
        # The mean or a norm overflowed. Correlation is scale-invariant, so
        # redo it on the unit-scaled triangles; inputs that do not overflow
        # never take this branch and keep their bits.
        xc, nx = _centred(x / np.abs(x).max())
        yc, ny = _centred(y / np.abs(y).max())
    if nx == 0.0 or ny == 0.0:
        raise DegenerateVariance("strict upper triangle is constant; correlation undefined")
    r = min(1.0, max(-1.0, float(xc @ yc) / (nx * ny)))
    return 1.0 - r


def pearson_dist(a: SpdMatrix, b: SpdMatrix) -> float:
    """One minus the Pearson correlation of the strict upper triangles.

    The diagonal is excluded (self-connections carry no information). Range
    [0, 2]; requires order >= 3 so the triangles have at least two entries.
    """
    return _apply(MetricSpec("pearson"), a, b)


def _centred(x: np.ndarray) -> tuple[np.ndarray, float]:
    xc = x - x.mean()
    return xc, float(np.sqrt(xc @ xc))


def log_euclid(a: SpdMatrix, b: SpdMatrix) -> float:
    """Frobenius distance between matrix logarithms."""
    return _apply(MetricSpec("log"), a, b)


def _ai_pair(sa: tuple, sb: tuple) -> float:
    isq, b = sa[1], sb[0]
    inner = isq @ b @ isq
    lam = eigensolve((inner + inner.T) / 2.0)
    if lam[0] <= 0.0:
        raise NumericalError(
            f"whitened product lost positive definiteness (eigenvalue {lam[0]:.6g})"
        )
    return float(np.sqrt(np.sum(np.log(lam) ** 2)))


def affine_invariant(a: SpdMatrix, b: SpdMatrix) -> float:
    """Geodesic distance under the affine-invariant Riemannian metric."""
    return _apply(MetricSpec("ai"), a, b)


# bw's trace form is trusted while d^2 >= _BW_TRACE_FLOOR * (tr A + tr B);
# below it the subtraction has cancelled too many digits.
_BW_TRACE_FLOOR = 1e-3


def _bw_pair(sa: tuple, sb: tuple) -> float:
    """bw from two states (matrix, its square root); alpha_pro's pair too."""
    (a, sq_a), (b, sq_b) = sa, sb
    inner = sq_a @ b.entries @ sq_a
    inner = (inner + inner.T) / 2.0
    scale = a.trace + b.trace
    d2 = scale - 2.0 * float(np.sum(np.sqrt(np.clip(eigensolve(inner), 0.0, None))))
    if d2 >= _BW_TRACE_FLOOR * scale:
        return float(np.sqrt(d2))
    lam, vec = eigensolve(inner, vectors=True)
    # By congruence, lambda_min(sqrt(A) B sqrt(A)) >= lambda_min(A) *
    # lambda_min(B) > 0 for validated SPD inputs, so flooring only repairs
    # eigensolver round-off and keeps lambda^(-1/2) finite.
    lam = np.maximum(lam, a.min_eigenvalue * b.min_eigenvalue)
    # polar factor U of M = sqrt(B) sqrt(A), via M (M^T M)^{-1/2}
    u = ((sq_b @ sq_a) @ (vec * lam**-0.5)) @ vec.T
    return float(np.linalg.norm(sq_a - sq_b @ u))


def bures_wasserstein(a: SpdMatrix, b: SpdMatrix) -> float:
    """Bures-Wasserstein distance (optimal transport between Gaussians).

    Evaluated in the trace form d^2 = tr A + tr B - 2 sum_i sqrt(lambda_i),
    with lambda the eigenvalues of A^{1/2} B A^{1/2} from one eigenvalue-only
    solve (Bhatia, Jain & Lim 2019). That subtraction cancels
    catastrophically near A = B, so when d^2 < _BW_TRACE_FLOOR * (tr A + tr B)
    the distance is recomputed in the equivalent Procrustes form
    ||A^{1/2} - B^{1/2} U||_F, with U the polar factor of B^{1/2} A^{1/2}:
    the norm of a difference does not cancel. Swapping A and B can change
    the last bits; :func:`dispatch` fixes the orientation.
    """
    return _apply(MetricSpec("bw"), a, b)


def _alpha_pro_prepare(a: SpdMatrix, alpha: float) -> tuple[SpdMatrix, np.ndarray]:
    """bw's state of A^{2 alpha}: the power and its square root, from A's one spectrum."""
    spectrum = eig_sym(a)
    power = Spectrum(spectrum.eigenvalues ** (2.0 * alpha), spectrum.eigenvectors)
    return spectral_pow(power, 1.0), spectral_pow(power, 0.5).entries


def _alpha_pro_pair(sa: tuple, sb: tuple, alpha: float) -> float:
    return _bw_pair(sa, sb) / alpha


def alpha_procrustes(a: SpdMatrix, b: SpdMatrix, alpha: float) -> float:
    """Alpha-Procrustes distance: (1/alpha) * bw(A^{2a}, B^{2a}).

    Interpolates between twice the Bures-Wasserstein distance (alpha = 1/2)
    and the log-Euclidean distance (alpha -> 0).
    """
    return _apply(MetricSpec("alpha_pro", alpha=alpha), a, b)


def _alpha_z_prepare(a: SpdMatrix, alpha: float, z: float) -> tuple[float, np.ndarray, np.ndarray]:
    """(tr A, A^{(1-a)/z}, A^a at z = 1 else A^{a/2z}): the powers A takes as the
    first and as the second argument, so one state serves both directions."""
    if z < max(alpha, 1.0 - alpha):
        warnings.warn(
            f"alpha_z with z={z} < max(alpha, 1-alpha)={max(alpha, 1.0 - alpha)}: "
            "nonnegativity is not guaranteed in this parameter region",
            stacklevel=2,
        )
    spectrum = eig_sym(a)
    probe = spectral_pow(spectrum, (1.0 - alpha) / z).entries
    gallery = spectral_pow(spectrum, alpha if z == 1.0 else alpha / (2.0 * z)).entries
    return a.trace, probe, gallery


def _alpha_z_raw(sa: tuple, sb: tuple, alpha: float, z: float) -> float:
    """The divergence before round-off negatives are clamped."""
    (tr_a, a_pow, _), (tr_b, _, b_pow) = sa, sb
    if z == 1.0:
        # tr Q = <A^{1-a}, B^a>_F; the trace of a product of SPD matrices is > 0
        q = float(np.sum(a_pow * b_pow))
        if not (np.isfinite(q) and q > 0.0):
            raise NumericalError(f"alpha_z trace term {q:.6g} is not finite and positive")
    else:
        # eigenvalues of a product that is PSD up to round-off
        inner = b_pow @ a_pow @ b_pow
        lam = eigensolve((inner + inner.T) / 2.0)
        if lam[0] < -1e-8 * (1.0 + (tr_a + tr_b)):
            raise NumericalError(
                f"inner product has eigenvalue {lam[0]:.6g}, far below zero"
            )
        q = float(np.sum(np.clip(lam, 0.0, None) ** z))
    return (1.0 - alpha) * tr_a + alpha * tr_b - q


def _alpha_z_pair(sa: tuple, sb: tuple, alpha: float, z: float) -> float:
    return _clamp_negative(_alpha_z_raw(sa, sb, alpha, z), sa[0] + sb[0])


def alpha_z_bw(a: SpdMatrix, b: SpdMatrix, alpha: float, z: float) -> float:
    """Alpha-z Bures-Wasserstein divergence. Asymmetric in (A, B).

    tr((1-a) A + a B) - tr Q with Q = (B^{a/2z} A^{(1-a)/z} B^{a/2z})^z.
    At z = 1, tr Q is evaluated as the Frobenius inner product
    <A^{1-a}, B^a>_F; for z < 1 it is the sum of the z-th powers of the
    eigenvalues of the inner product. Nonnegativity is guaranteed for
    z >= max(alpha, 1-alpha); outside that region a warning is emitted.
    """
    return _apply(MetricSpec("alpha_z", alpha, z), a, b)


class Kernel(NamedTuple):
    prepare: Callable[..., Any]  # prepare(matrix, **params) -> state, once per matrix
    pair: Callable[..., float]  # pair(state_a, state_b, **params) -> float
    # MetricSpec fields passed to both as keywords, each with its range check
    params: dict[str, Callable[[float | None], None]]
    # pair(a, b) == pair(b, a) mathematically: the sweep computes one direction
    symmetric: bool

    def swaps(self, a: SpdMatrix, b: SpdMatrix) -> bool:
        """Whether (a, b) is evaluated as pair(b, a): a symmetric kernel takes the smaller
        trace first, ties broken by the entries' bytes, so both give the same bits."""
        return self.symmetric and (
            b.trace < a.trace
            or (b.trace == a.trace and b.entries.tobytes() < a.entries.tobytes())
        )


# The one definition of each kernel's name, steps and parameters: MetricSpec
# validation, the CLI's --metric choices, report.json's metric block and the
# sweep all read it, so adding a kernel adds its two steps and one entry here.
KERNELS: dict[str, Kernel] = {
    "alpha_z": Kernel(
        _alpha_z_prepare, _alpha_z_pair, {"alpha": _check_alpha, "z": _check_z}, False
    ),
    "alpha_pro": Kernel(_alpha_pro_prepare, _alpha_pro_pair, {"alpha": _check_alpha}, True),
    "bw": Kernel(lambda a: (a, sym_sqrt(a).entries), _bw_pair, {}, True),
    "ai": Kernel(lambda a: (a.entries, sym_inv_sqrt(a).entries), _ai_pair, {}, True),
    "log": Kernel(sym_log, _frobenius, {}, True),
    "pearson": Kernel(_triangle, _pearson_pair, {}, True),
    "euclid": Kernel(lambda a: a.entries, _frobenius, {}, True),
}


@dataclass(frozen=True)
class MetricSpec:
    """A kernel name from :data:`KERNELS` plus the parameters that kernel takes."""

    kind: str
    alpha: float | None = None
    z: float | None = None

    def __post_init__(self):
        if self.kind not in KERNELS:
            raise UnknownMetric(
                f"unknown metric {self.kind!r}; expected one of {', '.join(KERNELS)}"
            )
        for name, check in KERNELS[self.kind].params.items():
            check(getattr(self, name))

    @property
    def params(self) -> dict[str, float]:
        """The parameters the kernel takes, by field name."""
        return {name: getattr(self, name) for name in KERNELS[self.kind].params}


def dispatch(spec: MetricSpec, a: SpdMatrix, b: SpdMatrix) -> float:
    """Evaluate the kernel selected by ``spec`` on (a, b), oriented by :meth:`Kernel.swaps`."""
    if KERNELS[spec.kind].swaps(a, b):
        a, b = b, a
    return _apply(spec, a, b)
