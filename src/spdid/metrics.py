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

At z = 1 the alpha_z trace needs no eigensolve: by cyclicity,
tr(B^{a/2} A^{1-a} B^{a/2}) = tr(A^{1-a} B^a) = <A^{1-a}, B^a>_F, an O(n^2)
entrywise product of two powers that are cached once per matrix.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

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
from .matfun import sym_inv_sqrt, sym_log, sym_pow, sym_sqrt


def _same_order(a: SpdMatrix, b: SpdMatrix) -> None:
    if a.n != b.n:
        raise DimensionMismatch(f"matrix orders differ: {a.n} vs {b.n}")


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


def euclid(a: SpdMatrix, b: SpdMatrix) -> float:
    """Frobenius (entrywise Euclidean) distance."""
    _same_order(a, b)
    return float(np.linalg.norm(a.entries - b.entries))


@functools.lru_cache(maxsize=None)
def _upper_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only strict-upper-triangle indices of order n, built once per order."""
    iu = np.triu_indices(n, k=1)
    for ix in iu:
        ix.setflags(write=False)
    return iu


def pearson_dist(a: SpdMatrix, b: SpdMatrix) -> float:
    """One minus the Pearson correlation of the strict upper triangles.

    The diagonal is excluded (self-connections carry no information). Range
    [0, 2]; requires order >= 3 so the triangles have at least two entries.
    """
    _same_order(a, b)
    if a.n < 3:
        raise DegenerateVariance(f"pearson needs order >= 3, got {a.n}")
    iu = _upper_indices(a.n)
    x = a.entries[iu]
    y = b.entries[iu]
    xc, nx = _centred(x)
    yc, ny = _centred(y)
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


def _centred(x: np.ndarray) -> tuple[np.ndarray, float]:
    xc = x - x.mean()
    return xc, float(np.sqrt(xc @ xc))


def log_euclid(a: SpdMatrix, b: SpdMatrix) -> float:
    """Frobenius distance between matrix logarithms."""
    _same_order(a, b)
    return float(np.linalg.norm(sym_log(a) - sym_log(b)))


def affine_invariant(a: SpdMatrix, b: SpdMatrix) -> float:
    """Geodesic distance under the affine-invariant Riemannian metric."""
    _same_order(a, b)
    isq = sym_inv_sqrt(a).entries
    inner = isq @ b.entries @ isq
    lam = eigensolve((inner + inner.T) / 2.0)
    if lam[0] <= 0.0:
        raise NumericalError(
            f"whitened product lost positive definiteness (eigenvalue {lam[0]:.6g})"
        )
    return float(np.sqrt(np.sum(np.log(lam) ** 2)))


def bures_wasserstein(a: SpdMatrix, b: SpdMatrix) -> float:
    """Bures-Wasserstein distance (optimal transport between Gaussians).

    Defined as sqrt(tr A + tr B - 2 tr (A^{1/2} B A^{1/2})^{1/2}), but
    evaluated in the equivalent Procrustes form ||A^{1/2} - B^{1/2} U||_F
    with U the polar factor of B^{1/2} A^{1/2}: the trace subtraction
    cancels catastrophically near A = B, the norm of a difference does not.
    """
    _same_order(a, b)
    sq_a = sym_sqrt(a).entries
    sq_b = sym_sqrt(b).entries
    inner = sq_a @ b.entries @ sq_a
    lam, vec = eigensolve((inner + inner.T) / 2.0, vectors=True)
    # By congruence, lambda_min(sqrt(A) B sqrt(A)) >= lambda_min(A) *
    # lambda_min(B) > 0 for validated SPD inputs, so flooring only repairs
    # eigensolver round-off and keeps lambda^(-1/2) finite.
    lam = np.maximum(lam, a.min_eigenvalue * b.min_eigenvalue)
    # polar factor U of M = sqrt(B) sqrt(A), via M (M^T M)^{-1/2}
    u = ((sq_b @ sq_a) @ (vec * lam**-0.5)) @ vec.T
    return float(np.linalg.norm(sq_a - sq_b @ u))


def alpha_procrustes(a: SpdMatrix, b: SpdMatrix, alpha: float) -> float:
    """Alpha-Procrustes distance: (1/alpha) * bw(A^{2a}, B^{2a}).

    Interpolates between twice the Bures-Wasserstein distance (alpha = 1/2)
    and the log-Euclidean distance (alpha -> 0).
    """
    _check_alpha(alpha)
    _same_order(a, b)
    return bures_wasserstein(sym_pow(a, 2.0 * alpha), sym_pow(b, 2.0 * alpha)) / alpha


def _alpha_z_raw(a: SpdMatrix, b: SpdMatrix, alpha: float, z: float) -> float:
    if z == 1.0:
        # tr Q = <A^{1-a}, B^a>_F; the trace of a product of SPD matrices is > 0
        q = float(np.sum(sym_pow(a, 1.0 - alpha).entries * sym_pow(b, alpha).entries))
        if not (np.isfinite(q) and q > 0.0):
            raise NumericalError(f"alpha_z trace term {q:.6g} is not finite and positive")
    else:
        ap = sym_pow(a, (1.0 - alpha) / z).entries
        bp = sym_pow(b, alpha / (2.0 * z)).entries
        # eigenvalues of a product that is PSD up to round-off
        inner = bp @ ap @ bp
        lam = eigensolve((inner + inner.T) / 2.0)
        if lam[0] < -1e-8 * (1.0 + (a.trace + b.trace)):
            raise NumericalError(
                f"inner product has eigenvalue {lam[0]:.6g}, far below zero"
            )
        q = float(np.sum(np.clip(lam, 0.0, None) ** z))
    return (1.0 - alpha) * a.trace + alpha * b.trace - q


def alpha_z_bw(a: SpdMatrix, b: SpdMatrix, alpha: float, z: float) -> float:
    """Alpha-z Bures-Wasserstein divergence. Asymmetric in (A, B).

    tr((1-a) A + a B) - tr Q with Q = (B^{a/2z} A^{(1-a)/z} B^{a/2z})^z.
    At z = 1, tr Q is evaluated as the Frobenius inner product
    <A^{1-a}, B^a>_F; for z < 1 it is the sum of the z-th powers of the
    eigenvalues of the inner product. Nonnegativity is guaranteed for
    z >= max(alpha, 1-alpha); outside that region a warning is emitted.
    """
    _check_alpha(alpha)
    _check_z(z)
    if z < max(alpha, 1.0 - alpha):
        warnings.warn(
            f"alpha_z with z={z} < max(alpha, 1-alpha)={max(alpha, 1.0 - alpha)}: "
            "nonnegativity is not guaranteed in this parameter region",
            stacklevel=2,
        )
    _same_order(a, b)
    return _clamp_negative(_alpha_z_raw(a, b, alpha, z), a.trace + b.trace)


class Kernel(NamedTuple):
    fn: Callable[..., float]
    # MetricSpec fields passed to fn as keywords, each with its range check
    params: dict[str, Callable[[float | None], None]]


# The one definition of each kernel's name, function and parameters: MetricSpec
# validation, the CLI's --metric choices, report.json's metric block and the
# sweep all read it, so adding a kernel adds one function and one entry here.
KERNELS: dict[str, Kernel] = {
    "alpha_z": Kernel(alpha_z_bw, {"alpha": _check_alpha, "z": _check_z}),
    "alpha_pro": Kernel(alpha_procrustes, {"alpha": _check_alpha}),
    "bw": Kernel(bures_wasserstein, {}),
    "ai": Kernel(affine_invariant, {}),
    "log": Kernel(log_euclid, {}),
    "pearson": Kernel(pearson_dist, {}),
    "euclid": Kernel(euclid, {}),
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

    def kernel(self) -> Callable[[SpdMatrix, SpdMatrix], float]:
        """The kernel as a function of the pair (a, b), its parameters bound."""
        return functools.partial(KERNELS[self.kind].fn, **self.params)


def dispatch(spec: MetricSpec, a: SpdMatrix, b: SpdMatrix) -> float:
    """Evaluate the kernel selected by ``spec`` on the pair (a, b)."""
    return spec.kernel()(a, b)
