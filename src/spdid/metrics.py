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
alpha-z Bures-Wasserstein families. alpha_z is a divergence, not a metric, and
asymmetric in (A, B) except at a = 1/2: there, with c = 1/(4z), B^c A^{2c} B^c
and A^c B^{2c} A^c are M^T M and M M^T for M = A^c B^c, so both directions share
tr Q, and the linear term is (tr A + tr B) / 2.

bw (and through it alpha_pro) is evaluated in the trace form above, from the
eigenvalues alone, with a Procrustes-form fallback through an SVD polar factor
where the subtraction would cancel (see :func:`bures_wasserstein`).

Each :data:`KERNELS` entry splits its kernel into a per-matrix ``prepare``
step and a ``pair`` step, and says, as a predicate of its parameters, whether
it is symmetric: always, except alpha_z with a != 1/2. :class:`MetricSpec`
decides that once and binds the entry in :meth:`MetricSpec.prepare` and
:meth:`MetricSpec.evaluate`, which orients a symmetric pair canonically (smaller
trace first, exact ties by the states' bytes), so k(a, b) and k(b, a) are the
same bits and a sweep may transpose one direction into the other.

euclid and log are Frobenius norms, and at z = 1 the alpha_z trace needs no eigensolve:
by cyclicity, tr(B^{a/2} A^{1-a} B^{a/2}) = <A^{1-a}, B^a>_F. Their states keep each
symmetric matrix :func:`_pack`ed into n//2 + 1 rows of n (the strict upper triangle row by
row, zero-padded, then the diagonal); :func:`_packed_inner` sums row dot products without
BLAS, so those cells are the same bits at any BLAS thread count.
"""

from __future__ import annotations

import functools
import math
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
    polar_factor,
    symmetrize,
)
from .matfun import eig_sym, spectrum_map, sym_log, sym_sqrt


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


@functools.cache
def _strict_upper(n: int) -> np.ndarray:
    """The read-only mask of an order-n matrix's strict upper triangle."""
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.flags.writeable = False
    return mask


def _pack(x: np.ndarray) -> np.ndarray:
    """Symmetric x as n//2 + 1 rows of n: strict upper triangle, zero-padded, then diagonal."""
    n = len(x)
    flat = np.zeros((n // 2 + 1) * n)
    flat[: n * (n - 1) // 2], flat[-n:] = x[_strict_upper(n)], np.diagonal(x)
    return flat.reshape(-1, n)


def _packed_inner(x: np.ndarray, y: np.ndarray) -> float:
    """<X, Y>_F from two `_pack`ed arrays: the diagonal row's dot plus twice the triangle
    rows' (doubling is exact), as row dot products that call no BLAS."""
    rows = np.einsum("ij,ij->i", x, y)
    return float(rows[-1] + 2.0 * rows[:-1].sum())


def _frobenius(x: np.ndarray, y: np.ndarray) -> float:
    """||X - Y||_F of `_pack`ed X, Y. Where the squares overflow it is recomputed from the
    difference scaled by the power of two that puts max |d| in [0.5, 1), as `_triangle` does."""
    with np.errstate(over="ignore"):
        d = x - y
        norm = math.sqrt(_packed_inner(d, d))
        if not math.isfinite(norm):
            e = int(np.frexp(np.abs(d).max())[1])
            d = np.ldexp(d, -e)
            norm = float(np.ldexp(math.sqrt(_packed_inner(d, d)), e))
    return norm


def euclid(a: SpdMatrix, b: SpdMatrix) -> float:
    """Frobenius (entrywise Euclidean) distance."""
    return dispatch(MetricSpec("euclid"), a, b)


def _triangle(a: SpdMatrix) -> tuple[np.ndarray, float]:
    """pearson's state: the strict upper triangle, centred, and its norm. The triangle is
    first scaled by the power of two that puts max |x| in [0.5, 1): that is exact, so nothing
    overflows or underflows, and elsewhere the bits are those of the unscaled formula."""
    if a.n < 3:
        raise DegenerateVariance(f"pearson needs order >= 3, got {a.n}")
    x = a.entries[_strict_upper(a.n)]
    x = np.ldexp(x, -np.frexp(np.abs(x).max())[1])
    xc = x - x.mean()
    return xc, float(np.sqrt(xc @ xc))


def _pearson_pair(ta: tuple, tb: tuple) -> float:
    (xc, nx), (yc, ny) = ta, tb
    if nx == 0.0 or ny == 0.0:
        raise DegenerateVariance("strict upper triangle is constant; correlation undefined")
    r = min(1.0, max(-1.0, float(xc @ yc) / (nx * ny)))
    return 1.0 - r


def pearson_dist(a: SpdMatrix, b: SpdMatrix) -> float:
    """One minus the Pearson correlation of the strict upper triangles.

    The diagonal is excluded (self-connections carry no information). Range
    [0, 2]; requires order >= 3 so the triangles have at least two entries.
    """
    return dispatch(MetricSpec("pearson"), a, b)


def log_euclid(a: SpdMatrix, b: SpdMatrix) -> float:
    """Frobenius distance between matrix logarithms."""
    return dispatch(MetricSpec("log"), a, b)


def _ai_prepare(a: SpdMatrix) -> tuple[np.ndarray, np.ndarray, float, float]:
    """ai's state: A, A^{-1/2}, and A's smallest and largest eigenvalues, from one spectrum."""
    lam, vec = eig_sym(a)
    return a.entries, spectrum_map(vec, lam ** -0.5), lam[0], lam[-1]


def _ai_pair(sa: tuple, sb: tuple) -> float:
    (_, isq, _, max_a), (b, _, min_b, _) = sa, sb
    # By congruence, lambda_min(A^{-1/2} B A^{-1/2}) >= lambda_min(B) / lambda_max(A),
    # so the floor only lifts eigenvalues that round-off pushed below that bound.
    lam = np.maximum(eigensolve(symmetrize(isq @ b @ isq)), min_b / max_a)
    return float(np.sqrt(np.sum(np.log(lam) ** 2)))


def affine_invariant(a: SpdMatrix, b: SpdMatrix) -> float:
    """Geodesic distance under the affine-invariant Riemannian metric."""
    return dispatch(MetricSpec("ai"), a, b)


# bw's trace form is trusted while d^2 >= _BW_TRACE_FLOOR * (tr A + tr B);
# below it the subtraction has cancelled too many digits.
_BW_TRACE_FLOOR = 1e-3


def _bw_pair(sa: tuple, sb: tuple) -> float:
    """bw from two states (trace, matrix, square root); alpha_pro's pair too."""
    (tr_a, _, sq_a), (tr_b, b, sq_b) = sa, sb
    scale = tr_a + tr_b
    lam = eigensolve(symmetrize(sq_a @ b @ sq_a))
    d2 = scale - 2.0 * float(np.sum(np.sqrt(np.clip(lam, 0.0, None))))
    if d2 >= _BW_TRACE_FLOOR * scale:
        return float(np.sqrt(d2))
    return float(np.linalg.norm(sq_a - sq_b @ polar_factor(sq_b @ sq_a)))


def bures_wasserstein(a: SpdMatrix, b: SpdMatrix) -> float:
    """Bures-Wasserstein distance (optimal transport between Gaussians).

    Evaluated in the trace form d^2 = tr A + tr B - 2 sum_i sqrt(lambda_i),
    with lambda the eigenvalues of A^{1/2} B A^{1/2} from one eigenvalue-only
    solve (Bhatia, Jain & Lim 2019). That subtraction cancels
    catastrophically near A = B, so when d^2 < _BW_TRACE_FLOOR * (tr A + tr B)
    the distance is recomputed in the equivalent Procrustes form
    ||A^{1/2} - B^{1/2} U||_F, U = P Q^T from the SVD B^{1/2} A^{1/2} = P S Q^T:
    the norm of a difference does not cancel. Swapping A and B gives the
    same bits: :meth:`MetricSpec.evaluate` takes the smaller trace as A.
    """
    return dispatch(MetricSpec("bw"), a, b)


def _alpha_pro_prepare(a: SpdMatrix, alpha: float) -> tuple[float, np.ndarray, np.ndarray]:
    """bw's state of P = A^{2 alpha}: (tr P, P, P^{1/2}), from A's one spectrum."""
    lam, vec = eig_sym(a)
    lam = lam ** (2.0 * alpha)
    power = spectrum_map(vec, lam)
    return float(np.trace(power)), power, spectrum_map(vec, lam ** 0.5)


def _alpha_pro_pair(sa: tuple, sb: tuple, alpha: float) -> float:
    return _bw_pair(sa, sb) / alpha


def alpha_procrustes(a: SpdMatrix, b: SpdMatrix, alpha: float) -> float:
    """Alpha-Procrustes distance: (1/alpha) * bw(A^{2a}, B^{2a}).

    Interpolates between twice the Bures-Wasserstein distance (alpha = 1/2)
    and the log-Euclidean distance (alpha -> 0).
    """
    return dispatch(MetricSpec("alpha_pro", alpha=alpha), a, b)


def _alpha_z_prepare(a: SpdMatrix, alpha: float, z: float) -> tuple[float, np.ndarray, np.ndarray]:
    """(tr A, A^{(1-a)/z}, A^{a/2z}): the powers A takes as the first and as the second
    argument, so one state serves both directions; at z = 1, A^{1-a} and A^a, `_pack`ed."""
    lam, vec = eig_sym(a)
    probe = spectrum_map(vec, lam ** ((1.0 - alpha) / z))
    if z < 1.0:
        return a.trace, probe, spectrum_map(vec, lam ** (alpha / (2.0 * z)))
    return a.trace, _pack(probe), _pack(spectrum_map(vec, lam ** alpha))


def _alpha_z_region(alpha: float, z: float) -> None:
    if z < max(alpha, 1.0 - alpha):
        warnings.warn(
            f"alpha_z with z={z} < max(alpha, 1-alpha)={max(alpha, 1.0 - alpha)}: "
            "nonnegativity is not guaranteed in this parameter region",
            stacklevel=4,  # the line that constructs the MetricSpec
        )


def _alpha_z_raw(sa: tuple, sb: tuple, alpha: float, z: float) -> float:
    """The divergence before round-off negatives are clamped."""
    (tr_a, a_pow, _), (tr_b, _, b_pow) = sa, sb
    if z == 1.0:
        # tr Q = <A^{1-a}, B^a>_F; a trace of a product of SPD matrices is > 0
        q = _packed_inner(a_pow, b_pow)
        if not (np.isfinite(q) and q > 0.0):
            raise NumericalError(f"alpha_z trace term {q:.6g} is not finite and positive")
    else:
        # eigenvalues of a product that is PSD up to round-off
        lam = eigensolve(symmetrize(b_pow @ a_pow @ b_pow))
        if lam[0] < -1e-8 * (1.0 + (tr_a + tr_b)):
            raise NumericalError(
                f"inner product has eigenvalue {lam[0]:.6g}, far below zero"
            )
        q = float(np.sum(np.clip(lam, 0.0, None) ** z))
    return (1.0 - alpha) * tr_a + alpha * tr_b - q


def _alpha_z_pair(sa: tuple, sb: tuple, alpha: float, z: float) -> float:
    return _clamp_negative(_alpha_z_raw(sa, sb, alpha, z), sa[0] + sb[0])


def alpha_z_bw(a: SpdMatrix, b: SpdMatrix, alpha: float, z: float) -> float:
    """Alpha-z Bures-Wasserstein divergence. Asymmetric in (A, B) unless alpha = 1/2.

    tr((1-a) A + a B) - tr Q with Q = (B^{a/2z} A^{(1-a)/z} B^{a/2z})^z.
    At z = 1, tr Q is evaluated as the Frobenius inner product
    <A^{1-a}, B^a>_F; for z < 1 it is the sum of the z-th powers of the
    eigenvalues of the inner product. Nonnegativity is guaranteed for
    z >= max(alpha, 1-alpha); outside that region a warning is emitted.
    """
    return dispatch(MetricSpec("alpha_z", alpha, z), a, b)


class Kernel(NamedTuple):
    prepare: Callable[..., Any]  # prepare(matrix, **params) -> state, once per matrix
    pair: Callable[..., float]  # pair(state_a, state_b, **params) -> float
    # MetricSpec fields passed to both as keywords, each with its range check
    params: dict[str, Callable[[float | None], None]]
    # whether pair(a, b) == pair(b, a) mathematically at these params (MetricSpec.symmetric)
    symmetric: Callable[..., bool] = lambda **params: True
    # warns, once per MetricSpec, where the kernel's guarantees lapse at these params
    warn: Callable[..., None] = lambda **params: None


class Prepared(NamedTuple):
    """One matrix's trace and kernel state: all a sweep reads, and all a loading process returns."""

    trace: float
    state: Any  # the kernel's prepare step's state


# The one definition of each kernel's name, steps and parameters: MetricSpec
# validation, the CLI's --metric choices, report.json's metric block and the
# sweep all read it, so adding a kernel adds its two steps and one entry here.
KERNELS: dict[str, Kernel] = {
    "alpha_z": Kernel(
        _alpha_z_prepare, _alpha_z_pair, {"alpha": _check_alpha, "z": _check_z},
        lambda alpha, z: alpha == 0.5, _alpha_z_region,
    ),
    "alpha_pro": Kernel(_alpha_pro_prepare, _alpha_pro_pair, {"alpha": _check_alpha}),
    "bw": Kernel(lambda a: (a.trace, a.entries, sym_sqrt(a).entries), _bw_pair, {}),
    "ai": Kernel(_ai_prepare, _ai_pair, {}),
    "log": Kernel(lambda a: _pack(sym_log(a)), _frobenius, {}),
    "pearson": Kernel(_triangle, _pearson_pair, {}),
    "euclid": Kernel(lambda a: _pack(a.entries), _frobenius, {}),
}


def _state_bytes(item: Prepared) -> bytes:  # an array state's parts are its rows
    return b"".join(np.asarray(x).tobytes() for x in item.state)


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
        KERNELS[self.kind].warn(**self.params)

    @functools.cached_property
    def params(self) -> dict[str, float]:
        """The parameters the kernel takes, by field name."""
        return {name: getattr(self, name) for name in KERNELS[self.kind].params}

    @functools.cached_property
    def symmetric(self) -> bool:
        """The kernel's symmetry at these parameters, decided once for every reader."""
        return KERNELS[self.kind].symmetric(**self.params)

    def prepare(self, m: SpdMatrix) -> Prepared:
        """m's trace and the kernel's state of m; this and evaluate read KERNELS per call."""
        return Prepared(m.trace, KERNELS[self.kind].prepare(m, **self.params))

    def evaluate(self, a: Prepared, b: Prepared) -> float:
        """The kernel's pair step on two items. If :attr:`symmetric`, the smaller trace goes
        first, an exact tie by the states' bytes, so (a, b) and (b, a) give the same bits."""
        if self.symmetric and (
            b.trace < a.trace or (b.trace == a.trace and _state_bytes(b) < _state_bytes(a))
        ):
            a, b = b, a
        value = KERNELS[self.kind].pair(a.state, b.state, **self.params)
        if not math.isfinite(value):
            raise NumericalError(f"distance value {value} is not finite")
        return value


def dispatch(spec: MetricSpec, a: SpdMatrix, b: SpdMatrix) -> float:
    """The kernel of ``spec`` on (a, b), each prepared afresh, via :meth:`MetricSpec.evaluate`."""
    if a.n != b.n:
        raise DimensionMismatch(f"matrix orders differ: {a.n} vs {b.n}")
    return spec.evaluate(spec.prepare(a), spec.prepare(b))
