"""Matrix functions on SPD matrices via symmetric eigendecomposition.

Every function here is a spectral map V diag(f(lambda)) V^T, with the output
forcibly symmetrized (by :func:`spdid.core.symmetrize`) so asymmetry of order
machine epsilon cannot accumulate through metric pipelines. Nothing is cached:
each call solves afresh, and a caller that needs several functions of one
matrix takes its spectrum once with :func:`eig_sym` and maps it with
:func:`spectrum_map` (as the kernels' ``prepare`` steps in :mod:`spdid.metrics` do).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import SpdMatrix, eigensolve, symmetrize


class Spectrum(NamedTuple):
    """Eigenvalues (ascending) and orthonormal eigenvectors of an SPD matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_sym(a: SpdMatrix) -> Spectrum:
    """Eigendecomposition of a validated SPD matrix, eigenvalues ascending."""
    return Spectrum(*eigensolve(a.entries, vectors=True))


def spectrum_map(vectors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """V diag(values) V^T, exactly symmetrized by :func:`spdid.core.symmetrize`; the
    same bits whatever sign each column of V carries, since (-x)(-y) = xy exactly."""
    return symmetrize((vectors * values) @ vectors.T)


def sym_pow(a: SpdMatrix, p: float) -> SpdMatrix:
    """Fractional matrix power A^p."""
    lam, vec = eig_sym(a)
    lam = lam ** float(p)
    # x^p reverses the ascending eigenvalue order for negative p
    return SpdMatrix(spectrum_map(vec, lam), lam[0] if p >= 0 else lam[-1])


def sym_sqrt(a: SpdMatrix) -> SpdMatrix:
    return sym_pow(a, 0.5)


def sym_inv_sqrt(a: SpdMatrix) -> SpdMatrix:
    return sym_pow(a, -0.5)


def sym_log(a: SpdMatrix) -> np.ndarray:
    """Matrix logarithm; symmetric but generally indefinite."""
    lam, vec = eig_sym(a)
    return spectrum_map(vec, np.log(lam))
