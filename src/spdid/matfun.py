"""Matrix functions on SPD matrices via symmetric eigendecomposition.

Every function here is a spectral map V diag(f(lambda)) V^T, with the output
forcibly symmetrized so asymmetry of order machine epsilon cannot accumulate
through metric pipelines. Nothing is cached: each call solves afresh, and a
caller that needs several functions of one matrix takes its spectrum once
with :func:`eig_sym` and maps it with :func:`spectral_pow` (as the kernels'
``prepare`` steps in :mod:`spdid.metrics` do).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import SpdMatrix, eigensolve


class Spectrum(NamedTuple):
    """Eigenvalues (ascending) and orthonormal eigenvectors of an SPD matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so the first nonzero component is positive."""
    out = vectors.copy()
    first = np.argmax(out != 0, axis=0)  # 0 for an all-zero column, never flipped
    flip = out[first, np.arange(out.shape[1])] < 0
    out[:, flip] = -out[:, flip]
    return out


def eig_sym(a: SpdMatrix) -> Spectrum:
    """Eigendecomposition of a validated SPD matrix.

    Eigenvalues come out ascending; each eigenvector's first nonzero component
    is positive, so results are reproducible run to run on one platform.
    """
    lam, vec = eigensolve(a.entries, vectors=True)
    return Spectrum(lam, _fix_signs(vec))


def spectrum_map(vectors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """V diag(values) V^T, exactly symmetrized."""
    m = (vectors * values) @ vectors.T
    return (m + m.T) / 2.0


def spectral_pow(spectrum: Spectrum, p: float) -> SpdMatrix:
    """A^p from the spectrum of A."""
    lam = spectrum.eigenvalues ** float(p)
    # x^p reverses the ascending eigenvalue order for negative p
    return SpdMatrix(spectrum_map(spectrum.eigenvectors, lam), lam[0] if p >= 0 else lam[-1])


def sym_pow(a: SpdMatrix, p: float) -> SpdMatrix:
    """Fractional matrix power A^p."""
    return spectral_pow(eig_sym(a), p)


def sym_sqrt(a: SpdMatrix) -> SpdMatrix:
    return sym_pow(a, 0.5)


def sym_inv_sqrt(a: SpdMatrix) -> SpdMatrix:
    return sym_pow(a, -0.5)


def sym_log(a: SpdMatrix) -> np.ndarray:
    """Matrix logarithm; symmetric but generally indefinite."""
    lam, vec = eig_sym(a)
    return spectrum_map(vec, np.log(lam))
