"""Matrix functions on SPD matrices via symmetric eigendecomposition.

Every function here is a spectral map V diag(f(lambda)) V^T computed from one
cached eigendecomposition per matrix, with the output forcibly symmetrized so
asymmetry of order machine epsilon cannot accumulate through metric pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SpdMatrix, eigensolve


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (ascending) and orthonormal eigenvectors of an SPD matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so the first nonzero component is positive."""
    out = vectors.copy()
    first = np.argmax(out != 0, axis=0)  # 0 for an all-zero column, never flipped
    flip = out[first, np.arange(out.shape[1])] < 0
    out[:, flip] = -out[:, flip]
    return out


def eig_sym(a: SpdMatrix) -> Spectrum:
    """Eigendecomposition of a validated SPD matrix, cached on the matrix.

    Eigenvalues come out ascending; each eigenvector's first nonzero component
    is positive, so results are reproducible run to run on one platform.
    """
    if a._spectrum is None:
        lam, vec = eigensolve(a.entries, vectors=True)
        vec = _fix_signs(vec)
        lam.setflags(write=False)
        vec.setflags(write=False)
        a._spectrum = Spectrum(lam, vec)
    return a._spectrum


def spectrum_map(spectrum: Spectrum, values: np.ndarray) -> np.ndarray:
    """V diag(values) V^T, exactly symmetrized."""
    v = spectrum.eigenvectors
    m = (v * values) @ v.T
    return (m + m.T) / 2.0


def sym_pow(a: SpdMatrix, p: float) -> SpdMatrix:
    """Fractional matrix power A^p, cached per exponent on the input matrix."""
    p = float(p)
    cached = a._pow_cache.get(p)
    if cached is None:
        spectrum = eig_sym(a)
        lam = spectrum.eigenvalues ** p
        entries = spectrum_map(spectrum, lam)
        if p >= 0:
            lam_sorted, vec_sorted = lam, spectrum.eigenvectors
        else:
            # x^p reverses the eigenvalue order for negative p
            lam_sorted = lam[::-1].copy()
            vec_sorted = spectrum.eigenvectors[:, ::-1].copy()
        lam_sorted.setflags(write=False)
        vec_sorted.setflags(write=False)
        cached = SpdMatrix(entries, float(lam_sorted[0]), Spectrum(lam_sorted, vec_sorted))
        a._pow_cache[p] = cached
    return cached


def sym_sqrt(a: SpdMatrix) -> SpdMatrix:
    return sym_pow(a, 0.5)


def sym_inv_sqrt(a: SpdMatrix) -> SpdMatrix:
    return sym_pow(a, -0.5)


def sym_log(a: SpdMatrix) -> np.ndarray:
    """Matrix logarithm; symmetric but generally indefinite. Cached."""
    if a._log_entries is None:
        spectrum = eig_sym(a)
        m = spectrum_map(spectrum, np.log(spectrum.eigenvalues))
        m.setflags(write=False)
        a._log_entries = m
    return a._log_entries
