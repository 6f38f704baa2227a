"""Matrix functions on SPD matrices via symmetric eigendecomposition.

Every function here is a spectral map V diag(f(lambda)) V^T computed from one
cached eigendecomposition per matrix, with the output forcibly symmetrized so
asymmetry of order machine epsilon cannot accumulate through metric pipelines.

Only this module reads or writes a matrix's ``_cache`` dict: its "spectrum", its
"log" and each power ("pow", p), an SpdMatrix that carries its own spectrum.
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
    spectrum = a._cache.get("spectrum")
    if spectrum is None:
        lam, vec = eigensolve(a.entries, vectors=True)
        vec = _fix_signs(vec)
        lam.setflags(write=False)
        vec.setflags(write=False)
        spectrum = a._cache["spectrum"] = Spectrum(lam, vec)
    return spectrum


def spectrum_map(vectors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """V diag(values) V^T, exactly symmetrized."""
    m = (vectors * values) @ vectors.T
    return (m + m.T) / 2.0


def sym_pow(a: SpdMatrix, p: float) -> SpdMatrix:
    """Fractional matrix power A^p, cached per exponent on the input matrix."""
    p = float(p)
    cached = a._cache.get(("pow", p))
    if cached is None:
        spectrum = eig_sym(a)
        lam = spectrum.eigenvalues ** p
        entries = spectrum_map(spectrum.eigenvectors, lam)
        if p >= 0:
            lam_sorted, vec_sorted = lam, spectrum.eigenvectors
        else:
            # x^p reverses the eigenvalue order for negative p
            lam_sorted = lam[::-1].copy()
            vec_sorted = spectrum.eigenvectors[:, ::-1].copy()
        lam_sorted.setflags(write=False)
        vec_sorted.setflags(write=False)
        cached = SpdMatrix(entries, float(lam_sorted[0]))
        cached._cache["spectrum"] = Spectrum(lam_sorted, vec_sorted)
        a._cache[("pow", p)] = cached
    return cached


def sym_sqrt(a: SpdMatrix) -> SpdMatrix:
    return sym_pow(a, 0.5)


def sym_inv_sqrt(a: SpdMatrix) -> SpdMatrix:
    return sym_pow(a, -0.5)


def sym_log(a: SpdMatrix) -> np.ndarray:
    """Matrix logarithm; symmetric but generally indefinite. Cached."""
    log = a._cache.get("log")
    if log is None:
        spectrum = eig_sym(a)
        log = spectrum_map(spectrum.eigenvectors, np.log(spectrum.eigenvalues))
        log.setflags(write=False)
        a._cache["log"] = log
    return log
