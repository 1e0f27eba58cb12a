"""Symmetric eigen-decomposition.

The regularized regression fit needs eigenvalue clipping of a symmetric
moment matrix.  Everything returns plain ndarrays.
"""

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in descending order; eigenvectors as matching columns."""

    eigenvalues: npt.NDArray[np.float64]
    eigenvectors: npt.NDArray[np.float64]


def _as_checked_symmetric(m: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    scale = np.abs(m).max()
    tol = SYMMETRY_RTOL * max(scale, 1.0)
    if np.abs(m - m.T).max() > tol:
        raise ValueError("matrix is not symmetric within tolerance")
    return m


def eig_sym(m: npt.NDArray[np.float64]) -> EigenDecomposition:
    """Full eigen-decomposition of a symmetric matrix, eigenvalues descending."""
    m = _as_checked_symmetric(m)
    vals, vecs = np.linalg.eigh(m)
    order = np.arange(vals.shape[0] - 1, -1, -1)
    return EigenDecomposition(vals[order].copy(), vecs[:, order].copy())


def spectral_norm(m: npt.NDArray[np.float64]) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    m = _as_checked_symmetric(m)
    if m.shape[0] == 0:
        return 0.0
    return float(np.abs(np.linalg.eigvalsh(m)).max())
