"""Eigen-decomposition behind the regularized fit (regression._clip_eigenvalues).

The inputs are PSD (b b'), because the PSD check runs in the same function.
"""

import numpy as np
import pytest

from balimpute.regression import _clip_eigenvalues

FLOOR = 1e-3


def random_psd(rng, p):
    b = rng.standard_normal((p, p))
    return b @ b.T


def test_eig_frozen_pair():
    vals, u, _ = _clip_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]), FLOOR)
    assert vals == pytest.approx([3.0, 1.0], abs=1e-12)
    # eigenvector of 3 is (1,1)/sqrt(2) up to sign
    assert abs(u[0, 0]) == pytest.approx(abs(u[1, 0]), abs=1e-12)


def test_eig_reconstruction_and_orthonormality():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(1, 7))
        g = random_psd(rng, p)
        vals, u, clipped = _clip_eigenvalues(g, FLOOR)
        assert np.all(np.diff(vals) <= 1e-12), "eigenvalues must descend"
        assert np.max(np.abs((u * vals) @ u.T - g)) < 1e-9
        assert np.max(np.abs(u.T @ u - np.eye(p))) < 1e-10
        assert np.array_equal(clipped, np.maximum(vals, FLOOR))


def test_eig_rejects_bad_input():
    with pytest.raises(ValueError, match="square"):
        _clip_eigenvalues(np.ones((2, 3)), FLOOR)
    with pytest.raises(ValueError, match="symmetric"):
        _clip_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]), FLOOR)
    with pytest.raises(ValueError, match="non-finite"):
        _clip_eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]), FLOOR)
