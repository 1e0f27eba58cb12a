import numpy as np
import pytest

from balimpute.linalg import eig_sym, spectral_norm


def random_symmetric(rng, p):
    m = rng.standard_normal((p, p))
    return (m + m.T) / 2


def test_eig_frozen_pair():
    dec = eig_sym(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert dec.eigenvalues == pytest.approx([3.0, 1.0], abs=1e-12)
    # eigenvector of 3 is (1,1)/sqrt(2) up to sign
    v = dec.eigenvectors[:, 0]
    assert abs(v[0]) == pytest.approx(abs(v[1]), abs=1e-12)


def test_eig_reconstruction_and_orthonormality():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(1, 7))
        a = random_symmetric(rng, p)
        dec = eig_sym(a)
        assert np.all(np.diff(dec.eigenvalues) <= 1e-12), "eigenvalues must descend"
        recon = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
        assert np.max(np.abs(recon - a)) < 1e-9
        gram = dec.eigenvectors.T @ dec.eigenvectors
        assert np.max(np.abs(gram - np.eye(p))) < 1e-10


def test_eig_rejects_bad_input():
    with pytest.raises(ValueError):
        eig_sym(np.ones((2, 3)))
    with pytest.raises(ValueError):
        eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        eig_sym(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_spectral_norm_matches_eigenvalues():
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        a = random_symmetric(rng, int(rng.integers(1, 6)))
        nrm = spectral_norm(a)
        assert nrm == pytest.approx(np.max(np.abs(np.linalg.eigvalsh(a))), rel=1e-10)
        x = rng.standard_normal(a.shape[0])
        assert np.linalg.norm(a @ x) <= nrm * np.linalg.norm(x) + 1e-9
