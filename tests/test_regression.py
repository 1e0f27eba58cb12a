import numpy as np
import pytest

from balimpute.population import load_thompson_example
from balimpute.regression import (
    ModelSpec,
    _clip_eigenvalues,
    default_floor,
    fit_model,
)

def regularize(g, a):
    """Oracle of the fit's G_ar: g with its eigenvalues clipped from below
    at a > 0."""
    _, u, clipped = _clip_eigenvalues(g, a)
    return (u * clipped) @ u.T


def thompson_fit(**kw):
    th = load_thompson_example()
    spec = ModelSpec(**kw) if kw else ModelSpec()
    return th, fit_model(th.z1[:, None], th.y, th.z1, th.respond,
                         th.n_population, spec=spec)


def test_ratio_model_reduces_to_ratio():
    # one column, v = z, constant weights: the fit is sum(y)/sum(z) over
    # respondents, provided no eigenvalue is clipped
    th, fit = thompson_fit()
    assert fit.beta[0] == pytest.approx(33.9 / 35.9, rel=1e-12)
    assert f"{fit.beta[0]:.2f}" == "0.94"


def test_thompson_residuals_match_reference():
    th, fit = thompson_fit()
    expected = np.array([0.30, 0.93, -0.14, 0.69, 0.15, -0.89])
    assert np.all(np.abs(fit.residuals[:6] - expected) < 0.01)
    assert np.all(np.isnan(fit.residuals[6:]))
    assert fit.ebar_r == pytest.approx(0.1728, abs=5e-4)


def test_donation_weights_normalized():
    th, fit = thompson_fit()
    assert fit.omega_tilde[:6].sum() == pytest.approx(1.0, rel=1e-12)
    assert np.all(fit.omega_tilde[6:] == 0.0)
    assert np.all(fit.omega_tilde[:6] == pytest.approx(1 / 6, rel=1e-12))


def test_exact_linear_data_zero_residuals():
    rng = np.random.default_rng(8)
    z1 = rng.uniform(1, 5, size=40)
    y = 2.0 * z1
    respond = rng.random(40) < 0.7
    fit = fit_model(z1[:, None], y, z1, respond, 500)
    assert fit.beta[0] == pytest.approx(2.0, rel=1e-10)
    assert np.max(np.abs(fit.residuals[respond])) < 1e-10


def test_normal_equation_holds_with_weights():
    for seed in range(15):
        rng = np.random.default_rng(700 + seed)
        n, k = 30, 2
        z = np.column_stack([np.ones(n), rng.uniform(1, 4, n)])
        y = z @ np.array([1.0, 3.0]) + rng.standard_normal(n)
        v = rng.uniform(0.5, 2.0, n)
        omega = rng.uniform(0.5, 3.0, n)
        respond = rng.random(n) < 0.8
        if respond.sum() < 3:
            continue
        fit = fit_model(z, y, v, respond, 200, spec=ModelSpec(omega=omega, a=1e-10))
        # weighted normal equations at the unclipped solution
        resid = y - z @ fit.beta
        score = (omega[respond] / v[respond] * resid[respond]) @ z[respond]
        assert np.max(np.abs(score)) < 1e-8 * max(1.0, np.abs(y).max())


def test_omega_changes_fit():
    rng = np.random.default_rng(44)
    z1 = rng.uniform(1, 5, 20)
    y = z1 + rng.standard_normal(20)
    respond = np.ones(20, dtype=bool)
    base = fit_model(z1[:, None], y, z1, respond, 100)
    skew = fit_model(z1[:, None], y, z1, respond, 100,
                     spec=ModelSpec(omega=np.linspace(1, 5, 20)))
    assert base.beta[0] != skew.beta[0]


def test_regularize_no_clip_identity():
    g = np.array([[2.0, 0.3], [0.3, 1.0]])
    out = regularize(g, 0.1)
    assert np.max(np.abs(out - g)) < 1e-10


def test_regularize_diagonal_clip():
    out = regularize(np.diag([2.0, 0.001]), 0.5)
    assert np.allclose(out, np.diag([2.0, 0.5]), atol=1e-12)


def test_regularized_inverse_norm_bound():
    for seed in range(50):
        rng = np.random.default_rng(800 + seed)
        k = int(rng.integers(1, 5))
        b = rng.standard_normal((k, k))
        g = b @ b.T
        a = float(rng.uniform(0.01, 1.0))
        g_a = regularize(g, a)
        assert np.linalg.norm(np.linalg.inv(g_a), 2) <= 1 / a + 1e-10


def test_default_floor_value():
    g = np.diag([2.0, 6.0])
    assert default_floor(g) == pytest.approx(0.01 * 8.0 / 2, rel=1e-14)


def test_floor_reduces_condition_number():
    g = np.diag([4.0, 1e-8])
    g_a = regularize(g, 0.5)
    cond = np.linalg.cond(g_a)
    assert cond <= 4 / 0.5 + 1e-9 < np.linalg.cond(g)


def test_fit_validation():
    z1 = np.array([1.0, 2.0])
    with pytest.raises(ValueError):
        fit_model(z1[:, None], np.array([1.0, 2.0]), np.array([1.0, 0.0]),
                  np.array([True, True]), 10)
    with pytest.raises(ValueError):
        fit_model(z1[:, None], np.array([1.0, 2.0]), np.array([1.0, 1.0]),
                  np.array([False, False]), 10)
    for a in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="floor"):
            fit_model(z1[:, None], np.array([1.0, 2.0]), np.array([1.0, 1.0]),
                      np.array([True, True]), 10, spec=ModelSpec(a=a))


@pytest.mark.parametrize("array, unit, value", [
    ("z", 0, np.nan), ("z", 0, np.inf), ("v", 0, np.nan), ("v", 0, np.inf),
    ("z", 3, np.nan),  # unit 3 is a nonrespondent
], ids=["z_nan_respondent", "z_inf_respondent", "v_nan_respondent", "v_inf_respondent",
        "z_nan_nonrespondent"])
def test_fit_rejects_non_finite_z_or_v(array, unit, value):
    z1 = np.array([1.0, 2.0, 3.0, 4.0])
    arrays = {"z": z1.copy(), "v": z1.copy()}
    arrays[array][unit] = value
    with pytest.raises(ValueError, match=f"{array} must be finite"):
        fit_model(arrays["z"][:, None], np.array([1.0, 2.5, 2.0, np.nan]), arrays["v"],
                  np.array([True, True, True, False]), 10)


def test_report_dict_shape():
    th, fit = thompson_fit()
    rep = fit.report_dict()
    assert rep["respondents"] == [0, 1, 2, 3, 4, 5]
    assert len(rep["residuals"]) == 6
    assert rep["beta"] == [fit.beta[0]]
    assert rep["residual_mean"] == pytest.approx(fit.ebar_r)


# the eigen-decomposition behind the regularized fit; its inputs are PSD
# (b b'), because the PSD check runs in the same function

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
