import numpy as np
import pytest

from balimpute.estimators import (
    fhat,
    ht_total,
    imputed_total,
    nhat,
    population_truths,
)
from balimpute.imputation import impute_dri
from balimpute.population import PopulationRecipe, generate_population
from balimpute.regression import fit_model
from balimpute.sampling import RejectiveDesign, pips_probabilities, rejective_sample, srswor


def fn_population(y, t):
    """Oracle of population_truths: the finite-population distribution
    function F_N(t) = mean 1(y <= t), at each t."""
    t_arr = np.asarray(t, dtype=np.float64)
    out = (y[None, :] <= t_arr.reshape(-1, 1)).mean(axis=1)
    return float(out[0]) if t_arr.ndim == 0 else out


def quantile(y, alpha):
    """Oracle of population_truths: the smallest population value with
    F_N >= alpha."""
    ys = np.sort(y)
    return float(ys[max(int(np.ceil(alpha * ys.size)) - 1, 0)])


def test_ht_total_small():
    d = np.array([2.0, 4.0])
    y = np.array([3.0, 1.0])
    assert ht_total(d, y) == 10.0
    assert nhat(d) == 6.0


def test_fn_population_step_values():
    y = np.array([1.0, 2.0, 2.0, 5.0])
    assert fn_population(y, 0.0) == 0.0
    assert fn_population(y, 1.0) == 0.25
    assert fn_population(y, 2.0) == 0.75
    assert fn_population(y, 10.0) == 1.0
    np.testing.assert_array_equal(fn_population(y, np.array([1.0, 2.0])),
                                  [0.25, 0.75])


def test_quantile_left_continuous():
    y = np.array([3.0, 1.0, 2.0])
    assert quantile(y, 0.5) == 2.0
    assert quantile(y, 1.0) == 3.0
    # alpha * N integral: the distribution function hits alpha exactly
    y10 = np.arange(1.0, 11.0)
    t = quantile(y10, 0.3)
    assert t == 3.0
    assert fn_population(y10, t) == 0.3


def test_quantile_validation():
    for alpha in (0.0, 1.1):
        with pytest.raises(ValueError, match="alpha"):
            population_truths(np.array([1.0]), (alpha,))
    with pytest.raises(ValueError, match="empty"):
        population_truths(np.array([]), (0.5,))


def test_population_truths_match_quantile_and_fn():
    alphas = (0.25, 0.5, 0.3, 1.0, 1e-9)
    y_tied = np.repeat(np.arange(1.0, 11.0), 3)  # the truths sit on ties
    y_gamma = np.random.default_rng(8).gamma(2.0, 5.0, size=10_001)
    for y in (y_tied, y_gamma):
        t_alpha, theta_f = population_truths(y, alphas)
        assert t_alpha == tuple(quantile(y, a) for a in alphas)
        assert theta_f == tuple(float(fn_population(y, t)) for t in t_alpha)
    assert population_truths(y_tied, ()) == ((), ())
    with pytest.raises(ValueError):
        population_truths(y_tied, (0.0,))


def test_fhat_census_matches_fn():
    y = np.array([4.0, 1.0, 3.0, 2.0])
    d = np.ones(4)
    ts = np.array([0.5, 2.0, 3.5, 4.0])
    np.testing.assert_allclose(fhat(d, y, ts), fn_population(y, ts), atol=1e-15)


def test_fhat_is_hajek_weighted():
    d = np.array([1.0, 3.0])
    y = np.array([1.0, 5.0])
    assert fhat(d, y, 1.0) == pytest.approx(0.25)


def test_ht_unbiased_under_srswor():
    rng = np.random.default_rng(21)
    y = rng.uniform(0, 10, size=30)
    t = y.sum()
    reps = 4000
    est = np.empty(reps)
    for i in range(reps):
        s = srswor(30, 8, rng)
        est[i] = ht_total(s.d, y[s.indices])
    se = est.std(ddof=1) / np.sqrt(reps)
    assert abs(est.mean() - t) < 4 * se


def test_ht_unbiased_under_rejective():
    rng = np.random.default_rng(22)
    z = rng.uniform(1, 6, size=25)
    y = 2 * z + rng.standard_normal(25)
    t = y.sum()
    design = RejectiveDesign(pips_probabilities(z, 6))
    reps = 4000
    est = np.empty(reps)
    for i in range(reps):
        s = rejective_sample(design, rng)
        est[i] = ht_total(s.d, y[s.indices])
    se = est.std(ddof=1) / np.sqrt(reps)
    assert abs(est.mean() - t) < 4 * se


def test_total_mse_shrinks_at_root_n_rate():
    # mean square error of the scaled total behaves like 1/n: quadrupling n
    # should cut it by roughly four
    recipe = PopulationRecipe(n_units=4000, beta=(1.0,), target_r2=0.36)
    pop = generate_population(recipe, np.random.default_rng(5))
    t = pop.y.sum()
    rng = np.random.default_rng(6)
    mses = []
    for n in (25, 100):
        est = np.empty(2000)
        for i in range(2000):
            s = srswor(pop.size, n, rng)
            est[i] = ht_total(s.d, pop.y[s.indices])
        mses.append(np.mean(((est - t) / pop.size) ** 2))
    ratio = mses[0] / mses[1]
    assert 2.2 < ratio < 7.0, ratio


def test_imputed_total_consistency():
    rng = np.random.default_rng(30)
    z1 = rng.uniform(1, 5, 12)
    y = z1 + rng.standard_normal(12)
    respond = np.array([True] * 8 + [False] * 4)
    y = np.where(respond, y, np.nan)
    fit = fit_model(z1[:, None], y, z1, respond, 60)
    ds = impute_dri(fit, z1[:, None], y, z1)
    d = np.full(12, 5.0)
    assert imputed_total(ds, d) == pytest.approx(ht_total(d, ds.y_star), rel=1e-14)
