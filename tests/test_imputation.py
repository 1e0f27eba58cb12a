import tracemalloc

import numpy as np
import pytest
from flight_oracle import dense

from balimpute.estimators import imputed_total
from balimpute.imputation import (
    Mar,
    Mcar,
    build_cells,
    calibrate_mar,
    generate_response,
    impute_dri,
    impute_ebri,
    impute_rri,
)
from balimpute.population import load_thompson_example
from balimpute.regression import fit_model


def thompson_setup():
    th = load_thompson_example()
    fit = fit_model(th.z1[:, None], th.y, th.z1, th.respond, th.n_population)
    return th, fit


def balance_gap(fit, ds, d, v):
    """Achieved minus target balance, over the nonrespondents."""
    m = ~ds.respond
    dv = d[m] * np.sqrt(v[m])
    return float(dv @ ds.eps_star[m] - dv.sum() * fit.ebar_r)


# --- response mechanisms ---------------------------------------------------


def test_mcar_frequency():
    rng = np.random.default_rng(50)
    z1 = np.ones(20_000)
    r = generate_response(z1, Mcar(0.3), rng)
    se = np.sqrt(0.3 * 0.7 / z1.size)
    assert abs(r.mean() - 0.3) < 4 * se


def test_mcar_validation():
    with pytest.raises(ValueError):
        Mcar(0.0)
    with pytest.raises(ValueError):
        Mcar(1.0)


def test_mar_probabilities_monotone_and_stable():
    mech = Mar(lambda0=-1.0, lambda1=0.4)
    z1 = np.array([0.1, 1.0, 10.0])
    p = mech.probabilities(z1)
    assert np.all(np.diff(p) > 0)
    assert np.all((p > 0) & (p < 1))
    # extreme arguments saturate cleanly instead of overflowing
    huge = Mar(lambda0=0.0, lambda1=50.0).probabilities(np.array([1e6, -1e6]))
    assert np.all(np.isfinite(huge))
    assert huge[0] == 1.0 and huge[1] == 0.0


def test_calibrate_mar_flat_slope_closed_form():
    # lambda1 = 0 makes every unit share the probability logistic(lambda0),
    # so hitting mean 0.75 forces lambda0 = log 3
    z1 = np.random.default_rng(1).gamma(2.0, 5.0, size=500)
    mech = calibrate_mar(z1, 0.0, 0.75)
    assert mech.lambda0 == pytest.approx(np.log(3.0), abs=1e-5)
    assert mech.probabilities(z1).mean() == pytest.approx(0.75, abs=1e-6)


def test_calibrate_mar_hits_target_mean():
    z1 = np.random.default_rng(2).gamma(2.0, 5.0, size=2000)
    for target in (0.5, 0.75):
        mech = calibrate_mar(z1, 0.1, target)
        assert mech.lambda1 == 0.1
        assert mech.probabilities(z1).mean() == pytest.approx(target, abs=1e-6)


def test_mar_response_skews_toward_large_sizes():
    rng = np.random.default_rng(3)
    z1 = rng.gamma(2.0, 5.0, size=30_000)
    mech = calibrate_mar(z1, 0.1, 0.5)
    r = generate_response(z1, mech, rng)
    assert z1[r].mean() > z1[~r].mean()


# --- cell grid -------------------------------------------------------------


def test_build_cells_thompson_grid():
    th, fit = thompson_setup()
    cells = build_cells(fit, th.d, th.z1)
    assert cells.n_rows == 4 and cells.n_cols == 6
    assert np.all(cells.psi == pytest.approx(1 / 6, rel=1e-12))
    problem = cells.balance_problem()
    assert problem.n_constraints == 5
    assert not hasattr(problem, "a_matrix")
    a = dense(problem.columns)
    expected_row0 = np.outer(th.d[6:] * np.sqrt(th.z1[6:]), fit.residuals[:6]).ravel()
    np.testing.assert_array_equal(a[0], expected_row0)
    assert a[1, :6].sum() == 6.0
    assert a[1, 6:].sum() == 0.0
    # two nonzeros per cell: its balance entry and its row's purity 1
    assert np.array_equal(problem.columns.col_ptr, np.arange(0, 2 * 24 + 1, 2))


def test_balance_problem_memory_is_linear_in_cells():
    # a 500 x 500 grid; as a dense (1 + 500) x 250,000 matrix it would take 1.0 GB
    rng = np.random.default_rng(21)
    n = 1000
    z1 = rng.gamma(2.0, 5.0, size=n)
    respond = np.arange(n) % 2 == 0
    y = np.where(respond, 2.0 * z1 + np.sqrt(z1) * rng.standard_normal(n), np.nan)
    fit = fit_model(z1[:, None], y, z1, respond, 10 * n)
    d = np.full(n, 10.0)
    tracemalloc.start()
    try:
        problem = build_cells(fit, d, z1).balance_problem()
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert problem.n_cells == 250_000 and problem.n_constraints == 501
    assert peak_mb < 64.0, peak_mb


def test_fit_requires_donors():
    th, fit = thompson_setup()
    with pytest.raises(ValueError):
        fit_model(th.z1[:1, None], np.array([np.nan]), th.z1[:1],
                  np.array([False]), 53)


# --- deterministic imputation ----------------------------------------------


def test_dri_thompson_values():
    th, fit = thompson_setup()
    ds = impute_dri(fit, th.z1[:, None], th.y, th.z1)
    assert np.all(ds.eps_star == 0.0)
    # unit 7 gets the model prediction alone
    assert ds.y_star[6] == pytest.approx(0.95 * 33.9 / 35.9, rel=1e-12)
    assert f"{ds.y_star[6]:.2f}" == "0.90"
    assert np.array_equal(ds.y_star[:6], th.y[:6])
    assert ds.flight is None and ds.donor_weights is None


# --- random regression imputation ------------------------------------------


def test_rri_donor_frequencies_and_mean():
    th, fit = thompson_setup()
    rng = np.random.default_rng(60)
    reps = 4000
    counts = np.zeros(6)
    eps_mean = 0.0
    for _ in range(reps):
        ds = impute_rri(fit, th.z1[:, None], th.y, th.z1, rng)
        counts += ds.donor_weights.sum(axis=0)
        eps_mean += ds.eps_star[6:].mean()
    freq = counts / (4 * reps)
    se = np.sqrt((1 / 6) * (5 / 6) / (4 * reps))
    assert np.all(np.abs(freq - 1 / 6) < 4 * se)
    # each imputed residual is a draw whose expectation is the donor mean
    resid_sd = fit.residuals[:6].std(ddof=0)
    assert abs(eps_mean / reps - fit.ebar_r) < 4 * resid_sd / np.sqrt(4 * reps)


def test_rri_rows_use_single_donor():
    th, fit = thompson_setup()
    ds = impute_rri(fit, th.z1[:, None], th.y, th.z1, np.random.default_rng(0))
    assert np.all(ds.donor_weights.sum(axis=1) == 1.0)
    assert np.all((ds.donor_weights == 0.0) | (ds.donor_weights == 1.0))
    assert np.all(ds.pure)


# --- exact balanced imputation ----------------------------------------------


def test_ebri_balance_identity_every_run():
    th, fit = thompson_setup()
    for seed in range(200):
        ds = impute_ebri(fit, th.z1[:, None], th.y, th.z1, th.d,
                         np.random.default_rng(seed))
        gap = balance_gap(fit, ds, th.d, th.z1)
        assert abs(gap) < 1e-10, seed


def test_ebri_row_sums_and_purity():
    th, fit = thompson_setup()
    mixed_rows = 0
    for seed in range(300):
        ds = impute_ebri(fit, th.z1[:, None], th.y, th.z1, th.d,
                         np.random.default_rng(1000 + seed))
        sums = ds.donor_weights.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-9, seed
        assert np.all(ds.donor_weights >= 0.0)
        n_pure = int(ds.pure.sum())
        assert n_pure >= ds.n_imputed - 1, seed
        if n_pure < ds.n_imputed:
            mixed_rows += 1
            # the one mixed row splits between exactly two donors
            k = int(np.flatnonzero(~ds.pure)[0])
            frac = (ds.donor_weights[k] > 0) & (ds.donor_weights[k] < 1)
            assert frac.sum() == 2
    assert mixed_rows > 0  # mixing does happen; purity is not vacuous


def test_ebri_single_nonrespondent_gets_mean_residual():
    rng = np.random.default_rng(9)
    z1 = rng.uniform(1, 5, 8)
    y = z1 + rng.standard_normal(8)
    respond = np.ones(8, dtype=bool)
    respond[3] = False
    y = np.where(respond, y, np.nan)
    fit = fit_model(z1[:, None], y, z1, respond, 40)
    d = np.full(8, 5.0)
    ds = impute_ebri(fit, z1[:, None], y, z1, d, np.random.default_rng(1))
    # with one row, the balance constraint pins the imputed residual
    assert ds.eps_star[3] == pytest.approx(fit.ebar_r, rel=1e-10)


def test_ebri_full_response_is_identity():
    rng = np.random.default_rng(10)
    z1 = rng.uniform(1, 5, 6)
    y = z1.copy()
    respond = np.ones(6, dtype=bool)
    fit = fit_model(z1[:, None], y, z1, respond, 30)
    ds = impute_ebri(fit, z1[:, None], y, z1, np.full(6, 5.0),
                     np.random.default_rng(2))
    assert ds.n_imputed == 0
    assert np.array_equal(ds.y_star, y)


def test_ebri_without_purity_vars_still_balances():
    th, fit = thompson_setup()
    for seed in range(50):
        ds = impute_ebri(fit, th.z1[:, None], th.y, th.z1, th.d,
                         np.random.default_rng(seed), with_purity_vars=False)
        assert abs(balance_gap(fit, ds, th.d, th.z1)) < 1e-10
        # single constraint: at most one fractional cell
        assert ds.flight.n_fractional <= 1


def test_first_realization_admissible():
    # solve the balance equation by hand for one realization: with rows
    # 7 -> e4, 9 -> e1, 10 -> e1 pure, the mixed row for unit 8 must split
    # donors 1 and 6 with weight ~0.61, giving eps ~ -0.17
    th, fit = thompson_setup()
    e = fit.residuals[:6]
    rv = np.sqrt(th.z1[6:])  # common d cancels from both sides
    rhs = rv.sum() * fit.ebar_r - rv[0] * e[3] - rv[2] * e[0] - rv[3] * e[0]
    w = (rhs / rv[1] - e[5]) / (e[0] - e[5])
    eps8 = w * e[0] + (1 - w) * e[5]
    assert 0.0 < w < 1.0
    assert w == pytest.approx(0.61, abs=0.005)
    assert eps8 == pytest.approx(-0.17, abs=0.005)


def test_second_realization_admissible():
    # same admissibility check for the alternative realization: rows
    # 8 -> e1, 9 -> e6, 10 -> e4 pure, unit 7 splits donors 2 and 6
    th, fit = thompson_setup()
    e = fit.residuals[:6]
    rv = np.sqrt(th.z1[6:])
    rhs = rv.sum() * fit.ebar_r - rv[1] * e[0] - rv[2] * e[5] - rv[3] * e[3]
    w = (rhs / rv[0] - e[5]) / (e[1] - e[5])
    eps7 = w * e[1] + (1 - w) * e[5]
    assert w == pytest.approx(0.83, abs=0.005)
    assert eps7 == pytest.approx(0.62, abs=0.005)


def test_total_shift_identity():
    # the balanced total always exceeds the deterministic one by the
    # design-weighted mean-residual term, whatever the realization
    for seed in range(30):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(8, 30))
        z1 = rng.uniform(0.5, 6.0, n)
        y = z1 + rng.standard_normal(n) * np.sqrt(z1)
        respond = rng.random(n) < 0.6
        if respond.sum() < 2 or respond.all():
            continue
        y = np.where(respond, y, np.nan)
        d = rng.uniform(2.0, 8.0, n)
        fit = fit_model(z1[:, None], y, z1, respond, 10 * n)
        dri = impute_dri(fit, z1[:, None], y, z1)
        ebri = impute_ebri(fit, z1[:, None], y, z1, d, rng)
        m = ~respond
        shift = float((d[m] * np.sqrt(z1[m])).sum() * fit.ebar_r)
        lhs = imputed_total(ebri, d) - imputed_total(dri, d)
        assert lhs == pytest.approx(shift, rel=1e-10, abs=1e-9), seed


def test_ebri_deterministic_given_seed():
    th, fit = thompson_setup()
    a = impute_ebri(fit, th.z1[:, None], th.y, th.z1, th.d,
                    np.random.default_rng(123))
    b = impute_ebri(fit, th.z1[:, None], th.y, th.z1, th.d,
                    np.random.default_rng(123))
    assert np.array_equal(a.y_star, b.y_star)
    assert np.array_equal(a.donor_weights, b.donor_weights)
