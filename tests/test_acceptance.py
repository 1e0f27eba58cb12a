"""Acceptance checklist: one test per shipping criterion.

Each test carries its stated tolerance; the two desk-scale Monte Carlo
criteria share a single 1,000-replicate run through a module fixture.  Run
with -v to get the per-criterion pass/fail lines.
"""

import json
import time
from itertools import combinations

import numpy as np
import pytest
import scipy.stats
from flight_oracle import grid_cells
from test_regression import regularize

from balimpute.cli import main as cli_main
from balimpute.cube import flight_phase
from balimpute.estimators import imputed_total
from balimpute.harness import ExperimentConfig, MechanismSpec, run_experiment
from balimpute.imputation import (
    Mcar,
    build_cells,
    generate_response,
    impute_dri,
    impute_ebri,
    impute_rri,
)
from balimpute.population import (
    PopulationRecipe,
    generate_population,
    load_thompson_example,
)
from balimpute.regression import ModelSpec, fit_model
from balimpute.sampling import RejectiveDesign, pips_probabilities, rejective_sample, srswor

pytestmark = pytest.mark.acceptance

DESK_SEED = 20260822


@pytest.fixture(scope="module")
def desk_scale_run():
    """Population 1, MCAR 0.5, N=10,000, n=100, 1,000 replicates."""
    cfg = ExperimentConfig(
        seed=DESK_SEED,
        populations=(PopulationRecipe(n_units=10_000, beta=(1.0,), target_r2=0.36),),
        mechanisms=(MechanismSpec("mcar", 0.5),),
        sample_size=100,
        replications=1000,
        alphas=(0.25, 0.5),
        workers=1,
    )
    return run_experiment(cfg)


def test_criterion_1_worked_example(capsys):
    t0 = time.perf_counter()
    code = cli_main(["example"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    assert "0.94" in out
    assert "4.38" in out

    th = load_thompson_example()
    fit = fit_model(th.z1[:, None], th.y, th.z1, th.respond, th.n_population)
    assert round(fit.beta[0], 4) == 0.9443
    expected = np.array([0.30, 0.93, -0.14, 0.69, 0.15, -0.89])
    assert np.all(np.abs(fit.residuals[:6] - expected) <= 0.01)
    nonresp = ~th.respond
    dv = th.d[nonresp] * np.sqrt(th.z1[nonresp])
    target = dv.sum() * fit.ebar_r
    assert target == pytest.approx(4.38, abs=0.01)
    ds = impute_ebri(fit, th.z1[:, None], th.y, th.z1, th.d,
                     np.random.default_rng(1234))
    achieved = float(dv @ ds.eps_star[nonresp])
    assert abs(achieved - target) <= 1e-8 * abs(target)
    assert elapsed < 1.0
    print(f"[criterion 1] PASS - b=0.9443, balance {target:.4f}, {elapsed:.2f}s")


def test_criterion_2_balanced_equals_deterministic_total():
    # on models whose unit standard deviation sqrt(v) lies in the span of
    # the regressors, the mean donor residual vanishes and the balanced and
    # deterministic totals must coincide, run by run
    t0 = time.perf_counter()
    rng = np.random.default_rng(515)
    checked = 0
    attempts = 0
    while checked < 500:
        attempts += 1
        assert attempts < 5000
        n_pop = int(rng.integers(30, 201))
        n = int(rng.integers(6, 41))
        if n > n_pop:
            continue
        x = rng.uniform(0.5, 6.0, size=n)
        if checked % 2 == 0:
            z = np.column_stack([np.ones(n), x])
            v = np.ones(n)
        else:
            z = x[:, None]
            v = x ** 2
        y = z @ np.arange(1.0, z.shape[1] + 1.0) + rng.standard_normal(n)
        respond = rng.random(n) < rng.uniform(0.4, 0.8)
        if respond.sum() < z.shape[1] + 1 or respond.all():
            continue
        y = np.where(respond, y, np.nan)
        omega = rng.uniform(0.5, 3.0, n) if checked % 3 == 0 else None
        fit = fit_model(z, y, v, respond, n_pop,
                        spec=ModelSpec(a=1e-12, omega=omega))
        d = rng.uniform(1.0, 10.0, n)
        dri = impute_dri(fit, z, y, v)
        ebri = impute_ebri(fit, z, y, v, d, rng)
        t_dri = imputed_total(dri, d)
        t_ebri = imputed_total(ebri, d)
        assert abs(t_ebri - t_dri) <= 1e-10 * max(1.0, abs(t_dri)), checked
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"[criterion 2] PASS - 500 instances, max runtime {elapsed:.1f}s")


def test_criterion_3_grid_walk_statistics():
    # every cell a martingale (t-statistics of its mean against pi0) on the
    # problem build_cells returns, which impute_ebri walks row by row; every
    # run keeps the balance row and unit row sums, and at most one split row
    t0 = time.perf_counter()
    rng_setup = np.random.default_rng(33)
    n_m, n_r = 3, 4
    residuals = rng_setup.standard_normal(n_r)
    dv = rng_setup.uniform(2.0, 9.0, n_m)
    psi_row = rng_setup.dirichlet(np.ones(n_r) * 3)
    problem = build_cells(psi_row, residuals, dv)
    pi0 = np.tile(psi_row, n_m)
    a0 = np.outer(dv, residuals).ravel()

    reps = 20_000
    rng = np.random.default_rng(34)
    draws = np.empty((reps, n_m * n_r))
    for i in range(reps):
        res = flight_phase(problem, rng)
        itilde = grid_cells(res.donors, res.shares, n_r).ravel()
        draws[i] = itilde
        assert abs(a0 @ itilde - a0 @ pi0) <= 1e-12 * (np.abs(a0) @ pi0)
        grid = itilde.reshape(n_m, n_r)
        assert np.max(np.abs(grid.sum(axis=1) - 1.0)) < 1e-9
        assert ((grid > 0.0) & (grid < 1.0)).any(axis=1).sum() <= 1

    mean = draws.mean(axis=0)
    sd = draws.std(axis=0, ddof=1)
    for j in range(n_m * n_r):
        if sd[j] == 0.0:
            assert mean[j] == pytest.approx(pi0[j], abs=1e-12)
        else:
            t_stat = abs(mean[j] - pi0[j]) / (sd[j] / np.sqrt(reps))
            assert t_stat < 4.0, (j, t_stat)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"[criterion 3, grid walk] PASS - martingale ok, at most one split row "
          f"in {reps} runs, {elapsed:.1f}s")


def test_criterion_4_efficiency_and_bias(desk_scale_run):
    cell = desk_scale_run.cells[0]
    re_ebri = cell.re[("ebri", "total")]
    assert 0.74 <= re_ebri <= 0.84, re_ebri
    for method in ("dri", "rri", "ebri"):
        rb = cell.rb[(method, "total")]
        assert abs(rb) < 1.0, (method, rb)
    assert desk_scale_run.elapsed_seconds < 300.0
    print(f"[criterion 4] PASS - RE(ebri)={re_ebri:.3f}, "
          f"|RB| max {max(abs(cell.rb[(m, 'total')]) for m in ('dri', 'rri', 'ebri')):.2f}%, "
          f"{desk_scale_run.elapsed_seconds:.0f}s")


def _ratio_oracle_totals(y, z1, d, respond):
    """Closed-form dri and ebri totals for one sample under the desk model.

    Valid only for K = 1, z = v = z1 and unit omega: the fit is then the
    ratio B = sum_r y / sum_r z1.  The default eigenvalue floor,
    0.01 * trace(G_r) / K, sits below G_r's only eigenvalue when K = 1, so
    it never binds.  Calls no fit_model and no impute_* function.
    """
    r, m = respond, ~respond
    b = y[r].sum() / z1[r].sum()
    ebar_r = np.mean((y[r] - b * z1[r]) / np.sqrt(z1[r]))
    t_dri = d[r] @ y[r] + b * (d[m] @ z1[m])
    return t_dri, t_dri + ebar_r * (d[m] @ np.sqrt(z1[m]))


def test_criterion_4_deterministic_variant_efficiency(desk_scale_run):
    # Relative efficiency of the deterministic variant on the total.
    #
    # dri imputes eps* = 0, and ebri balances its weighted residual total
    # exactly on sum_m d sqrt(v) ebar_r, so on every replicate
    #     t_ebri = t_dri + S,   S = ebar_r * sum_m d_k sqrt(v_k)
    # (test_total_shift_identity).  Against the same rri reference,
    #     RE(dri) = rho * RE(ebri),   rho = MSE(t_dri) / MSE(t_dri + S).
    # Removing the imputation variance makes t_ebri the conditional mean of
    # the random-donor total, not t_dri.  rho = 1 only when sqrt(v) lies in
    # the span of z, where ebar_r = 0 (criterion 2, run by run).  Here
    # v = z1 with regressor z1, so S has real variance and rho < 1: the
    # stated band [0.74, 0.84] carries over to dri as [0.74 rho, 0.84 rho].
    #
    # rho comes from the closed-form oracle above, on replicate streams
    # independent of the harness, with a delta-method standard error.  The
    # run's paired ratio must match it within 4 combined standard errors,
    # and that tolerance must stay below 0.05, so that a dri whose total
    # coincides with ebri's (rho = 1) fails.
    cfg = desk_scale_run.config
    cell = desk_scale_run.cells[0]
    phi0 = cfg.mechanisms[0].level
    assert cfg.design == "pips-rejective" and cfg.mechanisms[0].kind == "mcar"
    # the harness seeds population ip with SeedSequence(seed, spawn_key=(ip,))
    pop = generate_population(
        cfg.populations[0], np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0,))))
    assert float(pop.y.sum()) == cell.theta_total
    design = RejectiveDesign(pips_probabilities(pop.z1, cfg.sample_size))

    def draw(rng):
        s = rejective_sample(design, rng)
        respond = rng.random(s.size) < phi0
        return pop.y[s.indices], pop.z1[s.indices], s.d, respond

    # the oracle against the program, on a few replicates
    rng = np.random.default_rng(404)
    for _ in range(5):
        y, z1, d, respond = draw(rng)
        fit = fit_model(z1[:, None], y, z1, respond, pop.size)
        t_dri = imputed_total(impute_dri(fit, z1[:, None], y, z1), d)
        t_ebri = imputed_total(impute_ebri(fit, z1[:, None], y, z1, d, rng), d)
        o_dri, o_ebri = _ratio_oracle_totals(y, z1, d, respond)
        assert o_dri == pytest.approx(t_dri, rel=1e-9)
        assert o_ebri == pytest.approx(t_ebri, rel=1e-9)

    reps = 5000
    sq_dri = np.empty(reps)
    sq_ebri = np.empty(reps)
    for i in range(reps):
        o_dri, o_ebri = _ratio_oracle_totals(*draw(rng))
        sq_dri[i] = (o_dri - cell.theta_total) ** 2
        sq_ebri[i] = (o_ebri - cell.theta_total) ** 2
    rho = sq_dri.mean() / sq_ebri.mean()
    # the run's standard error uses the oracle's per-replicate dispersion:
    # both draw from the same law
    sd_unit = np.std(sq_dri - rho * sq_ebri, ddof=1) / sq_ebri.mean()
    tol = 4.0 * sd_unit * np.sqrt(1.0 / reps + 1.0 / cell.n_ok)
    assert tol < 0.05, tol

    rho_run = cell.mse[("dri", "total")] / cell.mse[("ebri", "total")]
    assert abs(rho_run - rho) <= tol, (rho_run, rho, tol)
    re_dri = cell.re[("dri", "total")]
    assert 0.74 * rho <= re_dri <= 0.84 * rho, (re_dri, rho)
    print(f"[criterion 4b] PASS - RE(dri)={re_dri:.3f}, rho run {rho_run:.4f} "
          f"vs oracle {rho:.4f} +- {tol:.4f}")


def test_criterion_5_distribution_function_spot_checks(desk_scale_run):
    cell = desk_scale_run.cells[0]
    rb_dri_q1 = cell.rb[("dri", "df@0")]
    assert -46.3 <= rb_dri_q1 <= -36.3, rb_dri_q1
    for method in ("rri", "ebri"):
        for j in range(2):
            rb = cell.rb[(method, f"df@{j}")]
            assert abs(rb) <= 3.0, (method, j, rb)
    for j in range(2):
        re_ebri = cell.re[("ebri", f"df@{j}")]
        assert re_ebri <= 1.02, (j, re_ebri)
    print(f"[criterion 5] PASS - RB(dri, first quartile)={rb_dri_q1:.1f}%, "
          f"RE(ebri, df) <= {max(cell.re[('ebri', f'df@{j}')] for j in range(2)):.3f}")


def test_criterion_6_regularization_bound_and_rate():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 7))
        b = rng.standard_normal((k, k))
        g = b @ b.T
        a = float(rng.uniform(0.01, 2.0))
        g_a = regularize(g, a)
        nrm = np.linalg.norm(np.linalg.inv(g_a), 2)
        assert nrm <= 1 / a + 1e-10
        worst = max(worst, nrm * a)

    # root-n rate of the regularized fit: n * mean squared error of the
    # slope stays level as n grows
    recipe = PopulationRecipe(n_units=8000, beta=(1.0,), target_r2=0.36)
    pop = generate_population(recipe, np.random.default_rng(607))
    rng = np.random.default_rng(608)
    scaled = []
    for n in (50, 100, 200, 400):
        sq = np.empty(1000)
        for i in range(1000):
            s = srswor(pop.size, n, rng)
            respond = generate_response(pop.z1[s.indices], Mcar(0.7), rng)
            fit = fit_model(pop.z1[s.indices][:, None], pop.y[s.indices],
                            pop.v[s.indices], respond, pop.size)
            sq[i] = (fit.beta[0] - 1.0) ** 2
        scaled.append(n * sq.mean())
    for m1, m2 in zip(scaled, scaled[1:]):
        assert 0.4 <= m2 / m1 <= 2.5, scaled
    print(f"[criterion 6] PASS - inverse norm bound tight to {worst:.3f}, "
          f"n*mse sequence {['%.3f' % m for m in scaled]}")


def test_criterion_7_sampling_and_donor_oracles():
    # rejective sampler against the enumerated conditioned-Poisson law
    z = np.array([1.0, 2.0, 3.0, 1.5, 2.5, 2.0])
    pi = pips_probabilities(z, 3)
    law = {}
    for subset in combinations(range(6), 3):
        w = 1.0
        for k in range(6):
            w *= pi[k] if k in subset else 1.0 - pi[k]
        law[subset] = w
    norm = sum(law.values())
    law = {s: w / norm for s, w in law.items()}

    rng = np.random.default_rng(707)
    reps = 50_000
    counts = dict.fromkeys(law, 0)
    design = RejectiveDesign(pi)
    for _ in range(reps):
        s = rejective_sample(design, rng)
        counts[tuple(s.indices)] += 1
    tv = 0.5 * sum(abs(counts[s] / reps - p) for s, p in law.items())
    assert tv < 0.02, tv

    # donor draw frequencies against the donation weights, chi-square at
    # the 0.1% level
    th = load_thompson_example()
    fit = fit_model(th.z1[:, None], th.y, th.z1, th.respond, th.n_population)
    rng = np.random.default_rng(708)
    picks = np.zeros(6)
    reps_rri = 20_000
    for _ in range(reps_rri):
        ds = impute_rri(fit, th.z1[:, None], th.y, th.z1, rng)
        picks += grid_cells(ds.donors, ds.shares, 6).sum(axis=0)
    expected = np.full(6, 4 * reps_rri / 6)
    chi2 = float(((picks - expected) ** 2 / expected).sum())
    critical = scipy.stats.chi2.ppf(0.999, df=5)
    assert chi2 < critical, (chi2, critical)
    print(f"[criterion 7] PASS - TV={tv:.4f}, chi2={chi2:.1f} < {critical:.1f}")


def test_criterion_8_byte_determinism(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 808,
        "populations": [{"n_units": 500, "beta": [1.0], "target_r2": 0.36}],
        "mechanisms": [{"kind": "mcar", "level": 0.5}],
        "replications": 25, "sample_size": 25,
    }))
    outs = []
    for tag in ("one", "two"):
        outdir = tmp_path / tag
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(outdir)]) == 0
        outs.append(outdir)
    capsys.readouterr()
    for name in ("table_total.csv", "table_df.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    metas = []
    for outdir in outs:
        meta = json.loads((outdir / "run_meta.json").read_text())
        meta.pop("timings")
        metas.append(meta)
    assert metas[0] == metas[1]

    th_csv = tmp_path / "th.csv"
    from balimpute.sampling import SampleData, sample_to_csv

    th = load_thompson_example()
    pi = np.full(10, 10 / 53)
    sample_to_csv(th_csv, SampleData(indices=np.arange(10), pi=pi,
                                     respond=th.respond), th.y, th.z1, th.z1)
    imps = []
    for tag in ("a", "b"):
        out = tmp_path / f"imp_{tag}.csv"
        rep = tmp_path / f"rep_{tag}.json"
        assert cli_main(["impute", "--input", str(th_csv), "--method", "ebri",
                         "--seed", "4242", "--out", str(out),
                         "--report", str(rep)]) == 0
        imps.append((out.read_bytes(), rep.read_bytes()))
    capsys.readouterr()
    assert imps[0] == imps[1]

    stdouts = []
    for _ in range(2):
        assert cli_main(["example", "--seed", "77"]) == 0
        stdouts.append(capsys.readouterr().out)
    assert stdouts[0] == stdouts[1]
    print("[criterion 8] PASS - tables, imputed CSV, report, stdout all "
          "byte-identical on reruns")
