import numpy as np
import pytest

from balimpute.population import (
    Population,
    PopulationRecipe,
    draw_sizes,
    generate_population,
    load_thompson_example,
    population_from_csv,
    population_to_csv,
)


def test_noise_variance_from_target_r2():
    # Gamma(2, 5) sizes: mean 10, variance 50.  The noise variance that
    # yields a given signal share solves r2 = var(z)/(var(z) + s2 * mean(z)).
    weak = PopulationRecipe(n_units=100, beta=(1.0,), target_r2=0.36)
    strong = PopulationRecipe(n_units=100, beta=(1.0,), target_r2=0.64)
    assert weak.noise_variance() == pytest.approx(80.0 / 9.0, rel=1e-12)
    assert strong.noise_variance() == pytest.approx(2.8125, rel=1e-12)


def test_noise_variance_explicit_sigma2():
    r = PopulationRecipe(n_units=10, beta=(1.0,), sigma2=3.5)
    assert r.noise_variance() == 3.5


def test_recipe_validation():
    with pytest.raises(ValueError):
        PopulationRecipe(n_units=10, beta=(1.0,))  # neither noise setting
    with pytest.raises(ValueError):
        PopulationRecipe(n_units=10, beta=(1.0,), sigma2=1.0, target_r2=0.5)
    with pytest.raises(ValueError):
        PopulationRecipe(n_units=10, beta=(1.0,), target_r2=1.5)
    with pytest.raises(ValueError):
        PopulationRecipe(n_units=0, beta=(1.0,), sigma2=1.0)


@pytest.mark.parametrize("beta", [(1.0, 7.0, -3.0), (1.0, 5.0), ()])
def test_recipe_rejects_beta_it_would_not_use(beta):
    # the generator reads beta[0] alone: y = beta z1 + sqrt(z1) eps
    with pytest.raises(ValueError, match="one slope"):
        PopulationRecipe(n_units=10, beta=beta, target_r2=0.36)


def test_recipe_json_roundtrip():
    r = PopulationRecipe(n_units=500, beta=(1.25,), target_r2=0.36)
    back = PopulationRecipe.from_json(r.to_json())
    assert back == r


def test_generate_moments_and_r2():
    recipe = PopulationRecipe(n_units=50_000, beta=(1.0,), target_r2=0.36)
    pop = generate_population(recipe, np.random.default_rng(7))
    se_mean = np.sqrt(50.0 / pop.size)
    assert abs(pop.z1.mean() - 10.0) < 5 * se_mean
    assert np.corrcoef(pop.z1, pop.y)[0, 1] ** 2 == pytest.approx(0.36, abs=0.03)
    assert np.array_equal(pop.v, pop.z1)


def test_generate_deterministic():
    recipe = PopulationRecipe(n_units=200, beta=(1.0,), target_r2=0.64)
    a = generate_population(recipe, np.random.default_rng(5))
    b = generate_population(recipe, np.random.default_rng(5))
    assert np.array_equal(a.y, b.y) and np.array_equal(a.z1, b.z1)


@pytest.mark.parametrize("b1", [1.0, 0.7, 2.5])
def test_sizes_drawn_first_give_the_same_population(b1):
    # the draws in their documented order, y formed as b1 z1 + sqrt(z1) eps
    recipe = PopulationRecipe(n_units=5_000, beta=(b1,), target_r2=0.36)
    pop = generate_population(recipe, np.random.default_rng(21))
    rng = np.random.default_rng(21)
    z1 = np.maximum(rng.gamma(2.0, 5.0, size=5_000), np.finfo(np.float64).tiny)
    eps = rng.normal(0.0, np.sqrt(recipe.noise_variance()), size=5_000)
    assert np.array_equal(pop.z1, z1)
    assert np.array_equal(pop.y, b1 * z1 + np.sqrt(z1) * eps)
    rng = np.random.default_rng(21)
    sizes = draw_sizes(recipe, rng)
    split = generate_population(recipe, rng, z1=sizes)
    assert split.z1 is sizes
    assert np.array_equal(split.y, pop.y)


def test_zero_noise_reproduces_signal():
    recipe = PopulationRecipe(n_units=300, beta=(1.0,), sigma2=0.0)
    pop = generate_population(recipe, np.random.default_rng(3))
    assert np.array_equal(pop.y, pop.z1)


def test_population_validation():
    with pytest.raises(ValueError):
        Population(y=np.ones(3), v=np.array([1.0, 0.0, 1.0]), z1=np.ones(3))
    with pytest.raises(ValueError):
        Population(y=np.array([1.0, np.inf]), v=np.ones(2), z1=np.ones(2))
    with pytest.raises(ValueError, match="finite"):
        Population(y=np.ones(2), v=np.ones(2), z1=np.array([1.0, np.nan]))


def test_thompson_example_values():
    th = load_thompson_example()
    assert th.n_population == 53
    assert th.n_sample == 10
    assert th.z1[0] == 8.35 and th.y[0] == 8.75
    assert th.z1[9] == 0.5
    assert np.all(np.isnan(th.y[6:]))
    assert np.array_equal(th.respond, np.array([True] * 6 + [False] * 4))
    assert th.d[0] == 5.3


def test_population_csv_roundtrip(tmp_path):
    recipe = PopulationRecipe(n_units=50, beta=(1.0,), target_r2=0.36)
    pop = generate_population(recipe, np.random.default_rng(11))
    path = tmp_path / "pop.csv"
    population_to_csv(pop, path)
    back, missing = population_from_csv(path)
    assert np.array_equal(back.y, pop.y)
    assert np.array_equal(back.z1, pop.z1)
    assert not missing.any()


def test_population_csv_malformed_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,y,z1,v,missing\n1,1.0,2.0,2.0,0\n2,oops,3.0,3.0,0\n")
    with pytest.raises(ValueError, match="line 3"):
        population_from_csv(path)
