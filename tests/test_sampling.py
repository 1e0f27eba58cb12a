import dataclasses
from itertools import combinations

import numpy as np
import pytest

from balimpute.population import PopulationRecipe, generate_population
from balimpute.sampling import (
    MAX_REJECTIVE_ATTEMPTS,
    RejectiveDesign,
    SampleData,
    SamplingError,
    pips_probabilities,
    rejective_sample,
    sample_from_csv,
    sample_to_csv,
    srswor,
)


def test_pips_proportional_no_capping():
    z = np.array([1.0, 2.0, 3.0, 4.0])
    pi = pips_probabilities(z, 2)
    assert pi == pytest.approx(2 * z / z.sum(), rel=1e-14)
    assert abs(pi.sum() - 2) < 1e-9


def test_pips_single_cap():
    # the big unit saturates, the rest share the remaining budget evenly
    pi = pips_probabilities(np.array([8.0, 1.0, 1.0, 1.0, 1.0]), 2)
    assert pi == pytest.approx([1.0, 0.25, 0.25, 0.25, 0.25], abs=1e-14)


def test_pips_cascading_caps():
    # capping the largest unit pushes the next one over 1 as well
    pi = pips_probabilities(np.array([100.0, 10.0, 1.0, 1.0, 1.0, 1.0]), 3)
    assert pi == pytest.approx([1.0, 1.0, 0.25, 0.25, 0.25, 0.25], abs=1e-14)


def test_pips_census():
    pi = pips_probabilities(np.array([5.0, 1.0, 0.1]), 3)
    assert np.array_equal(pi, np.ones(3))


def masked_pips(z1, n):
    """The capping loop as it was before its first round lost the masked
    copies, kept as the reference."""
    pi = np.empty_like(z1)
    capped = np.zeros(z1.size, dtype=bool)
    while True:
        budget = n - int(capped.sum())
        rest = ~capped
        if budget == 0:
            pi[rest] = 0.0
            break
        pi[rest] = budget * z1[rest] / z1[rest].sum()
        newly = rest & (pi >= 1.0)
        if not newly.any():
            break
        pi[newly] = 1.0
        capped |= newly
    return pi


def test_pips_equals_masked_loop():
    rng = np.random.default_rng(12)
    cases = [(rng.gamma(2.0, 5.0, size=100_000), n) for n in (1, 100, 5_000)]
    cases += [(rng.pareto(1.2, size=300) + 0.01, n) for n in (3, 30, 150)]  # capped
    cases += [(np.array([100.0, 10.0, 1.0, 1.0, 1.0, 1.0]), 3), (np.array([5.0, 1.0, 0.1]), 3)]
    for z, n in cases:
        assert np.array_equal(pips_probabilities(z, n), masked_pips(z, n)), (z.size, n)


def test_pips_validation():
    with pytest.raises(ValueError):
        pips_probabilities(np.array([1.0, -1.0]), 1)
    with pytest.raises(ValueError):
        pips_probabilities(np.array([1.0, 2.0]), 3)


def test_rejective_matches_enumerated_law():
    # N=3, n=2: the conditioned-Poisson law is small enough to enumerate
    pi = np.array([0.9, 0.6, 0.5])
    weights = {}
    for pair in combinations(range(3), 2):
        w = 1.0
        for k in range(3):
            w *= pi[k] if k in pair else 1 - pi[k]
        weights[pair] = w
    z = sum(weights.values())
    probs = {pair: w / z for pair, w in weights.items()}

    rng = np.random.default_rng(90)
    reps = 40_000
    counts = {pair: 0 for pair in probs}
    design = RejectiveDesign(pi)
    for _ in range(reps):
        s = rejective_sample(design, rng)
        counts[tuple(s.indices)] += 1
    for pair, p in probs.items():
        se = np.sqrt(p * (1 - p) / reps)
        assert abs(counts[pair] / reps - p) < 4 * se, (pair, counts[pair] / reps, p)


def _enumerated_law(pi):
    """P(s) over the samples of size sum(pi), proportional to
    prod_s pi_k prod_not-s (1 - pi_k)."""
    n = round(sum(pi))
    weights = {}
    for subset in combinations(range(len(pi)), n):
        w = 1.0
        for k, p in enumerate(pi):
            w *= p if k in subset else 1.0 - p
        weights[subset] = w
    norm = sum(weights.values())
    return {s: w / norm for s, w in weights.items() if w > 0}


@pytest.mark.parametrize("pi, proposal, seed", [
    # one certainty unit: the multinomial proposal draws 2 of the other 3
    ((1.0, 0.6, 0.5, 0.9), "multinomial", 91),
    # a design whose odds are too uneven for multinomial rejection
    ((0.99, 0.95, 0.9, 0.1, 0.05, 0.01), "bernoulli", 92),
])
def test_rejective_design_matches_enumerated_law(pi, proposal, seed):
    design = RejectiveDesign(np.array(pi))
    assert design.proposal == proposal
    law = _enumerated_law(pi)
    rng = np.random.default_rng(seed)
    reps = 50_000
    counts = dict.fromkeys(law, 0)
    for _ in range(reps):
        counts[tuple(rejective_sample(design, rng).indices)] += 1
    assert sum(counts.values()) == reps  # no sample outside the law's support
    for subset, p in law.items():
        se = np.sqrt(p * (1 - p) / reps)
        assert abs(counts[subset] / reps - p) < 4 * se, (subset, counts[subset] / reps, p)


def _bernoulli_loop(pi, rng):
    """The rejective sampler before RejectiveDesign, kept verbatim but for
    returning the drawn indices."""
    pi = np.asarray(pi, dtype=np.float64)
    if np.any(pi <= 0) or np.any(pi > 1):
        raise ValueError("inclusion probabilities must lie in (0, 1]")
    n_target = round(float(pi.sum()))
    if abs(pi.sum() - n_target) > 1e-9:
        raise ValueError(f"sum(pi) = {pi.sum()!r} is not integral")
    for _ in range(MAX_REJECTIVE_ATTEMPTS):
        mask = rng.random(pi.size) < pi
        if int(mask.sum()) == n_target:
            return np.flatnonzero(mask)
    raise SamplingError("rejective sampling did not reach the target size")


def test_bernoulli_side_draws_are_unchanged():
    recipe = PopulationRecipe(n_units=10_000, beta=(1.0,), target_r2=0.36)
    pi = pips_probabilities(generate_population(recipe, np.random.default_rng(1)).z1, 400)
    design = RejectiveDesign(pi)
    assert design.proposal == "bernoulli"
    for seed in range(4):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert np.array_equal(rejective_sample(design, rng).indices, _bernoulli_loop(pi, ref))
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("n_units, r2", [(10_000, 0.36), (10_000, 0.64), (1_000_000, 0.36)])
def test_benchmark_shapes_take_the_multinomial_proposal(n_units, r2):
    # the table replication's populations and the census-scale one, n = 100
    recipe = PopulationRecipe(n_units=n_units, beta=(1.0,), target_r2=r2)
    pi = pips_probabilities(generate_population(recipe, np.random.default_rng(2)).z1, 100)
    design = RejectiveDesign(pi)
    assert design.proposal == "multinomial"
    s = rejective_sample(design, np.random.default_rng(3))
    assert s.size == 100 and np.all(np.diff(s.indices) > 0)


def test_all_certain_design_draws_nothing():
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    design = RejectiveDesign(np.ones(4))
    assert design.m == 0 and design.proposal == "none"
    s = rejective_sample(design, rng)
    assert np.array_equal(s.indices, np.arange(4))
    assert rng.bit_generator.state == state


def test_rejective_sample_shape():
    z = np.linspace(1, 5, 30)
    pi = pips_probabilities(z, 6)
    s = rejective_sample(pi, np.random.default_rng(4))
    assert s.size == 6
    assert np.all(np.diff(s.indices) > 0)
    assert np.array_equal(s.pi, pi[s.indices])
    assert np.array_equal(s.d, 1.0 / s.pi)


def test_rejective_rejects_noninteger_total():
    with pytest.raises(ValueError):
        rejective_sample(np.array([0.5, 0.6]), np.random.default_rng(0))


def test_rejective_no_convergence_is_typed(monkeypatch):
    import balimpute.sampling as S

    monkeypatch.setattr(S, "MAX_REJECTIVE_ATTEMPTS", 0)
    with pytest.raises(SamplingError, match="did not reach the target size"):
        rejective_sample(np.array([0.5, 0.5]), np.random.default_rng(0))


def test_srswor_uniform_over_pairs():
    rng = np.random.default_rng(17)
    reps = 30_000
    counts = {pair: 0 for pair in combinations(range(6), 2)}
    for _ in range(reps):
        s = srswor(6, 2, rng)
        counts[tuple(s.indices)] += 1
    p = 1 / 15
    se = np.sqrt(p * (1 - p) / reps)
    for pair, c in counts.items():
        assert abs(c / reps - p) < 5 * se, (pair, c / reps)


def test_srswor_weights():
    s = srswor(50, 10, np.random.default_rng(2))
    assert np.all(s.pi == 10 / 50)
    assert np.all(s.d == 5.0)


def test_sample_data_invariant():
    pi = np.array([0.5, 0.25])
    s = SampleData(indices=np.array([0, 1]), pi=pi)
    assert np.array_equal(s.d, 1.0 / pi)
    # d is derived from pi, not stored: a replaced pi brings its own d
    assert np.array_equal(dataclasses.replace(s, pi=pi[::-1].copy()).d, [4.0, 2.0])
    with pytest.raises(ValueError):
        SampleData(indices=np.array([0, 1]), pi=np.array([0.5, 1.5]))
    with pytest.raises(ValueError, match="share a shape"):
        SampleData(indices=np.array([0, 1, 2]), pi=pi)


def test_sample_csv_roundtrip(tmp_path):
    pi = np.array([0.2, 0.4, 0.8, 0.5])
    s = SampleData(indices=np.array([3, 7, 9, 12]), pi=pi,
                   respond=np.array([True, False, True, True]))
    y = np.array([1.5, np.nan, 3.25, 4.0])
    z1 = np.array([1.0, 2.0, 3.0, 4.0])
    v = z1.copy()
    path = tmp_path / "s.csv"
    sample_to_csv(path, s, y, z1, v)
    s2, y2, z2, v2 = sample_from_csv(path)
    assert np.array_equal(s2.indices, s.indices)
    assert np.array_equal(s2.pi, s.pi)
    assert np.array_equal(s2.respond, s.respond)
    assert np.isnan(y2[1]) and np.array_equal(y2[[0, 2, 3]], y[[0, 2, 3]])
    assert np.array_equal(z2, z1) and np.array_equal(v2, v)


def test_sample_csv_names_each_column_once(tmp_path):
    # a second y column is ambiguous, not a choice between the two
    path = tmp_path / "dup.csv"
    path.write_text("id,y,z1,v,pi,d,r,y\n1,1.0,1.0,1.0,0.5,2.0,1,5.0\n")
    with pytest.raises(ValueError, match="each once"):
        sample_from_csv(path)
    path.write_text("id,y,z1,v,pi,r\n1,1.0,1.0,1.0,0.5,1\n")
    with pytest.raises(ValueError, match="needs columns"):
        sample_from_csv(path)


def test_sample_csv_respondent_needs_y(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "id,y,z1,v,pi,d,r\n"
        "1,1.0,1.0,1.0,0.5,2.0,1\n"
        "2,,1.0,1.0,0.5,2.0,1\n"
    )
    with pytest.raises(ValueError, match="line 3"):
        sample_from_csv(path)
