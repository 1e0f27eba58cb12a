"""Seeded outputs pinned byte for byte.

Refactors of the flight, the imputed dataset, the harness and the CLI
writers must not move these: ``example``'s stdout at two seeds, the donor
selection and flight diagnostics of a seeded ``impute --method ebri``
report on an n = 300 sample, that call's CSV and report bytes and its
report with ``--explain``, the seeded ``rri`` imputed CSV, the tables of
a small seeded ``simulate`` on each design, the same at one worker and at
two, the files a seeded ``generate`` and ``sample`` write, which the
readers must read back bit for bit, and the arrays behind them:
``population_truths`` of a seeded population and five ``rejective_sample``
draws on each proposal.  The ebri report's donors, steps and fractional
cells depend only on the flight's trajectory, not on how the split row's
residual mix is rounded, so they are pinned exactly.
The n = 300 sample is drawn with numpy alone, so the ``impute`` pins do
not depend on the package's population generator or sampler; the
``simulate`` pins cover those.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from balimpute.cli import main
from balimpute.estimators import population_truths
from balimpute.population import PopulationRecipe, generate_population, population_from_csv
from balimpute.sampling import (
    RejectiveDesign,
    SampleData,
    pips_probabilities,
    rejective_sample,
    sample_from_csv,
    sample_to_csv,
    srswor,
)

EXAMPLE_1234 = """\
money-guess sample: N=53, n=10, d=5.3 for every unit
ratio-model fit on 6 respondents: b = 0.94
unit  z1      y       residual
   1    8.35    8.75     0.30
   2    1.50    2.55     0.93
   3   10.00    9.00    -0.14
   4    0.60    1.10     0.69
   5    7.50    7.50     0.15
   6    7.95    5.00    -0.89
   7    0.95       -        -
   8    4.40       -        -
   9    1.00       -        -
  10    0.50       -        -
donation-weighted mean residual: 0.1728
balance target sum d(1-r)sqrt(v) ebar: 4.38
exact balanced imputation (seed 1234):
unit  donors (unit:weight)      eps*     y*
   7  2:1.00                     0.93    1.80
   8  3:1.00                    -0.14    3.86
   9  2:0.66 6:0.34              0.32    1.26
  10  3:1.00                    -0.14    0.37
achieved balance: 4.38 (relative error 2.0e-16)
respondent-only part of the total: 179.67
imputed total: 218.33
"""

EXAMPLE_7 = """\
money-guess sample: N=53, n=10, d=5.3 for every unit
ratio-model fit on 6 respondents: b = 0.94
unit  z1      y       residual
   1    8.35    8.75     0.30
   2    1.50    2.55     0.93
   3   10.00    9.00    -0.14
   4    0.60    1.10     0.69
   5    7.50    7.50     0.15
   6    7.95    5.00    -0.89
   7    0.95       -        -
   8    4.40       -        -
   9    1.00       -        -
  10    0.50       -        -
donation-weighted mean residual: 0.1728
balance target sum d(1-r)sqrt(v) ebar: 4.38
exact balanced imputation (seed 7):
unit  donors (unit:weight)      eps*     y*
   7  4:1.00                     0.69    1.57
   8  2:0.31 6:0.69             -0.32    3.48
   9  2:1.00                     0.93    1.87
  10  3:1.00                    -0.14    0.37
achieved balance: 4.38 (relative error 2.0e-16)
respondent-only part of the total: 179.67
imputed total: 218.33
"""

EBRI_SELECTION_SHA256 = "4ddc7a5059f30878abaff83f74f5f06ea2ec91c145a0a504f3af4c984a5373b7"
EBRI_CSV_SHA256 = "1b2544809e1f4ff19c3db2df7dc18136c7f54e264db8e09dcb6b84661c84751d"
EBRI_REPORT_SHA256 = "91466d5437c94cc722d6f6f90bceeda782b04c75d90e6455f722b321735db3f3"
EBRI_EXPLAIN_REPORT_SHA256 = "9df37837ee4b6967c70a65bab1bb1e5dbb34d0d37181fe5f06d023b6b7dc4ecb"
RRI_CSV_SHA256 = "d3f16bfdcc5b68b0815f6d8376fa639b0b616523519cc088e5906b6a97d0d7aa"
SIMULATE_SHA256 = {
    "pips-rejective": {
        "table_total.csv": "d228e710ef410e9f560310520a42f4c022080aa9611ac02da1b7457d3429adca",
        "table_df.csv": "c5635eb83e0e1d148962241e0bfa04a79d55f9462daa248a90e454cda7e52757",
    },
    "srswor": {
        "table_total.csv": "c75a1a7ffa81165df53fcf03542a32fbc3247d90beb42ad94926f723a61b3575",
        "table_df.csv": "3e3942fae81fb9e00532af8827f88d713b158c308db96f9788a6ac5dbeb17395",
    },
}

GENERATE_SHA256 = "068afc1d2c3c6974c26dd976a12cf7355e8c649dda465ab90a3a7980285f8996"
SAMPLE_SHA256 = {
    "pips-rejective": "6728f80caef0253f626120145de1766cf1685d148038e51151c680c6cdc279b3",
    "srswor": "bdedb1820a9dd23d0f98466f4135f9c0a0938d3445ad7b9c0b7e3c604a305ce2",
}
TRUTHS_SHA256 = "577265c8ac781e0e8c6df372fd3a65666627d633094d0662868764ae19556aa8"
REJECTIVE_SHA256 = {
    20: ("multinomial", "3effe81b6ebf27315e699f355c91bbeaee418af67f55f9ee9017b2e7220641fe"),
    400: ("bernoulli", "89c0df3c6f15093aaeee78b23f32af96dd59fddab99d1b919552e6021998fee3"),
}


def write_sample_300(path, scale=1.0):
    """A 300-unit sample, 152 respondents, with unequal weights; y times ``scale``."""
    rng = np.random.default_rng(20_161_018)
    n = 300
    z1 = rng.gamma(2.0, 5.0, n)
    y = z1 + np.sqrt(z1) * rng.normal(0.0, 3.0, n)
    pi = rng.uniform(0.01, 0.05, n)
    respond = rng.random(n) < 0.55
    sample = SampleData(indices=np.sort(rng.choice(100_000, n, replace=False)), pi=pi,
                        respond=respond)
    sample_to_csv(path, sample, y * scale, z1, z1)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_example_stdout_pinned(capsys):
    for seed, expected in (("1234", EXAMPLE_1234), ("7", EXAMPLE_7)):
        assert main(["example", "--seed", seed]) == 0
        assert capsys.readouterr().out == expected, seed


def test_impute_selection_and_rri_csv_pinned(tmp_path, capsys):
    src = tmp_path / "s.csv"
    write_sample_300(src)
    out, rep = tmp_path / "ebri.csv", tmp_path / "ebri.json"
    assert main(["impute", "--input", str(src), "--method", "ebri", "--seed", "1101",
                 "--out", str(out), "--report", str(rep)]) == 0
    report = json.loads(rep.read_text())
    selection = {k: report[k] for k in ("donors", "flight_steps", "fractional_cells")}
    assert len(selection["donors"]) == 148
    assert sha256(json.dumps(selection, sort_keys=True).encode()) == EBRI_SELECTION_SHA256
    assert sha256(out.read_bytes()) == EBRI_CSV_SHA256
    assert sha256(rep.read_bytes()) == EBRI_REPORT_SHA256
    assert main(["impute", "--input", str(src), "--method", "ebri", "--seed", "1101",
                 "--out", str(out), "--report", str(rep), "--explain"]) == 0
    assert sha256(rep.read_bytes()) == EBRI_EXPLAIN_REPORT_SHA256

    out = tmp_path / "rri.csv"
    assert main(["impute", "--input", str(src), "--method", "rri", "--seed", "1102",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert sha256(out.read_bytes()) == RRI_CSV_SHA256


def test_simulate_tables_pinned(tmp_path, capsys):
    # two populations, an MCAR and a MAR level, 50 replicates: the same bytes
    # at one worker and at two
    for design, pins in SIMULATE_SHA256.items():
        config = tmp_path / f"{design}.json"
        config.write_text(json.dumps({
            "seed": 2026,
            "populations": [{"n_units": 2000, "beta": [1.0], "target_r2": 0.36},
                            {"n_units": 2000, "beta": [1.0], "target_r2": 0.64}],
            "mechanisms": [{"kind": "mcar", "level": 0.6}, {"kind": "mar", "level": 0.75}],
            "sample_size": 100, "replications": 50, "design": design}))
        for workers in ("1", "2"):
            out = tmp_path / f"{design}-{workers}"
            assert main(["simulate", "--config", str(config), "--out", str(out),
                         "--workers", workers]) == 0
            for name, pin in pins.items():
                assert sha256((out / name).read_bytes()) == pin, (design, workers, name)
    capsys.readouterr()


def test_generate_and_sample_files_pinned(tmp_path, capsys):
    recipe_path = Path(__file__).resolve().parent.parent / "configs" / "recipe.json"
    pop_csv = tmp_path / "pop.csv"
    assert main(["generate", "--recipe", str(recipe_path), "--seed", "1",
                 "--out", str(pop_csv)]) == 0
    assert sha256(pop_csv.read_bytes()) == GENERATE_SHA256
    with open(recipe_path, encoding="utf-8") as fh:
        pop = generate_population(PopulationRecipe.from_json(fh.read()), np.random.default_rng(1))
    back, missing = population_from_csv(pop_csv)
    for name in ("y", "z1", "v"):
        assert getattr(back, name).tobytes() == getattr(pop, name).tobytes(), name
    assert missing.tobytes() == np.zeros(pop.size, dtype=bool).tobytes()

    for design, pin in SAMPLE_SHA256.items():
        out = tmp_path / f"{design}.csv"
        assert main(["sample", "--population", str(pop_csv), "--design", design,
                     "--n", "100", "--seed", "2", "--out", str(out)]) == 0
        assert sha256(out.read_bytes()) == pin, design
        rng = np.random.default_rng(2)
        drawn = (srswor(pop.size, 100, rng) if design == "srswor"
                 else rejective_sample(pips_probabilities(pop.z1, 100), rng))
        sample, y, z1, v = sample_from_csv(out)
        idx = drawn.indices
        for got, want in ((sample.indices, idx), (sample.pi, drawn.pi), (sample.d, drawn.d),
                          (sample.respond, np.ones(100, dtype=bool)),
                          (y, pop.y[idx]), (z1, pop.z1[idx]), (v, pop.v[idx])):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), design
    capsys.readouterr()


def test_truths_and_rejective_draws_pinned():
    recipe_path = Path(__file__).resolve().parent.parent / "configs" / "recipe.json"
    with open(recipe_path, encoding="utf-8") as fh:
        pop = generate_population(PopulationRecipe.from_json(fh.read()), np.random.default_rng(1))
    t_alpha, f_alpha = population_truths(pop.y, (0.1, 0.25, 0.5, 0.75, 0.9, 1.0))
    assert sha256(np.array(t_alpha + f_alpha).tobytes()) == TRUTHS_SHA256

    # a pips design on 2,000 gamma sizes takes the multinomial proposal at
    # n = 20 and the Bernoulli one at n = 400
    sizes = np.random.default_rng(2).gamma(2.0, 5.0, 2000)
    for n, (proposal, pin) in REJECTIVE_SHA256.items():
        design = RejectiveDesign(pips_probabilities(sizes, n))
        assert design.proposal == proposal
        rng = np.random.default_rng(3)
        h = hashlib.sha256()
        for _ in range(5):
            sample = rejective_sample(design, rng)
            for x in (sample.indices, sample.pi, sample.d):
                h.update(x.tobytes())
        assert h.hexdigest() == pin, n
