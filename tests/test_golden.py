"""Seeded outputs pinned byte for byte.

Refactors of the flight, the imputed dataset, the harness and the CLI
writers must not move these: ``example``'s stdout at two seeds, the donor
selection and flight diagnostics of a seeded ``impute --method ebri``
report on an n = 300 sample, the seeded ``rri`` imputed CSV, the CSV and
report of a seeded ``impute --method ebri --no-purity-vars`` on that
sample, and the tables of a small seeded ``simulate`` on each design, the
same at one worker and at two.  The ebri report's donors, steps and
fractional cells depend only on the flight's trajectory, not on how the
split row's residual mix is rounded, so they are pinned exactly.  The
n = 300 sample is drawn with numpy alone, so the ``impute`` pins do not
depend on the package's population generator or sampler; the ``simulate``
pins cover those.
"""

import hashlib
import json

import numpy as np

from balimpute.cli import main
from balimpute.sampling import SampleData, sample_to_csv

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
RRI_CSV_SHA256 = "d3f16bfdcc5b68b0815f6d8376fa639b0b616523519cc088e5906b6a97d0d7aa"
NO_PURITY_CSV_SHA256 = "71fa2cace826d4979ac981360693483c819af731dbea8133ca0c2ad2041143e5"
NO_PURITY_REPORT_SHA256 = "54a0c026092c968d8bf22bb79c8172d83d7c4b42f19b16fe993d49a514b946ce"
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


def write_sample_300(path):
    """A 300-unit sample, 152 respondents, with unequal weights."""
    rng = np.random.default_rng(20_161_018)
    n = 300
    z1 = rng.gamma(2.0, 5.0, n)
    y = z1 + np.sqrt(z1) * rng.normal(0.0, 3.0, n)
    pi = rng.uniform(0.01, 0.05, n)
    respond = rng.random(n) < 0.55
    sample = SampleData(indices=np.sort(rng.choice(100_000, n, replace=False)), pi=pi,
                        d=1.0 / pi, respond=respond)
    sample_to_csv(path, sample, y, z1, z1)


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

    out = tmp_path / "rri.csv"
    assert main(["impute", "--input", str(src), "--method", "rri", "--seed", "1102",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert sha256(out.read_bytes()) == RRI_CSV_SHA256


def test_impute_without_purity_vars_pinned(tmp_path, capsys):
    # the one-balance-row flight of --no-purity-vars: 148 x 152 cells
    src = tmp_path / "s.csv"
    write_sample_300(src)
    out, rep = tmp_path / "ebri.csv", tmp_path / "ebri.json"
    assert main(["impute", "--input", str(src), "--method", "ebri", "--seed", "1103",
                 "--no-purity-vars", "--out", str(out), "--report", str(rep)]) == 0
    capsys.readouterr()
    assert sha256(out.read_bytes()) == NO_PURITY_CSV_SHA256
    assert sha256(rep.read_bytes()) == NO_PURITY_REPORT_SHA256


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
