import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from test_golden import write_sample_300

import balimpute
from balimpute import cli, imputation
from balimpute.cli import main
from balimpute.population import load_thompson_example
from balimpute.regression import fit_model
from balimpute.sampling import SampleData, sample_to_csv


def write_thompson_csv(path, respond=None):
    th = load_thompson_example()
    pi = np.full(10, 10 / 53)
    respond = th.respond if respond is None else respond
    s = SampleData(indices=np.arange(10), pi=pi, respond=respond)
    sample_to_csv(path, s, th.y, th.z1, th.z1)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_example_prints_reference_numbers(capsys):
    code, out, err = run(capsys, "example")
    assert code == 0
    assert "0.94" in out
    assert "4.38" in out
    assert "218.33" in out


def test_example_repeatable(capsys):
    _, out1, _ = run(capsys, "example", "--seed", "7")
    _, out2, _ = run(capsys, "example", "--seed", "7")
    assert out1 == out2


def test_generate_sample_pipeline(tmp_path, capsys):
    recipe = tmp_path / "r.json"
    recipe.write_text('{"n_units": 300, "beta": [1.0], "target_r2": 0.36}\n')
    pop = tmp_path / "pop.csv"
    smp = tmp_path / "smp.csv"
    code, _, _ = run(capsys, "generate", "--recipe", str(recipe),
                     "--seed", "3", "--out", str(pop))
    assert code == 0
    code, _, _ = run(capsys, "sample", "--population", str(pop),
                     "--design", "pips-rejective", "--n", "25",
                     "--seed", "4", "--out", str(smp))
    assert code == 0
    lines = smp.read_text().strip().splitlines()
    assert len(lines) == 26


def test_impute_ebri_fills_missing_rows(tmp_path, capsys):
    src = tmp_path / "s.csv"
    write_thompson_csv(src)
    out = tmp_path / "imp.csv"
    report = tmp_path / "rep.json"
    code, _, _ = run(capsys, "impute", "--input", str(src), "--method", "ebri",
                     "--seed", "11", "--out", str(out), "--report", str(report))
    assert code == 0
    rows = out.read_text().strip().splitlines()[1:]
    filled = [r for r in rows if r.split(",")[7] == "1"]
    assert len(filled) == 4
    rep = json.loads(report.read_text())
    assert rep["balance_relative_error"] < 1e-8
    assert len(rep["donors"]) == 4


def test_impute_dri_ignores_seed(tmp_path, capsys):
    src = tmp_path / "s.csv"
    write_thompson_csv(src)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "impute", "--input", str(src), "--method", "dri",
        "--seed", "1", "--out", str(a))
    run(capsys, "impute", "--input", str(src), "--method", "dri",
        "--seed", "2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_impute_rri_requires_seed(tmp_path, capsys):
    src = tmp_path / "s.csv"
    write_thompson_csv(src)
    code, _, err = run(capsys, "impute", "--input", str(src), "--method", "rri",
                       "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "--seed" in err


@pytest.mark.parametrize("command", ["generate", "sample", "impute", "example"])
def test_negative_seed_is_bad_usage(tmp_path, capsys, command):
    # every input is valid, so only the seed can stop the command
    recipe = tmp_path / "r.json"
    recipe.write_text('{"n_units": 100, "beta": [1.0], "target_r2": 0.36}\n')
    pop = tmp_path / "pop.csv"
    assert main(["generate", "--recipe", str(recipe), "--seed", "3", "--out", str(pop)]) == 0
    smp = tmp_path / "smp.csv"
    write_thompson_csv(smp)
    out = str(tmp_path / "out.csv")
    argv = {
        "generate": ["generate", "--recipe", str(recipe), "--out", out],
        "sample": ["sample", "--population", str(pop), "--n", "10", "--out", out],
        "impute": ["impute", "--input", str(smp), "--method", "rri", "--out", out],
        "example": ["example"],
    }[command]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_impute_malformed_csv_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,y,z1,v,pi,d,r\n1,1.0,1.0,1.0,0.5,2.0,1\n2,zzz,1.0,1.0,0.5,2.0,1\n")
    code, _, err = run(capsys, "impute", "--input", str(bad), "--method", "dri",
                       "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "line 3" in err


def corrupt_last_row(path, column, text, respondent=None, blank_before=False):
    """Set one field of a CSV file's last row, or of its last row whose r
    is ``respondent``, to ``text``.  A ``text`` of None drops the row's
    last field; a ``column`` of None appends ``text`` as a field beyond
    the header.  With ``blank_before``, a blank line goes in before the
    row.  Returns the row's line number."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    r = header.index("r") if respondent is not None else None
    lineno = max(i for i, line in enumerate(lines[1:], 2)
                 if r is None or line.split(",")[r] == str(int(respondent)))
    fields = lines[lineno - 1].split(",")
    if column is None:
        fields.append(text)
    elif text is None:
        fields.pop()
    else:
        fields[header.index(column)] = text
    lines[lineno - 1] = ",".join(fields)
    if blank_before:
        lines.insert(lineno - 1, "")
        lineno += 1
    path.write_text("\n".join(lines) + "\n")
    return lineno


# text "FIRST" stands for the id of the file's first row
@pytest.mark.parametrize("command, respondent, column, text, named, blank_before", [
    ("impute", True, "r", None, "r", False),
    ("impute", True, None, "1", "8", False),
    ("impute", False, "id", "FIRST", "id", False),
    ("impute", False, "v", "-1", "v", False),
    ("impute", True, "z1", "nan", "z1", False),
    ("impute", True, "v", "nan", "v", False),
    ("impute", False, "z1", "0", "z1", False),
    ("impute", True, "z1", "", "z1", False),
    ("impute", True, "pi", "0", "pi", False),
    ("impute", True, "pi", "1.5", "pi", False),
    ("impute", True, "y", "inf", "y", False),
    ("sample", None, "z1", "0", "z1", False),
    ("impute", False, "d", "999", "d", False),
    ("impute", True, "z1", "nan", "z1", True),
], ids=["short_row", "long_row", "repeated_id", "v_negative", "z1_nan", "v_nan", "z1_zero",
        "z1_empty", "pi_zero", "pi_above_one", "y_inf", "population_z1_zero", "d_not_one_over_pi",
        "blank_line_before_z1_nan"])
def test_bad_input_file_is_one_error_line(tmp_path, capsys, command, respondent, column, text,
                                          named, blank_before):
    if command == "impute":
        src = tmp_path / "s.csv"
        write_sample_300(src)
        expected = "error: cannot read sample: "
    else:
        src = tmp_path / "pop.csv"
        recipe = tmp_path / "r.json"
        recipe.write_text('{"n_units": 100, "beta": [1.0], "target_r2": 0.36}\n')
        assert main(["generate", "--recipe", str(recipe), "--seed", "3", "--out", str(src)]) == 0
        expected = "error: cannot read population: "
    if text == "FIRST":
        text = src.read_text().splitlines()[1].split(",")[0]
    lineno = corrupt_last_row(src, column, text, respondent, blank_before)
    out, report = tmp_path / "x.csv", tmp_path / "x.json"
    argv = {"impute": ["impute", "--input", str(src), "--method", "ebri", "--seed", "1",
                       "--out", str(out), "--report", str(report)],
            "sample": ["sample", "--population", str(src), "--n", "10", "--seed", "1",
                       "--out", str(out)]}[command]
    capsys.readouterr()
    code, stdout, err = run(capsys, *argv)
    assert code == 2 and stdout == ""
    assert len(err.splitlines()) == 1, err
    assert err.startswith(expected), err
    assert f"at line {lineno}, column {named}:" in err, err
    if column == "y":
        assert "must be finite where given" in err, err
    if column == "d":
        assert "must equal 1/pi within 1e-12 relative, got 999.0" in err, err
    assert not out.exists() and not report.exists()


@pytest.mark.parametrize("a", ["nan", "inf", "0", "-1"])
def test_impute_rejects_bad_floor(tmp_path, capsys, a):
    src = tmp_path / "s.csv"
    write_thompson_csv(src)
    out = tmp_path / "x.csv"
    code, _, err = run(capsys, "impute", "--input", str(src), "--method", "dri",
                       f"--a={a}", "--out", str(out))
    assert code == 2
    assert "--a" in err
    assert not out.exists()


def test_impute_without_respondents_is_bad_input(tmp_path, capsys):
    src = tmp_path / "s.csv"
    write_thompson_csv(src, respond=np.zeros(10, dtype=bool))
    out = tmp_path / "x.csv"
    code, _, err = run(capsys, "impute", "--input", str(src), "--method", "ebri",
                       "--seed", "1", "--out", str(out))
    assert code == 2
    assert "respondents" in err
    assert not out.exists()


# the report's balance target of dri overflows where one nonrespondent's
# d sqrt(v) does, though its imputed value and the total stay finite
HUGE_WEIGHT = {"pi": "1e-200", "d": "1e+200", "v": "1e300"}


@pytest.mark.parametrize("method, scale, swap_shares, corrupt, message", [
    ("ebri", 1.0, True, {}, "balance identity violated"),
    ("ebri", 1e304, False, {}, "the imputed total is not finite"),
    ("ebri", 1e305, False, {}, "the flight phase failed"),
    ("ebri", 1e306, False, {}, "the model fit is not finite"),
    ("dri", 1.0, False, HUGE_WEIGHT, "the report holds a non-finite value"),
], ids=["broken_balance", "y_1e304", "y_1e305", "y_1e306", "dri_report_not_finite"])
def test_impute_numerical_failure_writes_nothing(tmp_path, capsys, monkeypatch, method, scale,
                                                 swap_shares, corrupt, message):
    if swap_shares:
        real = imputation.flight_phase

        def swapped(problem, rng):
            # each row's two donors trade shares: a selection off the balance
            flight = real(problem, rng)
            return dataclasses.replace(flight, shares=flight.shares[:, ::-1].copy())

        monkeypatch.setattr(imputation, "flight_phase", swapped)
    src = tmp_path / "s.csv"
    write_sample_300(src, scale=scale)
    for column, text in corrupt.items():
        corrupt_last_row(src, column, text, respondent=False)
    out, report = tmp_path / "x.csv", tmp_path / "x.json"
    code, stdout, err = run(capsys, "impute", "--input", str(src), "--method", method,
                            "--seed", "1", "--out", str(out), "--report", str(report))
    assert code == 1
    assert stdout == ""
    assert len(err.splitlines()) == 1, err
    assert err.startswith(f"numerical failure: {message}"), err
    assert not out.exists() and not report.exists()


def donor_rows(sample, dataset):
    """The report's donors as dicts, for ``json.dumps`` to encode: the
    reference the report's donor text must match byte for byte."""
    ids = (sample.indices + 1).tolist()
    col_ids = [str(ids[j]) for j in dataset.col_units.tolist()]
    return [
        {"unit": ids[i], "pure": pure,
         "weights": {col_ids[j]: s for j, s in zip(donors, shares) if s > 0}}
        for i, pure, donors, shares in zip(dataset.row_units.tolist(), dataset.pure.tolist(),
                                           dataset.donors.tolist(), dataset.shares.tolist())
    ]


def imputed_datasets(tmp_path):
    """Datasets of each method on the n = 300 sample, and two built by
    hand: rows whose donor ids sort otherwise as text than as numbers, a
    row of three donors, a donor named twice, a row with no positive share,
    and a dataset with no row."""
    src = tmp_path / "s.csv"
    write_sample_300(src)
    sample, y, z1, v = cli.sample_from_csv(src)
    fit = fit_model(z1[:, None], y, v, sample.respond, round(float(sample.d.sum())))
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        yield sample, imputation.impute_rri(fit, z1[:, None], y, v, rng)
        yield sample, imputation.impute_ebri(fit, z1[:, None], y, v, sample.d, rng)
    pi = np.full(5, 0.5)
    small = SampleData(indices=np.array([0, 8, 44, 99, 444]), pi=pi)
    by_hand = imputation.ImputedDataset(
        method="ebri", y_star=np.zeros(5), eps_star=np.zeros(5),
        respond=np.array([False, True, True, True, False]),
        row_units=np.array([0, 4]), col_units=np.array([1, 2, 3]),
        donors=np.array([[2, 0, 1], [1, 1, 0]]), shares=np.array([[0.25, 0.5, 0.25], [0.5, 0.5, 0.0]]),
        pure=np.array([False, True]))
    yield small, by_hand
    yield small, dataclasses.replace(by_hand, shares=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    yield small, dataclasses.replace(by_hand, row_units=np.zeros(0, dtype=np.int64),
                                     donors=np.zeros((0, 1), dtype=np.int64),
                                     shares=np.zeros((0, 1)), pure=np.zeros(0, dtype=bool))


def report_bytes(path, report, sample, dataset):
    """The report file ``impute --report`` writes for ``report`` and ``dataset``."""
    cli._write_report(path, cli._report_parts(report, dataset), sample, dataset)
    return path.read_bytes()


def test_report_text_matches_json_encoder(tmp_path, monkeypatch):
    report = {"balance_target": 1.5, "balance_achieved": 1.5, "balance_relative_error": 0.0,
              "method": "ebri", "model": {"beta": [0.5], "respondents": [1, 2]}, "nhat": 10.0}
    path = tmp_path / "report.json"
    # the donor rows in one chunk, and across many
    for chunk_rows in (cli.CHUNK_ROWS, 7):
        monkeypatch.setattr(cli, "CHUNK_ROWS", chunk_rows)
        for sample, dataset in imputed_datasets(tmp_path):
            want = json.dumps({**report, "donors": donor_rows(sample, dataset)}, indent=2,
                              sort_keys=True) + "\n"
            assert report_bytes(path, report, sample, dataset) == want.encode(), chunk_rows
    dri = dataclasses.replace(dataset, donors=None, shares=None, pure=None)
    want = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert report_bytes(path, report, sample, dri) == want.encode()


def test_simulate_missing_config(tmp_path, capsys):
    code, _, err = run(capsys, "simulate", "--config", str(tmp_path / "none.json"),
                       "--out", str(tmp_path / "res"))
    assert code == 2
    assert "config" in err


def test_simulate_requires_seed(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "populations": [{"n_units": 200, "beta": [1.0], "target_r2": 0.36}],
        "mechanisms": [{"kind": "mcar", "level": 0.5}],
        "replications": 2, "sample_size": 10,
    }))
    code, _, err = run(capsys, "simulate", "--config", str(cfg),
                       "--out", str(tmp_path / "res"))
    assert code == 2
    assert "seed" in err


def test_simulate_dry_run_touches_nothing(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "seed": 5,
        "populations": [{"n_units": 200, "beta": [1.0], "target_r2": 0.36}],
        "mechanisms": [{"kind": "mcar", "level": 0.5}],
        "replications": 2, "sample_size": 10,
    }))
    outdir = tmp_path / "res"
    code, out, _ = run(capsys, "simulate", "--config", str(cfg),
                       "--out", str(outdir), "--dry-run")
    assert code == 0
    assert not outdir.exists()
    resolved = json.loads(out)
    assert resolved["seed"] == 5
    assert resolved["replications"] == 2


def test_beta_of_two_entries_is_bad_input(tmp_path, capsys):
    pop = {"n_units": 200, "beta": [1, 5], "target_r2": 0.36}
    recipe = tmp_path / "r.json"
    recipe.write_text(json.dumps(pop))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "seed": 5, "populations": [pop], "mechanisms": [{"kind": "mcar", "level": 0.5}],
        "replications": 2, "sample_size": 10,
    }))
    code, out, err = run(capsys, "simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "res"), "--dry-run")
    assert code == 2 and out == ""
    assert "one slope" in err
    code, _, err = run(capsys, "generate", "--recipe", str(recipe), "--seed", "1",
                       "--out", str(tmp_path / "pop.csv"))
    assert code == 2
    assert "one slope" in err
    assert not (tmp_path / "pop.csv").exists()


@pytest.mark.parametrize("override", [
    {"alphas": [0]},
    {"alphas": [1.5]},
    {"sample_size": 0},
    {"sample_size": 201},
    {"mechanisms": [{"kind": "mcar", "level": 1.5}]},
    {"mechanisms": [{"kind": "mar", "level": 1.5}]},
    {"seed": -1},
    {"mar_lambda1": float("nan")},
    {"sampel_size": 10},
    {"populations": [{"n_units": 200, "beta": [1.0], "target_r2": 0.36, "gamma_shpe": 3.0}]},
    {"mechanisms": [{"kind": "mcar", "levle": 0.5}]},
    {"workers": 2.0},
    {"sample_size": 20.5},
    {"mechanisms": [{"kind": "mcar", "level": 0.5}, {"kind": "mcar", "level": 0.5000001}]},
    {"methods": ["rri", "ebri", "rri"]},
    {"methods": []},
])
def test_simulate_dry_run_rejects_configs_that_cannot_run(tmp_path, capsys, override):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "seed": 5,
        "populations": [{"n_units": 200, "beta": [1.0], "target_r2": 0.36}],
        "mechanisms": [{"kind": "mcar", "level": 0.5}],
        "replications": 2, "sample_size": 10,
        **override,
    }))
    code, out, err = run(capsys, "simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "res"), "--dry-run")
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad config")
    assert len(err.splitlines()) == 1, err
    for key in ("sampel_size", "gamma_shpe", "levle", "workers", "sample_size"):
        assert (key in err) == (key in json.dumps(override)), err


def test_simulate_rejects_nonpositive_workers(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "seed": 5,
        "populations": [{"n_units": 200, "beta": [1.0], "target_r2": 0.36}],
        "mechanisms": [{"kind": "mcar", "level": 0.5}],
    }))
    code, out, err = run(capsys, "simulate", "--config", str(cfg), "--out",
                         str(tmp_path / "res"), "--workers", "0", "--dry-run")
    assert code == 2
    assert out == ""
    assert "workers" in err


def test_simulate_tiny_run_writes_tables(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "seed": 6,
        "populations": [{"n_units": 300, "beta": [1.0], "target_r2": 0.64}],
        "mechanisms": [{"kind": "mcar", "level": 0.5}],
        "replications": 10, "sample_size": 20,
    }))
    outdir = tmp_path / "res"
    code, _, _ = run(capsys, "simulate", "--config", str(cfg), "--out", str(outdir))
    assert code == 0
    assert (outdir / "table_total.csv").exists()
    assert (outdir / "table_df.csv").exists()
    assert (outdir / "run_meta.json").exists()


def test_seed_override_beats_config(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "seed": 5,
        "populations": [{"n_units": 200, "beta": [1.0], "target_r2": 0.36}],
        "mechanisms": [{"kind": "mcar", "level": 0.5}],
        "replications": 2, "sample_size": 10,
    }))
    code, out, _ = run(capsys, "simulate", "--config", str(cfg),
                       "--out", str(tmp_path / "r"), "--seed", "99", "--dry-run")
    assert code == 0
    assert json.loads(out)["seed"] == 99


def test_readme_python_block_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("From Python:")[1].split("```python\n")[1].split("```")[0]
    imported = re.search(r"^from balimpute import (.+)$", block, re.M).group(1).split(", ")
    assert set(imported) <= set(balimpute.__all__)
    exec(compile(block, "README.md", "exec"), {})
    # the README block is the example's imputation at its default seed
    assert f"{float(capsys.readouterr().out):.2f}" == "218.33"


def test_unknown_flag_rejected(tmp_path, monkeypatch):
    # the removed purity flag of impute is rejected, not ignored
    monkeypatch.chdir(tmp_path)
    write_thompson_csv(tmp_path / "s.csv")
    for argv in (["example", "--frobnicate"],
                 ["impute", "--input", "s.csv", "--method", "ebri", "--seed", "1",
                  "--no-purity-vars", "--out", "x.csv"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert [p.name for p in tmp_path.iterdir()] == ["s.csv"], argv
