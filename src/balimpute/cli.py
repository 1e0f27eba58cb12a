"""Command-line interface.

Subcommands: generate (synthetic population), sample (draw a sample),
impute (fill a sample CSV), simulate (Monte Carlo experiment), example
(the bundled money-guess walkthrough).  Exit codes: 0 success, 1 numerical
failure (a balance identity that should hold does not, or a fit, imputed
value or total is not finite), 2 bad usage or unreadable input.  Every
stochastic subcommand takes an explicit --seed so reruns are
byte-identical.
"""

import argparse
import json
import sys

import numpy as np

from . import __version__
from .csvio import CHUNK_ROWS, write_csv
from .cube import FlightPhaseError
from .estimators import imputed_total, nhat
from .harness import ExperimentConfig, run_experiment, write_tables
from .imputation import impute_dri, impute_ebri, impute_rri
from .population import (
    PopulationRecipe,
    generate_population,
    load_thompson_example,
    population_from_csv,
    population_to_csv,
)
from .regression import ModelSpec, NoRespondentsError, fit_model
from .sampling import (
    pips_probabilities,
    rejective_sample,
    sample_from_csv,
    sample_to_csv,
    srswor,
)

BALANCE_RTOL = 1e-8


class InputError(Exception):
    """Unusable input file or option combination (exit code 2)."""


class NumericalFailure(Exception):
    """A required numerical identity failed (exit code 1)."""


def _balance_report(fit, dataset, d, v):
    """Achieved vs target imputation balance and its relative error."""
    nonresp = ~dataset.respond
    dv = d[nonresp] * np.sqrt(v[nonresp])
    target = float(dv.sum() * fit.ebar_r)
    achieved = float(dv @ dataset.eps_star[nonresp])
    rel = abs(achieved - target) / max(1.0, abs(target))
    return target, achieved, rel


def cmd_generate(args) -> int:
    try:
        with open(args.recipe, encoding="utf-8") as fh:
            recipe = PopulationRecipe.from_json(fh.read())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"cannot read recipe: {exc}") from exc
    rng = np.random.default_rng(args.seed)
    pop = generate_population(recipe, rng)
    population_to_csv(pop, args.out)
    print(f"wrote {pop.size} units to {args.out} (sigma2 = {recipe.noise_variance():.6g})")
    return 0


def cmd_sample(args) -> int:
    try:
        pop, missing = population_from_csv(args.population)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read population: {exc}") from exc
    if not 0 < args.n <= pop.size:
        raise InputError(f"sample size {args.n} out of range for N={pop.size}")
    rng = np.random.default_rng(args.seed)
    if args.design == "srswor":
        sample = srswor(pop.size, args.n, rng)
    else:
        pi = pips_probabilities(pop.z1, args.n)
        sample = rejective_sample(pi, rng)
    idx = sample.indices
    sample = sample.with_response(~missing[idx])
    sample_to_csv(args.out, sample, pop.y[idx], pop.z1[idx], pop.v[idx])
    print(f"wrote sample of {sample.size} units to {args.out}")
    return 0


def _write_imputed_csv(path, sample, dataset, z1, v):
    write_csv(path, ("id", "y", "z1", "v", "pi", "d", "r", "imputed", "eps_star"),
              (sample.indices + 1, dataset.y_star, z1, v, sample.pi, sample.d,
               dataset.respond.astype(np.int64), (~dataset.respond).astype(np.int64),
               dataset.eps_star))


def _donors_text(sample, dataset):
    """The report's donors as ``json.dumps(indent=2, sort_keys=True)``
    writes them as a value of the report, yielded in pieces of CHUNK_ROWS
    rows: per nonrespondent, its unit id, purity and the donor unit ids it
    takes a share of, with those shares.  Formatted row by row, not by
    json's pure-Python indenting encoder; the shares must be finite."""
    n_rows = dataset.row_units.size
    if not n_rows:
        yield "[]"
        return
    unit_ids = sample.indices + 1
    col_ids = unit_ids[dataset.col_units]
    heads = ('    {\n      "pure": false,\n      "unit": ',
             '    {\n      "pure": true,\n      "unit": ')
    sep = "[\n"
    for start in range(0, n_rows, CHUNK_ROWS):
        part = slice(start, start + CHUNK_ROWS)
        shares, donor_ids = dataset.shares[part], col_ids[dataset.donors[part]]
        # most rows take one donor: its share and id need no dict and no sort
        positive = shares > 0
        slot = positive.argmax(axis=1)
        row = np.arange(shares.shape[0])
        one = (positive.sum(axis=1) == 1).tolist()
        rows = []
        for unit, pure, single, donor, share, donors, row_shares in zip(
                unit_ids[dataset.row_units[part]].tolist(), dataset.pure[part].tolist(), one,
                donor_ids[row, slot].tolist(), shares[row, slot].tolist(),
                donor_ids.tolist(), shares.tolist()):
            if single:
                weights = f'{{\n        "{donor}": {share!r}\n      }}'
            else:
                pairs = sorted({str(j): s for j, s in zip(donors, row_shares) if s > 0}.items())
                weights = ("{\n" + ",\n".join(f'        "{j}": {s!r}' for j, s in pairs)
                           + "\n      }" if pairs else "{}")
            rows.append(f'{heads[pure]}{unit},\n      "weights": {weights}\n    }}')
        yield sep + ",\n".join(rows)
        sep = ",\n"
    yield "\n  ]"


def _report_parts(report, dataset) -> tuple[str, str]:
    """``json.dumps(report, indent=2, sort_keys=True)`` plus a newline, as
    the text before and the text after the dataset's donors, which go
    under "donors" where it has them; the second part is empty where it
    has none.  A non-finite value or share is json's ValueError."""
    if dataset.donors is None:
        return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n", ""
    if not np.isfinite(dataset.shares).all():
        raise ValueError("Out of range float values are not JSON compliant")
    # a stand-in for the donors' text: the first top-level value after the
    # three numeric balance_* values
    text = json.dumps({**report, "donors": None}, indent=2, sort_keys=True, allow_nan=False)
    head, tail = text.split('"donors": null', 1)
    return head + '"donors": ', tail + "\n"


def _write_report(path, parts, sample, dataset):
    """The report file: ``_report_parts``' two texts, with the donor rows
    written between them a chunk at a time, as they are formatted."""
    head, tail = parts
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        if dataset.donors is not None:
            fh.writelines(_donors_text(sample, dataset))
        fh.write(tail)


def cmd_impute(args) -> int:
    if args.method in ("rri", "ebri") and args.seed is None:
        raise InputError(f"--seed is required for the stochastic method {args.method!r}")
    if args.a is not None and not (np.isfinite(args.a) and args.a > 0):
        raise InputError(f"--a must be positive and finite, got {args.a}")
    try:
        sample, y, z1, v = sample_from_csv(args.input)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read sample: {exc}") from exc
    spec = ModelSpec(a=args.a)
    rng = np.random.default_rng(args.seed) if args.seed is not None else None
    # overflow runs silently here: the checks below make a non-finite fit,
    # imputed value or total a numerical failure before anything is written
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            fit = fit_model(z1[:, None], y, v, sample.respond, round(nhat(sample.d)), spec=spec)
        except NoRespondentsError as exc:
            raise InputError(f"cannot impute {args.input}: {exc}") from exc
        # ebar_r is finite only if every respondent's residual is
        if not (np.isfinite(fit.beta).all() and np.isfinite(fit.ebar_r)):
            raise NumericalFailure(f"the model fit is not finite (beta = {fit.beta.tolist()})")
        if args.method == "dri":
            ds = impute_dri(fit, z1[:, None], y, v)
        elif args.method == "rri":
            ds = impute_rri(fit, z1[:, None], y, v, rng)
        else:
            try:
                ds = impute_ebri(fit, z1[:, None], y, v, sample.d, rng)
            except FlightPhaseError as exc:
                raise NumericalFailure(f"the flight phase failed: {exc}") from exc
        if not np.isfinite(ds.y_star).all():
            raise NumericalFailure("an imputed value is not finite")
        total = imputed_total(ds, sample.d)
        target, achieved, rel = _balance_report(fit, ds, sample.d, v)
    if not np.isfinite(total):
        raise NumericalFailure(f"the imputed total is not finite: {total}")
    if ds.method == "ebri" and not rel <= BALANCE_RTOL:
        raise NumericalFailure(f"balance identity violated: relative error {rel:.3e}")

    if args.report:
        report = {
            "method": ds.method,
            "n_sample": sample.size,
            "n_respondents": int(ds.respond.sum()),
            "n_imputed": ds.n_imputed,
            "balance_target": target,
            "balance_achieved": achieved,
            "balance_relative_error": rel,
            "total_imputed": total,
            "nhat": nhat(sample.d),
        }
        if ds.steps is not None:
            # every nonzero cell of the flight's end is among the shares
            report["flight_steps"] = ds.steps
            report["fractional_cells"] = int(np.count_nonzero((ds.shares > 0) & (ds.shares < 1)))
        if args.explain:
            report["model"] = fit.report_dict()
        try:
            report_parts = _report_parts(report, ds)
        except ValueError as exc:
            raise NumericalFailure(f"the report holds a non-finite value: {exc}") from exc
    _write_imputed_csv(args.out, sample, ds, z1, v)
    if args.report:
        _write_report(args.report, report_parts, sample, ds)
    print(f"imputed {ds.n_imputed} of {sample.size} units with {ds.method}; wrote {args.out}")
    return 0


def cmd_simulate(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg_dict = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read config: {exc}") from exc
    if args.seed is not None:
        cfg_dict["seed"] = args.seed
    if args.replications is not None:
        cfg_dict["replications"] = args.replications
    if args.workers is not None:
        cfg_dict["workers"] = args.workers
    if "seed" not in cfg_dict:
        raise InputError("a seed is required: set it in the config or pass --seed")
    try:
        config = ExperimentConfig.from_dict(cfg_dict)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad config: {exc}") from exc
    if args.dry_run:
        print(json.dumps(config.to_dict(), indent=2, sort_keys=True))
        return 0
    result = run_experiment(config)
    write_tables(result, args.out)
    print(f"wrote table_total.csv, table_df.csv, run_meta.json to {args.out} "
          f"({result.elapsed_seconds:.1f} s)")
    return 0


def cmd_example(args) -> int:
    th = load_thompson_example()
    z = th.z1[:, None]
    fit = fit_model(z, th.y, th.z1, th.respond, th.n_population)
    ds = impute_ebri(fit, z, th.y, th.z1, th.d, np.random.default_rng(args.seed))
    target, achieved, rel = _balance_report(fit, ds, th.d, th.z1)
    print(f"money-guess sample: N={th.n_population}, n={th.n_sample}, "
          f"d={th.d[0]:g} for every unit")
    print(f"ratio-model fit on {int(th.respond.sum())} respondents: b = {fit.beta[0]:.2f}")
    print("unit  z1      y       residual")
    for i in range(th.n_sample):
        ei = f"{fit.residuals[i]:7.2f}" if th.respond[i] else "      -"
        yi = f"{th.y[i]:6.2f}" if th.respond[i] else "     -"
        print(f"{i+1:>4}  {th.z1[i]:6.2f}  {yi}  {ei}")
    print(f"donation-weighted mean residual: {fit.ebar_r:.4f}")
    print(f"balance target sum d(1-r)sqrt(v) ebar: {target:.2f}")
    print(f"exact balanced imputation (seed {args.seed}):")
    print("unit  donors (unit:weight)      eps*     y*")
    for i, donors, shares in zip(ds.row_units, ds.donors.tolist(), ds.shares.tolist()):
        parts = [f"{ds.col_units[j] + 1}:{s:.2f}" for j, s in sorted(zip(donors, shares)) if s > 0]
        print(f"{i+1:>4}  {' '.join(parts):<24} {ds.eps_star[i]:6.2f}  {ds.y_star[i]:6.2f}")
    print(f"achieved balance: {achieved:.2f} (relative error {rel:.1e})")
    resp_total = float(th.d[th.respond] @ th.y[th.respond])
    print(f"respondent-only part of the total: {resp_total:.2f}")
    print(f"imputed total: {imputed_total(ds, th.d):.2f}")
    if not rel <= BALANCE_RTOL:
        raise NumericalFailure(f"balance identity violated: relative error {rel:.3e}")
    return 0


def _seed(text: str) -> int:
    """A --seed value: numpy seeds generators from non-negative integers."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="balimpute",
        description="Balanced random imputation for survey samples",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic population CSV")
    g.add_argument("--recipe", required=True, help="population recipe JSON")
    g.add_argument("--seed", type=_seed, required=True)
    g.add_argument("--out", required=True, help="output population CSV")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("sample", help="draw a sample from a population CSV")
    s.add_argument("--population", required=True)
    s.add_argument("--design", choices=("srswor", "pips-rejective"), default="pips-rejective")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--seed", type=_seed, required=True)
    s.add_argument("--out", required=True, help="output sample CSV")
    s.set_defaults(func=cmd_sample)

    i = sub.add_parser("impute", help="impute the missing y values of a sample CSV")
    i.add_argument("--input", required=True, help="sample CSV")
    i.add_argument("--method", choices=("dri", "rri", "ebri"), required=True)
    i.add_argument("--seed", type=_seed, help="required for rri and ebri")
    i.add_argument("--out", required=True, help="output imputed CSV")
    i.add_argument("--report", help="write a JSON imputation report here")
    i.add_argument("--explain", action="store_true", help="include the model fit in the report")
    i.add_argument("--a", type=float, help="eigenvalue floor override")
    i.set_defaults(func=cmd_impute)

    m = sub.add_parser("simulate", help="run a Monte Carlo experiment from a config JSON")
    m.add_argument("--config", required=True)
    m.add_argument("--out", default="results", help="output directory")
    m.add_argument("--seed", type=_seed, help="override the config seed")
    m.add_argument("--replications", type=int, help="override the config replications")
    m.add_argument("--workers", type=int, help="override the config worker count")
    m.add_argument("--dry-run", action="store_true",
                   help="print the resolved config and exit without running")
    m.set_defaults(func=cmd_simulate)

    e = sub.add_parser("example", help="walk through the bundled money-guess sample")
    e.add_argument("--seed", type=_seed, default=1234)
    e.set_defaults(func=cmd_example)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
