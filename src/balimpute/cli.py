"""Command-line interface.

Subcommands: generate (synthetic population), sample (draw a sample),
impute (fill a sample CSV), simulate (Monte Carlo experiment), example
(the bundled money-guess walkthrough).  Exit codes: 0 success, 1 numerical
failure (a balance identity that should hold does not), 2 bad usage or
unreadable input.  Every stochastic subcommand takes an explicit --seed so
reruns are byte-identical.
"""

import argparse
import json
import sys

import numpy as np

from . import __version__
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
from .regression import ModelSpec, fit_model
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
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
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
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "y", "z1", "v", "pi", "d", "r", "imputed", "eps_star"])
        for i in range(sample.size):
            w.writerow([
                int(sample.indices[i]) + 1,
                repr(float(dataset.y_star[i])),
                repr(float(z1[i])),
                repr(float(v[i])),
                repr(float(sample.pi[i])),
                repr(float(sample.d[i])),
                int(dataset.respond[i]),
                int(not dataset.respond[i]),
                repr(float(dataset.eps_star[i])),
            ])


def cmd_impute(args) -> int:
    if args.method in ("rri", "ebri") and args.seed is None:
        raise InputError(f"--seed is required for the stochastic method {args.method!r}")
    try:
        sample, y, z1, v = sample_from_csv(args.input)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read sample: {exc}") from exc
    spec = ModelSpec(a=args.a)
    fit = fit_model(z1[:, None], y, v, sample.respond, round(nhat(sample.d)), spec=spec)
    rng = np.random.default_rng(args.seed) if args.seed is not None else None
    if args.method == "dri":
        ds = impute_dri(fit, z1[:, None], y, v)
    elif args.method == "rri":
        ds = impute_rri(fit, z1[:, None], y, v, rng)
    else:
        ds = impute_ebri(fit, z1[:, None], y, v, sample.d, rng,
                         with_purity_vars=not args.no_purity_vars)
    _write_imputed_csv(args.out, sample, ds, z1, v)

    target, achieved, rel = _balance_report(fit, ds, sample.d, v)
    if args.report:
        report = {
            "method": ds.method,
            "n_sample": sample.size,
            "n_respondents": int(ds.respond.sum()),
            "n_imputed": ds.n_imputed,
            "balance_target": target,
            "balance_achieved": achieved,
            "balance_relative_error": rel,
            "total_imputed": imputed_total(ds, sample.d),
            "nhat": nhat(sample.d),
        }
        if ds.donor_weights is not None:
            report["donors"] = [
                {
                    "unit": int(sample.indices[ds.row_units[k]]) + 1,
                    "pure": bool(ds.pure[k]),
                    "weights": {
                        str(int(sample.indices[ds.col_units[j]]) + 1): float(wj)
                        for j, wj in enumerate(ds.donor_weights[k])
                        if wj > 0
                    },
                }
                for k in range(ds.n_imputed)
            ]
        if ds.flight is not None:
            report["flight_steps"] = ds.flight.steps
            report["fractional_cells"] = ds.flight.n_fractional
        if args.explain:
            report["model"] = fit.report_dict()
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"imputed {ds.n_imputed} of {sample.size} units with {ds.method}; wrote {args.out}")
    if ds.method == "ebri" and rel > BALANCE_RTOL:
        raise NumericalFailure(f"balance identity violated: relative error {rel:.3e}")
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
    print(f"money-guess sample: N={th.n_population}, n={th.n_sample}, "
          f"d={th.d[0]:g} for every unit")
    print(f"ratio-model fit on {int(th.respond.sum())} respondents: b = {fit.beta[0]:.2f}")
    print("unit  z1      y       residual")
    for i in range(th.n_sample):
        ei = f"{fit.residuals[i]:7.2f}" if th.respond[i] else "      -"
        yi = f"{th.y[i]:6.2f}" if th.respond[i] else "     -"
        print(f"{i+1:>4}  {th.z1[i]:6.2f}  {yi}  {ei}")
    nonresp = ~th.respond
    dv = th.d[nonresp] * np.sqrt(th.z1[nonresp])
    target = float(dv.sum() * fit.ebar_r)
    print(f"donation-weighted mean residual: {fit.ebar_r:.4f}")
    print(f"balance target sum d(1-r)sqrt(v) ebar: {target:.2f}")

    rng = np.random.default_rng(args.seed)
    ds = impute_ebri(fit, z, th.y, th.z1, th.d, rng)
    print(f"exact balanced imputation (seed {args.seed}):")
    print("unit  donors (unit:weight)      eps*     y*")
    for k in range(ds.n_imputed):
        i = ds.row_units[k]
        parts = [
            f"{int(ds.col_units[j])+1}:{wj:.2f}"
            for j, wj in enumerate(ds.donor_weights[k])
            if wj > 0
        ]
        print(f"{i+1:>4}  {' '.join(parts):<24} {ds.eps_star[i]:6.2f}  {ds.y_star[i]:6.2f}")

    target, achieved, rel = _balance_report(fit, ds, th.d, th.z1)
    print(f"achieved balance: {achieved:.2f} (relative error {rel:.1e})")
    resp_total = float(th.d[th.respond] @ th.y[th.respond])
    print(f"respondent-only part of the total: {resp_total:.2f}")
    print(f"imputed total: {imputed_total(ds, th.d):.2f}")
    if rel > BALANCE_RTOL:
        raise NumericalFailure(f"balance identity violated: relative error {rel:.3e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="balimpute",
        description="Balanced random imputation for survey samples",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic population CSV")
    g.add_argument("--recipe", required=True, help="population recipe JSON")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True, help="output population CSV")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("sample", help="draw a sample from a population CSV")
    s.add_argument("--population", required=True)
    s.add_argument("--design", choices=("srswor", "pips-rejective"), default="pips-rejective")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--out", required=True, help="output sample CSV")
    s.set_defaults(func=cmd_sample)

    i = sub.add_parser("impute", help="impute the missing y values of a sample CSV")
    i.add_argument("--input", required=True, help="sample CSV")
    i.add_argument("--method", choices=("dri", "rri", "ebri"), required=True)
    i.add_argument("--seed", type=int, help="required for rri and ebri")
    i.add_argument("--out", required=True, help="output imputed CSV")
    i.add_argument("--report", help="write a JSON imputation report here")
    i.add_argument("--explain", action="store_true", help="include the model fit in the report")
    i.add_argument("--a", type=float, help="eigenvalue floor override")
    i.add_argument("--no-purity-vars", action="store_true",
                   help="balance only the imputed total, not per-row purity")
    i.set_defaults(func=cmd_impute)

    m = sub.add_parser("simulate", help="run a Monte Carlo experiment from a config JSON")
    m.add_argument("--config", required=True)
    m.add_argument("--out", default="results", help="output directory")
    m.add_argument("--seed", type=int, help="override the config seed")
    m.add_argument("--replications", type=int, help="override the config replications")
    m.add_argument("--workers", type=int, help="override the config worker count")
    m.add_argument("--dry-run", action="store_true",
                   help="print the resolved config and exit without running")
    m.set_defaults(func=cmd_simulate)

    e = sub.add_parser("example", help="walk through the bundled money-guess sample")
    e.add_argument("--seed", type=int, default=1234)
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
