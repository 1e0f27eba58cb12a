"""Monte Carlo harness: repeated sampling, response, imputation, estimation.

One experiment crosses synthetic populations with response mechanisms.  Per
replicate the drawn sample and the response set are shared by all imputation
methods, so method comparisons are paired.  Replicate r uses a generator
seeded by SeedSequence(seed, spawn_key=(population, mechanism, r)), which
makes every replicate reproducible in isolation and the aggregate results
independent of how replicates are distributed over workers.
"""

import contextlib
import csv
import json
import logging
import os
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .cube import FlightPhaseError
from .estimators import imputed_fhat, imputed_total, population_truths
from .imputation import (
    Mcar,
    calibrate_mar,
    generate_response,
    impute_dri,
    impute_ebri,
    impute_rri,
)
from .population import PopulationRecipe, draw_sizes, generate_population
from .regression import NoRespondentsError, fit_model
from .sampling import (
    RejectiveDesign,
    SamplingError,
    pips_probabilities,
    rejective_sample,
    srswor,
)

log = logging.getLogger(__name__)

MAX_ABORT_FRACTION = 0.01
# Numerical failures a replicate may end in: the flight phase stops, the
# rejective sampler does not reach the target size, or the drawn sample has
# no respondents.  Any other exception is a bug and propagates.
ABORT_ERRORS = (FlightPhaseError, SamplingError, NoRespondentsError)
METHODS = ("dri", "rri", "ebri")
WORKERS_ENV = "BALIMPUTE_WORKERS"
# from_dict's conversion of the optional config fields it is given; fields
# not listed here are taken as they are, absent ones keep their default
_FIELD_COERCIONS = {
    "sample_size": int,
    "replications": int,
    "mar_lambda1": float,
    "methods": tuple,
    "alphas": lambda alphas: tuple(float(a) for a in alphas),
    "keep_replicates": bool,
}


@dataclass(frozen=True)
class MechanismSpec:
    """Response mechanism request: mcar (level = phi0), mar (level = target
    mean response, slope from the config), or full (everyone responds)."""

    kind: str
    level: float | None = None

    def __post_init__(self):
        if self.kind not in ("mcar", "mar", "full"):
            raise ValueError(f"unknown mechanism kind {self.kind!r}")
        if self.kind == "full":
            if self.level is not None:
                raise ValueError("full response takes no level")
        elif self.level is None:
            raise ValueError(f"{self.kind} needs a level")
        elif not 0.0 < self.level < 1.0:
            raise ValueError(f"{self.kind} level must lie strictly inside (0, 1), got {self.level}")

    @property
    def label(self) -> str:
        return "full" if self.kind == "full" else f"{self.kind}{self.level:g}"


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    populations: tuple[PopulationRecipe, ...]
    mechanisms: tuple[MechanismSpec, ...]
    sample_size: int = 100
    replications: int = 1000
    design: str = "pips-rejective"
    mar_lambda1: float = 0.1
    methods: tuple[str, ...] = METHODS
    alphas: tuple[float, ...] = (0.25, 0.5)
    workers: int | None = None
    keep_replicates: bool = False

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.design not in ("pips-rejective", "srswor"):
            raise ValueError(f"unknown design {self.design!r}")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        if not self.populations:
            raise ValueError("at least one population recipe required")
        if not self.mechanisms:
            raise ValueError("at least one response mechanism required")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not np.isfinite(self.mar_lambda1):
            raise ValueError(f"mar_lambda1 must be finite, got {self.mar_lambda1}")
        for alpha in self.alphas:
            if not 0.0 < alpha <= 1.0:
                raise ValueError(f"alphas must lie in (0, 1], got {alpha}")
        for recipe in self.populations:
            if not 1 <= self.sample_size <= recipe.n_units:
                raise ValueError(f"sample_size must lie in [1, n_units = {recipe.n_units}], "
                                 f"got {self.sample_size}")

    def resolved_workers(self) -> int:
        """``workers`` if set, else ``BALIMPUTE_WORKERS`` if set, else 1."""
        if self.workers is not None:
            return self.workers
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if not raw:
            return 1
        n = int(raw)
        if n < 1:
            raise ValueError(f"{WORKERS_ENV} must be >= 1, got {n}")
        return n

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "populations": [json.loads(p.to_json()) for p in self.populations],
            "mechanisms": [
                {"kind": m.kind, **({} if m.level is None else {"level": m.level})}
                for m in self.mechanisms
            ],
            "sample_size": self.sample_size,
            "replications": self.replications,
            "design": self.design,
            "mar_lambda1": self.mar_lambda1,
            "methods": list(self.methods),
            "alphas": list(self.alphas),
            "workers": self.workers,
            "keep_replicates": self.keep_replicates,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        pops = tuple(
            PopulationRecipe.from_json(json.dumps(p)) for p in d["populations"]
        )
        mechs = tuple(
            MechanismSpec(kind=m["kind"], level=m.get("level")) for m in d["mechanisms"]
        )
        required = ("seed", "populations", "mechanisms")
        optional = {
            f.name: _FIELD_COERCIONS.get(f.name, lambda x: x)(d[f.name])
            for f in fields(cls)
            if f.name in d and f.name not in required
        }
        return cls(seed=int(d["seed"]), populations=pops, mechanisms=mechs, **optional)


@dataclass
class CellResult:
    """Aggregates for one (population, mechanism) cell."""

    population: int
    mechanism: str
    theta_total: float
    t_alpha: tuple[float, ...]
    theta_f: tuple[float, ...]
    n_ok: int
    n_aborted: int
    rb: dict = field(default_factory=dict)
    mse: dict = field(default_factory=dict)
    re: dict = field(default_factory=dict)
    replicates: dict | None = None


@dataclass
class MonteCarloResult:
    config: ExperimentConfig
    cells: list[CellResult]
    elapsed_seconds: float

    def cell(self, population: int, mechanism: str) -> CellResult:
        for c in self.cells:
            if c.population == population and c.mechanism == mechanism:
                return c
        raise KeyError((population, mechanism))


def relative_bias_percent(estimates: np.ndarray, theta: float) -> float:
    """Monte Carlo bias as a percentage of the true value."""
    if theta == 0:
        raise ValueError("relative bias undefined for theta == 0")
    return float((estimates.mean() - theta) / theta * 100.0)


def mean_squared_error(estimates: np.ndarray, theta: float) -> float:
    return float(np.mean((estimates - theta) ** 2))


def relative_efficiency(mse_method: float, mse_reference: float) -> float:
    if mse_reference == 0:
        return float("nan") if mse_method == 0 else float("inf")
    return mse_method / mse_reference


def _replicate_estimates(population, n, mechanism, methods, t_alpha, seed, ip, im, r):
    """One replicate: draw, respond, fit, impute with every method, estimate.

    ``population`` is (z1, y, v, design), where design is the population's
    RejectiveDesign, or None for simple random sampling.  Returns
    {(method, estimand): value}; estimands are 'total' and
    'df@{alpha index}'.  The rng order is fixed (sample, response, rri, ebri)
    so all methods see the same sample and response set: ``methods`` are
    run in METHODS order, whatever order they are listed in.
    """
    z1, y, v, design = population
    n_population = z1.size
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(ip, im, r)))
    if design is None:
        sample = srswor(n_population, n, rng)
    else:
        sample = rejective_sample(design, rng)
    idx = sample.indices
    z1_s, y_s, v_s = z1[idx], y[idx], v[idx]
    if mechanism is None:
        respond = np.ones(n, dtype=bool)
    else:
        respond = generate_response(z1_s, mechanism, rng)
    fit = fit_model(z1_s[:, None], y_s, v_s, respond, n_population)

    out = {}
    z_s = z1_s[:, None]
    for method in (m for m in METHODS if m in methods):
        if method == "dri":
            ds = impute_dri(fit, z_s, y_s, v_s)
        elif method == "rri":
            ds = impute_rri(fit, z_s, y_s, v_s, rng)
        else:
            ds = impute_ebri(fit, z_s, y_s, v_s, sample.d, rng)
        out[(method, "total")] = imputed_total(ds, sample.d)
        if t_alpha:
            fvals = imputed_fhat(ds, sample.d, np.array(t_alpha))
            for j, fv in enumerate(fvals):
                out[(method, f"df@{j}")] = float(fv)
    return out


def _run_chunk(population, args):
    """Replicates ``args[-1]`` of one cell; the other chunk arguments are
    the small per-cell values (n, mechanism, methods, t_alpha, seed, ip, im)."""
    *cell, reps = args
    results = []
    for r in reps:
        try:
            est = _replicate_estimates(population, *cell, r)
        except ABORT_ERRORS as exc:  # aborted replicate: recorded, never silently dropped
            results.append((r, None, f"{type(exc).__name__}: {exc}"))
        else:
            results.append((r, est, None))
    return results


# A pool worker's population, set once per worker by _init_worker, so that
# chunk arguments carry no population arrays.  The parent process never
# sets it: its serial path passes the population to _run_chunk directly.
_worker_population = None


def _init_worker(population):
    global _worker_population
    _worker_population = population


def _run_worker_chunk(args):
    return _run_chunk(_worker_population, args)


def _response_mechanisms(config: ExperimentConfig, z1, out=None) -> list:
    """The response mechanism of each cell; MAR ones are calibrated on the
    population sizes z1, into the buffer ``out`` when it is given."""
    mechanisms = []
    for spec in config.mechanisms:
        if spec.kind == "mcar":
            mechanisms.append(Mcar(spec.level))
        elif spec.kind == "mar":
            mechanisms.append(calibrate_mar(z1, config.mar_lambda1, spec.level, out=out))
        else:
            mechanisms.append(None)
    return mechanisms


def _set_up(config: ExperimentConfig, ip: int, workers: int):
    """Population ``ip``: its arrays and design for the replicates, its
    truths (theta_total, t_alpha, theta_f) and its cells' mechanisms.

    MAR calibration needs only the sizes z1.  With more than one worker it
    runs on a helper thread while this thread draws the noise and sets up
    the truths and the design.  It writes phi into a buffer allocated
    here, so that the thread allocates no N-sized array: glibc keeps what
    a thread frees in that thread's arena, where it stays resident, and
    forked pool workers inherit it.  The thread has ended when this
    returns, before any pool forks.  With one worker every stage runs on
    this thread, one after the other.
    """
    recipe = config.populations[ip]
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(ip,)))
    calibrated = None
    with contextlib.ExitStack() as stack:
        if workers == 1:
            pop = generate_population(recipe, rng)
        else:
            # imported here, so that importing the package does not load it
            from concurrent.futures import ThreadPoolExecutor

            z1 = draw_sizes(recipe, rng)
            helper = stack.enter_context(ThreadPoolExecutor(max_workers=1))
            calibrated = helper.submit(_response_mechanisms, config, z1, np.empty_like(z1))
            pop = generate_population(recipe, rng, z1=z1)
        truths = (float(pop.y.sum()), *population_truths(pop.y, config.alphas))
        design = None
        if config.design == "pips-rejective":
            design = RejectiveDesign(pips_probabilities(pop.z1, config.sample_size))
    if calibrated is None:
        mechanisms = _response_mechanisms(config, pop.z1)
    else:
        mechanisms = calibrated.result()
    return (pop.z1, pop.y, pop.v, design), truths, mechanisms


def run_experiment(config: ExperimentConfig) -> MonteCarloResult:
    t_start = time.perf_counter()
    workers = config.resolved_workers()
    cells = []

    for ip in range(len(config.populations)):
        population, (theta_total, t_alpha, theta_f), mechanisms = _set_up(config, ip, workers)

        executor = contextlib.nullcontext()  # enters as None: chunks run here
        if workers > 1:
            executor = ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                           initargs=(population,))
        with executor as pool:
            for im, (mech_spec, mechanism) in enumerate(zip(config.mechanisms, mechanisms)):
                reps = list(range(config.replications))
                chunk = min(64, -(-len(reps) // workers))  # ceiling division
                chunk_args = [(config.sample_size, mechanism, config.methods, t_alpha,
                               config.seed, ip, im, reps[start : start + chunk])
                              for start in range(0, len(reps), chunk)]
                if pool is None:
                    chunk_results = (_run_chunk(population, args) for args in chunk_args)
                else:
                    chunk_results = pool.map(_run_worker_chunk, chunk_args)

                flat: list = [None] * len(reps)
                for chunk_res in chunk_results:
                    for r, est, err in chunk_res:
                        flat[r] = (est, err)
                cells.append(_cell_result(config, flat, ip, mech_spec, theta_total,
                                          t_alpha, theta_f))

    elapsed = time.perf_counter() - t_start
    return MonteCarloResult(config=config, cells=cells, elapsed_seconds=elapsed)


def _cell_result(config, flat, ip, mech_spec, theta_total, t_alpha, theta_f) -> CellResult:
    """Aggregates of one cell from its replicates' (estimates, error) pairs."""
    n_aborted = 0
    ok_mask = np.zeros(len(flat), dtype=bool)
    store: dict = {}
    for r, (est, err) in enumerate(flat):
        if est is None:
            n_aborted += 1
            log.warning("replicate %d aborted in cell (%d, %s): %s",
                        r, ip, mech_spec.label, err)
            continue
        ok_mask[r] = True
        for key, val in est.items():
            store.setdefault(key, np.full(len(flat), np.nan))[r] = val

    if n_aborted > MAX_ABORT_FRACTION * len(flat):
        raise RuntimeError(
            f"{n_aborted}/{len(flat)} replicates aborted in cell "
            f"({ip}, {mech_spec.label}); exceeding {MAX_ABORT_FRACTION:.0%}"
        )

    cell = CellResult(
        population=ip,
        mechanism=mech_spec.label,
        theta_total=theta_total,
        t_alpha=t_alpha,
        theta_f=theta_f,
        n_ok=int(ok_mask.sum()),
        n_aborted=n_aborted,
    )
    estimand_thetas = {"total": theta_total}
    for j, th in enumerate(theta_f):
        estimand_thetas[f"df@{j}"] = th
    for (method, estimand), vals in store.items():
        est_ok = vals[ok_mask]
        cell.rb[(method, estimand)] = relative_bias_percent(est_ok, estimand_thetas[estimand])
        cell.mse[(method, estimand)] = mean_squared_error(est_ok, estimand_thetas[estimand])
    if "rri" in config.methods:
        for (method, estimand), m in cell.mse.items():
            cell.re[(method, estimand)] = relative_efficiency(
                m, cell.mse[("rri", estimand)]
            )
    if config.keep_replicates:
        cell.replicates = {k: vals.copy() for k, vals in store.items()}
    log.info("cell (%d, %s) done: %d ok, %d aborted",
             ip, mech_spec.label, cell.n_ok, n_aborted)
    return cell


# ---------------------------------------------------------------------------
# table output


def _fmt(x: float) -> str:
    return repr(round(float(x), 10))


def write_tables(result: MonteCarloResult, outdir) -> None:
    """table_total.csv and table_df.csv: rows (population, [alpha,] metric),
    one column per mechanism x method; plus run_meta.json."""
    cfg = result.config
    os.makedirs(outdir, exist_ok=True)
    combos = [(m.label, meth) for m in cfg.mechanisms for meth in cfg.methods]
    headers = [f"{lab}_{meth}" for lab, meth in combos]

    with open(os.path.join(outdir, "table_total.csv"), "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["population", "metric"] + headers)
        for ip in range(len(cfg.populations)):
            for metric, table in (("rb_percent", "rb"), ("re", "re")):
                row = [ip + 1, metric]
                for lab, meth in combos:
                    cell = result.cell(ip, lab)
                    row.append(_fmt(getattr(cell, table).get((meth, "total"), float("nan"))))
                w.writerow(row)

    with open(os.path.join(outdir, "table_df.csv"), "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["population", "alpha", "metric"] + headers)
        for ip in range(len(cfg.populations)):
            for j, alpha in enumerate(cfg.alphas):
                for metric, table in (("rb_percent", "rb"), ("re", "re")):
                    row = [ip + 1, alpha, metric]
                    for lab, meth in combos:
                        cell = result.cell(ip, lab)
                        row.append(_fmt(getattr(cell, table).get((meth, f"df@{j}"), float("nan"))))
                    w.writerow(row)

    meta = {
        "config": cfg.to_dict(),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "aborted": {f"{c.population}:{c.mechanism}": c.n_aborted for c in result.cells},
        "timings": {"elapsed_seconds": result.elapsed_seconds},
    }
    with open(os.path.join(outdir, "run_meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
