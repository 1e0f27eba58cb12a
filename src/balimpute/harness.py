"""Monte Carlo harness: repeated sampling, response, imputation, estimation.

One experiment crosses synthetic populations with response mechanisms.  Per
replicate the drawn sample and the response set are shared by all imputation
methods, so method comparisons are paired.  Replicate r uses a generator
seeded by SeedSequence(seed, spawn_key=(population, mechanism, r)), which
makes every replicate reproducible in isolation and the aggregate results
independent of how replicates are distributed over workers.
"""

import contextlib
import json
import logging
import numbers
import os
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .csvio import write_csv
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


def _integer(name):
    """from_dict's coercion of an integer field: an integer as an int; any
    other value, a float such as 2.0 or 20.5 included, raises ValueError
    naming the field."""
    def coerce(value):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        return int(value)
    return coerce


# from_dict's conversion of the config fields it is given; fields not
# listed here are taken as they are, absent ones keep their default
_FIELD_COERCIONS = {
    **{name: _integer(name) for name in ("seed", "sample_size", "replications", "workers")},
    "populations": lambda pops: tuple(PopulationRecipe.from_json(json.dumps(p)) for p in pops),
    "mechanisms": lambda mechs: tuple(MechanismSpec(**m) for m in mechs),
    "mar_lambda1": float,
    "methods": tuple,
    "alphas": lambda alphas: tuple(float(a) for a in alphas),
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
    workers: int = 1

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
        if not self.methods:
            raise ValueError("at least one method required")
        if len(set(self.methods)) < len(self.methods):
            raise ValueError(f"each method may be named once, got {list(self.methods)}")
        if not self.populations:
            raise ValueError("at least one population recipe required")
        if not self.mechanisms:
            raise ValueError("at least one response mechanism required")
        # a mechanism's label names its table columns and its cell
        labels = [m.label for m in self.mechanisms]
        if len(set(labels)) < len(labels):
            raise ValueError(f"each mechanism label may occur once, got {labels}")
        if self.workers < 1:
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

    def to_dict(self) -> dict:
        """One JSON-ready entry per field."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d.update(
            populations=[json.loads(p.to_json()) for p in self.populations],
            mechanisms=[{"kind": m.kind, **({} if m.level is None else {"level": m.level})}
                        for m in self.mechanisms],
            methods=list(self.methods),
            alphas=list(self.alphas),
        )
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """The config of a JSON object.  A key that names no field, here or
        in a recipe or mechanism, raises TypeError naming it."""
        return cls(**{k: _FIELD_COERCIONS.get(k, lambda x: x)(v) for k, v in d.items()})


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
    replicates: dict = field(default_factory=dict)


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


def relative_bias_percent(estimates: np.ndarray, theta) -> np.ndarray:
    """Monte Carlo bias as a percentage of the true value, one per row of
    replicates (the last axis of ``estimates``)."""
    if np.any(theta == 0):
        raise ValueError("relative bias undefined for theta == 0")
    return (estimates.mean(axis=-1) - theta) / theta * 100.0


def mean_squared_error(estimates: np.ndarray, theta) -> np.ndarray:
    return np.mean((estimates - np.expand_dims(theta, -1)) ** 2, axis=-1)


def relative_efficiency(mse_method, mse_reference) -> np.ndarray:
    """mse_method / mse_reference: 0/0 is nan and x/0 is inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(mse_method, mse_reference)


def _estimands(n_alphas: int) -> list[str]:
    """CellResult's estimands: the total, then F at each alpha's quantile."""
    return ["total", *(f"df@{j}" for j in range(n_alphas))]


def _replicate_estimates(population, n, mechanism, methods, t_alpha, seed, ip, im, r):
    """One replicate: draw, respond, fit, impute with every method, estimate.

    ``population`` is (z1, y, v, design), where design is the population's
    RejectiveDesign, or None for simple random sampling.  Returns one row
    per method, [total, F(t_alpha[0]), ...].  The rng order is fixed
    (sample, response, rri, ebri) so all methods see the same sample and
    response set: ``methods`` are run in METHODS order, whatever order they
    are listed in, and so are the rows.
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

    run = [m for m in METHODS if m in methods]
    out = np.empty((len(run), 1 + len(t_alpha)))
    z_s = z1_s[:, None]
    for row, method in zip(out, run):
        if method == "dri":
            ds = impute_dri(fit, z_s, y_s, v_s)
        elif method == "rri":
            ds = impute_rri(fit, z_s, y_s, v_s, rng)
        else:
            ds = impute_ebri(fit, z_s, y_s, v_s, sample.d, rng)
        row[0] = imputed_total(ds, sample.d)
        if t_alpha:
            row[1:] = imputed_fhat(ds, sample.d, np.array(t_alpha))
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
    workers = config.workers
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

                cells.append(_cell_result(config, chunk_results, ip, mech_spec,
                                          theta_total, t_alpha, theta_f))

    elapsed = time.perf_counter() - t_start
    return MonteCarloResult(config=config, cells=cells, elapsed_seconds=elapsed)


def _cell_result(config, chunk_results, ip, mech_spec, theta_total, t_alpha,
                 theta_f) -> CellResult:
    """Aggregates of one cell from its chunks' (replicate, estimates, error)
    triples, in one pass.

    The estimates stack into one (method, estimand, replicate) array, NaN
    at aborted replicates.  Replicates run along the last, contiguous axis,
    where numpy sums each row as it sums a 1-D array, bit for bit.
    """
    n = config.replications
    methods = [m for m in METHODS if m in config.methods]
    estimands = _estimands(len(theta_f))
    estimates = np.full((len(methods), len(estimands), n), np.nan)
    ok = np.zeros(n, dtype=bool)
    for chunk in chunk_results:
        for r, est, err in chunk:
            if est is None:
                log.warning("replicate %d aborted in cell (%d, %s): %s",
                            r, ip, mech_spec.label, err)
            else:
                ok[r] = True
                estimates[..., r] = est
    n_aborted = n - int(ok.sum())
    if n_aborted > MAX_ABORT_FRACTION * n:
        raise RuntimeError(
            f"{n_aborted}/{n} replicates aborted in cell "
            f"({ip}, {mech_spec.label}); exceeding {MAX_ABORT_FRACTION:.0%}"
        )

    kept = np.compress(ok, estimates, axis=-1)
    theta = np.array([theta_total, *theta_f])
    mse = mean_squared_error(kept, theta)
    keys = [(m, e) for m in methods for e in estimands]

    def keyed(values):
        return dict(zip(keys, values.ravel().tolist()))

    cell = CellResult(
        population=ip,
        mechanism=mech_spec.label,
        theta_total=theta_total,
        t_alpha=t_alpha,
        theta_f=theta_f,
        n_ok=n - n_aborted,
        n_aborted=n_aborted,
        rb=keyed(relative_bias_percent(kept, theta)),
        mse=keyed(mse),
        replicates=dict(zip(keys, estimates.reshape(len(keys), n))),
    )
    if "rri" in methods:
        cell.re = keyed(relative_efficiency(mse, mse[methods.index("rri")]))
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
    cells = {(c.population, c.mechanism): c for c in result.cells}
    combos = [(m.label, meth) for m in cfg.mechanisms for meth in cfg.methods]
    headers = [f"{lab}_{meth}" for lab, meth in combos]
    total, *dfs = _estimands(len(cfg.alphas))
    # per table: its lead columns after population, and each row group's
    # values of them with the estimand it reports
    tables = (("table_total.csv", [], [((), total)]),
              ("table_df.csv", ["alpha"], [((alpha,), df) for alpha, df in zip(cfg.alphas, dfs)]))

    for name, lead, groups in tables:
        rows = [[ip + 1, *values, metric] + [
                    _fmt(getattr(cells[ip, lab], table).get((meth, estimand), float("nan")))
                    for lab, meth in combos]
                for ip in range(len(cfg.populations))
                for values, estimand in groups
                for metric, table in (("rb_percent", "rb"), ("re", "re"))]
        write_csv(os.path.join(outdir, name), ["population", *lead, "metric"] + headers,
                  zip(*rows))

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
