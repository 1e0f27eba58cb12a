"""Sampling designs: pi-ps inclusion probabilities, SRSWOR, rejective sampling.

The unequal-probability design takes pi_k proportional to a positive size
variable, capped at 1 iteratively: units whose proportional probability
reaches 1 are taken with certainty and the remaining budget is respread over
the rest.

Sampling itself is rejective (conditional Poisson) of fixed size
n = sum(pi): P(s) is proportional to prod_{k in s} pi_k / (1 - pi_k) over
the samples s of size n that contain every certainty unit (pi_k = 1).  A
``RejectiveDesign`` sets the law up once per population, and
``rejective_sample`` draws from it with one of two exact proposals, each
repeated until it is accepted:

* Bernoulli: independent Bernoulli(pi_k) for all N units, accepted when
  the realized size is n.  P(mask = s) = prod_s pi_k prod_not-s (1 - pi_k)
  is proportional to the law above on every s of size n.
* Multinomial: m = n - #certain draws with replacement from the other
  units, with probabilities p_k proportional to the odds pi_k / (1 - pi_k),
  accepted when all m are distinct.  An accepted set s comes from m!
  orderings of probability prod_s p_k each, again proportional to the law
  (Tille 2006, Sampling Algorithms, ch. 5; Chen, Dempster & Liu 1994).

An attempt costs N uniforms under the first and m under the second.  The
design takes the multinomial proposal when its expected number of attempts,
exp(C(m, 2) sum p_k^2), is no more than the Bernoulli proposal's,
sqrt(2 pi sum pi_k (1 - pi_k)); since m <= N that never picks the costlier
proposal.  Multinomial acceptance collapses as n grows past about
2 sqrt(N): on a pips design of gamma sizes with N = 10,000 the rule
predicts 2 multinomial attempts at n = 100, 21 at n = 200, about 1,100 at
n = 300 and 3 x 10^5 at n = 400, against 25 to 49 Bernoulli attempts.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import numpy.typing as npt

from .csvio import FLAG, FLOAT, INT, Converter, finite_positive, read_csv, write_csv

MAX_REJECTIVE_ATTEMPTS = 1_000_000


class SamplingError(RuntimeError):
    """The rejective sampler did not reach the target size."""


@dataclass(frozen=True)
class SampleData:
    """A drawn sample: population indices and inclusion probs, with the
    design weights d = 1/pi derived from pi.

    ``respond`` is None until a response mechanism has been applied.
    """

    indices: npt.NDArray[np.int64]
    pi: npt.NDArray[np.float64]
    respond: npt.NDArray[np.bool_] | None = None

    def __post_init__(self):
        if self.indices.shape != self.pi.shape:
            raise ValueError("indices and pi must share a shape")
        if np.any(self.pi <= 0) or np.any(self.pi > 1):
            raise ValueError("inclusion probabilities must lie in (0, 1]")
        if self.respond is not None and self.respond.shape != self.indices.shape:
            raise ValueError("respond must match sample size")

    @cached_property
    def d(self) -> npt.NDArray[np.float64]:
        """The design weights 1/pi, computed on first use."""
        return 1.0 / self.pi

    @property
    def size(self) -> int:
        return self.indices.shape[0]

    def with_response(self, respond: npt.NDArray[np.bool_]) -> "SampleData":
        return replace(self, respond=np.asarray(respond, dtype=bool))


def _sample_from(indices: npt.NDArray[np.int64], pi_all: npt.NDArray[np.float64]) -> SampleData:
    idx = np.sort(np.asarray(indices, dtype=np.int64))
    return SampleData(indices=idx, pi=pi_all[idx])


def pips_probabilities(z1: npt.NDArray[np.float64], n: int) -> npt.NDArray[np.float64]:
    """Inclusion probabilities proportional to size, iteratively capped at 1.

    Postconditions: every pi_k in (0, 1], sum(pi) == n within 1e-9, and the
    uncapped entries stay proportional to z1.
    """
    z1 = np.asarray(z1, dtype=np.float64)
    if z1.ndim != 1 or z1.size == 0:
        raise ValueError("z1 must be a nonempty vector")
    if not np.all(np.isfinite(z1)) or np.any(z1 <= 0):
        raise ValueError("sizes must be finite and strictly positive")
    n = int(n)
    if not 0 < n <= z1.size:
        raise ValueError(f"need 0 < n <= {z1.size}, got {n}")

    # the first round, with no unit capped, needs no masked copies
    pi = n * z1
    pi /= z1.sum()
    newly = pi >= 1.0
    capped = np.zeros(z1.size, dtype=bool)
    while newly.any():
        pi[newly] = 1.0
        capped |= newly
        budget = n - int(capped.sum())
        rest = ~capped
        if budget == 0:
            pi[rest] = 0.0
            break
        pi[rest] = budget * z1[rest] / z1[rest].sum()
        newly = rest & (pi >= 1.0)
    if np.any(pi <= 0):
        # budget exhausted by capped units; remaining units would need pi = 0
        raise ValueError("capping exhausted the sample size; n too small for these sizes")
    return pi


def srswor(n_population: int, n: int, rng: np.random.Generator) -> SampleData:
    """Simple random sample without replacement; pi = n/N for every unit."""
    if not 0 < n <= n_population:
        raise ValueError(f"need 0 < n <= {n_population}, got {n}")
    idx = rng.choice(n_population, size=n, replace=False)
    pi_all = np.full(n_population, n / n_population)
    return _sample_from(idx, pi_all)


class RejectiveDesign:
    """Conditional Poisson design of fixed size n = sum(pi), set up once.

    Validates pi (every entry in (0, 1], integral sum), finds the certainty
    units (pi_k = 1) and the number m of draws among the others, and picks
    the proposal ``rejective_sample`` uses (see the module docstring).  For
    the multinomial proposal it keeps the cumulative odds pi_k / (1 - pi_k),
    with zero odds at the certainty units.
    """

    def __init__(self, pi: npt.NDArray[np.float64]):
        pi = np.asarray(pi, dtype=np.float64)
        if np.any(pi <= 0) or np.any(pi > 1):
            raise ValueError("inclusion probabilities must lie in (0, 1]")
        total = float(pi.sum())
        n_target = round(total)
        if abs(total - n_target) > 1e-9:
            raise ValueError(f"sum(pi) = {total!r} is not integral")
        certain = pi == 1.0
        self.pi = pi
        self.n = n_target
        self.certain = np.flatnonzero(certain)
        self.m = n_target - self.certain.size
        self.cum_odds = None
        if self.m == 0:
            return
        # sums of products by einsum, not @: at N >= 20,000 a BLAS dot
        # product costs about 8 ms in thread start-up alone
        odds = 1.0 - pi
        variance = float(np.einsum("i,i->", pi, odds))  # sum pi_k (1 - pi_k)
        np.divide(pi, odds, out=odds, where=~certain)  # certainty units keep odds 0
        odds_sum = float(odds.sum())
        sum_p2 = float(np.einsum("i,i->", odds, odds)) / odds_sum**2
        # the logs of the expected attempts, exp(C(m, 2) sum p_k^2) against
        # sqrt(2 pi sum pi_k (1 - pi_k))
        if self.m * (self.m - 1) / 2 * sum_p2 <= 0.5 * np.log(2 * np.pi * variance):
            # the last unit a draw can land on: trailing certainty units have
            # zero odds, and u * total may round up to the total itself
            self.last = pi.size - 1 - int(np.argmax(odds[::-1] > 0))
            self.cum_odds = np.cumsum(odds, out=odds)

    @property
    def proposal(self) -> str:
        """'multinomial' or 'bernoulli'; 'none' when every unit is certain."""
        if self.m == 0:
            return "none"
        return "bernoulli" if self.cum_odds is None else "multinomial"


def rejective_sample(design: "RejectiveDesign | npt.NDArray[np.float64]",
                     rng: np.random.Generator) -> SampleData:
    """Conditional Poisson sample of fixed size sum(pi).

    ``design`` is a ``RejectiveDesign``, or inclusion probabilities to set
    one up for this draw alone.  Each attempt of the design's proposal
    takes one ``rng.random`` call; after MAX_REJECTIVE_ATTEMPTS rejected
    attempts the draw fails with SamplingError.  When every unit is
    certain, the sample is all of them and rng is not used.
    """
    if not isinstance(design, RejectiveDesign):
        design = RejectiveDesign(design)
    pi = design.pi
    if design.m == 0:
        return _sample_from(design.certain, pi)
    cum = design.cum_odds
    for _ in range(MAX_REJECTIVE_ATTEMPTS):
        if cum is None:
            mask = rng.random(pi.size) < pi
            if int(mask.sum()) == design.n:
                return _sample_from(np.flatnonzero(mask), pi)
        else:
            picks = np.searchsorted(cum, rng.random(design.m) * cum[-1], side="right")
            np.minimum(picks, design.last, out=picks)
            # distinct by a set of m ints: np.unique imports numpy.ma, and a
            # sort-and-compare raised a table run's peak RSS by 0.2 MB more
            if len(set(picks.tolist())) == design.m:
                return _sample_from(np.concatenate((design.certain, picks)), pi)
    raise SamplingError("rejective sampling did not reach the target size")


# ---------------------------------------------------------------------------
# CSV round-trip (carries the unit data along so imputation can run from file)


SAMPLE_FIELDS = ("id", "y", "z1", "v", "pi", "d", "r")
# how far a sample file's d may lie from 1/pi, relative; sample_to_csv
# writes d = 1/pi rounded once
D_RTOL = 1e-12


def _y_field(text: str) -> float:
    """A y field: empty where y is missing, else a finite number."""
    if not text.strip():
        return math.nan
    y = float(text)
    if not math.isfinite(y):
        raise ValueError(f"must be finite where given, got {text!r}")
    return y


def sample_to_csv(
    path,
    sample: SampleData,
    y: npt.NDArray[np.float64],
    z1: npt.NDArray[np.float64],
    v: npt.NDArray[np.float64],
) -> None:
    """Columns (id, y, z1, v, pi, d, r); y is left empty at nonrespondents.
    ``sample.respond`` must be set."""
    respond = sample.respond.astype(np.int64).tolist()
    y = [yv if r else "" for yv, r in zip(np.asarray(y, dtype=np.float64).tolist(), respond)]
    write_csv(path, SAMPLE_FIELDS, [sample.indices + 1, y] + [
        np.asarray(x, dtype=np.float64) for x in (z1, v, sample.pi, sample.d)] + [respond])


def _first_of_each_id(cols):
    """False at each row whose id an earlier row holds already."""
    # a set, not a sort: np.argsort's first call added 0.2 MB to the
    # peak RSS of an n = 300 impute
    ids = cols["id"].tolist()
    if len(set(ids)) == len(ids):
        return np.ones(len(ids), dtype=bool)
    seen, first = set(), []
    for k in ids:
        first.append(k not in seen)
        seen.add(k)
    return np.array(first, dtype=bool)


def sample_from_csv(path):
    """Returns (SampleData with respond set, y with NaN at nonrespondents, z1, v).

    Each row must hold a distinct id, z1 and v finite and > 0, pi in
    (0, 1], d equal to 1/pi within D_RTOL relative, and a y that is finite,
    or empty at a nonrespondent.  d is taken as 1/pi.
    """
    cols = read_csv(
        path, "sample",
        {"id": INT, "y": Converter(_y_field, np.float64), "z1": FLOAT, "v": FLOAT,
         "pi": FLOAT, "d": FLOAT, "r": FLAG},
        [("id", _first_of_each_id, "id {} repeats an earlier row"),
         ("y", lambda c: ~(c["r"] & np.isnan(c["y"])), "respondent without a y value"),
         finite_positive("z1"),
         finite_positive("v"),
         ("pi", lambda c: (c["pi"] > 0) & (c["pi"] <= 1), "must lie in (0, 1], got {}"),
         # |d - 1/pi| / (1/pi) as |d pi - 1|: 1/pi overflows where pi is subnormal
         ("d", lambda c: np.abs(c["d"] * c["pi"] - 1.0) <= D_RTOL,
          f"must equal 1/pi within {D_RTOL:g} relative, got {{}}")])
    sample = SampleData(indices=cols["id"] - 1, pi=cols["pi"], respond=cols["r"])
    return sample, cols["y"], cols["z1"], cols["v"]
