"""Estimators for the normal-approximation condition quantities.

Notation (theta2 from the moment set):

    Phi(i,j)  = Z_ij h(X_i, X_j)      Psi_j(i) = Z_ij g(X_i)
    PhiT(i,j) = Z_ij h~(X_i, X_j)
    G_k(i,j)  = Z_ik Z_jk H(X_i, X_j)     (and G~ with H~)

The estimated quantities, each Monte Carlo over m replicates. Those with
an eps (and eta1) are drawn once and cut at every eps of a grid:

    C1   (1/(n theta^2)) E[ S^2 1{|S| >= eps theta n} ],
         S = sum_{j>=2} Psi_j(1)         (fresh row-1 dilution bits)
    C2   theta^-2 E[ PhiT(1,2)^2 1{|PhiT| >= eps theta n} ]
    C3   p theta^-2 E[ H~(1,1) 1{|H~(1,1)| >= eps theta^2 n / p} ]
    C4   theta^-4 E[ G_1(2,3)^2 ]      C4'  the same with G~
    C1'' n^2 theta^-2 E[ Psi_2(1)^2 1{|Psi_2(1)| >= eps theta} ]
    C2'' theta^-2 E[ Phi(1,2)^2 1{|Phi| >= eps theta n} ]
    C3'' p theta^-2 E[ H(1,1) 1{|H(1,1)| >= eps theta^2 n / p} ]

eta2 is the summed conditional second moment of the martingale
differences given the past. Per realization it is an explicit sum of a
projection term (degree counts times E[g^2]), a pair term (the centered
pair conditional H~ over pairs of known bits in one row) and a mixed
cross term. The kernel's finite-rank form h = phi^T A phi makes H~ and
the cross conditional rank r, so the pair term is sum_i v_i^T B v_i with
V = L Psi, Psi = phi(x) - mu and L the strictly-lower dilution matrix.
eta1's mean is bounded above by the S1 + T1 truncation split; the
estimator reports that bound and flags it as one. T1's row sums of
h~ = Psi^T A Psi over the past are the rows of (Psi A) * (L Psi).

Both read L only through DilutionGraph.lower(cols), the product L @ cols:
O((n + E) r) work per replicate, O(n r) at p = 1, and no n x n array.

Dilution bits are always sampled, never folded into p analytically, so
each estimator is a plain mean of the defining integrand.

Each condition id is one row of the _CONDITIONS table: its row estimator,
default and least m, whether it takes eps, and the verdicts it can read.
Sweeps and direct estimator calls check m and eps by the same rule.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, DegenerateNormalizationError
from .kernels import KernelSpec
from .moments import moments_closed_form
from .sampling import (
    DistributionSpec,
    SeedPolicy,
    as_generator,
    as_seed_sequence,
    sample_row,
    _exponent,
    _integer,
    _point,
    _real,
    _regime_p,
    _report_json,
    _report_value,
    _warn_if_slow,
)

__all__ = [
    "Estimate",
    "estimate_C1",
    "estimate_C2",
    "estimate_C3",
    "estimate_C4",
    "estimate_C4prime",
    "estimate_Cdoubleprime",
    "estimate_eta2",
    "estimate_eta1_mean",
    "verify_c4_implies_c4prime",
    "C4ComparisonReport",
    "trend_verdict",
    "eta2_verdict",
    "ConditionReport",
    "sweep_condition",
    "CONDITION_IDS",
    "DEFAULT_EPS_GRID",
    "DEFAULT_N_GRID",
    "DEFAULT_M",
]

DEFAULT_EPS_GRID = (0.01, 0.05, 0.1, 0.5)
DEFAULT_N_GRID = (50, 100, 200, 400, 800)
ABSOLUTE_FLOOR = 1e-3

# the verdicts a condition's series can read; the first is the one it reads toward
_TOWARD_0 = ("decreasing-toward-0", "increasing", "stagnant")
_TO_1 = ("converging-to-1", "increasing", "stagnant")
# One row per condition id. row(kernel, dist, n, p, eps columns, m, seed) gives
# one n's Estimates (ETA2: its sample) and calls the public estimator by its
# module-global name when it runs, so a rebound name is the one called;
# default_m is the replicates per cell when m is not given, least_m the fewest
# that a sweep or a direct call takes.
_Condition = namedtuple("_Condition", "row default_m least_m takes_eps verdicts")
_CONDITIONS = {
    "C1": _Condition(lambda *a: estimate_C1(*a), 4096, 100, True, _TOWARD_0),
    "C2": _Condition(lambda *a: estimate_C2(*a), 4096, 100, True, _TOWARD_0),
    "C3": _Condition(lambda *a: estimate_C3(*a), 4096, 100, True, _TOWARD_0),
    "C4": _Condition(lambda k, x, n, p, e, m, s: [estimate_C4(k, x, n, p, m, s)], 16384, 100, False, _TOWARD_0),
    "C4'": _Condition(lambda k, x, n, p, e, m, s: [estimate_C4prime(k, x, n, p, m, s)], 16384, 100, False, _TOWARD_0),
    "C1''": _Condition(lambda *a: estimate_Cdoubleprime("C1''", *a), 4096, 100, True, _TOWARD_0),
    "C2''": _Condition(lambda *a: estimate_Cdoubleprime("C2''", *a), 4096, 100, True, _TOWARD_0),
    "C3''": _Condition(lambda *a: estimate_Cdoubleprime("C3''", *a), 4096, 100, True, _TOWARD_0),
    "ETA1": _Condition(lambda *a: estimate_eta1_mean(*a), 256, 2, True, _TOWARD_0),
    "ETA2": _Condition(lambda k, x, n, p, e, m, s: estimate_eta2(k, x, n, p, m, s), 64, 2, False, _TO_1),
}
DEFAULT_M = {cid: c.default_m for cid, c in _CONDITIONS.items()}
CONDITION_IDS = tuple(_CONDITIONS)
# what a condition sweep run estimates when its config names no conditions
_DEFAULT_CONDITIONS = ("C1", "C2", "C3", "C4")


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo estimate with its standard error."""

    value: float
    se: float
    upper_bound: bool = False


def _theta2(kernel: KernelSpec, dist: DistributionSpec, n: int, p: float) -> float:
    """Closed-form theta^2, rejected unless positive."""
    t2 = moments_closed_form(kernel, dist, n, p).theta2
    if not t2 > 0.0:
        raise DegenerateNormalizationError(
            "condition estimators need theta^2 > 0; got %r" % t2
        )
    return t2


def _mean_se(vals: np.ndarray, factor: float = 1.0) -> Estimate:
    m = vals.size
    mean = float(vals.mean()) * factor
    se = float(vals.std(ddof=1)) / math.sqrt(m) * factor if m > 1 else 0.0
    return Estimate(value=mean, se=se)


def _cut(vals: np.ndarray, size: np.ndarray, cuts, factor: float) -> List[Estimate]:
    """One Estimate per cut: the mean of vals over |size| >= cut, 0 elsewhere."""
    mag = np.abs(size)
    return [_mean_se(vals * (mag >= cut), factor) for cut in cuts]


def _check_inputs(condition_id: str, n, p, m, eps_grid=()):
    """(n, p, m, eps columns) by the rules sweeps and direct calls share: the
    point rule with its n*p >= 1 floor, m >= the least m, and a nonempty grid
    of finite eps > 0 unless eps-free (then ()). A nan cut keeps nothing and
    reads as convergence; eps <= 0 keeps all."""
    cond = _CONDITIONS[condition_id]
    n, p = _point(n, p, floor=True)
    m = _integer(m, "m")
    if m < cond.least_m:
        raise ConfigurationError(
            "condition %s needs m >= %d replicates; got %d" % (condition_id, cond.least_m, m)
        )
    eps_cols = tuple(_real(e, "condition %s eps" % condition_id) for e in eps_grid) if cond.takes_eps else ()
    if cond.takes_eps and not eps_cols:
        raise ConfigurationError("condition %s needs a nonempty eps grid" % condition_id)
    if not all(e > 0.0 for e in eps_cols):
        raise ConfigurationError(
            "condition %s needs finite eps > 0; got %r" % (condition_id, eps_cols)
        )
    return n, p, m, eps_cols


# --------------------------------------------------------------------------
# Truncated-moment condition estimators


def estimate_C1(kernel, dist, n, p, eps_grid, m, seed) -> List[Estimate]:
    """Truncated second moment of the summed projection column, per eps."""
    n, p, m, eps_grid = _check_inputs("C1", n, p, m, eps_grid)
    t2 = _theta2(kernel, dist, n, p)
    sx, sz = as_seed_sequence(seed).spawn(2)
    x = sample_row(m, dist, sx)
    counts = as_generator(sz).binomial(n - 1, p, size=m).astype(np.float64)
    big_s = np.asarray(kernel.conditional_mean(x), np.float64) * counts
    cuts = [eps * math.sqrt(t2) * n for eps in eps_grid]
    return _cut(big_s * big_s, big_s, cuts, 1.0 / (n * t2))


def _estimate_pair(kernel, dist, n, p, eps_grid, m, seed, centered: bool) -> List[Estimate]:
    """Truncated second moment of one diluted pair, h~ (C2) or h (C2''), per eps."""
    t2 = _theta2(kernel, dist, n, p)
    sx, sy, sz = as_seed_sequence(seed).spawn(3)
    xa = sample_row(m, dist, sx)
    xb = sample_row(m, dist, sy)
    bits = (as_generator(sz).random(m) < p).astype(np.float64)
    fn = kernel.centered_values if centered else kernel.pair_values
    pair = bits * fn(xa, xb)
    cuts = [eps * math.sqrt(t2) * n for eps in eps_grid]
    return _cut(pair * pair, pair, cuts, 1.0 / t2)


def _estimate_diag(kernel, dist, n, p, eps_grid, m, seed, centered: bool) -> List[Estimate]:
    """Truncated first moment of the diagonal conditional, H~ (C3) or H (C3''), per eps."""
    t2 = _theta2(kernel, dist, n, p)
    (sx,) = as_seed_sequence(seed).spawn(1)
    x = sample_row(m, dist, sx)
    fn = kernel.centered_pair_conditional if centered else kernel.pair_conditional
    diag = np.asarray(fn(x, x), np.float64)
    cuts = [eps * t2 * n / p for eps in eps_grid]
    return _cut(diag, diag, cuts, p / t2)


def _estimate_G2(kernel, dist, n, p, m, seed, centered: bool) -> Estimate:
    """Second moment of the double-diluted pair conditional, G~ (C4') or G (C4)."""
    t2 = _theta2(kernel, dist, n, p)
    sx, sy, sz = as_seed_sequence(seed).spawn(3)
    xa = sample_row(m, dist, sx)
    xb = sample_row(m, dist, sy)
    rng = as_generator(sz)
    both = (rng.random(m) < p) & (rng.random(m) < p)
    fn = kernel.centered_pair_conditional if centered else kernel.pair_conditional
    cond = np.asarray(fn(xa, xb), np.float64)
    g = both.astype(np.float64) * cond
    return _mean_se(g * g, factor=1.0 / (t2 * t2))


def estimate_C2(kernel, dist, n, p, eps_grid, m, seed) -> List[Estimate]:
    """Truncated second moment of a single centered pair, per eps."""
    n, p, m, eps_grid = _check_inputs("C2", n, p, m, eps_grid)
    return _estimate_pair(kernel, dist, n, p, eps_grid, m, seed, centered=True)


def estimate_C3(kernel, dist, n, p, eps_grid, m, seed) -> List[Estimate]:
    """Truncated first moment of the centered diagonal conditional, per eps."""
    n, p, m, eps_grid = _check_inputs("C3", n, p, m, eps_grid)
    return _estimate_diag(kernel, dist, n, p, eps_grid, m, seed, centered=True)


def estimate_C4(kernel, dist, n, p, m, seed) -> Estimate:
    """Second moment of the double-diluted pair conditional G_1(2,3)."""
    n, p, m, _ = _check_inputs("C4", n, p, m)
    return _estimate_G2(kernel, dist, n, p, m, seed, centered=False)


def estimate_C4prime(kernel, dist, n, p, m, seed) -> Estimate:
    """As estimate_C4 with the centered conditional G~_1(2,3)."""
    n, p, m, _ = _check_inputs("C4'", n, p, m)
    return _estimate_G2(kernel, dist, n, p, m, seed, centered=True)


def estimate_Cdoubleprime(condition, kernel, dist, n, p, eps_grid, m, seed) -> List[Estimate]:
    """The un-tilded single-object conditions C1'', C2'', C3'', per eps."""
    if condition not in ("C1''", "C2''", "C3''"):
        raise ConfigurationError(
            "condition must be C1'', C2'' or C3''; got %r" % (condition,)
        )
    n, p, m, eps_grid = _check_inputs(condition, n, p, m, eps_grid)
    if condition == "C2''":
        return _estimate_pair(kernel, dist, n, p, eps_grid, m, seed, centered=False)
    if condition == "C3''":
        return _estimate_diag(kernel, dist, n, p, eps_grid, m, seed, centered=False)
    t2 = _theta2(kernel, dist, n, p)
    sx, sz = as_seed_sequence(seed).spawn(2)
    x = sample_row(m, dist, sx)
    bits = (as_generator(sz).random(m) < p).astype(np.float64)
    psi = bits * np.asarray(kernel.conditional_mean(x), np.float64)
    cuts = [eps * math.sqrt(t2) for eps in eps_grid]
    return _cut(psi * psi, psi, cuts, n * n / t2)


# --------------------------------------------------------------------------
# eta quantities of the martingale CLT


def estimate_eta2(kernel, dist, n, p, m, seed) -> np.ndarray:
    """m draws of the summed conditional variance of the differences.

    Each replicate samples one (row, dilution) realization and evaluates
    the conditional expectations in closed form. With L the strictly-lower
    dilution matrix (L[i, j] = Z_ij for j < i), c = L 1 the known bits of
    row i and f_i = n - 1 - i its future vertices:

      term 1: projection part. Given the past, the row-i projection sum
        has c_i known bits and Bin(f_i, p) unknown ones, so its
        conditional second moment is E[g^2] times
        c_i^2 + 2 c_i f_i p + f_i p (1 - p + f_i p).
      terms 2 and 3: pair part, sum_i sum_{a, b} L_ia L_ib H~(x_a, x_b)
        (the diagonal a = b is term 2). With the finite-rank form
        H~(x, y) = (phi(x) - mu)^T B (phi(y) - mu) this is sum_i v_i^T B v_i,
        where v_i is row i of V = L (phi(x) - mu), an n x r matrix.
      term 4: cross part, 2 (c + f p) . L (K(x) - E[g^2]) with
        K(x) = E[g(Y) h(Y, x)].

    One product graph.lower(cols) with the n x (r + 2) matrix [phi(x) -
    mu, K(x) - E[g^2], 1] gives V, L (K(x) - E[g^2]) and c. L is never
    built, so a replicate costs O((n + E) r) time beyond its draw, O(n r)
    at p = 1 (a prefix sum), and n has no cap.
    """
    from .harness import _each_replicate  # not at the top: harness imports this module
    n, p, m, _ = _check_inputs("ETA2", n, p, m)
    t2 = _theta2(kernel, dist, n, p)
    eg2 = float(kernel.g_second_moment)
    mu = np.asarray(kernel.feature_mean, np.float64)
    b = kernel.centered_pair_matrix
    rank = mu.size
    out = np.empty(m)
    fut = (n - 1) - np.arange(n, dtype=np.float64)  # vertices after i

    def body(r, x, graph):
        cols = np.empty((n, rank + 2))
        cols[:, :rank] = np.asarray(kernel.features(x), np.float64) - mu
        cols[:, rank] = np.asarray(kernel.cross_conditional(x), np.float64) - eg2
        cols[:, rank + 1] = 1.0
        prod = graph.lower(cols)
        v = prod[:, :rank]
        c = prod[:, rank + 1]
        t1_counts = c * c + 2.0 * c * fut * p + fut * p * (1.0 - p + fut * p)
        eta21 = eg2 * float(t1_counts.sum())
        eta223 = float(np.sum((v @ b) * v))
        eta24 = 2.0 * float((c + fut * p) @ prod[:, rank])
        out[r] = (eta21 + eta223 + eta24) / (n * n * t2)

    _each_replicate(seed, m, n, dist, p, body)
    return out


def estimate_eta1_mean(kernel, dist, n, p, eps_grid, m, seed) -> List[Estimate]:
    """Upper bound on E[eta1] via the S1 + T1 truncation split, per eps.

    S1 = (4/(n theta^2)) E[S^2 1{|S| >= eps theta n / 2}] reuses the C1
    integrand at eps/2; T1 averages the per-row truncated second moments
    of the centered-pair partial sums over full sampled realizations.
    Row j's sum, sum_{i<j} Z_ij h~(x_i, x_j), is Psi_j^T A (L Psi)_j with
    Psi = phi(x) - mu, since h~ = Psi^T A Psi under the centering
    contract. Both parts are drawn once and cut at every eps. The result
    is an upper bound on the target, and is flagged as such.
    """
    from .harness import _each_replicate  # see estimate_eta2
    n, p, m, eps_grid = _check_inputs("ETA1", n, p, m, eps_grid)
    t2 = _theta2(kernel, dist, n, p)
    cuts = [0.5 * eps * math.sqrt(t2) * n for eps in eps_grid]
    s_seed, t_seed = as_seed_sequence(seed).spawn(2)

    # S1 part: 4 C1 at eps/2, vectorized and cheap, so with a larger
    # replicate count; scaling by 4, a power of two, adds no rounding
    s1 = estimate_C1(kernel, dist, n, p, [0.5 * eps for eps in eps_grid], max(m, 4096), s_seed)

    # T1 part: per-replicate realizations, one row of sums per cut
    a = np.asarray(kernel.coef, np.float64)
    mu = np.asarray(kernel.feature_mean, np.float64)
    t_vals = np.empty((len(cuts), m))

    def body(r, x, graph):
        psi = np.asarray(kernel.features(x), np.float64) - mu
        rows = np.sum((psi @ a) * graph.lower(psi), axis=1)
        sq, mag = rows * rows, np.abs(rows)
        t_vals[:, r] = [float((sq * (mag >= cut)).sum()) for cut in cuts]

    _each_replicate(t_seed, m, n, dist, p, body)
    t1 = [_mean_se(vals, factor=4.0 / (n * n * t2)) for vals in t_vals]
    return [
        Estimate(4.0 * s.value + t.value, math.hypot(4.0 * s.se, t.se), upper_bound=True)
        for s, t in zip(s1, t1)
    ]


@dataclass(frozen=True)
class C4ComparisonReport:
    """Checks the estimated C4' (lhs) against its bound in terms of C4 (rhs)."""

    lhs: float
    rhs: float
    n: int
    p: float

    @property
    def satisfied(self) -> bool:
        return self.lhs <= self.rhs

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


def verify_c4_implies_c4prime(
    c4: Estimate, c4prime: Estimate, n: int, p: float
) -> C4ComparisonReport:
    """Assert C4' <= 25 C4 + 50/(np)^2 + 50/(np), with 5x combined SE slack,
    at a point (n, p) checked as the estimators check it."""
    n, p = _point(n, p, floor=True)
    npv = n * p
    combined_se = math.hypot(25.0 * c4.se, c4prime.se)
    rhs = 25.0 * c4.value + 50.0 / (npv * npv) + 50.0 / npv + 5.0 * combined_se
    return C4ComparisonReport(lhs=c4prime.value, rhs=rhs, n=n, p=p)


# --------------------------------------------------------------------------
# trend verdicts and grid sweeps


def trend_verdict(estimates: Sequence[float], ses: Sequence[float]) -> str:
    """Classify a condition series along the n-grid.

    decreasing-toward-0 needs the last point inside its noise-or-floor
    band (4 SE, absolute floor 1e-3) and either a fourfold drop from the
    first point or the whole series already inside its bands (a bounded
    integrand cut off to exactly 0 everywhere never drops "fourfold"
    from 0, yet is the strongest possible convergence evidence).
    increasing needs a rise beyond the joint 2 SE slack; anything else
    is stagnant. ses needs one standard error >= 0 per estimate: a
    negative or NaN one would flip the bands, a short list broadcast.
    """
    est = np.asarray(estimates, dtype=np.float64)
    ses_ = np.asarray(ses, dtype=np.float64)
    if est.size == 0:
        raise ConfigurationError("empty estimate series")
    if ses_.shape != est.shape or not np.all(ses_ >= 0.0):
        raise ConfigurationError(
            "need one standard error >= 0 per estimate; got %r for %d estimates"
            % (ses_.tolist(), est.size)
        )
    first, last = est[0], est[-1]
    band = np.maximum(4.0 * ses_, ABSOLUTE_FLOOR)
    last_small = last <= band[-1]
    all_small = bool(np.all(est <= band))
    if last_small and (last < first / 4.0 or all_small):
        return "decreasing-toward-0"
    if last - first > 2.0 * (ses_[0] + ses_[-1]):
        return "increasing"
    return "stagnant"


def eta2_verdict(means: Sequence[float], ses: Sequence[float], sds: Sequence[float]) -> str:
    """converging-to-1 needs the last mean within 4 SE of 1 and the
    replicate spread visibly shrinking along the grid; otherwise the
    series is classified by its distance trend from 1."""
    means = np.asarray(means, dtype=np.float64)
    ses_ = np.asarray(ses, dtype=np.float64)
    sds = np.asarray(sds, dtype=np.float64)
    near_one = abs(means[-1] - 1.0) <= 4.0 * ses_[-1]
    shrinking = sds.size < 2 or sds[-1] <= 0.8 * sds[0]
    if near_one and shrinking:
        return "converging-to-1"
    dist_first = abs(means[0] - 1.0)
    dist_last = abs(means[-1] - 1.0)
    if dist_last - dist_first > 2.0 * (ses_[0] + ses_[-1]):
        return "increasing"
    return "stagnant"


@dataclass(frozen=True)
class ConditionReport:
    """Estimates of one condition over (n, eps) with per-eps verdicts.

    eps_grid is empty for the eps-free quantities (C4, C4', ETA2); the
    estimate matrix then has a single column. spread holds the replicate
    standard deviation per n for ETA2, where the concentration of the
    sample (not just its mean) is the object of interest. upper_bound
    marks series that bound their target from above rather than estimate
    it (ETA1). Every estimator normalizes by the closed-form theta^2.
    """

    condition_id: str
    n_grid: Tuple[int, ...]
    eps_grid: Tuple[float, ...]
    estimates: np.ndarray
    ses: np.ndarray
    verdicts: Tuple[str, ...]
    spread: Optional[np.ndarray] = None
    theta_provenance = "closed_form"
    CSV_HEADER = ("condition_id", "n", "eps", "estimate", "se", "verdict")

    @property
    def upper_bound(self) -> bool:
        return self.condition_id == "ETA1"

    def csv_rows(self):
        """Rows under CSV_HEADER, one per (n, eps); eps blank (None) for
        eps-free conditions."""
        cols = self.eps_grid if self.eps_grid else (None,)
        for r, n in enumerate(self.n_grid):
            for c, eps in enumerate(cols):
                row = (self.condition_id, n, eps, self.estimates[r, c], self.ses[r, c], self.verdicts[c])
                yield tuple(map(_report_value, row))

    def to_json(self) -> str:
        return _report_json(self, (
            "condition_id", "n_grid", "eps_grid", "estimates", "ses", "verdicts",
            "upper_bound", "spread", "theta_provenance",
        ))


def _check_n_grid(n_grid) -> Tuple[int, ...]:
    """The n grid as ints, checked integral, nonempty and strictly increasing;
    the point rule checks each n >= 2."""
    grid = tuple(_integer(v, "n") for v in n_grid)
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigurationError("n grid must be nonempty and strictly increasing")
    return grid


def _check_sweep(condition_id, n_grid, eps_grid, m, p_at):
    """(grid points (n, p), eps columns, m) of one condition sweep, p = p_at(n),
    each point checked as a direct estimator call checks it, before any cell runs."""
    if condition_id not in _CONDITIONS:
        raise ConfigurationError(
            "unknown condition %r (choose from %s)"
            % (condition_id, ", ".join(CONDITION_IDS))
        )
    m = DEFAULT_M[condition_id] if m is None else m
    cells = [_check_inputs(condition_id, n, p_at(n), m, eps_grid) for n in _check_n_grid(n_grid)]
    _, _, m, eps_cols = cells[0]
    return [(n, p) for n, p, _, _ in cells], eps_cols, m


def sweep_condition(
    condition_id: str,
    kernel: KernelSpec,
    dist: DistributionSpec,
    policy: SeedPolicy,
    n_grid: Sequence[int] = DEFAULT_N_GRID,
    eps_grid: Sequence[float] = DEFAULT_EPS_GRID,
    a: float = 0.0,
    m: Optional[int] = None,
    p_fixed: Optional[float] = None,
) -> ConditionReport:
    """Estimate one condition over the (n, eps) grid.

    The dilution is p = n^-a per grid point, or the constant p_fixed
    when given; a grid point with n*p < 10 warns once either way. The
    plan (id, n and eps grids, m, and p at every grid point) is
    checked before any cell runs. Each n makes one draw, cut at every eps
    column, so each row is nonincreasing in eps. Its seed derives from the
    first column's label, cond/<id>/n<n>/eps<first eps> (epsNone if
    eps-free): a row can be recomputed in isolation, and a one-column
    sweep draws what the first column of a wider one does. a is checked
    even when p_fixed overrides it.
    """
    a = _exponent(a)
    points, eps_cols, m = _check_sweep(
        condition_id, n_grid, eps_grid, m, lambda n: _regime_p(n, a) if p_fixed is None else p_fixed
    )
    est = np.zeros((len(points), max(1, len(eps_cols))))
    ses = np.zeros_like(est)
    spread = np.zeros(len(points)) if condition_id == "ETA2" else None
    for r, (n, p) in enumerate(points):
        _warn_if_slow(n, p, stacklevel=3)
        label = "cond/%s/n%d/eps%r" % (condition_id, n, eps_cols[0] if eps_cols else None)
        row = _CONDITIONS[condition_id].row(kernel, dist, n, p, eps_cols, m, policy.child(label, 0))
        if spread is not None:  # ETA2's sample: its mean, and its spread for the verdict
            spread[r] = row.std(ddof=1)
            row = [_mean_se(row)]
        est[r], ses[r] = [e.value for e in row], [e.se for e in row]
    if spread is not None:
        verdicts = (eta2_verdict(est[:, 0], ses[:, 0], spread),)
    else:
        verdicts = tuple(trend_verdict(est[:, c], ses[:, c]) for c in range(est.shape[1]))
    return ConditionReport(
        condition_id=condition_id,
        n_grid=tuple(n for n, _ in points),
        eps_grid=eps_cols,
        estimates=est,
        ses=ses,
        verdicts=verdicts,
        spread=spread,
    )
