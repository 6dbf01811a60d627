"""Second-moment quantities of the diluted statistic.

With Phi(i,j) = Z_ij h(X_i, X_j) and Psi_j(i) = Z_ij g(X_i):

    beta2  = E[Phi(1,2)^2]            = p E[h^2]
    gamma2 = E[Psi_2(1)^2]            = p E[g^2]
    theta2 = n p gamma2 + beta2 / 2
    Var(U) = binom(n,2)^{-1} (beta2 + 2 (n-2) p gamma2)

theta2 is the squared normalizer of the martingale sum: n^2 theta^2
matches Var(binom(n,2) U) to leading order, exactly when n = 2.

Three provenances are supported: closed form (from the kernel's
finite-rank form), Monte Carlo with standard errors, and exhaustive enumeration over tiny discrete
instances. The enumeration path is an oracle: it sums over every
(row assignment, dilution assignment) outcome and never reuses the
identities above, so it can falsify them.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, EnumerationSizeError
from .kernels import KernelSpec, _same_law
from .sampling import (
    DistributionSpec,
    as_seed_sequence,
    sample_row,
    _integer,
    _point,
    _real,
    _report_json,
    _report_value,
)

__all__ = [
    "MomentSet",
    "moments_closed_form",
    "moments_mc",
    "variance_exact",
    "enumerate_exact",
    "EnumerationResult",
    "MAX_ENUM_STATES",
]

MAX_ENUM_STATES = 10_000_000

_ZERO_SE = {"beta2": 0.0, "gamma2": 0.0, "theta2": 0.0, "var_u_exact": 0.0}


@dataclass(frozen=True)
class MomentSet:
    """beta2, gamma2, theta2 and the exact finite-n variance of U.

    standard_errors carries one entry per moment; all zero for closed-form
    and enumerated values. provenance records which path produced the
    numbers, since downstream standardization must report it. theta2 is
    derived from n, p, beta2 and gamma2.
    """

    beta2: float
    gamma2: float
    var_u_exact: float
    standard_errors: Dict[str, float] = field(default_factory=lambda: dict(_ZERO_SE))
    provenance: str = "closed_form"
    n: int = 0
    p: float = 1.0

    CSV_HEADER = ("n", "p", "beta2", "gamma2", "theta2", "var_u_exact", "provenance")

    @property
    def theta2(self) -> float:
        """n p gamma2 + beta2 / 2."""
        return self.n * self.p * self.gamma2 + self.beta2 / 2.0

    @property
    def theta(self) -> float:
        return math.sqrt(max(self.theta2, 0.0))

    def csv_rows(self):
        """One row: the fields named in CSV_HEADER."""
        yield tuple(_report_value(getattr(self, k)) for k in self.CSV_HEADER)

    def to_json(self) -> str:
        return _report_json(self, self.CSV_HEADER + ("standard_errors",))


def variance_exact(n: int, p: float, beta2: float, gamma2: float) -> float:
    """binom(n,2)^{-1} (beta2 + 2(n-2) p gamma2); at n=2 just beta2. beta2 and
    gamma2 are read as reals with no sign check: a computed E[g^2] may round below 0."""
    n, p = _point(n, p)
    beta2, gamma2 = _real(beta2, "beta2"), _real(gamma2, "gamma2")
    return (beta2 + 2.0 * (n - 2) * p * gamma2) / math.comb(n, 2)


def moments_closed_form(
    kernel: KernelSpec, dist: DistributionSpec, n: int, p: float
) -> MomentSet:
    """Exact moments from the kernel's E[h^2] and E[g^2]."""
    n, p = _point(n, p)
    _same_law(kernel, dist)
    beta2 = p * kernel.second_moment
    gamma2 = p * kernel.g_second_moment
    return MomentSet(
        beta2=beta2,
        gamma2=gamma2,
        var_u_exact=variance_exact(n, p, beta2, gamma2),
        provenance="closed_form",
        n=n,
        p=p,
    )


def moments_mc(
    kernel: KernelSpec,
    dist: DistributionSpec,
    n: int,
    p: float,
    m: int,
    seed,
) -> MomentSet:
    """Monte Carlo moments from m independent pairs, with standard errors.

    E[h^2] is sampled; E[g^2] is sampled through the kernel's closed-form g.
    """
    n, p = _point(n, p)
    _same_law(kernel, dist)
    m = _integer(m, "m")
    if m < 100:
        raise ConfigurationError("moments_mc needs m >= 100; got %d" % m)
    sx, sy = as_seed_sequence(seed).spawn(2)
    x = sample_row(m, dist, sx)
    y = sample_row(m, dist, sy)
    h2 = kernel.pair_values(x, y) ** 2
    gv = np.asarray(kernel.conditional_mean(x), dtype=np.float64)
    g2 = gv * gv
    beta2 = p * float(h2.mean())
    gamma2 = p * float(g2.mean())
    se_b = p * float(h2.std(ddof=1)) / math.sqrt(m)
    se_g = p * float(g2.std(ddof=1)) / math.sqrt(m)
    se_t = math.hypot(n * p * se_g, se_b / 2.0)
    var_u = variance_exact(n, p, beta2, gamma2)
    se_v = math.hypot(se_b, 2.0 * (n - 2) * p * se_g) / math.comb(n, 2)
    return MomentSet(
        beta2=beta2,
        gamma2=gamma2,
        var_u_exact=var_u,
        standard_errors={
            "beta2": se_b,
            "gamma2": se_g,
            "theta2": se_t,
            "var_u_exact": se_v,
        },
        provenance="mc",
        n=n,
        p=p,
    )


# --------------------------------------------------------------------------
# exhaustive enumeration oracle


class _Neumaier:
    """Compensated accumulator; order-stable to ~1 ulp."""

    __slots__ = ("s", "c")

    def __init__(self) -> None:
        self.s = 0.0
        self.c = 0.0

    def add(self, v: float) -> None:
        t = self.s + v
        if abs(self.s) >= abs(v):
            self.c += (self.s - t) + v
        else:
            self.c += (v - t) + self.s
        self.s = t

    def value(self) -> float:
        return float(self.s + self.c)


Factor = Tuple[str, int, int]


@dataclass(frozen=True)
class EnumerationResult:
    """Exact expectations from full state-space summation.

    moment_set holds beta2 = E[Phi(0,1)^2] and gamma2 = E[Psi_1(0)^2]
    computed over the joint space (not via the p-factorization), theta2 by
    its defining formula, and var_u_exact = E[U^2] enumerated directly.
    e_h2 / e_g2 / e_htilde2 are the row-only moments; products maps each
    requested factor tuple to its exact expectation.
    """

    moment_set: MomentSet
    e_h2: float
    e_g2: float
    e_htilde2: float
    products: Dict[Tuple[Factor, ...], float]

    def to_json(self) -> str:
        """Each expectation via _report_value; a product keyed by its factors,
        as "Phi(0,1) Psi(1,2)"."""
        payload = {
            "moment_set": json.loads(self.moment_set.to_json()),
            "e_h2": self.e_h2,
            "e_g2": self.e_g2,
            "e_htilde2": self.e_htilde2,
            "products": {" ".join("%s(%d,%d)" % f for f in k): v for k, v in self.products.items()},
        }
        return json.dumps(_report_value(payload), sort_keys=True)


def _normalize_factor(f: Factor, n: int) -> Tuple[str, int, int]:
    kind, i, j = f
    if kind not in ("Phi", "PhiTilde", "Psi"):
        raise ConfigurationError("unknown factor kind %r" % (kind,))
    i, j = _integer(i, "factor vertex"), _integer(j, "factor vertex")
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ConfigurationError("factor %r needs two distinct vertices below n" % (f,))
    if kind in ("Phi", "PhiTilde") and i > j:
        i, j = j, i
    return kind, i, j


def enumerate_exact(
    kernel: KernelSpec,
    dist: DistributionSpec,
    n: int,
    p: float,
    products: Sequence[Tuple[Factor, ...]] = (),
) -> EnumerationResult:
    """Sum over every (row, dilution) outcome of a tiny discrete instance.

    Factors are ("Phi", i, j), ("PhiTilde", i, j) (both symmetric, vertex
    order irrelevant) and ("Psi", i, j) = Z_ij g(x_i), with 0-based
    vertices. A product is a tuple of factors; its exact expectation comes
    back keyed by the normalized tuple.
    """
    n, p = _point(n, p)
    _same_law(kernel, dist)
    if not dist.is_discrete:
        raise ConfigurationError("enumeration needs a finite-support row law")
    supp = np.asarray(dist.support, dtype=np.float64)
    qs = np.asarray(dist.probs, dtype=np.float64)
    k = supp.size
    npairs = n * (n - 1) // 2
    states = (k**n) * (2**npairs)
    if states > MAX_ENUM_STATES:
        raise EnumerationSizeError(
            "state space has %d outcomes, above the %d cap"
            % (states, MAX_ENUM_STATES)
        )

    hmat = kernel.pair_values(np.repeat(supp, k), np.tile(supp, k)).reshape(k, k)
    g_enum = hmat @ qs
    ht = hmat - g_enum[:, None] - g_enum[None, :]
    e_h2 = float(qs @ (hmat * hmat) @ qs)
    e_g2 = float(qs @ (g_enum * g_enum))
    e_htilde2 = float(qs @ (ht * ht) @ qs)

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pair_index = {pr: t for t, pr in enumerate(pairs)}
    # all dilution assignments as a bit matrix, with their probabilities
    masks = np.arange(2**npairs, dtype=np.int64)
    zbits = ((masks[:, None] >> np.arange(npairs)) & 1).astype(np.float64)
    cnt = zbits.sum(axis=1)
    zprob = (p**cnt) * ((1.0 - p) ** (npairs - cnt))  # 0.0**0.0 is 1.0 at p = 1
    binom = math.comb(n, 2)

    norm_products = [tuple(_normalize_factor(f, n) for f in prod) for prod in products]
    base = [
        (("Phi", 0, 1), ("Phi", 0, 1)),
        (("Psi", 0, 1), ("Psi", 0, 1)),
        (("PhiTilde", 0, 1), ("PhiTilde", 0, 1)),
    ]
    all_products = base + [pr for pr in norm_products if pr not in base]
    accs = [_Neumaier() for _ in all_products]
    var_acc = _Neumaier()

    for assign in itertools.product(range(k), repeat=n):
        xw = 1.0
        for a in assign:
            xw *= qs[a]
        idx = np.asarray(assign)
        hvals = hmat[idx[:, None], idx[None, :]]
        htvals = ht[idx[:, None], idx[None, :]]
        gvals = g_enum[idx]
        hpair = np.asarray([hvals[i, j] for i, j in pairs])
        u = (zbits @ hpair) / binom
        var_acc.add(xw * float(zprob @ (u * u)))
        for acc, prod in zip(accs, all_products):
            vals = np.ones(masks.size)
            for kind, i, j in prod:
                t = pair_index[(i, j) if i < j else (j, i)]
                zc = zbits[:, t]
                if kind == "Phi":
                    vals = vals * (zc * hvals[i, j])
                elif kind == "PhiTilde":
                    vals = vals * (zc * htvals[i, j])
                else:
                    vals = vals * (zc * gvals[i])
            acc.add(xw * float(zprob @ vals))

    results = {pr: acc.value() for pr, acc in zip(all_products, accs)}
    beta2 = results[base[0]]
    gamma2 = results[base[1]]
    moment_set = MomentSet(
        beta2=beta2,
        gamma2=gamma2,
        var_u_exact=var_acc.value(),
        provenance="enumerated",
        n=n,
        p=p,
    )
    wanted = dict(results)
    return EnumerationResult(
        moment_set=moment_set,
        e_h2=e_h2,
        e_g2=e_g2,
        e_htilde2=e_htilde2,
        products=wanted,
    )
