"""The exact law of U, and of a graph's bits, at n = 5 as a test oracle.

At n = 5 every outcome can be listed: 3^5 rows of the tri law times 2^10
graphs. The oracle builds the atoms of U from the kernels' plain formulas
and the product law of the bits, with no package code, and each case
checks the package's replicate loop against it: every simulated U must be
an atom, and a chi-square test over the atoms (those expected fewer than
5 times pooled) must not reject at a fixed tail. The same test runs on the
graph's joint law over all 2^10 outcomes.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.stats import chi2

import diluteu as d
from conftest import TRI_TABLE

N = 5
PAIRS = list(itertools.combinations(range(N), 2))
# every graph as its 10 pair bits, in storage order; outcome k has bit t
# of pair t at position 9 - t, as the packed bytes hold it big-endian
OUTCOMES = (np.arange(2 ** len(PAIRS))[:, None] >> np.arange(len(PAIRS))[::-1]) & 1
TAIL = 1e-6
LEAST_EXPECTED = 5.0
TRI_SUPPORT = (-1.0, 0.0, 2.0)
TRI_PROBS = (0.5, 0.25, 0.25)
# sign(x) on tri is -1, 0, 1 with probabilities 1/2, 1/4, 1/4, so E[sign X] = -1/4
_SB2 = 0.0625
_TABLE = {(a, b): v for a, b, v in TRI_TABLE} | {(b, a): v for a, b, v in TRI_TABLE}
FORMULAS = {
    "sign": lambda x, y: np.sign(x) * np.sign(y) - _SB2,
    "product": lambda x, y: x * y,
    "tri": lambda x, y: _TABLE[(x, y)],
}


def graph_probs(p):
    """P(graph) for every outcome: p^E (1 - p)^(10 - E)."""
    e = OUTCOMES.sum(axis=1)
    return p**e * (1.0 - p) ** (len(PAIRS) - e)


def exact_law(h, p):
    """The atoms of U (sorted) and their probabilities, over every (row, graph)."""
    rows = list(itertools.product(range(len(TRI_SUPPORT)), repeat=N))
    hpair = np.array([[h(TRI_SUPPORT[r[i]], TRI_SUPPORT[r[j]]) for i, j in PAIRS] for r in rows])
    row_probs = np.array([math.prod(TRI_PROBS[a] for a in r) for r in rows])
    u = hpair @ OUTCOMES.T / len(PAIRS)
    weight = row_probs[:, None] * graph_probs(p)[None, :]
    atoms, where = np.unique(np.round(u, 12), return_inverse=True)
    probs = np.bincount(where.ravel(), weights=weight.ravel())
    keep = probs > 0.0  # at p = 1 only the complete graph has mass
    return atoms[keep], probs[keep]


def chi_square_sf(counts, probs):
    """Pearson's test of counts against probs, and its number of cells. Every
    cell expected fewer than LEAST_EXPECTED times goes into one pooled cell,
    with the next least likely cells while the pool is still under that; when
    no cell is, there is no pooled cell (at p = 1 every atom may be likely)."""
    expected = counts.sum() * probs
    order = np.argsort(expected, kind="stable")
    pooled = int((expected < LEAST_EXPECTED).sum())
    if pooled:
        pooled = max(pooled, int(np.searchsorted(np.cumsum(expected[order]), LEAST_EXPECTED)) + 1)
    obs, exp = counts[order[pooled:]], expected[order[pooled:]]
    if pooled:
        obs = np.append(obs, counts[order[:pooled]].sum())
        exp = np.append(exp, expected[order[:pooled]].sum())
    stat = float(((obs - exp) ** 2 / exp).sum())
    return chi2.sf(stat, obs.size - 1), obs.size


def test_chi_square_pooling():
    # no pooled cell: one degree of freedom per cell but one
    sf, cells = chi_square_sf(np.array([50, 50]), np.array([0.5, 0.5]))
    assert cells == 2 and sf == pytest.approx(1.0)
    # cells expected 1, 2 and 3 times pool into one group expected 6 times
    sf, cells = chi_square_sf(np.array([1, 2, 3, 94]), np.array([0.01, 0.02, 0.03, 0.94]))
    assert cells == 2 and sf == pytest.approx(1.0)
    # a cell expected 4 times pools with the next cell up, as one group
    _, cells = chi_square_sf(np.array([4, 6, 90]), np.array([0.04, 0.06, 0.9]))
    assert cells == 2


@pytest.mark.parametrize("p, R", [(0.3, 3000), (0.5, 3000), (1.0, 3000)])
def test_u_follows_its_exact_law_at_n5(p, R, tri, tri_kernel):
    kernels = {"sign": d.sign_kernel(tri), "product": d.product_kernel(tri), "tri": tri_kernel}
    u = np.empty((R, len(kernels)))

    def body(r, x, graph):
        u[r] = [d.compute_ustat(x, graph, k) for k in kernels.values()]

    d.harness._each_replicate(d.SeedPolicy(6).child("exact-law", int(p * 10)), R, N, tri, p, body)
    for c, name in enumerate(kernels):
        atoms, probs = exact_law(FORMULAS[name], p)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        at = np.clip(np.searchsorted(atoms, u[:, c]), 1, atoms.size - 1)
        nearest = np.where(u[:, c] - atoms[at - 1] < atoms[at] - u[:, c], at - 1, at)
        assert np.abs(u[:, c] - atoms[nearest]).max() < 1e-9, (name, p)
        sf, cells = chi_square_sf(np.bincount(nearest, minlength=atoms.size), probs)
        assert cells > 3 and sf > TAIL, (name, p, sf, cells)


# 0.002: top 0, so every kept pair is a tie; 0.5: frac 0, no tie draws and
# every outcome equally likely
@pytest.mark.parametrize("p, seed", [(0.002, 29), (0.5, 6)])
def test_graph_bits_follow_their_joint_law_at_n5(p, seed):
    rng = d.as_generator(seed)
    R = 10240
    seen = np.zeros(OUTCOMES.shape[0], dtype=np.int64)
    for _ in range(R):
        packed = d.sample_dilution(N, p, rng).packed
        seen[int.from_bytes(packed.tobytes(), "big") >> 6] += 1
    sf, cells = chi_square_sf(seen, graph_probs(p))
    assert cells > 10 and sf > TAIL, (p, sf, cells)
