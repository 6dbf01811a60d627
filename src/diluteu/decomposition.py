"""Diluted U-statistics and their projection decomposition.

The statistic over a row x and a dilution graph Z is

    U = binom(n, 2)^{-1} * sum_{i<j} Z_ij h(x_i, x_j),

evaluated only on retained pairs, so the kernel cost equals the edge
count. The same sum splits, pointwise in (x, Z), into per-index pieces

    binom(n, 2) U = sum_i [ g(x_i) deg_i + sum_{j<i} Z_ij h~(x_i, x_j) ],

where deg_i is the dilution degree of vertex i and h~ is the centered
kernel. Dividing the pieces by n*theta gives the martingale-difference
arrays used by the normal-approximation bounds. sample_realization draws
one (x, Z) from a seed and keeps U and both pieces in a Realization.

Except for U on a complete graph (below), both sums read the graph's
row-form edge list (per-row counts and the partners jj, see
DilutionGraph.edges) and walk it in blocks of _BLOCK edges. The row side
of a block repeats each row's value over its count; the partner side
gathers x[jj]. Those values, the kernel values and the centered terms
exist for one block at a time, so evaluation holds O(_BLOCK) float
temporaries on top of the edge list instead of several arrays of E
floats. The list is extracted once per graph: the passes of one
realization (U, the degrees, the split, the martingale differences)
share it.

When the list covers every pair (a complete graph, as at p = 1), U reads
only its length: h runs over the circulant diagonals
(x_i, x_{(i+k) mod n}), whose two sides are a broadcast of x and a window
of (x, x), so no index array is built or gathered. Both views are built
once per call and sliced per block. The pairs and their count are the
same; only the order of the sum differs. At p = 1 the graph is the
constant that sample_dilution keeps per n, so a replicate loop extracts
its list once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateNormalizationError
from .kernels import KernelSpec, _same_law
from .sampling import (
    DilutionGraph,
    DistributionSpec,
    as_seed_sequence,
    sample_dilution,
    sample_row,
)

__all__ = [
    "compute_ustat",
    "hoeffding_parts",
    "martingale_differences",
    "MartingaleDifferences",
    "Realization",
    "sample_realization",
]

# Edges per kernel call: each float64 temporary of a block is 256 KiB.
_BLOCK = 1 << 15


def _check_row_graph(x: np.ndarray, graph: DilutionGraph) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ConfigurationError("row must be one-dimensional")
    if x.size != graph.n:
        raise ConfigurationError(
            "row length %d does not match graph size %d" % (x.size, graph.n)
        )
    return x


def _edge_blocks(counts, jj):
    """Cut the row-form edge list (counts, jj) into blocks of _BLOCK edges.

    Yields (rows, reps, bj) per block, in edge order: the block's edges
    pair vertex rows.start + k, reps[k] times in a row, with the partners
    bj, so np.repeat(v[rows], reps) lines row values up with v[bj]. Only
    the last block can be short, and an empty list yields nothing.
    """
    e = jj.size
    ends = counts.cumsum()
    for lo in range(0, e, _BLOCK):
        hi = min(lo + _BLOCK, e)
        # the rows of the block's first and last edge
        r0, r1 = ends.searchsorted((lo, hi - 1), side="right")
        reps = np.minimum(ends[r0 : r1 + 1], hi)
        reps[1:] -= ends[r0:r1]
        reps[0] -= lo
        yield slice(r0, r1 + 1), reps, jj[lo:hi]


def _complete_sum(x: np.ndarray, kernel: KernelSpec) -> float:
    """Sum of h over every pair i < j of x, by circulant diagonals.

    Diagonal k pairs x_i with x_{(i+k) mod n}. Diagonals 1..(n-1)//2 over
    every i, and for even n diagonal n/2 over i < n/2, meet each unordered
    pair once: binom(n, 2) evaluations. Row k of the windows of (x, x) is
    diagonal k's partner side, so a call takes max(1, _BLOCK // n) whole
    diagonals against a broadcast of x, and no index array is built. The
    window view and the broadcast are built once per call (read-only
    strided views, no copy) and sliced per block.
    """
    n = x.size
    stop = (n - 1) // 2 + 1  # one past the last diagonal taken whole
    step = max(1, _BLOCK // n)
    xx = np.concatenate((x, x))
    # row k is xx[k : k + n]; rows past the last whole diagonal are not needed
    windows = np.lib.stride_tricks.as_strided(
        xx, shape=(stop, n), strides=(xx.strides[0],) * 2, writeable=False
    )
    rows = np.broadcast_to(x, (step, n))
    total = 0.0
    for k0 in range(1, stop, step):
        b = windows[k0 : k0 + step]
        total += float(kernel.pair_values(rows[: b.shape[0]], b).sum())
    if n % 2 == 0:
        total += float(kernel.pair_values(x[: n // 2], x[n // 2 :]).sum())
    return total


def compute_ustat(x, graph: DilutionGraph, kernel: KernelSpec) -> float:
    """U over the retained pairs; exactly edge_count() kernel evaluations.

    The edges are evaluated in blocks of _BLOCK and the block sums added,
    so U can differ from one sum over all E values in its last bits. A
    graph whose edge list covers every pair is summed by circulant
    diagonals instead (_complete_sum), with the same evaluation count and
    O(n + _BLOCK) floats, in another order.
    """
    x = _check_row_graph(x, graph)
    n = graph.n
    if n < 2:
        raise ConfigurationError("need at least two observations")
    counts, jj = graph.edges()
    if jj.size == graph.pair_count:
        return _complete_sum(x, kernel) / math.comb(n, 2)
    total = 0.0
    for rows, reps, bj in _edge_blocks(counts, jj):
        total += float(kernel.pair_values(np.repeat(x[rows], reps), x[bj]).sum())
    return total / math.comb(n, 2)


def hoeffding_parts(x, graph: DilutionGraph, kernel: KernelSpec):
    """Per-index (psi_part, phi_tilde_part) whose total is binom(n,2)*U.

    psi_part[i] = g(x_i) deg_i collects the linear projections; the
    centered remainder h~(x_i, x_j) of each retained pair is charged to
    its larger index, so phi_tilde_part[i] sums over j < i. The identity
    holds for every realization, not just in expectation. g is evaluated
    once, on the row, and read per edge; h once per edge, in blocks of
    _BLOCK, with the centered terms added in edge order, as one bincount
    over all E weights would add them. The degrees and the sums read the
    same kept edge list.
    """
    x = _check_row_graph(x, graph)
    deg = graph.degrees()
    counts, jj = graph.edges()
    gvals = np.asarray(kernel.conditional_mean(x), dtype=np.float64)
    phi_tilde_part = np.zeros(x.size)
    for rows, reps, bj in _edge_blocks(counts, jj):
        ht = kernel.pair_values(np.repeat(x[rows], reps), x[bj])
        ht -= np.repeat(gvals[rows], reps)
        ht -= gvals[bj]
        np.add.at(phi_tilde_part, bj, ht)
    return gvals * deg, phi_tilde_part


@dataclass(frozen=True)
class MartingaleDifferences:
    """xi = xi1 + xi2, normalized so sum(xi) = binom(n,2) U / (n theta)."""

    xi1: np.ndarray
    xi2: np.ndarray
    theta: float

    @property
    def xi(self) -> np.ndarray:
        return self.xi1 + self.xi2

    def total(self) -> float:
        return float(self.xi.sum())


def martingale_differences(
    x, graph: DilutionGraph, kernel: KernelSpec, theta: float
) -> MartingaleDifferences:
    """Split binom(n,2) U / (n theta) into one summand per index.

    xi1 carries the projection part, xi2 the centered pairs with smaller
    partner; both are mean zero given everything with lower index (the
    dilution graph counts as revealed up front).
    """
    theta = float(theta)
    if not theta > 0.0:
        raise DegenerateNormalizationError(
            "normal approximation needs theta > 0; got %r "
            "(identically-zero projections and pairs?)" % theta
        )
    psi_part, phi_tilde_part = hoeffding_parts(x, graph, kernel)
    denom = graph.n * theta
    return MartingaleDifferences(
        xi1=psi_part / denom, xi2=phi_tilde_part / denom, theta=theta
    )


@dataclass(frozen=True)
class Realization:
    """One sampled (row, graph) with U and its split parts; in memory only."""

    x: np.ndarray
    z: DilutionGraph
    u_value: float
    psi_part: np.ndarray
    phi_tilde_part: np.ndarray

    def identity_gap(self) -> float:
        """|binom(n,2) U - sum(psi + phi~)|, zero up to roundoff."""
        lhs = math.comb(self.z.n, 2) * self.u_value
        rhs = float(self.psi_part.sum() + self.phi_tilde_part.sum())
        return abs(lhs - rhs)


def sample_realization(
    n: int, dist: DistributionSpec, kernel: KernelSpec, p: float, seed
) -> Realization:
    """Draw a row and its own dilution graph, then decompose.

    dist must be the law the kernel was registered against (its g and
    centering hold only there); another law raises ConfigurationError.
    The graph is always drawn here. The seed is split into independent
    child streams, the first for the row and the second for the graph,
    so the two sources cannot alias even for equal n.
    """
    _same_law(kernel, dist)
    row_seed, graph_seed = as_seed_sequence(seed).spawn(2)
    graph = sample_dilution(n, p, graph_seed)
    x = sample_row(n, dist, row_seed)
    u = compute_ustat(x, graph, kernel)
    psi_part, phi_tilde_part = hoeffding_parts(x, graph, kernel)
    return Realization(
        x=x, z=graph, u_value=u, psi_part=psi_part, phi_tilde_part=phi_tilde_part
    )
