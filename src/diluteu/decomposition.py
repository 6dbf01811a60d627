"""Diluted U-statistics and their projection decomposition.

The statistic over a row x and a dilution graph Z is

    U = binom(n, 2)^{-1} * sum_{i<j} Z_ij h(x_i, x_j),

evaluated only on retained pairs, so the kernel cost equals the edge
count. The same sum splits, pointwise in (x, Z), into per-index pieces

    binom(n, 2) U = sum_i [ g(x_i) deg_i + sum_{j<i} Z_ij h~(x_i, x_j) ],

where deg_i is the dilution degree of vertex i and h~ is the centered
kernel. Dividing the pieces by n*theta gives the martingale-difference
arrays used by the normal-approximation bounds.

Both sums walk the edge list in blocks of _BLOCK edges: the row values
gathered on either side, the kernel values and the centered terms exist
for one block at a time, so evaluation holds O(_BLOCK) float temporaries
on top of the edge list instead of several arrays of E floats.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, DegenerateNormalizationError
from .kernels import KernelSpec
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


def compute_ustat(x, graph: DilutionGraph, kernel: KernelSpec) -> float:
    """U over the retained pairs; exactly edge_count() kernel evaluations.

    The edges are evaluated in blocks of _BLOCK and the block sums added,
    so U can differ from one sum over all E values in its last bits.
    """
    x = _check_row_graph(x, graph)
    n = graph.n
    if n < 2:
        raise ConfigurationError("need at least two observations")
    ii, jj = graph.edges()
    total = 0.0
    for lo in range(0, ii.size, _BLOCK):
        bi, bj = ii[lo : lo + _BLOCK], jj[lo : lo + _BLOCK]
        total += float(kernel.pair_values(x[bi], x[bj]).sum())
    return total / math.comb(n, 2)


def _centered_row_sums(x, ii, jj, gvals, kernel: KernelSpec) -> np.ndarray:
    """Per-index sums of h~(x_i, x_j) over the edges (ii, jj), ii < jj.

    Each pair is charged to its larger index jj; gvals is g on the row.
    The edges are evaluated in blocks of _BLOCK, each edge once, and the
    centered terms added in edge order, as one bincount over all E
    weights would add them, so the sums are bit-identical to it.
    """
    out = np.zeros(x.size)
    for lo in range(0, ii.size, _BLOCK):
        bi, bj = ii[lo : lo + _BLOCK], jj[lo : lo + _BLOCK]
        ht = kernel.pair_values(x[bi], x[bj])
        ht -= gvals[bi]
        ht -= gvals[bj]
        np.add.at(out, bj, ht)
    return out


def hoeffding_parts(x, graph: DilutionGraph, kernel: KernelSpec):
    """Per-index (psi_part, phi_tilde_part) whose total is binom(n,2)*U.

    psi_part[i] = g(x_i) deg_i collects the linear projections; the
    centered remainder h~(x_i, x_j) of each retained pair is charged to
    its larger index, so phi_tilde_part[i] sums over j < i. The identity
    holds for every realization, not just in expectation. g is evaluated
    once, on the row, and indexed per edge; h once per edge, in blocks of
    _BLOCK. The degrees are taken before the edge list, so their first
    computation never extracts a second list while this one is held.
    """
    x = _check_row_graph(x, graph)
    deg = graph.degrees()
    ii, jj = graph.edges()
    gvals = np.asarray(kernel.conditional_mean(x), dtype=np.float64)
    psi_part = gvals * deg
    return psi_part, _centered_row_sums(x, ii, jj, gvals, kernel)


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
    """One sampled (row, graph) with its statistic and split parts."""

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

    def to_json(self) -> str:
        payload = {
            "x": [repr(float(v)) for v in self.x],
            "n": self.z.n,
            "p": repr(float(self.z.p)),
            "packed": bytes(self.z.packed).hex(),
            "u_value": repr(float(self.u_value)),
            "psi_part": [repr(float(v)) for v in self.psi_part],
            "phi_tilde_part": [repr(float(v)) for v in self.phi_tilde_part],
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Realization":
        """Inverse of to_json.

        A `packed` field of the wrong length for n, or with set padding
        bits, raises ConfigurationError.
        """
        d = json.loads(text)
        graph = DilutionGraph(
            n=int(d["n"]),
            p=float(d["p"]),
            packed=np.frombuffer(bytes.fromhex(d["packed"]), dtype=np.uint8),
        )
        return cls(
            x=np.asarray([float(v) for v in d["x"]]),
            z=graph,
            u_value=float(d["u_value"]),
            psi_part=np.asarray([float(v) for v in d["psi_part"]]),
            phi_tilde_part=np.asarray([float(v) for v in d["phi_tilde_part"]]),
        )


def sample_realization(
    n: int,
    dist: DistributionSpec,
    kernel: KernelSpec,
    p: float,
    seed,
    graph: Optional[DilutionGraph] = None,
) -> Realization:
    """Draw a row and an independent dilution graph, then decompose.

    The seed is split into independent child streams for the row and the
    graph, so the two sources cannot alias even for equal n.
    """
    seq = as_seed_sequence(seed)
    if graph is None:
        row_seed, graph_seed = seq.spawn(2)
        graph = sample_dilution(n, p, graph_seed)
    else:
        (row_seed,) = seq.spawn(1)
        if graph.n != n:
            raise ConfigurationError("supplied graph size differs from n")
    x = sample_row(n, dist, row_seed)
    u = compute_ustat(x, graph, kernel)
    psi_part, phi_tilde_part = hoeffding_parts(x, graph, kernel)
    return Realization(
        x=x, z=graph, u_value=u, psi_part=psi_part, phi_tilde_part=phi_tilde_part
    )
