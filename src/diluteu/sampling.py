"""Row-law and dilution sampling under a deterministic seeding contract.

Two independent sources of randomness drive every experiment: one row of
i.i.d. draws X_1..X_n from a mean-zero law F, and a symmetric Bernoulli(p)
dilution matrix Z deciding which pairs enter the statistic. Both samplers
are pure functions of (parameters, seed), so any replication can be
regenerated in isolation, out of order, on any worker.

Seed derivation is counter-based: a master seed plus a (stream label,
replication index) pair is mixed into a child seed by a fixed public
function (SHA-256 of the label, folded into a numpy SeedSequence spawn
key). Distinct labels and indices give independent streams.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.random import Generator, PCG64, SeedSequence

from .errors import ConfigurationError

__all__ = [
    "DistributionSpec",
    "DilutionGraph",
    "SeedPolicy",
    "as_generator",
    "as_seed_sequence",
    "sample_row",
    "sample_dilution",
    "dilution_regime",
]

_PROB_TOL = 1e-12
_SLOW_REGIME_NP = 10.0


def as_generator(seed) -> Generator:
    """Turn an int, SeedSequence, or Generator into a PCG64 Generator."""
    if isinstance(seed, Generator):
        return seed
    if isinstance(seed, SeedSequence):
        return Generator(PCG64(seed))
    return Generator(PCG64(SeedSequence(int(seed))))


def as_seed_sequence(seed) -> SeedSequence:
    """Turn an int (Python or numpy) or SeedSequence into a SeedSequence."""
    if isinstance(seed, SeedSequence):
        return seed
    return SeedSequence(seed)


# --------------------------------------------------------------------------
# row distributions


@dataclass(frozen=True)
class DistributionSpec:
    """A supported row law with the moments downstream code needs.

    All built-in constructors produce mean-zero laws; user tables are
    auto-centered (with a warning) unless explicitly told not to. The
    extra moments carried here (sign mean, nonzero probability) feed the
    closed-form kernel structure.
    """

    kind: str
    params: tuple = ()
    mean: float = 0.0
    variance: float = 1.0
    sign_mean: float = 0.0
    nonzero_prob: float = 1.0
    support: tuple | None = None
    probs: tuple | None = None

    @property
    def is_discrete(self) -> bool:
        return self.support is not None

    def describe(self) -> str:
        if self.kind == "table":
            pairs = ",".join(
                "%r=%r" % (v, q) for v, q in zip(self.support, self.probs)
            )
            return "table:" + pairs
        if self.params:
            return "%s:%s" % (self.kind, ",".join(repr(p) for p in self.params))
        return self.kind


def rademacher() -> DistributionSpec:
    """Fair signs on {-1, +1}."""
    return DistributionSpec(
        kind="rademacher",
        variance=1.0,
        sign_mean=0.0,
        nonzero_prob=1.0,
        support=(-1.0, 1.0),
        probs=(0.5, 0.5),
    )


def standard_normal() -> DistributionSpec:
    return DistributionSpec(kind="normal", variance=1.0)


def uniform(a: float, b: float) -> DistributionSpec:
    """Uniform on (a, b), shifted to mean zero if the midpoint is not 0."""
    a, b = float(a), float(b)
    if not a < b:
        raise ConfigurationError("uniform law needs a < b, got (%r, %r)" % (a, b))
    mid = 0.5 * (a + b)
    if abs(mid) > _PROB_TOL:
        warnings.warn(
            "uniform(%g, %g) has mean %g; auto-centering to keep row laws "
            "mean-zero" % (a, b, mid),
            stacklevel=2,
        )
        a, b = a - mid, b - mid
    return DistributionSpec(
        kind="uniform",
        params=(a, b),
        variance=(b - a) ** 2 / 12.0,
        sign_mean=0.0,
        nonzero_prob=1.0,
    )


def table(values, probs, auto_center: bool = True) -> DistributionSpec:
    """Discrete law from explicit (value, probability) pairs.

    Duplicate values are merged. Probabilities must be nonnegative and sum
    to 1 within 1e-12. A nonzero mean is shifted away with a warning when
    auto_center is true; every moment identity in this package assumes
    mean-zero rows, so disable centering only for sampling-level work.
    """
    vals = [float(v) for v in values]
    qs = [float(q) for q in probs]
    if len(vals) != len(qs) or not vals:
        raise ConfigurationError("table law needs matching, nonempty value/prob lists")
    if any(q < 0 for q in qs):
        raise ConfigurationError("table law has a negative probability")
    total = math.fsum(qs)
    if abs(total - 1.0) > _PROB_TOL:
        raise ConfigurationError(
            "table probabilities sum to %.17g, not 1 within 1e-12" % total
        )
    merged: dict[float, float] = {}
    for v, q in zip(vals, qs):
        merged[v] = merged.get(v, 0.0) + q
    vals = sorted(merged)
    qs = [merged[v] for v in vals]
    mean = math.fsum(v * q for v, q in zip(vals, qs))
    if auto_center and abs(mean) > _PROB_TOL:
        warnings.warn(
            "table law has mean %.6g; auto-centering (values shifted by the "
            "mean) to keep row laws mean-zero" % mean,
            stacklevel=2,
        )
        vals = [v - mean for v in vals]
        mean = 0.0
    var = math.fsum(q * (v - mean) ** 2 for v, q in zip(vals, qs))
    sign_mean = math.fsum(q * _sign(v) for v, q in zip(vals, qs))
    nonzero = math.fsum(q for v, q in zip(vals, qs) if v != 0.0)
    return DistributionSpec(
        kind="table",
        mean=mean,
        variance=var,
        sign_mean=sign_mean,
        nonzero_prob=nonzero,
        support=tuple(vals),
        probs=tuple(qs),
    )


def table_from_file(path) -> DistributionSpec:
    """Read a two-column text file (value, probability); '#' starts a comment."""
    vals, qs = [], []
    with open(path, "r", encoding="utf8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ConfigurationError(
                    "distribution table line %r: expected two columns" % raw.strip()
                )
            vals.append(float(parts[0]))
            qs.append(float(parts[1]))
    return table(vals, qs)


def _sign(v: float) -> float:
    return (v > 0) - (v < 0)


def sample_row(n: int, dist: DistributionSpec, seed) -> np.ndarray:
    """n i.i.d. draws from dist; bit-identical for identical inputs."""
    if n < 1:
        raise ConfigurationError("sample_row needs n >= 1, got %r" % n)
    rng = as_generator(seed)
    if dist.kind == "rademacher":
        return rng.integers(0, 2, size=n).astype(np.float64) * 2.0 - 1.0
    if dist.kind == "normal":
        return rng.standard_normal(n)
    if dist.kind == "uniform":
        a, b = dist.params
        return rng.uniform(a, b, size=n)
    if dist.kind == "table":
        cum = np.cumsum(dist.probs)
        cum[-1] = 1.0
        idx = np.searchsorted(cum, rng.random(n), side="right")
        return np.asarray(dist.support, dtype=np.float64)[idx]
    raise ConfigurationError("unknown distribution kind %r" % dist.kind)


# --------------------------------------------------------------------------
# dilution graphs


# Set bits per byte value; edge_count() relies on zero padding bits.
_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
    axis=1, dtype=np.uint8
)


@lru_cache(maxsize=2)
def _complete_edges(n: int):
    """Read-only triu_indices(n, 1): the edge list of every complete graph."""
    iu, ju = np.triu_indices(n, k=1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


@dataclass(frozen=True, eq=False)
class DilutionGraph:
    """Symmetric 0/1 dilution matrix stored as a packed bitset.

    Bits cover the n(n-1)/2 unordered pairs {i, j}, i < j, in row-major
    upper-triangle order, packed big-endian into ceil(C/8) bytes with zero
    padding bits (checked at construction). The diagonal does not exist.
    The packed bytes are the only stored form, O(n^2/8) bytes: the edge
    list is derived on each call to edges() in O(C) byte work plus O(E)
    index work, and no per-n index table is kept, except the read-only
    triu_indices of the last two complete-graph sizes.
    """

    n: int
    p: float
    packed: np.ndarray

    def __post_init__(self) -> None:
        c = self.pair_count
        nbytes = -(-c // 8)
        if self.packed.dtype != np.uint8 or self.packed.shape != (nbytes,):
            raise ConfigurationError(
                "packed dilution bits for n=%d must be %d uint8 bytes, got %s %s"
                % (self.n, nbytes, self.packed.dtype, self.packed.shape)
            )
        if c % 8 and int(self.packed[-1]) & (0xFF >> (c % 8)):
            raise ConfigurationError(
                "packed dilution bits for n=%d have nonzero padding bits" % self.n
            )

    @property
    def pair_count(self) -> int:
        return self.n * (self.n - 1) // 2

    def bits(self) -> np.ndarray:
        """Unpacked boolean vector over pairs, in storage order."""
        return np.unpackbits(self.packed, count=self.pair_count).view(bool)

    def edge_count(self) -> int:
        return int(_POPCOUNT[self.packed].sum(dtype=np.int64))

    def bit(self, i: int, j: int) -> int:
        n = self.n
        if not (0 <= i < n and 0 <= j < n):
            raise ConfigurationError(
                "pair (%r, %r) outside the %d vertices of the graph" % (i, j, n)
            )
        if i == j:
            raise ConfigurationError("dilution matrix has no diagonal entries")
        if i > j:
            i, j = j, i
        idx = i * (2 * n - i - 1) // 2 + (j - i - 1)
        return (int(self.packed[idx >> 3]) >> (7 - (idx & 7))) & 1

    def edges(self):
        """(ii, jj) arrays over the pairs with Z=1, ii < jj elementwise.

        Pairs come in storage order. A sorted linear pair index k in row i
        (row offset off_i = i(2n-i-1)/2) maps to j = k - off_i + i + 1.
        """
        n = self.n
        bits = self.bits()
        if bits.all():
            return _complete_edges(n)
        k = np.flatnonzero(bits)
        rows = np.arange(n)
        off = rows * (2 * n - rows - 1) // 2
        counts = np.diff(np.searchsorted(k, off), append=k.size)
        ii = np.repeat(rows, counts)
        jj = k - np.repeat(off - rows - 1, counts)
        return ii, jj

    def dense(self) -> np.ndarray:
        """Full symmetric boolean matrix (diagonal False)."""
        m = np.zeros((self.n, self.n), dtype=bool)
        ii, jj = self.edges()
        m[ii, jj] = True
        m[jj, ii] = True
        return m

    def lower(self) -> np.ndarray:
        """Strict lower triangle as float64: L[i, j] = Z_ij for j < i."""
        m = np.zeros((self.n, self.n), dtype=np.float64)
        ii, jj = self.edges()
        m[jj, ii] = 1.0
        return m

    def degrees(self) -> np.ndarray:
        """Number of Z=1 pairs touching each vertex."""
        ii, jj = self.edges()
        return np.bincount(ii, minlength=self.n) + np.bincount(jj, minlength=self.n)


def sample_dilution(n: int, p: float, seed) -> DilutionGraph:
    """Independent Ber(p) per unordered pair; symmetric by construction."""
    if n < 1:
        raise ConfigurationError("sample_dilution needs n >= 1, got %r" % n)
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError("dilution probability %r outside [0, 1]" % p)
    c = n * (n - 1) // 2
    if p == 0.0:
        bits = np.zeros(c, dtype=bool)
    elif p == 1.0:
        bits = np.ones(c, dtype=bool)
    else:
        rng = as_generator(seed)
        bits = np.empty(c, dtype=bool)
        chunk = 1 << 22
        for start in range(0, c, chunk):
            stop = min(start + chunk, c)
            bits[start:stop] = rng.random(stop - start) < p
    return DilutionGraph(n=n, p=float(p), packed=np.packbits(bits))


def dilution_regime(n: int, a: float) -> float:
    """p = n^(-a) for exponent a in [0, 1); keeps n*p growing along n.

    Exponents at or above 1 are rejected: they break the standing
    assumption that n*p diverges. Regimes with n*p < 10 are accepted but
    flagged, since convergence there is slow at desk scale.
    """
    if not 0.0 <= a < 1.0:
        raise ConfigurationError(
            "dilution exponent a=%r outside [0, 1); n*p would not diverge" % a
        )
    p = float(n) ** (-a)
    _warn_if_slow(n, p, stacklevel=3)
    return p


def _warn_if_slow(n: int, p: float, stacklevel: int = 2) -> None:
    """Warn once when n*p < 10, where convergence is slow at desk scale."""
    if n * p < _SLOW_REGIME_NP:
        warnings.warn(
            "slow regime: n*p = %.3g < %g at n=%d; finite-n behaviour may be "
            "far from the limit" % (n * p, _SLOW_REGIME_NP, n),
            stacklevel=stacklevel,
        )


# --------------------------------------------------------------------------
# seeding


@dataclass(frozen=True)
class SeedPolicy:
    """Counter-based child-seed derivation from one master seed.

    child(label, r) hashes the label with SHA-256, takes the first 8 bytes
    as a stream key, and builds SeedSequence(master, spawn_key=(key, r)).
    The mixing is pure and platform-independent; distinct (label, r) pairs
    give distinct, statistically independent child streams.
    """

    master_seed: int

    def child(self, stream_label: str, replication_index: int = 0) -> SeedSequence:
        digest = hashlib.sha256(stream_label.encode("utf8")).digest()
        label_key = int.from_bytes(digest[:8], "little")
        return SeedSequence(
            self.master_seed, spawn_key=(label_key, int(replication_index))
        )

    def generator(self, stream_label: str, replication_index: int = 0) -> Generator:
        return Generator(PCG64(self.child(stream_label, replication_index)))
