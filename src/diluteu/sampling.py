"""Row-law and dilution sampling under a deterministic seeding contract.

Two independent sources of randomness drive every experiment: one row of
i.i.d. draws X_1..X_n from a mean-zero law F, and a symmetric Bernoulli(p)
dilution matrix Z deciding which pairs enter the statistic. Both samplers
are pure functions of (parameters, seed), so any replication can be
regenerated in isolation, out of order, on any worker.

Seed derivation is counter-based: a master seed plus a stream label and
indices is mixed into a child seed by a fixed public function (SHA-256 of
the label, folded into a numpy SeedSequence spawn key). Distinct labels
and indices give independent streams. A SeedSequence argument is copied,
never advanced, so every call with it spawns the same children.

Within a stream, a dilution graph with 0 < p < 1 spends one byte of the
generator's raw 64-bit words per pair (little-endian byte order, pair k
in byte k % 8 of word k // 8) and one uniform per pair whose byte ties
with the top 8 bits of p, drawn after all the words; see
sample_dilution. The draw does not depend on how the pairs are chunked.

A graph's kept pairs are read in row form, (counts, jj): the number of
pairs (i, j), j > i, of each row i, and their partners j in storage order.
The row side of a pair list is np.repeat over counts, so no E-length
array of row indices is built. The module keeps one extraction, the last
graph's, so the passes over one realization extract its edges once.

A graph's packed bytes do not change once it is built, so its edge count
and degrees are computed once and kept on the graph. A graph with p = 0
or p = 1 is a constant of n that sample_dilution builds once per (n, p).

Text inputs read numbers with one grammar, _number; a caller's counts and
int seeds go through _integer and its reals through _real; and every report
writes its values with one writer, _report_value, which spells a float as its repr.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
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
    "rademacher",
    "standard_normal",
    "uniform",
    "table",
    "table_from_file",
    "sample_row",
    "sample_dilution",
    "dilution_regime",
]

_PROB_TOL = 1e-12
_SLOW_REGIME_NP = 10.0


def as_generator(seed) -> Generator:
    """Turn an int seed >= 0, a SeedSequence or a Generator into a PCG64 Generator."""
    if isinstance(seed, Generator):
        return seed
    return Generator(PCG64(seed if isinstance(seed, SeedSequence) else as_seed_sequence(seed)))


def as_seed_sequence(seed) -> SeedSequence:
    """A new SeedSequence from an int seed >= 0 or a SeedSequence, which is copied, not advanced."""
    if isinstance(seed, SeedSequence):
        return SeedSequence(seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size)
    return SeedSequence(_integer(seed, "seed", 0))


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
    a, b = _real(a, "uniform law endpoint"), _real(b, "uniform law endpoint")
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
    vals = [_real(v, "table law value") for v in values]
    qs = [_real(q, "table law probability") for q in probs]
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


def _number(text: str) -> float:
    """A decimal or fraction (0.3, 1e-2, 5/6) as a float: the number grammar of
    every text input. nan, inf and 1e400 raise ConfigurationError."""
    from fractions import Fraction  # imported on first use, not by `import diluteu`

    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ConfigurationError("%r is not a number" % text) from None


def _integer(v, what: str, least=None) -> int:
    """v as an int: an int (numpy too) or an integral float (200.0 as 200), at
    least `least` when given. A bool, a fraction, nan, inf, a non-number or a
    value below least raises ConfigurationError."""
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        v = int(v)
    elif isinstance(v, (float, np.floating)) and float(v).is_integer():
        v = int(v)
    else:
        raise ConfigurationError("%s must be an integer; got %r" % (what, v))
    if least is not None and v < least:
        raise ConfigurationError("%s must be >= %d; got %d" % (what, least, v))
    return v


def _real(v, what: str) -> float:
    """v as a float: an int or a float (numpy too). A bool, a non-number, nan,
    an infinity or an int past the float range raises ConfigurationError."""
    if isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool):
        if abs(v) <= sys.float_info.max:  # false for nan
            return float(v)
    raise ConfigurationError("%s must be a finite real number; got %r" % (what, v))


def _point(n, p, floor: bool = False):
    """(n, p) of a pair statistic as (int, float): n a count >= 2 and p a real
    in (0, 1]; with floor, n*p >= 1 too, as every sweep needs."""
    n = _integer(n, "n")
    if n < 2:
        raise ConfigurationError("a pair statistic needs n >= 2; got n=%d" % n)
    p = _real(p, "p")
    if not 0.0 < p <= 1.0:
        raise ConfigurationError("dilution p=%r out of range at n=%d" % (p, n))
    if floor and n * p < 1.0:
        raise ConfigurationError(
            "n*p = %.3f < 1 at n=%d; the sparse regime needs np >= 1" % (n * p, n)
        )
    return n, p


def _report_value(v):
    """v as every report writes it, the output side of _number: a float (numpy
    too) as its repr string, an int (numpy too) as an int, a str, bool or None
    as it is, a dict value by value, and any other sequence or array as a list."""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if v is None or isinstance(v, (str, bool)):
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, dict):
        return {k: _report_value(x) for k, x in v.items()}
    return [_report_value(x) for x in v]


def _report_json(obj, fields) -> str:
    """The named attributes of obj, each through _report_value, as JSON with sorted keys."""
    return json.dumps({f: _report_value(getattr(obj, f)) for f in fields}, sort_keys=True)


def _read_rows(path, kind: str, width: int, sep=None, convert=_number) -> list:
    """Rows of `width` fields, split at sep (default: whitespace) and passed
    through convert (default: _number), from a UTF-8 text file; '#' starts a
    comment and blank lines are skipped. A file that cannot be opened or is
    not UTF-8, or a bad line, raises ConfigurationError naming kind and the
    path or the line."""
    try:
        with open(path, "r", encoding="utf8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigurationError("%s file %s: %s" % (kind, path, exc.strerror)) from None
    except UnicodeDecodeError:
        raise ConfigurationError("%s file %s is not UTF-8 text" % (kind, path)) from None
    rows = []
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            fields = line.split(sep, width - 1) if sep else line.split()
            if len(fields) != width:
                what = repr(sep) if sep else "whitespace"
                raise ValueError("expected %d fields separated by %s" % (width, what))
            rows.append(tuple(convert(f.strip()) for f in fields))
        except ValueError as exc:
            msg = "%s line %r: %s" % (kind, raw.strip(), exc)
            raise ConfigurationError(msg) from None
    return rows


def table_from_file(path) -> DistributionSpec:
    """Read a two-column text file (value, probability); '#' starts a comment
    and numbers are read as flags read them (5/6 is allowed, nan is not)."""
    rows = _read_rows(path, "distribution table", 2)
    return table([v for v, _ in rows], [q for _, q in rows])


def _sign(v: float) -> float:
    return (v > 0) - (v < 0)


def sample_row(n: int, dist: DistributionSpec, seed) -> np.ndarray:
    """n i.i.d. draws from dist; bit-identical for identical inputs."""
    n = _integer(n, "n", 1)
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


def _row_form(k: np.ndarray, n: int):
    """(counts, jj) of the sorted linear pair indices k; k becomes jj in place.

    Row i's pairs start at off_i = i(2n-i-1)/2, so index k in row i is the
    pair (i, k - off_i + i + 1). Both arrays come back read-only.
    """
    rows = np.arange(n)
    off = rows * (2 * n - rows - 1) // 2
    starts = np.searchsorted(k, off)
    counts = np.empty(n, dtype=np.int64)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1] = k.size - starts[-1]
    k -= np.repeat(off - rows - 1, counts)
    counts.setflags(write=False)
    k.setflags(write=False)
    return counts, k


# (graph, counts, jj) of the last graph whose edges() was extracted, or
# None. Replaced as one tuple and read once per call, so concurrent
# callers never see a graph with another graph's arrays.
_kept = None


@dataclass(frozen=True, eq=False)
class DilutionGraph:
    """Symmetric 0/1 dilution matrix stored as a packed bitset.

    Bits cover the n(n-1)/2 unordered pairs {i, j}, i < j, in row-major
    upper-triangle order, packed big-endian into ceil(C/8) bytes with zero
    padding bits (checked at construction; edge_count() relies on them).
    The diagonal does not exist. The packed bytes are the graph's only
    stored form of the pairs and must not change once the graph is built:
    the edge count and degrees are computed on first use and kept on the
    graph. edges() extracts the row-form edge list, 8(n + E) bytes. No
    n x n form exists: lower(cols) applies the strictly-lower matrix.
    """

    n: int
    packed: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError("a dilution graph needs n >= 1, got %r" % self.n)
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
        """Number of kept pairs: a popcount of the packed bytes on the first
        call, kept on the graph for later calls."""
        count = self.__dict__.get("_edge_count")
        if count is None:
            count = int(np.bitwise_count(self.packed).sum(dtype=np.int64))
            self.__dict__["_edge_count"] = count
        return count

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
        """(counts, jj): the pairs with Z=1 in row form, in storage order.

        counts[i] is the number of kept pairs (i, j), and jj holds the
        partners j > i row after row, ascending within a row, so the pair
        list is (repeat(arange(n), counts), jj). Both are read-only intp
        arrays, extracted in O(C) byte work plus O(E) index work and kept
        (one graph in the process) until another graph is extracted or
        drawn, so repeated calls return them without work.
        """
        global _kept
        kept = _kept
        if kept is not None and kept[0] is self:
            return kept[1], kept[2]
        # free the kept list (both references) before this one is built
        kept = _kept = None
        counts, jj = _row_form(np.flatnonzero(self.bits()), self.n)
        _kept = (self, counts, jj)
        return counts, jj

    def lower(self, cols) -> np.ndarray:
        """L @ cols for the strict lower triangle L (L[i, j] = Z_ij, j < i).

        cols has n rows (1-D or 2-D; any other row count raises
        ConfigurationError) and the float64 result has its shape:
        row i sums the rows j < i of cols whose pair is kept. L is never
        built. A complete graph (edge_count() == pair_count) takes the
        exclusive prefix sum over rows, O(n k) for k columns with no edge
        list; any other graph one bincount per column over its kept
        edges(), O(n + E) each.
        """
        cols = np.asarray(cols, dtype=np.float64)
        if cols.shape[:1] != (self.n,):
            raise ConfigurationError(
                "lower() needs %d rows, got an array of shape %s" % (self.n, cols.shape)
            )
        if self.edge_count() == self.pair_count:
            out = np.zeros_like(cols)
            np.cumsum(cols[:-1], axis=0, out=out[1:])
            return out
        counts, jj = self.edges()
        flat = cols.reshape(self.n, -1)
        out = np.empty_like(flat)
        for c in range(flat.shape[1]):
            weights = np.repeat(flat[:, c], counts)
            out[:, c] = np.bincount(jj, weights=weights, minlength=self.n)
        return out.reshape(cols.shape)

    def degrees(self) -> np.ndarray:
        """Number of Z=1 pairs touching each vertex: read-only int64, length n.

        Computed from edges() on the first call and kept on the graph;
        concurrent first calls may each compute the same array.
        """
        deg = self.__dict__.get("_degrees")
        if deg is None:
            counts, jj = self.edges()
            # row i's count covers the pairs (i, j); bincount the (j, i)
            deg = counts + np.bincount(jj, minlength=self.n)
            deg.setflags(write=False)
            self.__dict__["_degrees"] = deg
        return deg


def sample_dilution(n: int, p: float, seed) -> DilutionGraph:
    """Independent Ber(p) per unordered pair; symmetric by construction.

    For 0 < p < 1, with top = floor(256 p) and frac = 256 p - top, pair
    k (storage order) reads byte k % 8 of the little-endian bytes of the
    (k // 8)-th random_raw word of the seeded generator. The pair is kept
    when that byte is below top; on a tie with top it is kept when its
    uniform is below frac. The tie uniforms come from one rng.random
    call over the ties in storage order, after all the words, and are
    skipped when frac = 0. So P(keep) = p within 2^-61, pairs are
    independent, and the stream depends on neither the internal chunk
    size nor the platform's byte order. The packed bytes are read-only.
    A draw first frees the kept edge list.

    p = 0 and p = 1 draw nothing and ignore the seed: they return one
    shared graph per (n, p) for the last two such pairs.
    """
    n = _integer(n, "n", 1)
    p = _real(p, "dilution probability")
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError("dilution probability %r outside [0, 1]" % p)
    if p == 0.0 or p == 1.0:
        return _constant_graph(n, bool(p))
    global _kept
    _kept = None  # free the last graph's edge list before drawing a new one
    c = n * (n - 1) // 2
    rng = as_generator(seed)
    # both exact in float64: 256p only shifts the exponent
    top = int(p * 256.0)
    frac = p * 256.0 - top
    bits = np.empty(c, dtype=bool)
    ties = []
    chunk = 1 << 22  # a multiple of 8, so a chunk starts on a word
    for start in range(0, c, chunk):
        stop = min(start + chunk, c)
        words = rng.bit_generator.random_raw(-(-(stop - start) // 8))
        byte = words.astype("<u8", copy=False).view(np.uint8)[: stop - start]
        np.less(byte, top, out=bits[start:stop])
        if frac:
            tie = np.flatnonzero(byte == top)
            tie += start
            ties.append(tie)
    if ties:
        tie = np.concatenate(ties)
        bits[tie] = rng.random(tie.size) < frac
    packed = np.packbits(bits)
    packed.setflags(write=False)
    return DilutionGraph(n=n, packed=packed)


@lru_cache(maxsize=2)
def _constant_graph(n: int, full: bool) -> DilutionGraph:
    """The empty (full false) or complete graph on n vertices, read-only bytes."""
    c = n * (n - 1) // 2
    packed = np.full(-(-c // 8), 0xFF if full else 0, dtype=np.uint8)
    if full and c % 8:
        packed[-1] = (0xFF << (8 - c % 8)) & 0xFF
    packed.setflags(write=False)
    return DilutionGraph(n=n, packed=packed)


def dilution_regime(n: int, a: float) -> float:
    """p = n^(-a) for exponent a in [0, 1); keeps n*p growing along n.

    Exponents at or above 1 are rejected: they break the standing
    assumption that n*p diverges. Regimes with n*p < 10 are accepted but
    flagged on every call, since convergence there is slow at desk scale;
    package code takes p from the silent _regime_p instead.
    """
    p = _regime_p(n, a)
    _warn_if_slow(n, p, stacklevel=3)
    return p


def _regime_p(n: int, a: float) -> float:
    """p = n^(-a), with n by the point rule and a in [0, 1) checked; never warns."""
    n = _point(n, 1.0)[0]
    a = _real(a, "dilution exponent a")
    if not 0.0 <= a < 1.0:
        raise ConfigurationError(
            "dilution exponent a=%r outside [0, 1); n*p would not diverge" % a
        )
    return float(n) ** (-a)


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

    child(label, *index) hashes the label with SHA-256, takes the first 8 bytes
    as a stream key, and builds SeedSequence(master, spawn_key=(key, *index)).
    The mixing is pure and platform-independent; distinct (label, index)
    tuples give distinct, statistically independent child streams.
    """

    master_seed: int

    def __post_init__(self):
        object.__setattr__(self, "master_seed", _integer(self.master_seed, "master seed", 0))

    def child(self, stream_label: str, *index: int) -> SeedSequence:
        digest = hashlib.sha256(stream_label.encode("utf8")).digest()
        label_key = int.from_bytes(digest[:8], "little")
        return SeedSequence(
            self.master_seed, spawn_key=(label_key,) + tuple(int(i) for i in index)
        )
