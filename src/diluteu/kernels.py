"""Symmetric pair kernels of finite rank, with their conditional moments.

Every kernel here has the form h(x, y) = phi(x)^T A phi(y), with a feature
map phi into R^r and a symmetric r x r matrix A:

    product    phi(x) = x              A = [1]
    additive   phi(x) = (x, 1)         A = [[0, 1], [1, 0]]
    sign       phi(x) = (sign x, 1)    A = diag(1, -sb^2)
    table      phi(x) = one-hot over the row law's support, A = the table

Everything downstream leans on conditional objects besides h itself: the
conditional mean g(x) = E[h(x, X)], the pair conditional H(x, y) =
E[h(x, X) h(y, X)], the centered pair conditional H~(x, y) built from
h~(x, y) = h(x, y) - g(x) - g(y), the cross conditional K(x) =
E[g(X) h(X, x)], and E[h^2], E[g^2]. With the row law's feature moments
mu = E[phi(X)] and Sigma = E[phi(X) phi(X)^T] they all follow from the
four objects (phi, A, mu, Sigma):

    g(x)    = phi(x)^T A mu
    H(x, y) = phi(x)^T A Sigma A phi(y)
    H~(x, y) = (phi(x) - mu)^T A (Sigma - mu mu^T) A (phi(y) - mu)
    K(x)    = phi(x)^T A Sigma A mu
    E[h^2]  = tr(A Sigma A Sigma)
    E[g^2]  = mu^T A Sigma A mu

(H~ in this form uses the centering contract mu^T A mu = E[h] = 0.) The
four objects and the row law are required fields of every kernel, so
nothing downstream checks for them or falls back to nested Monte Carlo.
Table kernels take their law as a required argument too. Only the
built-ins (product, additive, sign, zero) keep a hand-written h
(evaluate): it is the per-pair inner loop of every statistic, and the
generic phi^T A phi form is 4 to 7 times slower per pair. Product's and
additive's h are numpy's multiply and add. A table kernel's h and its
one-hot phi share one support lookup (kernel_from_table). Every factory
returns through one call, _registered, which builds the spec and checks
h against phi^T A phi and (mu, Sigma) against the law.

Centering contract: every registered kernel satisfies E[h(X, Y)] = 0
under independent draws from the paired law. For the product and additive
kernels, mean-zero rows already guarantee that. The raw sign kernel
sign(x)sign(y) has mean E[sign X]^2, which is nonzero for sign-skewed
laws, so the registry binds the mean-shifted form sign(x)sign(y) -
E[sign X]^2 instead. The shift is zero for symmetric laws, where the sign
kernel is degenerate.

Degeneracy (g identically zero) is a property of the (kernel, law) pair,
not of h alone; it is read from E[g^2], which registration derives from mu
and Sigma after checking them against the law: exactly by enumeration for
discrete laws, by a fixed-seed Monte Carlo check otherwise.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigurationError, UnsupportedKernelError
from .sampling import DistributionSpec, _read_rows, _real, sample_row

__all__ = [
    "KernelSpec",
    "kernel_by_name",
    "product_kernel",
    "additive_kernel",
    "sign_kernel",
    "zero_kernel",
    "kernel_from_table",
    "load_kernel_table",
]

def _quadratic(fx: np.ndarray, m: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """fx^T m fy over the last axis, broadcasting the leading ones."""
    return np.sum((fx @ m) * fy, axis=-1)


class _MomentProducts(NamedTuple):
    """The products of A with the feature moments that the closed forms read."""

    mu: np.ndarray  # mu = E[phi(X)]
    a_mu: np.ndarray  # A mu: g = phi^T A mu
    a_sig: np.ndarray  # A Sigma: E[h^2] = tr((A Sigma)^2)
    a_sig_a: np.ndarray  # A Sigma A: H
    a_cov_a: np.ndarray  # A (Sigma - mu mu^T) A: H~
    k_vec: np.ndarray  # A Sigma A mu: K = phi^T k_vec, E[g^2] = mu^T k_vec


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """A symmetric finite-rank kernel h(x, y) = phi(x)^T A phi(y) bound to a row law.

    evaluate is h itself, vectorized over numpy arrays and symmetric in its
    arguments. features is phi, mapping an array of shape s to shape
    s + (r,); coef is the symmetric r x r matrix A. feature_mean and
    feature_moment are mu = E[phi(X)] and Sigma = E[phi(X) phi(X)^T] under
    the bound law dist. g, H, H~, K, E[h^2] and E[g^2] (the methods and
    properties below) are derived from these four, and so is
    degenerate_flag (E[g^2] = 0). Every field is required. Every factory
    builds its spec through _registered, which checks phi, A, mu and Sigma
    against h and the law (_verify_registration); a spec built directly
    is taken as given. pair_values hands evaluate float64 arrays, so h
    converts nothing itself.
    """

    name: str
    evaluate: Callable
    features: Callable
    coef: np.ndarray
    feature_mean: np.ndarray
    feature_moment: np.ndarray
    dist: DistributionSpec

    def pair_values(self, xa, xb) -> np.ndarray:
        """Evaluate h elementwise on two equal-shape arrays."""
        xa = np.asarray(xa, dtype=np.float64)
        xb = np.asarray(xb, dtype=np.float64)
        return np.asarray(self.evaluate(xa, xb), dtype=np.float64)

    @cached_property
    def _products(self) -> _MomentProducts:
        a = np.asarray(self.coef, np.float64)
        mu = np.asarray(self.feature_mean, np.float64)
        a_sig = a @ np.asarray(self.feature_moment, np.float64)
        a_mu = a @ mu
        a_sig_a = a_sig @ a
        return _MomentProducts(
            mu=mu,
            a_mu=a_mu,
            a_sig=a_sig,
            a_sig_a=a_sig_a,
            a_cov_a=a_sig_a - np.outer(a_mu, a_mu),
            k_vec=a_sig_a @ mu,
        )

    def _phi(self, x) -> np.ndarray:
        return np.asarray(self.features(np.asarray(x, np.float64)), np.float64)

    @property
    def second_moment(self) -> float:
        """E[h^2] = tr(A Sigma A Sigma)."""
        a_sig = self._products.a_sig
        return float(np.sum(a_sig * a_sig.T))

    @property
    def g_second_moment(self) -> float:
        """E[g^2] = mu^T A Sigma A mu."""
        return float(self._products.mu @ self._products.k_vec)

    @property
    def degenerate_flag(self) -> bool:
        """g vanishes: E[g^2] <= 1e-18."""
        return self.g_second_moment <= 1e-18

    @property
    def centered_pair_matrix(self) -> np.ndarray:
        """B = A (Sigma - mu mu^T) A: H~(x, y) = (phi(x) - mu)^T B (phi(y) - mu)."""
        return self._products.a_cov_a

    def conditional_mean(self, x) -> np.ndarray:
        """g(x) = phi(x)^T A mu."""
        return self._phi(x) @ self._products.a_mu

    def pair_conditional(self, x, y) -> np.ndarray:
        """H(x, y) = phi(x)^T A Sigma A phi(y), broadcasting x against y."""
        return _quadratic(self._phi(x), self._products.a_sig_a, self._phi(y))

    def centered_pair_conditional(self, x, y) -> np.ndarray:
        """H~(x, y) = (phi(x) - mu)^T A Cov A (phi(y) - mu), broadcasting."""
        b = self.centered_pair_matrix
        mu = self._products.mu
        return _quadratic(self._phi(x) - mu, b, self._phi(y) - mu)

    def cross_conditional(self, x) -> np.ndarray:
        """K(x) = E[g(X) h(X, x)] = phi(x)^T A Sigma A mu."""
        return self._phi(x) @ self._products.k_vec

    def centered_values(self, xa, xb) -> np.ndarray:
        """h~(x, y) = h(x, y) - g(x) - g(y), with h from evaluate."""
        return self.pair_values(xa, xb) - self.conditional_mean(xa) - self.conditional_mean(xb)


def _same_law(kernel: KernelSpec, dist: DistributionSpec) -> None:
    """Refuse a row law other than the one the kernel was registered against."""
    if kernel.dist.describe() != dist.describe():
        raise ConfigurationError(
            "kernel %r was registered against %s, not %s"
            % (kernel.name, kernel.dist.describe(), dist.describe())
        )


def _with_ones(v: np.ndarray) -> np.ndarray:
    """Features (v, 1) along a new last axis."""
    return np.stack((v, np.ones_like(v)), axis=-1)


def _registered(**fields) -> KernelSpec:
    """The one construction path of every factory: build the spec and check it."""
    spec = KernelSpec(**fields)
    _verify_registration(spec)
    return spec


def product_kernel(dist: DistributionSpec) -> KernelSpec:
    """h(x, y) = x*y: phi(x) = x, A = 1. Degenerate for every mean-zero law."""
    return _registered(
        name="product",
        evaluate=np.multiply,
        features=lambda x: x[..., None],
        coef=np.array([[1.0]]),
        feature_mean=np.array([0.0]),
        feature_moment=np.array([[float(dist.variance)]]),
        dist=dist,
    )


def additive_kernel(dist: DistributionSpec) -> KernelSpec:
    """h(x, y) = x + y: phi(x) = (x, 1), A = [[0, 1], [1, 0]].

    Purely linear: g(x) = x and H~ vanishes identically.
    """
    var = float(dist.variance)
    return _registered(
        name="additive",
        evaluate=np.add,
        features=_with_ones,
        coef=np.array([[0.0, 1.0], [1.0, 0.0]]),
        feature_mean=np.array([0.0, 1.0]),
        feature_moment=np.array([[var, 0.0], [0.0, 1.0]]),
        dist=dist,
    )


def sign_kernel(dist: DistributionSpec) -> KernelSpec:
    """Bounded sign kernel, mean-shifted to honor the centering contract.

    With sb = E[sign X] and q = P(X != 0):

        h(x, y) = sign(x) sign(y) - sb^2
        phi(x)  = (sign x, 1),  A = diag(1, -sb^2)
        mu      = (sb, 1),      Sigma = [[q, sb], [sb, 1]]

    so g(x) = sb (sign(x) - sb), with sb and q summed over the law's
    support. A continuous law (normal, centered uniform) is symmetric with
    no atoms: its sign is a fair sign, so sb = 0 and q = 1. For symmetric
    laws the shift disappears and the kernel is degenerate with H~ = H.
    """
    law = tuple(zip(dist.support, dist.probs)) if dist.is_discrete else ((-1.0, 0.5), (1.0, 0.5))
    sb = math.fsum(w * ((v > 0) - (v < 0)) for v, w in law)
    q = math.fsum(w for v, w in law if v != 0.0)
    shift = sb * sb
    return _registered(
        name="sign",
        evaluate=lambda x, y: np.sign(x) * np.sign(y) - shift,
        features=lambda x: _with_ones(np.sign(x)),
        coef=np.diag([1.0, -shift]),
        feature_mean=np.array([sb, 1.0]),
        feature_moment=np.array([[q, sb], [sb, 1.0]]),
        dist=dist,
    )


def zero_kernel(dist: DistributionSpec) -> KernelSpec:
    """h = 0: the degenerate-normalization edge case (theta^2 = 0)."""
    return _registered(
        name="zero",
        evaluate=lambda x, y: np.zeros(np.broadcast(x, y).shape),
        features=lambda x: np.zeros(np.shape(x) + (1,)),
        coef=np.zeros((1, 1)),
        feature_mean=np.zeros(1),
        feature_moment=np.zeros((1, 1)),
        dist=dist,
    )


_BUILTIN_FACTORIES = {
    "product": product_kernel,
    "additive": additive_kernel,
    "sign": sign_kernel,
    "zero": zero_kernel,
}


def kernel_by_name(name: str, dist: DistributionSpec) -> KernelSpec:
    """Bind the built-in kernel `name` (a _BUILTIN_FACTORIES key) to dist."""
    try:
        factory = _BUILTIN_FACTORIES[name]
    except KeyError:
        raise UnsupportedKernelError(
            "unknown kernel %r (built-ins: %s)"
            % (name, ", ".join(sorted(_BUILTIN_FACTORIES)))
        ) from None
    return factory(dist)


# --------------------------------------------------------------------------
# registration checks


def _verify_registration(spec: KernelSpec) -> None:
    """Check (phi, A) against h, (mu, Sigma) against the law, and centering.

    Discrete laws are checked exactly on the support: h == phi^T A phi on
    every pair of support points, and mu, Sigma against their enumerated
    values. Continuous laws get a fixed-seed Monte Carlo check: h ==
    phi^T A phi on every drawn pair, and each entry of mu and Sigma within
    4 standard errors of its sample mean. Centering (mu^T A mu = 0) is
    then read from the checked closed form.
    """
    dist = spec.dist
    if dist.is_discrete:
        x = np.asarray(dist.support, np.float64)
        w = np.asarray(dist.probs, np.float64)
        xa, xb = np.repeat(x, x.size), np.tile(x, x.size)
    else:
        seed = int.from_bytes(
            ("registration:" + spec.name + ":" + dist.describe()).encode("utf8")[-8:],
            "little",
        )
        m = 4096
        xa = sample_row(m, dist, seed)
        xb = sample_row(m, dist, seed + 1)
        x = xa
        w = np.full(m, 1.0 / m)
    a = np.asarray(spec.coef, np.float64)
    hv = spec.pair_values(xa, xb)
    hf = _quadratic(spec._phi(xa), a, spec._phi(xb))
    # written as not (gap <= tol) here and below, so that a NaN fails
    bad = ~(np.abs(hv - hf) <= 1e-9 * np.maximum(1.0, np.abs(hv)))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise ConfigurationError(
            "kernel %r: phi^T A phi differs from h at %d of %d pairs; first "
            "h(%r, %r) = %r against %r"
            % (spec.name, int(bad.sum()), bad.size, float(xa[k]), float(xb[k]),
               float(hv[k]), float(hf[k]))
        )
    phi = spec._phi(x)
    outer = phi[:, :, None] * phi[:, None, :]
    for label, declared, draws in (
        ("E[phi]", spec.feature_mean, phi),
        ("E[phi phi^T]", spec.feature_moment, outer),
    ):
        value = np.tensordot(w, draws, axes=1)
        if dist.is_discrete:
            tol = 1e-9 * np.maximum(1.0, np.abs(value))
        else:
            tol = 4.0 * draws.std(axis=0, ddof=1) / math.sqrt(w.size) + 1e-12
        if not np.all(np.abs(np.asarray(declared, np.float64) - value) <= tol):
            raise ConfigurationError(
                "kernel %r: declared %s = %s differs from the %s value %s"
                % (spec.name, label, np.asarray(declared).tolist(),
                   "enumerated" if dist.is_discrete else "sampled",
                   np.round(value, 12).tolist())
            )
    mean_h = float(spec._products.mu @ spec._products.a_mu)
    if not abs(mean_h) <= 1e-9:
        raise ConfigurationError(
            "kernel %r is not centered for this law: E[h] = %.3e" % (spec.name, mean_h)
        )


# --------------------------------------------------------------------------
# custom table kernels


def kernel_from_table(name: str, rows, dist: DistributionSpec) -> KernelSpec:
    """Discrete kernel from (x, y, value) triples, bound to a discrete row law.

    Symmetry is validated: a pair given in both orders must agree exactly;
    one orientation is enough. The table is kept once, as A over the law's
    support: phi is the one-hot indicator over that support, and h(x, y)
    = phi(x)^T A phi(y) is read directly as A[i(x), i(y)] at the support
    index i that phi uses. Every pair of support points needs an entry;
    entries at other values are ignored, since rows never take them, and
    h or phi at such a value raises. mu is the probabilities and Sigma
    their diagonal matrix. The kernel then passes the same registration
    check as the built-ins, centering (E[h] = 0) included.
    """
    if not dist.is_discrete:
        raise ConfigurationError(
            "table kernel %r needs a discrete row law; got %s"
            % (name, dist.describe())
        )
    entries: dict[tuple[float, float], float] = {}
    for row in rows:
        if len(row) != 3:
            raise ConfigurationError("kernel table row %r is not an (x, y, value) triple" % (row,))
        x, y = (_real(e, "kernel table point") for e in row[:2])
        key = (x, y) if x <= y else (y, x)
        v = _real(row[2], "kernel table entry at pair %r" % (key,))
        if key in entries and entries[key] != v:
            raise ConfigurationError(
                "kernel table breaks symmetry at pair %r: %r vs %r"
                % (key, entries[key], v)
            )
        entries[key] = v
    support = dist.support
    missing = [(x, y) for i, x in enumerate(support) for y in support[i:]
               if (x, y) not in entries]
    if missing:
        raise ConfigurationError(
            "row-law support pairs %r not covered by the kernel table" % missing
        )
    coef = np.array([[entries[(x, y) if x <= y else (y, x)] for y in support]
                     for x in support])
    vals = np.asarray(support, np.float64)
    qs = np.asarray(dist.probs, np.float64)

    def at(x):  # the support index of each x; a value off the support raises
        i = np.minimum(np.searchsorted(vals, x), vals.size - 1)
        off = vals[i] != x
        if np.any(off):
            raise ConfigurationError(
                "%d value(s) outside the row-law support; first %r"
                % (np.count_nonzero(off), float(x[off].flat[0]))
            )
        return i

    return _registered(
        name=name,
        evaluate=lambda xa, xb: coef[at(xa), at(xb)],
        features=lambda x, _eye=np.eye(vals.size): _eye[at(x)],
        coef=coef,
        feature_mean=qs,
        feature_moment=np.diag(qs),
        dist=dist,
    )


def load_kernel_table(path, dist: DistributionSpec) -> KernelSpec:
    """Kernel from a three-column text file (x, y, h); '#' starts a comment
    and numbers are read as flags read them (5/6 is allowed, nan is not).

    dist is the discrete row law the kernel is bound to, as in
    kernel_from_table; the kernel is named after the file.
    """
    rows = _read_rows(path, "kernel table", 3)
    name = os.path.splitext(os.path.basename(str(path)))[0]
    return kernel_from_table(name, rows, dist)
