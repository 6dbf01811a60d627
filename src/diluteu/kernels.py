"""Symmetric pair kernels with their conditional-moment structure.

Everything downstream leans on three conditional objects besides the
kernel h itself: the conditional mean g(x) = E[h(x, X)], the pair
conditional H(x, y) = E[h(x, X) h(y, X)], and the centered pair
conditional H~(x, y) built from h~(x, y) = h(x, y) - g(x) - g(y). A
KernelSpec bundles h with closed forms for these against one fixed row
law. Every estimator needs them: a kernel without them is rejected by
one guard, and nothing falls back to nested Monte Carlo.

Centering contract: every registered kernel satisfies E[h(X, Y)] = 0
under independent draws from the paired law. For the product and additive
kernels, mean-zero rows already guarantee that. The raw sign kernel
sign(x)sign(y) has mean E[sign X]^2, which is nonzero for sign-skewed
laws, so the registry binds the mean-shifted form sign(x)sign(y) -
E[sign X]^2 instead. The shift is zero for symmetric laws, where the sign
kernel is degenerate.

Degeneracy (g identically zero) is a property of the (kernel, law) pair,
not of h alone; it is declared at registration and verified there by
enumeration for discrete laws or a fixed-seed Monte Carlo check otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, UnsupportedKernelError
from .sampling import DistributionSpec, sample_row

__all__ = [
    "KernelSpec",
    "register_builtin_kernels",
    "kernel_by_name",
    "product_kernel",
    "additive_kernel",
    "sign_kernel",
    "zero_kernel",
    "kernel_from_table",
    "load_kernel_table",
]

_EXACT_TOL = 1e-12
_DEGENERACY_EPS = 1e-15


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """A symmetric kernel bound to a row law.

    evaluate is vectorized over numpy arrays and must be symmetric in its
    arguments. conditional_mean / pair_conditional / centered_pair_conditional
    are the closed forms g, H, H~ for the bound law (None when unknown).
    second_moment and g_second_moment carry E[h^2] and E[g^2].
    """

    name: str
    evaluate: Callable
    conditional_mean: Optional[Callable] = None
    pair_conditional: Optional[Callable] = None
    centered_pair_conditional: Optional[Callable] = None
    degenerate_flag: bool = False
    dist: Optional[DistributionSpec] = None
    second_moment: Optional[float] = None
    g_second_moment: Optional[float] = None

    def pair_values(self, xa, xb) -> np.ndarray:
        """Evaluate h elementwise on two equal-shape arrays."""
        xa = np.asarray(xa, dtype=np.float64)
        xb = np.asarray(xb, dtype=np.float64)
        return np.asarray(self.evaluate(xa, xb), dtype=np.float64)

    def centered_values(self, xa, xb) -> np.ndarray:
        """h~(x, y) = h(x, y) - g(x) - g(y) from the closed-form g.

        Raises UnsupportedKernelError when the kernel lacks its closed forms.
        """
        _require_closed_forms(self)
        g = self.conditional_mean
        xa = np.asarray(xa, np.float64)
        xb = np.asarray(xb, np.float64)
        return self.pair_values(xa, xb) - np.asarray(g(xa)) - np.asarray(g(xb))

    def cross_conditional(self, x) -> np.ndarray:
        """K(x) = E[g(X) h(X, x)], recovered from the registered structure.

        Uses the identity H~(x, x) = H(x, x) - g(x)^2 - 2 K(x) + E[g^2].
        """
        _require_closed_forms(self)
        x = np.asarray(x, dtype=np.float64)
        hxx = np.asarray(self.pair_conditional(x, x), dtype=np.float64)
        gx = np.asarray(self.conditional_mean(x), dtype=np.float64)
        htxx = np.asarray(self.centered_pair_conditional(x, x), dtype=np.float64)
        return 0.5 * (hxx - gx * gx - htxx + self.g_second_moment)


def _require_closed_forms(kernel: KernelSpec) -> None:
    """Raise UnsupportedKernelError naming the closed forms kernel lacks.

    g, H, H~ and E[g^2] are what every centering, condition and eta
    computation reads; nothing approximates them another way.
    """
    missing = [
        nm
        for nm, v in (
            ("g", kernel.conditional_mean),
            ("H", kernel.pair_conditional),
            ("H~", kernel.centered_pair_conditional),
            ("E[g^2]", kernel.g_second_moment),
        )
        if v is None
    ]
    if missing:
        raise UnsupportedKernelError(
            "kernel %r lacks the closed form(s) %s; bind a table kernel to a "
            "discrete row law or use a built-in kernel"
            % (kernel.name, ", ".join(missing))
        )


def _require_mean_zero(dist: DistributionSpec, kernel_name: str) -> None:
    if abs(dist.mean) > _EXACT_TOL:
        raise ConfigurationError(
            "%s kernel requires a mean-zero row law; got mean %r"
            % (kernel_name, dist.mean)
        )


def product_kernel(dist: DistributionSpec) -> KernelSpec:
    """h(x, y) = x*y. Degenerate for every mean-zero law (g = x*E[X] = 0)."""
    _require_mean_zero(dist, "product")
    var = float(dist.variance)

    def ev(x, y):
        return np.asarray(x, np.float64) * np.asarray(y, np.float64)

    def g(x):
        return np.zeros_like(np.asarray(x, np.float64))

    def H(x, y):
        return var * np.asarray(x, np.float64) * np.asarray(y, np.float64)

    spec = KernelSpec(
        name="product",
        evaluate=ev,
        conditional_mean=g,
        pair_conditional=H,
        centered_pair_conditional=H,
        degenerate_flag=True,
        dist=dist,
        second_moment=var * var,
        g_second_moment=0.0,
    )
    _verify_registration(spec)
    return spec


def additive_kernel(dist: DistributionSpec) -> KernelSpec:
    """h(x, y) = x + y. Purely linear: h~ vanishes identically."""
    _require_mean_zero(dist, "additive")
    var = float(dist.variance)

    def ev(x, y):
        return np.asarray(x, np.float64) + np.asarray(y, np.float64)

    def g(x):
        return np.asarray(x, np.float64).copy()

    def H(x, y):
        return np.asarray(x, np.float64) * np.asarray(y, np.float64) + var

    def Ht(x, y):
        return np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape)

    spec = KernelSpec(
        name="additive",
        evaluate=ev,
        conditional_mean=g,
        pair_conditional=H,
        centered_pair_conditional=Ht,
        degenerate_flag=var == 0.0,
        dist=dist,
        second_moment=2.0 * var,
        g_second_moment=var,
    )
    _verify_registration(spec)
    return spec


def sign_kernel(dist: DistributionSpec) -> KernelSpec:
    """Bounded sign kernel, mean-shifted to honor the centering contract.

    With sb = E[sign X] and q = P(X != 0):

        h(x, y)  = sign(x) sign(y) - sb^2
        g(x)     = sb (sign(x) - sb)
        H(x, y)  = q sign(x) sign(y) - sb^3 (sign(x) + sign(y)) + sb^4
        H~(x, y) = (q - sb^2)(sign(x) - sb)(sign(y) - sb)

    For symmetric laws sb = 0, the shift disappears and the kernel is
    degenerate with H~ = H.
    """
    sb = float(dist.sign_mean)
    q = float(dist.nonzero_prob)
    shift = sb * sb

    def ev(x, y):
        return np.sign(np.asarray(x, np.float64)) * np.sign(
            np.asarray(y, np.float64)
        ) - shift

    def g(x):
        return sb * (np.sign(np.asarray(x, np.float64)) - sb)

    def H(x, y):
        sx = np.sign(np.asarray(x, np.float64))
        sy = np.sign(np.asarray(y, np.float64))
        return q * sx * sy - sb**3 * (sx + sy) + sb**4

    def Ht(x, y):
        sx = np.sign(np.asarray(x, np.float64))
        sy = np.sign(np.asarray(y, np.float64))
        return (q - sb * sb) * (sx - sb) * (sy - sb)

    spec = KernelSpec(
        name="sign",
        evaluate=ev,
        conditional_mean=g,
        pair_conditional=H,
        centered_pair_conditional=Ht,
        degenerate_flag=abs(sb) < _DEGENERACY_EPS,
        dist=dist,
        second_moment=q * q - shift * shift,
        g_second_moment=shift * (q - shift),
    )
    _verify_registration(spec)
    return spec


def zero_kernel(dist: DistributionSpec) -> KernelSpec:
    """h = 0: the degenerate-normalization edge case (theta^2 = 0)."""

    def zeros2(x, y):
        return np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape)

    def zeros1(x):
        return np.zeros_like(np.asarray(x, np.float64))

    return KernelSpec(
        name="zero",
        evaluate=zeros2,
        conditional_mean=zeros1,
        pair_conditional=zeros2,
        centered_pair_conditional=zeros2,
        degenerate_flag=True,
        dist=dist,
        second_moment=0.0,
        g_second_moment=0.0,
    )


_BUILTIN_FACTORIES = {
    "product": product_kernel,
    "additive": additive_kernel,
    "sign": sign_kernel,
}


def register_builtin_kernels(dist: DistributionSpec):
    """The built-in kernels bound to one row law, registration-checked.

    The conditional structure (and the degeneracy flag it implies) depends
    on the law, so binding happens here rather than at import time.
    """
    return [product_kernel(dist), additive_kernel(dist), sign_kernel(dist)]


def kernel_by_name(name: str, dist: DistributionSpec) -> KernelSpec:
    if name == "zero":
        return zero_kernel(dist)
    try:
        factory = _BUILTIN_FACTORIES[name]
    except KeyError:
        raise UnsupportedKernelError(
            "unknown kernel %r (built-ins: %s, zero)"
            % (name, ", ".join(sorted(_BUILTIN_FACTORIES)))
        ) from None
    return factory(dist)


# --------------------------------------------------------------------------
# registration checks


def _verify_registration(spec: KernelSpec) -> None:
    """Check centering, conditional-mean consistency, and the degeneracy flag.

    Discrete laws are checked exactly by enumeration; continuous laws get a
    fixed-seed Monte Carlo check with a 4-standard-error tolerance.
    """
    dist = spec.dist
    if dist is None:
        return
    if dist.is_discrete:
        vals = np.asarray(dist.support)
        qs = np.asarray(dist.probs)
        hmat = spec.pair_values(vals[:, None], vals[None, :])
        mean_h = float(qs @ hmat @ qs)
        if abs(mean_h) > 1e-9:
            raise ConfigurationError(
                "kernel %r is not centered for this law: E[h] = %.3e"
                % (spec.name, mean_h)
            )
        g_enum = hmat @ qs
        if spec.conditional_mean is not None:
            g_decl = np.asarray(spec.conditional_mean(vals), np.float64)
            err = float(np.max(np.abs(g_decl - g_enum)))
            if err > 1e-9:
                raise ConfigurationError(
                    "kernel %r: declared conditional mean differs from the "
                    "enumerated one by %.3e" % (spec.name, err)
                )
        g2 = float(qs @ (g_enum * g_enum))
        if spec.degenerate_flag != (g2 <= 1e-18):
            raise ConfigurationError(
                "kernel %r: degeneracy flag %r inconsistent with enumerated "
                "E[g^2] = %.3e" % (spec.name, spec.degenerate_flag, g2)
            )
        h2 = float(qs @ (hmat * hmat) @ qs)
        for label, declared, enum in (
            ("E[h^2]", spec.second_moment, h2),
            ("E[g^2]", spec.g_second_moment, g2),
        ):
            if declared is not None and abs(float(declared) - enum) > 1e-9:
                raise ConfigurationError(
                    "kernel %r: declared %s = %r differs from the enumerated "
                    "value %.12g" % (spec.name, label, declared, enum)
                )
        return
    # continuous law: deterministic MC spot check
    seed = int.from_bytes(
        ("registration:" + spec.name + ":" + dist.describe()).encode("utf8")[-8:],
        "little",
    )
    m = 4096
    x = sample_row(m, dist, seed)
    y = sample_row(m, dist, seed + 1)
    hv = spec.pair_values(x, y)
    se = float(hv.std(ddof=1)) / math.sqrt(m)
    if abs(float(hv.mean())) > 4.0 * se + 1e-12:
        raise ConfigurationError(
            "kernel %r fails the centering check: |mean h| = %.3e > 4 SE = %.3e"
            % (spec.name, abs(float(hv.mean())), 4.0 * se)
        )
    if spec.second_moment is not None:
        h2 = hv * hv
        h2_se = float(h2.std(ddof=1)) / math.sqrt(m)
        if abs(float(h2.mean()) - float(spec.second_moment)) > 4.0 * h2_se + 1e-12:
            raise ConfigurationError(
                "kernel %r: declared E[h^2] = %r is more than 4 SE from the "
                "sampled value %.6g" % (spec.name, spec.second_moment, float(h2.mean()))
            )
    if spec.conditional_mean is not None:
        gv = np.asarray(spec.conditional_mean(x), np.float64)
        g2 = float((gv * gv).mean())
        g2_se = float((gv * gv).std(ddof=1)) / math.sqrt(m)
        is_zero = g2 <= 4.0 * g2_se + 1e-12
        if spec.degenerate_flag != is_zero:
            raise ConfigurationError(
                "kernel %r: degeneracy flag %r inconsistent with sampled "
                "E[g^2] = %.3e (SE %.1e)" % (spec.name, spec.degenerate_flag, g2, g2_se)
            )


# --------------------------------------------------------------------------
# custom table kernels


def kernel_from_table(name: str, rows, dist: Optional[DistributionSpec] = None) -> KernelSpec:
    """Discrete kernel from (x, y, value) triples.

    Symmetry is validated: a pair given in both orders must agree exactly.
    The lookup matrix is filled in both orientations, so the kernel is
    symmetric even if only one orientation was supplied.

    The row law, when given, must be discrete and its support covered by
    the table; exact conditional structure (g, H, H~) and second moments
    are then attached by enumeration. Without a law the kernel carries no
    closed forms, so it can be evaluated but not centered or estimated.
    """
    if dist is not None and not dist.is_discrete:
        raise ConfigurationError(
            "table kernel %r needs a discrete row law; got %s"
            % (name, dist.describe())
        )
    entries: dict[tuple[float, float], float] = {}
    for row in rows:
        x, y, v = float(row[0]), float(row[1]), float(row[2])
        key = (x, y) if x <= y else (y, x)
        if key in entries and entries[key] != v:
            raise ConfigurationError(
                "kernel table breaks symmetry at pair %r: %r vs %r"
                % (key, entries[key], v)
            )
        entries[key] = v
    if not entries:
        raise ConfigurationError("kernel table is empty")
    support = np.asarray(sorted({c for key in entries for c in key}))
    k = support.size
    mat = np.full((k, k), np.nan)
    for (x, y), v in entries.items():
        ix = int(np.searchsorted(support, x))
        iy = int(np.searchsorted(support, y))
        mat[ix, iy] = v
        mat[iy, ix] = v

    def ev(xa, ya, _s=support, _m=mat):
        xa = np.asarray(xa, np.float64)
        ya = np.asarray(ya, np.float64)
        ia = np.searchsorted(_s, xa)
        ja = np.searchsorted(_s, ya)
        in_a = (ia < _s.size) & (_s[np.minimum(ia, _s.size - 1)] == xa)
        in_b = (ja < _s.size) & (_s[np.minimum(ja, _s.size - 1)] == ya)
        ok = in_a & in_b
        if not np.all(ok):
            bad = np.where(in_a, ya, xa)[~ok]
            raise ConfigurationError(
                "%d pair(s) with a value outside the kernel table support; "
                "first %r" % (bad.size, float(bad[0]))
            )
        vals = _m[ia, ja]
        if np.any(np.isnan(vals)):
            raise ConfigurationError("kernel table has no entry for a requested pair")
        return vals

    spec = KernelSpec(name=name, evaluate=ev, dist=dist)
    if dist is not None:
        missing = set(dist.support) - {float(s) for s in support}
        if missing:
            raise ConfigurationError(
                "row-law support %r not covered by the kernel table" % sorted(missing)
            )
        vals = np.asarray(dist.support)
        qs = np.asarray(dist.probs)
        hmat = spec.pair_values(
            np.repeat(vals, vals.size), np.tile(vals, vals.size)
        ).reshape(vals.size, vals.size)
        g_vec = hmat @ qs
        mean_h = float(qs @ g_vec)
        if abs(mean_h) > _EXACT_TOL:
            raise ConfigurationError(
                "table kernel %r is not centered for this law (E[h] = %.3e); "
                "shift the values by E[h]" % (name, mean_h)
            )
        Hmat = hmat @ (qs[:, None] * hmat)
        ht = hmat - g_vec[:, None] - g_vec[None, :]
        Htmat = ht @ (qs[:, None] * ht)
        e_h2 = float(qs @ (hmat * hmat) @ qs)
        e_g2 = float(qs @ (g_vec * g_vec))

        def lookup(vec):
            def f(x, _v=vals, _vec=vec):
                x = np.asarray(x, np.float64)
                idx = np.searchsorted(_v, x)
                return _vec[np.clip(idx, 0, _v.size - 1)]

            return f

        def lookup2(m2):
            def f(x, y, _v=vals, _m=m2):
                x = np.asarray(x, np.float64)
                y = np.asarray(y, np.float64)
                ix = np.clip(np.searchsorted(_v, x), 0, _v.size - 1)
                iy = np.clip(np.searchsorted(_v, y), 0, _v.size - 1)
                return _m[ix, iy]

            return f

        spec = replace(
            spec,
            conditional_mean=lookup(g_vec),
            pair_conditional=lookup2(Hmat),
            centered_pair_conditional=lookup2(Htmat),
            second_moment=e_h2,
            g_second_moment=e_g2,
            degenerate_flag=e_g2 <= 1e-18,
        )
    return spec


def load_kernel_table(path, dist: Optional[DistributionSpec] = None) -> KernelSpec:
    """Kernel from a three-column text file (x, y, h); '#' starts a comment."""
    rows = []
    with open(path, "r", encoding="utf8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ConfigurationError(
                    "kernel table line %r: expected three columns" % raw.strip()
                )
            rows.append((float(parts[0]), float(parts[1]), float(parts[2])))
    import os

    name = os.path.splitext(os.path.basename(str(path)))[0]
    return kernel_from_table(name, rows, dist=dist)
