"""Lattices, Eisenstein series, and numeric weight checks.

Conventions: a lattice is an ordered pair (lam1, lam2) of complex periods
with Im(lam1/lam2) > 0, so tau = lam1/lam2 lies in the upper half plane
and q = exp(2*pi*i*tau).  The double-cover action rescales both periods
by mu^2 on top of an integral unimodular change of basis, and an object
of weight w picks up mu^(-2w).  Only the lattice-sum kernels use numpy,
and they import it in their own bodies.
"""
from __future__ import annotations

import cmath
import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .series import TruncatedSeries, solve_exact

TWO_PI_I = 2j * math.pi


@functools.lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2 convention), memoized per n."""
    if n < 0:
        raise ValueError("negative index")
    vals = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * vals[j]
        vals.append(-acc / (m + 1))
    return vals[n]


def divisor_sigma(k: int, n: int) -> int:
    if n <= 0:
        raise ValueError("n must be positive")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d**k
            if d * d != n:
                total += (n // d) ** k
        d += 1
    return total


@functools.lru_cache(maxsize=None)
def eisenstein_q(k: int, order: int) -> TruncatedSeries:
    """G_k(q) = -B_k/(2k) + sum_{n>=1} sigma_{k-1}(n) q^n, k even, k >= 2.

    Memoized per (k, order), like delta_q: a weight check evaluates one
    expansion at every sample.  Callers share the result and must not
    change it.
    """
    if k < 2 or k % 2:
        raise ValueError("k must be even and >= 2")
    table = {0: -bernoulli(k) / (2 * k)}
    for n in range(1, order + 1):
        table[n] = Fraction(divisor_sigma(k - 1, n))
    return TruncatedSeries("q", order, table)


def qpochhammer(order: int, power: int = 1) -> TruncatedSeries:
    """prod_{n>=1} (1 - q^n)^power as a q-expansion, for a power of either sign.

    Miller's recurrence for P = B^power, with b_0 = 1:
    n P_n = sum_{j=1..n} ((power + 1) j - n) b_j P_{n-j}, over the nonzero
    b_j of B = prod (1 - q^n), which sit at Euler's pentagonal numbers
    k(3k -+ 1)/2 with sign (-1)^k.  The P_n are integers, converted to
    Fraction once.
    """
    b = []
    for k in range(1, math.isqrt(order) + 2):
        b += [(j, (-1) ** k) for j in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2) if j <= order]
    p = [1] + [0] * order
    for n in range(1, order + 1):
        s = 0
        for j, c in b:
            if j > n:
                break
            s += ((power + 1) * j - n) * c * p[n - j]
        p[n] = s // n
    return TruncatedSeries("q", order, dict(enumerate(p)))


@functools.lru_cache(maxsize=None)
def delta_q(order: int) -> TruncatedSeries:
    """The discriminant cusp form q * prod (1 - q^n)^24, memoized per order."""
    shifted = {e + 1: c for e, c in qpochhammer(order, 24).coeffs.items()}
    return TruncatedSeries("q", order, shifted, minexp=1)


@dataclass(frozen=True)
class Lattice:
    lam1: complex
    lam2: complex

    def __post_init__(self):
        if self.lam2 == 0:
            raise ValueError("lam2 must be nonzero")
        if (self.lam1 / self.lam2).imag <= 0:
            raise ValueError("need Im(lam1/lam2) > 0")

    @property
    def tau(self) -> complex:
        return self.lam1 / self.lam2

    @property
    def q(self) -> complex:
        return cmath.exp(TWO_PI_I * self.tau)

    @property
    def covolume(self) -> float:
        # area of the fundamental parallelogram
        return (self.lam1 * self.lam2.conjugate()).imag


def act(gamma, mu: complex, lat: Lattice) -> Lattice:
    """Double-cover action: integral basis change gamma, then rescale by mu^2."""
    a, b, c, d = gamma
    if a * d - b * c != 1:
        raise ValueError("gamma must have determinant one")
    s = mu * mu
    return Lattice(s * (a * lat.lam1 + b * lat.lam2), s * (c * lat.lam1 + d * lat.lam2))


def lattice_value(series: TruncatedSeries, weight: int, lat: Lattice) -> complex:
    """Evaluate a weight-w q-expansion as a function of the lattice."""
    return (TWO_PI_I / lat.lam2) ** weight * series.evaluate(lat.q)


def eisenstein_lattice(k: int, lat: Lattice, qorder: int = 40) -> complex:
    """The absolutely convergent lattice sum sum' omega^(-k) via its q-expansion.

    For k = 2 this is the Eisenstein-summed (row-by-row) value.
    """
    bridge = 2 / math.factorial(k - 1)
    return bridge * lattice_value(eisenstein_q(k, qorder), k, lat)


def eisenstein_num(k: int, lat: Lattice, M: int = 300) -> complex:
    """Direct lattice sum of omega^(-k), omega = n lam1 + m lam2 != 0.

    Only half the lattice is visited: rows n > 0 and the half row n = 0,
    m > 0, doubled, since for even k (-omega)^(-k) = omega^(-k); odd k
    gives 0 by that symmetry.  For k >= 4 the sum over the square
    max(|n|, |m|) <= M carries an O(1/M^2) tail, so the value returned is
    the Richardson extrapolate (4 S(M) - S(M // 2)) / 3 of the square sums.
    The sums are nested: S(M) is S(M // 2) plus the annulus
    M // 2 < max(|n|, |m|) <= M, so every point is visited once, and the
    extrapolate is S(M // 2) + 4/3 of the annulus.  It reaches ~1e-8
    agreement with the q-expansion evaluator at M = 300.  For k = 2 the
    sum is only conditionally convergent; rows |n| <= M are each summed
    over a deep inner cutoff |m| <= M^2, matching the Eisenstein
    convention, and the result is first-order accurate only.  Rows n and
    -n carry equal sums, so the k = 2 path is half the lattice too.

    Points are taken in tiles of at most _TILE entries (whole rows when a
    row fits, else pieces of one row), so at most two tile-sized complex
    arrays are alive: about 0.5 MiB, whatever M is.
    """
    if M < 1:
        raise ValueError(f"lattice sum needs M >= 1, got M={M}")
    if k % 2:
        return 0j
    if k < 2:
        raise ValueError("k must be >= 2")
    if k == 2:
        inner = M * M
        return 2 * (_power_sum(2, lat, 1, M, -inner, inner) + _power_sum(2, lat, 0, 0, 1, inner))
    h = M // 2
    box = _power_sum(k, lat, 1, h, -h, h) + _power_sum(k, lat, 0, 0, 1, h)
    ring = (
        _power_sum(k, lat, 1, h, -M, -h - 1)
        + _power_sum(k, lat, 1, h, h + 1, M)
        + _power_sum(k, lat, h + 1, M, -M, M)
        + _power_sum(k, lat, 0, 0, h + 1, M)
    )
    return 2 * (box + 4 * ring / 3)


_TILE = 1 << 14  # lattice points per tile of eisenstein_num


def _power_sum(k: int, lat: Lattice, n0: int, n1: int, m0: int, m1: int) -> complex:
    """sum of omega^(-k) over n0 <= n <= n1, m0 <= m <= m1, k even, tile by tile.

    omega^(-k) is (1/omega^2)^(k/2), formed by repeated multiplication.
    """
    import numpy as np

    if n1 < n0 or m1 < m0:
        return 0j
    total = 0j
    cols = min(m1 - m0 + 1, _TILE)
    rows = _TILE // cols
    for m in range(m0, m1 + 1, cols):
        row = np.arange(m, min(m + cols, m1 + 1)) * lat.lam2
        for n in range(n0, n1 + 1, rows):
            col = np.arange(n, min(n + rows, n1 + 1))[:, None] * lat.lam1
            total += _tile_power_sum(k, col + row)
    return total


def _tile_power_sum(k: int, w) -> complex:
    """sum of w^(-k) over the tile w, overwriting w.

    A function of its own so that the tile and its power are freed on
    return, before the next tile is built.
    """
    import numpy as np

    w *= w
    np.reciprocal(w, out=w)
    if k == 2:
        return complex(w.sum())
    p = w * w
    for _ in range(k // 2 - 2):
        p *= w
    return complex(p.sum())


# ---------------------------------------------------------------- sampling

_GENS = [(1, 1, 0, 1), (1, -1, 0, 1), (0, -1, 1, 0)]


def _mul2(g, h):
    return (
        g[0] * h[0] + g[1] * h[2],
        g[0] * h[1] + g[1] * h[3],
        g[2] * h[0] + g[3] * h[2],
        g[2] * h[1] + g[3] * h[3],
    )


def random_unimodular(rng: random.Random, tau: complex, min_imag: float = 0.2):
    """A short random word in the standard generators, not a translation.

    Rejects translations (c = 0), which every q-expansion satisfies, and
    words that drag Im(gamma*tau) below min_imag, where the truncated
    q-expansions would stop being trustworthy.
    """
    while True:
        g = (1, 0, 0, 1)
        for _ in range(rng.randrange(1, 5)):
            g = _mul2(g, rng.choice(_GENS))
        c, d = g[2], g[3]
        if c and (tau.imag / abs(c * tau + d) ** 2) >= min_imag:
            return g


def random_lattice(rng: random.Random) -> Lattice:
    tau = complex(rng.uniform(-0.45, 0.45), rng.uniform(0.9, 2.1))
    phi = rng.uniform(0, 2 * math.pi)
    r = rng.uniform(0.6, 1.6)
    lam2 = r * cmath.exp(1j * phi)
    return Lattice(tau * lam2, lam2)


def random_scale(rng: random.Random) -> complex:
    return rng.uniform(0.7, 1.3) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))


@dataclass
class WeightCheck:
    ok: bool
    max_rel: float
    samples: int


def check_weight(
    f,
    weight: int,
    count: int = 10,
    seed: int = 0,
    tol: float = 1e-8,
    min_imag: float = 0.2,
) -> WeightCheck:
    """Test f(act(gamma, mu, L)) = mu^(-2w) f(L) on random samples.

    f maps a Lattice to a complex number; deviations are measured
    relative to |f(L)|.
    """
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(count):
        lat = random_lattice(rng)
        gamma = random_unimodular(rng, lat.tau, min_imag)
        mu = random_scale(rng)
        base = f(lat)
        moved = f(act(gamma, mu, lat))
        rel = abs(moved - mu ** (-2 * weight) * base) / abs(base)
        worst = max(worst, rel)
    return WeightCheck(worst <= tol, worst, count)


def g2_lattice(lat: Lattice, qorder: int = 40) -> complex:
    return eisenstein_lattice(2, lat, qorder)


def weight_monomials(weight: int):
    """Exponents (c, a, b) of G_2^c G_4^a G_6^b with c = 0 and 4a + 6b = weight."""
    return [
        (0, a, (weight - 4 * a) // 6)
        for a in range(weight // 4 + 1)
        if (weight - 4 * a) % 6 == 0
    ]


def homogeneous_fit(series: TruncatedSeries, weight: int):
    """Write a q-series as an isobaric weight-w polynomial in G_4, G_6.

    Returns {(0, a, b): Fraction} for sum coeff * G4^a G6^b matching
    every available q-coefficient exactly, or None when no such expression
    exists.  The zero series always fits (empty dict).
    """
    order = series.trunc
    if series.is_zero():
        return {}
    if weight < 0:
        return None
    monos = weight_monomials(weight)
    if not monos:
        return None
    g4, g6 = eisenstein_q(4, order), eisenstein_q(6, order)
    cols = [TruncatedSeries.one("q", order) * g4 ** a * g6 ** b for _, a, b in monos]
    rows = [{} for _ in range(order + 1)]
    for j, col in enumerate(cols):
        for e, c in col.coeffs.items():
            rows[e][j] = c
    rhs = [series.coeff(e) for e in range(order + 1)]
    sol = solve_exact(rows, rhs, len(monos))
    if sol is None:
        return None
    return {monos[j]: s for j, s in sol.items()}


def g2_anomaly_samples(count: int = 10, seed: int = 1, qorder: int = 40):
    """Normalized failure of the weight-2 law for the Eisenstein-summed G_2.

    Each sample returns r = (f(act) - mu^-4 f(L)) * mu^4 * lam2^2 * (c*tau + d) / c,
    which the tests find to be one and the same constant for every sample.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        lat = random_lattice(rng)
        gamma = random_unimodular(rng, lat.tau)
        c, d = gamma[2], gamma[3]
        mu = random_scale(rng)
        resid = g2_lattice(act(gamma, mu, lat), qorder) - mu ** (-4) * g2_lattice(lat, qorder)
        out.append(resid * mu**4 * lat.lam2**2 * (c * lat.tau + d) / c)
    return out
