"""Regularized fermionic Pfaffians on the doubled torus and their characters.

A sector is a list of components; each component carries a pair of
boundary twists (alpha1, alpha2) and a flat shift X.  The mode operator
in component j has eigenvalues

    (pi / vol) * ((n - alpha2) lam1 + (m + alpha1) lam2 + X),   n, m in Z,

and the component sits at the exponential coordinate
z = 2 pi i (alpha1 - tau alpha2 + X / lam2) of the curve.  Closed-form
values are products of the canonical coordinate over the components; the
overall Fock normalization ((pi / vol) prod (1 - q^n)^2)^dim cancels in
every ratio this module computes, and only ratios are exposed.

Ratios of infinite eigenvalue products are regularized by a rectangle
window: |n| <= M rows, each row cut at |m| <= P with P = 4 M^2.  A row's
finite product is evaluated through Euler's product for the sine,

    prod_{|m| <= P} (ca + m)/(cb + m)
        = [sin(pi ca)/sin(pi cb)] / prod_{m > P} (1 - ca^2/m^2)/(1 - cb^2/m^2),

in scalar cmath: one sine ratio and a few terms of a power series per row
(see _row_log_ratio), so the cost is O(rows) rather than O(modes).  Only a
row whose head cut P0, about 3 |c| + 48 for its shift c, reaches P (a
caller's small P) is multiplied out.  The rows' logs are summed exactly
and their signs counted as an int; nothing here uses numpy, so every bit
of a window is independent of the CPU's SIMD dispatch.

The raw window limit differs from the closed form by exp((S_a - S_b)/2)
with S the sum of the component coordinates; pf_truncated_ratio removes
that factor internally so its M -> infinity limit is exactly
pf_closed(a) / pf_closed(b).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .modforms import TWO_PI_I, Lattice, act
from .series import MultiSeries
from .sigma import sigma_exponential, sigma_num, sigma_product

_EM_JMAX = 24
_EXP_IM = 1.0  # |Im r| past which sin(pi r) is taken from e^(2 pi i r)


@dataclass(frozen=True)
class SectorDatum:
    alpha1: Fraction
    alpha2: Fraction = Fraction(0)
    X: complex = 0j


def sector_z(datum: SectorDatum, lat: Lattice) -> complex:
    """Exponential coordinate of the component on C/Lambda."""
    return TWO_PI_I * (
        complex(datum.alpha1) - lat.tau * complex(datum.alpha2) + datum.X / lat.lam2
    )


def pf_closed(sector, lat: Lattice) -> complex:
    """Product of the canonical coordinate over the components; 0 on the
    trivial sector, where a zero mode survives."""
    out = complex(1)
    for d in sector:
        out *= sigma_num(lat, sector_z(d, lat))
    return out


# ------------------------------------------------------------ window ratio


def _twists(datum: SectorDatum, lam2: complex) -> tuple[complex, complex, complex]:
    """(alpha1, alpha2, X / lam2) as complex numbers, converted once per datum."""
    return complex(datum.alpha1), complex(datum.alpha2), datum.X / lam2


def _row_shift(twists, n: int, tau: complex) -> complex:
    a1, a2, x = twists
    return (n - a2) * tau + a1 + x


def _zeta_tail(s, x):
    """sum_{m > x} m^-s by Euler-Maclaurin, x a large integer."""
    y2 = x ** -2
    t = 1 - (s + 3) * (s + 4) * y2 / 42.0
    t = 1 - (s + 1) * (s + 2) * y2 / 60.0 * t
    return x ** -s * (x / (s - 1) - 0.5 + s / (12.0 * x) * t)


def _log_sin(r: complex) -> complex:
    """log sin(pi r), up to a multiple of 2 pi i, for any Im r: where |Im r|
    passes _EXP_IM, sin(pi r) = (i s / 2) e^(-i pi s r) (1 - e^(2 pi i s r))
    with s the sign of Im r, so nothing overflows."""
    if abs(r.imag) <= _EXP_IM:
        return cmath.log(cmath.sin(math.pi * r))
    s = TWO_PI_I if r.imag > 0 else -TWO_PI_I
    return cmath.log(s / (4 * math.pi) * (1 - cmath.exp(s * r))) - s / 2 * r


def _head_log(ca: complex, cb: complex, P: int) -> complex:
    """log prod_{|m| <= P} (ca + m)/(cb + m), multiplied out mode by mode.

    The modes m, -m are taken together as (ca - m)(ca + m)/((cb - m)(cb + m)),
    each factor of which is rounded on its own, so a small ca - m or a
    cb far larger than ca costs no precision.  A log is taken every 32
    pairs, so no partial product overflows.
    """
    log, out = 0j, ca / cb
    for m in range(1, P + 1):
        out *= (ca - m) * (ca + m) / ((cb - m) * (cb + m))
        if not m % 32:
            log += cmath.log(out)
            out = 1
    return log + cmath.log(out)


def _row_log_ratio(
    ca: complex, cb: complex, ka: int, kb: int, P0: int, P: int, zetas
) -> tuple[complex, int]:
    """(log, flips) with prod_{|m| <= P} (ca + m)/(cb + m) = (-1)^flips e^log.

    A row whose head cut P0 reaches P is multiplied out (_head_log).  Any
    other row is Euler's product for the sine,

        [sin(pi ca)/sin(pi cb)] / prod_{m > P} (1 - ca^2/m^2)/(1 - cb^2/m^2).

    c = k + r with k the integer nearest Re c (ka, kb), so sin(pi c) =
    (-1)^k sin(pi r) and k_a - k_b is counted in flips; r is exact.  Where
    Im ra and Im rb are both past _EXP_IM on one side, sin(pi ra)/sin(pi rb) is
    e^(-i pi s (ra - rb)) (1 - e^(2 pi i s ra))/(1 - e^(2 pi i s rb)), with
    ra - rb formed before it is scaled.  The log of the product beyond P is
    -sum_k (ca^2k - cb^2k) zetas[k-1] / k, with zetas[k-1] = sum_{m > P} m^-2k.
    Its k-th term is at most |ca^2 - cb^2| max(|ca|, |cb|)^(2k-2) zetas[k-1],
    and the sum stops where that bound falls below 1e-20: P0 < P puts |c|
    under P/3, so each next bound is less than a ninth of the last.
    """
    if P0 == P:
        return _head_log(ca, cb, P), 0
    ra, rb = ca - ka, cb - kb
    ya, yb = ra.imag, rb.imag
    if min(abs(ya), abs(yb)) > _EXP_IM and (ya > 0) == (yb > 0):
        s = TWO_PI_I if ya > 0 else -TWO_PI_I
        log = cmath.log((1 - cmath.exp(s * ra)) / (1 - cmath.exp(s * rb))) - s / 2 * (ra - rb)
    else:
        log = _log_sin(ra) - _log_sin(rb)
    a, b = ca * ca, cb * cb
    d = (ca - cb) * (ca + cb)
    big = max(abs(a), abs(b))
    dk, bk, bound = d, b, abs(d)  # a^k - b^k, b^k and |a - b| big^(k-1)
    for k, z in enumerate(zetas, 1):
        if bound * z < 1e-20:
            break
        log += dk * z / k
        dk = a * dk + bk * d
        bk *= b
        bound *= big
    return log, ka - kb


def pf_truncated_ratio(
    sector_a, sector_b, lat: Lattice, M: int, P: int | None = None
) -> complex:
    """Windowed eigenvalue-product ratio, converging to pf_closed(a)/pf_closed(b).

    The error decays like 1/M; with the default P = 4 M^2 the relative
    deviation from the closed form drops below 1e-4 by M = 800 on
    lattices with Im tau >= 1.  Each row is one _row_log_ratio; the rows'
    logs are summed exactly (math.fsum) and their sign flips counted as an
    int.  Empty sectors give exactly 1.

    A row's head cut P0 is P, where the row is multiplied out, or else
    above 3 |c|, which bounds the power series beyond P.  The integer k
    nearest Re c is formed once: c - k is the eigenvalue nearest zero
    (clamped to the modes |m| <= P when P0 = P; below, |k| < P0), and
    k_a - k_b the row's sign flips.  The first row, in (component, n)
    order, with a vanishing eigenvalue raises.
    """
    if len(sector_a) != len(sector_b):
        raise ValueError("sectors must have equal dimension for a finite ratio")
    if P is None:
        P = 4 * M * M
    if M < 1 or P < 1:
        raise ValueError(f"window needs M >= 1 and P >= 1, got M={M}, P={P}")
    tau = lat.tau
    zetas = [_zeta_tail(2 * k, float(P)) for k in range(1, _EM_JMAX + 1)]
    logs, flips = [], 0
    for j, (da, db) in enumerate(zip(sector_a, sector_b)):
        ta, tb = _twists(da, lat.lam2), _twists(db, lat.lam2)
        for n in range(-M, M + 1):
            ca, cb = _row_shift(ta, n, tau), _row_shift(tb, n, tau)
            P0 = min(int(3 * max(abs(ca), abs(cb))) + 48, P)
            ka, kb = round(ca.real), round(cb.real)
            if P0 == P:
                ka, kb = min(max(ka, -P), P), min(max(kb, -P), P)
            gap_a, gap_b = abs(ca - ka), abs(cb - kb)
            if min(gap_a, gap_b) < 1e-12:
                raise ValueError(
                    f"vanishing eigenvalue in component {j} at "
                    f"(n={n}, m={-kb if gap_b < gap_a else -ka})"
                )
            log, f = _row_log_ratio(ca, cb, ka, kb, P0, P, zetas)
            logs.append(log)
            flips += f
    s_a = sum(sector_z(d, lat) for d in sector_a)
    s_b = sum(sector_z(d, lat) for d in sector_b)
    logs.append(-(s_a - s_b) / 2)
    out = cmath.exp(complex(math.fsum(x.real for x in logs), math.fsum(x.imag for x in logs)))
    return -out if flips % 2 else out


def pf_rowlimit_ratio(sector_a, sector_b, lat: Lattice, rows: int = 10) -> complex:
    """Same ratio through the exact per-row limits sin(pi c_a)/sin(pi c_b).

    Row corrections decay geometrically in q, so a handful of rows
    already matches the closed form far beyond 1e-10.  This path never
    touches the q-product, making it an independent cross-check.
    """
    if len(sector_a) != len(sector_b):
        raise ValueError("sectors must have equal dimension for a finite ratio")
    tau = lat.tau
    out = complex(1)
    for da, db in zip(sector_a, sector_b):
        ta, tb = _twists(da, lat.lam2), _twists(db, lat.lam2)
        for n in range(-rows, rows + 1):
            ca = _row_shift(ta, n, tau)
            cb = _row_shift(tb, n, tau)
            out *= cmath.sin(math.pi * ca) / cmath.sin(math.pi * cb)
    s_a = sum(sector_z(d, lat) for d in sector_a)
    s_b = sum(sector_z(d, lat) for d in sector_b)
    return out * cmath.exp(-(s_a - s_b) / 2)


# --------------------------------------------------------------- characters


def _multi_z(base: MultiSeries, n: int, qorder: int, zorder: int) -> MultiSeries:
    names = tuple(f"z{i}" for i in range(1, n + 1))
    V = ("q",) + names
    caps = (qorder,) + (zorder,) * n
    out = MultiSeries.one(V, caps=caps)
    for name in names:
        out = out * base.rename({"z": name}).lift(V, caps=caps)
    return out


def vacuum_character(n: int, qorder: int, zorder: int) -> MultiSeries:
    """Formal n-point character: the coordinate's exponential form in each
    of z1..zn, multiplied out over the q, z box."""
    return _multi_z(sigma_exponential(qorder, zorder), n, qorder, zorder)


def vacuum_character_product(n: int, qorder: int, zorder: int) -> MultiSeries:
    """The same character assembled from the convergent product form."""
    return _multi_z(sigma_product(qorder, zorder), n, qorder, zorder)


def weyl_defect(char: MultiSeries) -> int:
    """Coefficients moved by the adjacent swaps of the z block, summed over
    the swaps; 0 exactly when the character is symmetric.

    A swap moves the coefficient at e when it differs from the one at the
    swapped exponent f; where f holds none, the coefficient at f moves too.
    """
    table = char.coeffs
    moved = 0
    for i in range(1, len(char.vars) - 1):
        for e, c in table.items():
            a, b = e[i], e[i + 1]
            if a != b:
                f = e[:i] + (b, a) + e[i + 2 :]
                if c != table.get(f, 0):
                    moved += 1 if f in table else 2
    return moved


def weyl_invariant(char: MultiSeries) -> bool:
    """Symmetry under permuting the z block (adjacent swaps suffice)."""
    return weyl_defect(char) == 0


# ---------------------------------------------------------- loop multipliers


@dataclass
class MultiplierCheck:
    label: str
    measured: complex
    predicted: complex
    rel_err: float
    ok: bool


def looijenga_check(lat: Lattice, datum: SectorDatum, tol: float = 1e-8):
    """Coweight shifts and the basis shear against the frozen multipliers.

    Shifting alpha1 by 1 moves z a full period (multiplier 1); shifting
    alpha2 by -1/+1 moves z by +/- 2 pi i tau (multipliers -q^-1 e^-z and
    -e^z); the shear (lam1 + lam2, lam2) with alpha1 -> alpha1 + alpha2
    leaves the coordinate itself fixed.
    """
    z = sector_z(datum, lat)
    base = sigma_num(lat, z)
    sheared_lat = act((1, 1, 0, 1), 1.0, lat)
    sheared = SectorDatum(datum.alpha1 + datum.alpha2, datum.alpha2, datum.X)
    cases = [
        ("alpha1+1", replace(datum, alpha1=datum.alpha1 + 1), lat, complex(1)),
        ("alpha2+1", replace(datum, alpha2=datum.alpha2 + 1), lat, -cmath.exp(z)),
        (
            "alpha2-1",
            replace(datum, alpha2=datum.alpha2 - 1),
            lat,
            -cmath.exp(-z) / lat.q,
        ),
        ("shear", sheared, sheared_lat, complex(1)),
    ]
    out = []
    for label, datum2, lat2, predicted in cases:
        measured = sigma_num(lat2, sector_z(datum2, lat2)) / base
        rel = abs(measured - predicted) / abs(predicted)
        out.append(MultiplierCheck(label, measured, predicted, rel, rel <= tol))
    return out
