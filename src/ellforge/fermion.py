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
head, |m| <= P0 with P0 about 3 |c| + 48 for its shift c, is multiplied
out; the rest of the row up to P is an analytic Euler-Maclaurin tail.
Within a head the ratios are multiplied in blocks of _BLOCK and one
complex log is taken per block product, so the summed log is known only
modulo 2 pi i; the ratio is its exponential and does not see the
difference.  Heads are evaluated one row at a time: at M = 800 the whole
window holds about 7.8 million ratios, some 125 MB as one complex array,
which would raise peak memory.  Tails are cheap to batch: all rows' tails
are one (rows x _EM_JMAX) complex array, about 0.6 MB at M = 800, and the
whole tail step stays under 2 MB there.

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

import numpy as np

from .modforms import TWO_PI_I, Lattice, act
from .series import MultiSeries, differing_terms
from .sigma import sigma_exponential, sigma_num, sigma_product

_EM_JMAX = 24
_BLOCK = 16  # ratios per complex log in the window kernel


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


def weight_eigenvalue(datum: SectorDatum, n: int, m: int, lat: Lattice) -> complex:
    return (math.pi / lat.covolume) * (
        (n - complex(datum.alpha2)) * lat.lam1
        + (m + complex(datum.alpha1)) * lat.lam2
        + datum.X
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
    """sum_{m > x} m^-s by Euler-Maclaurin, x a large integer; s an integer
    or an array of them, x a float or a column of them."""
    y2 = x ** -2
    t = 1 - (s + 3) * (s + 4) * y2 / 42.0
    t = 1 - (s + 1) * (s + 2) * y2 / 60.0 * t
    return x ** -s * (x / (s - 1) - 0.5 + s / (12.0 * x) * t)


def _nearest_mode(c: complex, P0: int) -> tuple[int, float]:
    """The m in [-P0, P0] minimising |c + m|, and that minimum."""
    m = min(max(round(-c.real), -P0), P0)
    return m, abs(c + m)


def _window_rows(sector_a, sector_b, lat: Lattice, M: int, P: int):
    """(ca, cb, P0) for every row in (component, n) order.

    P0 is the row's head cut; beyond it, up to P, the row's tail is
    analytic.  Raises on the first row, in that order, with a vanishing
    eigenvalue inside its head.
    """
    tau = lat.tau
    rows = []
    for j, (da, db) in enumerate(zip(sector_a, sector_b)):
        ta, tb = _twists(da, lat.lam2), _twists(db, lat.lam2)
        for n in range(-M, M + 1):
            ca = _row_shift(ta, n, tau)
            cb = _row_shift(tb, n, tau)
            P0 = min(int(3 * max(abs(ca), abs(cb))) + 48, P)
            ma, small_a = _nearest_mode(ca, P0)
            mb, small_b = _nearest_mode(cb, P0)
            if min(small_a, small_b) < 1e-12:
                raise ValueError(
                    f"vanishing eigenvalue in component {j} at "
                    f"(n={n}, m={mb if small_b < small_a else ma})"
                )
            rows.append((ca, cb, P0))
    return rows


def _head_log_ratio(ca: complex, cb: complex, m) -> complex:
    """log prod (ca + m)/(cb + m) over the modes ``m``, modulo 2 pi i."""
    ratios = (ca + m) / (cb + m)
    cut = ratios.size - ratios.size % _BLOCK
    # a block takes every (cut / _BLOCK)-th ratio; only the total product matters
    blocks = ratios[:cut].reshape(_BLOCK, -1).prod(axis=0)
    return complex(np.log(blocks).sum()) + cmath.log(complex(ratios[cut:].prod()))


def _tail_log_ratios(rows, P: int) -> list[complex]:
    """Per row, sum log((ca^2 - m^2)/(cb^2 - m^2)) over P0 < m <= P.

    The log is expanded in powers of ca^2/m^2 and cb^2/m^2 up to _EM_JMAX,
    with each power sum over m taken from _zeta_tail; all rows are one
    (rows x _EM_JMAX) array.
    """
    k = np.arange(1, _EM_JMAX + 1, dtype=float)
    # numpy's vector pow rounds x ** -2 differently from Python's scalar pow
    # for about one integer in twenty, but for every integer x from 2 to
    # 10^6 the difference reaches no bit of _zeta_tail's result
    x = np.array([float(P0) for _, _, P0 in rows])[:, None]
    sk = _zeta_tail(2 * k, x) - _zeta_tail(2 * k, float(P))
    shape = (len(rows), _EM_JMAX)
    # squares in Python complex: numpy's vector complex multiply rounds about
    # a third of them differently
    a2 = np.array([ca * ca for ca, _, _ in rows])[:, None]
    b2 = np.array([cb * cb for _, cb, _ in rows])[:, None]
    # in place, so at most two (rows x _EM_JMAX) complex arrays are alive
    terms = np.cumprod(np.broadcast_to(a2, shape), axis=1)
    terms -= np.cumprod(np.broadcast_to(b2, shape), axis=1)
    terms /= k
    terms *= sk
    return terms.sum(axis=1).tolist()


def pf_truncated_ratio(
    sector_a, sector_b, lat: Lattice, M: int, P: int | None = None
) -> complex:
    """Windowed eigenvalue-product ratio, converging to pf_closed(a)/pf_closed(b).

    The error decays like 1/M; with the default P = 4 M^2 the relative
    deviation from the closed form drops below 1e-4 by M = 800 on
    lattices with Im tau >= 1.  Each row's head takes one complex log per
    block product of _BLOCK ratios, so the summed log is exact only
    modulo 2 pi i, which the returned exponential removes.  Heads run one
    row at a time, so memory stays at one row's ratios; the tails of all
    rows are one (rows x _EM_JMAX) array (see the module docstring).
    Empty sectors give exactly 1.
    """
    if len(sector_a) != len(sector_b):
        raise ValueError("sectors must have equal dimension for a finite ratio")
    if P is None:
        P = 4 * M * M
    if M < 1 or P < 1:
        raise ValueError(f"window needs M >= 1 and P >= 1, got M={M}, P={P}")
    rows = _window_rows(sector_a, sector_b, lat, M, P)
    tails = iter(_tail_log_ratios([r for r in rows if r[2] < P], P))
    pmax = max((P0 for _, _, P0 in rows), default=0)
    modes = np.arange(-pmax, pmax + 1, dtype=float)
    total = complex(0)
    for ca, cb, P0 in rows:
        head = _head_log_ratio(ca, cb, modes[pmax - P0 : pmax + P0 + 1])
        total += head - next(tails) if P0 < P else head
    s_a = sum(sector_z(d, lat) for d in sector_a)
    s_b = sum(sector_z(d, lat) for d in sector_b)
    return cmath.exp(total - (s_a - s_b) / 2)


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
    the swaps; 0 exactly when the character is symmetric."""
    nz = len(char.vars) - 1
    moved = 0
    for i in range(1, nz):
        swapped = {}
        for e, c in char.coeffs.items():
            key = list(e)
            key[i], key[i + 1] = key[i + 1], key[i]
            swapped[tuple(key)] = c
        moved += differing_terms(swapped, char.coeffs)
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
