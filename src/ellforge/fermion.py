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
Heads pair the modes m and -m into one factor, so a row's head is
ca/cb times P0 paired factors (see _head_product for the one or two
pairs per row taken unpaired).  The paired factors of all rows form one
sequence, cut into chunks of _CHUNK: at M = 800 the window holds about
3.9 million of them, some 63 MB as one complex array, which would raise
peak memory, while a chunk's few arrays take about 0.5 MB, as much as the
tail step at M = 200.  Each chunk is multiplied down in blocks of _BLOCK
and the running product is rescaled by exact powers of two, so no log is
taken and nothing overflows.  Tails are cheap to batch: all rows' tails
are one (rows x _EM_JMAX) complex array, about 0.6 MB at M = 800, and the
whole tail step stays under 2 MB there.

The raw window limit differs from the closed form by exp((S_a - S_b)/2)
with S the sum of the component coordinates; pf_truncated_ratio removes
that factor internally so its M -> infinity limit is exactly
pf_closed(a) / pf_closed(b).  The window kernels import numpy in their
own bodies, so the exact side of the package loads without it.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .modforms import TWO_PI_I, Lattice, act
from .series import MultiSeries, differing_terms
from .sigma import sigma_exponential, sigma_num, sigma_product

_EM_JMAX = 24
_BLOCK = 16  # factors per block product in the window heads; a power of two
_CHUNK = 1 << 13  # paired modes per chunk of the window heads


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


def _rescale(x, work=None) -> int:
    """Scale the complex array x in place by exact powers of two, each entry
    to a modulus in [1/2, 1); return the sum of the exponents taken out.

    work, if given, is a (float, np.intc) pair of arrays of x's shape used
    as scratch, so a caller in a loop allocates nothing.
    """
    import numpy as np

    mag, e = work if work is not None else (np.empty(x.shape), np.empty(x.shape, np.intc))
    np.abs(x, out=mag)
    np.frexp(mag, out=(mag, e))
    np.negative(e, out=e)
    np.ldexp(x.real, e, out=x.real)
    np.ldexp(x.imag, e, out=x.imag)
    return -int(e.sum())


def _scaled_prod(x) -> tuple[complex, int]:
    """prod(x) as (mantissa, exponent), the product being mantissa * 2**exponent.

    Multiplies blocks of _BLOCK entries level by level and rescales every
    level, so no partial product overflows or underflows.
    """
    import numpy as np

    exp = 0
    while x.size > 1:
        x = np.concatenate((x, np.ones(-x.size % _BLOCK, dtype=complex)))
        x = x.reshape(_BLOCK, -1).prod(axis=0)
        exp += _rescale(x)
    return (complex(x[0]) if x.size else complex(1)), exp


def _head_product(rows) -> tuple[complex, int]:
    """prod (ca + m)/(cb + m) over every row and |m| <= P0, as (mantissa, exponent).

    A row contributes ca/cb for m = 0 and, for m = 1..P0, the pair m, -m
    as 1 + (ca - cb)(ca + cb)/(cb^2 - m^2).  The form
    (ca^2 - m^2)/(cb^2 - m^2) would share the rounding of ca^2 across every
    mode of the row; here (ca - cb)(ca + cb) and cb^2 are rounded once per
    row, and their rounding reaches a factor only through its correction,
    which is small once m passes |cb|.  Only where ca - m or cb - m is
    itself small does that rounding swamp the factor, so the pairs with m
    nearest to |Re ca| and to |Re cb| are taken unpaired instead, as
    (ca - m)(ca + m)/((cb - m)(cb + m)), and multiplied with the m = 0
    ratios.  The other paired modes of all rows are one sequence, taken
    _CHUNK at a time: a chunk is multiplied down in blocks of _BLOCK, each
    block's product kept as its difference from 1 until the block is done,
    into an accumulator of _CHUNK / _BLOCK entries, which is rescaled after
    every chunk.
    """
    import numpy as np

    count = np.array([P0 for _, _, P0 in rows], dtype=np.int64)
    end = np.cumsum(count)
    start = end - count
    exact = [ca / cb for ca, cb, _ in rows]
    skip = []
    for (ca, cb, P0), first in zip(rows, start.tolist()):
        for m in {round(abs(ca.real)), round(abs(cb.real))}:
            if 1 <= m <= P0:
                exact.append((ca - m) * (ca + m) / ((cb - m) * (cb + m)))
                skip.append(first + m - 1)
    mant, exp = _scaled_prod(np.array(exact, dtype=complex))
    if not rows:
        return mant, exp
    skip = np.sort(np.array(skip, dtype=np.int64))
    # per-row constants, in Python complex (see _tail_log_ratios)
    d = np.array([(ca - cb) * (ca + cb) for ca, cb, _ in rows])
    b2 = np.array([cb * cb for _, cb, _ in rows])
    total = int(end[-1])
    # each chunk's rows and skipped modes, found once for all chunks
    chunks = np.arange(0, total, _CHUNK)
    ends = np.minimum(chunks + _CHUNK, total)
    first = np.searchsorted(end, chunks, side="right").tolist()
    last = (np.searchsorted(end, ends - 1, side="right") + 1).tolist()
    skips = np.searchsorted(skip, np.append(chunks, total)).tolist()
    skip %= _CHUNK
    x = np.empty(_CHUNK, dtype=complex)
    cols = _CHUNK // _BLOCK
    ab = np.empty((_BLOCK // 2, cols), dtype=complex)  # a * b of the halving tree
    acc = np.ones(cols, dtype=complex)
    work = (np.empty(cols), np.empty(cols, np.intc))
    for c, (s, e) in enumerate(zip(chunks.tolist(), ends.tolist())):
        # rows i0 .. i1 - 1 meet the chunk; n counts each one's modes in it
        i0, i1 = first[c], last[c]
        n = np.minimum(end[i0:i1], e) - np.maximum(start[i0:i1], s)
        m = x.view(float)[: e - s]  # m^2 is dead before x is formed
        np.subtract(np.arange(s + 1.0, e + 1), np.repeat(start[i0:i1], n), out=m)
        m *= m
        den = np.repeat(b2[i0:i1], n)
        den.real -= m  # b2 - m^2 bit for bit, with no complex copy of m^2
        np.divide(np.repeat(d[i0:i1], n), den, out=x[: e - s])
        del den  # else it lives on while the next chunk builds its own
        x[e - s :] = 0
        x[skip[skips[c] : skips[c + 1]]] = 0  # taken unpaired
        # each block's product less 1, by halves: (1 + a)(1 + b) - 1 =
        # a + b + ab rounds relative to the corrections, not to 1; a is
        # overwritten by the result, as a + ab equals ab + a bit for bit
        g = x.reshape(_BLOCK, -1)
        while len(g) > 1:
            h = len(g) // 2
            a, b = g[:h], g[h:]
            np.multiply(a, b, out=ab[:h])
            a += ab[:h]
            a += b
            g = a
        g += 1
        acc *= g[0]
        exp += _rescale(acc, work)
    tail_mant, tail_exp = _scaled_prod(acc)
    return mant * tail_mant, exp + tail_exp


def _tail_log_ratios(rows, P: int) -> list[complex]:
    """Per row, sum log((ca^2 - m^2)/(cb^2 - m^2)) over P0 < m <= P.

    The log is expanded in powers of ca^2/m^2 and cb^2/m^2 up to _EM_JMAX,
    with each power sum over m taken from _zeta_tail; all rows are one
    (rows x _EM_JMAX) array.
    """
    import numpy as np

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
    lattices with Im tau >= 1.  The heads of all rows are one product of
    paired modes, carried as a mantissa and a power of two (see
    _head_product); the tails of all rows are one (rows x _EM_JMAX) array.
    Memory stays at a few chunk-sized arrays (see the module docstring).
    Empty sectors give exactly 1.
    """
    if len(sector_a) != len(sector_b):
        raise ValueError("sectors must have equal dimension for a finite ratio")
    if P is None:
        P = 4 * M * M
    if M < 1 or P < 1:
        raise ValueError(f"window needs M >= 1 and P >= 1, got M={M}, P={P}")
    rows = _window_rows(sector_a, sector_b, lat, M, P)
    tail = sum(_tail_log_ratios([r for r in rows if r[2] < P], P))
    mant, exp = _head_product(rows)
    s_a = sum(sector_z(d, lat) for d in sector_a)
    s_b = sum(sector_z(d, lat) for d in sector_b)
    out = mant * cmath.exp(-tail - (s_a - s_b) / 2)
    return complex(math.ldexp(out.real, exp), math.ldexp(out.imag, exp))


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
