"""The sparse elimination, one-pass joint kernels, key-level derivations,
block-product Pfaffian window and integer q-Pochhammer product against the
dense, object-building, per-ratio and factor-by-factor code they replaced,
kept here as oracles.
"""
from __future__ import annotations

import cmath
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from ellforge.equivderham import (
    Derivation,
    GradedElement,
    cartan_d,
    cartan_lie,
    cartan_world,
    circle_rep,
    form_d,
    form_world,
    joint_nullspace,
    linear_field_contraction,
    linear_field_lie,
    su2,
    u1,
    weil_contraction,
    weil_d,
    weil_world,
)
from ellforge.equivderham import _splice
from ellforge.fermion import SectorDatum, _row_shift, pf_truncated_ratio, sector_z
from ellforge.modforms import Lattice, qpochhammer
from ellforge.series import (
    Gaussian,
    TruncatedSeries,
    matrix_rank,
    nullspace,
    rref,
    solve_exact,
)

# ---------------------------------------------------------------- oracles


def dense_rref(rows, ncols):
    """Column-by-column Gauss-Jordan on dense rows (the replaced code)."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def dense_nullspace(rows, ncols):
    if not rows:
        return [[Fraction(int(i == j)) for i in range(ncols)] for j in range(ncols)]
    mat, pivots = dense_rref(rows, ncols)
    basis = []
    for fcol in range(ncols):
        if fcol in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fcol] = Fraction(1)
        for r, pcol in enumerate(pivots):
            vec[pcol] = -mat[r][fcol]
        basis.append(vec)
    return basis


def dense_solve(rows, rhs):
    """Particular solution with the free variables at zero, else None."""
    if not rows:
        return [] if all(x == 0 for x in rhs) else None
    ncols = len(rows[0])
    mat, pivots = dense_rref([list(r) + [b] for r, b in zip(rows, rhs)], ncols)
    if any(all(x == 0 for x in row[:ncols]) and row[ncols] != 0 for row in mat):
        return None
    sol = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        sol[c] = mat[r][ncols]
    return sol


def restrict_and_recombine(row_blocks, ncols):
    """Joint kernel one operator at a time on a shrinking basis."""
    basis = None
    for rows in row_blocks:
        if basis is None:
            basis = dense_nullspace(rows, ncols)
            continue
        if not basis:
            return []
        restricted = [
            [sum(row[i] * v[i] for i in range(ncols) if row[i]) for v in basis]
            for row in rows
        ]
        small = dense_nullspace(restricted, len(basis))
        basis = [
            [sum(w[j] * basis[j][i] for j in range(len(basis))) for i in range(ncols)]
            for w in small
        ]
    if basis is None:
        return dense_nullspace([], ncols)
    return basis


def derive_by_products(d, x):
    """Derivation applied through GradedElement products, term by term."""
    world = d.world
    ne = len(world.evens)
    out = GradedElement.zero(world)
    for (et, ot), c in x.coeffs.items():
        for i, k in enumerate(et):
            img = d.images.get(world.evens[i][0])
            if k == 0 or img is None:
                continue
            rest = tuple(e - 1 if j == i else e for j, e in enumerate(et))
            out = out + img * GradedElement(world, {(rest, ot): c * k})
        for t, oi in enumerate(ot):
            img = d.images.get(world.odds[oi][0])
            if img is None:
                continue
            sign = -1 if (d.parity and t % 2) else 1
            pre = GradedElement(world, {(et, ot[:t]): c * sign})
            post = GradedElement(world, {((0,) * ne, ot[t + 1:]): Fraction(1)})
            out = out + pre * img * post
    return out


def loop_zeta_tail(s: int, x: float) -> float:
    """sum_{m > x} m^-s by Euler-Maclaurin, one power of x per term."""
    t = x ** (1 - s) / (s - 1) - 0.5 * x ** (-s) + s * x ** (-s - 1) / 12.0
    t -= s * (s + 1) * (s + 2) * x ** (-s - 3) / 720.0
    t += s * (s + 1) * (s + 2) * (s + 3) * (s + 4) * x ** (-s - 5) / 30240.0
    return t


def loop_row_log_ratio(ca, cb, P, j, n):
    """One complex log per ratio and a term-by-term tail (the replaced row)."""
    P0 = int(3 * max(abs(ca), abs(cb))) + 48
    if P0 >= P:
        P0 = P
    m = np.arange(-P0, P0 + 1)
    num = ca + m
    den = cb + m
    small = min(np.abs(num).min(), np.abs(den).min())
    if small < 1e-12:
        which = int(np.abs(den).argmin() if np.abs(den).min() < np.abs(num).min() else np.abs(num).argmin())
        raise ValueError(
            f"vanishing eigenvalue in component {j} at (n={n}, m={int(m[which])})"
        )
    out = complex(np.sum(np.log(num / den)))
    if P0 == P:
        return out
    a2, b2 = ca * ca, cb * cb
    apow = bpow = complex(1)
    for k in range(1, 25):
        apow *= a2
        bpow *= b2
        sk = loop_zeta_tail(2 * k, float(P0)) - loop_zeta_tail(2 * k, float(P))
        out -= (apow - bpow) / k * sk
    return out


def loop_pf_truncated_ratio(sector_a, sector_b, lat, M, P=None):
    if P is None:
        P = 4 * M * M
    total = complex(0)
    for j, (da, db) in enumerate(zip(sector_a, sector_b)):
        for n in range(-M, M + 1):
            ca = _row_shift(da, n, lat.tau, lat.lam2)
            cb = _row_shift(db, n, lat.tau, lat.lam2)
            total += loop_row_log_ratio(ca, cb, P, j, n)
    s_a = sum(sector_z(d, lat) for d in sector_a)
    s_b = sum(sector_z(d, lat) for d in sector_b)
    return cmath.exp(total - (s_a - s_b) / 2)


def factor_qpochhammer(order, power=1):
    """One TruncatedSeries product per factor (1 - q^n)^power."""
    out = TruncatedSeries.one("q", order)
    for n in range(1, order + 1):
        factor = TruncatedSeries("q", order, {0: 1, n: -1})
        out = out * factor**power
    return out


# ---------------------------------------------------------------- strategies

small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# mostly zeros, now and then a Gaussian rational, real ones included
entries = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    small_fracs,
    st.builds(Gaussian, st.integers(-2, 2), st.integers(0, 2)),
)
real_entries = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), small_fracs)


@st.composite
def matrices(draw, elements=entries, max_rows=7, ncols=None):
    n = ncols if ncols is not None else draw(st.integers(1, 7))
    row = st.lists(elements, min_size=n, max_size=n)
    rows = draw(st.lists(row, max_size=max_rows))
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * n)
    return rows, n


def is_exact(x):
    return isinstance(x, (Fraction, Gaussian))


# ---------------------------------------------------------------- elimination


def test_integer_input_stays_exact():
    mat, pivots = rref([[2, 1], [1, 1]], 2)
    assert pivots == [0, 1]
    assert mat == [[1, 0], [0, 1]]
    assert all(type(x) is Fraction for row in mat for x in row)
    (vec,) = nullspace([[2, 1]], 2)
    assert vec == [Fraction(-1, 2), 1]
    assert all(type(x) is Fraction for x in vec)
    sol = solve_exact([[2, 0], [0, 4]], [1, 1])
    assert sol == [Fraction(1, 2), Fraction(1, 4)]
    assert all(type(x) is Fraction for x in sol)


def test_empty_input():
    assert rref([], 3) == ([], [])
    assert matrix_rank([], 3) == 0
    assert nullspace([], 2) == [[1, 0], [0, 1]]
    assert solve_exact([], []) == []


@settings(max_examples=150, derandomize=True)
@given(matrices())
def test_rref_matches_dense(case):
    rows, n = case
    mat, pivots = rref(rows, n)
    want, want_pivots = dense_rref(rows, n)
    assert pivots == want_pivots
    assert len(mat) == len(rows)
    assert mat[: len(pivots)] == want[: len(pivots)]
    assert all(x == 0 for row in mat[len(pivots):] for x in row)
    assert all(is_exact(x) for row in mat for x in row)
    assert matrix_rank(rows, n) == len(want_pivots)


@settings(max_examples=150, derandomize=True)
@given(matrices())
def test_nullspace_matches_dense(case):
    rows, n = case
    basis = nullspace(rows, n)
    assert basis == dense_nullspace(rows, n)
    assert all(is_exact(x) for v in basis for x in v)


@settings(max_examples=150, derandomize=True)
@given(matrices(), st.data())
def test_augmented_rows_and_solve_match_dense(case, data):
    rows, n = case
    rhs = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    aug = [row + [b] for row, b in zip(rows, rhs)]
    mat, pivots = rref(aug, n)
    want, want_pivots = dense_rref(aug, n)
    assert pivots == want_pivots
    r = len(pivots)
    assert [row[:n] for row in mat[:r]] == [row[:n] for row in want[:r]]
    # the rows without pivot vanish left of the bar; right of it they span
    # the same space, so they are all zero exactly when the oracle's are,
    # and only then is the column right of the bar unique
    assert all(x == 0 for row in mat[r:] for x in row[:n])
    consistent = all(row[n] == 0 for row in want[r:])
    assert all(row[n] == 0 for row in mat[r:]) == consistent
    if consistent:
        assert mat[:r] == want[:r]
    sol = solve_exact(rows, rhs)
    assert sol == dense_solve(rows, rhs)
    if sol is not None:
        assert all(is_exact(x) for x in sol)


@settings(max_examples=100, derandomize=True)
@given(st.integers(1, 6), st.data())
def test_joint_nullspace_matches_restrict_and_recombine(n, data):
    blocks = data.draw(st.lists(
        matrices(elements=real_entries, max_rows=5, ncols=n).map(lambda c: c[0]),
        max_size=4,
    ))
    assert joint_nullspace(blocks, n) == restrict_and_recombine(blocks, n)


# ---------------------------------------------------------------- derivations


def _worlds():
    fw = form_world(3)
    mat = ((Fraction(0), Fraction(-1), Fraction(2)),
           (Fraction(1), Fraction(0), Fraction(0)),
           (Fraction(-2), Fraction(0), Fraction(1, 2)))
    lie = su2()
    ww = weil_world(lie)
    circle = u1()
    cw = cartan_world(circle, 4)
    mats = circle_rep((1, 2))
    return [
        (fw, [form_d(fw), linear_field_contraction(fw, mat), linear_field_lie(fw, mat)]),
        (ww, [weil_d(lie, ww), weil_contraction(lie, ww, [1, Fraction(-1, 2), 3])]),
        (cw, [cartan_d(circle, cw, mats), cartan_lie(circle, cw, 0, mats)]),
    ]


WORLDS = _worlds()


@st.composite
def elements(draw, world, max_terms=5):
    ne, no = len(world.evens), len(world.odds)
    key = st.tuples(
        st.lists(st.integers(0, 2), min_size=ne, max_size=ne).map(tuple),
        st.sets(st.integers(0, no - 1), max_size=3).map(lambda s: tuple(sorted(s))),
    )
    return GradedElement(world, draw(st.dictionaries(key, small_fracs, max_size=max_terms)))


@st.composite
def derivations(draw, world):
    """Either one of the world's own operators or random generator images."""
    ops = next(ops for w, ops in WORLDS if w is world)
    if draw(st.booleans()):
        return draw(st.sampled_from(ops))
    names = [n for n, _ in world.evens + world.odds]
    chosen = draw(st.lists(st.sampled_from(names), unique=True, max_size=4))
    images = {n: draw(elements(world, max_terms=3)) for n in chosen}
    return Derivation(world, draw(st.integers(0, 1)), images)


@settings(max_examples=200, derandomize=True)
@given(st.sampled_from([w for w, _ in WORLDS]).flatmap(
    lambda w: st.tuples(derivations(w), elements(w))
))
def test_derivation_matches_products(case):
    d, x = case
    assert d(x) == derive_by_products(d, x)


@settings(max_examples=200, derandomize=True)
@given(
    st.sets(st.integers(0, 7), max_size=5).map(sorted),
    st.sets(st.integers(0, 7), max_size=3).map(sorted),
    st.data(),
)
def test_splice_sign_counts_inversions(rest, odd, data):
    t = data.draw(st.integers(0, len(rest)))
    seq = rest[:t] + odd + rest[t:]
    inversions = sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:])
    want = (0, None) if set(rest) & set(odd) else (
        (-1) ** inversions, tuple(sorted(seq))
    )
    assert _splice(tuple(rest), t, tuple(odd)) == want


# ------------------------------------------------------- Pfaffian and q-products


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except ValueError as exc:
        return None, str(exc)


sector_data = st.builds(
    SectorDatum,
    st.fractions(min_value=-2, max_value=2, max_denominator=7),
    st.fractions(min_value=-2, max_value=2, max_denominator=7),
    st.complex_numbers(max_magnitude=0.3),
)


@st.composite
def pfaffian_cases(draw):
    dim = draw(st.integers(1, 2))
    sector_a = draw(st.lists(sector_data, min_size=dim, max_size=dim))
    sector_b = draw(st.lists(sector_data, min_size=dim, max_size=dim))
    tau = complex(draw(st.floats(-0.5, 0.5)), draw(st.floats(1.0, 2.0)))
    lam2 = complex(draw(st.floats(0.7, 1.3)), draw(st.floats(-0.3, 0.3)))
    M = draw(st.integers(10, 120))
    # up to 48 every row keeps its whole window (P0 == P) and has no tail
    P = draw(st.one_of(st.none(), st.integers(1, 48), st.integers(49, 4 * M * M)))
    return sector_a, sector_b, Lattice(tau * lam2, lam2), M, P


@settings(max_examples=40, derandomize=True, deadline=None)
@given(pfaffian_cases())
def test_pf_truncated_ratio_matches_loop(case):
    value, error = _outcome(pf_truncated_ratio, *case)
    want, want_error = _outcome(loop_pf_truncated_ratio, *case)
    assert error == want_error
    if want_error is None:
        assert abs(value - want) <= 1e-11 * abs(want)


@settings(max_examples=150, derandomize=True)
@given(st.integers(0, 40), st.integers(-3, 24))
def test_qpochhammer_matches_factor_products(order, power):
    got = qpochhammer(order, power)
    want = factor_qpochhammer(order, power)
    assert got == want
    assert (got.trunc, got.minexp) == (want.trunc, want.minexp)
    assert all(type(c) is Fraction for c in got.coeffs.values())
